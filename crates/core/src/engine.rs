//! The dedicated noise-cluster engine.
//!
//! "Since the noise cluster macromodel is a simple circuit, the total noise
//! waveform can be accurately and efficiently computed by means of a
//! dedicated engine embedded into the noise analysis tool." (§2.)
//!
//! The engine integrates the reduced interconnect `Ĉ·ẋ + Ĝ·x = B̂·u` with:
//!
//! * aggressor Thevenin drivers folded in as Norton pairs — a constant
//!   conductance `1/R_TH` on the port plus the injection `V_TH(t)/R_TH`;
//! * the known victim-input waveform's Miller feed-through
//!   `c_miller · dV_in/dt` injected at `DP_Vic`;
//! * the non-linear VCCS `I_DC = f(V_in(t), V_DP)` of Eq. (1) at `DP_Vic`.
//!
//! That VCCS is the only non-linear element, and the engine is built around
//! it. Let `G_eff = Ĝ + Σ b_k·b_kᵀ/R_TH` over the aggressor ports, `b` the
//! `DP_Vic` column of `B̂` and `y = bᵀ·x` the `DP_Vic` voltage. Every
//! trapezoidal step solves `A·x + b·I_DC(V_in, y) = r` with the same matrix
//! `A = G_eff + (2/dt)·Ĉ`, so `A` is factored once per run, giving
//! `W = A⁻¹·b` and `S = bᵀ·W` (the resistance the VCCS sees into the linear
//! network). A step is then:
//!
//! 1. the linear response `x_lin = A⁻¹·r`, one mat-vec with the propagator
//!    `[P | Q] = A⁻¹·[M | B̂]` precomputed from the same factorization;
//! 2. Newton on the scalar equation `y + S·I_DC(V_in, y) = bᵀ·x_lin`, with
//!    the bilinear table's analytic `∂I/∂V_out`;
//! 3. the state `x = x_lin − W·I`, where `I` is the VCCS current
//!    linearized at the last Newton iterate.
//!
//! No step factors a matrix or allocates. The Jacobian of the full
//! m-dimensional Newton, `A + b·I'·bᵀ`, is a rank-one update of `A`, so in
//! exact arithmetic its iterate is `x_lin − W·I` for the scalar iterate's
//! `I`: the engine keeps the full Newton's iterates, damping and convergence
//! test and only replaces its m×m solves. The whole system is a handful of unknowns,
//! which is where the paper's speed-up over transistor-level simulation
//! comes from (see `benches/golden_vs_macro.rs`).
//!
//! [`simulate_macromodel`] is the only integrator of the macromodel. The
//! alignment search and FRAME call it once per timing assignment, on a
//! [`ClusterMacromodel::with_timing`] copy, so a reported worst case
//! re-simulates bit for bit.

use sna_spice::dc::NewtonOptions;
use sna_spice::devices::Table2d;
use sna_spice::error::{Error, Result};
use sna_spice::linalg::{DenseMatrix, LuFactors};
use sna_spice::waveform::Waveform;

use crate::cluster::ClusterMacromodel;

/// Waveforms produced by one noise-analysis run (engine, baseline, or
/// golden reference) on a cluster.
#[derive(Debug, Clone)]
pub struct NoiseWaveforms {
    /// Victim driving-point voltage (`DP_Vic`), absolute volts.
    pub dp: Waveform,
    /// Victim receiver-tap voltage.
    pub receiver: Waveform,
    /// Aggressor driving-point voltages.
    pub aggressor_dps: Vec<Waveform>,
    /// Total Newton iterations spent (0 for linear runs). For the engine
    /// each iteration is one scalar `DP_Vic` solve (its count is the one a
    /// dense m×m Newton would take); for the golden reference, one
    /// transistor-level Newton iteration.
    pub newton_iterations: usize,
}

impl NoiseWaveforms {
    /// Glitch metrics of the driving-point waveform around `q_out`.
    pub fn dp_metrics(&self, q_out: f64) -> sna_spice::waveform::GlitchMetrics {
        self.dp.glitch_metrics(q_out)
    }
}

/// Integrate the cluster macromodel. This is the paper's method.
///
/// Factors the t = 0 matrix and the step matrix `A = G_eff + (2/dt)·Ĉ` once
/// each, then takes `t_stop/dt` trapezoidal steps of one propagator mat-vec
/// and one scalar Newton (see the [module docs](self)). A step's Newton
/// starts at the previous state; it scales the update `Δx` down to
/// [`NewtonOptions::max_step`] and stops after an unscaled update with every
/// `|Δx_i| ≤ reltol·|x_i| + vntol`, with [`NewtonOptions::default`]. The
/// current carried into the next step's right-hand side is `I_DC` at the
/// accepted state's `DP_Vic` voltage.
///
/// The t = 0 operating point, `G_eff·x + b·I_DC = B̂·u(0)`, is a system of
/// the same form, so it shares the scalar Newton (started at `x = 0`). Only
/// the factored matrix differs. `G_eff` alone is nearly singular: the
/// victim wire's only DC path is its driver, so `S` would be of order
/// 1e10–1e11 Ω, and when the input glitch is already under way at t = 0
/// the Miller injection makes `x_lin` and `W·I` huge and nearly
/// cancelling. So the t = 0 system factors `G_eff + g·b·bᵀ`, with `g` the
/// driver's output conductance at its quiescent point, and hands Newton
/// the VCCS `I_DC − g·y`. Residual and Jacobian are unchanged, and so are
/// the Newton iterates, but the matrix is well conditioned.
///
/// The stepping loop allocates nothing, and the output waveforms take
/// ownership of the per-port sample buffers.
///
/// # Errors
///
/// Fails if an engine matrix or a Newton Jacobian is singular, or on Newton
/// non-convergence.
pub fn simulate_macromodel(model: &ClusterMacromodel) -> Result<NoiseWaveforms> {
    let red = &model.reduced;
    let m = red.dim();
    let p = red.n_ports();
    let dt = model.spec.dt;
    let n_steps = (model.spec.t_stop / dt).round() as usize;
    let table = &model.load_curve.table;
    let vic = model.victim_dp_port();
    let agg_ports: Vec<usize> = (0..model.thevenins.len())
        .map(|k| model.aggressor_port(k))
        .collect();
    let b: Vec<f64> = (0..m).map(|i| red.b[(i, vic)]).collect();

    // Geff = Ĝ + Σ (1/R_TH) b_k b_kᵀ for aggressor ports.
    let mut geff = red.g.clone();
    for (th, &port) in model.thevenins.iter().zip(&agg_ports) {
        let g = 1.0 / th.rth;
        for i in 0..m {
            let bi = red.b[(i, port)];
            if bi == 0.0 {
                continue;
            }
            for j in 0..m {
                geff.add(i, j, g * bi * red.b[(j, port)]);
            }
        }
    }
    // Port current injections at time t (independent of the state).
    let inject = |t: f64, u: &mut [f64]| {
        u.fill(0.0);
        for (th, &port) in model.thevenins.iter().zip(&agg_ports) {
            u[port] = th.wave.eval(t) / th.rth;
        }
        u[vic] += model.c_miller_injection * model.dvin_dt(t);
    };
    let mut iters = 0usize;

    // DC initial condition: Geff x + b I_dc = B u(0), Newton from x = 0.
    let mut u_prev = vec![0.0; p];
    inject(0.0, &mut u_prev);
    // The driver's output conductance at its quiescent point.
    let g_hold = table.eval(model.vin(0.0), model.q_out).dz_dy;
    let mut dc = PortSystem::factor(&geff, &b, g_hold)?;
    let mut x_lin = dc.lu.solve(&red.b.mul_vec(&u_prev));
    let mut x = vec![0.0; m];
    dc.newton(table, model.vin(0.0), &x_lin, &mut x, 0.0, &mut iters)?;
    // Nonlinear current at the previous accepted point.
    let mut f_prev = table.eval(model.vin(0.0), dot(&b, &x)).z;

    // Trapezoidal stepping: A x_n + b I_n = M x_{n-1} + B (u_n + u_{n-1}) - b I_{n-1}.
    let alpha = 2.0 / dt;
    let mut a_step = geff.clone();
    a_step.axpy(alpha, &red.c);
    let mut step = PortSystem::factor(&a_step, &b, 0.0)?;
    // Propagator [P | Q] = A⁻¹ [M | B], with M = alpha C - Geff.
    let mut prop = DenseMatrix::zeros(m, m + p);
    let mut col = vec![0.0; m];
    let mut sol = vec![0.0; m];
    for j in 0..m + p {
        for (i, c) in col.iter_mut().enumerate() {
            *c = if j < m {
                alpha * red.c[(i, j)] - geff[(i, j)]
            } else {
                red.b[(i, j - m)]
            };
        }
        step.lu.solve_into(&col, &mut sol);
        for (i, &v) in sol.iter().enumerate() {
            prop[(i, j)] = v;
        }
    }
    // Bᵀ, for the port voltages.
    let mut bt = DenseMatrix::zeros(p, m);
    for i in 0..m {
        for k in 0..p {
            bt[(k, i)] = red.b[(i, k)];
        }
    }

    let mut times = Vec::with_capacity(n_steps + 1);
    let mut series: Vec<Vec<f64>> = (0..p).map(|_| Vec::with_capacity(n_steps + 1)).collect();
    let mut ports = vec![0.0; p];
    let mut record = |t: f64, x: &[f64]| {
        times.push(t);
        bt.mul_vec_into(x, &mut ports);
        for (s, &v) in series.iter_mut().zip(&ports) {
            s.push(v);
        }
    };
    record(0.0, &x);
    // Propagator input [x_{n-1}; u_n + u_{n-1}].
    let mut xu = vec![0.0; m + p];
    let mut u = vec![0.0; p];
    for n in 1..=n_steps {
        let t = n as f64 * dt;
        inject(t, &mut u);
        xu[..m].copy_from_slice(&x);
        for ((s, now), prev) in xu[m..].iter_mut().zip(&u).zip(&u_prev) {
            *s = now + prev;
        }
        prop.mul_vec_into(&xu, &mut x_lin);
        for (xl, w) in x_lin.iter_mut().zip(&step.w) {
            *xl -= w * f_prev;
        }
        let vin = model.vin(t);
        step.newton(table, vin, &x_lin, &mut x, t, &mut iters)?;
        record(t, &x);
        std::mem::swap(&mut u, &mut u_prev);
        f_prev = table.eval(vin, dot(&b, &x)).z;
    }
    let mut wave = |port: usize| {
        Waveform::from_samples(times.clone(), std::mem::take(&mut series[port]))
            .expect("monotone engine time axis")
    };
    Ok(NoiseWaveforms {
        dp: wave(vic),
        receiver: wave(model.victim_receiver_port()),
        aggressor_dps: agg_ports.iter().map(|&port| wave(port)).collect(),
        newton_iterations: iters,
    })
}

/// One engine matrix `A` (`G_eff` at t = 0, the step matrix after) with
/// the conductance `g` moved from the VCCS into it: factors `A_g = A + g·b·bᵀ`
/// and keeps its `DP_Vic` response `W = A_g⁻¹·b`, `S = bᵀ·W`. The system
/// `A·x + b·I_DC(y) = r` is then `A_g·x + b·(I_DC(y) − g·y) = r`.
struct PortSystem {
    lu: LuFactors,
    b: Vec<f64>,
    g: f64,
    w: Vec<f64>,
    s: f64,
    /// Newton update buffer.
    dx: Vec<f64>,
}

impl PortSystem {
    fn factor(a: &DenseMatrix, b: &[f64], g: f64) -> Result<Self> {
        let mut a_g = a.clone();
        if g != 0.0 {
            for (i, &bi) in b.iter().enumerate() {
                for (j, &bj) in b.iter().enumerate() {
                    a_g.add(i, j, g * bi * bj);
                }
            }
        }
        let lu = a_g
            .lu()
            .map_err(|_| Error::InvalidAnalysis("noise-engine: singular engine matrix".into()))?;
        let w = lu.solve(b);
        let s = dot(b, &w);
        Ok(Self {
            lu,
            b: b.to_vec(),
            g,
            w,
            s,
            dx: vec![0.0; b.len()],
        })
    }

    /// Newton on `A_g·x + b·f(y) = A_g·x_lin`, where `y = bᵀ·x` and
    /// `f(y) = I_DC(vin, y) − g·y`, updating `x` in place from the value it
    /// holds; `t` only labels a non-convergence error.
    ///
    /// The Jacobian `A_g + b·f'·bᵀ` is a rank-one update of `A_g`, so a
    /// Newton step needs no factorization: the scalar linearization of
    /// `y + S·f(y) = bᵀ·x_lin` gives `Δy`, and the full Newton iterate is
    /// `x_lin − W·(f + f'·Δy)`. Damping to `max_step` and the convergence
    /// test act on the full update `Δx` with [`NewtonOptions::default`], as
    /// in a dense Newton, so the iterates are the dense Newton's own.
    fn newton(
        &mut self,
        table: &Table2d,
        vin: f64,
        x_lin: &[f64],
        x: &mut [f64],
        t: f64,
        iters: &mut usize,
    ) -> Result<()> {
        let newton = NewtonOptions::default();
        let y_lin = dot(&self.b, x_lin);
        for _ in 0..newton.max_iter {
            *iters += 1;
            let y = dot(&self.b, x);
            let eval = table.eval(vin, y);
            let (f, df) = (eval.z - self.g * y, eval.dz_dy - self.g);
            let slope = 1.0 + self.s * df;
            if slope.abs() < 1e-300 {
                return Err(Error::InvalidAnalysis(
                    "noise-engine: singular Newton Jacobian".into(),
                ));
            }
            let dy = -((y + self.s * f) - y_lin) / slope;
            let f_lin = f + df * dy;
            let mut max_dx = 0.0_f64;
            for (((d, &xl), &w), &xi) in self.dx.iter_mut().zip(x_lin).zip(&self.w).zip(&*x) {
                *d = (xl - w * f_lin) - xi;
                max_dx = max_dx.max(d.abs());
            }
            let scale = if max_dx > newton.max_step {
                newton.max_step / max_dx
            } else {
                1.0
            };
            let mut done = true;
            for (xi, &d) in x.iter_mut().zip(&self.dx) {
                let s = scale * d;
                *xi += s;
                if s.abs() > newton.reltol * xi.abs() + newton.vntol {
                    done = false;
                }
            }
            if done && scale == 1.0 {
                return Ok(());
            }
        }
        Err(Error::NonConvergence {
            analysis: "noise-engine",
            iterations: newton.max_iter,
            time: t,
            residual: f64::NAN,
        })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

#[cfg(test)]
/// The engine before its factor-once kernel, kept verbatim as the test
/// oracle of [`simulate_macromodel`]: the same integration with the full
/// m×m Jacobian re-stamped and re-factored on every Newton iteration.
///
/// Each trapezoidal step solves `A·x + b_vic·I_dc(V_in, y) = rhs` by
/// Newton. The residual is `(A·x + b_vic·z) − rhs`, the step right-hand
/// side `(M·x + B·(u + u_prev)) − b_vic·f_prev`, and the Jacobian is
/// factored by the serial dense [`LuFactors`]. These operation orders fix
/// the last bits of every result; changing them moves alignment and FRAME
/// outcomes by rounding.
///
/// # Errors
///
/// Fails on Newton non-convergence or a singular Newton Jacobian.
fn simulate_macromodel_oracle(model: &ClusterMacromodel) -> Result<NoiseWaveforms> {
    let newton = NewtonOptions::default();
    let red = &model.reduced;
    let m = red.dim();
    let p = red.n_ports();
    let dt = model.spec.dt;
    let t_stop = model.spec.t_stop;
    let n_steps = (t_stop / dt).round() as usize;
    let vic = model.victim_dp_port();

    // Geff = Ĝ + Σ (1/R_TH) b_k b_kᵀ for aggressor ports.
    let mut geff = red.g.clone();
    for (k, th) in model.thevenins.iter().enumerate() {
        let port = model.aggressor_port(k);
        let g = 1.0 / th.rth;
        for i in 0..m {
            let bi = red.b[(i, port)];
            if bi == 0.0 {
                continue;
            }
            for j in 0..m {
                geff.add(i, j, g * bi * red.b[(j, port)]);
            }
        }
    }
    // Port current injections at time t (independent of the state).
    let inject = |t: f64| -> Vec<f64> {
        let mut u = vec![0.0; p];
        for (k, th) in model.thevenins.iter().enumerate() {
            u[model.aggressor_port(k)] = th.wave.eval(t) / th.rth;
        }
        u[vic] += model.c_miller_injection * model.dvin_dt(t);
        u
    };
    // B·u as a state-space vector.
    let bu = |u: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (pp, up) in u.iter().enumerate() {
                acc += red.b[(i, pp)] * up;
            }
            *o = acc;
        }
        out
    };
    let y_vic = |x: &[f64]| -> f64 {
        let mut acc = 0.0;
        for (i, &xi) in x.iter().enumerate().take(m) {
            acc += red.b[(i, vic)] * xi;
        }
        acc
    };

    // Newton solve of: A x + b_vic I_dc(vin, y) = rhs, updating x in place.
    let mut jac = DenseMatrix::zeros(m, m);
    // Factor buffers: `refactor` redoes the full pivot search in place.
    let mut lu: LuFactors = DenseMatrix::identity(m)
        .lu()
        .expect("the identity is non-singular");
    let mut ax = vec![0.0; m];
    let mut neg = vec![0.0; m];
    let mut dx = vec![0.0; m];
    let mut newton_solve =
        |a: &DenseMatrix, rhs: &[f64], vin: f64, x: &mut [f64], iters: &mut usize| -> Result<()> {
            for _ in 0..newton.max_iter {
                *iters += 1;
                let eval = model.load_curve.table.eval(vin, y_vic(x));
                a.mul_vec_into(x, &mut ax);
                for i in 0..m {
                    let bi = red.b[(i, vic)];
                    neg[i] = -((ax[i] + bi * eval.z) - rhs[i]);
                    for j in 0..m {
                        let mut v = a[(i, j)];
                        if bi != 0.0 {
                            v += bi * eval.dz_dy * red.b[(j, vic)];
                        }
                        jac[(i, j)] = v;
                    }
                }
                if lu.refactor(&jac).is_err() {
                    return Err(Error::InvalidAnalysis(
                        "noise-engine: singular Newton Jacobian".into(),
                    ));
                }
                lu.solve_into(&neg, &mut dx);
                let max_dx = dx.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()));
                let scale = if max_dx > newton.max_step {
                    newton.max_step / max_dx
                } else {
                    1.0
                };
                let mut done = true;
                for i in 0..m {
                    let s = scale * dx[i];
                    x[i] += s;
                    if s.abs() > newton.reltol * x[i].abs() + newton.vntol {
                        done = false;
                    }
                }
                if done && scale == 1.0 {
                    return Ok(());
                }
            }
            Err(Error::NonConvergence {
                analysis: "noise-engine",
                iterations: newton.max_iter,
                time: 0.0,
                residual: f64::NAN,
            })
        };

    let mut iters = 0usize;
    // DC initial condition: Geff x + b_vic I_dc = B u(0).
    let u0 = inject(0.0);
    let rhs0 = bu(&u0);
    let mut x = vec![0.0; m];
    newton_solve(&geff, &rhs0, model.vin(0.0), &mut x, &mut iters)?;

    // Trapezoidal stepping.
    let alpha = 2.0 / dt;
    let mut a_step = geff.clone();
    a_step.axpy(alpha, &red.c);
    // RHS companion matrix M = (alpha C - Geff).
    let mut rhs_mat = DenseMatrix::zeros(m, m);
    rhs_mat.axpy(alpha, &red.c);
    rhs_mat.axpy(-1.0, &geff);

    let mut u_prev = u0;
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut port_series: Vec<Vec<f64>> = vec![Vec::with_capacity(n_steps + 1); p];
    let record = |x: &[f64], series: &mut Vec<Vec<f64>>| {
        let ys = red.port_voltages(x);
        for (s, y) in series.iter_mut().zip(ys) {
            s.push(y);
        }
    };
    times.push(0.0);
    record(&x, &mut port_series);
    // Nonlinear current at the previous accepted point.
    let mut f_prev = model.load_curve.table.eval(model.vin(0.0), y_vic(&x)).z;
    let mut rhs = vec![0.0; m];
    for step in 1..=n_steps {
        let t = step as f64 * dt;
        let u = inject(t);
        let base = rhs_mat.mul_vec(&x);
        let summed: Vec<f64> = u.iter().zip(&u_prev).map(|(a, b)| a + b).collect();
        let binj = bu(&summed);
        for i in 0..m {
            rhs[i] = (base[i] + binj[i]) - red.b[(i, vic)] * f_prev;
        }
        let vin = model.vin(t);
        newton_solve(&a_step, &rhs, vin, &mut x, &mut iters)?;
        times.push(t);
        record(&x, &mut port_series);
        u_prev = u;
        f_prev = model.load_curve.table.eval(vin, y_vic(&x)).z;
    }
    let mk = |series: Vec<f64>| {
        Waveform::from_samples(times.clone(), series).expect("monotone engine time axis")
    };
    let mut series = port_series.into_iter();
    let mut by_port: Vec<Waveform> = Vec::with_capacity(p);
    for _ in 0..p {
        by_port.push(mk(series.next().expect("port series")));
    }
    let dp = by_port[model.victim_dp_port()].clone();
    let receiver = by_port[model.victim_receiver_port()].clone();
    let aggressor_dps = (0..model.thevenins.len())
        .map(|k| by_port[model.aggressor_port(k)].clone())
        .collect();
    Ok(NoiseWaveforms {
        dp,
        receiver,
        aggressor_dps,
        newton_iterations: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::worst_case_alignment;
    use crate::cluster::{ClusterMacromodel, MacromodelOptions};
    use crate::library::NoiseModelLibrary;
    use crate::scenarios::{falling_spec, mixed_phase_spec, table1_spec, table2_spec};
    use crate::sna::{Design, SnaOptions};
    use sna_cells::Technology;

    fn abs_rel_ok(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
        (a - b).abs() <= abs_tol + rel_tol * a.abs().max(b.abs())
    }

    /// Run the kernel and the full-Newton oracle on `model` and require
    /// equal time axes and every DP, receiver and aggressor sample within
    /// 1e-12 V + 1e-9 relative.
    fn assert_matches_oracle(case: &str, model: &ClusterMacromodel) {
        let fast = simulate_macromodel(model).unwrap();
        let slow = simulate_macromodel_oracle(model).unwrap();
        assert_eq!(fast.aggressor_dps.len(), slow.aggressor_dps.len());
        let ports = [
            ("dp", &fast.dp, &slow.dp),
            ("receiver", &fast.receiver, &slow.receiver),
        ]
        .into_iter()
        .chain(
            fast.aggressor_dps
                .iter()
                .zip(&slow.aggressor_dps)
                .map(|(a, b)| ("aggressor dp", a, b)),
        );
        for (port, a, b) in ports {
            assert_eq!(a.times(), b.times(), "{case} {port}: time axes differ");
            for (k, (&va, &vb)) in a.values().iter().zip(b.values()).enumerate() {
                assert!(
                    abs_rel_ok(va, vb, 1e-12, 1e-9),
                    "{case} {port} sample {k}: kernel {va} V, oracle {vb} V"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_on_paper_scenarios() {
        for (case, spec) in [
            ("table1", table1_spec()),
            ("table2", table2_spec()),
            ("falling", falling_spec()),
            ("mixed_phase", mixed_phase_spec()),
        ] {
            assert_matches_oracle(case, &ClusterMacromodel::build(&spec).unwrap());
        }
    }

    #[test]
    fn kernel_matches_oracle_on_flow_clusters() {
        // From the flow design: net000 INV, 3 aggressors; net002 NAND2, 3
        // aggressors, glitch; net003 NOR2, 1 aggressor, glitch; net005 INV,
        // 2 aggressors.
        let design = Design::random(&Technology::cmos130(), 6, 2005);
        let library = NoiseModelLibrary::new();
        for i in [0, 2, 3, 5] {
            let cl = &design.clusters[i];
            let model = ClusterMacromodel::build_with_library(
                &cl.spec,
                &MacromodelOptions::default(),
                &library,
            )
            .unwrap();
            assert_matches_oracle(&cl.name, &model);
        }
    }

    #[test]
    #[ignore = "64 cluster builds and alignment searches; run in release with -- --ignored"]
    fn kernel_matches_oracle_on_flow_design_at_worst_case() {
        let design = Design::random(&Technology::cmos130(), 64, 2005);
        let library = NoiseModelLibrary::new();
        let window = SnaOptions::default().align_window;
        for cl in &design.clusters {
            let model = ClusterMacromodel::build_with_library(
                &cl.spec,
                &MacromodelOptions::default(),
                &library,
            )
            .unwrap();
            assert_matches_oracle(&cl.name, &model);
            let worst = worst_case_alignment(&model, window).unwrap();
            assert_matches_oracle(
                &format!("{} at worst case", cl.name),
                &model.with_timing(&worst.switch_times, worst.glitch_peak_time),
            );
        }
    }

    #[test]
    fn quiet_cluster_stays_quiet() {
        // No aggressor switching (switch far in the future) and no input
        // glitch: the DP must sit at the quiescent level throughout.
        let mut spec = table1_spec();
        spec.victim.glitch = None;
        spec.aggressors[0].switch_time = 1.0; // 1 s — far outside the window
        let model = ClusterMacromodel::build(&spec).unwrap();
        let res = simulate_macromodel(&model).unwrap();
        let metrics = res.dp_metrics(model.q_out);
        assert!(
            metrics.peak < 0.02,
            "quiet cluster produced {} V of noise",
            metrics.peak
        );
    }

    #[test]
    fn injected_only_glitch_has_sane_shape() {
        let mut spec = table1_spec();
        spec.victim.glitch = None;
        let model = ClusterMacromodel::build(&spec).unwrap();
        let res = simulate_macromodel(&model).unwrap();
        let m = res.dp_metrics(model.q_out);
        // A rising aggressor on a low victim injects an upward glitch that
        // must stay well below the rail but clearly above the noise floor.
        assert!(m.peak > 0.05, "peak={}", m.peak);
        assert!(m.peak < model.spec.tech.vdd);
        assert_eq!(m.polarity, 1.0);
        // DP decays back to quiescence.
        assert!(res.dp.value_at(model.spec.t_stop).abs() < 0.03);
        // Aggressor DP ends at the rail.
        let agg_end = res.aggressor_dps[0].value_at(model.spec.t_stop);
        assert!(
            (agg_end - model.spec.tech.vdd).abs() < 0.03,
            "agg end {agg_end}"
        );
    }

    #[test]
    fn combined_exceeds_injected_only() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let combined = simulate_macromodel(&model).unwrap().dp_metrics(model.q_out);
        let mut quiet_spec = spec.clone();
        quiet_spec.victim.glitch = None;
        let model_quiet = ClusterMacromodel::build(&quiet_spec).unwrap();
        let injected = simulate_macromodel(&model_quiet)
            .unwrap()
            .dp_metrics(model_quiet.q_out);
        assert!(
            combined.peak > injected.peak,
            "combined {} <= injected {}",
            combined.peak,
            injected.peak
        );
    }

    #[test]
    fn receiver_sees_filtered_glitch() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let res = simulate_macromodel(&model).unwrap();
        let dp = res.dp_metrics(model.q_out);
        let rc = res.receiver.glitch_metrics(model.q_out);
        // The receiver tap sees a comparable glitch (lightly RC-filtered).
        assert!(rc.peak > 0.5 * dp.peak);
        assert!(rc.peak < 1.3 * dp.peak + 0.05);
    }
}
