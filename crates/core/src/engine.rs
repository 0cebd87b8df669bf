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
//! * the non-linear VCCS `I_DC = f(V_in(t), V_DP)` of Eq. (1) at `DP_Vic`,
//!   handled by a Newton iteration per trapezoidal step with the bilinear
//!   table's analytic `∂I/∂V_out` in the Jacobian.
//!
//! The whole system is a handful of unknowns, which is where the paper's
//! ~20× speed-up over transistor-level simulation comes from (see
//! `benches/golden_vs_macro.rs`).
//!
//! [`simulate_macromodel`] is the only integrator of the macromodel. The
//! alignment search and FRAME call it once per timing assignment, on a
//! [`ClusterMacromodel::with_timing`] copy, so a reported worst case
//! re-simulates bit for bit.

use sna_spice::dc::NewtonOptions;
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
    /// Total Newton iterations spent (0 for linear runs).
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
pub fn simulate_macromodel(model: &ClusterMacromodel) -> Result<NoiseWaveforms> {
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
    use crate::cluster::ClusterMacromodel;
    use crate::scenarios::table1_spec;

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
