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

use sna_cells::characterize::TheveninDriver;
use sna_spice::backend::BatchedDenseLu;
use sna_spice::dc::NewtonOptions;
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::linalg::DenseMatrix;
use sna_spice::units::PS;
use sna_spice::waveform::Waveform;

use crate::cluster::{ClusterMacromodel, InputGlitch};

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
/// # Errors
///
/// Fails on Newton non-convergence or singular step matrices.
pub fn simulate_macromodel(model: &ClusterMacromodel) -> Result<NoiseWaveforms> {
    simulate_macromodel_with(model, &NewtonOptions::default())
}

/// [`simulate_macromodel`] with explicit Newton controls.
///
/// # Errors
///
/// Fails on Newton non-convergence or singular step matrices.
pub fn simulate_macromodel_with(
    model: &ClusterMacromodel,
    newton: &NewtonOptions,
) -> Result<NoiseWaveforms> {
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

    // Newton solve of: A x + b_vic I_dc(vin, y) = rhs.
    let newton_solve = |a: &DenseMatrix,
                        rhs: &[f64],
                        vin: f64,
                        x0: &[f64],
                        iters: &mut usize|
     -> Result<Vec<f64>> {
        let mut x = x0.to_vec();
        for _ in 0..newton.max_iter {
            *iters += 1;
            let y = y_vic(&x);
            let eval = model.load_curve.table.eval(vin, y);
            let mut residual = a.mul_vec(&x);
            for i in 0..m {
                residual[i] += red.b[(i, vic)] * eval.z - rhs[i];
            }
            let mut jac = a.clone();
            for i in 0..m {
                let bi = red.b[(i, vic)];
                if bi == 0.0 {
                    continue;
                }
                for j in 0..m {
                    jac.add(i, j, bi * eval.dz_dy * red.b[(j, vic)]);
                }
            }
            let neg: Vec<f64> = residual.iter().map(|r| -r).collect();
            let dx = jac.lu()?.solve(&neg);
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
                return Ok(x);
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
    let x0 = newton_solve(&geff, &rhs0, model.vin(0.0), &vec![0.0; m], &mut iters)?;

    // Trapezoidal stepping.
    let alpha = 2.0 / dt;
    let mut a_step = geff.clone();
    a_step.axpy(alpha, &red.c);
    // RHS companion matrix: (alpha C - Geff).
    let mut rhs_mat = DenseMatrix::zeros(m, m);
    rhs_mat.axpy(alpha, &red.c);
    rhs_mat.axpy(-1.0, &geff);

    let mut x = x0;
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
    for step in 1..=n_steps {
        let t = step as f64 * dt;
        let u = inject(t);
        // rhs = (alpha C - Geff) x0 - b_vic f(y0,t0) + B (u0 + u1)
        let mut rhs = rhs_mat.mul_vec(&x);
        let summed: Vec<f64> = u.iter().zip(&u_prev).map(|(a, b)| a + b).collect();
        let binj = bu(&summed);
        for i in 0..m {
            rhs[i] += binj[i] - red.b[(i, vic)] * f_prev;
        }
        x = newton_solve(&a_step, &rhs, model.vin(t), &x, &mut iters)?;
        times.push(t);
        record(&x, &mut port_series);
        u_prev = u;
        f_prev = model.load_curve.table.eval(model.vin(t), y_vic(&x)).z;
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

/// One timing assignment evaluated as a lane of
/// [`simulate_macromodel_timings`]: the cluster's aggressor switch times
/// (cluster order) plus an optional glitch-peak override, exactly the
/// arguments of [`ClusterMacromodel::with_timing`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimingLane {
    /// Per-aggressor input-onset times (s).
    pub switch_times: Vec<f64>,
    /// Glitch peak time override (s); `None` keeps the nominal waveform.
    pub glitch_peak: Option<f64>,
}

/// Integrate the cluster macromodel at `lanes.len()` timing assignments
/// simultaneously, K lanes wide.
///
/// Characterization artifacts (`Ĝ`/`Ĉ`/`B̂`, the Eq.-1 table, Thevenin
/// fits) are timing-independent, so every lane shares one effective
/// conductance and one trapezoidal step matrix; only the injections
/// `u(t)` and the Newton states differ per lane. The per-step Newton
/// iteration stamps all lane Jacobians into one [`BatchedDenseLu`] plane
/// and factors/solves them in a single lane-outer call. Converged lanes
/// freeze (their state stops updating and their Jacobian slot is stamped
/// to identity), so each lane's arithmetic sequence is **independent of
/// which other lanes share the batch** — a candidate evaluated alone,
/// in a K=4 batch, or in a K=8 batch produces bit-identical waveforms.
/// This is what lets the FRAME pruned and exhaustive enumerations produce
/// byte-identical reports for the candidates they share.
///
/// # Errors
///
/// Fails on Newton non-convergence or a singular lane Jacobian.
///
/// # Panics
///
/// Panics if a lane's `switch_times` length differs from the cluster's
/// aggressor count.
pub fn simulate_macromodel_timings(
    model: &ClusterMacromodel,
    lanes: &[TimingLane],
    newton: &NewtonOptions,
) -> Result<Vec<NoiseWaveforms>> {
    if lanes.is_empty() {
        return Ok(Vec::new());
    }
    let red = &model.reduced;
    let m = red.dim();
    let p = red.n_ports();
    let dt = model.spec.dt;
    let t_stop = model.spec.t_stop;
    let n_steps = (t_stop / dt).round() as usize;
    let vic = model.victim_dp_port();
    let kl = lanes.len();

    // Per-lane event data: shifted Thevenin fits and the (possibly
    // re-peaked) victim-input waveform — the cheap part of `with_timing`.
    struct LaneEvents {
        thevenins: Vec<TheveninDriver>,
        vin_wave: SourceWaveform,
    }
    let events: Vec<LaneEvents> = lanes
        .iter()
        .map(|tl| {
            assert_eq!(
                tl.switch_times.len(),
                model.spec.aggressors.len(),
                "one switch time per aggressor"
            );
            let thevenins = tl
                .switch_times
                .iter()
                .zip(&model.spec.aggressors)
                .zip(&model.thevenins)
                .map(|((&t_new, agg), th)| th.shifted(t_new - agg.switch_time))
                .collect();
            let vin_wave = match (tl.glitch_peak, model.spec.victim.glitch) {
                (Some(t_peak), Some(g)) => {
                    InputGlitch { t_peak, ..g }.waveform(model.q_in, model.spec.tech.vdd)
                }
                _ => model.vin_wave.clone(),
            };
            LaneEvents {
                thevenins,
                vin_wave,
            }
        })
        .collect();
    let h = 0.05 * PS;
    let dvin_dt = |w: &SourceWaveform, t: f64| (w.eval(t + h) - w.eval(t - h)) / (2.0 * h);

    // Shared Geff = Ĝ + Σ (1/R_TH) b_k b_kᵀ — R_TH is timing-independent.
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
    let inject = |ev: &LaneEvents, t: f64| -> Vec<f64> {
        let mut u = vec![0.0; p];
        for (k, th) in ev.thevenins.iter().enumerate() {
            u[model.aggressor_port(k)] = th.wave.eval(t) / th.rth;
        }
        u[vic] += model.c_miller_injection * dvin_dt(&ev.vin_wave, t);
        u
    };
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

    // Batched Newton solve of: A x + b_vic I_dc(vin, y) = rhs, all lanes at
    // once. Per-lane residual/Jacobian stamping, one plane factor + solve
    // per iteration, per-lane convergence with frozen masks.
    let mut jac = BatchedDenseLu::new(m, kl);
    let mut rhs_plane = vec![0.0; m * kl];
    let mut dx_plane = vec![0.0; m * kl];
    let mut iters = vec![0usize; kl];
    let newton_solve = |a: &DenseMatrix,
                        rhs: &[Vec<f64>],
                        vin: &[f64],
                        x: &mut [Vec<f64>],
                        iters: &mut [usize],
                        jac: &mut BatchedDenseLu,
                        rhs_plane: &mut [f64],
                        dx_plane: &mut [f64]|
     -> Result<()> {
        let mut frozen = vec![false; kl];
        for _ in 0..newton.max_iter {
            if frozen.iter().all(|&f| f) {
                break;
            }
            let data = jac.data_mut();
            for (lane, frz) in frozen.iter().enumerate() {
                if *frz {
                    // Identity slot + zero RHS: the factor/solve arithmetic
                    // of other lanes never reads this lane's values, and
                    // the zero solution leaves the frozen state untouched.
                    for i in 0..m {
                        for j in 0..m {
                            data[(i * m + j) * kl + lane] = f64::from(u8::from(i == j));
                        }
                        rhs_plane[i * kl + lane] = 0.0;
                    }
                    continue;
                }
                iters[lane] += 1;
                let y = y_vic(&x[lane]);
                let eval = model.load_curve.table.eval(vin[lane], y);
                let residual = a.mul_vec(&x[lane]);
                for i in 0..m {
                    let bi = red.b[(i, vic)];
                    rhs_plane[i * kl + lane] = -(residual[i] + bi * eval.z - rhs[lane][i]);
                    for j in 0..m {
                        let mut v = a[(i, j)];
                        if bi != 0.0 {
                            v += bi * eval.dz_dy * red.b[(j, vic)];
                        }
                        data[(i * m + j) * kl + lane] = v;
                    }
                }
            }
            if let Err(lane) = jac.factor() {
                return Err(Error::InvalidAnalysis(format!(
                    "noise-engine-batched: singular Jacobian in lane {lane}"
                )));
            }
            jac.solve(rhs_plane, dx_plane);
            for (lane, frz) in frozen.iter_mut().enumerate() {
                if *frz {
                    continue;
                }
                let mut max_dx = 0.0_f64;
                for i in 0..m {
                    max_dx = max_dx.max(dx_plane[i * kl + lane].abs());
                }
                let scale = if max_dx > newton.max_step {
                    newton.max_step / max_dx
                } else {
                    1.0
                };
                let mut done = true;
                for i in 0..m {
                    let s = scale * dx_plane[i * kl + lane];
                    x[lane][i] += s;
                    if s.abs() > newton.reltol * x[lane][i].abs() + newton.vntol {
                        done = false;
                    }
                }
                if done && scale == 1.0 {
                    *frz = true;
                }
            }
        }
        if frozen.iter().all(|&f| f) {
            Ok(())
        } else {
            Err(Error::NonConvergence {
                analysis: "noise-engine-batched",
                iterations: newton.max_iter,
                time: 0.0,
                residual: f64::NAN,
            })
        }
    };

    // DC initial condition per lane: Geff x + b_vic I_dc = B u(0).
    let u0: Vec<Vec<f64>> = events.iter().map(|ev| inject(ev, 0.0)).collect();
    let rhs0: Vec<Vec<f64>> = u0.iter().map(|u| bu(u)).collect();
    let vin0: Vec<f64> = events.iter().map(|ev| ev.vin_wave.eval(0.0)).collect();
    let mut x: Vec<Vec<f64>> = vec![vec![0.0; m]; kl];
    newton_solve(
        &geff,
        &rhs0,
        &vin0,
        &mut x,
        &mut iters,
        &mut jac,
        &mut rhs_plane,
        &mut dx_plane,
    )?;

    // Trapezoidal stepping, all lanes in lockstep (shared time axis).
    let alpha = 2.0 / dt;
    let mut a_step = geff.clone();
    a_step.axpy(alpha, &red.c);
    let mut rhs_mat = DenseMatrix::zeros(m, m);
    rhs_mat.axpy(alpha, &red.c);
    rhs_mat.axpy(-1.0, &geff);

    let mut u_prev = u0;
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut port_series: Vec<Vec<Vec<f64>>> = vec![vec![Vec::with_capacity(n_steps + 1); p]; kl];
    let record = |x: &[f64], series: &mut [Vec<f64>]| {
        let ys = red.port_voltages(x);
        for (s, y) in series.iter_mut().zip(ys) {
            s.push(y);
        }
    };
    times.push(0.0);
    let mut f_prev: Vec<f64> = Vec::with_capacity(kl);
    for lane in 0..kl {
        record(&x[lane], &mut port_series[lane]);
        f_prev.push(model.load_curve.table.eval(vin0[lane], y_vic(&x[lane])).z);
    }
    let mut rhs: Vec<Vec<f64>> = vec![vec![0.0; m]; kl];
    let mut vin_t = vec![0.0; kl];
    for step in 1..=n_steps {
        let t = step as f64 * dt;
        let mut u_now: Vec<Vec<f64>> = Vec::with_capacity(kl);
        for lane in 0..kl {
            let u = inject(&events[lane], t);
            let r = &mut rhs[lane];
            let base = rhs_mat.mul_vec(&x[lane]);
            let summed: Vec<f64> = u.iter().zip(&u_prev[lane]).map(|(a, b)| a + b).collect();
            let binj = bu(&summed);
            for i in 0..m {
                r[i] = base[i] + binj[i] - red.b[(i, vic)] * f_prev[lane];
            }
            vin_t[lane] = events[lane].vin_wave.eval(t);
            u_now.push(u);
        }
        newton_solve(
            &a_step,
            &rhs,
            &vin_t,
            &mut x,
            &mut iters,
            &mut jac,
            &mut rhs_plane,
            &mut dx_plane,
        )?;
        times.push(t);
        for lane in 0..kl {
            record(&x[lane], &mut port_series[lane]);
            f_prev[lane] = model.load_curve.table.eval(vin_t[lane], y_vic(&x[lane])).z;
        }
        u_prev = u_now;
    }
    let mut out = Vec::with_capacity(kl);
    for (lane, series) in port_series.into_iter().enumerate() {
        let mut by_port: Vec<Waveform> = Vec::with_capacity(p);
        for s in series {
            by_port
                .push(Waveform::from_samples(times.clone(), s).expect("monotone engine time axis"));
        }
        let dp = by_port[model.victim_dp_port()].clone();
        let receiver = by_port[model.victim_receiver_port()].clone();
        let aggressor_dps = (0..model.thevenins.len())
            .map(|k| by_port[model.aggressor_port(k)].clone())
            .collect();
        out.push(NoiseWaveforms {
            dp,
            receiver,
            aggressor_dps,
            newton_iterations: iters[lane],
        });
    }
    Ok(out)
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
    fn batched_lanes_are_composition_independent() {
        // The same timing assignment must produce bit-identical waveforms
        // whether it runs alone, in a small batch, or in a large batch —
        // the property the FRAME pruned-vs-exhaustive byte-identity gate
        // rests on.
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let newton = NewtonOptions::default();
        use sna_spice::units::NS;
        let lane = |t: f64| TimingLane {
            switch_times: vec![t],
            glitch_peak: None,
        };
        let solo = simulate_macromodel_timings(&model, &[lane(0.5 * NS)], &newton).unwrap();
        let batch = simulate_macromodel_timings(
            &model,
            &[
                lane(0.3 * NS),
                lane(0.5 * NS),
                lane(0.8 * NS),
                lane(1.1 * NS),
            ],
            &newton,
        )
        .unwrap();
        let a = solo[0].receiver.values();
        let b = batch[1].receiver.values();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "lane diverged across batches");
        }
        assert_eq!(solo[0].newton_iterations, batch[1].newton_iterations);
    }

    #[test]
    fn batched_single_lane_matches_serial_engine_closely() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let serial = simulate_macromodel(&model).unwrap();
        let batched = simulate_macromodel_timings(
            &model,
            &[TimingLane {
                switch_times: vec![model.spec.aggressors[0].switch_time],
                glitch_peak: None,
            }],
            &NewtonOptions::default(),
        )
        .unwrap();
        let sm = serial.dp_metrics(model.q_out);
        let bm = batched[0].dp_metrics(model.q_out);
        // Different LU arithmetic (serial factors vs batched plane), so
        // only numerical closeness is guaranteed.
        assert!(
            (sm.peak - bm.peak).abs() < 1e-9,
            "serial {} vs batched {}",
            sm.peak,
            bm.peak
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
