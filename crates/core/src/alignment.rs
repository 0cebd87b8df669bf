//! Worst-case aggressor / glitch alignment search.
//!
//! "Our approach can be straightforwardly extended to clusters with several
//! aggressors with different switching directions and phase alignments."
//! (§2.) Superposition-based flows *assume* the worst case is all peaks
//! aligned; with a non-linear victim that is no longer exact, so this
//! module searches the timing space directly, using the fast macromodel
//! engine as the evaluator — the search is only affordable *because* the
//! engine is orders of magnitude faster than transistor-level simulation.
//!
//! Every probe is one [`simulate_macromodel`] run on a
//! [`ClusterMacromodel::with_timing`] copy, so the reported
//! [`AlignmentResult::dp_metrics`] is exactly what the engine gives when
//! re-run at the found timing. The search ends with an evaluation at that
//! timing and returns its waveforms ([`AlignmentResult::waveforms`]), so a
//! caller needs no further engine run.

use sna_spice::error::Result;
use sna_spice::solver::BackendKind;
use sna_spice::waveform::GlitchMetrics;

use crate::cluster::ClusterMacromodel;
use crate::engine::{simulate_macromodel, NoiseWaveforms};

/// Outcome of the worst-case search.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// Optimized aggressor input-onset times (s).
    pub switch_times: Vec<f64>,
    /// Optimized glitch peak time (s), if the cluster has a glitch.
    pub glitch_peak_time: Option<f64>,
    /// Victim DP glitch metrics at the worst case found.
    pub dp_metrics: GlitchMetrics,
    /// Number of engine evaluations spent.
    pub evaluations: usize,
    /// Engine waveforms at the worst case found: the evaluation that
    /// produced [`AlignmentResult::dp_metrics`].
    pub waveforms: NoiseWaveforms,
}

/// Maximize the victim DP glitch peak over aggressor switch times and the
/// input-glitch peak time, by cyclic coordinate descent (one grid pass plus
/// golden-section refinement per coordinate, two sweeps).
///
/// `window` is the half-width (s) of the timing interval searched around
/// each event's nominal time.
///
/// # Errors
///
/// Propagates engine failures.
pub fn worst_case_alignment(model: &ClusterMacromodel, window: f64) -> Result<AlignmentResult> {
    let n_agg = model.spec.aggressors.len();
    let mut switch_times: Vec<f64> = model
        .spec
        .aggressors
        .iter()
        .map(|a| a.switch_time)
        .collect();
    let mut glitch_peak = model.spec.victim.glitch.map(|g| g.t_peak);
    let mut evaluations = 0usize;
    let eval = |st: &[f64],
                gp: Option<f64>,
                evals: &mut usize|
     -> Result<(GlitchMetrics, NoiseWaveforms)> {
        *evals += 1;
        let waves = simulate_macromodel(&model.with_timing(st, gp))?;
        Ok((waves.dp_metrics(model.q_out), waves))
    };
    let (mut best, mut best_waves) = eval(&switch_times, glitch_peak, &mut evaluations)?;
    // Coordinates: aggressors 0..n_agg, then (optionally) the glitch.
    let n_coords = n_agg + usize::from(glitch_peak.is_some());
    for _sweep in 0..2 {
        for coord in 0..n_coords {
            let nominal = if coord < n_agg {
                switch_times[coord]
            } else {
                glitch_peak.expect("glitch coordinate exists")
            };
            let probe = |t: f64, evals: &mut usize| -> Result<f64> {
                let t = t.max(0.0);
                let (st, gp) = if coord < n_agg {
                    let mut st = switch_times.clone();
                    st[coord] = t;
                    (st, glitch_peak)
                } else {
                    (switch_times.clone(), Some(t))
                };
                Ok(eval(&st, gp, evals)?.0.peak)
            };
            // Coarse grid.
            let grid = 7;
            let mut best_t = nominal;
            let mut best_peak = best.peak;
            for i in 0..grid {
                let t = nominal - window + 2.0 * window * i as f64 / (grid - 1) as f64;
                let peak = probe(t, &mut evaluations)?;
                if peak > best_peak {
                    best_peak = peak;
                    best_t = t;
                }
            }
            // Golden-section refinement around the best grid point.
            let phi = 0.618_033_988_749_895;
            let step = 2.0 * window / (grid - 1) as f64;
            let (mut lo, mut hi) = (best_t - step, best_t + step);
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = probe(x1, &mut evaluations)?;
            let mut f2 = probe(x2, &mut evaluations)?;
            for _ in 0..8 {
                if f1 > f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = probe(x1, &mut evaluations)?;
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = probe(x2, &mut evaluations)?;
                }
            }
            let t_opt = if f1 > f2 { x1 } else { x2 };
            if f1.max(f2) > best_peak {
                best_t = t_opt;
            }
            if coord < n_agg {
                switch_times[coord] = best_t.max(0.0);
            } else {
                glitch_peak = Some(best_t.max(0.0));
            }
            (best, best_waves) = eval(&switch_times, glitch_peak, &mut evaluations)?;
        }
    }
    Ok(AlignmentResult {
        switch_times,
        glitch_peak_time: glitch_peak,
        dp_metrics: best,
        evaluations,
        waveforms: best_waves,
    })
}

/// [`worst_case_alignment`] under its former name. It stays only because
/// `perfbench/` still calls it, and goes with [`BackendKind`]; the last
/// argument is ignored.
///
/// # Errors
///
/// Propagates engine failures.
pub fn worst_case_alignment_batched(
    model: &ClusterMacromodel,
    window: f64,
    _backend: BackendKind,
) -> Result<AlignmentResult> {
    worst_case_alignment(model, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterMacromodel;
    use crate::scenarios::table1_spec;
    use sna_spice::units::{NS, PS};
    use sna_spice::waveform::Waveform;

    #[test]
    fn alignment_improves_a_misaligned_cluster() {
        // Start with the glitch displaced from the injected peak by an
        // amount the search window can bridge (the window models the
        // realistic timing uncertainty of the events).
        let mut spec = table1_spec();
        if let Some(g) = &mut spec.victim.glitch {
            g.t_peak = 1.3 * NS;
        }
        let model = ClusterMacromodel::build(&spec).unwrap();
        let nominal = simulate_macromodel(&model).unwrap().dp_metrics(model.q_out);
        let res = worst_case_alignment(&model, 700.0 * PS).unwrap();
        assert!(
            res.dp_metrics.peak > nominal.peak * 1.1,
            "search failed to improve: nominal={}, found={}",
            nominal.peak,
            res.dp_metrics.peak
        );
        assert!(res.evaluations > 10);
        // The worst case brings the two events together — either the glitch
        // moved earlier or the aggressor moved later (both are valid).
        let gp = res.glitch_peak_time.unwrap();
        let st = res.switch_times[0];
        let gap_before = 1.3 * NS - spec.aggressors[0].switch_time;
        let gap_after = gp - st;
        assert!(
            gap_after < 0.75 * gap_before,
            "events did not converge: glitch at {gp:e}, aggressor at {st:e}"
        );
    }

    #[test]
    fn found_worst_case_re_simulates_bitwise() {
        // The reported DP metrics and the returned waveforms are the
        // engine's own at the found timing: re-running it there reproduces
        // every bit.
        let mut spec = table1_spec();
        if let Some(g) = &mut spec.victim.glitch {
            g.t_peak = 1.3 * NS;
        }
        let model = ClusterMacromodel::build(&spec).unwrap();
        let res = worst_case_alignment(&model, 700.0 * PS).unwrap();
        let again =
            simulate_macromodel(&model.with_timing(&res.switch_times, res.glitch_peak_time))
                .unwrap();
        let bits = |g: &GlitchMetrics| {
            [g.peak, g.polarity, g.peak_time, g.width, g.area].map(f64::to_bits)
        };
        assert_eq!(bits(&res.dp_metrics), bits(&again.dp_metrics(model.q_out)));
        let samples = |w: &Waveform| -> Vec<u64> {
            w.times()
                .iter()
                .chain(w.values())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(samples(&res.waveforms.receiver), samples(&again.receiver));
    }

    #[test]
    fn with_timing_shifts_events() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let shifted = model.with_timing(&[1.0 * NS], Some(1.2 * NS));
        assert_eq!(shifted.spec.aggressors[0].switch_time, 1.0 * NS);
        assert_eq!(shifted.spec.victim.glitch.unwrap().t_peak, 1.2 * NS);
        // Thevenin EMF moved by the same delta (0.6 ns).
        let t50_orig = model.thevenins[0].t50();
        let t50_new = shifted.thevenins[0].t50();
        assert!((t50_new - t50_orig - 0.6 * NS).abs() < 1.0 * PS);
    }
}
