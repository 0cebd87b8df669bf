//! Noise Rejection Curves (NRC).
//!
//! The sign-off criterion of §1: "the noise at the victim receiver is
//! compared against dynamic noise margins, represented by the Noise
//! Rejection Curve. When the noise waveform width and amplitude are in the
//! NRC failure region (above the curve), the noise analysis tool flags an
//! error."
//!
//! A receiver's NRC is characterized transistor-level: for each glitch
//! width, bisect on the glitch height until the receiver's output crosses
//! half-rail (a momentary logic upset). Narrow glitches are filtered by the
//! receiver's own dynamics, so the failure height rises as width shrinks —
//! the classic L-shaped rejection curve.
//!
//! A probe asks only whether the output crossed half-rail, so a failing
//! probe stops at its first sample past half-rail; a passing one runs its
//! full horizon. The verdict, and with it every fail height, is the one
//! the full-horizon run gives.

use serde::{Deserialize, Serialize};
use sna_cells::characterize::driver_fixture;
use sna_cells::Cell;
use sna_obs::{phase_span, Phase};
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::netlist::Circuit;
use sna_spice::solver::SolverKind;
use sna_spice::tran::{transient_with, NodeVoltages, TranParams, TranWorkspace};
use sna_spice::waveform::GlitchMetrics;

/// A characterized noise rejection curve for one receiver cell and input
/// polarity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseRejectionCurve {
    /// Glitch widths (s), ascending.
    pub widths: Vec<f64>,
    /// Minimal failing glitch height (V) per width.
    pub fail_heights: Vec<f64>,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl NoiseRejectionCurve {
    /// Failure-threshold height at `width` (linear interpolation, clamped).
    pub fn threshold(&self, width: f64) -> f64 {
        let ws = &self.widths;
        if width <= ws[0] {
            return self.fail_heights[0];
        }
        if width >= ws[ws.len() - 1] {
            return self.fail_heights[ws.len() - 1];
        }
        let hi = ws.partition_point(|&w| w <= width);
        let lo = hi - 1;
        let f = (width - ws[lo]) / (ws[hi] - ws[lo]);
        self.fail_heights[lo] + f * (self.fail_heights[hi] - self.fail_heights[lo])
    }

    /// Whether a glitch of `(width, height)` lies in the failure region.
    pub fn fails(&self, width: f64, height: f64) -> bool {
        height >= self.threshold(width)
    }

    /// Noise margin (V): threshold minus height; negative = failing.
    pub fn margin(&self, width: f64, height: f64) -> f64 {
        self.threshold(width) - height
    }

    /// Classify glitch metrics (uses the 50 % width as the NRC width
    /// coordinate, the convention of table-driven sign-off).
    pub fn classify(&self, m: &GlitchMetrics) -> bool {
        self.fails(m.width, m.peak)
    }
}

/// Characterize the NRC of `receiver` for an upward glitch on a quiescent-
/// low input (`input_low = true`) or a downward glitch on a quiescent-high
/// input. `widths` are the triangular glitch base widths to characterize.
///
/// # Errors
///
/// Fails on empty width grids or simulator errors.
pub fn characterize_nrc(
    receiver: &Cell,
    input_low: bool,
    widths: &[f64],
) -> Result<NoiseRejectionCurve> {
    characterize_nrc_with(receiver, input_low, widths, SolverKind::Auto)
}

/// [`characterize_nrc`] with an explicit linear-solver selection for the
/// bisection transients.
///
/// # Errors
///
/// Fails on empty width grids or simulator errors.
pub fn characterize_nrc_with(
    receiver: &Cell,
    input_low: bool,
    widths: &[f64],
    solver: SolverKind,
) -> Result<NoiseRejectionCurve> {
    bisect_nrc(receiver, input_low, widths, solver, true)
}

/// The bisection behind [`characterize_nrc_with`]. With `early_stop` false
/// every probe runs to its full horizon: the oracle the stop rule is
/// checked against.
fn bisect_nrc(
    receiver: &Cell,
    input_low: bool,
    widths: &[f64],
    solver: SolverKind,
    early_stop: bool,
) -> Result<NoiseRejectionCurve> {
    if widths.len() < 2 {
        return Err(Error::InvalidAnalysis("NRC needs at least 2 widths".into()));
    }
    let _t = phase_span(Phase::Nrc);
    let vdd = receiver.tech.vdd;
    // Receiver drive state: input low means the cell holds its output in
    // the state implied by a low noisy input — i.e. the holding-high mode
    // for an inverting receiver.
    let mode = if input_low {
        receiver.holding_high_mode()
    } else {
        receiver.holding_low_mode()
    };
    let q_in = mode.input_levels[mode.noisy_input];
    let q_out = mode.output_level;
    let sign = if input_low { 1.0 } else { -1.0 };
    let mut fx = driver_fixture(receiver, &mode)?;
    // Typical fanout load on the receiver's output.
    fx.ckt.add_capacitor(
        "Cload",
        fx.out,
        Circuit::gnd(),
        2.0 * receiver.input_capacitance(),
    )?;
    let half = 0.5 * vdd;
    // One workspace for the whole bisection grid: every probe reuses the
    // assembled MNA system and solver state, only the glitch source
    // waveform changes between transients.
    let mut ws = TranWorkspace::new(&fx.ckt, solver)?;
    let mut fail_heights = Vec::with_capacity(widths.len());
    for &w in widths {
        let fails_at = |h: f64,
                        fx: &mut sna_cells::characterize::DriverFixture,
                        ws: &mut TranWorkspace|
         -> Result<bool> {
            let t_start = 50e-12;
            fx.ckt.set_source_wave(
                &fx.noisy_source,
                SourceWaveform::TriangleGlitch {
                    v_base: q_in,
                    v_peak: q_in + sign * h,
                    t_start,
                    t_rise: 0.5 * w,
                    t_fall: 0.5 * w,
                },
            )?;
            let horizon = t_start + 2.5 * w + 1.0e-9;
            let dt = (w / 150.0).clamp(0.5e-12, 2e-12);
            let mut params = TranParams::new(horizon, dt);
            params.newton.solver = solver;
            let past_half = |v: f64| if q_out > half { v < half } else { v > half };
            let mut stop = |_, v: NodeVoltages<'_>| early_stop && past_half(v.get(fx.out));
            let res = transient_with(&fx.ckt, &params, ws, &[], Some(&mut stop))?;
            let out = res.node_waveform(fx.out);
            Ok(out.values().iter().any(|&v| past_half(v)))
        };
        // Bisection over height.
        let mut lo = 0.05 * vdd;
        let mut hi = 1.5 * vdd;
        if !fails_at(hi, &mut fx, &mut ws)? {
            // Even a rail-and-a-half glitch does not upset: record the cap.
            fail_heights.push(hi);
            continue;
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if fails_at(mid, &mut fx, &mut ws)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        fail_heights.push(0.5 * (lo + hi));
    }
    Ok(NoiseRejectionCurve {
        widths: widths.to_vec(),
        fail_heights,
        vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_cells::{CellType, Technology};
    use sna_spice::units::PS;

    fn inv_nrc() -> NoiseRejectionCurve {
        let t = Technology::cmos130();
        let inv = Cell::inv(t, 1.0);
        characterize_nrc(&inv, true, &[100.0 * PS, 300.0 * PS, 900.0 * PS]).unwrap()
    }

    #[test]
    fn curve_is_monotone_nonincreasing_in_width() {
        let nrc = inv_nrc();
        for w in nrc.fail_heights.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-6,
                "NRC should reject taller narrow glitches: {:?}",
                nrc.fail_heights
            );
        }
    }

    #[test]
    fn thresholds_physically_plausible() {
        let nrc = inv_nrc();
        // Wide glitches fail somewhere between the device threshold and
        // the rail; narrow ones need more.
        let wide = nrc.threshold(900.0 * PS);
        assert!(wide > 0.3 && wide < 1.2, "wide threshold {wide}");
        let narrow = nrc.threshold(100.0 * PS);
        assert!(narrow > wide, "narrow {narrow} <= wide {wide}");
    }

    #[test]
    fn classification_and_margin() {
        let nrc = inv_nrc();
        let thr = nrc.threshold(300.0 * PS);
        assert!(nrc.fails(300.0 * PS, thr + 0.05));
        assert!(!nrc.fails(300.0 * PS, thr - 0.05));
        assert!(nrc.margin(300.0 * PS, thr - 0.05) > 0.0);
        assert!(nrc.margin(300.0 * PS, thr + 0.05) < 0.0);
    }

    #[test]
    fn interpolation_clamps_outside_grid() {
        let nrc = inv_nrc();
        assert_eq!(nrc.threshold(1.0 * PS), nrc.fail_heights[0]);
        assert_eq!(
            nrc.threshold(1e-6),
            nrc.fail_heights[nrc.fail_heights.len() - 1]
        );
    }

    /// Early-stopped probes give the full-horizon oracle's fail heights
    /// bit for bit.
    fn assert_nrc_matches_oracle(receiver: &Cell, input_low: bool, widths: &[f64]) {
        let nrc = characterize_nrc(receiver, input_low, widths).unwrap();
        let oracle = bisect_nrc(receiver, input_low, widths, SolverKind::Auto, false).unwrap();
        let bits = |c: &NoiseRejectionCurve| c.fail_heights.iter().map(|h| h.to_bits()).collect();
        let (got, want): (Vec<u64>, Vec<u64>) = (bits(&nrc), bits(&oracle));
        assert_eq!(
            got,
            want,
            "{} {:?} x{} input_low={input_low}: {:?} vs {:?}",
            receiver.tech.name,
            receiver.cell_type,
            receiver.strength,
            nrc.fail_heights,
            oracle.fail_heights
        );
    }

    #[test]
    fn early_stop_fail_heights_equal_full_horizon_oracle() {
        let t = Technology::cmos130();
        for receiver in [Cell::inv(t.clone(), 1.0), Cell::nand2(t, 1.0)] {
            for input_low in [true, false] {
                assert_nrc_matches_oracle(&receiver, input_low, &[100.0 * PS, 400.0 * PS]);
            }
        }
    }

    /// The NRC half of the characterization oracle gate: every receiver
    /// type of both technologies, both input polarities, the flow's five
    /// NRC widths.
    #[test]
    #[ignore = "24 curves against the oracle, about 5 s in release; run with --ignored"]
    fn early_stop_fail_heights_equal_oracle_on_full_grid() {
        let widths = [100.0, 200.0, 400.0, 800.0, 1600.0].map(|w| w * PS);
        for tech in [Technology::cmos130(), Technology::cmos90()] {
            let receivers = [
                Cell::inv(tech.clone(), 1.0),
                Cell::inv(tech.clone(), 2.0),
                Cell::new(CellType::Buf, tech.clone(), 1.0),
                Cell::nand2(tech.clone(), 1.0),
                Cell::nor2(tech.clone(), 1.0),
                Cell::new(CellType::Aoi21, tech, 1.0),
            ];
            for receiver in &receivers {
                for input_low in [true, false] {
                    assert_nrc_matches_oracle(receiver, input_low, &widths);
                }
            }
        }
    }

    #[test]
    fn too_few_widths_rejected() {
        let t = Technology::cmos130();
        let inv = Cell::inv(t, 1.0);
        assert!(characterize_nrc(&inv, true, &[100.0 * PS]).is_err());
    }
}
