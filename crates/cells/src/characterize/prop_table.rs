//! Pre-characterized propagated-noise tables.
//!
//! "The noise propagating from the input to the output of the victim driver
//! cell is usually obtained from pre-characterized tables as a function of
//! the input noise glitch area (or width) and height." (Forzan & Pandini,
//! §1.) This module builds exactly those tables — they power the
//! linear-superposition baseline whose inaccuracy the paper demonstrates.

use serde::{Deserialize, Serialize};
use sna_spice::devices::{SourceWaveform, Table2d};
use sna_spice::error::{Error, Result};
use sna_spice::netlist::Circuit;
use sna_spice::tran::{transient_with, TranParams, TranWorkspace};
use sna_spice::units::PS;
use sna_spice::waveform::Waveform;

use crate::cell::{Cell, DriverMode};
use crate::characterize::{driver_fixture, CharacterizeOptions};

/// Propagated-noise characterization of one cell in one drive state:
/// output-glitch descriptors on an (input height × input width) grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropagatedNoiseTable {
    /// Output glitch peak magnitude (V) vs (height, width).
    pub peak: Table2d,
    /// Output glitch width at 50 % of peak (s).
    pub width50: Table2d,
    /// Output glitch area ∫|v|dt (V·s).
    pub area: Table2d,
    /// Input-peak → output-peak delay (s).
    pub delay: Table2d,
    /// Drive state characterized.
    pub mode: DriverMode,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Output load used during characterization (F).
    pub load_cap: f64,
    /// +1 if the output glitch rises from the quiescent level, −1 if it
    /// falls.
    pub output_polarity: f64,
}

impl PropagatedNoiseTable {
    /// Look up output glitch descriptors for an input glitch of magnitude
    /// `height` (V) and base `width` (s). Returns `(peak, width50, area,
    /// delay)`.
    pub fn lookup(&self, height: f64, width: f64) -> (f64, f64, f64, f64) {
        (
            self.peak.value(height, width).max(0.0),
            self.width50.value(height, width).max(0.0),
            self.area.value(height, width).max(0.0),
            self.delay.value(height, width),
        )
    }

    /// Reconstruct the propagated-noise waveform the table predicts for an
    /// input glitch `(height, width)` peaking at `t_peak_in`: a triangle
    /// with the looked-up peak, a base of twice the 50 % width, riding on
    /// `v_quiescent`, peaking at `t_peak_in + delay`.
    pub fn waveform(
        &self,
        height: f64,
        width: f64,
        t_peak_in: f64,
        v_quiescent: f64,
        horizon: f64,
    ) -> Waveform {
        let (peak, w50, _area, delay) = self.lookup(height, width);
        let t_peak = t_peak_in + delay;
        if peak <= 0.0 || w50 <= 0.0 {
            return Waveform::constant(0.0, horizon.max(1e-12), v_quiescent);
        }
        let half_base = w50; // triangle: width at 50% = base/2
        let t0 = (t_peak - half_base).max(0.0);
        let t1 = t_peak + half_base;
        let v_pk = v_quiescent + self.output_polarity * peak;
        let mut times = vec![0.0, t0, t_peak, t1, horizon.max(t1 + 1e-12)];
        let mut values = vec![v_quiescent, v_quiescent, v_pk, v_quiescent, v_quiescent];
        // Deduplicate non-increasing leading points (t0 could be 0).
        let mut ts = Vec::with_capacity(times.len());
        let mut vs = Vec::with_capacity(values.len());
        for (t, v) in times.drain(..).zip(values.drain(..)) {
            if ts.last().is_none_or(|&last| t > last) {
                ts.push(t);
                vs.push(v);
            }
        }
        Waveform::from_samples(ts, vs).expect("constructed monotone")
    }
}

/// The input-glitch grid of the flow's propagated-noise tables at supply
/// `vdd`: heights 0.25…1.05·Vdd in five steps and widths 150…1200 ps in
/// four, as `(heights, widths)` in volts and seconds.
pub fn standard_grid(vdd: f64) -> (Vec<f64>, Vec<f64>) {
    let heights = [0.25, 0.45, 0.65, 0.85, 1.05].iter().map(|f| f * vdd);
    let widths = [150.0, 300.0, 600.0, 1200.0].iter().map(|w| w * PS);
    (heights.collect(), widths.collect())
}

/// Direction of the input glitch for a drive state: away from the noisy
/// input's quiescent level towards the opposite rail.
fn glitch_sign(mode: &DriverMode, vdd: f64) -> f64 {
    let q = mode.input_levels[mode.noisy_input];
    if q > 0.5 * vdd {
        -1.0
    } else {
        1.0
    }
}

/// Reject a grid axis that is not finite, positive and strictly
/// increasing: a zero or negative width is no glitch at all, a negative
/// height a glitch towards the rail, and a table needs increasing axes.
fn check_axis(name: &str, axis: &[f64]) -> Result<()> {
    if let Some(v) = axis.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
        return Err(Error::InvalidAnalysis(format!(
            "propagated-noise grid: every {name} must be finite and positive, got {v:e}"
        )));
    }
    if let Some(w) = axis.windows(2).find(|w| w[1] <= w[0]) {
        return Err(Error::InvalidAnalysis(format!(
            "propagated-noise grid: {name}s must increase, got {:e} after {:e}",
            w[1], w[0]
        )));
    }
    Ok(())
}

/// Characterize the propagated noise of `cell` in `mode` driving
/// `load_cap`, over the `heights` × `widths` grid (heights in volts,
/// widths in seconds — triangular input glitches, rise = fall = width/2).
///
/// # Errors
///
/// Fails on a grid axis with fewer than two values or with a value that is
/// not finite, positive and larger than the one before it (checked before
/// any transient runs), or on simulator errors.
pub fn characterize_propagated_noise(
    cell: &Cell,
    mode: &DriverMode,
    load_cap: f64,
    heights: &[f64],
    widths: &[f64],
) -> Result<PropagatedNoiseTable> {
    characterize_propagated_noise_with(
        cell,
        mode,
        load_cap,
        heights,
        widths,
        &CharacterizeOptions::default(),
    )
}

/// [`characterize_propagated_noise`] with explicit solver controls
/// (`opts.newton.solver` picks the linear solver of the grid's transients).
///
/// # Errors
///
/// As [`characterize_propagated_noise`].
pub fn characterize_propagated_noise_with(
    cell: &Cell,
    mode: &DriverMode,
    load_cap: f64,
    heights: &[f64],
    widths: &[f64],
    opts: &CharacterizeOptions,
) -> Result<PropagatedNoiseTable> {
    if heights.len() < 2 || widths.len() < 2 {
        return Err(Error::InvalidAnalysis(
            "propagated-noise grid needs >= 2 heights and widths".into(),
        ));
    }
    check_axis("height", heights)?;
    check_axis("width", widths)?;
    let vdd = cell.tech.vdd;
    let q_in = mode.input_levels[mode.noisy_input];
    let sign = glitch_sign(mode, vdd);
    let out_pol = if mode.output_level < 0.5 * vdd {
        1.0
    } else {
        -1.0
    };
    let mut fx = driver_fixture(cell, mode)?;
    fx.ckt
        .add_capacitor("Cload", fx.out, Circuit::gnd(), load_cap)?;
    let n_grid = heights.len() * widths.len();
    let mut peak = vec![0.0; n_grid];
    let mut width50 = vec![0.0; n_grid];
    let mut area = vec![0.0; n_grid];
    let mut delay = vec![0.0; n_grid];
    // One workspace runs the whole grid: only the glitch source's waveform
    // changes between transients, so assembly and the solver are paid once.
    let mut ws = TranWorkspace::new(&fx.ckt, opts.newton.solver)?;
    for (wi, &w) in widths.iter().enumerate() {
        let t_start = 50e-12;
        let horizon = t_start + 3.0 * w + 1.5e-9;
        let dt = (w / 200.0).clamp(0.25e-12, 2e-12);
        let mut params = TranParams::new(horizon, dt);
        params.newton = opts.newton;
        for (hi, &h) in heights.iter().enumerate() {
            let glitch = SourceWaveform::TriangleGlitch {
                v_base: q_in,
                v_peak: q_in + sign * h,
                t_start,
                t_rise: 0.5 * w,
                t_fall: 0.5 * w,
            };
            fx.ckt.set_source_wave(&fx.noisy_source, glitch)?;
            let res = transient_with(&fx.ckt, &params, &mut ws, &[], None)?;
            let wave = res.node_waveform(fx.out);
            let m = wave.glitch_metrics(mode.output_level);
            let idx = hi * widths.len() + wi;
            peak[idx] = m.peak;
            width50[idx] = m.width;
            area[idx] = m.area;
            let t_peak_in = t_start + 0.5 * w;
            delay[idx] = m.peak_time - t_peak_in;
        }
    }
    Ok(PropagatedNoiseTable {
        peak: Table2d::new(heights.to_vec(), widths.to_vec(), peak)?,
        width50: Table2d::new(heights.to_vec(), widths.to_vec(), width50)?,
        area: Table2d::new(heights.to_vec(), widths.to_vec(), area)?,
        delay: Table2d::new(heights.to_vec(), widths.to_vec(), delay)?,
        mode: mode.clone(),
        vdd,
        load_cap,
        output_polarity: out_pol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::tech::Technology;
    use sna_spice::units::{FF, PS};

    fn nand2_table() -> PropagatedNoiseTable {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t.clone(), 1.0);
        let mode = cell.holding_low_mode();
        characterize_propagated_noise(
            &cell,
            &mode,
            20.0 * FF,
            &[0.3 * t.vdd, 0.6 * t.vdd, 0.9 * t.vdd],
            &[200.0 * PS, 500.0 * PS, 1000.0 * PS],
        )
        .unwrap()
    }

    #[test]
    fn bigger_input_glitch_bigger_output() {
        let tbl = nand2_table();
        let (p_small, ..) = tbl.lookup(0.36, 500.0 * PS);
        let (p_big, ..) = tbl.lookup(1.05, 500.0 * PS);
        assert!(p_big > p_small + 0.01, "p_small={p_small} p_big={p_big}");
        // Output glitch on a low-held NAND2 rises.
        assert_eq!(tbl.output_polarity, 1.0);
    }

    #[test]
    fn subthreshold_glitch_barely_propagates() {
        let tbl = nand2_table();
        // A 0.36 V dip from Vdd=1.2 leaves Vin=0.84 > Vdd-|Vtp|: PMOS stays
        // off and only weak coupling reaches the output.
        let (p, ..) = tbl.lookup(0.36, 500.0 * PS);
        assert!(p < 0.12, "peak={p}");
    }

    #[test]
    fn wider_glitch_more_area() {
        let tbl = nand2_table();
        let (_, _, a_narrow, _) = tbl.lookup(0.9, 220.0 * PS);
        let (_, _, a_wide, _) = tbl.lookup(0.9, 950.0 * PS);
        assert!(a_wide > a_narrow, "a_narrow={a_narrow} a_wide={a_wide}");
    }

    #[test]
    fn reconstructed_waveform_metrics_match_lookup() {
        let tbl = nand2_table();
        let (pk, w50, _, _) = tbl.lookup(0.9, 500.0 * PS);
        let w = tbl.waveform(0.9, 500.0 * PS, 1e-9, 0.0, 5e-9);
        let m = w.glitch_metrics(0.0);
        assert!((m.peak - pk).abs() < 1e-9);
        assert!((m.width - w50).abs() / w50 < 0.05);
    }

    #[test]
    fn grid_validation() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t, 1.0);
        let mode = cell.holding_low_mode();
        assert!(
            characterize_propagated_noise(&cell, &mode, 1e-15, &[0.5], &[1e-10, 2e-10]).is_err()
        );
    }

    /// Characterize a NAND2 on `heights` × `widths` and return the
    /// grid-validation message; fails if the grid is accepted.
    fn rejected(heights: &[f64], widths: &[f64]) -> String {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t, 1.0);
        let mode = cell.holding_low_mode();
        match characterize_propagated_noise(&cell, &mode, 20.0 * FF, heights, widths) {
            Err(Error::InvalidAnalysis(msg)) if msg.starts_with("propagated-noise grid") => msg,
            other => panic!("{heights:?} x {widths:?}: {other:?}"),
        }
    }

    const HEIGHTS: [f64; 3] = [0.3, 0.6, 0.9];
    const WIDTHS: [f64; 3] = [200.0 * PS, 500.0 * PS, 1000.0 * PS];

    #[test]
    fn zero_and_negative_widths_rejected() {
        for bad in [0.0, -200.0 * PS] {
            let msg = rejected(&HEIGHTS, &[bad, 500.0 * PS, 1000.0 * PS]);
            assert!(msg.contains("width must be finite and positive"), "{msg}");
        }
    }

    #[test]
    fn negative_heights_rejected() {
        for bad in [-0.3, 0.0] {
            let msg = rejected(&[bad, 0.6, 0.9], &WIDTHS);
            assert!(msg.contains("height must be finite and positive"), "{msg}");
        }
    }

    #[test]
    fn non_finite_values_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            let msg = rejected(&HEIGHTS, &[200.0 * PS, 500.0 * PS, bad]);
            assert!(msg.contains("width must be finite"), "{msg}");
            let msg = rejected(&[0.3, bad, 0.9], &WIDTHS);
            assert!(msg.contains("height must be finite"), "{msg}");
        }
    }

    #[test]
    fn non_increasing_axes_rejected() {
        let msg = rejected(&HEIGHTS, &[1000.0 * PS, 500.0 * PS, 200.0 * PS]);
        assert!(msg.contains("widths must increase"), "{msg}");
        let msg = rejected(&[0.3, 0.6, 0.6], &WIDTHS);
        assert!(msg.contains("heights must increase"), "{msg}");
    }
}
