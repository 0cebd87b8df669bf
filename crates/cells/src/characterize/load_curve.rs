//! Characterization of the paper's Eq. (1): `I_DC = f(V_in, V_out)`.
//!
//! "...obtained during a pre-characterization step, by performing a simple
//! DC analysis, where Vin and Vout are swept across the characterization
//! range corresponding to the typical voltage swing of the given
//! technology." (Forzan & Pandini, §2.)
//!
//! The resulting [`LoadCurve`] *is* the victim-driver macromodel: dropped
//! into a cluster circuit as a table-driven VCCS it reproduces the cell's
//! full non-linear restoring behavior, which the linear holding-resistance
//! model cannot.

use sna_spice::devices::{linspace, SourceWaveform, Table2d};
use sna_spice::error::{Error, Result};
use sna_spice::netlist::Circuit;
use sna_spice::tran::TranWorkspace;

use crate::cell::{Cell, DriverMode};
use crate::characterize::{driver_fixture, driver_output_caps, CharacterizeOptions};

/// The characterized non-linear victim-driver model (paper Eq. 1) plus the
/// lumped parasitics the cluster macromodel needs alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCurve {
    /// `I_DC = f(V_in, V_out)`: current the cell sinks *from* its output
    /// node (A), on a `(V_in, V_out)` grid.
    pub table: Table2d,
    /// The drive state this was characterized in.
    pub mode: DriverMode,
    /// Supply voltage used (V).
    pub vdd: f64,
    /// Lumped output capacitance of the driver (F).
    pub c_out: f64,
    /// Direct input→output (Miller) coupling capacitance (F).
    pub c_miller: f64,
}

impl LoadCurve {
    /// Restoring current at `(v_in, v_out)` (A, positive = cell sinks
    /// current from the output node).
    pub fn current(&self, v_in: f64, v_out: f64) -> f64 {
        self.table.value(v_in, v_out)
    }

    /// Small-signal output conductance ∂I/∂V_out at a point (S). The
    /// holding resistance the superposition baseline uses is
    /// `1 / conductance` at the quiescent point.
    pub fn conductance(&self, v_in: f64, v_out: f64) -> f64 {
        self.table.eval(v_in, v_out).dz_dy
    }
}

/// Characterize `cell` in `mode` on an `opts.grid`² DC grid.
///
/// # Errors
///
/// Propagates DC convergence failures and table-construction errors.
pub fn characterize_load_curve(
    cell: &Cell,
    mode: &DriverMode,
    opts: &CharacterizeOptions,
) -> Result<LoadCurve> {
    if opts.grid < 2 {
        return Err(Error::InvalidAnalysis(
            "load-curve grid needs at least 2 points per axis".into(),
        ));
    }
    let vdd = cell.tech.vdd;
    let lo = opts.v_min_frac * vdd;
    let hi = opts.v_max_frac * vdd;
    let vin_axis = linspace(lo, hi, opts.grid);
    let vout_axis = linspace(lo, hi, opts.grid);

    let mut fx = driver_fixture(cell, mode)?;
    let (c_out, c_miller) = driver_output_caps(&fx);
    // Clamp the output with a source so its branch current measures I_DC.
    fx.ckt
        .add_vsource("Vout", fx.out, Circuit::gnd(), SourceWaveform::Dc(0.0));

    // One workspace runs the whole grid: only the two sources' DC levels
    // change between points, so assembly and the solver are paid once.
    // Each V_out column is warm-started from the row before it.
    let mut ws = TranWorkspace::new(&fx.ckt, opts.newton.solver)?;
    let mut values = Vec::with_capacity(vin_axis.len() * vout_axis.len());
    let mut warm: Vec<Option<Vec<f64>>> = vec![None; vout_axis.len()];
    for &vin in &vin_axis {
        fx.ckt
            .set_source_wave(&fx.noisy_source, SourceWaveform::Dc(vin))?;
        for (&vout, warm) in vout_axis.iter().zip(&mut warm) {
            fx.ckt.set_source_wave("Vout", SourceWaveform::Dc(vout))?;
            let sol = ws.dc(&fx.ckt, &opts.newton, warm.as_deref())?;
            // The clamp supplies what the cell sinks: I_DC = -I(Vout).
            let i_br = sol.vsource_current("Vout").expect("Vout exists");
            values.push(-i_br);
            *warm = Some(sol.unknowns().to_vec());
        }
    }
    Ok(LoadCurve {
        table: Table2d::new(vin_axis, vout_axis, values)?,
        mode: mode.clone(),
        vdd,
        c_out,
        c_miller,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::tech::Technology;

    fn small_opts() -> CharacterizeOptions {
        CharacterizeOptions {
            grid: 9,
            ..Default::default()
        }
    }

    #[test]
    fn nand2_holding_low_curve_shape() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t.clone(), 1.0);
        let mode = cell.holding_low_mode();
        let lc = characterize_load_curve(&cell, &mode, &small_opts()).unwrap();
        // At the quiescent point (vin=vdd, vout=0) the net current is small.
        // (The 9-point test grid does not place a sample exactly at vout=0,
        // so bilinear interpolation leaves a few-uA residual; the default
        // 33-point grid has an exact sample there.)
        let i_q = lc.current(t.vdd, 0.0);
        assert!(i_q.abs() < 2e-5, "quiescent current {i_q}");
        // Lifting the output produces restoring (positive, sinking) current.
        let i_mid = lc.current(t.vdd, 0.4);
        assert!(i_mid > 1e-5, "restoring current {i_mid}");
        // The restoring current SATURATES: going from 0.4 V to 0.9 V gains
        // far less than linearly — this is the non-linearity the paper is
        // about.
        let i_high = lc.current(t.vdd, 0.9);
        let linear_extrapolation = i_mid * 0.9 / 0.4;
        assert!(
            i_high < 0.75 * linear_extrapolation,
            "no saturation: i(0.4)={i_mid}, i(0.9)={i_high}, lin={linear_extrapolation}"
        );
        // Dropping the input towards ground weakens the pulldown.
        let i_weak = lc.current(0.3 * t.vdd, 0.4);
        assert!(i_weak < i_mid, "input glitch must weaken holding");
    }

    #[test]
    fn inv_holding_high_curve_shape() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t.clone(), 1.0);
        let mode = cell.holding_high_mode();
        let lc = characterize_load_curve(&cell, &mode, &small_opts()).unwrap();
        // Quiescent: vin=0, vout=vdd, current ~ 0 (coarse-grid tolerance).
        assert!(lc.current(0.0, t.vdd).abs() < 2e-5);
        // Pulling output below vdd: PMOS *sources* current into the node,
        // i.e. the sink current is negative.
        let i = lc.current(0.0, 0.7 * t.vdd);
        assert!(i < -1e-5, "restoring current {i}");
    }

    #[test]
    fn conductance_at_quiescent_matches_direction() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t.clone(), 1.0);
        let mode = cell.holding_low_mode();
        let lc = characterize_load_curve(&cell, &mode, &small_opts()).unwrap();
        let g = lc.conductance(t.vdd, 0.0);
        assert!(g > 1e-5, "holding conductance {g}");
        let r_hold = 1.0 / g;
        assert!(r_hold > 100.0 && r_hold < 100e3, "r_hold={r_hold}");
    }

    #[test]
    fn parasitics_recorded() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t, 1.0);
        let mode = cell.holding_low_mode();
        let lc = characterize_load_curve(&cell, &mode, &small_opts()).unwrap();
        assert!(lc.c_out > 0.0);
        assert!(lc.c_miller > 0.0);
    }

    #[test]
    fn grid_too_small_rejected() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 1,
            ..Default::default()
        };
        assert!(characterize_load_curve(&cell, &mode, &opts).is_err());
    }
}
