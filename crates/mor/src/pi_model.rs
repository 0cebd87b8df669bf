//! O'Brien–Savarino Π-model reduction of a driving-point admittance.
//!
//! Matches the first three admittance moments `y1·s + y2·s² + y3·s³` of an
//! RC net with the three-element Π (near cap `C1`, resistance `R`, far cap
//! `C2`):
//!
//! ```text
//!   C2 = y2² / y3,   R = −y3² / y2³,   C1 = y1 − C2
//! ```
//!
//! The cluster macromodel fits one per aggressor driving point, as the load
//! of that aggressor's Thevenin characterization; the noise engine itself
//! integrates the projection reduction in [`crate::prima`].

use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, NodeId};

/// Three-element Π driving-point model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiModel {
    /// Capacitance at the driving point (F).
    pub c_near: f64,
    /// Series resistance (Ω).
    pub r: f64,
    /// Capacitance behind the resistance (F).
    pub c_far: f64,
}

impl PiModel {
    /// Fit from the first three driving-point admittance moments.
    ///
    /// Degenerate moment sets (non-negative `y2`, non-positive `y3`, or a
    /// far capacitance exceeding the total) fall back to a single lumped
    /// capacitor `C1 = y1`, which is always passive.
    ///
    /// # Errors
    ///
    /// Fails when `y1` (the total capacitance) is not positive.
    pub fn from_moments(y1: f64, y2: f64, y3: f64) -> Result<Self> {
        if y1.is_nan() || y1 <= 0.0 {
            return Err(Error::InvalidAnalysis(format!(
                "pi fit needs positive first moment, got {y1}"
            )));
        }
        if y2 >= 0.0 || y3 <= 0.0 {
            return Ok(PiModel {
                c_near: y1,
                r: 0.0,
                c_far: 0.0,
            });
        }
        let c2 = y2 * y2 / y3;
        let r = -y3 * y3 / (y2 * y2 * y2);
        if !(c2.is_finite() && r.is_finite()) || c2 <= 0.0 || r <= 0.0 || c2 >= y1 {
            return Ok(PiModel {
                c_near: y1,
                r: 0.0,
                c_far: 0.0,
            });
        }
        Ok(PiModel {
            c_near: y1 - c2,
            r,
            c_far: c2,
        })
    }

    /// First three admittance moments of this Π (for round-trip checks).
    pub fn moments(&self) -> (f64, f64, f64) {
        let y1 = self.c_near + self.c_far;
        let y2 = -self.r * self.c_far * self.c_far;
        let y3 = self.r * self.r * self.c_far * self.c_far * self.c_far;
        (y1, y2, y3)
    }

    /// Total capacitance (low-frequency limit).
    pub fn total_cap(&self) -> f64 {
        self.c_near + self.c_far
    }

    /// Instantiate into a circuit at `port`; returns the internal far node
    /// (or `port` itself for a degenerate lumped fit).
    ///
    /// # Errors
    ///
    /// Propagates element validation failures.
    pub fn instantiate(&self, ckt: &mut Circuit, prefix: &str, port: NodeId) -> Result<NodeId> {
        if self.c_near > 0.0 {
            ckt.add_capacitor(&format!("{prefix}.c1"), port, Circuit::gnd(), self.c_near)?;
        }
        if self.r <= 0.0 || self.c_far <= 0.0 {
            return Ok(port);
        }
        let far = ckt.node(&format!("{prefix}.far"));
        ckt.add_resistor(&format!("{prefix}.r"), port, far, self.r)?;
        ckt.add_capacitor(&format!("{prefix}.c2"), far, Circuit::gnd(), self.c_far)?;
        Ok(far)
    }
}

/// Fit a Π model to the driving point of a (single-port) RC network.
///
/// # Errors
///
/// Propagates moment-computation failures.
pub fn pi_from_network(circuit: &Circuit, port: NodeId) -> Result<PiModel> {
    let m = crate::moments::port_admittance_moments(circuit, &[port], 3)?;
    PiModel::from_moments(m[0][(0, 0)], m[1][(0, 0)], m[2][(0, 0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sna_spice::devices::SourceWaveform;
    use sna_spice::tran::{transient, TranParams};
    use sna_spice::units::{NS, PS};

    #[test]
    fn exact_on_actual_pi() {
        // A Π is reproduced exactly from its own moments.
        let truth = PiModel {
            c_near: 12e-15,
            r: 180.0,
            c_far: 25e-15,
        };
        let (y1, y2, y3) = truth.moments();
        let fit = PiModel::from_moments(y1, y2, y3).unwrap();
        assert!((fit.c_near - truth.c_near).abs() / truth.c_near < 1e-9);
        assert!((fit.r - truth.r).abs() / truth.r < 1e-9);
        assert!((fit.c_far - truth.c_far).abs() / truth.c_far < 1e-9);
    }

    #[test]
    fn degenerate_falls_back_to_lump() {
        let p = PiModel::from_moments(10e-15, 0.0, 0.0).unwrap();
        assert_eq!(p.r, 0.0);
        assert!((p.c_near - 10e-15).abs() < 1e-24);
        assert!(PiModel::from_moments(-1e-15, -1.0, 1.0).is_err());
    }

    #[test]
    fn ladder_reduces_to_plausible_pi() {
        use sna_interconnect::prelude::*;
        let w = WireGeom::new(500e-6, 0.2e6, 40e-12);
        let bus = CoupledBus::new(vec![w], vec![], 30).unwrap();
        let mut ckt = Circuit::new();
        let nets = bus.instantiate(&mut ckt, "w").unwrap();
        let pi = pi_from_network(&ckt, nets[0].near).unwrap();
        // Total cap preserved.
        assert!((pi.total_cap() - 20e-15).abs() / 20e-15 < 1e-6);
        // Both caps positive, resistance within ~x3 of the physical 100 ohm
        // (moment matching concentrates it).
        assert!(pi.c_near > 0.0 && pi.c_far > 0.0);
        assert!(pi.r > 20.0 && pi.r < 300.0, "r={}", pi.r);
    }

    #[test]
    fn pi_tracks_ladder_driving_point_waveform() {
        use sna_interconnect::prelude::*;
        // Drive both the full ladder and its Π through the same source
        // resistance; DP waveforms should agree closely.
        let w = WireGeom::new(500e-6, 0.2e6, 40e-12);
        let bus = CoupledBus::new(vec![w], vec![], 30).unwrap();
        let mut full = Circuit::new();
        let nets = bus.instantiate(&mut full, "w").unwrap();
        let dp_full = nets[0].near;
        let src = full.node("src");
        full.add_vsource(
            "V",
            src,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t_start: 0.1 * NS,
                t_rise: 100.0 * PS,
            },
        );
        full.add_resistor("Rdrv", src, dp_full, 500.0).unwrap();

        let mut net_only = Circuit::new();
        let n = bus.instantiate(&mut net_only, "w").unwrap();
        let pi = pi_from_network(&net_only, n[0].near).unwrap();
        let mut red = Circuit::new();
        let dp_red = red.node("dp");
        let src = red.node("src");
        red.add_vsource(
            "V",
            src,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t_start: 0.1 * NS,
                t_rise: 100.0 * PS,
            },
        );
        red.add_resistor("Rdrv", src, dp_red, 500.0).unwrap();
        pi.instantiate(&mut red, "pi", dp_red).unwrap();

        let p = TranParams::new(2.0 * NS, 2.0 * PS);
        let wf = transient(&full, &p).unwrap().node_waveform(dp_full);
        let wr = transient(&red, &p).unwrap().node_waveform(dp_red);
        let err = wf.max_abs_difference(&wr);
        assert!(err < 0.02, "max dp difference {err} V");
    }

    proptest! {
        /// Round trip: fit(moments(pi)) == pi for random physical Πs.
        #[test]
        fn prop_roundtrip(c1 in 1e-15f64..100e-15, r in 10.0f64..1e4, c2 in 1e-15f64..100e-15) {
            let truth = PiModel { c_near: c1, r, c_far: c2 };
            let (y1, y2, y3) = truth.moments();
            let fit = PiModel::from_moments(y1, y2, y3).unwrap();
            prop_assert!((fit.c_near - c1).abs() / c1 < 1e-6);
            prop_assert!((fit.r - r).abs() / r < 1e-6);
            prop_assert!((fit.c_far - c2).abs() / c2 < 1e-6);
        }

        /// The fit never produces negative elements from physical ladders.
        #[test]
        fn prop_physical_ladders_give_physical_pis(
            len_um in 50.0f64..2000.0,
            r_per_um in 0.05f64..1.0,
            cg_per_um in 0.01f64..0.2,
            segments in 2usize..40)
        {
            use sna_interconnect::prelude::*;
            let w = WireGeom::new(len_um * 1e-6, r_per_um * 1e6, cg_per_um * 1e-9);
            let bus = CoupledBus::new(vec![w], vec![], segments).unwrap();
            let mut ckt = Circuit::new();
            let nets = bus.instantiate(&mut ckt, "w").unwrap();
            let pi = pi_from_network(&ckt, nets[0].near).unwrap();
            prop_assert!(pi.c_near >= 0.0);
            prop_assert!(pi.c_far >= 0.0);
            prop_assert!(pi.r >= 0.0);
            let total = w.total_cg();
            prop_assert!((pi.total_cap() - total).abs() / total < 1e-3);
        }
    }
}
