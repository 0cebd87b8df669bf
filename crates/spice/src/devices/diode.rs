//! Junction diode model.
//!
//! The clamp diodes in I/O cells and the antenna diodes on long victim
//! nets are the first non-MOS nonlinearity a real deck brings in. The
//! model is the Shockley equation with a linearized extension above a
//! fixed exponent cap, so Newton iterates far from the solution can never
//! overflow to `inf`/`NaN` — the same robustness trick production
//! simulators use (SPICE3's `EXPLIM`).

/// Thermal voltage kT/q at 300 K (V).
pub const VT_300K: f64 = 0.025851;

/// Exponent cap for the Shockley exponential; beyond `vd/ (n·Vt) > EXP_CAP`
/// the I–V curve continues linearly with matching slope (C¹ continuous).
const EXP_CAP: f64 = 40.0;

/// Junction diode model card (`.model <name> d is=... n=... cj0=...`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeModel {
    /// Saturation current (A); must be positive.
    pub is: f64,
    /// Emission coefficient (ideality factor); must be positive.
    pub n: f64,
    /// Zero-bias junction capacitance (F), stamped as a constant explicit
    /// capacitor across the junction; non-negative.
    pub cj0: f64,
}

impl Default for DiodeModel {
    fn default() -> Self {
        Self {
            is: 1e-14,
            n: 1.0,
            cj0: 0.0,
        }
    }
}

/// Diode current and small-signal conductance at one bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeEval {
    /// Anode→cathode current (A).
    pub id: f64,
    /// `d(id)/d(vd)` (S).
    pub gd: f64,
}

impl DiodeModel {
    /// Evaluate at junction voltage `vd = V(anode) − V(cathode)`.
    ///
    /// Overflow-safe: above the exponent cap the exponential is replaced by
    /// its tangent line, so `id`/`gd` stay finite for any finite `vd`.
    pub fn eval(&self, vd: f64) -> DiodeEval {
        let vt = self.n * VT_300K;
        let x = vd / vt;
        if x > EXP_CAP {
            let e = EXP_CAP.exp();
            DiodeEval {
                id: self.is * (e * (1.0 + (x - EXP_CAP)) - 1.0),
                gd: self.is * e / vt,
            }
        } else {
            let e = x.exp();
            DiodeEval {
                id: self.is * (e - 1.0),
                gd: self.is * e / vt,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_bias_matches_shockley() {
        let m = DiodeModel::default();
        let e = m.eval(0.6);
        let want = 1e-14 * ((0.6 / VT_300K).exp() - 1.0);
        assert!((e.id - want).abs() < 1e-9 * want.abs());
        assert!(e.gd > 0.0);
    }

    #[test]
    fn reverse_bias_saturates() {
        let m = DiodeModel::default();
        let e = m.eval(-5.0);
        assert!((e.id + m.is).abs() < 1e-20);
        assert!(e.gd >= 0.0);
    }

    #[test]
    fn cap_keeps_extreme_bias_finite_and_continuous() {
        let m = DiodeModel::default();
        for vd in [2.0, 10.0, 1e3, 1e6] {
            let e = m.eval(vd);
            assert!(e.id.is_finite() && e.gd.is_finite(), "vd={vd}");
        }
        // C1 continuity at the cap: value and slope match across it.
        let vcap = EXP_CAP * VT_300K;
        let below = m.eval(vcap - 1e-9);
        let above = m.eval(vcap + 1e-9);
        assert!((below.id - above.id).abs() < 1e-6 * above.id.abs());
        assert!((below.gd - above.gd).abs() < 1e-6 * above.gd.abs());
    }

    #[test]
    fn emission_coefficient_scales_slope() {
        let n2 = DiodeModel {
            n: 2.0,
            ..DiodeModel::default()
        };
        let n1 = DiodeModel::default();
        // At the same forward bias, n=2 conducts much less.
        assert!(n2.eval(0.6).id < 1e-3 * n1.eval(0.6).id);
    }
}
