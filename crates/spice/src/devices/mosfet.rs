//! Level-1 (Shichman–Hodges) MOSFET model with smoothed turn-on.
//!
//! The model is the classic square-law device with channel-length modulation
//! and body effect, with one numerical refinement: the overdrive voltage is
//! passed through a softplus with a small (10 mV) temperature-like scale, so
//! current and both derivatives are smooth across the cutoff boundary. This
//! is what lets Newton–Raphson converge reliably on stacked-transistor cells
//! without SPICE's full battery of continuation hacks, while leaving the
//! strong-inversion characteristics (the non-linearity the paper's
//! macromodel feeds on) essentially untouched.

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Level-1 model card (per-technology, per-polarity).
///
/// Units: SI. `vt0` is signed like in SPICE (negative for PMOS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage (V); negative for PMOS.
    pub vt0: f64,
    /// Transconductance parameter µ·Cox (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Body-effect coefficient (√V).
    pub gamma: f64,
    /// Surface potential 2φF (V).
    pub phi: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate-source overlap capacitance per width (F/m).
    pub cgso: f64,
    /// Gate-drain overlap capacitance per width (F/m).
    pub cgdo: f64,
    /// Drain/source junction capacitance per width (F/m).
    pub cj: f64,
}

/// Smoothing scale for the cutoff transition (V).
const SOFT_VOV: f64 = 0.010;

/// Evaluated device currents and small-signal derivatives, in the *internal*
/// NMOS-normalized, source/drain-ordered frame (see
/// [`MosfetModel::eval_terminal`], which maps it to the terminals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetEval {
    /// Drain current (A), flowing drain→source internally.
    pub id: f64,
    /// ∂id/∂vgs (S).
    pub gm: f64,
    /// ∂id/∂vds (S).
    pub gds: f64,
    /// ∂id/∂vbs (S).
    pub gmb: f64,
}

impl MosfetModel {
    /// Effective threshold voltage with body effect, in NMOS-normalized
    /// voltages (`vbs <= 0` in normal operation).
    fn vt_eff(&self, vbs: f64) -> (f64, f64) {
        let vt0 = self.vt0.abs();
        if self.gamma == 0.0 {
            return (vt0, 0.0);
        }
        let arg = (self.phi - vbs).max(1e-3);
        let vt = vt0 + self.gamma * (arg.sqrt() - self.phi.sqrt());
        // dvt/dvbs = -gamma / (2 sqrt(phi - vbs))
        let dvt_dvbs = -self.gamma / (2.0 * arg.sqrt());
        (vt, dvt_dvbs)
    }

    /// Evaluate the NMOS-normalized model with `vds >= 0` assumed.
    /// Callers must handle polarity and source/drain swapping (see
    /// [`MosfetModel::eval_terminal`]).
    fn eval_normalized(&self, vgs: f64, vds: f64, vbs: f64, w_over_l: f64) -> MosfetEval {
        debug_assert!(vds >= 0.0);
        let (vt, dvt_dvbs) = self.vt_eff(vbs);
        let vov_raw = vgs - vt;
        // Softplus smoothing of the overdrive: vov = s*ln(1 + exp(raw/s)).
        let s = SOFT_VOV;
        let (vov, dvov) = if vov_raw > 40.0 * s {
            (vov_raw, 1.0)
        } else if vov_raw < -40.0 * s {
            // exp underflows; keep an explicit tiny tail for smoothness.
            (s * (vov_raw / s).exp(), (vov_raw / s).exp())
        } else {
            let e = (vov_raw / s).exp();
            (s * (1.0 + e).ln(), e / (1.0 + e))
        };
        let beta = self.kp * w_over_l;
        let clm = 1.0 + self.lambda * vds;
        let (id, gm_v, gds_v);
        if vds < vov {
            // Triode region.
            let core = (vov - 0.5 * vds) * vds;
            id = beta * core * clm;
            gm_v = beta * vds * clm; // ∂id/∂vov
            gds_v = beta * ((vov - vds) * clm + core * self.lambda);
        } else {
            // Saturation.
            let core = 0.5 * vov * vov;
            id = beta * core * clm;
            gm_v = beta * vov * clm;
            gds_v = beta * core * self.lambda;
        }
        // Chain rule through the softplus and the body effect.
        let gm = gm_v * dvov;
        let gmb = gm_v * dvov * (-dvt_dvbs);
        MosfetEval {
            id,
            gm,
            gds: gds_v.max(1e-12),
            gmb,
        }
    }

    /// Evaluate terminal current and derivatives for arbitrary terminal
    /// voltages `(vd, vg, vs, vb)` (volts, absolute).
    ///
    /// Returns the current flowing *into the drain terminal* (out of the
    /// source terminal) along with derivatives w.r.t. the four terminal
    /// voltages, handling PMOS polarity and drain/source inversion
    /// internally.
    pub fn eval_terminal(
        &self,
        vd: f64,
        vg: f64,
        vs: f64,
        vb: f64,
        w: f64,
        l: f64,
    ) -> TerminalEval {
        let w_over_l = w / l;
        // Polarity transform: PMOS evaluates as NMOS on negated voltages;
        // currents negate back, derivatives are unchanged (sign² = 1).
        let sign = match self.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        let (ud, ug, us, ub) = (sign * vd, sign * vg, sign * vs, sign * vb);
        // Source/drain swap so the normalized model sees vds >= 0.
        let swapped = ud < us;
        let (td, ts) = if swapped { (us, ud) } else { (ud, us) };
        let vgs = ug - ts;
        let vds = td - ts;
        let vbs = ub - ts;
        let e = self.eval_normalized(vgs, vds, vbs, w_over_l);
        // Map normalized derivatives back to terminal derivatives.
        // id_terminal (into drain terminal) = sign * (swapped ? -e.id : e.id)
        let flip = if swapped { -1.0 } else { 1.0 };
        let id = sign * flip * e.id;
        // In the normalized frame: di/dug = gm, di/dtd = gds, di/dub = gmb,
        // di/dts = -(gm + gds + gmb).
        let d_dug = flip * e.gm;
        let d_dtd = flip * e.gds;
        let d_dub = flip * e.gmb;
        let d_dts = -flip * (e.gm + e.gds + e.gmb);
        // td/ts map to (ud, us) or (us, ud) depending on swap; u = sign*v so
        // d/dv = sign * d/du, and overall current picked up another `sign`,
        // so the conductances are polarity-invariant.
        let (d_dud, d_dus) = if swapped {
            (d_dts, d_dtd)
        } else {
            (d_dtd, d_dts)
        };
        TerminalEval {
            id,
            gd: d_dud,
            gg: d_dug,
            gs: d_dus,
            gb: d_dub,
        }
    }

    /// Lumped (bias-independent) device capacitances for a `w × l` instance.
    ///
    /// Returns `(cgs, cgd, cgb, cdb, csb)` in farads. The channel charge is
    /// split 50/50 between source and drain on top of the overlap terms — a
    /// deliberate constant-capacitance simplification (documented in
    /// DESIGN.md) that keeps the golden simulator's C matrix constant.
    pub fn capacitances(&self, w: f64, l: f64) -> (f64, f64, f64, f64, f64) {
        let c_channel = self.cox * w * l;
        let cgs = 0.5 * c_channel + self.cgso * w;
        let cgd = 0.5 * c_channel + self.cgdo * w;
        let cgb = 0.1 * c_channel;
        let cdb = self.cj * w;
        let csb = self.cj * w;
        (cgs, cgd, cgb, cdb, csb)
    }
}

/// Current and conductances in terminal frame; see
/// [`MosfetModel::eval_terminal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminalEval {
    /// Current into the drain terminal (A).
    pub id: f64,
    /// ∂id/∂vd (S).
    pub gd: f64,
    /// ∂id/∂vg (S).
    pub gg: f64,
    /// ∂id/∂vs (S).
    pub gs: f64,
    /// ∂id/∂vb (S).
    pub gb: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosfetModel {
        MosfetModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.32,
            kp: 2.5e-4,
            lambda: 0.15,
            gamma: 0.4,
            phi: 0.7,
            cox: 0.012,
            cgso: 3e-10,
            cgdo: 3e-10,
            cj: 8e-10,
        }
    }

    fn pmos() -> MosfetModel {
        MosfetModel {
            polarity: MosPolarity::Pmos,
            vt0: -0.34,
            ..nmos()
        }
    }

    #[test]
    fn cutoff_current_negligible() {
        let m = nmos();
        let e = m.eval_terminal(1.2, 0.0, 0.0, 0.0, 1e-6, 0.13e-6);
        assert!(e.id.abs() < 1e-9, "cutoff current {}", e.id);
    }

    #[test]
    fn saturation_square_law() {
        let m = nmos();
        // vgs=1.2, vds=1.2 -> saturation. Compare against the closed form.
        let w = 1e-6;
        let l = 0.13e-6;
        let e = m.eval_terminal(1.2, 1.2, 0.0, 0.0, w, l);
        let vov = 1.2 - 0.32;
        let want = 0.5 * m.kp * (w / l) * vov * vov * (1.0 + m.lambda * 1.2);
        assert!(
            (e.id - want).abs() / want < 0.02,
            "id={} want={}",
            e.id,
            want
        );
    }

    #[test]
    fn triode_resistance_small_vds() {
        let m = nmos();
        let w = 1e-6;
        let l = 0.13e-6;
        let vds = 1e-3;
        let e = m.eval_terminal(vds, 1.2, 0.0, 0.0, w, l);
        // g ≈ kp W/L vov at vds→0.
        let g_expect = m.kp * (w / l) * (1.2 - 0.32);
        let g_meas = e.id / vds;
        assert!((g_meas - g_expect).abs() / g_expect < 0.05);
    }

    #[test]
    fn pmos_mirror_symmetry() {
        let n = nmos();
        let p = MosfetModel {
            vt0: -0.32,
            ..pmos()
        };
        let en = n.eval_terminal(0.6, 1.2, 0.0, 0.0, 1e-6, 0.13e-6);
        // Mirrored PMOS: all voltages negated.
        let ep = p.eval_terminal(-0.6, -1.2, 0.0, 0.0, 1e-6, 0.13e-6);
        assert!((en.id + ep.id).abs() < 1e-12 * en.id.abs().max(1.0));
        assert!((en.gd - ep.gd).abs() < 1e-9);
    }

    #[test]
    fn source_drain_swap_antisymmetry() {
        let m = nmos();
        // Exchanging the roles of the two diffusions (same gate/bulk
        // potentials, channel voltage reversed) must flip the current sign.
        let e_fwd = m.eval_terminal(0.5, 1.2, 0.0, 0.0, 1e-6, 0.13e-6);
        let e_rev = m.eval_terminal(0.0, 1.2, 0.5, 0.0, 1e-6, 0.13e-6);
        assert!(
            (e_fwd.id + e_rev.id).abs() < 1e-9,
            "fwd={} rev={}",
            e_fwd.id,
            e_rev.id
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = nmos();
        let w = 0.42e-6;
        let l = 0.13e-6;
        let base = (0.7, 0.9, 0.1, 0.0);
        let e = m.eval_terminal(base.0, base.1, base.2, base.3, w, l);
        let h = 1e-7;
        let fd = |dvd: f64, dvg: f64, dvs: f64, dvb: f64| {
            let ep = m.eval_terminal(base.0 + dvd, base.1 + dvg, base.2 + dvs, base.3 + dvb, w, l);
            let em = m.eval_terminal(base.0 - dvd, base.1 - dvg, base.2 - dvs, base.3 - dvb, w, l);
            (ep.id - em.id) / (2.0 * h)
        };
        assert!((fd(h, 0.0, 0.0, 0.0) - e.gd).abs() < 1e-3 * e.gd.abs().max(1e-6));
        assert!((fd(0.0, h, 0.0, 0.0) - e.gg).abs() < 1e-3 * e.gg.abs().max(1e-6));
        assert!((fd(0.0, 0.0, h, 0.0) - e.gs).abs() < 1e-3 * e.gs.abs().max(1e-6));
        assert!((fd(0.0, 0.0, 0.0, h) - e.gb).abs() < 1e-3 * e.gb.abs().max(1e-6));
    }

    #[test]
    fn continuity_across_cutoff() {
        let m = nmos();
        // Sweep vgs through vt; current and gm must be continuous
        // (softplus smoothing).
        let mut prev: Option<TerminalEval> = None;
        let mut vgs = 0.25;
        while vgs < 0.40 {
            let e = m.eval_terminal(0.6, vgs, 0.0, 0.0, 1e-6, 0.13e-6);
            if let Some(p) = prev {
                assert!((e.id - p.id).abs() < 5e-5, "current jump at vgs={vgs}");
                assert!((e.gg - p.gg).abs() < 5e-3, "gm jump at vgs={vgs}");
            }
            prev = Some(e);
            vgs += 0.001;
        }
    }

    #[test]
    fn kcl_current_conservation() {
        // gd + gg + gs + gb == d(id)/d(common-mode) == 0.
        let m = nmos();
        let e = m.eval_terminal(0.8, 1.0, 0.2, 0.0, 1e-6, 0.13e-6);
        let sum = e.gd + e.gg + e.gs + e.gb;
        assert!(sum.abs() < 1e-9, "conductance sum {sum}");
    }

    #[test]
    fn capacitances_positive_and_scale_with_width() {
        let m = nmos();
        let (cgs1, cgd1, cgb1, cdb1, csb1) = m.capacitances(1e-6, 0.13e-6);
        let (cgs2, cgd2, _cgb2, cdb2, _csb2) = m.capacitances(2e-6, 0.13e-6);
        for c in [cgs1, cgd1, cgb1, cdb1, csb1] {
            assert!(c > 0.0);
        }
        assert!((cgs2 / cgs1 - 2.0).abs() < 1e-9);
        assert!((cgd2 / cgd1 - 2.0).abs() < 1e-9);
        assert!((cdb2 / cdb1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        // Same vgs, source lifted above bulk -> less current.
        let e0 = m.eval_terminal(1.2, 1.0, 0.0, 0.0, 1e-6, 0.13e-6);
        let e1 = m.eval_terminal(1.7, 1.5, 0.5, 0.0, 1e-6, 0.13e-6);
        assert!(e1.id < e0.id);
    }
}
