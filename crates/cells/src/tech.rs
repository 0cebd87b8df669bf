//! Technology descriptions.
//!
//! The paper evaluates on STMicroelectronics 0.13 µm and 90 nm processes;
//! those parameter decks are proprietary, so this module provides
//! *plausible* level-1 parameter sets with the right supply voltages,
//! threshold-to-supply ratios, drive strengths and wire parasitics for each
//! node (see DESIGN.md §2 for the substitution rationale). Every relative
//! claim the paper makes — superposition underestimates, the VCCS
//! macromodel tracks golden simulation, macromodels are much faster — is
//! technology-shape-dependent, not parameter-exact, and survives this
//! substitution.

use sna_spice::devices::{MosPolarity, MosfetModel};
use sna_spice::units::{NM, UM};

/// Per-unit-length parasitics of a routing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetalLayer {
    /// Layer name index (e.g. 4 for metal-4).
    pub level: u8,
    /// Series resistance per meter (Ω/m).
    pub r_per_m: f64,
    /// Capacitance to ground per meter (F/m).
    pub cg_per_m: f64,
    /// Coupling capacitance to one minimum-spaced parallel neighbor per
    /// meter (F/m).
    pub cc_per_m: f64,
}

/// A technology node: supply, device models, cell sizing, wire stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable name (`"cmos130"`, `"cmos90"`).
    pub name: String,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Minimum channel length (m).
    pub l_min: f64,
    /// NMOS model card.
    pub nmos: MosfetModel,
    /// PMOS model card.
    pub pmos: MosfetModel,
    /// Unit NMOS width for a 1× cell (m).
    pub wn_unit: f64,
    /// Unit PMOS width for a 1× cell (m).
    pub wp_unit: f64,
    /// Routing layers, index 0 = metal-1.
    pub metals: Vec<MetalLayer>,
}

impl Technology {
    /// The 0.13 µm node used for the paper's Tables 1 and 2.
    pub fn cmos130() -> Self {
        let nmos = MosfetModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.32,
            kp: 2.6e-4,
            lambda: 0.15,
            gamma: 0.40,
            phi: 0.70,
            cox: 0.012,
            cgso: 3.0e-10,
            cgdo: 3.0e-10,
            cj: 8.0e-10,
        };
        let pmos = MosfetModel {
            polarity: MosPolarity::Pmos,
            vt0: -0.34,
            kp: 1.05e-4,
            lambda: 0.18,
            gamma: 0.42,
            phi: 0.70,
            cox: 0.012,
            cgso: 3.0e-10,
            cgdo: 3.0e-10,
            cj: 8.5e-10,
        };
        Technology {
            name: "cmos130".into(),
            vdd: 1.2,
            l_min: 0.13 * UM,
            nmos,
            pmos,
            wn_unit: 0.42 * UM,
            wp_unit: 0.64 * UM,
            metals: vec![
                MetalLayer {
                    level: 1,
                    r_per_m: 0.40e6,
                    cg_per_m: 60e-12,
                    cc_per_m: 80e-12,
                },
                MetalLayer {
                    level: 2,
                    r_per_m: 0.30e6,
                    cg_per_m: 50e-12,
                    cc_per_m: 85e-12,
                },
                MetalLayer {
                    level: 3,
                    r_per_m: 0.30e6,
                    cg_per_m: 45e-12,
                    cc_per_m: 85e-12,
                },
                MetalLayer {
                    level: 4,
                    r_per_m: 0.20e6,
                    cg_per_m: 40e-12,
                    cc_per_m: 90e-12,
                },
                MetalLayer {
                    level: 5,
                    r_per_m: 0.10e6,
                    cg_per_m: 38e-12,
                    cc_per_m: 95e-12,
                },
            ],
        }
    }

    /// The 90 nm node used in the paper's §3 accuracy sweep.
    pub fn cmos90() -> Self {
        let nmos = MosfetModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.28,
            kp: 3.2e-4,
            lambda: 0.20,
            gamma: 0.38,
            phi: 0.68,
            cox: 0.014,
            cgso: 2.6e-10,
            cgdo: 2.6e-10,
            cj: 7.0e-10,
        };
        let pmos = MosfetModel {
            polarity: MosPolarity::Pmos,
            vt0: -0.30,
            kp: 1.3e-4,
            lambda: 0.24,
            gamma: 0.40,
            phi: 0.68,
            cox: 0.014,
            cgso: 2.6e-10,
            cgdo: 2.6e-10,
            cj: 7.5e-10,
        };
        Technology {
            name: "cmos90".into(),
            vdd: 1.0,
            l_min: 90.0 * NM,
            nmos,
            pmos,
            wn_unit: 0.30 * UM,
            wp_unit: 0.45 * UM,
            metals: vec![
                MetalLayer {
                    level: 1,
                    r_per_m: 0.60e6,
                    cg_per_m: 55e-12,
                    cc_per_m: 90e-12,
                },
                MetalLayer {
                    level: 2,
                    r_per_m: 0.45e6,
                    cg_per_m: 48e-12,
                    cc_per_m: 95e-12,
                },
                MetalLayer {
                    level: 3,
                    r_per_m: 0.45e6,
                    cg_per_m: 42e-12,
                    cc_per_m: 95e-12,
                },
                MetalLayer {
                    level: 4,
                    r_per_m: 0.28e6,
                    cg_per_m: 38e-12,
                    cc_per_m: 100e-12,
                },
                MetalLayer {
                    level: 5,
                    r_per_m: 0.15e6,
                    cg_per_m: 36e-12,
                    cc_per_m: 105e-12,
                },
            ],
        }
    }

    /// Routing layer by level number (1-based).
    ///
    /// # Panics
    ///
    /// Panics if the level does not exist in this technology.
    pub fn metal(&self, level: u8) -> &MetalLayer {
        self.metals
            .iter()
            .find(|m| m.level == level)
            .unwrap_or_else(|| panic!("{}: no metal{level}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scaling_sanity() {
        let t130 = Technology::cmos130();
        let t90 = Technology::cmos90();
        assert!(t90.vdd < t130.vdd);
        assert!(t90.l_min < t130.l_min);
        // Threshold stays a similar fraction of supply.
        let f130 = t130.nmos.vt0 / t130.vdd;
        let f90 = t90.nmos.vt0 / t90.vdd;
        assert!((f130 - f90).abs() < 0.1);
    }

    #[test]
    fn metal4_lookup() {
        let t = Technology::cmos130();
        let m4 = t.metal(4);
        assert_eq!(m4.level, 4);
        // 500 um of M4: ~100 ohm, ~20 fF ground, ~45 fF coupling.
        let len = 500e-6;
        assert!((m4.r_per_m * len - 100.0).abs() < 20.0);
        assert!(m4.cg_per_m * len > 10e-15 && m4.cg_per_m * len < 40e-15);
        assert!(m4.cc_per_m * len > 30e-15 && m4.cc_per_m * len < 60e-15);
    }

    #[test]
    #[should_panic(expected = "no metal9")]
    fn missing_metal_panics() {
        Technology::cmos130().metal(9);
    }

    #[test]
    fn pmos_weaker_than_nmos() {
        for t in [Technology::cmos130(), Technology::cmos90()] {
            assert!(t.pmos.kp < t.nmos.kp);
            assert!(t.pmos.vt0 < 0.0);
            assert!(t.nmos.vt0 > 0.0);
        }
    }

    #[test]
    fn coupling_dominates_ground_cap() {
        // The premise of the paper's problem: coupling is comparable to or
        // larger than ground capacitance on intermediate layers.
        for t in [Technology::cmos130(), Technology::cmos90()] {
            for m in &t.metals {
                assert!(m.cc_per_m > m.cg_per_m);
            }
        }
    }
}
