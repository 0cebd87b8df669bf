//! Wire geometry and per-unit-length parasitics.
//!
//! The paper's test case extracts "two 500 µm parallel-running interconnects
//! designed on metal layer 4". This module owns the deterministic
//! geometry→parasitics step standing in for that layout extraction: a wire
//! is a length plus per-meter R/C figures (taken from a technology's metal
//! stack), and parallel runs couple through a per-meter coupling
//! capacitance scaled by their overlap fraction.

/// Electrical geometry of one routed net segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGeom {
    /// Routed length (m).
    pub length: f64,
    /// Series resistance per meter (Ω/m).
    pub r_per_m: f64,
    /// Ground capacitance per meter (F/m).
    pub cg_per_m: f64,
}

impl WireGeom {
    /// A wire of `length` with the given per-meter figures.
    ///
    /// # Panics
    ///
    /// Panics on non-positive length or negative parasitics.
    pub fn new(length: f64, r_per_m: f64, cg_per_m: f64) -> Self {
        assert!(length > 0.0, "wire length must be positive");
        assert!(r_per_m > 0.0, "wire resistance must be positive");
        assert!(cg_per_m >= 0.0, "ground capacitance must be non-negative");
        Self {
            length,
            r_per_m,
            cg_per_m,
        }
    }

    /// Total series resistance (Ω).
    pub fn total_r(&self) -> f64 {
        self.r_per_m * self.length
    }

    /// Total ground capacitance (F).
    pub fn total_cg(&self) -> f64 {
        self.cg_per_m * self.length
    }
}

/// A capacitive coupling between two parallel wires of a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingGeom {
    /// Index of the first wire.
    pub a: usize,
    /// Index of the second wire.
    pub b: usize,
    /// Coupling capacitance per meter of *overlap* (F/m).
    pub cc_per_m: f64,
    /// Fraction of the shorter wire's length over which the pair runs in
    /// parallel (0..=1).
    pub overlap: f64,
}

impl CouplingGeom {
    /// Full-overlap coupling between wires `a` and `b`.
    pub fn full(a: usize, b: usize, cc_per_m: f64) -> Self {
        Self {
            a,
            b,
            cc_per_m,
            overlap: 1.0,
        }
    }

    /// Total coupling capacitance given the two wire lengths (F).
    pub fn total_cc(&self, wires: &[WireGeom]) -> f64 {
        let len = wires[self.a].length.min(wires[self.b].length);
        self.cc_per_m * self.overlap * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        // The paper's wire: 500 um of M4-like metal.
        let w = WireGeom::new(500e-6, 0.2e6, 40e-12);
        assert!((w.total_r() - 100.0).abs() < 1e-9);
        assert!((w.total_cg() - 20e-15).abs() < 1e-24);
    }

    #[test]
    fn coupling_uses_overlap_and_shorter_wire() {
        let wires = [
            WireGeom::new(500e-6, 0.2e6, 40e-12),
            WireGeom::new(300e-6, 0.2e6, 40e-12),
        ];
        let c = CouplingGeom {
            a: 0,
            b: 1,
            cc_per_m: 90e-12,
            overlap: 0.5,
        };
        assert!((c.total_cc(&wires) - 90e-12 * 0.5 * 300e-6).abs() < 1e-24);
        let f = CouplingGeom::full(0, 1, 90e-12);
        assert!((f.total_cc(&wires) - 90e-12 * 300e-6).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        WireGeom::new(0.0, 1.0, 1.0);
    }
}
