//! Distributed coupled-RC ladder construction.
//!
//! Turns a set of parallel [`WireGeom`]s plus [`CouplingGeom`]s into
//! π-segmented RC ladders inside a [`Circuit`]: each wire becomes
//! `segments` series resistors with its ground capacitance distributed
//! π-style over the taps, and each coupling capacitance is distributed over
//! the taps of the overlapped span. With enough segments this converges to
//! the distributed line; the golden reference uses it directly, and the MOR
//! crate reduces it.

use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, NodeId};

use crate::geometry::{CouplingGeom, WireGeom};

/// Node handles of one built wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireNodes {
    /// Driver (near) end.
    pub near: NodeId,
    /// Receiver (far) end.
    pub far: NodeId,
    /// All taps from near to far, inclusive (`segments + 1` nodes).
    pub taps: Vec<NodeId>,
}

/// A bus of parallel wires with couplings, ready to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledBus {
    /// The wires, index order defines tap naming.
    pub wires: Vec<WireGeom>,
    /// Pairwise couplings.
    pub couplings: Vec<CouplingGeom>,
    /// π-segments per wire (≥ 1); 1 segment = lumped π.
    pub segments: usize,
}

impl CoupledBus {
    /// Construct and validate a bus description.
    ///
    /// # Errors
    ///
    /// Fails if a coupling references a missing wire, couples a wire to
    /// itself, overlap is outside `[0, 1]`, or `segments == 0`.
    pub fn new(
        wires: Vec<WireGeom>,
        couplings: Vec<CouplingGeom>,
        segments: usize,
    ) -> Result<Self> {
        if wires.is_empty() {
            return Err(Error::InvalidCircuit("bus needs at least one wire".into()));
        }
        if segments == 0 {
            return Err(Error::InvalidCircuit("bus needs >= 1 segment".into()));
        }
        for c in &couplings {
            if c.a >= wires.len() || c.b >= wires.len() {
                return Err(Error::InvalidCircuit(format!(
                    "coupling references wire {} but bus has {}",
                    c.a.max(c.b),
                    wires.len()
                )));
            }
            if c.a == c.b {
                return Err(Error::InvalidCircuit("wire cannot couple to itself".into()));
            }
            if !(0.0..=1.0).contains(&c.overlap) {
                return Err(Error::InvalidCircuit(format!(
                    "coupling overlap {} outside [0,1]",
                    c.overlap
                )));
            }
        }
        Ok(Self {
            wires,
            couplings,
            segments,
        })
    }

    /// The classic two-wire test case of the paper: victim and one
    /// aggressor running fully parallel.
    pub fn parallel_pair(
        victim: WireGeom,
        aggressor: WireGeom,
        cc_per_m: f64,
        segments: usize,
    ) -> Self {
        Self::new(
            vec![victim, aggressor],
            vec![CouplingGeom::full(0, 1, cc_per_m)],
            segments,
        )
        .expect("static topology is valid")
    }

    /// Total coupling capacitance between a wire pair (F), 0 if uncoupled.
    pub fn total_coupling(&self, a: usize, b: usize) -> f64 {
        self.couplings
            .iter()
            .filter(|c| (c.a == a && c.b == b) || (c.a == b && c.b == a))
            .map(|c| c.total_cc(&self.wires))
            .sum()
    }

    /// Instantiate the bus into `ckt`. Tap nodes are named
    /// `{prefix}.w{i}.t{k}`; `t0` is the near end.
    ///
    /// # Errors
    ///
    /// Propagates element-validation failures.
    pub fn instantiate(&self, ckt: &mut Circuit, prefix: &str) -> Result<Vec<WireNodes>> {
        let nseg = self.segments;
        let mut nodes: Vec<WireNodes> = Vec::with_capacity(self.wires.len());
        // Wires: series R, π-distributed ground caps.
        for (i, w) in self.wires.iter().enumerate() {
            let taps: Vec<NodeId> = (0..=nseg)
                .map(|k| ckt.node(&format!("{prefix}.w{i}.t{k}")))
                .collect();
            let r_seg = w.total_r() / nseg as f64;
            let cg_seg = w.total_cg() / nseg as f64;
            for k in 0..nseg {
                ckt.add_resistor(&format!("{prefix}.w{i}.r{k}"), taps[k], taps[k + 1], r_seg)?;
            }
            for (k, &tap) in taps.iter().enumerate() {
                // π distribution: half-weight at the two ends.
                let c = if k == 0 || k == nseg {
                    0.5 * cg_seg
                } else {
                    cg_seg
                };
                if c > 0.0 {
                    ckt.add_capacitor(&format!("{prefix}.w{i}.cg{k}"), tap, Circuit::gnd(), c)?;
                }
            }
            nodes.push(WireNodes {
                near: taps[0],
                far: taps[nseg],
                taps,
            });
        }
        // Couplings: distributed over the overlapped leading span, aligned
        // from the near ends (both drivers at the same end of the bus).
        for (ci, c) in self.couplings.iter().enumerate() {
            let total = c.total_cc(&self.wires);
            if total <= 0.0 {
                continue;
            }
            // Number of coupled segments: overlap fraction of the segments.
            let span = ((nseg as f64 * c.overlap).round() as usize).clamp(1, nseg);
            let cc_seg = total / span as f64;
            for k in 0..=span {
                let w = if k == 0 || k == span {
                    0.5 * cc_seg
                } else {
                    cc_seg
                };
                if w > 0.0 {
                    ckt.add_capacitor(
                        &format!("{prefix}.cc{ci}.k{k}"),
                        nodes[c.a].taps[k],
                        nodes[c.b].taps[k],
                        w,
                    )?;
                }
            }
        }
        Ok(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_spice::devices::SourceWaveform;
    use sna_spice::netlist::Element;
    use sna_spice::tran::{transient, TranParams};
    use sna_spice::units::{NS, PS, UM};

    fn m4_wire(len_um: f64) -> WireGeom {
        WireGeom::new(len_um * UM, 0.2e6, 40e-12)
    }

    #[test]
    fn validation_errors() {
        assert!(CoupledBus::new(vec![], vec![], 4).is_err());
        assert!(CoupledBus::new(vec![m4_wire(500.0)], vec![], 0).is_err());
        assert!(CoupledBus::new(
            vec![m4_wire(500.0)],
            vec![CouplingGeom::full(0, 1, 90e-12)],
            4
        )
        .is_err());
        assert!(CoupledBus::new(
            vec![m4_wire(500.0)],
            vec![CouplingGeom::full(0, 0, 90e-12)],
            4
        )
        .is_err());
    }

    #[test]
    fn element_budget_and_totals() {
        let bus = CoupledBus::parallel_pair(m4_wire(500.0), m4_wire(500.0), 90e-12, 10);
        let mut ckt = Circuit::new();
        let nodes = bus.instantiate(&mut ckt, "net").unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].taps.len(), 11);
        // Sum resistances and capacitances back.
        let mut r_total = [0.0_f64; 2];
        let mut cg_total = 0.0;
        let mut cc_total = 0.0;
        for e in ckt.elements() {
            match e {
                Element::Resistor { name, ohms, .. } => {
                    if name.contains(".w0.") {
                        r_total[0] += ohms;
                    } else {
                        r_total[1] += ohms;
                    }
                }
                Element::Capacitor {
                    name, farads, a, b, ..
                } => {
                    if name.contains(".cc") {
                        cc_total += farads;
                    } else {
                        assert!(a.is_ground() || b.is_ground());
                        cg_total += farads;
                    }
                }
                _ => panic!("unexpected element"),
            }
        }
        // 500um * 0.2 ohm/um = 100 ohm per wire.
        assert!((r_total[0] - 100.0).abs() < 1e-9);
        assert!((r_total[1] - 100.0).abs() < 1e-9);
        // 2 wires * 20 fF.
        assert!((cg_total - 40e-15).abs() < 1e-24);
        // 45 fF coupling.
        assert!((cc_total - 45e-15).abs() < 1e-24);
        assert!((bus.total_coupling(0, 1) - 45e-15).abs() < 1e-24);
    }

    #[test]
    fn partial_overlap_halves_coupling() {
        let bus = CoupledBus::new(
            vec![m4_wire(500.0), m4_wire(500.0)],
            vec![CouplingGeom {
                a: 0,
                b: 1,
                cc_per_m: 90e-12,
                overlap: 0.5,
            }],
            10,
        )
        .unwrap();
        assert!((bus.total_coupling(0, 1) - 22.5e-15).abs() < 1e-24);
    }

    #[test]
    fn crosstalk_injection_through_bus() {
        // Drive wire 1 (aggressor) with a ramp; hold wire 0 (victim) near
        // end with a resistor; the victim far end must see a glitch.
        let bus = CoupledBus::parallel_pair(m4_wire(500.0), m4_wire(500.0), 90e-12, 20);
        let mut ckt = Circuit::new();
        let nodes = bus.instantiate(&mut ckt, "net").unwrap();
        ckt.add_vsource(
            "Vagg",
            nodes[1].near,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.2,
                t_start: 0.2 * NS,
                t_rise: 100.0 * PS,
            },
        );
        ckt.add_resistor("Rhold", nodes[0].near, Circuit::gnd(), 2e3)
            .unwrap();
        let res = transient(&ckt, &TranParams::new(3.0 * NS, 2.0 * PS)).unwrap();
        let w = res.node_waveform(nodes[0].far);
        let m = w.glitch_metrics(0.0);
        assert!(m.peak > 0.05, "victim glitch {}", m.peak);
        assert!(m.peak < 1.2);
        // Near end (held) sees smaller noise than the floating far end.
        let m_near = res.node_waveform(nodes[0].near).glitch_metrics(0.0);
        assert!(m_near.peak < m.peak + 1e-9);
    }

    #[test]
    fn segment_refinement_converges() {
        // Far-end victim glitch peak with 8 vs 64 segments differs by < 5%.
        let run = |segments: usize| -> f64 {
            let bus = CoupledBus::parallel_pair(m4_wire(500.0), m4_wire(500.0), 90e-12, segments);
            let mut ckt = Circuit::new();
            let nodes = bus.instantiate(&mut ckt, "net").unwrap();
            ckt.add_vsource(
                "Vagg",
                nodes[1].near,
                Circuit::gnd(),
                SourceWaveform::Ramp {
                    v0: 0.0,
                    v1: 1.2,
                    t_start: 0.2 * NS,
                    t_rise: 100.0 * PS,
                },
            );
            ckt.add_resistor("Rhold", nodes[0].near, Circuit::gnd(), 2e3)
                .unwrap();
            let res = transient(&ckt, &TranParams::new(3.0 * NS, 2.0 * PS)).unwrap();
            res.node_waveform(nodes[0].far).glitch_metrics(0.0).peak
        };
        let p8 = run(8);
        let p64 = run(64);
        assert!((p8 - p64).abs() / p64 < 0.05, "p8={p8} p64={p64}");
    }

    #[test]
    fn three_wire_bus_victim_in_middle() {
        let bus = CoupledBus::new(
            vec![m4_wire(400.0), m4_wire(400.0), m4_wire(400.0)],
            vec![
                CouplingGeom::full(0, 1, 90e-12),
                CouplingGeom::full(1, 2, 90e-12),
            ],
            8,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let nodes = bus.instantiate(&mut ckt, "bus").unwrap();
        assert_eq!(nodes.len(), 3);
        // Middle wire coupled to both neighbors, outer pair uncoupled.
        assert!(bus.total_coupling(0, 1) > 0.0);
        assert!(bus.total_coupling(1, 2) > 0.0);
        assert_eq!(bus.total_coupling(0, 2), 0.0);
    }
}
