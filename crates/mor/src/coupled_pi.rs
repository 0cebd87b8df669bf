//! Coupled-Π multiport reduction.
//!
//! The traditional noise-tool realization of the "coupled driving-point
//! model": each net gets an O'Brien–Savarino Π from the *diagonal* block
//! moments (computed with all other ports shorted), and the inter-net
//! coupling is realized as explicit capacitors between the near (driving
//! point) nodes sized to match the off-diagonal first moments exactly.
//! The near ground capacitance is debited by the re-allocated coupling so
//! the total first-moment block `M1` is preserved.
//!
//! Cheaper but less faithful than [`crate::prima`] at higher frequencies —
//! the comparison is DESIGN.md ablation #2 and `benches/mor.rs`.

use serde::{Deserialize, Serialize};
use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, NodeId};

use crate::moments::port_admittance_moments;
use crate::pi_model::PiModel;

/// Coupled-Π macromodel of an N-port RC interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledPiModel {
    /// Per-port Π models (ground-referred part).
    pub ports: Vec<PiModel>,
    /// Coupling capacitors `(i, j, farads)` between near nodes, `i < j`.
    pub coupling: Vec<(usize, usize, f64)>,
}

impl CoupledPiModel {
    /// Reduce `circuit` (linear RC) seen from `ports`.
    ///
    /// # Errors
    ///
    /// Propagates moment-computation and fitting failures.
    pub fn reduce(circuit: &Circuit, ports: &[NodeId]) -> Result<Self> {
        let m = port_admittance_moments(circuit, ports, 3)?;
        let p = ports.len();
        let mut pis = Vec::with_capacity(p);
        // Off-diagonal couplings from M1 (symmetrized).
        let mut coupling = Vec::new();
        let mut debit = vec![0.0; p];
        for i in 0..p {
            for j in (i + 1)..p {
                let cc = -0.5 * (m[0][(i, j)] + m[0][(j, i)]);
                if cc > 1e-21 {
                    coupling.push((i, j, cc));
                    debit[i] += cc;
                    debit[j] += cc;
                }
            }
        }
        for i in 0..p {
            let mut pi = PiModel::from_moments(m[0][(i, i)], m[1][(i, i)], m[2][(i, i)])?;
            // Re-allocate the explicit coupling out of the near cap.
            let take = debit[i].min(pi.c_near);
            pi.c_near -= take;
            let rest = debit[i] - take;
            pi.c_far = (pi.c_far - rest).max(0.0);
            pis.push(pi);
        }
        Ok(CoupledPiModel {
            ports: pis,
            coupling,
        })
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Instantiate at the given port nodes; returns the far node of each
    /// port's Π.
    ///
    /// # Errors
    ///
    /// Fails if `port_nodes.len()` mismatches, or on element validation.
    pub fn instantiate(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        port_nodes: &[NodeId],
    ) -> Result<Vec<NodeId>> {
        if port_nodes.len() != self.ports.len() {
            return Err(Error::InvalidCircuit(format!(
                "coupled pi has {} ports, got {} nodes",
                self.ports.len(),
                port_nodes.len()
            )));
        }
        let mut fars = Vec::with_capacity(self.ports.len());
        for (i, pi) in self.ports.iter().enumerate() {
            fars.push(pi.instantiate(ckt, &format!("{prefix}.p{i}"), port_nodes[i])?);
        }
        for (k, &(i, j, cc)) in self.coupling.iter().enumerate() {
            ckt.add_capacitor(&format!("{prefix}.cc{k}"), port_nodes[i], port_nodes[j], cc)?;
        }
        Ok(fars)
    }

    /// Total capacitance (ground + coupling) seen at port `i`: the oracle
    /// that the full network's first moment is preserved.
    #[cfg(test)]
    pub fn total_cap_at(&self, i: usize) -> f64 {
        let own = self.ports[i].total_cap();
        let cpl: f64 = self
            .coupling
            .iter()
            .filter(|&&(a, b, _)| a == i || b == i)
            .map(|&(_, _, c)| c)
            .sum();
        own + cpl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_interconnect::prelude::*;
    use sna_spice::devices::SourceWaveform;
    use sna_spice::tran::{transient, TranParams};
    use sna_spice::units::{NS, PS, UM};

    fn paper_bus(segments: usize) -> (Circuit, Vec<WireNodes>, CoupledBus) {
        let w = WireGeom::new(500.0 * UM, 0.2e6, 40e-12);
        let bus = CoupledBus::parallel_pair(w, w, 90e-12, segments);
        let mut ckt = Circuit::new();
        let nets = bus.instantiate(&mut ckt, "n").unwrap();
        (ckt, nets, bus)
    }

    #[test]
    fn first_moment_preserved() {
        let (ckt, nets, bus) = paper_bus(25);
        let ports = [nets[0].near, nets[1].near];
        let cp = CoupledPiModel::reduce(&ckt, &ports).unwrap();
        assert_eq!(cp.n_ports(), 2);
        // Total cap at each port = ground 20fF + coupling 45fF.
        let want = 20e-15 + bus.total_coupling(0, 1);
        for i in 0..2 {
            let got = cp.total_cap_at(i);
            assert!((got - want).abs() / want < 1e-6, "port {i}: {got}");
        }
        // Coupling cap close to the physical total (resistive shielding
        // pushes some of it away from the DP, but M1 matching is exact).
        assert_eq!(cp.coupling.len(), 1);
        assert!((cp.coupling[0].2 - 45e-15).abs() / 45e-15 < 1e-6);
    }

    #[test]
    fn crosstalk_waveform_tracks_full_ladder() {
        // Aggressor ramp behind a driver resistance, victim held by a
        // resistor: compare victim DP waveforms, full vs coupled-pi.
        let build_drive = |ckt: &mut Circuit, agg_dp: NodeId, vic_dp: NodeId| {
            let src = ckt.node("src");
            ckt.add_vsource(
                "Vagg",
                src,
                Circuit::gnd(),
                SourceWaveform::Ramp {
                    v0: 0.0,
                    v1: 1.2,
                    t_start: 0.2 * NS,
                    t_rise: 100.0 * PS,
                },
            );
            ckt.add_resistor("Rdrv", src, agg_dp, 300.0).unwrap();
            ckt.add_resistor("Rhold", vic_dp, Circuit::gnd(), 2e3)
                .unwrap();
        };
        let (mut full, nets, _) = paper_bus(25);
        build_drive(&mut full, nets[1].near, nets[0].near);
        let p = TranParams::new(3.0 * NS, 2.0 * PS);
        let w_full = transient(&full, &p).unwrap().node_waveform(nets[0].near);

        let (net_only, nets2, _) = paper_bus(25);
        let ports = [nets2[0].near, nets2[1].near];
        let cp = CoupledPiModel::reduce(&net_only, &ports).unwrap();
        let mut red = Circuit::new();
        let vic = red.node("vic");
        let agg = red.node("agg");
        cp.instantiate(&mut red, "pi", &[vic, agg]).unwrap();
        build_drive(&mut red, agg, vic);
        let w_red = transient(&red, &p).unwrap().node_waveform(vic);

        let m_full = w_full.glitch_metrics(0.0);
        let m_red = w_red.glitch_metrics(0.0);
        let err = (m_red.peak - m_full.peak).abs() / m_full.peak;
        assert!(
            err < 0.15,
            "peak mismatch {err:.3}: full={} red={}",
            m_full.peak,
            m_red.peak
        );
    }

    #[test]
    fn port_count_mismatch_rejected() {
        let (ckt, nets, _) = paper_bus(10);
        let cp = CoupledPiModel::reduce(&ckt, &[nets[0].near, nets[1].near]).unwrap();
        let mut red = Circuit::new();
        let a = red.node("a");
        assert!(cp.instantiate(&mut red, "pi", &[a]).is_err());
    }
}
