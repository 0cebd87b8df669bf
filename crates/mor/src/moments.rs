//! Block admittance moments of coupled RC networks.
//!
//! For a linear interconnect network seen from `p` ports, the short-circuit
//! admittance matrix expands as `Y(s) = M1·s + M2·s² + M3·s³ + …` (RC nets
//! with no resistive path to ground have `M0 = 0`). These moments are the
//! raw material of every reduction in this crate — the paper obtains its
//! coupled driving-point model "with moment-matching techniques following
//! the approach presented in \[8\]" (Forzan et al., CICC'98).
//!
//! Computation: add a 0 V source at every port, factor the MNA conductance
//! matrix once, then run the classic recursion `G·x₀ = b`, `G·x_{k+1} =
//! −C·x_k`; the port branch currents of `x_k` are the entries of `M_k`.

use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::linalg::DenseMatrix;
use sna_spice::mna::MnaSystem;
use sna_spice::netlist::{Circuit, NodeId};

/// Block moments `M1..=Mn` of the port admittance of `circuit` seen from
/// `ports`. `circuit` must be linear (R/C only); the returned vector holds
/// `n_moments` matrices of size `p × p`, starting at the `s¹` moment.
///
/// # Errors
///
/// Fails if the circuit contains non-linear elements or sources, a port is
/// ground, or the conductance matrix is singular.
pub fn port_admittance_moments(
    circuit: &Circuit,
    ports: &[NodeId],
    n_moments: usize,
) -> Result<Vec<DenseMatrix>> {
    if ports.is_empty() || n_moments == 0 {
        return Err(Error::InvalidAnalysis(
            "need at least one port and one moment".into(),
        ));
    }
    if circuit.is_nonlinear() {
        return Err(Error::InvalidAnalysis(
            "moment computation requires a linear RC network".into(),
        ));
    }
    if ports.iter().any(|p| p.is_ground()) {
        return Err(Error::InvalidAnalysis("ground cannot be a port".into()));
    }
    // Clone and clamp every port with a 0 V source to measure short-circuit
    // admittances.
    let mut ckt = circuit.clone();
    for e in ckt.elements() {
        if matches!(
            e,
            sna_spice::netlist::Element::VSource { .. }
                | sna_spice::netlist::Element::ISource { .. }
                | sna_spice::netlist::Element::Vcvs { .. }
                | sna_spice::netlist::Element::Cccs { .. }
                | sna_spice::netlist::Element::Ccvs { .. }
        ) {
            return Err(Error::InvalidAnalysis(
                "moment computation requires a source-free network".into(),
            ));
        }
    }
    for (i, &p) in ports.iter().enumerate() {
        ckt.add_vsource(
            &format!("__port{i}"),
            p,
            Circuit::gnd(),
            SourceWaveform::Dc(0.0),
        );
    }
    let mna = MnaSystem::new(&ckt)?;
    let dim = mna.dim();
    let n_nodes = mna.n_nodes();
    let lu = mna.g_matrix().lu()?;
    let p = ports.len();
    let mut moments = vec![DenseMatrix::zeros(p, p); n_moments];
    for j in 0..p {
        // Unit voltage at port j, zero at the others.
        let mut b = vec![0.0; dim];
        b[n_nodes + j] = 1.0;
        let mut x = lu.solve(&b);
        for m_k in moments.iter_mut() {
            // x_{k+1} = G^{-1} (-C x_k)
            let cx = mna.c_matrix().mul_vec(&x);
            let rhs: Vec<f64> = cx.iter().map(|v| -v).collect();
            x = lu.solve(&rhs);
            for i in 0..p {
                // Branch current convention: positive flows from the +
                // terminal through the source; admittance draws the
                // opposite sign.
                m_k[(i, j)] = -x[n_nodes + i];
            }
        }
    }
    Ok(moments)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// R in series with C to ground behind one port:
    /// Y(s) = sC/(1+sRC) = Cs - RC^2 s^2 + R^2C^3 s^3 - ...
    #[test]
    fn series_rc_moments_closed_form() {
        let r = 150.0;
        let c = 30e-15;
        let mut ckt = Circuit::new();
        let port = ckt.node("p");
        let mid = ckt.node("m");
        ckt.add_resistor("R", port, mid, r).unwrap();
        ckt.add_capacitor("C", mid, Circuit::gnd(), c).unwrap();
        let m = port_admittance_moments(&ckt, &[port], 3).unwrap();
        assert!((m[0][(0, 0)] - c).abs() / c < 1e-9, "m1={}", m[0][(0, 0)]);
        assert!(
            (m[1][(0, 0)] + r * c * c).abs() / (r * c * c) < 1e-9,
            "m2={}",
            m[1][(0, 0)]
        );
        assert!(
            (m[2][(0, 0)] - r * r * c * c * c).abs() / (r * r * c * c * c) < 1e-9,
            "m3={}",
            m[2][(0, 0)]
        );
    }

    /// Pure coupling cap between two ports: M1 = [[Cc, -Cc], [-Cc, Cc]].
    #[test]
    fn coupling_cap_block_moment() {
        let cc = 45e-15;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_capacitor("Cc", a, b, cc).unwrap();
        // Small ground caps keep the network physical.
        ckt.add_capacitor("Ca", a, Circuit::gnd(), 1e-15).unwrap();
        ckt.add_capacitor("Cb", b, Circuit::gnd(), 1e-15).unwrap();
        let m = port_admittance_moments(&ckt, &[a, b], 2).unwrap();
        assert!((m[0][(0, 0)] - (cc + 1e-15)).abs() < 1e-20);
        assert!((m[0][(0, 1)] + cc).abs() < 1e-20);
        assert!((m[0][(1, 0)] + cc).abs() < 1e-20);
        // With both ports voltage-clamped there is no RC dynamics at all:
        // M2 vanishes.
        assert!(m[1][(0, 0)].abs() < 1e-25);
    }

    /// First moment diagonal of a wire equals its total capacitance
    /// (ground + coupling), regardless of segmentation.
    #[test]
    fn ladder_first_moment_is_total_cap() {
        use sna_interconnect::prelude::*;
        let w = WireGeom::new(500e-6, 0.2e6, 40e-12);
        let bus = CoupledBus::parallel_pair(w, w, 90e-12, 25);
        let mut ckt = Circuit::new();
        let nets = bus.instantiate(&mut ckt, "n").unwrap();
        let ports = [nets[0].near, nets[1].near];
        let m = port_admittance_moments(&ckt, &ports, 1).unwrap();
        let cg = 20e-15;
        let cc = 45e-15;
        assert!(
            (m[0][(0, 0)] - (cg + cc)).abs() / (cg + cc) < 1e-6,
            "m1_00={}",
            m[0][(0, 0)]
        );
        assert!((m[0][(0, 1)] + cc).abs() / cc < 1e-6);
        // Symmetry.
        assert!((m[0][(0, 1)] - m[0][(1, 0)]).abs() < 1e-24);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor("C", a, Circuit::gnd(), 1e-15).unwrap();
        assert!(port_admittance_moments(&ckt, &[], 2).is_err());
        assert!(port_admittance_moments(&ckt, &[a], 0).is_err());
        assert!(port_admittance_moments(&ckt, &[Circuit::gnd()], 1).is_err());
        let mut with_src = ckt.clone();
        with_src.add_vsource("V", a, Circuit::gnd(), SourceWaveform::Dc(1.0));
        assert!(port_admittance_moments(&with_src, &[a], 1).is_err());
    }
}
