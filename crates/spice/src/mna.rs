//! Modified Nodal Analysis assembly.
//!
//! Unknown ordering: node voltages for nodes `1..node_count` (ground
//! excluded) followed by one branch current per *voltage-defined* element
//! — independent voltage sources and the E/H controlled sources — in
//! element order. The linear part is split into a conductance matrix `G`
//! (resistors, linear controlled sources, branch incidence rows) and a
//! capacitance matrix `C`, so transient integration can form `G + α·C` per
//! step size. Non-linear devices (MOSFETs, diodes, table VCCS) contribute
//! residual currents and Jacobian entries per Newton iteration in two
//! passes: `MnaSystem::eval_nonlinear` evaluates every device at the
//! iterate into a caller-owned buffer, and `MnaSystem::stamp_nonlinear`
//! adds those values to a residual and, optionally, a Jacobian. Keeping
//! the evaluation lets the transient loop stamp one evaluation twice: once
//! for the accepted point's `f(x)` and once as the next step's first
//! Newton iterate, which starts from the same `x`.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::linalg::{DenseMatrix, MatrixStamp};
use crate::netlist::{Circuit, Element, ElementId, NodeId};

/// Minimum conductance tied from every node to ground; keeps otherwise
/// floating nodes solvable, mirroring SPICE's GMIN.
pub const GMIN: f64 = 1e-12;

/// One non-linear device evaluated at an iterate: its current `i` and the
/// partial derivatives `g` that [`MnaSystem::stamp_nonlinear`] stamps. For
/// a MOSFET `i` enters the drain and `g` is `∂i/∂(v_d, v_g, v_s, v_b)`;
/// for a table VCCS `i` flows from `out_p` to `out_n` and `g` is
/// `(∂i/∂v_ctrl, ∂i/∂v_out, −∂i/∂v_out)`; for a diode `i` flows anode to
/// cathode and `g[0]` is `∂i/∂v_d`. Unused slots are zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeviceEval {
    /// Device current (A).
    pub(crate) i: f64,
    /// Partial derivatives of `i` (S).
    pub(crate) g: [f64; 4],
}

/// Unknown indices (`None` for ground) of a non-linear device's terminals.
#[derive(Debug, Clone, Copy)]
enum Terminals {
    /// Drain, gate, source, bulk.
    Mosfet([Option<usize>; 4]),
    /// `out_p`, `out_n`, `ctrl`.
    TableVccs([Option<usize>; 3]),
    /// Anode, cathode.
    Diode([Option<usize>; 2]),
}

/// Add the Jacobian rows of a two-terminal current `pos → neg` whose
/// partial derivatives are `terms`: `+∂i` on the `pos` row, `−∂i` on the
/// `neg` row, each in `terms` order.
#[inline]
fn stamp_rows<M: MatrixStamp>(
    jac: &mut M,
    pos: Option<usize>,
    neg: Option<usize>,
    terms: &[(Option<usize>, f64)],
) {
    if let Some(i) = pos {
        for &(n, gv) in terms {
            if let Some(jn) = n {
                jac.add(i, jn, gv);
            }
        }
    }
    if let Some(i) = neg {
        for &(n, gv) in terms {
            if let Some(jn) = n {
                jac.add(i, jn, -gv);
            }
        }
    }
}

/// Assembled MNA system for one circuit.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    n_nodes: usize,
    dim: usize,
    g: DenseMatrix,
    c: DenseMatrix,
    /// Element ids of independent voltage sources, in element order.
    vsources: Vec<ElementId>,
    /// Unknown index of each vsource's branch current, parallel to
    /// `vsources` (no longer contiguous once E/H branches interleave).
    vsource_branch: Vec<usize>,
    /// Element ids of current sources.
    isources: Vec<ElementId>,
    /// Nonlinear devices in element order, with their terminals.
    nonlinear: Vec<(ElementId, Terminals)>,
}

impl MnaSystem {
    /// Assemble the linear part of `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates structural validation failures.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        circuit.validate()?;
        let n_nodes = circuit.node_count() - 1;
        // Pass 1: classify elements and assign branch slots. Doing this
        // before stamping lets F/H elements resolve their controlling
        // source's branch column even when it is defined later in the deck.
        // Branch-current elements (V/E/H) seen so far.
        let mut n_branches = 0;
        let mut vsources: Vec<ElementId> = Vec::new();
        let mut vsource_branch: Vec<usize> = Vec::new();
        let mut isources: Vec<ElementId> = Vec::new();
        let mut nonlinear: Vec<(ElementId, Terminals)> = Vec::new();
        let ui = |n: NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        // Lower-cased vsource name → branch unknown index, for F/H control
        // resolution.
        let mut vsrc_by_name: HashMap<String, usize> = HashMap::new();
        for (i, e) in circuit.elements().iter().enumerate() {
            let id = ElementId(i);
            if e.has_branch_current() {
                let bi = n_nodes + n_branches;
                n_branches += 1;
                if let Element::VSource { name, .. } = e {
                    vsources.push(id);
                    vsource_branch.push(bi);
                    vsrc_by_name.insert(name.to_ascii_lowercase(), bi);
                }
            }
            if matches!(e, Element::ISource { .. }) {
                isources.push(id);
            }
            let terminals = match *e {
                Element::Mosfet { d, g, s, b, .. } => Some(Terminals::Mosfet([d, g, s, b].map(ui))),
                Element::TableVccs {
                    out_p, out_n, ctrl, ..
                } => Some(Terminals::TableVccs([out_p, out_n, ctrl].map(ui))),
                Element::Diode { p, n, .. } => Some(Terminals::Diode([p, n].map(ui))),
                _ => None,
            };
            debug_assert_eq!(terminals.is_some(), e.is_nonlinear());
            if let Some(t) = terminals {
                nonlinear.push((id, t));
            }
        }
        let resolve_ctrl = |kind: &str, name: &str, ctrl: &str| -> Result<usize> {
            vsrc_by_name
                .get(&ctrl.to_ascii_lowercase())
                .copied()
                .ok_or_else(|| {
                    Error::InvalidCircuit(format!(
                        "{kind} {name}: controlling source '{ctrl}' is not an \
                         independent voltage source in this circuit"
                    ))
                })
        };
        let dim = n_nodes + n_branches;
        if dim == 0 {
            return Err(Error::InvalidCircuit(
                "circuit has no unknowns (only ground)".into(),
            ));
        }
        let mut g = DenseMatrix::zeros(dim, dim);
        let mut c = DenseMatrix::zeros(dim, dim);
        // GMIN anchors every node.
        for i in 0..n_nodes {
            g.add(i, i, GMIN);
        }
        // Stamp two-terminal admittance y between nodes a, b into m.
        let stamp_pair = |m: &mut DenseMatrix, a: NodeId, b: NodeId, y: f64| {
            if let Some(i) = ui(a) {
                m.add(i, i, y);
                if let Some(j) = ui(b) {
                    m.add(i, j, -y);
                    m.add(j, i, -y);
                    m.add(j, j, y);
                }
            } else if let Some(j) = ui(b) {
                m.add(j, j, y);
            }
        };
        let mut branch = 0usize;
        for e in circuit.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    stamp_pair(&mut g, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    stamp_pair(&mut c, *a, *b, *farads);
                }
                Element::VSource { pos, neg, .. } => {
                    let bi = n_nodes + branch;
                    branch += 1;
                    if let Some(i) = ui(*pos) {
                        g.add(i, bi, 1.0);
                        g.add(bi, i, 1.0);
                    }
                    if let Some(j) = ui(*neg) {
                        g.add(j, bi, -1.0);
                        g.add(bi, j, -1.0);
                    }
                }
                Element::Vcvs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gain,
                    ..
                } => {
                    // Branch row: v(out_p) − v(out_n) − gain·(v(ctrl_p) −
                    // v(ctrl_n)) = 0; branch current enters the output KCL.
                    let bi = n_nodes + branch;
                    branch += 1;
                    if let Some(i) = ui(*out_p) {
                        g.add(i, bi, 1.0);
                        g.add(bi, i, 1.0);
                    }
                    if let Some(j) = ui(*out_n) {
                        g.add(j, bi, -1.0);
                        g.add(bi, j, -1.0);
                    }
                    if let Some(j) = ui(*ctrl_p) {
                        g.add(bi, j, -gain);
                    }
                    if let Some(j) = ui(*ctrl_n) {
                        g.add(bi, j, *gain);
                    }
                }
                Element::Ccvs {
                    name,
                    out_p,
                    out_n,
                    ctrl,
                    r,
                } => {
                    // Branch row: v(out_p) − v(out_n) − r·i(ctrl) = 0.
                    let bi = n_nodes + branch;
                    branch += 1;
                    let cb = resolve_ctrl("ccvs", name, ctrl)?;
                    if let Some(i) = ui(*out_p) {
                        g.add(i, bi, 1.0);
                        g.add(bi, i, 1.0);
                    }
                    if let Some(j) = ui(*out_n) {
                        g.add(j, bi, -1.0);
                        g.add(bi, j, -1.0);
                    }
                    g.add(bi, cb, -r);
                }
                Element::Cccs {
                    name,
                    out_p,
                    out_n,
                    ctrl,
                    gain,
                } => {
                    // i(out_p→out_n) = gain·i(ctrl): couples the output KCL
                    // rows to the controlling source's branch column — no
                    // unknown of its own.
                    let cb = resolve_ctrl("cccs", name, ctrl)?;
                    if let Some(i) = ui(*out_p) {
                        g.add(i, cb, *gain);
                    }
                    if let Some(j) = ui(*out_n) {
                        g.add(j, cb, -gain);
                    }
                }
                Element::ISource { .. } => {}
                Element::LinearVccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gm,
                    ..
                } => {
                    // i(out_p -> out_n) = gm * (v(ctrl_p) - v(ctrl_n))
                    for (out, sign_out) in [(*out_p, 1.0), (*out_n, -1.0)] {
                        if let Some(i) = ui(out) {
                            if let Some(j) = ui(*ctrl_p) {
                                g.add(i, j, sign_out * gm);
                            }
                            if let Some(j) = ui(*ctrl_n) {
                                g.add(i, j, -sign_out * gm);
                            }
                        }
                    }
                }
                Element::TableVccs { .. } | Element::Diode { .. } | Element::Mosfet { .. } => {}
            }
        }
        debug_assert_eq!(branch, n_branches);
        Ok(Self {
            n_nodes,
            dim,
            g,
            c,
            vsources,
            vsource_branch,
            isources,
            nonlinear,
        })
    }

    /// Number of non-ground nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total unknown count (nodes + branch-current unknowns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Linear conductance matrix (with voltage-source incidence rows).
    pub fn g_matrix(&self) -> &DenseMatrix {
        &self.g
    }

    /// Capacitance matrix.
    pub fn c_matrix(&self) -> &DenseMatrix {
        &self.c
    }

    /// Independent voltage-source element ids in element order.
    pub fn vsources(&self) -> &[ElementId] {
        &self.vsources
    }

    /// Unknown index of the branch current of the `k`-th *voltage source*
    /// (index into [`MnaSystem::vsources`]). Not contiguous with `n_nodes`
    /// once E/H elements interleave their own branches.
    pub fn vsource_branch(&self, k: usize) -> usize {
        self.vsource_branch[k]
    }

    /// Unknown indices of every voltage source's branch current, parallel
    /// to [`MnaSystem::vsources`].
    pub fn vsource_branches(&self) -> &[usize] {
        &self.vsource_branch
    }

    /// Whether Newton iteration is required.
    pub fn has_nonlinear(&self) -> bool {
        !self.nonlinear.is_empty()
    }

    /// Unknown index of a node's voltage, or `None` for ground.
    pub fn node_unknown(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Voltage of `node` in solution vector `x` (0 for ground).
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_unknown(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Right-hand side vector at time `t`, with all independent sources
    /// scaled by `scale` (used by source stepping; normally `1.0`).
    pub fn rhs(&self, circuit: &Circuit, t: f64, scale: f64) -> Vec<f64> {
        let mut b = vec![0.0; self.dim];
        self.rhs_into(circuit, t, scale, &mut b);
        b
    }

    /// Allocation-free [`MnaSystem::rhs`]: overwrite `out` with the
    /// right-hand side at time `t`. This is the variant the transient
    /// stepping loops call once per step.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()`.
    pub fn rhs_into(&self, circuit: &Circuit, t: f64, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        for (k, id) in self.vsources.iter().enumerate() {
            if let Element::VSource { wave, .. } = circuit.element(*id) {
                out[self.vsource_branch[k]] = scale * wave.eval(t);
            }
        }
        for id in &self.isources {
            if let Element::ISource { pos, neg, wave, .. } = circuit.element(*id) {
                let i = scale * wave.eval(t);
                // Current leaves `pos` (so it subtracts from the KCL
                // injection at pos) and enters `neg`.
                if let Some(p) = self.node_unknown(*pos) {
                    out[p] -= i;
                }
                if let Some(n) = self.node_unknown(*neg) {
                    out[n] += i;
                }
            }
        }
    }

    /// Number of non-linear devices: the length of the [`DeviceEval`]
    /// buffer [`MnaSystem::eval_nonlinear`] fills.
    pub(crate) fn nonlinear_count(&self) -> usize {
        self.nonlinear.len()
    }

    /// Evaluate every non-linear device of `circuit` (the circuit this
    /// system was assembled from) at the unknown vector `x`, in element
    /// order, into `evals`.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() != nonlinear_count()`.
    pub(crate) fn eval_nonlinear(&self, circuit: &Circuit, x: &[f64], evals: &mut [DeviceEval]) {
        assert_eq!(evals.len(), self.nonlinear.len());
        let v = |u: Option<usize>| u.map_or(0.0, |i| x[i]);
        for ((id, terminals), out) in self.nonlinear.iter().zip(evals.iter_mut()) {
            *out = match (circuit.element(*id), terminals) {
                (Element::Mosfet { model, w, l, .. }, Terminals::Mosfet([d, g, s, b])) => {
                    let e = model.eval_terminal(v(*d), v(*g), v(*s), v(*b), *w, *l);
                    DeviceEval {
                        i: e.id,
                        g: [e.gd, e.gg, e.gs, e.gb],
                    }
                }
                (Element::TableVccs { table, .. }, Terminals::TableVccs([p, n, ctrl])) => {
                    let e = table.eval(v(*ctrl), v(*p) - v(*n));
                    DeviceEval {
                        i: e.z,
                        g: [e.dz_dx, e.dz_dy, -e.dz_dy, 0.0],
                    }
                }
                (Element::Diode { model, .. }, Terminals::Diode([p, n])) => {
                    let e = model.eval(v(*p) - v(*n));
                    DeviceEval {
                        i: e.id,
                        g: [e.gd, 0.0, 0.0, 0.0],
                    }
                }
                _ => unreachable!("nonlinear list holds only mosfets, diodes, and table vccs"),
            };
        }
    }

    /// Add the device currents of `evals` (from
    /// [`MnaSystem::eval_nonlinear`]) to `residual` (KCL convention:
    /// current *leaving* a node through a device adds positively, matching
    /// `G·x` on the linear side) and, when `jac` is given, their
    /// conductances into the Jacobian. Any [`MatrixStamp`] sink works:
    /// dense, sparse, or a pattern collector. The set of stamped positions
    /// is independent of the values, which is what lets the sparse solver
    /// size its pattern from a single collection pass.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len() != nonlinear_count()`.
    pub(crate) fn stamp_nonlinear<M: MatrixStamp>(
        &self,
        evals: &[DeviceEval],
        residual: &mut [f64],
        mut jac: Option<&mut M>,
    ) {
        assert_eq!(evals.len(), self.nonlinear.len());
        for ((_, terminals), e) in self.nonlinear.iter().zip(evals) {
            match *terminals {
                Terminals::Mosfet([d, g, s, b]) => {
                    // Current e.i flows into drain terminal, out of source.
                    if let Some(i) = d {
                        residual[i] += e.i;
                    }
                    if let Some(i) = s {
                        residual[i] -= e.i;
                    }
                    if let Some(j) = jac.as_deref_mut() {
                        let [gd, gg, gs, gb] = e.g;
                        stamp_rows(j, d, s, &[(d, gd), (g, gg), (s, gs), (b, gb)]);
                    }
                }
                Terminals::TableVccs([p, n, ctrl]) => {
                    if let Some(i) = p {
                        residual[i] += e.i;
                    }
                    if let Some(i) = n {
                        residual[i] -= e.i;
                    }
                    if let Some(j) = jac.as_deref_mut() {
                        let [g_ctrl, g_p, g_n, _] = e.g;
                        stamp_rows(j, p, n, &[(ctrl, g_ctrl), (p, g_p), (n, g_n)]);
                    }
                }
                Terminals::Diode([p, n]) => {
                    // Current e.i flows anode → cathode through the diode.
                    if let Some(i) = p {
                        residual[i] += e.i;
                    }
                    if let Some(i) = n {
                        residual[i] -= e.i;
                    }
                    if let Some(j) = jac.as_deref_mut() {
                        let gd = e.g[0];
                        if let Some(i) = p {
                            j.add(i, i, gd);
                            if let Some(jn) = n {
                                j.add(i, jn, -gd);
                            }
                        }
                        if let Some(i) = n {
                            j.add(i, i, gd);
                            if let Some(jp) = p {
                                j.add(i, jp, -gd);
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`MnaSystem::stamp_nonlinear`] without a Jacobian: only the device
    /// currents of `evals` are added to `residual`.
    pub(crate) fn stamp_currents(&self, evals: &[DeviceEval], residual: &mut [f64]) {
        self.stamp_nonlinear::<DenseMatrix>(evals, residual, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWaveform;

    #[test]
    fn divider_matrices() {
        // v1 --R1-- n1 --R2-- gnd, V source 2V.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_vsource("V1", n1, Circuit::gnd(), SourceWaveform::Dc(2.0));
        ckt.add_resistor("R1", n1, n2, 1000.0).unwrap();
        ckt.add_resistor("R2", n2, Circuit::gnd(), 1000.0).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert_eq!(mna.n_nodes(), 2);
        assert_eq!(mna.dim(), 3);
        let g = mna.g_matrix();
        // Node n1 row: 1/R1 (+GMIN) and -1/R1 and +1 branch col.
        assert!((g[(0, 0)] - 1e-3).abs() < 1e-9);
        assert!((g[(0, 1)] + 1e-3).abs() < 1e-15);
        assert_eq!(g[(0, 2)], 1.0);
        // Solve G x = b.
        let b = mna.rhs(&ckt, 0.0, 1.0);
        assert_eq!(b[2], 2.0);
        let x = g.solve(&b).unwrap();
        assert!((mna.voltage(&x, n1) - 2.0).abs() < 1e-6);
        assert!((mna.voltage(&x, n2) - 1.0).abs() < 1e-6);
        // Branch current: 2V across 2k -> 1mA, flowing out of + through R
        // back into -; branch current (pos->through source->neg) is -1mA.
        assert!((x[2] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn isource_rhs_sign() {
        // 1A pulled from node a through the source into ground: node a
        // should settle at -R volts with a grounding resistor.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource("I1", a, Circuit::gnd(), SourceWaveform::Dc(1.0));
        ckt.add_resistor("R1", a, Circuit::gnd(), 10.0).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let b = mna.rhs(&ckt, 0.0, 1.0);
        let x = mna.g_matrix().solve(&b).unwrap();
        assert!((mna.voltage(&x, a) + 10.0).abs() < 1e-6);
    }

    #[test]
    fn linear_vccs_stamp() {
        // VCCS driving current gm*v(c) out of node o into ground;
        // with R at o, v(o) = -gm*R*v(c).
        let mut ckt = Circuit::new();
        let cnode = ckt.node("c");
        let o = ckt.node("o");
        ckt.add_vsource("Vc", cnode, Circuit::gnd(), SourceWaveform::Dc(1.0));
        ckt.add_linear_vccs("G1", o, Circuit::gnd(), cnode, Circuit::gnd(), 1e-3);
        ckt.add_resistor("Ro", o, Circuit::gnd(), 1000.0).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let b = mna.rhs(&ckt, 0.0, 1.0);
        let x = mna.g_matrix().solve(&b).unwrap();
        assert!((mna.voltage(&x, o) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitors_go_to_c_matrix() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V", a, Circuit::gnd(), SourceWaveform::Dc(1.0));
        ckt.add_capacitor("C1", a, Circuit::gnd(), 1e-12).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert!((mna.c_matrix()[(0, 0)] - 1e-12).abs() < 1e-24);
        assert_eq!(mna.g_matrix()[(0, 0)], GMIN);
    }

    #[test]
    fn source_scaling() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V", a, Circuit::gnd(), SourceWaveform::Dc(2.0));
        ckt.add_resistor("R", a, Circuit::gnd(), 1.0).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let b = mna.rhs(&ckt, 0.0, 0.5);
        assert_eq!(b[mna.vsource_branch(0)], 1.0);
    }
}
