//! Transient analysis.
//!
//! Fixed-step trapezoidal integration of `C·v̇ + G·v + f(v) = b(t)`. Each
//! step solves a Newton problem whose linear part `G + α·C` is constant, so
//! *linear* circuits (e.g. the injected-noise-only network of the
//! superposition baseline) are factored exactly once and back-substituted
//! per step — this asymmetry is part of why macromodel-based noise analysis
//! is fast.
//!
//! This is the only stepping loop in the crate: every lane of a
//! [`crate::sweep::BatchedSweep`] runs it on its own [`TranWorkspace`],
//! with deck mode's `.IC` overrides as a crate-private argument.

use serde::{Deserialize, Serialize};
use sna_obs::{count, phase_span, Metric, Phase};

use crate::dc::{dc_operating_point_with, DcSolution, NewtonOptions};
use crate::error::{Error, Result};
use crate::fnv::Fnv;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, Element, NodeId};
use crate::solver::{SolverKind, SystemSolver};
use crate::waveform::Waveform;

/// Transient analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TranParams {
    /// Simulation end time (s); starts at 0.
    pub t_stop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// Newton controls for each implicit step.
    pub newton: NewtonOptions,
    /// Use the DC operating point as the initial condition (default);
    /// when `false`, start from all-zeros (uic).
    pub dc_init: bool,
}

impl TranParams {
    /// Conventional setup: the given horizon and step, DC initial
    /// condition, auto solver selection (`newton.solver` picks the linear
    /// solver of the DC and step systems alike).
    pub fn new(t_stop: f64, dt: f64) -> Self {
        Self {
            t_stop,
            dt,
            newton: NewtonOptions::default(),
            dc_init: true,
        }
    }
}

/// Result of a transient analysis: every node voltage and every
/// voltage-source branch current at every time point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TranResult {
    times: Vec<f64>,
    /// `traces[n][k]` = voltage of node (n+1) at time k.
    traces: Vec<Vec<f64>>,
    /// `branch_currents[s][k]` = current of vsource s at time k.
    branch_currents: Vec<Vec<f64>>,
    node_names: Vec<String>,
    vsource_names: Vec<String>,
    /// Total Newton iterations spent over the run (diagnostic; 0 means the
    /// circuit was linear and solved by direct back-substitution).
    pub newton_iterations: usize,
}

impl TranResult {
    /// Simulated time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform of a node by [`NodeId`].
    pub fn node_waveform(&self, node: NodeId) -> Waveform {
        if node.is_ground() {
            return Waveform::constant(
                self.times.first().copied().unwrap_or(0.0),
                self.times.last().copied().unwrap_or(1.0),
                0.0,
            );
        }
        Waveform::from_samples(self.times.clone(), self.traces[node.index() - 1].clone())
            .expect("internal: monotone time axis")
    }

    /// Voltage waveform of a node by name.
    pub fn waveform(&self, name: &str) -> Option<Waveform> {
        let idx = self
            .node_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))?;
        if idx == 0 {
            return Some(Waveform::constant(
                self.times.first().copied().unwrap_or(0.0),
                self.times.last().copied().unwrap_or(1.0),
                0.0,
            ));
        }
        Some(
            Waveform::from_samples(self.times.clone(), self.traces[idx - 1].clone())
                .expect("internal: monotone time axis"),
        )
    }

    /// Branch-current waveform of the named voltage source.
    pub fn vsource_current(&self, name: &str) -> Option<Waveform> {
        let k = self
            .vsource_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))?;
        Some(
            Waveform::from_samples(self.times.clone(), self.branch_currents[k].clone())
                .expect("internal: monotone time axis"),
        )
    }
}

/// Reusable per-topology transient state: the assembled [`MnaSystem`], the
/// (dense or sparse) [`SystemSolver`] with its symbolic analysis, and every
/// scratch vector the stepping loop needs. Building one per call is what
/// [`transient`] does; characterization sweeps that re-simulate the same
/// topology with different source waveforms should build it once and call
/// [`transient_with`] so matrix assembly and symbolic analysis are paid
/// once per topology, and the inner loop runs allocation-free.
///
/// Only **source waveforms** may change between runs on one workspace: the
/// G/C matrices are assembled at construction, so any other edit — element
/// values, device sizes, added/removed elements or nodes — requires a fresh
/// workspace (and is rejected by a fingerprint check).
pub struct TranWorkspace {
    mna: MnaSystem,
    kind: SolverKind,
    solver: SystemSolver,
    // Step buffers, all of MNA dimension.
    b_prev: Vec<f64>,
    b_cur: Vec<f64>,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
    residual: Vec<f64>,
    neg: Vec<f64>,
    dx: Vec<f64>,
    f_prev: Vec<f64>,
    // Circuit fingerprint guarding workspace reuse.
    node_count: usize,
    element_count: usize,
    value_hash: u64,
    /// Per-run counters. Plain integers on the workspace — the stepping
    /// loop must stay allocation-free, so it bumps fields here and the
    /// totals are flushed to `sna-obs` once per analysis call.
    stats: TranStats,
}

/// Counters accumulated by one transient run, flushed to the observability
/// layer when the run completes.
#[derive(Debug, Default, Clone, Copy)]
struct TranStats {
    steps: u64,
    newton_iterations: u64,
}

impl TranStats {
    fn flush(&mut self) {
        count(Metric::TranCalls, 1);
        count(Metric::TranSteps, self.steps);
        count(Metric::TranNewtonIterations, self.newton_iterations);
        *self = TranStats::default();
    }
}

/// Order-sensitive FNV-1a hash of every stamped element value *and* every
/// terminal wiring (source waveforms excluded — those are the one thing a
/// workspace re-run may legitimately change).
pub(crate) fn circuit_value_hash(circuit: &Circuit) -> u64 {
    let mut h = Fnv::new();
    let mut mix = |v: u64| h.write_u64(v);
    let n = |id: &NodeId| if id.is_ground() { 0 } else { id.index() as u64 };
    for el in circuit.elements() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                mix(1 ^ ohms.to_bits());
                mix(n(a) | n(b) << 32);
            }
            Element::Capacitor { a, b, farads, .. } => {
                mix(2 ^ farads.to_bits());
                mix(n(a) | n(b) << 32);
            }
            // Waveform values excluded by design; the wiring still counts.
            Element::VSource { pos, neg, .. } => mix(3 ^ (n(pos) | n(neg) << 32)),
            Element::ISource { pos, neg, .. } => mix(4 ^ (n(pos) | n(neg) << 32)),
            Element::LinearVccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
                ..
            } => {
                mix(5 ^ gm.to_bits());
                mix(n(out_p) | n(out_n) << 16 | n(ctrl_p) << 32 | n(ctrl_n) << 48);
            }
            // The table itself is assumed immutable (no mutator exposes
            // it); fingerprint its footprint and wiring only.
            Element::TableVccs {
                out_p, out_n, ctrl, ..
            } => mix(6 ^ (n(out_p) | n(out_n) << 16 | n(ctrl) << 32)),
            Element::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l,
                ..
            } => {
                mix(7 ^ w.to_bits() ^ l.to_bits().rotate_left(1));
                mix(model.vt0.to_bits() ^ model.kp.to_bits().rotate_left(1));
                mix(n(d) | n(g) << 16 | n(s) << 32 | n(b) << 48);
            }
            Element::Vcvs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gain,
                ..
            } => {
                mix(8 ^ gain.to_bits());
                mix(n(out_p) | n(out_n) << 16 | n(ctrl_p) << 32 | n(ctrl_n) << 48);
            }
            Element::Cccs {
                out_p,
                out_n,
                ctrl,
                gain,
                ..
            } => {
                mix(9 ^ gain.to_bits());
                mix(n(out_p) | n(out_n) << 32);
                mix(Fnv::hash_bytes(ctrl.as_bytes()));
            }
            Element::Ccvs {
                out_p,
                out_n,
                ctrl,
                r,
                ..
            } => {
                mix(10 ^ r.to_bits());
                mix(n(out_p) | n(out_n) << 32);
                mix(Fnv::hash_bytes(ctrl.as_bytes()));
            }
            Element::Diode {
                p: dp,
                n: dn,
                model,
                ..
            } => {
                mix(11 ^ model.is.to_bits());
                mix(model.n.to_bits() ^ model.cj0.to_bits().rotate_left(1));
                mix(n(dp) | n(dn) << 32);
            }
        }
    }
    h.finish()
}

/// Order-sensitive FNV-1a hash of the circuit *wiring only*: element kind
/// tags and terminal nodes, no values. Lanes of a batched sweep must share
/// this hash (identical topology) while their element values — and hence
/// their [`circuit_value_hash`] — may legitimately differ per lane.
pub(crate) fn circuit_topology_hash(circuit: &Circuit) -> u64 {
    let mut h = Fnv::new();
    let mut mix = |v: u64| h.write_u64(v);
    let n = |id: &NodeId| if id.is_ground() { 0 } else { id.index() as u64 };
    for el in circuit.elements() {
        match el {
            Element::Resistor { a, b, .. } => {
                mix(1);
                mix(n(a) | n(b) << 32);
            }
            Element::Capacitor { a, b, .. } => {
                mix(2);
                mix(n(a) | n(b) << 32);
            }
            Element::VSource { pos, neg, .. } => {
                mix(3);
                mix(n(pos) | n(neg) << 32);
            }
            Element::ISource { pos, neg, .. } => {
                mix(4);
                mix(n(pos) | n(neg) << 32);
            }
            Element::LinearVccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                ..
            } => {
                mix(5);
                mix(n(out_p) | n(out_n) << 16 | n(ctrl_p) << 32 | n(ctrl_n) << 48);
            }
            Element::TableVccs {
                out_p, out_n, ctrl, ..
            } => {
                mix(6);
                mix(n(out_p) | n(out_n) << 16 | n(ctrl) << 32);
            }
            Element::Mosfet { d, g, s, b, .. } => {
                mix(7);
                mix(n(d) | n(g) << 16 | n(s) << 32 | n(b) << 48);
            }
            Element::Vcvs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                ..
            } => {
                mix(8);
                mix(n(out_p) | n(out_n) << 16 | n(ctrl_p) << 32 | n(ctrl_n) << 48);
            }
            // The controlling-source *name* is part of the topology: it
            // decides which branch column the F/H stamp lands in.
            Element::Cccs {
                out_p, out_n, ctrl, ..
            } => {
                mix(9);
                mix(n(out_p) | n(out_n) << 32);
                mix(Fnv::hash_bytes(ctrl.as_bytes()));
            }
            Element::Ccvs {
                out_p, out_n, ctrl, ..
            } => {
                mix(10);
                mix(n(out_p) | n(out_n) << 32);
                mix(Fnv::hash_bytes(ctrl.as_bytes()));
            }
            Element::Diode { p, n: dn, .. } => {
                mix(11);
                mix(n(p) | n(dn) << 32);
            }
        }
    }
    h.finish()
}

impl TranWorkspace {
    /// Assemble the workspace for `circuit` with the given solver
    /// selection.
    ///
    /// # Errors
    ///
    /// Propagates circuit validation failures.
    pub fn new(circuit: &Circuit, kind: SolverKind) -> Result<Self> {
        let mna = MnaSystem::new(circuit)?;
        let solver = SystemSolver::new(&mna, circuit, kind);
        let dim = mna.dim();
        Ok(Self {
            mna,
            kind,
            solver,
            b_prev: vec![0.0; dim],
            b_cur: vec![0.0; dim],
            rhs: vec![0.0; dim],
            scratch: vec![0.0; dim],
            residual: vec![0.0; dim],
            neg: vec![0.0; dim],
            dx: vec![0.0; dim],
            f_prev: vec![0.0; dim],
            node_count: circuit.node_count(),
            element_count: circuit.elements().len(),
            value_hash: circuit_value_hash(circuit),
            stats: TranStats::default(),
        })
    }

    /// Unknown count of the underlying MNA system.
    pub fn dim(&self) -> usize {
        self.mna.dim()
    }

    /// Whether the sparse backend was selected.
    pub fn is_sparse(&self) -> bool {
        self.solver.is_sparse()
    }

    /// Guard against reuse with a different circuit: only source waveforms
    /// may change between runs. Topology edits *and* element-value edits
    /// are rejected — the workspace's matrices were assembled from the
    /// construction-time values, so a changed value would silently simulate
    /// the old circuit — and so is a solver selection other than the one
    /// the workspace was built with.
    pub(crate) fn check(&self, circuit: &Circuit, kind: SolverKind) -> Result<()> {
        if circuit.node_count() != self.node_count || circuit.elements().len() != self.element_count
        {
            return Err(Error::InvalidAnalysis(
                "transient workspace built for a different circuit topology".into(),
            ));
        }
        if circuit_value_hash(circuit) != self.value_hash {
            return Err(Error::InvalidAnalysis(
                "element values changed since the transient workspace was built; \
                 only source waveforms may change between reuses"
                    .into(),
            ));
        }
        if kind != self.kind {
            return Err(Error::InvalidAnalysis(
                "transient workspace built with a different solver selection".into(),
            ));
        }
        Ok(())
    }

    /// DC operating point of `circuit` on this workspace's MNA system and
    /// solver: assembly and the sparse symbolic analysis are not repeated
    /// per call. The caller has run [`TranWorkspace::check`].
    pub(crate) fn dc(
        &mut self,
        circuit: &Circuit,
        opts: &NewtonOptions,
        warm_start: Option<&[f64]>,
    ) -> Result<DcSolution> {
        dc_operating_point_with(circuit, opts, warm_start, &self.mna, &mut self.solver)
    }
}

/// Run a transient analysis.
///
/// # Errors
///
/// Fails on invalid parameters, DC initialization failure, Newton
/// non-convergence at some time step, or a singular system matrix.
pub fn transient(circuit: &Circuit, params: &TranParams) -> Result<TranResult> {
    let mut ws = TranWorkspace::new(circuit, params.newton.solver)?;
    transient_with(circuit, params, &mut ws)
}

/// [`transient`] reusing a caller-owned [`TranWorkspace`] (same circuit
/// topology; source waveforms may differ between calls).
///
/// # Errors
///
/// As [`transient`], plus a workspace/topology mismatch or a
/// `params.newton.solver` other than the workspace's.
pub fn transient_with(
    circuit: &Circuit,
    params: &TranParams,
    ws: &mut TranWorkspace,
) -> Result<TranResult> {
    check_window(params)?;
    ws.check(circuit, params.newton.solver)?;
    run_transient(circuit, params, ws, &[])
}

/// Reject a non-positive, NaN, or inverted transient window.
pub(crate) fn check_window(params: &TranParams) -> Result<()> {
    // `is_nan()` checks keep the rejection of NaN parameters explicit.
    if params.dt.is_nan()
        || params.dt <= 0.0
        || params.t_stop.is_nan()
        || params.t_stop <= 0.0
        || params.t_stop < params.dt
    {
        return Err(Error::InvalidAnalysis(format!(
            "bad transient window: t_stop={}, dt={}",
            params.t_stop, params.dt
        )));
    }
    Ok(())
}

/// The trapezoidal stepping loop behind [`transient_with`]. `ics` are `.IC`
/// overrides: after the DC solve (or the all-zeros `UIC` start when
/// `dc_init` is false) each listed node's starting voltage is forced to the
/// given value. This is the SPICE `.IC` approximation — the override biases
/// the initial state rather than adding a constraint row, so the first
/// steps relax any resulting KCL imbalance. Ground and unknown nodes are
/// ignored. The caller has run [`check_window`] and
/// [`TranWorkspace::check`].
pub(crate) fn run_transient(
    circuit: &Circuit,
    params: &TranParams,
    ws: &mut TranWorkspace,
    ics: &[(NodeId, f64)],
) -> Result<TranResult> {
    let _t = phase_span(Phase::Tran);
    ws.stats = TranStats::default();
    let dim = ws.mna.dim();
    let n_nodes = ws.mna.n_nodes();
    let n_steps = (params.t_stop / params.dt).round() as usize;

    // Initial condition. The DC solve follows the same solver selection.
    let mut x: Vec<f64> = if params.dc_init {
        ws.dc(circuit, &params.newton, None)?.unknowns().to_vec()
    } else {
        vec![0.0; dim]
    };
    for &(node, v) in ics {
        if let Some(row) = ws.mna.node_unknown(node) {
            x[row] = v;
        }
    }
    let mut x_next = vec![0.0; dim];

    let alpha = 2.0 / params.dt;
    // Geff = G + alpha*C (constant over the run); linear circuits factor
    // it exactly once.
    ws.solver.set_alpha(alpha);
    let linear = !ws.mna.has_nonlinear();
    if linear {
        ws.solver.factor_base()?;
    }

    // NB: `vec![Vec::with_capacity(..); n]` would clone the template and
    // cloning an empty Vec discards its capacity — every trace would then
    // regrow by doubling, log2(n_steps) reallocations each.
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut traces: Vec<Vec<f64>> = (0..n_nodes)
        .map(|_| Vec::with_capacity(n_steps + 1))
        .collect();
    let n_vsrc = ws.mna.vsources().len();
    let mut branch_currents: Vec<Vec<f64>> = (0..n_vsrc)
        .map(|_| Vec::with_capacity(n_steps + 1))
        .collect();
    let vb: Vec<usize> = ws.mna.vsource_branches().to_vec();
    let record = |x: &[f64],
                  t: f64,
                  times: &mut Vec<f64>,
                  traces: &mut Vec<Vec<f64>>,
                  branch: &mut Vec<Vec<f64>>| {
        times.push(t);
        for (n, tr) in traces.iter_mut().enumerate() {
            tr.push(x[n]);
        }
        for (s, br) in branch.iter_mut().enumerate() {
            br.push(x[vb[s]]);
        }
    };
    record(&x, 0.0, &mut times, &mut traces, &mut branch_currents);

    ws.mna.rhs_into(circuit, 0.0, 1.0, &mut ws.b_prev);
    // Nonlinear residual at the previous time point.
    ws.f_prev.fill(0.0);
    ws.mna.stamp_nonlinear(circuit, &x, &mut ws.f_prev, None);
    let mut total_newton = 0usize;

    for step in 1..=n_steps {
        let t1 = step as f64 * params.dt;
        ws.mna.rhs_into(circuit, t1, 1.0, &mut ws.b_cur);
        // Assemble step RHS into ws.rhs (scratch holds C·x, then G·x).
        ws.solver.c_mul_into(&x, &mut ws.scratch);
        for i in 0..dim {
            ws.rhs[i] = ws.b_cur[i] + ws.b_prev[i] - ws.f_prev[i] + alpha * ws.scratch[i];
        }
        ws.solver.g_mul_into(&x, &mut ws.scratch);
        for i in 0..dim {
            ws.rhs[i] -= ws.scratch[i];
        }
        // Solve Geff x1 + f(x1) = rhs.
        if linear {
            ws.solver.solve_into(&ws.rhs, &mut x_next);
            std::mem::swap(&mut x, &mut x_next);
        } else {
            // Newton with warm start from previous time point.
            let mut converged = false;
            for _ in 0..params.newton.max_iter {
                ws.solver.base_mul_into(&x, &mut ws.residual);
                for (r, rhs) in ws.residual.iter_mut().zip(&ws.rhs) {
                    *r -= rhs;
                }
                ws.solver.begin_jacobian();
                ws.mna
                    .stamp_nonlinear(circuit, &x, &mut ws.residual, Some(ws.solver.jac_stamp()));
                for (n, &r) in ws.neg.iter_mut().zip(ws.residual.iter()) {
                    *n = -r;
                }
                ws.solver.factor_jacobian()?;
                ws.solver.solve_into(&ws.neg, &mut ws.dx);
                let max_dx = ws.dx.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                let scale = if max_dx > params.newton.max_step {
                    params.newton.max_step / max_dx
                } else {
                    1.0
                };
                let mut done = true;
                for (xi, &di) in x.iter_mut().zip(ws.dx.iter()) {
                    let s = scale * di;
                    *xi += s;
                    if s.abs() > params.newton.reltol * xi.abs() + params.newton.vntol {
                        done = false;
                    }
                }
                total_newton += 1;
                if done && scale == 1.0 {
                    converged = true;
                    break;
                }
            }
            if !converged {
                let max_res = ws.residual.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                return Err(Error::NonConvergence {
                    analysis: "tran",
                    iterations: params.newton.max_iter,
                    time: t1,
                    residual: max_res,
                });
            }
        }
        record(&x, t1, &mut times, &mut traces, &mut branch_currents);
        std::mem::swap(&mut ws.b_prev, &mut ws.b_cur);
        ws.f_prev.fill(0.0);
        ws.mna.stamp_nonlinear(circuit, &x, &mut ws.f_prev, None);
    }
    let node_names = (0..circuit.node_count())
        .map(|i| circuit.node_name(NodeId(i)).to_string())
        .collect();
    let vsource_names = ws
        .mna
        .vsources()
        .iter()
        .map(|id| circuit.element(*id).name().to_string())
        .collect();
    ws.stats.steps = n_steps as u64;
    ws.stats.newton_iterations = total_newton as u64;
    ws.stats.flush();
    Ok(TranResult {
        times,
        traces,
        branch_currents,
        node_names,
        vsource_names,
        newton_iterations: total_newton,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWaveform;
    use crate::units::{NS, PS};

    fn rc_circuit(r: f64, c: f64, v: SourceWaveform) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", inp, Circuit::gnd(), v);
        ckt.add_resistor("R1", inp, out, r).unwrap();
        ckt.add_capacitor("C1", out, Circuit::gnd(), c).unwrap();
        (ckt, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // R=1k, C=1pF, tau=1ns; step at t=0 via dc_init=false from 0 with
        // a DC source.
        let (ckt, out) = rc_circuit(1e3, 1e-12, SourceWaveform::Dc(1.0));
        let mut p = TranParams::new(5.0 * NS, 5.0 * PS);
        p.dc_init = false;
        let res = transient(&ckt, &p).unwrap();
        let w = res.node_waveform(out);
        for &t in &[0.5e-9, 1e-9, 2e-9, 4e-9] {
            let want = 1.0 - (-t / 1e-9_f64).exp();
            let got = w.value_at(t);
            assert!(
                (got - want).abs() < 5e-3,
                "t={t:.2e}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn dc_init_starts_settled() {
        let (ckt, out) = rc_circuit(1e3, 1e-12, SourceWaveform::Dc(1.0));
        let p = TranParams::new(1.0 * NS, 10.0 * PS);
        let res = transient(&ckt, &p).unwrap();
        let w = res.node_waveform(out);
        // Already at 1V from t=0.
        assert!((w.value_at(0.0) - 1.0).abs() < 1e-6);
        assert!((w.value_at(1.0 * NS) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ramp_through_rc_delays() {
        let ramp = SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.0,
            t_start: 1.0 * NS,
            t_rise: 100.0 * PS,
        };
        let (ckt, out) = rc_circuit(1e3, 100e-15, ramp);
        let p = TranParams::new(5.0 * NS, 2.0 * PS);
        let res = transient(&ckt, &p).unwrap();
        let w = res.node_waveform(out);
        assert!(w.value_at(1.0 * NS) < 1e-3);
        // After several tau, follows the source.
        assert!((w.value_at(5.0 * NS) - 1.0).abs() < 1e-3);
        // 50% crossing later than the source's 50% point (1.05ns).
        let mut t50 = 0.0;
        for k in 1..w.len() {
            if w.values()[k] >= 0.5 && w.values()[k - 1] < 0.5 {
                t50 = w.times()[k];
                break;
            }
        }
        assert!(t50 > 1.05 * NS, "t50={t50:e}");
    }

    #[test]
    fn coupling_cap_injects_glitch() {
        // Aggressor step couples into victim held by a resistor: the victim
        // must see a positive glitch that decays back.
        let mut ckt = Circuit::new();
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.add_vsource(
            "Vagg",
            agg,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.2,
                t_start: 0.5 * NS,
                t_rise: 100.0 * PS,
            },
        );
        ckt.add_capacitor("Cc", agg, vic, 40e-15).unwrap();
        ckt.add_capacitor("Cg", vic, Circuit::gnd(), 30e-15)
            .unwrap();
        ckt.add_resistor("Rhold", vic, Circuit::gnd(), 2000.0)
            .unwrap();
        let p = TranParams::new(4.0 * NS, 2.0 * PS);
        let res = transient(&ckt, &p).unwrap();
        let w = res.node_waveform(vic);
        let m = w.glitch_metrics(0.0);
        assert!(m.peak > 0.1, "peak={}", m.peak);
        assert!(m.peak < 1.2);
        assert_eq!(m.polarity, 1.0);
        // Decays back to quiet by the end.
        assert!(w.value_at(4.0 * NS).abs() < 0.02);
    }

    #[test]
    fn vsource_current_through_resistor() {
        // Resistive load to ground so a DC current actually flows.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        ckt.add_vsource("V1", inp, Circuit::gnd(), SourceWaveform::Dc(1.0));
        ckt.add_resistor("R1", inp, Circuit::gnd(), 1e3).unwrap();
        ckt.add_capacitor("C1", inp, Circuit::gnd(), 1e-15).unwrap();
        let p = TranParams::new(1.0 * NS, 10.0 * PS);
        let res = transient(&ckt, &p).unwrap();
        let i = res.vsource_current("V1").unwrap();
        // Steady state: 1V/1k = 1mA, SPICE sign: -1mA.
        assert!((i.value_at(1.0 * NS) + 1e-3).abs() < 1e-6);
    }

    #[test]
    fn invalid_params_rejected() {
        let (ckt, _) = rc_circuit(1e3, 1e-12, SourceWaveform::Dc(1.0));
        assert!(transient(&ckt, &TranParams::new(-1.0, 1e-12)).is_err());
        assert!(transient(&ckt, &TranParams::new(1e-9, 0.0)).is_err());
        assert!(transient(&ckt, &TranParams::new(1e-12, 1e-9)).is_err());
    }

    #[test]
    fn energy_conservation_rc_discharge() {
        // Capacitor discharging through resistor: total dissipated energy
        // equals initial stored energy (trapezoidal, fine step).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // Charge via a source through a big resistor, then watch: easier —
        // start from DC with source, the cap is at 1V, stays; instead use
        // uic: set an isource pulse to charge then discharge. Simplest check:
        // linear circuit trapezoidal midpoint accuracy on tau.
        ckt.add_resistor("R", a, Circuit::gnd(), 1e3).unwrap();
        ckt.add_capacitor("C", a, Circuit::gnd(), 1e-12).unwrap();
        ckt.add_isource(
            "I",
            Circuit::gnd(),
            a,
            SourceWaveform::Pulse {
                v0: 0.0,
                v1: 1e-3,
                t_delay: 0.0,
                t_rise: 10e-12,
                t_width: 5e-9,
                t_fall: 10e-12,
            },
        );
        let p = TranParams::new(10.0 * NS, 5.0 * PS);
        let res = transient(&ckt, &p).unwrap();
        let w = res.node_waveform(a);
        // During the 1mA pulse, node approaches 1V with tau=1ns.
        assert!((w.value_at(5e-9) - 1.0).abs() < 0.02);
        // Afterwards decays with tau=1ns: at 7ns ~ exp(-2).
        let got = w.value_at(7e-9);
        let want = w.value_at(5e-9) * (-2.0_f64).exp();
        assert!((got - want).abs() < 0.03, "got={got} want={want}");
    }
}
