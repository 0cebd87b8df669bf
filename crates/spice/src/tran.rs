//! Transient analysis.
//!
//! Fixed-step trapezoidal integration of `C·v̇ + G·v + f(v) = b(t)`. Each
//! step solves a Newton problem whose linear part `G + α·C` is constant, so
//! *linear* circuits (e.g. the injected-noise-only network of the
//! superposition baseline) are factored exactly once and back-substituted
//! per step — this asymmetry is part of why macromodel-based noise analysis
//! is fast.
//!
//! Non-linear devices are evaluated once per Newton point. The evaluation
//! at an accepted point gives the step's `f(x)` for the next right-hand
//! side and is also the next step's first Newton iterate, which starts from
//! the same `x`; only later iterates evaluate again. A characterization
//! step takes about 1.3 Newton iterations, so this is about 1.3 device
//! passes per step instead of 2.3. The loop that evaluated afresh at every
//! iterate and accepted point is kept as the test oracle `tran::oracle`
//! (compiled for tests only), and the two agree bit for bit.
//!
//! A [`TranWorkspace`] is the simulator's one reuse unit: characterization
//! grids build one per circuit and run every DC point
//! ([`TranWorkspace::dc`]) and transient ([`transient_with`]) on it,
//! changing only source waveforms between runs. On the dense path a
//! reused workspace gives the fresh analysis bit for bit, because every
//! dense refactor redoes its pivot search. [`transient_with`] is the only
//! stepping loop in the crate; deck mode's `.IC` overrides reach it as an
//! argument, and so does an early-stop predicate for callers that read
//! only a prefix of the waveform. Integration is causal, so a stopped run
//! is the prefix of the full run, bit for bit.
//!
//! Each analysis reports its counts to `sna-obs` once, when it returns,
//! whether it succeeded or failed: the transient's call, steps and Newton
//! iterations, and the solver's factorizations and solves (the DC initial
//! condition included).

use serde::{Deserialize, Serialize};
use sna_obs::{count, phase_span, Metric, Phase};

use crate::dc::{dc_operating_point_with, DcSolution, NewtonOptions};
use crate::error::{Error, Result};
use crate::fnv::Fnv;
use crate::mna::{DeviceEval, MnaSystem};
use crate::netlist::{Circuit, Element, NodeId};
use crate::solver::{SolverKind, SystemSolver};
use crate::waveform::Waveform;

#[cfg(any(test, feature = "oracle"))]
pub mod oracle;

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

/// Node voltages of one recorded sample, as an early-stop predicate of
/// [`transient_with`] sees them.
#[derive(Debug, Clone, Copy)]
pub struct NodeVoltages<'a>(&'a [f64]);

impl NodeVoltages<'_> {
    /// Voltage of `node` (0 for ground).
    pub fn get(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.0[node.index() - 1]
        }
    }
}

/// Early-stop predicate of [`transient_with`]: given a recorded sample's
/// time and node voltages, `true` ends the run at that sample.
pub type StopPredicate<'a> = &'a mut dyn FnMut(f64, NodeVoltages<'_>) -> bool;

/// Reusable per-circuit analysis state: the assembled [`MnaSystem`], the
/// (dense or sparse) [`SystemSolver`] with its symbolic analysis, and every
/// scratch vector the stepping loop needs. Building one per call is what
/// [`transient`] does; characterization grids that re-simulate one circuit
/// with different source waveforms build it once and call
/// [`TranWorkspace::dc`] or [`transient_with`], so matrix assembly and
/// symbolic analysis are paid once per circuit, and the inner loop runs
/// allocation-free.
///
/// Only **source waveforms** may change between runs on one workspace: the
/// G/C matrices are assembled at construction, so any other edit — element
/// values, device sizes, added/removed elements or nodes — requires a fresh
/// workspace (and is rejected by a fingerprint check).
///
/// Reuse is bit-exact on the dense path: each dense factorization redoes
/// its partial pivoting, so a run on a reused workspace equals
/// [`dc_operating_point`](crate::dc::dc_operating_point) or [`transient`]
/// on a fresh one. A sparse workspace replays its stored pivot sequence,
/// so its results carry the history of earlier runs within the Newton
/// tolerances.
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
    /// Non-linear device values at the current `x`: the accepted point's
    /// evaluation builds `f_prev` and is the next step's first Newton
    /// iterate.
    evals: Vec<DeviceEval>,
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
/// layer when the run returns, whether it completed or failed.
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
fn circuit_value_hash(circuit: &Circuit) -> u64 {
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

impl TranWorkspace {
    /// Assemble the workspace for `circuit` with the given solver
    /// selection.
    ///
    /// # Errors
    ///
    /// Propagates circuit validation failures.
    pub fn new(circuit: &Circuit, kind: SolverKind) -> Result<Self> {
        let mna = MnaSystem::new(circuit)?;
        let solver = SystemSolver::new(&mna, kind);
        let dim = mna.dim();
        let evals = vec![DeviceEval::default(); mna.nonlinear_count()];
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
            evals,
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
    fn check(&self, circuit: &Circuit, kind: SolverKind) -> Result<()> {
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

    /// [`dc_operating_point`](crate::dc::dc_operating_point) of `circuit` on
    /// this workspace's MNA system and solver: assembly and the sparse
    /// symbolic analysis are not repeated per call. `warm_start` seeds
    /// Newton as in `dc_operating_point`.
    ///
    /// # Errors
    ///
    /// As `dc_operating_point`, plus [`Error::InvalidAnalysis`] when
    /// `circuit` differs from the workspace's in anything but source
    /// waveforms, or `opts.solver` is not the workspace's selection.
    pub fn dc(
        &mut self,
        circuit: &Circuit,
        opts: &NewtonOptions,
        warm_start: Option<&[f64]>,
    ) -> Result<DcSolution> {
        self.check(circuit, opts.solver)?;
        let sol = dc_operating_point_with(circuit, opts, warm_start, &self.mna, &mut self.solver);
        self.solver.flush_counts();
        sol
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
    transient_with(circuit, params, &mut ws, &[], None)
}

/// [`transient`] on a caller-owned [`TranWorkspace`] (same circuit; source
/// waveforms may differ between calls), with `.IC` overrides and an
/// optional early stop.
///
/// `ics` are `.IC` overrides (pass `&[]` for none): after the DC solve (or
/// the all-zeros `UIC` start when `dc_init` is false) each listed node's
/// starting voltage is forced to the given value. This is the SPICE `.IC`
/// approximation — the override biases the initial state rather than
/// adding a constraint row, so the first steps relax any resulting KCL
/// imbalance. Ground and unknown nodes are ignored.
///
/// `stop` (pass `None` to run to `t_stop`) is called after each recorded
/// sample, the `t = 0` one included, with its time and node voltages. When
/// it returns `true` the run ends at that sample: the result holds the
/// samples up to it, each bit-identical to the full run's, and
/// `Metric::TranSteps` counts only the steps taken.
///
/// # Errors
///
/// As [`transient`], plus a workspace/circuit mismatch or a
/// `params.newton.solver` other than the workspace's.
pub fn transient_with(
    circuit: &Circuit,
    params: &TranParams,
    ws: &mut TranWorkspace,
    ics: &[(NodeId, f64)],
    stop: Option<StopPredicate<'_>>,
) -> Result<TranResult> {
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
    // Every trace is preallocated to `n_steps + 1` samples; a count no
    // `Vec<f64>` can hold (an infinite or astronomically long window, or
    // inf/inf) is refused before `as usize` would saturate and the `+ 1`
    // overflow.
    let n_steps = (params.t_stop / params.dt).round();
    let max_samples = isize::MAX as usize / std::mem::size_of::<f64>();
    if n_steps.is_nan() || n_steps >= max_samples as f64 {
        return Err(Error::InvalidAnalysis(format!(
            "transient window t_stop={}, dt={} needs {n_steps:e} steps; \
             a trace holds at most {max_samples} samples",
            params.t_stop, params.dt
        )));
    }
    let n_steps = n_steps as usize;
    ws.check(circuit, params.newton.solver)?;
    let _t = phase_span(Phase::Tran);
    let res = run_transient(circuit, params, n_steps, ws, ics, stop);
    ws.stats.flush();
    ws.solver.flush_counts();
    res
}

/// The stepping loop of [`transient_with`], on a checked workspace. Every
/// non-linear device is evaluated once per Newton point: the accepted
/// point's evaluation gives `f_prev` and is also the next step's first
/// Newton iterate, which starts from the same `x`.
fn run_transient(
    circuit: &Circuit,
    params: &TranParams,
    n_steps: usize,
    ws: &mut TranWorkspace,
    ics: &[(NodeId, f64)],
    mut stop: Option<StopPredicate<'_>>,
) -> Result<TranResult> {
    #[cfg(any(test, feature = "oracle"))]
    if oracle::active() {
        return oracle::run_transient(circuit, params, n_steps, ws, ics, stop);
    }
    let dim = ws.mna.dim();
    let n_nodes = ws.mna.n_nodes();

    // Initial condition. The DC solve follows the same solver selection.
    let mut x: Vec<f64> = if params.dc_init {
        dc_operating_point_with(circuit, &params.newton, None, &ws.mna, &mut ws.solver)?
            .unknowns()
            .to_vec()
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
    let mut stop_here = |t: f64, x: &[f64]| {
        stop.as_deref_mut()
            .is_some_and(|f| f(t, NodeVoltages(&x[..n_nodes])))
    };
    record(&x, 0.0, &mut times, &mut traces, &mut branch_currents);
    // With a stop at t = 0 the step range below is empty.
    let last_step = if stop_here(0.0, &x) { 0 } else { n_steps };

    ws.mna.rhs_into(circuit, 0.0, 1.0, &mut ws.b_prev);
    // Nonlinear residual at the previous time point.
    ws.mna.eval_nonlinear(circuit, &x, &mut ws.evals);
    ws.f_prev.fill(0.0);
    ws.mna.stamp_currents(&ws.evals, &mut ws.f_prev);

    for step in 1..=last_step {
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
            // Newton with warm start from previous time point, whose
            // device values `ws.evals` already holds.
            let mut converged = false;
            for it in 0..params.newton.max_iter {
                if it > 0 {
                    ws.mna.eval_nonlinear(circuit, &x, &mut ws.evals);
                }
                ws.solver.base_mul_into(&x, &mut ws.residual);
                for (r, rhs) in ws.residual.iter_mut().zip(&ws.rhs) {
                    *r -= rhs;
                }
                ws.solver.begin_jacobian();
                ws.solver
                    .stamp_nonlinear(&ws.mna, &ws.evals, &mut ws.residual);
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
                ws.stats.newton_iterations += 1;
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
        ws.stats.steps += 1;
        if stop_here(t1, &x) {
            break;
        }
        std::mem::swap(&mut ws.b_prev, &mut ws.b_cur);
        ws.mna.eval_nonlinear(circuit, &x, &mut ws.evals);
        ws.f_prev.fill(0.0);
        ws.mna.stamp_currents(&ws.evals, &mut ws.f_prev);
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
    Ok(TranResult {
        times,
        traces,
        branch_currents,
        node_names,
        vsource_names,
        newton_iterations: ws.stats.newton_iterations as usize,
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
    fn unrepresentable_step_count_rejected() {
        // 1e7 s at 1 ps is 1e19 samples, more than a `Vec<f64>` may hold
        // (2^60); 1e300 s overflows the count to infinity, and an infinite
        // window has no count at all (inf/inf is NaN). Each is refused
        // before any trace is allocated.
        let (ckt, _) = rc_circuit(1e3, 1e-12, SourceWaveform::Dc(1.0));
        for (t_stop, dt) in [
            (1e7, 1e-12),
            (1e300, 1e-12),
            (f64::INFINITY, 1e-12),
            (f64::INFINITY, f64::INFINITY),
        ] {
            let err = transient(&ckt, &TranParams::new(t_stop, dt)).unwrap_err();
            assert!(matches!(err, Error::InvalidAnalysis(_)), "{err}");
            assert!(err.to_string().contains("a trace holds at most"), "{err}");
        }
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
