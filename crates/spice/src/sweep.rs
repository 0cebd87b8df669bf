//! K-lane sweeps: `K` circuits of one topology, each lane a serial
//! workspace.
//!
//! Corner sweeps, characterization grids, and Monte-Carlo noise-margin
//! studies all solve *the same circuit topology* with different element
//! values or source settings. [`BatchedSweep`] holds one
//! [`TranWorkspace`] per lane — its own MNA system, its own dense or
//! sparse [`SystemSolver`](crate::solver::SystemSolver) and its step
//! buffers — built once per sweep and reused by every call, so assembly
//! and symbolic analysis are paid once per lane, not once per call.
//!
//! Every lane runs the serial analyses:
//! [`dc_operating_point_with`](crate::dc::dc_operating_point_with) with
//! its full continuation ladder, and the trapezoidal loop of
//! [`crate::tran`]. A lane's result is therefore the serial analysis of
//! its circuit, bit for bit, whatever the other lanes hold.

use sna_obs::{count, phase_span, Metric, Phase};

use crate::dc::{DcSolution, NewtonOptions};
use crate::error::{Error, Result};
use crate::netlist::{Circuit, NodeId};
use crate::solver::SolverKind;
use crate::tran::{
    check_window, circuit_topology_hash, run_transient, TranParams, TranResult, TranWorkspace,
};

/// A K-lane sweep over one circuit topology.
///
/// Built once from `K` circuits that share wiring (they may differ in
/// element values and source waveforms), then driven through
/// [`BatchedSweep::dc_operating_points`] or [`BatchedSweep::transient`] —
/// each call re-validated against the construction-time fingerprints
/// exactly like [`TranWorkspace`] reuse: only source waveforms may change
/// between calls, and the solver selection must be the one the sweep was
/// built with.
pub struct BatchedSweep {
    topo_hash: u64,
    lanes: Vec<TranWorkspace>,
}

impl BatchedSweep {
    /// Assemble a sweep over `circuits` (one lane each). All lanes must
    /// share the circuit topology — node count, element count, element
    /// kinds and terminal wiring — while element values and source
    /// waveforms may differ per lane.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidAnalysis`] on an empty lane set or mismatched lane
    /// topologies; propagates circuit validation failures.
    pub fn new(circuits: &[Circuit], kind: SolverKind) -> Result<Self> {
        let first = circuits.first().ok_or_else(|| {
            Error::InvalidAnalysis("batched sweep needs at least one lane".into())
        })?;
        let topo_hash = circuit_topology_hash(first);
        for (lane, c) in circuits.iter().enumerate() {
            if c.node_count() != first.node_count()
                || c.elements().len() != first.elements().len()
                || circuit_topology_hash(c) != topo_hash
            {
                return Err(Error::InvalidAnalysis(format!(
                    "batched sweep lane {lane} differs in circuit topology from lane 0"
                )));
            }
        }
        let lanes = circuits
            .iter()
            .map(|c| TranWorkspace::new(c, kind))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { topo_hash, lanes })
    }

    /// Lane count.
    pub fn k(&self) -> usize {
        self.lanes.len()
    }

    /// Unknown count of each lane's MNA system.
    pub fn dim(&self) -> usize {
        self.lanes[0].dim()
    }

    /// Whether the sparse backend was selected.
    pub fn is_sparse(&self) -> bool {
        self.lanes[0].is_sparse()
    }

    /// Guard against reuse with different circuits or another solver
    /// selection, before any lane runs: lane count and topology must match
    /// construction, and each lane passes its workspace's own check.
    fn check(&self, circuits: &[Circuit], kind: SolverKind) -> Result<()> {
        if circuits.len() != self.lanes.len() {
            return Err(Error::InvalidAnalysis(
                "batched sweep called with a different lane count".into(),
            ));
        }
        for (lane, (c, ws)) in circuits.iter().zip(&self.lanes).enumerate() {
            if circuit_topology_hash(c) != self.topo_hash {
                return Err(Error::InvalidAnalysis(format!(
                    "batched sweep built for a different circuit topology (lane {lane})"
                )));
            }
            ws.check(c, kind)?;
        }
        Ok(())
    }

    /// DC operating points, one per lane, each by
    /// [`dc_operating_point_with`](crate::dc::dc_operating_point_with) on
    /// that lane's workspace (plain Newton, then the gmin and source
    /// stepping ladder).
    ///
    /// `warm` optionally seeds each lane with a previous solution's raw
    /// unknown vector (same semantics as
    /// [`dc_operating_point`](crate::dc::dc_operating_point)); a set whose
    /// length is not the lane count is ignored.
    ///
    /// # Errors
    ///
    /// [`Error::NonConvergence`] if a lane fails the whole ladder;
    /// [`Error::SingularMatrix`] on structurally singular lanes;
    /// [`Error::InvalidAnalysis`] on fingerprint mismatches or an
    /// `opts.solver` other than the sweep's.
    pub fn dc_operating_points(
        &mut self,
        circuits: &[Circuit],
        opts: &NewtonOptions,
        warm: Option<&[Vec<f64>]>,
    ) -> Result<Vec<DcSolution>> {
        self.check(circuits, opts.solver)?;
        let _t = phase_span(Phase::Sweep);
        count(Metric::SweepCalls, 1);
        count(Metric::SweepLanes, self.lanes.len() as u64);
        let warm = warm.filter(|w| w.len() == self.lanes.len());
        self.lanes
            .iter_mut()
            .zip(circuits)
            .enumerate()
            .map(|(lane, (ws, c))| ws.dc(c, opts, warm.map(|w| w[lane].as_slice())))
            .collect()
    }

    /// Fixed-step transients, one [`TranResult`] per lane, each by the
    /// serial [`crate::tran::transient_with`] loop on that lane's
    /// workspace.
    ///
    /// # Errors
    ///
    /// As [`crate::tran::transient_with`], plus fingerprint mismatches.
    pub fn transient(
        &mut self,
        circuits: &[Circuit],
        params: &TranParams,
    ) -> Result<Vec<TranResult>> {
        self.transient_with_ics(circuits, params, &[])
    }

    /// [`Self::transient`] plus `.IC` initial-condition overrides: after
    /// the DC solve (or the all-zeros `UIC` start when `dc_init` is false),
    /// each listed node's starting voltage is forced to the given value in
    /// every lane before stepping begins. This is the SPICE `.IC`
    /// approximation — the override biases the initial state rather than
    /// adding a constraint row, so the first steps relax any resulting KCL
    /// imbalance. Ground and unknown nodes are ignored.
    ///
    /// # Errors
    ///
    /// As [`Self::transient`].
    pub fn transient_with_ics(
        &mut self,
        circuits: &[Circuit],
        params: &TranParams,
        ics: &[(NodeId, f64)],
    ) -> Result<Vec<TranResult>> {
        check_window(params)?;
        self.check(circuits, params.newton.solver)?;
        let _t = phase_span(Phase::Sweep);
        count(Metric::SweepCalls, 1);
        count(Metric::SweepLanes, self.lanes.len() as u64);
        self.lanes
            .iter_mut()
            .zip(circuits)
            .map(|(ws, c)| run_transient(c, params, ws, ics))
            .collect()
    }
}
