//! The fixed counter vocabulary.
//!
//! Counters are indexed by a dense `usize` so a recorder is a flat array
//! of atomics — no hashing, no allocation, no locks on the hot path.

/// One monotonic counter. The set is closed by design: every layer that
/// wants a new counter adds a variant here, and every snapshot/report
/// iterates [`ALL_METRICS`] so nothing can be silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// `SystemSolver` instances that chose the dense route.
    SolverDenseSelected = 0,
    /// `SystemSolver` instances that chose the sparse route.
    SolverSparseSelected,
    /// Cold dense LU factorizations (fresh pivot search).
    SolverFactorsDense,
    /// In-place dense refactorizations reusing the stored pivot sequence.
    SolverRefactorsDense,
    /// Cold sparse LU factorizations (numeric phase with pivot search).
    SolverFactorsSparse,
    /// Sparse numeric refactors replaying the stored pattern/pivots.
    SolverRefactorsSparse,
    /// Sparse refactor attempts that failed (tiny pivot) and fell back to
    /// a cold factorization.
    SolverColdFallbacks,
    /// Triangular solves against a held factorization.
    SolverSolves,
    /// DC operating points computed (one per Newton ladder entry).
    DcSolves,
    /// Newton iterations across all DC stages (plain, gmin, source).
    DcNewtonIterations,
    /// DC solves that had to enter the gmin-stepping fallback.
    DcGminFallbacks,
    /// DC solves that had to enter the source-stepping fallback.
    DcSourceStepFallbacks,
    /// Fixed-step transient analyses run.
    TranCalls,
    /// Transient time steps taken.
    TranSteps,
    /// Newton iterations inside transient steps (0 for linear circuits).
    TranNewtonIterations,
    /// Always 0: kept only so the `sna-metrics-v1` document keeps its
    /// `accepted_steps` key until the next schema version drops it (no
    /// transient runs a step-size controller).
    TranAcceptedSteps,
    /// Always 0: kept only so the `sna-metrics-v1` document keeps its
    /// `rejected_steps` key until the next schema version drops it.
    TranRejectedSteps,
    /// Always 0, like the four `Sweep*` counters after it: no sweep runs
    /// any more (characterization grids run on one `TranWorkspace`, whose
    /// work counts in the solver, DC and transient counters). Kept only so
    /// the `sna-metrics-v1` document keeps its `sweep` section until the
    /// next schema version drops it.
    SweepCalls,
    /// Always 0 (see [`Metric::SweepCalls`]); the section's `lanes` key.
    SweepLanes,
    /// Always 0 (see [`Metric::SweepCalls`]); the section's
    /// `lane_newton_iterations` key.
    SweepLaneNewtonIterations,
    /// Always 0 (see [`Metric::SweepCalls`]); the section's
    /// `serial_fallbacks` key.
    SweepSerialFallbacks,
    /// Always 0 (see [`Metric::SweepCalls`]); the section's `steps` key.
    SweepSteps,
    /// Queries handled by an `sna serve` session (any command).
    ServeQueries,
    /// Clusters re-analyzed by `sna serve` (fingerprint changed or cold).
    ServeReanalyzed,
    /// Cluster analyses `sna serve` satisfied from its result memo.
    ServeMemoHits,
    /// Clusters that went through a constrained FRAME alignment analysis.
    FrameClusters,
    /// Structural alignment candidates considered by FRAME enumerations.
    FrameCandidatesConsidered,
    /// Candidates pruned by switching-window / sensitivity interval
    /// analysis before simulation.
    FramePrunedWindow,
    /// Window-surviving candidates pruned by mutual-exclusion groups.
    FramePrunedMexcl,
    /// Feasible candidates actually simulated by the noise engine.
    FrameSimulated,
}

/// Number of [`Metric`] variants; recorders are `[AtomicU64; METRIC_COUNT]`.
pub const METRIC_COUNT: usize = 30;

/// Every metric, in index order. Reports iterate this so the document and
/// the enum can never drift apart.
pub const ALL_METRICS: [Metric; METRIC_COUNT] = [
    Metric::SolverDenseSelected,
    Metric::SolverSparseSelected,
    Metric::SolverFactorsDense,
    Metric::SolverRefactorsDense,
    Metric::SolverFactorsSparse,
    Metric::SolverRefactorsSparse,
    Metric::SolverColdFallbacks,
    Metric::SolverSolves,
    Metric::DcSolves,
    Metric::DcNewtonIterations,
    Metric::DcGminFallbacks,
    Metric::DcSourceStepFallbacks,
    Metric::TranCalls,
    Metric::TranSteps,
    Metric::TranNewtonIterations,
    Metric::TranAcceptedSteps,
    Metric::TranRejectedSteps,
    Metric::SweepCalls,
    Metric::SweepLanes,
    Metric::SweepLaneNewtonIterations,
    Metric::SweepSerialFallbacks,
    Metric::SweepSteps,
    Metric::ServeQueries,
    Metric::ServeReanalyzed,
    Metric::ServeMemoHits,
    Metric::FrameClusters,
    Metric::FrameCandidatesConsidered,
    Metric::FramePrunedWindow,
    Metric::FramePrunedMexcl,
    Metric::FrameSimulated,
];

impl Metric {
    /// Stable snake_case name used in `sna-metrics-v1` documents.
    pub fn name(self) -> &'static str {
        match self {
            Metric::SolverDenseSelected => "dense_selected",
            Metric::SolverSparseSelected => "sparse_selected",
            Metric::SolverFactorsDense => "factors_dense",
            Metric::SolverRefactorsDense => "refactors_dense",
            Metric::SolverFactorsSparse => "factors_sparse",
            Metric::SolverRefactorsSparse => "refactors_sparse",
            Metric::SolverColdFallbacks => "cold_fallbacks",
            Metric::SolverSolves => "solves",
            Metric::DcSolves => "solves",
            Metric::DcNewtonIterations => "newton_iterations",
            Metric::DcGminFallbacks => "gmin_fallbacks",
            Metric::DcSourceStepFallbacks => "source_step_fallbacks",
            Metric::TranCalls => "calls",
            Metric::TranSteps => "steps",
            Metric::TranNewtonIterations => "newton_iterations",
            Metric::TranAcceptedSteps => "accepted_steps",
            Metric::TranRejectedSteps => "rejected_steps",
            Metric::SweepCalls => "calls",
            Metric::SweepLanes => "lanes",
            Metric::SweepLaneNewtonIterations => "lane_newton_iterations",
            Metric::SweepSerialFallbacks => "serial_fallbacks",
            Metric::SweepSteps => "steps",
            Metric::ServeQueries => "queries",
            Metric::ServeReanalyzed => "reanalyzed",
            Metric::ServeMemoHits => "memo_hits",
            Metric::FrameClusters => "clusters",
            Metric::FrameCandidatesConsidered => "considered",
            Metric::FramePrunedWindow => "pruned_window",
            Metric::FramePrunedMexcl => "pruned_mexcl",
            Metric::FrameSimulated => "simulated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metrics_covers_every_index_exactly_once() {
        for (i, m) in ALL_METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i, "{m:?} out of place");
        }
    }
}
