//! Hierarchical phase timers.
//!
//! A [`PhaseSpan`] is an RAII guard: creating it pushes a [`Phase`] onto
//! the current thread's (implicit) phase stack, dropping it pops and
//! charges the elapsed wall time to the (parent → child) edge of that
//! thread's recorder. Aggregating the edges across threads reconstructs
//! the phase tree — e.g. `tran → refactor` time is separable from
//! `dc → refactor` time even though both run through the same solver code.
//!
//! Timing is globally gated: until [`set_timing_enabled`] is called the
//! guard is a no-op costing one relaxed atomic load, so production hot
//! loops (a span site sits inside every Newton iteration via the solver)
//! pay nothing measurable when nobody is looking. The guard never
//! allocates either way, preserving the transient inner loop's
//! allocation-free contract even with timing on.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::registry;

/// One node kind in the phase tree. Phases identify *what code* is
/// running, not where; the tree structure comes from runtime nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// A whole flow run (all corners).
    Flow = 0,
    /// One process-corner realization.
    Corner,
    /// One cluster analysis (macromodel build + simulate + classify).
    Cluster,
    /// Cell characterization (macromodel build).
    Characterize,
    /// Output load-curve characterization.
    LoadCurve,
    /// Holding-resistance characterization.
    HoldingR,
    /// Propagated-noise table characterization.
    PropTable,
    /// Per-aggressor Thévenin driver characterization.
    Thevenin,
    /// Noise-rejection-curve characterization.
    Nrc,
    /// Model-order reduction (PRIMA).
    Reduce,
    /// DC operating-point Newton ladder.
    Dc,
    /// Fixed-step transient analysis.
    Tran,
    /// Cold matrix factorization (dense or sparse).
    Factor,
    /// Numeric refactorization reusing a stored pivot sequence.
    Refactor,
    /// Triangular solve against a held factorization.
    Solve,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 15;

/// Every phase, in index order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::Flow,
    Phase::Corner,
    Phase::Cluster,
    Phase::Characterize,
    Phase::LoadCurve,
    Phase::HoldingR,
    Phase::PropTable,
    Phase::Thevenin,
    Phase::Nrc,
    Phase::Reduce,
    Phase::Dc,
    Phase::Tran,
    Phase::Factor,
    Phase::Refactor,
    Phase::Solve,
];

/// Sentinel parent index for spans opened at the top of a thread's stack.
pub(crate) const ROOT: u8 = PHASE_COUNT as u8;

impl Phase {
    /// Stable snake_case name used in `sna-metrics-v2` documents and the
    /// chrome-trace export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Flow => "flow",
            Phase::Corner => "corner",
            Phase::Cluster => "cluster",
            Phase::Characterize => "characterize",
            Phase::LoadCurve => "load_curve",
            Phase::HoldingR => "holding_r",
            Phase::PropTable => "prop_table",
            Phase::Thevenin => "thevenin",
            Phase::Nrc => "nrc",
            Phase::Reduce => "reduce",
            Phase::Dc => "dc",
            Phase::Tran => "tran",
            Phase::Factor => "factor",
            Phase::Refactor => "refactor",
            Phase::Solve => "solve",
        }
    }

    pub(crate) fn from_index(i: usize) -> Phase {
        ALL_PHASES[i]
    }
}

static TIMING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static CURRENT_PHASE: Cell<u8> = const { Cell::new(ROOT) };
}

/// Turn phase timing on or off process-wide. Off by default; the CLI
/// enables it for `--metrics`/`--profile` runs, tests for assertions.
pub fn set_timing_enabled(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether phase timing is currently enabled.
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// RAII guard for one timed phase. See [`phase_span`].
#[must_use = "a phase span measures until dropped; binding it to _ drops immediately"]
pub struct PhaseSpan {
    /// `None` when timing is disabled — the whole guard is then inert.
    start: Option<Instant>,
    phase: u8,
    parent: u8,
}

/// Open a timed span for `phase` on this thread. The span charges its
/// wall time to the (current phase → `phase`) edge when dropped and
/// restores the previous current phase. No-op (no clock read, no TLS
/// write) while timing is disabled.
pub fn phase_span(phase: Phase) -> PhaseSpan {
    if !timing_enabled() {
        return PhaseSpan {
            start: None,
            phase: phase as u8,
            parent: ROOT,
        };
    }
    let parent = CURRENT_PHASE.with(|c| c.replace(phase as u8));
    PhaseSpan {
        start: Some(Instant::now()),
        phase: phase as u8,
        parent,
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = t0.elapsed().as_nanos() as u64;
            CURRENT_PHASE.with(|c| c.set(self.parent));
            registry::record_edge(self.parent, self.phase, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_phases_covers_every_index_exactly_once() {
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?} out of place");
        }
    }

    #[test]
    fn disabled_spans_do_not_touch_the_stack() {
        set_timing_enabled(false);
        let s = phase_span(Phase::Dc);
        assert!(s.start.is_none());
        assert_eq!(CURRENT_PHASE.with(|c| c.get()), ROOT);
    }
}
