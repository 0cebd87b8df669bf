//! Per-thread recorders and the global registry that aggregates them.
//!
//! Each thread lazily registers one [`LocalRecorder`] — a flat array of
//! `AtomicU64` cells that only the owning thread writes (relaxed stores,
//! uncontended by construction) and only snapshotters read. The global
//! [`MetricsRegistry`] keeps `Arc`s to every recorder ever registered so
//! counts survive worker-pool threads exiting; [`snapshot`] sums across
//! them with no coordination beyond relaxed loads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metric::{Metric, ALL_METRICS, METRIC_COUNT};
use crate::span::{Phase, ALL_PHASES, PHASE_COUNT, ROOT};

/// Edge table size: parent ∈ {each phase, root sentinel} × child phase.
const EDGE_COUNT: usize = (PHASE_COUNT + 1) * PHASE_COUNT;

/// One thread's private counter/edge store. Public so the registry can
/// hand out `Arc`s; all mutation goes through the free functions.
pub struct LocalRecorder {
    counters: [AtomicU64; METRIC_COUNT],
    edge_nanos: Box<[AtomicU64; EDGE_COUNT]>,
    edge_calls: Box<[AtomicU64; EDGE_COUNT]>,
}

impl LocalRecorder {
    fn new() -> Self {
        LocalRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            edge_nanos: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            edge_calls: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

/// Registry of every per-thread recorder in the process.
pub struct MetricsRegistry {
    recorders: Mutex<Vec<Arc<LocalRecorder>>>,
}

impl MetricsRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| MetricsRegistry {
            recorders: Mutex::new(Vec::new()),
        })
    }

    /// Register a fresh recorder, returning it and its thread index (the
    /// `tid` used in chrome-trace events).
    fn register(&self) -> (Arc<LocalRecorder>, usize) {
        let rec = Arc::new(LocalRecorder::new());
        let mut guard = self.recorders.lock().expect("metrics registry poisoned");
        guard.push(Arc::clone(&rec));
        (rec, guard.len() - 1)
    }
}

struct LocalHandle {
    recorder: Arc<LocalRecorder>,
    tid: usize,
}

thread_local! {
    static LOCAL: LocalHandle = {
        let (recorder, tid) = MetricsRegistry::global().register();
        LocalHandle { recorder, tid }
    };
}

/// This thread's chrome-trace `tid` (its recorder index).
pub(crate) fn local_tid() -> usize {
    LOCAL.with(|h| h.tid)
}

/// Add `n` to `metric` on this thread's recorder. Always on: one TLS
/// access plus one relaxed, uncontended `fetch_add`.
pub fn count(metric: Metric, n: u64) {
    if n != 0 {
        LOCAL.with(|h| h.recorder.counters[metric as usize].fetch_add(n, Ordering::Relaxed));
    }
}

/// Charge `nanos` (one call) to the `parent → child` phase edge.
pub(crate) fn record_edge(parent: u8, child: u8, nanos: u64) {
    debug_assert!(parent <= ROOT && (child as usize) < PHASE_COUNT);
    let idx = parent as usize * PHASE_COUNT + child as usize;
    LOCAL.with(|h| {
        h.recorder.edge_nanos[idx].fetch_add(nanos, Ordering::Relaxed);
        h.recorder.edge_calls[idx].fetch_add(1, Ordering::Relaxed);
    });
}

/// A point-in-time copy of the counter array (per-thread or aggregated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    counts: [u64; METRIC_COUNT],
}

impl CounterSnapshot {
    /// Value of one counter.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counts[metric as usize]
    }

    /// Per-counter difference `self - earlier` (saturating): the counts
    /// attributable to work done between the two snapshots.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for i in 0..METRIC_COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// One aggregated `parent → child` edge of the phase tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEdge {
    /// Enclosing phase, `None` for spans opened at the top of a thread's
    /// stack.
    pub parent: Option<Phase>,
    /// The timed phase.
    pub phase: Phase,
    /// Times this edge was entered.
    pub calls: u64,
    /// Total wall time charged to this edge, summed across threads (may
    /// exceed elapsed wall clock when threads overlap).
    pub nanos: u64,
}

/// Aggregated process-wide view: counters plus the phase tree.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters summed across all recorders.
    pub counters: CounterSnapshot,
    /// Non-empty phase edges, in (parent, child) index order —
    /// deterministic for a given set of recorded values.
    pub phases: Vec<PhaseEdge>,
    /// Number of per-thread recorders aggregated.
    pub threads: usize,
}

impl Snapshot {
    /// Total wall time (ns) charged to `phase`, summed over all parents.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| e.nanos)
            .sum()
    }
}

/// Snapshot of this thread's recorder only. Because no other thread ever
/// writes it, deltas around a code region give exact counts for that
/// region even while other tests/threads run concurrently.
pub fn local_snapshot() -> CounterSnapshot {
    LOCAL.with(|h| {
        let mut out = CounterSnapshot::default();
        for m in ALL_METRICS {
            out.counts[m as usize] = h.recorder.counters[m as usize].load(Ordering::Relaxed);
        }
        out
    })
}

/// Aggregate counters and phase edges across every recorder in the
/// process.
pub fn snapshot() -> Snapshot {
    let recorders = MetricsRegistry::global()
        .recorders
        .lock()
        .expect("metrics registry poisoned");
    let mut counters = CounterSnapshot::default();
    let mut nanos = [0u64; EDGE_COUNT];
    let mut calls = [0u64; EDGE_COUNT];
    for rec in recorders.iter() {
        for i in 0..METRIC_COUNT {
            counters.counts[i] += rec.counters[i].load(Ordering::Relaxed);
        }
        for i in 0..EDGE_COUNT {
            nanos[i] += rec.edge_nanos[i].load(Ordering::Relaxed);
            calls[i] += rec.edge_calls[i].load(Ordering::Relaxed);
        }
    }
    let mut phases = Vec::new();
    for p in 0..=PHASE_COUNT {
        for (c, &child) in ALL_PHASES.iter().enumerate() {
            let idx = p * PHASE_COUNT + c;
            if calls[idx] != 0 || nanos[idx] != 0 {
                phases.push(PhaseEdge {
                    parent: if p == ROOT as usize {
                        None
                    } else {
                        Some(Phase::from_index(p))
                    },
                    phase: child,
                    calls: calls[idx],
                    nanos: nanos[idx],
                });
            }
        }
    }
    Snapshot {
        counters,
        phases,
        threads: recorders.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{phase_span, set_timing_enabled};

    #[test]
    fn local_deltas_are_exact_for_own_thread() {
        let before = local_snapshot();
        count(Metric::DcNewtonIterations, 3);
        count(Metric::SolverSolves, 5);
        count(Metric::SolverSolves, 0); // no-op
        let delta = local_snapshot().since(&before);
        assert_eq!(delta.get(Metric::DcNewtonIterations), 3);
        assert_eq!(delta.get(Metric::SolverSolves), 5);
        assert_eq!(delta.get(Metric::TranSteps), 0);
    }

    #[test]
    fn other_threads_do_not_leak_into_local_snapshot() {
        let before = local_snapshot();
        std::thread::spawn(|| count(Metric::TranSteps, 1_000_000))
            .join()
            .unwrap();
        let delta = local_snapshot().since(&before);
        assert_eq!(delta.get(Metric::TranSteps), 0);
    }

    #[test]
    fn nested_spans_build_parent_child_edges() {
        // Run nesting on a dedicated thread so concurrent tests toggling
        // the global timing flag cannot race this one's expectations
        // mid-span; edges land in the global snapshot either way.
        std::thread::spawn(|| {
            set_timing_enabled(true);
            {
                let _outer = phase_span(Phase::Tran);
                let _inner = phase_span(Phase::Refactor);
            }
            set_timing_enabled(false);
        })
        .join()
        .unwrap();
        let snap = snapshot();
        assert!(snap
            .phases
            .iter()
            .any(|e| e.parent == Some(Phase::Tran) && e.phase == Phase::Refactor && e.calls >= 1));
        assert!(snap.threads >= 1);
    }
}
