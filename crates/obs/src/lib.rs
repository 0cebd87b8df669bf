//! # sna-obs — zero-dependency observability for the SNA engine
//!
//! The engine spans three performance-critical layers (the dense/sparse
//! LU solver under DC and transient analyses, the sharded
//! characterization cache, and the order-preserving worker pool). This
//! crate is the shared instrumentation substrate they all report into:
//!
//! * [`Metric`] — a fixed vocabulary of monotonic counters (factor vs
//!   refactor, Newton iterations, fallback ladders, …).
//! * [`count`] — lock-free counting: every thread owns a
//!   [`LocalRecorder`] of relaxed atomics that only it writes, so the hot
//!   path never contends. Aggregation sums across recorders at snapshot
//!   time.
//! * [`Phase`] / [`phase_span`] — monotonic span timers maintaining a
//!   per-thread phase stack; each (parent → child) edge accumulates call
//!   count and wall time, yielding a hierarchical phase tree
//!   (characterize → dc → tran → factor/refactor/solve) with no
//!   allocation on the measured path. Timing is off by default and gated
//!   behind [`set_timing_enabled`], so uninstrumented runs pay one
//!   relaxed load per span site.
//! * [`trace_span`] — coarse-grained chrome-trace events (cluster /
//!   characterization granularity, never inner solver loops), exported by
//!   [`render_chrome_trace`] for `chrome://tracing` / Perfetto.
//! * [`snapshot`] / [`local_snapshot`] — aggregate or per-thread counter
//!   snapshots; tests take deltas of their own thread's recorder so
//!   concurrently running tests cannot interfere.
//!
//! Everything here is strictly out-of-band: recording a metric never
//! changes numerical results, and the stdout noise report of a flow run is
//! byte-identical whether metrics are collected or not.

#![warn(missing_docs)]

mod metric;
mod registry;
mod span;
mod trace;

pub use metric::{Metric, ALL_METRICS, METRIC_COUNT};
pub use registry::{
    count, local_snapshot, snapshot, CounterSnapshot, LocalRecorder, MetricsRegistry, PhaseEdge,
    Snapshot,
};
pub use span::{
    phase_span, set_timing_enabled, timing_enabled, Phase, PhaseSpan, ALL_PHASES, PHASE_COUNT,
};
pub use trace::{
    render_chrome_trace, set_tracing_enabled, take_trace_events, trace_span, tracing_enabled,
    TraceEvent, TraceSpan,
};
