//! Chrome-trace span export.
//!
//! Coarse-grained complete events (`"ph":"X"`) appended to a global
//! buffer and rendered as the Trace Event Format JSON that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Tracing is opt-in ([`set_tracing_enabled`]) and intended for
//! cluster/characterization granularity — recording an event allocates,
//! so trace spans must never sit inside solver inner loops (the
//! allocation-free paths use [`crate::phase_span`] aggregation instead).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{json_escape, registry};

static TRACING: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn events() -> &'static Mutex<Vec<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turn trace-event recording on or off process-wide. Off by default;
/// the CLI enables it for `--profile` runs. Pins the trace epoch on
/// enable so timestamps start near zero.
pub fn set_tracing_enabled(on: bool) {
    if on {
        epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether trace-event recording is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One complete ("X") event in the Trace Event Format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (e.g. a cluster name).
    pub name: String,
    /// Category (e.g. `cluster`, `characterize`, `corner`).
    pub cat: &'static str,
    /// Start, µs since the trace epoch.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Emitting thread's recorder index.
    pub tid: usize,
}

/// RAII guard for one trace event. See [`trace_span`].
#[must_use = "a trace span measures until dropped; binding it to _ drops immediately"]
pub struct TraceSpan {
    /// `None` when tracing is disabled at open time.
    open: Option<(String, &'static str, Instant)>,
}

/// Open a trace span named `name` in category `cat`. Records a complete
/// event on drop; inert (and allocation-free) while tracing is disabled.
pub fn trace_span(cat: &'static str, name: &str) -> TraceSpan {
    if !tracing_enabled() {
        return TraceSpan { open: None };
    }
    TraceSpan {
        open: Some((name.to_owned(), cat, Instant::now())),
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((name, cat, t0)) = self.open.take() {
            let dur_us = t0.elapsed().as_micros() as u64;
            let ts_us = t0.duration_since(epoch()).as_micros() as u64;
            let ev = TraceEvent {
                name,
                cat,
                ts_us,
                dur_us,
                tid: registry::local_tid(),
            };
            events().lock().expect("trace buffer poisoned").push(ev);
        }
    }
}

/// Drain and return all recorded events (oldest first).
pub fn take_trace_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *events().lock().expect("trace buffer poisoned"))
}

/// Render the current event buffer (without draining it) as a Trace
/// Event Format document: load the file in `chrome://tracing` or drop it
/// onto <https://ui.perfetto.dev>.
pub fn render_chrome_trace() -> String {
    let guard = events().lock().expect("trace buffer poisoned");
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in guard.iter().enumerate() {
        let comma = if i + 1 < guard.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}{}\n",
            json_escape(&ev.name),
            json_escape(ev.cat),
            ev.ts_us,
            ev.dur_us,
            ev.tid,
            comma
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_records_nothing() {
        set_tracing_enabled(false);
        let s = trace_span("test", "noop");
        assert!(s.open.is_none());
    }

    #[test]
    fn events_render_as_trace_event_format() {
        set_tracing_enabled(true);
        {
            let _s = trace_span("test-cat", "evt \"quoted\"");
        }
        set_tracing_enabled(false);
        let doc = render_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\"ph\":\"X\""));
        let evs = take_trace_events();
        assert!(evs.iter().any(|e| e.cat == "test-cat"));
        assert!(take_trace_events().is_empty(), "drained");
    }
}
