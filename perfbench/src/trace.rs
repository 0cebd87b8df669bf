//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's layers (spans inside the program are not used). Each span
//! carries the id of the operation it belongs to (a cluster analysis or a
//! serve round trip), so the spans of one operation share an id; they are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans; at most one span is open per nesting level.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    enabled: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            enabled: false,
        }
    }

    /// Record spans from now on (`true`) or run span bodies bare.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from now on carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Index one past the last recorded span; spans recorded between two
    /// marks belong to the work done between them.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self host-nanoseconds per span name over `spans[from..to]`: each
    /// span's duration minus the part its direct children cover.
    pub fn self_ns(&self, from: usize, to: usize) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; to - from];
        for s in &self.spans[from..to] {
            if let Some(p) = s.parent {
                if p >= from {
                    child_ns[p - from] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans[from..to].iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// All spans as a chrome-trace JSON document (`ph: "X"` events, one
    /// thread; `args.op` is the operation id).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
