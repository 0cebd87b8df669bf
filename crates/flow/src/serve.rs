//! `sna serve` — a long-lived incremental analysis session.
//!
//! Batch sign-off re-pays the whole flow on every invocation even when an
//! engineer only nudged one cluster. Serve mode keeps the design, the
//! receiver NRC and the characterization library resident, reads
//! newline-delimited JSON queries on stdin, and re-analyzes **only the
//! clusters whose spec or analysis options changed** since their memoized
//! result — everything else is answered from the per-cluster result memo,
//! which keeps each finding with the spec and options it was computed at.
//!
//! The protocol is one JSON object per line in, one per line out:
//!
//! * `{"cmd":"analyze"}` — analyze every cluster (or a subset via
//!   `"clusters":["net000",...]`); returns findings in design order plus
//!   how many were re-analyzed vs. served from the memo,
//! * `{"cmd":"edit","cluster":"net000",...}` — mutate one cluster
//!   (`glitch_height`/`glitch_width`, per-aggressor `strength` /
//!   `input_slew` / `switch_time` / `rising` / `receiver_cap` via
//!   `"aggressor":<idx>`, or `drop_aggressor`); the next `analyze`
//!   re-runs just that cluster. An `input_slew` longer than the
//!   cluster's `t_stop` is refused,
//! * `{"cmd":"guard_band","value":0.05}` — change the NRC guard band
//!   (re-analyzes everything: verdicts depend on it),
//! * `{"cmd":"stats"}` — session counters and cache statistics,
//! * `{"cmd":"shutdown"}` — persist the library cache (if
//!   `--library-cache` was given) and exit.
//!
//! Malformed input gets `{"ok":false,"error":...}` — the session never
//! crashes on a bad query. Re-analysis runs on the same order-preserving
//! pool as batch mode, so serve findings are byte-identical to a fresh
//! batch run of the edited design.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use sna_cells::Cell;
use sna_core::cluster::{ClusterSpec, MacromodelOptions, SwitchingWindow};
use sna_core::library::NoiseModelLibrary;
use sna_core::nrc::NoiseRejectionCurve;
use sna_core::sna::{analyze_cluster, ClusterFinding, Design, SnaOptions};
use sna_obs::Metric;
use sna_spice::error::{Error, Result};
use sna_spice::units::PS;

use crate::cache::{load_library_cache, save_library_cache};
use crate::cli::{CliConfig, LogLevel};
use crate::corners::{corner_by_name, NRC_WIDTHS};
use crate::driver::FlowOptions;
use crate::output::{esc, verdict_tag};
use crate::pool::{auto_threads, parallel_map_ordered};

// ---------------------------------------------------------------------------
// Minimal JSON reader (the vendored serde is a no-op marker; queries are
// parsed by hand, mirroring the hand-rolled writers elsewhere in the repo).

/// A parsed JSON value. Numbers are kept as `f64`, which covers every
/// field the protocol defines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object-field lookup (first match; the protocol never repeats keys).
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> std::result::Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", want as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> std::result::Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> std::result::Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> std::result::Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> std::result::Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are not paired; the protocol is ASCII.
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is validated UTF-8:
                    // it arrived as &str).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".into());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        let v: f64 = s
            .parse()
            .map_err(|_| format!("bad number '{s}' at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number '{s}'"));
        }
        Ok(Json::Num(v))
    }
}

// ---------------------------------------------------------------------------
// Result memo.

/// A memoized finding with everything it was computed from: the cluster's
/// full [`ClusterSpec`] and the analysis options. It answers a later
/// `analyze` only while all three still compare equal, so every field of
/// those types — including ones added later — invalidates it.
struct MemoEntry {
    spec: ClusterSpec,
    sna: SnaOptions,
    mm: MacromodelOptions,
    finding: ClusterFinding,
}

// ---------------------------------------------------------------------------
// Session state.

/// One resident serve session: design + NRC + library + result memo.
///
/// All protocol handling goes through [`ServeState::handle_line`], which
/// is pure string-to-string — the stdin/stdout loop in [`run_serve`] is a
/// trivial shell around it, so the whole protocol is unit-testable.
pub struct ServeState {
    design: Design,
    nrc: Arc<NoiseRejectionCurve>,
    library: NoiseModelLibrary,
    opts: FlowOptions,
    /// Per-cluster memo: name → finding and the inputs it was computed at.
    memo: HashMap<String, MemoEntry>,
    queries: u64,
    reanalyzed: u64,
    memo_hits: u64,
    done: bool,
}

fn err_json(msg: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"}}", esc(msg))
}

/// Parse a FRAME window edit value: `[t_min, t_max]` sets, `null` clears.
/// Errors are returned pre-rendered as protocol responses.
fn parse_window_field(
    j: &Json,
    field: &str,
) -> std::result::Result<Option<SwitchingWindow>, String> {
    match j {
        Json::Null => Ok(None),
        Json::Arr(v) if v.len() == 2 => {
            let (Some(lo), Some(hi)) = (v[0].as_f64(), v[1].as_f64()) else {
                return Err(err_json(&format!(
                    "'{field}' endpoints must be numbers (seconds)"
                )));
            };
            let w = SwitchingWindow::new(lo, hi);
            if !w.is_valid() {
                return Err(err_json(&format!(
                    "'{field}' must be finite with t_min <= t_max"
                )));
            }
            Ok(Some(w))
        }
        _ => Err(err_json(&format!(
            "'{field}' must be [t_min, t_max] or null"
        ))),
    }
}

impl ServeState {
    /// Build a session from the CLI configuration: first corner only (a
    /// serve session holds one design), library warmed from
    /// `--library-cache` if given.
    ///
    /// # Errors
    ///
    /// Fails on unknown corners or NRC characterization failure.
    pub fn new(cfg: &CliConfig) -> Result<ServeState> {
        let name = cfg.corners.first().map(String::as_str).unwrap_or("cmos130");
        let tech = corner_by_name(name)?;
        let library = NoiseModelLibrary::new();
        if let Some(path) = &cfg.library_cache {
            let load = load_library_cache(Path::new(path), &library);
            if cfg.log_level >= LogLevel::Normal {
                eprintln!("{}", load.message);
            }
        }
        let opts = FlowOptions {
            sna: SnaOptions {
                align_worst_case: cfg.worst_case,
                align_window: 400.0 * PS,
                margin_band: cfg.guard_band,
                strict: false,
                frame_grid: cfg.frame_grid,
                frame_exhaustive: cfg.frame_exhaustive,
            },
            mm: MacromodelOptions::default(),
            threads: cfg.threads,
        };
        let mut design = Design::random(&tech, cfg.clusters, cfg.seed);
        if let Some(path) = &cfg.windows {
            let edits = crate::windows::load_windows(Path::new(path))?;
            crate::windows::apply_windows(&mut design, &edits)?;
        }
        let nrc = library.nrc(&Cell::inv(tech, 1.0), true, &NRC_WIDTHS, opts.mm.solver)?;
        Ok(ServeState {
            design,
            nrc,
            library,
            opts,
            memo: HashMap::new(),
            queries: 0,
            reanalyzed: 0,
            memo_hits: 0,
            done: false,
        })
    }

    /// Whether a `shutdown` command has been handled.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Session counters: (queries, clusters re-analyzed, memo hits).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.queries, self.reanalyzed, self.memo_hits)
    }

    /// Borrow the session library (to persist it on shutdown).
    pub fn library(&self) -> &NoiseModelLibrary {
        &self.library
    }

    /// Handle one protocol line, returning one response line (no trailing
    /// newline). Never panics on malformed input.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.queries += 1;
        sna_obs::count(Metric::ServeQueries, 1);
        let query = match JsonParser::parse(line) {
            Ok(q) => q,
            Err(e) => return err_json(&format!("bad JSON: {e}")),
        };
        let cmd = match query.get("cmd").and_then(Json::as_str) {
            Some(c) => c.to_string(),
            None => return err_json("missing string field 'cmd'"),
        };
        match cmd.as_str() {
            "analyze" => self.cmd_analyze(&query),
            "edit" => self.cmd_edit(&query),
            "guard_band" => self.cmd_guard_band(&query),
            "stats" => self.cmd_stats(),
            "shutdown" => {
                self.done = true;
                "{\"ok\": true, \"shutdown\": true}".into()
            }
            other => err_json(&format!(
                "unknown cmd '{other}' (expected analyze, edit, guard_band, stats, shutdown)"
            )),
        }
    }

    fn cluster_index(&self, name: &str) -> Option<usize> {
        self.design.clusters.iter().position(|c| c.name == name)
    }

    fn cmd_analyze(&mut self, query: &Json) -> String {
        // Resolve the target set (design order, deduplicated by index).
        let mut targets: Vec<usize> = match query.get("clusters") {
            None => (0..self.design.clusters.len()).collect(),
            Some(Json::Arr(names)) => {
                let mut idx = Vec::with_capacity(names.len());
                for n in names {
                    let Some(name) = n.as_str() else {
                        return err_json("'clusters' must be an array of cluster names");
                    };
                    match self.cluster_index(name) {
                        Some(i) => idx.push(i),
                        None => return err_json(&format!("unknown cluster '{name}'")),
                    }
                }
                idx
            }
            Some(_) => return err_json("'clusters' must be an array of cluster names"),
        };
        targets.sort_unstable();
        targets.dedup();

        // Split into memo hits and changed (or cold) clusters.
        let mut stale: Vec<usize> = Vec::new();
        let mut memo_hits = 0u64;
        for &i in &targets {
            let cl = &self.design.clusters[i];
            match self.memo.get(&cl.name) {
                Some(e) if e.spec == cl.spec && e.sna == self.opts.sna && e.mm == self.opts.mm => {
                    memo_hits += 1
                }
                _ => stale.push(i),
            }
        }

        // Re-analyze only the stale ones, on the order-preserving pool.
        let threads = if self.opts.threads == 0 {
            auto_threads()
        } else {
            self.opts.threads
        }
        .clamp(1, stale.len().max(1));
        let jobs: Vec<usize> = stale.clone();
        let design = &self.design;
        let nrc = &self.nrc;
        let opts = &self.opts;
        let library = &self.library;
        let outcomes = parallel_map_ordered(threads, &jobs, |_, &i| {
            let cl = &design.clusters[i];
            analyze_cluster(cl, nrc, &opts.sna, &opts.mm, library)
        });
        for (&i, outcome) in jobs.iter().zip(outcomes) {
            let cl = &self.design.clusters[i];
            match outcome {
                Ok(finding) => {
                    let entry = MemoEntry {
                        spec: cl.spec.clone(),
                        sna: self.opts.sna,
                        mm: self.opts.mm,
                        finding,
                    };
                    self.memo.insert(cl.name.clone(), entry);
                }
                Err(e) => {
                    return err_json(&format!("cluster '{}' failed: {e}", cl.name));
                }
            }
        }
        self.reanalyzed += stale.len() as u64;
        self.memo_hits += memo_hits;
        sna_obs::count(Metric::ServeReanalyzed, stale.len() as u64);
        sna_obs::count(Metric::ServeMemoHits, memo_hits);

        // Render findings in design order.
        let rows: Vec<String> = targets
            .iter()
            .map(|&i| {
                let name = &self.design.clusters[i].name;
                let f = &self.memo[name].finding;
                // Constrained (FRAME) margin rides along only for clusters
                // that carry constraints.
                let constrained = match &f.constrained {
                    Some(c) => format!(", \"constrained_margin\": {:.6}", c.margin),
                    None => String::new(),
                };
                format!(
                    "{{\"net\": \"{}\", \"verdict\": \"{}\", \"margin\": {:.6}, \"peak\": {:.6}, \"width\": {:.6e}{}}}",
                    esc(name),
                    verdict_tag(f.verdict),
                    f.margin,
                    f.receiver_metrics.peak,
                    f.receiver_metrics.width,
                    constrained
                )
            })
            .collect();
        format!(
            "{{\"ok\": true, \"analyzed\": {}, \"memo_hits\": {}, \"findings\": [{}]}}",
            stale.len(),
            memo_hits,
            rows.join(", ")
        )
    }

    fn cmd_edit(&mut self, query: &Json) -> String {
        let Some(name) = query.get("cluster").and_then(Json::as_str) else {
            return err_json("edit needs a string field 'cluster'");
        };
        let Some(i) = self.cluster_index(name) else {
            return err_json(&format!("unknown cluster '{name}'"));
        };
        // Apply on a clone, commit only if every field validates — a bad
        // edit must leave the design untouched.
        let mut spec = self.design.clusters[i].spec.clone();
        let mut edited = 0usize;

        for field in ["glitch_height", "glitch_width"] {
            let Some(j) = query.get(field) else { continue };
            let Some(v) = j.as_f64() else {
                return err_json(&format!("'{field}' must be a number"));
            };
            if !(v.is_finite() && v > 0.0) {
                return err_json(&format!("'{field}' must be positive and finite"));
            }
            let Some(g) = &mut spec.victim.glitch else {
                return err_json(&format!(
                    "cluster '{name}' has no propagated glitch to edit"
                ));
            };
            if field == "glitch_height" {
                g.height = v;
            } else {
                g.width = v;
            }
            edited += 1;
        }

        // Victim sensitivity window (FRAME): [t_min, t_max] or null.
        if let Some(j) = query.get("sensitivity") {
            match parse_window_field(j, "sensitivity") {
                Ok(w) => spec.victim.sensitivity = w,
                Err(e) => return e,
            }
            edited += 1;
        }

        // Per-aggressor edits.
        let agg_fields = [
            "strength",
            "input_slew",
            "switch_time",
            "rising",
            "receiver_cap",
            "window",
            "mexcl",
        ];
        if let Some(j) = query.get("aggressor") {
            let Some(k) = j.as_usize() else {
                return err_json("'aggressor' must be a non-negative integer index");
            };
            if k >= spec.aggressors.len() {
                return err_json(&format!(
                    "aggressor index {k} out of range (cluster '{name}' has {})",
                    spec.aggressors.len()
                ));
            }
            for field in agg_fields {
                let Some(j) = query.get(field) else { continue };
                match field {
                    "rising" => {
                        let Some(b) = j.as_bool() else {
                            return err_json("'rising' must be a boolean");
                        };
                        spec.aggressors[k].rising = b;
                    }
                    "window" => match parse_window_field(j, "window") {
                        Ok(w) => spec.aggressors[k].window = w,
                        Err(e) => return e,
                    },
                    "mexcl" => match j {
                        Json::Null => spec.aggressors[k].mexcl_group = None,
                        _ => match j.as_usize().and_then(|g| u32::try_from(g).ok()) {
                            Some(g) => spec.aggressors[k].mexcl_group = Some(g),
                            None => return err_json("'mexcl' must be a group id or null"),
                        },
                    },
                    _ => {
                        let Some(v) = j.as_f64() else {
                            return err_json(&format!("'{field}' must be a number"));
                        };
                        if !(v.is_finite() && v > 0.0) {
                            return err_json(&format!("'{field}' must be positive and finite"));
                        }
                        match field {
                            "strength" => {
                                let tech = spec.aggressors[k].cell.tech.clone();
                                spec.aggressors[k].cell = Cell::inv(tech, v);
                            }
                            // The Thevenin fit steps the driver through the
                            // whole input ramp, so a slew beyond the window
                            // would ask for unbounded work.
                            "input_slew" if v > spec.t_stop => {
                                return err_json(&format!(
                                    "'input_slew' {v:e} s exceeds the cluster's \
                                     simulation window t_stop = {:e} s",
                                    spec.t_stop
                                ));
                            }
                            "input_slew" => spec.aggressors[k].input_slew = v,
                            "switch_time" => spec.aggressors[k].switch_time = v,
                            "receiver_cap" => spec.aggressors[k].receiver_cap = v,
                            _ => unreachable!(),
                        }
                    }
                }
                edited += 1;
            }
        } else if agg_fields.iter().any(|f| query.get(f).is_some()) {
            return err_json("aggressor fields need an 'aggressor' index");
        }

        if let Some(j) = query.get("drop_aggressor") {
            let Some(k) = j.as_usize() else {
                return err_json("'drop_aggressor' must be a non-negative integer index");
            };
            if k >= spec.aggressors.len() {
                return err_json(&format!(
                    "aggressor index {k} out of range (cluster '{name}' has {})",
                    spec.aggressors.len()
                ));
            }
            if spec.aggressors.len() == 1 {
                return err_json("cannot drop the last aggressor of a cluster");
            }
            // Wire 0 is the victim; aggressor k drives wire k+1. Dropping
            // it removes that wire, its couplings, and shifts the higher
            // wire indices down by one.
            spec.aggressors.remove(k);
            let wire = k + 1;
            spec.bus.wires.remove(wire);
            spec.bus.couplings.retain(|c| c.a != wire && c.b != wire);
            for c in &mut spec.bus.couplings {
                if c.a > wire {
                    c.a -= 1;
                }
                if c.b > wire {
                    c.b -= 1;
                }
            }
            edited += 1;
        }

        if edited == 0 {
            return err_json("edit changed nothing (no recognized field present)");
        }
        self.design.clusters[i].spec = spec;
        format!(
            "{{\"ok\": true, \"cluster\": \"{}\", \"edited_fields\": {edited}}}",
            esc(name)
        )
    }

    fn cmd_guard_band(&mut self, query: &Json) -> String {
        let Some(v) = query.get("value").and_then(Json::as_f64) else {
            return err_json("guard_band needs a numeric field 'value'");
        };
        if !v.is_finite() || v < 0.0 {
            return err_json("guard band must be a non-negative voltage");
        }
        self.opts.sna.margin_band = v;
        format!("{{\"ok\": true, \"guard_band\": {v}}}")
    }

    fn cmd_stats(&self) -> String {
        let st = self.library.stats();
        format!(
            "{{\"ok\": true, \"clusters\": {}, \"queries\": {}, \"reanalyzed\": {}, \"memo_hits\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \"disk_misses\": {}, \"stale_rejected\": {}}}}}",
            self.design.clusters.len(),
            self.queries,
            self.reanalyzed,
            self.memo_hits,
            st.hits,
            st.misses,
            st.disk_hits,
            st.disk_misses,
            st.stale_rejected
        )
    }
}

/// The `sna serve` entry point: read queries from stdin, answer on stdout,
/// persist the library cache on shutdown.
///
/// # Errors
///
/// Fails on session construction (unknown corner, NRC characterization)
/// and on stdout write failures; per-query problems are answered in-band
/// and never end the session.
pub fn run_serve(cfg: &CliConfig) -> Result<()> {
    let mut state = ServeState::new(cfg)?;
    if cfg.log_level >= LogLevel::Normal {
        eprintln!(
            "serve: {} clusters resident on corner {}, awaiting queries",
            cfg.clusters,
            cfg.corners.first().map(String::as_str).unwrap_or("cmos130")
        );
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| Error::InvalidAnalysis(format!("stdin read failed: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = state.handle_line(&line);
        writeln!(out, "{response}")
            .and_then(|()| out.flush())
            .map_err(|e| Error::InvalidAnalysis(format!("stdout write failed: {e}")))?;
        if state.done() {
            break;
        }
    }
    if let Some(path) = &cfg.library_cache {
        match save_library_cache(Path::new(path), state.library()) {
            Ok(bytes) => {
                if cfg.log_level >= LogLevel::Normal {
                    eprintln!("library cache '{path}': wrote {bytes} bytes");
                }
            }
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    let (q, r, m) = state.counters();
    if cfg.log_level >= LogLevel::Normal {
        eprintln!("serve: {q} queries, {r} clusters re-analyzed, {m} memo hits");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(clusters: usize) -> ServeState {
        let cfg = CliConfig {
            clusters,
            threads: 1,
            log_level: LogLevel::Quiet,
            ..Default::default()
        };
        ServeState::new(&cfg).expect("serve session")
    }

    #[test]
    fn json_parser_handles_the_protocol_surface() {
        let v = JsonParser::parse(
            r#"{"cmd": "edit", "cluster": "net000", "aggressor": 1, "rising": false,
                "input_slew": 5.5e-11, "tags": ["a", "b"], "note": "x\n\"y\"", "none": null}"#,
        )
        .expect("parse");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("edit"));
        assert_eq!(v.get("aggressor").and_then(Json::as_usize), Some(1));
        assert_eq!(v.get("rising").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("input_slew").and_then(Json::as_f64), Some(5.5e-11));
        assert_eq!(v.get("note").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert!(matches!(v.get("tags"), Some(Json::Arr(a)) if a.len() == 2));
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "{\"a\": 1e999}",
            "nul",
        ] {
            assert!(JsonParser::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn analyze_then_memo_hit_then_edit_reanalyzes_one() {
        let mut s = session(3);
        // Cold analyze: everything is computed.
        let r1 = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r1.contains("\"ok\": true"), "{r1}");
        assert!(r1.contains("\"analyzed\": 3"), "{r1}");
        assert!(r1.contains("\"memo_hits\": 0"), "{r1}");
        assert!(r1.contains("\"net\": \"net000\""), "{r1}");
        // Identical re-query: all memo hits, zero re-analysis.
        let r2 = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r2.contains("\"analyzed\": 0"), "{r2}");
        assert!(r2.contains("\"memo_hits\": 3"), "{r2}");
        // Findings are identical between the two.
        let findings = |r: &str| r[r.find("\"findings\"").unwrap()..].to_string();
        assert_eq!(findings(&r1), findings(&r2));
        // Edit one cluster; only it is re-analyzed.
        let r3 = s.handle_line(
            r#"{"cmd": "edit", "cluster": "net001", "aggressor": 0, "input_slew": 1.1e-10}"#,
        );
        assert!(r3.contains("\"ok\": true"), "{r3}");
        let r4 = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r4.contains("\"analyzed\": 1"), "{r4}");
        assert!(r4.contains("\"memo_hits\": 2"), "{r4}");
        let (q, re, mh) = s.counters();
        assert_eq!(q, 4);
        assert_eq!(re, 4); // 3 cold + 1 after the edit
        assert_eq!(mh, 5); // 3 + 2
    }

    #[test]
    fn serve_findings_match_batch_flow() {
        let mut s = session(3);
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        // The same design analyzed by the batch driver gives the same
        // margins — serve is the incremental view of the same flow.
        let cfg = CliConfig {
            clusters: 3,
            threads: 1,
            log_level: LogLevel::Quiet,
            ..Default::default()
        };
        let tech = corner_by_name("cmos130").unwrap();
        let design = Design::random(&tech, cfg.clusters, cfg.seed);
        let lib = NoiseModelLibrary::new();
        let nrc = lib
            .nrc(&Cell::inv(tech, 1.0), true, &NRC_WIDTHS, Default::default())
            .unwrap();
        for cl in &design.clusters {
            let f = analyze_cluster(
                cl,
                &nrc,
                &SnaOptions::default(),
                &MacromodelOptions::default(),
                &lib,
            )
            .unwrap();
            let expect = format!(
                "\"net\": \"{}\", \"verdict\": \"{}\", \"margin\": {:.6}",
                cl.name,
                verdict_tag(f.verdict),
                f.margin
            );
            assert!(r.contains(&expect), "missing {expect} in {r}");
        }
    }

    #[test]
    fn subset_analyze_and_unknown_cluster() {
        let mut s = session(3);
        let r = s.handle_line(r#"{"cmd": "analyze", "clusters": ["net002", "net000"]}"#);
        assert!(r.contains("\"analyzed\": 2"), "{r}");
        // Design order regardless of request order.
        let p0 = r.find("net000").unwrap();
        let p2 = r.find("net002").unwrap();
        assert!(p0 < p2, "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze", "clusters": ["netXYZ"]}"#);
        assert!(r.contains("unknown cluster"), "{r}");
    }

    #[test]
    fn guard_band_edit_refingerprints_everything() {
        let mut s = session(2);
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 2"), "{r}");
        let r = s.handle_line(r#"{"cmd": "guard_band", "value": 0.25}"#);
        assert!(r.contains("\"ok\": true"), "{r}");
        // Verdicts depend on the guard band, so nothing can be served
        // from the old memo.
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 2"), "{r}");
        assert!(r.contains("\"memo_hits\": 0"), "{r}");
    }

    #[test]
    fn frame_edits_invalidate_only_the_target_cluster() {
        let mut s = session(2);
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 2"), "{r}");
        assert!(!r.contains("constrained_margin"), "{r}");
        // Constrain net000: wide window (always feasible) + a mexcl group.
        let r = s.handle_line(
            r#"{"cmd": "edit", "cluster": "net000", "aggressor": 0, "window": [0, 1e-8], "mexcl": 3}"#,
        );
        assert!(r.contains("\"edited_fields\": 2"), "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 1"), "{r}");
        assert!(r.contains("\"memo_hits\": 1"), "{r}");
        assert!(r.contains("constrained_margin"), "{r}");
        // Victim sensitivity is a per-cluster field, no aggressor index.
        let r = s.handle_line(r#"{"cmd": "edit", "cluster": "net000", "sensitivity": [0, 5e-9]}"#);
        assert!(r.contains("\"edited_fields\": 1"), "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 1"), "{r}");
        // Clearing the constraints restores the unconstrained report.
        let r = s.handle_line(
            r#"{"cmd": "edit", "cluster": "net000", "aggressor": 0, "window": null, "mexcl": null, "sensitivity": null}"#,
        );
        assert!(r.contains("\"edited_fields\": 3"), "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(!r.contains("constrained_margin"), "{r}");
        // Malformed values are rejected without mutating the design.
        let r = s.handle_line(
            r#"{"cmd": "edit", "cluster": "net000", "aggressor": 0, "window": [2e-9, 1e-9]}"#,
        );
        assert!(r.contains("t_min <= t_max"), "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"memo_hits\": 2"), "{r}");
    }

    /// Every `edit` field changes a value the memo compares, so each one
    /// re-analyzes its own cluster and serves every other from the memo.
    /// A no-op edit (the current value again) re-analyzes nothing.
    #[test]
    fn each_edit_field_reanalyzes_exactly_its_cluster() {
        let mut s = session(6);
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 6"), "{r}");
        let clusters = &s.design.clusters;
        let glitched = clusters
            .iter()
            .position(|c| c.spec.victim.glitch.is_some())
            .expect("a glitched victim in 6 draws");
        let multi = clusters
            .iter()
            .position(|c| c.spec.aggressors.len() >= 2)
            .expect("a multi-aggressor cluster in 6 draws");
        let g = clusters[glitched].spec.victim.glitch.expect("glitch");
        let (height, width) = (1.1 * g.height, 1.1 * g.width);
        let a = &clusters[0].spec.aggressors[0];
        let strength = a.cell.strength + 1.0;
        let (slew, switch, cap) = (
            1.25 * a.input_slew,
            1.1 * a.switch_time,
            1.5 * a.receiver_cap,
        );
        let rising = !a.rising;
        let edits = [
            (glitched, format!(r#""glitch_height": {height:e}"#)),
            (glitched, format!(r#""glitch_width": {width:e}"#)),
            (0, r#""sensitivity": [0, 1e-8]"#.to_string()),
            (0, format!(r#""aggressor": 0, "strength": {strength}"#)),
            (0, format!(r#""aggressor": 0, "input_slew": {slew:e}"#)),
            (0, format!(r#""aggressor": 0, "switch_time": {switch:e}"#)),
            (0, format!(r#""aggressor": 0, "rising": {rising}"#)),
            (0, format!(r#""aggressor": 0, "receiver_cap": {cap:e}"#)),
            (0, r#""aggressor": 0, "window": [0, 1e-8]"#.to_string()),
            (0, r#""aggressor": 0, "mexcl": 3"#.to_string()),
            (multi, r#""drop_aggressor": 0"#.to_string()),
        ];
        for (i, fields) in edits {
            let name = s.design.clusters[i].name.clone();
            let r = s.handle_line(&format!(
                r#"{{"cmd": "edit", "cluster": "{name}", {fields}}}"#
            ));
            assert!(r.contains("\"ok\": true"), "{fields} -> {r}");
            let others: Vec<String> = s
                .design
                .clusters
                .iter()
                .filter(|c| c.name != name)
                .map(|c| format!("\"{}\"", c.name))
                .collect();
            let r = s.handle_line(&format!(
                r#"{{"cmd": "analyze", "clusters": [{}]}}"#,
                others.join(", ")
            ));
            assert!(r.contains("\"analyzed\": 0"), "{fields}: others -> {r}");
            let r = s.handle_line(r#"{"cmd": "analyze"}"#);
            assert!(r.contains("\"analyzed\": 1"), "{fields} -> {r}");
            assert!(r.contains("\"memo_hits\": 5"), "{fields} -> {r}");
        }
        // Re-setting a field to the value it holds changes nothing.
        let slew = s.design.clusters[0].spec.aggressors[0].input_slew;
        let r = s.handle_line(&format!(
            r#"{{"cmd": "edit", "cluster": "net000", "aggressor": 0, "input_slew": {slew:e}}}"#
        ));
        assert!(r.contains("\"ok\": true"), "{r}");
        let r = s.handle_line(r#"{"cmd": "analyze"}"#);
        assert!(r.contains("\"analyzed\": 0"), "{r}");
    }

    #[test]
    fn drop_aggressor_keeps_bus_consistent() {
        let mut s = session(6);
        // Find a cluster with more than one aggressor.
        let i = s
            .design
            .clusters
            .iter()
            .position(|c| c.spec.aggressors.len() >= 2)
            .expect("a multi-aggressor cluster in 6 draws");
        let name = s.design.clusters[i].name.clone();
        let n_agg = s.design.clusters[i].spec.aggressors.len();
        let r = s.handle_line(&format!(
            r#"{{"cmd": "edit", "cluster": "{name}", "drop_aggressor": 0}}"#
        ));
        assert!(r.contains("\"ok\": true"), "{r}");
        let spec = &s.design.clusters[i].spec;
        assert_eq!(spec.aggressors.len(), n_agg - 1);
        assert_eq!(spec.bus.wires.len(), n_agg); // victim + remaining
        for c in &spec.bus.couplings {
            assert!(c.a < spec.bus.wires.len() && c.b < spec.bus.wires.len());
        }
        // The edited cluster still analyzes cleanly.
        let r = s.handle_line(&format!(r#"{{"cmd": "analyze", "clusters": ["{name}"]}}"#));
        assert!(r.contains("\"ok\": true"), "{r}");
        assert!(r.contains("\"analyzed\": 1"), "{r}");
    }

    #[test]
    fn malformed_queries_answer_in_band() {
        let mut s = session(1);
        for (bad, needle) in [
            ("not json at all", "bad JSON"),
            ("{}", "missing string field 'cmd'"),
            (r#"{"cmd": "dance"}"#, "unknown cmd"),
            (r#"{"cmd": "edit"}"#, "needs a string field 'cluster'"),
            (r#"{"cmd": "edit", "cluster": "net000"}"#, "changed nothing"),
            (
                r#"{"cmd": "edit", "cluster": "net000", "input_slew": 1e-10}"#,
                "need an 'aggressor' index",
            ),
            (
                r#"{"cmd": "edit", "cluster": "net000", "aggressor": 99, "input_slew": 1e-10}"#,
                "out of range",
            ),
            (r#"{"cmd": "guard_band"}"#, "numeric field 'value'"),
            (r#"{"cmd": "guard_band", "value": -1}"#, "non-negative"),
        ] {
            let r = s.handle_line(bad);
            assert!(r.contains("\"ok\": false"), "{bad} -> {r}");
            assert!(r.contains(needle), "{bad} -> {r}");
        }
        // A failed edit leaves the design untouched and the session alive.
        let r = s.handle_line(r#"{"cmd": "stats"}"#);
        assert!(r.contains("\"ok\": true"), "{r}");
        let r = s.handle_line(r#"{"cmd": "shutdown"}"#);
        assert!(r.contains("\"shutdown\": true"), "{r}");
        assert!(s.done());
    }

    /// An input slew longer than the cluster's window would make the next
    /// Thevenin fit step its driver transient through it at 1 ps (1e-3 s
    /// is about 1e9 steps, 1e300 s overflows the step count): the edit is
    /// refused in band and the design stays as it was.
    #[test]
    fn input_slew_beyond_the_window_is_refused() {
        let mut s = session(1);
        let before = format!("{:?}", s.design.clusters[0].spec);
        let t_stop = s.design.clusters[0].spec.t_stop;
        for slew in [1e-3, 1e300, 1.000001 * t_stop] {
            let r = s.handle_line(&format!(
                r#"{{"cmd": "edit", "cluster": "net000", "aggressor": 0, "input_slew": {slew:e}}}"#
            ));
            assert!(r.contains("\"ok\": false"), "{slew:e} -> {r}");
            assert!(r.contains("exceeds the cluster's simulation window"), "{r}");
            assert_eq!(format!("{:?}", s.design.clusters[0].spec), before);
        }
        // The window itself is still a legal (if slow) slew.
        let r = s.handle_line(&format!(
            r#"{{"cmd": "edit", "cluster": "net000", "aggressor": 0, "input_slew": {t_stop:e}}}"#
        ));
        assert!(r.contains("\"ok\": true"), "{r}");
        assert_eq!(s.design.clusters[0].spec.aggressors[0].input_slew, t_stop);
    }
}
