//! SPICE-deck front-end: parser, elaborator, and writer.
//!
//! The EDA ecosystem interchange format for the circuits this crate
//! simulates is the classic SPICE netlist. The front-end covers everything
//! the noise flow produces or consumes:
//!
//! * elements `R`, `C`, `V`, `I`, `G` (linear VCCS), `E` (VCVS), `F`
//!   (CCCS), `H` (CCVS), `D` (diode), `M` (level-1 MOSFET), and `X`
//!   (subcircuit instance);
//! * `.model` cards (`NMOS`, `PMOS`, `D`);
//! * hierarchical `.subckt`/`.ends` definitions with positional ports and
//!   `name=value` parameters, flattened into the flat [`Circuit`] with
//!   dotted instance prefixes (`x1.x2.r5`);
//! * analyses and controls: `.tran` (with `UIC`), `.dc`, `.ic`, and the
//!   tool-specific `.sna` noise-analysis request card;
//! * `.include` (file-based parsing only), `+` continuations, `*`/`;`/`$`
//!   comments, and engineering-suffix numbers.
//!
//! Parse errors always carry the line number of the *first physical line*
//! of the offending logical line in its original file, so messages stay
//! accurate across continuation merging and `.include` expansion.
//!
//! [`write_deck`] emits a deck that [`parse_deck`] round-trips exactly
//! (floats are printed with Rust's shortest-round-trip formatting), so
//! golden cluster netlists can be dumped, diffed, and re-read.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::devices::{DiodeModel, MosPolarity, MosfetModel, SourceWaveform};
use crate::error::{Error, Result};
use crate::netlist::{Circuit, Element, ElementId, NodeId};
use crate::tran::TranParams;
use crate::units::parse_spice_number;

/// Maximum `.subckt` instantiation depth (guards recursive subcircuits).
const MAX_SUBCKT_DEPTH: usize = 16;
/// Maximum `.include` nesting depth (guards include cycles the
/// canonical-path check cannot see, e.g. through symlink farms).
const MAX_INCLUDE_DEPTH: usize = 16;

/// A `.sna` control card: one noise-analysis request naming the victim net
/// and (optionally) the aggressor sources to toggle, as parsed from
/// `victim=<node> [aggressors=<src>,<src>,...] [threshold=<volts>]
/// [name=<label>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnaCard {
    /// Optional label for reports (`name=`); defaults to the victim net.
    pub name: Option<String>,
    /// Victim net (global node name after subckt flattening).
    pub victim: String,
    /// Aggressor source element names (independent V or I sources).
    pub aggressors: Vec<String>,
    /// Noise-margin threshold in volts, if given on the card.
    pub threshold: Option<f64>,
    /// Switching windows `window=<src>:<t_min>:<t_max>` (comma-repeatable):
    /// the named aggressor source may only switch inside `[t_min, t_max]`.
    pub windows: Vec<(String, f64, f64)>,
    /// Mutual-exclusion groups `mexcl=<src>:<group>` (comma-repeatable):
    /// at most one source per group switches in any candidate.
    pub mexcl: Vec<(String, u32)>,
    /// Victim sensitivity window `sensitivity=<t_min>:<t_max>`: the
    /// interval in which the receiver samples the victim.
    pub sensitivity: Option<(f64, f64)>,
}

/// A parsed deck: the flattened circuit plus any analysis statements found.
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    /// Title line (first line of the deck, SPICE convention).
    pub title: String,
    /// The flattened netlist.
    pub circuit: Circuit,
    /// `.tran` statement, if present (`UIC` clears
    /// [`TranParams::dc_init`]).
    pub tran: Option<TranParams>,
    /// `.dc` sweep statements: `(source, start, stop, step)`.
    pub dc_sweeps: Vec<(String, f64, f64, f64)>,
    /// `.ic` initial conditions as `(global node name, volts)`; node names
    /// are verified to exist at parse time.
    pub ics: Vec<(String, f64)>,
    /// `.sna` noise-analysis requests, in deck order.
    pub sna_cards: Vec<SnaCard>,
}

impl ParsedDeck {
    /// Resolve the `.ic` cards against the circuit. Entries whose node no
    /// longer exists (possible only if the circuit was edited after
    /// parsing) are silently dropped.
    pub fn resolve_ics(&self) -> Vec<(NodeId, f64)> {
        self.ics
            .iter()
            .filter_map(|(n, v)| self.circuit.find_node(n).map(|id| (id, *v)))
            .collect()
    }
}

/// Source location of a logical line: index into the file-name table plus
/// the 1-based number of its first physical line in that file.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Loc {
    file: usize,
    line: usize,
}

/// Build a parse error carrying `loc`. The file name is prefixed onto the
/// message only when it is known (file-based parsing); string parsing
/// leaves messages bare so existing callers see unchanged text.
fn err_at(files: &[String], loc: Loc, msg: impl Into<String>) -> Error {
    let m = msg.into();
    let message = match files.get(loc.file) {
        Some(f) if !f.is_empty() => format!("{f}: {m}"),
        _ => m,
    };
    Error::Parse {
        line: loc.line,
        message,
    }
}

fn num_lit(files: &[String], loc: Loc, tok: &str) -> Result<f64> {
    parse_spice_number(tok)
        .ok_or_else(|| err_at(files, loc, format!("expected a number, got '{tok}'")))
}

/// Split logical lines of one file: strip comments, join `+` continuations.
/// Each logical line keeps the location of its first physical line.
fn logical_lines_in(text: &str, file: usize, keep_title: bool) -> Vec<(Loc, String)> {
    let mut out: Vec<(Loc, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let loc = Loc { file, line: i + 1 };
        let mut text = raw.trim().to_string();
        if let Some(p) = text.find(';') {
            text.truncate(p);
        }
        if let Some(p) = text.find('$') {
            text.truncate(p);
        }
        let text = text.trim();
        // SPICE convention: the first line of the top file is the title even
        // when it looks like a `*` comment, so keep it for [`parse_lines`].
        if text.is_empty() || (text.starts_with('*') && !(keep_title && i == 0)) {
            continue;
        }
        if let Some(cont) = text.strip_prefix('+') {
            if let Some(last) = out.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont.trim());
                continue;
            }
        }
        out.push((loc, text.to_string()));
    }
    out
}

/// Tokenize respecting `(`, `)`, `=` as separators that also split tokens.
fn tokenize(s: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            ' ' | '\t' | ',' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            '(' | ')' | '=' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(ch.to_string());
            }
            _ => cur.push(ch),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

/// Split a token run into positional tokens and trailing `key=value`
/// groups. Parentheses are transparent. A key takes every following token
/// up to the next `key=` pair, so comma-separated lists
/// (`aggressors=a,b,c`, already comma-split by [`tokenize`]) arrive as
/// multi-value groups. Malformed stray `=` tokens are skipped rather than
/// rejected, so this can never panic on fuzzer garbage.
fn split_kv(toks: &[String]) -> (Vec<&str>, Vec<(String, Vec<&str>)>) {
    let mut pos: Vec<&str> = Vec::new();
    let mut kvs: Vec<(String, Vec<&str>)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i].as_str();
        if t == "(" || t == ")" {
            i += 1;
            continue;
        }
        if t == "=" {
            i += 1;
            continue;
        }
        if toks.get(i + 1).map(String::as_str) == Some("=") {
            let key = t.to_ascii_lowercase();
            let mut vals = Vec::new();
            let mut j = i + 2;
            while j < toks.len() {
                let v = toks[j].as_str();
                if v == "(" || v == ")" || v == "=" {
                    j += 1;
                    continue;
                }
                if toks.get(j + 1).map(String::as_str) == Some("=") {
                    break;
                }
                vals.push(v);
                j += 1;
            }
            kvs.push((key, vals));
            i = j;
        } else {
            pos.push(t);
            i += 1;
        }
    }
    (pos, kvs)
}

/// If `line` is an `.include`/`.inc` card, return its raw target text.
fn include_path(line: &str) -> Option<&str> {
    let head = line.split_whitespace().next()?;
    if head.eq_ignore_ascii_case(".include") || head.eq_ignore_ascii_case(".inc") {
        Some(line[head.len()..].trim())
    } else {
        None
    }
}

/// Strip one layer of matching single or double quotes.
fn unquote(s: &str) -> &str {
    let b = s.as_bytes();
    if b.len() >= 2
        && ((b[0] == b'"' && b[b.len() - 1] == b'"') || (b[0] == b'\'' && b[b.len() - 1] == b'\''))
    {
        &s[1..s.len() - 1]
    } else {
        s
    }
}

/// A `.subckt` definition collected before elaboration.
#[derive(Debug, Clone)]
struct Subckt {
    /// Original-case name (for messages); the registry key is lowercase.
    name: String,
    /// Port names, lowercased, in declaration order.
    ports: Vec<String>,
    /// Parameter defaults (lowercased name, literal value).
    defaults: Vec<(String, f64)>,
    /// Body logical lines (element and dot cards between the delimiters).
    body: Vec<(Loc, String)>,
}

/// A `.model` card: either a MOSFET or a diode model.
#[derive(Debug, Clone, Copy)]
enum ModelCard {
    Mos(MosfetModel),
    Diode(DiodeModel),
}

/// Parse one `.model` card into the global model registry.
fn parse_model(files: &[String], toks: &[String], loc: Loc) -> Result<(String, ModelCard)> {
    let name = toks
        .get(1)
        .ok_or_else(|| err_at(files, loc, ".model needs a name"))?
        .to_ascii_lowercase();
    let kind = toks
        .get(2)
        .ok_or_else(|| err_at(files, loc, ".model needs a type (NMOS, PMOS, or D)"))?
        .to_ascii_uppercase();
    let (_, kvs) = split_kv(toks.get(3..).unwrap_or(&[]));
    let mut params: HashMap<String, f64> = HashMap::new();
    for (k, vals) in kvs {
        let v = vals
            .first()
            .ok_or_else(|| err_at(files, loc, format!("missing value for {k}")))?;
        params.insert(k, num_lit(files, loc, v)?);
    }
    let get = |key: &str, default: f64| params.get(key).copied().unwrap_or(default);
    let card = match kind.as_str() {
        "NMOS" | "PMOS" => {
            let polarity = if kind == "NMOS" {
                MosPolarity::Nmos
            } else {
                MosPolarity::Pmos
            };
            let vt_default = match polarity {
                MosPolarity::Nmos => 0.3,
                MosPolarity::Pmos => -0.3,
            };
            ModelCard::Mos(MosfetModel {
                polarity,
                vt0: get("vto", vt_default),
                kp: get("kp", 2e-4),
                lambda: get("lambda", 0.1),
                gamma: get("gamma", 0.0),
                phi: get("phi", 0.7),
                cox: get("cox", 0.01),
                cgso: get("cgso", 0.0),
                cgdo: get("cgdo", 0.0),
                cj: get("cj", 0.0),
            })
        }
        "D" => ModelCard::Diode(DiodeModel {
            is: get("is", 1e-14),
            n: get("n", 1.0),
            cj0: get("cj0", get("cjo", 0.0)),
        }),
        other => {
            return Err(err_at(
                files,
                loc,
                format!("unsupported model type {other} (expected NMOS, PMOS, or D)"),
            ))
        }
    };
    Ok((name, card))
}

/// Logical lines remaining at the top level after subckt extraction, plus
/// the flat subckt registry keyed by lowercase name.
type TopAndSubckts = (Vec<(Loc, String)>, HashMap<String, Subckt>);

/// Pull `.subckt`/`.ends` blocks out of the logical-line stream. Nested
/// definitions are allowed and land in one global, flat registry (keyed by
/// lowercase name); body lines of a nested definition belong to the
/// innermost open block.
fn extract_subckts(files: &[String], lines: &[(Loc, String)]) -> Result<TopAndSubckts> {
    let mut top: Vec<(Loc, String)> = Vec::new();
    let mut registry: HashMap<String, Subckt> = HashMap::new();
    let mut stack: Vec<(Loc, Subckt)> = Vec::new();
    for (loc, text) in lines {
        let head = text.split_whitespace().next().unwrap_or("");
        if head.eq_ignore_ascii_case(".subckt") {
            let toks = tokenize(text);
            let name = toks
                .get(1)
                .ok_or_else(|| err_at(files, *loc, ".subckt needs a name"))?
                .clone();
            let (pos, kvs) = split_kv(toks.get(2..).unwrap_or(&[]));
            let ports: Vec<String> = pos.iter().map(|s| s.to_ascii_lowercase()).collect();
            for (i, p) in ports.iter().enumerate() {
                if ports[..i].contains(p) {
                    return Err(err_at(
                        files,
                        *loc,
                        format!("duplicate port '{p}' on .subckt {name}"),
                    ));
                }
            }
            let mut defaults = Vec::new();
            for (k, vals) in kvs {
                let v = vals.first().ok_or_else(|| {
                    err_at(
                        files,
                        *loc,
                        format!("missing default value for parameter '{k}'"),
                    )
                })?;
                defaults.push((k, num_lit(files, *loc, v)?));
            }
            stack.push((
                *loc,
                Subckt {
                    name,
                    ports,
                    defaults,
                    body: Vec::new(),
                },
            ));
        } else if head.eq_ignore_ascii_case(".ends") {
            let (_, def) = stack
                .pop()
                .ok_or_else(|| err_at(files, *loc, ".ends without a matching .subckt"))?;
            let toks = tokenize(text);
            if let Some(tag) = toks.get(1) {
                if !tag.eq_ignore_ascii_case(&def.name) {
                    return Err(err_at(
                        files,
                        *loc,
                        format!(".ends {tag} does not close .subckt {}", def.name),
                    ));
                }
            }
            let key = def.name.to_ascii_lowercase();
            if registry.contains_key(&key) {
                return Err(err_at(
                    files,
                    *loc,
                    format!("duplicate .subckt definition '{}'", def.name),
                ));
            }
            registry.insert(key, def);
        } else if let Some((_, open)) = stack.last_mut() {
            open.body.push((*loc, text.clone()));
        } else {
            top.push((*loc, text.clone()));
        }
    }
    if let Some((loc, def)) = stack.last() {
        return Err(err_at(
            files,
            *loc,
            format!("unclosed .subckt '{}' (missing .ends)", def.name),
        ));
    }
    Ok((top, registry))
}

/// One level of instantiation context during elaboration.
struct Scope {
    /// Dotted instance prefix (`""` at top level, `"x1.x2."` nested).
    prefix: String,
    /// Subcircuit port name (lowercase) → already-resolved global node.
    node_map: HashMap<String, NodeId>,
    /// Parameter values visible to `{name}` / bare-name number positions.
    params: HashMap<String, f64>,
}

impl Scope {
    fn top() -> Self {
        Scope {
            prefix: String::new(),
            node_map: HashMap::new(),
            params: HashMap::new(),
        }
    }
}

/// The elaborator: walks logical lines (recursively through `X`
/// instantiations) and builds the flat circuit plus analysis cards.
struct Elab<'a> {
    files: &'a [String],
    subckts: &'a HashMap<String, Subckt>,
    models: &'a HashMap<String, ModelCard>,
    circuit: Circuit,
    tran: Option<TranParams>,
    dc_sweeps: Vec<(String, f64, f64, f64)>,
    /// `.ic` entries pending node-existence verification.
    pending_ics: Vec<(String, f64, Loc)>,
    /// `.sna` cards pending victim/aggressor verification.
    pending_sna: Vec<(SnaCard, Loc)>,
    /// F/H control references to resolve once the whole deck is read:
    /// `(element, unscoped name, loc)`. The element starts out holding the
    /// scope-prefixed candidate.
    ctrl_fixups: Vec<(ElementId, String, Loc)>,
    /// Set by `.end`; stops all further processing.
    ended: bool,
}

impl<'a> Elab<'a> {
    fn err(&self, loc: Loc, msg: impl Into<String>) -> Error {
        err_at(self.files, loc, msg)
    }

    /// Resolve a token in a numeric position: `{name}` or a bare name may
    /// reference a scope parameter; anything else must be a SPICE number.
    fn num_in(&self, scope: &Scope, tok: &str, loc: Loc) -> Result<f64> {
        let t = tok
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or(tok)
            .trim();
        if let Some(v) = parse_spice_number(t) {
            return Ok(v);
        }
        if let Some(&v) = scope.params.get(&t.to_ascii_lowercase()) {
            return Ok(v);
        }
        Err(self.err(loc, format!("expected a number or parameter, got '{tok}'")))
    }

    /// Resolve a node token: ground, a subckt port, or a (possibly
    /// prefix-scoped) named node — interning it on first sight.
    fn node(&mut self, scope: &Scope, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return Circuit::gnd();
        }
        if let Some(&n) = scope.node_map.get(&key) {
            return n;
        }
        if scope.prefix.is_empty() {
            self.circuit.node(name)
        } else {
            self.circuit.node(&format!("{}{key}", scope.prefix))
        }
    }

    /// Global node *name* a token would resolve to, without interning it
    /// (used by `.ic`, whose nodes must already exist elsewhere).
    fn node_name_of(&self, scope: &Scope, raw: &str) -> String {
        let key = raw.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return "0".into();
        }
        if let Some(&n) = scope.node_map.get(&key) {
            return self.circuit.node_name(n).to_string();
        }
        if scope.prefix.is_empty() {
            raw.to_string()
        } else {
            format!("{}{key}", scope.prefix)
        }
    }

    /// Parse a source specification from the tokens following the two node
    /// names. Scope parameters are usable in every numeric position.
    fn source(&self, scope: &Scope, toks: &[String], loc: Loc) -> Result<SourceWaveform> {
        if toks.is_empty() {
            return Err(self.err(loc, "missing source value"));
        }
        let kw = toks[0].to_ascii_uppercase();
        let nums = |ts: &[String]| -> Result<Vec<f64>> {
            ts.iter()
                .filter(|t| *t != "(" && *t != ")")
                .map(|t| self.num_in(scope, t, loc))
                .collect()
        };
        match kw.as_str() {
            "DC" => {
                let v = toks
                    .get(1)
                    .ok_or_else(|| self.err(loc, "DC needs a value"))?;
                Ok(SourceWaveform::Dc(self.num_in(scope, v, loc)?))
            }
            "PWL" => {
                // PWL ( t1 v1 t2 v2 ... )
                let nums = nums(&toks[1..])?;
                if nums.len() < 4 || !nums.len().is_multiple_of(2) {
                    return Err(self.err(loc, "PWL needs an even number (>= 4) of values"));
                }
                let pts: Vec<(f64, f64)> = nums.chunks(2).map(|c| (c[0], c[1])).collect();
                for w in pts.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err(self.err(loc, "PWL times must be strictly increasing"));
                    }
                }
                Ok(SourceWaveform::Pwl(pts))
            }
            "PULSE" => {
                let nums = nums(&toks[1..])?;
                if nums.len() < 6 {
                    return Err(self.err(loc, "PULSE needs v0 v1 td tr tf pw"));
                }
                Ok(SourceWaveform::Pulse {
                    v0: nums[0],
                    v1: nums[1],
                    t_delay: nums[2],
                    t_rise: nums[3],
                    t_fall: nums[4],
                    t_width: nums[5],
                })
            }
            _ => Ok(SourceWaveform::Dc(self.num_in(scope, &toks[0], loc)?)),
        }
    }

    /// Process a run of logical lines in `scope`, recursing through `X`
    /// instantiations.
    fn run(&mut self, lines: &[(Loc, String)], scope: &Scope, depth: usize) -> Result<()> {
        for (loc, text) in lines {
            if self.ended {
                break;
            }
            let toks = tokenize(text);
            if toks.is_empty() {
                continue;
            }
            let head = toks[0].clone();
            let first = head.chars().next().unwrap_or(' ').to_ascii_uppercase();
            match first {
                '.' => self.dot_card(&head.to_ascii_lowercase(), &toks, *loc, scope, depth)?,
                'X' => self.x_card(&toks, *loc, scope, depth)?,
                _ => self.element_card(first, &head, &toks, *loc, scope)?,
            }
        }
        Ok(())
    }

    fn dot_card(
        &mut self,
        cmd: &str,
        toks: &[String],
        loc: Loc,
        scope: &Scope,
        depth: usize,
    ) -> Result<()> {
        match cmd {
            ".model" => Ok(()), // collected in the model pass
            ".end" => {
                if depth > 0 {
                    return Err(self.err(loc, ".end is not allowed inside a .subckt body"));
                }
                self.ended = true;
                Ok(())
            }
            ".ends" => Err(self.err(loc, ".ends without a matching .subckt")),
            ".include" | ".inc" => Err(self.err(
                loc,
                ".include is not supported when parsing from a string; use parse_deck_file",
            )),
            ".tran" => {
                if depth > 0 {
                    return Err(self.err(loc, ".tran is not allowed inside a .subckt body"));
                }
                let step = self.num_in(
                    scope,
                    toks.get(1)
                        .ok_or_else(|| self.err(loc, ".tran needs step"))?,
                    loc,
                )?;
                let stop = self.num_in(
                    scope,
                    toks.get(2)
                        .ok_or_else(|| self.err(loc, ".tran needs stop"))?,
                    loc,
                )?;
                let mut params = TranParams::new(stop, step);
                if toks.iter().skip(3).any(|t| t.eq_ignore_ascii_case("uic")) {
                    params.dc_init = false;
                }
                self.tran = Some(params);
                Ok(())
            }
            ".dc" => {
                if depth > 0 {
                    return Err(self.err(loc, ".dc is not allowed inside a .subckt body"));
                }
                let src = toks
                    .get(1)
                    .ok_or_else(|| self.err(loc, ".dc needs a source"))?
                    .clone();
                let a = self.num_in(
                    scope,
                    toks.get(2).ok_or_else(|| self.err(loc, ".dc start"))?,
                    loc,
                )?;
                let b = self.num_in(
                    scope,
                    toks.get(3).ok_or_else(|| self.err(loc, ".dc stop"))?,
                    loc,
                )?;
                let s = self.num_in(
                    scope,
                    toks.get(4).ok_or_else(|| self.err(loc, ".dc step"))?,
                    loc,
                )?;
                self.dc_sweeps.push((src, a, b, s));
                Ok(())
            }
            ".ic" => self.ic_card(toks, loc, scope),
            ".sna" => {
                if depth > 0 {
                    return Err(self.err(loc, ".sna is not allowed inside a .subckt body"));
                }
                self.sna_card(toks, loc, scope)
            }
            ".subckt" => Err(self.err(loc, "unterminated .subckt")),
            _ => Ok(()), // ignore unknown dot-cards (.probe, .option, ...)
        }
    }

    /// `.ic v(node)=value ...` (also accepts bare `node=value` pairs).
    fn ic_card(&mut self, toks: &[String], loc: Loc, scope: &Scope) -> Result<()> {
        if toks.len() == 1 {
            return Err(self.err(loc, ".ic needs v(node)=value entries"));
        }
        let mut i = 1;
        while i < toks.len() {
            let tok = |k: usize| toks.get(i + k).map(String::as_str);
            let (node_tok, val_tok, step) = if toks[i].eq_ignore_ascii_case("v")
                && tok(1) == Some("(")
            {
                let node = toks
                    .get(i + 2)
                    .filter(|t| !matches!(t.as_str(), "(" | ")" | "="))
                    .ok_or_else(|| self.err(loc, "malformed .ic entry: v( needs a node name"))?;
                if tok(3) != Some(")") || tok(4) != Some("=") {
                    return Err(self.err(loc, "malformed .ic entry: expected v(node)=value"));
                }
                let val = toks
                    .get(i + 5)
                    .ok_or_else(|| self.err(loc, "missing value in .ic entry"))?;
                (node.as_str(), val.as_str(), 6)
            } else if tok(1) == Some("=") {
                let val = toks
                    .get(i + 2)
                    .ok_or_else(|| self.err(loc, "missing value in .ic entry"))?;
                (toks[i].as_str(), val.as_str(), 3)
            } else {
                return Err(self.err(loc, format!("malformed .ic entry at '{}'", toks[i])));
            };
            let v = self.num_in(scope, val_tok, loc)?;
            let name = self.node_name_of(scope, node_tok);
            self.pending_ics.push((name, v, loc));
            i += step;
        }
        Ok(())
    }

    /// `.sna victim=<node> [aggressors=...] [threshold=...] [name=...]
    /// [window=<src>:<t_min>:<t_max>,...] [mexcl=<src>:<group>,...]
    /// [sensitivity=<t_min>:<t_max>]`.
    fn sna_card(&mut self, toks: &[String], loc: Loc, scope: &Scope) -> Result<()> {
        let (pos, kvs) = split_kv(toks.get(1..).unwrap_or(&[]));
        if let Some(stray) = pos.first() {
            return Err(self.err(
                loc,
                format!("unexpected token '{stray}' on .sna (expected key=value pairs)"),
            ));
        }
        let mut card = SnaCard {
            name: None,
            victim: String::new(),
            aggressors: Vec::new(),
            threshold: None,
            windows: Vec::new(),
            mexcl: Vec::new(),
            sensitivity: None,
        };
        for (k, vals) in kvs {
            let first = vals
                .first()
                .ok_or_else(|| self.err(loc, format!("missing value for .sna key '{k}'")))?;
            match k.as_str() {
                "victim" => card.victim = first.to_string(),
                "aggressors" => card.aggressors = vals.iter().map(|s| s.to_string()).collect(),
                "threshold" => card.threshold = Some(self.num_in(scope, first, loc)?),
                "name" => card.name = Some(first.to_string()),
                "window" => {
                    for v in &vals {
                        let parts: Vec<&str> = v.split(':').collect();
                        if parts.len() != 3 || parts[0].is_empty() {
                            return Err(self.err(
                                loc,
                                format!(".sna window '{v}' must be <source>:<t_min>:<t_max>"),
                            ));
                        }
                        let t_min = self.num_in(scope, parts[1], loc)?;
                        let t_max = self.num_in(scope, parts[2], loc)?;
                        if !(t_min.is_finite() && t_max.is_finite() && t_min <= t_max) {
                            return Err(self.err(
                                loc,
                                format!(".sna window '{v}' needs t_min <= t_max, both finite"),
                            ));
                        }
                        card.windows.push((parts[0].to_string(), t_min, t_max));
                    }
                }
                "mexcl" => {
                    for v in &vals {
                        let parts: Vec<&str> = v.split(':').collect();
                        let group = parts.get(1).and_then(|g| g.parse::<u32>().ok());
                        match (parts.len(), parts[0].is_empty(), group) {
                            (2, false, Some(g)) => card.mexcl.push((parts[0].to_string(), g)),
                            _ => {
                                return Err(self.err(
                                    loc,
                                    format!(".sna mexcl '{v}' must be <source>:<group>"),
                                ))
                            }
                        }
                    }
                }
                "sensitivity" => {
                    let parts: Vec<&str> = first.split(':').collect();
                    if parts.len() != 2 {
                        return Err(self.err(
                            loc,
                            format!(".sna sensitivity '{first}' must be <t_min>:<t_max>"),
                        ));
                    }
                    let t_min = self.num_in(scope, parts[0], loc)?;
                    let t_max = self.num_in(scope, parts[1], loc)?;
                    if !(t_min.is_finite() && t_max.is_finite() && t_min <= t_max) {
                        return Err(self.err(
                            loc,
                            format!(".sna sensitivity '{first}' needs t_min <= t_max, both finite"),
                        ));
                    }
                    card.sensitivity = Some((t_min, t_max));
                }
                other => {
                    return Err(self.err(loc, format!("unknown .sna key '{other}'")));
                }
            }
        }
        if card.victim.is_empty() {
            return Err(self.err(loc, ".sna needs victim=<node>"));
        }
        self.pending_sna.push((card, loc));
        Ok(())
    }

    /// `Xname n1 n2 ... subname [param=value ...]`.
    fn x_card(&mut self, toks: &[String], loc: Loc, scope: &Scope, depth: usize) -> Result<()> {
        if depth + 1 > MAX_SUBCKT_DEPTH {
            return Err(self.err(
                loc,
                format!(
                    "subcircuit nesting deeper than {MAX_SUBCKT_DEPTH} levels \
                     (recursive instantiation?)"
                ),
            ));
        }
        let (pos, kvs) = split_kv(toks.get(1..).unwrap_or(&[]));
        let (subname, args) = match pos.split_last() {
            Some((s, a)) => (*s, a),
            None => return Err(self.err(loc, "X needs: name node... subckt-name")),
        };
        let sub = self
            .subckts
            .get(&subname.to_ascii_lowercase())
            .ok_or_else(|| self.err(loc, format!("unknown subcircuit '{subname}'")))?;
        if args.len() != sub.ports.len() {
            return Err(self.err(
                loc,
                format!(
                    "subcircuit '{}' expects {} port(s), instance {} connects {}",
                    sub.name,
                    sub.ports.len(),
                    toks[0],
                    args.len()
                ),
            ));
        }
        let mut node_map = HashMap::new();
        for (port, arg) in sub.ports.iter().zip(args) {
            let nid = self.node(scope, arg);
            node_map.insert(port.clone(), nid);
        }
        let mut params: HashMap<String, f64> = sub.defaults.iter().cloned().collect();
        for (k, vals) in kvs {
            if !params.contains_key(&k) {
                return Err(self.err(
                    loc,
                    format!("subcircuit '{}' has no parameter '{k}'", sub.name),
                ));
            }
            let v = vals
                .first()
                .ok_or_else(|| self.err(loc, format!("missing value for parameter '{k}'")))?;
            let val = self.num_in(scope, v, loc)?;
            params.insert(k, val);
        }
        let child = Scope {
            prefix: format!("{}{}.", scope.prefix, toks[0].to_ascii_lowercase()),
            node_map,
            params,
        };
        self.run(&sub.body, &child, depth + 1)
    }

    /// One element card (everything except `X` and dot-cards).
    fn element_card(
        &mut self,
        first: char,
        head: &str,
        toks: &[String],
        loc: Loc,
        scope: &Scope,
    ) -> Result<()> {
        let name = format!("{}{head}", scope.prefix);
        match first {
            'R' | 'C' => {
                if toks.len() < 4 {
                    return Err(self.err(loc, format!("{first} needs: name n1 n2 value")));
                }
                let a = self.node(scope, &toks[1]);
                let b = self.node(scope, &toks[2]);
                let v = self.num_in(scope, &toks[3], loc)?;
                let res = if first == 'R' {
                    self.circuit.add_resistor(&name, a, b, v)
                } else {
                    self.circuit.add_capacitor(&name, a, b, v)
                };
                res.map_err(|e| self.err(loc, e.to_string()))?;
            }
            'V' | 'I' => {
                if toks.len() < 4 {
                    return Err(self.err(loc, "source needs: name n+ n- value"));
                }
                let p = self.node(scope, &toks[1]);
                let n = self.node(scope, &toks[2]);
                let wave = self.source(scope, &toks[3..], loc)?;
                if first == 'V' {
                    self.circuit.add_vsource(&name, p, n, wave);
                } else {
                    self.circuit.add_isource(&name, p, n, wave);
                }
            }
            'G' | 'E' => {
                if toks.len() < 6 {
                    return Err(self.err(
                        loc,
                        format!("{first} needs: name out+ out- ctrl+ ctrl- gain"),
                    ));
                }
                let op = self.node(scope, &toks[1]);
                let on = self.node(scope, &toks[2]);
                let cp = self.node(scope, &toks[3]);
                let cn = self.node(scope, &toks[4]);
                let gain = self.num_in(scope, &toks[5], loc)?;
                if first == 'G' {
                    self.circuit.add_linear_vccs(&name, op, on, cp, cn, gain);
                } else {
                    self.circuit
                        .add_vcvs(&name, op, on, cp, cn, gain)
                        .map_err(|e| self.err(loc, e.to_string()))?;
                }
            }
            'F' | 'H' => {
                if toks.len() < 5 {
                    return Err(self.err(
                        loc,
                        format!("{first} needs: name out+ out- vsource-name value"),
                    ));
                }
                let op = self.node(scope, &toks[1]);
                let on = self.node(scope, &toks[2]);
                let raw_ctrl = toks[3].clone();
                // Try the scope-local source first; `fix_ctrls` falls back
                // to the global name once the whole deck is known.
                let scoped = format!("{}{raw_ctrl}", scope.prefix);
                let gain = self.num_in(scope, &toks[4], loc)?;
                let id = if first == 'F' {
                    self.circuit.add_cccs(&name, op, on, &scoped, gain)
                } else {
                    self.circuit.add_ccvs(&name, op, on, &scoped, gain)
                }
                .map_err(|e| self.err(loc, e.to_string()))?;
                self.ctrl_fixups.push((id, raw_ctrl, loc));
            }
            'D' => {
                if toks.len() < 4 {
                    return Err(self.err(loc, "D needs: name anode cathode model"));
                }
                let p = self.node(scope, &toks[1]);
                let n = self.node(scope, &toks[2]);
                let model = match self.models.get(&toks[3].to_ascii_lowercase()) {
                    Some(ModelCard::Diode(m)) => *m,
                    Some(ModelCard::Mos(_)) => {
                        return Err(self.err(
                            loc,
                            format!("model '{}' is a MOSFET model, D needs type D", toks[3]),
                        ));
                    }
                    None => {
                        return Err(self.err(loc, format!("unknown model '{}'", toks[3])));
                    }
                };
                self.circuit
                    .add_diode(&name, p, n, model)
                    .map_err(|e| self.err(loc, e.to_string()))?;
            }
            'M' => {
                if toks.len() < 6 {
                    return Err(self.err(loc, "M needs: name d g s b model [W= L=]"));
                }
                let d = self.node(scope, &toks[1]);
                let g = self.node(scope, &toks[2]);
                let s = self.node(scope, &toks[3]);
                let b = self.node(scope, &toks[4]);
                let model = match self.models.get(&toks[5].to_ascii_lowercase()) {
                    Some(ModelCard::Mos(m)) => *m,
                    Some(ModelCard::Diode(_)) => {
                        return Err(self.err(
                            loc,
                            format!("model '{}' is a diode model, M needs NMOS or PMOS", toks[5]),
                        ));
                    }
                    None => {
                        return Err(self.err(loc, format!("unknown model '{}'", toks[5])));
                    }
                };
                let mut w = 1e-6;
                let mut l = 0.13e-6;
                let (_, kvs) = split_kv(toks.get(6..).unwrap_or(&[]));
                for (k, vals) in kvs {
                    let v = vals
                        .first()
                        .ok_or_else(|| self.err(loc, format!("missing value for {k}")))?;
                    match k.as_str() {
                        "w" => w = self.num_in(scope, v, loc)?,
                        "l" => l = self.num_in(scope, v, loc)?,
                        _ => {}
                    }
                }
                self.circuit
                    .add_mosfet(&name, d, g, s, b, model, w, l)
                    .map_err(|e| self.err(loc, e.to_string()))?;
            }
            other => {
                return Err(self.err(loc, format!("unsupported element '{other}'")));
            }
        }
        Ok(())
    }

    /// Resolve F/H controlling-source names: keep the scope-prefixed
    /// candidate if it names an independent V source, otherwise fall back
    /// to the unscoped (global) name.
    fn fix_ctrls(&mut self) -> Result<()> {
        fn is_vsrc(c: &Circuit, n: &str) -> bool {
            c.find_element(n)
                .map(|i| matches!(c.element(i), Element::VSource { .. }))
                .unwrap_or(false)
        }
        for (id, raw, loc) in std::mem::take(&mut self.ctrl_fixups) {
            let scoped = match self.circuit.element(id) {
                Element::Cccs { ctrl, .. } | Element::Ccvs { ctrl, .. } => ctrl.clone(),
                _ => continue,
            };
            if is_vsrc(&self.circuit, &scoped) {
                continue;
            }
            if is_vsrc(&self.circuit, &raw) {
                if let Element::Cccs { ctrl, .. } | Element::Ccvs { ctrl, .. } =
                    self.circuit.element_mut(id)
                {
                    *ctrl = raw;
                }
                continue;
            }
            let ename = self.circuit.element(id).name().to_string();
            return Err(self.err(
                loc,
                format!("{ename}: controlling source '{raw}' is not an independent voltage source"),
            ));
        }
        Ok(())
    }

    /// Verify deferred `.ic` / `.sna` references now that every element
    /// has been elaborated.
    fn verify_pending(&self) -> Result<()> {
        for (name, _, loc) in &self.pending_ics {
            if name != "0" && self.circuit.find_node(name).is_none() {
                return Err(self.err(*loc, format!(".ic references unknown node '{name}'")));
            }
        }
        for (card, loc) in &self.pending_sna {
            if self.circuit.find_node(&card.victim).is_none() {
                return Err(self.err(
                    *loc,
                    format!(".sna victim node '{}' does not exist", card.victim),
                ));
            }
            for a in &card.aggressors {
                let ok = self
                    .circuit
                    .find_element(a)
                    .map(|i| {
                        matches!(
                            self.circuit.element(i),
                            Element::VSource { .. } | Element::ISource { .. }
                        )
                    })
                    .unwrap_or(false);
                if !ok {
                    return Err(self.err(
                        *loc,
                        format!(".sna aggressor '{a}' is not an independent V or I source"),
                    ));
                }
            }
            // FRAME constraint keys name aggressor sources; when the card
            // lists its aggressors explicitly, a constraint on a source
            // outside that list is a silent no-op — reject it instead.
            let constrained = card
                .windows
                .iter()
                .map(|(s, _, _)| s)
                .chain(card.mexcl.iter().map(|(s, _)| s));
            for src in constrained {
                if !card.aggressors.is_empty()
                    && !card.aggressors.iter().any(|a| a.eq_ignore_ascii_case(src))
                {
                    return Err(self.err(
                        *loc,
                        format!(".sna constraint names source '{src}' which is not in aggressors="),
                    ));
                }
                let ok = self
                    .circuit
                    .find_element(src)
                    .map(|i| {
                        matches!(
                            self.circuit.element(i),
                            Element::VSource { .. } | Element::ISource { .. }
                        )
                    })
                    .unwrap_or(false);
                if !ok {
                    return Err(self.err(
                        *loc,
                        format!(
                            ".sna constraint source '{src}' is not an independent V or I source"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Shared driver behind [`parse_deck`] and [`parse_deck_file`].
fn parse_lines(files: Vec<String>, lines: Vec<(Loc, String)>) -> Result<ParsedDeck> {
    if lines.is_empty() {
        return Err(err_at(&files, Loc { file: 0, line: 0 }, "empty deck"));
    }
    // SPICE convention: the first line is the title. The single concession
    // to title-less decks: a deck whose first line is a dot-card keeps it.
    let (start, title) = match lines.first() {
        Some((_, first)) if first.starts_with('.') => (0, String::new()),
        Some((_, first)) => (1, first.clone()),
        None => (0, String::new()),
    };
    let body = &lines[start..];
    // Model pass: collect every .model card (top level and inside subckt
    // bodies) so instances can reference models defined later in the deck.
    let mut models: HashMap<String, ModelCard> = HashMap::new();
    for (loc, text) in body {
        let toks = tokenize(text);
        if toks
            .first()
            .is_some_and(|t| t.eq_ignore_ascii_case(".model"))
        {
            let (name, card) = parse_model(&files, &toks, *loc)?;
            models.insert(name, card);
        }
    }
    let (top, subckts) = extract_subckts(&files, body)?;
    let mut el = Elab {
        files: &files,
        subckts: &subckts,
        models: &models,
        circuit: Circuit::new(),
        tran: None,
        dc_sweeps: Vec::new(),
        pending_ics: Vec::new(),
        pending_sna: Vec::new(),
        ctrl_fixups: Vec::new(),
        ended: false,
    };
    el.run(&top, &Scope::top(), 0)?;
    el.fix_ctrls()?;
    el.verify_pending()?;
    Ok(ParsedDeck {
        title,
        circuit: el.circuit,
        tran: el.tran,
        dc_sweeps: el.dc_sweeps,
        ics: el.pending_ics.into_iter().map(|(n, v, _)| (n, v)).collect(),
        sna_cards: el.pending_sna.into_iter().map(|(c, _)| c).collect(),
    })
}

/// Parse a SPICE deck from a string into a flat circuit plus analyses.
///
/// `.include` is rejected here — a string has no directory to resolve
/// against, and this entry point is the fuzzing surface, which must never
/// touch the filesystem. Use [`parse_deck_file`] for decks with includes.
///
/// # Errors
///
/// [`Error::Parse`] with the offending line number on any syntax problem;
/// element-level validation errors (negative resistance etc.) are also
/// reported with their line. Line numbers always refer to the first
/// physical line of the offending card, even after `+` continuations.
///
/// # Examples
///
/// ```
/// use sna_spice::parser::parse_deck;
///
/// let deck = "\
/// rc lowpass
/// V1 in 0 DC 1.0
/// R1 in out 1k
/// C1 out 0 1p
/// .tran 1p 5n
/// .end
/// ";
/// let parsed = parse_deck(deck).unwrap();
/// assert_eq!(parsed.circuit.element_count(), 3);
/// assert!(parsed.tran.is_some());
/// ```
pub fn parse_deck(deck: &str) -> Result<ParsedDeck> {
    let files = vec![String::new()];
    let lines = logical_lines_in(deck, 0, true);
    for (loc, text) in &lines {
        if include_path(text).is_some() {
            return Err(err_at(
                &files,
                *loc,
                ".include is not supported when parsing from a string; use parse_deck_file",
            ));
        }
    }
    parse_lines(files, lines)
}

/// Parse a SPICE deck from a file, expanding `.include` cards relative to
/// the directory of the file containing them (nesting limited to
/// `MAX_INCLUDE_DEPTH`, cycles detected via canonical paths). Parse
/// errors name the file they occurred in and the line within that file.
///
/// # Errors
///
/// [`Error::Parse`] on unreadable files, include cycles, or any syntax
/// problem (see [`parse_deck`]).
pub fn parse_deck_file(path: impl AsRef<Path>) -> Result<ParsedDeck> {
    let mut files = Vec::new();
    let mut lines = Vec::new();
    let mut stack = Vec::new();
    load_file(path.as_ref(), &mut files, &mut lines, 0, &mut stack)?;
    parse_lines(files, lines)
}

/// Read one file into the logical-line stream, recursing into includes.
fn load_file(
    path: &Path,
    files: &mut Vec<String>,
    out: &mut Vec<(Loc, String)>,
    depth: usize,
    stack: &mut Vec<PathBuf>,
) -> Result<()> {
    let plain = |msg: String| Error::Parse {
        line: 0,
        message: msg,
    };
    if depth > MAX_INCLUDE_DEPTH {
        return Err(plain(format!(
            ".include nested deeper than {MAX_INCLUDE_DEPTH} levels at '{}'",
            path.display()
        )));
    }
    let canon = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    if stack.contains(&canon) {
        return Err(plain(format!("circular .include of '{}'", path.display())));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| plain(format!("cannot read deck '{}': {e}", path.display())))?;
    let fidx = files.len();
    files.push(path.display().to_string());
    stack.push(canon);
    for (loc, line) in logical_lines_in(&text, fidx, depth == 0) {
        if let Some(raw_target) = include_path(&line) {
            let target = unquote(raw_target);
            if target.is_empty() {
                return Err(err_at(files, loc, ".include needs a file path"));
            }
            let resolved = path.parent().unwrap_or(Path::new("")).join(target);
            match load_file(&resolved, files, out, depth + 1, stack) {
                // Attach the include-site location to file-level failures
                // (reads, cycles, depth) so the user sees where to look.
                Err(Error::Parse { line: 0, message }) => {
                    return Err(err_at(files, loc, message));
                }
                other => other?,
            }
        } else {
            out.push((loc, line));
        }
    }
    stack.pop();
    Ok(())
}

fn fmt_wave(w: &SourceWaveform) -> String {
    match w {
        SourceWaveform::Dc(v) => format!("DC {v:e}"),
        SourceWaveform::Pulse {
            v0,
            v1,
            t_delay,
            t_rise,
            t_width,
            t_fall,
        } => format!("PULSE({v0:e} {v1:e} {t_delay:e} {t_rise:e} {t_fall:e} {t_width:e})"),
        SourceWaveform::Ramp {
            v0,
            v1,
            t_start,
            t_rise,
        } => format!(
            "PWL({:e} {v0:e} {:e} {v1:e})",
            t_start.max(0.0),
            t_start + t_rise
        ),
        SourceWaveform::TriangleGlitch {
            v_base,
            v_peak,
            t_start,
            t_rise,
            t_fall,
        } => format!(
            "PWL({:e} {v_base:e} {:e} {v_peak:e} {:e} {v_base:e})",
            t_start.max(0.0),
            t_start + t_rise,
            t_start + t_rise + t_fall
        ),
        SourceWaveform::Pwl(points) => {
            let body: Vec<String> = points.iter().map(|(t, v)| format!("{t:e} {v:e}")).collect();
            format!("PWL({})", body.join(" "))
        }
        SourceWaveform::Sampled(wave) => {
            let body: Vec<String> = wave
                .times()
                .iter()
                .zip(wave.values())
                .map(|(t, v)| format!("{t:e} {v:e}"))
                .collect();
            format!("PWL({})", body.join(" "))
        }
    }
}

/// Emit a SPICE deck for `circuit` that [`parse_deck`] reads back to an
/// equal [`Circuit`] (floats use shortest-round-trip formatting).
///
/// MOSFET model cards are deduplicated and named `mod_n` / `mod_p`, diode
/// cards `mod_d` (with a numeric suffix when several distinct cards
/// exist). The non-standard [`Element::TableVccs`] is emitted as a comment
/// block (its table is a characterization artifact, not a SPICE
/// primitive); decks containing one will not round-trip that element — by
/// design, golden reference decks are transistor-level. `Ramp`,
/// `TriangleGlitch`, and `Sampled` waveforms are emitted as equivalent
/// `PWL` sources.
pub fn write_deck(circuit: &Circuit, title: &str) -> String {
    let mut out = String::new();
    if title.is_empty() {
        out.push_str("* untitled");
    } else {
        out.push_str(title);
    }
    out.push('\n');
    // Collect distinct models.
    let mut model_names: Vec<(MosfetModel, String)> = Vec::new();
    let mut diode_models: Vec<(DiodeModel, String)> = Vec::new();
    for e in circuit.elements() {
        match e {
            Element::Mosfet { model, .. } if !model_names.iter().any(|(m, _)| m == model) => {
                let base = match model.polarity {
                    MosPolarity::Nmos => "mod_n",
                    MosPolarity::Pmos => "mod_p",
                };
                let count = model_names
                    .iter()
                    .filter(|(m, _)| m.polarity == model.polarity)
                    .count();
                let name = if count == 0 {
                    base.to_string()
                } else {
                    format!("{base}{count}")
                };
                model_names.push((*model, name));
            }
            Element::Diode { model, .. } if !diode_models.iter().any(|(m, _)| m == model) => {
                let name = if diode_models.is_empty() {
                    "mod_d".to_string()
                } else {
                    format!("mod_d{}", diode_models.len())
                };
                diode_models.push((*model, name));
            }
            _ => {}
        }
    }
    for (m, name) in &model_names {
        let kind = match m.polarity {
            MosPolarity::Nmos => "NMOS",
            MosPolarity::Pmos => "PMOS",
        };
        out.push_str(&format!(
            ".model {name} {kind} (level=1 vto={:e} kp={:e} lambda={:e} gamma={:e} \
             phi={:e} cox={:e} cgso={:e} cgdo={:e} cj={:e})\n",
            m.vt0, m.kp, m.lambda, m.gamma, m.phi, m.cox, m.cgso, m.cgdo, m.cj
        ));
    }
    for (m, name) in &diode_models {
        out.push_str(&format!(
            ".model {name} D (is={:e} n={:e} cj0={:e})\n",
            m.is, m.n, m.cj0
        ));
    }
    let nn = |n: NodeId| circuit.node_name(n).to_string();
    // SPICE identifies element type by the first letter: prefix names that
    // do not already start with the right one.
    let tagged = |prefix: char, name: &str| -> String {
        if name
            .chars()
            .next()
            .is_some_and(|c| c.eq_ignore_ascii_case(&prefix))
        {
            name.to_string()
        } else {
            format!("{prefix}{name}")
        }
    };
    // Capacitors auto-generated by `add_mosfet` / `add_diode` are
    // re-created on parse; emit only the explicit ones.
    let mosfet_names: Vec<&str> = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Mosfet { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    let diode_names: Vec<&str> = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Diode { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    let is_device_cap = |name: &str| -> bool {
        for suffix in [".cgs", ".cgd", ".cgb", ".cdb", ".csb"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if mosfet_names.contains(&base) {
                    return true;
                }
            }
        }
        if let Some(base) = name.strip_suffix(".cj") {
            if diode_names.contains(&base) {
                return true;
            }
        }
        false
    };
    for e in circuit.elements() {
        match e {
            Element::Resistor { name, a, b, ohms } => {
                out.push_str(&format!(
                    "{} {} {} {ohms:e}\n",
                    tagged('R', name),
                    nn(*a),
                    nn(*b)
                ));
            }
            Element::Capacitor { name, a, b, farads } => {
                if is_device_cap(name) {
                    continue;
                }
                out.push_str(&format!(
                    "{} {} {} {farads:e}\n",
                    tagged('C', name),
                    nn(*a),
                    nn(*b)
                ));
            }
            Element::VSource {
                name,
                pos,
                neg,
                wave,
            } => {
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    tagged('V', name),
                    nn(*pos),
                    nn(*neg),
                    fmt_wave(wave)
                ));
            }
            Element::ISource {
                name,
                pos,
                neg,
                wave,
            } => {
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    tagged('I', name),
                    nn(*pos),
                    nn(*neg),
                    fmt_wave(wave)
                ));
            }
            Element::LinearVccs {
                name,
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
            } => {
                out.push_str(&format!(
                    "{} {} {} {} {} {gm:e}\n",
                    tagged('G', name),
                    nn(*out_p),
                    nn(*out_n),
                    nn(*ctrl_p),
                    nn(*ctrl_n)
                ));
            }
            Element::Vcvs {
                name,
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gain,
            } => {
                out.push_str(&format!(
                    "{} {} {} {} {} {gain:e}\n",
                    tagged('E', name),
                    nn(*out_p),
                    nn(*out_n),
                    nn(*ctrl_p),
                    nn(*ctrl_n)
                ));
            }
            Element::Cccs {
                name,
                out_p,
                out_n,
                ctrl,
                gain,
            } => {
                out.push_str(&format!(
                    "{} {} {} {} {gain:e}\n",
                    tagged('F', name),
                    nn(*out_p),
                    nn(*out_n),
                    tagged('V', ctrl)
                ));
            }
            Element::Ccvs {
                name,
                out_p,
                out_n,
                ctrl,
                r,
            } => {
                out.push_str(&format!(
                    "{} {} {} {} {r:e}\n",
                    tagged('H', name),
                    nn(*out_p),
                    nn(*out_n),
                    tagged('V', ctrl)
                ));
            }
            Element::Diode { name, p, n, model } => {
                let mname = &diode_models
                    .iter()
                    .find(|(m, _)| m == model)
                    .expect("diode model collected above")
                    .1;
                out.push_str(&format!(
                    "{} {} {} {mname}\n",
                    tagged('D', name),
                    nn(*p),
                    nn(*n)
                ));
            }
            Element::TableVccs {
                name,
                out_p,
                out_n,
                ctrl,
                table,
            } => {
                out.push_str(&format!(
                    "* table-vccs {name}: out=({},{}) ctrl={} grid={}x{} (non-standard, omitted)\n",
                    nn(*out_p),
                    nn(*out_n),
                    nn(*ctrl),
                    table.x_axis().len(),
                    table.y_axis().len()
                ));
            }
            Element::Mosfet {
                name,
                d,
                g,
                s,
                b,
                model,
                w,
                l,
            } => {
                let mname = &model_names
                    .iter()
                    .find(|(m, _)| m == model)
                    .expect("model collected above")
                    .1;
                out.push_str(&format!(
                    "{} {} {} {} {} {mname} W={w:e} L={l:e}\n",
                    tagged('M', name),
                    nn(*d),
                    nn(*g),
                    nn(*s),
                    nn(*b)
                ));
            }
        }
    }
    out.push_str(".end\n");
    out
}

fn dump_wave(w: &SourceWaveform) -> String {
    match w {
        SourceWaveform::Dc(v) => format!("dc({v:e})"),
        SourceWaveform::Pulse {
            v0,
            v1,
            t_delay,
            t_rise,
            t_width,
            t_fall,
        } => format!(
            "pulse(v0={v0:e} v1={v1:e} td={t_delay:e} tr={t_rise:e} tf={t_fall:e} pw={t_width:e})"
        ),
        SourceWaveform::Ramp {
            v0,
            v1,
            t_start,
            t_rise,
        } => format!("ramp(v0={v0:e} v1={v1:e} t0={t_start:e} tr={t_rise:e})"),
        SourceWaveform::TriangleGlitch {
            v_base,
            v_peak,
            t_start,
            t_rise,
            t_fall,
        } => format!(
            "glitch(base={v_base:e} peak={v_peak:e} t0={t_start:e} tr={t_rise:e} tf={t_fall:e})"
        ),
        SourceWaveform::Pwl(points) => {
            let body: Vec<String> = points.iter().map(|(t, v)| format!("{t:e}:{v:e}")).collect();
            format!("pwl({})", body.join(" "))
        }
        SourceWaveform::Sampled(wave) => format!("sampled({} pts)", wave.times().len()),
    }
}

/// Deterministic plain-text dump of a [`ParsedDeck`] — the golden-snapshot
/// format: one line per node, element, and analysis card, every float in
/// shortest-round-trip scientific notation. Byte-stable across platforms.
pub fn dump_parsed(deck: &ParsedDeck) -> String {
    let mut out = String::new();
    out.push_str(&format!("title: {}\n", deck.title));
    let c = &deck.circuit;
    out.push_str(&format!("nodes: {}\n", c.node_count()));
    for i in 0..c.node_count() {
        out.push_str(&format!("  node {i}: {}\n", c.node_name(NodeId(i))));
    }
    out.push_str(&format!("elements: {}\n", c.element_count()));
    let nn = |n: NodeId| c.node_name(n).to_string();
    for (i, e) in c.elements().iter().enumerate() {
        let line = match e {
            Element::Resistor { name, a, b, ohms } => {
                format!("resistor {name} {} {} ohms={ohms:e}", nn(*a), nn(*b))
            }
            Element::Capacitor { name, a, b, farads } => {
                format!("capacitor {name} {} {} farads={farads:e}", nn(*a), nn(*b))
            }
            Element::VSource {
                name,
                pos,
                neg,
                wave,
            } => format!(
                "vsource {name} {} {} {}",
                nn(*pos),
                nn(*neg),
                dump_wave(wave)
            ),
            Element::ISource {
                name,
                pos,
                neg,
                wave,
            } => format!(
                "isource {name} {} {} {}",
                nn(*pos),
                nn(*neg),
                dump_wave(wave)
            ),
            Element::LinearVccs {
                name,
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
            } => format!(
                "vccs {name} {} {} ctrl=({},{}) gm={gm:e}",
                nn(*out_p),
                nn(*out_n),
                nn(*ctrl_p),
                nn(*ctrl_n)
            ),
            Element::TableVccs {
                name,
                out_p,
                out_n,
                ctrl,
                table,
            } => format!(
                "table-vccs {name} {} {} ctrl={} grid={}x{}",
                nn(*out_p),
                nn(*out_n),
                nn(*ctrl),
                table.x_axis().len(),
                table.y_axis().len()
            ),
            Element::Vcvs {
                name,
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gain,
            } => format!(
                "vcvs {name} {} {} ctrl=({},{}) gain={gain:e}",
                nn(*out_p),
                nn(*out_n),
                nn(*ctrl_p),
                nn(*ctrl_n)
            ),
            Element::Cccs {
                name,
                out_p,
                out_n,
                ctrl,
                gain,
            } => format!(
                "cccs {name} {} {} ctrl={ctrl} gain={gain:e}",
                nn(*out_p),
                nn(*out_n)
            ),
            Element::Ccvs {
                name,
                out_p,
                out_n,
                ctrl,
                r,
            } => format!(
                "ccvs {name} {} {} ctrl={ctrl} r={r:e}",
                nn(*out_p),
                nn(*out_n)
            ),
            Element::Diode { name, p, n, model } => format!(
                "diode {name} {} {} is={:e} n={:e} cj0={:e}",
                nn(*p),
                nn(*n),
                model.is,
                model.n,
                model.cj0
            ),
            Element::Mosfet {
                name,
                d,
                g,
                s,
                b,
                model,
                w,
                l,
            } => {
                let pol = match model.polarity {
                    MosPolarity::Nmos => "nmos",
                    MosPolarity::Pmos => "pmos",
                };
                format!(
                    "mosfet {name} {} {} {} {} {pol} w={w:e} l={l:e} vto={:e} kp={:e} \
                     lambda={:e} gamma={:e} phi={:e} cox={:e} cgso={:e} cgdo={:e} cj={:e}",
                    nn(*d),
                    nn(*g),
                    nn(*s),
                    nn(*b),
                    model.vt0,
                    model.kp,
                    model.lambda,
                    model.gamma,
                    model.phi,
                    model.cox,
                    model.cgso,
                    model.cgdo,
                    model.cj
                )
            }
        };
        out.push_str(&format!("  [{i}] {line}\n"));
    }
    match &deck.tran {
        Some(t) => out.push_str(&format!(
            "tran: dt={:e} stop={:e} uic={}\n",
            t.dt, t.t_stop, !t.dc_init
        )),
        None => out.push_str("tran: none\n"),
    }
    out.push_str(&format!("dc_sweeps: {}\n", deck.dc_sweeps.len()));
    for (src, a, b, s) in &deck.dc_sweeps {
        out.push_str(&format!("  dc {src} {a:e} {b:e} {s:e}\n"));
    }
    out.push_str(&format!("ics: {}\n", deck.ics.len()));
    for (node, v) in &deck.ics {
        out.push_str(&format!("  v({node}) = {v:e}\n"));
    }
    out.push_str(&format!("sna_cards: {}\n", deck.sna_cards.len()));
    for card in &deck.sna_cards {
        // FRAME constraint fields are appended only when present so that
        // dumps of window-less decks stay byte-identical.
        let mut frame = String::new();
        for (src, lo, hi) in &card.windows {
            frame.push_str(&format!(" window={src}:{lo:e}:{hi:e}"));
        }
        for (src, g) in &card.mexcl {
            frame.push_str(&format!(" mexcl={src}:{g}"));
        }
        if let Some((lo, hi)) = card.sensitivity {
            frame.push_str(&format!(" sensitivity={lo:e}:{hi:e}"));
        }
        out.push_str(&format!(
            "  victim={} aggressors=[{}] threshold={} name={}{}\n",
            card.victim,
            card.aggressors.join(","),
            card.threshold
                .map(|t| format!("{t:e}"))
                .unwrap_or_else(|| "none".into()),
            card.name.as_deref().unwrap_or("none"),
            frame
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, NewtonOptions};

    #[test]
    fn parse_rc_divider_and_solve() {
        let deck = "\
test divider
V1 in 0 DC 3.0
R1 in mid 2k
R2 mid 0 1k
.end
";
        let p = parse_deck(deck).unwrap();
        assert_eq!(p.title, "test divider");
        let sol = dc_operating_point(&p.circuit, &NewtonOptions::default(), None).unwrap();
        let mid = p.circuit.find_node("mid").unwrap();
        assert!((sol.voltage(mid) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn continuation_and_comments() {
        let deck = "\
continuation test
* full-line comment
V1 a 0
+ DC 2.0 ; inline comment
R1 a 0 1k $ another comment
.end
";
        let p = parse_deck(deck).unwrap();
        assert_eq!(p.circuit.element_count(), 2);
    }

    #[test]
    fn pwl_and_pulse_sources() {
        let deck = "\
sources
V1 a 0 PWL(0 0 1n 1.0 2n 0)
V2 b 0 PULSE(0 1.2 1n 50p 50p 200p)
R1 a 0 1k
R2 b 0 1k
.tran 1p 5n
.end
";
        let p = parse_deck(deck).unwrap();
        assert!(p.tran.is_some());
        let t = p.tran.unwrap();
        assert!((t.t_stop - 5e-9).abs() < 1e-21);
        assert!((t.dt - 1e-12).abs() < 1e-24);
        match p.circuit.element(p.circuit.find_element("V1").unwrap()) {
            Element::VSource { wave, .. } => {
                assert!((wave.eval(0.5e-9) - 0.5).abs() < 1e-9);
            }
            _ => panic!(),
        }
        match p.circuit.element(p.circuit.find_element("V2").unwrap()) {
            Element::VSource { wave, .. } => {
                // peak during the pulse width
                assert!((wave.eval(1.15e-9) - 1.2).abs() < 1e-9);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn mosfet_with_model() {
        let deck = "\
inv
.model nch NMOS (level=1 vto=0.32 kp=2.5e-4 lambda=0.15 gamma=0.4 phi=0.7)
.model pch PMOS (level=1 vto=-0.34 kp=1.0e-4)
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Mn out in 0 0 nch W=0.42u L=0.13u
Mp out in vdd vdd pch W=0.64u L=0.13u
.end
";
        let p = parse_deck(deck).unwrap();
        let sol = dc_operating_point(&p.circuit, &NewtonOptions::default(), None).unwrap();
        let out = p.circuit.find_node("out").unwrap();
        assert!((sol.voltage(out) - 1.2).abs() < 0.02);
    }

    #[test]
    fn model_defined_after_use() {
        let deck = "\
order
Vd d 0 DC 1.0
M1 d d 0 0 nch W=1u L=0.13u
.model nch NMOS (vto=0.3 kp=2e-4)
.end
";
        assert!(parse_deck(deck).is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let deck = "\
title
R1 a 0 notanumber
.end
";
        match parse_deck(deck) {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_survive_continuation_merging() {
        // The bad token sits on physical line 5, but the card *starts* on
        // line 3 — the report must point at the card, not past it and not
        // at a post-merge pseudo-line.
        let deck = "\
title
R1 a b 1k
R2 a
+ 0
+ bogus
.end
";
        match parse_deck(deck) {
            Err(Error::Parse { line, message }) => {
                assert_eq!(line, 3, "wrong line in: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_element_rejected() {
        let deck = "title\nQ1 a b c model\n.end\n";
        assert!(parse_deck(deck).is_err());
    }

    #[test]
    fn dc_sweep_statement() {
        let deck = "\
sweep
V1 a 0 DC 0
R1 a 0 1k
.dc V1 0 1.2 0.1
.end
";
        let p = parse_deck(deck).unwrap();
        assert_eq!(p.dc_sweeps.len(), 1);
        assert_eq!(p.dc_sweeps[0].0, "V1");
    }

    #[test]
    fn roundtrip_write_parse() {
        let deck = "\
rt
.model nch NMOS (level=1 vto=0.32 kp=2.5e-4 lambda=0.15 gamma=0.4 phi=0.7 cox=0.012 cgso=3e-10 cgdo=3e-10 cj=8e-10)
Vdd vdd 0 DC 1.2
Vin in 0 PULSE(0 1.2 1n 50p 50p 200p)
Mn out in 0 0 nch W=0.42u L=0.13u
R1 out 0 10k
C1 out 0 5f
.end
";
        let p1 = parse_deck(deck).unwrap();
        let emitted = write_deck(&p1.circuit, "rt");
        let p2 = parse_deck(&emitted).unwrap();
        // Exact round-trip: same nodes, same elements, same values.
        assert_eq!(p1.circuit, p2.circuit);
    }

    #[test]
    fn subckt_flattening_basic() {
        let deck = "\
divider pair
.subckt half inp out
R1 inp out 1k
R2 out 0 1k
.ends half
V1 in 0 DC 2.0
X1 in mid half
X2 mid out2 half
.end
";
        let p = parse_deck(deck).unwrap();
        // 1 vsource + 2 instances x 2 resistors.
        assert_eq!(p.circuit.element_count(), 5);
        assert!(p.circuit.find_element("x1.R1").is_some());
        assert!(p.circuit.find_element("x2.R2").is_some());
        // Internal "out" of X1 maps to the shared "mid" net.
        let sol = dc_operating_point(&p.circuit, &NewtonOptions::default(), None).unwrap();
        let mid = p.circuit.find_node("mid").unwrap();
        // X2 loads mid with 2k to ground: V(mid) = 2 * (2k/3k) / ... solve:
        // series 1k then (1k || 2k) = 2/3 k → V(mid) = 2 * (2/3)/(1+2/3) = 0.8
        assert!(
            (sol.voltage(mid) - 0.8).abs() < 1e-9,
            "{}",
            sol.voltage(mid)
        );
    }

    #[test]
    fn subckt_nested_with_params() {
        let deck = "\
nested
.subckt leaf a b r=1k
R1 a b {r}
.ends
.subckt pair inp out r=2k
X1 inp m leaf r={r}
X2 m out leaf r={r}
.ends
V1 in 0 DC 1.0
X9 in out pair r=500
Rload out 0 1k
.end
";
        let p = parse_deck(deck).unwrap();
        // Two leaf resistors of 500 each in series, then 1k to ground.
        let e = p.circuit.find_element("x9.x1.R1").expect("nested name");
        match p.circuit.element(e) {
            Element::Resistor { ohms, .. } => assert_eq!(*ohms, 500.0),
            other => panic!("{other:?}"),
        }
        let sol = dc_operating_point(&p.circuit, &NewtonOptions::default(), None).unwrap();
        let out = p.circuit.find_node("out").unwrap();
        assert!((sol.voltage(out) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn subckt_errors() {
        // Unclosed definition.
        let deck = "t\n.subckt a p\nR1 p 0 1k\n.end\n";
        assert!(parse_deck(deck).is_err());
        // Stray .ends.
        let deck = "t\nR1 a 0 1k\n.ends\n.end\n";
        assert!(parse_deck(deck).is_err());
        // Duplicate definition.
        let deck = "t\n.subckt a p\nR1 p 0 1k\n.ends\n.subckt a p\nR1 p 0 2k\n.ends\nV1 x 0 DC 1\nX1 x a\n.end\n";
        assert!(parse_deck(deck).is_err());
        // Port-count mismatch.
        let deck = "t\n.subckt a p q\nR1 p q 1k\n.ends\nX1 x a\n.end\n";
        assert!(parse_deck(deck).is_err());
        // Unknown parameter.
        let deck = "t\n.subckt a p\nR1 p 0 1k\n.ends\nV1 x 0 DC 1\nX1 x a nope=3\n.end\n";
        assert!(parse_deck(deck).is_err());
        // Recursive instantiation trips the depth limit.
        let deck = "t\n.subckt a p\nX1 p a\n.ends\nV1 x 0 DC 1\nX1 x a\n.end\n";
        assert!(parse_deck(deck).is_err());
    }

    #[test]
    fn controlled_sources_parse_and_solve() {
        let deck = "\
ctrl
V1 in 0 DC 1.0
R1 in 0 1k
E1 e 0 in 0 2.0
Re e 0 1k
F1 0 f V1 3.0
Rf f 0 1k
H1 h 0 V1 100
Rh h 0 1k
.end
";
        let p = parse_deck(deck).unwrap();
        let sol = dc_operating_point(&p.circuit, &NewtonOptions::default(), None).unwrap();
        let n = |s: &str| p.circuit.find_node(s).unwrap();
        // E1: V(e) = 2 * V(in) = 2.
        assert!((sol.voltage(n("e")) - 2.0).abs() < 1e-9);
        // V1 sources 1 mA into R1, so its MNA branch current is -1 mA.
        // F1 injects 3 * i(V1) = -3 mA into node f across Rf = 1k.
        assert!(
            (sol.voltage(n("f")) + 3.0).abs() < 1e-9,
            "{}",
            sol.voltage(n("f"))
        );
        // H1: V(h) = 100 * i(V1) = -0.1.
        assert!((sol.voltage(n("h")) + 0.1).abs() < 1e-9);
    }

    #[test]
    fn cccs_forward_reference_and_missing_ctrl() {
        // F references a vsource defined later: must resolve.
        let deck = "t\nF1 0 f Vsrc 2.0\nRf f 0 1k\nVsrc a 0 DC 1\nRa a 0 1k\n.end\n";
        assert!(parse_deck(deck).is_ok());
        // Unknown controlling source: parse error, not a later MNA error.
        let deck = "t\nF1 0 f Vnope 2.0\nRf f 0 1k\n.end\n";
        assert!(parse_deck(deck).is_err());
    }

    #[test]
    fn diode_model_and_ic_cards() {
        let deck = "\
clamp
.model dclamp D (is=1e-15 n=1.1 cj0=2f)
V1 in 0 DC 0.8
R1 in out 1k
D1 out 0 dclamp
.ic v(out)=0.3
.tran 1p 1n UIC
.end
";
        let p = parse_deck(deck).unwrap();
        assert_eq!(p.ics, vec![("out".to_string(), 0.3)]);
        let t = p.tran.as_ref().unwrap();
        assert!(!t.dc_init, "UIC must clear dc_init");
        // Diode + its .cj cap.
        assert!(p.circuit.find_element("D1").is_some());
        assert!(p.circuit.find_element("D1.cj").is_some());
        let resolved = p.resolve_ics();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].0, p.circuit.find_node("out").unwrap());
        // Unknown node in .ic is a parse error.
        let bad = "t\nR1 a 0 1k\n.ic v(zz)=1\n.end\n";
        assert!(parse_deck(bad).is_err());
    }

    #[test]
    fn sna_cards_parse_and_verify() {
        let deck = "\
bus
V1 vic 0 DC 0
Va1 ag1 0 DC 0
Va2 ag2 0 DC 0
R1 vic 0 1k
R2 ag1 0 1k
R3 ag2 0 1k
.sna victim=vic aggressors=Va1,Va2 threshold=0.4 name=bus0
.end
";
        let p = parse_deck(deck).unwrap();
        assert_eq!(p.sna_cards.len(), 1);
        let card = &p.sna_cards[0];
        assert_eq!(card.victim, "vic");
        assert_eq!(card.aggressors, vec!["Va1".to_string(), "Va2".to_string()]);
        assert_eq!(card.threshold, Some(0.4));
        assert_eq!(card.name.as_deref(), Some("bus0"));
        // Constraint-free cards keep empty FRAME fields.
        assert!(card.windows.is_empty());
        assert!(card.mexcl.is_empty());
        assert_eq!(card.sensitivity, None);
        // Victim must exist; aggressors must be sources.
        let bad = "t\nR1 a 0 1k\n.sna victim=zz\n.end\n";
        assert!(parse_deck(bad).is_err());
        let bad = "t\nR1 a 0 1k\n.sna victim=a aggressors=R1\n.end\n";
        assert!(parse_deck(bad).is_err());
    }

    #[test]
    fn sna_frame_constraints_parse_and_verify() {
        let deck = "\
bus
V1 vic 0 DC 0
Va1 ag1 0 DC 0
Va2 ag2 0 DC 0
R1 vic 0 1k
R2 ag1 0 1k
R3 ag2 0 1k
.sna victim=vic aggressors=Va1,Va2 threshold=0.4
+ window=Va1:1n:2n,Va2:0:2n mexcl=Va1:1,Va2:1 sensitivity=0.5n:4n
.end
";
        let p = parse_deck(deck).unwrap();
        let card = &p.sna_cards[0];
        assert_eq!(
            card.windows,
            vec![
                ("Va1".to_string(), 1e-9, 2e-9),
                ("Va2".to_string(), 0.0, 2e-9)
            ]
        );
        assert_eq!(
            card.mexcl,
            vec![("Va1".to_string(), 1), ("Va2".to_string(), 1)]
        );
        assert_eq!(card.sensitivity, Some((0.5e-9, 4e-9)));
        // The dump carries the constraints (appended, so window-less decks
        // are unchanged).
        let dump = dump_parsed(&p);
        assert!(dump.contains("window=Va1:1e-9:2e-9"), "{dump}");
        assert!(dump.contains("mexcl=Va2:1"), "{dump}");
        assert!(dump.contains("sensitivity=5e-10:4e-9"), "{dump}");

        // Malformed or inconsistent constraints are rejected with context.
        for (bad, needle) in [
            (
                ".sna victim=vic aggressors=Va1 window=Va1:3n:1n",
                "t_min <= t_max",
            ),
            (".sna victim=vic aggressors=Va1 window=Va1:1n", "window"),
            (".sna victim=vic aggressors=Va1 mexcl=Va1", "mexcl"),
            (
                ".sna victim=vic aggressors=Va1 sensitivity=1n",
                "sensitivity",
            ),
            (
                ".sna victim=vic aggressors=Va1 window=Va2:1n:3n",
                "not in aggressors=",
            ),
            (
                ".sna victim=vic window=R1:1n:3n",
                "not an independent V or I source",
            ),
        ] {
            let deck = format!(
                "t\nV1 vic 0 DC 0\nVa1 ag1 0 DC 0\nVa2 ag2 0 DC 0\n\
                 R1 vic 0 1k\nR2 ag1 0 1k\nR3 ag2 0 1k\n{bad}\n.end\n"
            );
            match parse_deck(&deck) {
                Err(e) => assert!(e.to_string().contains(needle), "{bad}: {e}"),
                Ok(_) => panic!("{bad}: expected rejection"),
            }
        }
    }

    #[test]
    fn include_rejected_in_string_mode() {
        let deck = "t\n.include other.cir\n.end\n";
        match parse_deck(deck) {
            Err(Error::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("parse_deck_file"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn dump_parsed_is_stable() {
        let deck = "\
d
V1 a 0 DC 1.5
R1 a 0 2k
.tran 1p 1n
.end
";
        let p = parse_deck(deck).unwrap();
        let dump = dump_parsed(&p);
        assert!(dump.contains("title: d"));
        assert!(dump.contains("resistor R1 a 0 ohms=2e3"));
        assert!(dump.contains("vsource V1 a 0 dc(1.5e0)"));
        assert!(dump.contains("tran: dt=1e-12 stop=1e-9 uic=false"));
        // Stable across re-parse of its own write_deck output (write_deck
        // emits only the circuit, so carry the analyses over).
        let mut p2 = parse_deck(&write_deck(&p.circuit, "d")).unwrap();
        p2.tran = p.tran;
        assert_eq!(dump_parsed(&p2), dump);
    }
}
