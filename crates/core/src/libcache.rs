//! `sna-libcache-v1` — the on-disk form of [`NoiseModelLibrary`].
//!
//! Characterization is the dominant cost of a cold SNA run (it owns the
//! chrome-trace), yet its artifacts are pure functions of (technology,
//! cell, options) — exactly the things the in-memory cache already keys
//! by. This module persists the cache so characterization is paid *once
//! per technology ever*: a warm run performs zero characterization solves.
//!
//! ## Format
//!
//! A hand-rolled little-endian binary layout (the vendored `serde` shim is
//! a no-op, and a versioned binary format lets us make staleness explicit
//! rather than accidental):
//!
//! ```text
//! magic    8 bytes   "SNALIBC1"
//! version  u32       1
//! section ×5, in ArtifactKind order (load_curve, holding_r, prop_table,
//!                                    thevenin, nrc):
//!   count  u64
//!   entry ×count:
//!     key_len  u32      key_bytes   [key_len]
//!     key_fp   u64      FNV-1a of key_bytes
//!     val_len  u32      val_bytes   [val_len]
//!     val_fp   u64      FNV-1a of val_bytes
//! ```
//!
//! Key bytes are the library's own lookup keys, which each lookup writes
//! from its inputs (`str` is a `u32` length and UTF-8, `list` a `u32` count
//! and `u64` bit patterns):
//!
//! ```text
//! cell        str tech name, u64 tech fingerprint, str cell tag,
//!             u64 strength
//! load_curve, holding_r:
//!             cell, u64 noisy input, list input levels, u64 options fp
//! prop_table  the same, then u64 load bucket (an i32, sign-extended)
//! thevenin    cell, u8 rising, u64 slew, u64 ×4 load words, u64 options fp
//! nrc         cell, u8 input_low, list widths, u8 solver tag, u64 argument
//! ```
//!
//! The fingerprints cover the full `Technology` and `CharacterizeOptions`
//! (the `TranWorkspace` fingerprint discipline), so an entry characterized
//! under one technology or tolerance set can never be served under
//! another, and since every field is fixed-width or length-prefixed, equal
//! bytes mean equal inputs.
//!
//! ## Failure semantics
//!
//! * **Structural** problems — bad magic, unsupported version, truncation,
//!   trailing garbage — abort the load with an error. The caller logs a
//!   diagnostic and proceeds cold; already-validated entries stay usable.
//! * **Per-entry** problems — a fingerprint mismatch, a key that does not
//!   parse as a key of its section (e.g. an unknown cell tag from a newer
//!   library), or a payload that fails semantic validation (e.g. a
//!   non-monotonic table axis) — reject just that entry, count it as
//!   `stale_rejected`, and continue. A stale entry is recomputed on first
//!   use; it is **never** served.
//!
//! Saving sorts entries by key bytes, so the file is a deterministic
//! function of the cache contents: `save(load(save(lib))) == save(lib)`
//! byte-for-byte (property-tested below), and repeated runs produce
//! `cmp`-equal cache files.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sna_cells::characterize::{
    CharacterizeOptions, LoadCurve, PropagatedNoiseTable, TheveninDriver, TheveninLoad,
};
use sna_cells::{Cell, CellType, DriverMode};
use sna_spice::devices::{SourceWaveform, Table2d};
use sna_spice::error::{Error, Result};
use sna_spice::fnv::Fnv;
use sna_spice::solver::SolverKind;

use super::{
    opts_fingerprint, solver_code, tech_fingerprint, NoiseModelLibrary, ALL_ARTIFACT_KINDS,
    ARTIFACT_KIND_COUNT,
};
use crate::nrc::NoiseRejectionCurve;

/// File magic: "SNALIBC1".
pub const MAGIC: &[u8; 8] = b"SNALIBC1";

/// Schema version this build reads and writes.
pub const VERSION: u32 = 1;

/// Human-facing schema name (used in CLI diagnostics and docs).
pub const SCHEMA: &str = "sna-libcache-v1";

/// Outcome summary of loading a cache file into a library.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskLoadStats {
    /// Entries validated and inserted.
    pub loaded: usize,
    /// Entries rejected (fingerprint mismatch or semantic validation).
    pub stale_rejected: usize,
    /// Inserted entries per [`ArtifactKind`](super::ArtifactKind), indexed
    /// by discriminant.
    pub per_kind_loaded: [usize; ARTIFACT_KIND_COUNT],
}

fn corrupt(what: &str) -> Error {
    Error::InvalidAnalysis(format!("{SCHEMA}: {what}"))
}

// ---------------------------------------------------------------------------
// Byte-level plumbing
// ---------------------------------------------------------------------------

/// Little-endian byte sink.
#[derive(Debug, Default)]
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        Self::default()
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn f64_slice(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(corrupt(&format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(&format!("invalid bool byte {b}"))),
        }
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid utf-8 string"))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.u32()? as usize;
        if n > self.remaining() / 8 {
            return Err(corrupt("f64 vector length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    fn len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Decode a whole sub-slice with `f`, requiring every byte be consumed.
/// `None` means the entry is malformed — the caller treats it as stale.
fn decode_exact<T>(bytes: &[u8], f: impl FnOnce(&mut ByteReader) -> Result<T>) -> Option<T> {
    let mut r = ByteReader::new(bytes);
    let v = f(&mut r).ok()?;
    if r.remaining() != 0 {
        return None;
    }
    Some(v)
}

fn finite(v: f64) -> Result<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(corrupt("non-finite value"))
    }
}

// ---------------------------------------------------------------------------
// Keys: each writer is the library's key constructor for its kind, and each
// `check_*` accepts the byte strings that parse as its writer's layout.
// ---------------------------------------------------------------------------

/// A cell's identity: technology name and model fingerprint, cell tag,
/// strength.
fn write_cell(w: &mut ByteWriter, cell: &Cell) {
    w.str(&cell.tech.name);
    w.u64(tech_fingerprint(&cell.tech));
    w.str(cell.cell_type.tag());
    w.f64(cell.strength);
}

fn check_cell(r: &mut ByteReader) -> Result<()> {
    r.str()?;
    r.u64()?;
    let tag = r.str()?;
    let types = [
        CellType::Inv,
        CellType::Buf,
        CellType::Nand2,
        CellType::Nor2,
        CellType::Aoi21,
    ];
    if !types.iter().any(|t| t.tag() == tag) {
        return Err(corrupt(&format!("unknown cell tag {tag:?}")));
    }
    r.u64().map(drop)
}

fn write_cell_key(w: &mut ByteWriter, cell: &Cell, mode: &DriverMode, opts: &CharacterizeOptions) {
    write_cell(w, cell);
    w.u64(mode.noisy_input as u64);
    w.f64_slice(&mode.input_levels);
    w.u64(opts_fingerprint(opts));
}

/// Key of a cell in a drive state under `opts`: the key of its load curve
/// and of its holding resistance.
pub(super) fn cell_key(cell: &Cell, mode: &DriverMode, opts: &CharacterizeOptions) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_cell_key(&mut w, cell, mode, opts);
    w.into_bytes()
}

fn check_cell_key(r: &mut ByteReader) -> Result<()> {
    check_cell(r)?;
    r.u64()?;
    r.f64_vec()?;
    r.u64().map(drop)
}

/// Key of a propagated-noise table: [`cell_key`] plus the load bucket.
pub(super) fn prop_key(
    cell: &Cell,
    mode: &DriverMode,
    opts: &CharacterizeOptions,
    bucket: i32,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_cell_key(&mut w, cell, mode, opts);
    w.u64(i64::from(bucket) as u64);
    w.into_bytes()
}

fn check_prop_key(r: &mut ByteReader) -> Result<()> {
    check_cell_key(r)?;
    // A bucket is an `i32`, written sign-extended.
    i32::try_from(r.u64()? as i64)
        .map(drop)
        .map_err(|_| corrupt("load bucket out of range"))
}

/// Key of a Thevenin fit: the cell, its edge and input slew, the exact
/// load, and the options.
pub(super) fn thevenin_key(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    opts: &CharacterizeOptions,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_cell(&mut w, cell);
    w.bool(rising);
    w.f64(input_slew);
    // `[variant, a, b, c]`: `[0, cap, 0, 0]` for `Lumped(cap)`,
    // `[1, c_near, r, c_far]` for `Pi`.
    let load_words = match *load {
        TheveninLoad::Lumped(cap) => [0, cap.to_bits(), 0, 0],
        TheveninLoad::Pi { c_near, r, c_far } => {
            [1, c_near.to_bits(), r.to_bits(), c_far.to_bits()]
        }
    };
    for word in load_words {
        w.u64(word);
    }
    w.u64(opts_fingerprint(opts));
    w.into_bytes()
}

fn check_thevenin_key(r: &mut ByteReader) -> Result<()> {
    check_cell(r)?;
    r.bool()?;
    // The slew, the four load words and the options fingerprint.
    for _ in 0..6 {
        r.u64()?;
    }
    Ok(())
}

/// Key of a noise-rejection curve: the receiver, its input polarity, the
/// width grid, and the solver.
pub(super) fn nrc_key(
    receiver: &Cell,
    input_low: bool,
    widths: &[f64],
    solver: SolverKind,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_cell(&mut w, receiver);
    w.bool(input_low);
    w.f64_slice(widths);
    let (tag, arg) = solver_code(solver);
    w.u8(tag);
    w.u64(arg);
    w.into_bytes()
}

fn check_nrc_key(r: &mut ByteReader) -> Result<()> {
    check_cell(r)?;
    r.bool()?;
    r.f64_vec()?;
    r.u8()?;
    r.u64().map(drop)
}

// ---------------------------------------------------------------------------
// Value encodings
// ---------------------------------------------------------------------------

fn encode_table(w: &mut ByteWriter, t: &Table2d) {
    w.f64_slice(t.x_axis());
    w.f64_slice(t.y_axis());
    w.f64_slice(t.values());
}

/// Decode a [`Table2d`] through its validating constructor, so corrupt
/// axes (non-monotonic, non-finite, length mismatch) reject the entry.
fn decode_table(r: &mut ByteReader) -> Result<Table2d> {
    let x = r.f64_vec()?;
    let y = r.f64_vec()?;
    let values = r.f64_vec()?;
    Table2d::new(x, y, values)
}

fn encode_mode(w: &mut ByteWriter, m: &DriverMode) {
    w.u64(m.noisy_input as u64);
    w.f64_slice(&m.input_levels);
    w.f64(m.output_level);
}

fn decode_mode(r: &mut ByteReader) -> Result<DriverMode> {
    let noisy_input = r.u64()? as usize;
    let input_levels = r.f64_vec()?;
    let output_level = finite(r.f64()?)?;
    if noisy_input >= input_levels.len().max(1) {
        return Err(corrupt("driver mode noisy_input out of range"));
    }
    Ok(DriverMode {
        noisy_input,
        input_levels,
        output_level,
    })
}

fn encode_load_curve(lc: &LoadCurve) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_table(&mut w, &lc.table);
    encode_mode(&mut w, &lc.mode);
    w.f64(lc.vdd);
    w.f64(lc.c_out);
    w.f64(lc.c_miller);
    w.into_bytes()
}

fn decode_load_curve(r: &mut ByteReader) -> Result<LoadCurve> {
    Ok(LoadCurve {
        table: decode_table(r)?,
        mode: decode_mode(r)?,
        vdd: finite(r.f64()?)?,
        c_out: finite(r.f64()?)?,
        c_miller: finite(r.f64()?)?,
    })
}

fn encode_prop_table(t: &PropagatedNoiseTable) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_table(&mut w, &t.peak);
    encode_table(&mut w, &t.width50);
    encode_table(&mut w, &t.area);
    encode_table(&mut w, &t.delay);
    encode_mode(&mut w, &t.mode);
    w.f64(t.vdd);
    w.f64(t.load_cap);
    w.f64(t.output_polarity);
    w.into_bytes()
}

fn decode_prop_table(r: &mut ByteReader) -> Result<PropagatedNoiseTable> {
    Ok(PropagatedNoiseTable {
        peak: decode_table(r)?,
        width50: decode_table(r)?,
        area: decode_table(r)?,
        delay: decode_table(r)?,
        mode: decode_mode(r)?,
        vdd: finite(r.f64()?)?,
        load_cap: finite(r.f64()?)?,
        output_polarity: finite(r.f64()?)?,
    })
}

/// Serialize a source waveform. Returns `false` (writing nothing) for
/// [`SourceWaveform::Sampled`], which holds an arbitrary waveform trace —
/// Thevenin *fits* always produce `Ramp`, so in practice every cached
/// driver persists; a hypothetical sampled one is simply not saved.
fn encode_wave(w: &mut ByteWriter, wave: &SourceWaveform) -> bool {
    match *wave {
        SourceWaveform::Dc(v) => {
            w.u8(0);
            w.f64(v);
        }
        SourceWaveform::Ramp {
            v0,
            v1,
            t_start,
            t_rise,
        } => {
            w.u8(1);
            for v in [v0, v1, t_start, t_rise] {
                w.f64(v);
            }
        }
        SourceWaveform::Pulse {
            v0,
            v1,
            t_delay,
            t_rise,
            t_width,
            t_fall,
        } => {
            w.u8(2);
            for v in [v0, v1, t_delay, t_rise, t_width, t_fall] {
                w.f64(v);
            }
        }
        SourceWaveform::TriangleGlitch {
            v_base,
            v_peak,
            t_start,
            t_rise,
            t_fall,
        } => {
            w.u8(3);
            for v in [v_base, v_peak, t_start, t_rise, t_fall] {
                w.f64(v);
            }
        }
        SourceWaveform::Pwl(ref pts) => {
            w.u8(4);
            w.u32(pts.len() as u32);
            for &(t, v) in pts {
                w.f64(t);
                w.f64(v);
            }
        }
        SourceWaveform::Sampled(_) => return false,
    }
    true
}

fn decode_wave(r: &mut ByteReader) -> Result<SourceWaveform> {
    match r.u8()? {
        0 => Ok(SourceWaveform::Dc(finite(r.f64()?)?)),
        1 => Ok(SourceWaveform::Ramp {
            v0: finite(r.f64()?)?,
            v1: finite(r.f64()?)?,
            t_start: finite(r.f64()?)?,
            t_rise: finite(r.f64()?)?,
        }),
        2 => Ok(SourceWaveform::Pulse {
            v0: finite(r.f64()?)?,
            v1: finite(r.f64()?)?,
            t_delay: finite(r.f64()?)?,
            t_rise: finite(r.f64()?)?,
            t_width: finite(r.f64()?)?,
            t_fall: finite(r.f64()?)?,
        }),
        3 => Ok(SourceWaveform::TriangleGlitch {
            v_base: finite(r.f64()?)?,
            v_peak: finite(r.f64()?)?,
            t_start: finite(r.f64()?)?,
            t_rise: finite(r.f64()?)?,
            t_fall: finite(r.f64()?)?,
        }),
        4 => {
            let n = r.u32()? as usize;
            if n > r.remaining() / 16 {
                return Err(corrupt("pwl point count exceeds remaining bytes"));
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                pts.push((finite(r.f64()?)?, finite(r.f64()?)?));
            }
            Ok(SourceWaveform::Pwl(pts))
        }
        t => Err(corrupt(&format!("unknown waveform tag {t}"))),
    }
}

fn encode_thevenin(th: &TheveninDriver) -> Option<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.f64(th.rth);
    if !encode_wave(&mut w, &th.wave) {
        return None;
    }
    w.bool(th.rising);
    w.f64(th.vdd);
    Some(w.into_bytes())
}

fn decode_thevenin(r: &mut ByteReader) -> Result<TheveninDriver> {
    let rth = finite(r.f64()?)?;
    let wave = decode_wave(r)?;
    let rising = r.bool()?;
    let vdd = finite(r.f64()?)?;
    if rth <= 0.0 {
        return Err(corrupt("thevenin rth must be positive"));
    }
    Ok(TheveninDriver {
        rth,
        wave,
        rising,
        vdd,
    })
}

fn encode_nrc(curve: &NoiseRejectionCurve) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.f64_slice(&curve.widths);
    w.f64_slice(&curve.fail_heights);
    w.f64(curve.vdd);
    w.into_bytes()
}

fn decode_nrc(r: &mut ByteReader) -> Result<NoiseRejectionCurve> {
    let widths = r.f64_vec()?;
    let fail_heights = r.f64_vec()?;
    let vdd = finite(r.f64()?)?;
    if widths.len() < 2 || widths.len() != fail_heights.len() {
        return Err(corrupt("nrc axis lengths invalid"));
    }
    if !widths.windows(2).all(|p| p[1] > p[0])
        || widths.iter().any(|v| !v.is_finite())
        || fail_heights.iter().any(|v| !v.is_finite())
    {
        return Err(corrupt("nrc axes must be finite and strictly ascending"));
    }
    Ok(NoiseRejectionCurve {
        widths,
        fail_heights,
        vdd,
    })
}

// ---------------------------------------------------------------------------
// Codecs: one per artifact kind
// ---------------------------------------------------------------------------

/// What an image knows about one artifact kind: which bytes parse as its
/// keys, and how its values are written and read.
#[derive(Debug)]
pub(super) struct Codec<V> {
    /// Whether bytes parse as a key of the kind.
    pub(super) key_ok: fn(&[u8]) -> bool,
    /// A value's bytes, `None` for a value an image does not hold.
    pub(super) encode: fn(&V) -> Option<Vec<u8>>,
    /// The value bytes hold, `None` unless they decode to a valid one.
    pub(super) decode: fn(&[u8]) -> Option<V>,
}

pub(super) static LOAD_CURVES: Codec<Arc<LoadCurve>> = Codec {
    key_ok: |key| decode_exact(key, check_cell_key).is_some(),
    encode: |lc| Some(encode_load_curve(lc)),
    decode: |val| decode_exact(val, decode_load_curve).map(Arc::new),
};

pub(super) static HOLDING_R: Codec<f64> = Codec {
    key_ok: |key| decode_exact(key, check_cell_key).is_some(),
    encode: |r| Some(r.to_bits().to_le_bytes().to_vec()),
    decode: |val| decode_exact(val, |r| finite(r.f64()?)),
};

pub(super) static PROP_TABLES: Codec<Arc<PropagatedNoiseTable>> = Codec {
    key_ok: |key| decode_exact(key, check_prop_key).is_some(),
    encode: |t| Some(encode_prop_table(t)),
    decode: |val| decode_exact(val, decode_prop_table).map(Arc::new),
};

pub(super) static THEVENINS: Codec<Arc<TheveninDriver>> = Codec {
    key_ok: |key| decode_exact(key, check_thevenin_key).is_some(),
    encode: |th| encode_thevenin(th),
    decode: |val| decode_exact(val, decode_thevenin).map(Arc::new),
};

pub(super) static NRCS: Codec<Arc<NoiseRejectionCurve>> = Codec {
    key_ok: |key| decode_exact(key, check_nrc_key).is_some(),
    encode: |curve| Some(encode_nrc(curve)),
    decode: |val| decode_exact(val, decode_nrc).map(Arc::new),
};

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

fn write_section(w: &mut ByteWriter, mut entries: Vec<(Vec<u8>, Vec<u8>)>) {
    // Sorting by key bytes makes the file a deterministic function of the
    // cache *contents*, independent of map iteration order.
    entries.sort();
    w.u64(entries.len() as u64);
    for (k, v) in entries {
        w.u32(k.len() as u32);
        w.bytes(&k);
        w.u64(Fnv::hash_bytes(&k));
        w.u32(v.len() as u32);
        w.bytes(&v);
        w.u64(Fnv::hash_bytes(&v));
    }
}

impl NoiseModelLibrary {
    /// Serialize every cached artifact into `sna-libcache-v1` bytes.
    ///
    /// Deterministic: entries are sorted by encoded key, so two libraries
    /// with the same contents produce byte-identical files.
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        for section in self.sections() {
            write_section(&mut w, section.encoded());
        }
        w.into_bytes()
    }

    /// Load `sna-libcache-v1` bytes into this library.
    ///
    /// Inserted entries are marked disk-provenanced, so later hits on them
    /// count as `disk_hits`; once this returns `Ok` the library counts
    /// every subsequent miss as a `disk_miss`. In-memory entries win ties
    /// (an already-characterized artifact is never replaced).
    ///
    /// # Errors
    ///
    /// Structural corruption — bad magic, unsupported version, truncation,
    /// trailing bytes. Per-entry staleness does *not* error; it increments
    /// `stale_rejected` (both in the returned summary and in
    /// [`LibraryStats`](super::LibraryStats)) and skips the entry.
    pub fn load_cache_bytes(&self, bytes: &[u8]) -> Result<DiskLoadStats> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(corrupt("bad magic (not a library cache file)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(corrupt(&format!(
                "unsupported schema version {version} (this build reads {VERSION})"
            )));
        }
        let mut out = DiskLoadStats::default();
        for (kind, section) in ALL_ARTIFACT_KINDS.into_iter().zip(self.sections()) {
            let count = r.u64()? as usize;
            // Each entry occupies at least 24 framing bytes; a count that
            // can't fit is structural corruption, not 2^60 stale entries.
            if count > r.remaining() / 24 {
                return Err(corrupt(&format!(
                    "{} section claims {count} entries but only {} bytes remain",
                    kind.name(),
                    r.remaining()
                )));
            }
            for _ in 0..count {
                let key = r.len_prefixed()?;
                let key_fp = r.u64()?;
                let val = r.len_prefixed()?;
                let val_fp = r.u64()?;
                let ok = Fnv::hash_bytes(key) == key_fp
                    && Fnv::hash_bytes(val) == val_fp
                    && section.load(key, val);
                if ok {
                    out.loaded += 1;
                    out.per_kind_loaded[kind as usize] += 1;
                } else {
                    out.stale_rejected += 1;
                    section.reject();
                }
            }
        }
        if r.remaining() != 0 {
            return Err(corrupt(&format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        self.disk_loaded.store(true, Ordering::Relaxed);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArtifactKind, KindStats, LibraryStats, Store};
    use super::*;
    use proptest::prelude::*;
    use sna_cells::{Cell, Technology};
    use sna_spice::units::PS;

    /// Length and FNV-1a hash of the image of
    /// `synthetic_library(&[1.0, 2.5], &[250.0, 900.0], &[4000.0, 8000.0])`.
    const PIN_LEN: usize = 1598;
    const PIN_FNV: u64 = 16_314_442_758_790_980_556;

    /// A small but fully-populated library: one artifact of every kind.
    fn populated_library() -> NoiseModelLibrary {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech.clone(), 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        lib.load_curve(&cell, &mode, &opts).unwrap();
        lib.holding_resistance(&cell, &mode, &opts).unwrap();
        lib.propagated_table(&cell, &mode, 30e-15, &opts).unwrap();
        lib.thevenin(&cell, true, 60.0 * PS, &TheveninLoad::Lumped(25e-15), &opts)
            .unwrap();
        lib.nrc(&cell, true, &[200.0 * PS, 400.0 * PS], SolverKind::Auto)
            .unwrap();
        assert_eq!(lib.len(), 5);
        lib
    }

    #[test]
    fn round_trip_every_kind_and_warm_lookups_hit_from_disk() {
        let lib = populated_library();
        let bytes = lib.to_cache_bytes();
        assert_eq!(&bytes[..8], MAGIC);

        let warm = NoiseModelLibrary::new();
        let stats = warm.load_cache_bytes(&bytes).unwrap();
        assert_eq!(stats.loaded, 5);
        assert_eq!(stats.stale_rejected, 0);
        assert_eq!(stats.per_kind_loaded, [1, 1, 1, 1, 1]);
        assert_eq!(warm.len(), 5);

        // The reloaded library serializes to byte-identical contents.
        assert_eq!(warm.to_cache_bytes(), bytes);

        // Every lookup that populated the cold library now hits, with
        // disk provenance, and runs zero characterizations.
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        warm.load_curve(&cell, &mode, &opts).unwrap();
        warm.holding_resistance(&cell, &mode, &opts).unwrap();
        warm.propagated_table(&cell, &mode, 30e-15, &opts).unwrap();
        warm.thevenin(&cell, true, 60.0 * PS, &TheveninLoad::Lumped(25e-15), &opts)
            .unwrap();
        warm.nrc(&cell, true, &[200.0 * PS, 400.0 * PS], SolverKind::Auto)
            .unwrap();
        let st = warm.stats();
        assert_eq!((st.hits, st.misses), (5, 0));
        assert_eq!(st.disk_hits, 5);
        assert_eq!(st.disk_misses, 0);
        for k in ALL_ARTIFACT_KINDS {
            assert_eq!(
                st.kind(k),
                KindStats {
                    hits: 1,
                    misses: 0,
                    disk_hits: 1,
                    ..Default::default()
                }
            );
        }

        // Loaded values equal fresh characterization bit-for-bit: the warm
        // holding resistance matches the cold one exactly.
        let cold_r = lib.holding_resistance(&cell, &mode, &opts).unwrap();
        let warm_r = warm.holding_resistance(&cell, &mode, &opts).unwrap();
        assert_eq!(cold_r.to_bits(), warm_r.to_bits());
    }

    #[test]
    fn misses_after_disk_load_count_as_disk_misses() {
        let lib = populated_library();
        let warm = NoiseModelLibrary::new();
        warm.load_cache_bytes(&lib.to_cache_bytes()).unwrap();
        // An artifact the file does not contain: a different cell.
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        warm.holding_resistance(&cell, &mode, &opts).unwrap();
        let st = warm.stats();
        assert_eq!(st.kind(ArtifactKind::HoldingR).disk_misses, 1);
        assert_eq!(st.disk_misses, 1);
    }

    #[test]
    fn bad_magic_is_a_structural_error() {
        let lib = populated_library();
        let mut bytes = lib.to_cache_bytes();
        bytes[0] ^= 0xff;
        let fresh = NoiseModelLibrary::new();
        let err = fresh.load_cache_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        assert!(fresh.is_empty());
        // An empty file and a short file fail the same way, not panic.
        assert!(fresh.load_cache_bytes(&[]).is_err());
        assert!(fresh.load_cache_bytes(b"SNAL").is_err());
    }

    #[test]
    fn version_mismatch_is_a_structural_error() {
        let lib = populated_library();
        let mut bytes = lib.to_cache_bytes();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let fresh = NoiseModelLibrary::new();
        let err = fresh.load_cache_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(fresh.is_empty());
    }

    #[test]
    fn every_truncation_errs_and_never_panics() {
        let lib = populated_library();
        let bytes = lib.to_cache_bytes();
        // A valid file consumes itself exactly, so *every* strict prefix
        // must hit a structural error (truncation or trailing check).
        for n in 0..bytes.len() {
            let fresh = NoiseModelLibrary::new();
            assert!(
                fresh.load_cache_bytes(&bytes[..n]).is_err(),
                "prefix of {n} bytes unexpectedly loaded"
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let lib = populated_library();
        let bytes = lib.to_cache_bytes();
        for i in (12..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x5a;
            let fresh = NoiseModelLibrary::new();
            // Either a structural error or a per-entry stale rejection —
            // never a panic, and never more entries than the original.
            if let Ok(stats) = fresh.load_cache_bytes(&corrupt) {
                assert!(stats.loaded <= 5, "offset {i}: loaded {}", stats.loaded);
            }
        }
    }

    #[test]
    fn fingerprint_stale_entry_is_rejected_then_recomputed() {
        // One NRC-only library gives a file whose single payload is easy
        // to locate: [magic 8][ver 4][4 empty sections 32][count 8]
        // [key_len 4][key][key_fp 8][val_len 4][val][val_fp 8].
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let lib = NoiseModelLibrary::new();
        let widths = [200.0 * PS, 400.0 * PS];
        lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        let mut bytes = lib.to_cache_bytes();
        let key_len = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
        let val_start = 56 + key_len + 8 + 4;
        bytes[val_start] ^= 0xff; // corrupt the payload, not its checksum

        let fresh = NoiseModelLibrary::new();
        let stats = fresh.load_cache_bytes(&bytes).unwrap();
        assert_eq!(stats.loaded, 0);
        assert_eq!(stats.stale_rejected, 1);
        assert!(fresh.is_empty(), "stale entry must not be served");
        let st = fresh.stats();
        assert_eq!(st.stale_rejected, 1);
        assert_eq!(st.kind(ArtifactKind::Nrc).stale_rejected, 1);

        // First use recomputes — and matches the uncorrupted original.
        let a = lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        let b = fresh.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        assert_eq!(fresh.stats().kind(ArtifactKind::Nrc).misses, 1);
        assert_eq!(a.fail_heights, b.fail_heights);
    }

    #[test]
    fn in_memory_entries_win_over_disk_duplicates() {
        let lib = populated_library();
        let bytes = lib.to_cache_bytes();
        // Load the file into the *same* library: every key collides with a
        // fresh in-memory entry, which must be kept.
        let stats = lib.load_cache_bytes(&bytes).unwrap();
        assert_eq!(stats.loaded, 5);
        assert_eq!(lib.len(), 5);
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        lib.holding_resistance(&cell, &mode, &opts).unwrap();
        // The hit is served by the original in-process entry: no disk_hit.
        assert_eq!(lib.stats().kind(ArtifactKind::HoldingR).disk_hits, 0);
    }

    #[test]
    fn delta_carries_disk_provenance() {
        let lib = populated_library();
        let warm = NoiseModelLibrary::new();
        warm.load_cache_bytes(&lib.to_cache_bytes()).unwrap();
        let before = warm.stats();
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        warm.holding_resistance(&cell, &mode, &opts).unwrap();
        let d = LibraryStats::delta(&warm.stats(), &before);
        assert_eq!(d.disk_hits, 1);
        assert_eq!(d.kind(ArtifactKind::HoldingR).disk_hits, 1);
    }

    /// A table from literals: `x` × `y` axes, values `base + i` in order.
    fn literal_table(x: &[f64], y: &[f64], base: f64) -> Table2d {
        let values = (0..x.len() * y.len()).map(|i| base + i as f64).collect();
        Table2d::new(x.to_vec(), y.to_vec(), values).unwrap()
    }

    /// Fill `key` of `store` with `value`, as a characterization would.
    fn put<V>(store: &Store<V>, key: Vec<u8>, value: V) {
        let _ = store.slot(key).value.set((value, false));
    }

    /// Synthetic libraries for the round-trip property and the format pin:
    /// one load curve and one propagated-noise table, plus an NRC, a
    /// Thevenin fit and a holding resistance per strength (as far as
    /// `rths` and `holding` reach), all built from literals and filled
    /// directly, without paying for characterization.
    fn synthetic_library(strengths: &[f64], rths: &[f64], holding: &[f64]) -> NoiseModelLibrary {
        let lib = NoiseModelLibrary::new();
        let tech = Technology::cmos130();
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let mode = DriverMode {
            noisy_input: 0,
            input_levels: vec![0.0, 1.2],
            output_level: 1.2,
        };
        let cell = Cell::nand2(tech.clone(), 1.0);
        let axis = [0.0, 0.6, 1.2];
        let curve = LoadCurve {
            table: literal_table(&axis, &axis, -4e-4),
            mode: mode.clone(),
            vdd: 1.2,
            c_out: 2e-15,
            c_miller: 1e-15,
        };
        put(
            &lib.load_curves,
            cell_key(&cell, &mode, &opts),
            Arc::new(curve),
        );
        let (h, w) = ([0.3, 0.6], [150.0 * PS, 300.0 * PS]);
        let table = PropagatedNoiseTable {
            peak: literal_table(&h, &w, 0.1),
            width50: literal_table(&h, &w, 1e-10),
            area: literal_table(&h, &w, 2e-11),
            delay: literal_table(&h, &w, 3e-11),
            mode: mode.clone(),
            vdd: 1.2,
            load_cap: 30e-15,
            output_polarity: 1.0,
        };
        put(
            &lib.prop_tables,
            prop_key(&cell, &mode, &opts, -170),
            Arc::new(table),
        );
        for (i, &s) in strengths.iter().enumerate() {
            let cell = Cell::inv(tech.clone(), s);
            let widths = [100.0 * PS, 200.0 * PS];
            let curve = NoiseRejectionCurve {
                widths: widths.to_vec(),
                fail_heights: vec![0.3 + s, 0.2 + s],
                vdd: 1.2,
            };
            let key = nrc_key(&cell, i % 2 == 0, &widths, SolverKind::Auto);
            put(&lib.nrcs, key, Arc::new(curve));
            if let Some(&rth) = rths.get(i) {
                let load = TheveninLoad::Pi {
                    c_near: 10e-15 + s * 1e-15,
                    r: 40.0,
                    c_far: 0.0,
                };
                let th = TheveninDriver {
                    rth,
                    wave: SourceWaveform::Ramp {
                        v0: 0.0,
                        v1: 1.2,
                        t_start: 0.0,
                        t_rise: 80.0 * PS,
                    },
                    rising: i % 2 == 1,
                    vdd: 1.2,
                };
                let key = thevenin_key(&cell, i % 2 == 1, 50.0 * PS, &load, &opts);
                put(&lib.thevenins, key, Arc::new(th));
            }
            if let Some(&r) = holding.get(i) {
                put(&lib.holding, cell_key(&cell, &mode, &opts), r);
            }
        }
        lib
    }

    #[test]
    fn image_bytes_are_pinned() {
        // One entry of every kind and a second of three; the length and
        // hash are those an image of the same library had before the keys
        // became their own bytes, so any drift in the format shows here.
        let lib = synthetic_library(&[1.0, 2.5], &[250.0, 900.0], &[4000.0, 8000.0]);
        assert_eq!(lib.len(), 8);
        let bytes = lib.to_cache_bytes();
        assert_eq!((bytes.len(), Fnv::hash_bytes(&bytes)), (PIN_LEN, PIN_FNV));
        let reloaded = NoiseModelLibrary::new();
        let stats = reloaded.load_cache_bytes(&bytes).unwrap();
        assert_eq!(stats.per_kind_loaded, [1, 2, 1, 2, 2]);
        assert_eq!(reloaded.to_cache_bytes(), bytes);
    }

    #[test]
    fn keys_that_do_not_parse_are_stale() {
        let lib = synthetic_library(&[1.0], &[250.0], &[4000.0]);
        let bytes = lib.to_cache_bytes();
        // Rewrite every key's cell tag ("inv" and "nand2" alike) to an
        // unknown one of the same length, and re-seal the fingerprints.
        let mut r = ByteReader::new(&bytes);
        let mut w = ByteWriter::new();
        w.bytes(r.take(12).unwrap());
        for _ in ALL_ARTIFACT_KINDS {
            let count = r.u64().unwrap();
            let entries = (0..count)
                .map(|_| {
                    let mut key = r.len_prefixed().unwrap().to_vec();
                    r.u64().unwrap();
                    let val = r.len_prefixed().unwrap().to_vec();
                    r.u64().unwrap();
                    // The tag's first byte: after the name, the fingerprint
                    // and the tag's length.
                    let name_len = u32::from_le_bytes(key[..4].try_into().unwrap());
                    key[4 + name_len as usize + 8 + 4] = b'x';
                    (key, val)
                })
                .collect();
            write_section(&mut w, entries);
        }
        let fresh = NoiseModelLibrary::new();
        let stats = fresh.load_cache_bytes(&w.into_bytes()).unwrap();
        assert_eq!((stats.loaded, stats.stale_rejected), (0, 5));
        assert!(fresh.is_empty());
        assert_eq!(fresh.stats().stale_rejected, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `save(load(save(lib))) == save(lib)` byte-for-byte, with no
        /// entries lost or rejected, on randomized synthetic libraries.
        #[test]
        fn prop_round_trip_is_lossless(
            strengths in proptest::collection::vec(0.5f64..8.0, 1..6),
            rths in proptest::collection::vec(10.0f64..5000.0, 1..6),
            holding in proptest::collection::vec(100.0f64..20000.0, 1..6),
        ) {
            let lib = synthetic_library(&strengths, &rths, &holding);
            let bytes = lib.to_cache_bytes();
            let reloaded = NoiseModelLibrary::new();
            let stats = reloaded.load_cache_bytes(&bytes).unwrap();
            prop_assert_eq!(stats.stale_rejected, 0);
            prop_assert_eq!(stats.loaded, lib.len());
            prop_assert_eq!(reloaded.len(), lib.len());
            prop_assert_eq!(reloaded.to_cache_bytes(), bytes);
        }
    }
}
