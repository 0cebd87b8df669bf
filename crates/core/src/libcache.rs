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
//! Keys are the in-memory cache keys (which embed FNV fingerprints of the
//! full `Technology` and `CharacterizeOptions` — the `TranWorkspace`
//! fingerprint discipline), so an entry characterized under one technology
//! or tolerance set can never be served under another.
//!
//! ## Failure semantics
//!
//! * **Structural** problems — bad magic, unsupported version, truncation,
//!   trailing garbage — abort the load with an error. The caller logs a
//!   diagnostic and proceeds cold; already-validated entries stay usable.
//! * **Per-entry** problems — a fingerprint mismatch or a payload that
//!   fails semantic validation (e.g. a non-monotonic table axis, an
//!   unknown cell tag from a newer library) — reject just that entry,
//!   count it as `stale_rejected`, and continue. A stale entry is
//!   recomputed on first use; it is **never** served.
//!
//! Saving sorts entries by key bytes, so the file is a deterministic
//! function of the cache contents: `save(load(save(lib))) == save(lib)`
//! byte-for-byte (property-tested below), and repeated runs produce
//! `cmp`-equal cache files.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sna_cells::characterize::{LoadCurve, PropagatedNoiseTable, TheveninDriver};
use sna_cells::{CellType, DriverMode};
use sna_spice::devices::{SourceWaveform, Table2d};
use sna_spice::error::{Error, Result};
use sna_spice::fnv::Fnv;

use super::{
    ArtifactKind, CellIdent, CellKey, Entry, NoiseModelLibrary, NrcKey, TheveninKey,
    ALL_ARTIFACT_KINDS, ARTIFACT_KIND_COUNT,
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
    /// Inserted entries per [`ArtifactKind`], indexed by discriminant.
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

    fn u64_slice(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
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

    fn u64_vec(&mut self) -> Result<Vec<u64>> {
        let n = self.u32()? as usize;
        if n > self.remaining() / 8 {
            return Err(corrupt("u64 vector length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.u64()).collect()
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
// Key encodings
// ---------------------------------------------------------------------------

fn intern_cell_tag(s: &str) -> Result<&'static str> {
    for t in [
        CellType::Inv,
        CellType::Buf,
        CellType::Nand2,
        CellType::Nor2,
        CellType::Aoi21,
    ] {
        if t.tag() == s {
            return Ok(t.tag());
        }
    }
    Err(corrupt(&format!("unknown cell tag {s:?}")))
}

fn encode_ident(w: &mut ByteWriter, ident: &CellIdent) {
    w.str(&ident.tech);
    w.u64(ident.tech_fp);
    w.str(ident.cell_tag);
    w.u64(ident.strength_bits);
}

fn decode_ident(r: &mut ByteReader) -> Result<CellIdent> {
    let tech = r.str()?;
    let tech_fp = r.u64()?;
    let cell_tag = intern_cell_tag(&r.str()?)?;
    let strength_bits = r.u64()?;
    Ok(CellIdent {
        tech,
        tech_fp,
        cell_tag,
        strength_bits,
    })
}

fn encode_cell_key(key: &CellKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_ident(&mut w, &key.ident);
    w.u64(key.noisy_input as u64);
    w.u64_slice(&key.level_bits);
    w.u64(key.opts_fp);
    w.into_bytes()
}

fn decode_cell_key(r: &mut ByteReader) -> Result<CellKey> {
    let ident = decode_ident(r)?;
    let noisy_input = r.u64()? as usize;
    let level_bits = r.u64_vec()?;
    let opts_fp = r.u64()?;
    Ok(CellKey {
        ident,
        noisy_input,
        level_bits,
        opts_fp,
    })
}

fn encode_prop_key(key: &(CellKey, i32)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&encode_cell_key(&key.0));
    w.u64(key.1 as i64 as u64);
    w.into_bytes()
}

fn decode_prop_key(r: &mut ByteReader) -> Result<(CellKey, i32)> {
    let key = decode_cell_key(r)?;
    let bucket = r.u64()? as i64 as i32;
    Ok((key, bucket))
}

fn encode_thevenin_key(key: &TheveninKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_ident(&mut w, &key.ident);
    w.bool(key.rising);
    w.u64(key.slew_bits);
    for b in key.load_bits {
        w.u64(b);
    }
    w.u64(key.opts_fp);
    w.into_bytes()
}

fn decode_thevenin_key(r: &mut ByteReader) -> Result<TheveninKey> {
    let ident = decode_ident(r)?;
    let rising = r.bool()?;
    let slew_bits = r.u64()?;
    let mut load_bits = [0u64; 4];
    for b in &mut load_bits {
        *b = r.u64()?;
    }
    let opts_fp = r.u64()?;
    Ok(TheveninKey {
        ident,
        rising,
        slew_bits,
        load_bits,
        opts_fp,
    })
}

fn encode_nrc_key(key: &NrcKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_ident(&mut w, &key.ident);
    w.bool(key.input_low);
    w.u64_slice(&key.width_bits);
    w.u8(key.solver.0);
    w.u64(key.solver.1);
    w.into_bytes()
}

fn decode_nrc_key(r: &mut ByteReader) -> Result<NrcKey> {
    let ident = decode_ident(r)?;
    let input_low = r.bool()?;
    let width_bits = r.u64_vec()?;
    let solver = (r.u8()?, r.u64()?);
    Ok(NrcKey {
        ident,
        input_low,
        width_bits,
        solver,
    })
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
// Save / load
// ---------------------------------------------------------------------------

fn write_section(w: &mut ByteWriter, mut entries: Vec<(Vec<u8>, Vec<u8>)>) {
    // Sorting by key bytes makes the file a deterministic function of the
    // cache *contents*, independent of shard iteration order.
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

        let mut entries = Vec::new();
        self.load_curves.for_each(|k, v| {
            entries.push((encode_cell_key(k), encode_load_curve(&v.value)));
        });
        write_section(&mut w, std::mem::take(&mut entries));

        self.holding.for_each(|k, v| {
            let mut vw = ByteWriter::new();
            vw.f64(v.value);
            entries.push((encode_cell_key(k), vw.into_bytes()));
        });
        write_section(&mut w, std::mem::take(&mut entries));

        self.prop_tables.for_each(|k, v| {
            entries.push((encode_prop_key(k), encode_prop_table(&v.value)));
        });
        write_section(&mut w, std::mem::take(&mut entries));

        self.thevenins.for_each(|k, v| {
            if let Some(bytes) = encode_thevenin(&v.value) {
                entries.push((encode_thevenin_key(k), bytes));
            }
        });
        write_section(&mut w, std::mem::take(&mut entries));

        self.nrcs.for_each(|k, v| {
            entries.push((encode_nrc_key(k), encode_nrc(&v.value)));
        });
        write_section(&mut w, entries);

        w.into_bytes()
    }

    /// Validate and insert one entry; `false` means stale (skip it).
    fn insert_cache_entry(&self, kind: ArtifactKind, key: &[u8], val: &[u8]) -> bool {
        match kind {
            ArtifactKind::LoadCurve => {
                match (
                    decode_exact(key, decode_cell_key),
                    decode_exact(val, decode_load_curve),
                ) {
                    (Some(k), Some(v)) => {
                        self.load_curves
                            .insert_if_absent(k, Entry::disk(Arc::new(v)));
                        true
                    }
                    _ => false,
                }
            }
            ArtifactKind::HoldingR => {
                match (
                    decode_exact(key, decode_cell_key),
                    decode_exact(val, |r| finite(r.f64()?)),
                ) {
                    (Some(k), Some(v)) => {
                        self.holding.insert_if_absent(k, Entry::disk(v));
                        true
                    }
                    _ => false,
                }
            }
            ArtifactKind::PropTable => {
                match (
                    decode_exact(key, decode_prop_key),
                    decode_exact(val, decode_prop_table),
                ) {
                    (Some(k), Some(v)) => {
                        self.prop_tables
                            .insert_if_absent(k, Entry::disk(Arc::new(v)));
                        true
                    }
                    _ => false,
                }
            }
            ArtifactKind::Thevenin => {
                match (
                    decode_exact(key, decode_thevenin_key),
                    decode_exact(val, decode_thevenin),
                ) {
                    (Some(k), Some(v)) => {
                        self.thevenins.insert_if_absent(k, Entry::disk(Arc::new(v)));
                        true
                    }
                    _ => false,
                }
            }
            ArtifactKind::Nrc => {
                match (
                    decode_exact(key, decode_nrc_key),
                    decode_exact(val, decode_nrc),
                ) {
                    (Some(k), Some(v)) => {
                        self.nrcs.insert_if_absent(k, Entry::disk(Arc::new(v)));
                        true
                    }
                    _ => false,
                }
            }
        }
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
        for kind in ALL_ARTIFACT_KINDS {
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
                    && self.insert_cache_entry(kind, key, val);
                if ok {
                    out.loaded += 1;
                    out.per_kind_loaded[kind as usize] += 1;
                } else {
                    out.stale_rejected += 1;
                    self.record_stale(kind);
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
    use super::super::{tech_fingerprint, KindStats, LibraryStats};
    use super::*;
    use proptest::prelude::*;
    use sna_cells::characterize::{CharacterizeOptions, TheveninLoad};
    use sna_cells::{Cell, Technology};
    use sna_spice::solver::SolverKind;
    use sna_spice::units::PS;

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

    /// Synthetic libraries for the round-trip property: entries inserted
    /// directly into the maps, exercising arbitrary values without paying
    /// for characterization in each proptest case.
    fn synthetic_library(strengths: &[f64], rths: &[f64], holding: &[f64]) -> NoiseModelLibrary {
        let lib = NoiseModelLibrary::new();
        let tech = Technology::cmos130();
        let tech_fp = tech_fingerprint(&tech);
        for (i, &s) in strengths.iter().enumerate() {
            let ident = CellIdent {
                tech: tech.name.clone(),
                tech_fp,
                cell_tag: CellType::Inv.tag(),
                strength_bits: s.to_bits(),
            };
            let key = NrcKey {
                ident: ident.clone(),
                input_low: i % 2 == 0,
                width_bits: vec![(100.0 * PS).to_bits(), (200.0 * PS).to_bits()],
                solver: (0, 0),
            };
            let curve = NoiseRejectionCurve {
                widths: vec![100.0 * PS, 200.0 * PS],
                fail_heights: vec![0.3 + s, 0.2 + s],
                vdd: 1.2,
            };
            lib.nrcs
                .insert_if_absent(key, Entry::fresh(Arc::new(curve)));
            if let Some(&rth) = rths.get(i) {
                let tk = TheveninKey {
                    ident: ident.clone(),
                    rising: i % 2 == 1,
                    slew_bits: (50.0 * PS).to_bits(),
                    load_bits: [1, (10e-15 + s * 1e-15).to_bits(), 40.0f64.to_bits(), 0],
                    opts_fp: 7,
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
                lib.thevenins
                    .insert_if_absent(tk, Entry::fresh(Arc::new(th)));
            }
            if let Some(&r) = holding.get(i) {
                let ck = CellKey {
                    ident,
                    noisy_input: 0,
                    level_bits: vec![0u64, 1.2f64.to_bits()],
                    opts_fp: 11,
                };
                lib.holding.insert_if_absent(ck, Entry::fresh(r));
            }
        }
        lib
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
