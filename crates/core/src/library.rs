//! Characterization cache shared across clusters, threads — and runs.
//!
//! The paper's pre-characterization step ("performed … during a
//! pre-characterization step", §2) is meant to run **once per library
//! cell**, not once per net: a design has millions of nets but only
//! hundreds of (cell, drive-state) pairs. [`NoiseModelLibrary`] memoizes
//! all five per-cell artifacts —
//!
//! * the Eq. (1) load curve (exact reuse: it depends only on the cell,
//!   its drive state, and the characterization options),
//! * the holding resistance (exact reuse),
//! * the propagated-noise table (reused across *similar* output loads:
//!   loads are quantized into ×1.2 geometric buckets, matching the
//!   load-binning practice of commercial characterization flows),
//! * Thevenin aggressor fits (exact reuse keyed by the aggressor's Π
//!   load bits — rarely shared *within* one design, whose Π values are
//!   continuous, but hit exactly across repeated runs of the same
//!   design, which is what the persistent cache serves),
//! * noisy-receiver rejection curves (exact reuse per receiver cell,
//!   width grid, and solver),
//!
//! so an SNA run over a whole design pays characterization costs
//! proportional to library diversity, not design size.
//!
//! An artifact's key *is* its `sna-libcache-v1` key bytes (see [`cache`]):
//! the technology name, cell, drive state and load, plus FNV-1a
//! fingerprints of the full [`Technology`] and [`CharacterizeOptions`]
//! (the same fingerprint discipline `sna_spice::tran::TranWorkspace` uses
//! to reject stale reuse). Every field is fixed-width or length-prefixed,
//! so two lookups share an artifact exactly when their inputs agree; two
//! technologies that share a name but differ in any model parameter never
//! alias, and a cache persisted to disk is validated entry by entry at
//! load time without decoding its keys into anything else.
//!
//! Each kind lives in one store: a `RwLock<HashMap>` from key bytes to
//! slot, locked only to find or add a slot, plus that kind's atomic
//! hit/miss counters. A parallel flow (`sna-flow`) therefore shares one
//! library by `&` reference across worker threads, and characterization
//! runs outside every lock. Lookups are single-flight per key: of
//! the threads that miss one cold key together, the first characterizes it
//! and counts the miss while the rest wait for it and count hits, so every
//! artifact is characterized once and the hit/miss counts do not depend on
//! the thread count. A failed characterization is not cached; the next
//! caller retries it. Entries remember whether they came off disk,
//! so [`LibraryStats`] can split hits into warm-process hits and
//! `disk_hits`, and count `disk_misses` (artifacts a loaded cache did not
//! contain) and `stale_rejected` (on-disk entries refused at load time).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use sna_cells::characterize::{
    characterize_load_curve, characterize_propagated_noise_with, characterize_thevenin_with,
    holding_resistance, prop_table, CharacterizeOptions, LoadCurve, PropagatedNoiseTable,
    TheveninDriver, TheveninLoad,
};
use sna_cells::{Cell, DriverMode, Technology};
use sna_obs::{phase_span, Phase};
use sna_spice::devices::{MosPolarity, MosfetModel};
use sna_spice::error::{Error, Result};
use sna_spice::fnv::Fnv;
use sna_spice::solver::SolverKind;

use crate::nrc::{characterize_nrc_with, NoiseRejectionCurve};

#[path = "libcache.rs"]
pub mod cache;

use cache::Codec;

/// Stable `(tag, argument)` encoding of a [`SolverKind`] for fingerprints
/// and the on-disk cache format. Tag 1 (with a crossover argument) belonged
/// to a removed tunable-threshold variant and stays reserved, so existing
/// fingerprints and cache files keep their bytes.
fn solver_code(solver: SolverKind) -> (u8, u64) {
    match solver {
        SolverKind::Auto => (0, 0),
        SolverKind::Dense => (2, 0),
        SolverKind::Sparse => (3, 0),
    }
}

fn write_mosfet(h: &mut Fnv, m: &MosfetModel) {
    h.write_u8(match m.polarity {
        MosPolarity::Nmos => 0,
        MosPolarity::Pmos => 1,
    });
    for v in [
        m.vt0, m.kp, m.lambda, m.gamma, m.phi, m.cox, m.cgso, m.cgdo, m.cj,
    ] {
        h.write_f64(v);
    }
}

/// FNV-1a fingerprint of every model parameter of a [`Technology`].
///
/// Keys embed this alongside the technology *name*, so two corners that
/// happen to share a name but differ in any device or metal parameter can
/// never alias in the cache — the same guarantee that makes one library
/// safely shareable across a multi-corner sweep.
pub fn tech_fingerprint(tech: &Technology) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&tech.name);
    h.write_f64(tech.vdd);
    h.write_f64(tech.l_min);
    write_mosfet(&mut h, &tech.nmos);
    write_mosfet(&mut h, &tech.pmos);
    h.write_f64(tech.wn_unit);
    h.write_f64(tech.wp_unit);
    h.write_usize(tech.metals.len());
    for m in &tech.metals {
        h.write_u8(m.level);
        h.write_f64(m.r_per_m);
        h.write_f64(m.cg_per_m);
        h.write_f64(m.cc_per_m);
    }
    h.finish()
}

/// FNV-1a fingerprint of the characterization options that affect artifact
/// *values*: the voltage grid and every Newton tolerance.
fn opts_fingerprint(opts: &CharacterizeOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(opts.grid);
    h.write_f64(opts.v_min_frac);
    h.write_f64(opts.v_max_frac);
    h.write_usize(opts.newton.max_iter);
    h.write_f64(opts.newton.vntol);
    h.write_f64(opts.newton.reltol);
    h.write_f64(opts.newton.abstol);
    h.write_f64(opts.newton.max_step);
    let (tag, arg) = solver_code(opts.newton.solver);
    h.write_u8(tag);
    h.write_u64(arg);
    h.finish()
}

/// Geometric load bucket (×1.2 steps) for propagated-noise tables.
///
/// # Errors
///
/// Rejects non-positive or non-finite capacitances: `ln` of those yields a
/// garbage bucket (and previously only a `debug_assert!` guarded this, so
/// release builds silently cached tables at meaningless loads).
fn load_bucket(cap: f64) -> Result<i32> {
    if !cap.is_finite() || cap <= 0.0 {
        return Err(Error::InvalidAnalysis(format!(
            "propagated-noise load capacitance must be positive and finite, got {cap:e}"
        )));
    }
    Ok((cap.ln() / 1.2_f64.ln()).round() as i32)
}

/// Representative capacitance of a bucket (its geometric center).
fn bucket_cap(bucket: i32) -> f64 {
    1.2_f64.powi(bucket)
}

/// Kinds of characterization artifacts the cache distinguishes.
///
/// Each kind has one store in the library and one section in an on-disk
/// `sna-libcache-v1` image (see [`cache`]), in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ArtifactKind {
    /// Eq. (1) load curves.
    LoadCurve = 0,
    /// Holding resistances.
    HoldingR = 1,
    /// Propagated-noise tables.
    PropTable = 2,
    /// Thevenin aggressor fits (keyed by the exact Π load bits).
    Thevenin = 3,
    /// Noisy-receiver rejection curves.
    Nrc = 4,
}

/// Number of [`ArtifactKind`] variants.
pub const ARTIFACT_KIND_COUNT: usize = 5;

/// Every [`ArtifactKind`], in index order.
pub const ALL_ARTIFACT_KINDS: [ArtifactKind; ARTIFACT_KIND_COUNT] = [
    ArtifactKind::LoadCurve,
    ArtifactKind::HoldingR,
    ArtifactKind::PropTable,
    ArtifactKind::Thevenin,
    ArtifactKind::Nrc,
];

impl ArtifactKind {
    /// Stable snake_case name, used as a JSON key in metrics documents.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::LoadCurve => "load_curve",
            ArtifactKind::HoldingR => "holding_r",
            ArtifactKind::PropTable => "prop_table",
            ArtifactKind::Thevenin => "thevenin",
            ArtifactKind::Nrc => "nrc",
        }
    }
}

/// Hit/miss counts for one artifact kind, with on-disk-cache provenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Cache hits (in-process *and* disk-loaded entries).
    pub hits: usize,
    /// Cache misses (characterizations actually run).
    pub misses: usize,
    /// The subset of `hits` served by entries loaded from an on-disk
    /// `sna-libcache-v1` file.
    pub disk_hits: usize,
    /// The subset of `misses` that occurred while a disk cache was loaded
    /// — artifacts the file did not contain.
    pub disk_misses: usize,
    /// On-disk entries rejected at load time (fingerprint mismatch or
    /// semantic validation failure); each was recomputed on first use.
    pub stale_rejected: usize,
}

impl KindStats {
    /// Field-wise `op(self, other)`.
    fn zip(self, other: KindStats, op: fn(usize, usize) -> usize) -> KindStats {
        KindStats {
            hits: op(self.hits, other.hits),
            misses: op(self.misses, other.misses),
            disk_hits: op(self.disk_hits, other.disk_hits),
            disk_misses: op(self.disk_misses, other.disk_misses),
            stale_rejected: op(self.stale_rejected, other.stale_rejected),
        }
    }
}

/// Cache statistics: per-artifact-kind hit/miss breakdown plus the totals
/// derived from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Cache hits across all artifact kinds (sum of `by_kind` hits).
    pub hits: usize,
    /// Cache misses across all kinds (sum of `by_kind` misses).
    pub misses: usize,
    /// Disk-served hits across all kinds (sum of `by_kind` disk_hits).
    pub disk_hits: usize,
    /// Misses with a disk cache loaded (sum of `by_kind` disk_misses).
    pub disk_misses: usize,
    /// On-disk entries rejected at load time (sum over kinds).
    pub stale_rejected: usize,
    /// Hit/miss breakdown per [`ArtifactKind`], indexed by discriminant.
    pub by_kind: [KindStats; ARTIFACT_KIND_COUNT],
}

impl LibraryStats {
    /// The stats of a per-kind breakdown: its totals are summed from it.
    fn from_kinds(by_kind: [KindStats; ARTIFACT_KIND_COUNT]) -> LibraryStats {
        let total = by_kind
            .iter()
            .fold(KindStats::default(), |acc, &k| acc.zip(k, |a, b| a + b));
        LibraryStats {
            hits: total.hits,
            misses: total.misses,
            disk_hits: total.disk_hits,
            disk_misses: total.disk_misses,
            stale_rejected: total.stale_rejected,
            by_kind,
        }
    }

    /// Hit/miss counts for one artifact kind.
    pub fn kind(&self, kind: ArtifactKind) -> KindStats {
        self.by_kind[kind as usize]
    }

    /// Counter delta `after − before` (saturating). Used by multi-corner
    /// flows sharing one persistent library to report only the work a
    /// single corner added.
    pub fn delta(after: &LibraryStats, before: &LibraryStats) -> LibraryStats {
        Self::from_kinds(std::array::from_fn(|i| {
            after.by_kind[i].zip(before.by_kind[i], usize::saturating_sub)
        }))
    }

    /// Counter sum of several stats: the work of all corners of a run that
    /// share one library, each given as its [`LibraryStats::delta`].
    pub fn sum<'a>(stats: impl IntoIterator<Item = &'a LibraryStats>) -> LibraryStats {
        let mut by_kind = [KindStats::default(); ARTIFACT_KIND_COUNT];
        for st in stats {
            for (acc, &k) in by_kind.iter_mut().zip(&st.by_kind) {
                *acc = acc.zip(k, |a, b| a + b);
            }
        }
        Self::from_kinds(by_kind)
    }
}

/// One key's place in a [`Store`]: empty until the key's first
/// characterization succeeds (or a disk load fills it). `fill` is held
/// while characterizing, so racing callers of the same key wait for the
/// first one instead of repeating its work.
#[derive(Debug)]
struct Slot<V> {
    /// The artifact, and whether it came off disk.
    value: OnceLock<(V, bool)>,
    fill: Mutex<()>,
}

/// The artifacts of one kind, keyed by their `sna-libcache-v1` key bytes,
/// with the kind's counters and its image [`Codec`]. The map lock is held
/// only to find or add a slot.
#[derive(Debug)]
struct Store<V: 'static> {
    codec: &'static Codec<V>,
    slots: RwLock<HashMap<Vec<u8>, Arc<Slot<V>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
    stale_rejected: AtomicUsize,
}

impl<V> Store<V> {
    fn new(codec: &'static Codec<V>) -> Self {
        Store {
            codec,
            slots: RwLock::default(),
            hits: AtomicUsize::default(),
            misses: AtomicUsize::default(),
            disk_hits: AtomicUsize::default(),
            disk_misses: AtomicUsize::default(),
            stale_rejected: AtomicUsize::default(),
        }
    }

    /// The slot for `key`, added empty if the key is new.
    fn slot(&self, key: Vec<u8>) -> Arc<Slot<V>> {
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get(&key) {
            return Arc::clone(slot);
        }
        drop(slots);
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(slots.entry(key).or_insert_with(|| {
            Arc::new(Slot {
                value: OnceLock::new(),
                fill: Mutex::new(()),
            })
        }))
    }
}

/// A [`Store`] with its value type erased, so the library counts, sizes,
/// saves and loads its five kinds alike.
trait Section: Sync {
    /// The kind's counters.
    fn stats(&self) -> KindStats;
    /// Number of filled entries.
    fn len(&self) -> usize;
    /// Every filled entry as `(key bytes, value bytes)`, in no particular
    /// order, leaving out values an image does not hold.
    fn encoded(&self) -> Vec<(Vec<u8>, Vec<u8>)>;
    /// Validate one image entry and fill its key from it, unless the key
    /// is filled already; `false` means the entry is stale.
    fn load(&self, key: &[u8], val: &[u8]) -> bool;
    /// Count one stale image entry.
    fn reject(&self);
}

impl<V: Send + Sync> Section for Store<V> {
    fn stats(&self) -> KindStats {
        let get = |n: &AtomicUsize| n.load(Ordering::Relaxed);
        KindStats {
            hits: get(&self.hits),
            misses: get(&self.misses),
            disk_hits: get(&self.disk_hits),
            disk_misses: get(&self.disk_misses),
            stale_rejected: get(&self.stale_rejected),
        }
    }

    fn len(&self) -> usize {
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        slots.values().filter(|s| s.value.get().is_some()).count()
    }

    fn encoded(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .filter_map(|(key, slot)| {
                let (value, _) = slot.value.get()?;
                Some((key.clone(), (self.codec.encode)(value)?))
            })
            .collect()
    }

    fn load(&self, key: &[u8], val: &[u8]) -> bool {
        if !(self.codec.key_ok)(key) {
            return false;
        }
        let Some(value) = (self.codec.decode)(val) else {
            return false;
        };
        // An `Err` means the key was filled first; that value stays.
        let _ = self.slot(key.to_vec()).value.set((value, true));
        true
    }

    fn reject(&self) {
        self.stale_rejected.fetch_add(1, Ordering::Relaxed);
    }
}

/// Memoizing store of per-cell noise-characterization artifacts.
///
/// All methods take `&self`: the library is safe to share across threads
/// (wrap it in an `Arc` or borrow it from a scoped thread) and serves as
/// the shared characterization cache of the parallel `sna-flow` driver.
/// See [`cache`] for on-disk persistence (`sna-libcache-v1`).
#[derive(Debug)]
pub struct NoiseModelLibrary {
    load_curves: Store<Arc<LoadCurve>>,
    holding: Store<f64>,
    prop_tables: Store<Arc<PropagatedNoiseTable>>,
    thevenins: Store<Arc<TheveninDriver>>,
    nrcs: Store<Arc<NoiseRejectionCurve>>,
    /// Set once an on-disk cache file has been loaded (even an empty one):
    /// from then on every miss also counts as a `disk_miss`.
    disk_loaded: AtomicBool,
}

impl Default for NoiseModelLibrary {
    fn default() -> Self {
        NoiseModelLibrary {
            load_curves: Store::new(&cache::LOAD_CURVES),
            holding: Store::new(&cache::HOLDING_R),
            prop_tables: Store::new(&cache::PROP_TABLES),
            thevenins: Store::new(&cache::THEVENINS),
            nrcs: Store::new(&cache::NRCS),
            disk_loaded: AtomicBool::new(false),
        }
    }
}

impl NoiseModelLibrary {
    /// Create an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stores in [`ArtifactKind`] order, which is also the order of
    /// an image's sections.
    fn sections(&self) -> [&dyn Section; ARTIFACT_KIND_COUNT] {
        [
            &self.load_curves,
            &self.holding,
            &self.prop_tables,
            &self.thevenins,
            &self.nrcs,
        ]
    }

    /// Cache statistics so far (aggregated atomically across threads).
    pub fn stats(&self) -> LibraryStats {
        LibraryStats::from_kinds(self.sections().map(|s| s.stats()))
    }

    /// Number of distinct artifacts stored.
    pub fn len(&self) -> usize {
        self.sections().iter().map(|s| s.len()).sum()
    }

    /// Whether nothing has been characterized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The artifact `store` holds for `key`, characterized on first use.
    /// The caller that finds the key empty characterizes it while holding
    /// the key's `fill` lock (not the map lock) and counts the miss;
    /// callers that race it wait on that lock, then find the value and
    /// count a hit. A failed characterization leaves the key empty, so the
    /// next caller retries it.
    fn get_or_characterize<V: Clone>(
        &self,
        store: &Store<V>,
        key: Vec<u8>,
        characterize: impl FnOnce() -> Result<V>,
    ) -> Result<V> {
        let slot = store.slot(key);
        // An empty key may be mid-characterization by a racer: wait for it.
        // The lock guards no data, so a poisoned one is safe to take over.
        let _fill = slot
            .value
            .get()
            .is_none()
            .then(|| slot.fill.lock().unwrap_or_else(PoisonError::into_inner));
        if let Some((value, from_disk)) = slot.value.get() {
            store.hits.fetch_add(1, Ordering::Relaxed);
            if *from_disk {
                store.disk_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(value.clone());
        }
        store.misses.fetch_add(1, Ordering::Relaxed);
        if self.disk_loaded.load(Ordering::Relaxed) {
            store.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        let value = characterize()?;
        // A disk load may have filled the key meanwhile; its value wins.
        Ok(slot.value.get_or_init(|| (value, false)).0.clone())
    }

    /// The Eq. (1) load curve for `(cell, mode)` at the grid in `opts`,
    /// characterized on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures (which are then *not* cached).
    pub fn load_curve(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<LoadCurve>> {
        let key = cache::cell_key(cell, mode, opts);
        self.get_or_characterize(&self.load_curves, key, || {
            let _t = phase_span(Phase::LoadCurve);
            Ok(Arc::new(characterize_load_curve(cell, mode, opts)?))
        })
    }

    /// Holding resistance for `(cell, mode)`, characterized on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn holding_resistance(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        opts: &CharacterizeOptions,
    ) -> Result<f64> {
        let key = cache::cell_key(cell, mode, opts);
        self.get_or_characterize(&self.holding, key, || {
            let _t = phase_span(Phase::HoldingR);
            holding_resistance(cell, mode, &opts.newton)
        })
    }

    /// Propagated-noise table for `(cell, mode)` at the load bucket
    /// containing `load_cap`. The characterization runs at the bucket's
    /// representative load, so all nets in the same ×1.2 bucket share one
    /// table.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite `load_cap`; propagates
    /// characterization failures.
    pub fn propagated_table(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        load_cap: f64,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<PropagatedNoiseTable>> {
        let bucket = load_bucket(load_cap)?;
        let key = cache::prop_key(cell, mode, opts, bucket);
        self.get_or_characterize(&self.prop_tables, key, || {
            let _t = phase_span(Phase::PropTable);
            let (heights, widths) = prop_table::standard_grid(cell.tech.vdd);
            Ok(Arc::new(characterize_propagated_noise_with(
                cell,
                mode,
                bucket_cap(bucket),
                &heights,
                &widths,
                opts,
            )?))
        })
    }

    /// Thevenin aggressor fit for `cell` switching into `load`,
    /// characterized on first use.
    ///
    /// The cached driver is **unshifted** (it fires at t = 0); callers
    /// apply [`TheveninDriver::shifted`] — a cheap waveform translation —
    /// so one fit serves any aggressor switch time. Keys carry the exact
    /// bits of the Π load, so within one design (whose Π values are
    /// continuous) most lookups miss; across repeated runs of the *same*
    /// design they hit exactly, which is what the on-disk cache serves.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn thevenin(
        &self,
        cell: &Cell,
        rising: bool,
        input_slew: f64,
        load: &TheveninLoad,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<TheveninDriver>> {
        let key = cache::thevenin_key(cell, rising, input_slew, load, opts);
        self.get_or_characterize(&self.thevenins, key, || {
            Ok(Arc::new(characterize_thevenin_with(
                cell, rising, input_slew, load, opts,
            )?))
        })
    }

    /// Noise-rejection curve for `receiver` over the given width grid,
    /// characterized (one bisection sweep) on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn nrc(
        &self,
        receiver: &Cell,
        input_low: bool,
        widths: &[f64],
        solver: SolverKind,
    ) -> Result<Arc<NoiseRejectionCurve>> {
        let key = cache::nrc_key(receiver, input_low, widths, solver);
        self.get_or_characterize(&self.nrcs, key, || {
            Ok(Arc::new(characterize_nrc_with(
                receiver, input_low, widths, solver,
            )?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_cells::CellType;
    use sna_spice::units::PS;

    #[test]
    fn load_curve_cached_by_cell_and_mode() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech.clone(), 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        let a = lib.load_curve(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (0, 1));
        assert_eq!(
            st.kind(ArtifactKind::LoadCurve),
            KindStats {
                hits: 0,
                misses: 1,
                ..Default::default()
            }
        );
        let b = lib.load_curve(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::LoadCurve),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // No disk cache was loaded: provenance counters stay zero.
        assert_eq!((st.disk_hits, st.disk_misses, st.stale_rejected), (0, 0, 0));
        assert!(Arc::ptr_eq(&a, &b));
        // Different mode = different artifact.
        let high = cell.holding_high_mode();
        let c = lib.load_curve(&cell, &high, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(lib.stats().misses, 2);
        // Different strength = different artifact.
        let cell4 = Cell::nand2(tech, 4.0);
        let mode4 = cell4.holding_low_mode();
        lib.load_curve(&cell4, &mode4, &opts).unwrap();
        assert_eq!(lib.stats().misses, 3);
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn grid_is_part_of_the_key() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let coarse = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let fine = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        lib.load_curve(&cell, &mode, &coarse).unwrap();
        lib.load_curve(&cell, &mode, &fine).unwrap();
        assert_eq!(lib.stats().misses, 2);
        // So is every Newton tolerance.
        let mut newton = coarse.newton;
        newton.reltol *= 10.0;
        let loose = CharacterizeOptions { newton, ..coarse };
        assert_ne!(opts_fingerprint(&coarse), opts_fingerprint(&loose));
    }

    #[test]
    fn technology_fingerprint_prevents_name_aliasing() {
        let t1 = Technology::cmos130();
        let mut t2 = Technology::cmos130();
        t2.vdd = 1.1; // same name, different supply
        assert_ne!(tech_fingerprint(&t1), tech_fingerprint(&t2));
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        let c1 = Cell::inv(t1, 1.0);
        let c2 = Cell::inv(t2, 1.0);
        lib.load_curve(&c1, &c1.holding_low_mode(), &opts).unwrap();
        lib.load_curve(&c2, &c2.holding_low_mode(), &opts).unwrap();
        // The second lookup must NOT be served the first technology's
        // curve just because the names match.
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (0, 2));
        assert_eq!(lib.len(), 2);
    }

    /// Every input one of the four key constructors reads.
    #[derive(Clone)]
    struct KeyInputs {
        cell: Cell,
        mode: DriverMode,
        opts: CharacterizeOptions,
        bucket: i32,
        rising: bool,
        slew: f64,
        load: TheveninLoad,
        input_low: bool,
        widths: Vec<f64>,
        solver: SolverKind,
    }

    impl KeyInputs {
        fn new() -> Self {
            let cell = Cell::nand2(Technology::cmos130(), 1.0);
            KeyInputs {
                mode: cell.holding_low_mode(),
                cell,
                opts: CharacterizeOptions::default(),
                bucket: -170,
                rising: true,
                slew: 50.0 * PS,
                load: TheveninLoad::Pi {
                    c_near: 10e-15,
                    r: 50.0,
                    c_far: 20e-15,
                },
                input_low: true,
                widths: vec![100.0 * PS, 200.0 * PS],
                solver: SolverKind::Auto,
            }
        }

        /// `[cell_key, prop_key, thevenin_key, nrc_key]`.
        fn keys(&self) -> [Vec<u8>; 4] {
            [
                cache::cell_key(&self.cell, &self.mode, &self.opts),
                cache::prop_key(&self.cell, &self.mode, &self.opts, self.bucket),
                cache::thevenin_key(&self.cell, self.rising, self.slew, &self.load, &self.opts),
                cache::nrc_key(&self.cell, self.input_low, &self.widths, self.solver),
            ]
        }
    }

    #[test]
    fn key_bytes_differ_exactly_when_an_identifying_input_does() {
        let base = KeyInputs::new();
        // Equal inputs, built independently, give equal bytes.
        assert_eq!(base.keys(), KeyInputs::new().keys());
        type Edit = fn(&mut KeyInputs);
        // Each edit changes one input; the mask says which of the four keys
        // read it (cell, prop, thevenin, nrc).
        let (all, drive_state, options) = (
            [true; 4],
            [true, true, false, false],
            [true, true, true, false],
        );
        let (prop, fit, nrc) = (
            [false, true, false, false],
            [false, false, true, false],
            [false, false, false, true],
        );
        let table: [(&str, Edit, [bool; 4]); 25] = [
            ("tech name", |k| k.cell.tech.name.push('b'), all),
            ("model parameter", |k| k.cell.tech.nmos.vt0 += 1e-3, all),
            ("cell type", |k| k.cell.cell_type = CellType::Nor2, all),
            ("strength", |k| k.cell.strength = 2.0, all),
            ("noisy input", |k| k.mode.noisy_input = 1, drive_state),
            (
                "input levels",
                |k| k.mode.input_levels[1] = 0.6,
                drive_state,
            ),
            (
                "input count",
                |k| k.mode.input_levels.push(0.0),
                drive_state,
            ),
            ("grid", |k| k.opts.grid = 9, options),
            ("v_min_frac", |k| k.opts.v_min_frac = -0.2, options),
            ("v_max_frac", |k| k.opts.v_max_frac = 1.2, options),
            ("max_iter", |k| k.opts.newton.max_iter = 50, options),
            ("vntol", |k| k.opts.newton.vntol = 1e-7, options),
            ("reltol", |k| k.opts.newton.reltol = 1e-3, options),
            ("abstol", |k| k.opts.newton.abstol = 1e-10, options),
            ("max_step", |k| k.opts.newton.max_step = 0.2, options),
            (
                "newton solver",
                |k| k.opts.newton.solver = SolverKind::Dense,
                options,
            ),
            ("load bucket", |k| k.bucket = -169, prop),
            ("rising", |k| k.rising = false, fit),
            ("slew", |k| k.slew = 60.0 * PS, fit),
            ("Π c_near", |k| k.load = pi(|p| p.0 = 11e-15), fit),
            ("Π r", |k| k.load = pi(|p| p.1 = 60.0), fit),
            ("Π c_far", |k| k.load = pi(|p| p.2 = 21e-15), fit),
            ("NRC polarity", |k| k.input_low = false, nrc),
            ("widths", |k| k.widths[1] = 250.0 * PS, nrc),
            ("NRC solver", |k| k.solver = SolverKind::Sparse, nrc),
        ];
        for (name, edit, reads) in table {
            let mut edited = base.clone();
            edit(&mut edited);
            for (i, (a, b)) in base.keys().iter().zip(edited.keys().iter()).enumerate() {
                assert_eq!(a != b, reads[i], "{name}: key {i}");
            }
        }
        // Lumped vs Π differ even when every other load word agrees.
        let fit_key = |load: TheveninLoad| {
            cache::thevenin_key(&base.cell, true, base.slew, &load, &base.opts)
        };
        assert_ne!(
            fit_key(TheveninLoad::Lumped(10e-15)),
            fit_key(TheveninLoad::Pi {
                c_near: 10e-15,
                r: 0.0,
                c_far: 0.0
            })
        );
        // A longer width grid is a different grid.
        let mut longer = base.clone();
        longer.widths.push(400.0 * PS);
        assert_ne!(base.keys()[3], longer.keys()[3]);
    }

    /// The base Π load with one of `(c_near, r, c_far)` edited.
    fn pi(edit: fn(&mut (f64, f64, f64))) -> TheveninLoad {
        let mut p = (10e-15, 50.0, 20e-15);
        edit(&mut p);
        TheveninLoad::Pi {
            c_near: p.0,
            r: p.1,
            c_far: p.2,
        }
    }

    #[test]
    fn prop_tables_bucket_similar_loads() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let a = lib
            .propagated_table(&cell, &mode, 50e-15, &CharacterizeOptions::default())
            .unwrap();
        // +5% load: same bucket, cache hit.
        let b = lib
            .propagated_table(&cell, &mode, 52.5e-15, &CharacterizeOptions::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::PropTable),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // 3x load: different bucket.
        let c = lib
            .propagated_table(&cell, &mode, 150e-15, &CharacterizeOptions::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn bucketing_is_geometric() {
        assert_eq!(load_bucket(50e-15).unwrap(), load_bucket(52e-15).unwrap());
        assert_ne!(load_bucket(50e-15).unwrap(), load_bucket(80e-15).unwrap());
        // Representative load is within one step of any member.
        let b = load_bucket(60e-15).unwrap();
        let rep = bucket_cap(b);
        assert!(rep / 60e-15 < 1.2 && 60e-15 / rep < 1.2);
    }

    #[test]
    fn nonpositive_loads_rejected() {
        assert!(load_bucket(0.0).is_err());
        assert!(load_bucket(-1e-15).is_err());
        assert!(load_bucket(f64::NAN).is_err());
        assert!(load_bucket(f64::INFINITY).is_err());
        // Positive finite loads still bucket.
        assert!(load_bucket(1e-15).is_ok());
        // The error surfaces through the public cache API too, and nothing
        // garbage is cached.
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        assert!(lib
            .propagated_table(&cell, &mode, -5e-15, &CharacterizeOptions::default())
            .is_err());
        assert!(lib.is_empty());
    }

    #[test]
    fn holding_resistance_cached() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let opts = CharacterizeOptions::default();
        let r1 = lib.holding_resistance(&cell, &mode, &opts).unwrap();
        let r2 = lib.holding_resistance(&cell, &mode, &opts).unwrap();
        assert_eq!(r1, r2);
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::HoldingR),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn thevenin_and_nrc_cached() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let lib = NoiseModelLibrary::new();
        let opts = CharacterizeOptions::default();
        let load = TheveninLoad::Lumped(20e-15);
        let a = lib.thevenin(&cell, true, 50.0 * PS, &load, &opts).unwrap();
        let b = lib.thevenin(&cell, true, 50.0 * PS, &load, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            lib.stats().kind(ArtifactKind::Thevenin),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // A different load (even the same total cap split into a Π) is a
        // different fit: keys carry the exact load bits.
        let pi = TheveninLoad::Pi {
            c_near: 10e-15,
            r: 50.0,
            c_far: 10e-15,
        };
        let c = lib.thevenin(&cell, true, 50.0 * PS, &pi, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(lib.stats().kind(ArtifactKind::Thevenin).misses, 2);
        // NRC: exact reuse per (receiver, polarity, widths, solver).
        let widths = [200.0 * PS, 400.0 * PS, 800.0 * PS];
        let n1 = lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        let n2 = lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        assert!(Arc::ptr_eq(&n1, &n2));
        assert_eq!(
            lib.stats().kind(ArtifactKind::Nrc),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn per_kind_breakdown_and_len() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        lib.load_curve(&cell, &mode, &opts).unwrap();
        lib.holding_resistance(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!(st.kind(ArtifactKind::LoadCurve).misses, 1);
        assert_eq!(st.kind(ArtifactKind::HoldingR).misses, 1);
        assert_eq!(st.kind(ArtifactKind::Thevenin), KindStats::default());
        assert_eq!(st.kind(ArtifactKind::Nrc), KindStats::default());
        // Totals are derived from the breakdown.
        assert_eq!(st.hits, st.by_kind.iter().map(|k| k.hits).sum::<usize>());
        assert_eq!(
            st.misses,
            st.by_kind.iter().map(|k| k.misses).sum::<usize>()
        );
        // Every miss stored one artifact.
        assert_eq!(lib.len(), st.misses);
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn stats_delta_isolates_one_corners_work() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        lib.load_curve(&cell, &mode, &opts).unwrap();
        let before = lib.stats();
        lib.load_curve(&cell, &mode, &opts).unwrap(); // hit
        lib.holding_resistance(&cell, &mode, &opts).unwrap(); // miss
        let d = LibraryStats::delta(&lib.stats(), &before);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(d.kind(ArtifactKind::LoadCurve).hits, 1);
        assert_eq!(d.kind(ArtifactKind::LoadCurve).misses, 0);
        assert_eq!(d.kind(ArtifactKind::HoldingR).misses, 1);
        // The library holds both artifacts; the delta only counts work.
        assert_eq!(lib.len(), 2);
        // The counts before plus the delta are the counts after.
        assert_eq!(LibraryStats::sum([&before, &d]), lib.stats());
    }

    #[test]
    fn library_is_shareable_across_threads() {
        let tech = Technology::cmos130();
        let lib = NoiseModelLibrary::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lib = &lib;
                let tech = tech.clone();
                s.spawn(move || {
                    let cell = Cell::inv(tech, 1.0);
                    let mode = cell.holding_low_mode();
                    lib.holding_resistance(&cell, &mode, &CharacterizeOptions::default())
                        .unwrap();
                });
            }
        });
        // One artifact stored no matter how the threads raced.
        assert_eq!(lib.len(), 1);
        let st = lib.stats();
        assert_eq!(st.hits + st.misses, 4);
        assert!(st.misses >= 1);
    }

    #[test]
    fn racing_lookups_of_one_key_characterize_it_once() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        let start = std::sync::Barrier::new(4);
        let curves: Vec<Arc<LoadCurve>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        lib.load_curve(&cell, &mode, &opts).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // The first caller characterizes; the other three wait for it and
        // are served its artifact.
        let st = lib.stats().kind(ArtifactKind::LoadCurve);
        assert_eq!((st.misses, st.hits), (1, 3));
        assert!(curves.iter().all(|c| Arc::ptr_eq(c, &curves[0])));
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn failed_characterization_is_retried_not_cached() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 1, // too small: characterization fails
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        assert!(lib.load_curve(&cell, &mode, &opts).is_err());
        assert!(lib.is_empty());
        assert_eq!(lib.len(), 0);
        assert_eq!(
            lib.to_cache_bytes(),
            NoiseModelLibrary::new().to_cache_bytes()
        );
        // The next caller characterizes again rather than being served the
        // failure.
        assert!(lib.load_curve(&cell, &mode, &opts).is_err());
        let st = lib.stats().kind(ArtifactKind::LoadCurve);
        assert_eq!((st.misses, st.hits), (2, 0));
    }
}
