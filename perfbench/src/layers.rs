//! The traced run's view of the program's layers.
//!
//! [`analyze_traced`] performs exactly what `sna_core::sna::analyze_cluster`
//! does, but as separate public calls with a span around each, so that
//! characterization (`cells`), reduction (`mor`) and the engine, alignment
//! and FRAME searches (`core`) can be told apart from outside the program.
//! [`LayerTotals`] turns the spans of timed operations into calibrated
//! self times, and collects the counters the program exposes.

use std::collections::BTreeMap;

use sna_core::alignment::worst_case_alignment_batched;
use sna_core::cluster::{ClusterMacromodel, MacromodelOptions};
use sna_core::engine::simulate_macromodel;
use sna_core::frame::constrained_worst_case;
use sna_core::library::{ArtifactKind, LibraryStats, NoiseModelLibrary};
use sna_core::nrc::NoiseRejectionCurve;
use sna_core::sna::{ClusterFinding, DesignCluster, SnaOptions, Verdict};
use sna_obs::{CounterSnapshot, Metric};
use sna_spice::error::Result;

use crate::calib::Timed;
use crate::trace::Recorder;

/// Layer counters gathered next to the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub engine_runs: u64,
    pub alignment_evals: u64,
    pub frame_considered: u64,
    pub frame_pruned: u64,
    pub frame_simulated: u64,
}

/// `analyze_cluster`, one public call at a time, each inside a span.
pub fn analyze_traced(
    rec: &mut Recorder,
    lib: &NoiseModelLibrary,
    cluster: &DesignCluster,
    nrc: &NoiseRejectionCurve,
    opts: &SnaOptions,
    mm: &MacromodelOptions,
    counts: &mut Counts,
) -> Result<ClusterFinding> {
    let spec = &cluster.spec;
    // The macromodel build characterizes with the modeling options'
    // solver and backend; ask for the same artifacts it will.
    let mut char_opts = spec.char_opts;
    char_opts.newton.solver = mm.solver;
    char_opts.backend = mm.backend;
    let (cell, mode) = (&spec.victim.cell, &spec.victim.mode);
    let lc = rec.span("cells.load_curve", |_| {
        lib.load_curve(cell, mode, &char_opts)
    })?;
    rec.span("cells.holding_r", |_| {
        lib.holding_resistance(cell, mode, &char_opts)
    })?;
    let load = spec.victim_total_cap(lc.c_out);
    rec.span("cells.prop_table", |_| {
        lib.propagated_table(cell, mode, load, &char_opts)
    })?;
    // What is left for the build to characterize is its Thevenin fits.
    let before = lib.stats();
    let model = rec.span("build.fit", |_| {
        ClusterMacromodel::build_with_library(spec, mm, lib)
    })?;
    let fits = LibraryStats::delta(&lib.stats(), &before);
    assert_eq!(
        fits.misses,
        fits.kind(ArtifactKind::Thevenin).misses,
        "{}: the build characterized something besides Thevenin fits",
        cluster.name
    );
    if fits.misses > 0 {
        // A second, fully cached build: Π moments and PRIMA alone.
        rec.span("build.cached", |_| {
            ClusterMacromodel::build_with_library(spec, mm, lib)
        })?;
    }
    let waves = if opts.align_worst_case {
        let res = rec.span("core.alignment", |_| {
            worst_case_alignment_batched(&model, opts.align_window, mm.backend)
        })?;
        counts.alignment_evals += res.evaluations as u64;
        let timed = model.with_timing(&res.switch_times, res.glitch_peak_time);
        rec.span("core.engine", |_| simulate_macromodel(&timed))?
    } else {
        rec.span("core.engine", |_| simulate_macromodel(&model))?
    };
    counts.engine_runs += 1;
    let rm = waves.receiver.glitch_metrics(model.q_out);
    let margin = nrc.margin(rm.width, rm.peak);
    let verdict = if margin < 0.0 {
        Verdict::Fail
    } else if margin < opts.margin_band {
        Verdict::MarginWarning
    } else {
        Verdict::Pass
    };
    let constrained = if spec.has_frame_constraints() {
        let out = rec.span("core.frame", |_| {
            constrained_worst_case(
                &model,
                nrc,
                opts.frame_grid,
                opts.frame_exhaustive,
                mm.backend,
            )
        })?;
        counts.frame_considered += out.counters.considered;
        counts.frame_pruned += out.counters.pruned_window + out.counters.pruned_mexcl;
        counts.frame_simulated += out.counters.simulated;
        Some(out)
    } else {
        None
    };
    Ok(ClusterFinding {
        name: cluster.name.clone(),
        receiver_metrics: rm,
        margin,
        verdict,
        constrained,
    })
}

/// Per-layer totals over the traced operations of one run.
#[derive(Default)]
pub struct LayerTotals {
    /// Calibrated self milliseconds per span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Calibrated milliseconds of every traced operation.
    pub op_ms: f64,
    pub counts: Counts,
    /// Library, solver and serve counters, from untraced rounds: those
    /// make only the program's own calls, where a traced round adds the
    /// benchmark's artifact lookups, cached builds and memo `analyze`.
    pub cache: LibraryStats,
    pub spice: Vec<(Metric, u64)>,
    pub serve_reanalyzed: u64,
    pub serve_memo_hits: u64,
    /// Untraced rounds folded into the counters.
    pub counted_rounds: u64,
}

impl LayerTotals {
    /// Fold the spans recorded between `from` and `to` (one operation,
    /// timed as `t`) into the totals, calibrating host time with the
    /// operation's own scale.
    pub fn add_op(&mut self, rec: &Recorder, from: usize, to: usize, t: Timed) {
        let scale = if t.host > 0.0 { t.cal / t.host } else { 1.0 };
        let own = rec.self_ns(from, to);
        let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 * 1e-6 * scale;
        let (fit, cached) = (ms("build.fit"), ms("build.cached"));
        let (thevenin, reduce) = if own.contains_key("build.cached") {
            ((fit - cached).max(0.0), cached)
        } else {
            (0.0, fit)
        };
        *self.self_ms.entry("cells.thevenin").or_default() += thevenin;
        *self.self_ms.entry("mor.reduce").or_default() += reduce;
        for (&name, &ns) in &own {
            if name.starts_with("build.") {
                continue;
            }
            *self.self_ms.entry(name).or_default() += ns as f64 * 1e-6 * scale;
        }
        self.op_ms += t.cal * 1e3;
    }

    /// Fold one untraced round's library and solver counter deltas in.
    pub fn add_round_counts(&mut self, cache: &LibraryStats, spice: &CounterSnapshot) {
        self.counted_rounds += 1;
        self.cache.hits += cache.hits;
        self.cache.misses += cache.misses;
        for (acc, d) in self.cache.by_kind.iter_mut().zip(&cache.by_kind) {
            acc.hits += d.hits;
            acc.misses += d.misses;
        }
        for m in sna_obs::ALL_METRICS {
            let v = spice.get(m);
            match self.spice.iter_mut().find(|(k, _)| *k == m) {
                Some(e) => e.1 += v,
                None => self.spice.push((m, v)),
            }
        }
    }

    fn spice(&self, ms: &[Metric]) -> f64 {
        self.spice
            .iter()
            .filter(|(m, _)| ms.contains(m))
            .map(|(_, v)| *v as f64)
            .sum()
    }

    /// The per-layer metrics, each per round of the workload (times and
    /// [`Counts`] over the `rounds` traced rounds, the other counters over
    /// the counted untraced rounds), plus span coverage and the tracing
    /// overhead measured against the run's untraced rounds.
    pub fn metrics(
        &self,
        rounds: f64,
        libcache: (f64, f64, f64),
        overhead_pct: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |name: &str| self.self_ms.get(name).copied().unwrap_or(0.0) / rounds;
        let counted = self.counted_rounds as f64;
        let kind = |k: ArtifactKind| self.cache.kind(k).misses as f64 / counted;
        let thevenin_n = kind(ArtifactKind::Thevenin);
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let c = &self.counts;
        let lookups = (self.cache.hits + self.cache.misses) as f64;
        let unattributed = ms("op");
        let traced_ms = self.op_ms / rounds;
        use Metric::*;
        vec![
            ("cells.load_curve_ms", ms("cells.load_curve"), "ms"),
            ("cells.holding_r_ms", ms("cells.holding_r"), "ms"),
            ("cells.prop_table_ms", ms("cells.prop_table"), "ms"),
            ("cells.nrc_ms", ms("cells.nrc"), "ms"),
            ("cells.load_curve_n", kind(ArtifactKind::LoadCurve), "count"),
            ("cells.holding_r_n", kind(ArtifactKind::HoldingR), "count"),
            ("cells.prop_table_n", kind(ArtifactKind::PropTable), "count"),
            ("cells.nrc_n", kind(ArtifactKind::Nrc), "count"),
            ("cells.thevenin_ms", ms("cells.thevenin"), "ms"),
            ("cells.thevenin_n", thevenin_n, "count"),
            (
                "cells.thevenin_ms_per_fit",
                per(ms("cells.thevenin"), thevenin_n),
                "ms",
            ),
            (
                "spice.factors",
                self.spice(&[SolverFactorsDense, SolverFactorsSparse]) / counted,
                "count",
            ),
            (
                "spice.refactors",
                self.spice(&[SolverRefactorsDense, SolverRefactorsSparse]) / counted,
                "count",
            ),
            (
                "spice.solves",
                self.spice(&[SolverSolves]) / counted,
                "count",
            ),
            (
                "spice.dc_newton_iters",
                self.spice(&[DcNewtonIterations]) / counted,
                "count",
            ),
            (
                "spice.tran_steps",
                self.spice(&[TranSteps, SweepSteps]) / counted,
                "count",
            ),
            (
                "spice.sweep_lanes",
                self.spice(&[SweepLanes]) / counted,
                "count",
            ),
            (
                "spice.fallbacks",
                self.spice(&[
                    SolverColdFallbacks,
                    DcGminFallbacks,
                    DcSourceStepFallbacks,
                    SweepSerialFallbacks,
                ]) / counted,
                "count",
            ),
            ("mor.reduce_ms", ms("mor.reduce"), "ms"),
            ("core.engine_ms", ms("core.engine"), "ms"),
            ("core.engine_runs", c.engine_runs as f64 / rounds, "count"),
            ("core.alignment_ms", ms("core.alignment"), "ms"),
            (
                "core.alignment_evals",
                c.alignment_evals as f64 / rounds,
                "count",
            ),
            (
                "core.alignment_ms_per_eval",
                per(ms("core.alignment"), c.alignment_evals as f64 / rounds),
                "ms",
            ),
            ("core.frame_ms", ms("core.frame"), "ms"),
            (
                "core.frame_considered",
                c.frame_considered as f64 / rounds,
                "count",
            ),
            ("core.frame_pruned", c.frame_pruned as f64 / rounds, "count"),
            (
                "core.frame_simulated",
                c.frame_simulated as f64 / rounds,
                "count",
            ),
            ("core.libcache_decode_ms", libcache.0, "ms"),
            ("core.libcache_encode_ms", libcache.1, "ms"),
            ("core.libcache_bytes", libcache.2, "bytes"),
            ("core.cache_hits", self.cache.hits as f64 / counted, "count"),
            (
                "core.cache_misses",
                self.cache.misses as f64 / counted,
                "count",
            ),
            (
                "core.cache_hit_ratio",
                per(self.cache.hits as f64, lookups),
                "ratio",
            ),
            ("flow.serve_edit_ms", ms("flow.serve_edit"), "ms"),
            ("flow.serve_analyze_ms", ms("flow.serve_analyze"), "ms"),
            ("flow.serve_memo_ms", ms("flow.serve_memo"), "ms"),
            (
                "flow.serve_reanalyzed",
                self.serve_reanalyzed as f64 / counted,
                "count",
            ),
            (
                "flow.serve_memo_hits",
                self.serve_memo_hits as f64 / counted,
                "count",
            ),
            ("flow.render_ms", ms("flow.render"), "ms"),
            ("flow.unattributed_ms", unattributed, "ms"),
            (
                "trace.span_coverage_pct",
                per(100.0 * (traced_ms - unattributed), traced_ms),
                "%",
            ),
            ("trace.overhead_pct", overhead_pct, "%"),
        ]
    }
}
