//! Cold vs warm vs incremental cost of the persistent characterization
//! cache (`--library-cache`) and the `sna serve` memo.
//!
//! The tentpole claim this bench backs: a warm second run of the same
//! design performs **zero** characterization solves — every artifact
//! (load curves, holding resistances, propagated-noise tables, Thevenin
//! fits, NRC curves) comes off disk, fingerprint-verified — and an
//! incremental serve-mode edit re-analyzes exactly one cluster, serving
//! the rest from the result memo.
//!
//! Three modes:
//!
//! * default — criterion harness: warm-library flow runs.
//! * `--format json` — hand-timed medians as the `sna-bench-cache-v1`
//!   document checked in as `BENCH_cache.json`: a 64-cluster flow cold
//!   (characterize everything), warm (all artifacts from disk), and an
//!   incremental serve-session edit, each with its cache-counter
//!   snapshot. The headline numbers are `speedup_vs_cold`.
//! * `--test` — smoke run: warm run has zero misses and a byte-identical
//!   report, the serve edit re-analyzes exactly one cluster; timing
//!   ratios are not asserted (single samples on shared CI runners are
//!   noise).

use std::path::{Path, PathBuf};
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_cells::Technology;
use sna_core::library::{LibraryStats, NoiseModelLibrary, ALL_ARTIFACT_KINDS};
use sna_flow::cache::{load_library_cache, save_library_cache};
use sna_flow::cli::{CliConfig, LogLevel};
use sna_flow::corners::run_corners_with;
use sna_flow::driver::FlowOptions;
use sna_flow::output::{to_json, RunSummary};
use sna_flow::serve::ServeState;

const SEED: u64 = 2005;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sna_bench_cache");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn flow_opts() -> FlowOptions {
    FlowOptions {
        threads: 0,
        ..Default::default()
    }
}

/// One timed flow run against `library`, returning the rendered JSON
/// report and the run's cache-counter delta.
fn run_flow(clusters: usize, library: &NoiseModelLibrary) -> (String, LibraryStats) {
    let corners = [Technology::cmos130()];
    let reports =
        run_corners_with(&corners, clusters, SEED, &flow_opts(), library).expect("flow run");
    let delta = reports[0].flow.cache;
    let doc = to_json(&RunSummary {
        clusters,
        seed: SEED,
        align_worst_case: false,
        margin_band: 0.1,
        corners: reports,
    });
    (doc, delta)
}

fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct CacheCase {
    label: &'static str,
    clusters: usize,
    median_ms: f64,
    speedup_vs_cold: Option<f64>,
    /// Clusters re-analyzed (serve cases only).
    reanalyzed: Option<u64>,
    stats: LibraryStats,
}

/// Cold case: fresh library every rep, full characterization each time.
/// Writes the cache file the warm cases read.
fn cold_case(clusters: usize, path: &Path, reps: usize) -> (CacheCase, String) {
    std::fs::remove_file(path).ok();
    let mut report = String::new();
    let mut stats = LibraryStats::default();
    let ms = 1e3
        * median_secs(reps, || {
            let lib = NoiseModelLibrary::new();
            let (doc, delta) = run_flow(clusters, &lib);
            save_library_cache(path, &lib).expect("save cache");
            report = doc;
            stats = delta;
        });
    (
        CacheCase {
            label: "cold",
            clusters,
            median_ms: ms,
            speedup_vs_cold: None,
            reanalyzed: None,
            stats,
        },
        report,
    )
}

/// Warm case: fresh library every rep, warmed from the cold case's file.
fn warm_case(clusters: usize, path: &Path, reps: usize, cold_ms: f64) -> (CacheCase, String) {
    let mut report = String::new();
    let mut stats = LibraryStats::default();
    let ms = 1e3
        * median_secs(reps, || {
            let lib = NoiseModelLibrary::new();
            let load = load_library_cache(path, &lib);
            assert!(
                load.entries > 0,
                "warm case found no cache: {}",
                load.message
            );
            let (doc, delta) = run_flow(clusters, &lib);
            report = doc;
            stats = delta;
        });
    (
        CacheCase {
            label: "warm",
            clusters,
            median_ms: ms,
            speedup_vs_cold: Some(cold_ms / ms.max(1e-12)),
            reanalyzed: None,
            stats,
        },
        report,
    )
}

fn serve_session(clusters: usize, path: &Path) -> ServeState {
    let cfg = CliConfig {
        clusters,
        seed: SEED,
        threads: 0,
        log_level: LogLevel::Quiet,
        library_cache: Some(path.display().to_string()),
        ..Default::default()
    };
    ServeState::new(&cfg).expect("serve session")
}

/// Incremental case: a resident serve session (library warm from disk,
/// memo warm from one full analyze), timed on edit-then-reanalyze
/// round-trips touching a single cluster.
fn incremental_case(clusters: usize, path: &Path, reps: usize, cold_ms: f64) -> CacheCase {
    let mut state = serve_session(clusters, path);
    let r = state.handle_line("{\"cmd\": \"analyze\"}");
    assert!(r.contains("\"ok\": true"), "priming analyze failed: {r}");
    let before = state.counters();
    let mut slew = 60e-12;
    let ms = 1e3
        * median_secs(reps, || {
            slew += 1e-12; // each rep is a real edit, never a memo no-op
            let edit = format!(
                "{{\"cmd\": \"edit\", \"cluster\": \"net000\", \"aggressor\": 0, \
                 \"input_slew\": {slew:e}}}"
            );
            let r = state.handle_line(&edit);
            assert!(r.contains("\"ok\": true"), "edit failed: {r}");
            let r = state.handle_line("{\"cmd\": \"analyze\"}");
            assert!(r.contains("\"analyzed\": 1"), "expected 1 re-analysis: {r}");
        });
    let after = state.counters();
    CacheCase {
        label: "incremental_edit",
        clusters,
        median_ms: ms,
        speedup_vs_cold: Some(cold_ms / ms.max(1e-12)),
        reanalyzed: Some(after.1 - before.1),
        stats: state.library().stats(),
    }
}

fn emit_json(cases: &[CacheCase]) {
    println!("{{");
    println!("  \"schema\": \"sna-bench-cache-v1\",");
    println!(
        "  \"workload\": \"synthetic design, seed {SEED}, cmos130, full flow; cold = fresh \
         library, warm = library loaded from an sna-libcache-v1 file, incremental_edit = \
         resident serve session re-analyzing one edited cluster\","
    );
    println!("  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let speedup = c
            .speedup_vs_cold
            .map_or("null".into(), |x| format!("{x:.2}"));
        let reanalyzed = c.reanalyzed.map_or("null".into(), |x| x.to_string());
        let by_kind: Vec<String> = ALL_ARTIFACT_KINDS
            .iter()
            .map(|&k| {
                let ks = c.stats.kind(k);
                format!(
                    "\"{}\": {{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}}}",
                    k.name(),
                    ks.hits,
                    ks.misses,
                    ks.disk_hits
                )
            })
            .collect();
        println!(
            "    {{\"case\": \"{}\", \"clusters\": {}, \"median_ms\": {:.2}, \
             \"speedup_vs_cold\": {}, \"reanalyzed\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \
             \"disk_misses\": {}, \"stale_rejected\": {}, \"by_kind\": {{{}}}}}}}{}",
            c.label,
            c.clusters,
            c.median_ms,
            speedup,
            reanalyzed,
            c.stats.hits,
            c.stats.misses,
            c.stats.disk_hits,
            c.stats.disk_misses,
            c.stats.stale_rejected,
            by_kind.join(", "),
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

/// Smoke mode for CI: deterministic assertions only.
fn self_test() {
    let clusters = 6;
    let path = scratch("smoke.libcache");
    let (cold, cold_report) = cold_case(clusters, &path, 1);
    assert!(cold.stats.misses > 0, "cold run characterized nothing");
    assert_eq!(cold.stats.disk_hits, 0);
    let (warm, warm_report) = warm_case(clusters, &path, 1, cold.median_ms);
    // The tentpole invariant: a warm run characterizes *nothing* — every
    // per-kind miss counter is zero and all lookups come off disk.
    assert_eq!(warm.stats.misses, 0, "warm run still characterized");
    for k in ALL_ARTIFACT_KINDS {
        assert_eq!(
            warm.stats.kind(k).misses,
            0,
            "warm run characterized {}",
            k.name()
        );
    }
    assert!(
        warm.stats.disk_hits > 0,
        "warm run never touched the disk cache"
    );
    assert_eq!(cold_report, warm_report, "persistence changed the report");
    let inc = incremental_case(clusters, &path, 1, cold.median_ms);
    assert_eq!(
        inc.reanalyzed,
        Some(1),
        "edit re-analyzed more than one cluster"
    );
    std::fs::remove_file(&path).ok();
    println!(
        "cache smoke: cold {} misses, warm 0 misses / {} disk hits, identical reports, \
         1 cluster re-analyzed after edit — ok",
        cold.stats.misses, warm.stats.disk_hits
    );
    println!("cache bench self-test: OK");
}

fn bench_cache(c: &mut Criterion) {
    let clusters = 8;
    let path = scratch("criterion.libcache");
    let (_, _) = cold_case(clusters, &path, 1);
    let mut group = c.benchmark_group("library_cache");
    group.sample_size(10);
    group.bench_function("warm_flow_8", |b| {
        b.iter(|| {
            let lib = NoiseModelLibrary::new();
            load_library_cache(&path, &lib);
            std::hint::black_box(run_flow(clusters, &lib));
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_cache);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        self_test();
        return;
    }
    let json = args
        .windows(2)
        .any(|w| w[0] == "--format" && w[1] == "json");
    if json {
        let clusters = 64;
        let path = scratch("bench64.libcache");
        let (cold, cold_report) = cold_case(clusters, &path, 3);
        let (warm, warm_report) = warm_case(clusters, &path, 3, cold.median_ms);
        assert_eq!(cold_report, warm_report, "persistence changed the report");
        let inc = incremental_case(clusters, &path, 3, cold.median_ms);
        emit_json(&[cold, warm, inc]);
        std::fs::remove_file(&path).ok();
        return;
    }
    benches();
}
