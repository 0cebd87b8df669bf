//! The parallel design-level driver.
//!
//! [`run_sna_parallel`] is the full-chip counterpart of
//! [`sna_core::sna::run_sna`]: the same per-cluster kernel
//! ([`analyze_cluster`]), scheduled across a worker pool with one shared
//! [`NoiseModelLibrary`] so characterization artifacts are paid for once
//! per (cell, drive-state, load-bucket) rather than once per thread. The
//! merge is order-preserving, so the report at `threads = N` is identical
//! to the report at `threads = 1`. So are the cache hit/miss counts: the
//! library characterizes each key once however many workers ask for it
//! together.

use sna_core::cluster::MacromodelOptions;
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::nrc::NoiseRejectionCurve;
use sna_core::sna::{analyze_cluster, Design, NoiseReport, SkippedCluster, SnaOptions};
use sna_obs::{phase_span, trace_span, Phase};
use sna_spice::error::Result;

use crate::pool::{parallel_map_ordered_metered, resolve_threads, PoolMetrics};

/// Controls for a parallel flow run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowOptions {
    /// Per-cluster analysis controls (alignment, guard band, strictness).
    pub sna: SnaOptions,
    /// Macromodel build controls.
    pub mm: MacromodelOptions,
    /// Worker count; 0 means "use available parallelism".
    pub threads: usize,
}

/// A design-level report plus the run's execution metadata.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The noise report, in design order — byte-identical across thread
    /// counts.
    pub report: NoiseReport,
    /// Shared-cache hit/miss counters (identical across thread counts).
    pub cache: LibraryStats,
    /// Worker count actually used.
    pub threads: usize,
    /// Pool execution metrics (diagnostic; timing varies run-to-run and is
    /// never serialized into the noise report).
    pub pool: PoolMetrics,
    /// Wall time per cluster (name, ns), in design order (diagnostic).
    pub cluster_wall_nanos: Vec<(String, u64)>,
}

/// Run static noise analysis over `design` on a worker pool.
///
/// # Errors
///
/// In strict mode ([`SnaOptions::strict`]), fails with the first
/// per-cluster error *in design order* (not completion order), so strict
/// failures are as deterministic as the report itself. Non-strict runs
/// downgrade per-cluster failures to [`NoiseReport::skipped`] diagnostics.
pub fn run_sna_parallel(
    design: &Design,
    nrc: &NoiseRejectionCurve,
    opts: &FlowOptions,
) -> Result<FlowReport> {
    run_sna_parallel_with(design, nrc, opts, &NoiseModelLibrary::new())
}

/// As [`run_sna_parallel`], but characterizing into a caller-provided
/// library. This lets a multi-corner driver own the cache (and its
/// per-artifact-kind statistics) across the NRC characterization and the
/// flow run, rather than losing the NRC's bookkeeping to an internal
/// library that is dropped on return.
///
/// # Errors
///
/// As [`run_sna_parallel`].
pub fn run_sna_parallel_with(
    design: &Design,
    nrc: &NoiseRejectionCurve,
    opts: &FlowOptions,
    library: &NoiseModelLibrary,
) -> Result<FlowReport> {
    let _t = phase_span(Phase::Flow);
    let _tr = trace_span("flow", "run_sna_parallel");
    // Mirror the pool's clamp so FlowReport::threads reports the worker
    // count actually used, not the requested one.
    let threads = resolve_threads(opts.threads).clamp(1, design.clusters.len().max(1));
    // Strict-mode early exit: once any cluster fails, analyzing clusters
    // *after* it (in design order) is wasted work — the run will abort
    // with the first design-order error regardless. Workers keep analyzing
    // indices at or below the lowest failure seen so far (an even earlier
    // cluster could still fail and become the reported error), and stub
    // everything past it. The reported error therefore stays exactly the
    // serial one: the first stub in design order can only sit behind a
    // real failure, so the merge loop below never reaches it.
    let min_fail = std::sync::atomic::AtomicUsize::new(usize::MAX);
    let strict = opts.sna.strict;
    let (outcomes, pool) = parallel_map_ordered_metered(threads, &design.clusters, |i, cluster| {
        use std::sync::atomic::Ordering;
        if strict && i > min_fail.load(Ordering::Relaxed) {
            return Err((
                cluster.name.clone(),
                sna_spice::error::Error::InvalidAnalysis(
                    "not analyzed: an earlier cluster already failed the strict run".into(),
                ),
            ));
        }
        let _t = phase_span(Phase::Cluster);
        let _tr = trace_span("cluster", &cluster.name);
        analyze_cluster(cluster, nrc, &opts.sna, &opts.mm, library).map_err(|e| {
            if strict {
                min_fail.fetch_min(i, Ordering::Relaxed);
            }
            (cluster.name.clone(), e)
        })
    });
    let mut report = NoiseReport::default();
    for outcome in outcomes {
        match outcome {
            Ok(finding) => report.findings.push(finding),
            Err((_, e)) if opts.sna.strict => return Err(e),
            Err((name, e)) => report.skipped.push(SkippedCluster {
                name,
                reason: e.to_string(),
            }),
        }
    }
    let cluster_wall_nanos = design
        .clusters
        .iter()
        .map(|c| c.name.clone())
        .zip(pool.job_nanos.iter().copied())
        .collect();
    Ok(FlowReport {
        report,
        cache: library.stats(),
        threads,
        pool,
        cluster_wall_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_cells::{Cell, Technology};
    use sna_core::nrc::characterize_nrc;
    use sna_spice::units::PS;

    fn small_nrc(tech: &Technology) -> NoiseRejectionCurve {
        characterize_nrc(
            &Cell::inv(tech.clone(), 1.0),
            true,
            &[100.0 * PS, 300.0 * PS, 900.0 * PS],
        )
        .expect("nrc")
    }

    #[test]
    fn parallel_flow_matches_serial_run_sna() {
        let tech = Technology::cmos130();
        let design = Design::random(&tech, 6, 2005);
        let nrc = small_nrc(&tech);
        let opts = FlowOptions {
            threads: 3,
            ..Default::default()
        };
        let par = run_sna_parallel(&design, &nrc, &opts).expect("parallel");
        let serial = sna_core::sna::run_sna(&design, &nrc, &SnaOptions::default()).expect("serial");
        assert_eq!(par.report.findings.len(), serial.findings.len());
        for (p, s) in par.report.findings.iter().zip(&serial.findings) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.margin.to_bits(), s.margin.to_bits(), "{}", p.name);
            assert_eq!(p.verdict, s.verdict);
        }
        assert_eq!(par.threads, 3);
        // The shared cache did real work.
        assert!(par.cache.hits + par.cache.misses > 0);
        // Pool metrics cover every worker and every cluster.
        assert_eq!(par.pool.worker_busy_nanos.len(), 3);
        assert_eq!(par.pool.worker_jobs.iter().sum::<usize>(), 6);
        assert_eq!(par.cluster_wall_nanos.len(), 6);
        assert!(par.cluster_wall_nanos.iter().all(|(_, ns)| *ns > 0));
    }

    #[test]
    fn strict_mode_fails_deterministically_in_design_order() {
        let tech = Technology::cmos130();
        let mut design = Design::random(&tech, 5, 3);
        design.clusters[1].spec.dt = 0.0; // fails validation
        design.clusters[3].spec.dt = 0.0;
        let nrc = small_nrc(&tech);
        let mut opts = FlowOptions {
            threads: 4,
            ..Default::default()
        };
        // Non-strict: both bad clusters downgraded, in design order.
        let report = run_sna_parallel(&design, &nrc, &opts).expect("non-strict");
        assert_eq!(report.report.findings.len(), 3);
        let skipped: Vec<&str> = report
            .report
            .skipped
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(skipped, ["net001", "net003"]);
        // Strict: aborts with the first design-order failure — the real
        // cluster error, never the "not analyzed" early-exit stub.
        opts.sna.strict = true;
        let err = run_sna_parallel(&design, &nrc, &opts).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("bad cluster window"),
            "expected net001's own validation error, got: {msg}"
        );
    }
}
