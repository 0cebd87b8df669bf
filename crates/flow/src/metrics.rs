//! The `sna-metrics-v2` document: the run's execution counters as JSON.
//!
//! Everything here is **out-of-band** diagnostics: the noise report is a
//! pure function of the design and options, and stays byte-identical
//! whether or not metrics are collected. This serializer therefore never
//! touches [`crate::output`]'s report document — it renders a separate
//! file from an [`sna_obs::Snapshot`] plus the per-corner cache and pool
//! statistics carried on [`crate::driver::FlowReport`].
//!
//! Sections:
//!
//! * `solver` / `dc` / `tran` — the `sna-obs` counters of the three
//!   instrumented simulator layers,
//! * `serve` — `sna serve` session counters (queries handled, clusters
//!   re-analyzed, memoized results reused),
//! * `cache` — per-artifact-kind hit/miss breakdown of the shared
//!   characterization cache (including `disk_hits`/`disk_misses`/
//!   `stale_rejected` provenance from a `--library-cache` file),
//!   aggregated across corners,
//! * `pool` — per-corner worker-pool execution metrics (busy time, job
//!   counts, chunk counts, per-cluster wall times),
//! * `phases` — the hierarchical phase-tree timings (parent → child edges
//!   with call counts and total nanoseconds).
//!
//! v2 dropped v1's counters that always read 0 (`tran.accepted_steps`,
//! `tran.rejected_steps` and the whole `sweep` section) and the cache's
//! per-shard occupancy array.

use sna_core::library::{LibraryStats, ALL_ARTIFACT_KINDS};
use sna_obs::{json_escape, Metric, Snapshot};

use crate::corners::CornerReport;
use crate::output::num;

fn ms(nanos: u64) -> String {
    num(nanos as f64 / 1e6)
}

/// One counter section: `"name": {"key": value, ...}`.
fn section(out: &mut String, snap: &Snapshot, name: &str, metrics: &[Metric], last: bool) {
    out.push_str(&format!("  \"{name}\": {{"));
    let rows: Vec<String> = metrics
        .iter()
        .map(|&m| format!("\"{}\": {}", m.name(), snap.counters.get(m)))
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str(if last { "}\n" } else { "},\n" });
}

fn cache_section(out: &mut String, corners: &[CornerReport]) {
    // Each corner's `cache` is the counter delta it added to the (shared,
    // possibly disk-warmed) library, so the counts sum exactly.
    let total = LibraryStats::sum(corners.iter().map(|c| &c.flow.cache));
    out.push_str("  \"cache\": {\n");
    out.push_str(&format!(
        "    \"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \"disk_misses\": {}, \"stale_rejected\": {},\n",
        total.hits, total.misses, total.disk_hits, total.disk_misses, total.stale_rejected
    ));
    out.push_str("    \"by_kind\": {");
    let rows: Vec<String> = ALL_ARTIFACT_KINDS
        .iter()
        .map(|&k| {
            let ks = total.kind(k);
            format!(
                "\"{}\": {{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \"disk_misses\": {}, \"stale_rejected\": {}}}",
                k.name(),
                ks.hits,
                ks.misses,
                ks.disk_hits,
                ks.disk_misses,
                ks.stale_rejected
            )
        })
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str("}\n");
    out.push_str("  },\n");
}

fn pool_section(out: &mut String, corners: &[CornerReport]) {
    out.push_str("  \"pool\": [\n");
    let rows: Vec<String> = corners
        .iter()
        .map(|c| {
            let p = &c.flow.pool;
            let mut s = String::new();
            s.push_str("    {\n");
            s.push_str(&format!("      \"tech\": \"{}\",\n", json_escape(&c.tech)));
            s.push_str(&format!(
                "      \"workers\": {}, \"wall_ms\": {},\n",
                c.flow.threads,
                ms(p.wall_nanos)
            ));
            let joined = |v: &[u64]| v.iter().map(|&ns| ms(ns)).collect::<Vec<_>>().join(", ");
            s.push_str(&format!(
                "      \"worker_busy_ms\": [{}],\n",
                joined(&p.worker_busy_nanos)
            ));
            s.push_str(&format!(
                "      \"worker_jobs\": [{}],\n",
                p.worker_jobs
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            s.push_str(&format!(
                "      \"worker_chunks\": [{}],\n",
                p.worker_chunks
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            let clusters: Vec<String> = c
                .flow
                .cluster_wall_nanos
                .iter()
                .map(|(name, ns)| {
                    format!(
                        "{{\"name\": \"{}\", \"ms\": {}}}",
                        json_escape(name),
                        ms(*ns)
                    )
                })
                .collect();
            s.push_str(&format!("      \"clusters\": [{}]\n", clusters.join(", ")));
            s.push_str("    }");
            s
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
}

fn phases_section(out: &mut String, snap: &Snapshot) {
    out.push_str("  \"phases\": [\n");
    let rows: Vec<String> = snap
        .phases
        .iter()
        .map(|e| {
            let parent = match e.parent {
                Some(p) => format!("\"{}\"", p.name()),
                None => "null".into(),
            };
            format!(
                "    {{\"phase\": \"{}\", \"parent\": {}, \"calls\": {}, \"ms\": {}}}",
                e.phase.name(),
                parent,
                e.calls,
                ms(e.nanos)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n");
}

/// Render the full `sna-metrics-v2` document.
///
/// `snap` is the aggregated observability snapshot (usually
/// [`sna_obs::snapshot()`] taken after the run), `corners` the per-corner
/// flow reports, and `elapsed_s` the wall time of the whole run.
pub fn metrics_to_json(snap: &Snapshot, corners: &[CornerReport], elapsed_s: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sna-metrics-v2\",\n");
    out.push_str(&format!("  \"threads\": {},\n", snap.threads));
    out.push_str(&format!("  \"elapsed_s\": {},\n", num(elapsed_s)));
    section(
        &mut out,
        snap,
        "solver",
        &[
            Metric::SolverDenseSelected,
            Metric::SolverSparseSelected,
            Metric::SolverFactorsDense,
            Metric::SolverRefactorsDense,
            Metric::SolverFactorsSparse,
            Metric::SolverRefactorsSparse,
            Metric::SolverColdFallbacks,
            Metric::SolverSolves,
        ],
        false,
    );
    section(
        &mut out,
        snap,
        "dc",
        &[
            Metric::DcSolves,
            Metric::DcNewtonIterations,
            Metric::DcGminFallbacks,
            Metric::DcSourceStepFallbacks,
        ],
        false,
    );
    section(
        &mut out,
        snap,
        "tran",
        &[
            Metric::TranCalls,
            Metric::TranSteps,
            Metric::TranNewtonIterations,
        ],
        false,
    );
    section(
        &mut out,
        snap,
        "serve",
        &[
            Metric::ServeQueries,
            Metric::ServeReanalyzed,
            Metric::ServeMemoHits,
        ],
        false,
    );
    section(
        &mut out,
        snap,
        "frame",
        &[
            Metric::FrameClusters,
            Metric::FrameCandidatesConsidered,
            Metric::FramePrunedWindow,
            Metric::FramePrunedMexcl,
            Metric::FrameSimulated,
        ],
        false,
    );
    cache_section(&mut out, corners);
    pool_section(&mut out, corners);
    phases_section(&mut out, snap);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{FlowOptions, FlowReport};
    use crate::pool::PoolMetrics;
    use sna_core::sna::NoiseReport;

    fn sample_corner() -> CornerReport {
        CornerReport {
            tech: "cmos130".into(),
            flow: FlowReport {
                report: NoiseReport::default(),
                cache: LibraryStats::default(),
                threads: 2,
                pool: PoolMetrics {
                    worker_busy_nanos: vec![1_500_000, 2_500_000],
                    worker_jobs: vec![3, 5],
                    worker_chunks: vec![2, 2],
                    job_nanos: vec![500_000; 8],
                    wall_nanos: 4_000_000,
                },
                cluster_wall_nanos: vec![("net000".into(), 500_000)],
            },
        }
    }

    #[test]
    fn document_has_every_section_and_balanced_braces() {
        let snap = sna_obs::snapshot();
        let corners = [sample_corner()];
        let j = metrics_to_json(&snap, &corners, 1.25);
        for key in [
            "\"schema\": \"sna-metrics-v2\"",
            "\"threads\":",
            "\"elapsed_s\": 1.25",
            "\"solver\":",
            "\"dc\":",
            "\"tran\":",
            "\"serve\":",
            "\"queries\":",
            "\"frame\":",
            "\"pruned_window\":",
            "\"pruned_mexcl\":",
            "\"simulated\":",
            "\"cache\":",
            "\"disk_hits\":",
            "\"disk_misses\":",
            "\"stale_rejected\":",
            "\"by_kind\":",
            "\"load_curve\":",
            "\"thevenin\":",
            "\"nrc\":",
            "\"pool\":",
            "\"worker_busy_ms\": [1.5, 2.5]",
            "\"clusters\": [{\"name\": \"net000\", \"ms\": 0.5}]",
            "\"phases\":",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Determinism guard: the report serializers never see any of this.
        let _ = FlowOptions::default();
    }
}
