//! The timed phase shared by the two batch workloads: whole sign-off
//! rounds over a design, each cluster through `analyze_cluster` (what
//! `run_sna_parallel_with` does on one thread), ending by rendering the
//! `sna-report-v1` JSON as the CLI does.

use std::sync::Arc;

use sna_cells::Cell;
use sna_core::cluster::MacromodelOptions;
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::nrc::NoiseRejectionCurve;
use sna_core::sna::{analyze_cluster, Design, NoiseReport, SnaOptions, Verdict};
use sna_flow::corners::{CornerReport, NRC_WIDTHS};
use sna_flow::driver::FlowReport;
use sna_flow::output::{to_json, RunSummary};
use sna_obs::local_snapshot;
use sna_spice::error::Result;

use crate::calib::{median_of, Clock, Timed, Which, CAL};
use crate::design::tech;
use crate::layers::{analyze_traced, Counts, LayerTotals};
use crate::trace::Recorder;
use crate::{timed_op, Args, Report};

/// The receiver NRC, as `run_corners_windowed` characterizes it.
pub fn nrc(lib: &NoiseModelLibrary, mm: &MacromodelOptions) -> Result<Arc<NoiseRejectionCurve>> {
    lib.nrc(&Cell::inv(tech(), 1.0), true, &NRC_WIDTHS, mm.solver)
}

/// The CLI's rendering of a one-corner run.
pub fn render(design: &Design, design_seed: u64, sna: &SnaOptions, report: NoiseReport) -> String {
    to_json(&RunSummary {
        clusters: design.clusters.len(),
        seed: design_seed,
        align_worst_case: sna.align_worst_case,
        margin_band: sna.margin_band,
        corners: vec![CornerReport {
            tech: design.tech.name.clone(),
            flow: FlowReport {
                report,
                cache: LibraryStats::default(),
                threads: 1,
                pool: Default::default(),
                cluster_wall_nanos: Vec::new(),
            },
        }],
    })
}

/// Check every finding's margin and verdict against the NRC's public
/// threshold and the guard band.
pub fn check_verdicts(
    report: &mut Report,
    findings: &NoiseReport,
    nrc: &NoiseRejectionCurve,
    band: f64,
) {
    for f in &findings.findings {
        let m = &f.receiver_metrics;
        let margin = nrc.threshold(m.width) - m.peak;
        let verdict = if margin < 0.0 {
            Verdict::Fail
        } else if margin < band {
            Verdict::MarginWarning
        } else {
            Verdict::Pass
        };
        report.check(margin == f.margin && verdict == f.verdict, || {
            format!(
                "{}: margin {} / {:?} reported, {} / {:?} recomputed",
                f.name, f.margin, f.verdict, margin, verdict
            )
        });
    }
}

/// Per-operation times of the timed phase: `ops[r][i]` is operation `i`
/// of round `r`. Every round runs the same operations.
#[derive(Default)]
pub struct Rounds {
    pub ops: Vec<Vec<Timed>>,
}

impl Rounds {
    /// Seconds of one round, as the sum over its operations of each
    /// operation's median across rounds.
    pub fn round_median_s(&self, which: Which) -> f64 {
        (0..self.ops[0].len())
            .map(|i| median_of(&self.ops.iter().map(|r| r[i]).collect::<Vec<_>>(), which))
            .sum()
    }

    /// Time of each round.
    pub fn rounds(&self) -> Vec<Timed> {
        self.ops.iter().map(|r| r.iter().copied().sum()).collect()
    }
}

/// Where a round's artifacts come from.
#[derive(Clone, Copy)]
pub enum Library<'a> {
    /// A fresh library every round; the round's first operation
    /// characterizes the receiver NRC.
    FreshPerRound,
    /// One library for every round, with the NRC already fetched.
    Shared(&'a NoiseModelLibrary, &'a NoiseRejectionCurve),
}

/// What the timed phase measured and produced.
pub struct Phase {
    pub untraced: Rounds,
    pub traced: Rounds,
    pub layers: LayerTotals,
    pub rec: Recorder,
    /// `VmHWM` when the timed phase ended.
    pub peak_rss_mb: f64,
    /// The first round's findings and rendered report.
    pub findings: NoiseReport,
    pub json: String,
    /// The last round's library, for [`Library::FreshPerRound`].
    pub last_lib: NoiseModelLibrary,
}

/// Run whole rounds until `args.seconds` have passed (at least one
/// untraced round, and with tracing one traced round: traced runs
/// alternate untraced and traced rounds). Every round must render the
/// same report as the first, whose verdicts are checked.
#[allow(clippy::too_many_arguments)]
pub fn run_rounds(
    args: &Args,
    report: &mut Report,
    clock: &mut Clock,
    design: &Design,
    design_seed: u64,
    sna: &SnaOptions,
    mm: &MacromodelOptions,
    library: Library<'_>,
) -> Phase {
    let mut rec = Recorder::new();
    let mut layers = LayerTotals::default();
    let mut counts = Counts::default();
    let (mut untraced, mut traced) = (Rounds::default(), Rounds::default());
    let mut first_json: Option<String> = None;
    let mut first_findings = NoiseReport::default();
    let mut last_lib = NoiseModelLibrary::new();
    let started = std::time::Instant::now();
    let mut round = 0u64;
    while untraced.ops.is_empty()
        || (args.trace && traced.ops.is_empty())
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let tracing = args.trace && round % 2 == 1;
        rec.set_enabled(tracing);
        let mut ops = Vec::with_capacity(design.clusters.len() + 2);
        let op_base = round * 1000;
        let spice_before = local_snapshot();
        let (mut fresh, mut fresh_curve) = (None, None);
        let (lib, curve): (&NoiseModelLibrary, &NoiseRejectionCurve) = match library {
            Library::FreshPerRound => {
                let lib = fresh.insert(NoiseModelLibrary::new());
                let (curve, t) = timed_op(clock, &mut rec, &mut layers, op_base, |r| {
                    r.span("cells.nrc", |_| nrc(lib, mm))
                });
                ops.push(t);
                (lib, fresh_curve.insert(curve.expect("receiver NRC")))
            }
            Library::Shared(lib, curve) => (lib, curve),
        };
        let stats_before = match library {
            Library::FreshPerRound => LibraryStats::default(),
            Library::Shared(..) => lib.stats(),
        };
        let mut findings = NoiseReport::default();
        for (i, c) in design.clusters.iter().enumerate() {
            let (result, t) = timed_op(clock, &mut rec, &mut layers, op_base + 1 + i as u64, |r| {
                if tracing {
                    analyze_traced(r, lib, c, curve, sna, mm, &mut counts)
                } else {
                    analyze_cluster(c, curve, sna, mm, lib)
                }
            });
            ops.push(t);
            report.attempted += 1;
            match result {
                Ok(f) => findings.findings.push(f),
                Err(e) => {
                    report.failed += 1;
                    eprintln!("{}: {e}", c.name);
                }
            }
        }
        if first_json.is_none() {
            check_verdicts(report, &findings, curve, sna.margin_band);
            first_findings = findings.clone();
        }
        let (json, t) = timed_op(clock, &mut rec, &mut layers, op_base + 999, |r| {
            r.span("flow.render", |_| {
                render(design, design_seed, sna, findings)
            })
        });
        ops.push(t);
        if tracing {
            traced.ops.push(ops);
        } else {
            layers.add_round_counts(
                &LibraryStats::delta(&lib.stats(), &stats_before),
                &local_snapshot().since(&spice_before),
            );
            untraced.ops.push(ops);
        }
        match &first_json {
            None => first_json = Some(json),
            Some(first) => report.check(*first == json, || {
                format!("round {round} rendered a different report than round 0")
            }),
        }
        if let Some(lib) = fresh {
            last_lib = lib;
        }
        round += 1;
    }
    layers.counts = counts;
    Phase {
        untraced,
        traced,
        layers,
        rec,
        peak_rss_mb: crate::peak_rss_mb(),
        findings: first_findings,
        json: first_json.expect("at least one round"),
        last_lib,
    }
}

impl Phase {
    /// Tracing overhead: traced over untraced median round, minus one (%).
    pub fn overhead_pct(&self) -> f64 {
        let median_round = |r: &Rounds| median_of(&r.rounds(), CAL);
        100.0 * (median_round(&self.traced) / median_round(&self.untraced) - 1.0)
    }

    /// The end-to-end metrics of a batch workload, from untraced rounds.
    pub fn metrics(&self, report: &mut Report, setup: &[Timed], clusters: usize) {
        report.time_metric("setup_s", "s", |w| median_of(setup, w));
        report.time_metric("clusters_per_s", "1/s", |w| {
            clusters as f64 / self.untraced.round_median_s(w)
        });
        // A batch run has no edit round trip: the only latency it measures
        // is a sign-off pass, and with 5-15 passes a run has no tail, so
        // both round-trip metrics read the median pass.
        let pass_ms = |w| 1e3 * self.untraced.round_median_s(w);
        report.time_metric("edit_p50_ms", "ms", pass_ms);
        report.time_metric("edit_p90_ms", "ms", pass_ms);
        report.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}
