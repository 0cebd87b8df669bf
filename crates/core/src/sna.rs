//! Full static-noise-analysis flow.
//!
//! The paper closes with "future work will focus on developing a complete
//! methodology for static noise analysis based on our macromodel" — this
//! module is that methodology, scaled to what a library can demonstrate: a
//! synthetic design generator (clusters with randomized geometry, drivers
//! and coupling), per-cluster worst-case evaluation with the macromodel
//! engine, and NRC-based sign-off classification at the victim receivers.
//!
//! [`run_sna`] walks the design serially; the `sna-flow` crate drives the
//! same per-cluster kernel ([`analyze_cluster`]) from a worker pool with a
//! shared [`NoiseModelLibrary`] for
//! full-chip runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sna_cells::{Cell, CellType, Technology};
use sna_spice::error::Result;
use sna_spice::units::{NS, PS};
use sna_spice::waveform::GlitchMetrics;

use crate::alignment::worst_case_alignment;
use crate::cluster::{
    AggressorSpec, ClusterMacromodel, ClusterSpec, InputGlitch, MacromodelOptions, VictimSpec,
};
use crate::engine::simulate_macromodel;
use crate::frame::{constrained_worst_case, FrameOutcome};
use crate::library::NoiseModelLibrary;
use crate::nrc::NoiseRejectionCurve;
use crate::scenarios::m4_bus;

/// Sign-off classification of one victim net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Comfortably below the rejection curve.
    Pass,
    /// Passing, but within the configured guard band of the curve.
    MarginWarning,
    /// Above the curve: flagged as a functional failure risk.
    Fail,
}

impl Verdict {
    /// The sign-off rule: a negative `margin` fails, one below
    /// `guard_band` warns, anything else passes.
    pub fn from_margin(margin: f64, guard_band: f64) -> Verdict {
        if margin < 0.0 {
            Verdict::Fail
        } else if margin < guard_band {
            Verdict::MarginWarning
        } else {
            Verdict::Pass
        }
    }
}

/// One named cluster in a synthetic design.
#[derive(Debug, Clone)]
pub struct DesignCluster {
    /// Stable identifier (`netNNN`).
    pub name: String,
    /// The cluster description.
    pub spec: ClusterSpec,
}

/// A synthetic design: a bag of independent noise clusters.
#[derive(Debug, Clone)]
pub struct Design {
    /// Technology node shared by all clusters.
    pub tech: Technology,
    /// The clusters.
    pub clusters: Vec<DesignCluster>,
}

impl Design {
    /// Generate `n` random clusters with the given `seed`. Geometry spans
    /// 150–900 µm, 1–3 aggressors of discrete strength {×2, ×3, ×4, ×6},
    /// victims drawn from {INV, NAND2, NOR2} at {×1, ×1.5, ×2}, ~60 % of
    /// nets carrying a propagated glitch. Drive strengths are discrete, as
    /// in a real standard-cell library — which is what lets a design-level
    /// flow reuse per-cell characterization artifacts across clusters.
    pub fn random(tech: &Technology, n: usize, seed: u64) -> Design {
        const VICTIM_STRENGTHS: [f64; 3] = [1.0, 1.5, 2.0];
        const AGGRESSOR_STRENGTHS: [f64; 4] = [2.0, 3.0, 4.0, 6.0];
        const RECEIVER_STRENGTHS: [f64; 2] = [1.0, 2.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clusters = Vec::with_capacity(n);
        for i in 0..n {
            let n_agg = rng.gen_range(1..=3);
            let len_um = rng.gen_range(150.0..900.0);
            let victim_type = match rng.gen_range(0..3) {
                0 => CellType::Inv,
                1 => CellType::Nand2,
                _ => CellType::Nor2,
            };
            let strength = VICTIM_STRENGTHS[rng.gen_range(0..VICTIM_STRENGTHS.len())];
            let victim_cell = Cell::new(victim_type, tech.clone(), strength);
            let mode = victim_cell.holding_low_mode();
            let glitch = if rng.gen_bool(0.6) {
                Some(InputGlitch {
                    height: tech.vdd * rng.gen_range(0.4..0.9),
                    width: rng.gen_range(200.0..900.0) * PS,
                    t_peak: rng.gen_range(0.4..0.9) * NS,
                })
            } else {
                None
            };
            let aggressors = (0..n_agg)
                .map(|_| AggressorSpec {
                    cell: Cell::inv(
                        tech.clone(),
                        AGGRESSOR_STRENGTHS[rng.gen_range(0..AGGRESSOR_STRENGTHS.len())],
                    ),
                    rising: true,
                    input_slew: rng.gen_range(40.0..150.0) * PS,
                    switch_time: rng.gen_range(0.3..0.7) * NS,
                    receiver_cap: Cell::inv(
                        tech.clone(),
                        RECEIVER_STRENGTHS[rng.gen_range(0..RECEIVER_STRENGTHS.len())],
                    )
                    .input_capacitance(),
                    window: None,
                    mexcl_group: None,
                })
                .collect();
            let bus = m4_bus(tech, n_agg + 1, len_um, 12);
            clusters.push(DesignCluster {
                name: format!("net{i:03}"),
                spec: ClusterSpec {
                    tech: tech.clone(),
                    victim: VictimSpec {
                        cell: victim_cell,
                        mode,
                        glitch,
                        receiver: Cell::inv(tech.clone(), 1.0),
                        sensitivity: None,
                    },
                    aggressors,
                    bus,
                    char_opts: Default::default(),
                    t_stop: 3.0 * NS,
                    dt: 1.0 * PS,
                },
            });
        }
        Design {
            tech: tech.clone(),
            clusters,
        }
    }
}

/// Flow controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnaOptions {
    /// Run the worst-case alignment search per cluster (otherwise evaluate
    /// nominal timing only).
    pub align_worst_case: bool,
    /// Timing half-window for the alignment search (s).
    pub align_window: f64,
    /// Guard band (V) below the NRC threshold that triggers
    /// [`Verdict::MarginWarning`].
    pub margin_band: f64,
    /// Abort the whole run on the first per-cluster engine/build failure
    /// instead of downgrading it to a [`SkippedCluster`] diagnostic.
    /// Off by default: a production flow reports the bad net and keeps
    /// going; tests opt in to catch regressions.
    pub strict: bool,
    /// Window sample points per constrained aggressor in the FRAME
    /// candidate enumeration (clusters with windows/mexcl groups only).
    pub frame_grid: usize,
    /// Evaluate every structural FRAME candidate instead of pruning
    /// infeasible ones — the exhaustive baseline the bench and the CI
    /// byte-identity gate compare against.
    pub frame_exhaustive: bool,
}

impl Default for SnaOptions {
    fn default() -> Self {
        Self {
            align_worst_case: false,
            align_window: 400.0 * PS,
            margin_band: 0.1,
            strict: false,
            frame_grid: 4,
            frame_exhaustive: false,
        }
    }
}

/// Per-cluster outcome.
#[derive(Debug, Clone)]
pub struct ClusterFinding {
    /// Cluster name.
    pub name: String,
    /// Glitch metrics at the victim receiver input.
    pub receiver_metrics: GlitchMetrics,
    /// NRC margin (V) at the receiver (negative = failing).
    pub margin: f64,
    /// Classification.
    pub verdict: Verdict,
    /// Constrained (FRAME) outcome, present when the cluster carries
    /// switching-window or mutual-exclusion constraints. The verdict
    /// stays keyed to the pessimistic `margin`; this reports how much of
    /// that pessimism the constraints recover.
    pub constrained: Option<FrameOutcome>,
}

/// A cluster the flow could not analyze (macromodel build or engine
/// failure), downgraded to a diagnostic in non-strict runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCluster {
    /// Cluster name.
    pub name: String,
    /// Human-readable failure description (the underlying error display).
    pub reason: String,
}

/// Design-level report.
#[derive(Debug, Clone, Default)]
pub struct NoiseReport {
    /// Per-cluster findings, design order.
    pub findings: Vec<ClusterFinding>,
    /// Clusters skipped with a diagnostic (empty in strict runs, which
    /// abort instead).
    pub skipped: Vec<SkippedCluster>,
}

impl NoiseReport {
    /// Count of clusters with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.findings.iter().filter(|f| f.verdict == v).count()
    }

    /// Findings sorted worst-margin-first. NaN margins (which should not
    /// occur, but must not panic a sign-off run) sort last via
    /// [`f64::total_cmp`].
    pub fn worst_first(&self) -> Vec<&ClusterFinding> {
        let mut sorted: Vec<&ClusterFinding> = self.findings.iter().collect();
        sorted.sort_by(|a, b| a.margin.total_cmp(&b.margin));
        sorted
    }

    /// Total clusters accounted for (analyzed + skipped).
    pub fn total(&self) -> usize {
        self.findings.len() + self.skipped.len()
    }
}

/// Evaluate one cluster: build its macromodel (drawing per-cell artifacts
/// from `library`), simulate (optionally at the worst-case alignment), and
/// classify the receiver glitch against `nrc`.
///
/// This is the per-net kernel both [`run_sna`] and the parallel `sna-flow`
/// driver share; it is deterministic in its inputs, so any scheduling of
/// clusters across threads yields identical findings.
///
/// # Errors
///
/// Propagates macromodel build / engine failures for the caller to either
/// abort on (strict) or downgrade to a [`SkippedCluster`].
pub fn analyze_cluster(
    cluster: &DesignCluster,
    nrc: &NoiseRejectionCurve,
    opts: &SnaOptions,
    mm_opts: &MacromodelOptions,
    library: &NoiseModelLibrary,
) -> Result<ClusterFinding> {
    let model = ClusterMacromodel::build_with_library(&cluster.spec, mm_opts, library)?;
    let waves = if opts.align_worst_case {
        worst_case_alignment(&model, opts.align_window)?.waveforms
    } else {
        simulate_macromodel(&model)?
    };
    let rm = waves.receiver.glitch_metrics(model.q_out);
    let margin = nrc.margin(rm.width, rm.peak);
    let verdict = Verdict::from_margin(margin, opts.margin_band);
    // Constrained (FRAME) pass: only clusters that carry constraints pay
    // for the enumeration; everything else reports pessimistic-only.
    let constrained = if cluster.spec.has_frame_constraints() {
        Some(constrained_worst_case(
            &model,
            nrc,
            opts.frame_grid,
            opts.frame_exhaustive,
            Default::default(),
        )?)
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

/// Run static noise analysis over a design, serially.
///
/// Per-cluster engine/build failures are downgraded to
/// [`NoiseReport::skipped`] diagnostics unless [`SnaOptions::strict`] is
/// set. For multi-threaded runs use `sna_flow::run_sna_parallel`, which
/// produces an identical report.
///
/// # Errors
///
/// In strict mode, propagates the first per-cluster failure (in design
/// order).
pub fn run_sna(
    design: &Design,
    nrc: &NoiseRejectionCurve,
    opts: &SnaOptions,
) -> Result<NoiseReport> {
    // One characterization library for the whole design: clusters sharing a
    // (cell, drive-state, load-bucket) reuse each other's artifacts.
    let library = NoiseModelLibrary::new();
    let mm_opts = MacromodelOptions::default();
    let mut report = NoiseReport::default();
    for cl in &design.clusters {
        match analyze_cluster(cl, nrc, opts, &mm_opts, &library) {
            Ok(finding) => report.findings.push(finding),
            Err(e) if opts.strict => return Err(e),
            Err(e) => report.skipped.push(SkippedCluster {
                name: cl.name.clone(),
                reason: e.to_string(),
            }),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nrc::characterize_nrc;

    #[test]
    fn random_design_is_reproducible() {
        let tech = Technology::cmos130();
        let d1 = Design::random(&tech, 5, 42);
        let d2 = Design::random(&tech, 5, 42);
        assert_eq!(d1.clusters.len(), 5);
        for (a, b) in d1.clusters.iter().zip(&d2.clusters) {
            assert_eq!(a.spec.bus.wires[0].length, b.spec.bus.wires[0].length);
            assert_eq!(a.spec.aggressors.len(), b.spec.aggressors.len());
        }
        let d3 = Design::random(&tech, 5, 43);
        let same = d1
            .clusters
            .iter()
            .zip(&d3.clusters)
            .all(|(a, b)| a.spec.bus.wires[0].length == b.spec.bus.wires[0].length);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn random_design_reuses_discrete_cells() {
        // Drive strengths come from a discrete menu, so a modest design
        // must repeat (cell type, strength) pairs — the precondition for
        // cross-cluster characterization reuse.
        let tech = Technology::cmos130();
        let d = Design::random(&tech, 12, 42);
        let mut victims: Vec<(&'static str, u64)> = d
            .clusters
            .iter()
            .map(|c| {
                (
                    c.spec.victim.cell.cell_type.tag(),
                    c.spec.victim.cell.strength.to_bits(),
                )
            })
            .collect();
        victims.sort();
        victims.dedup();
        assert!(
            victims.len() < d.clusters.len(),
            "12 clusters over a 9-entry victim menu must collide"
        );
    }

    #[test]
    fn sna_flow_classifies_a_small_design() {
        let tech = Technology::cmos130();
        let design = Design::random(&tech, 4, 7);
        let nrc = characterize_nrc(
            &Cell::inv(tech.clone(), 1.0),
            true,
            &[100.0 * PS, 300.0 * PS, 900.0 * PS],
        )
        .unwrap();
        let report = run_sna(&design, &nrc, &SnaOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 4);
        assert!(report.skipped.is_empty());
        assert_eq!(report.total(), 4);
        let total = report.count(Verdict::Pass)
            + report.count(Verdict::MarginWarning)
            + report.count(Verdict::Fail);
        assert_eq!(total, 4);
        // Margins sorted worst-first are non-decreasing.
        let worst = report.worst_first();
        for pair in worst.windows(2) {
            assert!(pair[0].margin <= pair[1].margin);
        }
    }

    #[test]
    fn invalid_cluster_is_skipped_not_fatal() {
        let tech = Technology::cmos130();
        let mut design = Design::random(&tech, 3, 11);
        // Sabotage the middle cluster: an empty time window fails
        // validation inside the macromodel build.
        design.clusters[1].spec.dt = 0.0;
        let nrc = characterize_nrc(
            &Cell::inv(tech.clone(), 1.0),
            true,
            &[100.0 * PS, 300.0 * PS, 900.0 * PS],
        )
        .unwrap();
        let report = run_sna(&design, &nrc, &SnaOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].name, "net001");
        assert!(
            report.skipped[0].reason.contains("dt"),
            "reason should carry the underlying error: {}",
            report.skipped[0].reason
        );
        // Strict mode still aborts, for tests that want hard failures.
        let strict = SnaOptions {
            strict: true,
            ..Default::default()
        };
        assert!(run_sna(&design, &nrc, &strict).is_err());
    }

    #[test]
    fn worst_first_survives_nan_margins() {
        fn finding(name: &str, margin: f64) -> ClusterFinding {
            ClusterFinding {
                name: name.into(),
                receiver_metrics: GlitchMetrics {
                    peak: 0.1,
                    polarity: 1.0,
                    peak_time: 1e-9,
                    width: 3e-10,
                    area: 1e-11,
                },
                margin,
                verdict: Verdict::Pass,
                constrained: None,
            }
        }
        let report = NoiseReport {
            findings: vec![
                finding("a", 0.2),
                finding("nan", f64::NAN),
                finding("b", -0.4),
            ],
            skipped: Vec::new(),
        };
        // Previously this panicked on `partial_cmp(...).expect(...)`.
        let worst = report.worst_first();
        assert_eq!(worst[0].name, "b");
        assert_eq!(worst[1].name, "a");
        assert!(worst[2].margin.is_nan(), "NaN sorts last under total_cmp");
    }
}
