//! FRAME pruning: constraint-aware alignment vs exhaustive enumeration.
//!
//! The paper's alignment search treats every aggressor as free to switch
//! anywhere; timing windows and mutual-exclusion groups from the design's
//! timing/logic context shrink the candidate space before any simulation
//! is spent. This bench measures that shrinkage on the paper's Table 2
//! cluster: the pruned constrained search vs the exhaustive enumeration of
//! the same candidate space. The unconstrained alignment search is timed
//! end to end by perfbench's `warm_worst_case` workload.
//!
//! Three modes, mirroring `benches/sweep.rs`:
//!
//! * default — criterion harness: pruned vs exhaustive per grid size.
//! * `--format json` — hand-timed medians as the `sna-bench-frame-v1`
//!   document checked in as `BENCH_frame.json`. Headline numbers:
//!   `prune_rate` (fraction of candidates never simulated) and
//!   `speedup_vs_exhaustive` (wall-clock win of pruning).
//! * `--test` — smoke run: structural assertions only (pruning ≥ 50% on
//!   the constrained fixture, pruned == exhaustive bitwise on a fully
//!   feasible one); timing ratios are not asserted on shared CI runners.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use sna_cells::Cell;
use sna_core::cluster::{ClusterMacromodel, SwitchingWindow};
use sna_core::frame::{constrained_worst_case, FrameOutcome};
use sna_core::nrc::{characterize_nrc, NoiseRejectionCurve};
use sna_core::scenarios::table2_spec;
use sna_spice::units::{NS, PS};

fn nrc() -> NoiseRejectionCurve {
    let tech = sna_cells::Technology::cmos130();
    characterize_nrc(
        &Cell::inv(tech, 1.0),
        true,
        &[100.0 * PS, 300.0 * PS, 900.0 * PS],
    )
    .expect("NRC characterization")
}

/// The constrained fixture: both aggressors windowed and mutually
/// exclusive, one window straddling the edge of the victim's sensitivity
/// interval — so both pruning stages fire: late positions of aggressor 1
/// die at the window check, and its surviving early position conflicts
/// with aggressor 0 via the mexcl group.
fn constrained_model() -> ClusterMacromodel {
    let mut spec = table2_spec();
    spec.aggressors[0].mexcl_group = Some(1);
    spec.aggressors[1].mexcl_group = Some(1);
    spec.aggressors[0].window = Some(SwitchingWindow::new(0.3 * NS, 0.7 * NS));
    spec.aggressors[1].window = Some(SwitchingWindow::new(0.9 * NS, 2.6 * NS));
    spec.victim.sensitivity = Some(SwitchingWindow::new(0.0, 1.2 * NS));
    ClusterMacromodel::build(&spec).expect("constrained macromodel")
}

/// A fully feasible fixture: windows inside an always-sensitive victim,
/// no mexcl — nothing prunes, so pruned and exhaustive runs must agree
/// bitwise (the CI gate's premise).
fn feasible_model() -> ClusterMacromodel {
    let mut spec = table2_spec();
    spec.aggressors[0].window = Some(SwitchingWindow::new(0.3 * NS, 0.6 * NS));
    spec.aggressors[1].window = Some(SwitchingWindow::new(0.2 * NS, 0.7 * NS));
    ClusterMacromodel::build(&spec).expect("feasible macromodel")
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

struct FrameCase {
    grid: usize,
    considered: u64,
    pruned_window: u64,
    pruned_mexcl: u64,
    simulated: u64,
    prune_rate: f64,
    pruned_ms: f64,
    exhaustive_ms: f64,
    speedup_vs_exhaustive: f64,
    margins_match_feasible_subset: bool,
}

/// [`constrained_worst_case`] with its ignored last argument filled in.
fn search(
    model: &ClusterMacromodel,
    n: &NoiseRejectionCurve,
    grid: usize,
    exhaustive: bool,
) -> FrameOutcome {
    constrained_worst_case(model, n, grid, exhaustive, Default::default()).unwrap()
}

/// One grid point on the constrained fixture: counters from a pruned run,
/// median wall times for pruned vs exhaustive enumeration.
fn run_case(grid: usize, reps: usize) -> FrameCase {
    let model = constrained_model();
    let n = nrc();
    let pruned = search(&model, &n, grid, false);
    let full = search(&model, &n, grid, true);
    let pruned_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(search(&model, &n, grid, false));
        });
    let exhaustive_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(search(&model, &n, grid, true));
        });
    FrameCase {
        grid,
        considered: pruned.counters.considered,
        pruned_window: pruned.counters.pruned_window,
        pruned_mexcl: pruned.counters.pruned_mexcl,
        simulated: pruned.counters.simulated,
        prune_rate: pruned.counters.prune_rate(),
        pruned_ms,
        exhaustive_ms,
        speedup_vs_exhaustive: exhaustive_ms / pruned_ms.max(1e-12),
        // Feasible ⊆ exhaustive: the pruned margin can never be more
        // optimistic than re-finding its own candidate in the full set.
        margins_match_feasible_subset: pruned.margin >= full.margin,
    }
}

fn emit_json(cases: &[FrameCase]) {
    println!("{{");
    println!("  \"schema\": \"sna-bench-frame-v1\",");
    println!(
        "  \"circuit\": \"Table 2 cluster, two aggressors; constrained fixture: one \
         mexcl pair, one window straddling the victim sensitivity edge\","
    );
    println!("  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        println!(
            "    {{\"grid\": {}, \"considered\": {}, \
             \"pruned_window\": {}, \"pruned_mexcl\": {}, \"simulated\": {}, \
             \"prune_rate\": {:.4}, \"pruned_ms\": {:.4}, \"exhaustive_ms\": {:.4}, \
             \"speedup_vs_exhaustive\": {:.4}}}{}",
            c.grid,
            c.considered,
            c.pruned_window,
            c.pruned_mexcl,
            c.simulated,
            c.prune_rate,
            c.pruned_ms,
            c.exhaustive_ms,
            c.speedup_vs_exhaustive,
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

/// Smoke mode for CI: deterministic assertions only.
fn self_test() {
    let c = run_case(2, 1);
    assert!(
        c.prune_rate >= 0.5,
        "constrained fixture prunes only {:.0}%",
        c.prune_rate * 100.0
    );
    assert_eq!(c.considered, c.pruned_window + c.pruned_mexcl + c.simulated);
    assert!(c.margins_match_feasible_subset);

    // Fully feasible: pruned and exhaustive agree bitwise.
    let model = feasible_model();
    let n = nrc();
    let pruned = search(&model, &n, 3, false);
    let full = search(&model, &n, 3, true);
    assert_eq!(
        pruned.counters.pruned_window + pruned.counters.pruned_mexcl,
        0
    );
    assert_eq!(pruned.margin.to_bits(), full.margin.to_bits());
    assert_eq!(pruned.switch_times, full.switch_times);
    println!("frame smoke: prune {:.0}% — ok", c.prune_rate * 100.0);
    println!("frame bench self-test: OK");
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    group.sample_size(10);
    let model = constrained_model();
    let n = nrc();
    for grid in [2usize, 4] {
        group.bench_function(BenchmarkId::new("pruned", grid), |b| {
            b.iter(|| search(&model, &n, grid, false))
        });
        group.bench_function(BenchmarkId::new("exhaustive", grid), |b| {
            b.iter(|| search(&model, &n, grid, true))
        });
    }
    group.finish();
}

// Same dispatch pattern as benches/sweep.rs: criterion by default, plus
// the `--test` / `--format json` modes.
criterion_group!(benches, bench_frame);

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
        let cases: Vec<FrameCase> = [2usize, 4, 6].iter().map(|&g| run_case(g, 5)).collect();
        emit_json(&cases);
        return;
    }
    benches();
}
