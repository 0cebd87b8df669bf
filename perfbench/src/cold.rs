//! `cold_signoff`: sign-off of a generated design on an empty library.
//!
//! Each round starts from a fresh `NoiseModelLibrary`, characterizes the
//! receiver NRC, analyzes every cluster at nominal timing and renders the
//! report. A first run on a new block is dominated by characterization.

use sna_core::cluster::MacromodelOptions;
use sna_core::library::NoiseModelLibrary;
use sna_core::sna::{analyze_cluster, Design, NoiseReport, SnaOptions};
use sna_flow::corners::run_corners_windowed;
use sna_flow::driver::FlowOptions;
use sna_flow::output::{to_json, RunSummary};

use crate::accuracy::nominal_sample;
use crate::batch::{nrc, render, run_rounds, Library};
use crate::calib::{Clock, Timed};
use crate::design::{select_design, tech, MakeUp, REFERENCE_SEED};
use crate::{time_repeated, Args, Report};

/// Twelve clusters: four each with one, two and three aggressors, seven
/// with a propagated input glitch, seven distinct victim cells and ten
/// propagated-noise tables.
pub const MAKEUP: MakeUp = MakeUp {
    kinds: &[
        (1, false),
        (1, false),
        (1, true),
        (1, true),
        (2, false),
        (2, true),
        (2, true),
        (2, true),
        (3, false),
        (3, false),
        (3, true),
        (3, true),
    ],
    distinct_victims: Some(7),
    prop_tables: Some(10),
};

/// Timed operations for `setup_s`, and design generations in each.
const SETUP_REPEATS: usize = 15;
const SETUP_STEP_REPS: usize = 200;
/// Clusters of the reference design in the accuracy sample.
const ACCURACY_SAMPLE: usize = 8;

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let sna = SnaOptions::default();
    let mm = MacromodelOptions::default();
    let (design_seed, design) = select_design(&MAKEUP, args.seed);
    let n = design.clusters.len();
    let mut clock = Clock::new();

    // Set-up: generating the design is all a cold sign-off does before
    // its first characterization.
    let setup: Vec<Timed> = (0..SETUP_REPEATS)
        .map(|_| {
            time_repeated(&mut clock, SETUP_STEP_REPS, || {
                Design::random(&design.tech, n, design_seed)
            })
            .1
        })
        .collect();

    let phase = run_rounds(
        args,
        &mut report,
        &mut clock,
        &design,
        design_seed,
        &sna,
        &mm,
        Library::FreshPerRound,
    );

    // Re-run the pass on a library decoded from the run's own image: the
    // report must come back byte for byte, with zero characterization.
    let (bytes, t_encode) = clock.time(|| phase.last_lib.to_cache_bytes());
    let decoded = NoiseModelLibrary::new();
    let (loaded, t_decode) = clock.time(|| decoded.load_cache_bytes(&bytes));
    let again = loaded.and_then(|_| {
        let curve = nrc(&decoded, &mm)?;
        let mut again = NoiseReport::default();
        for c in &design.clusters {
            again
                .findings
                .push(analyze_cluster(c, &curve, &sna, &mm, &decoded)?);
        }
        Ok(again)
    });
    let st = decoded.stats();
    report.check(st.misses == 0 && st.hits == st.disk_hits, || {
        format!(
            "decoded-library pass: {} misses, {} of {} hits from disk",
            st.misses, st.disk_hits, st.hits
        )
    });
    match again {
        Ok(again) => report.check(
            render(&design, design_seed, &sna, again) == phase.json,
            || "decoded-library pass rendered a different report".into(),
        ),
        Err(e) => report.check(false, || format!("decoded-library pass failed: {e}")),
    }

    // The assembled report must equal the flow's own at two workers.
    let flow_opts = FlowOptions {
        sna,
        mm,
        threads: 2,
    };
    let lib = NoiseModelLibrary::new();
    match run_corners_windowed(&[tech()], n, design_seed, &flow_opts, &lib, &[]) {
        Ok(corners) => {
            let flow_json = to_json(&RunSummary {
                clusters: n,
                seed: design_seed,
                align_worst_case: false,
                margin_band: sna.margin_band,
                corners,
            });
            report.check(flow_json == phase.json, || {
                "report differs from run_corners_windowed at two threads".into()
            });
        }
        Err(e) => report.check(false, || format!("run_corners_windowed failed: {e}")),
    }

    // The first clusters of the workload's design at the reference seed.
    let (_, reference) = select_design(&MAKEUP, REFERENCE_SEED);
    let sample = &reference.clusters[..ACCURACY_SAMPLE];
    let accuracy = nominal_sample(&mut report, sample, &sna, &mm);

    if args.trace {
        let libcache = (t_decode.cal * 1e3, t_encode.cal * 1e3, bytes.len() as f64);
        let rounds = phase.traced.ops.len() as f64;
        report.metrics = phase.layers.metrics(rounds, libcache, phase.overhead_pct());
        crate::write_trace(&phase.rec, args);
    } else {
        phase.metrics(&mut report, &setup, n);
        report.metric("peak_vs_golden_pct", accuracy.peak_pct, "%");
        report.metric("area_vs_golden_pct", accuracy.area_pct, "%");
    }
    report
}
