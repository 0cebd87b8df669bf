//! `warm_worst_case`: worst-case alignment sign-off on a library decoded
//! from an `sna-libcache-v1` image.
//!
//! The image is written by the program's own CLI (`--library-cache`) in a
//! child process before anything is measured, so characterization does
//! nothing here: the engine and the alignment search dominate. Two of the
//! five clusters carry FRAME constraints (switching windows, a
//! mutual-exclusion group, a victim sensitivity window), so each round
//! also runs the constrained enumeration.

use std::sync::Arc;

use sna_core::alignment::worst_case_alignment_batched;
use sna_core::cluster::{ClusterMacromodel, MacromodelOptions};
use sna_core::engine::simulate_macromodel;
use sna_core::frame::constrained_worst_case;
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::nrc::NoiseRejectionCurve;
use sna_core::sna::{analyze_cluster, Design, NoiseReport, SnaOptions};
use sna_flow::windows::{apply_windows, parse_windows};

use crate::accuracy::Accuracy;
use crate::batch::{nrc, run_rounds, Library};
use crate::calib::{median, Clock};
use crate::design::{
    cluster_of_kind, constrain, scratch_dir, select_design, tech, windows_text,
    write_image_in_child, MakeUp, Rng, REFERENCE_SEED,
};
use crate::{time_repeated, Args, Report};

/// Five clusters: one aggressor without and twice with a glitch, two
/// aggressors without and with; the two-aggressor cluster without a
/// glitch gets a mutual-exclusion pair, the one with a glitch a
/// sensitivity window. Alignment calls stay under a second, so a run
/// holds enough rounds for per-cluster medians. Four distinct victim
/// cells fix the library image at ~45 KB, whose decoding is the set-up.
pub const MAKEUP: MakeUp = MakeUp {
    kinds: &[(1, false), (1, true), (1, true), (2, false), (2, true)],
    distinct_victims: Some(4),
    prop_tables: None,
};

/// Timed set-ups for `setup_s`.
const SETUP_REPEATS: usize = 15;
/// Repetitions of each set-up step inside one timed operation; a single
/// step takes well under a millisecond, so that one set-up takes ~0.2 s
/// and the median of the set-ups spans a few seconds of host speed.
const SETUP_STEP_REPS: usize = 1000;

/// The design seed and FRAME sidecar text of `seed`'s design.
pub fn inputs(seed: u64) -> (u64, Design, String) {
    let (design_seed, design) = select_design(&MAKEUP, seed);
    let mut rng = Rng::new(seed, 1);
    let mut edits = constrain(
        &design,
        cluster_of_kind(&design, (2, false)),
        false,
        1,
        &mut rng,
    );
    edits.extend(constrain(
        &design,
        cluster_of_kind(&design, (2, true)),
        true,
        2,
        &mut rng,
    ));
    (design_seed, design, windows_text(&edits))
}

/// The design with its FRAME constraints, as the program builds it.
fn constrained_design(n: usize, design_seed: u64, windows: &str) -> Design {
    let mut design = Design::random(&tech(), n, design_seed);
    let edits = parse_windows(windows).expect("generated windows parse");
    apply_windows(&mut design, &edits).expect("generated windows apply");
    design
}

fn options() -> (SnaOptions, MacromodelOptions) {
    let sna = SnaOptions {
        align_worst_case: true,
        ..SnaOptions::default()
    };
    (sna, MacromodelOptions::default())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (sna, mm) = options();
    let (design_seed, generated, windows) = inputs(args.seed);
    let n = generated.clusters.len();
    let dir = scratch_dir();
    let (windows_path, image_path) = (dir.join("windows.txt"), dir.join("library.snalib"));
    std::fs::write(&windows_path, &windows).expect("write the windows sidecar");
    write_image_in_child(n, design_seed, &windows_path, &image_path);
    let mut clock = Clock::new();

    // Set-up, several times: decode the image (read once), generate and
    // constrain the design, fetch the receiver NRC (a disk hit).
    let image = std::fs::read(&image_path).expect("read the library image");
    let _ = std::fs::remove_dir_all(&dir);
    let mut setup = Vec::new();
    let mut decode_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        let decode = time_repeated(&mut clock, SETUP_STEP_REPS, || {
            let lib = NoiseModelLibrary::new();
            lib.load_cache_bytes(&image)
                .expect("decode the library image");
            lib
        });
        let build = time_repeated(&mut clock, SETUP_STEP_REPS, || {
            constrained_design(n, design_seed, &windows)
        });
        let lib = decode.0;
        let curve = time_repeated(&mut clock, SETUP_STEP_REPS, || nrc(&lib, &mm).expect("NRC"));
        setup.push(decode.1 + build.1 + curve.1);
        decode_s.push(decode.1.cal);
        session = Some((lib, build.0, curve.0));
    }
    let (lib, design, curve) = session.expect("set up at least once");

    let timed_before = lib.stats();
    let phase = run_rounds(
        args,
        &mut report,
        &mut clock,
        &design,
        design_seed,
        &sna,
        &mm,
        Library::Shared(&lib, &curve),
    );
    let st = LibraryStats::delta(&lib.stats(), &timed_before);
    report.check(
        st.misses == 0 && st.hits > 0 && st.disk_hits == st.hits,
        || {
            format!(
                "warm library: {} misses, {} of {} hits from disk",
                st.misses, st.disk_hits, st.hits
            )
        },
    );
    check_frame(
        &mut report,
        &design,
        &phase.findings,
        &curve,
        &sna,
        &mm,
        &lib,
    );
    // The cheapest cluster with two timing coordinates.
    let probe = &design.clusters[cluster_of_kind(&design, (1, true))];
    let outcome = ClusterMacromodel::build_with_library(&probe.spec, &mm, &lib)
        .and_then(|model| check_alignment(&mut report, &model, &sna, &mm).map(|_| ()));
    report.check(outcome.is_ok(), || {
        format!("alignment check on {}: {outcome:?}", probe.name)
    });

    let accuracy = accuracy_sample(&mut report, &sna, &mm);

    if args.trace {
        let (_, t_encode) = clock.time(|| lib.to_cache_bytes());
        let libcache = (
            median(&decode_s) * 1e3,
            t_encode.cal * 1e3,
            image.len() as f64,
        );
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

/// The alignment found is at least as bad at the victim's driving point
/// as nominal timing. Returns the macromodel at the found timing.
fn check_alignment(
    report: &mut Report,
    model: &ClusterMacromodel,
    sna: &SnaOptions,
    mm: &MacromodelOptions,
) -> sna_spice::error::Result<ClusterMacromodel> {
    let res = worst_case_alignment_batched(model, sna.align_window, mm.backend)?;
    let nominal = simulate_macromodel(model)?.dp_metrics(model.q_out);
    report.check(res.dp_metrics.peak >= nominal.peak, || {
        format!(
            "{}-aggressor cluster: aligned DP peak {} below nominal {}",
            model.spec.aggressors.len(),
            res.dp_metrics.peak,
            nominal.peak
        )
    });
    Ok(model.with_timing(&res.switch_times, res.glitch_peak_time))
}

/// On every constrained cluster: the pruned FRAME margin is no lower
/// than the exhaustive one, the candidate counts add up, and the flow
/// reported the pruned outcome.
fn check_frame(
    report: &mut Report,
    design: &Design,
    findings: &NoiseReport,
    curve: &NoiseRejectionCurve,
    sna: &SnaOptions,
    mm: &MacromodelOptions,
    lib: &NoiseModelLibrary,
) {
    let mut constrained = 0;
    for (c, f) in design.clusters.iter().zip(&findings.findings) {
        if !c.spec.has_frame_constraints() {
            continue;
        }
        constrained += 1;
        let outcome = ClusterMacromodel::build_with_library(&c.spec, mm, lib).and_then(|model| {
            let pruned = constrained_worst_case(&model, curve, sna.frame_grid, false, mm.backend)?;
            let exhaustive =
                constrained_worst_case(&model, curve, sna.frame_grid, true, mm.backend)?;
            Ok((pruned, exhaustive))
        });
        let Ok((pruned, exhaustive)) = outcome else {
            report.check(false, || {
                format!("{}: FRAME re-run failed: {outcome:?}", c.name)
            });
            continue;
        };
        let k = pruned.counters;
        report.check(pruned.margin >= exhaustive.margin, || {
            format!(
                "{}: pruned margin {} below exhaustive {}",
                c.name, pruned.margin, exhaustive.margin
            )
        });
        report.check(
            k.considered == k.pruned_window + k.pruned_mexcl + k.simulated,
            || format!("{}: FRAME counters do not add up: {k:?}", c.name),
        );
        report.check(
            f.constrained.as_ref().map(|o| o.margin.to_bits()) == Some(pruned.margin.to_bits()),
            || {
                format!(
                    "{}: reported constrained margin differs from the pruned search",
                    c.name
                )
            },
        );
    }
    report.check(constrained == 2, || {
        format!("{constrained} constrained clusters, expected 2")
    });
}

/// Golden and superposition on the workload's design at the reference
/// seed, at the worst-case timing the flow analyzed (recovered through
/// the public alignment call).
fn accuracy_sample(report: &mut Report, sna: &SnaOptions, mm: &MacromodelOptions) -> Accuracy {
    let (design_seed, generated, windows) = inputs(REFERENCE_SEED);
    let design = constrained_design(generated.clusters.len(), design_seed, &windows);
    let lib = NoiseModelLibrary::new();
    let curve: Arc<NoiseRejectionCurve> = nrc(&lib, mm).expect("receiver NRC");
    let mut acc = Accuracy::default();
    for c in &design.clusters {
        let outcome = analyze_cluster(c, &curve, sna, mm, &lib).and_then(|f| {
            let model = ClusterMacromodel::build_with_library(&c.spec, mm, &lib)?;
            let timed = check_alignment(report, &model, sna, mm)?;
            let rm = simulate_macromodel(&timed)?
                .receiver
                .glitch_metrics(timed.q_out);
            report.check(rm == f.receiver_metrics, || {
                format!(
                    "{}: recovered worst-case timing does not reproduce the flow's glitch",
                    c.name
                )
            });
            acc.add(&timed, &f.receiver_metrics)
        });
        report.check(outcome.is_ok(), || {
            format!("accuracy sample {}: {outcome:?}", c.name)
        });
    }
    acc.finish(report)
}
