//! `serve_eco`: a resident `ServeState` driven closed-loop by one client.
//!
//! The session is warmed from an `sna-libcache-v1` image the program's CLI
//! wrote in a child process. The client then sends edit→`analyze` round
//! trips, each waiting for the previous reply: slew and strength edits
//! that force a new Thevenin fit (a write to the library and the memo)
//! beside switch-time, glitch and window edits that re-analyze from
//! cached artifacts (reads). Every `analyze` covers the whole design, so
//! the memo serves every cluster but the edited one.

use sna_cells::Cell;
use sna_core::cluster::{ClusterSpec, MacromodelOptions};
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::sna::{analyze_cluster, Design, SnaOptions, Verdict};
use sna_flow::serve::ServeState;
use sna_flow::windows::{apply_windows, parse_windows};
use sna_obs::local_snapshot;
use sna_spice::units::{NS, PS};

use crate::accuracy::{nominal_sample, Accuracy};
use crate::batch::nrc;
use crate::calib::{median_of, quantile_of, Clock, Timed, CAL};
use crate::design::{
    cli_config, cluster_of_kind, constrain, nth_of_kind, scratch_dir, select_design, window_around,
    windows_text, write_image_in_child, MakeUp, Rng, REFERENCE_SEED,
};
use crate::layers::LayerTotals;
use crate::trace::Recorder;
use crate::{peak_rss_mb, timed_op, Args, Report};

/// Sixteen clusters: six with one aggressor, six with two, four with
/// three; nine with a propagated glitch.
pub const MAKEUP: MakeUp = MakeUp {
    kinds: &[
        (1, false),
        (1, false),
        (1, false),
        (1, true),
        (1, true),
        (1, true),
        (2, false),
        (2, false),
        (2, true),
        (2, true),
        (2, true),
        (2, true),
        (3, false),
        (3, false),
        (3, true),
        (3, true),
    ],
    distinct_victims: None,
    prop_tables: None,
};

/// Sessions built for `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Round trips of the first round whose edited cluster is re-analyzed
/// from scratch and compared with the session's answer.
const CHECKED_ROUND_TRIPS: usize = 10;
/// Clusters of the reference design in the accuracy sample.
const ACCURACY_SAMPLE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Edit {
    /// Nudge the only aggressor's switch time (cached artifacts).
    SwitchTime,
    /// New victim glitch height (cached artifacts).
    GlitchHeight,
    /// New victim glitch width (cached artifacts).
    GlitchWidth,
    /// New switching window for aggressor 0 of a FRAME cluster.
    Window,
    /// New aggressor input slew: a new Thevenin fit.
    Slew,
    /// New aggressor drive strength: a new Thevenin fit.
    Strength,
}

/// One round of the client: `(cluster kind, which cluster of that kind,
/// edit)`. Kinds pick clusters by make-up, so a round does the same work
/// at every seed. Round trips fall into modes by what they re-run; the
/// counts put both percentiles inside a mode rather than on a boundary
/// between two:
///
/// | round trips | what is re-run                      | share of a round |
/// |-------------|-------------------------------------|------------------|
/// | 12          | a one-aggressor cluster             | 0.00–0.30        |
/// | 16          | a two-aggressor cluster             | 0.30–0.70 (p50)  |
/// | 2           | a three-aggressor cluster           | 0.70–0.75        |
/// | 8           | a new Thevenin fit and its cluster  | 0.75–0.95 (p90)  |
/// | 2           | a FRAME enumeration and its cluster | 0.95–1.00        |
const ROUND: &[((usize, bool), usize, Edit)] = &[
    ((1, false), 0, Edit::SwitchTime),
    ((2, true), 0, Edit::GlitchHeight),
    ((1, false), 0, Edit::Slew),
    ((2, true), 1, Edit::GlitchWidth),
    ((1, true), 0, Edit::GlitchHeight),
    ((2, true), 2, Edit::GlitchHeight),
    ((3, true), 0, Edit::GlitchHeight),
    ((2, true), 3, Edit::GlitchWidth),
    ((1, true), 0, Edit::Strength),
    ((1, true), 1, Edit::SwitchTime),
    ((2, false), 0, Edit::Window),
    ((2, true), 0, Edit::GlitchWidth),
    ((1, false), 1, Edit::Slew),
    ((1, true), 1, Edit::GlitchWidth),
    ((2, true), 1, Edit::GlitchHeight),
    ((1, false), 2, Edit::SwitchTime),
    ((2, true), 2, Edit::GlitchWidth),
    ((1, true), 1, Edit::Slew),
    ((2, true), 3, Edit::GlitchHeight),
    ((1, true), 2, Edit::GlitchHeight),
    ((1, false), 1, Edit::SwitchTime),
    ((2, true), 0, Edit::GlitchHeight),
    ((1, false), 2, Edit::Strength),
    ((2, true), 1, Edit::GlitchWidth),
    ((1, true), 0, Edit::SwitchTime),
    ((3, true), 1, Edit::GlitchWidth),
    ((2, true), 2, Edit::GlitchHeight),
    ((1, true), 2, Edit::Slew),
    ((2, true), 3, Edit::GlitchWidth),
    ((1, true), 2, Edit::SwitchTime),
    ((3, false), 0, Edit::Window),
    ((2, true), 0, Edit::GlitchWidth),
    ((1, false), 0, Edit::Strength),
    ((1, true), 1, Edit::GlitchHeight),
    ((2, true), 1, Edit::GlitchHeight),
    ((1, false), 2, Edit::SwitchTime),
    ((2, true), 2, Edit::GlitchWidth),
    ((1, true), 1, Edit::Strength),
    ((2, true), 3, Edit::GlitchHeight),
    ((1, true), 2, Edit::GlitchWidth),
];

/// The design seed and FRAME sidecar of `seed`'s session.
fn inputs(seed: u64) -> (u64, Design, String) {
    let (design_seed, design) = select_design(&MAKEUP, seed);
    let mut rng = Rng::new(seed, 2);
    let mut edits = constrain(
        &design,
        cluster_of_kind(&design, (2, false)),
        false,
        1,
        &mut rng,
    );
    edits.extend(constrain(
        &design,
        cluster_of_kind(&design, (3, false)),
        true,
        2,
        &mut rng,
    ));
    (design_seed, design, windows_text(&edits))
}

/// Draw one edit's protocol line and apply it to the client's own copy
/// of the spec.
fn draw_edit(edit: Edit, name: &str, spec: &mut ClusterSpec, rng: &mut Rng) -> String {
    let head = format!("{{\"cmd\":\"edit\",\"cluster\":\"{name}\"");
    match edit {
        Edit::SwitchTime => {
            // A nudge of 5-30 ps that keeps the switch time inside the
            // generator's 0.3-0.7 ns range, so the edit always changes it.
            let a = &mut spec.aggressors[0];
            let step = rng.uniform(5.0, 30.0) * PS;
            a.switch_time += if a.switch_time + step <= 0.7 * NS {
                step
            } else {
                -step
            };
            format!(
                "{head},\"aggressor\":0,\"switch_time\":{:e}}}",
                a.switch_time
            )
        }
        Edit::GlitchHeight | Edit::GlitchWidth => {
            let g = spec
                .victim
                .glitch
                .as_mut()
                .expect("edited cluster has a glitch");
            if edit == Edit::GlitchHeight {
                g.height = spec.tech.vdd * rng.uniform(0.4, 0.9);
                format!("{head},\"glitch_height\":{:e}}}", g.height)
            } else {
                g.width = rng.uniform(200.0, 900.0) * PS;
                format!("{head},\"glitch_width\":{:e}}}", g.width)
            }
        }
        Edit::Window => {
            let t0 = spec.aggressors[0].switch_time;
            let w = window_around(rng, t0);
            spec.aggressors[0].window = Some(w);
            format!(
                "{head},\"aggressor\":0,\"window\":[{:e},{:e}]}}",
                w.t_min, w.t_max
            )
        }
        Edit::Slew => {
            let a = &mut spec.aggressors[0];
            a.input_slew = rng.uniform(40.0, 150.0) * PS;
            format!("{head},\"aggressor\":0,\"input_slew\":{:e}}}", a.input_slew)
        }
        Edit::Strength => {
            let v = rng.uniform(2.0, 6.0);
            spec.aggressors[0].cell = Cell::inv(spec.tech.clone(), v);
            format!("{head},\"aggressor\":0,\"strength\":{v:e}}}")
        }
    }
}

/// The session's rendering of one finding (see `ServeState`'s protocol).
fn serve_row(name: &str, f: &sna_core::sna::ClusterFinding) -> String {
    let verdict = match f.verdict {
        Verdict::Pass => "pass",
        Verdict::MarginWarning => "warn",
        Verdict::Fail => "fail",
    };
    let constrained = match &f.constrained {
        Some(c) => format!(", \"constrained_margin\": {:.6}", c.margin),
        None => String::new(),
    };
    format!(
        "{{\"net\": \"{name}\", \"verdict\": \"{verdict}\", \"margin\": {:.6}, \"peak\": {:.6}, \"width\": {:.6e}{constrained}}}",
        f.margin, f.receiver_metrics.peak, f.receiver_metrics.width
    )
}

fn options() -> (SnaOptions, MacromodelOptions) {
    (SnaOptions::default(), MacromodelOptions::default())
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
    let mut cfg = cli_config(n, design_seed);
    cfg.library_cache = Some(image_path.display().to_string());
    cfg.windows = Some(windows_path.display().to_string());
    let mut clock = Clock::new();

    // Set-up, several times: build the session (image decode, design and
    // window generation, NRC) and run its first full analysis, one
    // cluster per call.
    let names: Vec<String> = generated.clusters.iter().map(|c| c.name.clone()).collect();
    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        let (state, t_new) = clock.time(|| ServeState::new(&cfg));
        let mut state = state.expect("serve session");
        let mut total = t_new;
        for name in &names {
            let line = format!("{{\"cmd\":\"analyze\",\"clusters\":[\"{name}\"]}}");
            let (reply, t) = clock.time(|| state.handle_line(&line));
            report.check(reply.contains("\"analyzed\": 1,"), || {
                format!("first analyze of {name}: {reply}")
            });
            total = total + t;
        }
        setup.push(total);
        session = Some(state);
    }
    let mut state = session.expect("set up at least once");
    let image_bytes = std::fs::read(&image_path).expect("read the library image");
    let _ = std::fs::remove_dir_all(&dir);
    let st = state.library().stats();
    report.check(st.misses == 0 && st.disk_hits == st.hits, || {
        format!(
            "session warm-up: {} misses, {} of {} hits from disk",
            st.misses, st.disk_hits, st.hits
        )
    });

    // The client's own copy of the design, edited alongside the session.
    let mut design = generated;
    apply_windows(
        &mut design,
        &parse_windows(&windows).expect("windows parse"),
    )
    .expect("windows apply");
    let targets: Vec<usize> = ROUND
        .iter()
        .map(|&(kind, nth, _)| nth_of_kind(&design, kind, nth))
        .collect();
    let mut rng = Rng::new(args.seed, 3);

    // Timed phase: whole rounds of round trips.
    let mut rec = Recorder::new();
    let mut layers = LayerTotals::default();
    let mut untraced: Vec<Timed> = Vec::new();
    let (mut untraced_rounds, mut traced_rounds): (Vec<Timed>, Vec<Timed>) =
        (Vec::new(), Vec::new());
    let mut checked: Vec<(ClusterSpec, String, String)> = Vec::new();
    let (mut fits, mut fit_round_trips) = (0usize, 0usize);
    let started = std::time::Instant::now();
    let mut round = 0u64;
    while untraced_rounds.is_empty()
        || (args.trace && traced_rounds.is_empty())
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let tracing = args.trace && round % 2 == 1;
        rec.set_enabled(tracing);
        let before = (local_snapshot(), state.counters(), state.library().stats());
        let mut round_time = Timed::default();
        for (j, (&i, &(_, _, edit))) in targets.iter().zip(ROUND).enumerate() {
            let name = design.clusters[i].name.clone();
            let line = draw_edit(edit, &name, &mut design.clusters[i].spec, &mut rng);
            let lib_before = state.library().stats();
            let ((edit_reply, reply), t) = timed_op(
                &mut clock,
                &mut rec,
                &mut layers,
                round * 1000 + j as u64,
                |r| {
                    let e = r.span("flow.serve_edit", |_| state.handle_line(&line));
                    let a = r.span("flow.serve_analyze", |_| {
                        state.handle_line("{\"cmd\":\"analyze\"}")
                    });
                    if r.enabled() {
                        r.span("flow.serve_memo", |_| {
                            state.handle_line("{\"cmd\":\"analyze\"}")
                        });
                    }
                    (e, a)
                },
            );
            report.attempted += 1;
            let ok = edit_reply.starts_with("{\"ok\": true")
                && reply.contains(&format!("\"analyzed\": 1, \"memo_hits\": {}", n - 1));
            if !ok {
                report.failed += 1;
                eprintln!(
                    "round trip {j} on {name}: {edit_reply} / {}",
                    &reply[..reply.len().min(200)]
                );
            }
            let fit = LibraryStats::delta(&state.library().stats(), &lib_before).misses;
            let expect_fit = matches!(edit, Edit::Slew | Edit::Strength);
            report.check((fit == 1) == expect_fit && fit <= 1, || {
                format!("{edit:?} edit on {name} characterized {fit} artifacts")
            });
            fits += fit;
            fit_round_trips += usize::from(expect_fit);
            if round == 0 && checked.len() < CHECKED_ROUND_TRIPS {
                checked.push((design.clusters[i].spec.clone(), name, reply));
            }
            round_time = round_time + t;
            if !tracing {
                untraced.push(t);
            }
        }
        if tracing {
            traced_rounds.push(round_time);
        } else {
            let (_, re0, mh0) = before.1;
            let (_, re1, mh1) = state.counters();
            layers.serve_reanalyzed += re1 - re0;
            layers.serve_memo_hits += mh1 - mh0;
            layers.add_round_counts(
                &LibraryStats::delta(&state.library().stats(), &before.2),
                &local_snapshot().since(&before.0),
            );
            untraced_rounds.push(round_time);
        }
        round += 1;
    }
    let peak_rss = peak_rss_mb();
    report.check(fits == fit_round_trips, || {
        format!("{fits} fits in {fit_round_trips} fitting round trips")
    });

    // Sampled edited clusters against a fresh analysis of the client's
    // own copy of the spec, on an empty library.
    for (spec, name, reply) in &checked {
        let lib = NoiseModelLibrary::new();
        let fresh = nrc(&lib, &mm).and_then(|curve| {
            let cluster = sna_core::sna::DesignCluster {
                name: name.clone(),
                spec: spec.clone(),
            };
            analyze_cluster(&cluster, &curve, &sna, &mm, &lib)
        });
        match fresh {
            Ok(f) => {
                let row = serve_row(name, &f);
                report.check(reply.contains(&row), || {
                    format!("{name}: session answered differently than {row}")
                })
            }
            Err(e) => report.check(false, || format!("{name}: fresh analysis failed: {e}")),
        }
    }

    let accuracy = accuracy_sample(&mut report, &sna, &mm);

    if args.trace {
        let overhead =
            100.0 * (median_of(&traced_rounds, CAL) / median_of(&untraced_rounds, CAL) - 1.0);
        let decoded = NoiseModelLibrary::new();
        let (_, t_decode) = clock.time(|| decoded.load_cache_bytes(&image_bytes));
        let (_, t_encode) = clock.time(|| state.library().to_cache_bytes());
        let libcache = (
            t_decode.cal * 1e3,
            t_encode.cal * 1e3,
            image_bytes.len() as f64,
        );
        let rounds = traced_rounds.len() as f64;
        report.metrics = layers.metrics(rounds, libcache, overhead);
        crate::write_trace(&rec, args);
    } else {
        report.time_metric("setup_s", "s", |w| median_of(&setup, w));
        report.time_metric("clusters_per_s", "1/s", |w| {
            ROUND.len() as f64 / median_of(&untraced_rounds, w)
        });
        report.time_metric("edit_p50_ms", "ms", |w| 1e3 * median_of(&untraced, w));
        report.time_metric("edit_p90_ms", "ms", |w| {
            1e3 * quantile_of(&untraced, w, 0.9)
        });
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.metric("peak_vs_golden_pct", accuracy.peak_pct, "%");
        report.metric("area_vs_golden_pct", accuracy.area_pct, "%");
    }
    report
}

/// Golden and superposition on the first clusters of the session design
/// at the reference seed, at nominal timing (what a serve analysis runs).
fn accuracy_sample(report: &mut Report, sna: &SnaOptions, mm: &MacromodelOptions) -> Accuracy {
    let (_, mut design, windows) = inputs(REFERENCE_SEED);
    let edits = parse_windows(&windows).expect("windows parse");
    apply_windows(&mut design, &edits).expect("windows apply");
    nominal_sample(report, &design.clusters[..ACCURACY_SAMPLE], sna, mm)
}
