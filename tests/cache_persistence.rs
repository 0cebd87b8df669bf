//! Integration test of the persistent characterization cache: a warm run
//! against an `sna-libcache-v1` file must perform zero characterization
//! work (counter-verified per artifact kind) and produce a byte-identical
//! report, and a serve session opened on that file re-analyzes only what
//! an edit touches.

use sna::core::library::ALL_ARTIFACT_KINDS;
use sna::flow::cache::{load_library_cache, save_library_cache};
use sna::flow::cli::{run, CliConfig, Format, LogLevel};
use sna::flow::serve::ServeState;
use sna::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sna_cache_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn warm_run_characterizes_nothing_and_report_is_byte_identical() {
    let path = scratch("flow.libcache");
    std::fs::remove_file(&path).ok();
    let corners = [Technology::cmos130()];
    let opts = FlowOptions {
        threads: 2,
        ..Default::default()
    };

    // Cold: fresh library, full characterization, then persist.
    let cold_lib = NoiseModelLibrary::new();
    let cold = run_corners_with(&corners, 4, 2005, &opts, &cold_lib).expect("cold run");
    assert!(cold[0].flow.cache.misses > 0, "cold run must characterize");
    assert_eq!(cold[0].flow.cache.disk_hits, 0);
    save_library_cache(&path, &cold_lib).expect("save");

    // Warm: fresh library loaded from disk. Zero misses of any kind means
    // zero characterization solves — the only way an artifact exists is
    // off disk or out of a (cold-empty) in-memory map.
    let warm_lib = NoiseModelLibrary::new();
    let load = load_library_cache(&path, &warm_lib);
    assert!(load.entries > 0, "{}", load.message);
    assert_eq!(load.stale_rejected, 0, "{}", load.message);
    let warm = run_corners_with(&corners, 4, 2005, &opts, &warm_lib).expect("warm run");
    let stats = &warm[0].flow.cache;
    assert_eq!(stats.misses, 0, "warm run characterized: {stats:?}");
    for k in ALL_ARTIFACT_KINDS {
        assert_eq!(
            stats.kind(k).misses,
            0,
            "warm run characterized {}",
            k.name()
        );
    }
    assert!(stats.disk_hits > 0, "warm hits must carry disk provenance");
    assert_eq!(stats.hits, stats.disk_hits, "every warm hit came off disk");

    // Byte-identical reports, cold vs warm, for every serializer.
    for format in [Format::Text, Format::Json, Format::Csv] {
        let render = |reports: &[CornerReport]| {
            let summary = RunSummary {
                clusters: 4,
                seed: 2005,
                align_worst_case: false,
                margin_band: 0.1,
                corners: reports.to_vec(),
            };
            match format {
                Format::Text => to_text(&summary),
                Format::Json => to_json(&summary),
                Format::Csv => to_csv(&summary),
            }
        };
        assert_eq!(render(&cold), render(&warm), "{format:?} report diverged");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_cache_file_never_fails_a_run() {
    let path = scratch("corrupt.libcache");
    std::fs::write(&path, b"SNALIBC1 but then garbage follows here").unwrap();
    let lib = NoiseModelLibrary::new();
    let load = load_library_cache(&path, &lib);
    assert_eq!(load.entries, 0);
    assert!(load.message.contains("starting cold"), "{}", load.message);
    // The run itself is unaffected.
    let corners = [Technology::cmos130()];
    let opts = FlowOptions {
        threads: 1,
        ..Default::default()
    };
    let reports = run_corners_with(&corners, 2, 7, &opts, &lib).expect("cold run");
    assert_eq!(reports[0].flow.report.total(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_round_trip_reports_are_byte_identical() {
    let path = scratch("cli.libcache");
    std::fs::remove_file(&path).ok();
    let cfg = CliConfig {
        clusters: 3,
        threads: 2,
        format: Format::Json,
        log_level: LogLevel::Quiet,
        library_cache: Some(path.display().to_string()),
        ..Default::default()
    };
    let cold = run(&cfg).expect("cold CLI run");
    assert!(path.exists());
    let warm = run(&cfg).expect("warm CLI run");
    assert_eq!(cold, warm, "--library-cache changed the report");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_on_a_warm_cache_reanalyzes_only_the_edited_cluster() {
    let path = scratch("serve.libcache");
    std::fs::remove_file(&path).ok();
    let cfg = CliConfig {
        clusters: 3,
        threads: 1,
        log_level: LogLevel::Quiet,
        library_cache: Some(path.display().to_string()),
        ..Default::default()
    };
    run(&cfg).expect("cold CLI run writes the cache");
    let mut state = ServeState::new(&cfg).expect("serve session");
    let r = state.handle_line(r#"{"cmd": "analyze"}"#);
    assert!(r.contains("\"analyzed\": 3"), "{r}");
    let stats = state.library().stats();
    assert_eq!(stats.misses, 0, "warm session characterized: {stats:?}");
    assert!(stats.disk_hits > 0, "warm session never touched the cache");
    let r = state.handle_line(
        r#"{"cmd": "edit", "cluster": "net000", "aggressor": 0, "input_slew": 6.1e-11}"#,
    );
    assert!(r.contains("\"ok\": true"), "{r}");
    let r = state.handle_line(r#"{"cmd": "analyze"}"#);
    assert!(r.contains("\"analyzed\": 1"), "{r}");
    assert!(r.contains("\"memo_hits\": 2"), "{r}");
    std::fs::remove_file(&path).ok();
}
