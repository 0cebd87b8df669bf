//! Argument parsing and top-level execution for the `sna` binary.
//!
//! Hand-rolled (no `clap` in the vendored set): a flat flag grammar,
//! `--flag value` only, with `--help` text kept next to the parser so the
//! two cannot drift apart. Lives in the library so the parser is unit
//! tested; the binary is a thin `main`.

use std::time::Duration;

use sna_cells::Technology;
use sna_spice::units::PS;

use crate::corners::{corner_by_name, CornerReport};
use crate::deck::{deck_to_csv, deck_to_json, deck_to_text, run_deck_file, DeckOptions};
use crate::driver::FlowOptions;
use crate::metrics::metrics_to_json;
use crate::output::{to_csv, to_json, to_text, RunSummary};

/// Output format of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable summary table.
    Text,
    /// `sna-report-v1` JSON document.
    Json,
    /// One CSV row per net per corner.
    Csv,
}

/// How chatty the stderr diagnostics are. Stdout (the report) is never
/// affected: the levels only gate the out-of-band progress lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No stderr diagnostics at all.
    Quiet,
    /// Cache and throughput summary lines (the default).
    Normal,
    /// Normal plus a one-line phase-timing summary.
    Verbose,
}

/// Parsed CLI configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CliConfig {
    /// Clusters per corner.
    pub clusters: usize,
    /// Design-generator seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Corner names, in sweep order.
    pub corners: Vec<String>,
    /// Run the worst-case alignment search.
    pub worst_case: bool,
    /// NRC guard band (V).
    pub guard_band: f64,
    /// Abort on the first per-cluster failure.
    pub strict: bool,
    /// Report format.
    pub format: Format,
    /// Write an `sna-metrics-v2` JSON document here after the run.
    pub metrics: Option<String>,
    /// Write a chrome-trace (`chrome://tracing` / Perfetto) JSON here.
    pub profile: Option<String>,
    /// stderr diagnostics level.
    pub log_level: LogLevel,
    /// SPICE deck to analyze instead of the synthetic design generator.
    pub deck: Option<String>,
    /// Fallback noise threshold (V) for deck cases without `threshold=`.
    pub threshold: Option<f64>,
    /// Victim node for decks without a `.sna` card.
    pub victim: Option<String>,
    /// Aggressor sources for decks without a `.sna` card.
    pub aggressors: Vec<String>,
    /// Persistent characterization cache (`sna-libcache-v1`) to warm the
    /// library from before the run and rewrite after it.
    pub library_cache: Option<String>,
    /// Run the long-lived `sna serve` query loop instead of one batch run.
    pub serve: bool,
    /// FRAME constraint file (switching windows / mutual exclusion) applied
    /// to the generated design before analysis.
    pub windows: Option<String>,
    /// Grid points per constrained aggressor window in the FRAME search.
    pub frame_grid: usize,
    /// Enumerate the full candidate space (pruning disabled) — the
    /// reference mode the pruned search is byte-compared against.
    pub frame_exhaustive: bool,
}

impl Default for CliConfig {
    fn default() -> Self {
        Self {
            clusters: 12,
            seed: 2005,
            threads: 0,
            corners: vec!["cmos130".into()],
            worst_case: false,
            guard_band: 0.1,
            strict: false,
            format: Format::Text,
            metrics: None,
            profile: None,
            log_level: LogLevel::Normal,
            deck: None,
            threshold: None,
            victim: None,
            aggressors: Vec::new(),
            library_cache: None,
            serve: false,
            windows: None,
            frame_grid: 4,
            frame_exhaustive: false,
        }
    }
}

/// The `--help` text.
pub const USAGE: &str = "\
sna — parallel full-chip static noise analysis (Forzan & Pandini macromodel)

USAGE:
    sna [OPTIONS]
    sna --deck <FILE> [OPTIONS]
    sna serve [OPTIONS]

SERVE MODE:
    sna serve             hold the design and characterization library in
                          memory and answer newline-delimited JSON queries
                          on stdin (one response per line on stdout):
                          {\"cmd\":\"analyze\"[,\"clusters\":[...]]} analyzes,
                          re-running only clusters whose spec or options
                          changed; {\"cmd\":\"edit\",\"cluster\":...} mutates a
                          cluster; {\"cmd\":\"guard_band\",\"value\":v},
                          {\"cmd\":\"stats\"} and {\"cmd\":\"shutdown\"} do what
                          they say. Honors --library-cache across sessions.

DECK MODE:
    --deck <FILE>         analyze a SPICE deck (.subckt hierarchies are
                          flattened; .model, E/G/F/H controlled sources,
                          .ic and .include are honored) instead of the
                          synthetic design generator; needs a .tran card
    --threshold <V>       fallback noise threshold for .sna cards without
                          threshold=, and for the --victim path
    --victim <NODE>       victim node when the deck has no .sna card
    --aggressors <LIST>   comma-separated aggressor V/I source names for
                          the --victim path                  [default: none]

OPTIONS:
    --clusters <N>        clusters per corner                 [default: 12]
    --seed <S>            design-generator seed               [default: 2005]
    --threads <T>         worker threads, 0 = auto            [default: 0]
    --corners <LIST>      comma-separated technology nodes    [default: cmos130]
                          (available: cmos130, cmos90)
    --worst-case          run the worst-case alignment search per cluster
    --guard-band <V>      NRC margin guard band in volts      [default: 0.1]
    --strict              abort on the first per-cluster failure instead of
                          downgrading it to a skipped-net diagnostic
    --format <F>          text | json | csv                   [default: text]
    --windows <FILE>      FRAME constraint file: per-aggressor switching
                          windows and mutual-exclusion groups (plus victim
                          sensitivity windows) applied to the generated
                          design; constrained clusters report both the
                          pessimistic and the constrained margin
    --frame-grid <N>      grid points per constrained aggressor window in
                          the FRAME alignment search        [default: 4]
    --frame-exhaustive    enumerate the full constrained candidate space
                          (disable window/mexcl pruning); on a fully
                          feasible design the report is byte-identical to
                          the pruned run
    --library-cache <P>   persistent characterization cache file
                          (sna-libcache-v1): loaded before the run (stale
                          or corrupt entries are rejected and recomputed),
                          rewritten after it. A warm second run performs
                          zero characterization solves.
    --metrics <PATH>      write an sna-metrics-v2 JSON document (solver /
                          dc / tran / serve / frame counters, cache
                          breakdown, pool timings, phase tree) after the run
    --profile <PATH>      write a chrome-trace JSON (load in
                          chrome://tracing or https://ui.perfetto.dev)
    --quiet               suppress all stderr diagnostics
    --verbose             add a one-line phase-timing summary to stderr
    --help                print this help

The report (stdout) is a pure function of the design and options: a run at
--threads N is byte-identical to --threads 1, with or without --metrics or
--profile. Cache statistics and timing go to stderr; metrics and profiles
go to their own files, never stdout.";

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("bad value '{raw}' for {flag}"))
}

/// Parse CLI arguments (without the program name).
///
/// # Errors
///
/// Returns a message suitable for printing alongside [`USAGE`]; the
/// special value `Err("help")` means `--help` was requested.
pub fn parse_args(args: &[String]) -> Result<CliConfig, String> {
    let mut cfg = CliConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clusters" => cfg.clusters = parse_value(arg, it.next())?,
            "--seed" => cfg.seed = parse_value(arg, it.next())?,
            "--threads" => cfg.threads = parse_value(arg, it.next())?,
            "--guard-band" => {
                cfg.guard_band = parse_value(arg, it.next())?;
                if !cfg.guard_band.is_finite() || cfg.guard_band < 0.0 {
                    return Err(format!(
                        "--guard-band must be a non-negative voltage, got {}",
                        cfg.guard_band
                    ));
                }
            }
            "--corners" => {
                let raw: String = parse_value(arg, it.next())?;
                cfg.corners = raw.split(',').map(|s| s.trim().to_string()).collect();
                if cfg.corners.iter().any(String::is_empty) {
                    return Err("--corners has an empty entry".into());
                }
            }
            "--worst-case" => cfg.worst_case = true,
            "--strict" => cfg.strict = true,
            "--format" => {
                let raw: String = parse_value(arg, it.next())?;
                cfg.format = match raw.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--deck" => cfg.deck = Some(parse_value(arg, it.next())?),
            "--threshold" => {
                let v: f64 = parse_value(arg, it.next())?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("--threshold must be a positive voltage, got {v}"));
                }
                cfg.threshold = Some(v);
            }
            "--victim" => cfg.victim = Some(parse_value(arg, it.next())?),
            "--aggressors" => {
                let raw: String = parse_value(arg, it.next())?;
                cfg.aggressors = raw.split(',').map(|s| s.trim().to_string()).collect();
                if cfg.aggressors.iter().any(String::is_empty) {
                    return Err("--aggressors has an empty entry".into());
                }
            }
            "--library-cache" => cfg.library_cache = Some(parse_value(arg, it.next())?),
            "--windows" => cfg.windows = Some(parse_value(arg, it.next())?),
            "--frame-grid" => {
                cfg.frame_grid = parse_value(arg, it.next())?;
                if cfg.frame_grid == 0 {
                    return Err("--frame-grid must be at least 1".into());
                }
            }
            "--frame-exhaustive" => cfg.frame_exhaustive = true,
            "serve" => cfg.serve = true,
            "--metrics" => cfg.metrics = Some(parse_value(arg, it.next())?),
            "--profile" => cfg.profile = Some(parse_value(arg, it.next())?),
            "--quiet" => cfg.log_level = LogLevel::Quiet,
            "--verbose" => cfg.log_level = LogLevel::Verbose,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(cfg)
}

/// Execute a parsed configuration and render the report.
///
/// Returns the rendered report for stdout; writes cache/timing diagnostics
/// to stderr.
///
/// # Errors
///
/// Propagates corner resolution, NRC characterization, and (strict-mode)
/// per-cluster failures.
pub fn run(cfg: &CliConfig) -> sna_spice::error::Result<String> {
    // Observability is strictly out-of-band: enabling it changes stderr and
    // the metrics/profile files, never the report on stdout.
    if cfg.metrics.is_some() || cfg.profile.is_some() || cfg.log_level == LogLevel::Verbose {
        sna_obs::set_timing_enabled(true);
    }
    if cfg.profile.is_some() {
        sna_obs::set_tracing_enabled(true);
    }
    if cfg.serve {
        // Serve owns stdin/stdout for its query loop; there is no batch
        // report to render.
        crate::serve::run_serve(cfg)?;
        return Ok(String::new());
    }
    if let Some(deck) = &cfg.deck {
        return run_deck_mode(cfg, deck);
    }
    let corners: Vec<Technology> = cfg
        .corners
        .iter()
        .map(|name| corner_by_name(name))
        .collect::<sna_spice::error::Result<_>>()?;
    let windows = match &cfg.windows {
        Some(path) => crate::windows::load_windows(std::path::Path::new(path))?,
        None => Vec::new(),
    };
    let opts = FlowOptions {
        sna: sna_core::sna::SnaOptions {
            align_worst_case: cfg.worst_case,
            align_window: 400.0 * PS,
            margin_band: cfg.guard_band,
            strict: cfg.strict,
            frame_grid: cfg.frame_grid,
            frame_exhaustive: cfg.frame_exhaustive,
        },
        mm: sna_core::cluster::MacromodelOptions::default(),
        threads: cfg.threads,
    };
    let library = crate::cache::open_configured_library(cfg);
    let started = std::time::Instant::now();
    let corner_reports = crate::corners::run_corners_windowed(
        &corners,
        cfg.clusters,
        cfg.seed,
        &opts,
        &library,
        &windows,
    )?;
    let elapsed = started.elapsed();
    crate::cache::save_configured_library(cfg, &library);
    let total_clusters: usize = corner_reports.iter().map(|c| c.flow.report.total()).sum();
    if cfg.log_level >= LogLevel::Normal {
        for c in &corner_reports {
            eprintln!(
                "[{}] {} threads, cache {} hits / {} misses",
                c.tech, c.flow.threads, c.flow.cache.hits, c.flow.cache.misses
            );
        }
        eprintln!(
            "analyzed {} clusters in {:.2} s ({:.1} clusters/s)",
            total_clusters,
            elapsed.as_secs_f64(),
            total_clusters as f64 / elapsed.as_secs_f64().max(1e-9),
        );
    }
    write_observability(cfg, &corner_reports, elapsed)?;
    let run = RunSummary {
        clusters: cfg.clusters,
        seed: cfg.seed,
        align_worst_case: cfg.worst_case,
        margin_band: cfg.guard_band,
        corners: corner_reports,
    };
    Ok(match cfg.format {
        Format::Text => to_text(&run),
        Format::Json => to_json(&run),
        Format::Csv => to_csv(&run),
    })
}

/// Deck-mode half of [`run`]: parse the deck, run its `.sna` cases, render.
/// Shares the observability plumbing (stderr diagnostics, `--metrics`,
/// `--profile`) with the synthetic flow; the stdout report stays a pure
/// function of the deck and options.
fn run_deck_mode(cfg: &CliConfig, deck: &str) -> sna_spice::error::Result<String> {
    let threads = crate::pool::resolve_threads(cfg.threads);
    let opts = DeckOptions {
        threshold: cfg.threshold,
        victim: cfg.victim.clone(),
        aggressors: cfg.aggressors.clone(),
        guard_band: cfg.guard_band,
        strict: cfg.strict,
        threads,
    };
    let started = std::time::Instant::now();
    let report = run_deck_file(std::path::Path::new(deck), &opts)?;
    let elapsed = started.elapsed();
    if cfg.log_level >= LogLevel::Normal {
        eprintln!(
            "[deck] {} cases ({} skipped) in {:.2} s on {} threads",
            report.findings.len(),
            report.skipped.len(),
            elapsed.as_secs_f64(),
            threads,
        );
    }
    write_observability(cfg, &[], elapsed)?;
    Ok(match cfg.format {
        Format::Text => deck_to_text(&report),
        Format::Json => deck_to_json(&report),
        Format::Csv => deck_to_csv(&report),
    })
}

/// A finished run's out-of-band outputs: the `--verbose` phase line on
/// stderr and the `--metrics` and `--profile` files. `corners` is empty
/// for a deck run.
fn write_observability(
    cfg: &CliConfig,
    corners: &[CornerReport],
    elapsed: Duration,
) -> sna_spice::error::Result<()> {
    let write = |path: &str, what: &str, contents: String| {
        std::fs::write(path, contents).map_err(|e| {
            sna_spice::error::Error::InvalidAnalysis(format!(
                "cannot write {what} file '{path}': {e}"
            ))
        })
    };
    if cfg.metrics.is_some() || cfg.log_level == LogLevel::Verbose {
        let snap = sna_obs::snapshot();
        if cfg.log_level == LogLevel::Verbose {
            let timed: Vec<String> = sna_obs::ALL_PHASES
                .iter()
                .filter_map(|&p| {
                    let ns = snap.phase_nanos(p);
                    (ns > 0).then(|| format!("{} {:.1}ms", p.name(), ns as f64 / 1e6))
                })
                .collect();
            eprintln!("phases: {}", timed.join(", "));
        }
        if let Some(path) = &cfg.metrics {
            let doc = metrics_to_json(&snap, corners, elapsed.as_secs_f64());
            write(path, "metrics", doc)?;
        }
    }
    if let Some(path) = &cfg.profile {
        write(path, "profile", sna_obs::render_chrome_trace())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg, CliConfig::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let cfg = parse_args(&args(&[
            "--clusters",
            "64",
            "--seed",
            "9",
            "--threads",
            "4",
            "--corners",
            "cmos130,cmos90",
            "--worst-case",
            "--guard-band",
            "0.05",
            "--strict",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(cfg.clusters, 64);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.corners, ["cmos130", "cmos90"]);
        assert!(cfg.worst_case);
        assert_eq!(cfg.guard_band, 0.05);
        assert!(cfg.strict);
        assert_eq!(cfg.format, Format::Json);
    }

    #[test]
    fn observability_flags_parse() {
        let cfg = parse_args(&args(&[
            "--metrics",
            "m.json",
            "--profile",
            "trace.json",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(cfg.metrics.as_deref(), Some("m.json"));
        assert_eq!(cfg.profile.as_deref(), Some("trace.json"));
        assert_eq!(cfg.log_level, LogLevel::Verbose);
        // Last level flag wins.
        let cfg = parse_args(&args(&["--verbose", "--quiet"])).unwrap();
        assert_eq!(cfg.log_level, LogLevel::Quiet);
        assert!(parse_args(&args(&["--metrics"]))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn bad_inputs_rejected_with_context() {
        assert!(parse_args(&args(&["--clusters"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&args(&["--clusters", "many"]))
            .unwrap_err()
            .contains("bad value"));
        assert!(parse_args(&args(&["--format", "xml"]))
            .unwrap_err()
            .contains("unknown format"));
        assert!(parse_args(&args(&["--guard-band", "-1"]))
            .unwrap_err()
            .contains("non-negative"));
        assert!(parse_args(&args(&["--wat"]))
            .unwrap_err()
            .contains("unknown option"));
        assert_eq!(parse_args(&args(&["--help"])).unwrap_err(), "help");
    }

    #[test]
    fn frame_flags_parse() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg.windows, None);
        assert_eq!(cfg.frame_grid, 4);
        assert!(!cfg.frame_exhaustive);
        let cfg = parse_args(&args(&[
            "--windows",
            "win.txt",
            "--frame-grid",
            "7",
            "--frame-exhaustive",
        ]))
        .unwrap();
        assert_eq!(cfg.windows.as_deref(), Some("win.txt"));
        assert_eq!(cfg.frame_grid, 7);
        assert!(cfg.frame_exhaustive);
        assert!(parse_args(&args(&["--frame-grid", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_args(&args(&["--windows"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(USAGE.contains("--windows"));
        assert!(USAGE.contains("--frame-exhaustive"));
    }

    #[test]
    fn windows_file_flows_into_the_report() {
        let dir = std::env::temp_dir().join("sna_cli_windows_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("win.txt");
        // Tight windows around t=0 prune aggressors whose edges cannot
        // reach the victim sensitivity interval.
        std::fs::write(
            &path,
            "net000 0 window 1e-9 3e-9\nnet000 0 mexcl 1\nnet000 victim sensitivity 0 6e-9\n",
        )
        .unwrap();
        let cfg = CliConfig {
            clusters: 2,
            threads: 1,
            format: Format::Json,
            log_level: LogLevel::Quiet,
            windows: Some(path.display().to_string()),
            ..Default::default()
        };
        let j = run(&cfg).expect("windowed run");
        assert!(
            j.contains("\"constrained_margin_v\": ") && j.contains("\"frame\": {"),
            "constrained cluster must report a frame block:\n{j}"
        );
        // The pessimistic report is unchanged by constraints on net000's
        // sibling: net001 keeps the stable null.
        assert!(j.contains("\"constrained_margin_v\": null"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_and_serve_flags_parse() {
        let cfg = parse_args(&args(&["--library-cache", "lib.snc"])).unwrap();
        assert_eq!(cfg.library_cache.as_deref(), Some("lib.snc"));
        assert!(!cfg.serve);
        let cfg = parse_args(&args(&["serve", "--clusters", "4"])).unwrap();
        assert!(cfg.serve);
        assert_eq!(cfg.clusters, 4);
        assert!(parse_args(&args(&["--library-cache"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(USAGE.contains("--library-cache"));
        assert!(USAGE.contains("sna serve"));
    }

    #[test]
    fn library_cache_round_trip_through_run() {
        let dir = std::env::temp_dir().join("sna_cli_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.snc");
        std::fs::remove_file(&path).ok();
        let cfg = CliConfig {
            clusters: 2,
            threads: 1,
            format: Format::Json,
            log_level: LogLevel::Quiet,
            library_cache: Some(path.display().to_string()),
            ..Default::default()
        };
        let cold = run(&cfg).expect("cold run");
        assert!(path.exists(), "cache file written after the run");
        let warm = run(&cfg).expect("warm run");
        // Persistence must be invisible in the report.
        assert_eq!(cold, warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deck_flags_parse() {
        let cfg = parse_args(&args(&[
            "--deck",
            "bus.cir",
            "--threshold",
            "0.4",
            "--victim",
            "vic",
            "--aggressors",
            "Va1, Va2",
        ]))
        .unwrap();
        assert_eq!(cfg.deck.as_deref(), Some("bus.cir"));
        assert_eq!(cfg.threshold, Some(0.4));
        assert_eq!(cfg.victim.as_deref(), Some("vic"));
        assert_eq!(cfg.aggressors, ["Va1", "Va2"]);
        assert!(parse_args(&args(&["--threshold", "-0.2"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_args(&args(&["--aggressors", "Va1,,Va2"]))
            .unwrap_err()
            .contains("empty entry"));
    }

    #[test]
    fn run_deck_mode_end_to_end() {
        let dir = std::env::temp_dir().join("sna_cli_deck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.cir");
        std::fs::write(
            &path,
            "* pair\nVa agg 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)\nCc agg vic 20f\n\
             Rv vic 0 2k\nCv vic 0 30f\n.tran 0.05n 6n\n\
             .sna victim=vic aggressors=Va threshold=0.4\n",
        )
        .unwrap();
        let cfg = CliConfig {
            deck: Some(path.display().to_string()),
            format: Format::Json,
            log_level: LogLevel::Quiet,
            ..Default::default()
        };
        let json = run(&cfg).expect("deck run");
        assert!(json.contains("\"schema\": \"sna-deck-report-v1\""));
        assert!(json.contains("\"victim\": \"vic\""));
        let text = run(&CliConfig {
            format: Format::Text,
            ..cfg.clone()
        })
        .expect("deck text run");
        assert!(text.contains("summary:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_produces_all_three_formats() {
        let cfg = CliConfig {
            clusters: 2,
            threads: 2,
            ..Default::default()
        };
        let text = run(&cfg).expect("text run");
        assert!(text.contains("[cmos130]"));
        let json = run(&CliConfig {
            format: Format::Json,
            ..cfg.clone()
        })
        .expect("json run");
        assert!(json.contains("\"schema\": \"sna-report-v1\""));
        assert!(json.contains("\"net\": \"net000\""));
        let csv = run(&CliConfig {
            format: Format::Csv,
            ..cfg
        })
        .expect("csv run");
        assert!(csv.starts_with("corner,net,verdict"));
        assert_eq!(csv.lines().count(), 3); // header + 2 nets
    }

    #[test]
    fn unknown_corner_fails_at_run_time() {
        let cfg = CliConfig {
            corners: vec!["cmos7".into()],
            ..Default::default()
        };
        assert!(run(&cfg).is_err());
    }
}
