//! End-to-end and per-layer benchmark of the sna flow, in calibrated time.
//!
//! ```text
//! perfbench --workload <cold_signoff|warm_worst_case|serve_eco>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in-process on one thread through the public APIs of
//! `sna-flow` and `sna-core`, checks its outputs, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See README.md for the workloads and the metrics.

mod accuracy;
mod batch;
mod calib;
mod cold;
mod design;
mod layers;
mod serve;
mod trace;
mod warm;

use std::time::Instant;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    pub checks: usize,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The time metrics again in host time, printed for reference only.
    pub host: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let line = what();
            eprintln!("CHECK FAILED: {line}");
            self.failures.push(line);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Report a time metric from timed operations: calibrated as the
    /// metric, host time for reference. `f` maps one clock to the value.
    pub fn time_metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        f: impl Fn(calib::Which) -> f64,
    ) {
        self.metrics.push((name, f(calib::CAL), unit));
        self.host.push((name, f(calib::HOST), unit));
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one timed operation. With the recorder enabled, the operation is
/// an `op` span whose spans are folded into `layers`.
pub fn timed_op<R>(
    clock: &mut calib::Clock,
    rec: &mut trace::Recorder,
    layers: &mut layers::LayerTotals,
    op: u64,
    f: impl FnOnce(&mut trace::Recorder) -> R,
) -> (R, calib::Timed) {
    rec.begin_op(op);
    let from = rec.mark();
    let (r, t) = clock.time(|| rec.span("op", f));
    if rec.enabled() {
        layers.add_op(rec, from, rec.mark(), t);
    }
    (r, t)
}

/// Time `reps` calls of `f` as one operation, for steps too short to
/// calibrate one at a time: the last call's result and the time per call.
pub fn time_repeated<R>(
    clock: &mut calib::Clock,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (R, calib::Timed) {
    let (r, t) = clock.time(|| {
        let mut last = f();
        for _ in 1..reps {
            last = f();
        }
        last
    });
    let n = reps as f64;
    (
        r,
        calib::Timed {
            host: t.host / n,
            cal: t.cal / n,
        },
    )
}

/// Write the traced run's spans (chrome-trace JSON) next to the
/// benchmark's other outputs.
pub fn write_trace(rec: &trace::Recorder, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_chrome_json())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-image") {
        design::write_image(&argv);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_signoff|warm_worst_case|serve_eco> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let report = match args.workload.as_str() {
        "cold_signoff" => cold::run(&args),
        "warm_worst_case" => warm::run(&args),
        "serve_eco" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    // No operation is expected to fail: a failed cluster analysis or
    // round trip fails the run as a failed check does.
    let correct = report.failures.is_empty() && report.failed == 0 && report.attempted > 0;
    println!(
        "{} seed {} trace {}: {} operations attempted, {} failed, {}/{} checks passed, {:.1} s wall",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.checks - report.failures.len(),
        report.checks,
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    if !report.host.is_empty() {
        println!("  in host time (reference only):");
    }
    for (name, value, unit) in &report.host {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
