//! Seeded inputs: the designs, FRAME constraint sidecars and library
//! images each workload runs on.
//!
//! A design is always the program's own generator, `Design::random`, so
//! batch checks can compare against `run_corners_windowed` and serve
//! sessions can build it from a seed. The benchmark only picks *which*
//! generator seed: it walks a sequence derived from `--seed` and takes the
//! first design whose make-up (aggressor counts, glitch count, distinct
//! victim cells, propagated-noise tables) equals the workload's fixed
//! make-up. Wire lengths, cells, slews, switch times and glitch shapes
//! still change with `--seed`, while the quantities that set a pass's cost
//! stay put, so every seed measures about the same amount of work.

use std::path::{Path, PathBuf};
use std::process::Command;

use sna_cells::Technology;
use sna_core::cluster::{MacromodelOptions, SwitchingWindow};
use sna_core::library::NoiseModelLibrary;
use sna_core::sna::Design;
use sna_flow::cli::{CliConfig, Format, LogLevel};
use sna_flow::windows::WindowEdit;
use sna_spice::units::{NS, PS};

/// The seed whose designs hold the accuracy sample of every workload.
pub const REFERENCE_SEED: u64 = 2005;

/// What a workload's design must contain.
pub struct MakeUp {
    /// `(aggressors, has_glitch)` of every cluster, sorted.
    pub kinds: &'static [(usize, bool)],
    /// Distinct (victim cell type, strength) pairs, if fixed: the load
    /// curves a cold round characterizes.
    pub distinct_victims: Option<usize>,
    /// Distinct (victim cell, load bucket) pairs, if fixed: the
    /// propagated-noise tables a cold round characterizes.
    pub prop_tables: Option<usize>,
}

impl MakeUp {
    pub fn clusters(&self) -> usize {
        self.kinds.len()
    }

    fn matches(&self, d: &Design) -> bool {
        let mut kinds: Vec<(usize, bool)> = d
            .clusters
            .iter()
            .map(|c| (c.spec.aggressors.len(), c.spec.victim.glitch.is_some()))
            .collect();
        kinds.sort_unstable();
        if kinds != self.kinds {
            return false;
        }
        let Some(want) = self.distinct_victims else {
            return true;
        };
        let mut victims: Vec<(&str, u64)> = d
            .clusters
            .iter()
            .map(|c| {
                (
                    c.spec.victim.cell.cell_type.tag(),
                    c.spec.victim.cell.strength.to_bits(),
                )
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        victims.len() == want
    }
}

pub fn tech() -> Technology {
    Technology::cmos130()
}

/// Distinct (victim cell, load bucket) pairs of a design: the
/// propagated-noise tables a sign-off on an empty library characterizes.
/// The bucket mirrors the library's ×1.2 geometric load buckets; the
/// victim's driver output capacitance comes from its load curve,
/// characterized once per cell in `scratch`.
fn prop_tables(d: &Design, scratch: &NoiseModelLibrary) -> usize {
    let mm = MacromodelOptions::default();
    let mut keys: Vec<(&str, u64, i32)> = d
        .clusters
        .iter()
        .map(|c| {
            let mut opts = c.spec.char_opts;
            opts.newton.solver = mm.solver;
            opts.backend = mm.backend;
            let lc = scratch
                .load_curve(&c.spec.victim.cell, &c.spec.victim.mode, &opts)
                .expect("victim load curve");
            let cap = c.spec.victim_total_cap(lc.c_out);
            let bucket = (cap.ln() / 1.2_f64.ln()).round() as i32;
            let cell = &c.spec.victim.cell;
            (cell.cell_type.tag(), cell.strength.to_bits(), bucket)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// The first generator seed in the sequence of `seed` whose design has
/// the make-up, with that design.
pub fn select_design(makeup: &MakeUp, seed: u64) -> (u64, Design) {
    let tech = tech();
    let scratch = NoiseModelLibrary::new();
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for k in 0..10_000_000u64 {
        let design_seed = (base.wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03))) >> 16;
        let d = Design::random(&tech, makeup.clusters(), design_seed);
        if makeup.matches(&d)
            && makeup
                .prop_tables
                .is_none_or(|n| prop_tables(&d, &scratch) == n)
        {
            return (design_seed, d);
        }
    }
    panic!("no design with the workload's make-up in 1e7 draws");
}

/// A small xorshift generator for the benchmark's own draws (window
/// placement, edit values); the program never sees it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5851_F42D_4C95_7F2D);
        for _ in 0..4 {
            r.next_u64();
        }
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Index of the first cluster of `(aggressors, has_glitch)` kind.
pub fn cluster_of_kind(d: &Design, kind: (usize, bool)) -> usize {
    nth_of_kind(d, kind, 0)
}

/// Index of the `nth` cluster (from 0) of `(aggressors, has_glitch)` kind.
pub fn nth_of_kind(d: &Design, kind: (usize, bool), nth: usize) -> usize {
    d.clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| (c.spec.aggressors.len(), c.spec.victim.glitch.is_some()) == kind)
        .nth(nth)
        .map(|(i, _)| i)
        .expect("make-up guarantees every listed cluster")
}

/// A switching window around `t0`, drawn from `rng`.
pub fn window_around(rng: &mut Rng, t0: f64) -> SwitchingWindow {
    SwitchingWindow::new(
        (t0 - rng.uniform(50.0, 150.0) * PS).max(0.0),
        t0 + rng.uniform(50.0, 150.0) * PS,
    )
}

/// FRAME constraints for one cluster in the two fixed shapes the
/// benchmark uses, so that candidate counts do not depend on the draws:
///
/// * `mexcl_pair`: aggressors 0 and 1 windowed around their nominal
///   switch times and in one mutual-exclusion group, no sensitivity
///   window (25 candidates, 16 pruned by exclusion, 9 simulated);
/// * `sensitive`: aggressor 0 windowed inside the victim's sensitivity
///   window, aggressor 1 windowed entirely after it (25 candidates, 20
///   pruned by the window, 5 simulated).
pub fn constrain(
    d: &Design,
    idx: usize,
    sensitive: bool,
    group: u32,
    rng: &mut Rng,
) -> Vec<WindowEdit> {
    let c = &d.clusters[idx];
    let net = c.name.clone();
    let t0 = c.spec.aggressors[0].switch_time;
    let t1 = c.spec.aggressors[1].switch_time;
    if sensitive {
        let s_end = rng.uniform(1.2, 1.5) * NS;
        let late = rng.uniform(0.1, 0.3) * NS;
        vec![
            WindowEdit::AggressorWindow {
                net: net.clone(),
                agg: 0,
                window: window_around(rng, t0),
            },
            WindowEdit::AggressorWindow {
                net: net.clone(),
                agg: 1,
                window: SwitchingWindow::new(
                    s_end + late,
                    s_end + late + rng.uniform(0.1, 0.3) * NS,
                ),
            },
            WindowEdit::VictimSensitivity {
                net,
                window: SwitchingWindow::new(0.0, s_end),
            },
        ]
    } else {
        vec![
            WindowEdit::AggressorWindow {
                net: net.clone(),
                agg: 0,
                window: window_around(rng, t0),
            },
            WindowEdit::AggressorWindow {
                net: net.clone(),
                agg: 1,
                window: window_around(rng, t1),
            },
            WindowEdit::AggressorMexcl {
                net: net.clone(),
                agg: 0,
                group,
            },
            WindowEdit::AggressorMexcl { net, agg: 1, group },
        ]
    }
}

/// Render edits in the `--windows` sidecar grammar. Times are printed
/// with 17 significant digits so they parse back to the same bits.
pub fn windows_text(edits: &[WindowEdit]) -> String {
    let mut out = String::new();
    for e in edits {
        let line = match e {
            WindowEdit::AggressorWindow { net, agg, window } => {
                format!(
                    "{net} {agg} window {:.16e} {:.16e}\n",
                    window.t_min, window.t_max
                )
            }
            WindowEdit::AggressorMexcl { net, agg, group } => {
                format!("{net} {agg} mexcl {group}\n")
            }
            WindowEdit::VictimSensitivity { net, window } => format!(
                "{net} victim sensitivity {:.16e} {:.16e}\n",
                window.t_min, window.t_max
            ),
        };
        out.push_str(&line);
    }
    out
}

/// Scratch directory for this process's files, inside the benchmark's
/// own directory (ignored by git).
pub fn scratch_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// CLI configuration of a one-thread sign-off of `clusters` clusters
/// generated from `design_seed` on cmos130.
pub fn cli_config(clusters: usize, design_seed: u64) -> CliConfig {
    CliConfig {
        clusters,
        seed: design_seed,
        threads: 1,
        corners: vec!["cmos130".into()],
        format: Format::Json,
        log_level: LogLevel::Quiet,
        ..CliConfig::default()
    }
}

/// Have the program write an `sna-libcache-v1` image of a sign-off of the
/// design, in a child process, so that no part of the measured process
/// did the characterization. The child is this benchmark binary in its
/// `--write-image` mode, which runs the `sna` CLI entry point.
pub fn write_image_in_child(clusters: usize, design_seed: u64, windows: &Path, image: &Path) {
    let exe = std::env::current_exe().expect("path of the benchmark binary");
    let status = Command::new(exe)
        .arg("--write-image")
        .arg(image)
        .arg("--clusters")
        .arg(clusters.to_string())
        .arg("--design-seed")
        .arg(design_seed.to_string())
        .arg("--windows")
        .arg(windows)
        .status()
        .expect("start the image-writing child process");
    assert!(status.success(), "image-writing child failed: {status}");
}

/// The child side of [`write_image_in_child`]: a CLI sign-off run with
/// `--library-cache`, which saves the library when it ends.
pub fn write_image(args: &[String]) {
    let get = |flag: &str| -> &str {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| panic!("--write-image needs {flag}"));
        &args[i + 1]
    };
    let mut cfg = cli_config(
        get("--clusters").parse().expect("--clusters"),
        get("--design-seed").parse().expect("--design-seed"),
    );
    cfg.windows = Some(get("--windows").to_string());
    cfg.library_cache = Some(get("--write-image").to_string());
    sna_flow::cli::run(&cfg).expect("image-writing sign-off run");
}
