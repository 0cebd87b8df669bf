//! # sna-bench — benchmark harness
//!
//! Binaries regenerating every table and §3 claim of Forzan & Pandini
//! (DATE 2005), plus Criterion micro-benches:
//!
//! | target | paper artifact |
//! |---|---|
//! | `--bin table1` | Table 1 — injected + propagated combination |
//! | `--bin table2` | Table 2 — two in-phase aggressors + glitch |
//! | `--bin accuracy_sweep` | §3 "error always within few percents" (0.13 µm & 90 nm) |
//! | `--bin speedup` | §3 "speed-up … about 20×" |
//! | `benches/engine.rs` | engine throughput + integrator ablation |
//! | `benches/golden_vs_macro.rs` | golden vs macromodel wall-clock |
//! | `benches/characterization.rs` | Eq. (1) grid-resolution ablation |
//! | `benches/mor.rs` | PRIMA vs coupled-Π reduction ablation |
//!
//! Run everything with `cargo bench` and the binaries with
//! `cargo run --release -p sna-bench --bin <name>`.
