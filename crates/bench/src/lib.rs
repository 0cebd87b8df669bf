//! # sna-bench — benchmark harness
//!
//! Binaries regenerating every table and §3 claim of Forzan & Pandini
//! (DATE 2005), plus the dense/sparse solver sweep:
//!
//! | target | paper artifact |
//! |---|---|
//! | `--bin table1` | Table 1 — injected + propagated combination |
//! | `--bin table2` | Table 2 — two in-phase aggressors + glitch |
//! | `--bin accuracy_sweep` | §3 "error always within few percents" (0.13 µm & 90 nm) |
//! | `--bin speedup` | §3 "speed-up … about 20×" |
//! | `--bin solver_sweep` | dense vs sparse LU across `SPARSE_AUTO_THRESHOLD` (`BENCH_solver.json`) |
//!
//! Run them with `cargo run --release -p sna-bench --bin <name>`.
//! End-to-end and per-layer performance is measured by `perfbench/`,
//! in calibrated time, not here.
