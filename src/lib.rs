//! # sna — static noise analysis with non-linear cell macromodels
//!
//! A full-system reproduction of **Forzan & Pandini, "Modeling the
//! Non-Linear Behavior of Library Cells for an Accurate Static Noise
//! Analysis", DATE 2005** — the victim-driver VCCS macromodel
//! `I_DC = f(V_in, V_out)` (Eq. 1), the noise-cluster macromodel of
//! Figure 1, a dedicated non-linear noise engine, and everything the paper
//! depends on, built from scratch:
//!
//! * [`spice`] — SPICE-class circuit simulator (MNA, Newton DC, trapezoidal
//!   transient, level-1 MOSFETs, deck parser) standing in for ELDO™;
//! * [`cells`] — technology decks (0.13 µm / 90 nm), transistor-level
//!   library cells, and the pre-characterization suite (load curves,
//!   holding resistance, Dartu–Pileggi Thevenin drivers, propagated-noise
//!   tables);
//! * [`interconnect`] — geometry-driven coupled distributed-RC ladders;
//! * [`mor`] — moment matching, the single-net Π model, and PRIMA-style
//!   reduction (the "coupled-S" driving-point model);
//! * [`core`] — the paper's contribution plus the linear-superposition and
//!   iterative-Thevenin baselines, NRC sign-off, worst-case alignment, and
//!   a complete SNA flow;
//! * [`flow`] — the parallel full-chip subsystem: an order-preserving
//!   worker pool, a shared characterization library with an on-disk
//!   cache, multi-corner sweeps, and the `sna` CLI with JSON/CSV reports.
//!
//! ## Quickstart
//!
//! ```no_run
//! use sna::prelude::*;
//!
//! # fn main() -> sna::spice::Result<()> {
//! // The paper's Table-1 cluster, end to end, all four methods.
//! let spec = table1_spec();
//! let comparison = MethodComparison::run("quickstart", &spec)?;
//! println!("{comparison}");
//! assert!(comparison.macromodel.peak_err_pct.abs()
//!         < comparison.superposition.peak_err_pct.abs());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios, the `sna-bench` binaries for the
//! paper's tables and speed-up, and `perfbench/` for end-to-end and
//! per-layer performance.

#![warn(missing_docs)]

pub use sna_cells as cells;
pub use sna_core as core;
pub use sna_flow as flow;
pub use sna_interconnect as interconnect;
pub use sna_mor as mor;
pub use sna_spice as spice;

/// Everything, for examples and quick experiments.
pub mod prelude {
    pub use sna_cells::prelude::*;
    pub use sna_core::prelude::*;
    pub use sna_flow::prelude::*;
    pub use sna_interconnect::prelude::*;
    pub use sna_mor::prelude::*;
    pub use sna_spice::prelude::*;
}
