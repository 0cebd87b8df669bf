//! # sna-core — static noise analysis with non-linear cell macromodels
//!
//! The primary contribution of Forzan & Pandini (DATE 2005): replace the
//! victim driver with a DC-characterized non-linear VCCS
//! `I_DC = f(V_in, V_out)` (Eq. 1) inside the noise-cluster macromodel of
//! Figure 1, and solve that small circuit with a dedicated engine — instead
//! of linearly superposing separately-computed injected and propagated
//! noise, which badly underestimates the combined glitch.
//!
//! * [`cluster`] — cluster specs and the Figure-1 macromodel builder.
//! * [`engine`] — the dedicated non-linear noise engine (the paper's
//!   method).
//! * [`golden`] — transistor-level reference simulation (the ELDO™ role).
//! * [`superposition`] — the linear-superposition baseline the paper
//!   criticizes.
//! * [`zolotov`] — the iterative linear-Thevenin baseline of Zolotov et
//!   al. (ICCAD'02) the paper compares against.
//! * [`nrc`] — noise rejection curves and sign-off classification.
//! * [`alignment`] — worst-case aggressor/glitch alignment search.
//! * [`frame`] — FRAME-style timing-window / mutual-exclusion aggressor
//!   correlation pruning ahead of candidate simulation.
//! * [`sna`] — a full static-noise-analysis flow over synthetic designs
//!   (the "complete methodology" the paper lists as future work).
//! * [`report`] — the paper-style comparison tables.
//! * [`scenarios`] — canonical Table-1 / Table-2 / §3-sweep setups.

#![warn(missing_docs)]

pub mod alignment;
pub mod cluster;
pub mod engine;
pub mod frame;
pub mod golden;
pub mod library;
pub mod nrc;
pub mod report;
pub mod scenarios;
pub mod sna;
pub mod superposition;
pub mod zolotov;

pub use cluster::{
    AggressorSpec, ClusterMacromodel, ClusterSpec, InputGlitch, SwitchingWindow, VictimSpec,
};
pub use engine::{simulate_macromodel, NoiseWaveforms};
pub use golden::simulate_golden;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::alignment::{worst_case_alignment, AlignmentResult};
    pub use crate::cluster::{
        AggressorSpec, ClusterMacromodel, ClusterSpec, InputGlitch, MacromodelOptions, PortRole,
        SwitchingWindow, VictimSpec,
    };
    pub use crate::engine::{simulate_macromodel, NoiseWaveforms};
    pub use crate::frame::{constrained_worst_case, FrameCounters, FrameOutcome};
    pub use crate::golden::{build_golden_circuit, simulate_golden};
    pub use crate::library::{ArtifactKind, KindStats, LibraryStats, NoiseModelLibrary};
    pub use crate::nrc::{characterize_nrc, characterize_nrc_with, NoiseRejectionCurve};
    pub use crate::report::{ComparisonRow, MethodComparison};
    pub use crate::scenarios::{
        falling_spec, m4_bus, mixed_phase_spec, sweep_specs, table1_spec, table2_spec, SweepCase,
    };
    pub use crate::sna::{
        analyze_cluster, run_sna, ClusterFinding, Design, DesignCluster, NoiseReport,
        SkippedCluster, SnaOptions, Verdict,
    };
    pub use crate::superposition::simulate_superposition;
    pub use crate::zolotov::{simulate_zolotov, ZolotovOptions};
}
