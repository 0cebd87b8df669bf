//! # sna-spice — circuit-simulation substrate for static noise analysis
//!
//! A from-scratch SPICE-class simulator playing the role ELDO™ plays in
//! Forzan & Pandini's DATE 2005 paper *"Modeling the Non-Linear Behavior of
//! Library Cells for an Accurate Static Noise Analysis"*: the golden
//! reference against which noise macromodels are validated, and the engine
//! used to pre-characterize cells.
//!
//! ## What's inside
//!
//! * [`netlist`] — flat circuit representation over named nodes (R, C,
//!   V/I sources, linear VCCS, table-driven VCCS, level-1 MOSFETs).
//! * [`mna`] — Modified Nodal Analysis assembly (`G`, `C` matrices, RHS,
//!   non-linear stamps).
//! * [`dc`] — Newton–Raphson operating point with gmin/source stepping,
//!   small-signal input conductance (holding resistance).
//! * [`tran`] — fixed-step trapezoidal transient, and
//!   [`tran::TranWorkspace`], the one reuse unit: characterization grids
//!   run every DC point and transient of a circuit on one workspace,
//!   changing only source waveforms between runs (bit-exact on the dense
//!   path); an early-stop predicate ends a run at the first sample it
//!   accepts.
//! * [`devices`] — source waveforms, the smoothed Shichman–Hodges MOSFET,
//!   and the bilinear [`devices::Table2d`] behind the paper's Eq. (1).
//! * [`waveform`] — sampled waveforms and glitch metrics (peak/width/area).
//! * [`parser`] — SPICE-deck subset reader/writer.
//! * [`linalg`] — dense LU with partial pivoting.
//! * [`fnv`] — the stable FNV-1a hash behind every fingerprint.
//! * [`sparse`] — CSC matrices, fill-reducing ordering, and a KLU-style
//!   symbolic/numeric LU split (cold factor once, refactor per iteration).
//! * [`solver`] — dense/sparse backend selection ([`solver::SolverKind`])
//!   shared by every repeated solve in the workspace.
//!
//! ## Quickstart
//!
//! ```
//! use sna_spice::prelude::*;
//!
//! # fn main() -> sna_spice::Result<()> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", inp, Circuit::gnd(), SourceWaveform::Dc(1.0));
//! ckt.add_resistor("R1", inp, out, 1e3)?;
//! ckt.add_capacitor("C1", out, Circuit::gnd(), 1e-12)?;
//! let mut params = TranParams::new(5e-9, 1e-12);
//! params.dc_init = false;
//! let result = transient(&ckt, &params)?;
//! let v_out = result.node_waveform(out);
//! // tau = 1 ns, so after 5 tau the output has settled to within 1 %.
//! assert!((v_out.value_at(5e-9) - 1.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dc;
pub mod devices;
pub mod error;
pub mod fnv;
pub mod linalg;
pub mod mna;
pub mod netlist;
pub mod parser;
pub mod solver;
pub mod sparse;
pub mod tran;
pub mod units;
pub mod waveform;

pub use error::{Error, Result};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::dc::{dc_input_conductance, dc_operating_point, DcSolution, NewtonOptions};
    pub use crate::devices::{
        linspace, DiodeModel, MosPolarity, MosfetModel, SourceWaveform, Table2d, TableEval,
    };
    pub use crate::error::{Error, Result};
    pub use crate::linalg::{DenseMatrix, MatrixStamp};
    pub use crate::netlist::{Circuit, Element, ElementId, NodeId};
    pub use crate::parser::{
        dump_parsed, parse_deck, parse_deck_file, write_deck, ParsedDeck, SnaCard,
    };
    pub use crate::solver::{SolverKind, SystemSolver, SPARSE_AUTO_THRESHOLD};
    pub use crate::sparse::{SparseLu, SparseMatrix, Symbolic};
    pub use crate::tran::{
        transient, transient_with, NodeVoltages, StopPredicate, TranParams, TranResult,
        TranWorkspace,
    };
    pub use crate::units::*;
    pub use crate::waveform::{GlitchError, GlitchMetrics, Waveform};
}
