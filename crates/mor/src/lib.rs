//! # sna-mor — model order reduction for coupled RC interconnect
//!
//! The interconnect of a noise cluster "is modeled at the driving points
//! […] represented by a coupled-Σ model, which can be obtained with
//! moment-matching techniques" (Forzan & Pandini §2, citing their CICC'98
//! work). This crate provides that machinery:
//!
//! * [`moments`] — block admittance moments of an N-port RC network;
//! * [`pi_model`] — the classic O'Brien–Savarino Π of one driving point
//!   (the load each aggressor's Thevenin fit sees);
//! * [`prima`] — block-Arnoldi congruence projection keeping every driving
//!   point *and* receiver tap as a port (the reduction the noise engine in
//!   `sna-core` integrates).
//!
//! ```
//! use sna_interconnect::prelude::*;
//! use sna_mor::prelude::*;
//! use sna_spice::netlist::Circuit;
//!
//! # fn main() -> sna_spice::Result<()> {
//! let wire = WireGeom::new(500e-6, 0.2e6, 40e-12);
//! let bus = CoupledBus::parallel_pair(wire, wire, 90e-12, 20);
//! let mut ckt = Circuit::new();
//! let nets = bus.instantiate(&mut ckt, "n")?;
//! let ports = [nets[0].near, nets[1].near];
//! let reduced = prima_reduce(&ckt, &ports, DEFAULT_Q, DEFAULT_S0)?;
//! assert!(reduced.dim() <= 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod moments;
pub mod pi_model;
pub mod prima;

pub use moments::port_admittance_moments;
pub use pi_model::{pi_from_network, PiModel};
pub use prima::{prima_reduce, prima_reduce_with, ReducedSystem, DEFAULT_Q, DEFAULT_S0};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::moments::port_admittance_moments;
    pub use crate::pi_model::{pi_from_network, PiModel};
    pub use crate::prima::{prima_reduce, prima_reduce_with, ReducedSystem, DEFAULT_Q, DEFAULT_S0};
}
