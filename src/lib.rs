//! # Compass — a scalable simulator for an architecture for Cognitive Computing
//!
//! Facade crate for the Rust reproduction of Preissl et al., SC 2012.
//! Re-exports the public API of every subsystem crate:
//!
//! * [`tn`] — the TrueNorth neurosynaptic-core architecture model.
//! * [`comm`] — the communication substrate (rank runtime, thread teams,
//!   MPI-style mailboxes and collectives, PGAS windows).
//! * [`sim`] — the Compass simulator itself (Synapse / Neuron / Network
//!   phases over MPI-style or PGAS backends).
//! * [`pcc`] — the Parallel Compass Compiler (CoreObject descriptions,
//!   Sinkhorn/IPFP matrix balancing, region placement, parallel wiring).
//! * [`cocomac`] — the CoCoMac macaque network model generator and the
//!   §VII synthetic real-time workload.
//! * [`primitives`] — the functional-primitive circuit library §IV
//!   envisions for application building.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use compass_cocomac as cocomac;
pub use compass_comm as comm;
pub use compass_pcc as pcc;
pub use compass_primitives as primitives;
pub use compass_sim as sim;
pub use tn_core as tn;
