//! # The CoCoMac macaque brain model network (§V) and synthetic workloads
//!
//! The Compass paper's weak/strong/thread scaling experiments all run a
//! test network derived from the CoCoMac database of macaque white-matter
//! tracing studies; the real-time PGAS-vs-MPI comparison (§VII) runs a
//! controlled synthetic system instead. This crate provides both:
//!
//! * [`hierarchy`] — a seeded generator reproducing the published CoCoMac
//!   statistics (383 hierarchical regions, 6,602 directed edges) and the
//!   paper's merge pipeline (OR children into parents → 102 regions → 77
//!   reporting connections). The database itself is not redistributable;
//!   DESIGN.md documents the substitution.
//! * [`atlas`] — synthetic Paxinos-style volumes with the documented
//!   missing-data imputation (5 cortical + 8 thalamic medians).
//! * [`builder::macaque_network`] — assembles the 77-region compilable
//!   [`compass_pcc::CoreObject`] with the paper's 60/40 (cortical) and
//!   80/20 (sub-cortical) long-range/local splits and driven thalamic
//!   relays.
//! * [`synthetic::synthetic_realtime`] — the §VII workload: 75% same-node
//!   connectivity, 25% remote, every neuron firing at exactly 10 Hz.

pub mod atlas;
pub mod builder;
pub mod hierarchy;
pub mod synthetic;

pub use atlas::{assign_volumes, Volumes};
pub use builder::{core_budgets, macaque_network, MacaqueNetwork, DRIVE_PERIOD};
pub use compass_pcc::RegionClass;
pub use hierarchy::{generate_parcellation, merge_to_parents, MergedGraph, Parcellation};
pub use synthetic::{synthetic_realtime, SyntheticParams};
