//! Communication substrate for the Compass simulator.
//!
//! The SC'12 Compass paper runs on an IBM Blue Gene/Q: one MPI process per
//! compute node, OpenMP threads inside each process, two-sided MPI
//! point-to-point messaging plus an `MPI_Reduce_scatter` collective, and — in
//! the real-time study of §VII — a UPC/GASNet PGAS variant built on one-sided
//! puts and a single fast global barrier.
//!
//! This crate reproduces that execution environment in-process:
//!
//! * [`World`] launches `P` *ranks*, each an OS thread with its own state —
//!   the stand-in for an MPI process.
//! * [`team::ThreadTeam`] gives each rank a persistent pool of workers with
//!   fork–join parallel regions, team barriers, and critical sections — the
//!   stand-in for OpenMP.
//! * [`mailbox`] implements tagged two-sided messaging with probe semantics,
//!   the stand-in for `MPI_Isend` / `MPI_Iprobe` / `MPI_Recv`.
//! * [`collectives`] builds `reduce_scatter`, `allreduce`, `barrier`, and
//!   friends from point-to-point messages using the classical log-P
//!   algorithms, so collective cost grows with communicator size exactly as
//!   the paper observes.
//! * [`pgas`] implements one-sided put windows with epoch double-buffering
//!   and a global barrier, the stand-in for UPC/GASNet.
//! * [`metrics`] counts every message, byte, put, and collective so the
//!   benchmark harness can regenerate the paper's messaging analysis
//!   (Fig. 4b).
//!
//! All primitives are deterministic in *content* (never in interleaving):
//! given the same inputs they deliver the same multisets of messages, which
//! is what lets the simulator above guarantee configuration-independent
//! spike traces.
//!
//! The crate denies `unsafe` code. Two sites are allowed it: the thread
//! team's type-erased job pointer ([`team`]), and the checksum's call into
//! its carry-less-multiply kernel after the CPU was seen to support it
//! ([`reliable`]).

#![deny(unsafe_code)]

pub mod barrier;
pub mod collectives;
pub mod fault;
pub mod mailbox;
pub mod metrics;
pub mod pgas;
pub mod reliable;
pub mod sync;
pub mod team;
pub mod world;

pub use barrier::CentralizedBarrier;
pub use collectives::Communicator;
pub use fault::{CrashPlan, FaultInjector, FaultKind, FaultPlan, RankCrash};
pub use mailbox::{Envelope, Mailbox, MailboxSet, Tag};
pub use metrics::{MetricsSnapshot, TransportMetrics};
pub use pgas::PgasWorld;
pub use reliable::{crc32, AuditOutcome, Crc32, ReliableConfig, ReliableWorld, RelyCounts};
pub use team::ThreadTeam;
pub use world::{Membership, RankCtx, RankFailure, WaitStopped, World, WorldConfig};

/// A rank index in `0..P`, the in-process equivalent of an MPI rank.
pub type Rank = usize;
