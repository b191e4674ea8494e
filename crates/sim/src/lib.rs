//! # Compass — the simulator core
//!
//! Implements §III of the SC'12 paper: the multi-threaded, massively
//! parallel functional simulator of TrueNorth core networks.
//!
//! * [`model::NetworkModel`] — an explicit description of every core in the
//!   system, plus initial spike injections.
//! * [`partition::Partition`] — the implicit core-to-process map.
//! * [`engine`] — the per-rank main loop: Synapse, Neuron, and Network
//!   phases, in both the MPI-style ([`engine::Backend::Mpi`]) and PGAS
//!   ([`engine::Backend::Pgas`]) variants, with the paper's two key
//!   optimizations (per-destination aggregation, collective/delivery
//!   overlap) available as ablation switches.
//! * [`runner::run`] — one-call convenience: world launch + partition +
//!   per-rank engine + report merge. [`runner::Job`] is the same call with
//!   the resilience layers below armed, one field each.
//! * [`stats`] — per-phase timings, spike/message accounting, slowdown
//!   factor, and mean firing rate, matching the quantities the paper
//!   reports.
//!
//! ## The equivalence contract
//!
//! Compass is "one-to-one equivalent" to TrueNorth: for a fixed model and
//! seed the spike trace is bit-identical regardless of the number of ranks,
//! the number of threads per rank, the backend, or the ablation switches.
//! The integration tests in `tests/` enforce this property across all of
//! those axes; it holds because core dynamics are order-insensitive to
//! spike delivery (see `tn-core`) and every stochastic draw comes from a
//! per-core seeded PRNG.
//!
//! ## Checkpoint/restart
//!
//! [`engine::run_rank_with`] extends the contract across failures: a run
//! checkpointed at a tick boundary ([`checkpoint::RankCheckpoint`]),
//! killed, and resumed produces a spike trace, activity counters, and
//! PRNG streams bit-identical to a run that never stopped — even when the
//! interval between checkpoint and kill was subjected to seeded
//! communication faults (`compass_comm::FaultPlan`).

//!
//! ## Self-healing communication
//!
//! With a reliable-delivery layer installed
//! ([`compass_comm::ReliableWorld`]) the engine audits every tick's
//! expected-vs-received frames and re-delivers what a faulty transport
//! lost; with a [`recovery::RecoveryPolicy`] it additionally answers
//! unrecoverable gaps by rolling every rank back to the newest in-memory
//! auto-checkpoint and replaying — the run completes with a trace
//! bit-identical to the fault-free oracle (`recovery` on a [`runner::Job`]).
//!
//! ## Degraded mode — surviving rank crashes
//!
//! Arming [`recovery::RecoveryPolicy::survive_crashes`] extends
//! self-healing from lost messages to lost *ranks*: every rank replicates
//! its newest checkpoint (plus recorded history) to its ring buddy at each
//! boundary ([`checkpoint::ReplicaPayload`]), heartbeats open every tick,
//! and when a rank dies mid-run the survivors reach a deterministic,
//! unanimous death verdict, retire the dead rank from the transport,
//! rebuild the core-to-rank map as a [`partition::SurvivorView`] in which
//! the buddy adopts the victim's cores, roll back to the common boundary,
//! and replay to completion — the final trace is bit-identical to a run
//! that never crashed (`crash` on a [`runner::Job`]).

// Team threads own their cores by construction (`engine`'s `Shard`s, cut
// by `tn_core::CorePool::split`), so nothing here needs `unsafe`.
#![forbid(unsafe_code)]

pub mod batched;
pub mod checkpoint;
pub mod engine;
pub mod model;
pub mod partition;
pub mod recovery;
pub mod route;
pub mod runner;
pub mod solo;
pub mod stats;
pub mod store;

pub use batched::{BatchCheckpoint, BatchRunError, BatchedSimulation};
pub use checkpoint::{CheckpointError, RankCheckpoint, ReplicaPayload};
pub use engine::{
    run_rank, run_rank_view, run_rank_with, Backend, DeathInterrupt, EngineConfig, Refused,
    RunOptions, RunOutcome,
};
pub use model::{ModelError, NetworkModel};
pub use partition::{Partition, SurvivorView};
pub use recovery::RecoveryPolicy;
pub use runner::{
    check_fits, run, run_durable, ElasticEvent, ElasticPlan, ElasticStep, Job, JobError,
};
pub use solo::SoloSimulation;
pub use stats::{trace_digest, PhaseTimes, RankReport, RunReport};
pub use store::{
    CheckpointStore, DurabilityPolicy, FsckReport, GcReport, GenKind, Manifest, ResumePoint,
    StoreError,
};
