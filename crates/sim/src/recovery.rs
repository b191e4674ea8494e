//! Automatic rollback-recovery: the policy knobs of the engine's
//! self-healing loop.
//!
//! The reliable layer (`compass_comm::reliable`) can re-deliver most
//! faulted traffic from the sender's retained ring, but a gap becomes
//! *unrecoverable* when the retransmit budget runs out or the ring has
//! evicted the frame. At that point the data is gone for good — no local
//! action can reconstruct it — so the engine falls back to the only move
//! that preserves bit-exactness: every rank rolls its cores back to the
//! newest auto-checkpoint and replays the interval. Replay is safe because
//! all simulation state lives in the cores at a tick boundary (the
//! [`crate::checkpoint`] invariant), replayed sends carry fresh sequence
//! numbers (stale frames from the abandoned timeline dedup at the
//! receiver), and every stochastic draw comes from per-core PRNG state
//! that travels in the snapshot.
//!
//! The verdict is collective: each rank audits its own inbound pairs, and
//! one `allreduce_max` of the per-rank verdicts makes the decision
//! unanimous — either every rank rolls back to the same tick or none does,
//! so no rank is ever left replaying against peers that moved on.
//! Repeated rollbacks within one cadence interval all land on the same
//! image: a replay re-executes ticks before the next boundary, so the
//! newest checkpoint stays the target until that boundary replaces it,
//! and a rank keeps no other.

/// Hard cap on rollbacks in one run; exceeding it panics, because a run
/// that cannot outrun its fault rate will never terminate.
pub const MAX_ROLLBACKS: u32 = 64;

/// Rollback-recovery controls for one [`crate::RunOptions`].
///
/// When set, the engine keeps one in-memory
/// [`RankCheckpoint`](crate::RankCheckpoint) of its newest cadence
/// boundary (the starting tick is always one, so a rollback target exists
/// from the first audit onward) and answers any unrecoverable delivery
/// gap with a collective rollback + replay to it instead of a panic.
/// With crash survival armed the same image is the wind-down's resume
/// point and the base the buddy replica's delta is diffed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Snapshot all local cores at every tick divisible by this (plus the
    /// starting tick). Smaller values bound replay cost at the price of
    /// more frequent snapshots; `0` means only the starting-tick
    /// checkpoint is taken (a rollback then replays from the start).
    pub auto_checkpoint_every: u32,
    /// Arms rank-crash survival: every rank replicates its newest
    /// checkpoint (plus its recorded trace) to its ring buddy at each
    /// checkpoint boundary, heartbeats open every tick, and a death
    /// verdict triggers degraded-mode adoption instead of aborting the
    /// run. Costs replication bandwidth on every boundary, so it is off
    /// by default.
    pub survive_crashes: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            auto_checkpoint_every: 4,
            survive_crashes: false,
        }
    }
}

impl RecoveryPolicy {
    /// This policy with crash survival forced on (every front that accepts
    /// a crash plan arms it).
    pub(crate) fn surviving_crashes(self) -> Self {
        Self {
            survive_crashes: true,
            ..self
        }
    }

    /// A policy checkpointing every `n` ticks.
    pub fn every(n: u32) -> Self {
        Self {
            auto_checkpoint_every: n,
            ..Self::default()
        }
    }

    /// Like [`RecoveryPolicy::every`], additionally armed to survive rank
    /// crashes via buddy-replicated checkpoints.
    pub fn surviving(n: u32) -> Self {
        Self {
            auto_checkpoint_every: n,
            survive_crashes: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_are_sane() {
        let p = RecoveryPolicy::default();
        assert!(p.auto_checkpoint_every > 0);
        assert_eq!(RecoveryPolicy::every(7).auto_checkpoint_every, 7);
    }
}
