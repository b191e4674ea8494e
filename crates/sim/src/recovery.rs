//! Automatic rollback-recovery: policy knobs and the in-memory
//! checkpoint ring behind the engine's self-healing loop.
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

use crate::checkpoint::RankCheckpoint;
use std::collections::VecDeque;

/// Hard cap on rollbacks in one run; exceeding it panics, because a run
/// that cannot outrun its fault rate will never terminate.
pub const MAX_ROLLBACKS: u32 = 64;

/// Rollback-recovery controls for one [`crate::RunOptions`].
///
/// When set, the engine keeps an in-memory ring of recent
/// [`RankCheckpoint`]s (one is always taken at the starting tick, so a
/// rollback target exists from the first audit onward) and answers any
/// unrecoverable delivery gap with a collective rollback + replay instead
/// of a panic.
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

/// A bounded ring of the last `depth` in-memory checkpoints of one rank.
///
/// Rollback always targets the newest entry; older entries exist so the
/// ring survives the newest being superseded mid-replay (a new checkpoint
/// taken during replay advances the rollback floor, guaranteeing forward
/// progress across repeated rollbacks).
#[derive(Debug, Default)]
pub(crate) struct CheckpointRing {
    depth: usize,
    ring: VecDeque<RankCheckpoint>,
}

impl CheckpointRing {
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth >= 1, "a rollback target must fit");
        Self {
            depth,
            ring: VecDeque::with_capacity(depth),
        }
    }

    /// Adds `ck` as the newest checkpoint, evicting the oldest when full.
    pub(crate) fn push(&mut self, ck: RankCheckpoint) {
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(ck);
    }

    /// The newest checkpoint — the rollback target.
    pub(crate) fn newest(&self) -> Option<&RankCheckpoint> {
        self.ring.back()
    }

    /// Tick of the newest checkpoint, if any.
    pub(crate) fn newest_tick(&self) -> Option<u32> {
        self.ring.back().map(|ck| ck.start_tick())
    }

    /// Bytes the ring currently pins in memory — checkpoint staging the
    /// engine charges to [`crate::RankReport::staging_bytes`].
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.ring.iter().map(RankCheckpoint::total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(tick: u32) -> RankCheckpoint {
        RankCheckpoint::new(0, tick, Vec::new(), Vec::new())
    }

    #[test]
    fn ring_keeps_the_newest_depth_entries() {
        let mut ring = CheckpointRing::new(2);
        assert!(ring.newest().is_none());
        ring.push(ck(0));
        ring.push(ck(4));
        ring.push(ck(8));
        assert_eq!(ring.newest_tick(), Some(8));
        assert_eq!(ring.ring.len(), 2);
        assert_eq!(ring.ring[0].start_tick(), 4, "oldest evicted");
    }

    #[test]
    fn resident_bytes_track_ring_contents() {
        let mut ring = CheckpointRing::new(2);
        assert_eq!(ring.resident_bytes(), 0);
        ring.push(ck(0));
        let one = ring.resident_bytes();
        assert!(one > 0, "even an empty-rank checkpoint has a header");
        ring.push(ck(4));
        ring.push(ck(8));
        assert_eq!(ring.resident_bytes(), 2 * one, "bounded by depth");
    }

    #[test]
    fn policy_defaults_are_sane() {
        let p = RecoveryPolicy::default();
        assert!(p.auto_checkpoint_every > 0);
        assert_eq!(RecoveryPolicy::every(7).auto_checkpoint_every, 7);
    }

    #[test]
    #[should_panic(expected = "rollback target")]
    fn zero_depth_ring_is_rejected() {
        let _ = CheckpointRing::new(0);
    }
}
