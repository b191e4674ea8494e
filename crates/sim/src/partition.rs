//! Core-to-process mapping.
//!
//! Compass "partitions the TrueNorth cores in a model across several
//! processes" and resolves spike destinations through an *implicit
//! TrueNorth core to process map* built at startup (paper §III). Core ids
//! are dense (`0..total`), and each rank owns one contiguous block — the
//! Parallel Compass Compiler emits core ids ordered by owning rank so that
//! functional regions land on as few processes as necessary.

use compass_comm::Rank;
use tn_core::CoreId;

/// A contiguous block partition of dense core ids over `P` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `starts[r]..starts[r+1]` is rank `r`'s block; `starts.len() == P+1`.
    starts: Vec<CoreId>,
}

impl Partition {
    /// Splits `total` cores over `ranks` ranks as evenly as possible (the
    /// first `total % ranks` ranks get one extra core).
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn uniform(total: u64, ranks: usize) -> Self {
        assert!(ranks > 0, "cannot partition over zero ranks");
        let base = total / ranks as u64;
        let extra = total % ranks as u64;
        let mut starts = Vec::with_capacity(ranks + 1);
        let mut at = 0;
        for r in 0..ranks as u64 {
            starts.push(at);
            at += base + u64::from(r < extra);
        }
        starts.push(at);
        debug_assert_eq!(at, total);
        Self { starts }
    }

    /// Builds a partition from an explicit per-rank core count (the PCC
    /// path, where region placement decides the counts).
    ///
    /// # Panics
    /// Panics if `counts` is empty.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "need at least one rank");
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut at = 0u64;
        starts.push(0);
        for &c in counts {
            at += c;
            starts.push(at);
        }
        Self { starts }
    }

    /// Splits cores over `parts` contiguous blocks balancing *measured*
    /// per-core cost instead of raw counts — the elastic rebalancer's
    /// layout step. Boundary `p` is placed where the cost prefix first
    /// reaches `p/parts` of the total, so each block's summed cost tracks
    /// the ideal share; when there are at least `parts` cores every block
    /// is non-empty (operators scaling out expect every rank to host
    /// work, and an empty block would leave the newcomer idle).
    ///
    /// Deterministic: a pure function of `costs`, so every rank that
    /// exchanges the same cost vector computes the identical layout.
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    pub fn by_cost(costs: &[u64], parts: usize) -> Self {
        assert!(parts > 0, "cannot partition over zero ranks");
        let n = costs.len() as u64;
        let total: u128 = costs.iter().map(|&c| u128::from(c)).sum();
        let mut starts = Vec::with_capacity(parts + 1);
        starts.push(0u64);
        let mut core = 0u64;
        let mut acc: u128 = 0;
        for p in 1..parts {
            let target = total * p as u128 / parts as u128;
            // Each earlier block keeps >= 1 core and each later block is
            // left >= 1 core, whenever the model is big enough.
            let prev = *starts.last().expect("starts never empty");
            let floor = if n >= parts as u64 { prev + 1 } else { prev };
            let ceiling = if n >= parts as u64 {
                n - (parts - p) as u64
            } else {
                n
            };
            while core < ceiling && (acc < target || core < floor) {
                acc += u128::from(costs[core as usize]);
                core += 1;
            }
            starts.push(core);
        }
        starts.push(n);
        Self { starts }
    }

    /// The `world`-sized partition hosting `total` cores on `members` only
    /// — the elastic layout: member blocks split by `costs` (measured
    /// per-core tick cost; `None` means uniform), every non-member block
    /// empty — the shape [`SurvivorView::remap`] expects.
    pub(crate) fn among(total: u64, world: usize, members: &[Rank], costs: Option<&[u64]>) -> Self {
        let blocks = match costs {
            Some(c) => Self::by_cost(c, members.len()),
            None => Self::uniform(total, members.len()),
        };
        let mut counts = vec![0u64; world];
        for (i, &m) in members.iter().enumerate() {
            counts[m] = blocks.count(i);
        }
        Self::from_counts(&counts)
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total cores in the model.
    pub fn total_cores(&self) -> u64 {
        *self.starts.last().expect("starts never empty")
    }

    /// The rank owning `core`.
    ///
    /// # Panics
    /// Panics if `core` is outside the model.
    #[inline]
    pub fn rank_of(&self, core: CoreId) -> Rank {
        assert!(
            core < self.total_cores(),
            "core {core} outside model of {} cores",
            self.total_cores()
        );
        // partition_point returns the first index with start > core; the
        // owner is one before it. Rank blocks may be empty, so this cannot
        // be a plain division even for uniform partitions.
        self.starts.partition_point(|&s| s <= core) - 1
    }

    /// Rank `r`'s block as a half-open core-id range.
    pub fn block(&self, rank: Rank) -> std::ops::Range<CoreId> {
        self.starts[rank]..self.starts[rank + 1]
    }

    /// Number of cores owned by `rank`.
    pub fn count(&self, rank: Rank) -> u64 {
        self.starts[rank + 1] - self.starts[rank]
    }

    /// Converts a global core id to `rank`'s local index.
    ///
    /// # Panics
    /// Panics in debug builds if `core` is not owned by `rank`.
    #[inline]
    pub fn local_index(&self, rank: Rank, core: CoreId) -> usize {
        debug_assert!(
            self.block(rank).contains(&core),
            "core {core} not owned by rank {rank}"
        );
        (core - self.starts[rank]) as usize
    }
}

/// A [`Partition`] as seen by the survivors of rank crashes: every
/// original block still has exactly one owner, but dead ranks' blocks have
/// been adopted by their buddies.
///
/// The view keeps the *original* rank-indexed geometry (so spike routing
/// tables, aggregation buffers, and metrics vectors stay sized for the
/// original world) and layers an ownership indirection on top: survivor
/// `m` hosts the cores of every original rank `r` with `owner[r] == m`,
/// concatenated in ascending original-rank order. `local_index` stays O(1)
/// via a precomputed per-original-rank offset into that concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorView {
    base: Partition,
    /// `owner[r]`: the surviving rank hosting original rank `r`'s block.
    owner: Vec<Rank>,
    /// Surviving ranks, ascending.
    members: Vec<Rank>,
    /// `offset[r]`: local-index offset of original rank `r`'s block within
    /// its owner's merged core list.
    offset: Vec<u64>,
}

impl SurvivorView {
    /// The fault-free view: every rank owns exactly its own block.
    pub fn identity(base: Partition) -> Self {
        let ranks = base.ranks();
        Self {
            base,
            owner: (0..ranks).collect(),
            members: (0..ranks).collect(),
            offset: vec![0; ranks],
        }
    }

    /// The view after `dead` crashes: its block (and any blocks it had
    /// already adopted) passes to the next surviving rank in ring order.
    ///
    /// # Panics
    /// Panics if `dead` is not a current member or is the last one.
    pub fn without(&self, dead: Rank) -> Self {
        assert!(
            self.members.contains(&dead),
            "rank {dead} is not a live member"
        );
        assert!(self.members.len() > 1, "cannot remove the last survivor");
        let ranks = self.base.ranks();
        // Buddy: the next surviving rank after `dead` in ring order.
        let buddy = (1..ranks)
            .map(|d| (dead + d) % ranks)
            .find(|r| self.members.contains(r) && *r != dead)
            .expect("another member exists");
        let owner: Vec<Rank> = self
            .owner
            .iter()
            .map(|&o| if o == dead { buddy } else { o })
            .collect();
        let members: Vec<Rank> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != dead)
            .collect();
        // Rebuild offsets: each survivor's merged list concatenates its
        // owned original blocks in ascending original-rank order.
        let mut offset = vec![0u64; ranks];
        for &m in &members {
            let mut at = 0;
            for r in 0..ranks {
                if owner[r] == m {
                    offset[r] = at;
                    at += self.base.count(r);
                }
            }
        }
        Self {
            base: self.base.clone(),
            owner,
            members,
            offset,
        }
    }

    /// The view for an elastic segment: `base` is a fresh world-granular
    /// layout (one block per *world* rank, empty blocks for ranks outside
    /// `members`) and every member owns exactly its own block. Standby,
    /// departed, and dead ranks keep their slots in the rank-indexed
    /// geometry — routing tables and metrics vectors stay sized for the
    /// full world — but host no cores, so no spike ever routes to them.
    ///
    /// Crash adoption composes on top: [`SurvivorView::without`] and
    /// [`SurvivorView::buddy_of`] walk the *world* ring filtered through
    /// the member set, so a remapped view degrades exactly like the
    /// identity view does.
    ///
    /// # Panics
    /// Panics if `members` is empty, unsorted, duplicated, or out of
    /// range, or if a non-member rank owns a non-empty block of `base`.
    pub fn remap(base: Partition, members: Vec<Rank>) -> Self {
        let ranks = base.ranks();
        assert!(!members.is_empty(), "an elastic segment needs a member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be ascending and unique"
        );
        assert!(*members.last().expect("non-empty") < ranks);
        for r in 0..ranks {
            assert!(
                members.contains(&r) || base.count(r) == 0,
                "non-member rank {r} owns cores"
            );
        }
        Self {
            base,
            owner: (0..ranks).collect(),
            members,
            offset: vec![0; ranks],
        }
    }

    /// The underlying (original) partition.
    pub fn base(&self) -> &Partition {
        &self.base
    }

    /// Original world size — routing tables stay indexed by this.
    pub fn ranks(&self) -> usize {
        self.base.ranks()
    }

    /// Surviving ranks, ascending.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// True when no rank has died: every method degenerates to the plain
    /// [`Partition`] behavior and the engine takes the fault-free paths.
    pub fn is_identity(&self) -> bool {
        self.members.len() == self.base.ranks()
    }

    /// The surviving rank that hosts `core` now.
    #[inline]
    pub fn rank_of(&self, core: CoreId) -> Rank {
        self.owner[self.base.rank_of(core)]
    }

    /// Does survivor `me` currently host `core`?
    #[inline]
    pub fn owns(&self, me: Rank, core: CoreId) -> bool {
        core < self.base.total_cores() && self.rank_of(core) == me
    }

    /// Total cores survivor `me` hosts (its own block plus adoptions).
    pub fn count(&self, me: Rank) -> u64 {
        (0..self.base.ranks())
            .filter(|&r| self.owner[r] == me)
            .map(|r| self.base.count(r))
            .sum()
    }

    /// The original-rank blocks survivor `me` hosts, in the ascending
    /// original-rank order its merged core list concatenates them in.
    pub fn blocks_of(&self, me: Rank) -> Vec<std::ops::Range<CoreId>> {
        (0..self.base.ranks())
            .filter(|&r| self.owner[r] == me)
            .map(|r| self.base.block(r))
            .filter(|b| !b.is_empty())
            .collect()
    }

    /// Converts a global core id to survivor `me`'s local index in its
    /// merged core list.
    ///
    /// # Panics
    /// Panics in debug builds if `me` does not host `core`.
    #[inline]
    pub fn local_index(&self, me: Rank, core: CoreId) -> usize {
        let r = self.base.rank_of(core);
        debug_assert_eq!(self.owner[r], me, "core {core} not hosted by rank {me}");
        (self.offset[r] + (core - self.base.block(r).start)) as usize
    }

    /// The global id of survivor `me`'s local core `idx` — the inverse of
    /// [`Self::local_index`]: a walk over the original blocks `me` hosts.
    ///
    /// # Panics
    /// Panics if `me` hosts fewer than `idx + 1` cores.
    pub(crate) fn core_at(&self, me: Rank, idx: usize) -> CoreId {
        let idx = idx as u64;
        (0..self.base.ranks())
            .filter(|&r| self.owner[r] == me)
            .find(|&r| (self.offset[r]..self.offset[r] + self.base.count(r)).contains(&idx))
            .map(|r| self.base.block(r).start + idx - self.offset[r])
            .unwrap_or_else(|| panic!("rank {me} hosts no local core {idx}"))
    }

    /// The rank that adopts `r`'s cores if `r` dies now: the next
    /// surviving member in ring order. Returns `r` itself when it is the
    /// only member (no buddy exists — replication is pointless).
    pub fn buddy_of(&self, r: Rank) -> Rank {
        let ranks = self.base.ranks();
        (1..ranks)
            .map(|d| (r + d) % ranks)
            .find(|b| self.members.contains(b))
            .unwrap_or(r)
    }
}

/// Ascending intersections of two ascending block lists — the contiguous
/// core runs one old owner must ship to one new owner at an elastic
/// boundary. Each run falls inside exactly one block of either side, so its
/// snapshot bytes are contiguous in both hosts' flat checkpoint blobs.
pub(crate) fn intersect_blocks(
    a: &[std::ops::Range<CoreId>],
    b: &[std::ops::Range<CoreId>],
) -> Vec<std::ops::Range<CoreId>> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b {
            let start = ra.start.max(rb.start);
            let end = ra.end.min(rb.end);
            if start < end {
                out.push(start..end);
            }
        }
    }
    out.sort_by_key(|r| r.start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_evenly() {
        let p = Partition::uniform(10, 3);
        assert_eq!(p.block(0), 0..4);
        assert_eq!(p.block(1), 4..7);
        assert_eq!(p.block(2), 7..10);
        assert_eq!(p.total_cores(), 10);
        assert_eq!(p.ranks(), 3);
    }

    #[test]
    fn rank_of_matches_blocks() {
        let p = Partition::uniform(100, 7);
        for core in 0..100 {
            let r = p.rank_of(core);
            assert!(p.block(r).contains(&core));
        }
    }

    #[test]
    fn from_counts_respects_explicit_sizes() {
        let p = Partition::from_counts(&[5, 0, 3]);
        assert_eq!(p.count(0), 5);
        assert_eq!(p.count(1), 0);
        assert_eq!(p.count(2), 3);
        assert_eq!(p.rank_of(4), 0);
        assert_eq!(p.rank_of(5), 2, "empty middle rank is skipped");
        assert_eq!(p.total_cores(), 8);
    }

    #[test]
    fn from_counts_with_leading_and_trailing_zero_ranks() {
        // A PCC placement can leave edge ranks empty (e.g. a model smaller
        // than the machine). Ownership must skip the empty edges cleanly.
        let p = Partition::from_counts(&[0, 4, 0]);
        assert_eq!(p.ranks(), 3);
        assert_eq!(p.total_cores(), 4);
        assert_eq!(p.count(0), 0);
        assert_eq!(p.count(2), 0);
        assert_eq!(p.block(0), 0..0);
        assert_eq!(p.block(1), 0..4);
        assert_eq!(p.block(2), 4..4);
        for core in 0..4 {
            assert_eq!(p.rank_of(core), 1, "empty rank 0 owns nothing");
            assert_eq!(p.local_index(1, core), core as usize);
        }
    }

    #[test]
    fn from_counts_all_zero_ranks_is_an_empty_model() {
        let p = Partition::from_counts(&[0, 0, 0]);
        assert_eq!(p.total_cores(), 0);
        assert_eq!(p.ranks(), 3);
        for r in 0..3 {
            assert_eq!(p.count(r), 0);
            assert_eq!(p.block(r), 0..0);
        }
    }

    #[test]
    fn from_counts_run_of_empty_ranks_resolves_to_next_owner() {
        let p = Partition::from_counts(&[2, 0, 0, 0, 1]);
        assert_eq!(p.rank_of(0), 0);
        assert_eq!(p.rank_of(1), 0);
        assert_eq!(p.rank_of(2), 4, "three empty ranks are all skipped");
        assert_eq!(p.local_index(4, 2), 0);
    }

    #[test]
    fn local_index_is_block_offset() {
        let p = Partition::from_counts(&[4, 6]);
        assert_eq!(p.local_index(0, 3), 3);
        assert_eq!(p.local_index(1, 4), 0);
        assert_eq!(p.local_index(1, 9), 5);
    }

    #[test]
    fn empty_model_is_representable() {
        let p = Partition::uniform(0, 4);
        assert_eq!(p.total_cores(), 0);
        for r in 0..4 {
            assert_eq!(p.count(r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "outside model")]
    fn rank_of_out_of_range_panics() {
        Partition::uniform(10, 2).rank_of(10);
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = Partition::uniform(1000, 1);
        assert_eq!(p.block(0), 0..1000);
        assert_eq!(p.rank_of(999), 0);
    }
}

#[cfg(test)]
mod survivor_tests {
    use super::*;

    /// Every core maps to exactly one live member and each survivor's
    /// local indices tile `0..count` exactly once.
    fn check_totality(view: &SurvivorView) {
        let total = view.base().total_cores();
        let mut counted = 0u64;
        for &m in view.members() {
            let n = view.count(m);
            let mut seen = vec![false; n as usize];
            for core in 0..total {
                if view.owns(m, core) {
                    let li = view.local_index(m, core);
                    assert!(!seen[li], "core {core} double-indexed on rank {m}");
                    seen[li] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "holes in rank {m}'s local index");
            counted += n;
        }
        for core in 0..total {
            let r = view.rank_of(core);
            assert!(
                view.members().contains(&r),
                "core {core} owned by a dead rank"
            );
            assert_eq!(
                view.members()
                    .iter()
                    .filter(|&&m| view.owns(m, core))
                    .count(),
                1,
                "core {core} must have exactly one owner"
            );
        }
        assert_eq!(counted, total, "survivor counts must cover the model");
    }

    #[test]
    fn identity_matches_the_plain_partition() {
        let p = Partition::uniform(10, 3);
        let v = SurvivorView::identity(p.clone());
        assert!(v.is_identity());
        assert_eq!(v.members(), &[0, 1, 2]);
        for core in 0..10 {
            assert_eq!(v.rank_of(core), p.rank_of(core));
            let r = p.rank_of(core);
            assert_eq!(v.local_index(r, core), p.local_index(r, core));
        }
        assert_eq!(v.blocks_of(1), vec![p.block(1)]);
        check_totality(&v);
    }

    #[test]
    fn removal_keeps_ownership_total_and_unique() {
        for ranks in 2..=5 {
            for total in [0u64, 1, 7, 24] {
                let p = Partition::uniform(total, ranks);
                for dead in 0..ranks {
                    let v = SurvivorView::identity(p.clone()).without(dead);
                    assert!(!v.is_identity());
                    assert_eq!(v.members().len(), ranks - 1);
                    assert!(!v.members().contains(&dead));
                    check_totality(&v);
                }
            }
        }
    }

    #[test]
    fn the_ring_buddy_adopts_the_dead_block() {
        let p = Partition::uniform(12, 4);
        let v = SurvivorView::identity(p.clone()).without(1);
        // Rank 2 hosts its own block after rank 1's, in ascending order.
        assert_eq!(v.blocks_of(2), vec![p.block(1), p.block(2)]);
        assert_eq!(v.count(2), p.count(1) + p.count(2));
        for core in p.block(1) {
            assert_eq!(v.rank_of(core), 2);
            assert_eq!(v.local_index(2, core), (core - p.block(1).start) as usize);
        }
        for core in p.block(2) {
            let expect = p.count(1) + (core - p.block(2).start);
            assert_eq!(v.local_index(2, core), expect as usize);
        }
        // The last rank's buddy wraps around the ring.
        let v = SurvivorView::identity(p.clone()).without(3);
        assert_eq!(v.rank_of(p.block(3).start), 0);
        assert_eq!(v.blocks_of(0), vec![p.block(0), p.block(3)]);
        check_totality(&v);
    }

    #[test]
    fn zero_count_survivors_are_legal() {
        // A PCC placement can leave survivor ranks empty; removal must
        // neither crash on them nor route anything to them incorrectly.
        let p = Partition::from_counts(&[4, 0, 3]);
        for dead in 0..3 {
            let v = SurvivorView::identity(p.clone()).without(dead);
            check_totality(&v);
        }
        // The empty rank 1 dies: nothing actually moves.
        let v = SurvivorView::identity(p.clone()).without(1);
        assert_eq!(v.count(0), 4);
        assert_eq!(v.count(2), 3);
        // The empty rank 1 inherits rank 0's cores when rank 0 dies.
        let v = SurvivorView::identity(p).without(0);
        assert_eq!(v.count(1), 4);
        assert_eq!(v.count(2), 3);
    }

    #[test]
    fn two_rank_world_leaves_a_sole_survivor() {
        let p = Partition::uniform(9, 2);
        let v = SurvivorView::identity(p.clone()).without(1);
        assert_eq!(v.members(), &[0]);
        assert_eq!(v.count(0), 9);
        assert_eq!(v.blocks_of(0), vec![p.block(0), p.block(1)]);
        check_totality(&v);
        assert_eq!(v.buddy_of(0), 0, "a sole survivor has no buddy");
    }

    #[test]
    fn buddy_of_skips_dead_ranks_in_ring_order() {
        let p = Partition::uniform(8, 4);
        let v = SurvivorView::identity(p);
        assert_eq!(v.buddy_of(3), 0, "wraps");
        assert_eq!(v.buddy_of(0), 1);
        let v = v.without(1);
        assert_eq!(v.buddy_of(0), 2, "dead rank 1 is skipped");
    }

    #[test]
    #[should_panic(expected = "not a live member")]
    fn removing_a_dead_rank_twice_is_rejected() {
        let v = SurvivorView::identity(Partition::uniform(8, 3)).without(1);
        let _ = v.without(1);
    }

    #[test]
    #[should_panic(expected = "last survivor")]
    fn removing_the_last_survivor_is_rejected() {
        let v = SurvivorView::identity(Partition::uniform(4, 2)).without(0);
        let _ = v.without(1);
    }

    #[test]
    fn remap_hosts_members_only_and_composes_with_crashes() {
        // World of 4 ranks, but only {0, 2, 3} are active this segment:
        // rank 1 is a standby with an empty block.
        let p = Partition::from_counts(&[4, 0, 3, 2]);
        let v = SurvivorView::remap(p.clone(), vec![0, 2, 3]);
        assert!(
            !v.is_identity(),
            "a standby keeps the view collective-scoped"
        );
        assert_eq!(v.members(), &[0, 2, 3]);
        assert_eq!(v.ranks(), 4, "geometry stays world-granular");
        assert_eq!(v.count(0), 4);
        assert_eq!(v.count(2), 3);
        check_totality(&v);
        // Buddy ring skips the standby exactly like it skips the dead.
        assert_eq!(v.buddy_of(0), 2);
        assert_eq!(v.buddy_of(3), 0, "wraps past the standby");
        // A crash mid-segment degrades the remapped view like any other.
        let crashed = v.without(2);
        assert_eq!(crashed.members(), &[0, 3]);
        assert_eq!(crashed.count(3), 3 + 2, "buddy 3 adopts rank 2's block");
        check_totality(&crashed);
    }

    #[test]
    fn remap_of_the_full_world_is_the_identity() {
        let p = Partition::from_counts(&[3, 3, 4]);
        let v = SurvivorView::remap(p.clone(), vec![0, 1, 2]);
        assert!(v.is_identity());
        assert_eq!(v, SurvivorView::identity(p));
    }

    #[test]
    #[should_panic(expected = "non-member rank 1 owns cores")]
    fn remap_rejects_cores_on_a_non_member() {
        let p = Partition::from_counts(&[4, 1, 3]);
        let _ = SurvivorView::remap(p, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn remap_rejects_unsorted_members() {
        let p = Partition::from_counts(&[4, 0, 3]);
        let _ = SurvivorView::remap(p, vec![2, 0]);
    }
}

#[cfg(test)]
mod by_cost_tests {
    use super::*;

    #[test]
    fn uniform_costs_reduce_to_uniform_partition() {
        let costs = vec![10u64; 12];
        let p = Partition::by_cost(&costs, 3);
        assert_eq!(p, Partition::uniform(12, 3));
    }

    #[test]
    fn skewed_costs_shift_the_boundaries() {
        // One hot core at the front: it fills rank 0's share alone, and
        // the remaining cheap cores split between the other two ranks.
        let mut costs = vec![1u64; 9];
        costs[0] = 1000;
        let p = Partition::by_cost(&costs, 3);
        assert_eq!(p.count(0), 1, "the hot core is a block of its own");
        assert_eq!(p.total_cores(), 9);
        assert!(p.count(1) >= 1 && p.count(2) >= 1);
    }

    #[test]
    fn every_block_is_non_empty_when_cores_suffice() {
        // Zero-cost tails and fronts must not starve any rank.
        for costs in [
            vec![0u64; 7],
            vec![5, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 5],
            vec![100, 100, 1, 1, 1, 1, 1],
        ] {
            for parts in 1..=7 {
                let p = Partition::by_cost(&costs, parts);
                assert_eq!(p.total_cores(), costs.len() as u64);
                for r in 0..parts {
                    assert!(p.count(r) >= 1, "rank {r} starved for {costs:?}/{parts}");
                }
            }
        }
    }

    #[test]
    fn more_parts_than_cores_leaves_trailing_ranks_empty() {
        let p = Partition::by_cost(&[1, 1], 4);
        assert_eq!(p.ranks(), 4);
        assert_eq!(p.total_cores(), 2);
        assert_eq!(
            (0..4).filter(|&r| p.count(r) > 0).count(),
            2,
            "each core lands somewhere"
        );
    }

    #[test]
    fn cost_balance_tracks_the_ideal_share() {
        // Pseudo-random-ish but deterministic cost vector.
        let costs: Vec<u64> = (0..64u64).map(|i| (i * 37 + 11) % 97 + 1).collect();
        let total: u64 = costs.iter().sum();
        let parts = 4;
        let p = Partition::by_cost(&costs, parts);
        let max_cost = (0..parts)
            .map(|r| p.block(r).map(|c| costs[c as usize]).sum::<u64>())
            .max()
            .unwrap();
        let ideal = total / parts as u64;
        let hottest = *costs.iter().max().unwrap();
        assert!(
            max_cost <= ideal + hottest,
            "greedy split is off by at most one core's cost: {max_cost} vs {ideal}+{hottest}"
        );
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_parts_is_rejected() {
        let _ = Partition::by_cost(&[1], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every core is owned by exactly one rank and blocks tile the id
        /// space in order.
        #[test]
        fn blocks_tile_id_space(total in 0u64..500, ranks in 1usize..10) {
            let p = Partition::uniform(total, ranks);
            let mut at = 0;
            for r in 0..ranks {
                let b = p.block(r);
                prop_assert_eq!(b.start, at);
                at = b.end;
            }
            prop_assert_eq!(at, total);
            for core in 0..total {
                let r = p.rank_of(core);
                prop_assert!(p.block(r).contains(&core));
                prop_assert_eq!(p.local_index(r, core) as u64, core - p.block(r).start);
            }
        }

        /// from_counts round-trips the counts.
        #[test]
        fn counts_roundtrip(counts in proptest::collection::vec(0u64..50, 1..10)) {
            let p = Partition::from_counts(&counts);
            for (r, &c) in counts.iter().enumerate() {
                prop_assert_eq!(p.count(r), c);
            }
            prop_assert_eq!(p.total_cores(), counts.iter().sum::<u64>());
        }
    }
}
