//! PGAS one-sided communication — the UPC/GASNet stand-in.
//!
//! §VII of the paper re-implements Compass's messaging on the Partitioned
//! Global Address Space model: each process owns globally addressable spike
//! buffers; senders *put* spikes directly into the destination's buffer with
//! one-sided operations; a single low-latency global barrier separates the
//! write phase from the read phase. This removes (a) the send-side
//! aggregation copy, (b) receive-side tag matching, and (c) the
//! `MPI_Reduce_scatter` — and bought a 2.1× real-time speedup on Blue
//! Gene/P.
//!
//! [`PgasWorld`] reproduces that structure. For every ordered rank pair
//! `(src, dst)` there are **two** windows, indexed by epoch parity. During
//! epoch `e` a source appends into the parity-`e` window; after the epoch's
//! global barrier the destination drains that window while new puts (epoch
//! `e + 1`) land in the other parity. The epoch/phase discipline is enforced
//! per rank by [`PgasEndpoint`]'s state machine:
//!
//! ```text
//!   put*(e) → commit(e) [barrier] → drain(e) → put*(e+1) → …
//! ```
//!
//! # Safety argument for the interior mutability
//!
//! Window `(src, dst, parity p)` is written only by `src` during epochs of
//! parity `p` and drained only by `dst` after that epoch's barrier. A write
//! to parity `p` can next happen in epoch `e + 2`, which `src` reaches only
//! after passing the epoch `e + 1` barrier — and `dst` enters that barrier
//! only after finishing its epoch-`e` drain. The barrier's happens-before
//! edges therefore totally order every access to each window.

use crate::barrier::{CentralizedBarrier, GlobalBarrier};
use crate::fault::FaultInjector;
use crate::metrics::TransportMetrics;
use crate::reliable::ReliableWorld;
use crate::sync::Mutex;
use crate::Rank;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// A one-sided put target: an append-only byte buffer for one (src, dst,
/// parity) triple.
#[derive(Debug, Default)]
struct Window {
    buf: UnsafeCell<Vec<u8>>,
}

// SAFETY: access is serialized by the epoch protocol documented at module
// level; the barrier provides the necessary happens-before edges.
unsafe impl Sync for Window {}

/// Shared PGAS state for a world of `P` ranks.
#[derive(Debug)]
pub struct PgasWorld {
    ranks: usize,
    /// `windows[parity][dst * ranks + src]`.
    windows: [Vec<Window>; 2],
    barrier: CentralizedBarrier,
    metrics: Arc<TransportMetrics>,
    faults: Option<Arc<FaultInjector>>,
    rely: Option<Arc<ReliableWorld>>,
    /// Ranks that have left the commit barrier for good (crash recovery).
    detached: Mutex<Vec<bool>>,
}

impl PgasWorld {
    /// Creates windows for `ranks` ranks reporting into `metrics`.
    pub fn new(ranks: usize, metrics: Arc<TransportMetrics>) -> Self {
        Self::with_faults(ranks, metrics, None)
    }

    /// Like [`PgasWorld::new`] with an optional fault injector applied to
    /// every [`PgasEndpoint::put`] (see [`crate::fault`]).
    pub fn with_faults(
        ranks: usize,
        metrics: Arc<TransportMetrics>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        Self::with_reliability(ranks, metrics, faults, None)
    }

    /// Like [`PgasWorld::with_faults`] with an optional reliable-delivery
    /// layer: puts are framed ([`ReliableWorld::frame`]) before the fault
    /// injector sees them, so faults strike framed bytes.
    pub fn with_reliability(
        ranks: usize,
        metrics: Arc<TransportMetrics>,
        faults: Option<Arc<FaultInjector>>,
        rely: Option<Arc<ReliableWorld>>,
    ) -> Self {
        let make = || (0..ranks * ranks).map(|_| Window::default()).collect();
        Self {
            ranks,
            windows: [make(), make()],
            barrier: CentralizedBarrier::new(ranks),
            metrics,
            faults,
            rely,
            detached: Mutex::new(vec![false; ranks]),
        }
    }

    /// Permanently removes a dead rank from the epoch commit barrier so
    /// the survivors' `commit()` episodes stop waiting for it. Idempotent
    /// and safe to call from every survivor: only the first call actually
    /// shrinks the barrier. The dead rank's windows are left in place —
    /// drains of a dead source yield whatever it committed before dying,
    /// and nothing after.
    pub fn detach(&self, dead: Rank) {
        let mut detached = self.detached.lock();
        if !detached[dead] {
            detached[dead] = true;
            self.barrier.leave();
        }
    }

    /// The inverse of [`PgasWorld::detach`]: re-adds a detached rank to
    /// the epoch commit barrier and clears its windows in both directions
    /// — the transport half of elastic admission. Idempotent: only the
    /// actual detached → attached transition grows the barrier.
    ///
    /// The caller must guarantee no commit episode is in flight (the
    /// admission protocol orders the attach after every incumbent's last
    /// commit of the old epoch and before any incumbent's next one);
    /// under that quiescence the window wipe cannot race a put or drain.
    pub fn attach(&self, rank: Rank) {
        let mut detached = self.detached.lock();
        if detached[rank] {
            detached[rank] = false;
            self.barrier.join();
            for parity in 0..2 {
                for other in 0..self.ranks {
                    for (src, dst) in [(rank, other), (other, rank)] {
                        let w = self.window(parity, src, dst);
                        // SAFETY: admission-time quiescence (doc above) —
                        // no rank is putting or draining while the joiner
                        // attaches, so no window access can race this.
                        unsafe { (*w.buf.get()).clear() };
                    }
                }
            }
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The reliable-delivery layer, when one is installed.
    pub fn reliability(&self) -> Option<&Arc<ReliableWorld>> {
        self.rely.as_ref()
    }

    fn window(&self, parity: usize, src: Rank, dst: Rank) -> &Window {
        &self.windows[parity][dst * self.ranks + src]
    }

    /// Creates rank `me`'s endpoint. Each rank must create exactly one and
    /// drive it through the put/commit/drain cycle in lock-step with the
    /// other ranks.
    pub fn endpoint(self: &Arc<Self>, me: Rank) -> PgasEndpoint {
        assert!(me < self.ranks, "rank out of range");
        PgasEndpoint {
            world: Arc::clone(self),
            me,
            epoch: AtomicU64::new(0),
            phase: AtomicU8::new(PHASE_WRITING),
        }
    }
}

const PHASE_WRITING: u8 = 0;
const PHASE_DRAINING: u8 = 1;

/// Per-rank handle enforcing the put → commit → drain epoch protocol.
///
/// In the paper's PGAS configuration each UPC instance is single-threaded
/// ("four UPC instances, each having one thread, per node"); the endpoint is
/// `Sync` only so it can be captured by reference inside team regions, but
/// the protocol methods must stay funneled through one thread per rank.
pub struct PgasEndpoint {
    world: Arc<PgasWorld>,
    me: Rank,
    epoch: AtomicU64,
    phase: AtomicU8,
}

impl PgasEndpoint {
    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// Current epoch number (starts at 0, bumps on each `drain`).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Removes a dead rank from the epoch commit barrier — see
    /// [`PgasWorld::detach`]. Survivors call this at a death verdict.
    pub fn detach(&self, dead: Rank) {
        self.world.detach(dead);
    }

    /// Re-adds a detached rank to the commit barrier — see
    /// [`PgasWorld::attach`]. The joiner calls this on itself once the
    /// admission protocol has quiesced every incumbent.
    pub fn attach(&self, rank: Rank) {
        self.world.attach(rank);
    }

    /// Forces this endpoint's epoch counter (and the write phase) — how
    /// an admitted rank aligns its window parity with the incumbents'
    /// before its first put. The epoch value travels in the admission
    /// WELCOME message; only the parity matters for window selection, but
    /// carrying the full counter keeps `epoch()` meaningful everywhere.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.phase.store(PHASE_WRITING, Ordering::Relaxed);
    }

    /// One-sided put: appends `bytes` into `dst`'s window for the current
    /// epoch. Completes immediately (the BG/P torus would make the transfer
    /// asynchronous; completion is not observable before the barrier either
    /// way).
    ///
    /// # Panics
    /// Panics if called between `commit` and `drain`.
    pub fn put(&self, dst: Rank, bytes: &[u8]) {
        assert_eq!(
            self.phase.load(Ordering::Relaxed),
            PHASE_WRITING,
            "put() after commit(); drain the epoch first"
        );
        // The reliable layer (when installed) wraps the payload in a RELY
        // frame first; fault injection then acts on the framed bytes and
        // may empty, double, corrupt, or swap them for a delayed
        // predecessor on this (src, dst) pair. An empty result still
        // counts as a put but appends nothing — PGAS has no message-count
        // protocol, so a drop is a true omission.
        let owned;
        let bytes = match &self.world.rely {
            Some(r) => {
                owned = r.frame(self.me, dst, bytes.to_vec());
                owned.as_slice()
            }
            None => bytes,
        };
        let faulted;
        let bytes = match &self.world.faults {
            Some(f) => {
                faulted = f.transform(self.me, dst, bytes.to_vec());
                faulted.as_slice()
            }
            None => bytes,
        };
        self.append(dst, bytes);
        self.world.metrics.record_put(bytes.len());
    }

    /// Puts bytes that already went through framing/faulting once — the
    /// engine's end-of-run flush of payloads the `Delay` fault still
    /// holds. Counted in metrics, but neither re-framed nor re-faulted.
    ///
    /// # Panics
    /// Panics if called between `commit` and `drain`.
    pub fn put_flush(&self, dst: Rank, bytes: &[u8]) {
        assert_eq!(
            self.phase.load(Ordering::Relaxed),
            PHASE_WRITING,
            "put_flush() after commit(); drain the epoch first"
        );
        self.append(dst, bytes);
        self.world.metrics.record_put(bytes.len());
    }

    fn append(&self, dst: Rank, bytes: &[u8]) {
        let parity = (self.epoch.load(Ordering::Relaxed) & 1) as usize;
        let w = self.world.window(parity, self.me, dst);
        // SAFETY: module-level protocol — only `self.me` writes this window
        // during this epoch, and the previous same-parity drain
        // happened-before via two barriers.
        unsafe { (*w.buf.get()).extend_from_slice(bytes) };
    }

    /// Ends the epoch's write phase with the global barrier. After every
    /// rank has committed, all puts of this epoch are visible to their
    /// destinations.
    ///
    /// # Panics
    /// Panics if called twice without an intervening `drain`.
    pub fn commit(&self) {
        assert_eq!(
            self.phase.load(Ordering::Relaxed),
            PHASE_WRITING,
            "commit() called twice in one epoch"
        );
        self.world.metrics.record_barrier();
        self.world.barrier.wait();
        self.phase.store(PHASE_DRAINING, Ordering::Relaxed);
    }

    /// Drains every source's window for the committed epoch, invoking
    /// `f(src, bytes)` for each non-empty window in ascending source order,
    /// then advances to the next epoch's write phase. A drained window is
    /// emptied but keeps its buffer, so an epoch no larger than an earlier
    /// one allocates nothing.
    ///
    /// # Panics
    /// Panics if called before `commit`.
    pub fn drain(&self, mut f: impl FnMut(Rank, &[u8])) {
        assert_eq!(
            self.phase.load(Ordering::Relaxed),
            PHASE_DRAINING,
            "drain() before commit()"
        );
        let parity = (self.epoch.load(Ordering::Relaxed) & 1) as usize;
        for src in 0..self.world.ranks {
            let w = self.world.window(parity, src, self.me);
            // SAFETY: module-level protocol — the epoch barrier happened,
            // and only `self.me` drains its own incoming windows.
            let buf = unsafe { &mut *w.buf.get() };
            if !buf.is_empty() {
                f(src, buf);
                buf.clear();
            }
        }
        self.phase.store(PHASE_WRITING, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(p: usize) -> Arc<PgasWorld> {
        Arc::new(PgasWorld::new(p, Arc::new(TransportMetrics::new())))
    }

    /// Runs `f(endpoint)` on `p` rank threads.
    fn run<T: Send + 'static>(
        w: &Arc<PgasWorld>,
        f: impl Fn(PgasEndpoint) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let handles: Vec<_> = (0..w.ranks())
            .map(|r| {
                let w = Arc::clone(w);
                let f = f.clone();
                std::thread::spawn(move || f(w.endpoint(r)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn single_epoch_all_pairs() {
        let w = world(4);
        let got = run(&w, |ep| {
            for dst in 0..4 {
                ep.put(dst, &[ep.rank() as u8, dst as u8]);
            }
            ep.commit();
            let mut seen = Vec::new();
            ep.drain(|src, bytes| seen.push((src, bytes.to_vec())));
            seen
        });
        for (dst, seen) in got.iter().enumerate() {
            assert_eq!(seen.len(), 4);
            for (i, (src, bytes)) in seen.iter().enumerate() {
                assert_eq!(*src, i);
                assert_eq!(bytes, &vec![*src as u8, dst as u8]);
            }
        }
    }

    #[test]
    fn multiple_epochs_no_loss_no_duplication() {
        let w = world(3);
        let epochs = 50u64;
        let got = run(&w, move |ep| {
            let mut received: Vec<(u64, Rank, Vec<u8>)> = Vec::new();
            for e in 0..epochs {
                // Each rank sends (epoch, me) to (me + 1) % 3 only.
                let dst = (ep.rank() + 1) % 3;
                let mut msg = e.to_le_bytes().to_vec();
                msg.push(ep.rank() as u8);
                ep.put(dst, &msg);
                ep.commit();
                ep.drain(|src, bytes| received.push((e, src, bytes.to_vec())));
            }
            received
        });
        for (me, received) in got.iter().enumerate() {
            assert_eq!(received.len(), epochs as usize);
            let expect_src = (me + 2) % 3;
            for (e, src, bytes) in received {
                assert_eq!(*src, expect_src);
                let epoch = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                assert_eq!(epoch, *e, "stale or early delivery");
                assert_eq!(bytes[8] as usize, expect_src);
            }
        }
    }

    #[test]
    fn multiple_puts_append_in_order() {
        let w = world(2);
        let got = run(&w, |ep| {
            if ep.rank() == 0 {
                ep.put(1, &[1]);
                ep.put(1, &[2, 3]);
                ep.put(1, &[4]);
            }
            ep.commit();
            let mut all = Vec::new();
            ep.drain(|_, bytes| all.extend_from_slice(bytes));
            all
        });
        assert_eq!(got[1], vec![1, 2, 3, 4]);
        assert!(got[0].is_empty());
    }

    /// A drained window is empty but keeps its buffer: a steady-state
    /// epoch takes nothing from the allocator.
    #[test]
    fn drained_windows_keep_their_buffers() {
        let w = world(1);
        let ep = w.endpoint(0);
        let capacity = |parity| unsafe { (*w.window(parity, 0, 0).buf.get()).capacity() };
        for epoch in 0..6 {
            ep.put(0, &[7; 4096]);
            ep.commit();
            let mut seen = 0;
            ep.drain(|_, bytes| seen += bytes.len());
            assert_eq!(
                seen, 4096,
                "epoch {epoch}: nothing left over from earlier epochs"
            );
        }
        assert!(capacity(0) >= 4096 && capacity(1) >= 4096);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let w = world(2);
        let got = run(&w, |ep| {
            ep.commit();
            let mut calls = 0;
            ep.drain(|_, _| calls += 1);
            calls
        });
        assert_eq!(got, vec![0, 0]);
    }

    #[test]
    fn self_puts_loop_back() {
        let w = world(1);
        let got = run(&w, |ep| {
            ep.put(0, &[9, 9]);
            ep.commit();
            let mut all = Vec::new();
            ep.drain(|src, bytes| all.push((src, bytes.to_vec())));
            all
        });
        assert_eq!(got[0], vec![(0, vec![9, 9])]);
    }

    #[test]
    fn metrics_count_puts_and_barriers() {
        let w = world(2);
        run(&w, |ep| {
            ep.put((ep.rank() + 1) % 2, &[0; 20]);
            ep.commit();
            ep.drain(|_, _| {});
        });
        let m = w.metrics.snapshot();
        assert_eq!(m.puts, 2);
        assert_eq!(m.put_bytes, 40);
        assert_eq!(m.barriers, 2); // one per rank per epoch
    }

    #[test]
    #[should_panic(expected = "drain() before commit()")]
    fn drain_before_commit_rejected() {
        let w = world(1);
        let ep = w.endpoint(0);
        ep.drain(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "put() after commit()")]
    fn put_after_commit_rejected() {
        let w = world(1);
        let ep = w.endpoint(0);
        ep.commit();
        ep.put(0, &[1]);
    }

    #[test]
    #[should_panic(expected = "commit() called twice in one epoch")]
    fn double_commit_rejected() {
        let w = world(1);
        let ep = w.endpoint(0);
        ep.commit();
        // The phase check fires before the barrier, so a single-rank world
        // reaches it without deadlocking.
        ep.commit();
    }

    #[test]
    #[should_panic(expected = "put() after commit()")]
    fn put_after_commit_rejected_even_mid_epoch_cycle() {
        // The protocol re-arms every epoch: a full put/commit/drain cycle
        // followed by a commit must still reject a late put.
        let w = world(1);
        let ep = w.endpoint(0);
        ep.put(0, &[1]);
        ep.commit();
        ep.drain(|_, _| {});
        ep.commit();
        ep.put(0, &[2]);
    }

    #[test]
    fn detach_is_idempotent_and_shrinks_the_barrier() {
        let w = world(3);
        w.detach(2);
        w.detach(2); // every survivor may report the death; only the first shrinks
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    let ep = w.endpoint(r);
                    ep.put(1 - r, &[r as u8]);
                    ep.commit(); // completes without rank 2 ever arriving
                    let mut got = Vec::new();
                    ep.drain(|src, bytes| got.push((src, bytes.to_vec())));
                    got
                })
            })
            .collect();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got[0], vec![(1, vec![1])]);
        assert_eq!(got[1], vec![(0, vec![0])]);
    }

    #[test]
    fn attach_reverses_detach_and_aligns_the_epoch() {
        let w = world(3);
        w.detach(2);
        // Two incumbents run an epoch without rank 2.
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    let ep = w.endpoint(r);
                    ep.commit();
                    ep.drain(|_, _| {});
                    ep.epoch()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
        // Rank 2 attaches (idempotently) and aligns its epoch; the next
        // epoch then needs all three ranks and delivers its put.
        w.attach(2);
        w.attach(2);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    let ep = w.endpoint(r);
                    ep.set_epoch(1);
                    if r == 2 {
                        ep.put(0, &[7]);
                    }
                    ep.commit();
                    let mut got = Vec::new();
                    ep.drain(|src, bytes| got.push((src, bytes.to_vec())));
                    got
                })
            })
            .collect();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got[0], vec![(2, vec![7])]);
        assert!(got[1].is_empty() && got[2].is_empty());
    }

    #[test]
    fn epoch_counter_advances_on_drain() {
        let w = world(1);
        let ep = w.endpoint(0);
        assert_eq!(ep.epoch(), 0);
        ep.commit();
        ep.drain(|_, _| {});
        assert_eq!(ep.epoch(), 1);
    }
}
