//! The rank runtime: launches `P` rank threads, each with a mailbox, a
//! communicator, a PGAS endpoint, and an OpenMP-style thread team.
//!
//! This is the in-process stand-in for `mpirun -np P` with
//! `OMP_NUM_THREADS=T`: Compass's evaluation varies exactly these two knobs
//! (§VI-D even trades them off against each other), so [`WorldConfig`]
//! exposes both.

use crate::barrier::CentralizedBarrier;
use crate::collectives::Communicator;
use crate::fault::{FaultInjector, RankCrash};
use crate::mailbox::MailboxSet;
use crate::metrics::TransportMetrics;
use crate::pgas::{PgasEndpoint, PgasWorld};
use crate::reliable::ReliableWorld;
use crate::team::ThreadTeam;
use crate::Rank;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shape of a simulated machine: `ranks` MPI-process stand-ins, each with a
/// team of `threads_per_rank` OpenMP-thread stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldConfig {
    /// Number of ranks (the paper: one MPI process per Blue Gene node).
    pub ranks: usize,
    /// Team size per rank, including the rank's master thread (the paper:
    /// 32 OpenMP threads per process in the scaling runs).
    pub threads_per_rank: usize,
}

impl WorldConfig {
    /// A world of `ranks` ranks with single-threaded teams.
    pub fn flat(ranks: usize) -> Self {
        Self {
            ranks,
            threads_per_rank: 1,
        }
    }

    /// A world of `ranks` ranks × `threads_per_rank` team threads.
    pub fn new(ranks: usize, threads_per_rank: usize) -> Self {
        Self {
            ranks,
            threads_per_rank,
        }
    }

    fn validate(&self) {
        assert!(self.ranks >= 1, "need at least one rank");
        assert!(
            self.threads_per_rank >= 1,
            "need at least one thread per rank"
        );
    }
}

/// The world's shared liveness view: one flag per rank, flipped exactly
/// once when that rank dies, plus an epoch counting deaths.
///
/// A dying rank marks itself dead *before* unwinding (and then wakes all
/// mailbox waiters), so survivors always observe `dead` no later than the
/// silence it explains — detection outcomes depend only on the crash
/// schedule, never on thread timing.
#[derive(Debug)]
pub struct Membership {
    alive: Vec<AtomicBool>,
    epoch: AtomicU64,
}

impl Membership {
    /// All-alive membership for a world of `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            alive: (0..ranks).map(|_| AtomicBool::new(true)).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// World size this view covers.
    pub fn ranks(&self) -> usize {
        self.alive.len()
    }

    /// Whether `rank` is still alive.
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.alive[rank].load(Ordering::SeqCst)
    }

    /// Marks `rank` dead. Idempotent; the epoch bumps only on the actual
    /// alive → dead transition.
    pub fn mark_dead(&self, rank: Rank) {
        if self.alive[rank].swap(false, Ordering::SeqCst) {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Marks `rank` alive again — the membership half of elastic
    /// admission, inverse of [`Membership::mark_dead`]. Idempotent; the
    /// epoch bumps only on the actual dead → alive transition, so a
    /// double admission (an admission racing a concurrent verdict on
    /// another rank) is harmless.
    pub fn admit(&self, rank: Rank) {
        if !self.alive[rank].swap(true, Ordering::SeqCst) {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Number of membership transitions (deaths and admissions) recorded
    /// so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The ranks currently alive, ascending.
    pub fn members(&self) -> Vec<Rank> {
        (0..self.alive.len())
            .filter(|&r| self.is_alive(r))
            .collect()
    }
}

/// The payload a cross-rank wait unwinds with once a rank of its world
/// has failed outside any crash plan: what the wait expects may come from
/// that rank, and a failed rank sends nothing more, so the wait stops
/// instead of blocking forever. A planned crash stops no wait — the
/// survivors' death verdict answers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitStopped {
    /// The rank whose failure stopped the wait.
    pub failed: Rank,
}

impl WaitStopped {
    /// Unwinds the waiting thread without calling the panic hook: the
    /// failed rank's own panic is the one report of the failure.
    pub(crate) fn unwind(self) -> ! {
        std::panic::resume_unwind(Box::new(self))
    }
}

/// One rank's terminal failure, observed as data by
/// [`World::try_run_with_recovery`]: which rank died and what it
/// unwound with.
pub struct RankFailure {
    /// The rank whose closure panicked.
    pub rank: Rank,
    payload: Box<dyn Any + Send>,
}

impl RankFailure {
    /// The scheduled-crash payload, when the rank died by
    /// [`CrashPlan`](crate::fault::CrashPlan) rather than by a bug.
    pub fn crash(&self) -> Option<&RankCrash> {
        self.payload.downcast_ref::<RankCrash>()
    }

    /// The stopped wait this rank unwound from, when another rank's
    /// failure ended it rather than a fault of its own.
    pub fn stopped(&self) -> Option<&WaitStopped> {
        self.payload.downcast_ref::<WaitStopped>()
    }

    /// Best-effort human-readable panic message.
    pub fn message(&self) -> String {
        if let Some(c) = self.crash() {
            return format!("scheduled crash at tick {}", c.tick);
        }
        if let Some(w) = self.stopped() {
            return format!("stopped waiting: rank {} failed", w.failed);
        }
        if let Some(s) = self.payload.downcast_ref::<String>() {
            return s.clone();
        }
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            return (*s).to_string();
        }
        "non-string panic payload".to_string()
    }

    /// Re-raises the failure on the calling thread, with the rank id
    /// attached so multi-rank test failures are attributable. The resumed
    /// payload is a `String` containing `"rank panicked"`, preserving the
    /// substring the pre-existing `should_panic` harnesses expect.
    pub fn resume(self) -> ! {
        let msg = format!("rank panicked: rank {}: {}", self.rank, self.message());
        std::panic::resume_unwind(Box::new(msg))
    }
}

impl std::fmt::Debug for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankFailure")
            .field("rank", &self.rank)
            .field("message", &self.message())
            .finish()
    }
}

/// Everything one rank needs: identity, messaging, collectives, one-sided
/// windows, its thread team, and the shared metrics.
pub struct RankCtx {
    rank: Rank,
    config: WorldConfig,
    comm: Communicator,
    pgas: PgasEndpoint,
    team: ThreadTeam,
    metrics: Arc<TransportMetrics>,
    faults: Option<Arc<FaultInjector>>,
    rely: Option<Arc<ReliableWorld>>,
    membership: Arc<Membership>,
}

impl RankCtx {
    /// This rank's index in `0..config.ranks`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The world shape.
    pub fn config(&self) -> WorldConfig {
        self.config
    }

    /// World size (number of ranks).
    pub fn world_size(&self) -> usize {
        self.config.ranks
    }

    /// Two-sided messaging + collectives (the MPI stand-in).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// One-sided windows (the PGAS stand-in).
    pub fn pgas(&self) -> &PgasEndpoint {
        &self.pgas
    }

    /// This rank's OpenMP-style thread team.
    pub fn team(&self) -> &ThreadTeam {
        &self.team
    }

    /// Shared transport metrics.
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        &self.metrics
    }

    /// The fault injector corrupting this world's transports, if any —
    /// the engine needs it to flush `Delay`-held payloads at end of run.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The reliable-delivery layer, if one is installed — the engine
    /// drives its per-tick epoch and end-of-tick audit.
    pub fn reliable(&self) -> Option<&Arc<ReliableWorld>> {
        self.rely.as_ref()
    }

    /// The world's shared liveness view. All-alive unless a scheduled
    /// crash has fired.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }
}

/// Launcher for rank worlds.
pub struct World;

impl World {
    /// Runs `f` once per rank, each on its own OS thread, and returns the
    /// per-rank results in rank order. Blocks until every rank finishes.
    ///
    /// # Panics
    /// Propagates the first rank panic after all ranks have been joined
    /// (the failing rank's, not a wait it stopped on another rank).
    pub fn run<T, F>(config: WorldConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        config.validate();
        let metrics = Arc::new(TransportMetrics::new());
        Self::run_with_metrics(config, metrics, f)
    }

    /// Like [`World::run`] but reporting into a caller-supplied metrics
    /// block, so harnesses can observe traffic across multiple worlds.
    pub fn run_with_metrics<T, F>(
        config: WorldConfig,
        metrics: Arc<TransportMetrics>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        Self::run_with_recovery(config, metrics, None, None, f)
    }

    /// Like [`World::run_with_metrics`] with an optional [`FaultInjector`]
    /// applied to every application-level mailbox send and PGAS put (never
    /// to collective-internal traffic) and an optional [`ReliableWorld`]
    /// installed under both transports: application payloads are framed
    /// before faults strike, receivers validate/dedup on the way in, and
    /// the rank body can drive the per-tick audit via
    /// [`RankCtx::reliable`]. The caller keeps its own clone of the
    /// injector `Arc` to inspect [`FaultInjector::injected`] afterwards.
    pub fn run_with_recovery<T, F>(
        config: WorldConfig,
        metrics: Arc<TransportMetrics>,
        faults: Option<Arc<FaultInjector>>,
        rely: Option<Arc<ReliableWorld>>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        let results = Self::try_run_with_recovery(config, metrics, faults, rely, f);
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(t) => out.push(t),
                // A stopped wait's cause is a failure of its own slot,
                // which this loop re-raises.
                Err(failure) if failure.stopped().is_some() => {}
                Err(failure) => failure.resume(),
            }
        }
        out
    }

    /// Like [`World::run_with_recovery`], but a panicking rank is returned
    /// as an `Err(`[`RankFailure`]`)` in its slot instead of aborting the
    /// harness — the observation point for the rank-crash-survival
    /// protocol. Every rank is always joined: a rank that unwinds with
    /// anything but a [`RankCrash`] or a [`WaitStopped`] stops every
    /// blocked cross-rank wait of the world (mailbox receives and the PGAS
    /// commit barrier), so the ranks waiting on it unwind with a
    /// [`WaitStopped`] naming it instead of hanging.
    pub fn try_run_with_recovery<T, F>(
        config: WorldConfig,
        metrics: Arc<TransportMetrics>,
        faults: Option<Arc<FaultInjector>>,
        rely: Option<Arc<ReliableWorld>>,
        f: F,
    ) -> Vec<Result<T, RankFailure>>
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        config.validate();
        let mail = MailboxSet::with_reliability(
            config.ranks,
            Arc::clone(&metrics),
            faults.clone(),
            rely.clone(),
        );
        let pgas = Arc::new(PgasWorld::with_reliability(
            config.ranks,
            Arc::clone(&metrics),
            faults.clone(),
            rely.clone(),
        ));
        let membership = Arc::new(Membership::new(config.ranks));
        // Not strictly needed for correctness, but lets ranks start their
        // timing loops together, which tightens benchmark variance.
        let start_line = Arc::new(CentralizedBarrier::new(config.ranks));

        // An unplanned failure stops every wait that could be waiting on
        // the failed rank.
        let stop_waits = |failed: Rank| {
            mail.fail(failed);
            pgas.fail(failed);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.ranks)
                .map(|rank| {
                    let mail = mail.clone();
                    let pgas = Arc::clone(&pgas);
                    let metrics = Arc::clone(&metrics);
                    let start_line = Arc::clone(&start_line);
                    let faults = faults.clone();
                    let rely = rely.clone();
                    let membership = Arc::clone(&membership);
                    let (f, stop_waits) = (&f, &stop_waits);
                    scope.spawn(move || {
                        let ctx = RankCtx {
                            rank,
                            config,
                            comm: Communicator::new(rank, mail),
                            pgas: pgas.endpoint(rank),
                            team: ThreadTeam::new(config.threads_per_rank),
                            metrics,
                            faults,
                            rely,
                            membership,
                        };
                        start_line.wait();
                        panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))).unwrap_or_else(
                            |payload| {
                                if !(payload.is::<RankCrash>() || payload.is::<WaitStopped>()) {
                                    stop_waits(rank);
                                }
                                panic::resume_unwind(payload)
                            },
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| h.join().map_err(|payload| RankFailure { rank, payload }))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Match;

    #[test]
    fn ranks_see_their_identity() {
        let got = World::run(WorldConfig::new(3, 2), |ctx| {
            (ctx.rank(), ctx.world_size(), ctx.team().size())
        });
        assert_eq!(got, vec![(0, 3, 2), (1, 3, 2), (2, 3, 2)]);
    }

    #[test]
    fn point_to_point_between_ranks() {
        let got = World::run(WorldConfig::flat(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.comm().mailboxes().send(0, 1, 5, vec![1, 2, 3]);
                Vec::new()
            } else {
                ctx.comm()
                    .mailboxes()
                    .mailbox(1)
                    .recv(Match::from(0, 5))
                    .payload
            }
        });
        assert_eq!(got[1], vec![1, 2, 3]);
    }

    #[test]
    fn collectives_work_inside_world() {
        let got = World::run(WorldConfig::flat(4), |ctx| {
            ctx.comm().allreduce_sum(ctx.rank() as u64)
        });
        assert_eq!(got, vec![6, 6, 6, 6]);
    }

    #[test]
    fn pgas_works_inside_world() {
        let got = World::run(WorldConfig::flat(3), |ctx| {
            let dst = (ctx.rank() + 1) % 3;
            ctx.pgas().put(dst, &[ctx.rank() as u8]);
            ctx.pgas().commit();
            let mut from = None;
            ctx.pgas().drain(|src, _| from = Some(src));
            from.unwrap()
        });
        assert_eq!(got, vec![2, 0, 1]);
    }

    #[test]
    fn teams_and_collectives_overlap() {
        // The Compass pattern: master does a collective inside a parallel
        // region while workers compute.
        let got = World::run(WorldConfig::new(2, 3), |ctx| {
            let mut total = 0u64;
            ctx.team().parallel(|t| {
                if t.is_master() {
                    let s = ctx.comm().allreduce_sum(1);
                    assert_eq!(s, 2);
                }
                // workers just spin a little
            });
            total += 1;
            total
        });
        assert_eq!(got, vec![1, 1]);
    }

    #[test]
    fn try_run_reports_the_failed_rank_as_data() {
        let metrics = Arc::new(TransportMetrics::new());
        let results =
            World::try_run_with_recovery(WorldConfig::flat(3), metrics, None, None, |ctx| {
                if ctx.rank() == 1 {
                    ctx.membership().mark_dead(1);
                    ctx.comm().mailboxes().wake_all();
                    std::panic::panic_any(RankCrash { rank: 1, tick: 5 });
                }
                ctx.rank()
            });
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert_eq!(*results[2].as_ref().unwrap(), 2);
        let failure = results[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.crash(), Some(&RankCrash { rank: 1, tick: 5 }));
        assert!(failure.message().contains("tick 5"));
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn run_attributes_the_panicking_rank() {
        World::run(WorldConfig::flat(2), |ctx| {
            assert!(ctx.rank() != 1, "rank 1 goes down");
        });
    }

    /// A cross-rank wait a rank body enters.
    type Wait = fn(&RankCtx);

    /// Runs a `ranks`-rank world in which the last rank panics before its
    /// first cross-rank wait and every other rank enters `wait`, on a
    /// spawned thread; returns what the world re-raised, within a minute.
    fn unplanned_death(ranks: usize, wait: Wait) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let raised = panic::catch_unwind(|| {
                World::run(WorldConfig::flat(ranks), |ctx| {
                    assert!(ctx.rank() + 1 != ranks, "the last rank goes down");
                    wait(ctx);
                })
            });
            let _ = tx.send(raised.map(|_| ()));
        });
        let raised = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the world hung instead of failing");
        let payload = raised.expect_err("the world ran to completion");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn an_unplanned_death_fails_the_world_instead_of_hanging_it() {
        let waits: [(&str, Wait); 3] = [
            ("reduce_scatter_sum", |ctx| {
                ctx.comm().reduce_scatter_sum(&vec![1; ctx.world_size()]);
            }),
            ("barrier", |ctx| ctx.comm().barrier()),
            ("pgas commit", |ctx| ctx.pgas().commit()),
        ];
        for ranks in [2, 4] {
            for (name, wait) in waits {
                let raised = unplanned_death(ranks, wait);
                let last = ranks - 1;
                assert!(
                    raised.starts_with(&format!("rank panicked: rank {last}: ")),
                    "{ranks} ranks, {name}: {raised}"
                );
                assert!(
                    raised.contains("the last rank goes down"),
                    "{ranks} ranks, {name}: the failed rank's own panic, got {raised}"
                );
            }
        }
    }

    #[test]
    fn a_stopped_wait_names_the_failed_rank() {
        let metrics = Arc::new(TransportMetrics::new());
        let results =
            World::try_run_with_recovery(WorldConfig::flat(3), metrics, None, None, |ctx| {
                assert!(ctx.rank() != 1, "rank 1 goes down");
                ctx.comm().barrier();
            });
        let stopped: Vec<_> = [0, 2]
            .map(|r| results[r].as_ref().unwrap_err().stopped().copied())
            .into();
        assert_eq!(stopped, [Some(WaitStopped { failed: 1 }); 2]);
        let failed = results[1].as_ref().unwrap_err();
        assert!(failed.stopped().is_none());
        assert!(failed.message().contains("rank 1 goes down"));
    }

    #[test]
    fn membership_marks_deaths_once() {
        let m = Membership::new(3);
        assert_eq!(m.members(), vec![0, 1, 2]);
        assert_eq!(m.epoch(), 0);
        m.mark_dead(1);
        m.mark_dead(1);
        assert_eq!(m.epoch(), 1, "re-marking must not re-bump the epoch");
        assert!(!m.is_alive(1));
        assert_eq!(m.members(), vec![0, 2]);
    }

    #[test]
    fn membership_admit_reverses_death_idempotently() {
        let m = Membership::new(3);
        m.mark_dead(2);
        assert_eq!(m.members(), vec![0, 1]);
        m.admit(2);
        m.admit(2);
        assert_eq!(m.epoch(), 2, "re-admitting must not re-bump the epoch");
        assert!(m.is_alive(2));
        assert_eq!(m.members(), vec![0, 1, 2]);
        // Admitting an already-alive rank is a no-op.
        m.admit(0);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn recv_until_gives_up_only_when_empty() {
        let metrics = Arc::new(TransportMetrics::new());
        let mail = MailboxSet::new(2, metrics);
        mail.send(0, 1, 7, vec![3]);
        // Give-up condition already true, but the queued envelope wins.
        let got = mail.mailbox(1).recv_until(Match::tag(7), || true);
        assert_eq!(got.unwrap().payload, vec![3]);
        assert!(mail.mailbox(1).recv_until(Match::tag(7), || true).is_none());
    }

    #[test]
    fn metrics_shared_across_ranks() {
        let metrics = Arc::new(TransportMetrics::new());
        World::run_with_metrics(WorldConfig::flat(2), Arc::clone(&metrics), |ctx| {
            if ctx.rank() == 0 {
                ctx.comm().mailboxes().send(0, 1, 1, vec![0; 10]);
            } else {
                ctx.comm().mailboxes().mailbox(1).recv(Match::tag(1));
            }
        });
        assert_eq!(metrics.snapshot().p2p_messages, 1);
        assert_eq!(metrics.snapshot().p2p_bytes, 10);
    }
}
