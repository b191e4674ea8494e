//! Whole-world runners.
//!
//! Every public entry point here is a front over one driver, `launch`:
//! it builds the world once, walks each rank through the segments of the
//! job (one, unless an [`ElasticPlan`] cuts the run at membership
//! boundaries), and folds the per-rank reports plus transport metrics into
//! a [`RunReport`]. [`run`] is the driver with nothing armed; the other
//! fronts add the reliable layer, rollback recovery, crash survival,
//! durable checkpoints and elastic membership. The Parallel Compass
//! Compiler path bypasses all of this and calls [`crate::engine::run_rank`]
//! inside its own world, as the paper's in-situ compile-then-simulate flow
//! does.

use crate::checkpoint::{MigrationEnvelope, MigrationRun, RankCheckpoint};
use crate::engine::{run_rank_view, DeathInterrupt, EngineConfig, RunOptions, RunOutcome};
use crate::model::{ModelError, NetworkModel};
use crate::partition::{intersect_blocks, Partition, SurvivorView};
use crate::recovery::RecoveryPolicy;
use crate::stats::{RankReport, RunReport};
use crate::store::{CheckpointStore, DurabilityPolicy, ResumePoint, StoreError};
use compass_comm::{
    CrashPlan, FaultInjector, FaultPlan, Rank, RankCtx, ReliableConfig, ReliableWorld,
    TransportMetrics, World, WorldConfig,
};
use std::fmt;
use std::mem::take;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tn_core::{Spike, CORE_SNAPSHOT_BYTES};

/// What a front asks of the driver. The default is [`run`]: no faults, no
/// reliable layer, no recovery, every rank a member from start to finish.
#[derive(Default)]
pub(crate) struct Job<'a> {
    /// Seeded message faults ([`ReliableConfig::against`] tunes the
    /// reliable layer's retransmission path to the same loss rate).
    faults: Option<FaultPlan>,
    /// Install the reliable-delivery layer (framing, per-tick audit).
    reliable: bool,
    recovery: Option<RecoveryPolicy>,
    /// One planned rank death; every rank carries the same plan.
    crash: Option<CrashPlan>,
    /// Durable checkpoints, and the committed generation to resume from.
    durability: Option<DurabilityPolicy>,
    resume: Option<ResumePoint>,
    /// The membership schedule; `None` keeps every rank a member.
    elastic: Option<&'a ElasticPlan>,
}

/// The one driver: builds the world `job` describes, runs every rank
/// through the job's segments, and merges the results. The second value is
/// the first durable-write failure any rank reported.
pub(crate) fn launch(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    job: &Job<'_>,
) -> (RunReport, Option<String>) {
    let metrics = Arc::new(TransportMetrics::new());
    let faults = job
        .faults
        .map(|p| Arc::new(FaultInjector::new(p, world.ranks)));
    let rely = job.reliable.then(|| {
        let against = job.faults.as_ref().map(ReliableConfig::against);
        let metrics = Arc::clone(&metrics);
        Arc::new(ReliableWorld::new(
            world.ranks,
            metrics,
            against.unwrap_or_default(),
        ))
    });
    let started = Instant::now();
    let results = World::try_run_with_recovery(world, Arc::clone(&metrics), faults, rely, |ctx| {
        RankRun::new(ctx, model, cfg, job).run()
    });
    let wall = started.elapsed();

    let mut ranks = Vec::with_capacity(world.ranks);
    let mut write_error = None;
    for res in results {
        match res {
            Ok((report, durable_error)) => {
                write_error = write_error.or(durable_error);
                ranks.push(report);
            }
            Err(failure) => {
                // The planned victim's thread is gone; its pre-crash
                // history is accounted by the adopting buddy, so its slot
                // stays empty. Any other death is a bug and is re-raised.
                let planned = failure.crash().zip(job.crash).is_some_and(|(rc, cp)| {
                    failure.rank == cp.rank && (rc.rank, rc.tick) == (cp.rank, cp.at_tick)
                });
                if !planned {
                    failure.resume();
                }
                ranks.push(RankReport::default());
            }
        }
    }
    let report = RunReport {
        ranks,
        wall,
        ticks: cfg.ticks,
        transport: metrics.snapshot(),
    };
    (report, write_error)
}

/// Simulates `model` on a world of shape `world` with engine options `cfg`.
///
/// Returns the merged [`RunReport`]. The model is validated first; wall
/// time covers the simulation only (instantiation happens inside ranks, as
/// in the paper, but before the timed loop... the paper likewise excludes
/// model compilation from its reported times).
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
pub fn run(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    Ok(launch(model, world, cfg, &Job::default()).0)
}

/// Simulates `model` under a reliable-delivery layer, optionally with
/// seeded communication faults and an automatic rollback-recovery policy.
///
/// This is the self-healing configuration: every application payload is
/// framed/checksummed, each tick ends with an expected-vs-received audit
/// whose retransmission path suffers the same loss rate as `plan`
/// ([`ReliableConfig::against`]), and — when `policy` is set — gaps the
/// retransmit budget cannot close trigger a collective rollback to the
/// newest in-memory checkpoint instead of a panic. With `plan = None`
/// this measures the reliable layer's fault-free overhead; the trace is
/// unchanged either way.
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
pub fn run_recovering(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    policy: Option<RecoveryPolicy>,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    let job = Job {
        faults: plan,
        reliable: true,
        recovery: policy,
        ..Job::default()
    };
    Ok(launch(model, world, cfg, &job).0)
}

/// Simulates `model` while one rank is killed mid-run, and drives the full
/// survival protocol to a bit-exact finish.
///
/// Every rank runs recovery-armed (`policy.survive_crashes` is forced on,
/// so buddy replication and per-tick heartbeats are active) with the same
/// `crash` plan. At the top of `crash.at_tick` the victim publishes its
/// death and terminates; the survivors reach a unanimous verdict at that
/// tick's heartbeat, retire the dead rank from the reliable layer and the
/// PGAS barrier, rebuild a degraded [`SurvivorView`] in which the ring
/// buddy adopts the victim's cores from its replicated checkpoint, roll
/// back to the common boundary, and replay to completion. Optional seeded
/// message faults (`plan`) compose with the crash exactly as in
/// [`run_recovering`].
///
/// The merged [`RunReport`] is bit-identical (trace, fires-per-tick) to a
/// fault-free run of the same model; the victim's rank slot is empty (its
/// thread died — its pre-crash fires are accounted by the adopting buddy)
/// and carries the planned crash as evidence via
/// [`RunReport::total_death_verdicts`].
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
///
/// # Panics
/// Panics when the crash plan is unsatisfiable (victim outside the world,
/// no survivor, crash after the last tick) or when a rank other than the
/// planned victim dies.
pub fn run_surviving(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    crash: CrashPlan,
    policy: RecoveryPolicy,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    assert_crash_fits(&crash, world);
    assert!(
        crash.at_tick < cfg.ticks,
        "the victim must die before the run ends"
    );
    let job = Job {
        faults: plan,
        reliable: true,
        recovery: Some(policy.surviving_crashes()),
        crash: Some(crash),
        ..Job::default()
    };
    Ok(launch(model, world, cfg, &job).0)
}

fn assert_crash_fits(crash: &CrashPlan, world: WorldConfig) {
    assert!(
        world.ranks >= 2,
        "crash survival needs at least one survivor"
    );
    assert!(
        crash.rank < world.ranks,
        "crash plan names rank {} outside a {}-rank world",
        crash.rank,
        world.ranks
    );
}

// ---------------------------------------------------------------------------
// Durable checkpoints: whole-job restart from an on-disk store.
// ---------------------------------------------------------------------------

/// Everything that can go wrong launching or finishing a durable run.
#[derive(Debug)]
pub enum DurableError {
    /// The model failed validation.
    Model(ModelError),
    /// The checkpoint store could not be opened or scanned at startup.
    Store(StoreError),
    /// The simulation completed, but a rank's background writer failed to
    /// persist its generations — the store may lag the run's final state.
    Write(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Model(e) => write!(f, "model error: {e}"),
            DurableError::Store(e) => write!(f, "checkpoint store: {e}"),
            DurableError::Write(e) => write!(f, "durable write failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Model(e) => Some(e),
            DurableError::Store(e) => Some(e),
            DurableError::Write(_) => None,
        }
    }
}

impl From<ModelError> for DurableError {
    fn from(e: ModelError) -> Self {
        DurableError::Model(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

/// Simulates `model` with durable on-disk checkpoints, resuming from the
/// newest fully-committed generation if the store already holds one.
///
/// At startup the store under `policy.dir` is scanned
/// ([`CheckpointStore::recover`]): an empty (or entirely torn) store
/// starts the job from tick 0, while a store left behind by an earlier
/// process — even one killed mid-write — resumes every rank from the
/// newest generation whose manifest committed, with the trace and
/// per-tick fire counts seeded so the merged report is indistinguishable
/// from an uninterrupted run. During the run each rank snapshots at the
/// policy's cadence and hands the staged bytes to a background writer;
/// the tick loop never blocks on I/O.
///
/// Seeded message faults (`plan`), rollback recovery (`recovery`), and a
/// planned rank crash (`crash`) compose exactly as in
/// [`run_recovering`] / [`run_surviving`]: a pending crash forces
/// `survive_crashes` on, the survivors adopt and replay the degraded
/// segment (without durability — generations past the victim's death can
/// never commit anyway), and a restart after the crash re-fires the plan
/// so the trace stays bit-identical to the fault-free oracle.
///
/// # Errors
/// [`DurableError::Model`] for an inconsistent model,
/// [`DurableError::Store`] when the store cannot be opened or names a
/// different world size, and [`DurableError::Write`] when the simulation
/// finished but some rank's writer could not persist its generations.
///
/// # Panics
/// Panics when a pending crash plan is unsatisfiable (victim outside the
/// world, no survivor, crash after the last tick) or a rank dies that no
/// plan named.
pub fn run_durable(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    policy: DurabilityPolicy,
    plan: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    crash: Option<CrashPlan>,
) -> Result<RunReport, DurableError> {
    model.validate()?;
    let store = CheckpointStore::open(&policy.dir, policy.sync)?;
    let resume = store.recover(world.ranks as u32)?;
    // A committed generation never postdates a planned crash (the victim
    // stops writing when it dies), so a pending crash always re-fires on
    // restart; filter only guards a plan from an already-survived past.
    let crash = crash.filter(|c| resume.as_ref().is_none_or(|rp| c.at_tick >= rp.tick));
    // Unlike `run_surviving`, a crash at or past `cfg.ticks` is legal here:
    // a prefix run (a job that dies before the victim does) simply never
    // reaches the planned tick, and the relaunch re-fires the still-pending
    // plan.
    let recovery = match crash {
        Some(c) => {
            assert_crash_fits(&c, world);
            Some(recovery.unwrap_or_default().surviving_crashes())
        }
        None => recovery,
    };
    let job = Job {
        faults: plan,
        reliable: true,
        recovery,
        crash,
        durability: Some(policy),
        resume,
        ..Job::default()
    };
    match launch(model, world, cfg, &job) {
        (_, Some(e)) => Err(DurableError::Write(e)),
        (report, None) => Ok(report),
    }
}

// ---------------------------------------------------------------------------
// Elastic ranks: live scale-out/in and measured rebalancing.
// ---------------------------------------------------------------------------

/// One membership transition of an [`ElasticPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticEvent {
    /// A standby (or previously departed) rank joins the simulation and
    /// receives a share of the cores.
    Join(Rank),
    /// An active rank hands its cores to the remaining members and parks.
    Leave(Rank),
    /// Membership is unchanged; the core layout is recomputed from the
    /// measured per-core tick cost exchanged at the boundary.
    Rebalance,
}

/// An [`ElasticEvent`] pinned to a tick boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticStep {
    /// The tick boundary the transition executes at (top of this tick).
    pub at_tick: u32,
    /// What happens there.
    pub event: ElasticEvent,
}

impl ElasticStep {
    /// `rank` joins at the top of `at_tick`.
    pub fn join(at_tick: u32, rank: Rank) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Join(rank),
        }
    }

    /// `rank` leaves at the top of `at_tick`.
    pub fn leave(at_tick: u32, rank: Rank) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Leave(rank),
        }
    }

    /// The members rebalance their core layout at the top of `at_tick`.
    pub fn rebalance(at_tick: u32) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Rebalance,
        }
    }
}

/// A deterministic schedule of membership transitions: which ranks start
/// active and what happens at each boundary. Every rank of the world knows
/// the full plan (the in-process stand-in for a resource manager's
/// scale-out/in directives), so the *when* and *who* of each transition
/// need no agreement round — only dynamic values (collective sequence
/// numbers, the PGAS epoch, measured costs, core state) travel on the
/// wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticPlan {
    /// Ranks active from tick 0, ascending. The rest of the world starts
    /// parked as standbys.
    pub initial: Vec<Rank>,
    /// Transitions, strictly ascending by `at_tick`.
    pub steps: Vec<ElasticStep>,
}

impl ElasticPlan {
    /// A plan starting with `initial` active ranks.
    pub fn new(initial: Vec<Rank>, steps: Vec<ElasticStep>) -> Self {
        Self { initial, steps }
    }

    /// Validates the plan against a world of `world` ranks, `ticks` ticks
    /// and an optional crash, returning the membership after every step.
    ///
    /// # Panics
    /// Panics on an unsatisfiable plan: unknown or duplicate ranks,
    /// non-monotonic boundaries, joining an active or crashed rank,
    /// removing the last member, or a crash that falls on a boundary or
    /// on a parked/buddyless victim.
    fn validate(&self, world: usize, ticks: u32, crash: Option<&CrashPlan>) {
        assert!(!self.initial.is_empty(), "need at least one initial rank");
        assert!(
            self.initial.windows(2).all(|w| w[0] < w[1]),
            "initial members must be ascending and unique"
        );
        assert!(
            self.initial.iter().all(|&r| r < world),
            "initial member outside the world"
        );
        let mut members = self.initial.clone();
        // The membership over the segment containing the crash tick.
        let mut at_crash: Option<Vec<Rank>> = None;
        let mut last = 0u32;
        for (i, step) in self.steps.iter().enumerate() {
            assert!(
                step.at_tick > last || (i == 0 && step.at_tick > 0),
                "boundaries must be strictly ascending and nonzero"
            );
            assert!(
                step.at_tick > 0 && step.at_tick < ticks,
                "boundary outside the run"
            );
            last = step.at_tick;
            if let Some(cp) = crash {
                assert_ne!(
                    cp.at_tick, step.at_tick,
                    "a crash cannot fall exactly on an elastic boundary"
                );
                if step.at_tick > cp.at_tick {
                    at_crash.get_or_insert_with(|| members.clone());
                }
            }
            match step.event {
                ElasticEvent::Join(r) => {
                    assert!(r < world, "joining rank outside the world");
                    assert!(!members.contains(&r), "rank {r} is already a member");
                    if let Some(cp) = crash {
                        assert!(
                            !(cp.rank == r && cp.at_tick < step.at_tick),
                            "rank {r} crashed before its join boundary"
                        );
                    }
                    members.push(r);
                    members.sort_unstable();
                }
                ElasticEvent::Leave(r) => {
                    assert!(members.contains(&r), "rank {r} is not a member");
                    assert!(members.len() > 1, "the last member cannot leave");
                    if let Some(cp) = crash {
                        assert!(
                            !(cp.rank == r && cp.at_tick >= step.at_tick),
                            "the crash victim must still be active at its crash tick"
                        );
                    }
                    members.retain(|&m| m != r);
                }
                ElasticEvent::Rebalance => {}
            }
        }
        if let Some(cp) = crash {
            assert!(
                cp.at_tick > 0 && cp.at_tick < ticks,
                "crash outside the run"
            );
            // The victim must be active there, with at least one buddy.
            let m = at_crash.unwrap_or(members);
            assert!(
                m.contains(&cp.rank),
                "the crash victim is parked at its crash tick"
            );
            assert!(m.len() >= 2, "the crash victim needs a surviving buddy");
        }
    }
}

/// Control-message kinds on the elastic channel (`ctrl_send`/`ctrl_recv`
/// tag space). One protocol round each; all tagged with the boundary tick
/// so rounds of different boundaries can never cross.
const ELASTIC_WELCOME: u8 = 1;
const ELASTIC_COST: u8 = 2;
const ELASTIC_MIG: u8 = 3;
const ELASTIC_DONE: u8 = 4;

/// The snapshot bytes of global core range `run` inside `host`'s boundary
/// checkpoint under `view`.
fn slice_run<'c>(
    view: &SurvivorView,
    host: Rank,
    ck: &'c RankCheckpoint,
    run: &Range<u64>,
) -> &'c [u8] {
    let lo = view.local_index(host, run.start) * CORE_SNAPSHOT_BYTES;
    let hi = lo + (run.end - run.start) as usize * CORE_SNAPSHOT_BYTES;
    &ck.blob[lo..hi]
}

/// Control-channel payloads are little-endian `u64` words.
fn le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn le_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// A rank's recorded past — its trace and per-tick fire counts — moved into
/// each segment the rank runs (which extends it) and back out of the
/// segment's report.
type History = (Vec<Spike>, Vec<u64>);

/// One rank's walk through the segments of a job: the state that survives
/// from one segment (and one elastic boundary) to the next.
struct RankRun<'a> {
    ctx: &'a RankCtx,
    model: &'a NetworkModel,
    cfg: &'a EngineConfig,
    job: &'a Job<'a>,
    /// The active ranks and the core layout they host.
    view: SurvivorView,
    dead: Option<Rank>,
    history: History,
    /// The checkpoint the next segment resumes from.
    resume: Option<RankCheckpoint>,
    /// The checkpoint the last segment exited its boundary with.
    boundary_ck: Option<RankCheckpoint>,
    /// This rank's folded report over the segments it ran.
    acc: Option<RankReport>,
    durable_error: Option<String>,
    /// Cores received, envelope bytes sent, and wall-clock spent migrating.
    migration: (u64, u64, Duration),
}

impl<'a> RankRun<'a> {
    fn new(
        ctx: &'a RankCtx,
        model: &'a NetworkModel,
        cfg: &'a EngineConfig,
        job: &'a Job<'a>,
    ) -> Self {
        let me = ctx.rank();
        let members = match job.elastic {
            Some(plan) => plan.initial.clone(),
            None => (0..ctx.world_size()).collect(),
        };
        // With every rank a member this is the identity view of the uniform
        // partition (`partition.rs::remap_of_the_full_world_is_the_identity`).
        let part = Partition::among(model.total_cores(), ctx.world_size(), &members, None);
        // Standbys sit outside the PGAS commit barrier until admitted.
        if !members.contains(&me) {
            ctx.pgas().detach(me);
        }
        // A resumed rank restores its own slice of the generation and
        // seeds the history the dead process had already recorded.
        let mine = job.resume.as_ref().map(|rp| &rp.payloads[me]);
        Self {
            ctx,
            model,
            cfg,
            job,
            view: SurvivorView::remap(part, members),
            dead: None,
            history: mine.map_or_else(History::default, |p| {
                (p.trace.clone(), p.fires_per_tick.clone())
            }),
            resume: mine.map(|p| p.ckpt.clone()),
            boundary_ck: None,
            acc: None,
            durable_error: None,
            migration: (0, 0, Duration::ZERO),
        }
    }

    fn run(mut self) -> (RankReport, Option<String>) {
        let steps = self.job.elastic.map_or(&[][..], |plan| &plan.steps[..]);
        let mut start = 0;
        for step in steps {
            self.segment(start, Some(step.at_tick));
            self.boundary(step);
            start = step.at_tick;
        }
        self.segment(start, None);
        let mut out = self.acc.unwrap_or_default();
        (out.trace, out.fires_per_tick) = self.history;
        out.migrated_cores += self.migration.0;
        out.migration_bytes += self.migration.1;
        out.migration_time += self.migration.2;
        (out, self.durable_error)
    }

    /// One engine call over `[resume point .. seg_end)` under the current
    /// view. `seed` is the rank's recorded history up to the resume point,
    /// so the report — and every replica shipped inside the segment —
    /// carries the full observable past.
    fn engine(
        &self,
        resume: Option<RankCheckpoint>,
        seed: History,
        crash: Option<CrashPlan>,
        seg_end: Option<u32>,
    ) -> RunOutcome {
        let (me, view, model) = (self.ctx.rank(), &self.view, self.model);
        let blocks = view.blocks_of(me).into_iter();
        let configs = blocks.flat_map(|b| &model.cores[b.start as usize..b.end as usize]);
        let opts = RunOptions {
            checkpoint_at: seg_end,
            kill_at: seg_end,
            resume,
            recovery: self.job.recovery,
            crash,
            seed_history: Some(seed),
            // A durable generation commits only once every rank's file is
            // visible, so durability is armed only while every rank of the
            // world is a member: degraded and elastic segments run without
            // it, and a restart resumes from before them (re-firing the
            // crash plan deterministically).
            durability: self.job.durability.clone().filter(|_| view.is_identity()),
        };
        run_rank_view(
            self.ctx,
            view,
            configs,
            &model.initial_deliveries,
            self.cfg,
            &opts,
        )
    }

    /// Runs the segment `[start .. seg_end)` if this rank is a member
    /// (replaying it degraded if a peer dies inside it); a parked rank only
    /// tracks deaths from the shared crash plan.
    fn segment(&mut self, start: u32, seg_end: Option<u32>) {
        let me = self.ctx.rank();
        if !self.view.members().contains(&me) {
            if let Some(cp) = self.job.crash {
                let in_window = cp.at_tick >= start && seg_end.is_none_or(|e| cp.at_tick < e);
                if in_window && self.view.members().contains(&cp.rank) {
                    self.retire(cp.rank);
                }
            }
            return;
        }
        let (resume, seed) = (self.resume.take(), take(&mut self.history));
        let mut out = self.engine(resume, seed, self.job.crash, seg_end);
        if let Some(int) = out.interrupt.take() {
            out = self.replay_degraded(out, int, seg_end);
        }
        let mut report = out.report;
        self.history = (take(&mut report.trace), take(&mut report.fires_per_tick));
        if let Some(earlier) = self.acc.take() {
            report.fold_earlier(earlier);
        }
        self.acc = Some(report);
        self.boundary_ck = out.checkpoint;
        self.durable_error = self.durable_error.take().or(out.durable_error);
    }

    /// `dead` is gone: its ring buddy hosts its cores from here on.
    fn retire(&mut self, dead: Rank) {
        let planned = self.job.crash.map(|cp| cp.rank);
        assert_eq!(Some(dead), planned, "only the planned victim may die");
        self.dead = Some(dead);
        self.view = self.view.without(dead);
    }

    /// A peer died inside this segment and the survivors' verdict
    /// interrupted it (`first` is already wound back to the common
    /// boundary): the buddy adopts the victim's cores from its replica, and
    /// the degraded world replays from there to the same segment end.
    fn replay_degraded(
        &mut self,
        first: RunOutcome,
        int: DeathInterrupt,
        seg_end: Option<u32>,
    ) -> RunOutcome {
        let me = self.ctx.rank();
        let mut rep1 = first.report;
        // Own and adopted cores merge in ascending global order — the
        // layout the degraded view's `local_index` expects. Each
        // original-rank block is contiguous in its old host's checkpoint,
        // so this is a sequence of range copies.
        let mut pieces: Vec<(Range<u64>, Rank, &RankCheckpoint)> = self
            .view
            .blocks_of(me)
            .into_iter()
            .map(|b| (b, me, &int.resume))
            .collect();
        let mut adopted_cores = 0u64;
        if let Some(rp) = &int.adopted {
            adopted_cores = rp.ckpt.core_count() as u64;
            let theirs = self.view.blocks_of(int.dead);
            pieces.extend(theirs.into_iter().map(|b| (b, int.dead, &rp.ckpt)));
            // The victim's recorded history died with its thread; its
            // replica carries it, and it joins this rank's own pre-boundary
            // history.
            rep1.trace.extend(rp.trace.iter().copied());
            if rep1.fires_per_tick.len() < rp.fires_per_tick.len() {
                rep1.fires_per_tick.resize(rp.fires_per_tick.len(), 0);
            }
            for (a, b) in rep1.fires_per_tick.iter_mut().zip(&rp.fires_per_tick) {
                *a += b;
            }
        }
        pieces.sort_by_key(|(run, _, _)| run.start);
        let mut blob = Vec::new();
        for (run, host, ck) in &pieces {
            blob.extend_from_slice(slice_run(&self.view, *host, ck, run));
        }
        let merged = RankCheckpoint {
            rank: me as u32,
            start_tick: int.resume.start_tick(),
            blob,
        };
        let seed = (
            take(&mut rep1.trace),
            if self.cfg.tick_stats {
                take(&mut rep1.fires_per_tick)
            } else {
                Vec::new()
            },
        );
        self.retire(int.dead);
        let mut out = self.engine(Some(merged), seed, None, seg_end);
        assert!(
            out.interrupt.is_none(),
            "one crash per run: the degraded segment must finish"
        );
        out.report.fold_earlier(rep1);
        // The verdict-to-boundary distance is replayed on top of whatever
        // the two engine calls rolled back themselves.
        out.report.replayed_ticks += u64::from(int.at_tick - int.resume.start_tick());
        out.report.adopted_cores += adopted_cores;
        out.durable_error = first.durable_error;
        out
    }

    /// The admission protocol at an elastic boundary (see [`run_elastic`]):
    /// WELCOME, COST, MIG, DONE over the control channel, after which
    /// `members`, `view` and `resume` describe the next segment.
    fn boundary(&mut self, step: &ElasticStep) {
        let (ctx, me, b) = (self.ctx, self.ctx.rank(), step.at_tick);
        let n_world = ctx.world_size();
        let total = self.model.total_cores();
        let old_members = self.view.members().to_vec();
        let (joiner, leaver) = match step.event {
            ElasticEvent::Join(r) => {
                assert_ne!(Some(r), self.dead, "cannot admit a crashed rank");
                (Some(r), None)
            }
            // A planned leaver that already crashed degenerates the
            // boundary to a rebalance among the survivors.
            ElasticEvent::Leave(r) if Some(r) != self.dead => (None, Some(r)),
            ElasticEvent::Leave(_) | ElasticEvent::Rebalance => (None, None),
        };
        let mut participants = old_members.clone();
        participants.extend(joiner);
        participants.sort_unstable();
        let new_members: Vec<Rank> = participants
            .iter()
            .copied()
            .filter(|&m| Some(m) != leaver)
            .collect();
        assert!(!new_members.is_empty(), "the world emptied out");
        let t0 = Instant::now();

        // WELCOME: the incumbents' leader hands the joiner the dynamic
        // state a parked rank cannot know — the collective sequence
        // counter and the PGAS epoch.
        if let Some(j) = joiner {
            let leader = old_members[0];
            if me == leader {
                let words = [ctx.comm().seq(), ctx.pgas().epoch()];
                ctx.comm()
                    .ctrl_send(j, ELASTIC_WELCOME, b, le_bytes(&words));
            }
            if me == j {
                let w = ctx
                    .comm()
                    .ctrl_recv_until(leader, ELASTIC_WELCOME, b, ctx.membership())
                    .expect("the welcoming leader died before the join boundary");
                let words = le_words(&w);
                ctx.comm().sync_seq(words[0]);
                ctx.pgas().set_epoch(words[1]);
                // Collective admission: fresh pair state on the reliable
                // layer, liveness flag on, and a seat in the PGAS commit
                // barrier (quiescent here — every incumbent is inside the
                // boundary protocol).
                ctx.reliable()
                    .expect("elastic worlds install a reliable layer")
                    .admit_rank(me);
                ctx.membership().admit(me);
                ctx.pgas().attach(me);
                // Parked ticks observed no fires.
                if self.cfg.tick_stats {
                    self.history.1.resize(b as usize, 0);
                }
            }
        }

        // COST: every member publishes its measured per-core tick cost to
        // the whole world (parked ranks track the layout too — they need
        // it to compute intersections when they later join). All ranks
        // then assemble the identical global cost vector and compute the
        // identical layout.
        let costs = matches!(step.event, ElasticEvent::Rebalance).then(|| {
            let mine: &[u64] = if old_members.contains(&me) {
                let rep = self.acc.as_ref().expect("active ranks have a report");
                assert_eq!(
                    rep.core_tick_ns.len() as u64,
                    self.view.count(me),
                    "rank {me}: cost vector does not cover the hosted cores"
                );
                let payload = le_bytes(&rep.core_tick_ns);
                for dst in (0..n_world).filter(|&d| d != me && Some(d) != self.dead) {
                    ctx.comm().ctrl_send(dst, ELASTIC_COST, b, payload.clone());
                }
                &rep.core_tick_ns
            } else {
                &[]
            };
            let mut global = vec![0u64; total as usize];
            for &o in &old_members {
                let theirs = if o == me {
                    mine.to_vec()
                } else {
                    le_words(&ctx.comm().ctrl_recv(o, ELASTIC_COST, b))
                };
                let cores = self.view.blocks_of(o).into_iter().flatten();
                for (core, cost) in cores.zip(theirs) {
                    global[core as usize] = cost;
                }
            }
            global
        });
        let new_part = Partition::among(total, n_world, &new_members, costs.as_deref());
        let new_view = SurvivorView::remap(new_part, new_members);
        let new_members = new_view.members();

        // MIG: old owners ship the checkpoint runs that intersect each new
        // owner's layout; receivers splice them (plus their own kept runs)
        // into the resumed checkpoint.
        if participants.contains(&me) {
            let view = &self.view;
            let mut my_runs: Vec<MigrationRun> = Vec::new();
            if old_members.contains(&me) {
                let ck = self
                    .boundary_ck
                    .as_ref()
                    .expect("an active rank exits a boundary with its checkpoint");
                assert_eq!(ck.start_tick(), b, "boundary checkpoint tick mismatch");
                let mine = view.blocks_of(me);
                for &m in new_members {
                    let mut runs: Vec<MigrationRun> =
                        intersect_blocks(&mine, &new_view.blocks_of(m))
                            .iter()
                            .map(|run| MigrationRun {
                                global_start: run.start,
                                blob: slice_run(view, me, ck, run).to_vec(),
                            })
                            .collect();
                    if m == me {
                        my_runs.append(&mut runs);
                    } else if !runs.is_empty() {
                        let env = MigrationEnvelope { boundary: b, runs };
                        self.migration.1 += env.total_bytes();
                        ctx.comm().ctrl_send(m, ELASTIC_MIG, b, env.to_bytes());
                    }
                }
            }
            self.resume = new_members.contains(&me).then(|| {
                let mine_new = new_view.blocks_of(me);
                for &o in old_members.iter().filter(|&&o| o != me) {
                    if intersect_blocks(&view.blocks_of(o), &mine_new).is_empty() {
                        continue;
                    }
                    let raw = ctx.comm().ctrl_recv(o, ELASTIC_MIG, b);
                    let env = MigrationEnvelope::from_bytes(&raw)
                        .expect("migration envelope survived the internal channel");
                    assert_eq!(env.boundary, b, "migration boundary mismatch");
                    self.migration.0 += env.core_count() as u64;
                    my_runs.extend(env.runs);
                }
                my_runs.sort_by_key(|r| r.global_start);
                let blob = my_runs
                    .iter()
                    .map(|r| &r.blob[..])
                    .collect::<Vec<_>>()
                    .concat();
                assert_eq!(
                    blob.len(),
                    new_view.count(me) as usize * CORE_SNAPSHOT_BYTES,
                    "rank {me}: spliced checkpoint does not fill the new block"
                );
                RankCheckpoint {
                    rank: me as u32,
                    start_tick: b,
                    blob,
                }
            });

            // DONE: the collective admission verdict — an all-to-all no
            // participant passes until every other has finished migrating,
            // so no rank can leak traffic from the next segment into this
            // boundary.
            for &p in participants.iter().filter(|&&p| p != me) {
                ctx.comm().ctrl_send(p, ELASTIC_DONE, b, Vec::new());
            }
            for &p in participants.iter().filter(|&&p| p != me) {
                let _ = ctx.comm().ctrl_recv(p, ELASTIC_DONE, b);
            }
            if leaver == Some(me) {
                ctx.pgas().detach(me);
            }
            self.migration.2 += t0.elapsed();
        }
        self.view = new_view;
    }
}

/// Simulates `model` under a deterministic schedule of live membership
/// transitions: ranks join and leave the running world at tick
/// boundaries, cores migrate between ranks over checkpoint splices, and
/// the spike trace stays bit-identical to a run that never scaled.
///
/// Every segment runs crash-survival-armed (`policy.survive_crashes` is
/// forced on), so buddy replication is live throughout and an optional
/// `crash` composes with the schedule: the victim's cores are adopted
/// mid-segment exactly as in [`run_surviving`], and later transitions
/// proceed among the survivors. Optional message faults (`plan`) compose
/// as in [`run_recovering`].
///
/// At each boundary the active ranks exit their segment holding a
/// checkpoint of that boundary, then run the admission protocol over the
/// control channel: WELCOME (a joiner aligns its collective sequence
/// number and PGAS epoch with the incumbents'), COST (rebalance only —
/// every member publishes its measured per-core tick cost so all ranks
/// compute the identical [`Partition::by_cost`] layout), MIG (each old
/// owner ships the checkpoint runs that intersect each new owner's
/// block), and DONE (the collective admission verdict — an all-to-all
/// barrier no rank passes until every participant finished migrating).
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
///
/// # Panics
/// Panics when the plan is unsatisfiable (see [`ElasticPlan`]) or a rank
/// other than the planned crash victim dies.
pub fn run_elastic(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    crash: Option<CrashPlan>,
    elastic: &ElasticPlan,
    policy: RecoveryPolicy,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    elastic.validate(world.ranks, cfg.ticks, crash.as_ref());
    let job = Job {
        faults: plan,
        reliable: true,
        recovery: Some(policy.surviving_crashes()),
        crash,
        elastic: Some(elastic),
        ..Job::default()
    };
    Ok(launch(model, world, cfg, &job).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;

    #[test]
    fn run_produces_merged_report() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(2),
            &EngineConfig::new(20, Backend::Mpi),
        )
        .unwrap();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.total_cores(), 4);
        assert_eq!(report.ticks, 20);
        assert_eq!(report.total_fires(), 4 * 19);
        assert!(report.wall.as_nanos() > 0);
        assert!(report.slowdown_factor() > 0.0);
    }

    #[test]
    fn transport_metrics_reflect_spike_messages() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(4),
            &EngineConfig::new(10, Backend::Mpi),
        )
        .unwrap();
        assert_eq!(report.transport.p2p_messages, report.total_messages());
        assert_eq!(
            report.transport.p2p_bytes,
            report.total_remote_spikes() * tn_core::SPIKE_WIRE_BYTES as u64
        );
    }

    #[test]
    fn pgas_run_uses_puts_not_p2p() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(4),
            &EngineConfig::new(10, Backend::Pgas),
        )
        .unwrap();
        assert_eq!(report.transport.p2p_messages, 0);
        assert!(report.transport.puts > 0);
        assert!(report.transport.barriers > 0);
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut model = NetworkModel::relay_ring(2, 1, 0);
        model.cores[0].id = 9;
        assert!(run(
            &model,
            WorldConfig::flat(1),
            &EngineConfig::new(1, Backend::Mpi)
        )
        .is_err());
    }

    #[test]
    fn mean_rate_tracks_pacemaker_duty_cycle() {
        let model = NetworkModel::pacemaker(2, 100, 0);
        let report = run(
            &model,
            WorldConfig::flat(1),
            &EngineConfig::new(200, Backend::Mpi),
        )
        .unwrap();
        // Period-100 pacemakers at 1000 Hz ticks fire at 10 Hz.
        let rate = report.mean_rate_hz();
        assert!((rate - 10.0).abs() < 1.0, "rate {rate}");
    }
}
