//! Checkpoint/restart equivalence, with and without communication faults.
//!
//! The contract under test: a run checkpointed at tick `T` (a tick
//! boundary — Network phase drained, inboxes landed), killed at tick
//! `K > T`, and resumed from the checkpoint produces a spike trace
//! bit-identical to the solo oracle — a plain sequential stepper sharing
//! no engine code with the parallel simulator. The fault half kills the
//! run while a seeded `FaultPlan` is corrupting the comm layer between
//! `T` and `K`: whatever damage the faults did after the checkpoint is
//! discarded by the restart, so the resumed trace must still equal the
//! oracle exactly.

use compass::comm::{
    FaultInjector, FaultKind, FaultPlan, ReliableConfig, ReliableWorld, TransportMetrics, World,
    WorldConfig,
};
use compass::sim::{
    run_rank_with, Backend, EngineConfig, NetworkModel, Partition, RankCheckpoint, RunOptions,
    RunOutcome,
};
use compass::tn::{CoreConfig, Spike};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;
use common::{solo_trace, sort_key};

/// Runs `model` on `world` through `run_rank_with`, with per-rank options,
/// an optional fault injector, and an optional reliable-delivery layer on
/// the comm layer.
fn run_with(
    model: &NetworkModel,
    world: WorldConfig,
    engine: &EngineConfig,
    faults: Option<Arc<FaultInjector>>,
    rely: Option<Arc<ReliableWorld>>,
    opts_for: impl Fn(usize) -> RunOptions + Sync,
) -> Vec<RunOutcome> {
    let partition = Partition::uniform(model.total_cores(), world.ranks);
    World::run_with_recovery(
        world,
        Arc::new(TransportMetrics::new()),
        faults,
        rely,
        |ctx| {
            let block = partition.block(ctx.rank());
            let configs: Vec<CoreConfig> =
                model.cores[block.start as usize..block.end as usize].to_vec();
            run_rank_with(
                ctx,
                &partition,
                configs,
                &model.initial_deliveries,
                engine,
                &opts_for(ctx.rank()),
            )
        },
    )
}

/// Victim prefix (spikes fired before the checkpoint) + the resumed run's
/// whole trace, canonically sorted — the record a restarted job ends up
/// with.
fn stitch(victims: &[RunOutcome], resumed: &[RunOutcome], ck_tick: u32) -> Vec<Spike> {
    let mut out: Vec<Spike> = victims
        .iter()
        .flat_map(|v| v.report.trace.iter().copied())
        .filter(|s| s.fired_at < ck_tick)
        .collect();
    out.extend(resumed.iter().flat_map(|o| o.report.trace.iter().copied()));
    out.sort_by_key(sort_key);
    out
}

#[test]
fn kill_and_restart_reproduces_the_solo_oracle_across_the_matrix() {
    // Stochastic leak draws every core's PRNG every tick, so a restore
    // that slipped a single draw would diverge immediately.
    let model = NetworkModel::stochastic_field(8, 40, 5);
    let (ticks, ck_tick, kill_tick) = (44u32, 16u32, 31u32);
    let oracle = solo_trace(&model, ticks);
    assert!(!oracle.is_empty());

    for backend in [Backend::Mpi, Backend::Pgas] {
        for ranks in 1usize..=4 {
            for threads in 1usize..=4 {
                let world = WorldConfig::new(ranks, threads);
                let engine = EngineConfig {
                    ticks,
                    backend,
                    record_trace: true,
                    ..EngineConfig::default()
                };
                let victims = run_with(&model, world, &engine, None, None, |_| RunOptions {
                    checkpoint_at: Some(ck_tick),
                    kill_at: Some(kill_tick),
                    ..RunOptions::default()
                });
                // Every rank died at the kill boundary with a checkpoint
                // in hand, and the checkpoint survives its wire format.
                let cks: Vec<RankCheckpoint> = victims
                    .iter()
                    .map(|v| {
                        let ck = v.checkpoint.as_ref().expect("checkpoint taken");
                        assert_eq!(ck.start_tick(), ck_tick);
                        assert_eq!(v.report.checkpoint_bytes, ck.total_bytes());
                        RankCheckpoint::from_bytes(&ck.to_bytes()).expect("roundtrip")
                    })
                    .collect();
                for v in &victims {
                    assert!(v.report.trace.iter().all(|s| s.fired_at < kill_tick));
                }

                let resumed = run_with(&model, world, &engine, None, None, |rank| RunOptions {
                    resume: Some(cks[rank].clone()),
                    ..RunOptions::default()
                });
                assert_eq!(
                    stitch(&victims, &resumed, ck_tick),
                    oracle,
                    "backend {backend:?} ranks {ranks} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn restart_discards_fault_damage_and_matches_the_oracle() {
    // Three fault kinds × three seeds × both backends. The plan's `after`
    // threshold keeps the pre-checkpoint prefix clean (at most one
    // application message per rank pair per tick, so per-pair sequence
    // numbers below `ck_tick` all precede the checkpoint); the faulted
    // interval [ck_tick, kill) is then thrown away by the restart.
    let model = NetworkModel::stochastic_field(6, 40, 9);
    let (ticks, ck_tick, kill_tick) = (40u32, 14u32, 30u32);
    let oracle = solo_trace(&model, ticks);
    let world = WorldConfig::new(3, 2);

    for backend in [Backend::Mpi, Backend::Pgas] {
        for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Delay] {
            for seed in [11u64, 22, 33] {
                let engine = EngineConfig {
                    ticks,
                    backend,
                    record_trace: true,
                    ..EngineConfig::default()
                };
                let plan = FaultPlan::new(seed, kind, 400).after(u64::from(ck_tick));
                let injector = Arc::new(FaultInjector::new(plan, world.ranks));
                let victims = run_with(
                    &model,
                    world,
                    &engine,
                    Some(Arc::clone(&injector)),
                    None,
                    |_| RunOptions {
                        checkpoint_at: Some(ck_tick),
                        kill_at: Some(kill_tick),
                        ..RunOptions::default()
                    },
                );
                assert!(
                    injector.injected() > 0,
                    "schedule {kind:?}/{seed} never fired — test proves nothing"
                );

                // Restart in a clean (fault-free) world: bit-exact oracle.
                let resumed = run_with(&model, world, &engine, None, None, |rank| RunOptions {
                    resume: Some(victims[rank].checkpoint.clone().expect("checkpoint")),
                    ..RunOptions::default()
                });
                assert_eq!(
                    stitch(&victims, &resumed, ck_tick),
                    oracle,
                    "backend {backend:?} kind {kind:?} seed {seed}"
                );

                // Bonus invariant: duplicated spike messages are invisible
                // even *without* a restart — delivery ORs into delay-slot
                // bits, so the victim's own trace stays exact under
                // Duplicate faults.
                if kind == FaultKind::Duplicate {
                    let mut victim_trace: Vec<Spike> = victims
                        .iter()
                        .flat_map(|v| v.report.trace.iter().copied())
                        .collect();
                    victim_trace.sort_by_key(sort_key);
                    let oracle_prefix: Vec<Spike> = oracle
                        .iter()
                        .copied()
                        .filter(|s| s.fired_at < kill_tick)
                        .collect();
                    assert_eq!(victim_trace, oracle_prefix, "duplicates must merge");
                }
            }
        }

        // The full mixture — Drop + Duplicate + Delay + Corrupt in one
        // plan. Corrupt tears frames on the wire, so a reliable layer must
        // sit under the transports (raw corrupt bytes would poison spike
        // decoding); the restart then discards whatever the audits could
        // not hide.
        for seed in [44u64, 55] {
            let engine = EngineConfig {
                ticks,
                backend,
                record_trace: true,
                ..EngineConfig::default()
            };
            let plan = FaultPlan::all(seed, 400).after(u64::from(ck_tick));
            let injector = Arc::new(FaultInjector::new(plan, world.ranks));
            let rely = Arc::new(ReliableWorld::new(
                world.ranks,
                Arc::new(TransportMetrics::new()),
                ReliableConfig::default(),
            ));
            let victims = run_with(
                &model,
                world,
                &engine,
                Some(Arc::clone(&injector)),
                Some(rely),
                |_| RunOptions {
                    checkpoint_at: Some(ck_tick),
                    kill_at: Some(kill_tick),
                    ..RunOptions::default()
                },
            );
            assert!(injector.injected() > 0, "mixed schedule {seed} never fired");
            let evidence: u64 = victims
                .iter()
                .map(|v| v.report.retransmits + v.report.dedup_drops + v.report.crc_rejects)
                .sum();
            assert!(
                evidence > 0,
                "mixed faults fired but the reliable layer saw nothing"
            );

            let resumed = run_with(&model, world, &engine, None, None, |rank| RunOptions {
                resume: Some(victims[rank].checkpoint.clone().expect("checkpoint")),
                ..RunOptions::default()
            });
            assert_eq!(
                stitch(&victims, &resumed, ck_tick),
                oracle,
                "backend {backend:?} mixed plan seed {seed}"
            );
        }
    }
}

#[test]
fn a_last_tick_delayed_spike_still_arrives() {
    // Regression for the Delay-leak: bytes the `Delay` fault holds when
    // the run ends used to vanish, so a spike delayed on the final tick
    // never reached its delay buffer and end-of-run in-flight accounting
    // diverged. The engine now flushes held slots at run finalize.
    //
    // relay_ring(2, 8, 1) on 2 ranks alternates the wavefront: core 0
    // fires on odd ticks (sends 0 → 1), core 1 on even ticks (sends
    // 1 → 0). Over 20 ticks the final tick (19) is a 0 → 1 send with
    // per-pair sequence number 9, and pair 1 → 0 never reaches seq 9 —
    // so `after(9)` at rate 1000 delays exactly the final-tick message.
    let model = NetworkModel::relay_ring(2, 8, 1);
    let ticks = 20u32;
    let world = WorldConfig::flat(2);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let clean = run_with(&model, world, &engine, None, None, |_| {
            RunOptions::default()
        });
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::new(3, FaultKind::Delay, 1000).after(9),
            world.ranks,
        ));
        let delayed = run_with(
            &model,
            world,
            &engine,
            Some(Arc::clone(&injector)),
            None,
            |_| RunOptions::default(),
        );
        assert_eq!(
            injector.injected(),
            1,
            "exactly the final-tick send must be delayed ({backend:?})"
        );

        let view = |outs: &[RunOutcome]| {
            let mut trace: Vec<Spike> = outs
                .iter()
                .flat_map(|o| o.report.trace.iter().copied())
                .collect();
            trace.sort_by_key(sort_key);
            let in_flight: u64 = outs.iter().map(|o| o.report.spikes_in_flight).sum();
            let fires: u64 = outs.iter().map(|o| o.report.fires).sum();
            (trace, in_flight, fires)
        };
        let (clean_trace, clean_in_flight, clean_fires) = view(&clean);
        assert_eq!(
            clean_in_flight, 8,
            "the ring keeps its wavefront in flight ({backend:?})"
        );
        assert_eq!(
            view(&delayed),
            (clean_trace, clean_in_flight, clean_fires),
            "flushed final-tick spikes must land ({backend:?})"
        );
    }
}

#[test]
fn a_dropped_message_really_corrupts_an_unrestarted_run() {
    // Sanity for the whole suite: the fault machinery must be able to
    // change a trace, otherwise "restart fixes it" is vacuous. Full-rate
    // drops from tick 1 starve every cross-rank connection; with remote
    // traffic present the trace must differ from the oracle.
    let model = NetworkModel::relay_ring(4, 8, 1);
    let ticks = 30u32;
    let oracle = solo_trace(&model, ticks);
    let world = WorldConfig::flat(4);
    let engine = EngineConfig {
        ticks,
        record_trace: true,
        ..EngineConfig::default()
    };
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(7, FaultKind::Drop, 1000),
        world.ranks,
    ));
    let faulted = run_with(
        &model,
        world,
        &engine,
        Some(Arc::clone(&injector)),
        None,
        |_| RunOptions::default(),
    );
    assert!(injector.injected() > 0);
    let mut trace: Vec<Spike> = faulted
        .iter()
        .flat_map(|o| o.report.trace.iter().copied())
        .collect();
    trace.sort_by_key(sort_key);
    assert_ne!(trace, oracle, "dropping every remote spike must show");
}

#[test]
fn checkpoint_cost_is_accounted_per_rank() {
    let model = NetworkModel::stochastic_field(4, 40, 3);
    let world = WorldConfig::flat(2);
    let engine = EngineConfig {
        ticks: 20,
        ..EngineConfig::default()
    };
    let outcomes = run_with(&model, world, &engine, None, None, |_| RunOptions {
        checkpoint_at: Some(10),
        ..RunOptions::default()
    });
    for o in &outcomes {
        let ck = o.checkpoint.as_ref().expect("checkpoint");
        assert_eq!(ck.core_count(), 2, "4 cores over 2 ranks");
        assert_eq!(o.report.checkpoint_bytes, ck.total_bytes());
        assert!(o.report.checkpoint_bytes > 0);
    }
    // No checkpoint requested → counters stay zero.
    let plain = run_with(&model, world, &engine, None, None, |_| {
        RunOptions::default()
    });
    for o in &plain {
        assert!(o.checkpoint.is_none());
        assert_eq!(o.report.checkpoint_bytes, 0);
        assert_eq!(o.report.checkpoint_time, std::time::Duration::ZERO);
    }
}

/// A rank that resumes a checkpoint of other cores fails the job: its
/// panic is re-raised within a minute, and the rank it leaves waiting in
/// the first collective of the tick loop stops instead of hanging.
#[test]
fn a_rank_resuming_another_ranks_cores_fails_the_job() {
    let model = NetworkModel::stochastic_field(4, 40, 3);
    for backend in [Backend::Mpi, Backend::Pgas] {
        let engine = EngineConfig {
            ticks: 20,
            backend,
            ..EngineConfig::default()
        };
        let taken = |ranks| -> Vec<RankCheckpoint> {
            let world = WorldConfig::flat(ranks);
            let outcomes = run_with(&model, world, &engine, None, None, |_| RunOptions {
                checkpoint_at: Some(10),
                kill_at: Some(10),
                ..RunOptions::default()
            });
            outcomes
                .into_iter()
                .map(|o| o.checkpoint.unwrap())
                .collect()
        };
        // Rank 1 of three holds core 2; rank 1 of two holds cores 2 and 3.
        let cks = [taken(2)[0].clone(), taken(3)[1].clone()];
        let model = model.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let raised = panic::catch_unwind(AssertUnwindSafe(|| {
                run_with(&model, WorldConfig::flat(2), &engine, None, None, |rank| {
                    RunOptions {
                        resume: Some(cks[rank].clone()),
                        ..RunOptions::default()
                    }
                })
            }));
            let _ = tx.send(
                raised
                    .err()
                    .and_then(|p| p.downcast_ref::<String>().cloned()),
            );
        });
        let raised = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{backend:?}: the job hung instead of failing"))
            .unwrap_or_else(|| panic!("{backend:?}: the job ran to completion"));
        assert!(
            raised.starts_with("rank panicked: rank 1: ")
                && raised.contains("checkpoint does not hold exactly this rank's cores"),
            "{backend:?}: {raised}"
        );
    }
}
