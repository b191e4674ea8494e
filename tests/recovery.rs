//! Self-healing equivalence: runs whose transport is actively corrupted
//! by a seeded `FaultPlan` — drops, duplicates, delays, bit flips — must
//! complete with a spike trace bit-identical to the solo oracle, healed
//! by the reliable-delivery layer (per-tick audit + retransmit) and,
//! when retransmission cannot close a gap, by collective rollback to the
//! newest in-memory auto-checkpoint.

use compass::comm::{
    FaultInjector, FaultKind, FaultPlan, ReliableConfig, ReliableWorld, TransportMetrics, World,
    WorldConfig,
};
use compass::sim::{
    run, run_rank_with, Backend, EngineConfig, Job, NetworkModel, Partition, RecoveryPolicy,
    RunOptions, RunOutcome,
};
use compass::tn::{CoreConfig, Spike};
use std::sync::Arc;

mod common;
use common::{solo_trace, sort_key};

/// Every fault kind (plus the full mixture) at a punishing 300‰, across
/// both backends and every rank count in 1..=4: the recovered trace must
/// equal the solo oracle spike for spike, and wherever remote traffic
/// existed the reliable layer must show its work.
#[test]
fn recovery_matrix_matches_the_solo_oracle() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let oracle = solo_trace(&model, ticks);
    assert!(!oracle.is_empty());

    let plans: Vec<(&str, FaultPlan)> = vec![
        ("drop", FaultPlan::new(7, FaultKind::Drop, 300)),
        ("dup", FaultPlan::new(8, FaultKind::Duplicate, 300)),
        ("delay", FaultPlan::new(9, FaultKind::Delay, 300)),
        ("corrupt", FaultPlan::new(10, FaultKind::Corrupt, 300)),
        ("mixed", FaultPlan::all(11, 300)),
    ];
    for backend in [Backend::Mpi, Backend::Pgas] {
        for (ranks, threads) in [(1, 4), (2, 3), (3, 2), (4, 1)] {
            for (i, (name, plan)) in plans.iter().enumerate() {
                let every = [1, 3, 7][i % 3];
                let job = Job {
                    faults: Some(*plan),
                    recovery: Some(RecoveryPolicy::every(every)),
                    ..Job::default()
                };
                let engine = EngineConfig {
                    ticks,
                    backend,
                    record_trace: true,
                    ..EngineConfig::default()
                };
                let report = job
                    .run(&model, WorldConfig::new(ranks, threads), &engine)
                    .expect("test model must be valid");
                assert_eq!(
                    report.sorted_trace(),
                    oracle,
                    "{backend:?} ranks {ranks} threads {threads} plan {name}"
                );
                let evidence = report.total_retransmits()
                    + report.total_dedup_drops()
                    + report.total_crc_rejects();
                if ranks > 1 {
                    assert!(
                        evidence > 0,
                        "{backend:?} ranks {ranks} plan {name}: 300‰ faults \
                         on live remote traffic left no trace in the reliable layer"
                    );
                } else {
                    // One rank has no remote traffic to corrupt.
                    assert_eq!(evidence, 0, "solo rank healed nonexistent traffic");
                    assert_eq!(report.total_rollbacks(), 0);
                }
            }
        }
    }
}

/// Runs `model` under an explicit reliable layer and per-rank options —
/// the harness for forcing rollbacks with a zero-retransmit budget.
fn run_forced(
    model: &NetworkModel,
    world: WorldConfig,
    engine: &EngineConfig,
    metrics: Arc<TransportMetrics>,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Vec<RunOutcome> {
    let partition = Partition::uniform(model.total_cores(), world.ranks);
    let injector = Arc::new(FaultInjector::new(plan, world.ranks));
    // No retransmission budget: every lost frame is an unrecoverable gap
    // and must be answered by a rollback, not a resend.
    let rely = Arc::new(ReliableWorld::new(
        world.ranks,
        Arc::clone(&metrics),
        ReliableConfig {
            max_retransmits: 0,
            ..ReliableConfig::default()
        },
    ));
    World::run_with_recovery(world, metrics, Some(injector), Some(rely), |ctx| {
        let block = partition.block(ctx.rank());
        let configs: Vec<CoreConfig> =
            model.cores[block.start as usize..block.end as usize].to_vec();
        run_rank_with(
            ctx,
            &partition,
            configs,
            &model.initial_deliveries,
            engine,
            &RunOptions {
                recovery: Some(policy),
                ..RunOptions::default()
            },
        )
    })
}

/// With the retransmit budget at zero, recovery can *only* come from
/// rollback-replay — so rollbacks must actually fire, ticks must actually
/// be replayed, and the trace must still equal the oracle.
#[test]
fn forced_rollbacks_replay_to_the_exact_oracle() {
    // Two cores on two ranks: the wavefront crosses the rank boundary on
    // every tick, so every spike message is exposed to the fault plan.
    let model = NetworkModel::relay_ring(2, 8, 1);
    let ticks = 40u32;
    let oracle = solo_trace(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let outcomes = run_forced(
            &model,
            WorldConfig::flat(2),
            &engine,
            Arc::new(TransportMetrics::new()),
            FaultPlan::new(21, FaultKind::Drop, 150),
            RecoveryPolicy::every(4),
        );
        let rollbacks = outcomes
            .iter()
            .map(|o| o.report.rollbacks)
            .max()
            .unwrap_or(0);
        let replayed = outcomes
            .iter()
            .map(|o| o.report.replayed_ticks)
            .max()
            .unwrap_or(0);
        assert!(rollbacks > 0, "{backend:?}: no gap ever forced a rollback");
        assert!(replayed > 0, "{backend:?}: rollbacks replayed nothing");
        assert!(
            replayed >= rollbacks,
            "every rollback replays at least one tick"
        );
        // Rollback is collective: every rank counts the same rollbacks.
        for o in &outcomes {
            assert_eq!(o.report.rollbacks, rollbacks, "{backend:?} diverged");
        }
        let mut trace: Vec<Spike> = outcomes
            .iter()
            .flat_map(|o| o.report.trace.iter().copied())
            .collect();
        trace.sort_by_key(sort_key);
        assert_eq!(trace, oracle, "{backend:?}: replayed trace diverged");
    }
}

/// With faults disabled the reliable layer must be a pure pass-through:
/// same trace as a plain run, zero retransmits/dedups/rejects/rollbacks —
/// framing and audits may cost time but never change behaviour.
#[test]
fn fault_free_reliable_runs_change_nothing() {
    let model = NetworkModel::relay_ring(6, 8, 1);
    let ticks = 25u32;
    for backend in [Backend::Mpi, Backend::Pgas] {
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let world = WorldConfig::new(2, 2);
        let plain = run(&model, world, &engine).expect("valid");
        for recovery in [None, Some(RecoveryPolicy::every(5))] {
            let has_policy = recovery.is_some();
            let job = Job {
                reliable: true,
                recovery,
                ..Job::default()
            };
            let healed = job.run(&model, world, &engine).expect("valid");
            assert_eq!(
                healed.sorted_trace(),
                plain.sorted_trace(),
                "{backend:?} policy={has_policy}: reliable layer altered a clean run"
            );
            assert_eq!(healed.total_retransmits(), 0);
            assert_eq!(healed.total_dedup_drops(), 0);
            assert_eq!(healed.total_crc_rejects(), 0);
            assert_eq!(healed.total_rollbacks(), 0);
            assert_eq!(healed.total_replayed_ticks(), 0);
        }
    }
}

/// `MetricsSnapshot::since` across rollback-heavy runs: transport counters
/// only ever grow (a rollback replays work, it never un-counts it), so a
/// later snapshot minus an earlier one is exact, not saturated.
#[test]
fn metrics_since_stays_monotone_across_rollbacks() {
    let model = NetworkModel::relay_ring(2, 8, 1);
    let engine = EngineConfig {
        ticks: 40,
        backend: Backend::Mpi,
        record_trace: false,
        ..EngineConfig::default()
    };
    let metrics = Arc::new(TransportMetrics::new());
    let baseline = metrics.snapshot();

    let first = run_forced(
        &model,
        WorldConfig::flat(2),
        &engine,
        Arc::clone(&metrics),
        FaultPlan::new(21, FaultKind::Drop, 150),
        RecoveryPolicy::every(4),
    );
    assert!(first.iter().any(|o| o.report.rollbacks > 0));
    let mid = metrics.snapshot();

    let second = run_forced(
        &model,
        WorldConfig::flat(2),
        &engine,
        Arc::clone(&metrics),
        FaultPlan::new(22, FaultKind::Drop, 150),
        RecoveryPolicy::every(4),
    );
    assert!(second.iter().any(|o| o.report.rollbacks > 0));
    let end = metrics.snapshot();

    // Monotone: each later snapshot dominates the earlier one per field.
    for (later, earlier) in [(&mid, &baseline), (&end, &mid)] {
        assert!(later.p2p_messages >= earlier.p2p_messages);
        assert!(later.collective_ops >= earlier.collective_ops);
        assert!(later.retransmits >= earlier.retransmits);
        assert!(later.dedup_drops >= earlier.dedup_drops);
        assert!(later.crc_rejects >= earlier.crc_rejects);
    }
    // And `since` is therefore an exact difference, not a saturation.
    let d = end.since(&mid);
    assert_eq!(d.p2p_messages, end.p2p_messages - mid.p2p_messages);
    assert_eq!(d.retransmits, end.retransmits - mid.retransmits);
    let whole = end.since(&baseline);
    let stitched = mid.since(&baseline).p2p_messages + d.p2p_messages;
    assert_eq!(whole.p2p_messages, stitched, "interval stats must add up");
}

/// Release-mode soak for CI: the full fault mixture at 300‰ on four ranks,
/// long enough for drops, duplicates, delays, CRC tears, retransmission
/// interference, and rollbacks to all fire — and the trace must still be
/// the oracle's, bit for bit.
#[test]
#[ignore = "release-mode soak; run with --ignored in the CI `ignored` job"]
fn soak_mixed_faults_at_300_permille_on_four_ranks() {
    let model = NetworkModel::relay_ring(12, 12, 1);
    let ticks = 150u32;
    let oracle = solo_trace(&model, ticks);
    assert!(!oracle.is_empty());
    for backend in [Backend::Mpi, Backend::Pgas] {
        let job = Job {
            faults: Some(FaultPlan::all(4242, 300)),
            recovery: Some(RecoveryPolicy::every(3)),
            ..Job::default()
        };
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let report = job
            .run(&model, WorldConfig::new(4, 2), &engine)
            .expect("valid");
        assert_eq!(report.sorted_trace(), oracle, "{backend:?} soak diverged");
        assert!(
            report.total_retransmits() > 0,
            "{backend:?}: a 300‰ soak must exercise retransmission"
        );
        assert!(
            report.total_dedup_drops() > 0,
            "{backend:?}: duplicates and stale delays must be dropped"
        );
        assert!(
            report.total_crc_rejects() > 0,
            "{backend:?}: corruption must be caught by the CRC"
        );
    }
}

/// Faults alone arm rollback: a `Job` with a plan and no `recovery`
/// rolls back over the default cadence where the retransmit budget
/// cannot close a gap. At 700‰ on four ranks gaps stay open (the first
/// at tick 8), and the run must still equal the oracle.
#[test]
fn faults_alone_arm_rollback() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let oracle = solo_trace(&model, ticks);
    for backend in [Backend::Mpi, Backend::Pgas] {
        let job = Job {
            faults: Some(FaultPlan::all(11, 700)),
            ..Job::default()
        };
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let report = job
            .run(&model, WorldConfig::flat(4), &engine)
            .expect("valid");
        assert_eq!(report.sorted_trace(), oracle, "{backend:?}");
        assert!(report.total_rollbacks() > 0, "{backend:?}: no rollback");
    }
}

/// Repeated rollbacks land on one image. With `every(16)` over 16 ticks
/// the starting tick is the run's only cadence boundary, so each rollback
/// — the later ones hitting ticks a replay is re-executing — restores the
/// same newest checkpoint, tick 0, and replays at most the whole interval.
/// A rank keeps no older image for forward progress, and at 700‰ on four
/// ranks (3 rollbacks) the run still equals the oracle.
#[test]
fn repeated_rollbacks_land_on_one_image() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let (every, ticks) = (16u32, 16u32);
    let oracle = solo_trace(&model, ticks);
    for backend in [Backend::Mpi, Backend::Pgas] {
        let job = Job {
            faults: Some(FaultPlan::all(11, 700)),
            recovery: Some(RecoveryPolicy::every(every)),
            ..Job::default()
        };
        let engine = EngineConfig {
            ticks,
            backend,
            record_trace: true,
            ..EngineConfig::default()
        };
        let report = job
            .run(&model, WorldConfig::flat(4), &engine)
            .expect("valid");
        assert_eq!(report.sorted_trace(), oracle, "{backend:?}");
        let rollbacks = report.total_rollbacks();
        assert!(rollbacks >= 2, "{backend:?}: {rollbacks} rollback(s)");
        for r in &report.ranks {
            assert_eq!(
                r.rollbacks, rollbacks,
                "{backend:?}: rollback is collective"
            );
            // Each rollback from tick t to tick 0 replays t + 1 ticks, at
            // least one and at most the interval.
            assert!(
                (rollbacks..=rollbacks * u64::from(every)).contains(&r.replayed_ticks),
                "{backend:?}: {} ticks replayed by {rollbacks} rollbacks to tick 0",
                r.replayed_ticks
            );
        }
    }
}
