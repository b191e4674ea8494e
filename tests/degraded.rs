//! Rank-crash survival: a world that loses an entire rank mid-run must
//! finish with a spike trace bit-identical to the solo oracle. The victim
//! is killed deterministically at a tick boundary (`CrashPlan`); the
//! survivors reach a unanimous death verdict from the missed heartbeat,
//! retire the dead rank from the reliable layer and the PGAS barrier, the
//! ring buddy adopts the victim's cores from its replicated checkpoint,
//! and everyone rolls back to the common boundary and replays.

use compass::comm::{CrashPlan, FaultPlan, WorldConfig};
use compass::sim::{Backend, Job, NetworkModel, Partition, RecoveryPolicy, RunReport};

mod common;
use common::{engine, fires_per_tick, solo_oracle};

/// Asserts the protocol actually ran: a unanimous verdict, a real
/// adoption, a real replay — no silent fault-free pass.
fn assert_survival_evidence(report: &RunReport, ctx: &str, victim_cores: u64) {
    assert_eq!(
        report.total_death_verdicts(),
        1,
        "{ctx}: survivors must reach exactly one unanimous death verdict"
    );
    assert_eq!(
        report.total_adopted_cores(),
        victim_cores,
        "{ctx}: the buddy must adopt the victim's whole block"
    );
    assert!(
        report.total_replayed_ticks() >= 1,
        "{ctx}: recovery must replay at least the verdict-to-boundary gap"
    );
    assert!(
        report.total_replication_bytes() > 0,
        "{ctx}: buddy replication must have shipped checkpoint bytes"
    );
}

/// Both backends × 2..4 ranks × 1..4 threads × victim × kill tick: the
/// recovered trace and the per-tick fire counts must equal the solo
/// oracle bit for bit, with protocol evidence in the report.
#[test]
fn rank_kill_matrix_matches_the_solo_oracle() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);
    assert!(!oracle.is_empty());

    for backend in [Backend::Mpi, Backend::Pgas] {
        for (ranks, threads) in [(2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 2)] {
            let partition = Partition::uniform(model.total_cores(), ranks);
            for victim in [0, ranks - 1] {
                // 5 replays from boundary 4; 8 is itself a boundary, but
                // the verdict precedes the tick-8 snapshot, so it also
                // rolls back to 4 — both paths must converge.
                for kill_tick in [5u32, 8] {
                    let ctx = format!(
                        "{backend:?} ranks {ranks} threads {threads} \
                         victim {victim} tick {kill_tick}"
                    );
                    let job = Job {
                        recovery: Some(RecoveryPolicy::every(4)),
                        crash: Some(CrashPlan::new(victim, kill_tick)),
                        ..Job::default()
                    };
                    let report = job
                        .run(
                            &model,
                            WorldConfig::new(ranks, threads),
                            &engine(ticks, backend),
                        )
                        .expect("test model must be valid");
                    assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
                    assert_eq!(
                        fires_per_tick(&report, ticks),
                        oracle_fires,
                        "{ctx}: per-tick fire counts diverged"
                    );
                    assert_survival_evidence(&report, &ctx, partition.count(victim));
                    // The victim's thread died; its slot must stay empty.
                    let dead = &report.ranks[victim];
                    assert_eq!(dead.fires, 0, "{ctx}: dead rank reported fires");
                    assert!(dead.trace.is_empty(), "{ctx}: dead rank reported a trace");
                }
            }
        }
    }
}

/// The replica stream of a fault-free surviving run, pinned: three ranks
/// each ship a full anchor at tick 0 and a delta at each of the seven
/// later boundaries, and the bytes those frames carry are golden on
/// both backends (the frames do not depend on the transport).
#[test]
fn fault_free_replica_stream_is_golden() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, _) = solo_oracle(&model, ticks);
    for backend in [Backend::Mpi, Backend::Pgas] {
        let job = Job {
            recovery: Some(RecoveryPolicy::surviving(4)),
            ..Job::default()
        };
        let report = job
            .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
            .expect("test model must be valid");
        assert_eq!(report.sorted_trace(), oracle, "{backend:?}: trace diverged");
        let stream = (
            report.total_replication_bytes(),
            report.total_full_replica_ships(),
            report.total_delta_replica_ships(),
        );
        assert_eq!(stream, (38_336, 3, 21), "{backend:?}: replica stream moved");
    }
}

/// A rank crash composes with PR 4's seeded message faults: the full
/// mixture at 150‰ plus one kill still converges to the oracle, and both
/// healing layers must show their work.
#[test]
fn crash_composes_with_message_faults() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let ctx = format!("{backend:?} mixed faults + crash");
        let job = Job {
            faults: Some(FaultPlan::all(1213, 150)),
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(CrashPlan::new(1, 11)),
            ..Job::default()
        };
        let report = job
            .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
            .expect("test model must be valid");
        assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
        assert_eq!(
            fires_per_tick(&report, ticks),
            oracle_fires,
            "{ctx}: per-tick fire counts diverged"
        );
        let partition = Partition::uniform(model.total_cores(), 3);
        assert_survival_evidence(&report, &ctx, partition.count(1));
        let healed =
            report.total_retransmits() + report.total_dedup_drops() + report.total_crc_rejects();
        assert!(
            healed > 0,
            "{ctx}: 150‰ faults on live traffic left no trace in the reliable layer"
        );
    }
}

/// Same seed, same crash plan ⇒ byte-identical recovered runs, on both
/// backends: the whole survival path — verdict, adoption, replay — is
/// deterministic, not merely convergent.
#[test]
fn repeated_recoveries_are_byte_identical() {
    let model = NetworkModel::relay_ring(6, 8, 1);
    let ticks = 24u32;
    for backend in [Backend::Mpi, Backend::Pgas] {
        let job = Job {
            faults: Some(FaultPlan::all(77, 100)),
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(CrashPlan::new(2, 9)),
            ..Job::default()
        };
        let one_run = || {
            job.run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
                .expect("test model must be valid")
        };
        let a = one_run();
        let b = one_run();
        assert_eq!(
            a.trace_digest(),
            b.trace_digest(),
            "{backend:?}: recovered trace digests diverged across repeats"
        );
        assert_eq!(a.sorted_trace(), b.sorted_trace(), "{backend:?}");
        assert_eq!(
            fires_per_tick(&a, ticks),
            fires_per_tick(&b, ticks),
            "{backend:?}: per-tick fire counts diverged across repeats"
        );
        assert_eq!(
            a.total_death_verdicts(),
            b.total_death_verdicts(),
            "{backend:?}"
        );
        assert_eq!(
            a.total_replayed_ticks(),
            b.total_replayed_ticks(),
            "{backend:?}"
        );
    }
}

/// Release-mode soak for CI: four ranks, kill tick and victim drawn from
/// a seeded LCG (deterministic, but spread over the whole run), with the
/// full message-fault mixture layered on top of every third kill.
#[test]
#[ignore = "release-mode soak; run with --ignored in the CI `ignored` job"]
fn soak_random_rank_kills_on_four_ranks() {
    let model = NetworkModel::relay_ring(12, 12, 1);
    let ticks = 120u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);
    assert!(!oracle.is_empty());
    let partition = Partition::uniform(model.total_cores(), 4);

    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |bound: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % bound
    };
    for round in 0..6u64 {
        let victim = draw(4) as usize;
        let kill_tick = 1 + draw(u64::from(ticks) - 1) as u32;
        let plan = (round % 3 == 0).then(|| FaultPlan::all(9000 + round, 150));
        for backend in [Backend::Mpi, Backend::Pgas] {
            let ctx = format!(
                "{backend:?} round {round} victim {victim} tick {kill_tick} \
                 faults {}",
                plan.is_some()
            );
            let job = Job {
                faults: plan,
                recovery: Some(RecoveryPolicy::every(5)),
                crash: Some(CrashPlan::new(victim, kill_tick)),
                ..Job::default()
            };
            let report = job
                .run(&model, WorldConfig::new(4, 2), &engine(ticks, backend))
                .expect("valid");
            assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
            assert_eq!(
                fires_per_tick(&report, ticks),
                oracle_fires,
                "{ctx}: per-tick fire counts diverged"
            );
            assert_survival_evidence(&report, &ctx, partition.count(victim));
        }
    }
}
