//! Elastic membership: ranks join and leave a *running* world at tick
//! boundaries, cores migrating between ranks as checkpoint splices, and
//! the spike trace must stay bit-identical to the solo oracle through
//! every transition. Each segment runs crash-survival-armed, so the
//! schedule composes with seeded message faults and with a real mid-run
//! rank death — scale-out after a crash and a crash after scale-out both
//! have to converge.

use compass::comm::{CrashPlan, FaultPlan, WorldConfig};
use compass::sim::{
    run, Backend, DurabilityPolicy, ElasticPlan, ElasticStep, Job, NetworkModel, RecoveryPolicy,
    RunReport,
};
use compass::tn::Spike;
use proptest::prelude::*;

mod common;
use common::{engine, fires_per_tick, solo_oracle};

fn check_against_oracle(
    model: &NetworkModel,
    ticks: u32,
    oracle: &[Spike],
    oracle_fires: &[u64],
    report: &RunReport,
    ctx: &str,
) {
    assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
    assert_eq!(
        fires_per_tick(report, ticks),
        oracle_fires,
        "{ctx}: per-tick fire counts diverged"
    );
    let _ = model;
}

/// Every single-transition plan on both backends: join (scale-out from a
/// warm standby), leave (scale-in with full handback), and a measured
/// rebalance, across world sizes and thread counts. Each run must match
/// the solo oracle bit for bit and actually migrate cores.
#[test]
fn single_transition_matrix_matches_the_solo_oracle() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);
    assert!(!oracle.is_empty());

    for backend in [Backend::Mpi, Backend::Pgas] {
        for (world, threads) in [(2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 2)] {
            let all: Vec<usize> = (0..world).collect();
            let plans: Vec<(&str, ElasticPlan, bool)> = vec![
                (
                    "join",
                    ElasticPlan::new(
                        all[..world - 1].to_vec(),
                        vec![ElasticStep::join(7, world - 1)],
                    ),
                    true,
                ),
                (
                    "leave",
                    ElasticPlan::new(all.clone(), vec![ElasticStep::leave(7, 0)]),
                    world > 1,
                ),
                // A rebalance may legitimately move nothing: the relay
                // ring's activity is uniform, so the measured-cost split
                // can equal the uniform one. Only the oracle match and
                // live replication are asserted for it.
                (
                    "rebalance",
                    ElasticPlan::new(all.clone(), vec![ElasticStep::rebalance(7)]),
                    false,
                ),
            ];
            for (name, plan, expect_migration) in plans {
                if plan.initial.is_empty() {
                    continue;
                }
                let ctx = format!("{backend:?} {name} world {world} threads {threads}");
                let report = Job {
                    recovery: Some(RecoveryPolicy::every(4)),
                    elastic: Some(plan),
                    ..Job::default()
                }
                .run(
                    &model,
                    WorldConfig::new(world, threads),
                    &engine(ticks, backend),
                )
                .expect("test model must be valid");
                check_against_oracle(&model, ticks, &oracle, &oracle_fires, &report, &ctx);
                if expect_migration {
                    assert!(
                        report.total_migrated_cores() > 0,
                        "{ctx}: the transition must move cores between ranks"
                    );
                    assert!(
                        report.total_migration_bytes() > 0,
                        "{ctx}: migrated cores must carry checkpoint bytes"
                    );
                }
                assert!(
                    report.total_replication_bytes() > 0,
                    "{ctx}: buddy replication must stay live across the transition"
                );
            }
        }
    }
}

/// The driver ladder: every `Job` with one idle layer armed — an elastic
/// plan with an empty schedule and full membership (the identity the one
/// driver rests on), a recovery policy and no faults, durability on a
/// fresh store — must equal plain `run`, and the solo oracle, on the
/// trace, the per-tick fires and the spike totals.
#[test]
fn every_front_with_an_idle_layer_equals_run() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        for (world, threads) in [(2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 2)] {
            let cfg = engine(ticks, backend);
            let shape = || WorldConfig::new(world, threads);
            let ctx = format!("{backend:?} world {world} threads {threads}");
            let base = run(&model, shape(), &cfg).expect("test model must be valid");
            check_against_oracle(&model, ticks, &oracle, &oracle_fires, &base, &ctx);
            assert_eq!(
                base.total_fires(),
                oracle_fires.iter().sum::<u64>(),
                "{ctx}"
            );
            assert_eq!(
                base.total_local_spikes() + base.total_remote_spikes(),
                oracle.len() as u64,
                "{ctx}: every oracle spike is routed exactly once"
            );

            let dir = std::env::temp_dir().join(format!(
                "compass-ladder-{backend:?}-{world}-{threads}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let durability = DurabilityPolicy {
                sync: false,
                ..DurabilityPolicy::new(&dir)
            };
            let policy = RecoveryPolicy::every(4);
            let idle = ElasticPlan::new((0..world).collect(), Vec::new());
            let ladder = [
                (
                    "elastic",
                    Job {
                        recovery: Some(policy),
                        elastic: Some(idle),
                        ..Job::default()
                    }
                    .run(&model, shape(), &cfg)
                    .expect("test model must be valid"),
                ),
                (
                    "recovery",
                    Job {
                        recovery: Some(policy),
                        ..Job::default()
                    }
                    .run(&model, shape(), &cfg)
                    .expect("test model must be valid"),
                ),
                (
                    "durability",
                    Job {
                        durability: Some(durability),
                        ..Job::default()
                    }
                    .run(&model, shape(), &cfg)
                    .expect("a fresh store must persist cleanly"),
                ),
            ];
            let _ = std::fs::remove_dir_all(&dir);
            for (front, report) in &ladder {
                let ctx = format!("{ctx} {front}");
                check_against_oracle(&model, ticks, &oracle, &oracle_fires, report, &ctx);
                assert_eq!(report.trace_digest(), base.trace_digest(), "{ctx}");
                assert_eq!(report.total_fires(), base.total_fires(), "{ctx}");
                assert_eq!(
                    (report.total_local_spikes(), report.total_remote_spikes()),
                    (base.total_local_spikes(), base.total_remote_spikes()),
                    "{ctx}: local/remote split"
                );
                assert_eq!(report.total_rollbacks(), 0, "{ctx}: nothing to heal");
                assert_eq!(report.total_migrated_cores(), 0, "{ctx}: nothing to move");
            }
        }
    }
}

/// The acceptance schedule: 2 ranks grow to 3, then shrink back to 2 —
/// composed with `FaultPlan::all` message faults *and* one mid-run rank
/// crash in the widest segment. The joiner is admitted, adopts a block,
/// survives the crash verdict among three members, hands its cores back,
/// and the final trace still equals the solo oracle.
#[test]
fn scale_out_crash_and_scale_in_compose() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        for threads in [1usize, 2] {
            // 2 -> 3 at tick 7, crash rank 1 at tick 10, 3 -> 2 at 17.
            let plan = ElasticPlan::new(
                vec![0, 1],
                vec![ElasticStep::join(7, 2), ElasticStep::leave(17, 2)],
            );
            let ctx = format!("{backend:?} threads {threads} 2->3->2 with crash");
            let report = Job {
                faults: Some(FaultPlan::all(0xE1A5, 120)),
                recovery: Some(RecoveryPolicy::every(4)),
                crash: Some(CrashPlan::new(1, 10)),
                elastic: Some(plan),
                ..Job::default()
            }
            .run(
                &model,
                WorldConfig::new(3, threads),
                &engine(ticks, backend),
            )
            .expect("test model must be valid");
            check_against_oracle(&model, ticks, &oracle, &oracle_fires, &report, &ctx);
            assert_eq!(
                report.total_death_verdicts(),
                1,
                "{ctx}: the crash must produce exactly one unanimous verdict"
            );
            assert!(
                report.total_adopted_cores() > 0,
                "{ctx}: the victim's cores must be adopted from its replica"
            );
            assert!(
                report.total_migrated_cores() > 0,
                "{ctx}: both elastic boundaries must move cores"
            );
            // The victim's thread died; its slot stays empty.
            assert_eq!(report.ranks[1].fires, 0, "{ctx}: dead rank reported fires");
        }
    }
}

/// Crash *before* the first elastic boundary: the survivors absorb the
/// death, then still admit the joiner and later let it leave.
#[test]
fn crash_then_scale_out_then_scale_in() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let plan = ElasticPlan::new(
            vec![0, 1],
            vec![ElasticStep::join(9, 2), ElasticStep::leave(17, 2)],
        );
        let ctx = format!("{backend:?} crash tick 5 then 2->3->2");
        let report = Job {
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(CrashPlan::new(1, 5)),
            elastic: Some(plan),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
        .expect("test model must be valid");
        check_against_oracle(&model, ticks, &oracle, &oracle_fires, &report, &ctx);
        assert_eq!(report.total_death_verdicts(), 1, "{ctx}: one verdict");
        assert!(report.total_migrated_cores() > 0, "{ctx}: migration ran");
    }
}

/// A rank that leaves and later rejoins: its parked ticks pad the fire
/// history with zeros and its seat in the collectives, the PGAS commit
/// barrier, and the reliable layer is re-admitted cleanly.
#[test]
fn leave_then_rejoin_round_trips() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let plan = ElasticPlan::new(
            vec![0, 1, 2],
            vec![
                ElasticStep::leave(6, 1),
                ElasticStep::rebalance(12),
                ElasticStep::join(18, 1),
            ],
        );
        let ctx = format!("{backend:?} leave/rebalance/rejoin");
        let report = Job {
            recovery: Some(RecoveryPolicy::every(4)),
            elastic: Some(plan),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
        .expect("test model must be valid");
        check_against_oracle(&model, ticks, &oracle, &oracle_fires, &report, &ctx);
        assert!(report.total_migrated_cores() > 0, "{ctx}: migration ran");
    }
}

/// Builds a valid random schedule from raw proptest decisions: every
/// boundary applies a join/leave/rebalance that is legal for the
/// membership simulated so far, so the plan always validates.
fn plan_from_decisions(world: usize, decisions: &[u8]) -> ElasticPlan {
    let initial: Vec<usize> = if decisions[0].is_multiple_of(2) {
        (0..world).collect()
    } else {
        vec![usize::from(decisions[0]) % world]
    };
    let mut members = initial.clone();
    let mut steps = Vec::new();
    for (i, &d) in decisions[1..].iter().enumerate() {
        let at = 5 + 6 * i as u32;
        let standbys: Vec<usize> = (0..world).filter(|r| !members.contains(r)).collect();
        let event = match d % 3 {
            0 if !standbys.is_empty() => {
                let j = standbys[usize::from(d / 3) % standbys.len()];
                members.push(j);
                members.sort_unstable();
                ElasticStep::join(at, j)
            }
            1 if members.len() > 1 => {
                let l = members[usize::from(d / 3) % members.len()];
                members.retain(|&m| m != l);
                ElasticStep::leave(at, l)
            }
            _ => ElasticStep::rebalance(at),
        };
        steps.push(event);
    }
    ElasticPlan::new(initial, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random join/leave/rebalance schedules on random world shapes must
    /// all converge to the solo oracle on both backends.
    #[test]
    fn random_schedules_match_the_solo_oracle(
        world in 2usize..5,
        threads in 1usize..4,
        mpi in proptest::bool::ANY,
        decisions in proptest::collection::vec(proptest::num::u8::ANY, 3..5),
    ) {
        let model = NetworkModel::relay_ring(8, 8, 1);
        let ticks = 26u32;
        let (oracle, oracle_fires) = solo_oracle(&model, ticks);
        let backend = if mpi { Backend::Mpi } else { Backend::Pgas };
        let plan = plan_from_decisions(world, &decisions);
        let ctx = format!("{backend:?} world {world} threads {threads} plan {plan:?}");
        let report = Job {
            recovery: Some(RecoveryPolicy::every(4)),
            elastic: Some(plan),
            ..Job::default()
        }.run(
            &model,
            WorldConfig::new(world, threads),
            &engine(ticks, backend),
        )
        .expect("test model must be valid");
        prop_assert_eq!(report.sorted_trace(), oracle.clone(), "{}: trace diverged", ctx);
        prop_assert_eq!(
            fires_per_tick(&report, ticks),
            oracle_fires.clone(),
            "{}: per-tick fire counts diverged",
            ctx
        );
    }
}

/// CoCoMac-scale soak: a 1024-core macaque-connectome-shaped model scaled
/// out 2 -> 3 -> 4 and back down to 2 with a crash in the middle, on both
/// backends. Slow — run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "CoCoMac 1k-core soak: minutes in debug, run with --release --ignored"]
fn cocomac_1k_elastic_soak() {
    let net = compass::cocomac::macaque_network(2012);
    let (_plan, model) =
        compass::pcc::compile_serial(&net.object, 1024).expect("CoCoMac model is realizable");
    let ticks = 48u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        let plan = ElasticPlan::new(
            vec![0, 1],
            vec![
                ElasticStep::join(9, 2),
                ElasticStep::join(17, 3),
                ElasticStep::rebalance(25),
                ElasticStep::leave(33, 3),
                ElasticStep::leave(41, 2),
            ],
        );
        let ctx = format!("{backend:?} cocomac 1k 2->3->4->3->2 with crash");
        let report = Job {
            recovery: Some(RecoveryPolicy::every(8)),
            crash: Some(CrashPlan::new(1, 21)),
            elastic: Some(plan),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(4, 2), &engine(ticks, backend))
        .expect("test model must be valid");
        check_against_oracle(&model, ticks, &oracle, &oracle_fires, &report, &ctx);
        assert_eq!(report.total_death_verdicts(), 1, "{ctx}: one verdict");
        assert!(report.total_migrated_cores() > 0, "{ctx}: migration ran");
    }
}
