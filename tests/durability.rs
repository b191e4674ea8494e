//! Durable checkpoints and whole-job restart: a run that dies — cleanly,
//! mid-write, or by losing a rank — and is relaunched over the same store
//! must finish with a spike trace bit-identical to the solo oracle.
//!
//! The "kill" is modeled by running a durable `Job` for a prefix of the
//! ticks (exactly what a job that died at that tick leaves on disk) and
//! then relaunching with the full tick count; torn writes are modeled by
//! corrupting the store between the two launches with the same primitives
//! a crash mid-`write(2)` produces: truncated temp files, truncated
//! manifests, bit flips, and missing renames.

use std::fs;
use std::path::{Path, PathBuf};

use compass::comm::{
    CrashPlan, FaultPlan, RankFailure, ReliableConfig, ReliableWorld, TransportMetrics, World,
    WorldConfig,
};
use compass::sim::{
    run_rank_with, Backend, CheckpointStore, DurabilityPolicy, GenKind, Job, NetworkModel,
    Partition, RankCheckpoint, RecoveryPolicy, RunOptions, RunOutcome, RunReport,
};
use compass::tn::Spike;
use std::sync::Arc;

mod common;
use common::{engine, fires_per_tick, solo_oracle, sort_key};

/// A fresh scratch store directory, unique per test and process.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("compass-durability-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn policy(dir: &Path) -> DurabilityPolicy {
    DurabilityPolicy {
        sync: false, // tmpfs in tests; the sync path is covered separately
        ..DurabilityPolicy::new(dir)
    }
}

/// All store files with the given extension, sorted by name (= by
/// generation, thanks to the zero-padded naming scheme).
fn store_files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    v.sort();
    v
}

fn truncate(path: &Path, to: u64) {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(to).expect("truncate");
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = fs::read(path).expect("read for flip");
    let at = at % bytes.len();
    bytes[at] ^= 0x40;
    fs::write(path, bytes).expect("write flipped");
}

/// Asserts the durable path actually ran and the store is coherent.
fn assert_durable_evidence(report: &RunReport, dir: &Path, ctx: &str) {
    assert!(
        report.total_durable_generations() > 0,
        "{ctx}: no durable generations persisted"
    );
    assert!(
        report.total_durable_bytes() > 0,
        "{ctx}: no durable bytes written"
    );
    let store = CheckpointStore::open(dir, false).expect("reopen store");
    let fsck = store.fsck().expect("fsck");
    assert!(
        fsck.clean(),
        "{ctx}: store failed fsck after a clean run: {:?}",
        fsck.generations
            .iter()
            .filter(|g| !g.ok)
            .map(|g| (g.manifest.gen, g.detail.clone()))
            .collect::<Vec<_>>()
    );
}

/// Both backends × ranks 1..4 × threads 1..4, message faults layered on:
/// a job killed mid-run and relaunched over its store must converge to
/// the solo oracle bit for bit, and the steady state must ship deltas.
#[test]
fn restart_matrix_matches_the_solo_oracle() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let kill = 13u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);
    assert!(!oracle.is_empty());

    for backend in [Backend::Mpi, Backend::Pgas] {
        for (ranks, threads) in [(1, 1), (1, 2), (2, 3), (3, 2), (4, 1), (4, 4)] {
            let ctx = format!("{backend:?} ranks {ranks} threads {threads}");
            let dir = scratch(&format!("matrix-{backend:?}-{ranks}-{threads}"));
            let world = || WorldConfig::new(ranks, threads);
            let plan = Some(FaultPlan::all(4242, 100));
            let pol = Some(RecoveryPolicy::every(4));

            // Phase 1: the job dies at tick `kill`; its partial trace is
            // lost with the process, only the store survives.
            let dead = Job {
                faults: plan,
                recovery: pol,
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, world(), &engine(kill, backend))
            .expect("phase 1 must persist cleanly");
            assert_durable_evidence(&dead, &dir, &format!("{ctx} phase 1"));

            // The store must hold full anchors *and* delta generations.
            let store = CheckpointStore::open(&dir, false).expect("reopen");
            let manifests = store.manifests().expect("manifests");
            assert!(
                manifests.iter().any(|m| matches!(m.kind, GenKind::Full)),
                "{ctx}: no full generation on disk"
            );
            assert!(
                manifests.iter().any(|m| matches!(m.kind, GenKind::Delta)),
                "{ctx}: no delta generation on disk"
            );

            // Phase 2: relaunch over the same store, run to completion.
            let report = Job {
                faults: plan,
                recovery: pol,
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, world(), &engine(ticks, backend))
            .expect("restart must persist cleanly");
            assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
            assert_eq!(
                fires_per_tick(&report, ticks),
                oracle_fires,
                "{ctx}: per-tick fire counts diverged"
            );
            assert_durable_evidence(&report, &dir, &format!("{ctx} phase 2"));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Every torn-write shape a mid-write kill can leave behind — a stray
/// temp file, a truncated manifest, a truncated rank file, a bit flip
/// under the CRC, a manifest whose rank file never got renamed — must
/// degrade the restart to the previous committed generation, never to a
/// panic or a wrong trace.
#[test]
fn torn_writes_degrade_to_the_previous_generation() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let kill = 14u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    type Corruptor = fn(&Path);
    let variants: [(&str, Corruptor); 5] = [
        ("stray-temp", |dir| {
            fs::write(
                dir.join(".tmp-g000000000099-r0000.ckpt"),
                b"partial garbage",
            )
            .expect("write stray temp");
        }),
        ("torn-manifest", |dir| {
            let m = store_files(dir, "mft");
            let newest = m.last().expect("at least one manifest");
            truncate(newest, 11);
        }),
        ("torn-rank-file", |dir| {
            let c = store_files(dir, "ckpt");
            let newest = c.last().expect("at least one rank file");
            let len = fs::metadata(newest).expect("meta").len();
            truncate(newest, len / 2);
        }),
        ("bit-flip", |dir| {
            let c = store_files(dir, "ckpt");
            let newest = c.last().expect("at least one rank file");
            flip_byte(newest, 40);
        }),
        ("missing-rename", |dir| {
            // The manifest committed but a rank file vanished — the shape
            // of a directory that lost an entry before its fsync landed.
            let c = store_files(dir, "ckpt");
            let newest = c.last().expect("at least one rank file");
            fs::remove_file(newest).expect("remove rank file");
        }),
    ];

    for backend in [Backend::Mpi, Backend::Pgas] {
        for (name, corrupt) in &variants {
            let ctx = format!("{backend:?} {name}");
            let dir = scratch(&format!("torn-{backend:?}-{name}"));
            Job {
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, WorldConfig::new(2, 2), &engine(kill, backend))
            .expect("phase 1 must persist cleanly");
            let before = CheckpointStore::open(&dir, false)
                .expect("reopen")
                .recover(2)
                .expect("recover")
                .expect("phase 1 left generations")
                .gen;

            corrupt(&dir);

            // The wound must be visible to fsck — as a broken generation
            // or as an orphaned file (stray temps and the rank files of a
            // decommitted torn manifest surface as orphans) — and
            // invisible to recovery.
            let store = CheckpointStore::open(&dir, false).expect("reopen");
            let fsck = store.fsck().expect("fsck");
            assert!(
                !fsck.clean() || !fsck.orphans.is_empty(),
                "{ctx}: fsck missed the corruption"
            );
            let resumed = store
                .recover(2)
                .expect("recover must degrade, not fail")
                .expect("an older generation must survive");
            if *name != "stray-temp" {
                assert!(
                    resumed.gen < before,
                    "{ctx}: recovery did not fall back (gen {} vs {before})",
                    resumed.gen
                );
            }

            let report = Job {
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, WorldConfig::new(2, 2), &engine(ticks, backend))
            .expect("restart over a torn store must succeed");
            assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
            assert_eq!(
                fires_per_tick(&report, ticks),
                oracle_fires,
                "{ctx}: per-tick fire counts diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Durability composes with the crash-survival protocol: a rank dies
/// mid-run (with message faults layered on), the survivors adopt and
/// finish, and a *restart* of the same job — whose store predates the
/// crash, since generations past the victim's death can never commit —
/// re-fires the plan and still converges to the oracle.
#[test]
fn crash_composes_with_durable_restart() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let ticks = 30u32;
    let crash = CrashPlan::new(1, 11);
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);

    for backend in [Backend::Mpi, Backend::Pgas] {
        // One-shot: empty store, crash mid-run, survivors finish durable.
        let ctx = format!("{backend:?} one-shot crash");
        let dir = scratch(&format!("crash-{backend:?}"));
        let report = Job {
            faults: Some(FaultPlan::all(1213, 100)),
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(crash),
            durability: Some(policy(&dir)),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
        .expect("crash run must complete");
        assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
        assert_eq!(
            fires_per_tick(&report, ticks),
            oracle_fires,
            "{ctx}: per-tick fire counts diverged"
        );
        assert_eq!(report.total_death_verdicts(), 1, "{ctx}: no verdict");
        assert!(report.total_durable_generations() > 0, "{ctx}");

        // Restarted: the job died before the victim did (its store holds
        // only pre-crash generations), so the relaunch must re-fire the
        // crash plan and survive it again.
        let ctx = format!("{backend:?} restart + crash");
        let dir2 = scratch(&format!("crash-restart-{backend:?}"));
        Job {
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(crash), // pending: tick 11 is past this prefix
            durability: Some(policy(&dir2)),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(3, 2), &engine(9, backend))
        .expect("pre-crash prefix must persist");
        let report = Job {
            faults: Some(FaultPlan::all(77, 100)),
            recovery: Some(RecoveryPolicy::every(4)),
            crash: Some(crash),
            durability: Some(policy(&dir2)),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
        .expect("restarted crash run must complete");
        assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
        assert_eq!(
            fires_per_tick(&report, ticks),
            oracle_fires,
            "{ctx}: per-tick fire counts diverged"
        );
        assert_eq!(report.total_death_verdicts(), 1, "{ctx}: no verdict");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}

/// Relaunching a job that already ran to completion is a no-op replay of
/// the tail: same trace, no errors, and the fsync-on discipline holds.
#[test]
fn completed_job_relaunch_is_idempotent() {
    let model = NetworkModel::relay_ring(6, 8, 1);
    let ticks = 24u32;
    let (oracle, _) = solo_oracle(&model, ticks);
    let dir = scratch("idempotent");
    // Real fsync discipline on this one.
    let pol = DurabilityPolicy::new(&dir);
    for round in 0..2 {
        let report = Job {
            durability: Some(pol.clone()),
            ..Job::default()
        }
        .run(&model, WorldConfig::new(2, 2), &engine(ticks, Backend::Mpi))
        .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(report.sorted_trace(), oracle, "round {round}");
        assert_durable_evidence(&report, &dir, &format!("round {round}"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Bytes are the contract: the store a fixed run leaves behind — every
/// file's name and every byte of full and delta frame, manifest and CRC
/// footer — is pinned by digest. The constant was recorded when rank
/// state moved to the one versioned frame and the manifest to version 2.
#[test]
fn store_bytes_match_the_golden_digest() {
    const GOLDEN: u64 = 0xd0aa_0126_d0c8_9d3b;
    let model = NetworkModel::relay_ring(20, 8, 1);
    let dir = scratch("golden");
    let pol = DurabilityPolicy {
        retain: 0, // keep every generation: all of them are digested
        ..policy(&dir)
    };
    let report = Job {
        durability: Some(pol),
        ..Job::default()
    }
    .run(&model, WorldConfig::new(2, 1), &engine(24, Backend::Mpi))
    .expect("clean run");
    assert_durable_evidence(&report, &dir, "golden");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    // 6 generations (ticks 0, 4, .., 20) of 2 rank files and a manifest.
    assert_eq!(files.len(), 18, "{files:?}");
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in &files {
        eat(path.file_name().expect("name").as_encoded_bytes());
        eat(&fs::read(path).expect("read store file"));
    }
    assert_eq!(digest, GOLDEN, "store bytes moved: {digest:#018x}");
    let _ = fs::remove_dir_all(&dir);
}

/// The boundary every snapshot consumer shares: the explicit checkpoint,
/// the newest checkpoint, the buddy replica and the durable generation
/// all fall on tick 10 of a 2x2 world, while the relay ring's
/// whole wavefront sits in a cross-thread inbox (core 0 fired at tick 9
/// into core 1; the worker thread routed it, thread 0 owns core 1). The
/// pool is snapshotted once there: the newest checkpoint keeps the
/// snapshot, the replica ships from it and the durable stage copies it.
/// The three copies that leave the rank must hold byte-identical core
/// blobs, and a restart from any of them must reproduce the oracle — a
/// snapshot that missed the inbox would lose all eight spikes and kill
/// the ring.
#[test]
fn coinciding_boundary_consumers_share_one_snapshot() {
    let model = NetworkModel::relay_ring(8, 8, 1);
    let (boundary, ticks) = (10u32, 24u32);
    let (oracle, _) = solo_oracle(&model, ticks);
    let world = WorldConfig::new(2, 2);
    let partition = Partition::uniform(model.total_cores(), world.ranks);
    let configs = |rank: usize| model.cores[partition.block(rank).start as usize..][..4].to_vec();

    for backend in [Backend::Mpi, Backend::Pgas] {
        // One engine call per rank with all three layers armed on the same
        // cadence, inside a reliable world (ring and replicas need one).
        let launch = |dir: &Path, run_ticks: u32, crash: Option<CrashPlan>| {
            let metrics = Arc::new(TransportMetrics::new());
            let rely = Arc::new(ReliableWorld::new(
                world.ranks,
                Arc::clone(&metrics),
                ReliableConfig::default(),
            ));
            let opts = RunOptions {
                checkpoint_at: Some(boundary),
                recovery: Some(RecoveryPolicy::surviving(boundary)),
                crash,
                durability: Some(DurabilityPolicy {
                    every: boundary,
                    ..policy(dir)
                }),
                ..RunOptions::default()
            };
            let cfg = engine(run_ticks, backend);
            World::try_run_with_recovery(world, metrics, None, Some(rely), |ctx| {
                run_rank_with(
                    ctx,
                    &partition,
                    configs(ctx.rank()),
                    &model.initial_deliveries,
                    &cfg,
                    &opts,
                )
            })
        };
        let ok = |r: Result<RunOutcome, RankFailure>| r.expect("no rank may die here");

        // Run A finishes cleanly: explicit checkpoints and the store.
        let dir_a = scratch(&format!("coincide-a-{backend:?}"));
        let a: Vec<RunOutcome> = launch(&dir_a, 16, None).into_iter().map(ok).collect();
        assert!(a.iter().all(|o| o.durable_error.is_none()));
        assert!(
            a[0].report.inbox_routed > 0,
            "{backend:?}: the wavefront must cross threads through an inbox"
        );
        let explicit: Vec<RankCheckpoint> = a
            .iter()
            .map(|o| o.checkpoint.clone().expect("checkpoint_at was reached"))
            .collect();
        let stored = CheckpointStore::open(&dir_a, false)
            .expect("reopen store")
            .recover(world.ranks as u32)
            .expect("scan store")
            .expect("generation 10 committed");
        assert_eq!(stored.tick, boundary, "{backend:?}: newest generation");

        // Run B loses rank 1 at tick 12: the survivor's interrupt exposes
        // its ring's newest entry and the victim's replica, both cut at 10.
        let dir_b = scratch(&format!("coincide-b-{backend:?}"));
        let mut b = launch(&dir_b, ticks, Some(CrashPlan::new(1, 12))).into_iter();
        let survivor = ok(b.next().expect("rank 0"));
        assert!(b.next().expect("rank 1").is_err(), "the victim dies");
        let int = survivor.interrupt.expect("the verdict interrupts rank 0");
        let replica = int.adopted.expect("rank 0 is rank 1's buddy").ckpt;
        let ring = [int.resume, replica];

        for rank in 0..world.ranks {
            let ctx = format!("{backend:?} rank {rank}");
            assert_eq!(explicit[rank].start_tick(), boundary, "{ctx}");
            assert_eq!(ring[rank], explicit[rank], "{ctx}: ring vs checkpoint_at");
            assert_eq!(
                stored.payloads[rank].ckpt, explicit[rank],
                "{ctx}: durable generation vs checkpoint_at"
            );
        }
        assert_eq!(
            survivor.checkpoint.as_ref(),
            Some(&explicit[0]),
            "{backend:?}: both runs cut the same boundary"
        );

        // Restart from each consumer's copy: the in-memory ones resume a
        // plain world and must reproduce the oracle's suffix ...
        let suffix: Vec<Spike> = oracle
            .iter()
            .copied()
            .filter(|s| s.fired_at >= boundary)
            .collect();
        for (name, cks) in [("checkpoint_at", &explicit[..]), ("ring", &ring[..])] {
            let cfg = engine(ticks, backend);
            let mut trace: Vec<Spike> = World::run(world, |ctx| {
                let opts = RunOptions {
                    resume: Some(cks[ctx.rank()].clone()),
                    ..RunOptions::default()
                };
                let deliveries = &model.initial_deliveries;
                run_rank_with(
                    ctx,
                    &partition,
                    configs(ctx.rank()),
                    deliveries,
                    &cfg,
                    &opts,
                )
                .report
                .trace
            })
            .into_iter()
            .flatten()
            .collect();
            trace.sort_by_key(sort_key);
            assert_eq!(trace, suffix, "{backend:?}: restart from the {name} blobs");
        }
        // ... and the store relaunches the whole job, history included.
        let relaunched = Job {
            durability: Some(DurabilityPolicy {
                every: boundary,
                ..policy(&dir_a)
            }),
            ..Job::default()
        }
        .run(&model, world, &engine(ticks, backend))
        .expect("restart must persist cleanly");
        assert_eq!(
            relaunched.sorted_trace(),
            oracle,
            "{backend:?}: store restart"
        );
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }
}

/// Release-mode soak for CI: randomized mid-write wounds. Each round
/// kills the job at a seeded tick, then truncates or corrupts a seeded
/// store file at a seeded byte offset — the shapes `kill -9` during
/// `write(2)`/`rename(2)` produces — and the relaunch must still match
/// the oracle bit for bit. 3 seeds × both backends.
#[test]
#[ignore = "release-mode soak; run with --ignored in the CI `ignored` job"]
fn soak_randomized_torn_writes() {
    let model = NetworkModel::relay_ring(10, 10, 1);
    let ticks = 60u32;
    let (oracle, oracle_fires) = solo_oracle(&model, ticks);
    assert!(!oracle.is_empty());

    for seed in [0xA5A5_0001u64, 0xA5A5_0002, 0xA5A5_0003] {
        let mut lcg = seed;
        let mut draw = |bound: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % bound
        };
        for backend in [Backend::Mpi, Backend::Pgas] {
            let kill = 6 + draw(u64::from(ticks) - 12) as u32;
            let ctx = format!("{backend:?} seed {seed:#x} kill {kill}");
            let dir = scratch(&format!("soak-{backend:?}-{seed:x}"));
            Job {
                faults: Some(FaultPlan::all(seed, 100)),
                recovery: Some(RecoveryPolicy::every(4)),
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, WorldConfig::new(3, 2), &engine(kill, backend))
            .expect("phase 1 must persist cleanly");

            // Wound 1..=3 files: torn temp, truncation, or bit flip at a
            // drawn offset.
            for _ in 0..=draw(3) {
                let kind = draw(3);
                match kind {
                    0 => {
                        let tmp = dir.join(format!(".tmp-g{:012}-r0000.ckpt", draw(1 << 20)));
                        fs::write(tmp, vec![0xEE; draw(4096) as usize + 1]).expect("stray temp");
                    }
                    1 => {
                        let mut files = store_files(&dir, "mft");
                        files.extend(store_files(&dir, "ckpt"));
                        let f = &files[draw(files.len() as u64) as usize];
                        let len = fs::metadata(f).expect("meta").len();
                        truncate(f, draw(len.max(1)));
                    }
                    _ => {
                        let files = store_files(&dir, "ckpt");
                        let f = &files[draw(files.len() as u64) as usize];
                        flip_byte(f, draw(1 << 16) as usize);
                    }
                }
            }

            let report = Job {
                faults: Some(FaultPlan::all(seed ^ 0xFF, 100)),
                recovery: Some(RecoveryPolicy::every(4)),
                durability: Some(policy(&dir)),
                ..Job::default()
            }
            .run(&model, WorldConfig::new(3, 2), &engine(ticks, backend))
            .expect("restart over the wounded store must succeed");
            assert_eq!(report.sorted_trace(), oracle, "{ctx}: trace diverged");
            assert_eq!(
                fires_per_tick(&report, ticks),
                oracle_fires,
                "{ctx}: per-tick fire counts diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
