//! Smoke-level versions of the paper's scaling observations — not timing
//! assertions (wall-clock on a shared CI box is noise) but the *structural*
//! properties that drive the figures:
//!
//! * weak scaling holds work per rank constant, so per-rank spike totals
//!   stay flat while global totals grow linearly (Fig. 4a's setup);
//! * message count grows with rank count while spike count stays put when
//!   the model is fixed (Fig. 4b's numerator/denominator);
//! * aggregation decouples message count from spike count;
//! * on the real CoCoMac model at ≥1k cores, decomposition (backend ×
//!   ranks × threads) changes performance counters only — global fires,
//!   the per-tick fire series, and the spike-trace digest are invariant
//!   (the `macaque_at_scale` module).

use compass::cocomac::{synthetic_realtime, SyntheticParams};
use compass::comm::WorldConfig;
use compass::sim::route::{HEADER_BYTES, RECORD_BYTES};
use compass::sim::{run, Backend, EngineConfig, NetworkModel};

const TICKS: u32 = 50;

#[test]
fn weak_scaling_keeps_per_rank_load_constant() {
    // 8 cores per rank, pacemaker load: every rank fires the same amount.
    let per_rank = 8u64;
    let mut global_fires = Vec::new();
    for ranks in [1usize, 2, 4] {
        let model = NetworkModel::pacemaker(per_rank * ranks as u64, 10, 0);
        let report = run(
            &model,
            WorldConfig::flat(ranks),
            &EngineConfig::new(TICKS, Backend::Mpi),
        )
        .unwrap();
        let per_rank_fires: Vec<u64> = report.ranks.iter().map(|r| r.fires).collect();
        let first = per_rank_fires[0];
        assert!(
            per_rank_fires.iter().all(|&f| f == first),
            "weak scaling imbalance: {per_rank_fires:?}"
        );
        global_fires.push(report.total_fires());
    }
    // Global work doubles with the machine.
    assert_eq!(global_fires[1], 2 * global_fires[0]);
    assert_eq!(global_fires[2], 4 * global_fires[0]);
}

#[test]
fn fixed_model_message_count_grows_with_ranks_spikes_do_not() {
    let model = synthetic_realtime(SyntheticParams {
        cores: 24,
        ranks: 8, // structure supports up to 8 ranks of remote traffic
        local_fraction: 0.5,
        rate_hz: 100,
        seed: 4,
    });
    let mut messages = Vec::new();
    let mut fires = Vec::new();
    for ranks in [2usize, 4, 8] {
        let report = run(
            &model,
            WorldConfig::flat(ranks),
            &EngineConfig::new(TICKS, Backend::Mpi),
        )
        .unwrap();
        messages.push(report.total_messages());
        fires.push(report.total_fires());
    }
    assert_eq!(fires[0], fires[1]);
    assert_eq!(fires[1], fires[2]);
    assert!(
        messages[0] < messages[1] && messages[1] < messages[2],
        "more ranks must mean more (aggregated) messages: {messages:?}"
    );
    // Aggregation caps messages at one per ordered rank pair per tick,
    // regardless of how many spikes flow — the mechanism behind the
    // paper's sub-linear message growth (spike volume is what grows with
    // the model; message count grows only with the communicator).
    for (&m, ranks) in messages.iter().zip([2u64, 4, 8]) {
        assert!(
            m <= ranks * (ranks - 1) * u64::from(TICKS),
            "messages {m} exceed the pair x tick cap at {ranks} ranks"
        );
    }
}

#[test]
fn byte_volume_accounting_matches_wire_format() {
    let model = synthetic_realtime(SyntheticParams {
        cores: 16,
        ranks: 4,
        local_fraction: 0.5,
        rate_hz: 100,
        seed: 9,
    });
    let report = run(
        &model,
        WorldConfig::flat(4),
        &EngineConfig::new(TICKS, Backend::Mpi),
    )
    .unwrap();
    // The transport carries one 8-byte record per white-matter spike and
    // one 16-byte header per message (`compass::sim::route`); the transport
    // metrics must agree exactly. Fig. 4b's 20 bytes per spike is the
    // paper's accounting, which `fig4b_messaging` prints beside this.
    assert!(report.total_messages() > 0);
    assert_eq!(
        report.transport.p2p_bytes,
        RECORD_BYTES as u64 * report.total_remote_spikes()
            + HEADER_BYTES as u64 * report.total_messages()
    );
}

#[test]
fn pgas_replaces_messages_with_puts_and_barriers() {
    let model = synthetic_realtime(SyntheticParams {
        cores: 16,
        ranks: 4,
        local_fraction: 0.5,
        rate_hz: 100,
        seed: 9,
    });
    let mpi = run(
        &model,
        WorldConfig::flat(4),
        &EngineConfig::new(TICKS, Backend::Mpi),
    )
    .unwrap();
    let pgas = run(
        &model,
        WorldConfig::flat(4),
        &EngineConfig::new(TICKS, Backend::Pgas),
    )
    .unwrap();
    // Same spikes moved...
    assert_eq!(mpi.total_remote_spikes(), pgas.total_remote_spikes());
    // ...but via puts (and exactly one barrier per rank per tick), with no
    // two-sided traffic and no reduce-scatter.
    assert_eq!(pgas.transport.p2p_messages, 0);
    assert!(pgas.transport.puts > 0);
    assert_eq!(pgas.transport.barriers, 4 * u64::from(TICKS));
    assert_eq!(pgas.transport.collective_ops, 0);
    assert!(
        mpi.transport.collective_ops > 0,
        "MPI path uses the collective"
    );
}

#[test]
fn per_spike_ablation_explodes_message_count() {
    let model = synthetic_realtime(SyntheticParams {
        cores: 16,
        ranks: 4,
        local_fraction: 0.5,
        rate_hz: 100,
        seed: 9,
    });
    let mk = |aggregate| EngineConfig {
        ticks: TICKS,
        backend: Backend::Mpi,
        aggregate,
        ..EngineConfig::default()
    };
    let agg = run(&model, WorldConfig::flat(4), &mk(true)).unwrap();
    let per_spike = run(&model, WorldConfig::flat(4), &mk(false)).unwrap();
    assert_eq!(agg.total_fires(), per_spike.total_fires());
    assert!(
        per_spike.total_messages() > 5 * agg.total_messages(),
        "aggregation should collapse message counts: {} vs {}",
        per_spike.total_messages(),
        agg.total_messages()
    );
}

/// Strong-scaling structure on the real merged-CoCoMac model at 1k cores.
///
/// Wiring output depends on the rank count (each rank draws its own delay
/// stream), so cross-decomposition comparisons hold the *model* fixed:
/// compile once serially, then sweep how the same `NetworkModel` is run.
/// The engine's decomposition invariance then makes three observables
/// exact oracles across {Mpi, Pgas} × ranks × threads: global fires, the
/// global per-tick fire series, and the canonical spike-trace digest.
mod macaque_at_scale {
    use super::*;
    use compass::cocomac::macaque_network;
    use compass::pcc::compile_serial;
    use std::sync::OnceLock;
    use std::time::Duration;

    const CORES: u64 = 1024;
    const MTICKS: u32 = 40;

    /// Compiled once per test binary — serial compile of the 1k-core
    /// CoCoMac model is the expensive part, not the runs.
    fn model() -> &'static NetworkModel {
        static MODEL: OnceLock<NetworkModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let net = macaque_network(2012);
            let (_, model) = compile_serial(&net.object, CORES).expect("CoCoMac is realizable");
            assert_eq!(model.total_cores(), CORES);
            model
        })
    }

    struct Observed {
        fires: u64,
        digest: u64,
        fires_per_tick: Vec<u64>,
    }

    fn observe(world: WorldConfig, backend: Backend) -> Observed {
        let report = run(
            model(),
            world,
            &EngineConfig {
                ticks: MTICKS,
                backend,
                record_trace: true,
                tick_stats: true,
                ..EngineConfig::default()
            },
        )
        .expect("valid model");
        let mut fires_per_tick = vec![0u64; MTICKS as usize];
        for rank in &report.ranks {
            for (tick, &f) in rank.fires_per_tick.iter().enumerate() {
                fires_per_tick[tick] += f;
            }
        }
        Observed {
            fires: report.total_fires(),
            digest: report.trace_digest(),
            fires_per_tick,
        }
    }

    fn assert_matches_baseline(o: &Observed, base: &Observed, what: &str) {
        assert_eq!(o.fires, base.fires, "global fires diverged under {what}");
        assert_eq!(
            o.fires_per_tick, base.fires_per_tick,
            "per-tick fire series diverged under {what}"
        );
        assert_eq!(
            o.digest, base.digest,
            "spike-trace digest diverged under {what}"
        );
    }

    #[test]
    fn strong_scaling_invariants_hold_on_macaque_1k() {
        let base = observe(WorldConfig::flat(1), Backend::Mpi);
        assert!(base.fires > 0, "1k-core CoCoMac must fire within 40 ticks");
        assert!(
            base.fires_per_tick.iter().any(|&f| f > 0),
            "tick stats must see the fires"
        );
        // Spot-check the matrix corners; the full sweep is the ignored
        // release test below.
        for (ranks, threads, backend) in [
            (2usize, 1usize, Backend::Mpi),
            (4, 2, Backend::Mpi),
            (1, 4, Backend::Mpi),
            (2, 2, Backend::Pgas),
            (4, 4, Backend::Pgas),
        ] {
            let o = observe(WorldConfig::new(ranks, threads), backend);
            assert_matches_baseline(
                &o,
                &base,
                &format!("{backend:?} x {ranks} ranks x {threads} threads"),
            );
        }
    }

    #[test]
    #[ignore = "full 32-combo matrix; run by the CI scaling job in release"]
    fn macaque_full_matrix_is_decomposition_invariant() {
        let base = observe(WorldConfig::flat(1), Backend::Mpi);
        assert!(base.fires > 0);
        for backend in [Backend::Mpi, Backend::Pgas] {
            for ranks in 1usize..=4 {
                for threads in 1usize..=4 {
                    let o = observe(WorldConfig::new(ranks, threads), backend);
                    assert_matches_baseline(
                        &o,
                        &base,
                        &format!("{backend:?} x {ranks} ranks x {threads} threads"),
                    );
                }
            }
        }
    }

    #[test]
    fn scaling_counters_populate_on_macaque() {
        // The counters the bench_scaling artifact is built from must
        // actually move on a real multi-rank multi-thread run.
        let mpi = run(
            model(),
            WorldConfig::new(2, 4),
            &EngineConfig::new(MTICKS, Backend::Mpi),
        )
        .unwrap();
        assert!(
            mpi.collective_time() > Duration::ZERO,
            "Reduce-scatter wall time unaccounted"
        );
        assert!(
            mpi.total_inbox_routed() > 0,
            "cross-thread inbox traffic unaccounted at 4 threads"
        );
        assert!(
            mpi.total_staging_bytes() > 0,
            "staging-buffer footprint unaccounted"
        );
        // The PGAS path books its commit barrier under the same counter.
        let pgas = run(
            model(),
            WorldConfig::flat(2),
            &EngineConfig::new(MTICKS, Backend::Pgas),
        )
        .unwrap();
        assert!(
            pgas.collective_time() > Duration::ZERO,
            "PGAS commit barrier unaccounted"
        );
    }
}
