//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md for the index). They share the
//! machinery here: compile-and-simulate runs over the CoCoMac model with
//! per-phase timing, plain-text table rendering, and environment notes.
//!
//! **Reading the numbers.** The paper ran on up to 16 Blue Gene/Q racks;
//! this reproduction multiplexes its "ranks" onto however many hardware
//! threads the host has (possibly one). Wall-clock *levels* are therefore
//! not comparable, and on a single hardware thread adding ranks cannot
//! reduce wall time. What does reproduce faithfully:
//!
//! * communication *structure*: spike counts, message counts, byte
//!   volumes, and their growth with scale (Fig. 4b);
//! * relative *overhead* between communication models (Fig. 7's PGAS vs
//!   MPI) and between design choices (the ablations);
//! * per-phase work breakdown and its shift toward the Network phase as
//!   the communicator grows (Figs. 4a/5/6's qualitative story);
//! * per-rank load balance under weak scaling.
//!
//! Each binary prints the caveat applicable to its figure.

use compass_cocomac::macaque_network;
use compass_comm::{MetricsSnapshot, TransportMetrics, World, WorldConfig};
use compass_pcc::{compile_with_placement, CompileStats, Placement};
use compass_sim::{run_rank, Backend, EngineConfig, PhaseTimes, RankReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod json;
pub mod torus;

/// Summary of one compile-and-simulate run of the CoCoMac model.
#[derive(Debug, Clone)]
pub struct CocomacRun {
    /// World shape used.
    pub world: WorldConfig,
    /// Total cores simulated.
    pub cores: u64,
    /// Simulated ticks.
    pub ticks: u32,
    /// Wall-clock time of the simulation loop (compile excluded, as in
    /// the paper).
    pub wall: Duration,
    /// Wall-clock time of the in-situ parallel compile.
    pub compile_wall: Duration,
    /// Slowest-rank phase breakdown.
    pub phases: PhaseTimes,
    /// Per-rank reports.
    pub ranks: Vec<RankReport>,
    /// Transport counters for the simulation (compile traffic excluded).
    pub transport: MetricsSnapshot,
    /// Rank-0 compile statistics.
    pub compile_stats: CompileStats,
}

impl CocomacRun {
    /// Total fires across ranks.
    pub fn fires(&self) -> u64 {
        self.ranks.iter().map(|r| r.fires).sum()
    }

    /// White-matter spikes per tick.
    pub fn remote_spikes_per_tick(&self) -> f64 {
        self.ranks.iter().map(|r| r.spikes_remote).sum::<u64>() as f64 / f64::from(self.ticks)
    }

    /// Aggregated messages per tick.
    pub fn messages_per_tick(&self) -> f64 {
        self.ranks.iter().map(|r| r.messages_sent).sum::<u64>() as f64 / f64::from(self.ticks)
    }

    /// Mean firing rate in Hz.
    pub fn rate_hz(&self) -> f64 {
        self.fires() as f64 / (self.cores as f64 * 256.0) / f64::from(self.ticks) * 1000.0
    }

    /// Wall seconds per simulated second (the paper's "N× slower than
    /// real time").
    pub fn slowdown(&self) -> f64 {
        self.wall.as_secs_f64() / (f64::from(self.ticks) * 1e-3)
    }
}

/// Compiles the CoCoMac model at `cores` total cores onto `world` and
/// simulates `ticks` ticks with `backend`, collecting everything the
/// figures need. The model seed is fixed so sweeps are comparable.
pub fn cocomac_run(cores: u64, world: WorldConfig, ticks: u32, backend: Backend) -> CocomacRun {
    cocomac_run_with(cores, world, &EngineConfig::new(ticks, backend))
}

/// [`cocomac_run`] with full control over the engine configuration —
/// ablations toggle `overlap`, `aggregate`, `critical_recv`, etc. without
/// re-rolling the compile-and-simulate boilerplate.
pub fn cocomac_run_with(cores: u64, world: WorldConfig, engine: &EngineConfig) -> CocomacRun {
    cocomac_run_placed(cores, world, engine, Placement::default())
}

/// The fully general harness entry: CoCoMac compile-and-simulate with an
/// explicit engine configuration and placement policy.
pub fn cocomac_run_placed(
    cores: u64,
    world: WorldConfig,
    engine: &EngineConfig,
    placement: Placement,
) -> CocomacRun {
    let net = macaque_network(2012);
    let object = Arc::new(net.object);
    let metrics = Arc::new(TransportMetrics::new());
    let ticks = engine.ticks;
    let engine = *engine;
    let compile_t0 = Instant::now();
    // Compile and simulate inside one world, but time them separately and
    // snapshot metrics in between so the figures report simulation traffic
    // only (the paper excludes compilation from its numbers too).
    let metrics_in = Arc::clone(&metrics);
    let results = World::run_with_metrics(world, Arc::clone(&metrics), move |ctx| {
        let compiled = compile_with_placement(ctx, &object, cores, placement)
            .expect("CoCoMac model is realizable");
        ctx.comm().barrier();
        let compile_done = Instant::now();
        let before = metrics_in.snapshot();
        let partition = compiled.plan.partition.clone();
        let report = run_rank(ctx, &partition, compiled.configs, &[], &engine);
        let sim_done = Instant::now();
        (report, compiled.stats, compile_done, before, sim_done)
    });

    let compile_done = results.iter().map(|r| r.2).max().expect("nonempty");
    let sim_done = results.iter().map(|r| r.4).max().expect("nonempty");
    let before = results[0].3;
    let compile_wall = compile_done.duration_since(compile_t0);
    let wall = sim_done.duration_since(compile_done);
    let compile_stats = results[0].1;
    let ranks: Vec<RankReport> = results.into_iter().map(|r| r.0).collect();
    let phases = ranks
        .iter()
        .fold(PhaseTimes::default(), |acc, r| acc.max(&r.phases));
    CocomacRun {
        world,
        cores,
        ticks,
        wall,
        compile_wall,
        phases,
        transport: metrics.snapshot().since(&before),
        ranks,
        compile_stats,
    }
}

/// Prints a header banner common to all figure binaries.
pub fn banner(figure: &str, paper_setup: &str, here_setup: &str) {
    println!("================================================================");
    println!("{figure}");
    println!("  paper: {paper_setup}");
    println!("  here : {here_setup}");
    println!(
        "  host : {} hardware thread(s) — wall-clock levels are not BG/Q-comparable; shapes and counts are",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("================================================================");
}

/// Formats a `Duration` as fractional seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a `Duration` as milliseconds with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cocomac_run_smoke() {
        // 200 ticks: long enough for the ~128-tick expected first crossing
        // of the stochastic-leak relays and the 125-tick pacemakers.
        let run = cocomac_run(77, WorldConfig::flat(2), 200, Backend::Mpi);
        assert_eq!(run.cores, 77);
        assert_eq!(run.ranks.len(), 2);
        assert!(run.fires() > 0);
        assert!(run.wall.as_nanos() > 0);
        assert!(run.compile_wall.as_nanos() > 0);
        assert!(run.rate_hz() > 0.5, "rate {}", run.rate_hz());
        assert!(run.transport.p2p_messages > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(ms(Duration::from_micros(2500)), "2.5");
    }
}
