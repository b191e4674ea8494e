//! Extension: network activity over time — paper purpose (b), "studying
//! TrueNorth dynamics".
//!
//! Runs the CoCoMac model with per-tick statistics enabled and prints the
//! population activity curve as a text sparkline: the pacemaker-driven
//! onset (thalamic relays at 8 Hz), the stochastic-leak relays reaching
//! their ~128-tick first crossings, and the settled steady state around
//! the paper's 8 Hz operating point.

use compass_bench::banner;
use compass_cocomac::macaque_network;
use compass_comm::{World, WorldConfig};
use compass_pcc::compile;
use compass_sim::{run_rank, Backend, EngineConfig};
use std::sync::Arc;

fn main() {
    let cores = 154u64;
    let ticks = 400u32;
    banner(
        "Extension — population activity over time (paper purpose (b))",
        "Compass exists to study TrueNorth dynamics; this is the basic instrument",
        &format!("{cores}-core CoCoMac model, {ticks} ticks, per-tick fire counts"),
    );

    let net = macaque_network(2012);
    let object = Arc::new(net.object);
    let reports = World::run(WorldConfig::flat(2), |ctx| {
        let compiled = compile(ctx, &object, cores).expect("realizable");
        let engine = EngineConfig::new(ticks, Backend::Mpi);
        let partition = compiled.plan.partition.clone();
        run_rank(ctx, &partition, compiled.configs, &[], &engine)
    });

    // Merge per-tick series across ranks.
    let mut per_tick = vec![0u64; ticks as usize];
    for r in &reports {
        for (t, &f) in r.fires_per_tick.iter().enumerate() {
            per_tick[t] += f;
        }
    }

    // 20-tick buckets as a text bar chart.
    let bucket = 20usize;
    let neurons = cores as f64 * 256.0;
    println!("{:>11} {:>9} {:>8}  activity", "ticks", "spikes", "rate Hz");
    let max_bucket: u64 = per_tick
        .chunks(bucket)
        .map(|c| c.iter().sum::<u64>())
        .max()
        .unwrap_or(1)
        .max(1);
    for (i, chunk) in per_tick.chunks(bucket).enumerate() {
        let sum: u64 = chunk.iter().sum();
        let rate = sum as f64 / neurons / chunk.len() as f64 * 1000.0;
        let bar = "#".repeat((sum * 40 / max_bucket) as usize);
        println!(
            "{:>4}..{:<5} {:>9} {:>8.1}  {bar}",
            i * bucket,
            i * bucket + chunk.len(),
            sum,
            rate,
        );
    }

    // The curve's shape: quiet start, ramp as stochastic-leak relays reach
    // threshold (~128-tick expected first crossing), steady state after.
    let early: u64 = per_tick[..100].iter().sum();
    let late: u64 = per_tick[300..].iter().sum();
    let late_rate = late as f64 / neurons / 100.0 * 1000.0;
    println!();
    println!(
        "onset check: first-100-tick spikes {early} << last-100-tick spikes {late}; steady state {late_rate:.1} Hz (paper operating point: 8.1 Hz)"
    );
}
