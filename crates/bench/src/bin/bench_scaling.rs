//! The scaling study: the merged CoCoMac model swept over core counts and
//! world shapes, emitted as the versioned `BENCH_scaling.json` artifact.
//!
//! Five sections miniaturize the paper's scale argument:
//!
//! * **thread_strong_scaling** — Fig. 6: fixed model, one rank, growing
//!   team; phase breakdown and the receive-critical-section wait.
//! * **rank_weak_scaling** — Fig. 4a: fixed cores *per rank*, growing
//!   communicator; wall time, message pressure, collective cost.
//! * **mpi_vs_pgas** — Fig. 7: the same model under both communication
//!   models at each budget of the 1k → `--max-cores` ladder, and the
//!   crossover point where the cheaper model flips.
//! * **real_time_threshold** — ticks/second against core count and the
//!   largest budget that still meets TrueNorth's 1000 ticks/s real-time
//!   target (the paper's 388× headline is the other side of this line).
//! * **memory** — resident bytes/core and snapshot µs/core for the SoA
//!   core pool against the boxed-core layout it replaced, over the same
//!   core ladder (the SoA refactor's before/after evidence).
//!
//! Later PRs (the SoA rewrite above all) report their effect against this
//! file instead of microbenches. `--check` re-reads the emitted artifact
//! and validates the schema, so CI proves the contract holds.
//!
//! Usage: `bench_scaling [--max-cores N] [--ticks T] [--out PATH] [--check]`
//! (`--help` prints the full contract; malformed arguments exit 2 with
//! usage, never a panic.)

use compass_bench::json::validate_scaling_json;
use compass_bench::{banner, cocomac_run_with, CocomacRun};
use compass_cocomac::{core_budgets, macaque_network};
use compass_comm::WorldConfig;
use compass_pcc::compile_serial;
use compass_sim::{Backend, EngineConfig};
use std::fmt::Write as _;
use std::time::Instant;
use tn_core::CorePool;

/// Artifact schema version — bump together with the validator.
const VERSION: u32 = 1;
const SEED: u64 = 2012;

struct Args {
    max_cores: u64,
    ticks: u32,
    out: String,
    check: bool,
}

const USAGE: &str = "\
Usage: bench_scaling [--max-cores N] [--ticks T] [--out PATH] [--check]

  --max-cores N   Top of the core-budget ladder (default 4096). The sweep
                  runs the power-of-two ladder 1024, 2048, ... clamped to
                  the largest rung <= N — non-power-of-two budgets are
                  clamped down, e.g. --max-cores 5000 sweeps [1024, 2048,
                  4096]. Budgets below 1024 fall back to the merged
                  102-region model.
  --ticks T       Ticks simulated per run, at least 1 (default 250).
  --out PATH      Artifact path (default BENCH_scaling.json).
  --check         Re-read the emitted artifact and validate its schema.
  --help          Print this help.

Malformed arguments exit with status 2 after printing usage.";

/// A structured CLI error: what was wrong, and with which argument.
struct ArgError {
    flag: &'static str,
    problem: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bench_scaling: {}: {}", self.flag, self.problem)
    }
}

fn parse_args() -> Result<Args, ArgError> {
    let mut args = Args {
        max_cores: 4096,
        ticks: 250,
        out: "BENCH_scaling.json".into(),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |flag: &'static str| {
            it.next().ok_or(ArgError {
                flag,
                problem: "requires a value".into(),
            })
        };
        match a.as_str() {
            "--max-cores" => {
                let v = take("--max-cores")?;
                args.max_cores = v.parse().map_err(|e| ArgError {
                    flag: "--max-cores",
                    problem: format!("{v:?} is not a core count ({e})"),
                })?;
            }
            "--ticks" => {
                let v = take("--ticks")?;
                args.ticks = v.parse().map_err(|e| ArgError {
                    flag: "--ticks",
                    problem: format!("{v:?} is not a tick count ({e})"),
                })?;
                // No ticks, no rates: every per-tick figure would be
                // NaN or infinite, which JSON cannot carry.
                if args.ticks == 0 {
                    return Err(ArgError {
                        flag: "--ticks",
                        problem: "must be at least 1".into(),
                    });
                }
            }
            "--out" => args.out = take("--out")?,
            "--check" => args.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                return Err(ArgError {
                    flag: "argument",
                    problem: format!("unknown argument {other:?}"),
                })
            }
        }
    }
    Ok(args)
}

fn collective_s(run: &CocomacRun) -> f64 {
    run.ranks
        .iter()
        .map(|r| r.collective_time)
        .max()
        .unwrap_or_default()
        .as_secs_f64()
}

fn critical_wait_s(run: &CocomacRun) -> f64 {
    run.ranks
        .iter()
        .map(|r| r.critical_wait)
        .max()
        .unwrap_or_default()
        .as_secs_f64()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n\n{USAGE}");
        std::process::exit(2);
    });
    let budgets = core_budgets(args.max_cores);
    let top = *budgets.last().expect("non-empty ladder");
    banner(
        "Scaling study — BENCH_scaling.json",
        "Figs. 4a/6/7 and the real-time line, at Blue Gene scale",
        &format!(
            "CoCoMac at {:?} cores, {} ticks per run",
            budgets, args.ticks
        ),
    );

    let mut out = String::new();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"version\": {VERSION},").unwrap();
    writeln!(out, "  \"model\": \"cocomac-merged-102\",").unwrap();
    writeln!(out, "  \"seed\": {SEED},").unwrap();
    writeln!(out, "  \"max_cores\": {},", args.max_cores).unwrap();
    writeln!(out, "  \"ticks\": {},", args.ticks).unwrap();
    writeln!(out, "  \"host_threads\": {host_threads},").unwrap();

    // ---- Section 1: thread strong-scaling (Fig. 6) --------------------
    // Largest budget, one rank, growing team. On a small host the wall
    // levels are multiplexed; the phase shape and critical-section wait
    // are the reproducible signal (see the lib docs).
    println!("\n[1/5] thread strong-scaling at {top} cores (Fig. 6)");
    let mut base_wall = 0.0f64;
    let mut points = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let run = cocomac_run_with(
            top,
            WorldConfig::new(1, threads),
            &EngineConfig::new(args.ticks, Backend::Mpi),
        );
        let wall = run.wall.as_secs_f64();
        if threads == 1 {
            base_wall = wall;
        }
        println!(
            "  threads {threads}: wall {wall:.3}s (synapse {:.3}s neuron {:.3}s network {:.3}s, crit wait {:.3}s)",
            run.phases.synapse.as_secs_f64(),
            run.phases.neuron.as_secs_f64(),
            run.phases.network.as_secs_f64(),
            critical_wait_s(&run),
        );
        points.push(format!(
            "    {{\"threads\": {threads}, \"ranks\": 1, \"wall_s\": {wall:.6}, \
             \"synapse_s\": {:.6}, \"neuron_s\": {:.6}, \"network_s\": {:.6}, \
             \"critical_wait_s\": {:.6}, \"collective_s\": {:.6}, \
             \"inbox_routed\": {}, \"speedup\": {:.4}}}",
            run.phases.synapse.as_secs_f64(),
            run.phases.neuron.as_secs_f64(),
            run.phases.network.as_secs_f64(),
            critical_wait_s(&run),
            collective_s(&run),
            run.ranks.iter().map(|r| r.inbox_routed).sum::<u64>(),
            if wall > 0.0 { base_wall / wall } else { 0.0 },
        ));
    }
    writeln!(out, "  \"thread_strong_scaling\": {{").unwrap();
    writeln!(out, "    \"figure\": \"fig6\",").unwrap();
    writeln!(out, "    \"cores\": {top},").unwrap();
    writeln!(out, "    \"points\": [\n{}\n  ]}},", points.join(",\n")).unwrap();

    // ---- Section 2: rank weak-scaling (Fig. 4a) -----------------------
    // Fixed cores per rank; the communicator grows with the model.
    let per_rank = (top / 8).max(128);
    println!("\n[2/5] rank weak-scaling at {per_rank} cores/rank (Fig. 4a)");
    let mut points = Vec::new();
    for ranks in [1usize, 2, 4, 8] {
        let cores = per_rank * ranks as u64;
        let run = cocomac_run_with(
            cores,
            WorldConfig::flat(ranks),
            &EngineConfig::new(args.ticks, Backend::Mpi),
        );
        println!(
            "  ranks {ranks}: {cores} cores, wall {:.3}s, {:.1} msgs/tick, collective {:.3}s",
            run.wall.as_secs_f64(),
            run.messages_per_tick(),
            collective_s(&run),
        );
        points.push(format!(
            "    {{\"ranks\": {ranks}, \"cores\": {cores}, \"wall_s\": {:.6}, \
             \"fires\": {}, \"messages_per_tick\": {:.3}, \
             \"remote_spikes_per_tick\": {:.3}, \"collective_s\": {:.6}, \
             \"staging_bytes\": {}}}",
            run.wall.as_secs_f64(),
            run.fires(),
            run.messages_per_tick(),
            run.remote_spikes_per_tick(),
            collective_s(&run),
            run.ranks.iter().map(|r| r.staging_bytes).sum::<u64>(),
        ));
    }
    writeln!(out, "  \"rank_weak_scaling\": {{").unwrap();
    writeln!(out, "    \"figure\": \"fig4a\",").unwrap();
    writeln!(out, "    \"cores_per_rank\": {per_rank},").unwrap();
    writeln!(out, "    \"points\": [\n{}\n  ]}},", points.join(",\n")).unwrap();

    // ---- Sections 3+4: the core-count ladder under both backends ------
    // One sweep feeds both the MPI-vs-PGAS comparison (Fig. 7) and the
    // real-time threshold (ticks/s vs cores).
    const RANKS: usize = 4;
    println!("\n[3/5] MPI vs PGAS over {budgets:?} cores at {RANKS} ranks (Fig. 7)");
    let mut lad_points = Vec::new();
    let mut rt_points = Vec::new();
    let mut crossover: Option<u64> = None;
    let mut first_sign: Option<bool> = None;
    let mut max_rt: Option<u64> = None;
    let mut compile_json = String::new();
    for &cores in &budgets {
        let mpi = cocomac_run_with(
            cores,
            WorldConfig::flat(RANKS),
            &EngineConfig::new(args.ticks, Backend::Mpi),
        );
        let pgas = cocomac_run_with(
            cores,
            WorldConfig::flat(RANKS),
            &EngineConfig::new(args.ticks, Backend::Pgas),
        );
        let (mw, pw) = (mpi.wall.as_secs_f64(), pgas.wall.as_secs_f64());
        let ratio = if mw > 0.0 { pw / mw } else { 1.0 };
        let pgas_faster = pw < mw;
        match first_sign {
            None => first_sign = Some(pgas_faster),
            Some(s) if s != pgas_faster && crossover.is_none() => crossover = Some(cores),
            _ => {}
        }
        let tps = if mw > 0.0 {
            f64::from(args.ticks) / mw
        } else {
            0.0
        };
        if tps >= 1000.0 {
            max_rt = Some(cores);
        }
        println!(
            "  {cores} cores: MPI {mw:.3}s, PGAS {pw:.3}s (PGAS/MPI {ratio:.3}), {tps:.0} ticks/s"
        );
        lad_points.push(format!(
            "    {{\"cores\": {cores}, \"mpi_wall_s\": {mw:.6}, \"pgas_wall_s\": {pw:.6}, \
             \"mpi_network_s\": {:.6}, \"pgas_network_s\": {:.6}, \
             \"mpi_collective_s\": {:.6}, \"pgas_collective_s\": {:.6}, \
             \"pgas_over_mpi\": {ratio:.4}}}",
            mpi.phases.network.as_secs_f64(),
            pgas.phases.network.as_secs_f64(),
            collective_s(&mpi),
            collective_s(&pgas),
        ));
        rt_points.push(format!(
            "    {{\"cores\": {cores}, \"ranks\": {RANKS}, \"ticks_per_s\": {tps:.3}, \
             \"slowdown\": {:.3}, \"rate_hz\": {:.3}}}",
            mpi.slowdown(),
            mpi.rate_hz(),
        ));
        if cores == top {
            // Compile accounting from the largest model — the 64k-core
            // IPFP/layout path the study exists to watch.
            let cs = &mpi.compile_stats;
            let b = cs.plan_breakdown;
            compile_json = format!(
                "  \"compile\": {{\"cores\": {cores}, \"wall_s\": {:.6}, \
                 \"plan_s\": {:.6}, \"sizing_s\": {:.6}, \"balance_s\": {:.6}, \
                 \"integerize_s\": {:.6}, \"placement_s\": {:.6}, \"wire_s\": {:.6}, \
                 \"balance_iterations\": {}}},",
                mpi.compile_wall.as_secs_f64(),
                cs.plan_time.as_secs_f64(),
                b.sizing_time.as_secs_f64(),
                b.balance_time.as_secs_f64(),
                b.integerize_time.as_secs_f64(),
                b.placement_time.as_secs_f64(),
                cs.wire_time.as_secs_f64(),
                cs.balance_iterations,
            );
            println!(
                "  compile at {cores}: plan {:.3}s + wire {:.3}s ({} IPFP iterations)",
                cs.plan_time.as_secs_f64(),
                cs.wire_time.as_secs_f64(),
                cs.balance_iterations
            );
        }
    }
    out.push_str(&compile_json);
    out.push('\n');
    writeln!(out, "  \"mpi_vs_pgas\": {{").unwrap();
    writeln!(out, "    \"figure\": \"fig7\",").unwrap();
    writeln!(out, "    \"ranks\": {RANKS},").unwrap();
    writeln!(out, "    \"points\": [\n{}\n  ],", lad_points.join(",\n")).unwrap();
    writeln!(
        out,
        "    \"crossover_cores\": {}}},",
        crossover.map_or("null".into(), |c| c.to_string())
    )
    .unwrap();

    println!("\n[4/5] real-time threshold (1000 ticks/s target)");
    match max_rt {
        Some(c) => println!("  real time holds through {c} cores on this host"),
        None => println!("  no budget in the sweep runs in real time on this host"),
    }
    writeln!(out, "  \"real_time_threshold\": {{").unwrap();
    writeln!(out, "    \"figure\": \"ticks-per-second vs cores\",").unwrap();
    writeln!(out, "    \"tick_ms\": 1.0,").unwrap();
    writeln!(out, "    \"points\": [\n{}\n  ],", rt_points.join(",\n")).unwrap();
    writeln!(
        out,
        "    \"max_real_time_cores\": {}}},",
        max_rt.map_or("null".into(), |c| c.to_string())
    )
    .unwrap();

    // ---- Section 5: memory & snapshot cost --------------------------
    // The SoA pool's before/after evidence: resident bytes per core and
    // snapshot microseconds per core against the boxed-core layout it
    // replaced. The AoS path re-enacts the old checkpointer (one
    // allocation + field-by-field serialization per core); the SoA path
    // is the pool's bounded arena copy into one reused buffer.
    println!("\n[5/5] memory: SoA pool vs boxed cores over {budgets:?} cores");
    let net = macaque_network(SEED);
    let mut mem_points = Vec::new();
    for &cores in &budgets {
        let (_plan, model) =
            compile_serial(&net.object, cores).expect("CoCoMac model is realizable");
        let mut pool = CorePool::with_capacity(model.cores.len());
        for c in model.cores {
            pool.push(c).expect("compiled config is valid");
        }
        let n = pool.len().max(1);
        let aos_bytes = CorePool::aos_core_bytes();
        let soa_bytes = pool.resident_bytes() / n;

        // Both sides produce the same artifact — the flat rank-checkpoint
        // body. The AoS side reproduces the boxed-core path the pool
        // replaced: one owned Vec per core, then each copied into the
        // blob (`RankCheckpoint` kept `Vec<Vec<u8>>` before the SoA
        // refactor). The SoA side is the pool's single-pass export.
        const REPS: u32 = 8;
        let mut sink = 0usize;
        let mut buf = Vec::new();
        let t0 = Instant::now();
        for _ in 0..REPS {
            let blobs: Vec<Vec<u8>> = (0..pool.len()).map(|k| pool.snapshot_bytes(k)).collect();
            buf.clear();
            for blob in &blobs {
                buf.extend_from_slice(blob);
            }
            sink = sink.wrapping_add(buf.len());
        }
        let aos_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS) / n as f64;

        let t1 = Instant::now();
        for _ in 0..REPS {
            buf.clear();
            pool.snapshot_all_into(&mut buf);
            sink = sink.wrapping_add(buf.len());
        }
        let soa_us = t1.elapsed().as_secs_f64() * 1e6 / f64::from(REPS) / n as f64;
        std::hint::black_box(sink);

        println!(
            "  {cores} cores: {aos_bytes} B/core boxed vs {soa_bytes} B/core pooled; \
             snapshot {aos_us:.3} µs/core per-core vs {soa_us:.3} µs/core arena-copy"
        );
        mem_points.push(format!(
            "    {{\"cores\": {cores}, \"aos_bytes_per_core\": {aos_bytes}, \
             \"soa_bytes_per_core\": {soa_bytes}, \
             \"aos_snapshot_us_per_core\": {aos_us:.6}, \
             \"soa_snapshot_us_per_core\": {soa_us:.6}}}"
        ));
    }
    writeln!(out, "  \"memory\": {{").unwrap();
    writeln!(
        out,
        "    \"figure\": \"soa-vs-aos residency and snapshot cost\","
    )
    .unwrap();
    writeln!(out, "    \"points\": [\n{}\n  ]}}", mem_points.join(",\n")).unwrap();
    writeln!(out, "}}").unwrap();

    std::fs::write(&args.out, &out).expect("write artifact");
    println!("\nwrote {} ({} bytes)", args.out, out.len());

    if args.check {
        let text = std::fs::read_to_string(&args.out).expect("re-read artifact");
        match validate_scaling_json(&text) {
            Ok(()) => println!("schema check: OK (version {VERSION}, all five sections present)"),
            Err(e) => {
                eprintln!("schema check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
