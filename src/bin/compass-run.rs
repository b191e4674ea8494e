//! `compass-run` — run a TrueNorth model end to end from the command line.
//!
//! ```text
//! compass-run --workload cocomac   [--cores N] [--ranks R] [--threads T]
//!             [--ticks K] [--backend mpi|pgas] [--seed S] [--regions]
//! compass-run --workload synthetic [--cores N] [--ranks R] ...
//! compass-run --workload ring      [--cores N] ...
//! compass-run --model model.cmps   [--ranks R] ...
//!             [--checkpoint-dir DIR [--resume]]
//! ```
//!
//! Workloads: `cocomac` compiles the §V macaque test network in situ (the
//! paper's flagship flow), `synthetic` builds the §VII real-time system,
//! `ring` is the quickstart relay ring, and `--model` loads an expanded
//! model written by `pcc-compile`. Prints the run report; `--regions` adds
//! the per-region activity table for compiled workloads.
//!
//! `--checkpoint-dir DIR` persists crash-safe checkpoints to `DIR` while
//! the job runs (see `compass-ckpt` for maintenance). `--resume` allows
//! picking up an interrupted job from the newest committed generation in
//! `DIR`; without it a non-empty store is refused so two jobs cannot mix
//! state by accident. Not available for the in-situ `cocomac` flow, which
//! compiles on-rank instead of loading a model.

use compass::cocomac::{macaque_network, synthetic_realtime, SyntheticParams};
use compass::comm::{World, WorldConfig};
use compass::pcc::{compile, expanded, region_activity};
use compass::sim::route::{MAX_CORES_PER_RANK, MAX_RANKS};
use compass::sim::{
    check_fits, run_rank, Backend, CheckpointStore, DurabilityPolicy, EngineConfig, Job,
    NetworkModel, RunReport,
};
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    workload: Option<String>,
    model: Option<String>,
    cores: u64,
    ranks: usize,
    threads: usize,
    ticks: u32,
    backend: Backend,
    seed: u64,
    regions: bool,
    checkpoint_dir: Option<String>,
    resume: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: compass-run (--workload cocomac|synthetic|ring | --model FILE)\n\
         \x20      [--cores N] [--ranks R] [--threads T] [--ticks K]\n\
         \x20      [--backend mpi|pgas] [--seed S] [--regions]\n\
         \x20      [--checkpoint-dir DIR [--resume]]"
    );
    ExitCode::from(2)
}

/// `value` as the number option `name` takes, or the usage error.
fn number<T: std::str::FromStr>(name: &str, value: String) -> Result<T, ExitCode> {
    value.parse().map_err(|_| {
        eprintln!("compass-run: {name} takes an unsigned integer in range, got '{value}'");
        usage()
    })
}

fn parse() -> Result<Opts, ExitCode> {
    let mut o = Opts {
        workload: None,
        model: None,
        cores: 308,
        ranks: 2,
        threads: 1,
        ticks: 200,
        backend: Backend::Mpi,
        seed: 2012,
        regions: false,
        checkpoint_dir: None,
        resume: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next().cloned().ok_or_else(|| {
                eprintln!("compass-run: {name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => o.workload = Some(next("--workload")?),
            "--model" => o.model = Some(next("--model")?),
            "--cores" => o.cores = number("--cores", next("--cores")?)?,
            "--ranks" => o.ranks = number("--ranks", next("--ranks")?)?,
            "--threads" => o.threads = number("--threads", next("--threads")?)?,
            "--ticks" => o.ticks = number("--ticks", next("--ticks")?)?,
            "--seed" => o.seed = number("--seed", next("--seed")?)?,
            "--backend" => {
                o.backend = match next("--backend")?.as_str() {
                    "mpi" => Backend::Mpi,
                    "pgas" => Backend::Pgas,
                    other => {
                        eprintln!("compass-run: unknown backend '{other}'");
                        return Err(usage());
                    }
                }
            }
            "--regions" => o.regions = true,
            "--checkpoint-dir" => o.checkpoint_dir = Some(next("--checkpoint-dir")?),
            "--resume" => o.resume = true,
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("compass-run: unknown argument '{other}'");
                return Err(usage());
            }
        }
    }
    if o.workload.is_none() == o.model.is_none() {
        eprintln!("compass-run: give exactly one of --workload or --model");
        return Err(usage());
    }
    if o.cores == 0 || o.ranks == 0 || o.threads == 0 {
        eprintln!("compass-run: cores, ranks and threads must be at least 1");
        return Err(usage());
    }
    if o.resume && o.checkpoint_dir.is_none() {
        eprintln!("compass-run: --resume needs --checkpoint-dir");
        return Err(usage());
    }
    if o.checkpoint_dir.is_some() && o.workload.as_deref() == Some("cocomac") {
        eprintln!(
            "compass-run: --checkpoint-dir is not available for the in-situ \
             cocomac flow; compile with pcc-compile and use --model"
        );
        return Err(usage());
    }
    Ok(o)
}

/// Refuses, before anything is sized by them, the ranks, cores and threads
/// a run cannot hold: more ranks than a spike record can name, more cores
/// on one rank (an even split of `cores`, which `what` says where it came
/// from) than it can index, more threads than the largest rank has
/// cores — a thread with no core does no work — or more memory than the
/// host has available (`check_fits`).
fn check_sizes(opts: &Opts, cores: u64, what: &str) -> Result<(), ExitCode> {
    let refuse = |reason: String| {
        eprintln!("compass-run: {reason}");
        usage()
    };
    if opts.ranks > MAX_RANKS {
        return Err(refuse(format!(
            "--ranks {} exceeds {MAX_RANKS}, the most ranks a spike record can address",
            opts.ranks
        )));
    }
    let largest = cores.div_ceil(opts.ranks as u64);
    if largest > MAX_CORES_PER_RANK {
        return Err(refuse(format!(
            "{what} over --ranks {} puts {largest} cores on one rank; a spike record \
             addresses at most {MAX_CORES_PER_RANK} cores a rank",
            opts.ranks
        )));
    }
    if opts.threads as u64 > largest {
        return Err(refuse(format!(
            "--threads {} exceeds {largest}, the largest rank's core count ({what} over \
             --ranks {}): a thread with no core does no work",
            opts.threads, opts.ranks
        )));
    }
    check_fits(cores, opts.ranks).map_err(refuse)
}

/// Runs `model`, either plainly or — when `--checkpoint-dir` was given —
/// durably, resuming from the store's newest committed generation when
/// `--resume` allows it. Prints the report on success.
fn execute(
    model: &NetworkModel,
    world: WorldConfig,
    engine: &EngineConfig,
    opts: &Opts,
) -> Result<(), ExitCode> {
    let fail = |e: &dyn std::fmt::Display| {
        eprintln!("compass-run: {e}");
        ExitCode::FAILURE
    };
    if let (Some(dir), false) = (&opts.checkpoint_dir, opts.resume) {
        // A fresh job must not silently graft itself onto another job's
        // generations; `--resume` is the explicit opt-in.
        let store = CheckpointStore::open(dir.as_str(), false).map_err(|e| fail(&e))?;
        let manifests = store.manifests().map_err(|e| fail(&e))?;
        if !manifests.is_empty() {
            eprintln!(
                "compass-run: {dir} already holds {} committed generation(s); \
                 pass --resume to continue that job, or point \
                 --checkpoint-dir at an empty directory",
                manifests.len()
            );
            return Err(ExitCode::FAILURE);
        }
    }
    let job = Job {
        durability: opts.checkpoint_dir.as_deref().map(DurabilityPolicy::new),
        ..Job::default()
    };
    let report = job.run(model, world, engine).map_err(|e| fail(&e))?;
    print_report(&report);
    if opts.checkpoint_dir.is_some() {
        println!(
            "durable: {} generations | {} bytes | writer overhead {:?}",
            report.total_durable_generations(),
            report.total_durable_bytes(),
            report.durable_time()
        );
    }
    Ok(())
}

fn print_report(report: &RunReport) {
    println!(
        "cores {} | ticks {} | wall {:?} | slowdown {:.2}x | mean rate {:.2} Hz",
        report.total_cores(),
        report.ticks,
        report.wall,
        report.slowdown_factor(),
        report.mean_rate_hz()
    );
    println!(
        "fires {} | gray-matter spikes {} | white-matter spikes {} | messages {}",
        report.total_fires(),
        report.total_local_spikes(),
        report.total_remote_spikes(),
        report.total_messages()
    );
    let p = report.phase_breakdown();
    println!(
        "phases: instantiate {:?} | synapse {:?} | neuron {:?} | network {:?} | kernels {}",
        report.instantiate_time(),
        p.synapse,
        p.neuron,
        p.network,
        compass::tn::kernel::level().name()
    );
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if opts.workload.is_some() {
        if let Err(code) = check_sizes(&opts, opts.cores, &format!("--cores {}", opts.cores)) {
            return code;
        }
    }
    let world = WorldConfig::new(opts.ranks, opts.threads);
    let engine = EngineConfig::new(opts.ticks, opts.backend);

    if let Some(name) = &opts.workload {
        match name.as_str() {
            "cocomac" => {
                // The in-situ flow: compile on the same ranks, simulate,
                // analyze per region.
                let net = macaque_network(opts.seed);
                let object = std::sync::Arc::new(net.object);
                let started = Instant::now();
                // Compilation is deterministic across ranks (same object,
                // same budget), so on failure every rank returns the same
                // error before any collective — no rank is left blocked.
                let outs = World::run(world, |ctx| {
                    let compiled = compile(ctx, &object, opts.cores)?;
                    let partition = compiled.plan.partition.clone();
                    let report = run_rank(ctx, &partition, compiled.configs, &[], &engine);
                    Ok::<_, compass::pcc::CompileError>((report, compiled.plan))
                });
                let wall = started.elapsed();
                let mut ok = Vec::with_capacity(outs.len());
                for (rank, out) in outs.into_iter().enumerate() {
                    match out {
                        Ok(o) => ok.push(o),
                        Err(e) => {
                            eprintln!(
                                "compass-run: cannot realize the CoCoMac model \
                                 on {} cores over {} ranks (rank {rank}): {e}",
                                opts.cores, opts.ranks
                            );
                            eprintln!(
                                "compass-run: raise --cores or lower --ranks \
                                 and retry"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                let plan = ok[0].1.clone();
                let reports: Vec<_> = ok.into_iter().map(|o| o.0).collect();
                let run_report = RunReport {
                    ranks: reports.clone(),
                    wall,
                    ticks: opts.ticks,
                    transport: Default::default(),
                };
                print_report(&run_report);
                if opts.regions {
                    println!(
                        "\n{:<8} {:>6} {:>10} {:>9}",
                        "region", "cores", "fires", "rate Hz"
                    );
                    let mut regions = region_activity(&plan, &reports, opts.ticks);
                    regions.sort_by(|a, b| b.rate_hz.total_cmp(&a.rate_hz));
                    for r in regions.iter().take(20) {
                        println!(
                            "{:<8} {:>6} {:>10} {:>9.1}",
                            r.name, r.cores, r.fires, r.rate_hz
                        );
                    }
                    if regions.len() > 20 {
                        println!("... ({} regions total)", regions.len());
                    }
                }
            }
            "synthetic" => {
                let params = SyntheticParams {
                    cores: opts.cores,
                    ranks: opts.ranks,
                    local_fraction: 0.75,
                    rate_hz: 10,
                    seed: opts.seed,
                };
                if let Err(reason) = params.check() {
                    eprintln!(
                        "compass-run: cannot build the synthetic system on {} cores \
                         over {} ranks: {reason}",
                        opts.cores, opts.ranks
                    );
                    return ExitCode::FAILURE;
                }
                let model = synthetic_realtime(params);
                if let Err(code) = execute(&model, world, &engine, &opts) {
                    return code;
                }
            }
            "ring" => {
                let model = NetworkModel::relay_ring(opts.cores, 16, opts.seed);
                if let Err(code) = execute(&model, world, &engine, &opts) {
                    return code;
                }
            }
            other => {
                eprintln!("compass-run: unknown workload '{other}'");
                return usage();
            }
        }
    } else if let Some(path) = &opts.model {
        let model = match expanded::read_file(std::path::Path::new(path)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("compass-run: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let what = format!("{path}'s {} cores", model.total_cores());
        if let Err(code) = check_sizes(&opts, model.total_cores(), &what) {
            return code;
        }
        if let Err(code) = execute(&model, world, &engine, &opts) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
