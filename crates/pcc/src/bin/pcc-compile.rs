//! `pcc-compile` — the Parallel Compass Compiler as a command-line tool.
//!
//! Reads a CoreObject description, compiles it at the requested scale, and
//! either reports statistics or writes the expanded model:
//!
//! ```text
//! pcc-compile <model.cob> --cores N [--ranks R] [--out model.cmps]
//! ```
//!
//! With `--out`, the expanded binary model is written for later
//! `compass-run` consumption — the offline path §IV warns about, provided
//! for small models and interchange. Without it, the tool prints the plan
//! summary (region allocations, balancing diagnostics, wiring statistics).
//!
//! Exit codes: 2 for a usage error (including sizes no run can hold), 1
//! for a request the tool understood but could not carry out.

use compass_comm::{World, WorldConfig};
use compass_pcc::{compile, expanded, CoreObject};
use compass_sim::route::{MAX_CORES_PER_RANK, MAX_RANKS};
use compass_sim::{check_fits, NetworkModel};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: pcc-compile <model.cob> --cores N [--ranks R] [--out model.cmps]");
    ExitCode::from(2)
}

/// Refuses, before anything is allocated, a world the simulator could not
/// address or the host could not hold: `compass-run`'s bounds, so every
/// compiled model can be run.
fn check_sizes(cores: u64, ranks: usize) -> Result<(), String> {
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if ranks > MAX_RANKS {
        return Err(format!(
            "--ranks {ranks} exceeds {MAX_RANKS}, the most ranks a spike record can address"
        ));
    }
    let largest = cores.div_ceil(ranks as u64);
    if largest > MAX_CORES_PER_RANK {
        return Err(format!(
            "--cores {cores} over --ranks {ranks} puts {largest} cores on one rank; a spike \
             record addresses at most {MAX_CORES_PER_RANK} cores a rank"
        ));
    }
    check_fits(cores, ranks)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut cores: Option<u64> = None;
    let mut ranks = 1usize;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cores" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cores = Some(v),
                None => return usage(),
            },
            "--ranks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => ranks = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(input) = input else {
        eprintln!("pcc-compile: no model file given");
        return usage();
    };
    let Some(cores) = cores else {
        eprintln!("pcc-compile: --cores is required");
        return usage();
    };
    if let Err(reason) = check_sizes(cores, ranks) {
        eprintln!("pcc-compile: {reason}");
        return ExitCode::from(2);
    }

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pcc-compile: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let object = match CoreObject::parse(&text) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pcc-compile: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Compile in parallel, collecting every rank's cores.
    let results = World::run(WorldConfig::flat(ranks), |ctx| {
        compile(ctx, &object, cores).map(|c| (c.plan, c.configs, c.stats))
    });
    let mut all_cores = Vec::new();
    let mut plan = None;
    let mut stats = None;
    for r in results {
        match r {
            Ok((p, cfgs, s)) => {
                all_cores.extend(cfgs);
                plan.get_or_insert(p);
                stats.get_or_insert(s);
            }
            Err(e) => {
                eprintln!("pcc-compile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let plan = plan.expect("at least one rank");
    let stats = stats.expect("at least one rank");

    println!(
        "compiled {} cores / {} regions on {ranks} rank(s): plan {:?} (IPFP {} iterations, residual {:.2e}), wiring {:?} (genesis {:?}, {} connections)",
        plan.total_cores(),
        plan.regions(),
        stats.plan_time,
        plan.balance_iterations,
        plan.balance_error,
        stats.wire_time,
        stats.wiring.genesis_time,
        stats.wiring.requests_out,
    );
    println!(
        "\n{:<8} {:>7} {:>10} {:>12}",
        "region", "cores", "neurons", "out-conns"
    );
    for r in 0..plan.regions() {
        let outgoing: u64 = (0..plan.regions()).map(|s| plan.connections(r, s)).sum();
        println!(
            "{:<8} {:>7} {:>10} {:>12}",
            plan.object.regions[r].name,
            plan.region_cores[r],
            plan.region_budget(r),
            outgoing,
        );
    }

    if let Some(path) = out {
        let model = NetworkModel {
            cores: all_cores,
            initial_deliveries: Vec::new(),
        };
        if let Err(e) = model.validate() {
            eprintln!("pcc-compile: compiled model failed validation: {e}");
            return ExitCode::FAILURE;
        }
        match expanded::write_file(&model, std::path::Path::new(&path)) {
            Ok(bytes) => println!("\nwrote {bytes} bytes to {path}"),
            Err(e) => {
                eprintln!("pcc-compile: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
