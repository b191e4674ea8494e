//! `compass-ckpt` — inspect and maintain a durable checkpoint store.
//!
//! ```text
//! compass-ckpt inspect DIR            list committed generations and the
//!                                     resume point a restart would use
//! compass-ckpt fsck DIR               validate every generation; exit 1
//!                                     when any generation is damaged
//! compass-ckpt gc DIR [--retain N]    prune old generations, keeping the
//!                                     newest N plus their delta anchors
//!                                     (default 2; 0 keeps everything)
//! ```
//!
//! The store is the directory `compass-run --checkpoint-dir` (or a
//! [`compass::sim::Job`] with `durability` set) writes. All three
//! subcommands are safe to run against a live store: readers only ever
//! see committed generations, and `gc` never removes the newest one or a
//! delta anchor it still needs. None of them creates a store: a `DIR` that is not an
//! existing directory is a usage error (exit 2), and nothing is written.

use compass::sim::{CheckpointStore, GenKind};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: compass-ckpt inspect DIR\n\
         \x20      compass-ckpt fsck DIR\n\
         \x20      compass-ckpt gc DIR [--retain N]"
    );
    ExitCode::from(2)
}

fn open(dir: &str) -> Result<CheckpointStore, ExitCode> {
    // Opening a store creates its directory, which a writer wants and a
    // maintenance tool must not do to a mistyped path.
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("compass-ckpt: {dir} is not an existing directory");
        return Err(ExitCode::from(2));
    }
    // Maintenance never needs fsync: it only reads, or deletes files
    // whose loss is already survivable.
    CheckpointStore::open(dir, false).map_err(|e| {
        eprintln!("compass-ckpt: {e}");
        ExitCode::FAILURE
    })
}

fn kind_name(kind: GenKind) -> &'static str {
    match kind {
        GenKind::Full => "full",
        GenKind::Delta => "delta",
    }
}

fn inspect(dir: &str) -> ExitCode {
    let store = match open(dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let manifests = match store.manifests() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("compass-ckpt: {e}");
            return ExitCode::FAILURE;
        }
    };
    if manifests.is_empty() {
        println!("{dir}: no committed generations");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:>12} {:>6} {:>12} {:>6} {:>10}",
        "generation", "kind", "base", "ranks", "bytes"
    );
    for m in &manifests {
        println!(
            "{:>12} {:>6} {:>12} {:>6} {:>10}",
            m.gen,
            kind_name(m.kind),
            if m.kind == GenKind::Delta {
                m.base.to_string()
            } else {
                "-".to_string()
            },
            m.ranks,
            store.generation_bytes(m)
        );
    }
    let ranks = manifests.last().map(|m| m.ranks).unwrap_or(0);
    match store.recover(ranks) {
        Ok(Some(rp)) => println!(
            "resume point: generation {} (tick {}, {} ranks)",
            rp.gen,
            rp.tick,
            rp.payloads.len()
        ),
        Ok(None) => println!("resume point: none (no generation materializes)"),
        Err(e) => {
            eprintln!("compass-ckpt: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn fsck(dir: &str) -> ExitCode {
    let store = match open(dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = match store.fsck() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compass-ckpt: {e}");
            return ExitCode::FAILURE;
        }
    };
    for g in &report.generations {
        if g.ok {
            println!(
                "generation {:>12} ({}) ok",
                g.manifest.gen,
                kind_name(g.manifest.kind)
            );
        } else {
            println!(
                "generation {:>12} ({}) DAMAGED: {}",
                g.manifest.gen,
                kind_name(g.manifest.kind),
                g.detail
            );
        }
    }
    for orphan in &report.orphans {
        println!("orphan: {}", orphan.display());
    }
    let damaged = report.generations.iter().filter(|g| !g.ok).count();
    println!(
        "{}: {} generations, {} damaged, {} orphans",
        dir,
        report.generations.len(),
        damaged,
        report.orphans.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn gc(dir: &str, retain: usize) -> ExitCode {
    let store = match open(dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match store.gc(retain) {
        Ok(r) => {
            println!(
                "{dir}: kept {} generations, removed {} files",
                r.kept, r.removed_files
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compass-ckpt: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return usage();
    };
    match cmd.as_str() {
        "inspect" | "fsck" => {
            let Some(dir) = it.next() else { return usage() };
            if it.next().is_some() {
                return usage();
            }
            if cmd == "inspect" {
                inspect(dir)
            } else {
                fsck(dir)
            }
        }
        "gc" => {
            let Some(dir) = it.next() else { return usage() };
            let mut retain = 2usize;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--retain" => {
                        let Some(v) = it.next() else {
                            eprintln!("compass-ckpt: --retain needs a value");
                            return usage();
                        };
                        retain = match v.parse() {
                            Ok(n) => n,
                            Err(_) => return usage(),
                        };
                    }
                    other => {
                        eprintln!("compass-ckpt: unknown argument '{other}'");
                        return usage();
                    }
                }
            }
            gc(dir, retain)
        }
        "--help" | "-h" => usage(),
        other => {
            eprintln!("compass-ckpt: unknown subcommand '{other}'");
            usage()
        }
    }
}
