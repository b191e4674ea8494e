//! The gated benchmark of the Compass simulator: seven workloads, four
//! bounded end-to-end metrics, and a per-layer ladder from a traced pass.
//!
//! ```text
//! compass-benchmark --workload NAME|all --seed N --seconds S --trace 0|1
//!                   [--out FILE] [--smoke]
//! compass-benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` for the (last)
//! workload run; `--out` writes every workload's metrics with their
//! spread and the host record, which is what `compare` reads. See
//! `README.md` beside this crate for what each name means.

mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod trace;
mod workload;

use json::Json;
use measure::Summary;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use probes::Values;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workload::{Outcome, Prepared, Reference, Spec, WORKLOADS};

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str = "usage: compass-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--smoke]\n       compass-benchmark compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 2012,
        seconds: 8.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    out.workloads = vec![workload::find(name).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload '{name}'; one of: all {}", names.join(" "))
                    })?];
                }
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--smoke" => out.smoke = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(out)
}

/// One workload's result: the contract's four keys plus, per metric, the
/// spread of the repetitions behind it.
struct WorkloadResult {
    name: &'static str,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static MetricDef, f64, Option<Summary>)>,
    /// Chrome trace events of the traced pass (empty when untraced).
    events: Vec<Json>,
    /// Per span name: count, total and self time in ns (traced pass).
    span_totals: Vec<(&'static str, (u64, u64, u64))>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The line the driver reads.
    fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(def, value, _)| {
            (
                def.name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
            )
        });
        self.keyed(Json::obj(metrics)).render()
    }

    /// The contract's four keys around a metrics object.
    fn keyed(&self, metrics: Json) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// The `--out` record: self-describing, so `compare` needs no
    /// catalogue.
    fn record(&self) -> Json {
        let metrics = self.metrics.iter().map(|(def, value, summary)| {
            let mut fields = vec![
                ("value".to_owned(), Json::Num(*value)),
                ("unit".to_owned(), Json::str(def.unit)),
                ("better".to_owned(), Json::str(def.better.as_str())),
            ];
            if let Some(b) = def.bound {
                fields.push(("bound".to_owned(), Json::Num(b)));
            }
            if let Some(s) = summary {
                fields.push(("reps".to_owned(), Json::Num(s.n as f64)));
                fields.push(("median".to_owned(), Json::Num(s.median)));
                fields.push(("min".to_owned(), Json::Num(s.min)));
                fields.push(("max".to_owned(), Json::Num(s.max)));
                fields.push(("iqr_over_median".to_owned(), Json::Num(s.iqr_over_median)));
            }
            (def.name, Json::Obj(fields))
        });
        self.keyed(Json::obj(metrics))
    }

    fn print_table(&self) {
        let why = workload::find(self.name).map_or("", |w| w.why);
        eprintln!(
            "{}: {} ops, {} failed — {why}",
            self.name, self.attempted, self.failed
        );
        for e in &self.errors {
            eprintln!("  FAILED: {e}");
        }
        for (def, value, summary) in &self.metrics {
            let bound = def.bound.map_or(String::new(), |b| format!(" bound {b}"));
            let spread = summary.map_or(String::new(), |s| {
                format!(
                    "  [{} reps: median {:.6} max {:.6} iqr/median {:.3}]",
                    s.n, s.median, s.max, s.iqr_over_median
                )
            });
            eprintln!(
                "  {:<40} {:>16.6} {:<6} {} is better{bound}{spread}",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
        if !self.span_totals.is_empty() {
            eprintln!(
                "  {:<40} {:>8} {:>14} {:>14}",
                "span", "count", "total ms", "self ms"
            );
        }
        for (name, (count, total, own)) in &self.span_totals {
            eprintln!(
                "  {name:<40} {count:>8} {:>14.3} {:>14.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
    }
}

/// Counts operations and keeps the first few failures' reasons.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ops {
    /// One operation: a panic, an `Err` and an output mismatch all count
    /// as failed.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let res = caught.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            Err(format!("panicked: {msg}"))
        });
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// Set-ups per run: at least this many, and more while they are cheap —
/// until a second has gone into them, or [`SETUPS_MAX`] are done. The
/// fastest is reported (see `Summary::floor`).
const SETUPS: usize = 5;
const SETUPS_TRACED: usize = 3;
const SETUPS_MAX: usize = 200;

fn run_workload(spec: Spec, args: &Args, cpus: &[usize], scratch: &Path) -> WorkloadResult {
    let spec = if args.smoke { spec.smoke() } else { spec };
    let mut ops = Ops::default();
    let mut rec = Recorder::new(args.trace, spec.name);
    let values = measure_workload(spec, args, cpus, scratch, &mut ops, &mut rec);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = values.map_or(Vec::new(), |values| {
        catalogue
            .iter()
            .map(|def| {
                let found = values.iter().find(|(n, _, _)| *n == def.name);
                let (_, v, s) = found.copied().unwrap_or((def.name, 0.0, None));
                (def, v, s)
            })
            .collect()
    });
    WorkloadResult {
        name: spec.name,
        attempted: ops.attempted,
        failed: ops.failed,
        errors: ops.errors,
        metrics,
        events: rec.chrome_events(),
        span_totals: rec.totals().into_iter().collect(),
    }
}

/// Puts the whole process — rank threads, writers and all — on one CPU,
/// the next of `cpus` every turn (README, "Host noise"): two vCPUs of this
/// kind of host share or do not share a physical core for a minute at a
/// time, which moves a two-thread wall by a third, while the time-sliced
/// wall of the same work held within 0.06. A slow phase also belongs to
/// one physical core, so the next CPU may be in a quiet one; the floor is
/// the same on all. Called before a repetition spawns its threads, which
/// inherit the affinity. Parallel speed is read in the traced pass,
/// unbounded.
fn place(cpus: &[usize], turn: usize) -> bool {
    match cpus.get(turn % cpus.len().max(1)) {
        Some(&cpu) => measure::restrict_to_cpus(&[cpu]),
        None => false,
    }
}

/// Set-up, oracle, warm-up, then the untraced or the traced pass. `None`
/// when a failure left nothing to report; `ops` says what failed.
fn measure_workload(
    spec: Spec,
    args: &Args,
    cpus: &[usize],
    scratch: &Path,
    ops: &mut Ops,
    rec: &mut Recorder,
) -> Option<Reported> {
    if !place(cpus, 0) {
        eprintln!(
            "{}: cannot set CPU affinity; placement is the scheduler's",
            spec.name
        );
    }

    // Set-up, several times over; every one is an op.
    let setups = match (args.smoke, args.trace) {
        (true, _) => 1,
        (false, false) => SETUPS,
        (false, true) => SETUPS_TRACED,
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for round in 0..SETUPS_MAX {
        if round >= setups && (args.trace || args.smoke || setup_s.iter().sum::<f64>() >= 1.0) {
            break;
        }
        let stages = prepared.take().map(|p| p.stages); // one set-up's memory at a time
        let s = rec.begin("setup");
        let t = Instant::now();
        let p = ops.run("set-up", || Prepared::set_up(spec, args.seed, scratch, rec));
        let wall = t.elapsed().as_secs_f64();
        rec.end(s);
        if let Some(mut p) = p {
            if let Some(earlier) = stages {
                p.stages = p.stages.fastest(&earlier);
            }
            setup_s.push(wall);
            prepared = Some(p);
        }
    }
    let p = prepared?;

    // The oracle, and one discarded warm-up repetition that is checked
    // like any other.
    let s = rec.begin("verify");
    let reference = ops.run("solo oracle", || Reference::take(&p, rec));
    rec.end(s);
    let mut reference = reference?;
    let checked_rep = |ops: &mut Ops, reference: &mut Reference| {
        ops.run("repetition", || {
            let outcome = p.rep(spec.ticks, false)?;
            reference.check(&p, &outcome)?;
            Ok(outcome)
        })
    };
    checked_rep(ops, &mut reference)?;

    let min_reps = if args.smoke { 2 } else { 3 };
    if args.trace {
        if cpus.len() < 2 {
            eprintln!(
                "{}: one CPU allowed; the parallel shapes (sim.parallel_ticks_per_s, \
                 sim.strong_scaling_eff, sim.threads_1x2_ticks_per_s) are time-sliced here",
                spec.name
            );
        }
        let run = TracedRun {
            args,
            cpus,
            scratch,
            min_reps,
        };
        return traced_pass(&p, run, &mut reference, ops, rec);
    }

    let started = Instant::now();
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut resettable = true;
    while walls.len() < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        place(cpus, walls.len());
        // Per repetition: hand freed memory back, then restart the
        // high-water mark, so the mark is this repetition's own.
        resettable &= measure::reset_peak_rss();
        if let Some(outcome) = checked_rep(ops, &mut reference) {
            walls.push(outcome.wall_s);
            peaks.extend(measure::peak_rss_bytes().map(|b| b as f64 / 1e6));
            last = Some(outcome);
        } else if ops.failed >= 3 {
            break;
        }
    }
    if !resettable {
        eprintln!(
            "{}: /proc/self/clear_refs is not writable; peak_rss_mb covers the whole process",
            spec.name
        );
    }
    let resident = match p.resident_bytes_per_core(&last?) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return None;
        }
    };
    let ticks = f64::from(spec.ticks);
    // The summary beside ticks_per_s is of per-repetition rates, so its
    // "max" is the fastest repetition — the reported value.
    let rates: Vec<f64> = walls.iter().map(|w| ticks / w).collect();
    let setup = Summary::of(&setup_s);
    let peak = (!peaks.is_empty()).then(|| Summary::of(&peaks))?;
    Some(vec![
        (
            "ticks_per_s",
            ticks / Summary::of(&walls).floor(),
            Some(Summary::of(&rates)),
        ),
        ("setup_s", setup.floor(), Some(setup)),
        ("peak_rss_mb", peak.floor(), Some(peak)),
        ("resident_kb_per_core", resident / 1024.0, None),
    ])
}

type Reported = Vec<(&'static str, f64, Option<Summary>)>;

struct TracedRun<'a> {
    args: &'a Args,
    cpus: &'a [usize],
    scratch: &'a Path,
    min_reps: usize,
}

/// The traced pass: repetitions with spans on and off in turn for 40 % of
/// `--seconds`, then the layer ladder. Returns every per-layer value.
fn traced_pass(
    p: &Prepared,
    run: TracedRun<'_>,
    reference: &mut Reference,
    ops: &mut Ops,
    rec: &mut Recorder,
) -> Option<Reported> {
    let TracedRun {
        args,
        cpus,
        scratch,
        min_reps,
    } = run;
    let spec = p.spec;
    let ticks = f64::from(spec.ticks);
    let mut out: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();

    let started = Instant::now();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut fastest: Option<Outcome> = None;
    let mut rep = 0u32;
    while traced_walls.len() < min_reps
        || plain_walls.len() < min_reps
        || started.elapsed().as_secs_f64() < 0.4 * args.seconds
    {
        rep += 1;
        // Spans on for two repetitions, off for two, so each state visits
        // every CPU the placement rotates through.
        let traced = rep % 4 < 2;
        place(cpus, rep as usize);
        rec.set_enabled(traced);
        rec.set_rep(rep);
        let s = rec.begin("rep");
        let outcome = ops.run("repetition", || {
            let call = rec.begin(entry_point(spec));
            let outcome = p.rep(spec.ticks, false);
            rec.end(call);
            let check = rec.begin("verify.check");
            let checked = outcome.and_then(|o| reference.check(p, &o).map(|()| o));
            rec.end(check);
            checked
        });
        rec.end(s);
        match outcome {
            Some(o) if traced => {
                traced_walls.push(o.wall_s);
                if fastest.as_ref().is_none_or(|f| o.wall_s < f.wall_s) {
                    fastest = Some(o);
                }
            }
            Some(o) => plain_walls.push(o.wall_s),
            None if ops.failed >= 3 => break,
            None => {}
        }
    }
    rec.set_enabled(true);
    rec.set_rep(0);
    let fastest = fastest?;
    if plain_walls.is_empty() {
        return None;
    }
    let traced_floor = Summary::of(&traced_walls).floor();
    let plain_floor = Summary::of(&plain_walls).floor();
    // Difference in ticks/s with spans on against spans off.
    out.insert(
        "trace_overhead_pct",
        100.0 * (ticks / plain_floor - ticks / traced_floor) / (ticks / plain_floor),
    );

    // Set-up stages (the fastest of this run's set-ups).
    let st = p.stages;
    out.insert("sim.instantiate_s", st.instantiate_s);
    if spec.is_cocomac() {
        out.insert("cocomac.build_s", st.build_s);
        out.insert("pcc.compile_s", st.compile_s);
        out.insert("pcc.plan_s", st.compile.plan_time.as_secs_f64());
        out.insert("pcc.wire_s", st.compile.wire_time.as_secs_f64());
        out.insert(
            "pcc.balance_iterations",
            st.compile.balance_iterations as f64,
        );
    }
    if spec.is_durable() {
        out.insert("pcc.expanded_write_s", st.expanded_write_s);
        out.insert("pcc.expanded_read_s", st.expanded_read_s);
        out.insert(
            "pcc.expanded_bytes_per_core",
            st.expanded_bytes as f64 / p.cores() as f64,
        );
    }

    // Exact counts and program-reported phase times of the fastest
    // traced repetition.
    let mut frame_bytes = 64;
    if let Some(r) = &fastest.report {
        let core_ticks = r.activity().core_ticks as f64;
        let kernel = r.kernel_stats();
        let skips = (r.total_synapse_skips() + r.total_neuron_skips()) as f64;
        let ran_synapse = core_ticks - r.total_synapse_skips() as f64;
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.insert(
            "tn_core.events_per_core_tick",
            div(r.activity().synaptic_events as f64, core_ticks),
        );
        out.insert(
            "tn_core.neurons_stepped_per_core_tick",
            div(kernel.neurons_stepped as f64, core_ticks),
        );
        out.insert(
            "tn_core.fire_per_step_ratio",
            div(r.total_fires() as f64, kernel.neurons_stepped as f64),
        );
        out.insert(
            "tn_core.kernel_dispatch_ratio",
            div(kernel.kernel_synapse_ticks as f64, ran_synapse),
        );
        out.insert("tn_core.skip_ratio", div(skips, 2.0 * core_ticks));
        let t = r.transport;
        out.insert("comm.p2p_messages_per_tick", t.p2p_messages as f64 / ticks);
        out.insert("comm.p2p_bytes_per_tick", t.p2p_bytes as f64 / ticks);
        out.insert("comm.puts_per_tick", t.puts as f64 / ticks);
        out.insert("comm.put_bytes_per_tick", t.put_bytes as f64 / ticks);
        out.insert(
            "comm.collective_ops_per_tick",
            t.collective_ops as f64 / ticks,
        );
        out.insert("comm.barriers_per_tick", t.barriers as f64 / ticks);
        out.insert("comm.wire_bytes_per_tick", t.total_bytes() as f64 / ticks);
        out.insert("comm.messages_per_tick", r.total_messages() as f64 / ticks);
        if let Some(mean) = t.total_bytes().checked_div(t.p2p_messages + t.puts) {
            frame_bytes = mean as usize;
        }
        // Program-reported, slowest rank; wait and work still lumped.
        let phases = r.phase_breakdown();
        out.insert("sim.synapse_s", phases.synapse.as_secs_f64());
        out.insert("sim.neuron_s", phases.neuron.as_secs_f64());
        out.insert("sim.network_s", phases.network.as_secs_f64());
        out.insert("sim.collective_s", r.collective_time().as_secs_f64());
        let wait = r.ranks.iter().map(|k| k.critical_wait).max();
        out.insert("sim.critical_wait_s", wait.map_or(0.0, |w| w.as_secs_f64()));
        let spikes = (r.total_local_spikes() + r.total_remote_spikes()) as f64;
        out.insert(
            "sim.remote_spike_ratio",
            div(r.total_remote_spikes() as f64, spikes),
        );
        out.insert(
            "sim.inbox_routed_per_tick",
            r.total_inbox_routed() as f64 / ticks,
        );
        if spec.is_durable() {
            out.insert("sim.durable_time_s", r.durable_time().as_secs_f64());
            out.insert(
                "sim.durable_bytes_per_gen",
                div(
                    r.total_durable_bytes() as f64,
                    r.total_durable_generations() as f64,
                ),
            );
        }
    }
    if spec.is_batched() {
        out.insert("sim.sessions_per_s", workload::LANES as f64 / traced_floor);
    }

    // The ladder. Probe lengths are a fixed share of the workload's own
    // ticks, so a probe costs a fraction of a repetition.
    let model = p.model();
    let probe_ticks = (spec.ticks / 4).max(8);
    ops.run("layer probes", || {
        probes::prng_probe(args.seed, rec, &mut out);
        if spec.is_batched() {
            probes::batch_probe(&model, p.sessions(), probe_ticks, rec, &mut out);
            let lane_core_ticks = p.cores() as f64 * ticks * workload::CHECKED_LANES.len() as f64;
            out.insert(
                "sim.solo_ns_per_core_tick",
                reference.solo_loop_s * 1e9 / lane_core_ticks,
            );
            return Ok(());
        }
        probes::pool_ladder(&model, probe_ticks, rec, &mut out);
        // The shapes run with every CPU allowed: they are the parallel
        // speeds the gated, time-sliced repetitions do not show.
        measure::restrict_to_cpus(cpus);
        let shapes = probes::shape_probes(p, reference, rec, &mut out);
        place(cpus, 0);
        let shapes = shapes?;
        if spec.ranks > 1 {
            let iters = if args.smoke { 50 } else { 1000 };
            probes::comm_probes(frame_bytes, iters, rec, &mut out);
        }
        if spec.is_durable() {
            probes::snapshot_probe(&model, rec, &mut out);
            let dir = scratch.join("store-probe");
            probes::checkpoint_and_store_probe(&model, &dir, rec, &mut out)?;
            // run_durable over plain run: same model, same shape, both
            // with one CPU per rank.
            out.insert(
                "sim.durable_overhead_ratio",
                shapes.own_wall_s / shapes.two_by_one_wall_s - 1.0,
            );
        }
        Ok(())
    })?;
    Some(out.into_iter().map(|(n, v)| (n, v, None)).collect())
}

fn entry_point(spec: Spec) -> &'static str {
    match spec.kind {
        workload::Kind::CocomacInSitu => "sim.run_rank",
        workload::Kind::CocomacDurable => "sim.run_durable",
        workload::Kind::Batched => "sim.batched_run",
        _ => "sim.run",
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = Path::new("benchmark/out").join(format!("run-{}", std::process::id()));
    // The CPUs this process starts with; each workload narrows them to
    // one per rank.
    let cpus = measure::allowed_cpus();
    let mut results = Vec::new();
    for &spec in &args.workloads {
        results.push(run_workload(spec, args, &cpus, &scratch));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let ok = results.iter().all(WorkloadResult::correct);
    for r in &results {
        r.print_table();
    }
    if args.trace {
        let events = results.iter().flat_map(|r| r.events.clone()).collect();
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        let path = Path::new("benchmark/out/trace.json");
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(path, doc.render()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("host", measure::host_record(cpus.len())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            (
                "workloads",
                Json::obj(results.iter().map(|r| (r.name, r.record()))),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // A workload that produced no metrics has no result line: the caller
    // sees the failure in the exit code and on stderr.
    for r in results.iter().filter(|r| !r.metrics.is_empty()) {
        println!("{}", r.contract_line());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    measure::pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        }
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compass-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "cocomac_2x1",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "cocomac_2x1");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn ops_count_errors_and_panics_as_failed() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("ok", || Ok(3)), Some(3));
        assert_eq!(ops.run("err", || Err::<u8, _>("bad".into())), None);
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = ops.run("panic", || -> Result<u8, String> { panic!("boom") });
        std::panic::set_hook(quiet);
        assert_eq!(r, None);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(ops.errors[1].contains("boom"));
    }

    /// The `--smoke` pass: all seven workloads at toy size, untraced and
    /// traced, verification on.
    #[test]
    fn smoke_pass_verifies_every_workload() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test");
        let cpus = measure::allowed_cpus();
        for trace in [false, true] {
            let a = Args {
                trace,
                seconds: 0.0,
                smoke: true,
                ..args(&[]).unwrap()
            };
            for &spec in &a.workloads {
                let r = run_workload(spec, &a, &cpus, &scratch);
                assert!(r.correct(), "{} trace={trace}: {:?}", r.name, r.errors);
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(r.metrics.len(), catalogue.len());
                assert!(r.attempted >= 4);
                assert!(json::parse(&r.contract_line()).is_ok());
                if !trace {
                    assert!(r.metrics.iter().all(|(_, v, _)| *v > 0.0), "{}", r.name);
                } else {
                    assert!(!r.events.is_empty());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
