//! The metric catalogue: every name the benchmark prints, with its unit,
//! the direction that counts as better, and — for end-to-end metrics —
//! the regression bound. `BENCHMARK.json` repeats this table for the
//! driver; a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse
    /// before a change is rejected; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off. Every
/// one is defined, and non-zero, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ticks_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("resident_kb_per_core", "kB", Lower, 0.01),
];

/// One layer each, from the traced pass. A metric whose layer a workload
/// does not run reads 0 there (README, "Per-layer metrics", says which).
pub const PER_LAYER: &[MetricDef] = &[
    // tn-core: kernels, PRNG, snapshot.
    layer("tn_core.neuron_ns_per_core_tick", "ns", Lower),
    layer("tn_core.synapse_ns_per_core_tick", "ns", Lower),
    layer("tn_core.events_per_core_tick", "count", Lower),
    layer("tn_core.neurons_stepped_per_core_tick", "count", Lower),
    layer("tn_core.fire_per_step_ratio", "ratio", Higher),
    layer("tn_core.kernel_dispatch_ratio", "ratio", Higher),
    layer("tn_core.skip_ratio", "ratio", Higher),
    layer("tn_core.prng_ns_per_draw", "ns", Lower),
    layer("tn_core.batch_ns_per_core_tick_lane", "ns", Lower),
    layer("tn_core.snapshot_ns_per_core", "ns", Lower),
    layer("tn_core.restore_ns_per_core", "ns", Lower),
    layer("tn_core.resident_bytes_per_core", "B", Lower),
    // comm: collectives, mailboxes, PGAS windows, thread team.
    layer("comm.barrier_ns", "ns", Lower),
    layer("comm.reduce_scatter_ns", "ns", Lower),
    layer("comm.p2p_ns_per_msg", "ns", Lower),
    layer("comm.put_ns_per_msg", "ns", Lower),
    layer("comm.team_barrier_ns", "ns", Lower),
    layer("comm.p2p_messages_per_tick", "count", Lower),
    layer("comm.p2p_bytes_per_tick", "B", Lower),
    layer("comm.puts_per_tick", "count", Lower),
    layer("comm.put_bytes_per_tick", "B", Lower),
    layer("comm.collective_ops_per_tick", "count", Lower),
    layer("comm.barriers_per_tick", "count", Lower),
    layer("comm.wire_bytes_per_tick", "B", Lower),
    layer("comm.messages_per_tick", "count", Lower),
    // pcc and cocomac: model generation and compilation.
    layer("cocomac.build_s", "s", Lower),
    layer("pcc.compile_s", "s", Lower),
    layer("pcc.plan_s", "s", Lower),
    layer("pcc.wire_s", "s", Lower),
    layer("pcc.balance_iterations", "count", Lower),
    layer("pcc.expanded_write_s", "s", Lower),
    layer("pcc.expanded_read_s", "s", Lower),
    layer("pcc.expanded_bytes_per_core", "B", Lower),
    // sim: the solo -> engine ladder, program-reported phases, shapes.
    layer("sim.solo_ns_per_core_tick", "ns", Lower),
    layer("sim.run_ns_per_core_tick", "ns", Lower),
    layer("sim.engine_overhead_ratio", "ratio", Lower),
    layer("sim.instantiate_s", "s", Lower),
    layer("sim.synapse_s", "s", Lower),
    layer("sim.neuron_s", "s", Lower),
    layer("sim.network_s", "s", Lower),
    layer("sim.collective_s", "s", Lower),
    layer("sim.critical_wait_s", "s", Lower),
    layer("sim.remote_spike_ratio", "ratio", Lower),
    layer("sim.inbox_routed_per_tick", "count", Lower),
    layer("sim.parallel_ticks_per_s", "1/s", Higher),
    layer("sim.strong_scaling_eff", "ratio", Higher),
    layer("sim.threads_1x2_ticks_per_s", "1/s", Higher),
    layer("sim.alt_backend_ticks_per_s", "1/s", Higher),
    layer("sim.sessions_per_s", "1/s", Higher),
    // sim: checkpoint codec and the durable store.
    layer("sim.checkpoint_encode_ns_per_core", "ns", Lower),
    layer("sim.checkpoint_decode_ns_per_core", "ns", Lower),
    layer("sim.store_write_s_per_gen", "s", Lower),
    layer("sim.store_recover_s", "s", Lower),
    layer("sim.durable_time_s", "s", Lower),
    layer("sim.durable_overhead_ratio", "ratio", Lower),
    layer("sim.durable_bytes_per_gen", "B", Lower),
    // The instrument itself.
    layer("trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workload::WORKLOADS;

    fn listed(doc: &Json, key: &str) -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no array '{key}'"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue above is
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = listed(&doc, key);
            assert_eq!(items.len(), defs.len(), "{key} length");
            for (item, def) in items.iter().zip(defs) {
                let s = |k| item.get(k).and_then(Json::as_str);
                assert_eq!(s("name"), Some(def.name));
                assert_eq!(s("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(s("better"), Some(def.better.as_str()), "{}", def.name);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let names: Vec<_> = listed(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(names, ours);
        for (w, spec) in listed(&doc, "workloads").iter().zip(&WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(spec.why));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
