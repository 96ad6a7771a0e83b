//! The benchmark's metric names and units — the single declaration that
//! `BENCHMARK.json` must match (checked by this module's tests).

use cosmos_common::json::{Map, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_ok_frac", "ratio"),
];

/// Per-layer metrics, measured by the traced run: `(name, unit)`. Every
/// traced run reports all of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.graph_gen_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("front_end.ns_per_call", "ns"),
    ("front_end.calls", "count"),
    ("front_end.repeat_factor", "ratio"),
    ("front_end.l1_hit_rate", "ratio"),
    ("front_end.llc_miss_rate", "ratio"),
    ("front_end.writebacks_per_call", "ratio"),
    ("front_end.share", "ratio"),
    ("secure.ctr_read_ns", "ns"),
    ("secure.ctr_write_ns", "ns"),
    ("secure.calls", "count"),
    ("secure.ctr_miss_rate", "ratio"),
    ("secure.mt_reads_per_ctr_miss", "ratio"),
    ("secure.reencrypts", "count"),
    ("secure.lcr_ns_per_ctr_read", "ns"),
    ("secure.share", "ratio"),
    ("data_pred.ns_per_call", "ns"),
    ("data_pred.calls", "count"),
    ("data_pred.accuracy", "ratio"),
    ("data_pred.killed_frac", "ratio"),
    ("dram.ns_per_call", "ns"),
    ("dram.calls", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.queue_cycles_per_request", "cycles"),
    ("core.glue_ns_per_access", "ns"),
    ("design.NP.ns_per_access", "ns"),
    ("design.MorphCtr.ns_per_access", "ns"),
    ("design.COSMOS-CP.ns_per_access", "ns"),
    ("design.COSMOS-DP.ns_per_access", "ns"),
    ("design.COSMOS.ns_per_access", "ns"),
    ("runner.job_s_p50", "s"),
    ("runner.job_s_max", "s"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.sim_new_s", "s"),
    ("sampling.plan_build_s", "s"),
    ("sampling.plan_builds_per_trace", "ratio"),
    ("sampling.run_s", "s"),
    ("sampling.simulated_frac", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.overwritten_frac", "ratio"),
    ("telemetry.export_s", "s"),
    ("emit.s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values keyed by declared name. Setting an undeclared name is a
/// bug in the benchmark, so it panics rather than emitting a metric the
/// benchmark definition does not know.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `table` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under the declared `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this set's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values.insert(key, value);
    }

    /// `{"name": {"value": v, "unit": u}, …}` in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set: every run reports every
    /// metric of its kind.
    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        for (name, unit) in self.table {
            let value = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name:?} was never set"));
            out.insert(
                *name,
                cosmos_common::json!({"value": (*value), "unit": (*unit)}),
            );
        }
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::json::parse;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc[section]
            .as_array()
            .expect("section is an array")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn emitted(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid_and_declared() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (name, _) in table {
                assert!(valid_name(name), "{name:?} is not a legal metric name");
            }
            assert_eq!(emitted(table), declared(section), "{section}");
        }
    }

    #[test]
    fn names_are_unique_across_both_sets() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn name_check_rejects_bad_names() {
        for bad in ["", ".lead", "has space", "semi;colon", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Metrics::new(END_TO_END).set("latency_ms", 1.0);
    }
}
