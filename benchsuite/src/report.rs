//! The run report: human-readable lines, then one JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_mem_mib", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// that does not run in a workload reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("import.ms", "ms"),
    ("import.nodes_per_ms", "1/ms"),
    ("graph.pathset_ms", "ms"),
    ("graph.fingerprint_ms", "ms"),
    ("strings.tokenize_ms", "ms"),
    ("analyze.ms", "ms"),
    ("analyze.peak_headroom", "ratio"),
    ("matchers.Name_ms", "ms"),
    ("matchers.NamePath_ms", "ms"),
    ("matchers.TypeName_ms", "ms"),
    ("matchers.Children_ms", "ms"),
    ("matchers.Leaves_ms", "ms"),
    ("matchers.cells_per_s", "1/s"),
    ("cube.shard_max_ms", "ms"),
    ("cube.assemble_ms", "ms"),
    ("cube.shard_speedup", "ratio"),
    ("cube.stored_entries", "count"),
    ("engine.execute_ms", "ms"),
    ("engine.prefilter_ms", "ms"),
    ("engine.refine_ms", "ms"),
    ("engine.prefilter_density", "ratio"),
    ("engine.shards", "count"),
    ("engine.fused_stages", "count"),
    ("engine.peak_mib", "MiB"),
    ("engine.replay_reproduced", "ratio"),
    ("index.build_ms", "ms"),
    ("index.postings", "count"),
    ("index.retrieved_pairs", "count"),
    ("index.recall_vs_exact", "ratio"),
    ("combine.ms", "ms"),
    ("reuse.resolve_ms", "ms"),
    ("reuse.paths_found", "count"),
    ("reuse.paths_accepted_ratio", "ratio"),
    ("cache.matrix_hit_ratio", "ratio"),
    ("cache.index_hit_ratio", "ratio"),
    ("cache.matrix_entries", "count"),
    ("repo.persist_ms", "ms"),
    ("repo.bytes_written_per_write", "bytes"),
    ("repo.store_bytes", "bytes"),
    ("server.exec_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.response_bytes", "bytes"),
    ("quality.f1", "ratio"),
    ("service.warm_p50_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.write_p50_ms", "ms"),
    ("service.write_tail_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.throughput_per_s", "1/s"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Units attempted (tasks or requests).
    pub attempted: u64,
    /// Units that failed, were refused, or failed their output check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub check_failures: Vec<String>,
    /// Every metric measured, by name (end-to-end and per-layer).
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        unit_of(name);
        self.values.insert(name.to_string(), value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output-check failure of `units` units.
    pub fn fail_check(&mut self, units: u64, why: impl Into<String>) {
        self.failed += units;
        self.check_failures.push(why.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The metrics the result line carries: every end-to-end metric
    /// untraced, every per-layer metric traced (0 for layers that did not
    /// run). Non-finite values become 0.
    pub fn result_metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .result_metrics(traced)
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the notes, every measured metric, the check verdicts, then
    /// the result line last.
    pub fn print(&self, traced: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value) in &self.values {
            println!("# {name:<32} {value:>18.6} {}", unit_of(name));
        }
        for why in &self.check_failures {
            println!("# CHECK FAILED: {why}");
        }
        println!("{}", self.result_line(traced));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{at, boolean, get, number, parse};

    fn value(line: &str, name: &str) -> Option<f64> {
        at(&parse(line).unwrap(), &["metrics", name, "value"]).and_then(number)
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        r.set("latency_p50_ms", 3.5);
        r.set("import.ms", f64::NAN);
        let line = r.result_line(false);
        let v = parse(&line).unwrap();
        assert_eq!(get(&v, "correct").and_then(boolean), Some(true));
        assert_eq!(get(&v, "attempted").and_then(number), Some(12.0));
        assert_eq!(value(&line, "setup_s"), Some(0.25));
        assert_eq!(
            at(&v, &["metrics", "throughput_per_s", "unit"]).and_then(|u| u.as_str()),
            Some("1/s")
        );
        let count = |v: &serde::Value| get(v, "metrics").and_then(|m| m.as_map()).map(<[_]>::len);
        assert_eq!(count(&v), Some(END_TO_END.len()));
        let traced = r.result_line(true);
        assert_eq!(count(&parse(&traced).unwrap()), Some(PER_LAYER.len()));
        assert_eq!(value(&traced, "import.ms"), Some(0.0));
        r.fail_check(3, "mismatch");
        let v = parse(&r.result_line(false)).unwrap();
        assert_eq!(get(&v, "correct").and_then(boolean), Some(false));
        assert_eq!(get(&v, "failed").and_then(number), Some(3.0));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = get(&spec, key)
                .and_then(|l| l.as_seq())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| get(m, f).and_then(|s| s.as_str()).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
