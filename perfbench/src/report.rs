//! Metric names, units, and the result line.
//!
//! Every workload reports every metric listed here; a per-layer metric of a
//! layer the workload does not exercise reads 0. `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("strong_slowdown_x", "x"),
    ("peak_rss_mb", "MB"),
];

/// The TMIR programs, in rotation order.
pub const PROGRAMS: [&str; 4] = ["jvm98", "tsp", "oo7", "jbb"];

/// Per-layer metrics that are not per TMIR program: name and unit.
const LAYER_FIXED: [(&str, &str); 32] = [
    ("barrier.reads", "count"),
    ("barrier.writes", "count"),
    ("barrier.self_s", "s"),
    ("barrier.ns_per_access", "ns"),
    ("dea.private_fast_paths", "count"),
    ("dea.publishes", "count"),
    ("dea.private_hit_ratio", "ratio"),
    ("txn.commits", "count"),
    ("txn.aborts", "count"),
    ("txn.aborts_validation", "count"),
    ("txn.abort_ratio", "ratio"),
    ("txn.attempts_per_block", "ratio"),
    ("txn.read_ns", "ns"),
    ("txn.write_ns", "ns"),
    ("txn.block_self_ns", "ns"),
    ("clock.rv_extensions", "count"),
    ("clock.revalidations_skipped", "count"),
    ("clock.cas_retries", "count"),
    ("contention.conflict_waits", "count"),
    ("contention.wait_rounds", "count"),
    ("contention.self_aborts", "count"),
    ("contention.escalations_to_serial", "count"),
    ("contention.deadline_aborts", "count"),
    ("contention.retries_exhausted", "count"),
    ("tmir.parse_check_s", "s"),
    ("nait.analyze_s", "s"),
    ("bytecode.compile_s", "s"),
    ("bytecode.optimize_s", "s"),
    ("jvm98.body_s", "s"),
    ("heap.objects_allocated", "count"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Per-TMIR-program metrics: name template (`{}` = program) and unit.
const LAYER_PER_PROGRAM: [(&str, &str); 7] = [
    ("vm.{}.run_s", "s"),
    ("vm.{}.barriers_executed", "count"),
    ("vm.{}.barriers_elided", "count"),
    ("vm.{}.barriers_aggregated", "count"),
    ("vm.{}.regions", "count"),
    ("vm.{}.barrier_self_s", "s"),
    ("bytecode.{}.passes_gain_x", "x"),
];

/// Every per-layer metric: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u));
    let per_program = LAYER_PER_PROGRAM
        .iter()
        .flat_map(|&(t, u)| PROGRAMS.iter().map(move |p| (t.replace("{}", p), u)));
    fixed.chain(per_program).collect()
}

/// Named metric values.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a run produced: operation counts plus both metric families.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a typed stop or a VM trap.
    pub failed: u64,
    /// End-to-end values.
    pub e2e: Metrics,
    /// Per-layer values.
    pub layer: Metrics,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Selects the reported metrics in registry order. An end-to-end metric a
/// workload failed to set, or any non-finite value, is a bug in the
/// benchmark; an unset per-layer metric reads 0.
pub fn select(out: &Outcome, trace: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
    let rows: Vec<(String, Option<f64>, &str)> = if trace {
        per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = out.layer.get(&n).unwrap_or(0.0);
                (n, Some(v), u)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), out.e2e.get(n), u))
            .collect()
    };
    rows.into_iter()
        .map(|(n, v, u)| match v {
            Some(v) if v.is_finite() => Ok((n, v, u)),
            Some(v) => Err(format!("metric {n} is not finite ({v})")),
            None => Err(format!("metric {n} was not measured")),
        })
        .collect()
}

/// Writes the kept spans to `<build dir>/perfbench-trace/<workload>-seed<seed>.tsv`,
/// where the build directory is `CARGO_TARGET_DIR` (default `target`), and
/// notes where. A failed write is noted, not fatal: spans are diagnostics.
pub fn write_trace(trace: &crate::trace::Trace, workload: &str, seed: u64, out: &mut Outcome) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.tsv"));
    match trace.write(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// The machine-readable result line.
pub fn json_line(attempted: u64, failed: u64, rows: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this registry reports.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..start + text[start..].find(']').expect("closing bracket")];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap().to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit.split('"').next().unwrap().to_string())
                })
                .collect()
        };
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let want_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), want_e2e);
        assert_eq!(section("per_layer"), want_layer);
    }

    #[test]
    fn json_line_shape() {
        let rows = vec![("a".to_string(), 1.5, "s"), ("b".to_string(), 2.0, "count")];
        assert_eq!(
            json_line(3, 0, &rows),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn unset_end_to_end_metric_is_an_error() {
        let mut out = Outcome::default();
        assert!(select(&out, false).is_err());
        for (n, _) in END_TO_END {
            out.e2e.set(n, 1.0);
        }
        assert_eq!(select(&out, false).unwrap().len(), END_TO_END.len());
        assert_eq!(select(&out, true).unwrap().len(), per_layer().len());
        out.e2e.set("setup_s", f64::NAN);
        assert!(select(&out, false).is_err());
    }
}
