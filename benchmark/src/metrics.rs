//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `/BENCHMARK.json` holds the same
//! names with their direction, bounds and reasons; the smoke test checks
//! every run's output against that file.

use crate::gen::CLASSES;

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "serve-churn", "batch-paper"];

/// The gated metrics, `(name, unit)`: what `--trace 0` prints. The two
/// latency percentiles are not among them: on the host the benchmark was
/// calibrated on they do not repeat within a tenth (`CALIBRATION.md`), so
/// they are per-layer metrics, reported and not gated.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics that exist once: `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 55] = [
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("storage.snapshot_us", "us"),
    ("storage.insert_cow_us", "us"),
    ("storage.partition_ms", "ms"),
    ("algebra.optimize_us", "us"),
    ("algebra.hash_ns", "ns"),
    ("stats.analyze_ms", "ms"),
    ("stats.catalog_hit_ns", "ns"),
    ("eval.plan_us", "us"),
    ("eval.plan_chain_us", "us"),
    ("eval.execute_ms", "ms"),
    ("eval.execute_share", "ratio"),
    ("eval.kernel.join_mrows_s", "Mrows/s"),
    ("eval.kernel.semijoin_mrows_s", "Mrows/s"),
    ("eval.kernel.merge_join_mrows_s", "Mrows/s"),
    ("eval.kernel.multiway_ms", "ms"),
    ("eval.kernel.join_par_ratio", "ratio"),
    ("eval.kernel.semijoin_par_ratio", "ratio"),
    ("eval.max_intermediate_rows.div-ra-plan", "count"),
    ("eval.max_intermediate_rows.div-counting-plan", "count"),
    ("setjoin.division_ms.hash", "ms"),
    ("setjoin.division_ms.sort-merge", "ms"),
    ("setjoin.division_ms.counting", "ms"),
    ("setjoin.division_ms.parallel-hash", "ms"),
    ("setjoin.setjoin_ms.signature64", "ms"),
    ("setjoin.setjoin_ms.signature256", "ms"),
    ("setjoin.setjoin_ms.inverted-index", "ms"),
    ("setjoin.setjoin_ms.parallel-signature", "ms"),
    ("server.handoff_us", "us"),
    ("server.handoff_cold_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p95_us", "us"),
    ("server.service_hit_us", "us"),
    ("server.service_plan_hit_ms", "ms"),
    ("server.service_cold_ms", "ms"),
    ("server.hit_path_p50_us", "us"),
    ("server.cache_get_ns", "ns"),
    ("server.cache_insert_ns", "ns"),
    ("server.cache_retain_us", "us"),
    ("server.write_insert_us", "us"),
    ("server.write_analyze_ms", "ms"),
    ("server.scaling_ratio", "ratio"),
    ("server.residual_share", "ratio"),
    ("server.result_hit_ratio", "ratio"),
    ("server.plan_hit_ratio", "ratio"),
    ("server.result_hits", "count"),
    ("server.plan_hits", "count"),
    ("server.cold_runs", "count"),
    ("server.writes", "count"),
    ("server.analyzes", "count"),
    ("obs.span_off_ns", "ns"),
    ("obs.span_on_ns", "ns"),
    ("obs.counter_with_ns", "ns"),
    ("workload.generate_ms", "ms"),
];

/// The four classes that go through the set-operator registry.
pub const SET_OPERATOR_CLASSES: [&str; 4] = [
    "div-direct",
    "setjoin-contain-uniform",
    "setjoin-contain-zipf",
    "setjoin-equal",
];

/// Every per-layer metric, in print order: `(name, unit)`. This is what
/// `--trace 1` prints.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for class in CLASSES {
        all.push((format!("eval.class_ms.{class}"), "ms"));
    }
    for class in CLASSES {
        all.push((format!("eval.class_par_ratio.{class}"), "ratio"));
    }
    for class in SET_OPERATOR_CLASSES {
        all.push((format!("setjoin.auto_regret.{class}"), "ratio"));
    }
    all.push(("bench.trace_overhead_share".into(), "ratio"));
    all
}
