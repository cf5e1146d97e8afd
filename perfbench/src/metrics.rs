//! The metric names this benchmark prints, their units, and the result
//! line.
//!
//! These lists are the contract with `BENCHMARK.json`: an untraced run
//! prints every [`END_TO_END`] metric and a traced run every
//! [`PER_LAYER`] metric, for every workload. A per-layer metric of a
//! layer a workload does not call reads 0 there.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_ratio", "ratio"),
    // Where the traced run's time went.
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("ledger.faultgen_ms", "ms"),
    ("ledger.fblock_ms", "ms"),
    ("ledger.core_ms", "ms"),
    ("ledger.experiments_ms", "ms"),
    ("ledger.meshroute_ms", "ms"),
    ("ledger.traffic_ms", "ms"),
    ("ledger.incremental_ms", "ms"),
    ("ledger.serve_ms", "ms"),
    ("ledger.bench_ms", "ms"),
    // Each workload's headline figures, from the untraced half of the
    // traced run.
    ("figures.sweep_s", "s"),
    ("traffic.sweep_s", "s"),
    ("route.pairs_per_s", "1/s"),
    ("serve.ingest_eps", "1/s"),
    ("serve.visible_p50_us", "us"),
    ("serve.visible_p99_us", "us"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    // faultgen
    ("faultgen.inject_ms", "ms"),
    // fblock
    ("fblock.fb_ms", "ms"),
    ("fblock.fp_ms", "ms"),
    ("fblock.fb_rounds", "count"),
    ("fblock.fp_rounds", "count"),
    // mocp_core
    ("core.cmfp_ms", "ms"),
    ("core.cmfp_disabled", "count"),
    ("core.dmfp_ms", "ms"),
    ("core.dmfp_rounds", "count"),
    // experiments
    ("experiments.analyze_ms", "ms"),
    // meshroute
    ("meshroute.regionmap_ms", "ms"),
    ("meshroute.route_ok_p50_us", "us"),
    ("meshroute.route_ok_p99_us", "us"),
    ("meshroute.route_fail_p50_us", "us"),
    ("meshroute.route_fail_max_us", "us"),
    ("meshroute.detours", "count"),
    ("meshroute.fallbacks", "count"),
    ("meshroute.unrouted_connected", "count"),
    ("meshroute.abnormal_hops", "count"),
    ("meshroute.stretch_mean", "ratio"),
    ("meshroute.cdg_acyclic_fb", "count"),
    ("meshroute.cdg_acyclic_cmfp", "count"),
    // mocp_traffic
    ("traffic.simulate_ms", "ms"),
    ("traffic.ns_per_hop", "ns"),
    ("traffic.hops", "count"),
    ("traffic.cycles", "count"),
    ("traffic.detours", "count"),
    ("traffic.delivered", "count"),
    ("traffic.stranded", "count"),
    ("traffic.latency_p50_cycles", "cycles"),
    ("traffic.latency_p99_cycles", "cycles"),
    ("traffic.rejected_populations", "count"),
    // mocp_incremental
    ("incremental.apply_p50_us", "us"),
    ("incremental.apply_p99_us", "us"),
    ("incremental.merges", "count"),
    ("incremental.splits", "count"),
    ("incremental.recomputes", "count"),
    ("incremental.cache_hits", "count"),
    // mocp_serve
    ("serve.ingest_call_p50_us", "us"),
    ("serve.ingest_call_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.backlog_max", "count"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.updates_sent", "count"),
    ("serve.ingest_retries", "count"),
    ("serve.ingest_saturated", "count"),
];

/// What one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric; the name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|&(declared, _)| declared == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line: every metric of `declared`, in order. A declared
    /// metric the workload did not set reads 0 (a layer it never calls).
    pub fn result_line(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
