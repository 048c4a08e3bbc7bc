//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step. With `--trace 0` a run reports every [`END_TO_END`] metric, with
//! `--trace 1` every [`PER_LAYER`] metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("specs_per_s", "1/s"),
    ("result_p50_s", "s"),
    ("result_p90_s", "s"),
    ("first_outcome_p50_s", "s"),
    ("first_outcome_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer that does not run on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.lower_s", "s"),
    ("simdb.build_s", "s"),
    ("simdb.records_built", "count"),
    ("simdb.benchmark_refs", "count"),
    ("simdb.reuse_ratio", "ratio"),
    ("core.rma_s", "s"),
    ("core.rma_s.RM2", "s"),
    ("core.rma_s.RM3", "s"),
    ("core.rma_s.NashBR", "s"),
    ("core.rma_s.NashEq", "s"),
    ("core.invocations", "count"),
    ("core.curve_builds", "count"),
    ("core.local_evaluations", "count"),
    ("core.reduction_ops", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.curve_cache_hit_rate", "ratio"),
    ("core.game_rounds", "count"),
    ("core.best_response_evaluations", "count"),
    ("core.equilibria_examined", "count"),
    ("core.warm_rows_reused", "count"),
    ("rma_sim.baseline_s", "s"),
    ("rma_sim.managed_self_s", "s"),
    ("rma_sim.intervals", "count"),
    ("rma_sim.setting_changes", "count"),
    ("stream.merge_s", "s"),
    ("stream.shards", "count"),
    ("stream.log_bytes", "bytes"),
    ("serve.submit_p50_s", "s"),
    ("serve.http_requests_per_spec", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.queue_full_rejections", "count"),
    ("serve.leases_granted", "count"),
    ("self_s.spec", "s"),
    ("self_s.simdb", "s"),
    ("self_s.rma_sim", "s"),
    ("self_s.core", "s"),
    ("self_s.stream", "s"),
    ("self_s.serve", "s"),
    ("trace.walk_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one benchmark run observed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (scenarios for sweeps, submissions for serve).
    pub attempted: u64,
    /// Operations that failed: a verification mismatch, a refused
    /// submission or an exhausted retry.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every output was verified correct.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: one JSON object with exactly the catalogue's
    /// metrics (missing ones are an error of the benchmark itself).
    pub fn json_line(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
