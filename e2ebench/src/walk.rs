//! The layered walk: one spec evaluated through the public call of every
//! layer, serially, with a span around each call.
//!
//! The walk mirrors what `stream::run` does for a spec (lower, build one
//! database per platform axis, one baseline per mix, one managed run per
//! scenario against the context's curve cache) but calls each layer itself,
//! so each call can be timed from outside the crates. Its comparisons must
//! be byte-identical to the streamed and merged result of the same spec.

use crate::manager::Forwarding;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use experiments::{ExperimentContext, ScenarioKey, ScenarioOutcome, ScenarioSpec, SweepResult};
use qosrm_core::RmaWorkCounters;
use rma_sim::CophaseSimulator;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Counts gathered by walks (summed over every walk fed to one value).
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// `SimDb::len()` summed over database calls that built a database.
    pub records_built: u64,
    /// Mix slots (benchmark references) passed to database calls.
    pub benchmark_refs: u64,
    /// Distinct `(platform, benchmark)` pairs seen by database calls.
    pub distinct_benchmarks: BTreeSet<(String, String)>,
    /// Database keys already built in this context (a repeat is warm).
    built_keys: BTreeSet<String>,
    /// Summed RMA work counters of every managed run.
    pub rma: RmaWorkCounters,
    /// `on_interval` busy seconds per variant label.
    pub rma_s_by_variant: BTreeMap<String, f64>,
    /// Simulated intervals of baseline and managed runs.
    pub intervals: u64,
    /// Setting changes of managed runs.
    pub setting_changes: u64,
    /// Scenarios walked.
    pub scenarios: u64,
    /// Shard logs written by the stream step.
    pub shards: u64,
    /// Bytes of shard logs written by the stream step.
    pub log_bytes: u64,
}

fn add_counters(total: &mut RmaWorkCounters, c: &RmaWorkCounters) {
    // Exhaustive destructuring: a new counter fails compilation here.
    let RmaWorkCounters {
        invocations,
        curve_builds,
        local_evaluations,
        reduction_ops,
        reduction_pruned,
        qos_at_risk_intervals,
        game_rounds,
        best_response_evaluations,
        equilibria_examined,
        delta_invocations,
        curves_patched,
        warm_rows_reused,
        chunked_conv_lanes,
    } = *c;
    total.invocations += invocations;
    total.curve_builds += curve_builds;
    total.local_evaluations += local_evaluations;
    total.reduction_ops += reduction_ops;
    total.reduction_pruned += reduction_pruned;
    total.qos_at_risk_intervals += qos_at_risk_intervals;
    total.game_rounds += game_rounds;
    total.best_response_evaluations += best_response_evaluations;
    total.equilibria_examined += equilibria_examined;
    total.delta_invocations += delta_invocations;
    total.curves_patched += curves_patched;
    total.warm_rows_reused += warm_rows_reused;
    total.chunked_conv_lanes += chunked_conv_lanes;
}

/// Key of the context's database memo for one axis, so the walk can tell
/// a building call from a warm one.
fn database_key(axis: &experiments::PlatformAxis) -> String {
    let mut names: Vec<&str> = axis
        .mixes
        .iter()
        .flat_map(|m| m.benchmarks.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let digest = qosrm_core::memo::fingerprint(&axis.platform);
    format!("{:016x}{:016x}-{}", digest.0, digest.1, names.join(","))
}

/// Walks `spec` on `ctx`, recording spans under a `walk` root span of
/// `group`; the spans of scenario `i` get their own group,
/// `(group << 32) | (i + 1)`. Returns the comparisons as a [`SweepResult`] in the
/// canonical axis order (platform, mix, QoS, variant).
pub fn walk(
    spec: &ScenarioSpec,
    ctx: &ExperimentContext,
    tracer: &mut Tracer,
    group: u64,
    counts: &mut LayerCounts,
) -> Result<SweepResult, String> {
    let root = tracer.open("walk", None, group);
    let span = tracer.open("spec.lower", Some(root), group);
    let grid = spec.lower().map_err(|e| format!("lower: {e}"))?;
    tracer.close(span);

    let mut databases = Vec::with_capacity(grid.platforms.len());
    for axis in &grid.platforms {
        let span = tracer.open("simdb.database", Some(root), group);
        let db = ctx.database(&axis.platform, &axis.mixes);
        tracer.close(span);
        let digest = qosrm_core::memo::fingerprint(&axis.platform);
        let platform_key = format!("{:016x}{:016x}", digest.0, digest.1);
        for mix in &axis.mixes {
            counts.benchmark_refs += mix.benchmarks.len() as u64;
            for name in &mix.benchmarks {
                counts
                    .distinct_benchmarks
                    .insert((platform_key.clone(), name.clone()));
            }
        }
        if counts.built_keys.insert(database_key(axis)) {
            counts.records_built += db.len() as u64;
        }
        databases.push(db);
    }

    let mut scenarios = Vec::with_capacity(grid.len());
    for (a, axis) in grid.platforms.iter().enumerate() {
        for mix in &axis.mixes {
            // The baseline serves every scenario of the mix; it is filed
            // under the first of them.
            let first = (group << 32) | (scenarios.len() as u64 + 1);
            let span = tracer.open("rma_sim.baseline", Some(root), first);
            let simulator = CophaseSimulator::new(&databases[a], mix, grid.options.clone())
                .map_err(|e| format!("simulator for {}: {e}", mix.name))?;
            let baseline = simulator
                .run_baseline()
                .map_err(|e| format!("baseline of {}: {e}", mix.name))?;
            tracer.close(span);
            counts.intervals += baseline.intervals.len() as u64;
            for qos_axis in &grid.qos {
                let qos = qos_axis.policy.resolve(axis.platform.num_cores);
                for variant in &grid.variants {
                    let outcome = managed_run(
                        tracer,
                        root,
                        (group << 32) | (scenarios.len() as u64 + 1),
                        ctx,
                        (&simulator, &baseline),
                        (axis, mix, qos_axis, variant),
                        &qos,
                        counts,
                    )?;
                    scenarios.push(outcome);
                }
            }
        }
    }
    tracer.close(root);
    Ok(SweepResult { scenarios })
}

/// One managed run of the walk, with its aggregated `on_interval` child.
#[allow(clippy::too_many_arguments)]
fn managed_run(
    tracer: &mut Tracer,
    root: SpanId,
    group: u64,
    ctx: &ExperimentContext,
    (simulator, baseline): (&CophaseSimulator, &rma_sim::SimulationResult),
    (axis, mix, qos_axis, variant): (
        &experiments::PlatformAxis,
        &workload::WorkloadMix,
        &experiments::QosAxis,
        &experiments::RmaVariant,
    ),
    qos: &[qosrm_types::QosSpec],
    counts: &mut LayerCounts,
) -> Result<ScenarioOutcome, String> {
    let mut manager = variant.build(&axis.platform, qos.to_vec());
    if ctx.sweep.memoize {
        manager = manager.with_curve_cache(ctx.curve_cache().clone());
    }
    if ctx.sweep.incremental {
        manager = manager.with_incremental();
    }
    let mut manager = Forwarding::new(manager, tracer.enabled());
    let span = tracer.open("rma_sim.managed", Some(root), group);
    let (comparison, managed) = simulator
        .run_comparison(&mut manager, baseline, qos)
        .map_err(|e| format!("managed run of {}: {e}", mix.name))?;
    tracer.close(span);
    tracer.aggregate(
        "core.on_interval",
        span,
        group,
        manager.calls(),
        manager.busy(),
    );
    add_counters(&mut counts.rma, &manager.inner().work_counters());
    *counts
        .rma_s_by_variant
        .entry(variant.label().to_string())
        .or_insert(0.0) += manager.busy().as_secs_f64();
    counts.intervals += managed.intervals.len() as u64;
    counts.setting_changes += managed.setting_changes;
    counts.scenarios += 1;
    Ok(ScenarioOutcome {
        key: ScenarioKey {
            platform: axis.label.clone(),
            mix: mix.name.clone(),
            qos: qos_axis.label.clone(),
            variant: variant.label().to_string(),
        },
        comparison,
    })
}

/// `stream::run` + `merge` of `spec` into `dir` on `ctx`, with spans, also
/// counting the shard logs written. Returns the merged result.
pub fn stream_and_merge(
    spec: &ScenarioSpec,
    ctx: &ExperimentContext,
    dir: &Path,
    tracer: &mut Tracer,
    group: u64,
    counts: &mut LayerCounts,
) -> Result<SweepResult, String> {
    let span = tracer.open("stream.run", None, group);
    experiments::stream::run(spec, ctx, dir, &Default::default())
        .map_err(|e| format!("stream run: {e}"))?;
    tracer.close(span);
    let span = tracer.open("stream.merge", None, group);
    let merged = experiments::stream::merge(dir).map_err(|e| format!("merge: {e}"))?;
    tracer.close(span);
    let (shards, bytes) = shard_logs(dir)?;
    counts.shards += shards;
    counts.log_bytes += bytes;
    Ok(merged)
}

/// Number and total size of the shard logs in a run directory.
fn shard_logs(dir: &Path) -> Result<(u64, u64), String> {
    let mut shards = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") && name.ends_with(".jsonl") {
            shards += 1;
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok((shards, bytes))
}

/// Serializes a sweep result the way `/result` and `sweep merge` do.
pub fn result_bytes(result: &SweepResult) -> Result<String, String> {
    serde_json::to_string(result).map_err(|e| e.to_string())
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-layer metric values of one traced walk (plus its stream step).
pub fn layer_values(
    tracer: &Tracer,
    counts: &LayerCounts,
    ctx: &ExperimentContext,
) -> BTreeMap<&'static str, f64> {
    let totals = tracer.totals_by_name();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let rma = &counts.rma;
    let cache = ctx.curve_cache();
    let mut v = BTreeMap::new();
    v.insert("spec.lower_s", total("spec.lower"));
    v.insert("simdb.build_s", total("simdb.database"));
    v.insert("simdb.records_built", counts.records_built as f64);
    v.insert("simdb.benchmark_refs", counts.benchmark_refs as f64);
    v.insert(
        "simdb.reuse_ratio",
        ratio(
            counts.distinct_benchmarks.len() as u64,
            counts.records_built,
        ),
    );
    v.insert("core.rma_s", total("core.on_interval"));
    for (name, label) in [
        ("core.rma_s.RM2", "RM2"),
        ("core.rma_s.RM3", "RM3"),
        ("core.rma_s.NashBR", "NashBR"),
        ("core.rma_s.NashEq", "NashEq"),
    ] {
        v.insert(
            name,
            counts.rma_s_by_variant.get(label).copied().unwrap_or(0.0),
        );
    }
    v.insert("core.invocations", rma.invocations as f64);
    v.insert("core.curve_builds", rma.curve_builds as f64);
    v.insert("core.local_evaluations", rma.local_evaluations as f64);
    v.insert("core.reduction_ops", rma.reduction_ops as f64);
    v.insert(
        "core.prune_ratio",
        ratio(rma.reduction_pruned, rma.reduction_ops),
    );
    v.insert(
        "core.curve_cache_hit_rate",
        ratio(cache.hits(), cache.hits() + cache.misses()),
    );
    v.insert("core.game_rounds", rma.game_rounds as f64);
    v.insert(
        "core.best_response_evaluations",
        rma.best_response_evaluations as f64,
    );
    v.insert("core.equilibria_examined", rma.equilibria_examined as f64);
    v.insert("core.warm_rows_reused", rma.warm_rows_reused as f64);
    v.insert("rma_sim.baseline_s", total("rma_sim.baseline"));
    v.insert(
        "rma_sim.managed_self_s",
        total("rma_sim.managed") - total("core.on_interval"),
    );
    v.insert("rma_sim.intervals", counts.intervals as f64);
    v.insert("rma_sim.setting_changes", counts.setting_changes as f64);
    v.insert("stream.merge_s", total("stream.merge"));
    v.insert("stream.shards", counts.shards as f64);
    v.insert("stream.log_bytes", counts.log_bytes as f64);
    // The serve workload overwrites these with its wire measurements.
    for name in [
        "serve.submit_p50_s",
        "serve.http_requests_per_spec",
        "serve.dedup_ratio",
        "serve.queue_full_rejections",
        "serve.leases_granted",
    ] {
        v.insert(name, 0.0);
    }
    let self_times = tracer.self_times();
    for (name, layer) in [
        ("self_s.spec", "spec"),
        ("self_s.simdb", "simdb"),
        ("self_s.rma_sim", "rma_sim"),
        ("self_s.core", "core"),
        ("self_s.stream", "stream"),
        ("self_s.serve", "serve"),
    ] {
        v.insert(name, self_times.get(layer).copied().unwrap_or(0.0));
    }
    v
}

/// Medians, per metric, over several walks' values.
pub fn median_values(walks: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = walks.first() {
        for name in first.keys() {
            let column: Vec<f64> = walks.iter().map(|w| w[name]).collect();
            out.insert(*name, median(&column));
        }
    }
    out
}
