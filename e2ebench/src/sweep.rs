//! The sweep workloads: a spec from load to a merged, verified result.
//!
//! An untraced run times repetitions of the user-facing `sweep run` path on
//! a cold context each: spec load and `lower`, `ExperimentContext::database`
//! for every platform axis (the set-up), then `stream::run` (which finds the
//! databases warm) and `merge`. A watcher thread notes when each shard log
//! lands, which gives every scenario's time to a durable outcome.
//!
//! A traced run alternates the layered walk of [`crate::walk`] with spans
//! on and off, each on a cold context, and streams the traced walk's spec
//! through `stream::run` + `merge` to check the two agree byte for byte.

use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::walk::{
    layer_values, median_values, result_bytes, secs, stream_and_merge, walk, LayerCounts,
};
use crate::workloads::{sweep_nash_spec, sweep_rm3_spec, Workload};
use experiments::{ExperimentContext, ScenarioSpec, SweepResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Loads (sweep-rm3) or builds (sweep-nash) the seeded spec.
fn load_spec(workload: Workload, seed: u64) -> Result<ScenarioSpec, String> {
    match workload {
        Workload::SweepRm3 => sweep_rm3_spec(seed),
        Workload::SweepNash => sweep_nash_spec(seed),
        Workload::ServeOverlap => Err("serve-overlap is not a sweep workload".to_string()),
    }
}

/// One timed repetition.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    first_outcome_s: f64,
    /// Time from spec load to each scenario's shard log landing.
    outcome_s: Vec<f64>,
    scenarios: u64,
    failed: u64,
}

/// Polls `dir` until `stop`, noting when each shard log first appears
/// (logs are written by rename, so a visible log is complete).
fn watch_shards(dir: &Path, stop: &AtomicBool) -> BTreeMap<String, Instant> {
    let mut landed = BTreeMap::new();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        if let Ok(entries) = std::fs::read_dir(dir) {
            let now = Instant::now();
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("shard-") && name.ends_with(".jsonl") {
                    landed.entry(name).or_insert(now);
                }
            }
        }
        if stopping {
            return landed;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Outcomes whose serialized bytes differ from the reference's (or are
/// missing from either side).
fn mismatches(result: &SweepResult, reference: &SweepResult) -> u64 {
    let differing = result
        .scenarios
        .iter()
        .zip(&reference.scenarios)
        .filter(|(a, b)| serde_json::to_string(a).ok() != serde_json::to_string(b).ok())
        .count();
    (differing + result.scenarios.len().abs_diff(reference.scenarios.len())) as u64
}

fn timed_rep(
    workload: Workload,
    seed: u64,
    dir: &Path,
    reference: &SweepResult,
    reference_bytes: &str,
) -> Result<Rep, String> {
    let start = Instant::now();
    let spec = load_spec(workload, seed)?;
    let grid = spec.lower().map_err(|e| format!("lower: {e}"))?;
    let ctx = ExperimentContext::new(true);
    for axis in &grid.platforms {
        ctx.database(&axis.platform, &axis.mixes);
    }
    let setup_s = secs(start);

    let stop = AtomicBool::new(false);
    let (run, landed) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_shards(dir, &stop));
        let run = experiments::stream::run(&spec, &ctx, dir, &Default::default());
        stop.store(true, Ordering::SeqCst);
        (
            run,
            watcher.join().expect("the shard watcher does not panic"),
        )
    });
    run.map_err(|e| format!("stream run: {e}"))?;
    let merged = experiments::stream::merge(dir).map_err(|e| format!("merge: {e}"))?;
    let identical = result_bytes(&merged)? == reference_bytes;
    let wall_s = secs(start);

    let failed = if identical {
        0
    } else {
        mismatches(&merged, reference).max(1)
    };
    let mut outcome_s = Vec::new();
    for (file, at) in &landed {
        let lines = std::fs::read_to_string(dir.join(file))
            .map_err(|e| format!("{file}: {e}"))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        let latency = at.saturating_duration_since(start).as_secs_f64();
        outcome_s.extend(std::iter::repeat_n(latency, lines));
    }
    let first_outcome_s = outcome_s.iter().copied().fold(f64::INFINITY, f64::min);
    if outcome_s.len() != grid.len() {
        return Err(format!(
            "watched {} outcomes land, the grid has {}",
            outcome_s.len(),
            grid.len()
        ));
    }
    Ok(Rep {
        setup_s,
        wall_s,
        first_outcome_s,
        outcome_s,
        scenarios: grid.len() as u64,
        failed,
    })
}

/// The untimed reference: the walk with spans off on a cold context.
fn reference(workload: Workload, seed: u64) -> Result<(SweepResult, String), String> {
    let spec = load_spec(workload, seed)?;
    let ctx = ExperimentContext::new(true);
    let result = walk(
        &spec,
        &ctx,
        &mut Tracer::new(false),
        0,
        &mut LayerCounts::default(),
    )?;
    let bytes = result_bytes(&result)?;
    Ok((result, bytes))
}

/// Runs a sweep workload untraced for `seconds` and reports the
/// end-to-end metrics.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> Result<Report, String> {
    let (reference, reference_bytes) = reference(workload, seed)?;
    let mut report = Report::default();
    let mut reps = Vec::new();
    let budget = Instant::now();
    while reps.is_empty() || budget.elapsed() < Duration::from_secs(seconds) {
        let dir = work.join(format!("rep-{}", reps.len()));
        let rep = timed_rep(workload, seed, &dir, &reference, &reference_bytes)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        reps.push(rep);
    }

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = median(&column(|r| r.setup_s));
    let wall = median(&column(|r| r.wall_s));
    let outcomes: Vec<f64> = reps.iter().flat_map(|r| r.outcome_s.clone()).collect();
    let firsts = column(|r| r.first_outcome_s);
    report.attempted = reps.iter().map(|r| r.scenarios).sum();
    report.failed = reps.iter().map(|r| r.failed).sum();
    report.set("setup_s", setup);
    report.set("wall_s", wall);
    // Rates are medians of per-repetition rates, as robust as the walls.
    report.set(
        "scenarios_per_s",
        median(&column(|r| r.scenarios as f64 / (r.wall_s - r.setup_s))),
    );
    report.set("specs_per_s", median(&column(|r| 1.0 / r.wall_s)));
    let (p50, p90) = (percentile(&outcomes, 0.5), percentile(&outcomes, 0.9));
    report.set("result_p50_s", p50.value);
    report.set("result_p90_s", p90.value);
    let (f50, f90) = (percentile(&firsts, 0.5), percentile(&firsts, 0.9));
    report.set("first_outcome_p50_s", f50.value);
    report.set("first_outcome_p90_s", f90.value);
    report.notes.push(format!(
        "repetition walls: {}",
        reps.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.push(format!(
        "{} repetitions of {} scenarios; result percentiles over {} scenario outcomes \
         ({} beyond p90); first-outcome percentiles over {} repetitions ({} beyond p90{})",
        reps.len(),
        reps[0].scenarios,
        p90.samples,
        p90.beyond,
        f90.samples,
        f90.beyond,
        if f90.tail_supported() {
            ""
        } else {
            ", fewer than 10: not a supported tail"
        }
    ));
    Ok(report)
}

/// Runs a sweep workload traced for `seconds`: pairs of traced and
/// untraced walks, each on a cold context. Returns the report and the
/// spans of every traced walk.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> Result<(Report, Tracer), String> {
    let spec = load_spec(workload, seed)?;
    let mut report = Report::default();
    let mut all_spans = Tracer::new(true);
    let mut walks = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let budget = Instant::now();
    while walks.is_empty() || budget.elapsed() < Duration::from_secs(seconds) {
        let pair = walks.len() as u64;
        let ctx = ExperimentContext::new(true);
        let mut tracer = Tracer::new(true);
        let mut counts = LayerCounts::default();
        let start = Instant::now();
        let walked = walk(&spec, &ctx, &mut tracer, pair, &mut counts)?;
        traced_s.push(secs(start));
        let dir: PathBuf = work.join(format!("walk-{pair}"));
        let merged = stream_and_merge(&spec, &ctx, &dir, &mut tracer, pair, &mut counts)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        walks.push(layer_values(&tracer, &counts, &ctx));
        all_spans.absorb(tracer);

        let start = Instant::now();
        let plain = walk(
            &spec,
            &ExperimentContext::new(true),
            &mut Tracer::new(false),
            pair,
            &mut LayerCounts::default(),
        )?;
        untraced_s.push(secs(start));

        report.attempted += 2 * walked.scenarios.len() as u64;
        report.failed += mismatches(&merged, &walked) + mismatches(&plain, &walked);
    }
    let mut values = median_values(&walks);
    let (traced, untraced) = (median(&traced_s), median(&untraced_s));
    values.insert("trace.walk_s", traced);
    values.insert("trace.overhead_s", traced - untraced);
    report.metrics = values;
    report.notes.push(format!(
        "{} traced/untraced walk pairs; traced walk {traced:.4} s, untraced {untraced:.4} s",
        walks.len()
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report
        .notes
        .push(format!("traced walks: {}", list(&traced_s)));
    report
        .notes
        .push(format!("untraced walks: {}", list(&untraced_s)));
    Ok((report, all_spans))
}
