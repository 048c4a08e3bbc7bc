//! The CI performance-regression gate.
//!
//! [`bench_gate`](../../bench_gate/index.html) (the `bench_gate` binary) runs
//! every row of the scenario table [`SCENARIOS`] — fixed, deterministic
//! workloads over the paper's hot paths: the co-phase simulator loop, the
//! global way-partition optimizer, cold-cache energy-curve construction, the
//! game-theoretic best-response / equilibrium-selection solvers, an
//! in-process `qosrm_serve` daemon under a fixed submission mix, the
//! SIMD-shaped kernels (chunked min-plus convolution vs the pruned scalar
//! path, and the incremental delta-path manager vs a cold rebuild), a
//! distributed sweep (in-process coordinator + wire workers) and a
//! fixed-seed Pareto scenario search.
//!
//! Every scenario emits the same [`Report`] shape, written as
//! `BENCH_<bench>.json`: the schema tag, the workload description, the
//! repetition count, the machine's calibration throughput and two
//! name-keyed maps — `walls` (best-of-N wall times in seconds) and
//! `counters` (exact work counters). The table row is the whole policy of a
//! scenario ([`Scenario`]):
//!
//! * which walls are **banded**, and at what multiple of the tolerance
//!   (walls timed only to feed a floor carry no band);
//! * its **counters**, every one of which is exact-compared — a drift means
//!   the workload or an algorithm's decision sequence changed and the
//!   baseline must be refreshed deliberately;
//! * its same-report **floors** ([`Floor`]): the staged curve builder's
//!   speedup over the scalar reference ([`MIN_LOCAL_OPT_SPEEDUP`]), the
//!   chunked convolution's speedup over the pruned scalar kernel
//!   ([`MIN_CHUNKED_CONV_SPEEDUP`]), and the delta path building fewer
//!   curves than the cold manager.
//!
//! Derived rates (events/s, specs/s, hit rate, speedups) are not stored;
//! they are recomputed from the maps when a report is printed.
//!
//! In check mode (the default, what CI runs) the fresh reports are written to
//! `target/bench-gate/` and compared by [`compare`] against the baselines
//! committed at the repository root; the process exits non-zero when a banded
//! wall regresses by more than its band (20% by default), when a counter
//! drifts, or when a floor is broken. A committed baseline that does not
//! carry exactly the walls and counters its row declares fails check mode
//! before anything runs. In `--update` mode the fresh reports overwrite the
//! committed baselines.
//!
//! Wall times are **calibration normalized** before comparison: every run
//! also times a fixed pure-CPU calibration loop and records its throughput
//! in the report, and the checker rescales the fresh wall time by the ratio
//! of the two calibration throughputs. A committed baseline therefore
//! transfers between machines (a CI runner half as fast as the laptop that
//! recorded the baseline sees its wall times halved before the tolerance
//! test), so the band measures the code, not the hardware.

use experiments::dist::{self, Coordinator, CoordinatorConfig, WorkerConfig};
use experiments::spec::{PlatformAxisSpec, PlatformSpec, WorkloadSource};
use experiments::{
    stream, ExperimentContext, LeaseCounters, QosAxis, RmaVariant, ScenarioSpec, StreamOptions,
};
use qosrm_core::{
    best_response, min_energy_equilibrium, optimize_partition_with_stats, CoordinatedRma,
    CurveCache, CurvePoint, EnergyCurve, GameConfig, GameStats, LocalOptimizer,
    LocalOptimizerConfig, ModelKind, PruneStats,
};
use qosrm_serve::{
    execute as serve_execute, plan as serve_plan, Client, LoadConfig, ServeConfig, Server,
};
use qosrm_types::{
    CoreId, CoreObservation, CoreSizeIdx, FreqLevel, PlatformConfig, QosSpec, ResourceManager,
    SystemSetting,
};
use rma_sim::{CophaseSimulator, SimulationOptions};
use serde::{Deserialize, Serialize};
use simdb::builder::{build_database_for_mixes, BuildOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{paper1_workloads, MixPopulation, SynthSpec};

/// Schema tag embedded in every report so downstream tooling can detect
/// format changes.
pub const SCHEMA: &str = "qosrm-bench-gate/v2";

/// Default relative wall-time regression tolerated before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Minimum speedup of the staged `CurveBuilder` over the scalar reference on
/// the cold-curve workload. Both sides are timed in the same process on the
/// same machine, so the ratio needs no calibration normalization.
pub const MIN_LOCAL_OPT_SPEEDUP: f64 = 3.0;

/// Minimum speedup of the chunked min-plus convolution kernel over the
/// preserved pruned scalar path on the fixed synthetic curve sets. Both
/// sides run in the same process, so the ratio needs no calibration
/// normalization.
pub const MIN_CHUNKED_CONV_SPEEDUP: f64 = 1.3;

/// Iterations of the calibration loop (sized for tens of milliseconds).
const CALIBRATION_ITERS: u64 = 40_000_000;

/// Measures a fixed pure-CPU workload (xorshift + float accumulate) and
/// returns its throughput in iterations/second. The workload is identical
/// on every machine, so the ratio of two calibration throughputs estimates
/// the single-thread speed ratio of the machines that produced them —
/// which is what [`compare`] uses to normalize wall times measured on
/// different hardware.
pub fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut acc = 0.0f64;
        let start = Instant::now();
        for _ in 0..CALIBRATION_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x & 0xffff) as f64;
        }
        // The accumulator must escape *before* the clock is read so the
        // compiler cannot sink the loop out of the timed region.
        std::hint::black_box(acc);
        let wall = start.elapsed().as_secs_f64();
        best = best.min(wall);
    }
    CALIBRATION_ITERS as f64 / best.max(f64::MIN_POSITIVE)
}

/// One gate report (`BENCH_<bench>.json`), the same shape for every
/// scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (the [`Scenario::bench`] of its table row).
    pub bench: String,
    /// Human-readable description of the fixed workload.
    pub workload: String,
    /// Measured repetitions of the workload (best times are reported).
    pub repetitions: usize,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
    /// Best wall time of each timed part of the workload, in seconds.
    pub walls: BTreeMap<String, f64>,
    /// Deterministic work counters per repetition (exact-compared).
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    fn new(
        bench: &str,
        workload: String,
        repetitions: usize,
        calibration_ops_per_sec: f64,
        walls: &[(&str, f64)],
        counters: &[(&str, u64)],
    ) -> Report {
        Report {
            schema: SCHEMA.to_string(),
            bench: bench.to_string(),
            workload,
            repetitions: repetitions.max(1),
            calibration_ops_per_sec,
            walls: walls.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// The speedup of wall `of` over wall `over`.
    fn speedup(&self, of: &str, over: &str) -> f64 {
        self.walls[over] / self.walls[of].max(f64::MIN_POSITIVE)
    }
}

/// A same-report floor: checked on the fresh report alone, since both of
/// its sides are measured in the same process on the same machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Floor {
    /// `walls[over] / walls[of]` — the speedup of `of` over `over` — must
    /// stay at or above `min`.
    Speedup {
        /// The optimized path's wall.
        of: &'static str,
        /// The reference path's wall on identical inputs.
        over: &'static str,
        /// Required speedup.
        min: f64,
    },
    /// `counters[counter]` must stay strictly below `counters[than]`.
    Fewer {
        /// The counter that must stay smaller.
        counter: &'static str,
        /// The counter it is held below.
        than: &'static str,
    },
}

impl Floor {
    fn check(&self, bench: &str, report: &Report) -> Option<GateFailure> {
        match *self {
            Floor::Speedup { of, over, min } => {
                let speedup = report.speedup(of, over);
                (speedup < min).then(|| {
                    GateFailure::WallRegression(format!(
                        "{bench} floor: {of} speedup over {over} dropped to {speedup:.2}x \
                         (required ≥ {min:.1}x; {of} {:.4}s vs {over} {:.4}s)",
                        report.walls[of], report.walls[over]
                    ))
                })
            }
            Floor::Fewer { counter, than } => {
                let (new, bound) = (report.counters[counter], report.counters[than]);
                (new >= bound).then(|| {
                    GateFailure::CounterDrift(format!(
                        "{bench} floor: {counter} ({new}) is no longer below {than} ({bound})"
                    ))
                })
            }
        }
    }

    fn describe(&self, report: &Report) -> String {
        match *self {
            Floor::Speedup { of, over, min } => format!(
                "{of} {:.2}x over {over} (floor {min:.1}x)",
                report.speedup(of, over)
            ),
            Floor::Fewer { counter, than } => format!("{counter} < {than}"),
        }
    }
}

/// A figure printed after a run, recomputed from the stored maps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Derived {
    /// `(counter, wall)`: `counters[counter] / walls[wall]`, per second.
    PerSecond(&'static str, &'static str),
    /// `(part, rest)`: `counters[part]` as a share of `counters[part] +
    /// counters[rest]`.
    Share(&'static str, &'static str),
}

impl Derived {
    fn describe(&self, report: &Report) -> String {
        match *self {
            Derived::PerSecond(counter, wall) => format!(
                "{:.0} {counter}/s",
                report.counters[counter] as f64 / report.walls[wall].max(f64::MIN_POSITIVE)
            ),
            Derived::Share(part, rest) => {
                let (p, r) = (report.counters[part], report.counters[rest]);
                format!(
                    "{part} {:.1}% of {part}+{rest}",
                    100.0 * p as f64 / ((p + r) as f64).max(1.0)
                )
            }
        }
    }
}

/// One row of the scenario table: how to run a scenario and its complete
/// gate policy.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Benchmark identifier; the baseline is `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// Runs the workload: `(repetitions, calibration_ops_per_sec)`.
    pub run: fn(usize, f64) -> Report,
    /// Every wall the report carries, with the multiple of the tolerance it
    /// is banded at (`None`: timed only to feed a floor).
    pub walls: &'static [(&'static str, Option<f64>)],
    /// Every counter the report carries; all are exact-compared.
    pub counters: &'static [&'static str],
    /// Same-report floors.
    pub floors: &'static [Floor],
    /// Figures printed after a run.
    pub derived: &'static [Derived],
}

/// A wall banded at the plain tolerance.
const BAND: Option<f64> = Some(1.0);

/// The gate's scenario table, in run order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        bench: "simulator",
        run: run_simulator_bench,
        walls: &[("loop", BAND), ("managed", BAND)],
        counters: &["loop_events", "managed_events"],
        floors: &[],
        derived: &[
            Derived::PerSecond("loop_events", "loop"),
            Derived::PerSecond("managed_events", "managed"),
        ],
    },
    Scenario {
        bench: "global_opt",
        run: run_global_opt_bench,
        walls: &[("partition", BAND)],
        counters: &["calls", "convolution_ops", "pruned_ops"],
        floors: &[],
        derived: &[Derived::PerSecond("convolution_ops", "partition")],
    },
    Scenario {
        bench: "local_opt",
        run: |repetitions, calibration| {
            run_local_opt_bench_with_rounds(repetitions, calibration, LOCAL_OPT_ROUNDS)
        },
        walls: &[("builder", BAND), ("scalar", None)],
        counters: &["curves_built", "evaluations"],
        floors: &[Floor::Speedup {
            of: "builder",
            over: "scalar",
            min: MIN_LOCAL_OPT_SPEEDUP,
        }],
        derived: &[Derived::PerSecond("curves_built", "builder")],
    },
    Scenario {
        bench: "best_response",
        run: |repetitions, calibration| {
            run_best_response_bench_with_calls(
                repetitions,
                calibration,
                BR_CALLS_PER_CASE,
                EQ_CALLS_PER_CASE,
            )
        },
        walls: &[("solvers", BAND)],
        counters: &[
            "br_calls",
            "eq_calls",
            "rounds",
            "evaluations",
            "equilibria_examined",
        ],
        floors: &[],
        derived: &[Derived::PerSecond("evaluations", "solvers")],
    },
    Scenario {
        bench: "serve",
        run: |repetitions, calibration| {
            run_serve_bench_with_load(
                repetitions,
                calibration,
                SERVE_CLIENTS,
                SERVE_PER_CLIENT,
                SERVE_DISTINCT,
            )
        },
        walls: &[("mix", BAND)],
        counters: &[
            "specs_submitted",
            "runs_executed",
            "outcomes_total",
            "outcomes_streamed",
            "cache_hits",
            "cache_misses",
            "records_built",
        ],
        floors: &[],
        derived: &[
            Derived::PerSecond("specs_submitted", "mix"),
            Derived::PerSecond("outcomes_streamed", "mix"),
            Derived::Share("cache_hits", "cache_misses"),
        ],
    },
    Scenario {
        bench: "kernels",
        run: |repetitions, calibration| {
            run_kernels_bench_with(
                repetitions,
                calibration,
                KERNEL_CALLS_PER_CASE,
                KERNEL_DELTA_ROUNDS,
            )
        },
        // The batched delta-manager schedule wall is a few milliseconds —
        // an order of magnitude below the other gated walls, where scheduler
        // jitter is a visible fraction — so it gets twice the band; the
        // delta path's real regression signal is its exact counter set.
        walls: &[
            ("chunked", BAND),
            ("scalar", None),
            ("cold", None),
            ("delta", Some(2.0)),
        ],
        counters: &[
            "convolution_ops",
            "pruned_ops",
            "chunked_lanes",
            "cold_curve_builds",
            "delta_curve_builds",
            "delta_invocations",
            "warm_rows_reused",
        ],
        floors: &[
            Floor::Speedup {
                of: "chunked",
                over: "scalar",
                min: MIN_CHUNKED_CONV_SPEEDUP,
            },
            Floor::Fewer {
                counter: "delta_curve_builds",
                than: "cold_curve_builds",
            },
        ],
        derived: &[Derived::PerSecond("convolution_ops", "chunked")],
    },
    Scenario {
        bench: "dist",
        run: |repetitions, calibration| {
            run_dist_bench_with(repetitions, calibration, DIST_WORKERS, DIST_MIXES)
        },
        walls: &[("coordinated", BAND), ("single", BAND)],
        counters: &[
            "workers",
            "shards",
            "scenarios_total",
            "leases_granted",
            "leases_renewed",
            "leases_expired",
            "shards_reinjected",
            "stale_completions",
            "shards_completed",
        ],
        floors: &[],
        derived: &[Derived::PerSecond("scenarios_total", "coordinated")],
    },
    Scenario {
        bench: "search",
        run: |repetitions, calibration| {
            run_search_bench_with(repetitions, calibration, &search_bench_config())
        },
        walls: &[("run", BAND)],
        counters: &[
            "generations",
            "candidates",
            "evaluations",
            "scenarios_evaluated",
            "archive_size",
        ],
        floors: &[],
        derived: &[Derived::PerSecond("scenarios_evaluated", "run")],
    },
];

impl Scenario {
    /// The baseline's file name, `BENCH_<bench>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// Checks that `report` is a v2 report of this scenario carrying exactly
    /// the walls and counters this row declares.
    pub fn validate(&self, report: &Report) -> Result<(), String> {
        if report.schema != SCHEMA {
            return Err(format!("schema `{}` is not `{SCHEMA}`", report.schema));
        }
        if report.bench != self.bench {
            return Err(format!("bench `{}` is not `{}`", report.bench, self.bench));
        }
        same_keys("wall", self.walls.iter().map(|w| w.0), &report.walls)?;
        same_keys("counter", self.counters.iter().copied(), &report.counters)
    }

    /// One line describing a fresh report: walls, counters, derived figures
    /// and floors.
    pub fn summary(&self, report: &Report) -> String {
        let walls: Vec<String> = self
            .walls
            .iter()
            .map(|&(wall, _)| format!("{wall} {:.4}s", report.walls[wall]))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|&counter| format!("{counter} {}", report.counters[counter]))
            .collect();
        let figures: Vec<String> = self
            .derived
            .iter()
            .map(|d| d.describe(report))
            .chain(self.floors.iter().map(|f| f.describe(report)))
            .collect();
        format!(
            "{} (best of {}): {}; {}; {}",
            self.bench,
            report.repetitions,
            walls.join(", "),
            counters.join(", "),
            figures.join(", ")
        )
    }
}

fn same_keys<'a, V>(
    kind: &str,
    declared: impl Iterator<Item = &'a str>,
    map: &BTreeMap<String, V>,
) -> Result<(), String> {
    let declared: BTreeSet<&str> = declared.collect();
    let present: BTreeSet<&str> = map.keys().map(String::as_str).collect();
    if let Some(missing) = declared.difference(&present).next() {
        return Err(format!("missing {kind} `{missing}`"));
    }
    if let Some(extra) = present.difference(&declared).next() {
        return Err(format!("undeclared {kind} `{extra}`"));
    }
    Ok(())
}

/// Takes `warm_up` untimed samples, then `repetitions` timed ones. Each
/// sample returns its deterministic counters and the walls it measured;
/// every sample's counters must equal the first's (`what` names them in the
/// panic), and the per-wall minimum over the timed samples is returned.
fn best_of<C: PartialEq + Debug, const N: usize>(
    warm_up: usize,
    repetitions: usize,
    what: &str,
    mut sample: impl FnMut() -> (C, [f64; N]),
) -> (C, [f64; N]) {
    let mut reference: Option<C> = None;
    let mut best = [f64::INFINITY; N];
    for i in 0..warm_up + repetitions.max(1) {
        let (counters, walls) = sample();
        match &reference {
            None => reference = Some(counters),
            Some(first) => assert_eq!(
                &counters, first,
                "{what} must be deterministic across repetitions"
            ),
        }
        if i >= warm_up {
            for (best, wall) in best.iter_mut().zip(walls) {
                *best = best.min(wall);
            }
        }
    }
    (reference.expect("at least one sample ran"), best)
}

/// [`best_of`] for the common shape: one warm-up run, then `work` timed as
/// a whole.
fn best_of_timed<C: PartialEq + Debug>(
    repetitions: usize,
    what: &str,
    mut work: impl FnMut() -> C,
) -> (C, f64) {
    let (counters, [wall]) = best_of(1, repetitions, what, || {
        let (counters, wall) = timed(&mut work);
        (counters, [wall])
    });
    (counters, wall)
}

/// Runs `work` once, returning its result and wall time in seconds.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed().as_secs_f64())
}

/// The fixed quick-grid workload driven through the simulator loop:
/// two 4-core Paper I mixes, each under the baseline manager, strict RM2 and
/// 30%-relaxed RM2.
fn simulator_workload() -> (PlatformConfig, Vec<workload::WorkloadMix>) {
    let platform = PlatformConfig::paper1(4);
    let mixes: Vec<_> = paper1_workloads(4).into_iter().take(2).collect();
    (platform, mixes)
}

/// Baseline-manager rounds per loop repetition (sized so one repetition is
/// long enough to time reliably on a shared CI runner).
const LOOP_ROUNDS: usize = 300;
/// Managed rounds per managed repetition.
const MANAGED_ROUNDS: usize = 5;

/// Runs the simulator-loop benchmark (`BENCH_simulator.json`).
///
/// Two sub-benchmarks share the fixed quick-grid workload: `loop` drives
/// the event loop under the no-op baseline manager (the simulator loop in
/// isolation — the number the 'simulator speedup' headline refers to), and
/// `managed` runs strict and 30%-relaxed RM2 with a warm shared curve
/// cache (the production sweep configuration), covering the observation and
/// reconfiguration paths. `loop_events` / `managed_events` count the global
/// events per repetition.
fn run_simulator_bench(repetitions: usize, calibration_ops_per_sec: f64) -> Report {
    let (platform, mixes) = simulator_workload();
    let db = build_database_for_mixes(&platform, &mixes, &BuildOptions::quick_for_tests(&platform));
    let options = SimulationOptions {
        provide_mlp_profiles: false,
        ..Default::default()
    };
    let sims: Vec<CophaseSimulator> = mixes
        .iter()
        .map(|mix| CophaseSimulator::new(&db, mix, options.clone()).expect("fixed workload"))
        .collect();

    // Part 1: the event loop in isolation (no-op baseline manager).
    let run_loop = || -> u64 {
        let mut events = 0u64;
        for _ in 0..LOOP_ROUNDS {
            for sim in &sims {
                let baseline = sim.run_baseline().expect("baseline within event budget");
                events += baseline.rma_invocations;
            }
        }
        events
    };

    // Part 2: managed runs with a warm shared energy-curve cache, as the
    // production sweep engine executes them: the warm-up repetition fills
    // the cache, so the measured repetitions exercise the simulator's
    // observation and reconfiguration paths rather than the manager's model
    // evaluations. The (deterministic) baseline runs are computed once
    // outside the timed region so they cannot dilute the managed signal.
    let curve_cache = Arc::new(CurveCache::default());
    let baselines: Vec<_> = sims
        .iter()
        .map(|sim| sim.run_baseline().expect("baseline within event budget"))
        .collect();
    let run_managed = || -> u64 {
        let mut events = 0u64;
        for _ in 0..MANAGED_ROUNDS {
            for (sim, baseline) in sims.iter().zip(&baselines) {
                for qos in [QosSpec::STRICT, QosSpec::relaxed_by(0.3)] {
                    let qos = vec![qos; platform.num_cores];
                    let mut manager = CoordinatedRma::paper1(&platform, qos.clone())
                        .with_curve_cache(curve_cache.clone());
                    let (_, managed) = sim
                        .run_comparison(&mut manager, baseline, &qos)
                        .expect("managed run within event budget");
                    events += managed.rma_invocations;
                }
            }
        }
        events
    };

    // Warm-up runs (page cache, branch predictors, curve cache), then
    // best-of-N for each part.
    let (loop_events, loop_wall) = best_of_timed(repetitions, "the simulator loop", run_loop);
    let (managed_events, managed_wall) = best_of_timed(repetitions, "managed runs", run_managed);

    Report::new(
        "simulator",
        format!(
            "paper1-4c quick grid, 2 mixes: loop = {LOOP_ROUNDS}x baseline; managed = \
             {MANAGED_ROUNDS}x (RM2-strict + RM2-relaxed30, warm curve cache)"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("loop", loop_wall), ("managed", managed_wall)],
        &[
            ("loop_events", loop_events),
            ("managed_events", managed_events),
        ],
    )
}

/// Deterministic synthetic curve set exercising concave, flat, bumpy
/// (non-concave) and partially infeasible shapes.
fn synthetic_curves(cores: usize, ways: usize) -> Vec<EnergyCurve> {
    (0..cores)
        .map(|c| {
            let infeasible_prefix = c % 3;
            let base = 6.0 + c as f64 * 1.3;
            let slope = 0.15 + 0.08 * (c % 4) as f64;
            EnergyCurve::new(
                (1..=ways)
                    .map(|w| {
                        if w <= infeasible_prefix {
                            return None;
                        }
                        let bump = if c % 3 == 0 {
                            ((w * (c + 2)) % 5) as f64 * 0.12
                        } else {
                            0.0
                        };
                        Some(CurvePoint {
                            energy_joules: (base - slope * w as f64 + bump).max(0.05),
                            freq: FreqLevel(w % 13),
                            core_size: CoreSizeIdx(w % 3),
                            time_seconds: 0.05,
                            ways: w,
                        })
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Runs the global-optimizer benchmark (`BENCH_global_opt.json`):
/// `optimize_partition` on the synthetic curve sets, counting calls and the
/// min-plus `convolution_ops` (deterministic; drops when lower-bound
/// pruning improves) and `pruned_ops` (candidates skipped by that pruning).
fn run_global_opt_bench(repetitions: usize, calibration_ops_per_sec: f64) -> Report {
    let cases: Vec<(Vec<EnergyCurve>, usize)> = [(4, 16), (8, 16), (8, 32), (16, 32)]
        .into_iter()
        .map(|(cores, ways)| (synthetic_curves(cores, ways), ways))
        .collect();
    const CALLS_PER_CASE: usize = 200;

    let run_once = || -> (u64, PruneStats) {
        let mut calls = 0u64;
        let mut stats = PruneStats::default();
        for (curves, ways) in &cases {
            for _ in 0..CALLS_PER_CASE {
                let (result, s) = optimize_partition_with_stats(curves, *ways);
                assert!(result.is_some(), "synthetic curve set must be feasible");
                stats.ops += s.ops;
                stats.pruned += s.pruned;
                calls += 1;
            }
        }
        (calls, stats)
    };
    let ((calls, stats), wall) = best_of_timed(repetitions, "convolution", run_once);

    Report::new(
        "global_opt",
        "synthetic curves: (cores, ways) in {(4,16),(8,16),(8,32),(16,32)} x 200 calls".to_string(),
        repetitions,
        calibration_ops_per_sec,
        &[("partition", wall)],
        &[
            ("calls", calls),
            ("convolution_ops", stats.ops),
            ("pruned_ops", stats.pruned),
        ],
    )
}

/// Rounds of the full observation/config set per cold-curve repetition,
/// sized so one builder repetition lasts several milliseconds — comparable
/// to the other gated workloads — because the gated speedup *ratio* must be
/// stable on a noisy shared CI runner, not just the wall time.
const LOCAL_OPT_ROUNDS: usize = 240;

/// Runs the cold-path local-optimizer benchmark (`BENCH_local_opt.json`):
/// energy-curve construction with no memoization cache, i.e. the cost of
/// every cache-miss RMA invocation in a sweep. The fixed observation set
/// (first-phase observations of the four quick-grid benchmarks) is crossed
/// with the RM2 and RM3 optimizer configurations and strict / 30%-relaxed
/// QoS, `rounds` times (tests use a small count so the determinism check
/// stays fast in debug builds). The staged builder's wall is `builder`;
/// the scalar reference runs the identical inputs as `scalar`, feeding the
/// [`MIN_LOCAL_OPT_SPEEDUP`] floor. `evaluations` is the builder's exact
/// model-evaluation count — a drift means its pruning or the workload
/// changed.
fn run_local_opt_bench_with_rounds(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    rounds: usize,
) -> Report {
    let platform = PlatformConfig::paper2(4);
    let mix = crate::default_mix();
    let db = crate::build_db(&platform, &mix);
    let observations: Vec<CoreObservation> = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(core, name)| crate::observation_for(&db, &platform, name, core))
        .collect();
    let optimizers: Vec<LocalOptimizer> = [
        // RM2: DVFS + ways with the constant-MLP model.
        (ModelKind::ConstantMlp, false),
        // RM3: core size + DVFS + ways with the MLP-aware model.
        (ModelKind::MlpAware, true),
    ]
    .into_iter()
    .map(|(model, control_core_size)| {
        LocalOptimizer::new(
            &platform,
            LocalOptimizerConfig {
                control_dvfs: true,
                control_core_size,
                model,
                energy_params: power_model::EnergyParams::default(),
            },
        )
    })
    .collect();
    let qos_levels = [QosSpec::STRICT, QosSpec::relaxed_by(0.3)];

    let run_builder = || -> (u64, u64) {
        let mut curves = 0u64;
        let mut evaluations = 0u64;
        for _ in 0..rounds {
            for optimizer in &optimizers {
                for observation in &observations {
                    for &qos in &qos_levels {
                        let build = optimizer.energy_curve_counted(observation, qos);
                        evaluations += build.evaluations as u64;
                        curves += 1;
                        std::hint::black_box(&build.curve);
                    }
                }
            }
        }
        (curves, evaluations)
    };
    let run_scalar = || {
        for _ in 0..rounds {
            for optimizer in &optimizers {
                for observation in &observations {
                    for &qos in &qos_levels {
                        std::hint::black_box(
                            optimizer.energy_curve_scalar_reference(observation, qos),
                        );
                    }
                }
            }
        }
    };

    // Warm-up, then best-of-N for each path.
    let ((curves_built, evaluations), builder_wall) =
        best_of_timed(repetitions, "curve construction", run_builder);
    let ((), scalar_wall) = best_of_timed(repetitions, "the scalar reference", run_scalar);

    Report::new(
        "local_opt",
        format!(
            "cold energy curves: 4 quick-grid observations x (RM2 + RM3 optimizer) x \
             (strict + relaxed30) x {rounds} rounds, no curve cache"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("builder", builder_wall), ("scalar", scalar_wall)],
        &[("curves_built", curves_built), ("evaluations", evaluations)],
    )
}

/// `best_response` calls per curve set and repetition.
const BR_CALLS_PER_CASE: usize = 1000;
/// `min_energy_equilibrium` calls per curve set and repetition.
const EQ_CALLS_PER_CASE: usize = 300;

/// Runs the game-theoretic solver benchmark (`BENCH_best_response.json`):
/// the iterated-best-response solver and minimum-energy equilibrium
/// selection (one min-plus reduction on the prefix-min curves plus the
/// pure-Nash certificate per call) over the synthetic curve sets, with
/// explicit call counts (tests use small ones so the determinism check
/// stays fast in debug builds). `rounds` / `evaluations` are the
/// best-response dynamics' work; `equilibria_examined` stays at one
/// certified candidate per equilibrium call.
fn run_best_response_bench_with_calls(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    br_calls_per_case: usize,
    eq_calls_per_case: usize,
) -> Report {
    // Both solvers run on every synthetic set the global bench uses.
    let cases: Vec<(Vec<EnergyCurve>, usize)> = [(4, 16), (8, 16), (8, 32), (16, 32)]
        .into_iter()
        .map(|(cores, ways)| (synthetic_curves(cores, ways), ways))
        .collect();

    let run_once = || -> (u64, u64, GameStats) {
        let mut br_calls = 0u64;
        let mut eq_calls = 0u64;
        let mut stats = GameStats::default();
        for (curves, ways) in &cases {
            for _ in 0..br_calls_per_case {
                let (outcome, s) = best_response(curves, *ways, &GameConfig::default());
                assert!(outcome.is_some(), "synthetic curve set must be feasible");
                std::hint::black_box(&outcome);
                stats.rounds += s.rounds;
                stats.evaluations += s.evaluations;
                br_calls += 1;
            }
            for _ in 0..eq_calls_per_case {
                let (outcome, s) = min_energy_equilibrium(curves, *ways);
                assert!(outcome.is_ok(), "a certified equilibrium must exist");
                std::hint::black_box(&outcome);
                stats.equilibria_examined += s.equilibria_examined;
                eq_calls += 1;
            }
        }
        (br_calls, eq_calls, stats)
    };
    let ((br_calls, eq_calls, stats), wall) =
        best_of_timed(repetitions, "the game solvers", run_once);

    Report::new(
        "best_response",
        format!(
            "synthetic curves: on (cores, ways) in {{(4,16),(8,16),(8,32),(16,32)}}, \
             best response x {br_calls_per_case} calls and equilibrium selection x \
             {eq_calls_per_case} calls"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("solvers", wall)],
        &[
            ("br_calls", br_calls),
            ("eq_calls", eq_calls),
            ("rounds", stats.rounds),
            ("evaluations", stats.evaluations),
            ("equilibria_examined", stats.equilibria_examined),
        ],
    )
}

/// The base spec of the serving benchmark: a 4-core Paper I platform with
/// three synthetic mixes, strict QoS, the Paper I manager — 3 scenarios per
/// run, sharded one scenario per shard so every run exercises the
/// manifest/shard-log persistence path the daemon serves from.
fn serve_bench_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "serve-bench".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "p4".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 1717,
                count: 3,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "sb-".to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1],
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

/// Client threads of the fixed submission mix.
const SERVE_CLIENTS: usize = 6;
/// Submissions per client thread.
const SERVE_PER_CLIENT: usize = 4;
/// Distinct spec variants the submissions cycle over.
const SERVE_DISTINCT: usize = 8;

/// Runs the serving-throughput benchmark (`BENCH_serve.json`): a fixed
/// concurrent submission mix against an in-process `qosrm_serve` daemon on
/// an ephemeral port, cold per repetition (tests use a small mix so the
/// determinism check stays fast in debug builds).
///
/// The daemon runs one worker with serial in-run evaluation and memoization
/// on, so every counter its `/stats` endpoint reports is deterministic
/// regardless of admission interleaving: each distinct spec is admitted
/// exactly once (the rest deduplicate), each curve key misses exactly once
/// whichever run looks it up first, every streaming tail sees its run's
/// full outcome count, and `records_built` is one characterization per
/// distinct benchmark across the submitted variants. The `mix` wall runs
/// from submission through the last merged result fetch, including the
/// quick database builds the runs trigger.
fn run_serve_bench_with_load(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    clients: usize,
    per_client: usize,
    distinct: usize,
) -> Report {
    let load = LoadConfig {
        clients,
        per_client,
        distinct,
        seed: 2024,
        quick: true,
        shard_size: 1,
    };
    let plan = serve_plan(&serve_bench_spec(), &load).expect("fixed spec must lower");

    let mut repetition = 0;
    let (counters, [wall]) = best_of(0, repetitions, "serving counters", || {
        let dir = std::env::temp_dir().join(format!(
            "qosrm-bench-serve-{}-{repetition}",
            std::process::id()
        ));
        repetition += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 1,
            default_shard_size: 1,
            serial: true,
            poll_interval_ms: 5,
            ..Default::default()
        })
        .expect("in-process daemon must start on an ephemeral port");
        let addr = server.addr();

        let ((report, _results), wall) =
            timed(|| serve_execute(addr, &plan, &load, Duration::from_secs(600)));
        assert!(
            report.passed(),
            "serve bench load must pass: {:?}",
            report.errors
        );
        assert_eq!(
            report.queue_full_rejections, 0,
            "the fixed mix must fit the admission bound"
        );

        let client = Client::new(addr);
        let stats = client.stats().expect("stats endpoint must answer");
        let outcomes_total: u64 = client
            .list()
            .expect("run listing must answer")
            .iter()
            .map(|run| run.completed_scenarios as u64)
            .sum();
        let quick_cache = stats
            .curve_cache
            .iter()
            .find(|c| c.mode == "quick")
            .expect("quick-mode curve cache must be active");
        let quick_records = stats
            .simdb
            .iter()
            .find(|c| c.mode == "quick")
            .expect("quick-mode record memo must be active");
        assert_eq!(
            quick_cache.evictions, 0,
            "the fixed mix must fit the curve cache"
        );
        let counters = [
            ("specs_submitted", stats.counters.submissions),
            ("runs_executed", stats.counters.runs_completed),
            ("outcomes_total", outcomes_total),
            ("outcomes_streamed", stats.counters.outcomes_streamed),
            ("cache_hits", quick_cache.hits),
            ("cache_misses", quick_cache.misses),
            ("records_built", quick_records.records_built),
        ];
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        (counters, [wall])
    });

    Report::new(
        "serve",
        format!(
            "in-process daemon (1 worker, serial runs, shared quick curve cache), cold per \
             repetition: {clients} clients x {per_client} submissions cycling {distinct} \
             variants of a paper1-4c 3-mix synth spec, shard size 1"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("mix", wall)],
        &counters,
    )
}

/// The fixed spec of the distributed benchmark: a 4-core Paper I platform,
/// `mixes` synthetic mixes, strict QoS, both manager variants — `2 * mixes`
/// scenarios, sharded one scenario per shard so the lease protocol round-
/// trips once per scenario.
fn dist_bench_spec(mixes: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: "dist-bench".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "p4".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 4242,
                count: mixes,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "db-".to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

/// Wire workers of the fixed distributed benchmark.
const DIST_WORKERS: usize = 4;
/// Synthetic mixes of the fixed distributed benchmark (scenarios = 2x).
const DIST_MIXES: usize = 4;

/// Runs the distributed-sweep benchmark (`BENCH_dist.json`) with an explicit
/// fleet and spec size (tests use a small one so the determinism check
/// stays fast in debug builds): a fixed spec drained by an in-process lease
/// [`Coordinator`] serving wire workers on an ephemeral port (the
/// `coordinated` wall), against the same spec through the single-process
/// streaming executor (the `single` wall).
///
/// Both sides share one warm quick-mode context (the databases are built in
/// an untimed warm-up), so the walls measure coordination overhead plus
/// evaluation, not database construction. The lease counters are
/// deterministic — the lease is far longer than the run, so every shard is
/// granted exactly once and nothing expires, is reinjected, renewed or
/// rejected. The merged distributed result is asserted byte-identical to
/// the single-process merge on every repetition.
fn run_dist_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    workers: usize,
    mixes: usize,
) -> Report {
    let spec = dist_bench_spec(mixes);
    let ctx = Arc::new(ExperimentContext::new(true));
    let base = std::env::temp_dir().join(format!("qosrm-bench-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let stream_options = StreamOptions {
        shard_size: 1,
        ..Default::default()
    };

    // Untimed warm-up: builds the quick databases (disk + in-context
    // caches) so the timed walls on both sides measure evaluation and
    // coordination, not database construction.
    stream::run(&spec, &ctx, &base.join("warm"), &stream_options).expect("warm-up run completes");

    let mut repetition = 0;
    let (counters, [dist_wall, single_wall]) = best_of(0, repetitions, "lease counters", || {
        // Single-process side: the streaming executor, one shard per
        // scenario, run through merge.
        let single_dir = base.join(format!("single-{repetition}"));
        let ((report, single_result), single_wall) = timed(|| {
            let report = stream::run(&spec, &ctx, &single_dir, &stream_options)
                .expect("single-process run completes");
            let merged = stream::merge(&single_dir).expect("single-process run merges");
            (report, merged)
        });
        assert!(report.finished);

        // Distributed side: coordinator on an ephemeral port, `workers`
        // wire workers sharing the warm context, timed from coordinator
        // open through the last worker's exit.
        let dist_dir = base.join(format!("dist-{repetition}"));
        repetition += 1;
        let config = CoordinatorConfig {
            shard_size: 1,
            // Far longer than the run: no expiry, reinjection or renewal,
            // so the lease counters are exactly comparable.
            lease_ms: 600_000,
            ..Default::default()
        };
        let ((coordinator, reports, server), dist_wall) = timed(|| {
            let coordinator = Arc::new(
                Coordinator::open(
                    "dist-bench",
                    &spec,
                    true,
                    &dist_dir,
                    &config,
                    Arc::new(LeaseCounters::default()),
                )
                .expect("coordinator opens"),
            );
            let server = dist::serve_coordinator("127.0.0.1:0", coordinator.clone())
                .expect("coordinator listener binds");
            let addr = server.addr().to_string();
            let reports: Vec<dist::WorkerReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers.max(1))
                    .map(|i| {
                        let addr = addr.clone();
                        let ctx = ctx.clone();
                        scope.spawn(move || {
                            let config = WorkerConfig {
                                worker: format!("bench-w{i}"),
                                poll_ms: 10,
                                ..Default::default()
                            };
                            dist::run_worker_with(&addr, &config, &mut |_| ctx.clone())
                                .expect("worker drains the coordinator")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread joins"))
                    .collect()
            });
            (coordinator, reports, server)
        });
        server.stop();
        assert!(coordinator.finished());

        let merged = stream::merge(&dist_dir).expect("distributed run merges");
        assert_eq!(
            serde_json::to_string(&merged).expect("results serialize"),
            serde_json::to_string(&single_result).expect("results serialize"),
            "the distributed merge must be byte-identical to the single-process run"
        );

        let telemetry = coordinator.telemetry();
        let (completed, total) = coordinator.progress();
        assert_eq!(completed, total, "every scenario must complete");
        let counters = [
            ("workers", workers.max(1) as u64),
            ("shards", reports.iter().map(|r| r.shards_completed).sum()),
            ("scenarios_total", total as u64),
            ("leases_granted", telemetry.granted),
            ("leases_renewed", telemetry.renewed),
            ("leases_expired", telemetry.expired),
            ("shards_reinjected", telemetry.reinjected),
            ("stale_completions", telemetry.stale_rejected),
            ("shards_completed", telemetry.completed),
        ];
        (counters, [dist_wall, single_wall])
    });
    let _ = std::fs::remove_dir_all(&base);

    Report::new(
        "dist",
        format!(
            "in-process coordinator + {workers} wire workers on an ephemeral port (shared warm \
             quick context, lease 600s) vs the single-process streaming executor: paper1-4c \
             {mixes}-mix synth spec x {{Paper1, Paper2}}, shard size 1"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("coordinated", dist_wall), ("single", single_wall)],
        &counters,
    )
}

/// The fixed configuration of the search benchmark.
fn search_bench_config() -> experiments::SearchConfig {
    experiments::SearchConfig {
        seed: 4242,
        generations: 3,
        population: 5,
        capacity: 5,
        max_mixes: 2,
        name: "bench".to_string(),
    }
}

/// Runs the Pareto-front scenario-search benchmark (`BENCH_search.json`)
/// with an explicit configuration (tests use a smaller one so the
/// determinism check stays fast in debug builds): a fixed-seed
/// [`experiments::search`] run — the full evolutionary loop of genome
/// proposal, sweep evaluation, Pareto Strength selection and archive
/// persistence — against a warm quick-mode context.
///
/// The search is deterministic per seed, so generations, candidates,
/// evaluations, scenario runs and the final archive size are exact counters,
/// and the archive manifest bytes are asserted identical across repetitions
/// in-bench.
fn run_search_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    config: &experiments::SearchConfig,
) -> Report {
    let ctx = ExperimentContext::new(true);
    let base = std::env::temp_dir().join(format!(
        "qosrm-bench-search-{}-{}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_dir_all(&base);

    // Untimed warm-up: the search is deterministic, so one run touches
    // exactly the databases the timed repetitions need — the walls then
    // measure the search loop and sweep evaluation, not database
    // construction.
    experiments::search::run(config, &ctx, &base.join("warm")).expect("warm-up search runs");

    let mut repetition = 0;
    let ((report, _manifest), [wall]) = best_of(
        0,
        repetitions,
        "the search report and its archive manifest bytes",
        || {
            let dir = base.join(format!("rep-{repetition}"));
            repetition += 1;
            let (report, wall) =
                timed(|| experiments::search::run(config, &ctx, &dir).expect("search runs"));
            let manifest = std::fs::read(dir.join(experiments::search::MANIFEST_FILE))
                .expect("archive manifest exists");
            ((report, manifest), [wall])
        },
    );
    let _ = std::fs::remove_dir_all(&base);

    Report::new(
        "search",
        format!(
            "seeded Pareto-front scenario search (seed {}, {} generations x {} candidates, \
             capacity {}, warm quick context): genome proposal, sweep evaluation, Pareto \
             Strength selection, archive persistence",
            config.seed, config.generations, config.population, config.capacity
        ),
        repetitions,
        calibration_ops_per_sec,
        &[("run", wall)],
        &[
            ("generations", report.generations as u64),
            ("candidates", report.candidates),
            ("evaluations", report.evaluations),
            ("scenarios_evaluated", report.scenarios),
            ("archive_size", report.archive_size as u64),
        ],
    )
}

/// Convolution calls per synthetic case and kernel repetition.
const KERNEL_CALLS_PER_CASE: usize = 100;
/// Interval rounds of the cold-vs-incremental manager schedule.
const KERNEL_DELTA_ROUNDS: usize = 24;

/// Runs the SIMD-shaped kernel benchmark (`BENCH_kernels.json`) with
/// explicit workload sizes (tests use small ones so the determinism check
/// stays fast in debug builds).
///
/// Two sub-benchmarks cover the kernels: `chunked` / `scalar` time the
/// 4-wide-chunked min-plus convolution against the preserved pruned scalar
/// path on identical synthetic curve sets (both in one process, so the
/// [`MIN_CHUNKED_CONV_SPEEDUP`] floor needs no calibration normalization;
/// `convolution_ops` / `pruned_ops` / `chunked_lanes` must match the scalar
/// decision sequence), and `cold` / `delta` time a cold-rebuild
/// [`CoordinatedRma`] against an incremental one over the identical
/// interval schedule, counting how many curves each actually built.
fn run_kernels_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    calls_per_case: usize,
    delta_rounds: usize,
) -> Report {
    // --- Chunked vs pruned-scalar min-plus convolution -------------------
    // Wide rows (up to 64 ways) and deep reductions (up to 32 cores) so
    // the 4-wide chunk arithmetic amortizes the way a production-size
    // partition call does.
    let cases: Vec<(Vec<EnergyCurve>, usize)> = [(16, 32), (16, 64), (32, 64)]
        .into_iter()
        .map(|(cores, ways)| (synthetic_curves(cores, ways), ways))
        .collect();

    let run_chunked = || -> PruneStats {
        let mut stats = PruneStats::default();
        for (curves, ways) in &cases {
            for _ in 0..calls_per_case {
                let (result, s) = optimize_partition_with_stats(curves, *ways);
                assert!(result.is_some(), "synthetic curve set must be feasible");
                stats.ops += s.ops;
                stats.pruned += s.pruned;
                stats.lanes += s.lanes;
                std::hint::black_box(&result);
            }
        }
        stats
    };
    let run_scalar = || -> PruneStats {
        let mut stats = PruneStats::default();
        for (curves, ways) in &cases {
            for _ in 0..calls_per_case {
                let (result, s) = qosrm_core::optimize_partition_scalar(curves, *ways);
                assert!(result.is_some(), "synthetic curve set must be feasible");
                stats.ops += s.ops;
                stats.pruned += s.pruned;
                stats.lanes += s.lanes;
                std::hint::black_box(&result);
            }
        }
        stats
    };

    // The kernels must agree bit for bit — results and prune bookkeeping.
    for (curves, ways) in &cases {
        let (chunked, cs) = optimize_partition_with_stats(curves, *ways);
        let (scalar, ss) = qosrm_core::optimize_partition_scalar(curves, *ways);
        assert_eq!(chunked, scalar, "kernels must be bit-identical");
        assert_eq!((cs.ops, cs.pruned), (ss.ops, ss.pruned));
    }

    // The speedup ratio is the quantity under the gate's floor, so the two
    // kernels are timed in *interleaved* pairs (rather than back-to-back
    // blocks) with extra repetitions: slow drift from a noisy neighbour
    // then inflates both sides of a pair alike, and best-of picks the
    // cleanest window for each kernel independently. The warm-up pair
    // anchors the counters every later pair must reproduce.
    let (conv_stats, [chunked_wall, scalar_wall]) =
        best_of(1, repetitions.max(1) * 6, "convolution counters", || {
            let (chunked, chunked_wall) = timed(run_chunked);
            let (scalar, scalar_wall) = timed(run_scalar);
            assert_eq!((scalar.ops, scalar.pruned), (chunked.ops, chunked.pruned));
            assert_eq!(scalar.lanes, 0, "scalar kernel runs no chunk passes");
            (chunked, [chunked_wall, scalar_wall])
        });

    // --- Cold vs incremental manager schedule ----------------------------
    // Two observations per core from a real quick database; every round
    // one core's observation toggles while the other three recur, which is
    // the phase-stable pattern the digest diff is built for.
    let platform = PlatformConfig::paper1(4);
    let mix_a = crate::default_mix();
    let mix_b = workload::WorkloadMix::new(
        "bench-mix-b",
        vec!["povray_like", "mcf_like", "gamess_like", "soplex_like"],
    );
    let db = build_database_for_mixes(
        &platform,
        &[mix_a.clone(), mix_b.clone()],
        &BuildOptions::quick_for_tests(&platform),
    );
    let observations = |mix: &workload::WorkloadMix| -> Vec<CoreObservation> {
        mix.benchmarks
            .iter()
            .enumerate()
            .map(|(core, name)| crate::observation_for(&db, &platform, name, core))
            .collect()
    };
    let (obs_a, obs_b) = (observations(&mix_a), observations(&mix_b));
    let num_cores = obs_a.len();
    // The observation each core hands the manager in each round.
    let mut use_b = vec![false; num_cores];
    let schedule: Vec<Vec<&CoreObservation>> = (0..delta_rounds)
        .map(|round| {
            if round > 0 {
                use_b[round % num_cores] ^= true;
            }
            (0..num_cores)
                .map(|core| {
                    if use_b[core] {
                        &obs_b[core]
                    } else {
                        &obs_a[core]
                    }
                })
                .collect()
        })
        .collect();

    let run_manager = |incremental: bool| -> (qosrm_core::RmaWorkCounters, f64) {
        let mut manager = CoordinatedRma::paper1(&platform, vec![QosSpec::STRICT; num_cores]);
        if incremental {
            manager = manager.with_incremental();
        }
        let mut setting = SystemSetting::baseline(&platform);
        let start = Instant::now();
        for round in &schedule {
            for (core, obs) in round.iter().enumerate() {
                setting = manager.on_interval(CoreId(core), obs, &setting);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        std::hint::black_box(&setting);
        (manager.work_counters(), wall)
    };

    // Bit-identity of the two paths over the schedule, checked in lockstep.
    {
        let mut cold = CoordinatedRma::paper1(&platform, vec![QosSpec::STRICT; num_cores]);
        let mut delta =
            CoordinatedRma::paper1(&platform, vec![QosSpec::STRICT; num_cores]).with_incremental();
        let mut cold_setting = SystemSetting::baseline(&platform);
        let mut delta_setting = SystemSetting::baseline(&platform);
        for (round, observations) in schedule.iter().enumerate() {
            for (core, obs) in observations.iter().enumerate() {
                cold_setting = cold.on_interval(CoreId(core), obs, &cold_setting);
                delta_setting = delta.on_interval(CoreId(core), obs, &delta_setting);
                assert_eq!(
                    delta_setting, cold_setting,
                    "delta path diverged at round {round}, core {core}"
                );
            }
        }
    }

    // A single schedule pass is a few hundred microseconds — far too close
    // to scheduler jitter for a tolerance gate — so each timing sample is a
    // batch of passes, interleaved cold/delta like the convolution pairs;
    // the warm-up batch anchors the counters every later pass reproduces.
    const MANAGER_TIMING_PASSES: usize = 25;
    let ((cold_counters, delta_counters), [cold_wall, delta_wall]) =
        best_of(1, repetitions.max(1) * 2, "manager counters", || {
            let mut walls = [0.0; 2];
            let mut first = None;
            for _ in 0..MANAGER_TIMING_PASSES {
                let (cold, cold_wall) = run_manager(false);
                let (delta, delta_wall) = run_manager(true);
                walls[0] += cold_wall;
                walls[1] += delta_wall;
                let pass = (cold, delta);
                assert_eq!(
                    *first.get_or_insert(pass),
                    pass,
                    "manager counters must be deterministic across passes"
                );
            }
            (first.expect("at least one pass ran"), walls)
        });
    assert!(
        delta_counters.curve_builds < cold_counters.curve_builds,
        "digest diffing must cut curve builds ({} vs {})",
        delta_counters.curve_builds,
        cold_counters.curve_builds
    );
    assert!(delta_counters.delta_invocations > 0);
    assert!(delta_counters.warm_rows_reused > 0);

    Report::new(
        "kernels",
        format!(
            "chunked vs pruned-scalar convolution: synthetic curves (cores, ways) in \
             {{(16,32),(16,64),(32,64)}} x {calls_per_case} calls; cold vs incremental \
             CoordinatedRma: paper1-4c, {delta_rounds} rounds, one toggled core per round"
        ),
        repetitions,
        calibration_ops_per_sec,
        &[
            ("chunked", chunked_wall),
            ("scalar", scalar_wall),
            ("cold", cold_wall),
            ("delta", delta_wall),
        ],
        &[
            ("convolution_ops", conv_stats.ops),
            ("pruned_ops", conv_stats.pruned),
            ("chunked_lanes", conv_stats.lanes),
            ("cold_curve_builds", cold_counters.curve_builds),
            ("delta_curve_builds", delta_counters.curve_builds),
            ("delta_invocations", delta_counters.delta_invocations),
            ("warm_rows_reused", delta_counters.warm_rows_reused),
        ],
    )
}

/// A failed gate check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateFailure {
    /// A banded wall regressed beyond its band, or a speedup floor broke.
    WallRegression(String),
    /// A deterministic counter drifted (or a counter floor broke), which
    /// means the workload itself changed and the baseline must be refreshed
    /// deliberately.
    CounterDrift(String),
    /// A report lacks a wall or counter its table row declares, or carries
    /// one it does not declare.
    Malformed(String),
}

impl GateFailure {
    /// The human-readable description of the failure.
    pub fn message(&self) -> &str {
        match self {
            GateFailure::WallRegression(m)
            | GateFailure::CounterDrift(m)
            | GateFailure::Malformed(m) => m,
        }
    }
}

/// Compares a fresh report against its committed baseline under the policy
/// of `scenario`'s table row and returns every failed check (none: the
/// scenario passes).
///
/// Each banded wall is normalized by the two machines' calibration
/// throughputs (`new * new_calib / old_calib` re-expresses the fresh
/// measurement in baseline-machine seconds) and must stay within
/// `tolerance` times its band multiplier; every counter must match exactly;
/// every floor must hold on the fresh report.
pub fn compare(
    new: &Report,
    baseline: &Report,
    scenario: &Scenario,
    tolerance: f64,
) -> Vec<GateFailure> {
    let bench = scenario.bench;
    let malformed: Vec<GateFailure> = [("fresh", new), ("baseline", baseline)]
        .into_iter()
        .filter_map(|(which, report)| {
            let error = scenario.validate(report).err()?;
            Some(GateFailure::Malformed(format!(
                "{bench}: {which} report: {error}"
            )))
        })
        .collect();
    if !malformed.is_empty() {
        return malformed;
    }

    let (new_calib, old_calib) = (
        new.calibration_ops_per_sec,
        baseline.calibration_ops_per_sec,
    );
    let scale = if new_calib > 0.0 && old_calib > 0.0 {
        new_calib / old_calib
    } else {
        1.0
    };
    let walls = scenario.walls.iter().filter_map(|&(wall, band)| {
        let band = tolerance * band?;
        let (raw, old) = (new.walls[wall], baseline.walls[wall]);
        let normalized = raw * scale;
        (normalized > old * (1.0 + band)).then(|| {
            GateFailure::WallRegression(format!(
                "{bench}/{wall}: wall time regressed {:.1}% (baseline {old:.4}s, now \
                 {normalized:.4}s normalized ({raw:.4}s raw, machine-speed ratio {scale:.2}), \
                 tolerance {:.0}%)",
                (normalized / old - 1.0) * 100.0,
                band * 100.0
            ))
        })
    });
    let counters = scenario.counters.iter().filter_map(|&counter| {
        let (now, old) = (new.counters[counter], baseline.counters[counter]);
        (now != old).then(|| {
            GateFailure::CounterDrift(format!(
                "{bench}/{counter}: changed from {old} to {now}; if intentional, refresh the \
                 baseline with `cargo run --release -p qosrm-bench --bin bench_gate -- --update`"
            ))
        })
    });
    let floors = scenario.floors.iter().filter_map(|f| f.check(bench, new));
    walls.chain(counters).chain(floors).collect()
}

/// The repository root (the bench crate lives at `crates/bench`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Reads a committed baseline and checks that it carries exactly the walls
/// and counters `scenario` declares; every error names the file (and the
/// offending key, if one is missing or undeclared).
pub fn read_baseline(path: &Path, scenario: &Scenario) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let report: Report =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    scenario
        .validate(&report)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

fn write_json(path: &Path, report: &Report) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let mut text = serde_json::to_string_pretty(report)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Entry point of the `bench_gate` binary. Returns the process exit code.
pub fn gate_main(args: &[String]) -> i32 {
    let mut update = false;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut repetitions = 3usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--check" => update = false,
            "--tolerance" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance requires a non-negative number");
                    return 2;
                }
            },
            "--repetitions" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) if r >= 1 => repetitions = r,
                _ => {
                    eprintln!("--repetitions requires a positive integer");
                    return 2;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_gate [--check|--update] [--tolerance FRAC] [--repetitions N]"
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }

    let root = repo_root();
    // In check mode every baseline must load before anything runs, so a
    // missing or malformed one fails in seconds, not after the workloads.
    let baselines: Vec<Report> = if update {
        Vec::new()
    } else {
        let loaded: Result<Vec<Report>, String> = SCENARIOS
            .iter()
            .map(|s| read_baseline(&root.join(s.file_name()), s))
            .collect();
        match loaded {
            Ok(baselines) => baselines,
            Err(e) => {
                eprintln!("{e}");
                eprintln!("no usable committed baseline; run with --update to create one");
                return 2;
            }
        }
    };
    let out_dir = if update {
        root.clone()
    } else {
        root.join("target/bench-gate")
    };

    let calibration = calibrate();
    println!("calibration: {:.0} ops/s", calibration);
    let mut failures = Vec::new();
    for (i, scenario) in SCENARIOS.iter().enumerate() {
        let report = (scenario.run)(repetitions, calibration);
        if let Err(e) = scenario.validate(&report) {
            eprintln!("{}: fresh report: {e}", scenario.bench);
            return 2;
        }
        println!("{}", scenario.summary(&report));
        let path = out_dir.join(scenario.file_name());
        if let Err(e) = write_json(&path, &report) {
            eprintln!("{e}");
            return 2;
        }
        println!("wrote {}", path.display());
        if let Some(baseline) = baselines.get(i) {
            failures.extend(compare(&report, baseline, scenario, tolerance));
        }
    }
    if update {
        println!("baselines refreshed");
        return 0;
    }

    for failure in &failures {
        eprintln!("FAIL: {}", failure.message());
    }
    if failures.is_empty() {
        println!("perf gate passed (tolerance {:.0}%)", tolerance * 100.0);
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(bench: &str) -> &'static Scenario {
        SCENARIOS
            .iter()
            .find(|s| s.bench == bench)
            .expect("scenario in the table")
    }

    fn baseline(scenario: &Scenario) -> Report {
        read_baseline(&repo_root().join(scenario.file_name()), scenario)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn with_wall(report: &Report, wall: &str, value: f64) -> Report {
        let mut report = report.clone();
        report.walls.insert(wall.to_string(), value);
        report
    }

    fn wall_regression(failures: &[GateFailure], prefix: &str) -> bool {
        failures
            .iter()
            .any(|f| matches!(f, GateFailure::WallRegression(m) if m.starts_with(prefix)))
    }

    fn counter_drift(failures: &[GateFailure], prefix: &str) -> bool {
        failures
            .iter()
            .any(|f| matches!(f, GateFailure::CounterDrift(m) if m.starts_with(prefix)))
    }

    #[test]
    fn committed_baselines_match_the_scenario_table() {
        // Exactly one committed baseline per row, each a v2 report carrying
        // exactly the walls and counters its row declares.
        let mut files: Vec<String> = std::fs::read_dir(repo_root())
            .expect("repository root lists")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        files.sort();
        let mut rows: Vec<String> = SCENARIOS.iter().map(Scenario::file_name).collect();
        rows.sort();
        assert_eq!(files, rows);
        for s in SCENARIOS {
            let report = baseline(s);
            assert!(report.repetitions >= 1 && report.calibration_ops_per_sec > 0.0);
            // Declared names are unique, and every name a floor or a derived
            // figure reads is declared (reading an undeclared one panics).
            let walls: BTreeSet<&str> = s.walls.iter().map(|w| w.0).collect();
            let counters: BTreeSet<&str> = s.counters.iter().copied().collect();
            assert_eq!(walls.len(), s.walls.len(), "{}", s.bench);
            assert_eq!(counters.len(), s.counters.len(), "{}", s.bench);
            assert!(s.summary(&report).starts_with(s.bench));
        }
    }

    #[test]
    fn a_baseline_with_a_missing_or_undeclared_key_fails_naming_the_file_and_the_key() {
        let dir = std::env::temp_dir().join(format!("qosrm-gate-baselines-{}", std::process::id()));
        let path = dir.join("BENCH_test.json");
        let tolerance = DEFAULT_TOLERANCE;
        for s in SCENARIOS {
            let base = baseline(s);
            let mut broken: Vec<(Report, String)> = Vec::new();
            for &(wall, _) in s.walls {
                let mut report = base.clone();
                report.walls.remove(wall);
                broken.push((report, format!("missing wall `{wall}`")));
            }
            for &counter in s.counters {
                let mut report = base.clone();
                report.counters.remove(counter);
                broken.push((report, format!("missing counter `{counter}`")));
            }
            let mut extra = base.clone();
            extra.counters.insert("stray".to_string(), 0);
            broken.push((extra, "undeclared counter `stray`".to_string()));
            for (report, key) in broken {
                write_json(&path, &report).unwrap();
                let error = read_baseline(&path, s).expect_err(&key);
                assert!(
                    error.contains(&path.display().to_string()) && error.contains(&key),
                    "{error}"
                );
                // The comparator never passes silently on a missing key either.
                assert!(matches!(
                    compare(&base, &report, s, tolerance)[..],
                    [GateFailure::Malformed(_)]
                ));
            }
        }
        // A pre-v2 report (flat typed fields, no maps) does not load.
        std::fs::write(
            &path,
            r#"{"schema": "qosrm-bench-gate/v1", "bench": "global_opt", "workload": "w",
                "repetitions": 3, "wall_seconds": 0.005, "calls": 800,
                "calibration_ops_per_sec": 4.0e8}"#,
        )
        .unwrap();
        let error = read_baseline(&path, scenario("global_opt")).unwrap_err();
        assert!(error.contains(&path.display().to_string()), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_scenario_is_gated_by_its_table_row() {
        let tolerance = DEFAULT_TOLERANCE;
        for s in SCENARIOS {
            let bench = s.bench;
            let base = baseline(s);
            let check = |report: &Report| compare(report, &base, s, tolerance);
            assert_eq!(check(&base), vec![], "{bench}: an unchanged report passes");
            for &(wall, band) in s.walls {
                let scaled = |factor: f64| with_wall(&base, wall, base.walls[wall] * factor);
                let prefix = format!("{bench}/{wall}:");
                assert_eq!(check(&scaled(1.15)), vec![], "{prefix} x1.15 passes");
                match band {
                    // Timed only for a floor: never banded on its own.
                    None => assert_eq!(check(&scaled(10.0)), vec![], "{prefix} is unbanded"),
                    Some(1.0) => assert!(wall_regression(&check(&scaled(1.3)), &prefix)),
                    Some(2.0) => {
                        assert_eq!(
                            check(&scaled(1.3)),
                            vec![],
                            "{prefix} x1.3 passes a 2x band"
                        );
                        assert!(wall_regression(&check(&scaled(1.5)), &prefix));
                    }
                    Some(other) => panic!("{prefix} band {other}x has no test"),
                }
            }
            for &counter in s.counters {
                let mut drifted = base.clone();
                *drifted.counters.get_mut(counter).unwrap() += 1;
                assert!(
                    counter_drift(&check(&drifted), &format!("{bench}/{counter}:")),
                    "{bench}/{counter} +1 drifts"
                );
            }
            for floor in s.floors {
                let prefix = format!("{bench} floor:");
                match *floor {
                    Floor::Speedup { of, over, min } => {
                        let at = |speedup: f64| with_wall(&base, over, base.walls[of] * speedup);
                        assert!(!wall_regression(&check(&at(min * 1.001)), &prefix));
                        assert!(wall_regression(&check(&at(min * 0.999)), &prefix));
                    }
                    Floor::Fewer { counter, than } => {
                        let mut equal = base.clone();
                        equal
                            .counters
                            .insert(counter.to_string(), base.counters[than]);
                        assert!(counter_drift(&check(&equal), &prefix));
                    }
                }
            }
        }
    }

    #[test]
    fn the_gate_policy_is_pinned() {
        // Widening a band or lowering a floor must be a deliberate edit here.
        assert_eq!(DEFAULT_TOLERANCE, 0.20);
        let unplain: Vec<_> = SCENARIOS
            .iter()
            .flat_map(|s| {
                s.walls
                    .iter()
                    .filter(|w| w.1 != BAND)
                    .map(|w| (s.bench, *w))
            })
            .collect();
        assert_eq!(
            unplain,
            [
                ("local_opt", ("scalar", None)),
                ("kernels", ("scalar", None)),
                ("kernels", ("cold", None)),
                ("kernels", ("delta", Some(2.0))),
            ]
        );
        let floors: Vec<String> = SCENARIOS
            .iter()
            .flat_map(|s| s.floors.iter().map(|f| format!("{} {f:?}", s.bench)))
            .collect();
        assert_eq!(
            floors,
            [
                r#"local_opt Speedup { of: "builder", over: "scalar", min: 3.0 }"#,
                r#"kernels Speedup { of: "chunked", over: "scalar", min: 1.3 }"#,
                r#"kernels Fewer { counter: "delta_curve_builds", than: "cold_curve_builds" }"#,
            ]
        );
    }

    #[test]
    fn wall_comparison_is_calibration_normalized() {
        let s = scenario("simulator");
        let base = baseline(s);
        // The same code on a machine half as fast: raw walls double but so
        // does the gap in calibration throughput — normalization cancels it.
        let mut slow = base.clone();
        slow.walls.values_mut().for_each(|wall| *wall *= 2.0);
        slow.calibration_ops_per_sec /= 2.0;
        assert_eq!(compare(&slow, &base, s, DEFAULT_TOLERANCE), vec![]);
        // A genuine 2x regression on an identical machine still fails.
        slow.calibration_ops_per_sec = base.calibration_ops_per_sec;
        assert!(compare(&slow, &base, s, DEFAULT_TOLERANCE)
            .iter()
            .any(|f| matches!(f, GateFailure::WallRegression(_))));
    }

    #[test]
    fn local_opt_bench_counters_are_deterministic() {
        // One repetition with a tiny round count through the real fixture:
        // counters must be identical across runs (the gate exact-compares
        // them) and the builder path must report nonzero measured work.
        let a = run_local_opt_bench_with_rounds(1, 1_000_000.0, 2);
        let b = run_local_opt_bench_with_rounds(1, 1_000_000.0, 2);
        scenario("local_opt").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        assert!(a.counters["curves_built"] > 0 && a.counters["evaluations"] > 0);
    }

    #[test]
    fn kernels_bench_counters_are_deterministic() {
        // One repetition with tiny workload sizes through the real fixture:
        // the exact-compared counters must be identical across runs, both
        // kernels must report measured work, and the delta manager must
        // build strictly fewer curves (the run itself asserts lockstep
        // bit-identity of the two managers' settings).
        let a = run_kernels_bench_with(1, 1_000_000.0, 2, 6);
        let b = run_kernels_bench_with(1, 1_000_000.0, 2, 6);
        scenario("kernels").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        let c = &a.counters;
        assert!(c["convolution_ops"] > 0 && c["chunked_lanes"] > 0);
        assert!(c["delta_curve_builds"] < c["cold_curve_builds"]);
        assert!(c["delta_invocations"] > 0 && c["warm_rows_reused"] > 0);
    }

    #[test]
    fn synthetic_curves_are_deterministic_and_feasible() {
        let a = synthetic_curves(8, 16);
        let b = synthetic_curves(8, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.any_feasible()));
    }

    #[test]
    fn serve_bench_counters_are_deterministic() {
        // One repetition of a tiny submission mix through a real in-process
        // daemon, twice: the gate exact-compares the admission / streaming /
        // cache counters, so two cold daemons must report identical values,
        // and the mix must exercise both dedup and the curve cache.
        let a = run_serve_bench_with_load(1, 1_000_000.0, 2, 2, 2);
        let b = run_serve_bench_with_load(1, 1_000_000.0, 2, 2, 2);
        scenario("serve").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        // One record per distinct benchmark of the two submitted variants.
        let load = LoadConfig {
            clients: 2,
            per_client: 2,
            distinct: 2,
            seed: 2024,
            quick: true,
            shard_size: 1,
        };
        let mut benchmarks = std::collections::BTreeSet::new();
        for spec in serve_plan(&serve_bench_spec(), &load).unwrap().specs {
            for axis in spec.lower().unwrap().platforms {
                for mix in axis.mixes {
                    benchmarks.extend(mix.benchmarks);
                }
            }
        }
        let c = &a.counters;
        assert_eq!(c["records_built"], benchmarks.len() as u64);
        assert_eq!(c["specs_submitted"], 4);
        assert_eq!(c["runs_executed"], 2);
        assert!(c["outcomes_total"] > 0 && c["cache_misses"] > 0);
    }

    #[test]
    fn dist_bench_counters_are_deterministic() {
        // One repetition of a tiny fleet (2 workers, 2 scenarios) through a
        // real in-process coordinator, twice: the gate exact-compares the
        // lease counters, so both runs must agree — every shard granted
        // exactly once, nothing expired, reinjected or rejected — and the
        // runner itself asserts the distributed merge is byte-identical to
        // the single-process run.
        let a = run_dist_bench_with(1, 1_000_000.0, 2, 1);
        let b = run_dist_bench_with(1, 1_000_000.0, 2, 1);
        scenario("dist").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        let c = &a.counters;
        assert_eq!(c["scenarios_total"], 2);
        assert_eq!(c["leases_granted"], 2);
        assert_eq!(c["shards_completed"], 2);
        assert_eq!(c["leases_expired"], 0);
        assert_eq!(c["shards_reinjected"], 0);
        assert_eq!(c["stale_completions"], 0);
    }

    #[test]
    fn best_response_bench_counters_are_deterministic() {
        // One repetition with tiny call counts through the real fixture: the
        // gate exact-compares the counters, so two runs must agree, and both
        // solver families must report nonzero measured work.
        let a = run_best_response_bench_with_calls(1, 1_000_000.0, 3, 2);
        let b = run_best_response_bench_with_calls(1, 1_000_000.0, 3, 2);
        scenario("best_response").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        let c = &a.counters;
        assert!(c["rounds"] > 0 && c["evaluations"] > 0);
        // One certified candidate per equilibrium call.
        assert_eq!(c["equilibria_examined"], c["eq_calls"]);
    }

    #[test]
    fn search_bench_counters_are_deterministic() {
        // A tiny seeded search through the real runner, twice: the runner
        // itself asserts manifest byte-identity across repetitions, and the
        // gate exact-compares the counters, so two invocations must agree.
        let config = experiments::SearchConfig {
            seed: 99,
            generations: 2,
            population: 3,
            capacity: 2,
            max_mixes: 1,
            name: "gate-test".to_string(),
        };
        let a = run_search_bench_with(2, 1_000_000.0, &config);
        let b = run_search_bench_with(1, 1_000_000.0, &config);
        scenario("search").validate(&a).unwrap();
        assert_eq!(a.counters, b.counters);
        let c = &a.counters;
        assert_eq!(c["generations"], 2);
        assert!(c["evaluations"] > 0 && c["scenarios_evaluated"] > 0);
        assert!(c["archive_size"] >= 1 && c["archive_size"] <= 2);
    }
}
