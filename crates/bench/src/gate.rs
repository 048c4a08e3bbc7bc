//! The CI performance-regression gate.
//!
//! [`bench_gate`](../../bench_gate/index.html) (the `bench_gate` binary) runs
//! eight fixed, deterministic workloads — the co-phase simulator loop on a
//! quick-grid workload, the global way-partition optimizer on a synthetic
//! curve set, cold-cache energy-curve construction on real observations,
//! the game-theoretic best-response/equilibrium solvers on the synthetic
//! curves, an in-process `qosrm_serve` daemon under a fixed submission
//! mix, the SIMD-shaped kernels (chunked min-plus convolution vs the
//! pruned scalar path, and the incremental delta-path manager vs a cold
//! rebuild), a distributed sweep (in-process coordinator + wire
//! workers) over a fixed spec, and a fixed-seed Pareto scenario search —
//! and emits machine-readable reports:
//!
//! * `BENCH_simulator.json` — wall time, event count and events/second of the
//!   simulator loop;
//! * `BENCH_global_opt.json` — wall time, call count and min-plus convolution
//!   operations of the global optimizer;
//! * `BENCH_local_opt.json` — wall time of cold (uncached) curve
//!   construction through the staged `CurveBuilder`, the scalar reference's
//!   wall time on the same inputs, their speedup ratio (gated at
//!   [`MIN_LOCAL_OPT_SPEEDUP`]) and the builder's exact model-evaluation
//!   count (exact-compared like every deterministic counter);
//! * `BENCH_best_response.json` — wall time of the iterated-best-response
//!   solver and the pure-Nash equilibrium enumeration, with their exact
//!   round / evaluation / candidate counters;
//! * `BENCH_serve.json` — wall time of a fixed concurrent submission mix
//!   against an in-process serving daemon on an ephemeral port, with the
//!   exact admission / streaming / curve-cache counters its `/stats`
//!   endpoint reports (specs admitted per second, outcomes streamed per
//!   second, cache hit rate);
//! * `BENCH_kernels.json` — wall time of the 4-wide-chunked min-plus
//!   convolution against the preserved pruned scalar kernel on identical
//!   synthetic curve sets (their same-process speedup ratio gated at
//!   [`MIN_CHUNKED_CONV_SPEEDUP`]), and of the incremental delta-path
//!   `CoordinatedRma` against a cold-rebuild manager on the identical
//!   interval schedule, with the exact convolution / curve-build / reuse
//!   counters of both paths;
//! * `BENCH_dist.json` — wall time of a fixed spec drained by an in-process
//!   lease coordinator plus four wire workers on an ephemeral port, the
//!   wall time of the same spec through the single-process streaming
//!   executor, and the exact lease-protocol counters (granted / renewed /
//!   expired / reinjected / stale / completed) of the distributed run;
//! * `BENCH_search.json` — wall time of a fixed-seed `experiments::search`
//!   evolutionary run (3 generations over the quick grid), with the exact
//!   generation / candidate / evaluation / scenario-run / archive-size
//!   counters; the bench also asserts the persisted archive manifest is
//!   byte-identical across repetitions, so seed determinism is enforced on
//!   every CI run.
//!
//! In check mode (the default, what CI runs) the fresh reports are written to
//! `target/bench-gate/` and compared against the baselines committed at the
//! repository root; the process exits non-zero when wall time regresses by
//! more than the tolerance (20% by default) or when a deterministic counter
//! (events, convolution ops) drifts without a baseline refresh. In
//! `--update` mode the fresh reports overwrite the committed baselines.
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
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{paper1_workloads, MixPopulation, SynthSpec};

/// Schema tag embedded in every report so downstream tooling can detect
/// format changes.
pub const SCHEMA: &str = "qosrm-bench-gate/v1";

/// Default relative wall-time regression tolerated before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Minimum speedup of the staged `CurveBuilder` over the scalar reference on
/// the cold-curve workload. Both sides are timed in the same process on the
/// same machine, so the ratio needs no calibration normalization.
pub const MIN_LOCAL_OPT_SPEEDUP: f64 = 3.0;

/// Iterations of the calibration loop (sized for tens of milliseconds).
const CALIBRATION_ITERS: u64 = 40_000_000;

/// Measures a fixed pure-CPU workload (xorshift + float accumulate) and
/// returns its throughput in iterations/second. The workload is identical
/// on every machine, so the ratio of two calibration throughputs estimates
/// the single-thread speed ratio of the machines that produced them —
/// which is what [`compare_simulator`]/[`compare_global_opt`] use to
/// normalize wall times measured on different hardware.
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

/// Report of the simulator-loop benchmark (`BENCH_simulator.json`).
///
/// Two sub-benchmarks share the fixed quick-grid workload: `loop_*` drives
/// the event loop under the no-op baseline manager (the simulator loop in
/// isolation — the number the 'simulator speedup' headline refers to), and
/// `managed_*` runs strict and 30%-relaxed RM2 with a warm shared curve
/// cache (the production sweep configuration), covering the observation and
/// reconfiguration paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulatorReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"simulator"`).
    pub bench: String,
    /// Human-readable description of the fixed workload.
    pub workload: String,
    /// Measured repetitions of the workload (best time is reported).
    pub repetitions: usize,
    /// Best wall time of one baseline-manager repetition, in seconds.
    pub loop_wall_seconds: f64,
    /// Global events per baseline-manager repetition (deterministic).
    pub loop_events: u64,
    /// Events per second of the isolated simulator loop.
    pub loop_events_per_sec: f64,
    /// Best wall time of one managed repetition, in seconds.
    pub managed_wall_seconds: f64,
    /// Global events per managed repetition (deterministic).
    pub managed_events: u64,
    /// Events per second of the managed configuration.
    pub managed_events_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
}

/// Report of the global-optimizer benchmark (`BENCH_global_opt.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalOptReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"global_opt"`).
    pub bench: String,
    /// Human-readable description of the fixed curve set.
    pub workload: String,
    /// Measured repetitions of the call set (best time is reported).
    pub repetitions: usize,
    /// Best wall time of one repetition, in seconds.
    pub wall_seconds: f64,
    /// `optimize_partition` calls per repetition.
    pub calls: u64,
    /// Min-plus convolution candidate evaluations per repetition
    /// (deterministic; drops when lower-bound pruning improves).
    pub convolution_ops: u64,
    /// Split candidates skipped by lower-bound pruning per repetition.
    pub pruned_ops: u64,
    /// Convolution operations per second at the best wall time.
    pub ops_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
}

/// Report of the cold-path local-optimizer benchmark
/// (`BENCH_local_opt.json`): energy-curve construction with no memoization
/// cache, i.e. the cost of every cache-miss RMA invocation in a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalOptReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"local_opt"`).
    pub bench: String,
    /// Human-readable description of the fixed observation/config set.
    pub workload: String,
    /// Measured repetitions of the curve set (best time is reported).
    pub repetitions: usize,
    /// Best wall time of one repetition through the staged builder, in
    /// seconds (the gated number).
    pub builder_wall_seconds: f64,
    /// Best wall time of the scalar reference on the identical inputs.
    pub scalar_wall_seconds: f64,
    /// `scalar_wall_seconds / builder_wall_seconds` (same process, same
    /// machine); must stay at or above [`MIN_LOCAL_OPT_SPEEDUP`].
    pub speedup: f64,
    /// Curves constructed per repetition (deterministic).
    pub curves_built: u64,
    /// Model evaluations the builder performed per repetition
    /// (deterministic; exact-compared — a drift means the builder's pruning
    /// or the workload changed).
    pub evaluations: u64,
    /// Curves per second through the builder at the best wall time.
    pub curves_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
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

/// Runs the simulator-loop benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_simulator_bench(repetitions: usize, calibration_ops_per_sec: f64) -> SimulatorReport {
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
    let loop_events = run_loop();
    let mut loop_best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let run_events = run_loop();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            run_events, loop_events,
            "simulator loop must be deterministic"
        );
        loop_best = loop_best.min(wall);
    }
    let managed_events = run_managed();
    let mut managed_best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let run_events = run_managed();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            run_events, managed_events,
            "managed runs must be deterministic"
        );
        managed_best = managed_best.min(wall);
    }

    SimulatorReport {
        schema: SCHEMA.to_string(),
        bench: "simulator".to_string(),
        workload: format!(
            "paper1-4c quick grid, 2 mixes: loop = {LOOP_ROUNDS}x baseline; managed = \
             {MANAGED_ROUNDS}x (RM2-strict + RM2-relaxed30, warm curve cache)"
        ),
        repetitions: repetitions.max(1),
        loop_wall_seconds: loop_best,
        loop_events,
        loop_events_per_sec: loop_events as f64 / loop_best.max(f64::MIN_POSITIVE),
        managed_wall_seconds: managed_best,
        managed_events,
        managed_events_per_sec: managed_events as f64 / managed_best.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
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

/// Runs the global-optimizer benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_global_opt_bench(repetitions: usize, calibration_ops_per_sec: f64) -> GlobalOptReport {
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

    let (calls, stats) = run_once();
    let mut best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let (run_calls, run_stats) = run_once();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(run_calls, calls);
        assert_eq!(
            run_stats.ops, stats.ops,
            "convolution must be deterministic"
        );
        best = best.min(wall);
    }

    GlobalOptReport {
        schema: SCHEMA.to_string(),
        bench: "global_opt".to_string(),
        workload: "synthetic curves: (cores, ways) in {(4,16),(8,16),(8,32),(16,32)} x 200 calls"
            .to_string(),
        repetitions: repetitions.max(1),
        wall_seconds: best,
        calls,
        convolution_ops: stats.ops,
        pruned_ops: stats.pruned,
        ops_per_sec: stats.ops as f64 / best.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Rounds of the full observation/config set per cold-curve repetition,
/// sized so one builder repetition lasts several milliseconds — comparable
/// to the other gated workloads — because the gated speedup *ratio* must be
/// stable on a noisy shared CI runner, not just the wall time.
const LOCAL_OPT_ROUNDS: usize = 240;

/// Runs the cold-path local-optimizer benchmark: the fixed observation set
/// (first-phase observations of the four quick-grid benchmarks) crossed
/// with the RM2 and RM3 optimizer configurations and strict / 30%-relaxed
/// QoS, every curve built cold (no memoization cache). The scalar reference
/// runs the identical inputs so the report carries the builder's speedup.
pub fn run_local_opt_bench(repetitions: usize, calibration_ops_per_sec: f64) -> LocalOptReport {
    run_local_opt_bench_with_rounds(repetitions, calibration_ops_per_sec, LOCAL_OPT_ROUNDS)
}

/// [`run_local_opt_bench`] with an explicit round count (tests use a small
/// one so the determinism check stays fast in debug builds).
fn run_local_opt_bench_with_rounds(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    rounds: usize,
) -> LocalOptReport {
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
    let (curves_built, evaluations) = run_builder();
    let mut builder_best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let counters = run_builder();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            counters,
            (curves_built, evaluations),
            "curve construction must be deterministic"
        );
        builder_best = builder_best.min(wall);
    }
    run_scalar();
    let mut scalar_best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        run_scalar();
        scalar_best = scalar_best.min(start.elapsed().as_secs_f64());
    }

    LocalOptReport {
        schema: SCHEMA.to_string(),
        bench: "local_opt".to_string(),
        workload: format!(
            "cold energy curves: 4 quick-grid observations x (RM2 + RM3 optimizer) x \
             (strict + relaxed30) x {rounds} rounds, no curve cache"
        ),
        repetitions: repetitions.max(1),
        builder_wall_seconds: builder_best,
        scalar_wall_seconds: scalar_best,
        speedup: scalar_best / builder_best.max(f64::MIN_POSITIVE),
        curves_built,
        evaluations,
        curves_per_sec: curves_built as f64 / builder_best.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Report of the game-theoretic solver benchmark
/// (`BENCH_best_response.json`): the iterated-best-response solver over
/// the synthetic curve sets, plus the pure-Nash equilibrium enumeration on
/// the 4-core set (enumeration is combinatorial in the core count, so the
/// gate pins it at the size E10 actually uses).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BestResponseReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"best_response"`).
    pub bench: String,
    /// Human-readable description of the fixed curve sets.
    pub workload: String,
    /// Measured repetitions of the call set (best time is reported).
    pub repetitions: usize,
    /// Best wall time of one repetition, in seconds.
    pub wall_seconds: f64,
    /// `best_response` calls per repetition.
    pub br_calls: u64,
    /// `min_energy_equilibrium` calls per repetition.
    pub eq_calls: u64,
    /// Best-response rounds per repetition (deterministic).
    pub rounds: u64,
    /// Single-core energy evaluations per repetition (deterministic).
    pub evaluations: u64,
    /// Equilibrium candidates certified per repetition (deterministic; one
    /// per `min_energy_equilibrium` call).
    pub equilibria_examined: u64,
    /// Solver operations (evaluations + candidates) per second at the best
    /// wall time.
    pub ops_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
}

/// `best_response` calls per curve set and repetition.
const BR_CALLS_PER_CASE: usize = 1000;
/// `min_energy_equilibrium` calls per curve set and repetition.
const EQ_CALLS_PER_CASE: usize = 300;

/// Runs the game-theoretic solver benchmark. `calibration_ops_per_sec` is
/// the machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_best_response_bench(
    repetitions: usize,
    calibration_ops_per_sec: f64,
) -> BestResponseReport {
    run_best_response_bench_with_calls(
        repetitions,
        calibration_ops_per_sec,
        BR_CALLS_PER_CASE,
        EQ_CALLS_PER_CASE,
    )
}

/// [`run_best_response_bench`] with explicit call counts (tests use small
/// ones so the determinism check stays fast in debug builds).
fn run_best_response_bench_with_calls(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    br_calls_per_case: usize,
    eq_calls_per_case: usize,
) -> BestResponseReport {
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

    // Warm-up, then best-of-N with exact determinism checks.
    let (br_calls, eq_calls, stats) = run_once();
    let mut best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let (run_br, run_eq, run_stats) = run_once();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!((run_br, run_eq), (br_calls, eq_calls));
        assert_eq!(run_stats, stats, "game solvers must be deterministic");
        best = best.min(wall);
    }

    BestResponseReport {
        schema: SCHEMA.to_string(),
        bench: "best_response".to_string(),
        workload: format!(
            "synthetic curves: on (cores, ways) in {{(4,16),(8,16),(8,32),(16,32)}}, \
             best response x {br_calls_per_case} calls and equilibrium selection x \
             {eq_calls_per_case} calls"
        ),
        repetitions: repetitions.max(1),
        wall_seconds: best,
        br_calls,
        eq_calls,
        rounds: stats.rounds,
        evaluations: stats.evaluations,
        equilibria_examined: stats.equilibria_examined,
        ops_per_sec: (stats.evaluations + stats.equilibria_examined) as f64
            / best.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Report of the serving-throughput benchmark (`BENCH_serve.json`): a fixed
/// concurrent submission mix against an in-process `qosrm_serve` daemon on
/// an ephemeral port.
///
/// The daemon runs one worker with serial in-run evaluation and memoization
/// on, so every counter its `/stats` endpoint reports is deterministic
/// regardless of admission interleaving: each distinct spec is admitted
/// exactly once (the rest deduplicate), each curve key misses exactly once
/// whichever run looks it up first, and every streaming tail sees its run's
/// full outcome count. Those counters are exact-compared like the other
/// gated workloads; the wall time of the submission mix (cold daemon,
/// including the quick database builds its runs trigger) is
/// calibration-banded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"serve"`).
    pub bench: String,
    /// Human-readable description of the fixed submission mix.
    pub workload: String,
    /// Measured repetitions of the mix (best time is reported; each
    /// repetition uses a fresh daemon and data directory).
    pub repetitions: usize,
    /// Best wall time of one repetition (submission through last merged
    /// result fetch), in seconds.
    pub wall_seconds: f64,
    /// Spec submissions the daemon received per repetition (deterministic).
    pub specs_submitted: u64,
    /// Distinct runs admitted and completed per repetition (deterministic;
    /// the remaining submissions deduplicate).
    pub runs_executed: u64,
    /// Scenario outcomes persisted across all runs per repetition
    /// (deterministic).
    pub outcomes_total: u64,
    /// Outcome lines written to `/stream` tails per repetition
    /// (deterministic).
    pub outcomes_streamed: u64,
    /// Curve-cache hits of the daemon's quick-mode context per repetition
    /// (deterministic: one worker, serial runs, memoization on, no
    /// eviction).
    pub cache_hits: u64,
    /// Curve-cache misses per repetition (deterministic: each distinct
    /// curve key misses exactly once).
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`.
    pub cache_hit_rate: f64,
    /// Submissions answered per second at the best wall time.
    pub specs_per_sec: f64,
    /// Outcomes streamed per second at the best wall time.
    pub outcomes_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
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

/// Runs the serving-throughput benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_serve_bench(repetitions: usize, calibration_ops_per_sec: f64) -> ServeReport {
    run_serve_bench_with_load(
        repetitions,
        calibration_ops_per_sec,
        SERVE_CLIENTS,
        SERVE_PER_CLIENT,
        SERVE_DISTINCT,
    )
}

/// [`run_serve_bench`] with an explicit submission mix (tests use a small
/// one so the determinism check stays fast in debug builds).
fn run_serve_bench_with_load(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    clients: usize,
    per_client: usize,
    distinct: usize,
) -> ServeReport {
    let load = LoadConfig {
        clients,
        per_client,
        distinct,
        seed: 2024,
        quick: true,
        shard_size: 1,
    };
    let plan = serve_plan(&serve_bench_spec(), &load).expect("fixed spec must lower");

    let mut counters: Option<(u64, u64, u64, u64, u64, u64)> = None;
    let mut best = f64::INFINITY;
    for repetition in 0..repetitions.max(1) {
        let dir = std::env::temp_dir().join(format!(
            "qosrm-bench-serve-{}-{repetition}",
            std::process::id()
        ));
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

        let start = Instant::now();
        let (report, _results) = serve_execute(addr, &plan, &load, Duration::from_secs(600));
        let wall = start.elapsed().as_secs_f64();
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
        let run_counters = (
            stats.counters.submissions,
            stats.counters.runs_completed,
            outcomes_total,
            stats.counters.outcomes_streamed,
            quick_cache.hits,
            quick_cache.misses,
        );
        assert_eq!(
            quick_cache.evictions, 0,
            "the fixed mix must fit the curve cache"
        );
        match counters {
            None => counters = Some(run_counters),
            Some(reference) => assert_eq!(
                run_counters, reference,
                "serving counters must be deterministic across repetitions"
            ),
        }
        best = best.min(wall);

        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (submissions, runs_completed, outcomes_total, outcomes_streamed, hits, misses) =
        counters.expect("at least one repetition ran");
    ServeReport {
        schema: SCHEMA.to_string(),
        bench: "serve".to_string(),
        workload: format!(
            "in-process daemon (1 worker, serial runs, shared quick curve cache), cold per \
             repetition: {clients} clients x {per_client} submissions cycling {distinct} \
             variants of a paper1-4c 3-mix synth spec, shard size 1"
        ),
        repetitions: repetitions.max(1),
        wall_seconds: best,
        specs_submitted: submissions,
        runs_executed: runs_completed,
        outcomes_total,
        outcomes_streamed,
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
        specs_per_sec: submissions as f64 / best.max(f64::MIN_POSITIVE),
        outcomes_per_sec: outcomes_streamed as f64 / best.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Report of the distributed-sweep benchmark (`BENCH_dist.json`): a fixed
/// spec drained by an in-process lease [`Coordinator`] serving wire workers
/// on an ephemeral port, against the same spec through the single-process
/// streaming executor.
///
/// Both sides share one warm quick-mode context (the databases are built in
/// an untimed warm-up), so the walls measure coordination overhead plus
/// evaluation, not database construction. The lease counters are
/// deterministic — the lease is far longer than the run, so every shard is
/// granted exactly once and nothing expires, is reinjected, renewed or
/// rejected — and exact-compared like every other gated counter. The merged
/// distributed result is asserted byte-identical to the single-process
/// merge on every repetition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"dist"`).
    pub bench: String,
    /// Human-readable description of the fixed spec and worker fleet.
    pub workload: String,
    /// Measured repetitions (best times are reported; each repetition uses
    /// fresh run directories).
    pub repetitions: usize,
    /// Best wall time of one coordinated repetition (coordinator open
    /// through last worker exit), in seconds — the gated number.
    pub wall_seconds: f64,
    /// Best wall time of the single-process streaming run of the same spec
    /// (run through merge), in seconds.
    pub single_wall_seconds: f64,
    /// Wire workers draining the coordinator.
    pub workers: u64,
    /// Shards of the fixed spec (deterministic).
    pub shards: u64,
    /// Scenarios of the fixed spec (deterministic).
    pub scenarios_total: u64,
    /// Leases granted per coordinated repetition (deterministic: one per
    /// shard, nothing expires).
    pub leases_granted: u64,
    /// Leases renewed per repetition (deterministic: 0 — the lease is far
    /// longer than the heartbeat interval needs).
    pub leases_renewed: u64,
    /// Leases expired per repetition (deterministic: 0).
    pub leases_expired: u64,
    /// Shards reinjected per repetition (deterministic: 0).
    pub shards_reinjected: u64,
    /// Stale completions rejected per repetition (deterministic: 0).
    pub stale_completions: u64,
    /// Shard completions accepted per repetition (deterministic: one per
    /// shard).
    pub shards_completed: u64,
    /// Scenarios per second through the coordinated path at the best wall.
    pub scenarios_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
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

/// Runs the distributed-sweep benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_dist_bench(repetitions: usize, calibration_ops_per_sec: f64) -> DistReport {
    run_dist_bench_with(
        repetitions,
        calibration_ops_per_sec,
        DIST_WORKERS,
        DIST_MIXES,
    )
}

/// Per-repetition deterministic counters of the dist bench, in order:
/// shards, scenarios, granted, renewed, expired, reinjected, stale,
/// completed. Compared exactly across repetitions.
type DistCounters = (u64, u64, u64, u64, u64, u64, u64, u64);

/// [`run_dist_bench`] with an explicit fleet and spec size (tests use a
/// small one so the determinism check stays fast in debug builds).
fn run_dist_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    workers: usize,
    mixes: usize,
) -> DistReport {
    let spec = dist_bench_spec(mixes);
    let ctx = Arc::new(ExperimentContext::new(true));
    let base = std::env::temp_dir().join(format!("qosrm-bench-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Untimed warm-up: builds the quick databases (disk + in-context
    // caches) so the timed walls on both sides measure evaluation and
    // coordination, not database construction.
    let warm_dir = base.join("warm");
    stream::run(
        &spec,
        &ctx,
        &warm_dir,
        &StreamOptions {
            shard_size: 1,
            ..Default::default()
        },
    )
    .expect("warm-up run completes");

    let mut counters_ref: Option<DistCounters> = None;
    let mut best_dist = f64::INFINITY;
    let mut best_single = f64::INFINITY;
    for repetition in 0..repetitions.max(1) {
        // Single-process side: the streaming executor, one shard per
        // scenario, run through merge.
        let single_dir = base.join(format!("single-{repetition}"));
        let start = Instant::now();
        let report = stream::run(
            &spec,
            &ctx,
            &single_dir,
            &StreamOptions {
                shard_size: 1,
                ..Default::default()
            },
        )
        .expect("single-process run completes");
        let single_result = stream::merge(&single_dir).expect("single-process run merges");
        best_single = best_single.min(start.elapsed().as_secs_f64());
        assert!(report.finished);

        // Distributed side: coordinator on an ephemeral port, `workers`
        // wire workers sharing the warm context, timed from coordinator
        // open through the last worker's exit.
        let dist_dir = base.join(format!("dist-{repetition}"));
        let lease_counters = Arc::new(LeaseCounters::default());
        let config = CoordinatorConfig {
            shard_size: 1,
            // Far longer than the run: no expiry, reinjection or renewal,
            // so the lease counters are exactly comparable.
            lease_ms: 600_000,
            ..Default::default()
        };
        let start = Instant::now();
        let coordinator = Arc::new(
            Coordinator::open(
                "dist-bench",
                &spec,
                true,
                &dist_dir,
                &config,
                lease_counters,
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
        best_dist = best_dist.min(start.elapsed().as_secs_f64());
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
        let shards: u64 = reports.iter().map(|r| r.shards_completed).sum();
        assert_eq!(completed, total, "every scenario must complete");
        let run_counters = (
            shards,
            total as u64,
            telemetry.granted,
            telemetry.renewed,
            telemetry.expired,
            telemetry.reinjected,
            telemetry.stale_rejected,
            telemetry.completed,
        );
        match counters_ref {
            None => counters_ref = Some(run_counters),
            Some(reference) => assert_eq!(
                run_counters, reference,
                "lease counters must be deterministic across repetitions"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let (shards, scenarios_total, granted, renewed, expired, reinjected, stale, completed) =
        counters_ref.expect("at least one repetition ran");
    DistReport {
        schema: SCHEMA.to_string(),
        bench: "dist".to_string(),
        workload: format!(
            "in-process coordinator + {workers} wire workers on an ephemeral port (shared warm \
             quick context, lease 600s) vs the single-process streaming executor: paper1-4c \
             {mixes}-mix synth spec x {{Paper1, Paper2}}, shard size 1"
        ),
        repetitions: repetitions.max(1),
        wall_seconds: best_dist,
        single_wall_seconds: best_single,
        workers: workers.max(1) as u64,
        shards,
        scenarios_total,
        leases_granted: granted,
        leases_renewed: renewed,
        leases_expired: expired,
        shards_reinjected: reinjected,
        stale_completions: stale,
        shards_completed: completed,
        scenarios_per_sec: scenarios_total as f64 / best_dist.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Report of the Pareto-front scenario-search benchmark
/// (`BENCH_search.json`): a fixed-seed [`experiments::search`] run — the
/// full evolutionary loop of genome proposal, sweep evaluation, Pareto
/// Strength selection and archive persistence — against a warm quick-mode
/// context.
///
/// The search is deterministic per seed, so generations, candidates,
/// evaluations, scenario runs and the final archive size are exact-compared
/// like every gated counter, and the archive manifest bytes are asserted
/// identical across repetitions in-bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchBenchReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"search"`).
    pub bench: String,
    /// Human-readable description of the fixed search configuration.
    pub workload: String,
    /// Measured repetitions (the best wall is reported; each repetition
    /// writes a fresh archive directory).
    pub repetitions: usize,
    /// Best wall time of one full search run (generation loop through
    /// archive persistence), in seconds — the gated number.
    pub wall_seconds: f64,
    /// Generations per run (deterministic).
    pub generations: u64,
    /// Candidate genomes proposed per run (deterministic).
    pub candidates: u64,
    /// Distinct sweep evaluations per run (deterministic: duplicates of an
    /// already evaluated genome are cache hits, not re-runs).
    pub evaluations: u64,
    /// Scenarios simulated across all evaluations per run (deterministic).
    pub scenarios_evaluated: u64,
    /// Final archive size per run (deterministic).
    pub archive_size: u64,
    /// Scenario evaluations per second at the best wall.
    pub scenarios_per_sec: f64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
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

/// Runs the scenario-search benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_search_bench(repetitions: usize, calibration_ops_per_sec: f64) -> SearchBenchReport {
    run_search_bench_with(repetitions, calibration_ops_per_sec, &search_bench_config())
}

/// [`run_search_bench`] with an explicit configuration (tests use a
/// smaller one so the determinism check stays fast in debug builds).
fn run_search_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    config: &experiments::SearchConfig,
) -> SearchBenchReport {
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

    let mut best_wall = f64::INFINITY;
    let mut report_ref: Option<experiments::SearchReport> = None;
    let mut manifest_ref: Option<Vec<u8>> = None;
    for repetition in 0..repetitions.max(1) {
        let dir = base.join(format!("rep-{repetition}"));
        let start = Instant::now();
        let report = experiments::search::run(config, &ctx, &dir).expect("search runs");
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        let manifest = std::fs::read(dir.join(experiments::search::MANIFEST_FILE))
            .expect("archive manifest exists");
        match (&report_ref, &manifest_ref) {
            (None, _) => {
                report_ref = Some(report);
                manifest_ref = Some(manifest);
            }
            (Some(reference), Some(manifest_reference)) => {
                assert_eq!(
                    &report, reference,
                    "search counters must be deterministic across repetitions"
                );
                assert_eq!(
                    &manifest, manifest_reference,
                    "the archive manifest must be byte-identical across repetitions"
                );
            }
            _ => unreachable!("references are set together"),
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let report = report_ref.expect("at least one repetition ran");
    SearchBenchReport {
        schema: SCHEMA.to_string(),
        bench: "search".to_string(),
        workload: format!(
            "seeded Pareto-front scenario search (seed {}, {} generations x {} candidates, \
             capacity {}, warm quick context): genome proposal, sweep evaluation, Pareto \
             Strength selection, archive persistence",
            config.seed, config.generations, config.population, config.capacity
        ),
        repetitions: repetitions.max(1),
        wall_seconds: best_wall,
        generations: report.generations as u64,
        candidates: report.candidates,
        evaluations: report.evaluations,
        scenarios_evaluated: report.scenarios,
        archive_size: report.archive_size as u64,
        scenarios_per_sec: report.scenarios as f64 / best_wall.max(f64::MIN_POSITIVE),
        calibration_ops_per_sec,
    }
}

/// Report of the SIMD-shaped kernel benchmark (`BENCH_kernels.json`).
///
/// Two sub-benchmarks cover the tentpole kernels: `chunked_*`/`scalar_*`
/// time the 4-wide-chunked min-plus convolution against the preserved
/// pruned scalar path on identical synthetic curve sets (both in one
/// process, so the gated `conv_speedup` ratio needs no calibration
/// normalization), and `cold_*`/`delta_*` time a cold-rebuild
/// [`CoordinatedRma`] against an incremental one over the identical
/// interval schedule, exact-comparing how many curves each actually built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelsReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Benchmark identifier (`"kernels"`).
    pub bench: String,
    /// Human-readable description of the fixed workloads.
    pub workload: String,
    /// Measured repetitions of each workload (best time is reported).
    pub repetitions: usize,
    /// Best wall time of one chunked-kernel convolution repetition.
    pub chunked_wall_seconds: f64,
    /// Best wall time of the pruned scalar kernel on identical inputs.
    pub scalar_wall_seconds: f64,
    /// `scalar_wall_seconds / chunked_wall_seconds` (same process, same
    /// machine); must stay at or above [`MIN_CHUNKED_CONV_SPEEDUP`].
    pub conv_speedup: f64,
    /// Candidate evaluations per convolution repetition (deterministic;
    /// identical for both kernels by construction).
    pub convolution_ops: u64,
    /// Candidates skipped by pruning per repetition (deterministic).
    pub pruned_ops: u64,
    /// Full 4-wide chunk passes per chunked repetition (deterministic;
    /// the scalar kernel reports zero).
    pub chunked_lanes: u64,
    /// Best wall time of the cold-rebuild manager schedule.
    pub cold_wall_seconds: f64,
    /// Best wall time of the incremental manager on the same schedule.
    pub delta_wall_seconds: f64,
    /// Curves the cold manager built over the schedule (deterministic).
    pub cold_curve_builds: u64,
    /// Curves the incremental manager built (deterministic; the in-bench
    /// assertion holds it strictly below `cold_curve_builds`).
    pub delta_curve_builds: u64,
    /// Invocations the incremental manager settled via digest reuse
    /// (deterministic).
    pub delta_invocations: u64,
    /// Warm arena rows the incremental optimizer reused (deterministic).
    pub warm_rows_reused: u64,
    /// Throughput of the fixed calibration loop on the measuring machine
    /// (used to normalize wall times across machines).
    pub calibration_ops_per_sec: f64,
}

/// Minimum speedup of the chunked min-plus convolution kernel over the
/// preserved pruned scalar path on the fixed synthetic curve sets. Both
/// sides run in the same process, so the ratio needs no calibration
/// normalization.
pub const MIN_CHUNKED_CONV_SPEEDUP: f64 = 1.3;

/// Convolution calls per synthetic case and kernel repetition.
const KERNEL_CALLS_PER_CASE: usize = 100;
/// Interval rounds of the cold-vs-incremental manager schedule.
const KERNEL_DELTA_ROUNDS: usize = 24;

/// Runs the SIMD-shaped kernel benchmark. `calibration_ops_per_sec` is the
/// machine's [`calibrate`] measurement, recorded in the report so later
/// checks can normalize across machines.
pub fn run_kernels_bench(repetitions: usize, calibration_ops_per_sec: f64) -> KernelsReport {
    run_kernels_bench_with(
        repetitions,
        calibration_ops_per_sec,
        KERNEL_CALLS_PER_CASE,
        KERNEL_DELTA_ROUNDS,
    )
}

/// [`run_kernels_bench`] with explicit workload sizes (tests use small ones
/// so the determinism check stays fast in debug builds).
fn run_kernels_bench_with(
    repetitions: usize,
    calibration_ops_per_sec: f64,
    calls_per_case: usize,
    delta_rounds: usize,
) -> KernelsReport {
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

    // Warm-up doubles as the two-repetition determinism assertion the gate
    // relies on: the counters it exact-compares must be byte-identical
    // across runs in the same process.
    let conv_stats = run_chunked();
    let second = run_chunked();
    assert_eq!(
        serde_json::to_string(&(conv_stats.ops, conv_stats.pruned, conv_stats.lanes)).unwrap(),
        serde_json::to_string(&(second.ops, second.pruned, second.lanes)).unwrap(),
        "chunked convolution counters must be byte-identical across repetitions"
    );
    let scalar_stats = run_scalar();
    assert_eq!(scalar_stats.ops, conv_stats.ops);
    assert_eq!(scalar_stats.pruned, conv_stats.pruned);
    assert_eq!(scalar_stats.lanes, 0, "scalar kernel runs no chunk passes");
    // The speedup ratio is the quantity under the gate's floor, so the two
    // kernels are timed in *interleaved* pairs (rather than back-to-back
    // blocks) with extra repetitions: slow drift from a noisy neighbour
    // then inflates both sides of a pair alike, and best-of picks the
    // cleanest window for each kernel independently.
    let conv_reps = repetitions.max(1) * 6;
    let mut chunked_best = f64::INFINITY;
    let mut scalar_best = f64::INFINITY;
    for _ in 0..conv_reps {
        let start = Instant::now();
        let s = run_chunked();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            (s.ops, s.pruned, s.lanes),
            (conv_stats.ops, conv_stats.pruned, conv_stats.lanes)
        );
        chunked_best = chunked_best.min(wall);
        let start = Instant::now();
        let s = run_scalar();
        scalar_best = scalar_best.min(start.elapsed().as_secs_f64());
        assert_eq!(s.ops, conv_stats.ops);
    }

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
    let obs_a: Vec<CoreObservation> = mix_a
        .benchmarks
        .iter()
        .enumerate()
        .map(|(core, name)| crate::observation_for(&db, &platform, name, core))
        .collect();
    let obs_b: Vec<CoreObservation> = mix_b
        .benchmarks
        .iter()
        .enumerate()
        .map(|(core, name)| crate::observation_for(&db, &platform, name, core))
        .collect();
    let num_cores = obs_a.len();

    let run_manager = |incremental: bool| -> (qosrm_core::RmaWorkCounters, f64) {
        let mut manager = CoordinatedRma::paper1(&platform, vec![QosSpec::STRICT; num_cores]);
        if incremental {
            manager = manager.with_incremental();
        }
        let mut setting = SystemSetting::baseline(&platform);
        let start = Instant::now();
        let mut use_b = vec![false; num_cores];
        for round in 0..delta_rounds {
            if round > 0 {
                let toggled = round % num_cores;
                use_b[toggled] = !use_b[toggled];
            }
            for core in 0..num_cores {
                let obs = if use_b[core] {
                    &obs_b[core]
                } else {
                    &obs_a[core]
                };
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
        let mut use_b = vec![false; num_cores];
        for round in 0..delta_rounds {
            if round > 0 {
                let toggled = round % num_cores;
                use_b[toggled] = !use_b[toggled];
            }
            for core in 0..num_cores {
                let obs = if use_b[core] {
                    &obs_b[core]
                } else {
                    &obs_a[core]
                };
                cold_setting = cold.on_interval(CoreId(core), obs, &cold_setting);
                delta_setting = delta.on_interval(CoreId(core), obs, &delta_setting);
                assert_eq!(
                    delta_setting, cold_setting,
                    "delta path diverged at round {round}, core {core}"
                );
            }
        }
    }

    // Warm-up plus the two-repetition byte-identical-counter assertion.
    let (cold_counters, _) = run_manager(false);
    let (delta_counters, _) = run_manager(true);
    let (cold_again, _) = run_manager(false);
    let (delta_again, _) = run_manager(true);
    assert_eq!(
        serde_json::to_string(&cold_counters).unwrap(),
        serde_json::to_string(&cold_again).unwrap(),
        "cold manager counters must be byte-identical across repetitions"
    );
    assert_eq!(
        serde_json::to_string(&delta_counters).unwrap(),
        serde_json::to_string(&delta_again).unwrap(),
        "incremental manager counters must be byte-identical across repetitions"
    );
    assert!(
        delta_counters.curve_builds < cold_counters.curve_builds,
        "digest diffing must cut curve builds ({} vs {})",
        delta_counters.curve_builds,
        cold_counters.curve_builds
    );
    assert!(delta_counters.delta_invocations > 0);
    assert!(delta_counters.warm_rows_reused > 0);
    // A single schedule pass is a few hundred microseconds — far too close
    // to scheduler jitter for a tolerance gate — so each timing sample is a
    // batch of passes, interleaved cold/delta like the convolution pairs.
    const MANAGER_TIMING_PASSES: usize = 25;
    let mut cold_best = f64::INFINITY;
    let mut delta_best = f64::INFINITY;
    for _ in 0..repetitions.max(1) * 2 {
        let mut cold_wall = 0.0;
        let mut delta_wall = 0.0;
        for _ in 0..MANAGER_TIMING_PASSES {
            let (c, w) = run_manager(false);
            assert_eq!(c, cold_counters);
            cold_wall += w;
            let (d, w) = run_manager(true);
            assert_eq!(d, delta_counters);
            delta_wall += w;
        }
        cold_best = cold_best.min(cold_wall);
        delta_best = delta_best.min(delta_wall);
    }

    KernelsReport {
        schema: SCHEMA.to_string(),
        bench: "kernels".to_string(),
        workload: format!(
            "chunked vs pruned-scalar convolution: synthetic curves (cores, ways) in \
             {{(16,32),(16,64),(32,64)}} x {calls_per_case} calls; cold vs incremental \
             CoordinatedRma: paper1-4c, {delta_rounds} rounds, one toggled core per round"
        ),
        repetitions: repetitions.max(1),
        chunked_wall_seconds: chunked_best,
        scalar_wall_seconds: scalar_best,
        conv_speedup: scalar_best / chunked_best.max(f64::MIN_POSITIVE),
        convolution_ops: conv_stats.ops,
        pruned_ops: conv_stats.pruned,
        chunked_lanes: conv_stats.lanes,
        cold_wall_seconds: cold_best,
        delta_wall_seconds: delta_best,
        cold_curve_builds: cold_counters.curve_builds,
        delta_curve_builds: delta_counters.curve_builds,
        delta_invocations: delta_counters.delta_invocations,
        warm_rows_reused: delta_counters.warm_rows_reused,
        calibration_ops_per_sec,
    }
}

/// Outcome of comparing one fresh report against its committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateOutcome {
    /// Within tolerance.
    Pass,
    /// Wall time regressed beyond the tolerance band.
    WallRegression(String),
    /// A deterministic counter drifted, which means the workload itself
    /// changed and the baseline must be refreshed deliberately.
    CounterDrift(String),
}

/// Compares a fresh wall time against a baseline wall time, normalizing by
/// the two machines' calibration throughputs (`new * new_calib / old_calib`
/// re-expresses the fresh measurement in baseline-machine seconds).
fn check_wall(
    name: &str,
    new: f64,
    old: f64,
    new_calib: f64,
    old_calib: f64,
    tolerance: f64,
) -> GateOutcome {
    let scale = if new_calib > 0.0 && old_calib > 0.0 {
        new_calib / old_calib
    } else {
        1.0
    };
    let normalized = new * scale;
    if normalized > old * (1.0 + tolerance) {
        GateOutcome::WallRegression(format!(
            "{name}: wall time regressed {:.1}% (baseline {:.4}s, now {:.4}s normalized \
             ({:.4}s raw, machine-speed ratio {:.2}), tolerance {:.0}%)",
            (normalized / old - 1.0) * 100.0,
            old,
            normalized,
            new,
            scale,
            tolerance * 100.0
        ))
    } else {
        GateOutcome::Pass
    }
}

fn check_counter(name: &str, counter: &str, new: u64, old: u64) -> GateOutcome {
    if new != old {
        GateOutcome::CounterDrift(format!(
            "{name}: {counter} changed from {old} to {new}; if intentional, refresh the \
             baseline with `cargo run --release -p qosrm-bench --bin bench_gate -- --update`"
        ))
    } else {
        GateOutcome::Pass
    }
}

/// Compares a fresh simulator report against the committed baseline.
pub fn compare_simulator(
    new: &SimulatorReport,
    baseline: &SimulatorReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "simulator loop",
            new.loop_wall_seconds,
            baseline.loop_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_wall(
            "simulator managed",
            new.managed_wall_seconds,
            baseline.managed_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter(
            "simulator",
            "loop_events",
            new.loop_events,
            baseline.loop_events,
        ),
        check_counter(
            "simulator",
            "managed_events",
            new.managed_events,
            baseline.managed_events,
        ),
    ]
}

/// Compares a fresh global-optimizer report against the committed baseline.
pub fn compare_global_opt(
    new: &GlobalOptReport,
    baseline: &GlobalOptReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "global_opt",
            new.wall_seconds,
            baseline.wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter(
            "global_opt",
            "convolution_ops",
            new.convolution_ops,
            baseline.convolution_ops,
        ),
    ]
}

/// Compares a fresh local-optimizer report against the committed baseline.
/// The builder/scalar speedup is additionally held to
/// [`MIN_LOCAL_OPT_SPEEDUP`] — a same-machine ratio, so it is checked on the
/// fresh report alone.
pub fn compare_local_opt(
    new: &LocalOptReport,
    baseline: &LocalOptReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    let mut outcomes = vec![
        check_wall(
            "local_opt builder",
            new.builder_wall_seconds,
            baseline.builder_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter(
            "local_opt",
            "curves_built",
            new.curves_built,
            baseline.curves_built,
        ),
        check_counter(
            "local_opt",
            "evaluations",
            new.evaluations,
            baseline.evaluations,
        ),
    ];
    if new.speedup < MIN_LOCAL_OPT_SPEEDUP {
        outcomes.push(GateOutcome::WallRegression(format!(
            "local_opt: builder speedup over the scalar reference dropped to {:.2}x \
             (required ≥ {MIN_LOCAL_OPT_SPEEDUP:.1}x; builder {:.4}s vs scalar {:.4}s)",
            new.speedup, new.builder_wall_seconds, new.scalar_wall_seconds
        )));
    }
    outcomes
}

/// Compares a fresh game-solver report against the committed baseline. The
/// round / evaluation / candidate counters are exact-compared: a drift
/// means the solvers' orbits or the workload changed, which must be a
/// deliberate baseline refresh.
pub fn compare_best_response(
    new: &BestResponseReport,
    baseline: &BestResponseReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "best_response",
            new.wall_seconds,
            baseline.wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter("best_response", "rounds", new.rounds, baseline.rounds),
        check_counter(
            "best_response",
            "evaluations",
            new.evaluations,
            baseline.evaluations,
        ),
        check_counter(
            "best_response",
            "equilibria_examined",
            new.equilibria_examined,
            baseline.equilibria_examined,
        ),
    ]
}

/// Compares a fresh serving report against the committed baseline. The
/// admission / streaming / cache counters are exact-compared — the daemon's
/// single-worker serial configuration makes them independent of thread
/// interleaving, so a drift means the protocol, the load plan, or the
/// memoization behaviour changed and the baseline must be refreshed
/// deliberately. The wall time of the submission mix is
/// calibration-banded like every other gated workload.
pub fn compare_serve(
    new: &ServeReport,
    baseline: &ServeReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "serve",
            new.wall_seconds,
            baseline.wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter(
            "serve",
            "specs_submitted",
            new.specs_submitted,
            baseline.specs_submitted,
        ),
        check_counter(
            "serve",
            "runs_executed",
            new.runs_executed,
            baseline.runs_executed,
        ),
        check_counter(
            "serve",
            "outcomes_total",
            new.outcomes_total,
            baseline.outcomes_total,
        ),
        check_counter(
            "serve",
            "outcomes_streamed",
            new.outcomes_streamed,
            baseline.outcomes_streamed,
        ),
        check_counter("serve", "cache_hits", new.cache_hits, baseline.cache_hits),
        check_counter(
            "serve",
            "cache_misses",
            new.cache_misses,
            baseline.cache_misses,
        ),
    ]
}

/// Compares a fresh distributed-sweep report against the committed
/// baseline. Both walls (coordinated and single-process) are
/// calibration-banded; every lease-protocol counter is exact-compared — a
/// drift means the lease protocol, the shard chunking, or the fixed spec
/// changed, which must be a deliberate baseline refresh.
pub fn compare_dist(new: &DistReport, baseline: &DistReport, tolerance: f64) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "dist coordinated",
            new.wall_seconds,
            baseline.wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_wall(
            "dist single-process",
            new.single_wall_seconds,
            baseline.single_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter("dist", "workers", new.workers, baseline.workers),
        check_counter("dist", "shards", new.shards, baseline.shards),
        check_counter(
            "dist",
            "scenarios_total",
            new.scenarios_total,
            baseline.scenarios_total,
        ),
        check_counter(
            "dist",
            "leases_granted",
            new.leases_granted,
            baseline.leases_granted,
        ),
        check_counter(
            "dist",
            "leases_renewed",
            new.leases_renewed,
            baseline.leases_renewed,
        ),
        check_counter(
            "dist",
            "leases_expired",
            new.leases_expired,
            baseline.leases_expired,
        ),
        check_counter(
            "dist",
            "shards_reinjected",
            new.shards_reinjected,
            baseline.shards_reinjected,
        ),
        check_counter(
            "dist",
            "stale_completions",
            new.stale_completions,
            baseline.stale_completions,
        ),
        check_counter(
            "dist",
            "shards_completed",
            new.shards_completed,
            baseline.shards_completed,
        ),
    ]
}

/// Compares a fresh scenario-search report against the committed baseline:
/// the search wall is calibration-banded and every loop counter is
/// exact-compared (a drift means the seeded search explored a different
/// trajectory — a genome, fitness or selection change that must be a
/// deliberate baseline refresh).
pub fn compare_search(
    new: &SearchBenchReport,
    baseline: &SearchBenchReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    vec![
        check_wall(
            "search",
            new.wall_seconds,
            baseline.wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        check_counter(
            "search",
            "generations",
            new.generations,
            baseline.generations,
        ),
        check_counter("search", "candidates", new.candidates, baseline.candidates),
        check_counter(
            "search",
            "evaluations",
            new.evaluations,
            baseline.evaluations,
        ),
        check_counter(
            "search",
            "scenarios_evaluated",
            new.scenarios_evaluated,
            baseline.scenarios_evaluated,
        ),
        check_counter(
            "search",
            "archive_size",
            new.archive_size,
            baseline.archive_size,
        ),
    ]
}

/// Compares a fresh kernel report against the committed baseline. The
/// convolution and manager counters are exact-compared (a drift means a
/// kernel's decision sequence or the fixed workload changed), and the
/// chunked/scalar speedup is additionally held to
/// [`MIN_CHUNKED_CONV_SPEEDUP`] — a same-machine ratio, so it is checked
/// on the fresh report alone.
pub fn compare_kernels(
    new: &KernelsReport,
    baseline: &KernelsReport,
    tolerance: f64,
) -> Vec<GateOutcome> {
    let mut outcomes = vec![
        check_wall(
            "kernels chunked conv",
            new.chunked_wall_seconds,
            baseline.chunked_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance,
        ),
        // The batched schedule wall is a few milliseconds — an order of
        // magnitude below the other gated walls, where scheduler jitter is
        // a visible fraction — so it gets twice the band; the delta path's
        // real regression signal is the exact counter set below.
        check_wall(
            "kernels delta manager",
            new.delta_wall_seconds,
            baseline.delta_wall_seconds,
            new.calibration_ops_per_sec,
            baseline.calibration_ops_per_sec,
            tolerance * 2.0,
        ),
        check_counter(
            "kernels",
            "convolution_ops",
            new.convolution_ops,
            baseline.convolution_ops,
        ),
        check_counter("kernels", "pruned_ops", new.pruned_ops, baseline.pruned_ops),
        check_counter(
            "kernels",
            "chunked_lanes",
            new.chunked_lanes,
            baseline.chunked_lanes,
        ),
        check_counter(
            "kernels",
            "cold_curve_builds",
            new.cold_curve_builds,
            baseline.cold_curve_builds,
        ),
        check_counter(
            "kernels",
            "delta_curve_builds",
            new.delta_curve_builds,
            baseline.delta_curve_builds,
        ),
        check_counter(
            "kernels",
            "delta_invocations",
            new.delta_invocations,
            baseline.delta_invocations,
        ),
        check_counter(
            "kernels",
            "warm_rows_reused",
            new.warm_rows_reused,
            baseline.warm_rows_reused,
        ),
    ];
    if new.conv_speedup < MIN_CHUNKED_CONV_SPEEDUP {
        outcomes.push(GateOutcome::WallRegression(format!(
            "kernels: chunked convolution speedup over the pruned scalar path dropped to \
             {:.2}x (required ≥ {MIN_CHUNKED_CONV_SPEEDUP:.1}x; chunked {:.4}s vs scalar {:.4}s)",
            new.conv_speedup, new.chunked_wall_seconds, new.scalar_wall_seconds
        )));
    }
    if new.delta_curve_builds >= new.cold_curve_builds {
        outcomes.push(GateOutcome::CounterDrift(format!(
            "kernels: the delta path no longer reduces curve builds \
             ({} delta vs {} cold)",
            new.delta_curve_builds, new.cold_curve_builds
        )));
    }
    outcomes
}

/// The repository root (the bench crate lives at `crates/bench`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Entry point of the `bench_gate` binary. Returns the process exit code.
pub fn gate_main(args: &[String]) -> i32 {
    let mut update = false;
    let mut tolerance = std::env::var("QOSRM_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE);
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
    let calibration = calibrate();
    println!("calibration: {:.0} ops/s", calibration);
    let simulator = run_simulator_bench(repetitions, calibration);
    println!(
        "simulator loop: {:.4}s best of {}, {} events, {:.0} events/s",
        simulator.loop_wall_seconds,
        simulator.repetitions,
        simulator.loop_events,
        simulator.loop_events_per_sec
    );
    println!(
        "simulator managed: {:.4}s best of {}, {} events, {:.0} events/s",
        simulator.managed_wall_seconds,
        simulator.repetitions,
        simulator.managed_events,
        simulator.managed_events_per_sec
    );
    let global = run_global_opt_bench(repetitions, calibration);
    println!(
        "global_opt: {:.4}s best of {}, {} calls, {} convolution ops ({} pruned), {:.0} ops/s",
        global.wall_seconds,
        global.repetitions,
        global.calls,
        global.convolution_ops,
        global.pruned_ops,
        global.ops_per_sec
    );
    let local = run_local_opt_bench(repetitions, calibration);
    println!(
        "local_opt: builder {:.4}s vs scalar {:.4}s best of {} ({:.2}x), {} curves, \
         {} evaluations, {:.0} curves/s",
        local.builder_wall_seconds,
        local.scalar_wall_seconds,
        local.repetitions,
        local.speedup,
        local.curves_built,
        local.evaluations,
        local.curves_per_sec
    );
    let game = run_best_response_bench(repetitions, calibration);
    println!(
        "best_response: {:.4}s best of {}, {} BR + {} EQ calls, {} rounds, \
         {} evaluations, {} equilibria examined, {:.0} ops/s",
        game.wall_seconds,
        game.repetitions,
        game.br_calls,
        game.eq_calls,
        game.rounds,
        game.evaluations,
        game.equilibria_examined,
        game.ops_per_sec
    );
    let serve = run_serve_bench(repetitions, calibration);
    println!(
        "serve: {:.4}s best of {}, {} submissions -> {} runs, {} outcomes streamed, \
         cache {}/{} hit/miss ({:.0}% hit rate), {:.1} specs/s, {:.1} outcomes/s",
        serve.wall_seconds,
        serve.repetitions,
        serve.specs_submitted,
        serve.runs_executed,
        serve.outcomes_streamed,
        serve.cache_hits,
        serve.cache_misses,
        serve.cache_hit_rate * 100.0,
        serve.specs_per_sec,
        serve.outcomes_per_sec
    );
    let kernels = run_kernels_bench(repetitions, calibration);
    println!(
        "kernels: chunked {:.4}s vs scalar {:.4}s best of {} ({:.2}x), {} conv ops \
         ({} pruned, {} lanes); manager cold {:.4}s vs delta {:.4}s, curves {} -> {}, \
         {} delta invocations, {} warm rows",
        kernels.chunked_wall_seconds,
        kernels.scalar_wall_seconds,
        kernels.repetitions,
        kernels.conv_speedup,
        kernels.convolution_ops,
        kernels.pruned_ops,
        kernels.chunked_lanes,
        kernels.cold_wall_seconds,
        kernels.delta_wall_seconds,
        kernels.cold_curve_builds,
        kernels.delta_curve_builds,
        kernels.delta_invocations,
        kernels.warm_rows_reused
    );
    let dist = run_dist_bench(repetitions, calibration);
    println!(
        "dist: coordinated {:.4}s vs single-process {:.4}s best of {}, {} workers, {} shards, \
         {} scenarios, leases {} granted / {} renewed / {} expired / {} reinjected / {} stale, \
         {:.1} scenarios/s",
        dist.wall_seconds,
        dist.single_wall_seconds,
        dist.repetitions,
        dist.workers,
        dist.shards,
        dist.scenarios_total,
        dist.leases_granted,
        dist.leases_renewed,
        dist.leases_expired,
        dist.shards_reinjected,
        dist.stale_completions,
        dist.scenarios_per_sec
    );
    let search = run_search_bench(repetitions, calibration);
    println!(
        "search: {:.4}s best of {}, {} generations, {} candidates -> {} evaluations \
         ({} scenario runs), archive of {}, {:.1} scenarios/s",
        search.wall_seconds,
        search.repetitions,
        search.generations,
        search.candidates,
        search.evaluations,
        search.scenarios_evaluated,
        search.archive_size,
        search.scenarios_per_sec
    );

    let (
        sim_path,
        opt_path,
        local_path,
        game_path,
        serve_path,
        kernels_path,
        dist_path,
        search_path,
    ) = if update {
        (
            root.join("BENCH_simulator.json"),
            root.join("BENCH_global_opt.json"),
            root.join("BENCH_local_opt.json"),
            root.join("BENCH_best_response.json"),
            root.join("BENCH_serve.json"),
            root.join("BENCH_kernels.json"),
            root.join("BENCH_dist.json"),
            root.join("BENCH_search.json"),
        )
    } else {
        let out = root.join("target/bench-gate");
        (
            out.join("BENCH_simulator.json"),
            out.join("BENCH_global_opt.json"),
            out.join("BENCH_local_opt.json"),
            out.join("BENCH_best_response.json"),
            out.join("BENCH_serve.json"),
            out.join("BENCH_kernels.json"),
            out.join("BENCH_dist.json"),
            out.join("BENCH_search.json"),
        )
    };
    for (path, result) in [
        (&sim_path, write_json(&sim_path, &simulator)),
        (&opt_path, write_json(&opt_path, &global)),
        (&local_path, write_json(&local_path, &local)),
        (&game_path, write_json(&game_path, &game)),
        (&serve_path, write_json(&serve_path, &serve)),
        (&kernels_path, write_json(&kernels_path, &kernels)),
        (&dist_path, write_json(&dist_path, &dist)),
        (&search_path, write_json(&search_path, &search)),
    ] {
        if let Err(e) = result {
            eprintln!("{e}");
            return 2;
        }
        println!("wrote {}", path.display());
    }
    if update {
        println!("baselines refreshed");
        return 0;
    }

    let sim_baseline: SimulatorReport = match read_json(&root.join("BENCH_simulator.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let opt_baseline: GlobalOptReport = match read_json(&root.join("BENCH_global_opt.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let local_baseline: LocalOptReport = match read_json(&root.join("BENCH_local_opt.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let game_baseline: BestResponseReport = match read_json(&root.join("BENCH_best_response.json"))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let serve_baseline: ServeReport = match read_json(&root.join("BENCH_serve.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let kernels_baseline: KernelsReport = match read_json(&root.join("BENCH_kernels.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let dist_baseline: DistReport = match read_json(&root.join("BENCH_dist.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };
    let search_baseline: SearchBenchReport = match read_json(&root.join("BENCH_search.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("no committed baseline; run with --update to create one");
            return 2;
        }
    };

    let mut failed = false;
    for outcome in compare_simulator(&simulator, &sim_baseline, tolerance)
        .into_iter()
        .chain(compare_global_opt(&global, &opt_baseline, tolerance))
        .chain(compare_local_opt(&local, &local_baseline, tolerance))
        .chain(compare_best_response(&game, &game_baseline, tolerance))
        .chain(compare_serve(&serve, &serve_baseline, tolerance))
        .chain(compare_kernels(&kernels, &kernels_baseline, tolerance))
        .chain(compare_dist(&dist, &dist_baseline, tolerance))
        .chain(compare_search(&search, &search_baseline, tolerance))
    {
        match outcome {
            GateOutcome::Pass => {}
            GateOutcome::WallRegression(msg) | GateOutcome::CounterDrift(msg) => {
                eprintln!("FAIL: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        1
    } else {
        println!("perf gate passed (tolerance {:.0}%)", tolerance * 100.0);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator_report(wall: f64, events: u64) -> SimulatorReport {
        SimulatorReport {
            schema: SCHEMA.to_string(),
            bench: "simulator".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            loop_wall_seconds: wall,
            loop_events: events,
            loop_events_per_sec: events as f64 / wall,
            managed_wall_seconds: wall,
            managed_events: events,
            managed_events_per_sec: events as f64 / wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn wall_regression_is_detected_beyond_tolerance() {
        let base = simulator_report(1.0, 100);
        let ok = simulator_report(1.15, 100);
        let bad = simulator_report(1.25, 100);
        assert!(compare_simulator(&ok, &base, 0.20)
            .iter()
            .all(|o| *o == GateOutcome::Pass));
        assert!(compare_simulator(&bad, &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
    }

    #[test]
    fn wall_comparison_is_calibration_normalized() {
        let base = simulator_report(1.0, 100);
        // The same code on a machine half as fast: raw wall doubles but so
        // does the gap in calibration throughput — normalization cancels it.
        let mut slow = simulator_report(2.0, 100);
        slow.calibration_ops_per_sec = base.calibration_ops_per_sec / 2.0;
        assert!(compare_simulator(&slow, &base, 0.20)
            .iter()
            .all(|o| *o == GateOutcome::Pass));
        // A genuine 2x regression on an identical machine still fails.
        let regressed = simulator_report(2.0, 100);
        assert!(compare_simulator(&regressed, &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
    }

    #[test]
    fn counter_drift_is_a_hard_failure() {
        let base = simulator_report(1.0, 100);
        let drifted = simulator_report(0.5, 101);
        assert!(compare_simulator(&drifted, &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
    }

    fn local_report(builder_wall: f64, speedup: f64, evaluations: u64) -> LocalOptReport {
        LocalOptReport {
            schema: SCHEMA.to_string(),
            bench: "local_opt".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            builder_wall_seconds: builder_wall,
            scalar_wall_seconds: builder_wall * speedup,
            speedup,
            curves_built: 100,
            evaluations,
            curves_per_sec: 100.0 / builder_wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn local_opt_gate_checks_wall_counters_and_speedup() {
        let base = local_report(1.0, 4.0, 5000);
        assert!(
            compare_local_opt(&local_report(1.1, 4.0, 5000), &base, 0.20)
                .iter()
                .all(|o| *o == GateOutcome::Pass)
        );
        // Wall regression beyond the band.
        assert!(
            compare_local_opt(&local_report(1.3, 4.0, 5000), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::WallRegression(_)))
        );
        // Evaluation-count drift is a hard failure even when faster.
        assert!(
            compare_local_opt(&local_report(0.5, 4.0, 5001), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::CounterDrift(_)))
        );
        // Losing the required builder speedup fails regardless of baseline.
        assert!(
            compare_local_opt(&local_report(1.0, 2.0, 5000), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::WallRegression(_))),
            "speedup below {MIN_LOCAL_OPT_SPEEDUP} must fail the gate"
        );
    }

    #[test]
    fn local_opt_bench_counters_are_deterministic() {
        // One repetition with a tiny round count through the real fixture:
        // counters must be identical across runs (the gate exact-compares
        // them) and the builder path must report nonzero measured work.
        let a = run_local_opt_bench_with_rounds(1, 1_000_000.0, 2);
        let b = run_local_opt_bench_with_rounds(1, 1_000_000.0, 2);
        assert_eq!(a.curves_built, b.curves_built);
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.curves_built > 0 && a.evaluations > 0);
    }

    fn kernels_report(
        chunked_wall: f64,
        conv_speedup: f64,
        convolution_ops: u64,
        delta_curve_builds: u64,
    ) -> KernelsReport {
        KernelsReport {
            schema: SCHEMA.to_string(),
            bench: "kernels".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            chunked_wall_seconds: chunked_wall,
            scalar_wall_seconds: chunked_wall * conv_speedup,
            conv_speedup,
            convolution_ops,
            pruned_ops: 400,
            chunked_lanes: 900,
            cold_wall_seconds: 1.0,
            delta_wall_seconds: 0.6,
            cold_curve_builds: 96,
            delta_curve_builds,
            delta_invocations: 60,
            warm_rows_reused: 40,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn kernels_gate_checks_wall_counters_speedup_and_delta_reduction() {
        let base = kernels_report(1.0, 2.0, 7000, 36);
        assert!(
            compare_kernels(&kernels_report(1.1, 2.0, 7000, 36), &base, 0.20)
                .iter()
                .all(|o| *o == GateOutcome::Pass)
        );
        // Wall regression beyond the band.
        assert!(
            compare_kernels(&kernels_report(1.3, 2.0, 7000, 36), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::WallRegression(_)))
        );
        // Convolution-op drift is a hard failure even when faster.
        assert!(
            compare_kernels(&kernels_report(0.5, 2.0, 7001, 36), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::CounterDrift(_)))
        );
        // Losing the required chunked speedup fails regardless of baseline.
        assert!(
            compare_kernels(&kernels_report(1.0, 1.1, 7000, 36), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::WallRegression(_))),
            "speedup below {MIN_CHUNKED_CONV_SPEEDUP} must fail the gate"
        );
        // The delta path must keep building fewer curves than the cold path
        // (and the change from the baseline's count is itself a drift).
        assert!(
            compare_kernels(&kernels_report(1.0, 2.0, 7000, 96), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::CounterDrift(_)))
        );
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
        assert_eq!(a.convolution_ops, b.convolution_ops);
        assert_eq!(a.pruned_ops, b.pruned_ops);
        assert_eq!(a.chunked_lanes, b.chunked_lanes);
        assert_eq!(a.cold_curve_builds, b.cold_curve_builds);
        assert_eq!(a.delta_curve_builds, b.delta_curve_builds);
        assert_eq!(a.delta_invocations, b.delta_invocations);
        assert_eq!(a.warm_rows_reused, b.warm_rows_reused);
        assert!(a.convolution_ops > 0 && a.chunked_lanes > 0);
        assert!(a.delta_curve_builds < a.cold_curve_builds);
        assert!(a.delta_invocations > 0 && a.warm_rows_reused > 0);
    }

    #[test]
    fn synthetic_curves_are_deterministic_and_feasible() {
        let a = synthetic_curves(8, 16);
        let b = synthetic_curves(8, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.any_feasible()));
    }

    fn best_response_report(wall: f64, rounds: u64, evaluations: u64) -> BestResponseReport {
        BestResponseReport {
            schema: SCHEMA.to_string(),
            bench: "best_response".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            wall_seconds: wall,
            br_calls: 10,
            eq_calls: 3,
            rounds,
            evaluations,
            equilibria_examined: 200,
            ops_per_sec: (evaluations + 200) as f64 / wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn best_response_gate_checks_wall_and_exact_counters() {
        let base = best_response_report(1.0, 40, 9000);
        assert!(
            compare_best_response(&best_response_report(1.1, 40, 9000), &base, 0.20)
                .iter()
                .all(|o| *o == GateOutcome::Pass)
        );
        // Wall regression beyond the band.
        assert!(
            compare_best_response(&best_response_report(1.3, 40, 9000), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::WallRegression(_)))
        );
        // Any counter drift is a hard failure even when faster: the solvers'
        // orbits over the fixed synthetic workload are deterministic.
        assert!(
            compare_best_response(&best_response_report(0.5, 41, 9000), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::CounterDrift(_)))
        );
        assert!(
            compare_best_response(&best_response_report(0.5, 40, 9001), &base, 0.20)
                .iter()
                .any(|o| matches!(o, GateOutcome::CounterDrift(_)))
        );
    }

    fn serve_report(wall: f64, streamed: u64, hits: u64) -> ServeReport {
        ServeReport {
            schema: SCHEMA.to_string(),
            bench: "serve".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            wall_seconds: wall,
            specs_submitted: 24,
            runs_executed: 8,
            outcomes_total: 24,
            outcomes_streamed: streamed,
            cache_hits: hits,
            cache_misses: 30,
            cache_hit_rate: hits as f64 / (hits + 30) as f64,
            specs_per_sec: 24.0 / wall,
            outcomes_per_sec: streamed as f64 / wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn serve_gate_checks_wall_and_exact_counters() {
        let base = serve_report(1.0, 18, 60);
        assert!(compare_serve(&serve_report(1.1, 18, 60), &base, 0.20)
            .iter()
            .all(|o| *o == GateOutcome::Pass));
        // Wall regression beyond the band.
        assert!(compare_serve(&serve_report(1.3, 18, 60), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
        // Streaming or cache counter drift is a hard failure even when
        // faster: the single-worker serial daemon makes them deterministic.
        assert!(compare_serve(&serve_report(0.5, 17, 60), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
        assert!(compare_serve(&serve_report(0.5, 18, 61), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
    }

    #[test]
    fn serve_bench_counters_are_deterministic() {
        // One repetition of a tiny submission mix through a real in-process
        // daemon, twice: the gate exact-compares the admission / streaming /
        // cache counters, so two cold daemons must report identical values,
        // and the mix must exercise both dedup and the curve cache.
        let a = run_serve_bench_with_load(1, 1_000_000.0, 2, 2, 2);
        let b = run_serve_bench_with_load(1, 1_000_000.0, 2, 2, 2);
        assert_eq!(a.specs_submitted, b.specs_submitted);
        assert_eq!(a.runs_executed, b.runs_executed);
        assert_eq!(a.outcomes_total, b.outcomes_total);
        assert_eq!(a.outcomes_streamed, b.outcomes_streamed);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.specs_submitted, 4);
        assert_eq!(a.runs_executed, 2);
        assert!(a.outcomes_total > 0 && a.cache_misses > 0);
    }

    fn dist_report(wall: f64, granted: u64, reinjected: u64) -> DistReport {
        DistReport {
            schema: SCHEMA.to_string(),
            bench: "dist".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            wall_seconds: wall,
            single_wall_seconds: wall * 2.0,
            workers: 4,
            shards: 8,
            scenarios_total: 8,
            leases_granted: granted,
            leases_renewed: 0,
            leases_expired: 0,
            shards_reinjected: reinjected,
            stale_completions: 0,
            shards_completed: 8,
            scenarios_per_sec: 8.0 / wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn dist_gate_checks_both_walls_and_exact_lease_counters() {
        let base = dist_report(1.0, 8, 0);
        assert!(compare_dist(&dist_report(1.1, 8, 0), &base, 0.20)
            .iter()
            .all(|o| *o == GateOutcome::Pass));
        // Coordinated wall regression beyond the band.
        assert!(compare_dist(&dist_report(1.3, 8, 0), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
        // The single-process wall is banded too.
        let mut slow_single = dist_report(1.0, 8, 0);
        slow_single.single_wall_seconds = 3.0;
        assert!(compare_dist(&slow_single, &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
        // Lease-counter drift is a hard failure even when faster: a grant
        // or reinjection the baseline never saw means the protocol or the
        // chunking changed.
        assert!(compare_dist(&dist_report(0.5, 9, 0), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
        assert!(compare_dist(&dist_report(0.5, 8, 1), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
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
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.scenarios_total, b.scenarios_total);
        assert_eq!(a.leases_granted, b.leases_granted);
        assert_eq!(a.shards_completed, b.shards_completed);
        assert_eq!(a.scenarios_total, 2);
        assert_eq!(a.leases_granted, 2);
        assert_eq!(a.shards_completed, 2);
        assert_eq!(a.leases_expired, 0);
        assert_eq!(a.shards_reinjected, 0);
        assert_eq!(a.stale_completions, 0);
    }

    #[test]
    fn best_response_bench_counters_are_deterministic() {
        // One repetition with tiny call counts through the real fixture: the
        // gate exact-compares the counters, so two runs must agree, and both
        // solver families must report nonzero measured work.
        let a = run_best_response_bench_with_calls(1, 1_000_000.0, 3, 2);
        let b = run_best_response_bench_with_calls(1, 1_000_000.0, 3, 2);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.equilibria_examined, b.equilibria_examined);
        assert!(a.rounds > 0 && a.evaluations > 0);
        // One certified candidate per equilibrium call.
        assert_eq!(a.equilibria_examined, a.eq_calls);
    }

    fn search_report(wall: f64, evaluations: u64, archive: u64) -> SearchBenchReport {
        SearchBenchReport {
            schema: SCHEMA.to_string(),
            bench: "search".to_string(),
            workload: "test".to_string(),
            repetitions: 1,
            wall_seconds: wall,
            generations: 3,
            candidates: 15,
            evaluations,
            scenarios_evaluated: evaluations * 4,
            archive_size: archive,
            scenarios_per_sec: evaluations as f64 * 4.0 / wall,
            calibration_ops_per_sec: 1_000_000.0,
        }
    }

    #[test]
    fn search_gate_checks_the_wall_and_exact_search_counters() {
        let base = search_report(1.0, 13, 5);
        assert!(compare_search(&search_report(1.1, 13, 5), &base, 0.20)
            .iter()
            .all(|o| *o == GateOutcome::Pass));
        assert!(compare_search(&search_report(1.3, 13, 5), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::WallRegression(_))));
        // Counter drift is a hard failure even when faster: a changed
        // evaluation count or archive size means the seeded search walked a
        // different trajectory — the determinism contract broke.
        assert!(compare_search(&search_report(0.5, 14, 5), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
        assert!(compare_search(&search_report(0.5, 13, 4), &base, 0.20)
            .iter()
            .any(|o| matches!(o, GateOutcome::CounterDrift(_))));
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
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.scenarios_evaluated, b.scenarios_evaluated);
        assert_eq!(a.archive_size, b.archive_size);
        assert_eq!(a.generations, 2);
        assert!(a.evaluations > 0 && a.scenarios_evaluated > 0);
        assert!(a.archive_size >= 1 && a.archive_size <= 2);
    }
}
