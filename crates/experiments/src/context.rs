//! Shared experiment infrastructure: database construction/caching and
//! workload execution helpers.

use crate::sweep::SweepOptions;
use crate::sync::LockUnpoisoned;
use qosrm_core::memo::CurveKey;
use qosrm_core::{CurveCache, RmaWorkCounters};
use qosrm_types::{PlatformConfig, QosSpec, ResourceManager};
use rayon::prelude::*;
use rma_sim::{Comparison, CophaseSimulator, SimulationOptions, SimulationResult};
use simdb::builder::{build_record, BuildOptions};
use simdb::{BenchmarkRecord, SimDb};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use workload::{PhaseCharacterizer, WorkloadMix};

/// Session-wide aggregation of the measured RMA work counters
/// ([`RmaWorkCounters`]) of every manager a sweep evaluated. The sweep
/// engine folds each manager's cumulative counters in after its run, so a
/// resident serving process can expose — via `qosrm_serve`'s `/stats` —
/// how much optimization work it actually performed and how much the
/// chunked kernels and the incremental delta path skipped.
#[derive(Debug, Default)]
pub struct RmaTelemetry {
    counters: Mutex<RmaWorkCounters>,
}

impl RmaTelemetry {
    /// Folds one manager's cumulative counters into the aggregate.
    pub fn absorb(&self, counters: &RmaWorkCounters) {
        // Exhaustive destructuring (no `..`), mirroring the counters'
        // `Display`: adding a counter fails compilation here until the
        // aggregate covers it.
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
        } = *counters;
        let mut total = self.counters.lock_unpoisoned();
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

    /// The aggregated counters so far.
    pub fn snapshot(&self) -> RmaWorkCounters {
        *self.counters.lock_unpoisoned()
    }
}

/// Work counters of a context's benchmark-record memo (see
/// [`ExperimentContext::database`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordCounters {
    /// Records materialized into the memo: one per distinct (platform,
    /// mode, benchmark) triple the context was asked for, whether
    /// characterized or read from the on-disk cache.
    pub records_built: u64,
    /// Record requests answered by the memo instead (counted once per
    /// distinct benchmark of each database request).
    pub records_reused: u64,
}

/// Key of one memoized record: the digest of the *full* platform
/// configuration, quick mode, and the benchmark name.
type RecordKey = (CurveKey, bool, String);

/// Per-benchmark record memo. Each key holds its own once-cell, so two
/// threads that miss the same benchmark concurrently characterize it once:
/// the second blocks on the cell instead of building a duplicate.
#[derive(Default)]
struct RecordMemo {
    cells: Mutex<HashMap<RecordKey, Arc<OnceLock<BenchmarkRecord>>>>,
    built: AtomicU64,
    reused: AtomicU64,
}

/// Shared state of an experiment session.
pub struct ExperimentContext {
    /// Quick mode: fewer workloads and a coarser characterization, intended
    /// for smoke tests and CI.
    pub quick: bool,
    /// Optional directory where simulation databases are cached as JSON.
    pub cache_dir: Option<PathBuf>,
    /// How `sweep::run` executes grids (parallel, memoized and
    /// incremental by default).
    pub sweep: SweepOptions,
    /// Energy-curve memoization cache shared by every memoized sweep of the
    /// session (keys include platform/config digests, so scenarios from
    /// different grids never collide).
    curve_cache: Arc<CurveCache>,
    /// Aggregated measured RMA work of every sweep-evaluated manager of the
    /// session (see [`RmaTelemetry`]).
    rma_telemetry: Arc<RmaTelemetry>,
    records: RecordMemo,
}

impl ExperimentContext {
    /// Creates a context. `quick` selects the reduced configuration.
    pub fn new(quick: bool) -> Self {
        ExperimentContext {
            quick,
            cache_dir: None,
            sweep: SweepOptions::default(),
            curve_cache: Arc::new(CurveCache::new()),
            rma_telemetry: Arc::new(RmaTelemetry::default()),
            records: RecordMemo::default(),
        }
    }

    /// Enables on-disk caching of benchmark records under `dir`.
    pub fn with_cache_dir(mut self, dir: PathBuf) -> Self {
        self.cache_dir = Some(dir);
        self
    }

    /// Overrides the sweep execution options (e.g. to force the serial
    /// reference path).
    pub fn with_sweep_options(mut self, options: SweepOptions) -> Self {
        self.sweep = options;
        self
    }

    /// The session-wide energy-curve cache.
    pub fn curve_cache(&self) -> &Arc<CurveCache> {
        &self.curve_cache
    }

    /// The session-wide aggregated RMA work telemetry.
    pub fn rma_telemetry(&self) -> &Arc<RmaTelemetry> {
        &self.rma_telemetry
    }

    /// The record memo's counters so far.
    pub fn record_counters(&self) -> RecordCounters {
        RecordCounters {
            records_built: self.records.built.load(Ordering::Relaxed),
            records_reused: self.records.reused.load(Ordering::Relaxed),
        }
    }

    /// Workload prefix kept by quick mode (the representative subset the
    /// smoke tests and CI run).
    pub const QUICK_WORKLOAD_PREFIX: usize = 4;

    /// Limits a workload list according to the quick mode (keeps a
    /// representative prefix).
    pub fn limit_workloads(&self, mixes: Vec<WorkloadMix>) -> Vec<WorkloadMix> {
        if self.quick {
            mixes
                .into_iter()
                .take(Self::QUICK_WORKLOAD_PREFIX)
                .collect()
        } else {
            mixes
        }
    }

    /// The spec-level mirror of [`ExperimentContext::limit_workloads`]: a
    /// [`crate::spec::MixSelection`] keeping the quick-mode prefix of a
    /// workload source (and everything in full mode) — the single source of
    /// the quick-mode cap for the E-module specs.
    pub fn quick_mix_selection(&self) -> crate::spec::MixSelection {
        if self.quick {
            crate::spec::MixSelection::limit(Self::QUICK_WORKLOAD_PREFIX)
        } else {
            crate::spec::MixSelection::ALL
        }
    }

    /// Database build options for a platform.
    fn build_options(&self, platform: &PlatformConfig) -> BuildOptions {
        if self.quick {
            BuildOptions::quick_for_tests(platform)
        } else {
            BuildOptions::for_platform(platform)
        }
    }

    /// Returns the simulation database covering `mixes` on `platform`.
    ///
    /// Every benchmark is characterized at most once per context: records
    /// are memoized per (platform, mode, benchmark) and each database is
    /// assembled from them, so overlapping mix sets share their common
    /// benchmarks' records. Missing records are built in parallel (and, with
    /// a cache directory, loaded from or saved to one JSON file each).
    ///
    /// The key digests the *full* platform configuration: the simulator
    /// takes its platform from the database, and characterization depends on
    /// it, so two platforms differing in any parameter (e.g. only the
    /// baseline VF level, as in E4's sensitivity axes) never share a record.
    pub fn database(&self, platform: &PlatformConfig, mixes: &[WorkloadMix]) -> SimDb {
        let mut names: Vec<&str> = mixes
            .iter()
            .flat_map(|m| m.benchmarks.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        let digest = qosrm_core::memo::fingerprint(platform);
        let cells: Vec<(&str, Arc<OnceLock<BenchmarkRecord>>)> = {
            let mut memo = self.records.cells.lock_unpoisoned();
            names
                .into_iter()
                .filter_map(|name| {
                    let key = (digest, self.quick, name.to_string());
                    if let Some(cell) = memo.get(&key) {
                        return Some((name, cell.clone()));
                    }
                    // Names outside the suite have no record (as in
                    // `build_database_for_mixes`); they are never memoized.
                    workload::benchmark(name)?;
                    Some((name, memo.entry(key).or_default().clone()))
                })
                .collect()
        };
        let missing: Vec<&(&str, Arc<OnceLock<BenchmarkRecord>>)> = cells
            .iter()
            .filter(|(_, cell)| cell.get().is_none())
            .collect();
        let mut built_here = 0;
        if !missing.is_empty() {
            let options = self.build_options(platform);
            let characterizer = PhaseCharacterizer::new(platform, options.characterization.clone());
            let build = |name: &str| {
                let profile = workload::benchmark(name).expect("memoized names are in the suite");
                build_record(&profile, &characterizer, platform, &options.thresholds)
            };
            built_here = missing
                .par_iter()
                .map(|(name, cell)| {
                    let mut built = false;
                    cell.get_or_init(|| {
                        built = true;
                        match &self.cache_dir {
                            Some(dir) => {
                                let mode = if self.quick { "quick" } else { "full" };
                                let path = dir.join(format!(
                                    "record-{:016x}{:016x}-{mode}-{name}.json",
                                    digest.0, digest.1
                                ));
                                simdb::persist::load_or_build_record(&path, name, || build(name))
                            }
                            None => build(name),
                        }
                    });
                    u64::from(built)
                })
                .collect::<Vec<u64>>()
                .into_iter()
                .sum();
        }
        self.records.built.fetch_add(built_here, Ordering::Relaxed);
        self.records
            .reused
            .fetch_add(cells.len() as u64 - built_here, Ordering::Relaxed);
        let records = cells
            .iter()
            .map(|(_, cell)| cell.get().expect("every record was initialized").clone())
            .collect();
        SimDb::new(platform.clone(), records)
    }

    /// Runs `mix` under `manager` and compares against the baseline run.
    ///
    /// One-shot convenience over [`CophaseSimulator::run_comparison`]; loops
    /// that evaluate several managers on one workload should construct the
    /// simulator once and reuse the baseline instead.
    pub fn run_and_compare(
        &self,
        db: &SimDb,
        mix: &WorkloadMix,
        manager: &mut dyn ResourceManager,
        qos: &[QosSpec],
        options: SimulationOptions,
    ) -> (Comparison, SimulationResult) {
        let simulator =
            CophaseSimulator::new(db, mix, options).expect("workload matches database platform");
        let baseline = simulator
            .run_baseline()
            .expect("baseline run must finish within the event budget");
        simulator
            .run_comparison(manager, &baseline, qos)
            .unwrap_or_else(|e| panic!("managed run failed: {e}"))
    }

    /// Runs `mix` under `manager` returning only the comparison.
    pub fn comparison(
        &self,
        db: &SimDb,
        mix: &WorkloadMix,
        manager: &mut dyn ResourceManager,
        qos: &[QosSpec],
        options: SimulationOptions,
    ) -> Comparison {
        self.run_and_compare(db, mix, manager, qos, options).0
    }
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maximum of a slice (0 when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(max(&[]), 0.0);
        assert!((max(&[0.4, -1.0, 0.2]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quick_mode_limits_workloads() {
        let ctx = ExperimentContext::new(true);
        let mixes = workload::paper1_workloads(4);
        assert_eq!(ctx.limit_workloads(mixes.clone()).len(), 4);
        let full = ExperimentContext::new(false);
        assert_eq!(full.limit_workloads(mixes.clone()).len(), mixes.len());
    }

    fn mix(name: &str, benchmarks: [&str; 4]) -> WorkloadMix {
        WorkloadMix::new(name, benchmarks.to_vec())
    }

    #[test]
    fn database_is_memoized() {
        let ctx = ExperimentContext::new(true);
        let platform = PlatformConfig::paper2(4);
        let mixes = vec![mix(
            "t",
            ["gamess_like", "povray_like", "gamess_like", "povray_like"],
        )];
        let a = ctx.database(&platform, &mixes);
        let b = ctx.database(&platform, &mixes);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(
            ctx.record_counters(),
            RecordCounters {
                records_built: 2,
                records_reused: 2,
            }
        );
    }

    #[test]
    fn overlapping_sets_share_records_and_match_a_fresh_build() {
        let ctx = ExperimentContext::new(true);
        let platform = PlatformConfig::paper2(4);
        let first = vec![mix(
            "a",
            ["gamess_like", "povray_like", "gamess_like", "povray_like"],
        )];
        let second = vec![mix(
            "b",
            ["povray_like", "mcf_like", "not_a_benchmark", "povray_like"],
        )];
        ctx.database(&platform, &first);
        let db = ctx.database(&platform, &second);
        let options = BuildOptions::quick_for_tests(&platform);
        assert_eq!(
            db,
            simdb::builder::build_database_for_mixes(&platform, &second, &options)
        );
        // povray is reused; the unknown name is skipped, never counted.
        assert_eq!(
            ctx.record_counters(),
            RecordCounters {
                records_built: 3,
                records_reused: 1,
            }
        );
    }

    #[test]
    fn platforms_differing_in_any_parameter_never_share_records() {
        let ctx = ExperimentContext::new(true);
        let platform = PlatformConfig::paper2(4);
        let mut other = platform.clone();
        // Only the baseline VF level differs, as on E4's sensitivity axes.
        other.vf = other.vf.with_baseline(qosrm_types::FreqLevel(4)).unwrap();
        let mixes = vec![mix(
            "t",
            ["gamess_like", "gamess_like", "gamess_like", "gamess_like"],
        )];
        let a = ctx.database(&platform, &mixes);
        let b = ctx.database(&other, &mixes);
        assert_eq!(b.platform(), &other);
        assert_ne!(a.platform(), b.platform());
        assert_eq!(ctx.record_counters().records_built, 2);
    }

    #[test]
    fn concurrent_misses_build_each_record_once() {
        let ctx = ExperimentContext::new(true);
        let platform = PlatformConfig::paper2(4);
        let mixes = vec![mix(
            "t",
            ["gamess_like", "povray_like", "mcf_like", "povray_like"],
        )];
        let start = std::sync::Barrier::new(2);
        let dbs: Vec<SimDb> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        ctx.database(&platform, &mixes)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(dbs[0], dbs[1]);
        assert_eq!(
            ctx.record_counters(),
            RecordCounters {
                records_built: 3,
                records_reused: 3,
            }
        );
    }

    #[test]
    fn cache_dir_persists_each_record() {
        let dir =
            std::env::temp_dir().join(format!("qosrm-record-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let platform = PlatformConfig::paper2(4);
        let mixes = vec![mix(
            "t",
            ["gamess_like", "povray_like", "gamess_like", "povray_like"],
        )];
        let cold = ExperimentContext::new(true).with_cache_dir(dir.clone());
        let built = cold.database(&platform, &mixes);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2, "one file per record");
        // A second context loads both records instead of characterizing.
        let warm = ExperimentContext::new(true).with_cache_dir(dir.clone());
        assert_eq!(warm.database(&platform, &mixes), built);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
