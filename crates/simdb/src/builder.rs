//! Parallel construction of the simulation-results database.
//!
//! Characterizing a phase (generating its reference stream and replaying it
//! through the cache substrate) is the expensive step of the pipeline, and —
//! exactly as the paper notes for its Sniper runs — every (benchmark, phase)
//! pair is independent, so the build fans out over a Rayon thread pool.

use crate::record::{BenchmarkRecord, SimDb};
use qosrm_types::PlatformConfig;
use rayon::prelude::*;
use workload::{
    classify, BenchmarkProfile, CategoryThresholds, CharacterizationConfig, PhaseCharacterizer,
    WorkloadMix,
};

/// Options of the database build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Characterization configuration (replay scale, ATD sampling, warm-up).
    pub characterization: CharacterizationConfig,
    /// Categorization thresholds.
    pub thresholds: CategoryThresholds,
}

impl BuildOptions {
    /// Default options for a platform.
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        BuildOptions {
            characterization: CharacterizationConfig::for_platform(platform),
            thresholds: CategoryThresholds::default(),
        }
    }

    /// Coarse, fast options for unit tests.
    pub fn quick_for_tests(platform: &PlatformConfig) -> Self {
        BuildOptions {
            characterization: CharacterizationConfig::quick_for_tests(platform),
            thresholds: CategoryThresholds::default(),
        }
    }
}

/// Characterizes one benchmark into a database record.
///
/// A pure function of its inputs: the same profile, characterizer,
/// platform and thresholds always give the same record, whatever other
/// benchmarks share the database. That is what lets a caller characterize
/// each benchmark once and assemble any number of databases from the
/// cached records (see `experiments::ExperimentContext::database`).
pub fn build_record(
    profile: &BenchmarkProfile,
    characterizer: &PhaseCharacterizer,
    platform: &PlatformConfig,
    thresholds: &CategoryThresholds,
) -> BenchmarkRecord {
    let phases: Vec<_> = profile
        .phases
        .par_iter()
        .enumerate()
        .map(|(i, spec)| characterizer.characterize(spec, profile.phase_seed(i)))
        .collect();
    let trace = profile.phase_trace();
    let weights = trace.weights();
    let weighted: Vec<_> = phases
        .iter()
        .cloned()
        .zip(weights.iter().copied())
        .collect();
    let category = classify(&weighted, platform.baseline_ways_per_core(), thresholds);
    BenchmarkRecord {
        name: profile.name.clone(),
        phases,
        trace,
        category,
    }
}

/// Builds a database covering the given benchmarks.
pub fn build_database(
    platform: &PlatformConfig,
    benchmarks: &[BenchmarkProfile],
    options: &BuildOptions,
) -> SimDb {
    let characterizer = PhaseCharacterizer::new(platform, options.characterization.clone());
    let records: Vec<BenchmarkRecord> = benchmarks
        .par_iter()
        .map(|profile| build_record(profile, &characterizer, platform, &options.thresholds))
        .collect();
    SimDb::new(platform.clone(), records)
}

/// Builds a database covering exactly the benchmarks referenced by the given
/// workload mixes (each benchmark characterized once even if it appears in
/// several mixes).
pub fn build_database_for_mixes(
    platform: &PlatformConfig,
    mixes: &[WorkloadMix],
    options: &BuildOptions,
) -> SimDb {
    let mut names: Vec<&str> = mixes
        .iter()
        .flat_map(|m| m.benchmarks.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let profiles: Vec<BenchmarkProfile> = names
        .iter()
        .filter_map(|n| workload::benchmark(n))
        .collect();
    build_database(platform, &profiles, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::benchmark;

    #[test]
    fn builds_records_for_requested_benchmarks() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let benchmarks = vec![
            benchmark("mcf_like").unwrap(),
            benchmark("libquantum_like").unwrap(),
        ];
        let db = build_database(&platform, &benchmarks, &options);
        assert_eq!(db.len(), 2);
        assert!(db.validate().is_ok());
        let mcf = db.benchmark("mcf_like").unwrap();
        assert_eq!(mcf.phases.len(), 3);
        assert!(mcf.category.paper1.cache_sensitive);
        let libq = db.benchmark("libquantum_like").unwrap();
        assert!(!libq.category.paper1.cache_sensitive);
        assert!(libq.category.paper2.parallelism_sensitive);
    }

    #[test]
    fn mix_build_deduplicates_benchmarks() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let mixes = vec![
            WorkloadMix::new(
                "a",
                vec!["gamess_like", "povray_like", "gamess_like", "povray_like"],
            ),
            WorkloadMix::new(
                "b",
                vec!["povray_like", "gamess_like", "povray_like", "gamess_like"],
            ),
        ];
        let db = build_database_for_mixes(&platform, &mixes, &options);
        assert_eq!(db.len(), 2);
        assert!(db.benchmark("gamess_like").is_some());
        assert!(db.benchmark("povray_like").is_some());
    }

    #[test]
    fn build_is_deterministic() {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let benchmarks = vec![benchmark("soplex_like").unwrap()];
        let a = build_database(&platform, &benchmarks, &options);
        let b = build_database(&platform, &benchmarks, &options);
        assert_eq!(
            a.benchmark("soplex_like").unwrap(),
            b.benchmark("soplex_like").unwrap()
        );
    }
}
