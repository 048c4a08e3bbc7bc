//! # qosrm-bench
//!
//! The CI performance-regression gate ([`gate`]) and shared fixtures for the
//! criterion benchmark harness.
//!
//! The gate is one scenario table, [`gate::SCENARIOS`]: each row names a
//! fixed workload's runner and its whole policy — which walls are banded
//! and at what multiple of the tolerance, which counters (all of them,
//! exact-compared) and which same-report floors. Every scenario writes the
//! same [`gate::Report`] shape (`BENCH_<bench>.json`, schema
//! `qosrm-bench-gate/v2`: name-keyed `walls` and `counters` maps), and one
//! comparator, [`gate::compare`], checks any of them against its committed
//! baseline.
//!
//! The criterion benches are organised by what they regenerate:
//!
//! * `rma_overhead` — the cost of one resource-manager invocation
//!   (paper experiments E5 and E9: the "overhead" tables);
//! * `optimizer_scaling` — the local and global optimization steps in
//!   isolation, swept over core counts (the `O(cores · ways²)` claim);
//! * `substrates` — throughput of the cache/ATD/stream substrates the
//!   evaluation pipeline is built on;
//! * `experiments_tables` — one end-to-end co-phase simulation per paper
//!   table/figure family (E1/E2/E3/E7/E8), so regressions in the full
//!   pipeline show up as bench regressions;
//! * `sweep_throughput` — the scenario-sweep engine in its three execution
//!   modes (serial / parallel / parallel + memoized energy curves), tracking
//!   the speedup that makes large scenario spaces affordable.

#![warn(missing_docs)]

pub mod gate;

use qosrm_types::{
    CoreId, CoreObservation, CoreScalingProfile, MissProfile, MlpProfile, PlatformConfig,
    SystemSetting,
};
use simdb::builder::{build_database_for_mixes, BuildOptions};
use simdb::{GroundTruth, SimDb};
use workload::WorkloadMix;

/// A representative 4-application workload used by several benches.
pub fn default_mix() -> WorkloadMix {
    WorkloadMix::new(
        "bench-mix",
        vec!["mcf_like", "soplex_like", "libquantum_like", "gamess_like"],
    )
}

/// Builds a coarse simulation database for `mix` on `platform`
/// (quick characterization: the benches measure the algorithms, not the
/// characterization itself).
pub fn build_db(platform: &PlatformConfig, mix: &WorkloadMix) -> SimDb {
    build_database_for_mixes(
        platform,
        std::slice::from_ref(mix),
        &BuildOptions::quick_for_tests(platform),
    )
}

/// Builds the observation a core would hand to the resource manager after one
/// interval of the first phase of `benchmark`, at the baseline setting.
pub fn observation_for(
    db: &SimDb,
    platform: &PlatformConfig,
    benchmark: &str,
    core: usize,
) -> CoreObservation {
    let ground_truth = GroundTruth::new(platform);
    let record = db.benchmark(benchmark).expect("benchmark in database");
    let phase = record.phase(record.trace.phase_at(0));
    let setting = SystemSetting::baseline(platform).core(CoreId(core));
    CoreObservation {
        app: qosrm_types::AppId(core),
        stats: ground_truth.interval_stats(phase, setting),
        miss_profile: MissProfile::new(phase.atd_misses_per_way.clone()),
        mlp_profile: Some(MlpProfile::new(phase.atd_leading_misses.clone())),
        scaling_profile: Some(CoreScalingProfile::new(phase.exec_cpi.clone())),
        perfect: None,
    }
}
