//! # experiments
//!
//! Experiment runners that regenerate every table and figure of the paper's
//! evaluation (the experiment index E1–E10 and its mapping to paper figures
//! and tables lives in `crates/README.md`).
//!
//! Each experiment module exposes a `run(&ExperimentContext) -> ExperimentReport`
//! function; the `qosrm-experiments` binary runs them all (or a selection) and
//! prints the same rows/series the paper reports. The expensive
//! simulation-results database is built once per platform and cached on disk.
//!
//! The baseline-comparison experiments (E1, E3, E4, E6, E7, E8, E10) are
//! declarative [`sweep::ScenarioGrid`]s over the parallel scenario-sweep
//! engine in [`sweep`]. E2 still drives the simulator directly because its
//! two variants run under *different* simulation options (a grid shares one
//! options struct), and E5/E9 measure invocation overhead rather than
//! baseline comparisons. E10 goes beyond the paper: it compares the
//! game-theoretic managers of [`qosrm_core::game`] against the cooperative
//! RM2 and reports their price of anarchy.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod diagnose;
pub mod dist;
pub mod e10_price_of_anarchy;
pub mod e1_energy_savings;
pub mod e2_model_error;
pub mod e3_qos_relaxation;
pub mod e4_baseline_sensitivity;
pub mod e5_overhead;
pub mod e6_scenario_analysis;
pub mod e7_scenario_savings;
pub mod e8_model_comparison;
pub mod e9_overhead_scaling;
pub mod report;
pub mod search;
pub mod spec;
pub mod stream;
pub mod sweep;
pub mod sync;

pub use context::{ExperimentContext, RecordCounters, RmaTelemetry};
pub use dist::{Coordinator, CoordinatorConfig, CoordinatorServer, Resolution, WorkerConfig};
pub use report::{ExperimentReport, ReportRow};
pub use search::{
    FitnessVector, Genome, NashSide, SearchConfig, SearchManifest, SearchReport, StrengthScore,
};
pub use spec::{MixSelection, PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
pub use stream::{
    LeaseCounters, LeaseRecord, ShardScheduler, StreamOptions, StreamReport, SweepManifest,
};
pub use sweep::{
    PlatformAxis, QosAxis, QosPolicy, RmaVariant, ScenarioGrid, ScenarioKey, ScenarioOutcome,
    SweepOptions, SweepResult,
};
pub use sync::{LockUnpoisoned, WaitUnpoisoned};

/// Identifiers of all experiments, in execution order.
pub const ALL_EXPERIMENTS: &[&str] = &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

/// Runs one experiment by identifier.
pub fn run_experiment(id: &str, ctx: &ExperimentContext) -> Option<ExperimentReport> {
    match id {
        "e1" => Some(e1_energy_savings::run(ctx)),
        "e2" => Some(e2_model_error::run(ctx)),
        "e3" => Some(e3_qos_relaxation::run(ctx)),
        "e4" => Some(e4_baseline_sensitivity::run(ctx)),
        "e5" => Some(e5_overhead::run(ctx)),
        "e6" => Some(e6_scenario_analysis::run(ctx)),
        "e7" => Some(e7_scenario_savings::run(ctx)),
        "e8" => Some(e8_model_comparison::run(ctx)),
        "e9" => Some(e9_overhead_scaling::run(ctx)),
        "e10" => Some(e10_price_of_anarchy::run(ctx)),
        _ => None,
    }
}
