//! The benchmark's workloads and the seeded specs they submit.
//!
//! Every workload takes the seed as an argument and rewrites every
//! synthetic (`Synth`) workload seed from it, so the program only ever sees
//! generated specs. The rewrite sets each `Synth` seed to the benchmark
//! seed; seed 2024 therefore reproduces `examples/specs/synth_sweep.json`.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use experiments::sweep::{QosAxis, RmaVariant};
use qosrm_types::QosSpec;
use std::path::{Path, PathBuf};
use workload::{MixPopulation, SynthSpec};

/// The seed at which the sweep workload reproduces its spec file.
pub const REFERENCE_SEED: u64 = 2024;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `synth_sweep.json` through `stream::run` + `merge` (RM3).
    SweepRm3,
    /// Paper I 4-core synthetic mixes under RM2 / NashBR / NashEq.
    SweepNash,
    /// An in-process daemon under a closed loop of two clients.
    ServeOverlap,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SweepRm3,
        Workload::SweepNash,
        Workload::ServeOverlap,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepRm3 => "sweep-rm3",
            Workload::SweepNash => "sweep-nash",
            Workload::ServeOverlap => "serve-overlap",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The repository root the benchmark package lives in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Sets every synthetic workload seed of `spec` to `seed`.
pub fn rewrite_seeds(spec: &mut ScenarioSpec, seed: u64) {
    for axis in &mut spec.platforms {
        if let WorkloadSource::Synth(synth) = &mut axis.workloads {
            synth.seed = seed;
        }
    }
}

/// Path of the `sweep-rm3` spec file.
pub fn synth_sweep_path() -> PathBuf {
    repo_root().join("examples/specs/synth_sweep.json")
}

/// Loads `synth_sweep.json` and rewrites its seeds (the timed "spec load").
pub fn sweep_rm3_spec(seed: u64) -> Result<ScenarioSpec, String> {
    let path = synth_sweep_path();
    let mut spec =
        ScenarioSpec::load(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    rewrite_seeds(&mut spec, seed);
    Ok(spec)
}

/// Mixes per `sweep-nash` spec.
const NASH_MIXES: usize = 48;

/// The `sweep-nash` spec: Paper I 4-core platform, seeded `Mixed` 4-core
/// mixes, strict and 20%-relaxed QoS, RM2 / NashBR / NashEq, with the
/// simulation options of `e10_quick.json`.
pub fn sweep_nash_spec(seed: u64) -> Result<ScenarioSpec, String> {
    let path = repo_root().join("examples/specs/e10_quick.json");
    let e10 =
        ScenarioSpec::load(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    Ok(ScenarioSpec {
        name: "bench-nash".to_string(),
        platforms: vec![PlatformAxisSpec {
            label: "paper1-4c".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed,
                count: NASH_MIXES,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "nash4-".to_string(),
            }),
        }],
        qos: vec![
            QosAxis::uniform("strict", QosSpec::STRICT),
            QosAxis::uniform("relaxed 20%", QosSpec::relaxed_by(0.2)),
        ],
        variants: vec![
            RmaVariant::Paper1,
            RmaVariant::NashBestResponse,
            RmaVariant::NashEquilibrium,
        ],
        options: e10.options,
    })
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Variant `index` of the `serve-overlap` spec: a Paper I 4-core platform
/// with three `Mixed` synthetic mixes (which draw heavily overlapping
/// benchmarks), strict QoS, RM2. Its synthetic seed derives from
/// `(seed, index)`.
pub fn serve_variant(seed: u64, index: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("bench-serve-v{index}"),
        platforms: vec![PlatformAxisSpec {
            label: "p4".to_string(),
            platform: PlatformSpec::Paper1 { num_cores: 4 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: splitmix(seed ^ splitmix(index as u64)),
                count: 3,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "sv-".to_string(),
            }),
        }],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1],
        options: Some(rma_sim::SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

/// Every `DEDUP_EVERY`-th submission of a serve round repeats an earlier
/// variant; the rest submit a new one. One in five keeps the repeated
/// (fast) share far from half, so the median stays in the slow mode.
pub const DEDUP_EVERY: usize = 5;

/// The variant each submission of a serve round submits, in submission
/// order. Repeats name a variant submitted at least two submissions
/// earlier, chosen from the seed.
pub fn serve_plan(seed: u64, submissions: usize) -> Vec<usize> {
    let mut plan = Vec::with_capacity(submissions);
    let mut fresh = 0usize;
    for k in 0..submissions {
        if k % DEDUP_EVERY == DEDUP_EVERY - 1 && fresh >= 2 {
            let pick = splitmix(seed.wrapping_add(k as u64)) as usize % (fresh - 1);
            plan.push(pick);
        } else {
            plan.push(fresh);
            fresh += 1;
        }
    }
    plan
}
