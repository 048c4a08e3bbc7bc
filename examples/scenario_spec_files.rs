//! Authoring scenario spec files in Rust.
//!
//! A [`experiments::ScenarioSpec`] is plain data: build it with the types
//! of `experiments::spec`, save it as JSON, and feed it to the streaming
//! CLI (`qosrm-experiments sweep run --spec FILE --out DIR`). This example
//! regenerates three of the spec files committed under `examples/specs/`:
//!
//! * `synth_smoke.json` — a small synthetic sweep the CI smoke step runs,
//!   kills partway, resumes and merges;
//! * `synth_sweep.json` — a 200-mix sweep drawing from three populations
//!   (streaming-heavy, cache-sensitive, mixed) on 4-, 8- and 16-core
//!   platforms: far beyond what the paper's hand-built mix tables cover,
//!   and the scale the streaming executor exists for;
//! * `nash_scale.json` — RM2 next to the minimum-energy Nash equilibrium
//!   manager on 8- and 16-core Paper I platforms, the CI kill/resume check
//!   of the game solver beyond four cores.
//!
//! (The fourth committed spec, `e10_quick.json`, is owned by the E10
//! experiment module: regenerate it with `QOSRM_UPDATE_SPECS=1 cargo test
//! -p experiments --lib committed_quick_spec_is_in_sync`.)
//!
//! Run with `cargo run --example scenario_spec_files [OUT_DIR]`.

use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
use experiments::sweep::{QosAxis, RmaVariant};
use qosrm_types::QosSpec;
use rma_sim::SimulationOptions;
use workload::{MixPopulation, SynthSpec};

fn synth_axis(
    num_cores: usize,
    count: usize,
    population: MixPopulation,
    tag: &str,
) -> PlatformAxisSpec {
    PlatformAxisSpec {
        label: format!("{tag}-{num_cores}c"),
        platform: PlatformSpec::Paper2 { num_cores },
        workloads: WorkloadSource::Synth(SynthSpec {
            seed: 2024,
            count,
            num_cores,
            population,
            name_prefix: format!("{tag}{num_cores}-"),
        }),
    }
}

/// The CI smoke spec: 12 mixes × 1 QoS point × 2 variants = 24 scenarios.
fn smoke_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "synth-smoke".to_string(),
        platforms: vec![synth_axis(4, 12, MixPopulation::Mixed, "smoke")],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
        options: None,
    }
}

/// The 200-mix scenario-space sweep: three populations over three platform
/// widths, 200 scenarios with the single RM3 variant.
fn sweep_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "synth-200".to_string(),
        platforms: vec![
            synth_axis(4, 80, MixPopulation::StreamingHeavy, "streaming"),
            synth_axis(8, 80, MixPopulation::CacheSensitive, "cachesens"),
            synth_axis(16, 40, MixPopulation::Mixed, "mixed"),
        ],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper2],
        options: None,
    }
}

/// NashEq past four cores: 4 mixes × 2 platforms × 2 variants = 16
/// scenarios on Paper I platforms, with E10's simulation options.
fn nash_scale_spec() -> ScenarioSpec {
    let paper1_axis = |num_cores| PlatformAxisSpec {
        platform: PlatformSpec::Paper1 { num_cores },
        ..synth_axis(num_cores, 4, MixPopulation::Mixed, "nash")
    };
    ScenarioSpec {
        name: "nash-scale".to_string(),
        platforms: vec![paper1_axis(8), paper1_axis(16)],
        qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
        variants: vec![RmaVariant::Paper1, RmaVariant::NashEquilibrium],
        // Paper I platform: no core re-configuration, no MLP-ATD hardware.
        options: Some(SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        }),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/specs".to_string());
    let out = std::path::Path::new(&out);
    for (file, spec) in [
        ("synth_smoke.json", smoke_spec()),
        ("synth_sweep.json", sweep_spec()),
        ("nash_scale.json", nash_scale_spec()),
    ] {
        let path = out.join(file);
        spec.lower().expect("example specs must lower");
        spec.save(&path).expect("spec file saves");
        println!(
            "wrote {} ({} scenarios)",
            path.display(),
            spec.lower().unwrap().len()
        );
    }
}
