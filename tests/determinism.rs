//! Determinism and persistence of the evaluation pipeline.
//!
//! Every step — stream generation, characterization, database construction,
//! the co-phase simulation and the managers themselves — is seeded and must
//! produce bit-identical results across runs, so experiments are reproducible.

use qosrm_core::CoordinatedRma;
use qosrm_types::{PlatformConfig, QosSpec};
use rma_sim::{CophaseSimulator, SimulationOptions};
use simdb::builder::{build_database_for_mixes, BuildOptions};
use workload::{benchmark, PhaseCharacterizer, WorkloadMix};

fn mix() -> WorkloadMix {
    WorkloadMix::new(
        "det",
        vec!["mcf_like", "lbm_like", "gamess_like", "soplex_like"],
    )
}

#[test]
fn characterization_is_deterministic() {
    let platform = PlatformConfig::paper2(4);
    let characterizer = PhaseCharacterizer::new(
        &platform,
        workload::CharacterizationConfig::quick_for_tests(&platform),
    );
    let bench = benchmark("soplex_like").unwrap();
    let a = characterizer.characterize(&bench.phases[0], bench.phase_seed(0));
    let b = characterizer.characterize(&bench.phases[0], bench.phase_seed(0));
    assert_eq!(a, b);
    // A different seed produces a different (but still valid) characterization.
    let c = characterizer.characterize(&bench.phases[0], bench.phase_seed(0) ^ 1);
    assert!(c.validate().is_ok());
    assert_ne!(a, c);
}

#[test]
fn database_and_simulation_are_deterministic() {
    let platform = PlatformConfig::paper2(4);
    let options = BuildOptions::quick_for_tests(&platform);
    let mix = mix();
    let db1 = build_database_for_mixes(&platform, std::slice::from_ref(&mix), &options);
    let db2 = build_database_for_mixes(&platform, std::slice::from_ref(&mix), &options);
    assert_eq!(db1, db2);

    let qos = vec![QosSpec::STRICT; 4];
    let sim = CophaseSimulator::new(&db1, &mix, SimulationOptions::default()).unwrap();
    let mut m1 = CoordinatedRma::paper2(&platform, qos.clone());
    let mut m2 = CoordinatedRma::paper2(&platform, qos.clone());
    let r1 = sim.run(&mut m1).unwrap();
    let r2 = sim.run(&mut m2).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn identical_seeds_yield_byte_identical_simulation_results() {
    // Two fully independent pipelines (characterization, database and
    // simulation) from the same seeds must agree to the last serialized
    // byte — structural equality could hide NaN or map-ordering drift that
    // would desynchronize persisted artefacts and golden tables.
    let run_pipeline = || {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        let mix = mix();
        let db = build_database_for_mixes(&platform, std::slice::from_ref(&mix), &options);
        let sim = CophaseSimulator::new(&db, &mix, SimulationOptions::default()).unwrap();
        let baseline = sim.run_baseline().unwrap();
        let mut manager = CoordinatedRma::paper2(&platform, vec![QosSpec::STRICT; 4]);
        let managed = sim.run(&mut manager).unwrap();
        (
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&managed).unwrap(),
        )
    };
    let (baseline_a, managed_a) = run_pipeline();
    let (baseline_b, managed_b) = run_pipeline();
    assert_eq!(
        baseline_a, baseline_b,
        "baseline runs must serialize identically"
    );
    assert_eq!(
        managed_a, managed_b,
        "managed runs must serialize identically"
    );
}

#[test]
fn database_survives_a_json_roundtrip() {
    let platform = PlatformConfig::paper2(4);
    let options = BuildOptions::quick_for_tests(&platform);
    let mix = WorkloadMix::new(
        "det-persist",
        vec!["mcf_like", "gamess_like", "gamess_like", "mcf_like"],
    );
    let db = build_database_for_mixes(&platform, std::slice::from_ref(&mix), &options);

    let dir = std::env::temp_dir().join("qosrm-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip-db.json");
    simdb::persist::save(&db, &path).unwrap();
    let loaded = simdb::persist::load(&path).unwrap();
    assert_eq!(db, loaded);

    // A simulation on the reloaded database gives identical results.
    let qos = vec![QosSpec::STRICT; 4];
    let sim_a = CophaseSimulator::new(&db, &mix, SimulationOptions::default()).unwrap();
    let sim_b = CophaseSimulator::new(&loaded, &mix, SimulationOptions::default()).unwrap();
    let mut ma = CoordinatedRma::paper1(&platform, qos.clone());
    let mut mb = CoordinatedRma::paper1(&platform, qos.clone());
    assert_eq!(sim_a.run(&mut ma), sim_b.run(&mut mb));
    std::fs::remove_file(&path).ok();
}

#[test]
fn different_workload_orders_give_identical_per_benchmark_records() {
    let platform = PlatformConfig::paper2(4);
    let options = BuildOptions::quick_for_tests(&platform);
    let mix_a = WorkloadMix::new("a", vec!["mcf_like", "lbm_like", "mcf_like", "lbm_like"]);
    let mix_b = WorkloadMix::new("b", vec!["lbm_like", "mcf_like", "lbm_like", "mcf_like"]);
    let db_a = build_database_for_mixes(&platform, std::slice::from_ref(&mix_a), &options);
    let db_b = build_database_for_mixes(&platform, std::slice::from_ref(&mix_b), &options);
    assert_eq!(db_a.benchmark("mcf_like"), db_b.benchmark("mcf_like"));
    assert_eq!(db_a.benchmark("lbm_like"), db_b.benchmark("lbm_like"));
}

/// Characterization digests (`qosrm_core::memo::fingerprint`, as
/// `hi ++ lo` hex) pinned for every phase of three suite benchmarks — a
/// dependent cache-sensitive, a bursty cache-sensitive and a streaming one —
/// under the default configuration (ATD sampling 8) and the quick test
/// configuration (ATD sampling 2), one `config benchmark phase digest` line
/// each. A change to stream generation, the stack-distance replay, the ATD
/// view or the leading-miss matrix shows up here as a changed digest; the
/// simulation database, every golden table and every on-disk record cache
/// derive from these bytes.
const PINNED_CHARACTERIZATIONS: &[&str] = &[
    "for_platform mcf_like 0 69aa6fbf10566d205aed371f55f33149",
    "for_platform mcf_like 1 76af74c42620b58edf668ebf5d087a1b",
    "for_platform mcf_like 2 2f7fe1b631fcf0e230a82d90a3de9497",
    "for_platform soplex_like 0 14c9bf800c78cf845601bd3bd7d8e721",
    "for_platform soplex_like 1 4969828710827ecff3792f2595869122",
    "for_platform soplex_like 2 cda7d57c903f5a045c9ca7808dc257ad",
    "for_platform lbm_like 0 f66d9a9ff8c0db2742c193bf663d88c6",
    "for_platform lbm_like 1 e58c495466d0462db08c43d59143fa4c",
    "for_platform lbm_like 2 a7f7f1bb17c12ba216d12105c7689043",
    "quick_for_tests mcf_like 0 55793538d65b0b0cbbd1c2c13c86bcc9",
    "quick_for_tests mcf_like 1 438d63d4e17234661e1fdf92b3a83d43",
    "quick_for_tests mcf_like 2 eb8f9b5000033a0f5045d0fb4af84bd6",
    "quick_for_tests soplex_like 0 45eb88b0b80e134059e4cf3db92be435",
    "quick_for_tests soplex_like 1 bf4369db8f240cb34808e3b59c99f332",
    "quick_for_tests soplex_like 2 00c71dd42abb5bf0fcb7fb5629d20c01",
    "quick_for_tests lbm_like 0 5349b010b68a5526e54355ee4a082d9b",
    "quick_for_tests lbm_like 1 285799081d45de1ed1fbe9020e68961f",
    "quick_for_tests lbm_like 2 b6011f903966c83fa5030869939d5d1a",
];

#[test]
fn characterization_fingerprints_are_pinned() {
    let platform = PlatformConfig::paper2(4);
    let configs = [
        (
            "for_platform",
            workload::CharacterizationConfig::for_platform(&platform),
        ),
        (
            "quick_for_tests",
            workload::CharacterizationConfig::quick_for_tests(&platform),
        ),
    ];
    let mut actual = Vec::new();
    for (config_name, config) in configs {
        let characterizer = PhaseCharacterizer::new(&platform, config);
        for name in ["mcf_like", "soplex_like", "lbm_like"] {
            let bench = benchmark(name).unwrap();
            for (i, phase) in bench.phases.iter().enumerate() {
                let (hi, lo) = qosrm_core::memo::fingerprint(
                    &characterizer.characterize(phase, bench.phase_seed(i)),
                );
                actual.push(format!("{config_name} {name} {i} {hi:016x}{lo:016x}"));
            }
        }
    }
    assert_eq!(actual, PINNED_CHARACTERIZATIONS);
}
