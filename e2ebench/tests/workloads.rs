//! Seed rewriting and the serve submission plan.

use e2ebench::workloads::{
    rewrite_seeds, serve_plan, serve_variant, sweep_nash_spec, sweep_rm3_spec, synth_sweep_path,
    DEDUP_EVERY, REFERENCE_SEED,
};
use experiments::ScenarioSpec;
use experiments::WorkloadSource;

#[test]
fn seed_2024_reproduces_the_sweep_spec_file() {
    let file = ScenarioSpec::load(&synth_sweep_path()).unwrap();
    assert_eq!(sweep_rm3_spec(REFERENCE_SEED).unwrap(), file);
    // Rewriting away and back is the identity.
    let mut spec = file.clone();
    rewrite_seeds(&mut spec, 99);
    assert_ne!(spec, file);
    rewrite_seeds(&mut spec, REFERENCE_SEED);
    assert_eq!(spec, file);
}

#[test]
fn seed_rewriting_is_deterministic_and_total() {
    for seed in [0, 1, 7, u64::MAX] {
        let spec = sweep_rm3_spec(seed).unwrap();
        assert_eq!(spec, sweep_rm3_spec(seed).unwrap());
        for axis in &spec.platforms {
            match &axis.workloads {
                WorkloadSource::Synth(synth) => assert_eq!(synth.seed, seed),
                other => panic!("unexpected source {other:?}"),
            }
        }
        assert_eq!(
            spec.lower().unwrap().len(),
            sweep_rm3_spec(REFERENCE_SEED)
                .unwrap()
                .lower()
                .unwrap()
                .len()
        );
        assert_eq!(
            sweep_nash_spec(seed).unwrap(),
            sweep_nash_spec(seed).unwrap()
        );
    }
    // Different seeds give different mixes.
    let a = sweep_nash_spec(1).unwrap().lower().unwrap();
    let b = sweep_nash_spec(2).unwrap().lower().unwrap();
    assert_ne!(a.platforms[0].mixes, b.platforms[0].mixes);
}

#[test]
fn serve_plan_repeats_a_minority_of_earlier_variants() {
    let plan = serve_plan(2024, 40);
    assert_eq!(plan, serve_plan(2024, 40));
    let mut fresh = 0;
    let mut repeats = 0;
    for (k, &variant) in plan.iter().enumerate() {
        if variant == fresh {
            fresh += 1;
        } else {
            repeats += 1;
            // A repeat names a variant first submitted at least two
            // submissions earlier.
            let first = plan.iter().position(|&v| v == variant).unwrap();
            assert!(first + 2 <= k, "submission {k} repeats {variant}");
        }
    }
    assert_eq!(repeats, 40 / DEDUP_EVERY);
    // Variants are distinct specs with distinct mixes.
    let v0 = serve_variant(2024, 0).lower().unwrap();
    let v1 = serve_variant(2024, 1).lower().unwrap();
    assert_ne!(v0.platforms[0].mixes, v1.platforms[0].mixes);
    assert_eq!(serve_variant(2024, 3), serve_variant(2024, 3));
    assert_ne!(serve_variant(2024, 3), serve_variant(2025, 3));
}
