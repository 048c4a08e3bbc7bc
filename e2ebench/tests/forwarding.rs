//! The forwarding manager and the layered walk leave results byte-identical.

use e2ebench::manager::Forwarding;
use e2ebench::trace::Tracer;
use e2ebench::walk::{result_bytes, walk, LayerCounts};
use e2ebench::workloads::sweep_nash_spec;
use experiments::{ExperimentContext, QosAxis, SweepOptions};
use qosrm_types::QosSpec;
use rma_sim::CophaseSimulator;

fn small_spec() -> experiments::ScenarioSpec {
    let mut spec = sweep_nash_spec(11).unwrap();
    if let experiments::WorkloadSource::Synth(synth) = &mut spec.platforms[0].workloads {
        synth.count = 2;
    }
    spec.qos = vec![QosAxis::uniform("relaxed 20%", QosSpec::relaxed_by(0.2))];
    spec
}

#[test]
fn wrapped_managers_give_byte_identical_comparisons() {
    let grid = small_spec().lower().unwrap();
    let ctx = ExperimentContext::new(true);
    let axis = &grid.platforms[0];
    let db = ctx.database(&axis.platform, &axis.mixes);
    let qos = grid.qos[0].policy.resolve(axis.platform.num_cores);
    let simulator = CophaseSimulator::new(&db, &axis.mixes[0], grid.options.clone()).unwrap();
    let baseline = simulator.run_baseline().unwrap();
    for variant in &grid.variants {
        for incremental in [false, true] {
            let build = || {
                let manager = variant.build(&axis.platform, qos.clone());
                if incremental {
                    manager.with_incremental()
                } else {
                    manager
                }
            };
            let mut plain = build();
            let (expected, expected_run) = simulator
                .run_comparison(&mut plain, &baseline, &qos)
                .unwrap();
            for timed in [false, true] {
                let mut wrapped = Forwarding::new(build(), timed);
                let (got, got_run) = simulator
                    .run_comparison(&mut wrapped, &baseline, &qos)
                    .unwrap();
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&expected).unwrap()
                );
                assert_eq!(got_run, expected_run);
                assert_eq!(wrapped.inner().work_counters(), plain.work_counters());
                assert_eq!(wrapped.calls(), plain.work_counters().invocations);
            }
        }
    }
}

#[test]
fn the_walk_matches_the_sweep_engine_byte_for_byte() {
    let spec = small_spec();
    let expected = experiments::sweep::run_with(
        &spec.lower().unwrap(),
        &ExperimentContext::new(true),
        &SweepOptions::serial(),
    );
    for traced in [false, true] {
        let mut tracer = Tracer::new(traced);
        let mut counts = LayerCounts::default();
        let walked = walk(
            &spec,
            &ExperimentContext::new(true),
            &mut tracer,
            0,
            &mut counts,
        )
        .unwrap();
        assert_eq!(
            result_bytes(&walked).unwrap(),
            result_bytes(&expected).unwrap()
        );
        assert_eq!(counts.scenarios, 6);
        assert_eq!(tracer.spans().is_empty(), !traced);
    }
}
