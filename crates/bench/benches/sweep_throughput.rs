//! Throughput of the scenario-sweep engine (serial vs. parallel vs.
//! parallel + memoized vs. the default, which adds the delta path).
//!
//! The sweep engine is the scale axis of this repository: every new QoS
//! target, workload mix, platform shape or RMA variant multiplies the
//! scenario count, so the per-scenario cost — dominated by the energy-curve
//! constructions inside each RMA invocation — is what bounds how much of the
//! scenario space we can explore. This bench tracks four execution modes
//! of `experiments::sweep` on one fixed grid:
//!
//! * `serial` — the reference path (what the bespoke per-experiment loops
//!   used to do);
//! * `parallel` — same work fanned out over worker threads (gains scale
//!   with core count; on a single-CPU runner it matches `serial`);
//! * `parallel_memoized` — plus the shared energy-curve cache, which
//!   answers recurring `(configuration, QoS, observation)` curve requests
//!   across scenarios and across the phase-trace wrap-around inside each
//!   run (the dominant win; it does not depend on core count);
//! * `default` — plus the incremental delta path, which keeps unchanged
//!   cores' curves and reuses their reduction rows between invocations.
//!
//! The simulation database is pre-built outside the measured region (every
//! mode would pay the identical, context-cached cost).

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::sweep::{self, PlatformAxis, QosAxis, RmaVariant, ScenarioGrid, SweepOptions};
use experiments::ExperimentContext;
use qosrm_types::{PlatformConfig, QosSpec};
use rma_sim::SimulationOptions;
use std::hint::black_box;
use workload::paper1_workloads;

fn bench_grid(ctx: &ExperimentContext) -> ScenarioGrid {
    ScenarioGrid {
        platforms: vec![PlatformAxis::new(
            "paper1-4c",
            PlatformConfig::paper1(4),
            ctx.limit_workloads(paper1_workloads(4)),
        )],
        qos: vec![
            QosAxis::uniform("strict", QosSpec::STRICT),
            QosAxis::uniform("relaxed 20%", QosSpec::relaxed_by(0.2)),
            QosAxis::uniform("relaxed 40%", QosSpec::relaxed_by(0.4)),
        ],
        variants: vec![RmaVariant::Paper1, RmaVariant::PartitioningOnly],
        options: SimulationOptions {
            provide_mlp_profiles: false,
            ..Default::default()
        },
    }
}

fn bench_sweep_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_throughput");
    group.sample_size(10);

    for (label, options) in [
        ("serial", SweepOptions::serial()),
        (
            "parallel",
            SweepOptions {
                parallel: true,
                memoize: false,
                incremental: false,
            },
        ),
        (
            "parallel_memoized",
            SweepOptions {
                parallel: true,
                memoize: true,
                incremental: false,
            },
        ),
        ("default", SweepOptions::default()),
    ] {
        let ctx = ExperimentContext::new(true).with_sweep_options(options);
        let grid = bench_grid(&ctx);
        // Pre-build the simulation database outside the measured region.
        for axis in &grid.platforms {
            ctx.database(&axis.platform, &axis.mixes);
        }
        group.bench_function(label, |bencher| {
            bencher.iter(|| {
                // Cold curve cache per iteration: measure the within-sweep
                // memoization a user's first sweep sees, not a session-warm
                // cache from previous iterations.
                ctx.curve_cache().clear();
                black_box(sweep::run(black_box(&grid), &ctx))
            })
        });
    }

    // The streaming sharded executor on the same grid (via a spec with the
    // grid's mixes inlined): measures the checkpointing overhead — shard
    // JSONL logs, manifest rewrites, per-shard simulator/baseline
    // reconstruction — on top of `default`, which is the mode it shares. This is the executor CI's sweep-smoke step and the
    // kill/resume workflow run.
    {
        let ctx = ExperimentContext::new(true);
        let grid = bench_grid(&ctx);
        for axis in &grid.platforms {
            ctx.database(&axis.platform, &axis.mixes);
        }
        let spec = experiments::ScenarioSpec {
            name: "bench-streaming".to_string(),
            platforms: grid
                .platforms
                .iter()
                .map(|axis| experiments::PlatformAxisSpec {
                    label: axis.label.clone(),
                    platform: experiments::PlatformSpec::Custom(axis.platform.clone()),
                    workloads: experiments::WorkloadSource::Explicit(axis.mixes.clone()),
                })
                .collect(),
            qos: grid.qos.clone(),
            variants: grid.variants.clone(),
            options: Some(grid.options.clone()),
        };
        let dir = std::env::temp_dir().join(format!("qosrm_bench_stream_{}", std::process::id()));
        group.bench_function("streaming_sharded", |bencher| {
            bencher.iter(|| {
                ctx.curve_cache().clear();
                std::fs::remove_dir_all(&dir).ok();
                let report = experiments::stream::run(
                    black_box(&spec),
                    &ctx,
                    &dir,
                    &experiments::StreamOptions {
                        shard_size: 8,
                        ..Default::default()
                    },
                )
                .expect("streaming run completes");
                assert!(report.finished);
                black_box(experiments::stream::merge(&dir).expect("merges"))
            })
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_modes);
criterion_main!(benches);
