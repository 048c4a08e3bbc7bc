//! Property-based tests of the cache substrate invariants, checked against
//! independent oracles: a plain LRU cache and a profiler that only ever sees
//! the sampled sets.

use cache_model::{Access, AccessTrace, LruStack, OverlapParams, StackDistanceProfiler};
use proptest::prelude::*;
use qosrm_types::LlcGeometry;

fn small_geometry() -> LlcGeometry {
    LlcGeometry {
        num_sets: 16,
        associativity: 8,
        line_bytes: 64,
    }
}

/// A geometry with `2^sets_log2` sets and `associativity` ways.
fn geometry(sets_log2: u32, associativity: usize) -> LlcGeometry {
    LlcGeometry {
        num_sets: 1 << sets_log2,
        associativity,
        line_bytes: 64,
    }
}

/// Strategy: a trace of up to 600 accesses over a bounded address range, with
/// monotonically increasing instruction indices.
fn trace_strategy(max_lines: u64) -> impl Strategy<Value = AccessTrace> {
    prop::collection::vec((0..max_lines, 1u64..50), 1..600).prop_map(|pairs| {
        let mut inst = 0u64;
        let accesses = pairs
            .into_iter()
            .map(|(line, gap)| {
                inst += gap;
                Access::new(line, inst)
            })
            .collect::<Vec<_>>();
        let total_inst = inst + 100;
        AccessTrace::new(accesses, total_inst)
    })
}

/// Test-only oracle: a plain `ways`-way LRU cache (one bounded [`LruStack`]
/// per set), warmed with `warm`; returns the misses of `main`.
fn lru_cache_misses(llc: &LlcGeometry, ways: usize, warm: &AccessTrace, main: &AccessTrace) -> u64 {
    let mut sets: Vec<LruStack> = (0..llc.num_sets).map(|_| LruStack::new(ways)).collect();
    let mut touch = |a: &Access| {
        sets[a.set_index(llc.num_sets)]
            .touch(a.tag(llc.num_sets))
            .is_none()
    };
    for access in warm.accesses() {
        touch(access);
    }
    main.accesses().iter().filter(|&a| touch(a)).count() as u64
}

/// The accesses of `trace` to the sets congruent to `offset` modulo
/// `sampling`.
fn only_sets(
    trace: &AccessTrace,
    llc: &LlcGeometry,
    sampling: usize,
    offset: usize,
) -> AccessTrace {
    let accesses = trace
        .accesses()
        .iter()
        .filter(|a| a.set_index(llc.num_sets) % sampling == offset % sampling)
        .copied()
        .collect();
    AccessTrace::new(accesses, trace.instructions())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ATD/stack-profiler miss curve is non-increasing in the way count.
    #[test]
    fn miss_curve_is_monotone(trace in trace_strategy(256)) {
        let geom = small_geometry();
        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve(geom.associativity);
        prop_assert!(curve.validate().is_ok());
        prop_assert!(curve.misses_at(1) <= trace.len() as u64);
    }

    /// At every way count, the one-pass miss curve of a warmed replay equals
    /// the misses of a plain LRU cache with that many ways per set (the LRU
    /// stack property), over random traces and geometries.
    #[test]
    fn miss_curve_matches_lru_cache(
        warm in trace_strategy(512),
        main in trace_strategy(512),
        sets_log2 in 0u32..6,
        associativity in 1usize..17,
    ) {
        let geom = geometry(sets_log2, associativity);
        let mut profiler = StackDistanceProfiler::new(&geom);
        profiler.warm_up(&warm);
        let profile = profiler.replay(&main);
        let curve = profile.miss_curve(associativity);
        for ways in 1..=associativity {
            let oracle = lru_cache_misses(&geom, ways, &warm, &main);
            prop_assert_eq!(curve.misses_at(ways), oracle);
            prop_assert_eq!(profile.misses_at(ways), oracle);
        }
    }

    /// The set-sampled view of one full replay equals a fresh profiler that
    /// replays only the sampled sets' accesses (warm-up included), scaled by
    /// the sampling factor: LRU sets are independent.
    #[test]
    fn sampled_sets_match_a_replay_of_only_those_sets(
        warm in trace_strategy(512),
        main in trace_strategy(512),
        sets_log2 in 0u32..6,
        sampling in 1usize..9,
        offset in 0usize..16,
    ) {
        let geom = geometry(sets_log2, 8);
        let mut full = StackDistanceProfiler::new(&geom);
        full.warm_up(&warm);
        let sampled = full.replay(&main).sample_sets(&main, &geom, sampling, offset);

        let mut fresh = StackDistanceProfiler::new(&geom);
        fresh.warm_up(&only_sets(&warm, &geom, sampling, offset));
        let reference = fresh.replay(&only_sets(&main, &geom, sampling, offset));

        prop_assert_eq!(sampled.records(), reference.records());
        prop_assert_eq!(sampled.scale(), sampling as u64);
        prop_assert_eq!(sampled.total_accesses(), main.len() as u64);
        let curve = sampled.miss_curve(geom.associativity);
        let reference_curve = reference.miss_curve(geom.associativity);
        for ways in 1..=geom.associativity {
            prop_assert_eq!(
                curve.misses_at(ways),
                reference_curve.misses_at(ways) * sampling as u64
            );
        }
    }

    /// Leading misses never exceed total misses and never increase with a
    /// larger overlap window or more MSHRs.
    #[test]
    fn leading_misses_monotone_in_core_size(
        trace in trace_strategy(512),
        ways in 1usize..8,
        rob_small in 16usize..64,
        rob_extra in 1usize..256,
        mshr_small in 1usize..4,
        mshr_extra in 1usize..16,
    ) {
        let geom = small_geometry();
        let mut profiler = StackDistanceProfiler::new(&geom);
        let profile = profiler.replay(&trace);

        let small = OverlapParams { rob_entries: rob_small, mshrs: mshr_small };
        let large = OverlapParams {
            rob_entries: rob_small + rob_extra,
            mshrs: mshr_small + mshr_extra,
        };
        let total = profile.misses_at(ways);
        let lead_small = profile.leading_misses_at(ways, &small);
        let lead_large = profile.leading_misses_at(ways, &large);
        prop_assert!(lead_small <= total);
        prop_assert!(lead_large <= total);
        prop_assert!(lead_large <= lead_small, "bigger cores can only merge more misses");
        prop_assert!(profile.mlp_at(ways, &large) >= profile.mlp_at(ways, &small) - 1e-12);

        let matrix = profile.leading_miss_matrix(&[small, large], geom.associativity);
        prop_assert_eq!(matrix[0][ways - 1], lead_small);
        prop_assert_eq!(matrix[1][ways - 1], lead_large);
    }
}
