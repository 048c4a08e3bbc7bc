//! One-pass LRU stack-distance profiling of a reference stream.
//!
//! Under LRU replacement, an access whose per-set stack distance is `d` hits
//! in every cache with more than `d` ways and misses in every cache with at
//! most `d` ways (the *stack property*). Profiling a trace once therefore
//! yields the miss count for **every** possible way allocation, which is the
//! mechanism the Auxiliary Tag Directory relies on. LRU sets are also
//! independent of each other, so the set-sampled ATD view is a subset of the
//! records of the one full replay ([`ReplayProfile::sample_sets`]).

use crate::access::AccessTrace;
use crate::replacement::LruStack;
use qosrm_types::{CoreSizeParams, LlcGeometry, MissProfile};
use serde::{Deserialize, Serialize};

/// Stack distance marking a cold miss (no previous reference to the line).
pub const COLD_DISTANCE: u32 = u32::MAX;

/// One profiled access: the instruction that issued it and its per-set LRU
/// stack distance ([`COLD_DISTANCE`] when the line had never been touched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessRecord {
    /// Instruction index of the access within the slice.
    pub inst_index: u64,
    /// LRU stack distance within the access's set.
    pub stack_distance: u32,
    /// Whether the access is address-dependent on the previous long-latency
    /// load (pointer chasing); dependent misses never overlap.
    pub dependent: bool,
}

impl AccessRecord {
    /// Whether this access misses in a cache with `ways` ways per set.
    #[inline]
    pub fn is_miss_at(&self, ways: usize) -> bool {
        self.stack_distance == COLD_DISTANCE || self.stack_distance as usize >= ways
    }
}

/// Profiler that replays a reference stream against per-set unbounded LRU
/// stacks and records every access's stack distance.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    num_sets: usize,
    sets: Vec<LruStack>,
}

impl StackDistanceProfiler {
    /// Creates a profiler covering every set of the given geometry.
    pub fn new(llc: &LlcGeometry) -> Self {
        StackDistanceProfiler {
            num_sets: llc.num_sets,
            sets: (0..llc.num_sets).map(|_| LruStack::unbounded()).collect(),
        }
    }

    /// Replays a trace and produces its [`ReplayProfile`]: one record per
    /// access, in trace order.
    ///
    /// The profiler is stateful across calls: replaying a second trace models
    /// a warmed-up cache. Use a fresh profiler for an independent slice; the
    /// evaluation warms each representative slice with the preceding warm-up
    /// slice, as the paper does.
    pub fn replay(&mut self, trace: &AccessTrace) -> ReplayProfile {
        let mut records = Vec::with_capacity(trace.len());
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            let distance = match self.sets[set].touch(access.tag(self.num_sets)) {
                Some(d) => u32::try_from(d).unwrap_or(COLD_DISTANCE),
                None => COLD_DISTANCE,
            };
            records.push(AccessRecord {
                inst_index: access.inst_index,
                stack_distance: distance,
                dependent: access.dependent,
            });
        }
        ReplayProfile {
            records,
            instructions: trace.instructions(),
            total_accesses: trace.len() as u64,
            scale: 1,
        }
    }

    /// Replays a trace purely to warm the profiler state, without recording.
    pub fn warm_up(&mut self, trace: &AccessTrace) {
        for access in trace.accesses() {
            let set = access.set_index(self.num_sets);
            self.sets[set].touch(access.tag(self.num_sets));
        }
    }
}

/// Parameters that bound how aggressively misses can overlap on a given core
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapParams {
    /// Re-order-buffer window in instructions: two misses further apart than
    /// this cannot be in flight together.
    pub rob_entries: usize,
    /// Miss-status holding registers: at most this many misses can overlap in
    /// one group.
    pub mshrs: usize,
}

impl From<&CoreSizeParams> for OverlapParams {
    fn from(p: &CoreSizeParams) -> Self {
        OverlapParams {
            rob_entries: p.rob_entries,
            mshrs: p.mshrs,
        }
    }
}

/// The result of replaying one slice: per-access stack distances plus slice
/// metadata, from which miss curves and leading-miss matrices are derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayProfile {
    records: Vec<AccessRecord>,
    instructions: u64,
    total_accesses: u64,
    /// Set-sampling factor: derived counts must be multiplied by this factor
    /// to estimate whole-cache counts (1 for a full profile).
    scale: u64,
}

impl ReplayProfile {
    /// The profiled access records, in program order.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Instructions covered by the slice.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total LLC accesses of the slice (whole cache, not only sampled sets).
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// The set-sampling scale factor of this profile.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The set-sampled view of this profile: the records of the accesses to
    /// the 1 in `sampling` sets congruent to `offset` (both taken modulo
    /// `sampling.max(1)`), with the scale multiplied by the sampling factor
    /// to estimate whole-cache counts. This is what the Auxiliary Tag
    /// Directory hardware observes.
    ///
    /// `self` must be the full replay of `trace` on a profiler of geometry
    /// `llc`. LRU sets are independent, so the selected records are exactly
    /// those a profiler observing only the sampled sets would produce.
    pub fn sample_sets(
        &self,
        trace: &AccessTrace,
        llc: &LlcGeometry,
        sampling: usize,
        offset: usize,
    ) -> ReplayProfile {
        let sampling = sampling.max(1);
        let offset = offset % sampling;
        debug_assert_eq!(
            self.records.len(),
            trace.len(),
            "sample_sets needs the full replay of the trace"
        );
        let records = self
            .records
            .iter()
            .zip(trace.accesses())
            .filter(|(_, access)| access.set_index(llc.num_sets) % sampling == offset)
            .map(|(record, _)| *record)
            .collect();
        ReplayProfile {
            records,
            instructions: self.instructions,
            total_accesses: self.total_accesses,
            scale: self.scale * sampling as u64,
        }
    }

    /// Misses for a cache with `ways` ways per set (scaled to the whole
    /// cache when the profile is set-sampled).
    pub fn misses_at(&self, ways: usize) -> u64 {
        let raw = self.records.iter().filter(|r| r.is_miss_at(ways)).count() as u64;
        raw * self.scale
    }

    /// The full miss curve for way allocations `1..=max_ways`, computed in a
    /// single pass over the records.
    pub fn miss_curve(&self, max_ways: usize) -> MissProfile {
        // hist[d] = number of accesses with stack distance exactly d (d < max_ways).
        let mut hist = vec![0u64; max_ways];
        let mut beyond = 0u64; // distance >= max_ways or cold
        for r in &self.records {
            if r.stack_distance == COLD_DISTANCE || r.stack_distance as usize >= max_ways {
                beyond += 1;
            } else {
                hist[r.stack_distance as usize] += 1;
            }
        }
        let mut curve = Vec::with_capacity(max_ways);
        // misses(w) = beyond + sum_{d >= w, d < max_ways} hist[d]
        let mut tail: u64 = hist.iter().sum();
        for w in 1..=max_ways {
            tail -= hist[w - 1];
            curve.push((beyond + tail) * self.scale);
        }
        MissProfile::new(curve)
    }

    /// Number of *leading* (non-overlapped) misses for a cache with `ways`
    /// ways, under the overlap model `params` (scaled to the whole cache).
    ///
    /// A miss overlaps with the current leading miss if it is issued within
    /// the re-order-buffer window of that leading miss and fewer than `mshrs`
    /// misses are already outstanding in the overlap group; otherwise it
    /// starts a new group and counts as a leading miss. Overlapped misses are
    /// hidden behind the leading miss and do not contribute to memory stall
    /// time (the leading-loads performance model).
    pub fn leading_misses_at(&self, ways: usize, params: &OverlapParams) -> u64 {
        let window = params.rob_entries as u64;
        let mshrs = params.mshrs.max(1);
        let mut leading = 0u64;
        let mut group_start: Option<u64> = None;
        let mut group_size = 0usize;
        for r in &self.records {
            if !r.is_miss_at(ways) {
                continue;
            }
            let starts_new_group = r.dependent
                || match group_start {
                    Some(start) => {
                        r.inst_index.saturating_sub(start) > window || group_size >= mshrs
                    }
                    None => true,
                };
            if starts_new_group {
                leading += 1;
                group_start = Some(r.inst_index);
                group_size = 1;
            } else {
                group_size += 1;
            }
        }
        leading * self.scale
    }

    /// Leading-miss counts for every (core size, way allocation) combination:
    /// `matrix[s][w-1]` = [`Self::leading_misses_at`]`(w, &core_sizes[s])`
    /// for `w` in `1..=max_ways` — the counters of the Paper II MLP-aware
    /// ATD extension.
    pub fn leading_miss_matrix(
        &self,
        core_sizes: &[OverlapParams],
        max_ways: usize,
    ) -> Vec<Vec<u64>> {
        core_sizes
            .iter()
            .map(|params| {
                (1..=max_ways)
                    .map(|w| self.leading_misses_at(w, params))
                    .collect()
            })
            .collect()
    }

    /// Average memory-level parallelism at `ways` ways under `params`.
    pub fn mlp_at(&self, ways: usize, params: &OverlapParams) -> f64 {
        let total = self.misses_at(ways);
        let leading = self.leading_misses_at(ways, params);
        if total == 0 || leading == 0 {
            1.0
        } else {
            total as f64 / leading as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessTrace};

    fn geometry() -> LlcGeometry {
        LlcGeometry {
            num_sets: 16,
            associativity: 8,
            line_bytes: 64,
        }
    }

    /// A trace looping over `n` distinct lines that all map to set 0.
    fn same_set_loop(n: u64, repeats: u64) -> AccessTrace {
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        for _ in 0..repeats {
            for i in 0..n {
                accesses.push(Access::new(i * 16, inst)); // stride 16 lines => same set
                inst += 100;
            }
        }
        AccessTrace::new(accesses, inst.max(1))
    }

    #[test]
    fn loop_miss_curve_matches_theory() {
        // A cyclic loop over 4 lines in one set: with >= 4 ways everything
        // after the cold misses hits; with < 4 ways LRU thrashes and every
        // access misses.
        let trace = same_set_loop(4, 10);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve(8);
        assert_eq!(curve.misses_at(4), 4); // only the cold misses
        assert_eq!(curve.misses_at(8), 4);
        assert_eq!(curve.misses_at(3), 40); // full thrash
        assert_eq!(curve.misses_at(1), 40);
        assert!(curve.validate().is_ok());
    }

    #[test]
    fn miss_curve_is_monotonic_and_matches_point_queries() {
        let trace = same_set_loop(6, 5);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let curve = profile.miss_curve(8);
        for w in 1..=8usize {
            assert_eq!(curve.misses_at(w), profile.misses_at(w), "w={w}");
            if w > 1 {
                assert!(curve.misses_at(w) <= curve.misses_at(w - 1));
            }
        }
    }

    #[test]
    fn warm_up_removes_cold_misses() {
        let trace = same_set_loop(4, 1);
        let mut cold = StackDistanceProfiler::new(&geometry());
        let cold_profile = cold.replay(&trace);
        assert_eq!(cold_profile.misses_at(8), 4);

        let mut warmed = StackDistanceProfiler::new(&geometry());
        warmed.warm_up(&trace);
        let warm_profile = warmed.replay(&trace);
        assert_eq!(warm_profile.misses_at(8), 0);
    }

    #[test]
    fn sampled_profile_scales_counts() {
        // Accesses spread over all 16 sets, each set seeing the same pattern.
        let mut accesses = Vec::new();
        let mut inst = 0;
        for _rep in 0..3u64 {
            for set in 0..16u64 {
                for line in 0..2u64 {
                    accesses.push(Access::new(set + 16 * line, inst));
                    inst += 10;
                }
            }
        }
        let trace = AccessTrace::new(accesses, inst);
        let mut full = StackDistanceProfiler::new(&geometry());
        let full_profile = full.replay(&trace);
        let sampled = full_profile.sample_sets(&trace, &geometry(), 4, 0);
        assert_eq!(sampled.scale(), 4);
        assert_eq!(sampled.records().len() * 4, full_profile.records().len());
        assert_eq!(sampled.total_accesses(), full_profile.total_accesses());
        // Uniform traffic: the scaled sampled estimate matches exactly.
        assert_eq!(full_profile.misses_at(8), sampled.misses_at(8));
    }

    #[test]
    fn leading_misses_respect_window_and_mshrs() {
        // 6 misses to one set: the first 3 within a 128-instruction window,
        // the last 3 far apart.
        let times = [0u64, 10, 20, 10_000, 20_000, 30_000];
        let accesses: Vec<Access> = times
            .iter()
            .enumerate()
            .map(|(line, &inst)| Access::new(line as u64 * 16, inst))
            .collect();
        let trace = AccessTrace::new(accesses, 40_000);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        assert_eq!(profile.misses_at(8), 6);

        let big = OverlapParams {
            rob_entries: 128,
            mshrs: 8,
        };
        assert_eq!(profile.leading_misses_at(8, &big), 4); // {0,10,20} overlap
        assert!((profile.mlp_at(8, &big) - 1.5).abs() < 1e-12);

        let tiny_window = OverlapParams {
            rob_entries: 4,
            mshrs: 8,
        };
        assert_eq!(profile.leading_misses_at(8, &tiny_window), 6);
        assert!((profile.mlp_at(8, &tiny_window) - 1.0).abs() < 1e-12);

        let one_mshr = OverlapParams {
            rob_entries: 128,
            mshrs: 1,
        };
        assert_eq!(profile.leading_misses_at(8, &one_mshr), 6);
    }

    #[test]
    fn mlp_grows_with_core_size() {
        // Bursty misses: groups of 4 misses close together.
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        for burst in 0..10u64 {
            for i in 0..4u64 {
                accesses.push(Access::new((burst * 4 + i) * 16, inst + i * 8));
            }
            inst += 5_000;
        }
        let trace = AccessTrace::new(accesses, inst);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);

        let small = OverlapParams {
            rob_entries: 16,
            mshrs: 2,
        };
        let large = OverlapParams {
            rob_entries: 256,
            mshrs: 16,
        };
        assert!(profile.mlp_at(8, &large) > profile.mlp_at(8, &small));
    }

    #[test]
    fn dependent_misses_never_overlap() {
        // The same bursty pattern, but marked dependent: MLP stays 1 even on
        // a huge window.
        let accesses: Vec<Access> = (0..20u64)
            .map(|i| Access::dependent(i * 16, i * 8))
            .collect();
        let trace = AccessTrace::new(accesses, 1_000);
        let mut profiler = StackDistanceProfiler::new(&geometry());
        let profile = profiler.replay(&trace);
        let params = OverlapParams {
            rob_entries: 512,
            mshrs: 32,
        };
        assert_eq!(profile.leading_misses_at(8, &params), profile.misses_at(8));
        assert!((profile.mlp_at(8, &params) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_defaults() {
        let profile =
            StackDistanceProfiler::new(&geometry()).replay(&AccessTrace::new(vec![], 1000));
        assert_eq!(profile.misses_at(4), 0);
        let params = OverlapParams {
            rob_entries: 128,
            mshrs: 8,
        };
        assert!((profile.mlp_at(4, &params) - 1.0).abs() < 1e-12);
        assert_eq!(profile.miss_curve(4).misses_at(1), 0);
    }

    /// Small, medium and large core sizes (window, MSHRs).
    fn three_sizes() -> Vec<OverlapParams> {
        vec![
            OverlapParams {
                rob_entries: 64,
                mshrs: 4,
            },
            OverlapParams {
                rob_entries: 128,
                mshrs: 8,
            },
            OverlapParams {
                rob_entries: 256,
                mshrs: 16,
            },
        ]
    }

    /// Bursty streaming trace on a 64-set, 16-way LLC: groups of `burst`
    /// distinct new lines issued close together, far apart from the next
    /// group.
    fn bursty_profile(groups: u64, burst: u64) -> ReplayProfile {
        let mut accesses = Vec::new();
        let mut inst = 0u64;
        let mut line = 0u64;
        for _ in 0..groups {
            for i in 0..burst {
                accesses.push(Access::new(line, inst + i * 10));
                line += 1;
            }
            inst += 10_000;
        }
        let trace = AccessTrace::new(accesses, inst.max(1));
        let llc = LlcGeometry {
            num_sets: 64,
            associativity: 16,
            line_bytes: 64,
        };
        StackDistanceProfiler::new(&llc).replay(&trace)
    }

    #[test]
    fn leading_miss_matrix_exposes_more_mlp_on_larger_cores() {
        let profile = bursty_profile(50, 12);
        let misses = profile.miss_curve(16);
        let matrix = profile.leading_miss_matrix(&three_sizes(), 16);
        // Streaming: every access misses regardless of ways.
        assert_eq!(misses.misses_at(16), 600);
        let mlp: Vec<f64> = matrix
            .iter()
            .map(|row| misses.misses_at(16) as f64 / row[15] as f64)
            .collect();
        assert!(mlp[0] < mlp[1] && mlp[1] < mlp[2], "{mlp:?}");
        assert!((mlp[0] - 4.0).abs() < 0.5); // limited by 4 MSHRs
        assert!(mlp[2] >= 10.0); // whole 12-miss burst overlaps on the large core
    }

    #[test]
    fn leading_miss_matrix_never_exceeds_total_misses() {
        let profile = bursty_profile(30, 5);
        let misses = profile.miss_curve(16);
        let matrix = profile.leading_miss_matrix(&three_sizes(), 16);
        assert_eq!(matrix.len(), 3);
        for row in &matrix {
            assert_eq!(row.len(), 16);
            for w in 1..=16usize {
                assert!(row[w - 1] <= misses.misses_at(w));
            }
        }
        assert!(qosrm_types::MlpProfile::new(matrix)
            .validate(&misses)
            .is_ok());
    }

    #[test]
    fn overlap_params_follow_core_sizes() {
        let sizes = CoreSizeParams::default_three_sizes();
        let params: Vec<OverlapParams> = sizes.iter().map(OverlapParams::from).collect();
        assert_eq!(params.len(), 3);
        assert_eq!(params[0].mshrs, sizes[0].mshrs);
        assert_eq!(params[2].rob_entries, sizes[2].rob_entries);
        assert!(params[2].mshrs > params[0].mshrs);
    }
}
