//! Property-based tests of the resource manager's optimization machinery.

use proptest::prelude::*;
use qosrm_core::{
    best_response, exhaustive_partition, incumbent_energy, is_pure_nash, min_energy_equilibrium,
    optimize_partition, optimize_partition_scalar, optimize_partition_unpruned,
    optimize_partition_with_stats, total_energy, CoordinatedRma, CurvePoint, EnergyCurve,
    EquilibriumError, GameConfig, IncrementalOptimizer, LocalOptimizer, LocalOptimizerConfig,
    ModelKind,
};
use qosrm_types::{
    AppId, CoreId, CoreObservation, CoreScalingProfile, CoreSizeIdx, FreqLevel, IntervalStats,
    MissProfile, MlpProfile, PlatformConfig, QosSpec, ResourceManager, SystemSetting,
};

/// Builds a curve from per-way energies, `None` marking infeasible ways.
fn curve_from(energies: impl IntoIterator<Item = Option<f64>>) -> EnergyCurve {
    EnergyCurve::new(
        energies
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                e.map(|energy_joules| CurvePoint {
                    energy_joules,
                    freq: FreqLevel(i % 13),
                    core_size: CoreSizeIdx(i % 3),
                    time_seconds: 0.05,
                    ways: i + 1,
                })
            })
            .collect(),
    )
}

/// Curves with infeasible holes anywhere (about one way in four), not just
/// a leading prefix.
fn holey_curve_strategy(max_ways: usize) -> impl Strategy<Value = EnergyCurve> {
    (
        prop::collection::vec(0.1f64..20.0, max_ways),
        prop::collection::vec(0u64..4, max_ways),
    )
        .prop_map(|(energies, holes)| {
            curve_from(
                energies
                    .into_iter()
                    .zip(holes)
                    .map(|(e, h)| (h > 0).then_some(e)),
            )
        })
}

fn curve_strategy(max_ways: usize) -> impl Strategy<Value = EnergyCurve> {
    // Leading infeasible prefix of 0..=3 ways, then arbitrary positive
    // energies.
    (0usize..4, prop::collection::vec(0.1f64..20.0, max_ways)).prop_map(|(infeasible, energies)| {
        curve_from(
            energies
                .into_iter()
                .enumerate()
                .map(|(i, e)| (i >= infeasible).then_some(e)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pairwise reduction always returns either an optimal feasible
    /// partition (same total energy as brute force) or `None` exactly when
    /// brute force also finds nothing.
    #[test]
    fn pairwise_reduction_matches_exhaustive(
        curves in prop::collection::vec(curve_strategy(16), 2..5),
    ) {
        let total_ways = 16usize;
        let fast = optimize_partition(&curves, total_ways);
        let brute = exhaustive_partition(&curves, total_ways);
        match (fast, brute) {
            (Some(alloc), Some((best_energy, _))) => {
                let ways_sum: usize = alloc.iter().map(|(w, _)| *w).sum();
                prop_assert_eq!(ways_sum, total_ways);
                let energy: f64 = alloc.iter().map(|(_, p)| p.energy_joules).sum();
                prop_assert!((energy - best_energy).abs() < 1e-9,
                    "reduction found {energy}, exhaustive {best_energy}");
                for (w, _) in &alloc {
                    prop_assert!(*w >= 1);
                }
            }
            (None, None) => {}
            (fast, brute) => {
                prop_assert!(false, "feasibility disagreement: fast={fast:?} brute={brute:?}");
            }
        }
    }

    /// Lower-bound pruning of the min-plus convolution is behaviour
    /// preserving: on arbitrary random curves — non-concave energies, random
    /// leading infeasible prefixes — the pruned reduction returns exactly the
    /// same allocation (ways, VF level, core size and energy per core) as
    /// the naive full scan.
    #[test]
    fn pruned_convolution_equals_naive_min_plus(
        curves in prop::collection::vec(curve_strategy(16), 2..6),
        total_ways in 8usize..17,
    ) {
        let (pruned, _stats) = optimize_partition_with_stats(&curves, total_ways);
        let naive = optimize_partition_unpruned(&curves, total_ways);
        prop_assert_eq!(&pruned, &naive);
        // The public entry point is the pruned path.
        prop_assert_eq!(&pruned, &optimize_partition(&curves, total_ways));
    }

    /// Same equivalence on curves with interior infeasible holes (a QoS
    /// target satisfiable at some allocations but not others), the shape
    /// that makes naive scans skip candidates mid-row.
    #[test]
    fn pruned_convolution_equals_naive_with_holes(
        hole_masks in prop::collection::vec(0u64..65536, 2..5),
        energy_seed in prop::collection::vec(0.1f64..20.0, 16),
    ) {
        let curves: Vec<EnergyCurve> = hole_masks
            .iter()
            .enumerate()
            .map(|(c, &mask)| {
                EnergyCurve::new(
                    (0..16)
                        .map(|w| {
                            if mask & (1 << w) != 0 {
                                None
                            } else {
                                Some(CurvePoint {
                                    energy_joules: energy_seed[(w + c) % 16] + c as f64,
                                    freq: FreqLevel(w % 13),
                                    core_size: CoreSizeIdx(w % 3),
                                    time_seconds: 0.05,
                                    ways: w + 1,
                                })
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let pruned = optimize_partition(&curves, 16);
        let naive = optimize_partition_unpruned(&curves, 16);
        prop_assert_eq!(pruned, naive);
    }

    /// The 4-wide-chunked min-plus kernel is bit-identical to both the
    /// scalar pruned kernel and the naive unpruned scan on arbitrary random
    /// curves (non-concave energies, random leading infeasible prefixes),
    /// and its prune decisions replay the scalar sequence exactly (same
    /// cell-update and prune counts).
    #[test]
    fn chunked_convolution_is_bit_identical_across_kernels(
        curves in prop::collection::vec(curve_strategy(16), 2..6),
        total_ways in 8usize..17,
    ) {
        let (chunked, chunked_stats) = optimize_partition_with_stats(&curves, total_ways);
        let (scalar, scalar_stats) = optimize_partition_scalar(&curves, total_ways);
        prop_assert_eq!(&chunked, &scalar);
        prop_assert_eq!(&chunked, &optimize_partition_unpruned(&curves, total_ways));
        prop_assert_eq!(chunked_stats.ops, scalar_stats.ops);
        prop_assert_eq!(chunked_stats.pruned, scalar_stats.pruned);
        prop_assert_eq!(scalar_stats.lanes, 0);
    }

    /// The warm-row incremental optimizer is bit-identical to a cold full
    /// rebuild over arbitrary sequences of single-core curve patches, with
    /// the previous round's allocation seeding the pruning incumbent — the
    /// exact flow of the manager's delta path.
    #[test]
    fn incremental_arena_matches_cold_rebuild(
        curves in prop::collection::vec(curve_strategy(16), 2..6),
        patches in prop::collection::vec((0usize..6, curve_strategy(16)), 1..6),
        total_ways in 8usize..17,
    ) {
        let mut curves = curves;
        let mut warm = IncrementalOptimizer::new();
        let mut last_ways: Option<Vec<usize>> = None;
        let dirty = vec![true; curves.len()];
        let (first, _, _) = warm.optimize(&curves, &dirty, total_ways, f64::INFINITY);
        prop_assert_eq!(&first, &optimize_partition(&curves, total_ways));
        if let Some(alloc) = &first {
            last_ways = Some(alloc.iter().map(|&(w, _)| w).collect());
        }
        for (slot, replacement) in patches {
            let core = slot % curves.len();
            curves[core] = replacement;
            let mut dirty = vec![false; curves.len()];
            dirty[core] = true;
            let incumbent = match &last_ways {
                Some(ways) => incumbent_energy(&curves, ways),
                None => f64::INFINITY,
            };
            let (patched, _, warm_stats) = warm.optimize(&curves, &dirty, total_ways, incumbent);
            let cold = optimize_partition(&curves, total_ways);
            prop_assert_eq!(&patched, &cold);
            prop_assert!(warm_stats.rows_reused > 0 || curves.len() == 2,
                "a single-core patch must reuse sibling rows");
            if let Some(alloc) = &patched {
                last_ways = Some(alloc.iter().map(|&(w, _)| w).collect());
            }
        }
    }

    /// Smoothing a curve never increases any point's energy and produces a
    /// non-increasing curve beyond the first feasible allocation.
    #[test]
    fn smoothing_is_monotone_and_conservative(curve in curve_strategy(16)) {
        let mut smoothed = curve.clone();
        smoothed.smooth_monotone();
        let mut last = f64::INFINITY;
        for w in 1..=16usize {
            let s = smoothed.energy(w);
            prop_assert!(s <= curve.energy(w) + 1e-12);
            if s.is_finite() {
                prop_assert!(s <= last + 1e-12);
                last = s;
            }
        }
    }
}

/// Builds a synthetic observation with a parameterized miss curve.
fn observation(base_misses: u64, decay_percent: u64, mlp_ratio: u64) -> CoreObservation {
    observation_on(
        &PlatformConfig::paper2(4),
        base_misses,
        decay_percent,
        mlp_ratio,
        true,
    )
}

/// Like [`observation`], on an explicit platform and with the Paper II
/// profiles (MLP-aware ATD, ILP monitor) optionally absent.
fn observation_on(
    platform: &PlatformConfig,
    base_misses: u64,
    decay_percent: u64,
    mlp_ratio: u64,
    with_profiles: bool,
) -> CoreObservation {
    let baseline_ways = platform.baseline_ways_per_core();
    let decay = 1.0 - decay_percent as f64 / 100.0;
    let misses: Vec<u64> = (0..16)
        .map(|w| (base_misses as f64 * decay.powi(w)) as u64)
        .collect();
    let ratio = 1.0 + mlp_ratio as f64 / 10.0;
    let leading: Vec<Vec<u64>> = (0..3)
        .map(|s| {
            misses
                .iter()
                .map(|&m| (m as f64 / (1.0 + s as f64 * (ratio - 1.0))).round() as u64)
                .collect()
        })
        .collect();
    let freq = platform.baseline_freq();
    let freq_hz = platform.vf.point(freq).freq_hz();
    let exec_cycles = 110_000_000u64;
    let stall = leading[1][baseline_ways - 1] as f64 * 70e-9;
    let elapsed = exec_cycles as f64 / freq_hz + stall;
    CoreObservation {
        app: AppId(0),
        stats: IntervalStats {
            instructions: 100_000_000,
            cycles: (elapsed * freq_hz) as u64,
            exec_cycles,
            llc_accesses: 2_000_000,
            llc_misses: misses[baseline_ways - 1],
            leading_misses: leading[1][baseline_ways - 1],
            elapsed_seconds: elapsed,
            freq,
            core_size: platform.baseline_core_size,
            ways: baseline_ways,
        },
        miss_profile: MissProfile::new(misses),
        mlp_profile: with_profiles.then(|| MlpProfile::new(leading)),
        scaling_profile: with_profiles.then(|| CoreScalingProfile::new(vec![1.4, 1.1, 1.1])),
        perfect: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Local optimization invariants, across a range of application shapes:
    /// the baseline allocation is always feasible, the curve is monotone in
    /// energy, and relaxing the QoS target never increases the optimum.
    #[test]
    fn local_optimizer_invariants(
        base_misses in 10_000u64..2_000_000,
        decay_percent in 0u64..20,
        mlp_ratio in 0u64..30,
        relaxation in 0u64..6,
    ) {
        let platform = PlatformConfig::paper2(4);
        let optimizer = LocalOptimizer::new(
            &platform,
            LocalOptimizerConfig {
                control_dvfs: true,
                control_core_size: true,
                model: ModelKind::MlpAware,
                energy_params: power_model::EnergyParams::default(),
            },
        );
        let obs = observation(base_misses, decay_percent, mlp_ratio);
        let strict = optimizer.energy_curve(&obs, QosSpec::STRICT);
        let baseline_ways = platform.baseline_ways_per_core();
        prop_assert!(strict.point(baseline_ways).is_some(),
            "baseline allocation must always meet the baseline-defined target");
        for w in 2..=16usize {
            prop_assert!(strict.energy(w) <= strict.energy(w - 1) + 1e-12);
        }
        let relaxed = optimizer.energy_curve(&obs, QosSpec::relaxed_by(relaxation as f64 / 10.0));
        for w in 1..=16usize {
            prop_assert!(relaxed.energy(w) <= strict.energy(w) + 1e-12,
                "relaxing the target cannot make the optimum worse at {w} ways");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The manager's incremental delta path emits bit-identical settings to
    /// the cold manager across random sequences of per-core observation
    /// deltas: every round re-invokes all cores, but only the cores whose
    /// observation actually changed may rebuild their curve. Covers RM2,
    /// RM3 and both game-theoretic global steps on 4 and 8 cores, with a
    /// mid-run `reset` and a round at a narrower core count, all of which
    /// reuse or clear the manager's retained per-core curves.
    #[test]
    fn delta_path_manager_matches_cold_rebuild(
        manager in 0usize..4,
        wide in 0usize..2,
        bases in prop::collection::vec(10_000u64..2_000_000, 8),
        decays in prop::collection::vec(0u64..20, 8),
        deltas in prop::collection::vec((0usize..8, 10_000u64..2_000_000), 1..5),
        reset_before in 0usize..6,
        narrow_before in 0usize..6,
    ) {
        let cores = if wide == 1 { 8 } else { 4 };
        let platform = PlatformConfig::paper2(cores);
        let build = || {
            let qos = vec![QosSpec::STRICT; cores];
            match manager {
                0 => CoordinatedRma::paper1(&platform, qos),
                1 => CoordinatedRma::paper2(&platform, qos),
                2 => CoordinatedRma::nash_best_response(&platform, qos),
                _ => CoordinatedRma::nash_equilibrium(&platform, qos),
            }
        };
        let mut cold = build();
        let mut delta = build().with_incremental();
        cold.reset(cores);
        delta.reset(cores);
        let mut observations: Vec<CoreObservation> = (0..cores)
            .map(|i| observation_on(&platform, bases[i], decays[i], 5 + i as u64, true))
            .collect();
        let mut cold_setting = SystemSetting::baseline(&platform);
        let mut delta_setting = SystemSetting::baseline(&platform);
        let round = |cold: &mut CoordinatedRma,
                     delta: &mut CoordinatedRma,
                     observations: &[CoreObservation],
                     cold_setting: &mut SystemSetting,
                     delta_setting: &mut SystemSetting|
         -> Result<(), String> {
            for (i, obs) in observations.iter().enumerate() {
                *cold_setting = cold.on_interval(CoreId(i), obs, cold_setting);
                *delta_setting = delta.on_interval(CoreId(i), obs, delta_setting);
                prop_assert!(delta_setting == cold_setting,
                    "delta path diverged at core {}", i);
            }
            Ok(())
        };
        round(&mut cold, &mut delta, &observations,
            &mut cold_setting, &mut delta_setting)?;
        for (step, (core, new_base)) in deltas.into_iter().enumerate() {
            if step == reset_before {
                cold.reset(cores);
                delta.reset(cores);
                cold_setting = SystemSetting::baseline(&platform);
                delta_setting = SystemSetting::baseline(&platform);
            }
            if step == narrow_before {
                // A two-core round resizes the retained curves; the next
                // full-width round resizes them back and starts cold.
                let narrow = SystemSetting::baseline(&PlatformConfig::paper2(2));
                let (mut cold_narrow, mut delta_narrow) = (narrow.clone(), narrow);
                round(&mut cold, &mut delta, &observations[..2],
                    &mut cold_narrow, &mut delta_narrow)?;
                cold_setting = SystemSetting::baseline(&platform);
                delta_setting = SystemSetting::baseline(&platform);
            }
            let core = core % cores;
            observations[core] =
                observation_on(&platform, new_base, decays[core], 5 + core as u64, true);
            round(&mut cold, &mut delta, &observations,
                &mut cold_setting, &mut delta_setting)?;
        }
        // One unchanged round: every core of the delta manager reuses its
        // curve.
        round(&mut cold, &mut delta, &observations,
            &mut cold_setting, &mut delta_setting)?;
        // The delta path never builds more curves than the cold manager,
        // reuses at least the unchanged cores, and leaves the game solvers'
        // work untouched.
        let cold_counters = cold.work_counters();
        let delta_counters = delta.work_counters();
        prop_assert_eq!(cold_counters.invocations, delta_counters.invocations);
        prop_assert!(delta_counters.curve_builds <= cold_counters.curve_builds);
        prop_assert!(delta_counters.delta_invocations >= cores as u64);
        prop_assert_eq!(cold_counters.qos_at_risk_intervals, delta_counters.qos_at_risk_intervals);
        prop_assert_eq!(cold_counters.game_rounds, delta_counters.game_rounds);
        prop_assert_eq!(
            cold_counters.best_response_evaluations,
            delta_counters.best_response_evaluations
        );
        prop_assert_eq!(cold_counters.equilibria_examined, delta_counters.equilibria_examined);
    }
}

/// Deterministic pseudo-random ground-truth table for the Perfect-model
/// axis: times vary non-monotonically in every dimension so the builder's
/// full-scan table path is exercised (the feasibility partition point must
/// NOT be applied to table times).
fn perfect_table(platform: &PlatformConfig, seed: u64) -> qosrm_types::ConfigTable {
    qosrm_types::ConfigTable::from_fn(
        platform.num_core_sizes(),
        platform.vf.num_levels(),
        platform.llc.associativity,
        |s, f, w| {
            let mut x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((s.index() * 1000 + f.index() * 50 + w) as u64);
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            qosrm_types::ConfigMetrics {
                time_seconds: 0.02 + (x % 1000) as f64 * 1e-4,
                energy_joules: 0.5 + ((x >> 10) % 1000) as f64 * 1e-2,
                llc_misses: x % 100_000,
                leading_misses: x % 50_000,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The staged `CurveBuilder` is bit-identical to the scalar reference
    /// across random observations, QoS relaxations, platform axes (Paper I
    /// medium-only cores, Paper II 4- and 8-core), every analytical model,
    /// and observations lacking the Paper II MLP/ILP profiles.
    #[test]
    fn batched_builder_is_bit_identical_to_scalar(
        base_misses in 10_000u64..2_000_000,
        decay_percent in 0u64..20,
        mlp_ratio in 0u64..30,
        relaxation in 0u64..6,
        with_profiles in 0usize..2,
        platform_axis in 0usize..3,
        model_axis in 0usize..4,
        control_dvfs in 0usize..2,
        control_core in 0usize..2,
    ) {
        let platform = match platform_axis {
            0 => PlatformConfig::paper1(4),
            1 => PlatformConfig::paper2(4),
            _ => PlatformConfig::paper2(8),
        };
        let model = [
            ModelKind::SimpleLatency,
            ModelKind::ConstantMlp,
            ModelKind::MlpAware,
            // No table on the observation: Perfect degrades to the
            // constant-MLP analytical path, which must also match.
            ModelKind::Perfect,
        ][model_axis];
        let obs = observation_on(
            &platform,
            base_misses,
            decay_percent,
            mlp_ratio,
            with_profiles == 1,
        );
        let optimizer = LocalOptimizer::new(
            &platform,
            LocalOptimizerConfig {
                control_dvfs: control_dvfs == 1,
                control_core_size: control_core == 1,
                model,
                energy_params: power_model::EnergyParams::default(),
            },
        );
        let qos = QosSpec::relaxed_by(relaxation as f64 / 10.0);
        let batched = optimizer.energy_curve(&obs, qos);
        let scalar = optimizer.energy_curve_scalar_reference(&obs, qos);
        prop_assert_eq!(batched, scalar);
    }

    /// Same bit-identity with a Perfect-model ground-truth table attached:
    /// table times are arbitrary (non-monotone in frequency), so this pins
    /// the builder's full-scan table path.
    #[test]
    fn batched_builder_is_bit_identical_on_perfect_tables(
        base_misses in 10_000u64..2_000_000,
        seed in 0u64..10_000,
        relaxation in 0u64..6,
        platform_axis in 0usize..2,
        control_core in 0usize..2,
    ) {
        let platform = match platform_axis {
            0 => PlatformConfig::paper1(4),
            _ => PlatformConfig::paper2(4),
        };
        let mut obs = observation_on(&platform, base_misses, 10, 5, true);
        obs.perfect = Some(perfect_table(&platform, seed));
        let optimizer = LocalOptimizer::new(
            &platform,
            LocalOptimizerConfig {
                control_dvfs: true,
                control_core_size: control_core == 1,
                model: ModelKind::Perfect,
                energy_params: power_model::EnergyParams::default(),
            },
        );
        let qos = QosSpec::relaxed_by(relaxation as f64 / 10.0);
        let batched = optimizer.energy_curve_counted(&obs, qos);
        let scalar = optimizer.energy_curve_scalar_reference(&obs, qos);
        prop_assert_eq!(&batched.curve, &scalar);
        // The table path reads every cell: its measured count is exactly the
        // worst-case bound.
        prop_assert_eq!(batched.evaluations, optimizer.evaluations_per_invocation());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every converged iterated-best-response outcome passes the
    /// independent exhaustive `is_pure_nash` verifier exactly — the
    /// solver never consults the checker, so this adversarially validates
    /// the solver's fixed points against the equilibrium definition on
    /// arbitrary random curves (non-monotone, random infeasible prefixes).
    #[test]
    fn converged_best_response_outcomes_are_pure_nash(
        curves in prop::collection::vec(curve_strategy(16), 2..5),
        total_ways in 8usize..17,
    ) {
        let (outcome, stats) = best_response(&curves, total_ways, &GameConfig::default());
        if let Some(outcome) = outcome {
            prop_assert!(stats.rounds >= 1);
            prop_assert!(stats.evaluations > 0);
            // The slack-allowed invariants hold regardless of convergence.
            let used: usize = outcome.strategies.iter().sum();
            prop_assert!(used <= total_ways);
            prop_assert!(outcome.strategies.iter().all(|&w| w >= 1));
            prop_assert!(
                (outcome.total_energy - total_energy(&curves, &outcome.strategies)).abs() < 1e-9
            );
            if outcome.converged {
                prop_assert!(
                    is_pure_nash(&curves, total_ways, &outcome.strategies),
                    "converged outcome {:?} is not a pure Nash equilibrium",
                    outcome.strategies
                );
            }
        }
    }

    /// Equilibrium selection returns the minimum-total-energy equilibrium
    /// on 2–4-core curves with holes anywhere: brute-force every strategy
    /// vector, keep those the independent checker certifies, and the
    /// solver must agree on existence and on the cheapest total, with an
    /// outcome that passes the checker itself.
    #[test]
    fn equilibrium_selection_is_the_minimum_energy_equilibrium(
        curves in prop::collection::vec(holey_curve_strategy(8), 2..5),
    ) {
        let total_ways = 8usize;
        let (outcome, stats) = min_energy_equilibrium(&curves, total_ways);

        let mut brute_best: Option<f64> = None;
        let mut vector = vec![1usize; curves.len()];
        loop {
            if is_pure_nash(&curves, total_ways, &vector) {
                let e = total_energy(&curves, &vector);
                if brute_best.is_none_or(|b| e < b) {
                    brute_best = Some(e);
                }
            }
            // Odometer over {1..=8}^n.
            let mut i = 0;
            loop {
                if i == vector.len() {
                    break;
                }
                vector[i] += 1;
                if vector[i] <= 8 {
                    break;
                }
                vector[i] = 1;
                i += 1;
            }
            if i == vector.len() {
                break;
            }
        }

        match (outcome, brute_best) {
            (Ok(outcome), Some(best)) => {
                prop_assert!(outcome.converged);
                prop_assert_eq!(stats.equilibria_examined, 1);
                prop_assert!(
                    is_pure_nash(&curves, total_ways, &outcome.strategies),
                    "selected outcome {:?} is not an equilibrium",
                    outcome.strategies
                );
                prop_assert!(
                    (outcome.total_energy - best).abs() < 1e-9,
                    "selected {} but the cheapest equilibrium costs {}",
                    outcome.total_energy,
                    best
                );
            }
            (Err(EquilibriumError::Infeasible), None) => {
                prop_assert_eq!(stats.equilibria_examined, 0);
            }
            (outcome, brute) => prop_assert!(
                false,
                "existence disagreement: solver={outcome:?} brute={brute:?}"
            ),
        }
    }

    /// At 16–32 cores on 64 ways — far past what enumeration could reach —
    /// every outcome passes the certificate, and the solver reports
    /// infeasibility exactly when the cores' minimal feasible way counts
    /// do not fit.
    #[test]
    fn equilibrium_selection_certifies_many_core_outcomes(
        curves in prop::collection::vec(curve_strategy(64), 16..33),
    ) {
        let total_ways = 64usize;
        let minimal: usize = curves.iter().map(|c| c.min_feasible_ways().unwrap()).sum();
        let (outcome, stats) = min_energy_equilibrium(&curves, total_ways);
        if minimal > total_ways {
            prop_assert_eq!(outcome, Err(EquilibriumError::Infeasible));
        } else {
            let outcome = outcome.expect("feasible many-core games are certified");
            prop_assert!(is_pure_nash(&curves, total_ways, &outcome.strategies));
            prop_assert!(outcome.strategies.iter().sum::<usize>() <= total_ways);
            prop_assert_eq!(stats.equilibria_examined, 1);
            prop_assert!(stats.reduction.ops > 0);
        }
    }

    /// PoA = 1 is an invariant, not a measurement: on smoothed curves the
    /// per-core energies the equilibrium solver picks are bitwise those of
    /// the cooperative arbiter, and so is their total.
    #[test]
    fn equilibrium_energies_are_bitwise_the_cooperative_optimum(
        curves in prop::collection::vec(curve_strategy(16), 2..9),
        total_ways in 8usize..17,
    ) {
        let mut smoothed = curves;
        for c in &mut smoothed {
            c.smooth_monotone();
        }
        let coop = optimize_partition(&smoothed, total_ways);
        let (equilibrium, _) = min_energy_equilibrium(&smoothed, total_ways);
        prop_assert_eq!(coop.is_some(), equilibrium.is_ok());
        if let (Some(coop), Ok(equilibrium)) = (coop, equilibrium) {
            let coop_bits: Vec<u64> =
                coop.iter().map(|(_, p)| p.energy_joules.to_bits()).collect();
            let eq_bits: Vec<u64> =
                equilibrium.points.iter().map(|p| p.energy_joules.to_bits()).collect();
            prop_assert_eq!(coop_bits, eq_bits);
            let coop_total: f64 = coop.iter().map(|(_, p)| p.energy_joules).sum();
            prop_assert_eq!(coop_total.to_bits(), equilibrium.total_energy.to_bits());
        }
    }

    /// Price of anarchy is at least 1 (up to float noise): no best-response
    /// outcome beats the cooperative optimum on the smoothed curves, whose
    /// exact-sum optimum equals the slack-allowed one (free disposal). Both
    /// solvers also agree with the arbiter on feasibility.
    #[test]
    fn price_of_anarchy_is_at_least_one(
        curves in prop::collection::vec(curve_strategy(16), 2..5),
        total_ways in 8usize..17,
    ) {
        let mut smoothed = curves.clone();
        for c in &mut smoothed {
            c.smooth_monotone();
        }
        let coop = optimize_partition(&smoothed, total_ways);
        let (nash, _) = best_response(&curves, total_ways, &GameConfig::default());
        let (equilibrium, _) = min_energy_equilibrium(&curves, total_ways);
        prop_assert_eq!(coop.is_some(), nash.is_some());
        prop_assert_eq!(coop.is_some(), equilibrium.is_ok());
        if let (Some(coop), Some(nash), Ok(equilibrium)) = (coop, nash, equilibrium) {
            let coop_energy: f64 = coop.iter().map(|(_, p)| p.energy_joules).sum();
            prop_assert!(
                nash.total_energy >= coop_energy - 1e-9,
                "PoA < 1: best response found {} below the cooperative {}",
                nash.total_energy,
                coop_energy
            );
            prop_assert!(equilibrium.total_energy >= coop_energy - 1e-9);
            // The selected equilibrium is never worse than an arbitrary
            // best-response fixed point it coexists with.
            if nash.converged {
                prop_assert!(equilibrium.total_energy <= nash.total_energy + 1e-9);
            }
        }
    }

    /// Determinism: re-solving the same instance yields byte-identical
    /// serialized outcomes and identical work counters.
    #[test]
    fn game_outcomes_serialize_deterministically(
        curves in prop::collection::vec(curve_strategy(16), 2..5),
        total_ways in 8usize..17,
    ) {
        let first = best_response(&curves, total_ways, &GameConfig::default());
        let second = best_response(&curves, total_ways, &GameConfig::default());
        prop_assert_eq!(&first.1, &second.1);
        prop_assert_eq!(
            serde_json::to_string(&first.0).unwrap(),
            serde_json::to_string(&second.0).unwrap()
        );
        let first = min_energy_equilibrium(&curves, total_ways);
        let second = min_energy_equilibrium(&curves, total_ways);
        prop_assert_eq!(&first.1, &second.1);
        prop_assert_eq!(
            serde_json::to_string(&first.0.ok()).unwrap(),
            serde_json::to_string(&second.0.ok()).unwrap()
        );
    }
}
