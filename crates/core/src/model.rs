//! Analytical performance and energy models used by the resource manager.
//!
//! The models only use information available to the RMA at run time: the
//! hardware performance counters of the past interval, the ATD miss profile
//! and (Paper II) the MLP-aware ATD / ILP-monitor profiles. The paper
//! evaluates three performance models of increasing fidelity plus a perfect
//! oracle:
//!
//! * **Model 1** — memory stall time is the total number of misses times the
//!   average memory latency (no miss overlap).
//! * **Model 2** (Paper I) — the measured MLP of the past interval is assumed
//!   constant across configurations; stall time is `misses · latency / MLP`.
//! * **Model 3** (Paper II) — the MLP-aware ATD provides the number of
//!   leading (non-overlapped) misses per core size and way count; stall time
//!   is `leading_misses · latency`.
//! * **Perfect** — the ground-truth table of the upcoming interval is used
//!   directly (isolates the effect of modeling error).

use power_model::EnergyParams;
use qosrm_types::{CoreObservation, CoreSizeIdx, FreqLevel, PlatformConfig};
use serde::{Deserialize, Serialize};

/// Which performance model the resource manager uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Model 1: stall time = total misses × flat memory latency.
    SimpleLatency,
    /// Model 2 (Paper I): constant MLP equal to the measured MLP of the past
    /// interval.
    ConstantMlp,
    /// Model 3 (Paper II): leading misses from the MLP-aware ATD.
    MlpAware,
    /// Oracle: use the ground-truth table supplied with the observation.
    Perfect,
}

/// A predicted interval outcome for one candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted interval time in seconds.
    pub time_seconds: f64,
    /// Predicted LLC misses.
    pub llc_misses: u64,
    /// Predicted energy in joules.
    pub energy_joules: f64,
}

/// The analytical performance model.
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    kind: ModelKind,
    memory_latency_s: f64,
}

impl PerformanceModel {
    /// Creates a model of the given kind for a platform.
    pub fn new(kind: ModelKind, platform: &PlatformConfig) -> Self {
        PerformanceModel {
            kind,
            memory_latency_s: platform.memory.latency_ns * 1e-9,
        }
    }

    /// The model kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predicted execution CPI of the observed application on core size
    /// `size`.
    ///
    /// With the Paper II ILP monitor the per-size estimate is read directly;
    /// without it the measured execution CPI of the past interval is used
    /// (valid because Paper I never changes the core size).
    pub fn exec_cpi(&self, observation: &CoreObservation, size: CoreSizeIdx) -> f64 {
        match &observation.scaling_profile {
            Some(profile) if size.index() < profile.num_core_sizes() => profile.exec_cpi(size),
            _ => observation.stats.exec_cpi(),
        }
    }

    /// Predicted LLC misses with `ways` allocated ways (from the ATD).
    pub fn misses(&self, observation: &CoreObservation, ways: usize) -> u64 {
        let profile = &observation.miss_profile;
        profile.misses_at(ways.min(profile.max_ways()))
    }

    /// Predicted interval time at configuration `(size, freq, ways)`.
    pub fn time(
        &self,
        observation: &CoreObservation,
        platform: &PlatformConfig,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
    ) -> f64 {
        if self.kind == ModelKind::Perfect {
            if let Some(table) = &observation.perfect {
                return table.get(size, freq, ways).time_seconds;
            }
        }
        let n = observation.stats.instructions as f64;
        let freq_hz = platform.vf.point(freq).freq_hz();
        let exec_seconds = n * self.exec_cpi(observation, size) / freq_hz;
        let stall_seconds = self.stall_seconds(observation, size, ways);
        exec_seconds + stall_seconds
    }

    /// Predicted memory stall seconds at `(size, ways)`.
    pub fn stall_seconds(
        &self,
        observation: &CoreObservation,
        size: CoreSizeIdx,
        ways: usize,
    ) -> f64 {
        let misses = self.misses(observation, ways) as f64;
        match self.kind {
            ModelKind::SimpleLatency => misses * self.memory_latency_s,
            ModelKind::ConstantMlp => {
                let mlp = observation.stats.measured_mlp().max(1.0);
                misses * self.memory_latency_s / mlp
            }
            ModelKind::MlpAware => match &observation.mlp_profile {
                Some(profile) if size.index() < profile.num_core_sizes() => {
                    let ways = ways.min(profile.max_ways());
                    profile.leading_at(size, ways) as f64 * self.memory_latency_s
                }
                // Fall back to the constant-MLP assumption when the Paper II
                // hardware is absent.
                _ => {
                    let mlp = observation.stats.measured_mlp().max(1.0);
                    misses * self.memory_latency_s / mlp
                }
            },
            ModelKind::Perfect => {
                // Only reached when no perfect table was supplied; degrade to
                // the constant-MLP model.
                let mlp = observation.stats.measured_mlp().max(1.0);
                misses * self.memory_latency_s / mlp
            }
        }
    }
}

/// The analytical energy model: the same component structure as the
/// McPAT-substitute ground truth, evaluated on *predicted* time and misses.
#[derive(Debug, Clone)]
pub struct AnalyticalEnergyModel {
    params: EnergyParams,
}

impl AnalyticalEnergyModel {
    /// Creates the model from the platform's energy calibration.
    pub fn new(params: EnergyParams) -> Self {
        AnalyticalEnergyModel { params }
    }

    /// The energy calibration the model evaluates with (read by the batched
    /// [`crate::curve_builder::CurveBuilder`], which stages these parameters
    /// into per-axis rows instead of re-reading them per candidate).
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Predicted energy of one interval at configuration `(size, freq, ways)`
    /// given the predicted time and misses.
    #[allow(clippy::too_many_arguments)]
    pub fn energy(
        &self,
        observation: &CoreObservation,
        platform: &PlatformConfig,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
        predicted_time: f64,
        predicted_misses: u64,
    ) -> f64 {
        let p = &self.params;
        let core = platform.core_size(size);
        let voltage = platform.vf.point(freq).voltage;
        let v_ratio2 = (voltage / p.nominal_voltage).powi(2);
        let n = observation.stats.instructions as f64;

        let core_dynamic = n * p.core_epi_nominal * core.dynamic_epi_scale * v_ratio2;
        let core_static =
            p.core_static_power_nominal * core.static_power_scale * v_ratio2 * predicted_time;
        let llc_dynamic = observation.stats.llc_accesses as f64 * p.llc_access_energy;
        let llc_static = p.llc_static_power_per_way * ways as f64 * predicted_time;
        let dram_dynamic = predicted_misses as f64 * p.dram_access_energy;
        let dram_background = p.dram_background_power / platform.num_cores as f64 * predicted_time;

        core_dynamic + core_static + llc_dynamic + llc_static + dram_dynamic + dram_background
    }
}

/// Convenience wrapper bundling the performance and energy models and
/// producing full [`Prediction`]s.
#[derive(Debug, Clone)]
pub struct PredictionModel {
    perf: PerformanceModel,
    energy: AnalyticalEnergyModel,
}

impl PredictionModel {
    /// Creates the combined model.
    pub fn new(kind: ModelKind, platform: &PlatformConfig, params: EnergyParams) -> Self {
        PredictionModel {
            perf: PerformanceModel::new(kind, platform),
            energy: AnalyticalEnergyModel::new(params),
        }
    }

    /// The performance model.
    pub fn performance(&self) -> &PerformanceModel {
        &self.perf
    }

    /// The energy model.
    pub fn energy_model(&self) -> &AnalyticalEnergyModel {
        &self.energy
    }

    /// Predicts time, misses and energy at one configuration.
    pub fn predict(
        &self,
        observation: &CoreObservation,
        platform: &PlatformConfig,
        size: CoreSizeIdx,
        freq: FreqLevel,
        ways: usize,
    ) -> Prediction {
        if self.perf.kind() == ModelKind::Perfect {
            if let Some(table) = &observation.perfect {
                let m = table.get(size, freq, ways);
                return Prediction {
                    time_seconds: m.time_seconds,
                    llc_misses: m.llc_misses,
                    energy_joules: m.energy_joules,
                };
            }
        }
        let time = self.perf.time(observation, platform, size, freq, ways);
        let misses = self.perf.misses(observation, ways);
        let energy = self
            .energy
            .energy(observation, platform, size, freq, ways, time, misses);
        Prediction {
            time_seconds: time,
            llc_misses: misses,
            energy_joules: energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::{
        AppId, CoreScalingProfile, IntervalStats, MissProfile, MlpProfile, SystemSetting,
    };

    fn platform() -> PlatformConfig {
        PlatformConfig::paper2(4)
    }

    fn observation(with_mlp: bool) -> CoreObservation {
        let p = platform();
        let baseline = SystemSetting::baseline(&p).core(qosrm_types::CoreId(0));
        let misses: Vec<u64> = (0..16).map(|w| 800_000 - 30_000 * w as u64).collect();
        let leading = vec![
            misses
                .iter()
                .map(|&m| (m as f64 * 0.95) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.60) as u64)
                .collect::<Vec<_>>(),
            misses
                .iter()
                .map(|&m| (m as f64 * 0.35) as u64)
                .collect::<Vec<_>>(),
        ];
        CoreObservation {
            app: AppId(0),
            stats: IntervalStats {
                instructions: 100_000_000,
                cycles: 220_000_000,
                exec_cycles: 110_000_000,
                llc_accesses: 2_000_000,
                llc_misses: misses[baseline.ways - 1],
                leading_misses: leading[1][baseline.ways - 1],
                elapsed_seconds: 0.11,
                freq: baseline.freq,
                core_size: baseline.core_size,
                ways: baseline.ways,
            },
            miss_profile: MissProfile::new(misses),
            mlp_profile: if with_mlp {
                Some(MlpProfile::new(leading))
            } else {
                None
            },
            scaling_profile: if with_mlp {
                Some(CoreScalingProfile::new(vec![1.4, 1.1, 0.9]))
            } else {
                None
            },
            perfect: None,
        }
    }

    #[test]
    fn model1_predicts_longer_stalls_than_model2_and_3() {
        let p = platform();
        let obs = observation(true);
        let m1 = PerformanceModel::new(ModelKind::SimpleLatency, &p);
        let m2 = PerformanceModel::new(ModelKind::ConstantMlp, &p);
        let m3 = PerformanceModel::new(ModelKind::MlpAware, &p);
        let size = CoreSizeIdx(1);
        let s1 = m1.stall_seconds(&obs, size, 4);
        let s2 = m2.stall_seconds(&obs, size, 4);
        let s3 = m3.stall_seconds(&obs, size, 4);
        assert!(s1 > s2, "no-overlap model must predict the longest stall");
        assert!(s1 > s3);
        assert!(s2 > 0.0 && s3 > 0.0);
    }

    #[test]
    fn model3_sees_core_size_effect_on_stalls() {
        let p = platform();
        let obs = observation(true);
        let m3 = PerformanceModel::new(ModelKind::MlpAware, &p);
        let small = m3.stall_seconds(&obs, CoreSizeIdx(0), 4);
        let large = m3.stall_seconds(&obs, CoreSizeIdx(2), 4);
        assert!(large < small);

        // Model 2 cannot distinguish core sizes.
        let m2 = PerformanceModel::new(ModelKind::ConstantMlp, &p);
        assert_eq!(
            m2.stall_seconds(&obs, CoreSizeIdx(0), 4),
            m2.stall_seconds(&obs, CoreSizeIdx(2), 4)
        );
    }

    #[test]
    fn higher_frequency_reduces_predicted_time() {
        let p = platform();
        let obs = observation(true);
        let model = PredictionModel::new(ModelKind::ConstantMlp, &p, EnergyParams::default());
        let slow = model.predict(&obs, &p, CoreSizeIdx(1), FreqLevel(0), 4);
        let fast = model.predict(&obs, &p, CoreSizeIdx(1), FreqLevel(12), 4);
        assert!(fast.time_seconds < slow.time_seconds);
        assert!(fast.energy_joules > slow.energy_joules);
    }

    #[test]
    fn more_ways_reduce_predicted_misses_and_time() {
        let p = platform();
        let obs = observation(true);
        let model = PredictionModel::new(ModelKind::MlpAware, &p, EnergyParams::default());
        let few = model.predict(&obs, &p, CoreSizeIdx(1), FreqLevel(6), 2);
        let many = model.predict(&obs, &p, CoreSizeIdx(1), FreqLevel(6), 12);
        assert!(many.llc_misses < few.llc_misses);
        assert!(many.time_seconds < few.time_seconds);
    }

    #[test]
    fn missing_mlp_hardware_falls_back_to_constant_mlp() {
        let p = platform();
        let obs = observation(false);
        let m3 = PerformanceModel::new(ModelKind::MlpAware, &p);
        let m2 = PerformanceModel::new(ModelKind::ConstantMlp, &p);
        assert!(
            (m3.stall_seconds(&obs, CoreSizeIdx(1), 4) - m2.stall_seconds(&obs, CoreSizeIdx(1), 4))
                .abs()
                < 1e-12
        );
        // Without the ILP monitor the same CPI is used for every size.
        assert_eq!(
            m3.exec_cpi(&obs, CoreSizeIdx(0)),
            m3.exec_cpi(&obs, CoreSizeIdx(2))
        );
    }

    #[test]
    fn perfect_model_reads_the_table() {
        use qosrm_types::{ConfigMetrics, ConfigTable};
        let p = platform();
        let mut obs = observation(true);
        obs.perfect = Some(ConfigTable::from_fn(3, 13, 16, |s, f, w| ConfigMetrics {
            time_seconds: 0.001 * (s.index() + 1) as f64 * (f.index() + 1) as f64 * w as f64,
            energy_joules: 42.0,
            llc_misses: 7,
            leading_misses: 3,
        }));
        let model = PredictionModel::new(ModelKind::Perfect, &p, EnergyParams::default());
        let pred = model.predict(&obs, &p, CoreSizeIdx(1), FreqLevel(2), 5);
        assert!((pred.time_seconds - 0.001 * 2.0 * 3.0 * 5.0).abs() < 1e-12);
        assert!((pred.energy_joules - 42.0).abs() < 1e-12);
        assert_eq!(pred.llc_misses, 7);
    }
}
