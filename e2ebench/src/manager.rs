//! A forwarding [`ResourceManager`] that times `on_interval`.
//!
//! The simulator calls the manager through `dyn ResourceManager`, so the
//! benchmark can time the RMA from outside the crates by wrapping it. Every
//! trait method is forwarded — including the ones with default bodies — so
//! the wrapped manager behaves, and the simulated results come out,
//! exactly as without the wrapper.

use qosrm_types::{CoreId, CoreObservation, ResourceManager, SystemSetting};
use std::time::{Duration, Instant};

/// Wraps a manager, counting `on_interval` calls and their busy time.
#[derive(Debug)]
pub struct Forwarding<M> {
    inner: M,
    timed: bool,
    calls: u64,
    busy: Duration,
}

impl<M> Forwarding<M> {
    /// Wraps `inner`; `timed = false` forwards without reading the clock.
    pub fn new(inner: M, timed: bool) -> Self {
        Forwarding {
            inner,
            timed,
            calls: 0,
            busy: Duration::ZERO,
        }
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// `on_interval` calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Time spent inside the wrapped `on_interval` (zero when untimed).
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

impl<M: ResourceManager> ResourceManager for Forwarding<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_interval(
        &mut self,
        core: CoreId,
        observation: &CoreObservation,
        current: &SystemSetting,
    ) -> SystemSetting {
        self.calls += 1;
        if !self.timed {
            return self.inner.on_interval(core, observation, current);
        }
        let start = Instant::now();
        let next = self.inner.on_interval(core, observation, current);
        self.busy += start.elapsed();
        next
    }

    fn invocation_overhead_instructions(&self, num_cores: usize) -> u64 {
        self.inner.invocation_overhead_instructions(num_cores)
    }

    fn reset(&mut self, num_cores: usize) {
        self.inner.reset(num_cores)
    }

    fn qos_at_risk_intervals(&self) -> u64 {
        self.inner.qos_at_risk_intervals()
    }
}
