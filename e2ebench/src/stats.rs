//! Order statistics of timing samples.
//!
//! Percentiles are nearest-rank: the reported value is an actual sample, so
//! "how many samples lie beyond it" is a whole number. A tail percentile is
//! only meaningful when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p90 needs at least 100 samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (a member of the sample set; 0 when empty).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the value.
    pub fn tail_supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Rank (1-based) of the nearest-rank `q`-percentile in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.9 * 100.0 = 90.00000000000001` at rank 90.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q`-percentile (`q` in `(0, 1]`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    if samples.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len(), q);
    Percentile {
        value: sorted[r - 1],
        samples: sorted.len(),
        beyond: sorted.len() - r,
    }
}

/// The median (mean of the two middle samples for an even count; 0 when
/// empty). Used to summarise repetitions, not latency tails.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}
