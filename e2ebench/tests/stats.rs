//! The percentile helper and its tail-support rule.

use e2ebench::stats::{median, percentile, MIN_BEYOND};

#[test]
fn nearest_rank_percentiles_are_samples() {
    let samples: Vec<f64> = (1..=10).map(f64::from).collect();
    let p50 = percentile(&samples, 0.5);
    assert_eq!(p50.value, 5.0);
    assert_eq!(p50.beyond, 5);
    let p90 = percentile(&samples, 0.9);
    assert_eq!(p90.value, 9.0);
    assert_eq!(p90.beyond, 1);
    assert_eq!(percentile(&samples, 1.0).value, 10.0);
    // Order of the input does not matter.
    let reversed: Vec<f64> = samples.iter().rev().copied().collect();
    assert_eq!(percentile(&reversed, 0.9), p90);
    assert_eq!(percentile(&[], 0.9).samples, 0);
}

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p90 of exactly 100 samples is the 90th; ten lie beyond it.
    let hundred: Vec<f64> = (0..100).map(f64::from).collect();
    let p90 = percentile(&hundred, 0.9);
    assert_eq!(p90.value, 89.0);
    assert_eq!(p90.beyond, 10);
    assert!(p90.tail_supported());
    let ninety_nine = &hundred[..99];
    assert!(!percentile(ninety_nine, 0.9).tail_supported());
    for n in [100, 101, 150, 1000] {
        let samples: Vec<f64> = (0..n).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).tail_supported(), "n = {n}");
    }
    // The median needs 20 samples, p99 a thousand.
    let twenty: Vec<f64> = (0..20).map(f64::from).collect();
    assert!(percentile(&twenty, 0.5).tail_supported());
    assert!(!percentile(&twenty[..19], 0.5).tail_supported());
    let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
    assert!(percentile(&thousand, 0.99).tail_supported());
    assert!(!percentile(&thousand[..999], 0.99).tail_supported());
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}
