//! Metric summaries for experiment reporting.

use esr_sim::time::Duration;

/// A summary of a set of duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurationSummary {
    /// Number of samples.
    pub count: usize,
    /// Mean, in microseconds.
    pub mean_us: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl DurationSummary {
    /// Summarizes samples (order irrelevant). Zero samples → all-zero
    /// summary.
    pub fn of(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut us: Vec<u64> = samples.iter().map(|d| d.as_micros()).collect();
        us.sort_unstable();
        let total: u128 = us.iter().map(|&v| v as u128).sum();
        Self {
            count: us.len(),
            mean_us: (total / us.len() as u128) as u64,
            p50_us: percentile(&us, 50),
            p95_us: percentile(&us, 95),
            p99_us: percentile(&us, 99),
            max_us: *us.last().expect("non-empty"),
        }
    }
}

/// The `p`-th percentile (nearest-rank) of an ascending-sorted slice.
pub fn percentile(sorted_us: &[u64], p: u64) -> u64 {
    assert!(!sorted_us.is_empty());
    assert!(p <= 100);
    let rank = (p as usize * sorted_us.len()).div_ceil(100);
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Nearest-rank percentile with per-mille resolution (`p999` = 999), so
/// tail quantiles finer than 1% are expressible. Same convention as
/// [`percentile`]: `percentile_per_mille(v, 500)` == `percentile(v, 50)`.
pub fn percentile_per_mille(sorted_us: &[u64], p: u64) -> u64 {
    assert!(!sorted_us.is_empty());
    assert!(p <= 1000);
    let rank = (p as usize * sorted_us.len()).div_ceil(1000);
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Summary of integer samples (counts, charges, errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountSummary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub total: u64,
    /// Mean (rounded down).
    pub mean: u64,
    /// Maximum sample.
    pub max: u64,
}

impl CountSummary {
    /// Summarizes samples.
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let total: u64 = samples.iter().sum();
        Self {
            count: samples.len(),
            total,
            mean: total / samples.len() as u64,
            max: *samples.iter().max().expect("non-empty"),
        }
    }
}

/// Throughput in operations per (virtual) second.
pub fn throughput(ops: u64, elapsed: Duration) -> f64 {
    if elapsed == Duration::ZERO {
        return 0.0;
    }
    ops as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = DurationSummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_us, 0);
        assert_eq!(CountSummary::of(&[]), CountSummary::default());
    }

    #[test]
    fn summary_statistics() {
        let samples: Vec<Duration> = (1..=100).map(d).collect();
        let s = DurationSummary::of(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean_us, 50_500);
        assert_eq!(s.p50_us, 50_000);
        assert_eq!(s.p95_us, 95_000);
        assert_eq!(s.p99_us, 99_000);
        assert_eq!(s.max_us, 100_000);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = DurationSummary::of(&[d(3), d(1), d(2)]);
        let b = DurationSummary::of(&[d(1), d(2), d(3)]);
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(percentile(&v, 1), 10);
        assert_eq!(percentile(&v, 25), 10);
        assert_eq!(percentile(&v, 26), 20);
        assert_eq!(percentile(&v, 100), 40);
        assert_eq!(percentile(&v, 0), 10);
    }

    #[test]
    fn count_summary() {
        let s = CountSummary::of(&[1, 2, 3, 10]);
        assert_eq!(s.total, 16);
        assert_eq!(s.mean, 4);
        assert_eq!(s.max, 10);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn throughput_math() {
        assert_eq!(throughput(100, Duration::from_secs(2)), 50.0);
        assert_eq!(throughput(5, Duration::ZERO), 0.0);
    }
}
