//! Order statistics used by the benchmark and by `compare`.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) — the rule the acceptance driver applies to ten runs.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread figure the
/// acceptance driver compares against each metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-quantile (`0 < p <= 1`) of an ascending slice by nearest
/// rank. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Percentiles a tail may be reported at, ascending.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest candidate percentile that still has at least ten
/// samples beyond it, and the latency there: `(percentile, value)`.
/// `None` when even the median has fewer than ten samples above it.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len() as f64;
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&pct| n * (100.0 - pct) / 100.0 >= 10.0)
        .map(|&pct| (pct, quantile_sorted(sorted, pct / 100.0)))
}

/// Throughput as the median of per-window rates, plus the windows'
/// coefficient of variation (standard deviation ÷ mean). A median
/// ignores a window stolen by a noisy neighbour; the CV says how many
/// such windows there were.
pub fn window_stats(v: &[f64]) -> (f64, f64) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    (median(v), cv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_outlier() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One stolen second does not move the window median.
        let (tput, cv) = window_stats(&[
            100.0, 101.0, 99.0, 100.0, 3.0, 100.0, 102.0, 100.0, 98.0, 100.0, 101.0, 100.0,
        ]);
        assert_eq!(tput, 100.0);
        assert!(cv > 0.1, "the stolen window must show in the spread: {cv}");
        let (_, steady) = window_stats(&[100.0, 101.0, 99.0, 100.0]);
        assert!(steady < 0.01);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(5.5 / 5.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        // 1000 samples: p99 leaves 10 beyond it, p99.9 leaves 1.
        assert_eq!(supported_tail(&sorted), Some((99.0, 990)));
        let sorted: Vec<u64> = (1..=100_000).collect();
        assert_eq!(supported_tail(&sorted), Some((99.99, 99_990)));
        let sorted: Vec<u64> = (1..=20).collect();
        assert_eq!(supported_tail(&sorted), Some((50.0, 10)));
        let sorted: Vec<u64> = (1..=19).collect();
        assert_eq!(supported_tail(&sorted), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(quantile_sorted(&sorted, 0.5), 20);
        assert_eq!(quantile_sorted(&sorted, 0.75), 30);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40);
        assert_eq!(quantile_sorted(&sorted, 0.01), 10);
    }
}
