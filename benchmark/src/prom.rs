//! Readers for the Prometheus text a daemon's `metrics` frame returns.
//! Every reader aggregates over all label sets of a metric name, so
//! per-site and per-link series fold into one figure.

/// `(labels, value)` of every sample line of exactly `name`.
fn samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    text.lines().filter_map(move |line| {
        let rest = line.strip_prefix(name)?;
        let (labels, value) = match rest.strip_prefix('{') {
            Some(r) => r.split_once("} ")?,
            None => ("", rest.strip_prefix(' ')?),
        };
        Some((labels, value.trim().parse().ok()?))
    })
}

/// Sum of a counter (or gauge) over all its label sets.
pub fn sum(text: &str, name: &str) -> f64 {
    samples(text, name).map(|(_, v)| v).sum()
}

/// Largest current value of a gauge over all its label sets.
pub fn gauge_max(text: &str, name: &str) -> u64 {
    samples(text, name)
        .map(|(_, v)| v as u64)
        .max()
        .unwrap_or(0)
}

/// Mean of a histogram (`_sum` ÷ `_count`); 0 when it saw nothing.
pub fn hist_mean(text: &str, name: &str) -> f64 {
    let count = sum(text, &format!("{name}_count"));
    if count == 0.0 {
        return 0.0;
    }
    sum(text, &format!("{name}_sum")) / count
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
esr_link_sends_total{link=\"0->1\"} 10
esr_link_sends_total{link=\"0->2\"} 12
esr_link_queue_depth{link=\"0->1\"} 3
esr_link_queue_depth{link=\"0->2\"} 7
esr_reactor_wakeups_total 99
esr_reactor_wakeups_total_other 1
esr_apply_latency_micros_bucket{site=\"0\",le=\"10\"} 2
esr_apply_latency_micros_bucket{site=\"0\",le=\"100\"} 4
esr_apply_latency_micros_bucket{site=\"0\",le=\"+Inf\"} 4
esr_apply_latency_micros_sum{site=\"0\"} 120
esr_apply_latency_micros_count{site=\"0\"} 4
";

    #[test]
    fn sums_and_maxima_fold_label_sets() {
        assert_eq!(sum(TEXT, "esr_link_sends_total"), 22.0);
        assert_eq!(gauge_max(TEXT, "esr_link_queue_depth"), 7);
        // An exact name never matches a longer one.
        assert_eq!(sum(TEXT, "esr_reactor_wakeups_total"), 99.0);
        assert_eq!(sum(TEXT, "absent"), 0.0);
        assert_eq!(gauge_max(TEXT, "absent"), 0);
    }

    #[test]
    fn histograms_merge_sites() {
        assert_eq!(hist_mean(TEXT, "esr_apply_latency_micros"), 30.0);
        assert_eq!(hist_mean(TEXT, "absent"), 0.0);
        let two_sites = format!("{TEXT}{}", TEXT.replace("site=\"0\"", "site=\"1\""));
        assert_eq!(hist_mean(&two_sites, "esr_apply_latency_micros"), 30.0);
    }
}
