//! The metrics registry: named series of counters, gauges, and
//! histograms with deterministic snapshots and Prometheus-text
//! rendering.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** A handle ([`Counter`], [`Gauge`]) is one
//!    `Arc<Atomic*>`; updating it is a relaxed atomic RMW. The registry
//!    mutex is taken only at registration (site boot, link spawn) and
//!    at snapshot time — never per MSet.
//! 2. **Determinism.** Series are keyed in a `BTreeMap` by
//!    `(name, sorted labels)`, values are integers, and the registry
//!    never reads a clock. Two runs that perform the same instrument
//!    updates in the same order render byte-identical snapshots — the
//!    property the sim-determinism test pins down.
//! 3. **No dependencies.** `std` atomics and collections only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The histogram range covers `1 … 2^(BUCKET_POWERS-1)` (microseconds
/// in every current use); larger observations land in a `+Inf`
/// overflow bucket.
pub const BUCKET_POWERS: usize = 21;

/// Finite buckets in the log-linear histogram layout: bounds `1..=4`
/// one-wide, then every octave `(2^p, 2^(p+1)]` split into 4 equal
/// sub-buckets up to `2^(BUCKET_POWERS-1)`. Sub-bucketing caps the
/// relative bucket width at 25%, so a p999 read is never a 2x-wide
/// guess (the power-of-two layout's tail resolution).
pub const HIST_BUCKETS: usize = 4 + 4 * (BUCKET_POWERS - 3);

/// The bucket index an observation `v` lands in (`HIST_BUCKETS` =
/// the `+Inf` overflow slot).
fn bucket_idx(v: u64) -> usize {
    if v <= 4 {
        return v.saturating_sub(1) as usize;
    }
    let m = v - 1;
    let p = (63 - m.leading_zeros()) as usize; // MSB position, >= 2
    let idx = 4 + (p - 2) * 4 + ((m >> (p - 2)) as usize - 4);
    idx.min(HIST_BUCKETS)
}

/// The inclusive upper bound of finite bucket `idx`.
fn bucket_bound(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64 + 1;
    }
    let g = (idx - 4) / 4;
    let s = (idx - 4) % 4;
    (1u64 << (g + 2)) + (s as u64 + 1) * (1u64 << g)
}

/// The inclusive lower edge of bucket `idx` (0 for the first).
fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        bucket_bound(idx - 1)
    }
}

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; a `Default` counter is a
/// detached cell not attached to any registry (useful as a no-op).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` if it is below it — for a total
    /// that is kept elsewhere and copied in when the registry is read.
    #[inline]
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
///
/// Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Sets the value from a `u64`, clamped to `i64::MAX`: a quantity
    /// at or above it — the UNBOUNDED epsilon limit — reads as the
    /// largest value a gauge holds.
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HIST_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            // `[AtomicU64; N]` has no `Default` past N = 32.
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A histogram over log-linear buckets (4 sub-buckets per octave,
/// plus `+Inf`).
///
/// Used only on wall-clocked paths (daemon apply/RPC latency); the sim
/// never records into one, keeping sim snapshots clock-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_idx(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSample {
        let mut buckets = [0u64; HIST_BUCKETS + 1];
        for (slot, cell) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *slot = cell.load(Ordering::Relaxed);
        }
        HistogramSample {
            buckets,
            sum: self.sum(),
            count: self.count(),
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// `(name, sorted labels)` — the `BTreeMap` key, so snapshot order is
/// total and stable.
type SeriesKey = (String, Vec<(String, String)>);

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    ls.sort();
    (name.to_owned(), ls)
}

/// Records an instrument-kind collision on the already-locked series
/// map (taking the guard's target directly avoids re-entering the
/// registry mutex). Debug builds panic — the collision is a programming
/// error and the call site is in the backtrace. Release builds count it
/// under `esr_obs_type_collisions_total` so it is visible on every
/// scrape instead of silently splitting writers onto a detached cell.
fn note_kind_collision(map: &mut BTreeMap<SeriesKey, Instrument>, name: &str) {
    debug_assert!(
        false,
        "metric '{name}' re-registered as a different instrument kind"
    );
    let key = series_key("esr_obs_type_collisions_total", &[]);
    if let Instrument::Counter(c) = map
        .entry(key)
        .or_insert_with(|| Instrument::Counter(Counter::default()))
    {
        c.inc();
    }
}

/// The registry: a shared, ordered map from series key to instrument.
///
/// Cloning is cheap (an `Arc`); every layer of a cluster shares one.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: Arc<Mutex<BTreeMap<SeriesKey, Instrument>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<SeriesKey, Instrument>> {
        // A poisoned registry still holds consistent atomics; recover.
        self.series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers (or retrieves) a counter for `name` + `labels`.
    ///
    /// Re-registering the same series returns a handle to the same
    /// cell. Registering a name that exists with a different instrument
    /// kind is a programming error: debug builds panic at the call
    /// site; release builds keep the original series, bump
    /// `esr_obs_type_collisions_total` (so the bug shows on every
    /// scrape), and return a fresh detached handle whose updates go
    /// nowhere.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = series_key(name, labels);
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => {
                note_kind_collision(&mut map, name);
                Counter::default()
            }
        }
    }

    /// Registers (or retrieves) a gauge for `name` + `labels`. Kind
    /// collisions behave as in [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = series_key(name, labels);
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => {
                note_kind_collision(&mut map, name);
                Gauge::default()
            }
        }
    }

    /// Registers (or retrieves) a histogram for `name` + `labels`. Kind
    /// collisions behave as in [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = series_key(name, labels);
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Histogram::default()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => {
                note_kind_collision(&mut map, name);
                Histogram::default()
            }
        }
    }

    /// A deterministic point-in-time snapshot of every series, ordered
    /// by `(name, labels)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let samples = map
            .iter()
            .map(|((name, labels), inst)| SeriesSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Renders the current state as Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSample {
    /// Metric name (e.g. `esr_msets_applied_total`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A sampled instrument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram buckets + sum + count.
    Histogram(Box<HistogramSample>),
}

/// Snapshot of one histogram's cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Per-bucket (non-cumulative) observation counts; the last slot is
    /// the `+Inf` overflow bucket.
    pub buckets: [u64; HIST_BUCKETS + 1],
    /// Sum of observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSample {
    /// The `q`-quantile (`0 < q <= 1`) by rank, linearly interpolated
    /// inside the winning bucket. When every recorded value is
    /// distinct and the bucket is full the answer is exact; otherwise
    /// it errs by at most one bucket width (<= 25% relative, by the
    /// sub-bucket layout). Observations past the finite range saturate
    /// to the largest finite bound — a floor, reported rather than
    /// invented. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            let before = cum;
            cum += b;
            if cum < target {
                continue;
            }
            if i >= HIST_BUCKETS {
                return Some(bucket_bound(HIST_BUCKETS - 1));
            }
            let lower = bucket_lower(i);
            let width = bucket_bound(i) - lower;
            let frac = (target - before) as f64 / b as f64;
            return Some(lower + (frac * width as f64).ceil() as u64);
        }
        None
    }

    /// The median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }
}

/// A deterministic, ordered snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All series, ordered by `(name, labels)`.
    pub samples: Vec<SeriesSample>,
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

impl MetricsSnapshot {
    /// Looks up a sampled value by name and labels (labels in any
    /// order). Histograms answer with their count.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let (_, want) = series_key(name, labels);
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| match &s.value {
                SampleValue::Counter(v) => i64::try_from(*v).unwrap_or(i64::MAX),
                SampleValue::Gauge(v) => *v,
                SampleValue::Histogram(h) => i64::try_from(h.count).unwrap_or(i64::MAX),
            })
    }

    /// Every sample of `name`, across all label sets.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SeriesSample> + 'a {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Renders Prometheus text exposition format: one
    /// `name{labels} value` line per counter/gauge, cumulative
    /// `_bucket`/`_sum`/`_count` lines per histogram. Integer-only and
    /// ordered, so equal snapshots render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&s.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&s.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum += b;
                        let bound = if i < HIST_BUCKETS {
                            bucket_bound(i).to_string()
                        } else {
                            "+Inf".to_owned()
                        };
                        let _ = write!(out, "{}_bucket", s.name);
                        write_labels(&mut out, &s.labels, Some(("le", &bound)));
                        let _ = writeln!(out, " {cum}");
                    }
                    let _ = write!(out, "{}_sum", s.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.sum);
                    let _ = write!(out, "{}_count", s.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_u64_past_the_gauge_range_clamps_to_its_max() {
        let r = MetricsRegistry::new();
        let g = r.gauge("g", &[]);
        g.set_u64(u64::MAX);
        assert_eq!(g.get(), i64::MAX);
        g.set_u64(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = MetricsRegistry::new();
        let c = r.counter("hits_total", &[("site", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same series → same cell.
        let c2 = r.counter("hits_total", &[("site", "0")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        c.raise_to(4);
        assert_eq!(c.get(), 6, "never backwards");
        c.raise_to(9);
        assert_eq!(c2.get(), 9);

        let g = r.gauge("depth", &[]);
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = MetricsRegistry::new();
        let a = r.counter("x", &[("a", "1"), ("b", "2")]);
        let b = r.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-registered as a different instrument kind")]
    fn kind_mismatch_panics_in_debug() {
        let r = MetricsRegistry::new();
        r.counter("x", &[]).inc();
        let _ = r.gauge("x", &[]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn kind_mismatch_counts_and_detaches_in_release() {
        let r = MetricsRegistry::new();
        let c = r.counter("x", &[]);
        c.inc();
        let g = r.gauge("x", &[]);
        g.set(99);
        assert_eq!(c.get(), 1, "original untouched");
        assert_eq!(r.snapshot().value("x", &[]), Some(1));
        assert_eq!(
            r.snapshot().value("esr_obs_type_collisions_total", &[]),
            Some(1),
            "collision is visible on the scrape"
        );
        let _ = r.histogram("x", &[]);
        assert_eq!(
            r.snapshot().value("esr_obs_type_collisions_total", &[]),
            Some(2)
        );
    }

    #[test]
    fn histogram_buckets_are_log_linear() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 5, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2, "0 and 1 in the first bucket");
        assert_eq!(s.buckets[1], 1, "2 in the <=2 bucket");
        assert_eq!(s.buckets[2], 1, "3 in the <=3 bucket");
        assert_eq!(s.buckets[3], 1, "4 in the <=4 bucket");
        assert_eq!(s.buckets[4], 1, "5 in the first sub-bucket (4, 5]");
        assert_eq!(s.buckets[35], 1, "1000 in the (896, 1024] sub-bucket");
        assert_eq!(s.buckets[HIST_BUCKETS], 1, "u64::MAX overflows to +Inf");
    }

    #[test]
    fn bucket_layout_round_trips_and_bounds_resolution() {
        // Every bucket's bound and lower edge map back to the bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_idx(bucket_bound(i)), i, "bound of {i}");
            assert_eq!(bucket_idx(bucket_lower(i) + 1), i, "lower edge of {i}");
        }
        // Bounds are strictly increasing and the top covers the old
        // power-of-two range exactly.
        for i in 1..HIST_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), 1u64 << (BUCKET_POWERS - 1));
        // Sub-bucketing keeps relative width at or under 25%: a p999
        // read is off by at most a quarter of its own magnitude.
        for i in 4..HIST_BUCKETS {
            let width = bucket_bound(i) - bucket_bound(i - 1);
            assert!(width * 4 <= bucket_bound(i), "bucket {i} too wide");
        }
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("z_total", &[]).inc();
        r.gauge("a_gauge", &[("site", "1")]).set(-2);
        r.gauge("a_gauge", &[("site", "0")]).set(5);
        let text = r.render();
        assert_eq!(
            text,
            "a_gauge{site=\"0\"} 5\na_gauge{site=\"1\"} -2\nz_total 1\n"
        );
        // Same updates → byte-identical render.
        let r2 = MetricsRegistry::new();
        r2.gauge("a_gauge", &[("site", "0")]).set(5);
        r2.gauge("a_gauge", &[("site", "1")]).set(-2);
        r2.counter("z_total", &[]).inc();
        assert_eq!(r2.render(), text);
        assert_eq!(r2.snapshot(), r.snapshot());
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_micros", &[]);
        h.record(1);
        h.record(3);
        let text = r.render();
        assert!(text.contains("lat_micros_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"2\"} 1\n"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"3\"} 2\n"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("lat_micros_sum 4\n"), "{text}");
        assert!(text.contains("lat_micros_count 2\n"), "{text}");
    }

    #[test]
    fn quantiles_are_exact_on_small_distinct_values() {
        let h = Histogram::default();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.25), Some(1));
        assert_eq!(s.p50(), Some(2));
        assert_eq!(s.quantile(0.75), Some(3));
        assert_eq!(s.quantile(1.0), Some(4));
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank 500 lands in sub-bucket (448, 512] where interpolation
        // is exact for a dense uniform fill.
        assert_eq!(s.p50(), Some(500));
        // The tail lives in (896, 1024]: p99 true value 990, p999 true
        // value 999 — both land inside the 128-wide sub-bucket, so the
        // estimate is within that width, never a 2x power-of-two guess.
        assert_eq!(s.p99(), Some(1012));
        assert_eq!(s.p999(), Some(1023));
        assert_eq!(s.quantile(1.0), Some(1024));
    }

    #[test]
    fn quantiles_handle_edges() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.p50(), None);

        // Everything past the finite range reports the largest finite
        // bound — a floor, not an invented tail.
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().p50(), Some(1u64 << (BUCKET_POWERS - 1)));

        // A single value answers every quantile with (at most) its own
        // bucket's bound.
        let one = Histogram::default();
        one.record(7);
        let s = one.snapshot();
        assert_eq!(s.p50(), s.p999());
        let p = s.p50().unwrap();
        assert!((7..=8).contains(&p), "p50 = {p}");
    }
}
