//! Deterministic random numbers for simulations.
//!
//! Every stochastic choice in the simulator — latency samples, drop
//! decisions, workload key selection — draws from a [`DetRng`] seeded at
//! simulation start, so a run is reproduced exactly by its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::Duration;

/// A seeded deterministic random number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; `salt` distinguishes
    /// children of the same parent (e.g. one per site).
    pub fn fork(&self, salt: u64) -> DetRng {
        DetRng::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.random_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.random_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random_bool(p)
        }
    }

    /// Exponentially distributed duration with the given mean, capped at
    /// 100× the mean so that a single unlucky draw cannot stall a run.
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        let u: f64 = self.unit();
        // Inverse CDF; guard against ln(0).
        let sample = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * mean.as_micros() as f64;
        let capped = sample.min(mean.as_micros() as f64 * 100.0);
        Duration::from_micros(capped as u64)
    }

    /// Uniformly distributed duration in `[lo, hi]`.
    pub fn uniform_duration(&mut self, lo: Duration, hi: Duration) -> Duration {
        if hi <= lo {
            return lo;
        }
        Duration::from_micros(self.range(lo.as_micros(), hi.as_micros() + 1))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let sa: Vec<u64> = (0..20).map(|_| a.below(1_000_000)).collect();
        let sb: Vec<u64> = (0..20).map(|_| b.below(1_000_000)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = DetRng::new(7);
        let mut c1 = root.fork(1);
        let mut c1b = root.fork(1);
        let mut c2 = root.fork(2);
        assert_eq!(c1.below(100), c1b.below(100));
        let s1: Vec<u64> = (0..10).map(|_| c1.below(100)).collect();
        let s2: Vec<u64> = (0..10).map(|_| c2.below(100)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = DetRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(6);
        let mean = Duration::from_millis(10);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| r.exponential(mean).as_micros()).sum();
        let avg = total / n;
        assert!((8_000..12_000).contains(&avg), "avg {avg}us");
    }

    #[test]
    fn uniform_duration_bounds() {
        let mut r = DetRng::new(7);
        let lo = Duration::from_micros(100);
        let hi = Duration::from_micros(200);
        for _ in 0..1000 {
            let d = r.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(r.uniform_duration(hi, lo), hi, "inverted range yields lo");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
