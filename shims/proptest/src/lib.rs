//! Offline shim for `proptest`.
//!
//! A miniature property-testing framework exposing the subset of the
//! proptest API this workspace's tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`boxed`,
//! integer-range / tuple / `Just` / `any` / `prop_oneof!` /
//! `prop::collection::vec` strategies, the `proptest!` test macro with
//! `#![proptest_config(..)]`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` assertion macros.
//!
//! Differences from the real crate, deliberate for an offline build:
//! no shrinking (failures report the generated case as-is), and the RNG
//! is seeded deterministically from the test function's name, so runs
//! are reproducible without a persistence file.

pub mod test_runner {
    /// Run-shaping configuration; only `cases` is consulted.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` failed; the case is discarded, not a failure.
        Reject,
        /// A `prop_assert*` failed.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    /// Deterministic generator driving all strategies (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Seeds a generator from a test's name, so every `proptest!`
        /// function explores its own deterministic stream.
        pub fn for_test(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::from_seed(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform draw in `[0, bound)` by rejection (no modulo bias).
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty range");
            if bound.is_power_of_two() {
                return self.next_u64() & (bound - 1);
            }
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of `Self::Value`. No shrinking in this shim.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_int_strategy {
        ($($ty:ty),* $(,)?) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $ty
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    let off = if span == u64::MAX {
                        rng.next_u64()
                    } else {
                        rng.below(span + 1)
                    };
                    (lo as i128 + off as i128) as $ty
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($S:ident . $idx:tt),+))+) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// Weighted choice between boxed arms (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Self { arms, total }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut draw = rng.below(self.total);
            for (w, s) in &self.arms {
                if draw < *w as u64 {
                    return s.generate(rng);
                }
                draw -= *w as u64;
            }
            unreachable!("weighted draw out of range")
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// `any::<T>()` support for primitives.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// Uniform strategy over all values of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),* $(,)?) => {$(
            impl Arbitrary for $ty {
                fn arbitrary_value(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for generated collections (`lo..hi`, half-open).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: r.end().saturating_add(1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A strategy for `Vec`s whose elements come from `elem` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span == 0 { 0 } else { rng.below(span) as usize };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The `prop::` namespace (`prop::collection::vec`, ...).
pub mod prop {
    pub use super::collection;
    pub use super::strategy;
}

pub mod prelude {
    pub use super::arbitrary::any;
    pub use super::prop;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::ProptestConfig;
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left != right)`\n  both: `{:?}`",
                left
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let mut case: u32 = 0;
            let mut rejects: u32 = 0;
            while case < cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => case += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {
                        rejects += 1;
                        if rejects > cfg.cases.saturating_mul(16).saturating_add(1024) {
                            panic!(
                                "proptest {}: too many prop_assume! rejections ({})",
                                stringify!($name),
                                rejects
                            );
                        }
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} (case {}): {}", stringify!($name), case, msg);
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    (cfg = ($cfg:expr);) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_label() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => Just("hot".to_string()),
            1 => (0u64..10).prop_map(|n| format!("cold-{n}")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0i64..5, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            for x in v {
                prop_assert!((0..5).contains(&x));
            }
        }

        #[test]
        fn tuples_and_assume(pair in (any::<bool>(), 1i64..10)) {
            prop_assume!(pair.1 != 5);
            prop_assert!(pair.1 >= 1 && pair.1 < 10 && pair.1 != 5);
        }

        #[test]
        fn oneof_produces_both_arms(labels in prop::collection::vec(arb_label(), 64..65)) {
            prop_assert!(labels.iter().any(|l| l == "hot"));
            prop_assert!(labels.iter().any(|l| l.starts_with("cold-")));
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        let s = 0u64..1000;
        let va: Vec<u64> = (0..16).map(|_| s.generate(&mut a)).collect();
        let vb: Vec<u64> = (0..16).map(|_| s.generate(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
