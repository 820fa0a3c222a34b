//! A vendored, dependency-free shim of the `proptest` property-testing
//! harness.
//!
//! The workspace must build with no network access, so instead of the real
//! crate this in-tree stand-in provides exactly the surface the repo's
//! property tests use:
//!
//! * the [`proptest!`] macro (with an optional leading
//!   `#![proptest_config(...)]`), accepting parameters written either as
//!   `name in strategy` or `name: Type`;
//! * integer-range and tuple strategies, [`any`]/[`Arbitrary`], and
//!   [`collection::vec`] with either a range or an exact-length size;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`ProptestConfig::with_cases`].
//!
//! Sampling is purely random (xoshiro-style, seeded per test from the test
//! name) — there is no shrinking. On failure the panic message includes the
//! case number so a failing run is reproducible by rerunning the test: the
//! seed is a pure function of the test name, so every run explores the same
//! case sequence.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// SplitMix64 finalizer used for seed derivation.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The random source handed to strategies (xoshiro256++).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Deterministic per-test stream: seeded from the test's name so every
    /// run of the suite explores the same case sequence.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0x5115_7a4c_e32f_71d3;
        for b in name.bytes() {
            h = splitmix64(h ^ b as u64);
        }
        let mut s = [0u64; 4];
        for w in &mut s {
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *w = splitmix64(h);
        }
        TestRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, span)` via debiased multiply-shift.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "empty sampling range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// A source of random values of a given type.
///
/// Unlike real proptest there is no value tree and no shrinking; a strategy
/// is just a sampler.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as u64)
                    .wrapping_sub(*self.start() as u64)
                    .wrapping_add(1);
                if span == 0 {
                    // Full-domain u64 inclusive range.
                    rng.next_u64() as $t
                } else {
                    self.start().wrapping_add(rng.below(span) as $t)
                }
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_int_arbitrary {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy wrapper returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for a type: `any::<bool>()`, `any::<u32>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as the size argument of [`vec()`]: an exact length or
    /// a (half-open / inclusive) range of lengths.
    pub trait IntoSizeRange {
        /// Half-open `[lo, hi)` bounds on the collection length.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty vec size range");
        VecStrategy { element, lo, hi }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the suite quick while
        // still exercising each property broadly.
        ProptestConfig { cases: 64 }
    }
}

/// The usual glob import: `use proptest::prelude::*;`
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Assert inside a property; accepts the same forms as [`assert!`].
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property; accepts the same forms as
/// [`assert_eq!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Define property tests. Each `fn` becomes a `#[test]` that draws its
/// parameters from the given strategies and runs the body for each case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __run = || {
                    $crate::__prop_bind!(__rng; $($params)*);
                    $body
                };
                if let Err(payload) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)) {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed",
                        __case + 1, __config.cases, stringify!($name)
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_bind {
    ($rng:ident;) => {};
    ($rng:ident; $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident; $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::sample(&($strat), &mut $rng);
        $crate::__prop_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident : $ty:ty) => {
        let $name: $ty = $crate::Strategy::sample(&$crate::any::<$ty>(), &mut $rng);
    };
    ($rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::Strategy::sample(&$crate::any::<$ty>(), &mut $rng);
        $crate::__prop_bind!($rng; $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let x = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&x));
            let y = (0u8..4).sample(&mut rng);
            assert!(y < 4);
            let z = (1usize..=6).sample(&mut rng);
            assert!((1..=6).contains(&z));
        }
    }

    #[test]
    fn vec_sizes_respect_bounds() {
        let mut rng = TestRng::for_test("vec_sizes_respect_bounds");
        for _ in 0..200 {
            let v = collection::vec(0u64..100, 1..5).sample(&mut rng);
            assert!((1..5).contains(&v.len()));
            let exact = collection::vec(any::<bool>(), 64).sample(&mut rng);
            assert_eq!(exact.len(), 64);
        }
    }

    #[test]
    fn tuples_compose() {
        let mut rng = TestRng::for_test("tuples_compose");
        let (a, b) = (0u64..10, 100u64..200).sample(&mut rng);
        assert!(a < 10);
        assert!((100..200).contains(&b));
    }

    #[test]
    fn per_test_streams_are_deterministic() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let mut c = TestRng::for_test("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        /// The macro itself, in both parameter forms with a trailing comma.
        #[test]
        fn macro_smoke(a in 1u64..100, flag: bool, pair in (0u8..4, 1usize..6),) {
            prop_assert!((1..100).contains(&a));
            prop_assert_eq!(flag, flag);
            prop_assert!(pair.0 < 4 && pair.1 >= 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_attribute_is_accepted(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }
}
