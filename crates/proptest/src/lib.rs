//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of the proptest API its property tests use: the [`Strategy`]
//! trait with `prop_map`, range / `Just` / `any` / collection / sample
//! strategies, and the `proptest!` / `prop_compose!` / `prop_assert*!` /
//! `prop_oneof!` macros.
//!
//! Semantics: each `proptest!` test runs a fixed number of cases (default
//! [`DEFAULT_CASES`], overridable with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`) with inputs drawn
//! from a generator seeded by the test's module path and name — fully
//! deterministic from build to build. There is **no shrinking**: a failing
//! case panics with the normal assertion message, and re-running reproduces
//! it exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property when no `proptest_config` is given.
pub const DEFAULT_CASES: u32 = 64;

/// Per-test configuration (only the case count is honoured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
        }
    }
}

/// The deterministic generator backing a named property test.
#[must_use]
pub fn test_rng(name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn sample_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps every drawn value through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample_value(&self, rng: &mut StdRng) -> T {
        (**self).sample_value(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample_value(rng))
    }
}

/// A strategy that always yields a clone of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// A strategy defined by a closure over the generator (used by
/// [`prop_compose!`]).
pub struct FnStrategy<F> {
    f: F,
}

impl<T, F: Fn(&mut StdRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;
    fn sample_value(&self, rng: &mut StdRng) -> T {
        (self.f)(rng)
    }
}

/// Wraps a sampling closure as a [`Strategy`].
pub fn strategy_fn<T, F: Fn(&mut StdRng) -> T>(f: F) -> FnStrategy<F> {
    FnStrategy { f }
}

/// Uniform choice between type-erased alternatives (built by
/// [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union of the given alternatives.
    ///
    /// # Panics
    /// Panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample_value(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample_value(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}
impl_arbitrary_standard!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(rng: &mut StdRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng))
    }
}

impl<A: Arbitrary, B: Arbitrary, C: Arbitrary> Arbitrary for (A, B, C) {
    fn arbitrary(rng: &mut StdRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng), C::arbitrary(rng))
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Element-count specification for [`vec()`]: an exact length or a
    /// half-open / inclusive range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.elem.sample_value(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `elem` and whose
    /// length comes from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use super::{Arbitrary, StdRng, Strategy};
    use rand::Rng;

    /// Strategy choosing uniformly among fixed options.
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample_value(&self, rng: &mut StdRng) -> T {
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }

    /// A strategy that picks one of `options` uniformly.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    #[must_use]
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// An arbitrary index into a not-yet-known-length collection; resolve
    /// it with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// This index resolved against a collection of length `len`.
        ///
        /// # Panics
        /// Panics if `len` is zero.
        #[must_use]
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            usize::try_from(self.0 % len as u64).expect("index fits usize")
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            Self(rng.gen())
        }
    }
}

pub mod prelude {
    //! Everything a property-test file needs.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };

    pub mod prop {
        //! The `prop::` module hierarchy (`prop::collection`,
        //! `prop::sample`).
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Runs each contained `#[test]` function over many sampled cases.
///
/// Supported form:
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     #[test]
///     fn my_property(x in 0..10usize, f in 0.0..1.0f64) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(let $pat = $crate::Strategy::sample_value(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Defines a named reusable strategy from component strategies.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($outer:tt)*)
        ($($pat:pat_param in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::strategy_fn(move |__rng| {
                $(let $pat = $crate::Strategy::sample_value(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Uniform choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a property (plain `assert!` semantics — the
/// failing case's values appear via the format arguments, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { assert!($($args)+) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { assert_eq!($($args)+) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)+) => { assert_ne!($($args)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn arb_point()(x in 0.0..1.0f64, y in 0.0..1.0f64) -> (f64, f64) {
            (x, y)
        }
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 3usize..17, f in -2.0..2.0f64) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn composed_strategies_work(p in arb_point()) {
            prop_assert!(p.0 >= 0.0 && p.0 < 1.0);
            prop_assert!(p.1 >= 0.0 && p.1 < 1.0);
        }

        #[test]
        fn oneof_and_map_work(v in prop_oneof![Just(1u32), Just(2), (5u32..8).prop_map(|x| x)]) {
            prop_assert!(v == 1 || v == 2 || (5..8).contains(&v));
        }

        #[test]
        fn collections_respect_size(v in prop::collection::vec(any::<u8>(), 2..6),
                                    exact in prop::collection::vec(any::<bool>(), 7)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(exact.len(), 7);
        }

        #[test]
        fn select_and_index_work(s in prop::sample::select(vec![10usize, 20, 30]),
                                 idx in any::<prop::sample::Index>()) {
            prop_assert!(s == 10 || s == 20 || s == 30);
            prop_assert!(idx.index(5) < 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn config_override_applies(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn test_rng_is_deterministic_per_name() {
        use rand::Rng;
        let a: u64 = crate::test_rng("x").gen();
        let b: u64 = crate::test_rng("x").gen();
        let c: u64 = crate::test_rng("y").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
