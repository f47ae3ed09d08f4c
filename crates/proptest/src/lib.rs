//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this crate vendors
//! the subset of proptest's API that this workspace's property tests
//! use: the [`Strategy`] trait with `prop_map`, [`Just`], `any::<T>()`,
//! integer-range strategies, tuple strategies, `prop::collection::vec`,
//! the `prop_oneof!` union, and the `proptest!` test macro with
//! `prop_assert*` assertions and a `ProptestConfig { cases, .. }`
//! knob.
//!
//! Differences from upstream, deliberate and documented:
//!
//! * **No shrinking.** A failing case reports its deterministic seed
//!   (derived from the test name and case index) so it can be replayed
//!   exactly, but inputs are not minimized.
//! * **Deterministic by construction.** Every test function runs the
//!   same case sequence on every machine; there is no persistence file
//!   (existing `.proptest-regressions` files are ignored).
//! * **`PROPTEST_CASES` sets every test's case count**, explicit
//!   configs included (upstream changes only the default), so one run
//!   can drive chosen suites harder. The first cases are the usual
//!   ones: a larger count extends the sequence.

use std::marker::PhantomData;

pub use rand::SeedableRng;

/// The RNG driving all strategies.
pub type TestRng = rand::rngs::StdRng;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for upstream compatibility; this shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// Cases a test with `config` runs: `PROPTEST_CASES` when the
/// environment holds a number there, else `config.cases`.
pub fn case_count(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases)
}

/// Derive the deterministic seed for one case of one test.
pub fn case_seed(test_name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Prints the failing case's replay seed if the test body panics.
pub struct CaseGuard {
    name: &'static str,
    case: u64,
    seed: u64,
}

impl CaseGuard {
    /// Arm a guard for one case.
    pub fn new(name: &'static str, case: u64, seed: u64) -> Self {
        CaseGuard { name, case, seed }
    }

    /// The case completed; do not report.
    pub fn disarm(self) {
        std::mem::forget(self);
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest-shim: test `{}` failed at case {} (replay seed {:#x})",
                self.name, self.case, self.seed
            );
        }
    }
}

/// A generator of random values (proptest's `Strategy`, minus
/// shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the strategy type (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            gen_fn: Box::new(move |rng| self.generate(rng)),
        }
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    gen_fn: Box<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen_fn)(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `any::<T>()`: uniform over the whole type.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng as _;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng as _;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Uniformly picks one of several boxed strategies (the expansion of
/// `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the macro's collected arms.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        use rand::Rng as _;
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// The `prop::` namespace mirror.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// A vector of `elem` values with a length drawn from `lens`.
        pub fn vec<S: Strategy>(elem: S, lens: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, lens }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            lens: std::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                use rand::Rng as _;
                let n = rng.gen_range(self.lens.clone());
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }
}

/// The macro surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, case_seed, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        BoxedStrategy, CaseGuard, Just, ProptestConfig, SeedableRng, Strategy, TestRng,
    };
}

/// `assert!` with proptest spelling.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` with proptest spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` with proptest spelling.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Union of strategies: uniformly picks an arm per case.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// The test-defining macro: each `fn name(arg in strategy, ...)` runs
/// [`case_count`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..$crate::case_count(&__config) {
                let __seed = $crate::case_seed(stringify!($name), __case as u64);
                let mut __rng =
                    <$crate::TestRng as $crate::SeedableRng>::seed_from_u64(__seed);
                let __guard = $crate::CaseGuard::new(stringify!($name), __case as u64, __seed);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
                __guard.disarm();
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_tuples((a, b) in (0..10usize, 5..6i64), v in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(a < 10);
            prop_assert_eq!(b, 5);
            prop_assert!(v.len() < 4);
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1i64), (10..20i64).prop_map(|v| v * 2)]) {
            prop_assert!(x == 1 || (20..40).contains(&x));
            prop_assert_ne!(x, 0);
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(case_seed("t", 3), case_seed("t", 3));
        assert_ne!(case_seed("t", 3), case_seed("t", 4));
        assert_ne!(case_seed("t", 3), case_seed("u", 3));
    }
}
