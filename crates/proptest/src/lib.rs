//! Workspace-local, std-only stand-in for [`proptest`].
//!
//! The wrsn workspace must build in fully offline / air-gapped
//! environments, so it vendors the slice of the proptest API its test
//! suites use: the [`Strategy`] trait with `prop_map`/`prop_flat_map`,
//! range / tuple / `Vec` strategies, [`collection::vec`], [`option::of`],
//! [`bool::ANY`] / [`bool::weighted`], [`Just`], and the [`proptest!`],
//! [`prop_compose!`], [`prop_oneof!`], [`prop_assert!`] macros.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the standard assert
//!   message; rerun with the printed test name to reproduce (generation
//!   is deterministic per test, seeded from the test's name).
//! * **No persistence files.** Failures are reproducible by construction,
//!   so no `proptest-regressions/` directory is written.
//! * `prop_assert!`/`prop_assert_eq!` panic immediately instead of
//!   returning `Err(TestCaseError)`.
//!
//! [`proptest`]: https://docs.rs/proptest

use rand::rngs::StdRng;
use rand::SeedableRng;

pub use rand::Rng as TestRngCore;

/// The RNG handed to strategies. Seeded from the test's name, so every
/// `cargo test` run generates the same cases — failures are always
/// reproducible.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic generator for the named test.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self(StdRng::seed_from_u64(h))
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Run-time configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of values — upstream proptest's core trait, minus
/// shrinking: `generate` yields a value directly instead of a value tree.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy producing `f(value)`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// A strategy generating a value, building a second strategy from it
    /// with `f`, and generating from that.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
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

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// The strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

/// A `Vec` of strategies generates element-wise — upstream proptest's
/// `Vec<S>: Strategy` impl.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// Uniform choice between alternatives — the engine behind
/// [`prop_oneof!`]. All arms must be the same strategy type (true for
/// every use in this workspace; box the arms otherwise).
pub struct OneOf<S>(Vec<S>);

impl<S: Strategy> OneOf<S> {
    /// A strategy picking one of `arms` uniformly per generated value.
    pub fn new(arms: Vec<S>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self(arms)
    }
}

impl<S: Strategy> Strategy for OneOf<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let i = rand::Rng::gen_range(rng, 0..self.0.len());
        self.0[i].generate(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact `usize` or a
    /// `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// A strategy for `Vec`s whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rand::Rng::gen_range(rng, self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// `Some(value)` half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rand::Rng::gen_bool(rng, 0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// `bool` strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// `true` or `false`, equiprobable.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            rand::Rng::gen_bool(rng, 0.5)
        }
    }

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        Weighted { p }
    }

    /// See [`weighted`].
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            rand::Rng::gen_bool(rng, self.p)
        }
    }
}

/// Declares property tests: each `#[test] fn name(binding in strategy, …)`
/// runs `cases` times with fresh generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __strategy = ($($strat,)+);
                let ($($arg,)+) = $crate::Strategy::generate(&__strategy, &mut __rng);
                let __guard = $crate::CaseGuard::new(__case);
                // Like upstream, the body runs in a closure returning
                // `Result<(), TestCaseError>` so properties can discard a
                // case early with `return Ok(());`.
                #[allow(clippy::redundant_closure_call)]
                let __outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__e) = __outcome {
                    ::std::panic!("property returned Err: {}", __e);
                }
                __guard.defuse();
            }
        }
        $crate::__proptest_impl!(@cfg ($cfg) $($rest)*);
    };
}

/// Error a property body can return to fail a case without panicking —
/// upstream's `TestCaseError`, reduced to a message. In this stand-in the
/// assert macros panic instead, so this mostly exists to type the `Ok(())`
/// early exits.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Prints which generated case failed when a property body panics.
pub struct CaseGuard {
    case: u32,
    armed: bool,
}

impl CaseGuard {
    /// Arms the guard for case number `case`.
    pub fn new(case: u32) -> Self {
        Self { case, armed: true }
    }

    /// Disarms the guard — the case passed.
    pub fn defuse(mut self) {
        self.armed = false;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if self.armed {
            eprintln!(
                "proptest stand-in: property failed on generated case #{} \
                 (cases are deterministic per test; rerun to reproduce)",
                self.case
            );
        }
    }
}

/// Composes named sub-strategies into a function returning a strategy —
/// upstream's `prop_compose!`.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($parg:ident: $pty:ty),* $(,)?)
                               ($($arg:ident in $strat:expr),+ $(,)?)
                               -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($parg: $pty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::Strategy::prop_map(
                ($($strat,)+),
                move |($($arg,)+)| -> $ret { $body },
            )
        }
    };
}

/// Uniform choice between strategies of one common type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($arm),+])
    };
}

/// Asserts inside a property body. Panics immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// The glob-import surface test files use.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_compose, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    prop_compose! {
        fn arb_point(scale: f64)(x in 0.0f64..1.0, y in 0.0f64..1.0) -> (f64, f64) {
            (x * scale, y * scale)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -1.0f64..=1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..=1.0).contains(&y));
        }

        #[test]
        fn vec_respects_size(v in crate::collection::vec(0u32..5, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn exact_size_vecs(v in crate::collection::vec(0.0f64..1.0, 9)) {
            prop_assert_eq!(v.len(), 9);
        }

        #[test]
        fn composed_strategies_apply_args(p in arb_point(10.0)) {
            prop_assert!((0.0..10.0).contains(&p.0));
            prop_assert!((0.0..10.0).contains(&p.1));
        }

        #[test]
        fn oneof_hits_every_arm(choices in crate::collection::vec(prop_oneof![Just(1), Just(2)], 64)) {
            prop_assert!(choices.contains(&1));
            prop_assert!(choices.contains(&2));
        }

        #[test]
        fn flat_map_threads_values(
            pair in (1usize..5).prop_flat_map(|n| (Just(n), crate::collection::vec(0u8..9, n)))
        ) {
            prop_assert_eq!(pair.0, pair.1.len());
        }
    }

    #[test]
    fn generation_is_deterministic_per_test_name() {
        let strat = (0u64..1_000_000, crate::collection::vec(0.0f64..1.0, 1..9));
        let mut a = crate::TestRng::for_test("some::test");
        let mut b = crate::TestRng::for_test("some::test");
        for _ in 0..50 {
            let va = crate::Strategy::generate(&strat, &mut a);
            let vb = crate::Strategy::generate(&strat, &mut b);
            assert_eq!(va.0, vb.0);
            assert_eq!(va.1, vb.1);
        }
    }

    #[test]
    fn option_of_produces_both_variants() {
        let strat = crate::collection::vec(crate::option::of(0u32..3), 64);
        let mut rng = crate::TestRng::for_test("options");
        let v = crate::Strategy::generate(&strat, &mut rng);
        assert!(v.iter().any(Option::is_some));
        assert!(v.iter().any(Option::is_none));
    }
}
