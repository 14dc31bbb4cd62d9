//! Minimal stand-in for the `proptest` property-testing crate.
//!
//! The build environment is offline, so the real proptest cannot be
//! fetched. This crate implements the subset the workspace's property
//! tests use: the `proptest!` macro, range/tuple/`Just`/`prop_oneof!`
//! strategies, `prop_map`, `collection::vec`, `sample::select`,
//! `bool::ANY`, `prop_assert*!`, `prop_assume!` and `ProptestConfig`.
//!
//! Differences from the real thing, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports its inputs (via `Debug`
//!   in the assertion message) and the deterministic case index instead
//!   of a minimized counterexample.
//! * **Deterministic generation** — cases are derived from a fixed
//!   per-test seed (a hash of the test name) plus the case index, so a
//!   failure reproduces exactly on every run and platform. This is a
//!   feature for this repository: the simulator's own guarantees are
//!   deterministic, and flaky CI from random seeds would be worse than
//!   reduced input diversity.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Run-count configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Cap on `prop_assume!` rejections per accepted case before the
    /// property fails as vacuous (the stand-in for proptest's
    /// `max_global_rejects`).
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

/// Why a property case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Result alias used by generated property bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic RNG driving generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E3779B97F4A7C15,
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a test name — the per-test base seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Box the strategy (for heterogeneous `prop_oneof!` arms).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
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

/// Uniform choice among boxed alternatives — built by `prop_oneof!`.
pub struct Union<T> {
    /// The alternatives.
    pub options: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.index(self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % width) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let width = (hi - lo) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (width + 1)) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_strategy {
    ($($t:ty as $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add((rng.next_u64() % width) as $t)
            }
        }
    )*};
}

impl_signed_strategy!(i32 as u32, i64 as u64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[expect(non_snake_case, reason = "the bindings reuse the type parameter names")]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end);
            self.start + rng.index(self.end - self.start)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            *self.start() + rng.index(*self.end() - *self.start() + 1)
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// A `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed slice.
    pub fn select<T: Clone + 'static>(options: &'static [T]) -> Select<T> {
        assert!(!options.is_empty());
        Select { options }
    }

    /// Strategy returned by [`select`].
    pub struct Select<T: 'static> {
        options: &'static [T],
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.index(self.options.len())].clone()
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Drive one property: generate `cases` inputs, run the body, panic on the
/// first failure, tolerate `prop_assume!` rejections (up to a global cap).
pub fn run_property<S, F>(name: &str, config: &ProptestConfig, strategy: S, body: F)
where
    S: Strategy,
    S::Value: Debug + Clone,
    F: Fn(S::Value) -> TestCaseResult,
{
    let base = seed_for(name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.max_global_rejects.max(1024);
    let mut case = 0u64;
    while passed < config.cases {
        let mut rng = TestRng::new(base ^ case.wrapping_mul(0x9E3779B97F4A7C15));
        let input = strategy.generate(&mut rng);
        match body(input.clone()) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "property {name}: too many prop_assume! rejections \
                         ({rejected}) before reaching {} cases",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property {name} failed at case #{case} (deterministic seed):\n\
                     {msg}\ninput: {input:#?}"
                );
            }
        }
        case += 1;
    }
}

/// Assert inside a property body; on failure the case's inputs are reported.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// Reject a case whose inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategy arms (all yielding the same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union {
            options: vec![$($crate::Strategy::boxed($strategy)),+],
        }
    };
}

/// Declares deterministic property tests. Mirrors proptest's macro shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
///     #[test]
///     fn my_property(x in 0u64..10, ys in collection::vec(0u32..5, 1..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let strategy = ($($strategy,)+);
                $crate::run_property(
                    stringify!($name),
                    &config,
                    strategy,
                    |($($arg,)+)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0u32..100, 2..=9)) {
            prop_assert!(v.len() >= 2 && v.len() <= 9);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_and_map_and_assume(x in prop_oneof![Just(1u32), Just(2u32)].prop_map(|v| v * 10)) {
            prop_assume!(x != 0);
            prop_assert!(x == 10 || x == 20);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..1000, crate::collection::vec(0u32..7, 1..5));
        let mut r1 = crate::TestRng::new(crate::seed_for("t"));
        let mut r2 = crate::TestRng::new(crate::seed_for("t"));
        for _ in 0..50 {
            assert_eq!(
                crate::Strategy::generate(&s, &mut r1),
                crate::Strategy::generate(&s, &mut r2)
            );
        }
    }
}
