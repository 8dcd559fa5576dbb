//! Offline verification stub for `proptest` — a small, functional
//! property-testing engine with the subset of the real API this
//! workspace uses, so `cargo test` runs the property suites without
//! network access.
//!
//! Supported surface:
//!
//! - `proptest! { #![proptest_config(...)] #[test] fn f(x in strat) {..} }`
//! - `Strategy` with `.prop_map`, integer/float ranges, tuples (≤ 6),
//!   `any::<T>()`, and `prop::collection::vec(strat, len_range)`
//! - `prop_assert!`, `prop_assert_eq!`, `prop_assume!`,
//!   `ProptestConfig::with_cases`
//!
//! Unlike the real crate there is no shrinking and no persisted failure
//! seeds: cases are generated from a deterministic per-test RNG, so a
//! failure always reproduces on re-run.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic xorshift64* generator used for case generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator (zero is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> Self {
        TestRng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// FNV-1a over the test name: stable per-test seed material.
pub fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it is not counted.
    Reject(String),
    /// `prop_assert!`/`prop_assert_eq!` failed.
    Fail(String),
}

/// Result type the generated test bodies return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-`proptest!` configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to generate per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        // next_f64 is in [0, 1); nudge the top in so `hi` is reachable.
        lo + (rng.next_f64() * 1.0000000000000002).min(1.0) * (hi - lo)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        (Range {
            start: f64::from(self.start),
            end: f64::from(self.end),
        })
        .generate(rng) as f32
    }
}

/// `&str` patterns generate `String`s, as in the real crate. Only the
/// shape this workspace uses is supported: one character class with a
/// repetition count (`"[a-z0-9 ]{0,12}"`). Anything else is treated as
/// a literal string.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let Some((class, min, max)) = parse_class_pattern(self) else {
            return (*self).to_string();
        };
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[chars]{m,n}` / `[chars]{m}` / `[chars]` (one repetition)
/// into `(alphabet, min, max)`. Returns `None` for anything else.
fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let mut class = Vec::new();
    let chars: Vec<char> = rest[..close].chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            for c in chars[i]..=chars[i + 2] {
                class.push(c);
            }
            i += 3;
        } else {
            class.push(chars[i]);
            i += 1;
        }
    }
    if class.is_empty() {
        return None;
    }
    let tail = &rest[close + 1..];
    if tail.is_empty() {
        return Some((class, 1, 1));
    }
    let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match counts.split_once(',') {
        Some((m, n)) => (m.trim().parse().ok()?, n.trim().parse().ok()?),
        None => {
            let m = counts.trim().parse().ok()?;
            (m, m)
        }
    };
    (min <= max).then_some((class, min, max))
}

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

/// Types with a canonical "arbitrary value" strategy ([`any`]).
pub trait ArbitraryValue {
    /// Picks one arbitrary value.
    fn pick(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn pick(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn pick(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f64 {
    fn pick(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let mag = (rng.next_f64() * 600.0 - 300.0).exp2();
        if rng.next_u64() & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::pick(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body for `config.cases` generated
/// inputs (default config if the inner attribute is omitted).
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let base = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
                let mut rejected: u32 = 0;
                let mut case: u32 = 0;
                while case < config.cases {
                    let mut rng = $crate::TestRng::new(
                        base ^ (u64::from(case + rejected)).wrapping_mul(0x9E3779B97F4A7C15),
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    match outcome {
                        Ok(()) => case += 1,
                        Err($crate::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected < config.cases.saturating_mul(64).max(1024),
                                "proptest `{}`: too many rejected cases ({rejected})",
                                stringify!($name),
                            );
                        }
                        Err($crate::TestCaseError::Fail(message)) => {
                            panic!(
                                "proptest `{}` failed at case {case}: {message}",
                                stringify!($name),
                            );
                        }
                    }
                }
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case with an assertion message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+),
            )));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&($left), &($right));
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                left,
                right,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&($left), &($right));
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
                stringify!($left),
                stringify!($right),
                left,
                right,
                format!($($fmt)+),
            )));
        }
    }};
}

/// Discards the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1_000 {
            let v = crate::Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = crate::Strategy::generate(&(0.25f64..=0.75), &mut rng);
            assert!((0.25..=0.75).contains(&f));
            let i = crate::Strategy::generate(&(-400i32..400), &mut rng);
            assert!((-400..400).contains(&i));
        }
    }

    #[test]
    fn char_class_patterns_generate_strings() {
        let mut rng = crate::TestRng::new(5);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-z0-9 ]{0,12}", &mut rng);
            assert!(s.len() <= 12);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == ' '));
        }
        let exact = crate::Strategy::generate(&"[ab]{3}", &mut rng);
        assert_eq!(exact.len(), 3);
        // Non-class patterns fall back to the literal.
        assert_eq!(crate::Strategy::generate(&"plain", &mut rng), "plain");
    }

    #[test]
    fn generation_is_deterministic() {
        let sample = |seed| {
            let mut rng = crate::TestRng::new(seed);
            crate::Strategy::generate(&prop::collection::vec(0u64..1_000, 5..9), &mut rng)
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_filters(x in 0u32..100, pair in (0u8..4, 0.0f64..1.0)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            let (small, frac) = pair;
            prop_assert!(small < 4, "small was {small}");
            prop_assert_eq!(u64::from(small) * 2 / 2, u64::from(small));
            prop_assert!((0.0..1.0).contains(&frac));
        }

        #[test]
        fn prop_map_applies(tripled in (1u32..10).prop_map(|v| v * 3)) {
            prop_assert_eq!(tripled % 3, 0);
            prop_assert!((3..30).contains(&tripled));
        }
    }
}
