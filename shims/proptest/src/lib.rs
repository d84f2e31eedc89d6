//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this implements
//! the subset of the proptest API that Corona's property tests use:
//! the [`proptest!`] macro, `any::<T>()`, integer-range and
//! regex-character-class strategies, `Just`, tuples, `prop_map`,
//! `prop_oneof!`, `collection::vec`, `option::of`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * Generation is deterministic per (test name, case index) — a
//!   failure reproduces on every run with the same case number.
//! * No shrinking: a failing case reports its index; debug by rerun.
//! * String strategies support the `"[class]{lo,hi}"` regex shape
//!   only (which is all the repo uses); anything else is treated as a
//!   literal.

#![allow(clippy::type_complexity)]

pub mod test_runner {
    /// Deterministic generator state (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds a generator from a test identity and case index.
        pub fn deterministic(seed: u64, case: u64) -> Self {
            // Mix so that case 0/1/2... give unrelated streams.
            let mut rng = TestRng {
                state: seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            rng.next_u64();
            rng
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            // Multiply-shift rejection-free mapping is fine for tests.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform boolean.
        pub fn next_bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// FNV-1a hash of a string, used to seed per-test streams.
    pub fn hash_name(name: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Test-run configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps offline CI quick
        // while still exercising the property.
        ProptestConfig { cases: 64 }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates with `self`, then generates again with the
        /// strategy `f` returns (dependent generation).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Retries generation until `pred` accepts (bounded retries).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(move |rng: &mut TestRng| self.generate(rng)),
            }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy always yielding a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) reason: &'static str,
        pub(crate) pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter: predicate rejected 1000 candidates: {}",
                self.reason
            );
        }
    }

    /// Type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        inner: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.inner)(rng)
        }
    }

    /// Weighted choice among same-typed alternatives (see
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct OneOf<T> {
        arms: Vec<(u64, Box<dyn Fn(&mut TestRng) -> T>)>,
        total_weight: u64,
    }

    impl<T> OneOf<T> {
        /// Builds from boxed generator arms with uniform weight.
        pub fn new(arms: Vec<Box<dyn Fn(&mut TestRng) -> T>>) -> Self {
            Self::new_weighted(arms.into_iter().map(|a| (1, a)).collect())
        }

        /// Builds from `(weight, generator)` arms.
        pub fn new_weighted(arms: Vec<(u64, Box<dyn Fn(&mut TestRng) -> T>)>) -> Self {
            let total_weight = arms.iter().map(|(w, _)| *w).sum();
            assert!(total_weight > 0, "prop_oneof! needs positive total weight");
            OneOf { arms, total_weight }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total_weight);
            for (weight, arm) in &self.arms {
                if pick < *weight {
                    return arm(rng);
                }
                pick -= weight;
            }
            unreachable!("weights exhausted")
        }
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),+) => {
            $(
                impl Strategy for std::ops::Range<$ty> {
                    type Value = $ty;
                    fn generate(&self, rng: &mut TestRng) -> $ty {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as i128 - self.start as i128) as u64;
                        (self.start as i128 + rng.below(span) as i128) as $ty
                    }
                }

                impl Strategy for std::ops::RangeInclusive<$ty> {
                    type Value = $ty;
                    fn generate(&self, rng: &mut TestRng) -> $ty {
                        let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                        assert!(lo <= hi, "empty range strategy");
                        let span = (hi - lo + 1) as u64;
                        if span == 0 {
                            // Full-width u64 inclusive range.
                            return rng.next_u64() as $ty;
                        }
                        (lo + rng.below(span) as i128) as $ty
                    }
                }
            )+
        };
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let frac = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
            self.start + frac * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let frac = rng.next_u64() as f64 / u64::MAX as f64;
            self.start() + frac * (self.end() - self.start())
        }
    }

    /// Character-class string strategy compiled from a `"[class]{lo,hi}"`
    /// literal; other literals generate themselves verbatim.
    #[derive(Clone, Debug)]
    pub struct StringStrategy {
        chars: Vec<char>,
        lo: usize,
        hi: usize,
        literal: Option<String>,
    }

    impl StringStrategy {
        pub(crate) fn parse(pattern: &str) -> Self {
            if let Some(parsed) = Self::try_parse_class(pattern) {
                return parsed;
            }
            StringStrategy {
                chars: Vec::new(),
                lo: 0,
                hi: 0,
                literal: Some(pattern.to_string()),
            }
        }

        fn try_parse_class(pattern: &str) -> Option<Self> {
            let rest = pattern.strip_prefix('[')?;
            let close = rest.find(']')?;
            let class = &rest[..close];
            let quant = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
            let (lo, hi) = match quant.split_once(',') {
                Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
                None => {
                    let n = quant.trim().parse().ok()?;
                    (n, n)
                }
            };
            let mut chars = Vec::new();
            let cs: Vec<char> = class.chars().collect();
            let mut i = 0;
            while i < cs.len() {
                if i + 2 < cs.len() && cs[i + 1] == '-' {
                    let (a, b) = (cs[i], cs[i + 2]);
                    for c in a..=b {
                        chars.push(c);
                    }
                    i += 3;
                } else {
                    chars.push(cs[i]);
                    i += 1;
                }
            }
            if chars.is_empty() {
                return None;
            }
            Some(StringStrategy {
                chars,
                lo,
                hi,
                literal: None,
            })
        }
    }

    impl Strategy for StringStrategy {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            if let Some(lit) = &self.literal {
                return lit.clone();
            }
            let len = self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize;
            (0..len)
                .map(|_| self.chars[rng.below(self.chars.len() as u64) as usize])
                .collect()
        }
    }

    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            StringStrategy::parse(self).generate(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident $idx:tt),+))+) => {
            $(
                impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                    type Value = ($($name::Value,)+);
                    fn generate(&self, rng: &mut TestRng) -> Self::Value {
                        ($(self.$idx.generate(rng),)+)
                    }
                }
            )+
        };
    }

    tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Produces one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy produced by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Biases integers toward interesting edges (0, max, small) the
    /// way real proptest's binary search of sub-ranges tends to.
    fn edgy_u64(rng: &mut TestRng) -> u64 {
        match rng.below(8) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(16),
            _ => rng.next_u64(),
        }
    }

    macro_rules! int_arbitrary {
        ($($ty:ty),+) => {
            $(
                impl Arbitrary for $ty {
                    fn arbitrary(rng: &mut TestRng) -> $ty {
                        edgy_u64(rng) as $ty
                    }
                }
            )+
        };
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_bool()
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated protocol strings tame.
            (0x20u8 + rng.below(0x5F) as u8) as char
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Element-count bound for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `element` with a length in `size`.
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
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<T>`: `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...)` body
/// runs once per generated case.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal: expands each test item inside [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::test_runner::hash_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..u64::from(config.cases) {
                let mut __rng = $crate::test_runner::TestRng::deterministic(seed, case);
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                // Bodies may early-`return Ok(())` like real proptest,
                // so the closure returns a Result.
                let run = move || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                };
                match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    Ok(Ok(())) => {}
                    Ok(Err(reason)) => {
                        panic!(
                            "proptest {}: rejected at case {case} of {}: {reason}",
                            stringify!($name),
                            config.cases,
                        );
                    }
                    Err(payload) => {
                        eprintln!(
                            "proptest {}: failed at case {case} of {} (deterministic seed {seed:#x}; rerun reproduces)",
                            stringify!($name),
                            config.cases,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Choice among strategies producing the same type, optionally
/// weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new_weighted(vec![
            $(
                (u64::from($weight as u32), {
                    let __s = $arm;
                    Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                        $crate::strategy::Strategy::generate(&__s, rng)
                    }) as Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
                })
            ),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(
                {
                    let __s = $arm;
                    Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                        $crate::strategy::Strategy::generate(&__s, rng)
                    }) as Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
                }
            ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Add(u64),
        Remove(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u64>().prop_map(Op::Add),
            any::<u64>().prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vectors_have_bounded_len(v in crate::collection::vec(any::<u8>(), 0..10)) {
            prop_assert!(v.len() < 10);
        }

        #[test]
        fn tuples_and_strings(t in (any::<bool>(), 0u8..3), s in "[a-z]{0,12}") {
            prop_assert!(t.1 < 3);
            prop_assert!(s.len() <= 12);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }

        #[test]
        fn oneof_covers_both(ops in crate::collection::vec(arb_op(), 0..64)) {
            for op in &ops {
                match op {
                    Op::Add(_) | Op::Remove(_) => {}
                }
            }
        }
    }

    #[test]
    fn determinism() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(any::<u64>(), 0..16);
        let mut a = crate::test_runner::TestRng::deterministic(1, 2);
        let mut b = crate::test_runner::TestRng::deterministic(1, 2);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
