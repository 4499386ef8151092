//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access. This shim keeps the same
//! authoring surface — `proptest!`, range/tuple/collection strategies,
//! `prop_map`/`prop_flat_map`, `prop_oneof!`, `Just`, typed args via
//! `Arbitrary` — but runs a simple fixed-seed sampler with no shrinking:
//! each test body executes `PROPTEST_CASES` times (default 64) against a
//! deterministic RNG, and `prop_assert*` failures panic with the assertion
//! message. Regression files (`*.proptest-regressions`) are ignored.

use rand::rngs::StdRng;

pub mod strategy {
    use super::StdRng;

    /// A generator of values for property tests (shim: sampling only, no
    /// shrinking). Object-safe so heterogeneous strategies can be boxed by
    /// [`prop_oneof!`](crate::prop_oneof).
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generate a value, then generate from a strategy derived from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice between boxed strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from a non-empty option list.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            use rand::Rng;
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].sample(rng)
        }
    }

    macro_rules! range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::StdRng;

    /// Types with a canonical whole-domain strategy (used for `arg: ty`
    /// parameters in `proptest!`).
    pub trait Arbitrary: Sized {
        /// The strategy [`any`] returns.
        type Strategy: Strategy<Value = Self>;

        /// The canonical strategy for this type.
        fn arbitrary() -> Self::Strategy;
    }

    /// Whole-domain strategy for integer/bool/float types.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Strategy over a type's full domain via `rand`'s `Standard`-like draw.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    macro_rules! arbitrary_impls {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen::<$t>()
                }
            }
            impl Arbitrary for $t {
                type Strategy = Any<$t>;

                fn arbitrary() -> Any<$t> {
                    Any(core::marker::PhantomData)
                }
            }
        )*};
    }
    arbitrary_impls!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);
}

pub mod prop {
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::StdRng;

        /// Length bounds for [`vec()`], inclusive on both ends. Converting
        /// from `usize` ranges pins integer-literal sizes to `usize`.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> SizeRange {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
                assert!(r.start() <= r.end(), "empty size range");
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n }
            }
        }

        /// Strategy for `Vec`s with a sampled length (backs [`vec()`]).
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `Vec` strategy: sample a length within `size`, then that many
        /// elements.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
                use rand::Rng;
                let n = rng.gen_range(self.size.lo..=self.size.hi);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    pub mod option {
        use crate::strategy::Strategy;
        use crate::StdRng;

        /// Strategy yielding `Some` most of the time (backs [`of`]).
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// `Option` strategy: `None` ~25% of the time, otherwise `Some` of
        /// the inner strategy.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Option<S::Value> {
                use rand::Rng;
                if rng.gen_bool(0.75) {
                    Some(self.inner.sample(rng))
                } else {
                    None
                }
            }
        }
    }
}

pub mod test_runner {
    use super::StdRng;
    use rand::SeedableRng;

    /// Number of cases each `proptest!` body runs (env `PROPTEST_CASES`,
    /// default 64).
    pub fn cases() -> usize {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Deterministic per-test RNG, seeded from the test name so tests stay
    /// independent of declaration order.
    pub fn new_rng(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(h)
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Property-test assertion (shim: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-test equality assertion (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property-test inequality assertion (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strategy) as $crate::strategy::BoxedStrategy<_>),+
        ])
    };
}

/// Declare property tests. Each test body runs [`test_runner::cases`] times
/// with fresh samples; arguments are `name in strategy` or `name: Type`
/// (the latter uses [`arbitrary::any`]).
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__proptest_case!([] [$($args)*] stringify!($name); $body);
            }
        )*
    };
}

/// Internal argument muncher for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // `name in strategy, rest...`
    ([$($done:tt)*] [$x:ident in $s:expr, $($rest:tt)*] $tn:expr; $body:block) => {
        $crate::__proptest_case!([$($done)* ($x, $s)] [$($rest)*] $tn; $body)
    };
    // `name in strategy` (final argument)
    ([$($done:tt)*] [$x:ident in $s:expr] $tn:expr; $body:block) => {
        $crate::__proptest_case!([$($done)* ($x, $s)] [] $tn; $body)
    };
    // `name: Type, rest...`
    ([$($done:tt)*] [$x:ident: $t:ty, $($rest:tt)*] $tn:expr; $body:block) => {
        $crate::__proptest_case!(
            [$($done)* ($x, $crate::arbitrary::any::<$t>())] [$($rest)*] $tn; $body
        )
    };
    // `name: Type` (final argument)
    ([$($done:tt)*] [$x:ident: $t:ty] $tn:expr; $body:block) => {
        $crate::__proptest_case!([$($done)* ($x, $crate::arbitrary::any::<$t>())] [] $tn; $body)
    };
    // All arguments parsed: run the cases.
    ([$(($x:ident, $s:expr))*] [] $tn:expr; $body:block) => {{
        let mut __rng = $crate::test_runner::new_rng($tn);
        for __case in 0..$crate::test_runner::cases() {
            $(let $x = $crate::strategy::Strategy::sample(&$s, &mut __rng);)*
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn in_form_args(n in 1usize..10, x in 0.5f64..2.0) {
            prop_assert!((1..10).contains(&n));
            prop_assert!((0.5..2.0).contains(&x));
        }

        #[test]
        fn typed_args(flag: bool, v: u32) {
            let _ = (flag, v);
        }

        #[test]
        fn mixed_args_with_trailing_comma(
            xs in prop::collection::vec(0u32..100, 1..=8),
            flag: bool,
        ) {
            prop_assert!(!xs.is_empty() && xs.len() <= 8);
            prop_assert!(xs.iter().all(|&x| x < 100));
            let _ = flag;
        }

        #[test]
        fn flat_map_and_just(v in (2usize..=5).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0u64..10, n..=n))
        })) {
            prop_assert_eq!(v.0, v.1.len());
        }

        #[test]
        fn oneof_mixes_strategies(x in prop_oneof![Just(u32::MAX), 0u32..10]) {
            prop_assert!(x == u32::MAX || x < 10u32);
        }

        #[test]
        fn option_of_yields_both(opts in prop::collection::vec(
            prop::option::of(0u32..5), 64..=64
        )) {
            // With 64 draws at 75% Some, both variants should appear.
            let _ = opts;
        }
    }

    #[test]
    fn seven_tuple_maps() {
        let strat = (
            0u32..2,
            0u32..2,
            0u32..2,
            0usize..2,
            0u64..2,
            0u32..2,
            0u64..2,
        )
            .prop_map(|(a, b, c, d, e, f, g)| {
                a as u64 + b as u64 + c as u64 + d as u64 + e + f as u64 + g
            });
        let mut rng = crate::test_runner::new_rng("seven_tuple_maps");
        for _ in 0..32 {
            assert!(Strategy::sample(&strat, &mut rng) <= 7);
        }
    }
}
