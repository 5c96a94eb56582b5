//! Offline stand-in for `proptest`, covering the surface this workspace's
//! property tests use: range/tuple/`Just` strategies, `prop_map` /
//! `prop_flat_map`, `collection::vec`, `string::string_regex` (character
//! classes with `{m,n}` counts), `any::<T>()`, and the `proptest!` /
//! `prop_assert*` macros.
//!
//! Cases are sampled deterministically (seeded per case index); there is no
//! shrinking — a failing case panics with the underlying assertion message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration (`cases` per property).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 48 keeps single-core CI runs fast while
        // still exercising real input diversity.
        ProptestConfig { cases: 48 }
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated value type.
    type Value;

    /// Sample one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Build a second strategy from each generated value and sample it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        string::string_regex(self)
            .unwrap_or_else(|e| panic!("invalid regex strategy `{self}`: {e:?}"))
            .sample(rng)
    }
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Sample one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> u64 {
        rng.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut StdRng) -> u32 {
        rng.gen()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.gen()
    }
}

/// Full-domain strategy for `T`.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::*;

    /// Accepted size arguments for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
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

    /// Strategy for vectors of `element` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..=self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec` equivalent.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod string {
    //! String strategies from a (restricted) regex.

    use super::*;

    /// One regex atom: a set of candidate chars plus a repetition count.
    struct Atom {
        chars: Vec<char>,
        min: usize,
        max: usize,
    }

    /// Strategy generating strings matching a restricted regex.
    pub struct RegexStrategy {
        atoms: Vec<Atom>,
    }

    impl Strategy for RegexStrategy {
        type Value = String;
        fn sample(&self, rng: &mut StdRng) -> String {
            let mut out = String::new();
            for a in &self.atoms {
                let n = if a.min == a.max {
                    a.min
                } else {
                    rng.gen_range(a.min..=a.max)
                };
                for _ in 0..n {
                    out.push(a.chars[rng.gen_range(0..a.chars.len())]);
                }
            }
            out
        }
    }

    /// Restricted-regex parse error.
    #[derive(Debug)]
    pub struct Error(pub String);

    /// Supports literals, `[...]` classes (with ranges), and `{m,n}` / `{n}`
    /// / `*` / `+` / `?` quantifiers — enough for test-identifier patterns
    /// like `"[a-z0-9_.]{0,16}"`.
    pub fn string_regex(pattern: &str) -> Result<RegexStrategy, Error> {
        let cs: Vec<char> = pattern.chars().collect();
        let mut i = 0usize;
        let mut atoms = Vec::new();
        while i < cs.len() {
            let chars: Vec<char> = match cs[i] {
                '[' => {
                    let close = cs[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .ok_or_else(|| Error("unclosed [".into()))?
                        + i;
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && cs[j + 1] == '-' {
                            let (lo, hi) = (cs[j] as u32, cs[j + 2] as u32);
                            for c in lo..=hi {
                                if let Some(c) = char::from_u32(c) {
                                    set.push(c);
                                }
                            }
                            j += 3;
                        } else {
                            set.push(cs[j]);
                            j += 1;
                        }
                    }
                    i = close + 1;
                    set
                }
                '\\' => {
                    i += 1;
                    if i >= cs.len() {
                        return Err(Error("dangling escape".into()));
                    }
                    let c = cs[i];
                    i += 1;
                    vec![c]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            if chars.is_empty() {
                return Err(Error("empty character class".into()));
            }
            // Optional quantifier.
            let (min, max) = if i < cs.len() {
                match cs[i] {
                    '{' => {
                        let close = cs[i..]
                            .iter()
                            .position(|&c| c == '}')
                            .ok_or_else(|| Error("unclosed {".into()))?
                            + i;
                        let body: String = cs[i + 1..close].iter().collect();
                        i = close + 1;
                        let parts: Vec<&str> = body.split(',').collect();
                        let parse = |s: &str| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|_| Error(format!("bad count {s}")))
                        };
                        match parts.as_slice() {
                            [n] => {
                                let n = parse(n)?;
                                (n, n)
                            }
                            [lo, hi] => (parse(lo)?, parse(hi)?),
                            _ => return Err(Error("bad {} quantifier".into())),
                        }
                    }
                    '*' => {
                        i += 1;
                        (0, 8)
                    }
                    '+' => {
                        i += 1;
                        (1, 8)
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            atoms.push(Atom { chars, min, max });
        }
        Ok(RegexStrategy { atoms })
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Per-case deterministic RNG.
#[doc(hidden)]
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32) ^ case as u64)
}

/// Property-test runner macro. Bodies run inline in a per-case loop, so
/// `prop_assume!` discards a case via `continue` and `prop_assert*` maps to
/// `assert*`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for __case in 0..config.cases {
                    let mut __rng = $crate::case_rng(stringify!($name), __case);
                    $(let $arg = $crate::Strategy::sample(&$strat, &mut __rng);)*
                    #[allow(clippy::redundant_closure_call)]
                    { $body }
                }
            }
        )*
    };
}

/// `prop_assert!` — plain assertion inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!` — equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!` — inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// `prop_assume!` — discard the current case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_sample_within_bounds() {
        let mut rng = crate::case_rng("bounds", 0);
        for _ in 0..200 {
            let v = (3u64..10).sample(&mut rng);
            assert!((3..10).contains(&v));
            let t = (0usize..4, -1.0f64..1.0).sample(&mut rng);
            assert!(t.0 < 4 && (-1.0..1.0).contains(&t.1));
        }
    }

    #[test]
    fn vec_and_regex_strategies() {
        let mut rng = crate::case_rng("vecre", 1);
        let vs = crate::collection::vec(0u32..5, 2..6).sample(&mut rng);
        assert!((2..6).contains(&vs.len()));
        let s = crate::string::string_regex("[a-c]{2,4}x").unwrap();
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!(v.ends_with('x'));
            let body = &v[..v.len() - 1];
            assert!((2..=4).contains(&body.len()));
            assert!(body.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_runs_and_maps(x in 0u32..100, ys in crate::collection::vec(0u32..10, 3)) {
            prop_assume!(x != 1);
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), 3);
            let doubled = (0u32..10).prop_map(|v| v * 2).sample(&mut crate::case_rng("m", x));
            prop_assert!(doubled % 2 == 0);
        }
    }
}
