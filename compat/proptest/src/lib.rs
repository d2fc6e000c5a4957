//! Offline stand-in for `proptest`.
//!
//! The build sandbox and CI cannot reach a crates registry, so this
//! in-repo crate provides the `proptest` subset the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`, range strategies
//! for the numeric types, [`prop::collection::vec`], the [`proptest!`]
//! macro (with `#![proptest_config(..)]` support), and
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Unlike upstream there is no shrinking and no persisted failure seeds:
//! every test derives its RNG seed from a stable FNV-1a hash of the test
//! path, so runs are fully deterministic — a failure reproduces by just
//! re-running the test, which is the contract this workspace wants
//! (explicit seeds everywhere, no ambient entropy).

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// Runtime configuration accepted by `#![proptest_config(..)]`.
///
/// Only `cases` is honored; upstream's shrinking- and persistence-related
/// knobs have no meaning here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
    /// Accepted for upstream compatibility; shrinking is not implemented,
    /// so the value is never consulted.
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

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value from the given generator.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: SampleUniform + Copy> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Size specification for [`vec()`]: a fixed length or a half-open
    /// range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates `Vec`s whose elements come from `element` and whose
    /// length is drawn from `size` (a fixed `usize` or `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror so `prop::collection::vec(..)` resolves as upstream.
pub mod prop {
    pub use crate::collection;
}

/// Stable FNV-1a hash of the test path, used as the RNG seed so every
/// property test is deterministic without any persisted state.
#[must_use]
pub fn seed_for(test_path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds the deterministic generator for one property test.
#[must_use]
pub fn rng_for(test_path: &str) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_path))
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
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

/// Declares property tests, mirroring upstream `proptest!`.
///
/// Supports the form used in this workspace: an optional leading
/// `#![proptest_config(expr)]`, then any number of
/// `fn name(arg in strategy, ...) { body }` items (doc comments and
/// other attributes on each fn are preserved). Each expands to a
/// function that samples the strategies `config.cases` times from a
/// deterministic per-test generator and runs the body; a panicking case
/// reports its index before propagating. As upstream, the macro adds no
/// `#[test]`: each `fn` carries its own.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng =
                    $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| $body),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest: {} failed at case {}/{} (deterministic; rerun reproduces)",
                            stringify!($name),
                            case + 1,
                            config.cases,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("a::b"), seed_for("a::b"));
        assert_ne!(seed_for("a::b"), seed_for("a::c"));
    }

    #[test]
    fn range_strategy_respects_bounds() {
        let mut rng = rng_for("range_strategy_respects_bounds");
        for _ in 0..1_000 {
            let x = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&x));
            let y = (-1.0f64..1.0).sample(&mut rng);
            assert!((-1.0..1.0).contains(&y));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = rng_for("vec_strategy_lengths");
        for _ in 0..200 {
            let fixed = collection::vec(0.0f64..1.0, 6).sample(&mut rng);
            assert_eq!(fixed.len(), 6);
            let ranged = collection::vec(0u64..10, 2..5).sample(&mut rng);
            assert!((2..5).contains(&ranged.len()));
        }
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = rng_for("prop_map_applies");
        let doubled = (1usize..10).prop_map(|x| x * 2).sample(&mut rng);
        assert_eq!(doubled % 2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// The macro itself: args bind, config caps cases, asserts work.
        #[test]
        fn macro_smoke(x in 0u64..100, v in prop::collection::vec(0.0f64..1.0, 1..4)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.is_empty(), false);
        }
    }
}
