//! Offline stand-in for the `rand` crate.
//!
//! The build sandbox and CI cannot reach a crates registry, so this
//! in-repo crate provides the exact `rand 0.8` API subset the workspace
//! uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], the [`Rng`]
//! extension methods (`gen`, `gen_range`, `gen_bool`) and
//! [`seq::SliceRandom`] (`shuffle`, `choose`, `choose_multiple`).
//!
//! [`rngs::StdRng`] is xoshiro256++ seeded through SplitMix64 — not the
//! upstream ChaCha12, so absolute streams differ from real `rand`, but
//! every consumer in this workspace only relies on *seeded determinism*
//! (same seed ⇒ same stream), which holds. No ambient entropy source is
//! provided at all: every generator must be constructed from an explicit
//! seed, which is load-bearing for the repro harness.

pub mod rngs;
pub mod seq;

/// Low-level uniform bit source.
pub trait RngCore {
    /// Returns the next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniform bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction of a generator from an explicit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a bare `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce uniformly.
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u16 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u16
    }
}

impl Standard for u8 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u8
    }
}

impl Standard for usize {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with uniform range sampling.
pub trait SampleUniform: Sized {
    /// Draws uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Draws uniformly from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Draws uniformly from `[0, span)` without modulo bias (widening
/// multiply with rejection).
///
/// A draw is accepted when the product's low word is at most
/// `zone = u64::MAX - 2^64 mod span`. The remainder is below `span`, so
/// a low word of at most `u64::MAX - span` is inside the zone whatever
/// the remainder is: that is tested first and the 64-bit division runs
/// only when it fails (with probability `span / 2^64`). Same accepted
/// set, same number of draws, same values for every span.
fn uniform_u64<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let lo = m as u64;
        if lo <= u64::MAX - span || lo <= u64::MAX - (u64::MAX - span + 1) % span {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {
        $(impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_u64(span, rng) as $t)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(span as u64, rng) as $t)
            }
        })*
    };
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {
        $(impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let unit = <$t as Standard>::standard(rng);
                let v = lo + (hi - lo) * unit;
                // Guard the open upper bound against rounding.
                if v >= hi { lo } else { v }
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let unit = <$t as Standard>::standard(rng);
                lo + (hi - lo) * unit
            }
        })*
    };
}

impl_sample_uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

/// User-facing generator methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// Draws uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        f64::standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(5..17);
            assert!((5..17).contains(&x));
            let y: f64 = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&y));
            let z: usize = rng.gen_range(0..=3);
            assert!(z <= 3);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    /// `uniform_u64` as it stood before the division was made
    /// conditional: the zone computed up front, one compare per draw.
    fn frozen_uniform_u64<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let m = (rng.next_u64() as u128) * (span as u128);
            if (m as u64) <= zone {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn uniform_u64_matches_the_frozen_formula() {
        const DRAWS: usize = 20_000;
        let spans = [
            1,
            2,
            3,
            7,
            10,
            25,
            1_000,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            3_000_000_007,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            (1 << 63) + (1 << 62),
            u64::MAX - 1,
            u64::MAX,
        ];
        for span in spans {
            let mut a = StdRng::seed_from_u64(span);
            let mut b = a.clone();
            let mut plain = a.clone();
            for _ in 0..DRAWS {
                plain.next_u64();
                assert_eq!(
                    uniform_u64(span, &mut a),
                    frozen_uniform_u64(span, &mut b),
                    "span {span}"
                );
            }
            assert_eq!(a, b, "span {span}: generators drew different amounts");
            // Just above 2^63 a quarter to a half of the draws are
            // rejected, so the division's branch is the one deciding.
            if span > 1 << 63 && span < u64::MAX - 1 {
                assert_ne!(a, plain, "span {span}: nothing was rejected");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _: usize = rng.gen_range(3..3);
    }

    #[test]
    fn unsized_rng_bound_compiles() {
        fn take<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..10u64)
        }
        let mut rng = StdRng::seed_from_u64(8);
        assert!(take(&mut rng) < 10);
    }
}
