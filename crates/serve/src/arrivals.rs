//! Deterministic Poisson arrival process on the virtual clock.

use emb_util::{seed_rng, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// A seeded Poisson process: successive [`PoissonArrivals::next`] calls
/// return strictly ordered arrival instants whose gaps are exponential
/// with mean `1 / rate`.
///
/// Inter-arrival gaps come from the inverse CDF (`-ln(1-u) / rate`)
/// over a [`seed_rng`] stream and are accumulated in call order as
/// `f64` seconds before conversion to [`SimTime`], so the instants are
/// byte-for-byte reproducible for a given `(seed, rate)` — there is no
/// wall clock and no ambient randomness.
///
/// # Examples
///
/// ```
/// let mut a = emb_serve::PoissonArrivals::new(7, 1000.0);
/// let mut b = emb_serve::PoissonArrivals::new(7, 1000.0);
/// assert_eq!(a.next(), b.next());
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: StdRng,
    rate: f64,
    elapsed_secs: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given seed and offered rate
    /// (requests per second of virtual time).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and positive.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be a positive finite number"
        );
        PoissonArrivals {
            rng: seed_rng(seed),
            rate,
            elapsed_secs: 0.0,
        }
    }

    /// Returns the next arrival instant (relative to the process start).
    // Deliberately an inherent method: the process is infinite, and an
    // `Iterator` impl would shadow the bounded inherent `take` below.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> SimTime {
        // u is uniform in [0, 1); 1-u is in (0, 1], so the log argument
        // never hits zero and the gap is finite and non-negative.
        let u: f64 = self.rng.gen();
        self.elapsed_secs += -(1.0 - u).ln() / self.rate;
        SimTime::from_secs_f64(self.elapsed_secs)
    }

    /// Generates the first `n` arrival instants.
    pub fn take(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_ordered_and_positive() {
        let mut p = PoissonArrivals::new(3, 10_000.0);
        let ts = p.take(1_000);
        assert!(ts[0] > SimTime::ZERO);
        for w in ts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn mean_gap_matches_rate() {
        let rate = 5_000.0;
        let mut p = PoissonArrivals::new(11, rate);
        let n = 20_000;
        let last = p.take(n).pop().unwrap();
        let mean_gap = last.as_secs_f64() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() / expected < 0.05,
            "mean gap {mean_gap} vs expected {expected}"
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a = PoissonArrivals::new(1, 100.0).take(16);
        let b = PoissonArrivals::new(2, 100.0).take(16);
        assert_ne!(a, b);
    }

    #[test]
    fn arrival_process_is_pinned_byte_for_byte() {
        // Golden nanosecond timestamps for the harness seed and the
        // serving engine's arrival stream label. Any change to the RNG,
        // the seed-splitting scheme, the inter-arrival formula, or the
        // f64 accumulation order shifts these and breaks every committed
        // serving baseline — this pin makes that a unit-test failure
        // instead of a CI artifact diff.
        const LABEL: u64 = 0xA22100; // engine::ARRIVAL_STREAM
        let main: Vec<u64> = PoissonArrivals::new(emb_util::split_seed(0x5EED, LABEL), 10_000.0)
            .take(8)
            .iter()
            .map(|t| t.as_nanos())
            .collect();
        assert_eq!(
            main,
            [48356, 56567, 159974, 261088, 285096, 778587, 886480, 916941]
        );
        // The per-point split stream (label ^ point) is an independent
        // pinned sequence, not a shift of the first.
        let split: Vec<u64> =
            PoissonArrivals::new(emb_util::split_seed(0x5EED, LABEL ^ 1), 10_000.0)
                .take(4)
                .iter()
                .map(|t| t.as_nanos())
                .collect();
        assert_eq!(split, [59465, 135227, 355462, 629831]);
        // Same seed, fresh process: byte-identical replay.
        let replay: Vec<u64> = PoissonArrivals::new(emb_util::split_seed(0x5EED, LABEL), 10_000.0)
            .take(8)
            .iter()
            .map(|t| t.as_nanos())
            .collect();
        assert_eq!(main, replay);
    }
}
