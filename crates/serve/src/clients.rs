//! Simulated client populations with per-user Zipfian key draws.

use emb_util::{seed_rng, split_seed, ZipfSampler};
use rand::Rng;
use std::collections::HashMap;

/// Seed-split label for the per-user key-draw stream family.
const USER_STREAM: u64 = 0xC11E17;

/// One embedding lookup request from one user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requesting user id (`0..num_users`).
    pub user: u64,
    /// The requested embedding keys (may contain duplicates; the
    /// admission queue deduplicates when coalescing a batch).
    pub keys: Vec<u32>,
}

/// A population of `num_users` simulated clients sharing one Zipfian
/// popularity profile.
///
/// Each request draws its user uniformly from the population (via the
/// caller-supplied RNG — typically split from the arrival stream), then
/// draws `keys_per_request` keys from the shared [`ZipfSampler`] using a
/// dedicated RNG seeded with
/// [`split_seed`]`(split_seed(seed, USER_STREAM ^ user), visit)`.
/// Per-user streams are therefore deterministic and independent — a new
/// user or an extra visit never perturbs anyone else's draws — and the
/// only per-user state is a lazily populated visit counter for users
/// that actually appeared, so populations of millions cost nothing up
/// front.
#[derive(Debug, Clone)]
pub struct ClientPopulation {
    seed: u64,
    num_users: u64,
    keys_per_request: usize,
    zipf: ZipfSampler,
    visits: HashMap<u64, u64>,
}

impl ClientPopulation {
    /// Creates a population over `num_keys` embedding keys.
    ///
    /// # Panics
    ///
    /// Panics if `num_users` or `num_keys` is zero, or if `alpha` is not
    /// a positive finite number (propagated from [`ZipfSampler::new`]).
    pub fn new(
        seed: u64,
        num_users: u64,
        num_keys: u64,
        alpha: f64,
        keys_per_request: usize,
    ) -> Self {
        assert!(num_users > 0, "population must be non-empty");
        ClientPopulation {
            seed,
            num_users,
            keys_per_request,
            zipf: ZipfSampler::new(num_keys, alpha),
            visits: HashMap::new(),
        }
    }

    /// Draws the next request: a uniform user from `rng`, then that
    /// user's keys from their own split-seeded Zipf stream.
    pub fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Request {
        let user = rng.gen_range(0..self.num_users);
        let visit = self.visits.entry(user).or_insert(0);
        let mut key_rng = seed_rng(split_seed(
            split_seed(self.seed, USER_STREAM ^ user),
            *visit,
        ));
        *visit += 1;
        let keys = (0..self.keys_per_request)
            .map(|_| self.zipf.sample(&mut key_rng) as u32)
            .collect();
        Request { user, keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let mut a = ClientPopulation::new(9, 1_000_000, 10_000, 1.1, 8);
        let mut b = ClientPopulation::new(9, 1_000_000, 10_000, 1.1, 8);
        let mut ra = seed_rng(1);
        let mut rb = seed_rng(1);
        for _ in 0..64 {
            assert_eq!(a.next_request(&mut ra), b.next_request(&mut rb));
        }
    }

    #[test]
    fn keys_stay_in_domain_and_head_is_hot() {
        let n = 5_000u64;
        let mut pop = ClientPopulation::new(4, 100_000, n, 1.2, 16);
        let mut rng = seed_rng(2);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let r = pop.next_request(&mut rng);
            assert_eq!(r.keys.len(), 16);
            assert!(r.user < 100_000);
            for &k in &r.keys {
                assert!((k as u64) < n);
                total += 1;
                if (k as u64) < n / 100 {
                    head += 1;
                }
            }
        }
        // A 1% key head should absorb far more than 1% of Zipf(1.2) draws.
        assert!(head * 10 > total, "head draws {head} of {total}");
    }

    #[test]
    fn repeat_visits_draw_fresh_keys() {
        // A single-user population: every request is a new visit of the
        // same user, and successive visits must not repeat a stream.
        let mut pop = ClientPopulation::new(7, 1, 1_000_000, 1.05, 8);
        let mut rng = seed_rng(3);
        let a = pop.next_request(&mut rng);
        let b = pop.next_request(&mut rng);
        assert_eq!(a.user, b.user);
        assert_ne!(a.keys, b.keys);
    }
}
