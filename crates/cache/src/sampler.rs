//! Foreground hotness sampling (§7.2).
//!
//! UGache samples input requests on the CPU to track hotness without
//! impacting the extraction path. The sampler counts every `1/rate`-th
//! key deterministically (stride sampling is unbiased here because keys
//! arrive in workload order, not sorted order).

use cache_policy::Hotness;

/// Streaming key-frequency sampler.
///
/// Besides a count per entry it lists the entries it has counted since
/// the last reset, so [`HotnessSampler::snapshot`] and
/// [`HotnessSampler::reset`] cost those entries, not the key space: a
/// refresh's snapshot holds a few percent of it.
///
/// Counts are `u32`, saturating at `u32::MAX`: 4 bytes an entry, and a
/// count that high already ranks its entry first.
#[derive(Debug, Clone, PartialEq)]
pub struct HotnessSampler {
    counts: Vec<u32>,
    /// The entries whose count is not zero, in the order they were first
    /// counted.
    touched: Vec<u32>,
    /// Record one of every `stride` keys.
    stride: usize,
    cursor: usize,
}

impl HotnessSampler {
    /// Creates a sampler over `num_entries` keys, recording one in
    /// `stride` observations (`stride = 1` counts everything).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(num_entries: usize, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        HotnessSampler {
            counts: vec![0; num_entries],
            touched: Vec::new(),
            stride,
            cursor: 0,
        }
    }

    /// Observes a batch of keys.
    ///
    /// # Panics
    ///
    /// Panics if a key is out of range.
    pub fn observe(&mut self, keys: &[u32]) {
        // `cursor` keys have passed since the last one counted: the next
        // to count is `stride − 1 − cursor` keys on, then every `stride`-th.
        let first = self.stride - 1 - self.cursor;
        for &k in keys.iter().skip(first).step_by(self.stride) {
            let count = &mut self.counts[k as usize];
            if *count == 0 {
                self.touched.push(k);
            }
            *count = count.saturating_add(1);
        }
        self.cursor = (self.cursor + keys.len()) % self.stride;
    }

    /// Snapshot of the current hotness estimate: the counted entries
    /// sorted, with their counts.
    pub fn snapshot(&self) -> Hotness {
        let mut entries = self.touched.clone();
        entries.sort_unstable();
        let weights: Vec<f64> = entries
            .iter()
            .map(|&e| f64::from(self.counts[e as usize]))
            .collect();
        Hotness::sparse(self.counts.len(), &entries, &weights)
    }

    /// Clears counts (e.g. after a refresh consumed them).
    pub fn reset(&mut self) {
        for &e in &self.touched {
            self.counts[e as usize] = 0;
        }
        self.touched.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::{seed_rng, ZipfSampler};

    #[test]
    fn full_rate_counts_everything() {
        let mut s = HotnessSampler::new(10, 1);
        s.observe(&[1, 1, 2, 9]);
        let h = s.snapshot();
        assert_eq!(h.total(), 4.0);
        let w = h.dense_weights();
        assert_eq!(w[1], 2.0);
        assert_eq!(w[9], 1.0);
    }

    #[test]
    fn stride_sampling_is_proportional() {
        let n = 1000u64;
        let zipf = ZipfSampler::new(n, 1.2);
        let mut rng = seed_rng(3);
        let keys: Vec<u32> = (0..200_000).map(|_| zipf.sample(&mut rng) as u32).collect();
        let mut full = HotnessSampler::new(n as usize, 1);
        let mut sub = HotnessSampler::new(n as usize, 16);
        full.observe(&keys);
        sub.observe(&keys);
        assert_eq!(sub.snapshot().total(), (200_000 / 16) as f64);
        // The top entries should agree between full and subsampled counts.
        let top_full = full.snapshot().ranking()[0];
        let top_sub = sub.snapshot().ranking()[0];
        assert_eq!(top_full, top_sub);
        // Subsampled counts scale by ~stride.
        let ratio = full.snapshot().dense_weights()[top_full as usize]
            / sub.snapshot().dense_weights()[top_sub as usize].max(1.0);
        assert!((ratio - 16.0).abs() < 3.0, "ratio {ratio}");
    }

    #[test]
    fn reset_clears_state() {
        let mut s = HotnessSampler::new(4, 2);
        s.observe(&[0, 1, 2, 3]);
        s.reset();
        assert_eq!(s.snapshot().total(), 0.0);
    }

    #[test]
    fn snapshots_after_a_reset_equal_dense_counts() {
        // Two rounds of observations, a reset between them: each snapshot
        // must be the one dense `u64` counts of the same round give, to
        // the bit, at every stride — the second round revisits some entries
        // of the first and leaves others at zero. No count nears the `u32`
        // ceiling, so saturating `u32` counts read as the `u64` model.
        let n = 5_000u64;
        let zipf = ZipfSampler::new(n, 1.1);
        let mut rng = seed_rng(9);
        for stride in [1, 3, 16] {
            let mut s = HotnessSampler::new(n as usize, stride);
            for round in 0..3 {
                let keys: Vec<u32> = (0..4_000 + 3_000 * round)
                    .map(|_| (zipf.sample(&mut rng) * 31 % n) as u32)
                    .collect();
                let mut dense = vec![0u64; n as usize];
                for &k in keys.iter().skip(stride - 1).step_by(stride) {
                    dense[k as usize] += 1;
                }
                // Batches shorter and longer than the stride, and empty
                // ones: the count carries across them.
                let mut rest = keys.as_slice();
                for len in [700, 0, 1, 5, 17, 2].into_iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (batch, tail) = rest.split_at(len.min(rest.len()));
                    s.observe(batch);
                    rest = tail;
                }
                let (got, want) = (s.snapshot(), Hotness::from_counts(&dense));
                assert_eq!(got, want, "stride {stride}, round {round}");
                let bits = |h: &Hotness| -> Vec<u64> {
                    h.dense_weights().iter().map(|w| w.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "stride {stride}, round {round}");
                assert_eq!(got.total().to_bits(), want.total().to_bits());
                s.reset();
                assert_eq!(s, HotnessSampler::new(n as usize, stride));
            }
        }
    }

    #[test]
    fn counts_saturate_at_the_top_of_a_u32() {
        let mut s = HotnessSampler::new(3, 1);
        s.observe(&[2, 1]);
        s.counts[2] = u32::MAX - 2;
        s.observe(&[2, 2, 2, 2, 0, 2]);
        let w = s.snapshot().dense_weights();
        assert_eq!(w, [1.0, 1.0, f64::from(u32::MAX)]);
        assert_eq!(s.touched, [2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = HotnessSampler::new(4, 0);
    }
}
