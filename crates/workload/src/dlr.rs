//! DLR inference request streams.

use crate::datasets::DlrDataset;
use cache_policy::Hotness;
use emb_util::{seed_rng, split_seed, KeyMarks, ZipfSampler};
use rand::rngs::StdRng;
use std::sync::Arc;

/// A data-parallel DLR inference workload: each request carries one key
/// per embedding table (paper §8.1, Criteo layout); a batch of `B`
/// requests on a GPU therefore touches up to `B × num_tables` keys, which
/// are deduplicated before extraction as real systems do.
///
/// Table geometry and the samplers' head tables are shared behind
/// [`Arc`]s: `clone()` copies the per-GPU RNGs and their (empty) key
/// marks, nothing that grows with the number of tables.
#[derive(Debug, Clone)]
pub struct DlrWorkload {
    dataset: Arc<DlrDataset>,
    batch_size: usize,
    /// One sampler per table; tables of equal size share one head table.
    samplers: Arc<[ZipfSampler]>,
    /// Per GPU: its split RNG and the marks that deduplicate its batch.
    lanes: Vec<(StdRng, KeyMarks)>,
}

/// Ground-truth hotness mode for DLR datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlrHotness {
    /// Exact Zipf masses (what an oracle profiler would converge to).
    Analytic,
}

impl DlrWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `num_gpus == 0`, or if the tables
    /// together hold more than `u32::MAX` entries: keys are `u32`s, and a
    /// larger key space would wrap into the first tables' keys.
    pub fn new(dataset: DlrDataset, batch_size: usize, num_gpus: usize, seed: u64) -> Self {
        assert!(batch_size > 0 && num_gpus > 0);
        let key_space: u64 = dataset.table_sizes.iter().sum();
        assert!(
            key_space <= u32::MAX as u64,
            "{} holds {key_space} entries, more than u32 keys can address",
            dataset.name
        );
        let mut samplers: Vec<ZipfSampler> = Vec::with_capacity(dataset.num_tables());
        for &n in &dataset.table_sizes {
            let n = n.max(1);
            let sampler = match samplers.iter().find(|built| built.domain() == n) {
                Some(built) => built.clone(),
                None => ZipfSampler::new(n, dataset.alpha),
            };
            samplers.push(sampler);
        }
        let lanes = (0..num_gpus)
            .map(|g| {
                (
                    seed_rng(split_seed(seed, 0xD1B + g as u64)),
                    KeyMarks::new(key_space as usize),
                )
            })
            .collect();
        DlrWorkload {
            dataset: Arc::new(dataset),
            batch_size,
            samplers: samplers.into(),
            lanes,
        }
    }

    /// The dataset.
    pub fn dataset(&self) -> &DlrDataset {
        &self.dataset
    }

    /// Draws the next iteration's deduplicated keys per GPU, ascending.
    ///
    /// Each GPU is one chunk on the `emb_util::pool` worker pool: GPU
    /// `g` draws exclusively from its own RNG (already split per GPU via
    /// `split_seed`), so the streams are identical at any thread count
    /// — and identical to the original sequential loop.
    pub fn next_batch(&mut self) -> Vec<Vec<u32>> {
        let samplers = &*self.samplers;
        let offsets = &self.dataset.table_offsets;
        let batch_size = self.batch_size;
        let work: Vec<&mut (StdRng, KeyMarks)> = self.lanes.iter_mut().collect();
        emb_util::pool::par_map_owned(work, |_g, (rng, marks)| {
            for _ in 0..batch_size {
                for (sampler, offset) in samplers.iter().zip(offsets) {
                    marks.mark((offset + sampler.sample(rng)) as u32);
                }
            }
            marks.take_sorted()
        })
    }

    /// Mean unique keys per GPU per iteration over `iters` batches.
    pub fn measure_accesses_per_iter(&mut self, iters: usize) -> f64 {
        let mut total = 0usize;
        for _ in 0..iters.max(1) {
            total += self.next_batch().iter().map(|b| b.len()).sum::<usize>();
        }
        total as f64 / (iters.max(1) * self.lanes.len()) as f64
    }

    /// Hotness over the global key space.
    pub fn hotness(&mut self, mode: DlrHotness) -> Hotness {
        let DlrHotness::Analytic = mode;
        let mut w = Vec::with_capacity(self.dataset.num_entries());
        for &n in &self.dataset.table_sizes {
            // Unnormalized Zipf mass per in-table rank, summed in rank
            // order; tables share the request rate, so the normalized
            // masses are comparable as-is.
            let table = w.len();
            w.extend((1..=n).map(|r| (r as f64).powf(-self.dataset.alpha)));
            let norm: f64 = w[table..].iter().sum();
            for mass in &mut w[table..] {
                *mass /= norm;
            }
        }
        Hotness::new(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dlr_preset, DlrDatasetId};

    fn workload(id: DlrDatasetId) -> DlrWorkload {
        DlrWorkload::new(dlr_preset(id, 4096), 512, 4, 11)
    }

    #[test]
    fn batch_shape_and_dedup() {
        let mut w = workload(DlrDatasetId::SynA);
        let b = w.next_batch();
        assert_eq!(b.len(), 4);
        for keys in &b {
            // ≤ batch × tables, deduped and sorted.
            assert!(keys.len() <= 512 * 100);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn keys_land_in_their_tables() {
        let mut w = workload(DlrDatasetId::Cr);
        let d = w.dataset().clone();
        let total = d.num_entries() as u32;
        for keys in w.next_batch() {
            for k in keys {
                assert!(k < total);
            }
        }
    }

    #[test]
    fn higher_alpha_dedups_harder() {
        // SYN-B (α=1.4) is more skewed than SYN-A (α=1.2): more duplicate
        // draws → fewer unique keys per batch.
        let mut a = workload(DlrDatasetId::SynA);
        let mut b = workload(DlrDatasetId::SynB);
        let ua = a.measure_accesses_per_iter(3);
        let ub = b.measure_accesses_per_iter(3);
        assert!(ub < ua, "SYN-B {ub} vs SYN-A {ua}");
    }

    #[test]
    fn analytic_hotness_sums_to_tables() {
        let mut w = workload(DlrDatasetId::SynA);
        let h = w.hotness(DlrHotness::Analytic);
        // Each of the 100 tables contributes probability mass 1.
        assert!((h.total() - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "more than u32 keys can address")]
    fn a_key_space_beyond_u32_is_rejected() {
        // Two tables of 2^31 + 1 entries: the second table's last keys
        // would wrap onto the first table's first.
        let mut d = dlr_preset(DlrDatasetId::SynA, 4096);
        d.table_sizes = vec![(1 << 31) + 1; 2];
        d.table_offsets = vec![0, (1 << 31) + 1];
        let _ = DlrWorkload::new(d, 8, 1, 1);
    }

    #[test]
    fn deterministic_stream() {
        let mut a = workload(DlrDatasetId::SynB);
        let mut b = workload(DlrDatasetId::SynB);
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn stream_is_identical_at_any_thread_count() {
        let baseline = emb_util::pool::with_threads(1, || {
            let mut w = workload(DlrDatasetId::SynA);
            (0..3).map(|_| w.next_batch()).collect::<Vec<_>>()
        });
        for threads in [2, 8] {
            let run = emb_util::pool::with_threads(threads, || {
                let mut w = workload(DlrDatasetId::SynA);
                (0..3).map(|_| w.next_batch()).collect::<Vec<_>>()
            });
            assert_eq!(baseline, run, "threads {threads}");
        }
    }
}
