//! GNN training batch streams and hotness profiling.

use crate::datasets::GnnDataset;
use cache_policy::Hotness;
use emb_graph::{FanoutSampler, SampleScratch};
use emb_util::{seed_rng, split_seed};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::sync::Arc;

/// GNN model presets evaluated in the paper (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnModel {
    /// 3-hop GCN.
    Gcn,
    /// 2-hop supervised GraphSAGE.
    GraphSageSupervised,
    /// 2-hop unsupervised GraphSAGE with negative sampling.
    GraphSageUnsupervised,
}

impl GnnModel {
    /// All models in paper order.
    pub const ALL: [GnnModel; 3] = [
        GnnModel::Gcn,
        GnnModel::GraphSageSupervised,
        GnnModel::GraphSageUnsupervised,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            GnnModel::Gcn => "GCN",
            GnnModel::GraphSageSupervised => "SAGE Sup.",
            GnnModel::GraphSageUnsupervised => "SAGE Unsup.",
        }
    }

    /// The neighbourhood sampler this model uses.
    pub fn sampler(self) -> FanoutSampler {
        match self {
            GnnModel::Gcn => FanoutSampler::gcn(),
            GnnModel::GraphSageSupervised => FanoutSampler::graphsage(),
            GnnModel::GraphSageUnsupervised => FanoutSampler::graphsage_unsupervised(),
        }
    }

    /// Hidden layers of the dense part (for the MLP cost model).
    pub fn mlp_layers(self) -> usize {
        match self {
            GnnModel::Gcn => 3,
            _ => 2,
        }
    }
}

/// One GPU's sampling state: its own split RNG and the sampler's
/// working memory, reused from batch to batch.
#[derive(Debug, Clone)]
struct Lane {
    rng: StdRng,
    scratch: SampleScratch,
}

/// A data-parallel GNN training workload: per iteration, each GPU draws a
/// seed mini-batch from the training set and samples its k-hop
/// neighbourhood; the unique visited vertices are the embedding keys.
///
/// The dataset and the epoch order are shared behind [`Arc`]s: `clone()`
/// — every figure cell and every `measure_accesses_per_iter` probe makes
/// one — copies the per-GPU RNGs, their scratch and the cursor, not the
/// graph.
#[derive(Debug, Clone)]
pub struct GnnWorkload {
    dataset: Arc<GnnDataset>,
    model: GnnModel,
    batch_size: usize,
    lanes: Vec<Lane>,
    epoch_order: Arc<[u32]>,
    cursor: usize,
}

impl GnnWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `num_gpus == 0`.
    pub fn new(
        dataset: GnnDataset,
        model: GnnModel,
        batch_size: usize,
        num_gpus: usize,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0 && num_gpus > 0);
        let mut order = dataset.train_set.clone();
        let mut rng = seed_rng(split_seed(seed, 0xE70C));
        order.shuffle(&mut rng);
        let lanes = (0..num_gpus)
            .map(|g| Lane {
                rng: seed_rng(split_seed(seed, 0x5A17 + g as u64)),
                scratch: SampleScratch::new(dataset.num_entries()),
            })
            .collect();
        GnnWorkload {
            dataset: Arc::new(dataset),
            model,
            batch_size,
            lanes,
            epoch_order: order.into(),
            cursor: 0,
        }
    }

    /// The dataset.
    pub fn dataset(&self) -> &GnnDataset {
        &self.dataset
    }

    /// The model.
    pub fn model(&self) -> GnnModel {
        self.model
    }

    /// Iterations per epoch under data parallelism.
    pub fn iters_per_epoch(&self) -> usize {
        let global_batch = self.batch_size * self.lanes.len();
        self.epoch_order.len().div_ceil(global_batch).max(1)
    }

    /// Draws one GPU's seed mini-batch, wrapping the epoch order.
    fn draw_seeds(&mut self) -> Vec<u32> {
        let mut seeds = Vec::with_capacity(self.batch_size);
        for _ in 0..self.batch_size {
            if self.cursor >= self.epoch_order.len() {
                self.cursor = 0;
            }
            seeds.push(self.epoch_order[self.cursor]);
            self.cursor += 1;
        }
        seeds
    }

    /// Draws the next iteration's unique keys per GPU.
    ///
    /// The shared epoch cursor is walked serially (seed mini-batches are
    /// assigned in GPU order as before); neighbourhood sampling — the
    /// expensive part — then runs one chunk per GPU on the
    /// `emb_util::pool` worker pool with each GPU's own split RNG, so
    /// batches are identical at any thread count.
    pub fn next_batch(&mut self) -> Vec<Vec<u32>> {
        let sampler = self.model.sampler();
        let seeds: Vec<Vec<u32>> = (0..self.lanes.len()).map(|_| self.draw_seeds()).collect();
        let graph = &self.dataset.graph;
        let work: Vec<(&mut Lane, Vec<u32>)> = self.lanes.iter_mut().zip(seeds).collect();
        emb_util::pool::par_map_owned(work, |_g, (lane, seeds)| {
            sampler.sample_unique_keys(graph, &seeds, &mut lane.rng, &mut lane.scratch)
        })
    }

    /// Mean unique keys per GPU per iteration, measured over `iters`
    /// sampled batches (used to scale the solver's time estimate).
    pub fn measure_accesses_per_iter(&mut self, iters: usize) -> f64 {
        let mut total = 0usize;
        for _ in 0..iters.max(1) {
            let batch = self.next_batch();
            total += batch.iter().map(|b| b.len()).sum::<usize>();
        }
        total as f64 / (iters.max(1) * self.lanes.len()) as f64
    }

    /// Pre-sampling hotness (GNNLab-style, §6.1): counts raw (pre-dedup)
    /// vertex visits over `iters` sampled iterations. Deduplicated counts
    /// would saturate at one per batch and lose the frequency ordering.
    pub fn profile_hotness(&mut self, iters: usize) -> Hotness {
        let sampler = self.model.sampler();
        let n = self.dataset.num_entries();
        // Walk the shared cursor serially so seed assignment stays in
        // (iteration, GPU) order, then sample each GPU's iterations as
        // one pool chunk with its own RNG. Per-GPU u64 visit counts are
        // summed in GPU order; totals are identical at any thread count.
        let num_gpus = self.lanes.len();
        let mut seed_batches: Vec<Vec<Vec<u32>>> = vec![Vec::with_capacity(iters); num_gpus];
        for _ in 0..iters {
            for g in 0..num_gpus {
                let seeds = self.draw_seeds();
                seed_batches[g].push(seeds);
            }
        }
        let graph = &self.dataset.graph;
        let work: Vec<(&mut Lane, Vec<Vec<u32>>)> =
            self.lanes.iter_mut().zip(seed_batches).collect();
        let per_gpu = emb_util::pool::par_map_owned(work, |_g, (lane, batches)| {
            let mut counts = vec![0u64; n];
            for seeds in &batches {
                sampler.for_each_visit(graph, seeds, &mut lane.rng, &mut lane.scratch, |k| {
                    counts[k as usize] += 1;
                });
            }
            counts
        });
        let mut counts = vec![0u64; n];
        for c in per_gpu {
            for (total, v) in counts.iter_mut().zip(c) {
                *total += v;
            }
        }
        Hotness::from_counts(&counts)
    }

    /// Degree-based hotness (PaGraph-style, §6.1): in-degree as the
    /// access-frequency proxy. No profiling epoch needed.
    pub fn degree_hotness(&self) -> Hotness {
        Hotness::from_counts(&self.dataset.graph.in_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{gnn_preset, GnnDatasetId};

    fn workload(model: GnnModel) -> GnnWorkload {
        let d = gnn_preset(GnnDatasetId::Pa, 2048, 5);
        GnnWorkload::new(d, model, 256, 4, 7)
    }

    #[test]
    fn batches_have_one_list_per_gpu() {
        let mut w = workload(GnnModel::GraphSageSupervised);
        let b = w.next_batch();
        assert_eq!(b.len(), 4);
        for keys in &b {
            assert!(keys.len() >= 256, "expansion should exceed seeds");
        }
    }

    #[test]
    fn unsupervised_touches_more_keys() {
        let mut sup = workload(GnnModel::GraphSageSupervised);
        let mut unsup = workload(GnnModel::GraphSageUnsupervised);
        let a: usize = sup.next_batch().iter().map(|b| b.len()).sum();
        let b: usize = unsup.next_batch().iter().map(|b| b.len()).sum();
        assert!(b > a, "unsup {b} vs sup {a}");
    }

    #[test]
    fn profile_hotness_is_skewed_and_degree_correlated() {
        let mut w = workload(GnnModel::GraphSageSupervised);
        let profiled = w.profile_hotness(8);
        assert!(profiled.total() > 0.0);
        let degree = w.degree_hotness();
        // Top-100 by profile should heavily overlap top-100 by degree.
        let top_p: std::collections::HashSet<u32> =
            profiled.ranking().into_iter().take(100).collect();
        let top_d: std::collections::HashSet<u32> =
            degree.ranking().into_iter().take(100).collect();
        let overlap = top_p.intersection(&top_d).count();
        assert!(overlap >= 50, "only {overlap}/100 overlap");
    }

    #[test]
    fn iters_per_epoch_covers_train_set() {
        let w = workload(GnnModel::Gcn);
        let n_train = w.dataset().train_set.len();
        assert_eq!(w.iters_per_epoch(), n_train.div_ceil(256 * 4).max(1));
    }

    #[test]
    fn measure_accesses_is_stable() {
        let mut w = workload(GnnModel::GraphSageSupervised);
        let a = w.measure_accesses_per_iter(3);
        assert!(a > 256.0);
    }

    #[test]
    fn deterministic_stream() {
        let mut a = workload(GnnModel::Gcn);
        let mut b = workload(GnnModel::Gcn);
        assert_eq!(a.next_batch(), b.next_batch());
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn stream_is_identical_at_any_thread_count() {
        let run = |threads: usize| {
            emb_util::pool::with_threads(threads, || {
                let mut w = workload(GnnModel::GraphSageSupervised);
                let batches: Vec<_> = (0..3).map(|_| w.next_batch()).collect();
                let hot = w.profile_hotness(2);
                (batches, hot.ranking())
            })
        };
        let baseline = run(1);
        for threads in [2, 8] {
            assert_eq!(baseline, run(threads), "threads {threads}");
        }
    }
}
