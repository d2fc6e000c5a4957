//! Multi-hop neighbourhood sampling.
//!
//! Reproduces the sampling front-end of DGL-style GNN training: every
//! iteration picks a seed batch, expands it hop by hop with per-hop
//! fanouts, and the union of visited vertices is the set of embedding
//! keys the extraction layer must fetch (paper §2, "batched, subset
//! access"). Unsupervised training additionally draws uniform negative
//! samples, which *reduces* access skew — the effect the paper calls out
//! in §8.2.

use crate::csr::Csr;
use emb_util::KeyMarks;
use rand::Rng;

/// Result of sampling one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledBatch {
    /// Unique vertices touched (seeds, neighbours, negatives) — the
    /// embedding keys to extract, deduplicated as real systems do.
    pub unique_keys: Vec<u32>,
    /// Every vertex visit before deduplication, in visit order. Hotness
    /// profiling counts these (deduplicated presence ties hot entries
    /// together and loses the frequency signal).
    pub visits: Vec<u32>,
}

/// Working memory a [`FanoutSampler`] reuses from batch to batch: the
/// frontier list, the index scratch of its partial Fisher–Yates, and the
/// marks that deduplicate. Sampling through a warmed-up scratch
/// allocates nothing but the returned key list.
#[derive(Debug)]
pub struct SampleScratch {
    walk: Walk,
    marks: KeyMarks,
}

/// What walking a neighbourhood needs besides the graph and the RNG.
#[derive(Debug, Default)]
struct Walk {
    /// Seeds, negatives, then the picks of every hop but the last; each
    /// hop's window of it is the next hop's frontier.
    frontier: Vec<u32>,
    /// The identity `0, 1, 2, …` up to the longest neighbour list picked
    /// from so far — [`pick`] permutes a prefix and puts it back.
    order: Vec<u32>,
}

impl SampleScratch {
    /// A scratch for graphs of `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        SampleScratch {
            walk: Walk::default(),
            marks: KeyMarks::new(num_vertices),
        }
    }
}

impl Clone for SampleScratch {
    /// Nothing in a scratch outlives a batch, so a clone starts with
    /// empty buffers instead of a copy of the last batch's frontier.
    fn clone(&self) -> Self {
        SampleScratch {
            walk: Walk::default(),
            marks: self.marks.clone(),
        }
    }
}

/// Random k-hop neighbourhood sampler with per-hop fanouts.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutSampler {
    /// Neighbours sampled per vertex per hop, outermost hop first
    /// (e.g. `[25, 10]` for 2-hop GraphSAGE).
    pub fanouts: Vec<usize>,
    /// Uniform negative samples added per seed (0 for supervised runs).
    pub negatives_per_seed: usize,
}

impl FanoutSampler {
    /// The standard 2-hop GraphSAGE sampler (fanouts 25, 10), supervised.
    pub fn graphsage() -> Self {
        FanoutSampler {
            fanouts: vec![25, 10],
            negatives_per_seed: 0,
        }
    }

    /// 3-hop GCN-style sampler (fanouts 15, 10, 5), supervised.
    pub fn gcn() -> Self {
        FanoutSampler {
            fanouts: vec![15, 10, 5],
            negatives_per_seed: 0,
        }
    }

    /// Unsupervised GraphSAGE for link prediction: 2-hop plus one negative
    /// seed per positive, which also gets expanded.
    pub fn graphsage_unsupervised() -> Self {
        FanoutSampler {
            fanouts: vec![25, 10],
            negatives_per_seed: 1,
        }
    }

    /// Samples the k-hop neighbourhood of `seeds`: every visit in visit
    /// order and the distinct vertices, ascending. `unique_keys` is
    /// allocated at exactly its length (`capacity() == len()`).
    ///
    /// Callers that want one of the two and sample repeatedly keep a
    /// [`SampleScratch`] and call [`FanoutSampler::sample_unique_keys`] or
    /// [`FanoutSampler::for_each_visit`]; the RNG draws are the same.
    ///
    /// # Panics
    ///
    /// Panics if a seed is out of range for the graph.
    pub fn sample<R: Rng + ?Sized>(&self, graph: &Csr, seeds: &[u32], rng: &mut R) -> SampledBatch {
        let mut walk = Walk::default();
        let mut marks = KeyMarks::new(graph.num_vertices());
        let mut visits = Vec::new();
        self.expand(graph, seeds, rng, &mut walk, |v| {
            visits.push(v);
            marks.mark(v);
        });
        SampledBatch {
            unique_keys: marks.take_sorted(),
            visits,
        }
    }

    /// The distinct vertices of the k-hop neighbourhood of `seeds`,
    /// ascending, allocated at exactly their number — the only
    /// allocation once `scratch` has seen a batch of this size.
    ///
    /// # Panics
    ///
    /// Panics if a seed is out of range for the graph, or if `scratch`
    /// was made for a smaller graph.
    pub fn sample_unique_keys<R: Rng + ?Sized>(
        &self,
        graph: &Csr,
        seeds: &[u32],
        rng: &mut R,
        scratch: &mut SampleScratch,
    ) -> Vec<u32> {
        let SampleScratch { walk, marks } = scratch;
        self.expand(graph, seeds, rng, walk, |v| marks.mark(v));
        marks.take_sorted()
    }

    /// Calls `visit` with every vertex visit of the k-hop neighbourhood
    /// of `seeds` before deduplication, in visit order: seeds, negatives,
    /// then hop by hop.
    ///
    /// # Panics
    ///
    /// Panics if a seed is out of range for the graph.
    pub fn for_each_visit<R: Rng + ?Sized>(
        &self,
        graph: &Csr,
        seeds: &[u32],
        rng: &mut R,
        scratch: &mut SampleScratch,
        visit: impl FnMut(u32),
    ) {
        self.expand(graph, seeds, rng, &mut scratch.walk, visit);
    }

    /// Walks the neighbourhood, reporting every visit and keeping in
    /// `walk.frontier` only what a later hop expands.
    fn expand<R: Rng + ?Sized>(
        &self,
        graph: &Csr,
        seeds: &[u32],
        rng: &mut R,
        walk: &mut Walk,
        mut visit: impl FnMut(u32),
    ) {
        let Walk { frontier, order } = walk;
        let n = graph.num_vertices() as u32;
        frontier.clear();
        frontier.reserve(seeds.len() * (1 + self.negatives_per_seed));
        for &s in seeds {
            assert!(s < n, "seed {s} out of range");
            frontier.push(s);
            visit(s);
        }
        // Negative sampling: uniform random vertices join the frontier and
        // are expanded like positives (link-prediction pipelines compute
        // representations for negatives too).
        if self.negatives_per_seed > 0 && n > 0 {
            for _ in 0..seeds.len() * self.negatives_per_seed {
                let v = rng.gen_range(0..n);
                frontier.push(v);
                visit(v);
            }
        }

        let mut window = 0..frontier.len();
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            let expanded_later = hop + 1 < self.fanouts.len();
            if expanded_later {
                // One reservation a hop, so the allocations of a batch do
                // not grow with its frontier.
                frontier.reserve(window.len() * fanout);
            }
            let start = frontier.len();
            for at in window {
                let nbrs = graph.neighbors(frontier[at]);
                let mut keep = |v: u32| {
                    visit(v);
                    if expanded_later {
                        frontier.push(v);
                    }
                };
                if nbrs.len() <= fanout {
                    nbrs.iter().copied().for_each(keep);
                } else {
                    // Sample without replacement.
                    pick(nbrs, fanout, rng, order, &mut keep);
                }
            }
            window = start..frontier.len();
        }
    }
}

/// Reports `amount` distinct elements of `items`, uniformly chosen, in the
/// order and from the RNG draws of
/// `items.choose_multiple(rng, amount)`: a partial Fisher–Yates over the
/// first `items.len()` entries of `order`, which holds the identity
/// before and after.
///
/// Step `i` swaps position `i` with a position at or after it and never
/// touches `i` again, so afterwards the displaced positions are `0..amount`
/// and the picked indices themselves (a position from the tail is first
/// touched holding its own index, which moves into the prefix and stays):
/// putting the identity back costs `amount` steps, not `items.len()`.
fn pick<R: Rng + ?Sized>(
    items: &[u32],
    amount: usize,
    rng: &mut R,
    order: &mut Vec<u32>,
    mut emit: impl FnMut(u32),
) {
    let len = items.len();
    let amount = amount.min(len);
    order.extend(order.len() as u32..len as u32);
    let order = &mut order[..len];
    for i in 0..amount {
        let j = rng.gen_range(i..len);
        order.swap(i, j);
    }
    for i in 0..amount {
        let picked = order[i] as usize;
        emit(items[picked]);
        order[i] = i as u32;
        // Which side of `amount` a pick fell on is a coin toss the branch
        // predictor loses: store unconditionally, to the slot just reset
        // when the pick came from the prefix.
        let displaced = if picked >= amount { picked } else { i };
        order[displaced] = displaced as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GraphConfig};
    use emb_util::seed_rng;

    fn graph() -> Csr {
        generate(&GraphConfig {
            num_vertices: 20_000,
            avg_degree: 12,
            skew: 1.1,
            seed: 3,
        })
    }

    #[test]
    fn pick_repeats_choose_multiple_and_restores_the_identity() {
        use rand::seq::SliceRandom;
        let fanout = 25;
        let mut order = Vec::new();
        // Lists of one, exactly and just over the fanout, and long ones;
        // long before short, so a scratch longer than the list is covered.
        for len in [10_000usize, 1, fanout, fanout + 1, 256, 257, 10_000, 2] {
            let items: Vec<u32> = (0..len as u32).map(|i| i * 7 + 3).collect();
            for amount in [fanout, 1, 10] {
                let mut ours = seed_rng(len as u64);
                let mut theirs = ours.clone();
                let mut picked = Vec::new();
                pick(&items, amount, &mut ours, &mut order, |v| picked.push(v));
                let expected: Vec<u32> = items
                    .choose_multiple(&mut theirs, amount)
                    .copied()
                    .collect();
                assert_eq!(picked, expected, "len {len}, amount {amount}");
                assert_eq!(ours, theirs, "len {len}: RNGs drew different amounts");
                assert!(
                    order.iter().enumerate().all(|(i, &o)| o == i as u32),
                    "len {len}: scratch is not the identity afterwards"
                );
            }
        }
        assert_eq!(order.len(), 10_000);
    }

    #[test]
    fn the_three_entry_points_draw_the_same_batch() {
        let g = graph();
        let seeds: Vec<u32> = (0..300).collect();
        for sampler in [
            FanoutSampler::gcn(),
            FanoutSampler::graphsage(),
            FanoutSampler::graphsage_unsupervised(),
        ] {
            let both = sampler.sample(&g, &seeds, &mut seed_rng(8));
            let mut sorted = both.visits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(both.unique_keys, sorted);
            assert_eq!(both.unique_keys.capacity(), both.unique_keys.len());

            // One scratch, used twice over: nothing of a batch is left in it.
            let mut scratch = SampleScratch::new(g.num_vertices());
            for _ in 0..2 {
                let mut visits = Vec::new();
                sampler.for_each_visit(&g, &seeds, &mut seed_rng(8), &mut scratch, |v| {
                    visits.push(v)
                });
                assert_eq!(visits, both.visits);
                let keys = sampler.sample_unique_keys(&g, &seeds, &mut seed_rng(8), &mut scratch);
                assert_eq!(keys, both.unique_keys);
            }
        }
    }

    #[test]
    fn seeds_always_included() {
        let g = graph();
        let mut rng = seed_rng(1);
        let seeds = [5u32, 99, 7777];
        let batch = FanoutSampler::graphsage().sample(&g, &seeds, &mut rng);
        for s in seeds {
            assert!(batch.unique_keys.binary_search(&s).is_ok());
        }
    }

    #[test]
    fn unique_keys_are_sorted_and_deduped() {
        let g = graph();
        let mut rng = seed_rng(2);
        let seeds: Vec<u32> = (0..512).collect();
        let batch = FanoutSampler::graphsage().sample(&g, &seeds, &mut rng);
        let mut copy = batch.unique_keys.clone();
        copy.sort_unstable();
        copy.dedup();
        assert_eq!(copy, batch.unique_keys);
        assert!(batch.visits.len() >= batch.unique_keys.len());
    }

    #[test]
    fn expansion_grows_with_fanout() {
        let g = graph();
        let seeds: Vec<u32> = (0..256).collect();
        let small = FanoutSampler {
            fanouts: vec![2],
            negatives_per_seed: 0,
        }
        .sample(&g, &seeds, &mut seed_rng(4));
        let large = FanoutSampler {
            fanouts: vec![20],
            negatives_per_seed: 0,
        }
        .sample(&g, &seeds, &mut seed_rng(4));
        assert!(large.unique_keys.len() > small.unique_keys.len());
    }

    #[test]
    fn three_hops_visit_more_than_two() {
        let g = graph();
        let seeds: Vec<u32> = (100..400).collect();
        let two = FanoutSampler {
            fanouts: vec![10, 10],
            negatives_per_seed: 0,
        }
        .sample(&g, &seeds, &mut seed_rng(5));
        let three = FanoutSampler {
            fanouts: vec![10, 10, 10],
            negatives_per_seed: 0,
        }
        .sample(&g, &seeds, &mut seed_rng(5));
        assert!(three.visits.len() > two.visits.len());
    }

    #[test]
    fn negatives_reduce_skew() {
        // With uniform negatives, the sampled key set covers more of the
        // cold tail: unique count rises relative to total visits.
        let g = graph();
        let seeds: Vec<u32> = (0..128).collect();
        let sup = FanoutSampler::graphsage().sample(&g, &seeds, &mut seed_rng(6));
        let unsup = FanoutSampler::graphsage_unsupervised().sample(&g, &seeds, &mut seed_rng(6));
        assert!(
            unsup.unique_keys.len() > sup.unique_keys.len(),
            "unsup {} vs sup {}",
            unsup.unique_keys.len(),
            sup.unique_keys.len()
        );
        assert!(unsup.visits.len() > sup.visits.len());
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let g = graph();
        let seeds: Vec<u32> = (0..128).collect();
        let a = FanoutSampler::gcn().sample(&g, &seeds, &mut seed_rng(9));
        let b = FanoutSampler::gcn().sample(&g, &seeds, &mut seed_rng(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_seed_panics() {
        let g = graph();
        let _ = FanoutSampler::gcn().sample(&g, &[1_000_000], &mut seed_rng(1));
    }
}
