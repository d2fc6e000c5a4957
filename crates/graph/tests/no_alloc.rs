//! Pins the allocation budget of neighbourhood sampling: through a
//! warmed-up [`SampleScratch`] a batch allocates its key list and nothing
//! else, whatever the size of its frontier — no list per frontier vertex,
//! no copy of the visits to sort.
//!
//! Lives in its own integration-test binary because of the counting
//! `#[global_allocator]` (`test_support::CountingAlloc`).

use emb_graph::{generate, FanoutSampler, GraphConfig, SampleScratch};
use emb_util::seed_rng;
use test_support::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_batch_allocates_its_key_list_and_nothing_per_vertex() {
    let graph = generate(&GraphConfig {
        num_vertices: 20_000,
        avg_degree: 30,
        skew: 1.1,
        seed: 3,
    });
    let seeds: Vec<u32> = (0..2_000).map(|i| i * 7 % 20_000).collect();
    for sampler in [
        FanoutSampler::graphsage(),
        FanoutSampler::gcn(),
        FanoutSampler::graphsage_unsupervised(),
    ] {
        let mut rng = seed_rng(5);

        // Cold: one reservation for the seeds, one per expanded hop, the
        // index scratch doubling up to the longest neighbour list, and the
        // key list. Thirty times the seeds must not cost one more.
        let mut cold = Vec::new();
        for seeds in [&seeds[..60], &seeds[..1_800]] {
            let mut scratch = SampleScratch::new(graph.num_vertices());
            let (keys, n) =
                allocations(|| sampler.sample_unique_keys(&graph, seeds, &mut rng, &mut scratch));
            assert!(keys.len() > seeds.len());
            assert!(n <= 12, "{} seeds: {n} allocations", seeds.len());
            cold.push(n);
        }
        assert!(cold[1] <= cold[0] + 2, "cold allocations grew: {cold:?}");

        // Warm: the scratch has seen the largest batch.
        let mut scratch = SampleScratch::new(graph.num_vertices());
        sampler.sample_unique_keys(&graph, &seeds, &mut rng, &mut scratch);
        for seeds in [&seeds[..1], &seeds[..60], &seeds[..1_800], &seeds[..]] {
            let (keys, n) =
                allocations(|| sampler.sample_unique_keys(&graph, seeds, &mut rng, &mut scratch));
            assert_eq!(n, 1, "{} seeds through a warm scratch", seeds.len());
            assert_eq!(keys.capacity(), keys.len());
            assert!(keys.windows(2).all(|w| w[0] < w[1]));

            let mut visits = 0usize;
            let ((), n) = allocations(|| {
                sampler.for_each_visit(&graph, seeds, &mut rng, &mut scratch, |_| visits += 1)
            });
            assert_eq!(n, 0, "{} seeds, visits only", seeds.len());
            assert!(visits >= keys.len());
        }
    }
}
