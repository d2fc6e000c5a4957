//! Pins the allocation budget of neighbourhood sampling: through a
//! warmed-up [`SampleScratch`] a batch allocates its key list and nothing
//! else, whatever the size of its frontier — no list per frontier vertex,
//! no copy of the visits to sort.
//!
//! Lives alone in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide — concurrent tests in the same
//! binary would pollute the counter.

use emb_graph::{generate, FanoutSampler, GraphConfig, SampleScratch};
use emb_util::seed_rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter
// update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) `f` performs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

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
