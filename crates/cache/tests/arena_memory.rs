//! What the cache's bookkeeping costs: the bytes of the arenas' index
//! beside their rows, and the allocations of a refresh's diff.

use cache_policy::{Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::{HostTable, MultiGpuCache, RefreshConfig, Refresher};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Platform};
use test_support::{allocations, peak_of, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A Server C placement of `n` entries solved for `weights`, each GPU
/// caching up to `n / 16` of them.
fn solved(n: usize, weights: Vec<f64>) -> Placement {
    let solver = UGacheSolver::new(Platform::server_c(), DedicationConfig::default());
    solver
        .solve(
            &Hotness::new(weights),
            &[n / 16; 8],
            &SolverConfig::new(512, 40_000.0),
        )
        .unwrap()
        .placement
}

#[test]
fn a_solved_server_c_cache_indexes_its_rows_in_a_sixteenth_of_a_byte_an_entry() {
    // The hot entries are the highest ids, so an index that grows to the
    // highest id it holds spans the whole key space. Rank over the
    // placement's stored bits costs a `u32` per 64 entries per GPU, and a
    // slot per cached row; the dense index it replaced, 4 bytes an entry
    // per GPU.
    let n = 1 << 20;
    let mut weights = powerlaw_hotness(n, 1.2);
    weights.reverse();
    let placement = solved(n, weights);
    let cached: Vec<usize> = (0..8).map(|j| placement.cached_count(j)).collect();
    assert!(cached.iter().all(|&c| c > n / 32), "the solve caches");
    let cache = MultiGpuCache::build(HostTable::procedural(n, 1), &placement, &[n / 16; 8]);

    let (copy, whole) = peak_of(|| cache.clone());
    let (_, placement_bytes) = peak_of(|| placement.clone());
    let rows = 8 * (n / 16) * std::mem::size_of::<f32>();
    let index = whole - placement_bytes - rows;
    let bound: usize = cached.iter().map(|c| n / 16 + 4 * c + 64 * 1024).sum();
    assert!(
        index <= bound,
        "8 GPUs index {n} entries in {index} bytes, over {bound}"
    );
    copy.audit().unwrap();
}

#[test]
fn a_refresh_queues_its_batches_in_one_allocation_a_gpu() {
    // Two solves of opposite skew, so most cached entries move, cut into
    // batches of 64: hundreds of batches, queued as ranges of one evict
    // list per GPU (the swap writes the insertions).
    let n = 1 << 16;
    let weights = powerlaw_hotness(n, 1.2);
    let from = solved(n, weights.iter().rev().copied().collect());
    let to = solved(n, weights);
    let moved: usize = (from.stored.iter().zip(&to.stored))
        .flat_map(|(a, b)| a.words().iter().zip(b.words()))
        .map(|(a, b)| (a ^ b).count_ones() as usize)
        .sum();
    assert!(moved > 100 * 64, "{moved} entries move");
    let mut refresher = Refresher::new(RefreshConfig {
        entries_per_batch: 64,
        ..RefreshConfig::default()
    });
    let ((), made) = allocations(|| refresher.begin(0.0, &from, to));
    assert!(made <= 8 + 4, "begin made {made} allocations for 8 GPUs");
}
