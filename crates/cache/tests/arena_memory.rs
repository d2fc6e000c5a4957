//! What the cache's bookkeeping costs: the bytes of the arenas' index
//! beside the row pool, the resident row bytes of a replicated cache, and
//! the allocations of a build, a swap and a refresh's diff.

use cache_policy::{baselines, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::{HostTable, MultiGpuCache, RefreshConfig, Refresher};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Platform};
use test_support::{allocations, peak_of, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every test here: the resident-set pin reads the whole
/// process's, so no other test may allocate while it runs.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    // per GPU. Beside them sits one row pool of `min(Σ cap, n)` rows and
    // its free-slot bits, a bit a row.
    let _guard = one_at_a_time();
    let n = 1 << 20;
    let mut weights = powerlaw_hotness(n, 1.2);
    weights.reverse();
    let placement = solved(n, weights);
    let cached: Vec<usize> = (0..8).map(|j| placement.cached_count(j)).collect();
    assert!(cached.iter().all(|&c| c > n / 32), "the solve caches");
    let cache = MultiGpuCache::build(HostTable::procedural(n, 1), &placement, &[n / 16; 8]);

    let (copy, whole) = peak_of(|| cache.clone());
    let (_, placement_bytes) = peak_of(|| placement.clone());
    let pool_rows = (8 * (n / 16)).min(n);
    let index = whole - placement_bytes - pool_rows * std::mem::size_of::<f32>();
    let per_gpu: usize = cached.iter().map(|c| n / 16 + 4 * c + 64 * 1024).sum();
    let bound = per_gpu + pool_rows / 8;
    assert!(
        index <= bound,
        "8 GPUs index {n} entries in {index} bytes, over {bound}"
    );
    copy.audit().unwrap();
}

/// This process's resident set, in bytes.
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kb: usize = line
        .and_then(|l| l.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap();
    kb * 1024
}

#[test]
#[cfg(target_os = "linux")]
fn a_replicated_cache_holds_the_rows_of_its_distinct_entries_only() {
    // Every GPU caches the same 4 096 entries: 4 MB of distinct rows,
    // which one copy per GPU made 32 MB. The pool's slab has room for
    // 32 MB, but only the slots handed out are ever written, and the
    // pages of the rest are not resident. Index, placement and slack stay
    // far under the 28 MB a second copy of the rows would add.
    let _guard = one_at_a_time();
    let (n, dim, cap) = (1 << 16, 256, 1 << 12);
    let platform = Platform::server_c();
    let placement = baselines::replication(&platform, &Hotness::new(powerlaw_hotness(n, 1.2)), cap);
    let distinct_bytes = cap * dim * std::mem::size_of::<f32>();
    let host = HostTable::procedural(n, dim);
    let before = resident_bytes();
    let cache = MultiGpuCache::build(host, &placement, &[cap; 8]);
    let grew = resident_bytes().saturating_sub(before);
    assert!(
        grew < distinct_bytes * 3 / 2,
        "a cache of {} distinct rows grew the resident set by {grew} bytes",
        distinct_bytes
    );
    cache.audit().unwrap();
}

#[test]
fn a_build_and_a_swap_allocate_a_few_times_a_gpu() {
    // Two solves of opposite skew, so most cached entries move: the build
    // and the swap allocate a slot table and a rank directory per GPU and
    // a few buffers more, never a list with an entry per added row.
    let _guard = one_at_a_time();
    let n = 1 << 16;
    let weights = powerlaw_hotness(n, 1.2);
    let from = solved(n, weights.iter().rev().copied().collect());
    let to = solved(n, weights);
    // The cache keeps a clone of the placement.
    let (_, cloned) = allocations(|| from.clone());
    let (mut cache, made) =
        allocations(|| MultiGpuCache::build(HostTable::procedural(n, 4), &from, &[n / 16; 8]));
    assert!(
        made <= cloned + 2 * 8 + 4,
        "build made {made} allocations for 8 GPUs, {cloned} of them the placement's clone"
    );
    for j in 0..8 {
        let (was, will) = (&from.stored[j], &to.stored[j]);
        let evict: Vec<u32> = (was.ones().filter(|&e| !will.get(e)))
            .map(|e| e as u32)
            .collect();
        cache.update_arena(j, &evict);
    }
    let target = to.clone();
    let ((), made) = allocations(|| cache.swap_placement(target));
    assert!(
        made <= 2 * 8 + 4,
        "the swap made {made} allocations for 8 GPUs"
    );
    cache.audit().unwrap();
}

#[test]
fn a_refresh_queues_its_batches_in_one_allocation_a_gpu() {
    // Two solves of opposite skew, so most cached entries move, cut into
    // batches of 64: hundreds of batches, queued as ranges of one evict
    // list per GPU (the swap writes the insertions).
    let _guard = one_at_a_time();
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
