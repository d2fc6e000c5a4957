//! What the cache's bookkeeping costs: the bytes of the slot table
//! beside the row pool, the bytes a build and a fill allocate, the
//! resident row bytes of a `UGache` before and after its first gather,
//! and the allocations of a build, a swap and a refresh's diff.

use cache_policy::{baselines, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::{HostTable, MultiGpuCache, RefreshConfig, Refresher};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Platform};
#[cfg(target_os = "linux")]
use test_support::resident_bytes;
use test_support::{allocations, peak_of, CountingAlloc};
use ugache::{UGache, UGacheConfig};

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
fn a_solved_server_c_cache_indexes_its_rows_in_three_sixteenths_of_a_byte_an_entry() {
    // The hot entries are the highest ids, so an index that grows to the
    // highest id it holds spans the whole key space. One slot table for
    // all GPUs costs the union of the stored bits (a bit an entry), a
    // `u32` rank per 64 entries and a slot per distinct cached entry,
    // with no per-GPU term; per-GPU rank directories and slot tables
    // cost `E/16` bytes and 4 a cached copy per GPU, and the dense index
    // before them 4 bytes an entry per GPU. Beside the table sits one
    // row pool of `min(Σ cap, n)` rows and its free-slot bits, a bit a
    // row.
    let _guard = one_at_a_time();
    let n = 1 << 20;
    let mut weights = powerlaw_hotness(n, 1.2);
    weights.reverse();
    let placement = solved(n, weights);
    let cached: Vec<usize> = (0..8).map(|j| placement.cached_count(j)).collect();
    assert!(cached.iter().all(|&c| c > n / 32), "the solve caches");
    let stored = &placement.stored;
    let distinct = (0..n).filter(|&e| stored.iter().any(|r| r.get(e))).count();
    let cache = MultiGpuCache::build(HostTable::procedural(n, 1), &placement, &[n / 16; 8]);

    let (copy, whole) = peak_of(|| cache.clone());
    let (_, placement_bytes) = peak_of(|| placement.clone());
    let pool_rows = (8 * (n / 16)).min(n);
    let index = whole - placement_bytes - pool_rows * std::mem::size_of::<f32>();
    let bound = 3 * n / 16 + 4 * distinct + pool_rows / 8 + 4 * 1024;
    assert!(
        index <= bound,
        "8 GPUs index {n} entries, {distinct} of them cached, in {index} bytes, over {bound}"
    );
    copy.audit().unwrap();
}

#[test]
fn an_unfilled_build_allocates_no_slab_and_the_fill_allocates_it() {
    // Every GPU caches the same 4 096 entries. The pool has room for
    // `min(Σ cap, n)` rows, a 32 MB slab: an unfilled build allocates the
    // slot table and the free bits but not the slab, and the fill
    // allocates the whole slab as it writes the distinct entries' rows.
    // Bytes allocated, not resident: glibc may serve the slab from pages
    // an earlier allocation left resident.
    let _guard = one_at_a_time();
    let (n, dim, cap) = (1 << 16, 256, 1 << 12);
    let platform = Platform::server_c();
    let placement = baselines::replication(&platform, &Hotness::new(powerlaw_hotness(n, 1.2)), cap);
    let slab = (8 * cap).min(n) * dim * std::mem::size_of::<f32>();
    let host = HostTable::procedural(n, dim);
    let (mut cache, built) = peak_of(|| MultiGpuCache::build_unfilled(host, &placement, &[cap; 8]));
    assert!(
        built < slab / 8,
        "an unfilled build allocated {built} bytes beside a {slab}-byte slab"
    );
    cache.audit().unwrap();
    let (rows, filled) = peak_of(|| cache.fill());
    assert_eq!(rows, cap, "one row per distinct entry");
    assert!(
        filled >= slab,
        "the fill allocated {filled} bytes for a {slab}-byte slab"
    );
    cache.audit().unwrap();
}

#[test]
#[cfg(target_os = "linux")]
fn a_ugache_build_writes_no_row_and_its_first_gather_writes_them() {
    // A UGache that is only timed reads no row from host: its build deals
    // the slots and allocates no slab, and the first gather allocates the
    // slab and fills the rows.
    let _guard = one_at_a_time();
    // Rows of 4 KB, so the slab outweighs the solve's own buffers.
    let (n, dim, cap) = (1 << 16, 1024, 1 << 12);
    let slab = (8 * cap).min(n) * dim * std::mem::size_of::<f32>();
    let hotness = Hotness::new(powerlaw_hotness(n, 1.2));
    let build = || {
        let cfg = UGacheConfig::new(dim * std::mem::size_of::<f32>(), 40_000.0);
        let host = HostTable::procedural(n, dim);
        UGache::build(Platform::server_c(), host, &hotness, vec![cap; 8], cfg).unwrap()
    };
    // A first build leaves the heap the second one's solve reuses.
    drop(build());
    let before = resident_bytes();
    let (mut u, allocated) = peak_of(build);
    let built = resident_bytes().saturating_sub(before);
    assert!(
        allocated < slab / 8,
        "a build allocated {allocated} bytes beside a {slab}-byte slab"
    );
    let stored = &u.placement().stored;
    let distinct = (0..n).filter(|&e| stored.iter().any(|r| r.get(e))).count();
    let row_bytes = distinct * dim * std::mem::size_of::<f32>();
    assert!(distinct >= cap, "{distinct} distinct entries cached");
    assert!(
        built < row_bytes / 4,
        "a build holding {row_bytes} bytes of rows grew the resident set by {built} bytes"
    );
    u.audit().unwrap();
    let mut out = vec![0.0; dim];
    let (_, gathered) = peak_of(|| u.gather(0, &[0], &mut out));
    assert!(
        gathered >= slab,
        "the first gather allocated {gathered} bytes for a {slab}-byte slab"
    );
    assert_eq!(out, HostTable::procedural(n, dim).read(0));
    let grew = resident_bytes().saturating_sub(before);
    assert!(
        grew > row_bytes / 2,
        "the first gather filled {row_bytes} bytes of rows, the resident set grew by {grew}"
    );
    u.audit().unwrap();
}

#[test]
fn a_build_and_a_swap_allocate_a_few_times_whatever_the_gpu_count() {
    // Two solves of opposite skew, so most cached entries move: the build
    // allocates the pool, its one slot table and a few buffers more, the
    // swap a new union and slot table, never a table per GPU nor a list
    // with an entry per added row.
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
        made <= cloned + 8,
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
    assert!(made <= 4, "the swap made {made} allocations for 8 GPUs");
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
