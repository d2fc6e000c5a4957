//! The resident row bytes of a replicated cache before and after its
//! fill. The resident set is the whole process's, and pages an earlier
//! test freed but the allocator kept can serve the slab and hide it, so
//! this test runs alone in its binary.

use cache_policy::{baselines, Hotness};
use emb_cache::{HostTable, MultiGpuCache};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::Platform;
#[cfg(target_os = "linux")]
use test_support::resident_bytes;

#[test]
#[cfg(target_os = "linux")]
fn a_replicated_cache_writes_the_rows_of_its_distinct_entries_only_when_filled() {
    // Every GPU caches the same 4 096 entries: 4 MB of distinct rows,
    // which one copy per GPU made 32 MB. The pool's slab has room for
    // 32 MB, but an unfilled build writes none of it, the fill writes one
    // row per distinct entry into the slots handed out, and the pages of
    // the rest are never resident. Index, placement and slack stay far
    // under the 28 MB a second copy of the rows would add.
    let (n, dim, cap) = (1 << 16, 256, 1 << 12);
    let platform = Platform::server_c();
    let placement = baselines::replication(&platform, &Hotness::new(powerlaw_hotness(n, 1.2)), cap);
    let distinct_bytes = cap * dim * std::mem::size_of::<f32>();
    let host = HostTable::procedural(n, dim);
    let before = resident_bytes();
    let mut cache = MultiGpuCache::build_unfilled(host, &placement, &[cap; 8]);
    let built = resident_bytes().saturating_sub(before);
    assert!(
        built < distinct_bytes / 8,
        "an unfilled build grew the resident set by {built} bytes"
    );
    cache.audit().unwrap();
    assert_eq!(cache.fill(), cap, "one row per distinct entry");
    assert_eq!(cache.fill(), 0, "filled once");
    let grew = resident_bytes().saturating_sub(before);
    assert!(
        (distinct_bytes / 2..distinct_bytes * 3 / 2).contains(&grew),
        "a cache of {distinct_bytes} bytes of distinct rows grew the resident set by {grew} bytes"
    );
    cache.audit().unwrap();
}
