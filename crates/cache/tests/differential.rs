//! Differential tests: the chunked gather must return the host table's
//! rows to the bit and the per-tier stats `Placement::split_keys` counts,
//! at every pool width, at rest and mid-refresh, and the cache must pass
//! its own `audit()` after every step; a refreshed cache must gather like
//! one built on the target placement.
//!
//! Mid-refresh the oracle for the stats is the placement the reads
//! actually follow: the old one, with every entry a batch evicted from a
//! GPU re-routed from that GPU to the host.

use cache_policy::{baselines, BitRow, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::{GatherStats, HostTable, MultiGpuCache, RefreshConfig, Refresher};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Location, Platform};
use proptest::prelude::*;
use rand::Rng;

/// `emb-cache`'s private chunk lengths (`cache.rs`); the batch lengths
/// below sit on and one past them so the last chunk is full, then ragged.
const PLAN_CHUNK_KEYS: usize = 8_192;
const COPY_CHUNK_ROWS: usize = 2_048;

/// `keys`' per-tier counts for destination `gpu` under `reads`.
fn split_stats(reads: &Placement, gpu: usize, keys: &[u32]) -> GatherStats {
    let mut stats = GatherStats::default();
    for (loc, count) in reads.split_keys(gpu, keys) {
        match loc {
            Location::Gpu(j) if j == gpu => stats.local += count,
            Location::Gpu(_) => stats.remote += count,
            Location::Host => stats.host += count,
        }
    }
    stats
}

/// Gathers `keys` for `gpu` at pool widths 1, 2 and 8 and checks every
/// output row against the host table and the stats against `reads`'
/// split; then audits the cache.
fn check(cache: &MultiGpuCache, reads: &Placement, gpu: usize, keys: &[u32], what: &str) {
    let dim = cache.dim();
    let want = split_stats(reads, gpu, keys);
    for threads in [1, 2, 8] {
        // NaN-filled, so a row the copy pass skipped cannot pass as equal.
        let mut out = vec![f32::NAN; keys.len() * dim];
        let stats = emb_util::pool::with_threads(threads, || cache.gather(gpu, keys, &mut out));
        assert_eq!(stats, want, "{what}, threads {threads}");
        for (k, &key) in keys.iter().enumerate() {
            let truth = cache.host_table().read(key);
            let row = &out[k * dim..(k + 1) * dim];
            assert!(
                row.iter()
                    .zip(&truth)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{what}, threads {threads}: row {k} (key {key}) differs from the host table"
            );
        }
    }
    cache
        .audit()
        .unwrap_or_else(|e| panic!("{what}: audit: {e}"));
}

/// `len` keys mixing hot (cached somewhere) and cold (host) entries.
fn mixed_keys(rng: &mut impl Rng, n: usize, cap: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| {
            let hot = rng.gen_bool(0.7);
            rng.gen_range(0..if hot { (4 * cap).min(n) } else { n }) as u32
        })
        .collect()
}

/// The batch shapes the gather must survive, for destination `gpu`.
fn batches(
    rng: &mut impl Rng,
    placement: &Placement,
    gpu: usize,
    cap: usize,
) -> Vec<(String, Vec<u32>)> {
    let n = placement.num_entries;
    let host: Vec<u32> = (0..n as u32)
        .filter(|&e| placement.source(gpu, e as usize) == placement.host_idx())
        .collect();
    assert!(!host.is_empty(), "capacity leaves cold entries on the host");
    let mut out = vec![
        ("empty".to_string(), Vec::new()),
        ("all-host".to_string(), host),
        // One hot key, enough times to span two copy chunks.
        (
            "all-duplicate".to_string(),
            vec![rng.gen_range(0..cap) as u32; COPY_CHUNK_ROWS + 7],
        ),
    ];
    for len in [
        COPY_CHUNK_ROWS,
        COPY_CHUNK_ROWS + 1,
        PLAN_CHUNK_KEYS,
        PLAN_CHUNK_KEYS + 1,
    ] {
        out.push((format!("{len} mixed keys"), mixed_keys(rng, n, cap, len)));
    }
    out
}

/// `placement` with the holder sets of many cached entries changed in
/// part: some entries lose a holder (their readers there turn to another,
/// or to host if none is left), then some still held gain a holder where
/// that made room (which reads them locally), so across the swap some GPUs
/// keep an entry, some drop it and some add it.
fn partly_moved(rng: &mut impl Rng, placement: &Placement, cap: usize) -> Placement {
    let (g, n) = (placement.num_gpus, placement.num_entries);
    let was = |j: usize, e: usize| placement.stored[j].get(e);
    let mut out = placement.clone();
    let mut held: Vec<usize> = (0..g).map(|j| out.cached_count(j)).collect();
    for e in 0..n {
        let holders: Vec<usize> = (0..g).filter(|&j| was(j, e)).collect();
        if holders.is_empty() || rng.gen_bool(0.5) {
            continue;
        }
        let gone = holders[rng.gen_range(0..holders.len())];
        let stays = holders.iter().find(|&&j| j != gone);
        let stays = stays.map_or(out.host_idx(), |&j| j as u8);
        out.stored[gone].set(e, false);
        held[gone] -= 1;
        for i in 0..g {
            if out.source(i, e) as usize == gone {
                out.set_source(i, e, stays).unwrap();
            }
        }
    }
    for e in 0..n {
        let room: Vec<usize> = (0..g).filter(|&j| !was(j, e) && held[j] < cap).collect();
        let still_held = (0..g).any(|j| out.stored[j].get(e));
        if room.is_empty() || !still_held || rng.gen_bool(0.5) {
            continue;
        }
        let gains = room[rng.gen_range(0..room.len())];
        out.stored[gains].set(e, true);
        held[gains] += 1;
        out.set_source(gains, e, gains as u8).unwrap();
    }
    out.validate().unwrap();
    let will = |j: usize, e: usize| out.stored[j].get(e);
    let kept_and_added = (0..n).filter(|&e| {
        (0..g).any(|j| was(j, e) && will(j, e)) && (0..g).any(|j| !was(j, e) && will(j, e))
    });
    assert!(
        kept_and_added.count() > 0,
        "some entry is kept on one GPU and added on another"
    );
    out
}

/// Walks `cache` from its placement to `target` one GPU at a time the way
/// the Refresher does — batches of evictions, as many as the larger of a
/// GPU's evictions and insertions needs — gathering and auditing after
/// every batch, while reads still follow the old placement minus the
/// evicted entries: an evicted entry reads host, a kept one its slot, and
/// an inserted one whatever the old placement says. Then a swap is refused
/// on a copy where a batch also evicted an entry the target keeps, and the
/// swap proper writes the insertions; gathers again.
fn check_through_refresh(
    rng: &mut impl Rng,
    cache: &mut MultiGpuCache,
    target: &Placement,
    cap: usize,
    what: &str,
) {
    let (g, n) = (target.num_gpus, target.num_entries);
    let per = rng.gen_range(cap / 4..cap).max(1);
    // What the reads follow: the old placement, less what was evicted.
    let mut reads = cache.placement().clone();
    for j in 0..g {
        let old = cache.placement().stored[j].clone();
        let moved = |from: &BitRow, to: &BitRow| -> Vec<u32> {
            (0..n as u32)
                .filter(|&e| from.get(e as usize) && !to.get(e as usize))
                .collect()
        };
        let evict = moved(&old, &target.stored[j]);
        let insert = moved(&target.stored[j], &old);
        // The moved entries first — a stale `<GPU, Offset>` would serve
        // another entry's bytes for an evicted key — then a ragged
        // two-chunk tail.
        let mut keys = evict.clone();
        keys.extend(&insert);
        keys.extend(mixed_keys(rng, n, cap, COPY_CHUNK_ROWS + 1));
        let batches = evict.len().max(insert.len()).div_ceil(per);
        for k in 0..batches {
            let ev = &evict[(k * per).min(evict.len())..((k + 1) * per).min(evict.len())];
            cache.update_arena(j, ev);
            for &e in ev {
                for i in 0..g {
                    if reads.source(i, e as usize) as usize == j {
                        reads.set_source(i, e as usize, g as u8).unwrap();
                    }
                }
            }
            let dst = (j + k) % g;
            check(
                cache,
                &reads,
                dst,
                &keys,
                &format!("{what}, GPU{j} batch {k} of {batches}, read by GPU{dst}"),
            );
        }
    }
    let (j, e) = (0..g)
        .find_map(|j| {
            let (old, new) = (&cache.placement().stored[j], &target.stored[j]);
            let kept = (0..n).find(|&e| old.get(e) && new.get(e));
            kept.map(|e| (j, e as u32))
        })
        .expect("some GPU keeps an entry");
    let mut early = cache.clone();
    early.update_arena(j, &[e]);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        early.swap_placement(target.clone())
    }))
    .expect_err("a swap to a placement storing an entry a batch evicted");
    let message = refused.downcast_ref::<String>().expect("a formatted panic");
    let want = format!("GPU{j} stores entry {e} but holds no row for it");
    assert!(message.contains(&want), "{what}: {message}");
    cache.swap_placement(target.clone());
    let keys = mixed_keys(rng, n, cap, COPY_CHUNK_ROWS + 1);
    check(
        cache,
        target,
        g - 1,
        &keys,
        &format!("{what}, after the swap"),
    );
}

/// Lets a whole `Refresher` run — `begin`, every tick, the swap — take a
/// cache built on `from` to `target`, auditing it after every tick, and
/// holds the result to a cache built on `target` outright: the same rows
/// and the same per-tier stats for every destination GPU, so the
/// placement `swap_placement` installs is pinned against the one the fill
/// reads.
fn check_refresher_lands_on_a_fresh_build(
    from: &Placement,
    target: &Placement,
    dim: usize,
    cap: usize,
    what: &str,
) {
    let (g, n) = (target.num_gpus, target.num_entries);
    let build =
        |placement| MultiGpuCache::build(HostTable::procedural(n, dim), placement, &vec![cap; g]);
    let mut cache = build(from);
    let mut refresher = Refresher::new(RefreshConfig {
        solve_secs: 1.0,
        entries_per_batch: 16,
        batch_interval_secs: 0.1,
    });
    refresher.begin(0.0, from, target.clone());
    let mut now = 0.0;
    while refresher.active() {
        now += 0.25;
        refresher.tick(now, &mut cache);
        cache
            .audit()
            .unwrap_or_else(|e| panic!("{what}: audit at {now} s: {e}"));
        assert!(now < 1e4, "{what}: the refresh never finished");
    }
    assert_eq!(cache.placement(), target, "{what}");

    let fresh = build(target);
    let keys: Vec<u32> = (0..n as u32).collect();
    for gpu in 0..g {
        let mut refreshed_out = vec![f32::NAN; n * dim];
        let mut fresh_out = vec![f32::NAN; n * dim];
        let refreshed_stats = cache.gather(gpu, &keys, &mut refreshed_out);
        let fresh_stats = fresh.gather(gpu, &keys, &mut fresh_out);
        assert_eq!(refreshed_stats, fresh_stats, "{what}: GPU{gpu} stats");
        assert!(
            refreshed_out
                .iter()
                .zip(&fresh_out)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what}: GPU{gpu} rows differ from a fresh build's"
        );
    }
    check(
        &cache,
        target,
        g - 1,
        &keys,
        &format!("{what}, after a Refresher run"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Every placement kind on a hard-wired and a switched server, every
    /// batch shape, every pool width; then the same cache caught between
    /// `update_arena` and `swap_placement` on its way to another placement,
    /// and a `Refresher` run the whole way there against a fresh build;
    /// last, both again toward a placement that moves only some of each
    /// entry's holders.
    #[test]
    fn gather_matches_host_table_and_split_keys(seed in 0u64..10_000) {
        let mut rng = emb_util::seed_rng(seed);
        for platform in [Platform::server_a(), Platform::server_c()] {
            let g = platform.num_gpus();
            let dim = [1usize, 4, 7][rng.gen_range(0..3)];
            let cap = rng.gen_range(40..120);
            let n = g * cap + rng.gen_range(200..1_000);
            let hotness = Hotness::new(powerlaw_hotness(n, 1.2));
            let solver = UGacheSolver::new(platform.clone(), DedicationConfig::default());
            let solved = solver
                .solve(&hotness, &vec![cap; g], &SolverConfig::new(dim * 4, 1_000.0))
                .expect("the placement LP solves")
                .placement;
            let partition =
                baselines::partition(&platform, &hotness, cap).expect("partition fits");
            let replication = baselines::replication(&platform, &hotness, cap);
            // Each cache is then refreshed toward the next placement kind.
            let kinds = [
                ("partition", &partition),
                ("replication", &replication),
                ("solver", &solved),
            ];
            for (k, (kind, placement)) in kinds.iter().enumerate() {
                let what = format!("{} {kind} dim {dim} seed {seed}", platform.name);
                let mut cache =
                    MultiGpuCache::build(HostTable::procedural(n, dim), placement, &vec![cap; g]);
                let gpu = rng.gen_range(0..g);
                for (shape, keys) in batches(&mut rng, placement, gpu, cap) {
                    check(&cache, placement, gpu, &keys, &format!("{what}, {shape}"));
                }
                let (next, target) = kinds[(k + 1) % kinds.len()];
                let what = format!("{what} -> {next}");
                check_through_refresh(&mut rng, &mut cache, target, cap, &what);
                check_refresher_lands_on_a_fresh_build(placement, target, dim, cap, &what);
            }
            // Then a refresh that moves only some of each entry's holders.
            let moved = partly_moved(&mut rng, &solved, cap);
            let what = format!("{} solver dim {dim} seed {seed} -> partly moved", platform.name);
            let mut cache =
                MultiGpuCache::build(HostTable::procedural(n, dim), &solved, &vec![cap; g]);
            check_through_refresh(&mut rng, &mut cache, &moved, cap, &what);
            check_refresher_lands_on_a_fresh_build(&solved, &moved, dim, cap, &what);
        }
    }
}
