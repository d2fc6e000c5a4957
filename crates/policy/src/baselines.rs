//! Baseline cache policies from the paper's evaluation (§8.1).

use crate::types::{Hotness, Placement, RowId, SourceIdx};
use gpu_platform::{Location, Platform};

/// Replication cache (HPS / GNNLab / RepU): every GPU independently
/// caches the `cap_entries` hottest entries; misses go to host.
pub fn replication(platform: &Platform, hotness: &Hotness, cap_entries: usize) -> Placement {
    let g = platform.num_gpus();
    let e = hotness.len();
    let mut p = Placement::all_host(g, e);
    let local: Vec<SourceIdx> = (0..g).map(|i| i as SourceIdx).collect();
    let local = p.intern(&local).expect("a second row fits");
    let ranking = hotness.ranking();
    for &id in ranking.iter().take(cap_entries.min(e)) {
        for row in &mut p.stored {
            row.set(id as usize, true);
        }
        p.set_row(id as usize, local);
    }
    p
}

/// Partition cache (WholeGraph / SOK / PartU): the `G · cap_entries`
/// hottest entries are spread round-robin, one copy each; every GPU reads
/// a cached entry from its single holder.
///
/// # Errors
///
/// Fails when some GPU pair is unconnected — exactly the configuration
/// the paper reports WholeGraph cannot launch on (use
/// [`clique_partition`] there).
pub fn partition(
    platform: &Platform,
    hotness: &Hotness,
    cap_entries: usize,
) -> Result<Placement, String> {
    let g = platform.num_gpus();
    for i in 0..g {
        for j in 0..g {
            if i != j && !platform.connected(i, Location::Gpu(j)) {
                return Err(format!(
                    "partition cache requires full connectivity; GPU{i} and GPU{j} are unconnected"
                ));
            }
        }
    }
    let e = hotness.len();
    let mut p = Placement::all_host(g, e);
    // Row `h`'s sources: every GPU reads from GPU `h`.
    let from: Vec<RowId> = (0..g)
        .map(|h| p.intern(&vec![h as SourceIdx; g]).expect("G + 1 rows fit"))
        .collect();
    let ranking = hotness.ranking();
    for (r, &id) in ranking.iter().take((g * cap_entries).min(e)).enumerate() {
        let holder = r % g;
        p.stored[holder].set(id as usize, true);
        p.set_row(id as usize, from[holder]);
    }
    Ok(p)
}

/// Clique partition (Quiver / PartU on non-uniform platforms): GPUs are
/// grouped into fully-connected cliques; each clique independently
/// partitions the hottest `clique_size · cap_entries` entries.
///
/// # Panics
///
/// Panics if the cliques lay the hot entries out more than 65 536 ways
/// (the placement's source table is full), which takes dozens of GPUs.
pub fn clique_partition(platform: &Platform, hotness: &Hotness, cap_entries: usize) -> Placement {
    let g = platform.num_gpus();
    let e = hotness.len();
    let mut p = Placement::all_host(g, e);
    let ranking = hotness.ranking();
    let cliques = platform.fully_connected_groups();
    let reach = |members: &Vec<usize>| members.len() * cap_entries;
    let hot = cliques.iter().map(reach).max().unwrap_or(0).min(e);
    let mut sources = vec![p.host_idx(); g];
    for (r, &id) in ranking.iter().take(hot).enumerate() {
        sources.fill(p.host_idx());
        for members in cliques.iter().filter(|m| r < reach(m)) {
            let holder = members[r % members.len()];
            p.stored[holder].set(id as usize, true);
            for &i in members {
                sources[i] = holder as SourceIdx;
            }
        }
        let row = p
            .intern(&sources)
            .expect("the cliques' layouts fit the row table");
        p.set_row(id as usize, row);
    }
    p
}

/// No GPU caching at all; every read goes to host over PCIe.
pub fn cpu_only(platform: &Platform, num_entries: usize) -> Placement {
    Placement::all_host(platform.num_gpus(), num_entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::zipf::powerlaw_hotness;

    fn hotness(n: usize) -> Hotness {
        Hotness::new(powerlaw_hotness(n, 1.2))
    }

    #[test]
    fn replication_caches_same_entries_everywhere() {
        let plat = Platform::server_a();
        let h = hotness(1000);
        let p = replication(&plat, &h, 100);
        p.validate().unwrap();
        for i in 0..4 {
            assert_eq!(p.cached_count(i), 100);
        }
        // Hottest entry (rank 0 = entry 0 for powerlaw_hotness) is local
        // everywhere; a cold entry is host everywhere.
        for i in 0..4 {
            assert_eq!(p.source(i, 0), i as u8);
            assert_eq!(p.source(i, 999), p.host_idx());
        }
    }

    #[test]
    fn partition_spreads_one_copy_each() {
        let plat = Platform::server_c();
        let h = hotness(1000);
        let p = partition(&plat, &h, 50).unwrap();
        p.validate().unwrap();
        let total: usize = (0..8).map(|i| p.cached_count(i)).sum();
        assert_eq!(total, 400);
        // Every cached entry has exactly one holder.
        for e in 0..400usize {
            let holders = (0..8).filter(|&j| p.stored[j].get(e)).count();
            assert_eq!(holders, 1, "entry {e}");
        }
        // All GPUs agree on where to read a cached entry.
        for e in 0..400 {
            let s = p.source(0, e);
            for i in 1..8 {
                assert_eq!(p.source(i, e), s);
            }
        }
    }

    #[test]
    fn partition_rejects_unconnected_platforms() {
        let plat = Platform::server_b();
        let h = hotness(100);
        assert!(partition(&plat, &h, 10).is_err());
    }

    #[test]
    fn clique_partition_stays_within_cliques() {
        let plat = Platform::server_b();
        let h = hotness(1000);
        let p = clique_partition(&plat, &h, 50);
        p.validate().unwrap();
        // GPU0 must only read from GPUs 0..4 or host.
        for e in 0..1000 {
            let s = p.source(0, e);
            assert!(s == p.host_idx() || s < 4, "entry {e} from {s}");
        }
        // Both cliques cache the same hot span → global duplication across
        // cliques, single copies within.
        assert!(
            p.stored.iter().take(4).any(|s| s.get(0)) && p.stored.iter().skip(4).any(|s| s.get(0))
        );
    }

    #[test]
    fn replication_has_higher_local_but_lower_global_hit_rate_than_partition() {
        let plat = Platform::server_c();
        let h = hotness(10_000);
        let cap = 300;
        let rep = replication(&plat, &h, cap);
        let part = partition(&plat, &h, cap).unwrap();
        assert!(rep.local_hit_rate(&h) > part.local_hit_rate(&h));
        assert!(part.global_hit_rate(&h) > rep.global_hit_rate(&h));
    }

    #[test]
    fn cpu_only_has_zero_hit_rate() {
        let plat = Platform::server_a();
        let h = hotness(100);
        let p = cpu_only(&plat, 100);
        assert_eq!(p.global_hit_rate(&h), 0.0);
    }

    #[test]
    fn capacity_is_respected_by_all_baselines() {
        let plat = Platform::server_c();
        let h = hotness(5_000);
        for cap in [0usize, 10, 500] {
            assert!(replication(&plat, &h, cap).cached_count(3) <= cap);
            let p = partition(&plat, &h, cap).unwrap();
            for i in 0..8 {
                assert!(p.cached_count(i) <= cap.max(1), "cap {cap}");
            }
        }
    }
}
