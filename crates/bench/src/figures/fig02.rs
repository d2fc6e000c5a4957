//! Figure 2: hit rate and extraction time vs cache ratio, replication vs
//! partition (vs UGache), supervised GraphSAGE on PA, Server C.

use super::{header, ms};
use crate::scenario::{PlatformId, Scenario};
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use ugache::baselines::{build_system, SystemKind};

/// One cache-ratio data point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Point {
    /// Per-GPU cache ratio in percent of total entries.
    pub ratio_pct: f64,
    /// Replication local (= global) hit rate on the measured batches.
    pub rep_local: f64,
    /// Partition local hit rate.
    pub part_local: f64,
    /// Partition global hit rate.
    pub part_global: f64,
    /// Replication extraction ms (naive peer, like the motivating study).
    pub rep_ms: f64,
    /// Partition extraction ms.
    pub part_ms: f64,
    /// UGache extraction ms.
    pub ugache_ms: f64,
}

/// Empirical `(local, global)` hit rates of a placement over measured
/// batches.
fn hit_rates(placement: &cache_policy::Placement, keys_per_gpu: &[Vec<u32>]) -> (f64, f64) {
    let [local, remote, host] = placement.tier_keys(keys_per_gpu);
    let total = (local + remote + host).max(1) as f64;
    (local as f64 / total, (local + remote) as f64 / total)
}

/// Computes the Figure 2 series (no printing).
pub fn compute(s: &Scenario) -> Vec<Point> {
    let plat = PlatformId::ServerC.resolve();
    let (mut w, hotness) = s.gnn(GnnDatasetId::Pa, GnnModel::GraphSageSupervised, &plat);
    let e = hotness.len();
    let accesses = w.clone().measure_accesses_per_iter(2);

    let mut out = Vec::new();
    for ratio_pct in [2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0] {
        let cap = ((ratio_pct / 100.0) * e as f64) as usize;
        let keys: Vec<Vec<u32>> = w.next_batch();

        let build = |kind: SystemKind| {
            let entry_bytes = w.dataset().entry_bytes;
            build_system(kind, &plat, &hotness, cap, entry_bytes, accesses, 3).unwrap()
        };
        let (rep, part) = (build(SystemKind::RepU), build(SystemKind::PartU));
        let (rep_local, _) = hit_rates(&rep.placement, &keys);
        let (part_local, part_global) = hit_rates(&part.placement, &keys);
        out.push(Point {
            ratio_pct,
            rep_local,
            part_local,
            part_global,
            rep_ms: rep.extract_ms(&keys),
            part_ms: part.extract_ms(&keys),
            ugache_ms: build(SystemKind::UGache).extract_ms(&keys),
        });
    }
    out
}

/// Prints Figure 2 from precomputed points.
pub fn render(points: &[Point]) {
    header("Figure 2: hit rate & extraction time vs cache ratio (SAGE sup., PA, Server C)");
    println!(
        "{:>6} {:>10} {:>11} {:>12} {:>9} {:>9} {:>10}",
        "ratio", "rep.local", "part.local", "part.global", "rep(ms)", "part(ms)", "ugache(ms)"
    );
    for p in points {
        println!(
            "{:>5}% {:>9.1}% {:>10.1}% {:>11.1}% {:>9} {:>9} {:>10}",
            p.ratio_pct,
            p.rep_local * 100.0,
            p.part_local * 100.0,
            p.part_global * 100.0,
            ms(p.rep_ms / 1e3),
            ms(p.part_ms / 1e3),
            ms(p.ugache_ms / 1e3)
        );
    }
}
