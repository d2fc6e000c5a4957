//! Figure 12: extraction time as UGache's techniques are applied
//! incrementally (RepU → PartU → +Policy → UGache), vs cache ratio,
//! supervised GraphSAGE on PA and CF, Server C.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use ugache::baselines::{build_system, SystemKind};

/// One (dataset, ratio) data point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Point {
    /// Dataset name.
    pub dataset: String,
    /// Cache ratio per GPU (percent of entries).
    pub ratio_pct: f64,
    /// Replication + naive peer.
    pub repu_ms: f64,
    /// Partition + naive peer.
    pub partu_ms: f64,
    /// UGache policy + naive peer ("+Policy").
    pub policy_ms: f64,
    /// UGache policy + factored extraction (full UGache).
    pub ugache_ms: f64,
}

/// Computes the Figure 12 series (no printing).
pub fn compute(s: &Scenario) -> Vec<Point> {
    let mut out = Vec::new();
    for ds in [GnnDatasetId::Pa, GnnDatasetId::Cf] {
        let plat = PlatformId::ServerC.resolve();
        let (mut w, hotness) = s.gnn(ds, GnnModel::GraphSageSupervised, &plat);
        let e = hotness.len();
        let entry_bytes = w.dataset().entry_bytes;
        let accesses = w.clone().measure_accesses_per_iter(2);
        for ratio_pct in [2.0, 5.0, 8.0, 12.0, 18.0, 25.0] {
            let cap = ((ratio_pct / 100.0) * e as f64) as usize;
            let keys = w.next_batch();
            let build = |kind: SystemKind| {
                build_system(kind, &plat, &hotness, cap, entry_bytes, accesses, 5).unwrap()
            };
            let ugache = build(SystemKind::UGache);
            out.push(Point {
                dataset: ds.name().to_string(),
                ratio_pct,
                repu_ms: build(SystemKind::RepU).extract_ms(&keys),
                partu_ms: build(SystemKind::PartU).extract_ms(&keys),
                // "+Policy": the UGache placement extracted with naive peer.
                policy_ms: ugache.under(SystemKind::PartU, 5).extract_ms(&keys),
                ugache_ms: ugache.extract_ms(&keys),
            });
        }
    }
    out
}

/// Prints Figure 12 from precomputed points.
pub fn render(points: &[Point]) {
    header("Figure 12: techniques applied incrementally (SAGE sup., Server C)");
    println!(
        "{:<5} {:>6} {:>10} {:>10} {:>11} {:>11}",
        "data", "ratio", "RepU(ms)", "PartU(ms)", "+Policy(ms)", "UGache(ms)"
    );
    for p in points {
        println!(
            "{:<5} {:>5}% {:>10.3} {:>10.3} {:>11.3} {:>11.3}",
            p.dataset, p.ratio_pct, p.repu_ms, p.partu_ms, p.policy_ms, p.ugache_ms
        );
    }
}
