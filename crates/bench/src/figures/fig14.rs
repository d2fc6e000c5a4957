//! Figures 14 and 15: where accesses are served from (local GPU / remote
//! GPU / host) and how long each source takes, vs cache ratio —
//! PartU / UGache / RepU on PA (high skew) and CF (low skew), Server C.
//!
//! As in the paper's Figure 15, all three policies use UGache's factored
//! extraction so the comparison isolates the *policy*.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use ugache::baselines::{SystemInstance, SystemKind};

/// One (dataset, ratio, system) measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Split {
    /// Dataset name.
    pub dataset: String,
    /// Cache ratio per GPU (percent).
    pub ratio_pct: f64,
    /// System name.
    pub system: String,
    /// Fraction of keys served locally.
    pub local: f64,
    /// Fraction served from remote GPUs.
    pub remote: f64,
    /// Fraction served from host.
    pub host: f64,
    /// Extraction ms under factored extraction.
    pub extract_ms: f64,
}

/// Computes the Figures 14/15 measurements (no printing).
pub fn compute(s: &Scenario) -> Vec<Split> {
    let plat = PlatformId::ServerC.resolve();
    let mut out = Vec::new();
    for ds in [GnnDatasetId::Pa, GnnDatasetId::Cf] {
        let (mut w, hotness) = s.gnn(ds, GnnModel::GraphSageSupervised, &plat);
        let e = hotness.len();
        let entry_bytes = w.dataset().entry_bytes;
        let accesses = w.clone().measure_accesses_per_iter(2);
        for ratio_pct in [2.0, 4.0, 6.0, 8.0, 10.0, 12.0] {
            let cap = ((ratio_pct / 100.0) * e as f64) as usize;
            let keys = w.next_batch();
            for kind in [SystemKind::PartU, SystemKind::UGache, SystemKind::RepU] {
                // `kind`'s policy, UGache's mechanism.
                let placement = kind
                    .place(&plat, &hotness, cap, entry_bytes, accesses)
                    .unwrap();
                let sys = SystemInstance::new(SystemKind::UGache, &plat, placement, entry_bytes, 7);
                let [local, remote, host] = sys.placement.tier_keys(&keys);
                let total = (local + remote + host).max(1) as f64;
                out.push(Split {
                    dataset: ds.name().to_string(),
                    ratio_pct,
                    system: kind.name().to_string(),
                    local: local as f64 / total,
                    remote: remote as f64 / total,
                    host: host as f64 / total,
                    extract_ms: sys.extract_ms(&keys),
                });
            }
        }
    }
    out
}

/// Prints Figures 14/15 from precomputed measurements.
pub fn render(splits: &[Split]) {
    header("Figures 14/15: access split and per-source time vs cache ratio (Server C)");
    println!(
        "{:<5} {:>6} {:<7} {:>8} {:>8} {:>8} {:>12}",
        "data", "ratio", "system", "local", "remote", "host", "extract(ms)"
    );
    for sp in splits {
        println!(
            "{:<5} {:>5}% {:<7} {:>7.1}% {:>7.1}% {:>7.1}% {:>12.3}",
            sp.dataset,
            sp.ratio_pct,
            sp.system,
            sp.local * 100.0,
            sp.remote * 100.0,
            sp.host * 100.0,
            sp.extract_ms
        );
    }
}
