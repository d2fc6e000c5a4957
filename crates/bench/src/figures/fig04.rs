//! Figure 4: extraction time under message-based, naive peer, and
//! UGache's factored mechanisms — DLR inference, Servers A and C,
//! Criteo-TB and the α=1.2 synthetic dataset.

use super::{header, ms};
use crate::scenario::{PlatformId, Scenario};
use emb_workload::DlrDatasetId;
use serde::Serialize;
use ugache::apps::dlr::dlr_cache_capacity;
use ugache::baselines::{build_system, SystemKind};

/// One (server, dataset) group of bars.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Bars {
    /// Server name.
    pub server: String,
    /// Dataset name.
    pub dataset: String,
    /// Message-based extraction ms (SOK-style).
    pub message_ms: f64,
    /// Naive peer extraction ms (WholeGraph-style).
    pub peer_ms: f64,
    /// UGache factored extraction ms.
    pub ugache_ms: f64,
}

/// Computes the Figure 4 bar groups (no printing).
pub fn compute(s: &Scenario) -> Vec<Bars> {
    let mut out = Vec::new();
    for p in [PlatformId::ServerA, PlatformId::ServerC] {
        for id in [DlrDatasetId::Cr, DlrDatasetId::SynA] {
            let plat = p.resolve();
            let (mut w, hotness) = s.dlr(id, &plat);
            let dataset = w.dataset().clone();
            let cap = dlr_cache_capacity(&plat, &dataset);
            let accesses = w.clone().measure_accesses_per_iter(2);
            let keys = w.next_batch();
            let t = |kind: SystemKind| {
                build_system(kind, &plat, &hotness, cap, dataset.entry_bytes, accesses, 4)
                    .unwrap()
                    .extract_ms(&keys)
            };
            out.push(Bars {
                server: plat.name.clone(),
                dataset: dataset.name.clone(),
                message_ms: t(SystemKind::Sok),
                peer_ms: t(SystemKind::PartU),
                ugache_ms: t(SystemKind::UGache),
            });
        }
    }
    out
}

/// Prints Figure 4 from precomputed bars.
pub fn render(bars: &[Bars]) {
    header("Figure 4: extraction mechanism comparison (DLR inference)");
    println!(
        "{:<16} {:<8} {:>12} {:>10} {:>12}",
        "server", "dataset", "message(ms)", "peer(ms)", "ugache(ms)"
    );
    for b in bars {
        println!(
            "{:<16} {:<8} {:>12} {:>10} {:>12}",
            b.server,
            b.dataset,
            ms(b.message_ms / 1e3),
            ms(b.peer_ms / 1e3),
            ms(b.ugache_ms / 1e3)
        );
    }
}
