//! Figure 16: UGache's approximate (block-batched) policy vs the
//! theoretically optimal policy.
//!
//! "Optimal" is the same LP solved at much finer block granularity — the
//! approximation under test is exactly the §6.3 batching, mirroring how
//! the paper shrinks instances until an exact solve is feasible. Both
//! placements are evaluated with UGache's extraction (as in the paper).

use super::header;
use crate::scenario::{PlatformId, Scenario};
use cache_policy::{BlockConfig, SolverConfig, UGacheSolver};
use emb_workload::{DlrDatasetId, GnnDatasetId, GnnModel};
use gpu_platform::{DedicationConfig, Platform};
use serde::Serialize;
use ugache::baselines::{SystemInstance, SystemKind};

/// One comparison row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gap {
    /// Workload label.
    pub workload: String,
    /// Extraction ms under the default (coarse-block) UGache policy.
    pub ugache_ms: f64,
    /// Extraction ms under the fine-block "optimal" policy.
    pub optimal_ms: f64,
}

impl Gap {
    /// Relative gap `ugache / optimal − 1`.
    pub fn rel_gap(&self) -> f64 {
        self.ugache_ms / self.optimal_ms - 1.0
    }
}

fn compare(
    plat: &Platform,
    hotness: &cache_policy::Hotness,
    cap: usize,
    entry_bytes: usize,
    accesses: f64,
    keys: &[Vec<u32>],
) -> (f64, f64) {
    let solver = UGacheSolver::new(plat.clone(), DedicationConfig::default());
    let caps = vec![cap; plat.num_gpus()];
    let solve = |blocks: BlockConfig| {
        let cfg = SolverConfig {
            blocks,
            entry_bytes,
            accesses_per_iter: accesses,
            dedup_adjust: true,
        };
        let sp = solver.solve(hotness, &caps, &cfg).expect("solver");
        SystemInstance::new(SystemKind::UGache, plat, sp.placement, entry_bytes, 0).extract_ms(keys)
    };
    // Default (coarse) vs fine-grained batching.
    let coarse = solve(BlockConfig {
        max_blocks: 64,
        ..Default::default()
    });
    let fine = solve(BlockConfig {
        coarse_cap: 0.001,
        min_splits: 2 * plat.num_gpus(),
        max_blocks: 384,
    });
    (coarse, fine)
}

/// Computes the Figure 16 gaps (no printing).
pub fn compute(s: &Scenario) -> Vec<Gap> {
    let mut out = Vec::new();

    // Server A: DLRM with CR / SYN-A / SYN-B.
    let plat_a = PlatformId::ServerA.resolve();
    for ds in DlrDatasetId::ALL {
        let (mut w, hotness) = s.dlr(ds, &plat_a);
        let entry_bytes = w.dataset().entry_bytes;
        let cap = ugache::apps::dlr::dlr_cache_capacity(&plat_a, w.dataset());
        let accesses = w.clone().measure_accesses_per_iter(1);
        let keys = w.next_batch();
        let (u, o) = compare(&plat_a, &hotness, cap, entry_bytes, accesses, &keys);
        out.push(Gap {
            workload: format!("ServerA DLRM {}", ds.name()),
            ugache_ms: u,
            optimal_ms: o,
        });
    }

    // Server B: reduced synthetic datasets (SYN-As / SYN-Bs).
    let plat_b = PlatformId::ServerB.resolve();
    for ds in [DlrDatasetId::SynA, DlrDatasetId::SynB] {
        let mut small = *s;
        small.dlr_scale = s.dlr_scale * 4; // the paper's reduced tables
        let (mut w, hotness) = small.dlr(ds, &plat_b);
        let entry_bytes = w.dataset().entry_bytes;
        let cap = ugache::apps::dlr::dlr_cache_capacity(&plat_b, w.dataset());
        let accesses = w.clone().measure_accesses_per_iter(1);
        let keys = w.next_batch();
        let (u, o) = compare(&plat_b, &hotness, cap, entry_bytes, accesses, &keys);
        out.push(Gap {
            workload: format!("ServerB DLRM {}s", ds.name()),
            ugache_ms: u,
            optimal_ms: o,
        });
    }

    // Server C: all three GNN models on PA (representative; add CF/MAG in
    // full mode).
    let plat_c = PlatformId::ServerC.resolve();
    let gnn_sets: &[GnnDatasetId] = if s.gnn_scale <= 1024 {
        &[GnnDatasetId::Pa, GnnDatasetId::Cf, GnnDatasetId::Mag]
    } else {
        &[GnnDatasetId::Pa]
    };
    for model in GnnModel::ALL {
        for &ds in gnn_sets {
            let (mut w, hotness) = s.gnn(ds, model, &plat_c);
            let entry_bytes = w.dataset().entry_bytes;
            let cap = ugache::apps::gnn_cache_capacity(&plat_c, w.dataset(), SystemKind::UGache);
            let accesses = w.clone().measure_accesses_per_iter(1);
            let keys = w.next_batch();
            let (u, o) = compare(&plat_c, &hotness, cap, entry_bytes, accesses, &keys);
            out.push(Gap {
                workload: format!("ServerC {} {}", model.name(), ds.name()),
                ugache_ms: u,
                optimal_ms: o,
            });
        }
    }
    out
}

/// Prints Figure 16 from precomputed gaps.
pub fn render(gaps: &[Gap]) {
    header("Figure 16: UGache vs theoretically-optimal cache policy");
    println!(
        "{:<28} {:>11} {:>12} {:>7}",
        "workload", "ugache(ms)", "optimal(ms)", "gap"
    );
    for g in gaps {
        println!(
            "{:<28} {:>11.3} {:>12.3} {:>6.1}%",
            g.workload,
            g.ugache_ms,
            g.optimal_ms,
            g.rel_gap() * 100.0
        );
    }
    let mean_gap: f64 = gaps.iter().map(Gap::rel_gap).sum::<f64>() / gaps.len().max(1) as f64;
    println!("mean gap: {:.1}%", mean_gap * 100.0);
}
