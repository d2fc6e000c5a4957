//! Table 1: single-GPU runtime/data breakdown for a typical EmbDL app.
//!
//! Unsupervised GraphSAGE training on MAG, one A100-80GB: how much of the
//! end-to-end time the embedding layer takes with and without a cache.

use super::{header, ms};
use crate::scenario::{PlatformId, Scenario};
use cache_policy::baselines;
use emb_util::fmt;
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use std::fmt::Write as _;
use ugache::apps::MlpCostModel;
use ugache::baselines::{SystemInstance, SystemKind};

/// The breakdown the table reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Breakdown {
    /// Dense-layer ms per iteration.
    pub mlp_ms: f64,
    /// Embedding extraction ms per iteration, no cache.
    pub emt_ms: f64,
    /// Embedding extraction ms per iteration, with cache.
    pub emt_cached_ms: f64,
    /// Embedding volume bytes.
    pub volume_e: u64,
    /// Bytes held in the cache.
    pub cached_bytes: u64,
    /// GPU-memory share of embedding reads with the cache on.
    pub gmem_ratio: f64,
}

/// Computes the Table 1 breakdown (no printing).
pub fn compute(s: &Scenario) -> Breakdown {
    let platform = PlatformId::SingleA100.resolve();
    let (mut w, hotness) = s.gnn(
        GnnDatasetId::Mag,
        GnnModel::GraphSageUnsupervised,
        &platform,
    );
    let dataset = w.dataset().clone();
    let entry_bytes = dataset.entry_bytes;
    let volume_e = dataset.volume_bytes();

    // Cache capacity: the paper's single-GPU cache (GNNLab-style
    // replication) under the scaled memory budget.
    let cap = ugache::apps::gnn_cache_capacity(&platform, &dataset, SystemKind::GnnLab);
    let cap = cap.min(dataset.num_entries());
    // Both placements are read through UGache's mechanism.
    let fem =
        |placement| SystemInstance::new(SystemKind::UGache, &platform, placement, entry_bytes, 0);
    let cached = fem(baselines::replication(&platform, &hotness, cap));
    let uncached = fem(baselines::cpu_only(&platform, dataset.num_entries()));

    let mut emt = 0.0;
    let mut emt_cached = 0.0;
    let mut gmem_keys = 0u64;
    let mut total_keys = 0u64;
    let mut keys_mean = 0.0;
    for _ in 0..s.iters {
        let keys = w.next_batch();
        keys_mean += keys[0].len() as f64 / s.iters as f64;
        emt += uncached.extract(&keys).makespan.as_secs_f64();
        emt_cached += cached.extract(&keys).makespan.as_secs_f64();
        let [local, remote, host] = cached.placement.tier_keys(&keys);
        gmem_keys += local + remote;
        total_keys += local + remote + host;
    }
    let n = s.iters as f64;
    let mlp = MlpCostModel::default().gnn_train_secs(
        &platform.gpus[0],
        keys_mean as usize,
        dataset.dim,
        GnnModel::GraphSageUnsupervised.mlp_layers(),
    );

    Breakdown {
        mlp_ms: mlp * 1e3,
        emt_ms: emt / n * 1e3,
        emt_cached_ms: emt_cached / n * 1e3,
        volume_e,
        cached_bytes: cap as u64 * entry_bytes as u64,
        gmem_ratio: if total_keys > 0 {
            gmem_keys as f64 / total_keys as f64
        } else {
            0.0
        },
    }
}

/// Writes Table 1 from a precomputed breakdown.
pub fn render(out: &mut String, b: &Breakdown) -> std::fmt::Result {
    header(
        out,
        "Table 1: single-GPU breakdown (unsup. GraphSAGE, MAG, 1×A100-80GB)",
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>16} {:>16}",
        "", "MLP", "EMT (w/ $)", "Total (w/ $)"
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>16} {:>16}",
        "Execution Time (ms)",
        ms(b.mlp_ms / 1e3),
        format!("{} ({})", ms(b.emt_ms / 1e3), ms(b.emt_cached_ms / 1e3)),
        format!(
            "{} ({})",
            ms((b.mlp_ms + b.emt_ms) / 1e3),
            ms((b.mlp_ms + b.emt_cached_ms) / 1e3)
        )
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>16} {:>16}",
        "Data Size",
        "~0",
        format!(
            "{} ({} in $)",
            fmt::bytes(b.volume_e),
            fmt::bytes(b.cached_bytes)
        ),
        fmt::bytes(b.volume_e)
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>16} {:>16}",
        "Access Gmem Ratio",
        "100%",
        format!("0% ({})", fmt::pct(b.gmem_ratio)),
        format!("0% ({})", fmt::pct(b.gmem_ratio))
    )?;
    Ok(())
}
