//! Figure 9: log-scale hotness blocking with coarse/fine size caps.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use cache_policy::{build_blocks, BlockConfig};
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use std::fmt::{self, Write as _};

/// Per-hotness-level blocking statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LevelRow {
    /// Log2 hotness level (0 = hottest).
    pub level: u32,
    /// Entries at this level.
    pub entries: usize,
    /// Blocks the level was split into.
    pub blocks: usize,
    /// Largest block at this level.
    pub max_block: usize,
}

/// The full Figure 9 result: per-level rows plus the blocking knobs the
/// printout reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig09Data {
    /// Coarse size cap, in entries per block.
    pub coarse_cap_entries: usize,
    /// Minimum splits per level (fine cap).
    pub min_splits: usize,
    /// Total blocks over all levels.
    pub total_blocks: usize,
    /// Per-level statistics, hottest first.
    pub rows: Vec<LevelRow>,
}

/// Computes the Figure 9 blocking statistics (no printing).
pub fn compute(s: &Scenario) -> Fig09Data {
    let plat = PlatformId::ServerC.resolve();
    let (_, hotness) = s.gnn(GnnDatasetId::Pa, GnnModel::GraphSageSupervised, &plat);
    let cfg = BlockConfig {
        min_splits: plat.num_gpus(),
        max_blocks: 4096,
        ..Default::default()
    };
    let blocks = build_blocks(&hotness, &cfg);

    let mut rows: Vec<LevelRow> = Vec::new();
    for b in &blocks {
        match rows.iter_mut().find(|r| r.level == b.level) {
            Some(r) => {
                r.entries += b.size();
                r.blocks += 1;
                r.max_block = r.max_block.max(b.size());
            }
            None => rows.push(LevelRow {
                level: b.level,
                entries: b.size(),
                blocks: 1,
                max_block: b.size(),
            }),
        }
    }
    Fig09Data {
        coarse_cap_entries: ((cfg.coarse_cap * hotness.len() as f64).ceil()) as usize,
        min_splits: cfg.min_splits,
        total_blocks: blocks.len(),
        rows,
    }
}

/// Writes Figure 9 from precomputed data.
pub fn render(out: &mut String, data: &Fig09Data) -> fmt::Result {
    header(
        out,
        "Figure 9: hotness-block batching (PA profile, log-scale levels)",
    )?;
    writeln!(
        out,
        "coarse cap: {} entries/block; fine: ≥{} blocks/level",
        data.coarse_cap_entries, data.min_splits
    )?;
    writeln!(
        out,
        "{:>6} {:>10} {:>8} {:>10}",
        "level", "entries", "blocks", "max.block"
    )?;
    for r in data.rows.iter().take(14) {
        writeln!(
            out,
            "{:>6} {:>10} {:>8} {:>10}",
            r.level, r.entries, r.blocks, r.max_block
        )?;
    }
    if data.rows.len() > 14 {
        writeln!(
            out,
            "  ... {} more levels, {} blocks total",
            data.rows.len() - 14,
            data.total_blocks
        )?;
    }
    Ok(())
}
