//! Table 3: dataset statistics at reproduction scale.

use super::header;
use crate::scenario::{Scenario, SEED};
use emb_util::fmt;
use emb_workload::{dlr_preset, gnn_preset, DlrDatasetId, GnnDatasetId};
use serde::Serialize;
use std::fmt::Write as _;

/// One row of the table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Dataset short name.
    pub name: String,
    /// Vertices (GNN) or entries (DLR).
    pub entities: u64,
    /// Edges (GNN) or tables (DLR).
    pub secondary: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Embedding volume in bytes.
    pub volume_e: u64,
    /// Topology volume in bytes (GNN only).
    pub volume_g: Option<u64>,
    /// Zipf skew α (DLR only).
    pub alpha: Option<f64>,
}

/// Computes the Table 3 rows (no printing): GNN datasets first, then DLR.
pub fn compute(s: &Scenario) -> Vec<Row> {
    let mut rows = Vec::new();
    for id in GnnDatasetId::ALL {
        let d = gnn_preset(id, s.gnn_scale, SEED);
        rows.push(Row {
            name: d.name.clone(),
            entities: d.num_entries() as u64,
            secondary: d.graph.num_edges(),
            dim: d.dim,
            volume_e: d.volume_bytes(),
            volume_g: Some(d.graph.topology_bytes()),
            alpha: None,
        });
    }
    for id in DlrDatasetId::ALL {
        let d = dlr_preset(id, s.dlr_scale);
        rows.push(Row {
            name: d.name.clone(),
            entities: d.num_entries() as u64,
            secondary: d.num_tables() as u64,
            dim: d.dim,
            volume_e: d.volume_bytes(),
            volume_g: None,
            alpha: Some(d.alpha),
        });
    }
    rows
}

/// Writes Table 3 from precomputed rows.
pub fn render(out: &mut String, s: &Scenario, rows: &[Row]) -> std::fmt::Result {
    header(
        out,
        &format!(
            "Table 3: datasets (GNN scale 1/{}, DLR scale 1/{})",
            s.gnn_scale, s.dlr_scale
        ),
    )?;
    writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>6} {:>10} {:>10}",
        "Dataset", "#Vertex", "#Edge", "Dim", "VolumeG", "VolumeE"
    )?;
    for row in rows.iter().filter(|r| r.volume_g.is_some()) {
        writeln!(
            out,
            "{:<8} {:>12} {:>14} {:>6} {:>10} {:>10}",
            row.name,
            fmt::count(row.entities),
            fmt::count(row.secondary),
            row.dim,
            fmt::bytes(row.volume_g.unwrap()),
            fmt::bytes(row.volume_e)
        )?;
    }
    writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>6} {:>10} {:>10}",
        "Dataset", "#Entry", "#Table", "Dim", "Skew", "VolumeE"
    )?;
    for row in rows.iter().filter(|r| r.volume_g.is_none()) {
        writeln!(
            out,
            "{:<8} {:>12} {:>14} {:>6} {:>10} {:>10}",
            row.name,
            fmt::count(row.entities),
            row.secondary,
            row.dim,
            format!("{:.1}", row.alpha.unwrap_or(0.0)),
            fmt::bytes(row.volume_e)
        )?;
    }
    Ok(())
}
