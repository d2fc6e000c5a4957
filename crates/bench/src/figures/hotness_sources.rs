//! Hotness-source study (§6.1): UGache lets applications supply hotness
//! from whichever semantic source they have — a pre-sampling profile
//! (GNNLab-style), graph degree (PaGraph-style), or online counting.
//! This target quantifies what each source costs relative to an oracle.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use cache_policy::Hotness;
use emb_workload::{GnnDatasetId, GnnModel};
use serde::Serialize;
use std::fmt::{self, Write as _};
use ugache::baselines::{build_system, SystemKind};

/// Result for one hotness source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SourceRow {
    /// Source label.
    pub source: String,
    /// Measured extraction ms with a placement solved from this source.
    pub extract_ms: f64,
    /// Top-1000 overlap with the long-profile oracle (0–1).
    pub oracle_overlap: f64,
}

/// Computes the study rows (no printing).
pub fn compute(s: &Scenario) -> Vec<SourceRow> {
    let plat = PlatformId::ServerC.resolve();
    let (w, _) = s.gnn(GnnDatasetId::Pa, GnnModel::GraphSageSupervised, &plat);
    let entry_bytes = w.dataset().entry_bytes;
    let cap = ugache::apps::gnn_cache_capacity(&plat, w.dataset(), SystemKind::UGache);

    // Oracle: a long profiling run.
    let mut oracle_w = w.clone();
    let oracle = oracle_w.profile_hotness(8);
    let top_oracle: std::collections::HashSet<u32> =
        oracle.ranking().into_iter().take(1000).collect();

    let mut sources: Vec<(String, Hotness)> = Vec::new();
    let mut short_w = w.clone();
    sources.push(("pre-sampling (1 iter)".into(), short_w.profile_hotness(1)));
    let mut med_w = w.clone();
    sources.push(("pre-sampling (4 iters)".into(), med_w.profile_hotness(4)));
    sources.push(("vertex degree".into(), w.degree_hotness()));
    sources.push(("oracle (8 iters)".into(), oracle.clone()));

    let accesses = w.clone().measure_accesses_per_iter(2);
    let mut eval_w = w.clone();
    // A common evaluation batch, unseen by any profile.
    for _ in 0..10 {
        let _ = eval_w.next_batch();
    }
    let keys = eval_w.next_batch();

    let mut out = Vec::new();
    for (label, hotness) in sources {
        let sys = build_system(
            SystemKind::UGache,
            &plat,
            &hotness,
            cap,
            entry_bytes,
            accesses,
            8,
        )
        .expect("ugache builds");
        let extract_ms = sys.extract_ms(&keys);
        let top: std::collections::HashSet<u32> =
            hotness.ranking().into_iter().take(1000).collect();
        let overlap = top.intersection(&top_oracle).count() as f64 / 1000.0;
        out.push(SourceRow {
            source: label,
            extract_ms,
            oracle_overlap: overlap,
        });
    }
    out
}

/// Writes the study from precomputed rows.
pub fn render(out: &mut String, rows: &[SourceRow]) -> fmt::Result {
    header(
        out,
        "Hotness sources (§6.1): pre-sampling vs degree vs short profile",
    )?;
    writeln!(
        out,
        "{:<24} {:>12} {:>16}",
        "source", "extract(ms)", "top-1k overlap"
    )?;
    for r in rows {
        writeln!(
            out,
            "{:<24} {:>12.3} {:>15.1}%",
            r.source,
            r.extract_ms,
            r.oracle_overlap * 100.0
        )?;
    }
    Ok(())
}
