//! Figures 10 and 11: end-to-end times and their embedding-extraction
//! component, for every (server × model × dataset × system) cell.
//!
//! Figure 10 reports GNN epoch seconds and DLR iteration milliseconds;
//! Figure 11 isolates the extraction component (adding RepU/PartU to the
//! DLR comparison, as the paper does). Both figures render from the same
//! [`Data`], so one `compute` pass serves both targets.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use emb_workload::{BatchSource, DlrDatasetId, GnnDatasetId, GnnModel};
use serde::Serialize;
use std::fmt::{self, Write as _};
use ugache::apps::dlr::{dlr_cache_capacity, run_dlr_iterations};
use ugache::apps::gnn::{gnn_cache_capacity, run_gnn_epoch};
use ugache::apps::{DlrModel, GnnAppConfig};
use ugache::baselines::{build_system, SystemKind};

/// One GNN cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GnnCell {
    /// Server name.
    pub server: String,
    /// GNN model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// System name.
    pub system: String,
    /// Epoch seconds (`None` when the system cannot launch).
    pub epoch_secs: Option<f64>,
    /// Extraction seconds per iteration.
    pub extract_per_iter_secs: Option<f64>,
}

/// One DLR cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DlrCell {
    /// Server name.
    pub server: String,
    /// DLR model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// System name.
    pub system: String,
    /// Iteration milliseconds.
    pub iter_ms: f64,
    /// Extraction milliseconds per iteration.
    pub extract_ms: f64,
}

/// The combined Figure 10/11 result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Data {
    /// All GNN cells, in (server, model, dataset, system) order.
    pub gnn: Vec<GnnCell>,
    /// All DLR cells, in (server, dataset, model, system) order.
    pub dlr: Vec<DlrCell>,
}

const GNN_SYSTEMS: [SystemKind; 3] = [SystemKind::GnnLab, SystemKind::PartU, SystemKind::UGache];
const DLR_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Hps,
    SystemKind::Sok,
    SystemKind::RepU,
    SystemKind::PartU,
    SystemKind::UGache,
];

/// A cell's batches, drawn once from `w` (a clone of the cell's
/// workload): `max(2, iters)` of them, and the mean keys per GPU of the
/// first two, as `measure_accesses_per_iter(2)` reads them from its own
/// clone. Every system then replays the first `iters` through a
/// [`Replay`].
fn draw(mut w: impl BatchSource, iters: usize) -> (Vec<Vec<Vec<u32>>>, f64) {
    let batches: Vec<_> = (0..iters.max(2)).map(|_| w.next_batch()).collect();
    let keys: usize = batches[..2].iter().flatten().map(Vec::len).sum();
    let accesses = keys as f64 / (2 * batches[0].len()) as f64;
    (batches, accesses)
}

/// A cell's drawn batches, replayed in order: the stream a fresh clone of
/// the cell's workload would give.
struct Replay<'a>(std::slice::Iter<'a, Vec<Vec<u32>>>);

impl BatchSource for Replay<'_> {
    fn next_batch(&mut self) -> Vec<Vec<u32>> {
        let next = self.0.next();
        next.expect("a system reads no more batches than its cell drew")
            .clone()
    }
}

/// Computes the GNN half of Figure 10 (no printing).
pub fn compute_gnn(s: &Scenario) -> Vec<GnnCell> {
    let mut cells = Vec::new();
    let cfg = GnnAppConfig {
        batch_size: s.gnn_batch,
        measure_iters: s.iters,
        ..Default::default()
    };
    for p in PlatformId::SERVERS {
        for model in GnnModel::ALL {
            for ds in GnnDatasetId::ALL {
                let plat = p.resolve();
                let (w, hotness) = s.gnn(ds, model, &plat);
                let entry_bytes = w.dataset().entry_bytes;
                // A few iterations' key volume scales the solver.
                let (batches, accesses) = draw(w.clone(), s.iters);
                let replay = || Replay(batches.iter());
                for kind in GNN_SYSTEMS {
                    let cap = gnn_cache_capacity(&plat, w.dataset(), kind);
                    let report =
                        build_system(kind, &plat, &hotness, cap, entry_bytes, accesses, 0xE9)
                            .ok()
                            .map(|system| run_gnn_epoch(&system, &w, &mut replay(), &cfg));
                    cells.push(GnnCell {
                        server: plat.name.clone(),
                        model: model.name().to_string(),
                        dataset: ds.name().to_string(),
                        system: kind.name().to_string(),
                        epoch_secs: report.as_ref().map(|r| r.epoch_secs),
                        extract_per_iter_secs: report.as_ref().map(|r| r.extract_per_iter_secs),
                    });
                }
            }
        }
    }
    cells
}

/// Computes the DLR half of Figure 10 (no printing).
pub fn compute_dlr(s: &Scenario) -> Vec<DlrCell> {
    let mut cells = Vec::new();
    let (batch, iters) = (s.dlr_batch, s.iters);
    for p in PlatformId::SERVERS {
        for ds in DlrDatasetId::ALL {
            let plat = p.resolve();
            let (w, hotness) = s.dlr(ds, &plat);
            let entry_bytes = w.dataset().entry_bytes;
            let cap = dlr_cache_capacity(&plat, w.dataset());
            let (batches, accesses) = draw(w.clone(), iters);
            let replay = || Replay(batches.iter());
            // Each system is built and measured once; the dense model only
            // prices the MLP on top of the same extraction means.
            let per_system = DLR_SYSTEMS.map(|kind| {
                let system = build_system(kind, &plat, &hotness, cap, entry_bytes, accesses, 0xD7)
                    .expect("all DLR systems launch");
                run_dlr_iterations(&system, &mut replay(), &DlrModel::ALL, batch, iters)
            });
            for (m, model) in DlrModel::ALL.into_iter().enumerate() {
                for (kind, per_model) in DLR_SYSTEMS.into_iter().zip(&per_system) {
                    let r = &per_model[m];
                    cells.push(DlrCell {
                        server: plat.name.clone(),
                        model: model.name().to_string(),
                        dataset: ds.name().to_string(),
                        system: kind.name().to_string(),
                        iter_ms: r.iteration_secs * 1e3,
                        extract_ms: r.extract_secs * 1e3,
                    });
                }
            }
        }
    }
    cells
}

/// Computes both halves of Figures 10/11 (no printing).
pub fn compute(s: &Scenario) -> Data {
    Data {
        gnn: compute_gnn(s),
        dlr: compute_dlr(s),
    }
}

/// Distinct row keys in first-seen order (a row's cells are adjacent).
fn rows<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut rows: Vec<K> = keys.collect();
    rows.dedup();
    rows
}

/// Writes one GNN table: a row per (server, model, dataset), `secs` of
/// each system's cell in milliseconds.
fn render_gnn(
    out: &mut String,
    data: &Data,
    title: &str,
    secs: fn(&GnnCell) -> Option<f64>,
) -> fmt::Result {
    header(out, title)?;
    writeln!(
        out,
        "{:<16} {:<12} {:<5} {:>10} {:>10} {:>10}",
        "server", "model", "data", "GNNLab", "PartU", "UGache"
    )?;
    let gnn = data.gnn.iter();
    for (srv, model, ds) in
        rows(gnn.map(|c| (c.server.clone(), c.model.clone(), c.dataset.clone())))
    {
        let get = |sys: &str| {
            data.gnn
                .iter()
                .find(|c| c.server == srv && c.model == model && c.dataset == ds && c.system == sys)
                .and_then(secs)
                .map_or("n/a".to_string(), |x| format!("{:.3}", x * 1e3))
        };
        writeln!(
            out,
            "{:<16} {:<12} {:<5} {:>10} {:>10} {:>10}",
            srv,
            model,
            ds,
            get("GNNLab"),
            get("PartU"),
            get("UGache")
        )?;
    }
    Ok(())
}

/// Writes Figure 10 from precomputed data.
pub fn render_fig10(out: &mut String, data: &Data) -> fmt::Result {
    let title = "Figure 10 (GNN): end-to-end epoch milliseconds (scaled datasets)";
    render_gnn(out, data, title, |c| c.epoch_secs)?;

    header(out, "Figure 10 (DLR): end-to-end iteration milliseconds")?;
    writeln!(
        out,
        "{:<16} {:<6} {:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "server", "model", "data", "HPS", "SOK", "RepU", "PartU", "UGache"
    )?;
    let dlr = data.dlr.iter();
    for (srv, model, ds) in
        rows(dlr.map(|c| (c.server.clone(), c.model.clone(), c.dataset.clone())))
    {
        let get = |sys: &str| {
            data.dlr
                .iter()
                .find(|c| c.server == srv && c.model == model && c.dataset == ds && c.system == sys)
                .map_or("n/a".to_string(), |c| format!("{:.3}", c.iter_ms))
        };
        writeln!(
            out,
            "{:<16} {:<6} {:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            srv,
            model,
            ds,
            get("HPS"),
            get("SOK"),
            get("RepU"),
            get("PartU"),
            get("UGache")
        )?;
    }
    Ok(())
}

/// Writes Figure 11 from the same precomputed data.
pub fn render_fig11(out: &mut String, data: &Data) -> fmt::Result {
    let title = "Figure 11 (GNN): embedding extraction ms per iteration";
    render_gnn(out, data, title, |c| c.extract_per_iter_secs)?;

    header(
        out,
        "Figure 11 (DLR): embedding extraction ms per iteration",
    )?;
    writeln!(
        out,
        "{:<16} {:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "server", "data", "HPS", "SOK", "RepU", "PartU", "UGache"
    )?;
    for (srv, ds) in rows(
        data.dlr
            .iter()
            .map(|c| (c.server.clone(), c.dataset.clone())),
    ) {
        let get = |sys: &str| {
            data.dlr
                .iter()
                .find(|c| c.server == srv && c.dataset == ds && c.system == sys)
                .map_or("n/a".to_string(), |c| format!("{:.3}", c.extract_ms))
        };
        writeln!(
            out,
            "{:<16} {:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            srv,
            ds,
            get("HPS"),
            get("SOK"),
            get("RepU"),
            get("PartU"),
            get("UGache")
        )?;
    }
    Ok(())
}
