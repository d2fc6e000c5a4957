//! Figure 17: the inference timeline across background cache refreshes.
//!
//! DLRM inference with CR on Server C; a hotness drift is injected and a
//! refresh is (manually) triggered around t≈40 s and t≈150 s of virtual
//! time, as in the paper. Reported inference times rise by the bounded
//! foreground impact while the refresher solves and migrates, then drop
//! back — ideally below the pre-refresh level after the drift.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use emb_cache::HostTable;
use emb_workload::DlrDatasetId;
use serde::Serialize;
use std::fmt::{self, Write as _};
use ugache::apps::dlr::dlr_cache_capacity;
use ugache::{UGache, UGacheConfig};

/// One timeline sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Sample {
    /// Virtual time (seconds).
    pub t: f64,
    /// Inference (extract + MLP) ms at this point.
    pub inference_ms: f64,
    /// Whether a refresh was active.
    pub refresh_active: bool,
}

/// The full Figure 17 result: the timeline plus refresh durations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig17Data {
    /// Timeline samples in virtual-time order.
    pub samples: Vec<Sample>,
    /// Virtual-time seconds each completed refresh took.
    pub refresh_durations: Vec<f64>,
}

/// Rotates every key half-way around its table's id space: the hot set
/// changes completely while the skew shape stays — a daily-trace drift.
fn drift_keys(dataset: &emb_workload::DlrDataset, keys_per_gpu: &mut [Vec<u32>]) {
    for keys in keys_per_gpu.iter_mut() {
        for k in keys.iter_mut() {
            let t = match dataset.table_offsets.binary_search(&(*k as u64)) {
                Ok(t) => t,
                Err(ins) => ins - 1,
            };
            let off = dataset.table_offsets[t];
            let size = dataset.table_sizes[t];
            let local = *k as u64 - off;
            *k = (off + (local + size / 2) % size) as u32;
        }
        keys.sort_unstable();
        keys.dedup();
    }
}

/// Computes the Figure 17 timeline (no printing).
pub fn compute(s: &Scenario) -> Fig17Data {
    let plat = PlatformId::ServerC.resolve();
    let (mut w, hotness) = s.dlr(DlrDatasetId::Cr, &plat);
    let dataset = w.dataset().clone();
    let entry_bytes = dataset.entry_bytes;
    let cap = dlr_cache_capacity(&plat, &dataset);

    let accesses = w.clone().measure_accesses_per_iter(1);
    let mut cfg = UGacheConfig::new(entry_bytes, accesses);
    cfg.sample_stride = 4;
    cfg.refresh.solve_secs = 10.0;
    cfg.refresh.entries_per_batch = (cap / 8).max(64);
    cfg.refresh.batch_interval_secs = 0.25;
    let host = HostTable::procedural(dataset.num_entries(), dataset.dim);
    let mut u = UGache::build(
        plat.clone(),
        host,
        &hotness,
        vec![cap; plat.num_gpus()],
        cfg,
    )
    .expect("ugache builds");

    // MLP time per iteration (constant).
    let mlp = ugache::apps::MlpCostModel::default().dlr_infer_secs(
        &plat.gpus[0],
        s.dlr_batch,
        ugache::apps::DlrModel::Dlrm,
    );

    let window = 2.0f64; // seconds of virtual time per sample
    let mut samples = Vec::new();
    let mut triggered = [false, false];
    while u.clock() < 200.0 {
        let now = u.clock();
        // Inject drift shortly before the first trigger point.
        let mut keys = w.next_batch();
        if now >= 35.0 {
            drift_keys(&dataset, &mut keys);
        }
        let r = u.process_iteration(&keys);
        let iter_secs = r.extract.makespan.as_secs_f64() + mlp;
        // Trigger refreshes at ~40 s and ~150 s (manual, per the paper).
        if now >= 40.0 && !triggered[0] {
            triggered[0] = true;
            let _ = u.consider_refresh(true);
        }
        if now >= 150.0 && !triggered[1] {
            triggered[1] = true;
            let _ = u.consider_refresh(true);
        }
        let sample = Sample {
            t: now,
            inference_ms: iter_secs * 1e3,
            refresh_active: u.refresh_active(),
        };
        if samples.last().is_none_or(|p: &Sample| now - p.t >= window) {
            samples.push(sample);
        }
        // The measured iteration stands for a window of identical ones.
        u.advance_clock(window - iter_secs.min(window));
    }
    Fig17Data {
        samples,
        refresh_durations: u.refresh_history().to_vec(),
    }
}

/// Writes the timeline from precomputed data.
pub fn render(out: &mut String, data: &Fig17Data) -> fmt::Result {
    header(
        out,
        "Figure 17: inference timeline across cache refreshes (DLRM, CR, Server C)",
    )?;
    writeln!(
        out,
        "{:>8} {:>14} {:>9}",
        "t(s)", "inference(ms)", "refresh"
    )?;
    for sample in &data.samples {
        writeln!(
            out,
            "{:>8.1} {:>14.3} {:>9}",
            sample.t,
            sample.inference_ms,
            if sample.refresh_active { "ACTIVE" } else { "-" }
        )?;
    }
    for (i, d) in data.refresh_durations.iter().enumerate() {
        writeln!(out, "refresh {} took {:.2}s of virtual time", i + 1, d)?;
    }
    Ok(())
}
