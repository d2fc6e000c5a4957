//! Figure 13: PCIe and NVLink utilization during extraction with and
//! without the factored extraction mechanism, Server C.
//!
//! As in the paper, locally hit keys are removed in advance so only
//! remote-GPU and host traffic remains.

use super::header;
use crate::scenario::{PlatformId, Scenario};
use cache_policy::Placement;
use emb_workload::{DlrDatasetId, GnnDatasetId, GnnModel};
use gpu_platform::Location;
use serde::Serialize;
use ugache::baselines::{build_system, SystemInstance, SystemKind};

/// One workload's utilization numbers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Util {
    /// Workload label ("GCN/CF" etc.).
    pub workload: String,
    /// PCIe utilization without FEM (naive peer).
    pub pcie_naive: f64,
    /// PCIe utilization with FEM.
    pub pcie_fem: f64,
    /// NVLink/NVSwitch utilization without FEM.
    pub nvlink_naive: f64,
    /// NVLink/NVSwitch utilization with FEM.
    pub nvlink_fem: f64,
}

fn strip_local(placement: &Placement, keys_per_gpu: &[Vec<u32>]) -> Vec<Vec<u32>> {
    keys_per_gpu
        .iter()
        .enumerate()
        .map(|(gpu, keys)| {
            keys.iter()
                .copied()
                .filter(|&k| placement.access[gpu][k as usize] as usize != gpu)
                .collect()
        })
        .collect()
}

fn measure(sys: &SystemInstance, keys: &[Vec<u32>]) -> (f64, f64) {
    let plat = sys.extractor.platform();
    let out = sys.extract(keys);
    // Nsight-style utilization: traffic carried over the extraction
    // period, relative to the port's capacity. Congestion lowers it both
    // by slowing the transfers and by stretching the makespan.
    let span = out.makespan.as_secs_f64().max(1e-12);
    let mut pcie = 0.0;
    let mut nv = 0.0;
    let mut n = 0usize;
    for g in &out.per_gpu {
        let host_bytes: f64 = g
            .per_src
            .iter()
            .filter(|u| u.src == Location::Host)
            .map(|u| u.bytes)
            .sum();
        let remote_bytes: f64 = g
            .per_src
            .iter()
            .filter(|u| matches!(u.src, Location::Gpu(j) if j != g.gpu))
            .map(|u| u.bytes)
            .sum();
        pcie += (host_bytes / span / plat.gpus[g.gpu].pcie_bw).min(1.0);
        nv += (remote_bytes / span / plat.outbound_bw(Location::Gpu(g.gpu))).min(1.0);
        n += 1;
    }
    (pcie / n.max(1) as f64, nv / n.max(1) as f64)
}

/// Computes the Figure 13 utilizations (no printing).
pub fn compute(s: &Scenario) -> Vec<Util> {
    let plat = PlatformId::ServerC.resolve();
    let mut out = Vec::new();

    let mut cases: Vec<(String, SystemInstance, Vec<Vec<u32>>)> = Vec::new();
    for ds in [GnnDatasetId::Cf, GnnDatasetId::Mag] {
        let (mut w, hotness) = s.gnn(ds, GnnModel::Gcn, &plat);
        let entry_bytes = w.dataset().entry_bytes;
        let cap = ugache::apps::gnn_cache_capacity(&plat, w.dataset(), SystemKind::UGache);
        let accesses = w.clone().measure_accesses_per_iter(1);
        let sys = build_system(
            SystemKind::UGache,
            &plat,
            &hotness,
            cap,
            entry_bytes,
            accesses,
            6,
        )
        .unwrap();
        cases.push((format!("GCN/{}", ds.name()), sys, w.next_batch()));
    }
    for ds in [DlrDatasetId::Cr, DlrDatasetId::SynA] {
        let (mut w, hotness) = s.dlr(ds, &plat);
        let entry_bytes = w.dataset().entry_bytes;
        let cap = ugache::apps::dlr::dlr_cache_capacity(&plat, w.dataset());
        let accesses = w.clone().measure_accesses_per_iter(1);
        let sys = build_system(
            SystemKind::UGache,
            &plat,
            &hotness,
            cap,
            entry_bytes,
            accesses,
            6,
        )
        .unwrap();
        cases.push((format!("DLRM/{}", ds.name()), sys, w.next_batch()));
    }

    for (label, sys, keys) in cases {
        let remote_keys = strip_local(&sys.placement, &keys);
        let (p0, n0) = measure(&sys.under(SystemKind::PartU, 6), &remote_keys);
        let (p1, n1) = measure(&sys, &remote_keys);
        out.push(Util {
            workload: label,
            pcie_naive: p0,
            pcie_fem: p1,
            nvlink_naive: n0,
            nvlink_fem: n1,
        });
    }
    out
}

/// Prints Figure 13 from precomputed utilizations.
pub fn render(utils: &[Util]) {
    header("Figure 13: link utilization w/ and w/o FEM (Server C, local hits removed)");
    println!(
        "{:<12} {:>11} {:>10} {:>13} {:>12}",
        "workload", "PCIe w/o", "PCIe w/", "NVLink w/o", "NVLink w/"
    );
    for u in utils {
        println!(
            "{:<12} {:>10.1}% {:>9.1}% {:>12.1}% {:>11.1}%",
            u.workload,
            u.pcie_naive * 100.0,
            u.pcie_fem * 100.0,
            u.nvlink_naive * 100.0,
            u.nvlink_fem * 100.0
        );
    }
}
