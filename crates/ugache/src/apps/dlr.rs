//! End-to-end DLR inference iterations (Figure 10, right).

use crate::apps::cost::{DlrModel, MlpCostModel};
use crate::baselines::SystemInstance;
use emb_workload::{BatchSource, DlrDataset};
use gpu_platform::Platform;

/// End-to-end numbers for DLR inference.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrIterationReport {
    /// System under test.
    pub system: String,
    /// Mean embedding-extraction seconds per iteration.
    pub extract_secs: f64,
    /// Dense (MLP/Cross) seconds per iteration.
    pub mlp_secs: f64,
    /// Mean end-to-end iteration seconds.
    pub iteration_secs: f64,
    /// Mean unique keys per GPU per iteration.
    pub keys_per_iter: f64,
}

/// Cache capacity (entries per GPU) for DLR on a scaled platform: 60 % of
/// the scale-divided HBM (no graph shard; inference workspaces are small).
pub fn dlr_cache_capacity(platform: &Platform, dataset: &DlrDataset) -> usize {
    let mem = platform.gpus[0].mem_bytes / dataset.scale_div as u64;
    ((mem as f64 * 0.6) as u64 / dataset.entry_bytes as u64) as usize
}

/// Measures a built system's mean per-iteration time over `iters`
/// batches of `source`, once, and prices each of `models` from the same
/// means: one report per model, in order (the model only moves the dense
/// part).
pub fn run_dlr_iterations(
    system: &SystemInstance,
    source: &mut impl BatchSource,
    models: &[DlrModel],
    batch_size: usize,
    iters: usize,
) -> Vec<DlrIterationReport> {
    let gpu = &system.extractor.platform().gpus[0];
    let (extract_secs, keys_per_iter) = system.mean_extract(source, iters);
    let price = |&model| {
        let mlp_secs = MlpCostModel::default().dlr_infer_secs(gpu, batch_size, model);
        DlrIterationReport {
            system: system.kind.name().to_string(),
            extract_secs,
            mlp_secs,
            iteration_secs: extract_secs + mlp_secs,
            keys_per_iter,
        }
    };
    models.iter().map(price).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{build_system, SystemKind};
    use cache_policy::Hotness;
    use emb_workload::dlr::DlrHotness;
    use emb_workload::{dlr_preset, DlrDatasetId, DlrWorkload};

    fn setup(platform: &Platform, id: DlrDatasetId) -> (DlrWorkload, Hotness) {
        let d = dlr_preset(id, 8192);
        let mut w = DlrWorkload::new(d, 256, platform.num_gpus(), 13);
        let h = w.hotness(DlrHotness::Analytic);
        (w, h)
    }

    /// Builds `kind` at the DLR capacity and measures two iterations on a
    /// clone of `w`, priced for both models.
    fn run(
        kind: SystemKind,
        plat: &Platform,
        w: &DlrWorkload,
        h: &Hotness,
    ) -> Vec<DlrIterationReport> {
        let d = w.dataset();
        let cap = dlr_cache_capacity(plat, d);
        let accesses = w.clone().measure_accesses_per_iter(2);
        let system = build_system(kind, plat, h, cap, d.entry_bytes, accesses, 0xD7).unwrap();
        run_dlr_iterations(&system, &mut w.clone(), &DlrModel::ALL, 256, 2)
    }

    #[test]
    fn report_is_consistent() {
        let plat = Platform::server_a();
        let (w, h) = setup(&plat, DlrDatasetId::SynA);
        for r in run(SystemKind::UGache, &plat, &w, &h) {
            assert!(r.extract_secs > 0.0);
            assert!((r.iteration_secs - (r.extract_secs + r.mlp_secs)).abs() < 1e-12);
        }
    }

    #[test]
    fn ugache_beats_hps_and_sok() {
        let plat = Platform::server_a();
        let (w, h) = setup(&plat, DlrDatasetId::SynA);
        let dlrm = |kind| run(kind, &plat, &w, &h)[0].iteration_secs;
        let u = dlrm(SystemKind::UGache);
        let hps = dlrm(SystemKind::Hps);
        let sok = dlrm(SystemKind::Sok);
        assert!(u <= hps * 1.02, "UGache {u} vs HPS {hps}");
        assert!(u <= sok * 1.02, "UGache {u} vs SOK {sok}");
    }

    #[test]
    fn higher_skew_shifts_the_balance_toward_replication() {
        // Paper §8.2: with higher skewness, SOK's partition cache loses
        // ground to HPS's replication cache. At reproduction scale the
        // robust form of that claim is the *ratio* SOK/HPS growing with
        // skew from SYN-A (α=1.2) to SYN-B (α=1.4).
        let plat = Platform::server_a();
        let ratio = |id| {
            let (w, h) = setup(&plat, id);
            let extract = |kind| run(kind, &plat, &w, &h)[0].extract_secs;
            extract(SystemKind::Sok) / extract(SystemKind::Hps)
        };
        let a = ratio(DlrDatasetId::SynA);
        let b = ratio(DlrDatasetId::SynB);
        assert!(b > a, "SOK/HPS ratio should grow with skew: {a} -> {b}");
    }

    #[test]
    fn dcn_iteration_is_slower_than_dlrm() {
        let plat = Platform::server_a();
        let (w, h) = setup(&plat, DlrDatasetId::SynA);
        let reports = run(SystemKind::UGache, &plat, &w, &h);
        let [dlrm, dcn] = reports.as_slice() else {
            panic!("one report per model");
        };
        assert!(dcn.mlp_secs > dlrm.mlp_secs);
        assert_eq!(dcn.extract_secs, dlrm.extract_secs);
        assert_eq!(dcn.keys_per_iter, dlrm.keys_per_iter);
    }
}
