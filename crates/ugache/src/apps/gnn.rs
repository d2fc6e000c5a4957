//! End-to-end GNN training epochs (Figure 10, left).

use crate::apps::cost::{MlpCostModel, SamplingCostModel};
use crate::baselines::{SystemInstance, SystemKind};
use emb_workload::{BatchSource, GnnDataset, GnnWorkload};
use gpu_platform::Platform;

/// App-level configuration for GNN epoch runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnnAppConfig {
    /// Seeds per GPU per iteration (paper default 8K at full scale).
    pub batch_size: usize,
    /// Iterations actually simulated; the epoch extrapolates from their
    /// mean (the workload is stationary within an epoch).
    pub measure_iters: usize,
    /// Dense cost model.
    pub mlp: MlpCostModel,
    /// Sampling cost model.
    pub sampling: SamplingCostModel,
}

impl Default for GnnAppConfig {
    fn default() -> Self {
        GnnAppConfig {
            batch_size: 1024,
            measure_iters: 3,
            mlp: MlpCostModel::default(),
            sampling: SamplingCostModel::default(),
        }
    }
}

/// End-to-end breakdown of one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// System under test.
    pub system: String,
    /// Iterations per epoch (accounting for GNNLab's reduced trainers).
    pub iters: usize,
    /// Embedding-extraction seconds per epoch.
    pub extract_secs: f64,
    /// Neighbourhood-sampling seconds per epoch (overlapped portions
    /// excluded from `epoch_secs` where the system overlaps them).
    pub sample_secs: f64,
    /// Dense-layer training seconds per epoch.
    pub train_secs: f64,
    /// Queue/transfer overheads per epoch (GNNLab's host queues).
    pub other_secs: f64,
    /// End-to-end epoch seconds.
    pub epoch_secs: f64,
    /// Mean unique keys per GPU per iteration (diagnostic).
    pub keys_per_iter: f64,
    /// Mean per-iteration extraction seconds (diagnostic).
    pub extract_per_iter_secs: f64,
}

/// Cache capacity (entries per GPU) available to `kind` on `platform`
/// for `dataset`, using the scaled memory budget described in
/// `DESIGN.md`: GPU memory is divided by the dataset's scale divisor,
/// 60 % of it is usable for caching, and systems that keep the graph
/// topology on the GPUs (WholeGraph lineage, including UGache, which
/// reuses WholeGraph's sampler) subtract a `1/G` graph shard. GNNLab's
/// trainers hold no graph — that is precisely its capacity advantage.
pub fn gnn_cache_capacity(platform: &Platform, dataset: &GnnDataset, kind: SystemKind) -> usize {
    let g = platform.num_gpus() as u64;
    let mem = platform.gpus[0].mem_bytes / dataset.scale_div as u64;
    let usable = (mem as f64 * 0.6) as u64;
    let graph_share = match kind {
        SystemKind::GnnLab => 0,
        _ => dataset.graph.topology_bytes() / g,
    };
    (usable.saturating_sub(graph_share) / dataset.entry_bytes as u64) as usize
}

/// Expected pre-dedup vertex visits per GPU per iteration (sampling cost
/// driver): `batch × (1 + f₁ + f₁f₂ + …)`, doubled for negative seeds.
fn expected_visits(workload: &GnnWorkload, batch_size: usize) -> f64 {
    let sampler = workload.model().sampler();
    let mut per_seed = 1.0;
    let mut frontier = 1.0;
    for &f in &sampler.fanouts {
        frontier *= f as f64;
        per_seed += frontier;
    }
    let negs = 1.0 + sampler.negatives_per_seed as f64;
    batch_size as f64 * per_seed * negs
}

/// Runs (a sampled estimate of) one training epoch on a built system
/// (sized by [`gnn_cache_capacity`] for `system.kind`): `source` gives the
/// measured batches, `workload` the dataset and model they come from.
pub fn run_gnn_epoch(
    system: &SystemInstance,
    workload: &GnnWorkload,
    source: &mut impl BatchSource,
    cfg: &GnnAppConfig,
) -> EpochReport {
    let kind = system.kind;
    let platform = system.extractor.platform();
    let g = platform.num_gpus();
    let (extract_per_iter, keys_per_iter) = system.mean_extract(source, cfg.measure_iters);
    let dataset = workload.dataset();

    let visits = expected_visits(workload, cfg.batch_size);
    let sample_per_iter = cfg.sampling.sample_secs(visits);
    let train_per_iter = cfg.mlp.gnn_train_secs(
        &platform.gpus[0],
        keys_per_iter as usize,
        dataset.dim,
        workload.model().mlp_layers(),
    );

    let train_set = dataset.train_set.len();
    // GNNLab dedicates `⌈G/4⌉` GPUs to sampling and keeps at least one
    // trainer; on one GPU there is none to spare, and it samples co-located.
    let samplers = match kind {
        SystemKind::GnnLab => g.div_ceil(4).min(g - 1),
        _ => 0,
    };
    let (iters, iter_secs, sample_epoch, other_epoch) = match samplers {
        0 => {
            // Co-located sampling: sample → extract → train per iteration.
            let iters = train_set.div_ceil(cfg.batch_size * g).max(1);
            let it = sample_per_iter + extract_per_iter + train_per_iter;
            (iters, it, sample_per_iter * iters as f64, 0.0)
        }
        _ => {
            // Dedicated sampler GPUs overlap sampling with training but
            // shrink the trainer pool and add host-queue transfers.
            let trainers = g - samplers;
            let iters = train_set.div_ceil(cfg.batch_size * trainers).max(1);
            // Samplers produce `trainers` batches per iteration.
            let sample_rate = sample_per_iter * trainers as f64 / samplers as f64;
            // Queue transfer: sampled subgraphs (ids + offsets ≈ 8 B per
            // visit) cross host memory between sampler and trainer.
            let queue = visits * 8.0 / platform.gpus[0].pcie_bw;
            let compute = extract_per_iter + train_per_iter + queue;
            (
                iters,
                compute.max(sample_rate),
                sample_rate * iters as f64,
                queue * iters as f64,
            )
        }
    };

    EpochReport {
        system: kind.name().to_string(),
        iters,
        extract_secs: extract_per_iter * iters as f64,
        sample_secs: sample_epoch,
        train_secs: train_per_iter * iters as f64,
        other_secs: other_epoch,
        epoch_secs: iter_secs * iters as f64,
        keys_per_iter,
        extract_per_iter_secs: extract_per_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::build_system;
    use cache_policy::Hotness;
    use emb_workload::{gnn_preset, GnnDatasetId, GnnModel};
    use gpu_platform::{GpuSpec, Platform};

    fn setup(platform: &Platform) -> (GnnWorkload, Hotness) {
        let d = gnn_preset(GnnDatasetId::Pa, 2048, 3);
        let mut w = GnnWorkload::new(
            d,
            GnnModel::GraphSageSupervised,
            512,
            platform.num_gpus(),
            5,
        );
        let h = w.profile_hotness(2);
        (w, h)
    }

    /// Builds `kind` at its capacity and runs one epoch on a clone of `w`.
    fn run(kind: SystemKind, plat: &Platform, w: &GnnWorkload, h: &Hotness) -> EpochReport {
        let d = w.dataset();
        let cap = gnn_cache_capacity(plat, d, kind);
        let accesses = w.clone().measure_accesses_per_iter(2);
        let system = build_system(kind, plat, h, cap, d.entry_bytes, accesses, 0xE9).unwrap();
        run_gnn_epoch(&system, w, &mut w.clone(), &cfg())
    }

    fn cfg() -> GnnAppConfig {
        GnnAppConfig {
            batch_size: 512,
            measure_iters: 2,
            ..Default::default()
        }
    }

    #[test]
    fn epoch_report_is_consistent() {
        let plat = Platform::server_a();
        let (w, h) = setup(&plat);
        let r = run(SystemKind::UGache, &plat, &w, &h);
        assert!(r.epoch_secs > 0.0);
        assert!(r.iters >= 1);
        assert!(r.extract_secs > 0.0);
        assert!(r.epoch_secs >= r.extract_secs * 0.99);
    }

    #[test]
    fn ugache_beats_baselines_on_server_a() {
        let plat = Platform::server_a();
        let (w, h) = setup(&plat);
        let u = run(SystemKind::UGache, &plat, &w, &h);
        let gl = run(SystemKind::GnnLab, &plat, &w, &h);
        let pu = run(SystemKind::PartU, &plat, &w, &h);
        assert!(
            u.epoch_secs <= gl.epoch_secs * 1.05,
            "UGache {} vs GNNLab {}",
            u.epoch_secs,
            gl.epoch_secs
        );
        assert!(
            u.epoch_secs <= pu.epoch_secs * 1.05,
            "UGache {} vs PartU {}",
            u.epoch_secs,
            pu.epoch_secs
        );
    }

    #[test]
    fn gnnlab_has_capacity_advantage_but_queue_cost() {
        let plat = Platform::server_a();
        let d = gnn_preset(GnnDatasetId::Pa, 2048, 3);
        let cap_gnnlab = gnn_cache_capacity(&plat, &d, SystemKind::GnnLab);
        let cap_wg = gnn_cache_capacity(&plat, &d, SystemKind::WholeGraph);
        assert!(cap_gnnlab > cap_wg);
        let (w, h) = setup(&plat);
        let r = run(SystemKind::GnnLab, &plat, &w, &h);
        assert!(r.other_secs > 0.0, "GNNLab must pay queue overhead");
    }

    #[test]
    fn gnnlab_on_one_gpu_samples_co_located() {
        let plat = Platform::single(GpuSpec::a100(80), 1 << 40);
        let (w, h) = setup(&plat);
        let d = w.dataset();
        let cap = gnn_cache_capacity(&plat, d, SystemKind::GnnLab);
        let accesses = w.clone().measure_accesses_per_iter(2);
        let mut system = build_system(
            SystemKind::GnnLab,
            &plat,
            &h,
            cap,
            d.entry_bytes,
            accesses,
            0xE9,
        )
        .unwrap();
        let gnnlab = run_gnn_epoch(&system, &w, &mut w.clone(), &cfg());
        assert!(gnnlab.epoch_secs.is_finite(), "{}", gnnlab.epoch_secs);
        // The same system read as a co-located row: GNNLab's placement
        // and mechanism, WholeGraph's name.
        system.kind = SystemKind::WholeGraph;
        let co_located = run_gnn_epoch(&system, &w, &mut w.clone(), &cfg());
        assert_eq!(
            EpochReport {
                system: co_located.system.clone(),
                ..gnnlab
            },
            co_located
        );
    }

    #[test]
    fn unsupervised_epoch_is_heavier_than_supervised() {
        let plat = Platform::server_a();
        let d = gnn_preset(GnnDatasetId::Pa, 2048, 3);
        let mk = |model| {
            let mut w = GnnWorkload::new(d.clone(), model, 512, 4, 5);
            let h = w.profile_hotness(2);
            run(SystemKind::UGache, &plat, &w, &h)
        };
        let sup = mk(GnnModel::GraphSageSupervised);
        let unsup = mk(GnnModel::GraphSageUnsupervised);
        assert!(unsup.extract_per_iter_secs > sup.extract_per_iter_secs);
    }
}
