//! GNN training end-to-end: compare UGache against GNNLab-style
//! replication and WholeGraph-style partition caches on all three paper
//! testbeds, supervised GraphSAGE over the scaled Papers100M preset.
//!
//! Run with: `cargo run --release --example gnn_training`

use emb_workload::{gnn_preset, GnnDatasetId, GnnModel, GnnWorkload};
use gpu_platform::Platform;
use ugache::apps::gnn::{gnn_cache_capacity, run_gnn_epoch};
use ugache::apps::GnnAppConfig;
use ugache::baselines::{build_system, SystemKind};

fn main() {
    let scale = 4096;
    let cfg = GnnAppConfig {
        batch_size: 512,
        measure_iters: 2,
        ..Default::default()
    };

    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        println!("\n--- {} ---", platform.name);
        let dataset = gnn_preset(GnnDatasetId::Pa, scale, 1);
        let mut workload = GnnWorkload::new(
            dataset,
            GnnModel::GraphSageSupervised,
            cfg.batch_size,
            platform.num_gpus(),
            1,
        );
        // Pre-sampling hotness, GNNLab-style (paper §6.1).
        let hotness = workload.profile_hotness(2);

        for kind in [
            SystemKind::GnnLab,
            SystemKind::WholeGraph,
            SystemKind::PartU,
            SystemKind::UGache,
        ] {
            let dataset = workload.dataset();
            let cap = gnn_cache_capacity(&platform, dataset, kind);
            // A few iterations' key volume scales the solver.
            let accesses = workload.clone().measure_accesses_per_iter(2);
            let built = build_system(
                kind,
                &platform,
                &hotness,
                cap,
                dataset.entry_bytes,
                accesses,
                0xE9,
            );
            match built.map(|system| run_gnn_epoch(&system, &workload, &mut workload.clone(), &cfg)) {
                Ok(r) => println!(
                    "{:<11} epoch {:>8.3}s  (extract {:>7.3}s, sample {:>7.3}s, train {:>7.3}s, other {:>6.3}s; {} iters)",
                    r.system, r.epoch_secs, r.extract_secs, r.sample_secs, r.train_secs, r.other_secs, r.iters
                ),
                Err(e) => println!("{:<11} cannot launch: {e}", kind.name()),
            }
        }
    }
}
