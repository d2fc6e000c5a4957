//! Cross-crate integration tests: the full pipeline from workload
//! generation through policy solving, cache filling, functional gathers
//! and timed extraction.

use cache_policy::Hotness;
use emb_cache::HostTable;
use emb_util::zipf::powerlaw_hotness;
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use gpu_platform::{home_gpu, Location, Platform};
use ugache::baselines::{build_system, SystemKind};
use ugache::{UGache, UGacheConfig};

const DIM: usize = 16;

fn small_ugache(platform: Platform, n: usize, cap: usize) -> UGache {
    let host = HostTable::procedural(n, DIM);
    let hotness = Hotness::new(powerlaw_hotness(n, 1.2));
    let g = platform.num_gpus();
    let mut cfg = UGacheConfig::new(DIM * 4, 1_000.0);
    cfg.solver.blocks.max_blocks = 48;
    // Tests want exact hotness tracking, not sampled.
    cfg.sample_stride = 1;
    UGache::build(platform, host, &hotness, vec![cap; g], cfg).expect("build")
}

#[test]
fn gather_is_correct_on_every_platform_and_gpu() {
    let n = 3_000;
    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        let g = platform.num_gpus();
        let mut u = small_ugache(platform, n, 300);
        let truth = HostTable::procedural(n, DIM);
        let keys: Vec<u32> = (0..n as u32).step_by(37).collect();
        let mut out = vec![0.0f32; keys.len() * DIM];
        for gpu in 0..g {
            let stats = u.gather(gpu, &keys, &mut out);
            assert_eq!(stats.total(), keys.len() as u64);
            for (k, &key) in keys.iter().enumerate() {
                assert_eq!(
                    &out[k * DIM..(k + 1) * DIM],
                    truth.read(key).as_slice(),
                    "gpu {gpu} key {key}"
                );
            }
        }
    }
}

#[test]
fn gnn_pipeline_runs_end_to_end() {
    let plat = Platform::server_a();
    let dataset = gnn_preset(GnnDatasetId::Pa, 8192, 3);
    let n = dataset.num_entries();
    let mut w = GnnWorkload::new(dataset, GnnModel::GraphSageSupervised, 128, 4, 3);
    let hotness = w.profile_hotness(2);
    assert_eq!(hotness.len(), n);

    let sys = build_system(SystemKind::UGache, &plat, &hotness, n / 20, 512, 2_000.0, 1)
        .expect("ugache builds");
    sys.placement.validate().expect("valid placement");
    let keys = w.next_batch();
    let out = sys.extract(&keys);
    assert!(out.makespan.as_nanos() > 0);
    // Byte accounting: extraction must move exactly the batch volume.
    for (gpu, ks) in keys.iter().enumerate() {
        let moved: f64 = out.per_gpu[gpu].per_src.iter().map(|u| u.bytes).sum();
        assert!(
            (moved - ks.len() as f64 * 512.0).abs() < 1.0,
            "gpu {gpu}: moved {moved} for {} keys",
            ks.len()
        );
    }
}

#[test]
fn dlr_pipeline_runs_end_to_end_on_all_servers() {
    for plat in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        let dataset = dlr_preset(DlrDatasetId::SynB, 65_536);
        let mut w = DlrWorkload::new(dataset.clone(), 128, plat.num_gpus(), 5);
        let hotness = w.hotness(DlrHotness::Analytic);
        for kind in [SystemKind::UGache, SystemKind::Hps, SystemKind::Sok] {
            let sys = build_system(
                kind,
                &plat,
                &hotness,
                dataset.num_entries() / 16,
                dataset.entry_bytes,
                500.0,
                2,
            )
            .unwrap_or_else(|e| panic!("{} on {}: {e}", kind.name(), plat.name));
            sys.placement.validate().unwrap();
            let keys = w.next_batch();
            assert!(sys.extract(&keys).makespan.as_nanos() > 0);
        }
    }
}

#[test]
fn ugache_is_never_worse_than_both_baselines_together() {
    // The paper's headline: UGache spans the replication/partition
    // trade-off, so it should match or beat min(replication, partition)
    // across skews and capacities (small tolerance for realization).
    let plat = Platform::server_c();
    let n = 30_000;
    for alpha in [1.05, 1.2, 1.4] {
        for cap in [n / 100, n / 20, n / 4] {
            let hotness = Hotness::new(powerlaw_hotness(n, alpha));
            let zipf = emb_util::ZipfSampler::new(n as u64, alpha);
            let mut rng = emb_util::seed_rng(9);
            let keys: Vec<Vec<u32>> = (0..8)
                .map(|_| {
                    let mut v: Vec<u32> =
                        (0..10_000).map(|_| zipf.sample(&mut rng) as u32).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let accesses = keys[0].len() as f64;
            let t = |kind: SystemKind| {
                build_system(kind, &plat, &hotness, cap, 512, accesses, 3)
                    .unwrap()
                    .extract(&keys)
                    .makespan
                    .as_secs_f64()
            };
            let u = t(SystemKind::UGache);
            let best_baseline = t(SystemKind::RepU).min(t(SystemKind::PartU));
            // 15% slack: block-granularity realization plus single-batch
            // measurement noise.
            assert!(
                u <= best_baseline * 1.15,
                "alpha {alpha} cap {cap}: UGache {u} vs best baseline {best_baseline}"
            );
        }
    }
}

#[test]
fn served_keys_are_read_where_they_are_served() {
    // `emb-serve`'s shape on Server A: a power-law table, a cache an
    // eighth of it per GPU, and small batches whose keys go to their
    // `home_gpu`. The solver deals the keys it partitions by key, so
    // every cached key is read by the GPU that serves it, and UGache
    // keeps up with PartU, whose rank-`r` key (key `r` here) lives on
    // GPU `r % G` too.
    let plat = Platform::server_a();
    let g = plat.num_gpus();
    let (n, alpha, dim, draws, batches) = (100_000, 1.2, 32, 512, 64);
    let cap = n / 8;
    let hotness = Hotness::new(powerlaw_hotness(n, alpha));
    let accesses = draws as f64 * 0.7;
    let mut cfg = UGacheConfig::new(dim * 4, accesses);
    cfg.solver.blocks.max_blocks = 32;
    cfg.solver.blocks.min_splits = g;
    let mut u = UGache::build(
        plat.clone(),
        HostTable::procedural(n, dim),
        &hotness,
        vec![cap; g],
        cfg,
    )
    .expect("build");
    let part_u = build_system(
        SystemKind::PartU,
        &plat,
        &hotness,
        cap,
        dim * 4,
        accesses,
        1,
    )
    .expect("PartU");

    let zipf = emb_util::ZipfSampler::new(n as u64, alpha);
    let mut rng = emb_util::seed_rng(26);
    let (mut ugache_secs, mut part_u_secs) = (0.0, 0.0);
    for _ in 0..batches {
        let mut shards = vec![Vec::new(); g];
        for _ in 0..draws {
            let key = zipf.sample(&mut rng) as u32;
            shards[home_gpu(key as usize, g)].push(key);
        }
        for shard in &mut shards {
            shard.sort_unstable();
            shard.dedup();
        }
        let out = u.process_iteration(&shards).extract;
        for per_gpu in &out.per_gpu {
            for use_ in &per_gpu.per_src {
                if let Location::Gpu(src) = use_.src {
                    assert!(
                        src == per_gpu.gpu || use_.bytes == 0.0,
                        "GPU{} read {} bytes from GPU{src}",
                        per_gpu.gpu,
                        use_.bytes
                    );
                }
            }
        }
        ugache_secs += out.makespan.as_secs_f64();
        part_u_secs += part_u.extract(&shards).makespan.as_secs_f64();
    }
    assert!(
        ugache_secs <= part_u_secs * 1.001,
        "UGache {ugache_secs} s vs PartU {part_u_secs} s over {batches} batches"
    );
}

#[test]
fn refresh_cycle_preserves_correctness() {
    let n = 2_000;
    let mut u = small_ugache(Platform::server_a(), n, 200);
    let truth = HostTable::procedural(n, DIM);

    // Shift the workload to the cold end, then force a refresh.
    let keys: Vec<Vec<u32>> = (0..4)
        .map(|_| ((n - 500) as u32..n as u32).collect())
        .collect();
    for _ in 0..5 {
        u.process_iteration(&keys);
    }
    assert!(u.consider_refresh(true).unwrap());
    // Gathers stay correct while the refresh is migrating content.
    let probe: Vec<u32> = (0..n as u32).step_by(101).collect();
    let mut out = vec![0.0f32; probe.len() * DIM];
    while u.refresh_active() {
        let stats = u.gather(1, &probe, &mut out);
        assert_eq!(stats.total(), probe.len() as u64);
        for (k, &key) in probe.iter().enumerate() {
            assert_eq!(&out[k * DIM..(k + 1) * DIM], truth.read(key).as_slice());
        }
        u.advance_clock(1.0);
    }
    // After refresh, the new hot range should be better cached.
    let (l, r, _h) = u.placement().access_split(
        0,
        &Hotness::new({
            let mut w = vec![0.0; n];
            for e in (n - 500)..n {
                w[e] = 1.0;
            }
            w
        }),
    );
    assert!(l + r > 0.5, "hot range cached only {:.2}", l + r);
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let plat = Platform::server_b();
        let mut u = small_ugache(plat, 2_000, 150);
        let keys: Vec<Vec<u32>> = (0..8)
            .map(|g| (g as u32 * 10..g as u32 * 10 + 700).collect())
            .collect();
        u.process_iteration(&keys).extract.makespan
    };
    assert_eq!(run(), run());
}
