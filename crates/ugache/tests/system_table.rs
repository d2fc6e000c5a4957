//! Pins the seam of `ugache::baselines`: the module table read as an
//! API gives, cell for cell and bit for bit, what assembling the parts
//! by hand gave before the table was the API.
//!
//! The hand assembly is written out here on purpose — the policy per
//! kind, the mechanism and overhead per kind, `Extractor::new` +
//! `extract` + the multiply-every-time loop, the per-key tier count, the
//! draw-extract-sum-divide loop — so a change to either column, to
//! `under`, to `tier_keys` or to `mean_extract` has something to
//! disagree with.

use cache_policy::{baselines as policies, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_telemetry::Report;
use emb_util::zipf::powerlaw_hotness;
use emb_util::{seed_rng, ZipfSampler};
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use extractor::{ExtractOutcome, Extractor, Mechanism};
use gpu_memsim::SimConfig;
use gpu_platform::{DedicationConfig, Platform};
use ugache::baselines::{build_system, SystemInstance, SystemKind};

const N: usize = 12_000;
const BYTES: usize = 256;
const ACCESSES: f64 = 8e3;
const SEED: u64 = 11;

fn servers() -> [Platform; 3] {
    [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ]
}

fn hotness() -> Hotness {
    Hotness::new(powerlaw_hotness(N, 1.2))
}

/// One sorted, deduplicated Zipf batch per GPU.
fn batches(g: usize, per_gpu: usize) -> Vec<Vec<u32>> {
    let zipf = ZipfSampler::new(N as u64, 1.2);
    (0..g)
        .map(|i| {
            let mut rng = seed_rng(77 + i as u64);
            let mut v: Vec<u32> = (0..per_gpu).map(|_| zipf.sample(&mut rng) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

/// The policy column as `build_system` spelled it before `place`.
fn placement_by_hand(
    kind: SystemKind,
    platform: &Platform,
    hotness: &Hotness,
    cap: usize,
) -> Result<Placement, String> {
    let g = platform.num_gpus();
    let partition_or_cliques = || {
        policies::partition(platform, hotness, cap)
            .unwrap_or_else(|_| policies::clique_partition(platform, hotness, cap))
    };
    Ok(match kind {
        SystemKind::UGache => {
            let solver = UGacheSolver::new(platform.clone(), DedicationConfig::default());
            let mut cfg = SolverConfig::new(BYTES, ACCESSES);
            cfg.dedup_adjust = true;
            solver.solve(hotness, &vec![cap; g], &cfg)?.placement
        }
        SystemKind::GnnLab | SystemKind::RepU | SystemKind::Hps => {
            policies::replication(platform, hotness, cap)
        }
        SystemKind::WholeGraph => {
            if g * cap < hotness.len() {
                return Err(format!(
                    "WholeGraph cannot launch: total GPU cache ({}) below embedding count ({})",
                    g * cap,
                    hotness.len()
                ));
            }
            policies::partition(platform, hotness, cap)
                .map_err(|err| format!("WholeGraph cannot launch: {err}"))?
        }
        SystemKind::PartU | SystemKind::Sok => partition_or_cliques(),
        SystemKind::Quiver => policies::clique_partition(platform, hotness, cap),
    })
}

/// The mechanism and overhead columns, likewise.
fn mechanism_by_hand(kind: SystemKind, seed: u64) -> (Mechanism, f64) {
    match kind {
        SystemKind::UGache => (
            Mechanism::Factored {
                dedication: DedicationConfig::default(),
            },
            1.0,
        ),
        SystemKind::Sok => (Mechanism::MessageBased, 1.0),
        SystemKind::Hps => (Mechanism::PeerNaive { seed }, 1.20),
        _ => (Mechanism::PeerNaive { seed }, 1.0),
    }
}

/// `Extractor::new` + `extract` + the overhead loop, as five figures and
/// `SystemInstance::extract` each wrote it.
fn extract_by_hand(
    platform: &Platform,
    placement: &Placement,
    (mechanism, overhead): (Mechanism, f64),
    keys: &[Vec<u32>],
) -> ExtractOutcome {
    let mut out = Extractor::new(platform.clone(), SimConfig::default(), mechanism)
        .extract(placement, keys, BYTES);
    if overhead > 1.0 {
        out.makespan = out.makespan.mul_f64(overhead);
        for g in out.per_gpu.iter_mut() {
            g.time = g.time.mul_f64(overhead);
        }
    }
    out
}

#[test]
fn build_system_is_place_then_new_on_every_server() {
    let h = hotness();
    for platform in servers() {
        for kind in SystemKind::ALL {
            // WholeGraph needs the whole table on the GPUs to launch; the
            // others get a cache a tenth of that.
            let cap = match kind {
                SystemKind::WholeGraph => N / platform.num_gpus() + 1,
                _ => N / 10,
            };
            let built = build_system(kind, &platform, &h, cap, BYTES, ACCESSES, SEED);
            let by_hand = placement_by_hand(kind, &platform, &h, cap);
            let placed = kind.place(&platform, &h, cap, BYTES, ACCESSES);
            assert_eq!(placed, by_hand, "{} on {}", kind.name(), platform.name);
            let (built, placement) = match (built, placed) {
                (Ok(built), Ok(placement)) => (built, placement),
                (Err(built), Err(placed)) => {
                    assert_eq!(built, placed);
                    assert_eq!(kind, SystemKind::WholeGraph);
                    assert!(built.contains("cannot launch"), "{built}");
                    continue;
                }
                (built, placed) => panic!("{built:?} vs {placed:?}"),
            };
            let composed = SystemInstance::new(kind, &platform, placement, BYTES, SEED);
            assert_eq!(built.kind, kind);
            assert_eq!(built.kind, composed.kind);
            assert_eq!(built.placement, composed.placement);
            assert_eq!(built.entry_bytes, composed.entry_bytes);
            assert_eq!(built.overhead_factor, composed.overhead_factor);
            assert_eq!(built.extractor.mechanism(), composed.extractor.mechanism());
            assert_eq!(built.extractor.platform(), &platform);
            assert_eq!(composed.extractor.platform(), &platform);
            assert_eq!(
                (built.extractor.mechanism(), built.overhead_factor),
                mechanism_by_hand(kind, SEED),
                "{}",
                kind.name()
            );
            assert_eq!(kind.mechanism(SEED), mechanism_by_hand(kind, SEED));
        }
    }
}

#[test]
fn wholegraph_fails_to_launch_with_the_same_words() {
    let h = hotness();
    // ① total GPU memory below the embedding volume; ② unconnected pairs
    // (Server B), memory or not.
    for (platform, cap, words) in [
        (Platform::server_c(), 100, "below embedding count (12000)"),
        (Platform::server_b(), N, "WholeGraph cannot launch: "),
    ] {
        let kind = SystemKind::WholeGraph;
        let built = build_system(kind, &platform, &h, cap, BYTES, ACCESSES, SEED).unwrap_err();
        let placed = kind.place(&platform, &h, cap, BYTES, ACCESSES).unwrap_err();
        let by_hand = placement_by_hand(kind, &platform, &h, cap).unwrap_err();
        assert_eq!(built, placed);
        assert_eq!(built, by_hand);
        assert!(built.contains(words), "{built}");
    }
}

#[test]
fn under_reads_the_same_placement_through_the_other_mechanism_bit_for_bit() {
    let h = hotness();
    for platform in servers() {
        let keys = batches(platform.num_gpus(), 3_000);
        for owner in [SystemKind::UGache, SystemKind::RepU, SystemKind::Sok] {
            let sys = build_system(owner, &platform, &h, N / 10, BYTES, ACCESSES, SEED).unwrap();
            // Factored, naive peer with and without overhead, message-based.
            for reader in [
                SystemKind::UGache,
                SystemKind::PartU,
                SystemKind::Hps,
                SystemKind::Sok,
            ] {
                let seed = SEED + 1;
                let cell = sys.under(reader, seed);
                assert_eq!(cell.placement, sys.placement);
                assert_eq!(cell.kind, reader);
                let (got, got_report): (_, Report) = emb_telemetry::collect(|| cell.extract(&keys));
                let (want, want_report) = emb_telemetry::collect(|| {
                    extract_by_hand(
                        &platform,
                        &sys.placement,
                        mechanism_by_hand(reader, seed),
                        &keys,
                    )
                });
                let what = format!(
                    "{} under {} on {}",
                    owner.name(),
                    reader.name(),
                    platform.name
                );
                assert_eq!(got, want, "{what}");
                assert_eq!(got_report, want_report, "{what}");
                assert_eq!(
                    cell.extract_ms(&keys),
                    want.makespan.as_secs_f64() * 1e3,
                    "{what}"
                );
            }
            // The diagonal: a system under its own kind is itself.
            assert_eq!(
                sys.under(owner, SEED).extract(&keys),
                sys.extract(&keys),
                "{} under itself",
                owner.name()
            );
        }
    }
}

/// `[local, remote, host]` counted one key at a time.
fn tiers_by_hand(placement: &Placement, keys_per_gpu: &[Vec<u32>]) -> [u64; 3] {
    let mut tiers = [0u64; 3];
    for (gpu, keys) in keys_per_gpu.iter().enumerate() {
        for &k in keys {
            let src = placement.source(gpu, k as usize);
            let tier = if src == placement.host_idx() {
                2
            } else if src as usize == gpu {
                0
            } else {
                1
            };
            tiers[tier] += 1;
        }
    }
    tiers
}

#[test]
fn tier_keys_is_the_per_key_count() {
    let h = hotness();
    for platform in servers() {
        let g = platform.num_gpus();
        let zipf = batches(g, 3_000);
        // Duplicate-heavy and unsorted: every GPU asks for the same few
        // keys over and over, and for the coldest ones.
        let dupes: Vec<Vec<u32>> = (0..g)
            .map(|i| {
                (0..2_000u32)
                    .map(|k| {
                        if k % 3 == 0 {
                            N as u32 - 1 - k % 7
                        } else {
                            (k + i as u32) % 5
                        }
                    })
                    .collect()
            })
            .collect();
        let empty = vec![Vec::new(); g];
        let mut lopsided = empty.clone();
        lopsided[g - 1] = zipf[0].clone();
        let all_host = Placement::all_host(g, N);
        for kind in [SystemKind::UGache, SystemKind::PartU, SystemKind::RepU] {
            let sys = build_system(kind, &platform, &h, N / 10, BYTES, ACCESSES, SEED).unwrap();
            for keys in [&zipf, &dupes, &empty, &lopsided] {
                let total: usize = keys.iter().map(Vec::len).sum();
                for placement in [&sys.placement, &all_host] {
                    let tiers = placement.tier_keys(keys);
                    assert_eq!(tiers, tiers_by_hand(placement, keys), "{}", kind.name());
                    assert_eq!(tiers.iter().sum::<u64>(), total as u64);
                }
                assert_eq!(all_host.tier_keys(keys), [0, 0, total as u64]);
            }
            // A partition on a connected platform serves most keys from
            // peers; replication never does.
            let [local, remote, host] = sys.placement.tier_keys(&zipf);
            assert!(local > 0 && host > 0, "{}", kind.name());
            match kind {
                SystemKind::RepU => assert_eq!(remote, 0),
                _ => assert!(remote > 0, "{} on {}", kind.name(), platform.name),
            }
        }
    }
}

/// Draw a batch, extract, sum, divide — as both app models wrote it.
fn mean_by_hand(
    sys: &SystemInstance,
    mut next_batch: impl FnMut() -> Vec<Vec<u32>>,
    iters: usize,
) -> (f64, f64) {
    let g = sys.extractor.platform().num_gpus();
    let (mut extract_sum, mut keys_sum) = (0.0f64, 0.0f64);
    let n = iters.max(1);
    for _ in 0..n {
        let keys = next_batch();
        keys_sum += keys.iter().map(|k| k.len()).sum::<usize>() as f64 / g as f64;
        extract_sum += sys.extract(&keys).makespan.as_secs_f64();
    }
    (extract_sum / n as f64, keys_sum / n as f64)
}

#[test]
fn mean_extract_is_the_written_out_loop() {
    let platform = Platform::server_a();
    let g = platform.num_gpus();

    let dataset = gnn_preset(GnnDatasetId::Pa, 8192, 3);
    let mut gnn = GnnWorkload::new(dataset, GnnModel::GraphSageSupervised, 256, g, 5);
    let gnn_hotness = gnn.profile_hotness(2);
    let mut dlr = DlrWorkload::new(dlr_preset(DlrDatasetId::SynA, 8192), 256, g, 13);
    let dlr_hotness = dlr.hotness(DlrHotness::Analytic);

    for kind in [SystemKind::UGache, SystemKind::Hps, SystemKind::Sok] {
        let cap = gnn_hotness.len() / 12;
        let sys = build_system(kind, &platform, &gnn_hotness, cap, 512, 4e3, SEED).unwrap();
        for iters in [0, 1, 3] {
            let mut by_hand = gnn.clone();
            let want = mean_by_hand(&sys, || by_hand.next_batch(), iters);
            let mut source = gnn.clone();
            assert_eq!(sys.mean_extract(&mut source, iters), want, "GNN {iters}");
            // Both consumed the same number of batches.
            assert_eq!(source.next_batch(), by_hand.next_batch());
            assert!(want.0 > 0.0 && want.1 > 0.0);
        }

        let cap = dlr_hotness.len() / 12;
        let sys = build_system(kind, &platform, &dlr_hotness, cap, 512, 4e3, SEED).unwrap();
        let mut by_hand = dlr.clone();
        let want = mean_by_hand(&sys, || by_hand.next_batch(), 2);
        let mut source = dlr.clone();
        assert_eq!(sys.mean_extract(&mut source, 2), want, "DLR");
        assert_eq!(source.next_batch(), by_hand.next_batch());
    }
}
