//! The design-choice ablations of DESIGN.md ("Design choices worth
//! ablating"), as direction-asserting tests: each turns one mechanism
//! off and checks the *simulated* effect goes the way the paper argues.
//! The numbers are deterministic (seeded keys, virtual time).
//!
//! One ablation is asserted elsewhere and not repeated here: the
//! block-count trade-off (`figure_shapes.rs::fig9_caps_hold`).

use cache_policy::{baselines, Hotness, SolverConfig, UGacheSolver};
use emb_cache::LruCache;
use emb_util::zipf::powerlaw_hotness;
use emb_util::SimTime;
use extractor::{Extractor, Mechanism};
use gpu_memsim::{
    simulate, CongestionModel, DispatchMode, ExtractionResult, GpuWork, SimConfig, SourceDemand,
};
use gpu_platform::{DedicationConfig, Location, Platform};

const N: usize = 100_000;
const BYTES: usize = 512;

/// One deduplicated Zipf(1.2) batch per GPU.
fn keys(plat: &Platform, per_gpu: usize) -> Vec<Vec<u32>> {
    let zipf = emb_util::ZipfSampler::new(N as u64, 1.2);
    (0..plat.num_gpus())
        .map(|g| {
            let mut rng = emb_util::seed_rng(100 + g as u64);
            let mut v: Vec<u32> = (0..per_gpu).map(|_| zipf.sample(&mut rng) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

fn hotness() -> Hotness {
    Hotness::new(powerlaw_hotness(N, 1.2))
}

/// Congestion penalty κ: without stall modelling (κ = 0) naive peer
/// access looks deceptively good — the model is what makes §5 matter.
#[test]
fn stall_modelling_slows_naive_peer_access() {
    let plat = Platform::server_c();
    let placement = baselines::partition(&plat, &hotness(), 2_000).unwrap();
    let ks = keys(&plat, 30_000);
    let run = |penalty: f64| {
        let sim = SimConfig {
            congestion: CongestionModel { penalty },
            ..SimConfig::default()
        };
        Extractor::new(plat.clone(), sim, Mechanism::PeerNaive { seed: 1 })
            .extract(&placement, &ks, BYTES)
            .makespan
            .as_secs_f64()
    };
    let (ideal, stalled) = (run(0.0), run(0.5));
    assert!(
        stalled > ideal * 1.1,
        "κ=0.5 {stalled:.6}s should clearly exceed κ=0 {ideal:.6}s"
    );
}

/// Host-first dedication: starving the host group of cores (one core
/// instead of the 12 % cap) gives the "extremely ragged time" of §5.3.
#[test]
fn host_first_dedication_beats_starving_the_host_group() {
    let plat = Platform::server_a();
    let placement = baselines::partition(&plat, &hotness(), 2_000).unwrap();
    let ks = keys(&plat, 30_000);
    let run = |host_core_fraction: f64| {
        let dedication = DedicationConfig { host_core_fraction };
        Extractor::new(
            plat.clone(),
            SimConfig::default(),
            Mechanism::Factored { dedication },
        )
        .extract(&placement, &ks, BYTES)
        .makespan
        .as_secs_f64()
    };
    let (host_first, starved) = (run(0.12), run(1e-9));
    assert!(
        starved > host_first * 1.1,
        "one host core {starved:.6}s should clearly exceed the 12% cap {host_first:.6}s"
    );
}

/// Local padding (§5.3): local chunks fill the cores whose dedicated
/// queue drained. The barrier alternative starts local extraction only
/// after every non-local group of the GPU drained — two calls, first the
/// non-local demands and then the local ones, so that each GPU's barrier
/// time is the sum of its two phases.
#[test]
fn local_padding_beats_a_barrier_phase() {
    let plat = Platform::server_c();
    let g = plat.num_gpus();
    // Meaningful local work plus uneven non-local work; `keep` is told
    // whether a demand is local.
    let works = |keep: fn(bool) -> bool| -> Vec<GpuWork> {
        (0..g)
            .map(|gpu| GpuWork {
                gpu,
                demands: [
                    (Location::Gpu(gpu), 800e6),
                    (Location::Gpu((gpu + 1) % g), 100e6),
                    (Location::Host, 60e6),
                ]
                .into_iter()
                .filter(|&(src, _)| keep(src == Location::Gpu(gpu)))
                .map(|(src, bytes)| SourceDemand { src, bytes })
                .collect(),
            })
            .collect()
    };
    let sim = SimConfig {
        launch_overhead: SimTime::ZERO,
        ..SimConfig::default()
    };
    let mode = DispatchMode::Factored {
        dedication: DedicationConfig::default(),
    };
    let run = |keep| simulate(&plat, &sim, &works(keep), mode);
    let padded = run(|_| true);
    let (non_local, local) = (run(|local| !local), run(|local| local));
    for gpu in 0..g {
        let barrier = non_local.per_gpu[gpu].time + local.per_gpu[gpu].time;
        let padding = padded.per_gpu[gpu].time;
        assert!(
            padding < barrier,
            "gpu{gpu}: padding {padding} should beat the barrier {barrier}"
        );
    }
    let moved = |r: &ExtractionResult| -> f64 {
        r.per_gpu
            .iter()
            .flat_map(|g| &g.per_src)
            .map(|u| u.bytes)
            .sum()
    };
    let barrier_moved = moved(&non_local) + moved(&local);
    assert!((moved(&padded) - barrier_moved).abs() < 1e3);
}

/// Dedup adjustment: solving on raw hotness over-replicates hot entries
/// (a batch reads each at most once), so the realized extraction is
/// slower than with the adjustment.
#[test]
fn dedup_adjustment_improves_realized_extraction() {
    let plat = Platform::server_c();
    let solver = UGacheSolver::new(plat.clone(), DedicationConfig::default());
    let h = hotness();
    let caps = vec![3_000usize; 8];
    let dedication = DedicationConfig::default();
    let fem = Extractor::new(
        plat.clone(),
        SimConfig::default(),
        Mechanism::Factored { dedication },
    );
    let ks = keys(&plat, 30_000);
    let run = |dedup: bool| {
        let mut cfg = SolverConfig::new(BYTES, ks[0].len() as f64);
        cfg.dedup_adjust = dedup;
        let sp = solver.solve(&h, &caps, &cfg).unwrap();
        fem.extract(&sp.placement, &ks, BYTES)
            .makespan
            .as_secs_f64()
    };
    let (raw, adjusted) = (run(false), run(true));
    assert!(
        adjusted < raw,
        "dedup-adjusted {adjusted:.6}s should beat raw hotness {raw:.6}s"
    );
}

/// Online LRU (HPS-style) vs a static top-hotness cache under stable
/// skew: the §7.2 argument that a static cache loses nothing — the LRU
/// pays per-access bookkeeping for a hit rate that is no better.
#[test]
fn static_top_k_matches_online_lru_under_stable_skew() {
    let cap = 2_000usize;
    let z = emb_util::ZipfSampler::new(50_000, 1.2);
    let mut rng = emb_util::seed_rng(4);
    let mut lru = LruCache::new(cap);
    for _ in 0..100_000 {
        lru.access(z.sample(&mut rng) as u32);
    }
    let trials = 100_000;
    let (mut lru_hits, mut static_hits) = (0u32, 0u32);
    for _ in 0..trials {
        let k = z.sample(&mut rng) as u32;
        lru_hits += u32::from(lru.access(k).0);
        static_hits += u32::from((k as usize) < cap);
    }
    let lru_rate = f64::from(lru_hits) / f64::from(trials);
    let static_rate = f64::from(static_hits) / f64::from(trials);
    assert!(
        static_rate >= lru_rate && static_rate - lru_rate < 0.05,
        "static top-k {static_rate:.3} vs warmed-up LRU {lru_rate:.3}"
    );
}
