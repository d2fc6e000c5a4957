//! A seeded sequence of the operations a UGache serves — timed
//! iterations, functional gathers, forced refreshes and idle time —
//! with the cache audited (`UGache::audit`) after every one of them.
//!
//! Every iteration ticks the refresher once and idle time ticks it every
//! `IDLE_TICK_SECS`, half the refresh's batch interval, so no tick applies
//! more than one update batch: the audit sees the cache after every
//! batch, when gathers still follow the old placement (less what was
//! evicted, which reads host), at the placement swap and at rest. Hot
//! keys drift as the sequence goes, so each refresh moves rows.

use cache_policy::Hotness;
use emb_cache::{HostTable, RefreshConfig};
use emb_util::zipf::powerlaw_hotness;
use emb_util::{seed_rng, ZipfSampler};
use gpu_platform::{Location, Platform};
use rand::Rng;
use ugache::{UGache, UGacheConfig};

/// Not a multiple of eight: the access rows end in a ragged word.
const N: usize = 3_003;
const DIM: usize = 4;
const STEPS: usize = 400;
/// The refresh's batch interval, and the longest tick of idle time.
const BATCH_INTERVAL_SECS: f64 = 0.02;
const IDLE_TICK_SECS: f64 = BATCH_INTERVAL_SECS / 2.0;

/// `len` Zipf keys, the ranks shifted by `shift` entries.
fn draw(rng: &mut impl Rng, zipf: &ZipfSampler, shift: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| ((zipf.sample(rng) as usize + shift) % N) as u32)
        .collect()
}

/// Runs the sequence for `seed` on `platform`; returns the number of
/// refreshes completed and of steps audited while one was active.
fn run(platform: Platform, seed: u64) -> (usize, usize) {
    let g = platform.num_gpus();
    let name = platform.name.clone();
    let mut cfg = UGacheConfig::new(DIM * 4, 400.0);
    cfg.solver.blocks.max_blocks = 32;
    cfg.solver.blocks.min_splits = g;
    cfg.sample_stride = 2;
    cfg.refresh = RefreshConfig {
        solve_secs: 0.05,
        entries_per_batch: 32,
        batch_interval_secs: BATCH_INTERVAL_SECS,
    };
    let hotness = Hotness::new(powerlaw_hotness(N, 1.1));
    let mut u = UGache::build(
        platform,
        HostTable::procedural(N, DIM),
        &hotness,
        vec![120; g],
        cfg,
    )
    .expect("the set-up solve");
    u.audit()
        .unwrap_or_else(|e| panic!("{name}: after the build: {e}"));

    let truth = HostTable::procedural(N, DIM);
    let zipf = ZipfSampler::new(N as u64, 1.1);
    let mut rng = seed_rng(seed);
    let mut mid_refresh = 0;
    for step in 0..STEPS {
        // The hot keys start at the last few entries, then move by a tenth
        // of the table every 100 steps.
        let shift = N - 5 + step / 100 * (N / 10);
        let op = rng.gen_range(0..10);
        let what = match op {
            0..=3 => {
                let keys: Vec<Vec<u32>> =
                    (0..g).map(|_| draw(&mut rng, &zipf, shift, 200)).collect();
                u.process_iteration(&keys);
                "process_iteration"
            }
            4..=6 => {
                let gpu = rng.gen_range(0..g);
                let keys = draw(&mut rng, &zipf, shift, 150);
                let mut out = vec![f32::NAN; keys.len() * DIM];
                let stats = u.gather(gpu, &keys, &mut out);
                // The placement's split, but for the keys read from a GPU
                // that has evicted them mid-refresh, which read host.
                let (mut local, mut remote, mut host) = (0, 0, 0);
                for (loc, count) in u.placement().split_keys(gpu, &keys) {
                    match loc {
                        Location::Gpu(j) if j == gpu => local += count,
                        Location::Gpu(_) => remote += count,
                        Location::Host => host += count,
                    }
                }
                assert_eq!(stats.total(), keys.len() as u64);
                if u.refresh_active() {
                    assert!(
                        stats.local <= local && stats.remote <= remote && stats.host >= host,
                        "{name}, step {step}: {stats:?} against {local}/{remote}/{host}"
                    );
                } else {
                    assert_eq!(
                        (stats.local, stats.remote, stats.host),
                        (local, remote, host)
                    );
                }
                for (k, &key) in keys.iter().enumerate() {
                    assert_eq!(
                        &out[k * DIM..(k + 1) * DIM],
                        truth.read(key).as_slice(),
                        "{name}, step {step}: key {key} on GPU{gpu}"
                    );
                }
                "gather"
            }
            7 => {
                u.consider_refresh(true)
                    .unwrap_or_else(|e| panic!("{name}, step {step}: {e}"));
                "consider_refresh"
            }
            _ => {
                let mut left: f64 = rng.gen_range(0.01..0.12);
                while left > 0.0 {
                    let secs = left.min(IDLE_TICK_SECS);
                    u.advance_clock(secs);
                    left -= secs;
                    u.audit()
                        .unwrap_or_else(|e| panic!("{name}, step {step}, idle tick: {e}"));
                }
                "advance_clock"
            }
        };
        mid_refresh += usize::from(u.refresh_active());
        u.audit()
            .unwrap_or_else(|e| panic!("{name}, step {step}, after {what}: {e}"));
    }
    (u.refresh_history().len(), mid_refresh)
}

#[test]
fn the_cache_passes_its_audit_after_every_step_and_tick() {
    for (platform, seed) in [(Platform::server_a(), 1), (Platform::server_b(), 2)] {
        let name = platform.name.clone();
        let (refreshes, mid_refresh) = run(platform, seed);
        assert!(refreshes >= 5, "{name}: {refreshes} refreshes completed");
        assert!(
            (50..=STEPS - 50).contains(&mid_refresh),
            "{name}: {mid_refresh} of {STEPS} steps audited mid-refresh"
        );
    }
}
