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

/// The UGache every sequence runs on: its rows unfilled until it
/// gathers.
fn build(platform: Platform) -> UGache {
    let g = platform.num_gpus();
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
    UGache::build(
        platform,
        HostTable::procedural(N, DIM),
        &hotness,
        vec![120; g],
        cfg,
    )
    .expect("the set-up solve")
}

/// Gathers `keys` on GPU `gpu`, asserts every row is the host table's
/// and the counts the placement's split (mid-refresh, with evicted
/// entries read from host instead); returns the keys read from host
/// beyond the split's.
fn gather_checked(u: &mut UGache, gpu: usize, keys: &[u32], what: &str) -> u64 {
    let mut out = vec![f32::NAN; keys.len() * DIM];
    let stats = u.gather(gpu, keys, &mut out);
    let (mut local, mut remote, mut host) = (0, 0, 0);
    for (loc, count) in u.placement().split_keys(gpu, keys) {
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
            "{what}: {stats:?} against {local}/{remote}/{host}"
        );
    } else {
        assert_eq!(
            (stats.local, stats.remote, stats.host),
            (local, remote, host),
            "{what}"
        );
    }
    let truth = HostTable::procedural(N, DIM);
    for (k, &key) in keys.iter().enumerate() {
        assert_eq!(
            &out[k * DIM..(k + 1) * DIM],
            truth.read(key).as_slice(),
            "{what}: key {key} on GPU{gpu}"
        );
    }
    stats.host - host
}

/// Runs the sequence for `seed` on `platform`; returns the number of
/// refreshes completed, of steps audited while one was active and of
/// audits made once a gather had filled the rows.
fn run(platform: Platform, seed: u64) -> (usize, usize, usize) {
    let g = platform.num_gpus();
    let name = platform.name.clone();
    let mut u = build(platform);
    u.audit()
        .unwrap_or_else(|e| panic!("{name}: after the build: {e}"));

    let zipf = ZipfSampler::new(N as u64, 1.1);
    let mut rng = seed_rng(seed);
    let (mut mid_refresh, mut filled_audits, mut filled) = (0, 0, false);
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
                gather_checked(&mut u, gpu, &keys, &format!("{name}, step {step}"));
                filled = true;
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
                    filled_audits += usize::from(filled);
                }
                "advance_clock"
            }
        };
        mid_refresh += usize::from(u.refresh_active());
        u.audit()
            .unwrap_or_else(|e| panic!("{name}, step {step}, after {what}: {e}"));
        filled_audits += usize::from(filled);
    }
    (u.refresh_history().len(), mid_refresh, filled_audits)
}

#[test]
fn the_cache_passes_its_audit_after_every_step_and_tick() {
    for (platform, seed) in [(Platform::server_a(), 1), (Platform::server_b(), 2)] {
        let name = platform.name.clone();
        let (refreshes, mid_refresh, filled_audits) = run(platform, seed);
        assert!(refreshes >= 5, "{name}: {refreshes} refreshes completed");
        assert!(
            (50..=STEPS - 50).contains(&mid_refresh),
            "{name}: {mid_refresh} of {STEPS} steps audited mid-refresh"
        );
        // The audits that compare every row's bytes with the host table's.
        assert!(
            filled_audits >= STEPS * 3 / 4,
            "{name}: {filled_audits} audits of a filled cache"
        );
    }
}

/// The keys of a sampled drift: the same shifted Zipf keys on every GPU.
fn drifted(g: usize, step: usize) -> Vec<Vec<u32>> {
    let zipf = ZipfSampler::new(N as u64, 1.1);
    let mut rng = seed_rng(step as u64);
    (0..g).map(|_| draw(&mut rng, &zipf, N / 2, 300)).collect()
}

/// A UGache that is only timed — iterations, a forced refresh, ticks —
/// audited at every tick until its first gather, which comes mid-refresh
/// (after some update batches) or at rest after the refresh.
fn first_gather(platform: Platform, mid_refresh: bool) {
    let (g, name) = (platform.num_gpus(), platform.name.clone());
    let when = if mid_refresh {
        "mid-refresh"
    } else {
        "at rest"
    };
    let what = format!("{name}, first gather {when}");
    let mut u = build(platform);
    for step in 0..3 {
        u.process_iteration(&drifted(g, step));
    }
    assert!(
        u.consider_refresh(true).unwrap(),
        "{what}: a forced refresh"
    );
    // Past the solve and a few update batches, before the swap.
    u.advance_clock(0.05 + 3.0 * BATCH_INTERVAL_SECS);
    assert!(u.refresh_active(), "{what}: the refresh is over");
    u.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
    let all: Vec<u32> = (0..N as u32).collect();
    if mid_refresh {
        let evicted: u64 = (0..g)
            .map(|gpu| gather_checked(&mut u, gpu, &all, &what))
            .sum();
        assert!(
            evicted > 0,
            "{what}: no read fell to host for an evicted row"
        );
    }
    while u.refresh_active() {
        u.advance_clock(IDLE_TICK_SECS);
        u.audit().unwrap_or_else(|e| panic!("{what}, tick: {e}"));
    }
    assert_eq!(u.refresh_history().len(), 1);
    for gpu in 0..g {
        gather_checked(&mut u, gpu, &all, &what);
    }
    u.audit().unwrap_or_else(|e| panic!("{what}, after: {e}"));
}

#[test]
fn a_ugache_only_timed_audits_and_its_first_gather_reads_host_rows() {
    for platform in [Platform::server_a(), Platform::server_b()] {
        first_gather(platform.clone(), false);
        first_gather(platform, true);
    }
}
