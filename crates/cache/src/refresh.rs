//! Background cache refresh (§7.2, Figure 17).
//!
//! The Refresher re-evaluates the cache policy when hotness drifts and
//! migrates the cache to the new placement *in small batches*, bounding
//! the impact on foreground requests. It is driven by virtual time: the
//! application loop calls [`Refresher::tick`] with the current simulated
//! clock, which keeps the whole pipeline deterministic.
//!
//! A refresh in flight is one due time and a queue of update batches.
//! [`Refresher::begin`] queues the batches and sets the first one due
//! `cfg.solve_secs` later (the re-solve); each batch applied puts the
//! next `cfg.batch_interval_secs` after it; the swap to the target
//! placement is due where a batch would be once the queue is empty:
//!
//! ```text
//! begin → [solve: cfg.solve_secs] → [update batch] ─ interval ─ [batch] … ─ interval ─ placement swap
//! ```
//!
//! An update batch only evicts, a vacancy bit an entry on its GPU:
//! gathers keep following the old placement until the swap, reading an
//! evicted entry from host ([`MultiGpuCache::update_arena`]). The swap
//! installs the target and writes the rows it adds, which no read could
//! reach before it. A GPU
//! takes as many batches as its larger side needs, evictions or
//! insertions, `entries_per_batch` at a time, so the schedule still paces
//! the insertions it does not run.
//!
//! While a refresh is active, foreground extraction is slowed by
//! `FOREGROUND_IMPACT` (solver threads and copy engines compete with
//! serving, §8.6 reports ≈10 %).

use crate::cache::MultiGpuCache;
use cache_policy::Placement;
use std::collections::VecDeque;
use std::ops::Range;

/// Fractional slowdown of foreground requests while a refresh is active.
const FOREGROUND_IMPACT: f64 = 0.10;

/// Estimated-time increase that triggers a refresh (10 %).
const TRIGGER_RATIO: f64 = 0.10;

/// Refresh tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshConfig {
    /// Simulated seconds the policy re-solve takes (paper: ~10 s).
    pub solve_secs: f64,
    /// Cache-update entries migrated per batch.
    pub entries_per_batch: usize,
    /// Simulated seconds between update batches (throttling).
    pub batch_interval_secs: f64,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            solve_secs: 10.0,
            entries_per_batch: 4096,
            batch_interval_secs: 0.05,
        }
    }
}

/// One throttled update: a range of GPU `gpu`'s evict list.
#[derive(Debug, Clone)]
struct UpdateBatch {
    gpu: usize,
    evict: Range<usize>,
}

/// A refresh in flight: the placement it moves toward and the update
/// batches still queued.
#[derive(Debug, Clone)]
struct Migration {
    target: Placement,
    started_at: f64,
    /// When the next batch, or the swap once none is left, is due.
    due: f64,
    /// `evict[gpu]`: the entries GPU `gpu` drops, ascending; the batches
    /// name ranges of it.
    evict: Vec<Vec<u32>>,
    batches: VecDeque<UpdateBatch>,
}

/// The background refresher: at most one migration in flight.
#[derive(Debug, Clone)]
pub struct Refresher {
    cfg: RefreshConfig,
    migration: Option<Migration>,
    /// Completed refresh durations (seconds), for reporting.
    pub history: Vec<f64>,
}

impl Refresher {
    /// Creates an idle refresher.
    pub fn new(cfg: RefreshConfig) -> Self {
        Refresher {
            cfg,
            migration: None,
            history: Vec::new(),
        }
    }

    /// Whether estimated extraction-time drift warrants a refresh.
    pub fn should_refresh(&self, current_est_secs: f64, fresh_est_secs: f64) -> bool {
        !self.active() && current_est_secs > fresh_est_secs * (1.0 + TRIGGER_RATIO)
    }

    /// Whether a refresh is in progress.
    pub fn active(&self) -> bool {
        self.migration.is_some()
    }

    /// Foreground slowdown multiplier (≥ 1).
    pub fn slowdown(&self) -> f64 {
        if self.active() {
            1.0 + FOREGROUND_IMPACT
        } else {
            1.0
        }
    }

    /// Starts a refresh toward `target` at simulated time `now`.
    ///
    /// # Panics
    ///
    /// Panics if a refresh is already active.
    pub fn begin(&mut self, now: f64, current: &Placement, target: Placement) {
        assert!(!self.active(), "refresh already in progress");
        assert_eq!(current.num_entries, target.num_entries);
        assert_eq!(current.num_gpus, target.num_gpus);

        // Diff: per GPU, the entries it drops, and how many it adds. A
        // refresh moves few of the entries: compare the stored bits a word
        // (64 entries) at a time, and in a word that differs visit only
        // the bits that changed, in entry order. Bits past the last entry
        // are clear on both sides. One counting pass sizes each list, so
        // the whole diff is O(G) allocations.
        let g = current.num_gpus;
        let per = self.cfg.entries_per_batch.max(1);
        let mut evict = Vec::with_capacity(g);
        let mut counts = Vec::with_capacity(g);
        for gpu in 0..g {
            let was_words = current.stored[gpu].words();
            let will_words = target.stored[gpu].words();
            let changed = (was_words.iter().zip(will_words).enumerate())
                .filter(|(_, (was, will))| was != will);
            let (mut ev, mut ins) = (0, 0);
            for (_, (&was, &will)) in changed.clone() {
                ev += (was & !will).count_ones() as usize;
                ins += (will & !was).count_ones() as usize;
            }
            let mut list = Vec::with_capacity(ev);
            for (w, (&was, &will)) in changed {
                push_set_bits(&mut list, w * u64::BITS as usize, was & !will);
            }
            evict.push(list);
            counts.push(ev.max(ins).div_ceil(per));
        }
        let mut batches = VecDeque::with_capacity(counts.iter().sum());
        for (gpu, &count) in counts.iter().enumerate() {
            let len = evict[gpu].len();
            batches.extend((0..count).map(|k| UpdateBatch {
                gpu,
                evict: (k * per).min(len)..((k + 1) * per).min(len),
            }));
        }

        self.migration = Some(Migration {
            target,
            started_at: now,
            due: now + self.cfg.solve_secs,
            evict,
            batches,
        });
    }

    /// Advances the refresh to simulated time `now`: applies every
    /// update batch that is due, then, once none is left, installs the
    /// target placement. Returns the refresh's duration on the tick that
    /// finishes it, `None` on every other.
    pub fn tick(&mut self, now: f64, cache: &mut MultiGpuCache) -> Option<f64> {
        let m = self.migration.as_mut()?;
        loop {
            if now < m.due {
                return None;
            }
            let Some(b) = m.batches.pop_front() else {
                break;
            };
            cache.update_arena(b.gpu, &m.evict[b.gpu][b.evict]);
            m.due += self.cfg.batch_interval_secs;
        }
        // Every drop evicted: install the target, writing what it adds.
        let Migration {
            target,
            started_at,
            due,
            ..
        } = self.migration.take()?;
        cache.swap_placement(target);
        self.history.push(due - started_at);
        Some(due - started_at)
    }
}

/// Pushes `first + k` for every set bit `k` of `bits`, in order.
fn push_set_bits(out: &mut Vec<u32>, first: usize, mut bits: u64) {
    while bits != 0 {
        out.push((first + bits.trailing_zeros() as usize) as u32);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::HostTable;
    use cache_policy::{baselines, Hotness};
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::Platform;

    const N: usize = 400;
    const DIM: usize = 4;

    fn placements() -> (Placement, Placement) {
        let plat = Platform::server_a();
        let h1 = Hotness::new(powerlaw_hotness(N, 1.2));
        // Drifted hotness: reverse the ranking.
        let mut w = powerlaw_hotness(N, 1.2);
        w.reverse();
        let h2 = Hotness::new(w);
        (
            baselines::replication(&plat, &h1, 40),
            baselines::replication(&plat, &h2, 40),
        )
    }

    fn small_cfg() -> RefreshConfig {
        RefreshConfig {
            solve_secs: 1.0,
            entries_per_batch: 16,
            batch_interval_secs: 0.1,
        }
    }

    #[test]
    fn trigger_logic() {
        let r = Refresher::new(small_cfg());
        assert!(!r.should_refresh(1.0, 1.0));
        assert!(!r.should_refresh(1.05, 1.0));
        assert!(r.should_refresh(1.2, 1.0));
    }

    /// The batches a refresh begun from `current` still has queued, as
    /// `(gpu, evict, insert)`: the insert half of a GPU's `k`-th batch is
    /// the `k`-th run of `entries_per_batch` entries its target stores and
    /// `current` does not, the insertions the swap writes.
    fn queued(r: &Refresher, current: &Placement) -> Vec<(usize, Vec<u32>, Vec<u32>)> {
        let m = r.migration.as_ref().expect("a refresh began");
        let per = r.cfg.entries_per_batch.max(1);
        let mut k = vec![0; current.num_gpus];
        (m.batches.iter())
            .map(|b| {
                let (was, will) = (&current.stored[b.gpu], &m.target.stored[b.gpu]);
                let insert = (will.ones())
                    .filter(|&e| !was.get(e))
                    .skip(k[b.gpu] * per)
                    .take(per)
                    .map(|e| e as u32)
                    .collect();
                k[b.gpu] += 1;
                (b.gpu, m.evict[b.gpu][b.evict.clone()].to_vec(), insert)
            })
            .collect()
    }

    #[test]
    fn full_refresh_migrates_cache() {
        let (p1, p2) = placements();
        let host = HostTable::procedural(N, DIM);
        let mut cache = MultiGpuCache::build(host, &p1, &[40; 4]);
        let mut r = Refresher::new(small_cfg());
        r.begin(0.0, &p1, p2.clone());
        assert!(r.active());
        assert_eq!(r.slowdown(), 1.1);

        // Nothing happens during solving.
        assert_eq!(r.tick(0.5, &mut cache), None);
        assert!(r.active());

        // Drive time forward until idle.
        let mut now = 1.0;
        let mut guard = 0;
        while r.active() {
            r.tick(now, &mut cache);
            now += 0.05;
            guard += 1;
            assert!(guard < 10_000, "refresh never finished");
        }
        assert_eq!(r.history.len(), 1);

        // Cache now serves the new placement: the new-hot entries (high
        // ids) hit locally.
        let keys: Vec<u32> = ((N - 40) as u32..N as u32).collect();
        let mut out = vec![0.0f32; keys.len() * DIM];
        let stats = cache.gather(0, &keys, &mut out);
        assert_eq!(stats.local, 40);
        // Values are still correct.
        let truth = HostTable::procedural(N, DIM);
        for (k, &key) in keys.iter().enumerate() {
            assert_eq!(&out[k * DIM..(k + 1) * DIM], truth.read(key).as_slice());
        }
    }

    #[test]
    fn refresh_is_throttled_over_time() {
        let (p1, p2) = placements();
        let host = HostTable::procedural(N, DIM);
        let mut cache = MultiGpuCache::build(host, &p1, &[40; 4]);
        let cfg = small_cfg();
        let mut r = Refresher::new(cfg);
        r.begin(0.0, &p1, p2);
        // Diff is ~80 entries per GPU (40 out, 40 in) → 40/16 ≈ 3 batches
        // per GPU ≥ 12 batches total → ≥ 1.1 s of update time after solve.
        let mut now = 0.0;
        while r.active() && now < 100.0 {
            r.tick(now, &mut cache);
            now += 0.01;
        }
        assert!(!r.active());
        let duration = r.history[0];
        assert!(
            duration >= cfg.solve_secs + 1.0,
            "refresh finished suspiciously fast: {duration}s"
        );
    }

    #[test]
    fn batches_and_swap_land_on_the_first_tick_they_are_due() {
        // Batch k is due at 1.0 + k·0.1 s and the swap, after n batches,
        // at 1.0 + n·0.1 s. Ticks fall 0.04 s before, 0.01 s after and
        // 0.05 s after each of those times, except for a stretch skipped
        // by one tick that must apply several batches at once.
        let (p1, p2) = placements();
        let mut cache = MultiGpuCache::build(HostTable::procedural(N, DIM), &p1, &[40; 4]);
        let cfg = small_cfg();
        let mut r = Refresher::new(cfg);
        r.begin(0.0, &p1, p2.clone());
        let batches = queued(&r, &p1);
        let n = batches.len();
        assert!(n >= 8, "only {n} batches");
        let due = |k: usize| cfg.solve_secs + k as f64 * cfg.batch_interval_secs;
        let mut ticks = vec![0.0, 0.5];
        for k in (0..=n).filter(|k| !(3..6).contains(k)) {
            ticks.extend([due(k) - 0.04, due(k) + 0.01, due(k) + 0.05]);
        }
        ticks.extend([due(n) + 0.5, due(n) + 10.0]);
        let mut was_swapped = false;
        for now in ticks {
            let landed = (0..n).filter(|&k| now >= due(k)).count();
            let swapped = now >= due(n);
            let finished = r.tick(now, &mut cache);
            for (k, (gpu, evict, insert)) in batches.iter().enumerate() {
                let applied = k < landed;
                for &e in evict {
                    assert_eq!(
                        cache.holds(*gpu, e),
                        !applied,
                        "{now} s: batch {k} evicts {e}"
                    );
                }
                for &e in insert {
                    assert_eq!(
                        cache.holds(*gpu, e),
                        swapped,
                        "{now} s: batch {k} inserts {e}"
                    );
                }
            }
            cache.audit().unwrap_or_else(|e| panic!("{now} s: {e}"));
            assert_eq!(r.active(), !swapped, "{now} s");
            assert_eq!(cache.placement() == &p2, swapped, "{now} s");
            assert_eq!(r.history.len(), usize::from(swapped), "{now} s");
            if swapped && !was_swapped {
                assert_eq!(finished.map(f64::to_bits), Some(r.history[0].to_bits()));
            } else {
                assert_eq!(finished, None, "{now} s");
            }
            was_swapped = swapped;
        }
        let last_due = (0..n).fold(cfg.solve_secs, |t, _| t + cfg.batch_interval_secs);
        assert_eq!(r.history[0].to_bits(), last_due.to_bits());
    }

    /// `begin`'s diff before it compared chunks: every entry, in order,
    /// cut into batches of `per` evictions and `per` insertions.
    fn per_entry_batches(
        current: &Placement,
        target: &Placement,
        per: usize,
    ) -> Vec<(usize, Vec<u32>, Vec<u32>)> {
        let mut out = Vec::new();
        for gpu in 0..current.num_gpus {
            let (mut evict, mut insert) = (Vec::new(), Vec::new());
            for e in 0..current.num_entries {
                match (current.stored[gpu].get(e), target.stored[gpu].get(e)) {
                    (true, false) => evict.push(e as u32),
                    (false, true) => insert.push(e as u32),
                    _ => {}
                }
            }
            let (mut ev, mut ins) = (evict.chunks(per), insert.chunks(per));
            loop {
                match (ev.next(), ins.next()) {
                    (None, None) => break,
                    (a, b) => out.push((
                        gpu,
                        a.unwrap_or_default().to_vec(),
                        b.unwrap_or_default().to_vec(),
                    )),
                }
            }
        }
        out
    }

    #[test]
    fn word_diff_batches_as_the_per_entry_diff() {
        // Key spaces of whole words and of every ragged tail; changes on
        // both sides of each word edge and in the partial word, one GPU
        // evicting what another inserts.
        for n in [1, 7, 63, 64, 65, 127, 128, 129, 3 * 64 + 5, 8 * 64 + 7] {
            let mut current = Placement::all_host(3, n);
            for e in (0..n).step_by(3) {
                current.stored[0].set(e, true);
                current.stored[1].set(e, e % 2 == 0);
            }
            let mut target = current.clone();
            for e in [
                0,
                63,
                64,
                127,
                128,
                n.saturating_sub(5),
                n - 2.min(n),
                n - 1,
            ] {
                if e < n {
                    target.stored[0].set(e, !current.stored[0].get(e));
                    target.stored[2].set(e, true);
                }
            }
            target.stored[1].set(n / 2, !current.stored[1].get(n / 2));
            for per in [1, 2, 3, 64] {
                let mut r = Refresher::new(RefreshConfig {
                    entries_per_batch: per,
                    ..small_cfg()
                });
                r.begin(0.0, &current, target.clone());
                let got = queued(&r, &current);
                let want = per_entry_batches(&current, &target, per);
                assert_eq!(got, want, "n {n}, per {per}");
            }
            // Equal placements: no batch at all.
            let mut r = Refresher::new(small_cfg());
            r.begin(0.0, &target, target.clone());
            assert!(queued(&r, &target).is_empty(), "n {n}");
        }
    }

    #[test]
    fn batches_between_sparse_solves_keep_the_dense_paths_bits() {
        // Placements solved from hotness with no zero up to all zeros
        // (`crates/policy/tests/zero_tail.rs` pins them), each refreshed
        // to the next and the last to the first: the batches, in order,
        // hashed as they were before hotness was held sparse and `begin`
        // compared a word of flags at a time.
        use cache_policy::{SolverConfig, UGacheSolver};
        use gpu_platform::DedicationConfig;
        use test_support::{fnv1a, FNV_OFFSET};

        let mut roomy = vec![600; 8];
        roomy[3] = 6_000;
        let platforms = [
            (
                Platform::server_a(),
                vec![2_000; 4],
                0x2079_5077_4efe_d0a5u64,
            ),
            (Platform::server_b(), roomy, 0xbf1f_6027_68b7_cb66),
        ];
        let cases = test_support::zero_share_cases(30_000);
        for (platform, caps, want) in platforms {
            let solver = UGacheSolver::new(platform.clone(), DedicationConfig::default());
            let mut cfg = SolverConfig::new(512, 1_000.0);
            cfg.dedup_adjust = true;
            let placements: Vec<Placement> = cases
                .iter()
                .map(|(_, w)| {
                    let h = Hotness::new(w.clone());
                    solver.solve(&h, &caps, &cfg).unwrap().placement
                })
                .collect();
            let mut hash = FNV_OFFSET;
            for (k, current) in placements.iter().enumerate() {
                let mut r = Refresher::new(RefreshConfig {
                    entries_per_batch: 512,
                    ..RefreshConfig::default()
                });
                r.begin(0.0, current, placements[(k + 1) % placements.len()].clone());
                for (gpu, evict, insert) in queued(&r, current) {
                    hash = fnv1a(hash, (gpu as u64).to_le_bytes());
                    for side in [&evict, &insert] {
                        hash = fnv1a(hash, (side.len() as u64).to_le_bytes());
                        hash = fnv1a(hash, side.iter().flat_map(|e| e.to_le_bytes()));
                    }
                }
            }
            assert_eq!(hash, want, "{}", platform.name);
        }
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn double_begin_panics() {
        let (p1, p2) = placements();
        let mut r = Refresher::new(small_cfg());
        r.begin(0.0, &p1, p2.clone());
        r.begin(0.0, &p1, p2);
    }

    #[test]
    fn noop_refresh_completes_quickly() {
        let (p1, _) = placements();
        let host = HostTable::procedural(N, DIM);
        let mut cache = MultiGpuCache::build(host, &p1, &[40; 4]);
        let mut r = Refresher::new(small_cfg());
        r.begin(0.0, &p1, p1.clone());
        let mut now = 0.0;
        while r.active() && now < 10.0 {
            r.tick(now, &mut cache);
            now += 0.05;
        }
        assert!(!r.active());
        // Only the solve phase: no batches.
        assert!(r.history[0] <= small_cfg().solve_secs + 0.2);
    }
}
