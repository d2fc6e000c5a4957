//! Measurements every workload takes after its timed loop, so that each
//! of the nine end-to-end metrics has a value on each workload: what a
//! forced refresh of the workload's cache costs, and how the workload's
//! batches fare on the best baseline system.

use crate::check::bytes_match_keys;
use crate::oplog::{fastest_there_and_back, OpLog};
use crate::workloads::{mean, SystemSpec};
use std::time::Instant;
use ugache::baselines::build_system;
use ugache::{SystemKind, UGache, UGacheConfig};

/// Simulated seconds the clock advances per tick while a refresh runs
/// (fig17 samples its timeline at a multiple of this).
pub const REFRESH_TICK_SECS: f64 = 0.25;

/// Update batches per GPU a full cache turnover is cut into. fig17 uses
/// 8, a quarter second apart, which snaps every refresh's simulated
/// duration to a multiple of 0.25 s whatever was moved; with 1024 it
/// follows the rows moved to within a few dozen.
const UPDATE_BATCHES_PER_GPU: usize = 1024;

/// Configures the Refresher as fig17 does — 10 s of solving, then one
/// GPU's full turnover in 2 s — but in batches fine enough that the
/// simulated duration follows the rows actually moved.
pub fn fine_grained_refresh(cfg: &mut UGacheConfig, cap_entries: usize) {
    cfg.refresh.solve_secs = 10.0;
    cfg.refresh.entries_per_batch = (cap_entries / UPDATE_BATCHES_PER_GPU).max(1);
    cfg.refresh.batch_interval_secs = 2.0 / UPDATE_BATCHES_PER_GPU as f64;
}

/// Ticks after which a refresh that has not completed is a failure.
const REFRESH_TICK_LIMIT: usize = 100_000;

/// Forced refreshes a workload without refreshes of its own measures,
/// spread evenly over its timed loop: the machine's speed moves in
/// phases of seconds, and repetitions bunched into one second all land
/// in the same phase.
pub const PROBE_REFRESHES: usize = 17;

/// Dispatch-shuffle seed of the naive-peer baselines (fig10's GNN value).
pub const BASELINE_DISPATCH_SEED: u64 = 0xE9;

/// The baselines UGache is compared with: the strongest partition,
/// replication and message-based systems of fig11.
pub const BASELINES: [SystemKind; 3] = [SystemKind::PartU, SystemKind::RepU, SystemKind::Sok];

/// Drives the refresh `u` just started to completion with nothing but
/// clock ticks; returns the host seconds the ticks took.
///
/// # Errors
///
/// Fails if the refresh does not complete or leaves an invalid placement.
pub fn finish_refresh(u: &mut UGache) -> Result<f64, String> {
    let start = Instant::now();
    let mut ticks = 0;
    while u.refresh_active() {
        u.advance_clock(REFRESH_TICK_SECS);
        ticks += 1;
        if ticks > REFRESH_TICK_LIMIT {
            return Err("refresh still active after the tick limit".to_string());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    u.placement().validate()?;
    Ok(secs)
}

/// A system of its own on which a workload without refreshes measures
/// what a refresh costs, a few forced refreshes at a time between the
/// rounds of the timed loop, which runs on another instance and never
/// sees them.
///
/// Before each refresh the hotness sampler (reset when a refresh
/// begins) is fed one half of the feed, the halves taking turns. The
/// first refresh leaves the placement solved at set-up; every later one
/// migrates between the two halves' placements, so the repetitions do
/// identical work two by two, and `refresh_s` takes the fastest of each kind.
pub struct RefreshProbe<'a> {
    u: UGache,
    feed: &'a [Vec<Vec<u32>>],
    host_secs: Vec<f64>,
}

impl<'a> RefreshProbe<'a> {
    /// A probe over `u`, fed `feed` before each refresh.
    pub fn new(u: UGache, feed: &'a [Vec<Vec<u32>>]) -> Self {
        RefreshProbe {
            u,
            feed,
            host_secs: Vec::new(),
        }
    }

    /// Forces refreshes until `PROBE_REFRESHES × done / total` have run:
    /// called after each of `total` rounds, it spreads them evenly. Each
    /// refresh is one unrated op in `log`.
    pub fn keep_pace(&mut self, log: &mut OpLog, done: usize, total: usize) {
        let due = PROBE_REFRESHES * done / total.max(1);
        while self.host_secs.len() < due {
            let (even, odd) = self.feed.split_at(self.feed.len() / 2);
            let half = if self.host_secs.len().is_multiple_of(2) {
                even
            } else {
                odd
            };
            for batch in half {
                self.u.process_iteration(batch);
            }
            let u = &mut self.u;
            let secs = log.run(None, 1, || {
                let start = Instant::now();
                if !u.consider_refresh(true)? {
                    return Err("a forced refresh did not start".to_string());
                }
                let solve = start.elapsed().as_secs_f64();
                Ok(solve + finish_refresh(u)?)
            });
            // A failed refresh still counts towards the pace.
            self.host_secs.push(secs.unwrap_or(f64::INFINITY));
        }
    }

    /// What the refreshes cost.
    pub fn finish(self) -> RefreshCost {
        let ms: Vec<String> = self
            .host_secs
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        let ok: Vec<f64> = self
            .host_secs
            .into_iter()
            .filter(|s| s.is_finite())
            .collect();
        RefreshCost {
            refresh_s: fastest_there_and_back(&ok),
            sim_refresh_s: mean(match self.u.refresh_history() {
                [_, repeats @ ..] if !repeats.is_empty() => repeats,
                all => all,
            }),
            note: format!("probe refreshes, host ms each: {}", ms.join(" ")),
        }
    }
}

/// What a [`RefreshProbe`] measured.
pub struct RefreshCost {
    /// Host seconds of a repeated refresh at its fastest.
    pub refresh_s: f64,
    /// Mean simulated seconds of the repeated refreshes.
    pub sim_refresh_s: f64,
    /// Every refresh's host time, for the run's notes.
    pub note: String,
}

/// Mean simulated extraction time of `batches` on each baseline system,
/// as a ratio: best baseline ÷ `ugache_secs` (UGache's mean over the same
/// batches). Each baseline is one op in `log`.
pub fn baseline_speedup(
    log: &mut OpLog,
    system: &SystemSpec,
    batches: &[Vec<Vec<u32>>],
    ugache_secs: f64,
) -> f64 {
    let entry_bytes = system.cfg.solver.entry_bytes;
    let mut best = f64::INFINITY;
    for kind in BASELINES {
        let secs = log.run(None, 1, || {
            let baseline = build_system(
                kind,
                &system.platform,
                &system.hotness,
                system.cap,
                entry_bytes,
                system.cfg.solver.accesses_per_iter,
                BASELINE_DISPATCH_SEED,
            )?;
            let mut total = 0.0;
            for batch in batches {
                let outcome = baseline.extract(batch);
                bytes_match_keys(&outcome, batch, entry_bytes)?;
                total += outcome.makespan.as_secs_f64();
            }
            Ok(total / batches.len().max(1) as f64)
        });
        if let Some(secs) = secs {
            best = best.min(secs);
        }
    }
    if best.is_finite() && ugache_secs > 0.0 {
        best / ugache_secs
    } else {
        0.0
    }
}
