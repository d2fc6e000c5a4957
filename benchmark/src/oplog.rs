//! Failure accounting and host rates.
//!
//! Every op runs through [`OpLog::run`]: it is timed, and it fails if it
//! panics, returns `Err`, or — decided later, e.g. when a round's
//! simulated values differ from the first round's — is marked failed
//! with [`OpLog::fail_last`]. A failed op counts in `ops_attempted` and
//! `ops_failed` and never in a rate.
//!
//! A rate is the *undisturbed* rate. On the VM this was written on,
//! interference only ever adds time, and it comes in phases that last
//! from seconds to whole runs: the median op of a gather-bound loop read
//! 4.6 ms in some runs and 5.6 ms in others, while the fastest op of
//! every run read 4.35–4.63 ms (README, "Sizing notes"). So ops that do
//! the same work — the same recorded batch in the same phase, the same
//! load point, the same sweep cell — share a *position*, a position's
//! time is that of its fastest repetition, and the rate is ops over the
//! sum of position times. Every position stays in the sum, so a change
//! that slows one kind of op shows; only repetitions are dropped.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One timed call: how many ops it stands for, how long it took,
/// whether it succeeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Which repeated piece of work this was; `None` for one-off calls
    /// (probes after the timed loop), which are accounted but not rated.
    pub position: Option<u32>,
    /// Ops the call stands for (1 step, or all requests of a load point).
    pub ops: u64,
    /// Host seconds the call took.
    pub secs: f64,
    /// Whether the call returned `Ok` and every later check passed.
    pub ok: bool,
}

/// The record of a timed loop.
#[derive(Debug, Default)]
pub struct OpLog {
    records: Vec<OpRecord>,
    reasons: Vec<String>,
}

/// Failure reasons kept for the report; the rest are only counted.
const REASONS_KEPT: usize = 8;

impl OpLog {
    /// An empty log.
    pub fn new() -> Self {
        OpLog::default()
    }

    fn note(&mut self, why: String) {
        if self.reasons.len() < REASONS_KEPT {
            self.reasons.push(why);
        }
    }

    /// Runs and times `f` as `ops` ops at `position`. Returns its value,
    /// or `None` if it panicked or returned `Err` (the ops are then
    /// counted as failed).
    pub fn run<T>(
        &mut self,
        position: Option<u32>,
        ops: u64,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let secs = start.elapsed().as_secs_f64();
        let (value, why) = match outcome {
            Ok(Ok(v)) => (Some(v), None),
            Ok(Err(e)) => (None, Some(e)),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                (None, Some(format!("panic: {msg}")))
            }
        };
        self.records.push(OpRecord {
            position,
            ops,
            secs,
            ok: why.is_none(),
        });
        if let Some(why) = why {
            let at = self.records.len() - 1;
            self.note(format!("op record {at}: {why}"));
        }
        value
    }

    /// Marks the last `records` calls failed (a check over all of them
    /// did not hold).
    pub fn fail_last(&mut self, records: usize, why: &str) {
        let from = self.records.len().saturating_sub(records);
        for r in &mut self.records[from..] {
            r.ok = false;
        }
        self.note(format!("op records {from}..: {why}"));
    }

    /// Every timed call, in order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The first few failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.records.iter().map(|r| r.ops).sum()
    }

    /// Ops failed.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).map(|r| r.ops).sum()
    }

    /// Successful rated ops per host second with every position at its
    /// fastest repetition (see the module docs).
    pub fn undisturbed_rate(&self) -> f64 {
        // position → (successful calls, ops per call, fastest call).
        let mut positions: BTreeMap<u32, (u64, u64, f64)> = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.ok) {
            let Some(p) = r.position else { continue };
            let slot = positions.entry(p).or_insert((0, r.ops, f64::INFINITY));
            slot.0 += 1;
            slot.2 = slot.2.min(r.secs);
        }
        let ops: u64 = positions.values().map(|(n, ops, _)| n * ops).sum();
        let secs: f64 = positions
            .values()
            .map(|(n, _, best)| *n as f64 * best)
            .sum();
        if secs > 0.0 {
            ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Successful ops over the host seconds of every call, disturbed or
    /// not (what the traced and untraced passes are compared by).
    pub fn overall_rate(&self) -> f64 {
        let secs: f64 = self.records.iter().map(|r| r.secs).sum();
        if secs > 0.0 {
            (self.attempted() - self.failed()) as f64 / secs
        } else {
            0.0
        }
    }
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs` (0 when empty): the repetition the machine left
/// alone. (Of twelve 150 ms repetitions, over twelve runs at one seed,
/// the fastest spread 8 %, the second-fastest 20 %, the median 16 %.)
pub fn fastest(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Host seconds of one refresh, from a run of refreshes that migrate
/// back and forth between two states. `xs[0]` starts from the set-up
/// state and is different work; after it, even and odd refreshes are two
/// kinds of identical work (there and back), so the result is the mean of
/// the two kinds' fastest. With nothing repeated, `xs[0]` stands in.
pub fn fastest_there_and_back(xs: &[f64]) -> f64 {
    let repeats = xs.get(1..).unwrap_or_default();
    let kind =
        |parity: usize| -> Vec<f64> { repeats.iter().skip(parity).step_by(2).copied().collect() };
    match (kind(0), kind(1)) {
        (there, back) if !back.is_empty() => (fastest(&there) + fastest(&back)) / 2.0,
        (there, _) if !there.is_empty() => fastest(&there),
        _ => fastest(xs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn err_and_panic_are_failures_and_leave_the_rate() {
        let mut log = OpLog::new();
        for i in 0..10u32 {
            log.run(Some(i % 5), 1, || {
                std::thread::sleep(Duration::from_millis(2));
                match i {
                    // What `UGache::consider_refresh` returns when the LP fails.
                    3 => Err("policy LP failed: Infeasible".to_string()),
                    7 => panic!("entry 9 out of range"),
                    _ => Ok(()),
                }
            });
        }
        assert_eq!(log.attempted(), 10);
        assert_eq!(log.failed(), 2);
        assert!(log.reasons()[0].contains("policy LP failed"));
        assert!(log.reasons()[1].contains("entry 9 out of range"));
        // Eight good ops of at least 2 ms each: never 10 ops' worth.
        assert!(log.undisturbed_rate() <= 8.0 / 0.016 + 1.0);
        assert!(log.overall_rate() <= 8.0 / 0.020 + 1.0);
    }

    #[test]
    fn a_position_takes_its_fastest_repetition_and_every_position_counts() {
        let mut log = OpLog::new();
        // Position 0 is fast, position 1 is slow; round 1 is disturbed.
        for (position, ms) in [(0, 2), (1, 8), (0, 6), (1, 24), (0, 2), (1, 8)] {
            log.run(Some(position), 1, || {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            });
        }
        log.run(None, 1, || {
            std::thread::sleep(Duration::from_millis(50));
            Ok(())
        });
        let rate = log.undisturbed_rate();
        // 6 ops in 3 × (2 + 8) ms, not in the 50 ms that elapsed — and
        // not at position 0's speed alone either.
        assert!((150.0..=200.0).contains(&rate), "rate {rate}");
        assert_eq!(log.attempted(), 7);
    }

    #[test]
    fn a_round_failed_afterwards_leaves_the_rate() {
        let mut log = OpLog::new();
        for i in 0..4 {
            log.run(Some(i % 2), 100, || Ok(()));
        }
        let before = log.undisturbed_rate();
        log.fail_last(2, "sim_p99_us differs from round 0");
        assert_eq!((log.attempted(), log.failed()), (400, 200));
        assert!(before > 0.0 && log.undisturbed_rate() > 0.0);
        log.fail_last(4, "everything differs");
        assert_eq!(log.undisturbed_rate(), 0.0);
    }

    #[test]
    fn median_and_fastest() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
        // First differs; then there: 3, 2.5; back: 6, 5.
        assert_eq!(fastest_there_and_back(&[0.1, 3.0, 6.0, 2.5, 5.0]), 3.75);
        assert_eq!(fastest_there_and_back(&[0.1, 3.0]), 3.0);
        assert_eq!(fastest_there_and_back(&[1.0]), 1.0);
        assert_eq!(fastest_there_and_back(&[]), 0.0);
    }
}
