//! Parallel execution of repro targets.
//!
//! Targets are first folded into [`Unit`]s (rows of the target table
//! in [`crate::figures`]) — fig10 and fig11 render from the same
//! computation, so they share one unit — then each unit's
//! pure `compute` runs on a scoped worker pool ([`std::thread::scope`],
//! no external dependencies). Computation never prints; rendering and
//! artifact writing happen afterwards, sequentially, in the caller's
//! requested order. Results are therefore identical for any `--jobs`
//! value: parallelism only changes wall-clock time.
//!
//! Each unit computes inside its own [`emb_telemetry::collect`] scope,
//! opened on whichever thread runs it. Telemetry is therefore attributed
//! per unit by construction — worker scheduling cannot leak one unit's
//! counters into another's — which is what keeps artifact `metrics`
//! blocks and `--trace` streams byte-identical across `--jobs` values.

use crate::figures::{TargetData, Unit};
use emb_scenario::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A unit's computed payload together with the telemetry recorded while
/// computing it.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// The figure/table payload.
    pub data: TargetData,
    /// Metrics and events collected during this unit's compute only.
    pub telemetry: emb_telemetry::Report,
}

impl Unit {
    /// Runs [`Unit::compute`] inside a fresh telemetry scope and returns
    /// the payload plus everything recorded while computing it.
    ///
    /// Besides the subsystem hooks (memsim, cache, policy, ugache), the
    /// scope records a `bench.computes` counter and the scenario scale
    /// gauges, so every unit's metrics block is non-empty even for
    /// targets that never enter the simulator.
    pub fn compute_with_telemetry(self, s: &Scenario) -> UnitResult {
        let (data, telemetry) = emb_telemetry::collect(|| {
            emb_telemetry::count("bench.computes", 1.0);
            emb_telemetry::gauge("bench.scenario.gnn_scale", s.gnn_scale as f64);
            emb_telemetry::gauge("bench.scenario.dlr_scale", s.dlr_scale as f64);
            self.compute(s)
        });
        UnitResult { data, telemetry }
    }
}

/// Folds an ordered target list into the deduplicated unit list that
/// must be computed, preserving first-occurrence order.
pub fn units_for(targets: &[impl AsRef<str>]) -> Vec<Unit> {
    let mut units = Vec::new();
    for unit in targets.iter().filter_map(|t| Unit::for_target(t.as_ref())) {
        if !units.contains(&unit) {
            units.push(unit);
        }
    }
    units
}

/// Computes every unit, using up to `jobs` worker threads.
///
/// Results come back in `units` order regardless of which worker
/// finished first, so downstream rendering and artifact writing are
/// deterministic. Each unit runs in its own telemetry scope (see
/// [`Unit::compute_with_telemetry`]), so the returned reports are also
/// independent of `jobs`.
///
/// # Panics
///
/// Propagates a panic from any unit's computation after all workers
/// finish.
pub fn run_units(s: &Scenario, units: &[Unit], jobs: usize) -> Vec<UnitResult> {
    if jobs <= 1 || units.len() <= 1 {
        return units.iter().map(|u| u.compute_with_telemetry(s)).collect();
    }
    let slots: Vec<Mutex<Option<UnitResult>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(units.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(idx) else { break };
                let result = unit.compute_with_telemetry(s);
                *slots[idx].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every unit computed")
        })
        .collect()
}
