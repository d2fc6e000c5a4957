//! `dlr_refresh`: DLRM inference over CR on Server C while the hot set
//! drifts and the Refresher rewrites the cache.
//!
//! The same cache, written while read. A cycle is steady steps, then a
//! forced refresh: `consider_refresh(true)` re-solves the policy on the
//! serving path, and steps continue — each followed by a clock tick —
//! while the Refresher evicts and inserts arena rows and finally swaps
//! the location tables. Before each refresh every key is rotated
//! half-way round its table (fig17's drift), forwards and backwards in
//! turn. The sampler reports what it saw since the previous refresh
//! began, so each refresh solves for the hot set that has just been
//! rotated away: the cache chases the drift one cycle behind, and every
//! refresh after the first moves the whole cache.

use super::{
    checked_step, cold_setups, gather_buffer, mean, traced_step, EndToEndValues, RunArgs,
    SystemSpec, Traced, Untraced,
};
use crate::oplog::{fastest_there_and_back, OpLog};
use crate::probes::{baseline_speedup, fine_grained_refresh, REFRESH_TICK_SECS};
use crate::trace::{Layer, Recorder};
use emb_util::stats::percentile;
use emb_workload::dlr::DlrHotness;
use emb_workload::{dlr_preset, DlrDataset, DlrDatasetId, DlrWorkload, Trace};
use gpu_platform::Platform;
use std::time::Instant;
use ugache::apps::dlr::dlr_cache_capacity;
use ugache::UGacheConfig;

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Divisor on CR's paper-scale table sizes.
    pub dlr_scale: usize,
    /// Requests per GPU per step.
    pub requests_per_gpu: usize,
    /// Batches recorded at set-up and replayed cyclically.
    pub recorded: usize,
    /// Steady steps before each refresh.
    pub steady_steps: usize,
}

/// The shape the benchmark runs.
pub const SPEC: Spec = Spec {
    dlr_scale: 4096,
    requests_per_gpu: 1024,
    recorded: 32,
    steady_steps: 150,
};

/// Cycles of the timed loop at scale 1 (~2 s each on the reference box).
const CYCLES: usize = 8;

/// Rotates every key half-way round its table (fig17's `drift_keys`).
/// `forward` and backward rotations are inverses for odd table sizes too.
pub fn rotate(dataset: &DlrDataset, keys_per_gpu: &[Vec<u32>], forward: bool) -> Vec<Vec<u32>> {
    keys_per_gpu
        .iter()
        .map(|keys| {
            let mut rotated: Vec<u32> = keys
                .iter()
                .map(|&k| {
                    let table = match dataset.table_offsets.binary_search(&(k as u64)) {
                        Ok(t) => t,
                        Err(next) => next - 1,
                    };
                    let (offset, size) = (dataset.table_offsets[table], dataset.table_sizes[table]);
                    let shift = if forward { size / 2 } else { size - size / 2 };
                    (offset + (k as u64 - offset + shift) % size) as u32
                })
                .collect();
            rotated.sort_unstable();
            rotated.dedup();
            rotated
        })
        .collect()
}

/// Everything set-up generates.
pub struct Inputs {
    /// Server C, CR's tables, analytic hotness of the unrotated stream.
    pub system: SystemSpec,
    /// Recorded batches and their rotated twins: `records[0]` is the
    /// stream as generated, `records[1]` the same batches rotated.
    pub records: [Vec<Vec<Vec<u32>>>; 2],
}

impl Inputs {
    /// Generates the inputs from `seed`.
    pub fn generate(rec: &mut Recorder, seed: u64, spec: &Spec) -> Inputs {
        let platform = Platform::server_c();
        let dataset = dlr_preset(DlrDatasetId::Cr, spec.dlr_scale);
        let cap = dlr_cache_capacity(&platform, &dataset);
        let mut workload = DlrWorkload::new(
            dataset.clone(),
            spec.requests_per_gpu,
            platform.num_gpus(),
            seed,
        );
        let hotness = rec.span("hotness", Layer::EmbWorkload, || {
            workload.hotness(DlrHotness::Analytic)
        });
        let accesses = rec.span("measure_accesses_per_iter", Layer::EmbWorkload, || {
            workload.clone().measure_accesses_per_iter(1)
        });
        let trace = rec.span("dlr_batches", Layer::EmbWorkload, || {
            Trace::capture(
                &mut workload,
                spec.recorded,
                seed,
                dataset.num_entries() as u64,
                "dlr/cr@server_c",
            )
        });
        rec.count("dlr_batches", spec.recorded as f64);
        let rotated = trace
            .records
            .iter()
            .map(|batch| rotate(&dataset, batch, true))
            .collect();

        // fig17's configuration, with finer update batches.
        let mut cfg = UGacheConfig::new(dataset.entry_bytes, accesses);
        cfg.sample_stride = 4;
        fine_grained_refresh(&mut cfg, cap);
        Inputs {
            system: SystemSpec {
                platform,
                num_entries: dataset.num_entries(),
                dim: dataset.dim,
                hotness,
                cap,
                cfg,
            },
            records: [trace.records, rotated],
        }
    }
}

/// Where the cyclic schedule stands: which key set is live, and whether
/// the next step must start a refresh.
struct Schedule {
    spec: Spec,
    cycles: usize,
    cycle: usize,
    steady_left: usize,
    rotated: bool,
    step: usize,
}

/// What the next step has to do besides stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    /// A plain step.
    Step,
    /// Start a refresh first, then step.
    Refresh,
    /// All cycles done.
    Done,
}

impl Schedule {
    fn new(spec: Spec, cycles: usize) -> Self {
        Schedule {
            spec,
            cycles,
            cycle: 0,
            steady_left: spec.steady_steps,
            rotated: false,
            step: 0,
        }
    }

    /// Advances the schedule; `refresh_active` is the system's state now.
    fn next(&mut self, refresh_active: bool) -> Due {
        if refresh_active {
            return Due::Step;
        }
        if self.steady_left > 0 {
            self.steady_left -= 1;
            return Due::Step;
        }
        // The steady phase is over and no refresh runs: either the
        // cycle's refresh is due, or it has just completed.
        if self.cycle == self.cycles {
            return Due::Done;
        }
        self.rotated = !self.rotated;
        self.cycle += 1;
        // The last cycle ends when its refresh does; the others go on
        // into the next steady phase.
        self.steady_left = if self.cycle == self.cycles {
            0
        } else {
            self.spec.steady_steps
        };
        Due::Refresh
    }

    /// The batch the current step serves, and its position: steps that
    /// replay the same batch of the same key set in the same phase
    /// (steady, refreshing, starting a refresh) do the same work.
    fn batch<'a>(
        &mut self,
        inputs: &'a Inputs,
        due: Due,
        refreshing: bool,
    ) -> (u32, &'a [Vec<u32>]) {
        let set = &inputs.records[usize::from(self.rotated)];
        let index = self.step % set.len();
        self.step += 1;
        let phase = match due {
            Due::Refresh => 2,
            _ if refreshing => 1,
            _ => 0,
        };
        let position = (phase * 2 + usize::from(self.rotated)) * set.len() + index;
        (position as u32, &set[index])
    }
}

fn scaled_spec(args: &RunArgs) -> (Spec, usize) {
    // Below one cycle's worth of ops, shorten the steady phase instead.
    let cycles = args.scaled(CYCLES, 1);
    let mut spec = SPEC;
    if args.scale * (CYCLES as f64) < 1.0 {
        spec.steady_steps = args.scaled(CYCLES * SPEC.steady_steps, 2);
    }
    (spec, cycles)
}

/// The untraced pass.
///
/// # Errors
///
/// Fails only if set-up fails; failed ops are counted, not returned.
pub fn run(args: &RunArgs) -> Result<Untraced, String> {
    let ((inputs, mut u), setup_s) = cold_setups(3, || {
        let inputs = Inputs::generate(&mut Recorder::new(), args.seed, &SPEC);
        let u = inputs.system.build()?;
        Ok((inputs, u))
    })?;
    let host = inputs.system.host();
    let mut out = gather_buffer(inputs.records.iter().flatten(), inputs.system.dim);
    let (spec, cycles) = scaled_spec(args);

    let mut log = OpLog::new();
    let mut schedule = Schedule::new(spec, cycles);
    let mut sim_secs = Vec::new();
    let mut first_steady = Vec::new();
    let mut refresh_host = Vec::new();
    loop {
        let refreshing = u.refresh_active();
        let due = schedule.next(refreshing);
        if due == Due::Done {
            break;
        }
        let (position, batch) = schedule.batch(&inputs, due, refreshing);
        let salt = schedule.step;
        // The re-solve that starts a refresh is an op of its own (it can
        // fail) but not a step: it is timed into `refresh_s`, not into
        // `ops_per_s`.
        let mut refresh_secs = 0.0;
        if due == Due::Refresh {
            let started = log.run(None, 1, || {
                let start = Instant::now();
                if !u.consider_refresh(true)? {
                    return Err("a forced refresh did not start".to_string());
                }
                Ok(start.elapsed().as_secs_f64())
            });
            match started {
                Some(secs) => refresh_secs += secs,
                // Without a refresh the schedule would wait for one forever.
                None => break,
            }
        }
        let stepped = log.run(Some(position), 1, || {
            let makespan = checked_step(&mut u, &host, batch, &mut out, salt)?;
            let mut tick_secs = 0.0;
            if u.refresh_active() {
                let start = Instant::now();
                u.advance_clock(REFRESH_TICK_SECS);
                tick_secs = start.elapsed().as_secs_f64();
                if !u.refresh_active() {
                    u.placement().validate()?;
                }
            }
            Ok((makespan.as_secs_f64(), tick_secs))
        });
        let Some((makespan, tick_secs)) = stepped else {
            continue;
        };
        refresh_secs += tick_secs;
        sim_secs.push(makespan);
        if schedule.cycle == 0 {
            first_steady.push(makespan);
        }
        if due == Due::Refresh {
            refresh_host.push(0.0);
        }
        if let Some(total) = refresh_host.last_mut() {
            *total += refresh_secs;
        }
    }
    let ops_per_s = log.undisturbed_rate();
    let sim_step = mean(&sim_secs);

    // The first steady phase runs the unrotated stream on the placement
    // solved from the analytic hotness — what the baselines get.
    let replayed = first_steady.len().min(inputs.records[0].len());
    let speedup = baseline_speedup(
        &mut log,
        &inputs.system,
        &inputs.records[0][..replayed],
        mean(&first_steady[..replayed]),
    );

    let requests_per_step = (SPEC.requests_per_gpu * inputs.system.platform.num_gpus()) as f64;
    Ok(Untraced {
        values: EndToEndValues {
            setup_s,
            ops_per_s,
            refresh_s: fastest_there_and_back(&refresh_host),
            sim_step_us: sim_step * 1e6,
            sim_p99_us: percentile(&sim_secs, 99.0).unwrap_or(0.0) * 1e6,
            sim_max_rate_rps: if sim_step > 0.0 {
                requests_per_step / sim_step
            } else {
                0.0
            },
            sim_refresh_s: mean(u.refresh_history()),
            sim_speedup_geomean: speedup,
        },
        notes: vec![format!(
            "{} steps in {cycles} cycles of {} steady steps + a forced refresh; {} refreshes completed, simulated seconds each: {:?}",
            sim_secs.len(),
            spec.steady_steps,
            u.refresh_history().len(),
            u.refresh_history()
        )],
        log,
    })
}

/// The traced pass: one cycle with a tenth of the steady steps, a
/// rotation and a whole refresh, through shadow and real.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn run_traced(args: &RunArgs) -> Result<Traced, String> {
    let mut spec = SPEC;
    spec.steady_steps = args.scaled(CYCLES * SPEC.steady_steps / 10, 2);
    traced_cycles(args.seed, &spec, 1)
}

/// `cycles` traced cycles of a workload of shape `spec`.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn traced_cycles(seed: u64, spec: &Spec, cycles: usize) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let inputs = Inputs::generate(&mut rec, seed, spec);
    let mut shadow = inputs.system.build_shadow(&mut rec)?;
    let mut u = rec.span("UGache::build", Layer::UGache, || inputs.system.build())?;
    let host = inputs.system.host();
    let mut out = gather_buffer(inputs.records.iter().flatten(), inputs.system.dim);

    // The steady steps untraced, on a system of their own.
    let mut reference = inputs.system.build()?;
    let mut plain = OpLog::new();
    for i in 0..spec.steady_steps {
        let batch = &inputs.records[0][i % inputs.records[0].len()];
        plain.run(None, 1, || {
            checked_step(&mut reference, &host, batch, &mut out, i)
        });
    }
    drop(reference);

    let mut log = OpLog::new();
    let mut schedule = Schedule::new(*spec, cycles);
    loop {
        let due = schedule.next(u.refresh_active());
        if due == Due::Done {
            break;
        }
        let (_, batch) = schedule.batch(&inputs, due, false);
        let salt = schedule.step;
        let stepped = log.run(None, 1, || {
            let refresh = due == Due::Refresh;
            traced_step(
                &mut rec,
                &mut shadow,
                &mut u,
                &host,
                batch,
                &mut out,
                salt,
                refresh,
            )
        });
        if stepped.is_none() && due == Due::Refresh && !u.refresh_active() {
            break;
        }
    }
    if shadow.refresh_history() != u.refresh_history() {
        log.fail_last(1, "shadow and real refresh durations differ");
    }
    let predicted = shadow.predicted_extraction_secs();
    Ok(Traced {
        untraced_ops_per_s: plain.overall_rate(),
        extras: vec![("predicted_secs", predicted)],
        log,
        rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_round_trips_and_stays_in_table() {
        let dataset = dlr_preset(DlrDatasetId::Cr, 1 << 16);
        assert!(dataset.table_sizes.iter().any(|s| s % 2 == 1));
        let keys: Vec<Vec<u32>> = vec![(0..dataset.num_entries() as u32).step_by(3).collect()];
        let there = rotate(&dataset, &keys, true);
        assert_ne!(there, keys);
        assert_eq!(rotate(&dataset, &there, false), keys);
    }

    #[test]
    fn schedule_rotates_before_every_refresh() {
        let spec = Spec {
            steady_steps: 2,
            ..SPEC
        };
        let mut s = Schedule::new(spec, 4);
        let mut seen = Vec::new();
        // A refresh that lasts one step after the one that starts it.
        let mut active = false;
        loop {
            let due = s.next(active);
            if due == Due::Done {
                break;
            }
            seen.push((due, s.rotated));
            active = due == Due::Refresh;
        }
        let refreshes: Vec<bool> = seen
            .iter()
            .filter(|(d, _)| *d == Due::Refresh)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(refreshes, vec![true, false, true, false]);
        assert_eq!(seen.len(), 4 * 2 + 4 + 4);
    }
}
