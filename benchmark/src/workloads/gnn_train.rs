//! `gnn_train`: GraphSAGE-supervised training steps over PA on Server B.
//!
//! Read-only steady state with big batches on a non-uniform topology.
//! Recorded batches are replayed cyclically; a step is
//! `UGache::process_iteration` plus `UGache::gather` on all eight GPUs
//! into a reused buffer. Nothing but the cache and the timing layer runs
//! in the timed loop.

use super::{
    checked_step, cold_setups, gather_buffer, mean, shrink, traced_step, EndToEndValues, RunArgs,
    SystemSpec, Traced, Untraced,
};
use crate::oplog::OpLog;
use crate::probes::{baseline_speedup, fine_grained_refresh, RefreshProbe};
use crate::trace::{Layer, Recorder};
use emb_util::stats::percentile;
use emb_workload::{gnn_preset, GnnDatasetId, GnnModel, GnnWorkload, Trace};
use gpu_platform::Platform;
use ugache::apps::gnn::gnn_cache_capacity;
use ugache::{SystemKind, UGacheConfig};

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Divisor on PA's paper-scale vertex count.
    pub gnn_scale: usize,
    /// Seed vertices per GPU per step.
    pub seeds_per_gpu: usize,
    /// Batches recorded at set-up and replayed cyclically.
    pub recorded: usize,
}

/// The shape the benchmark runs. Each recorded batch costs ~45 ms of
/// neighbourhood sampling and set-up runs three times, hence 32.
pub const SPEC: Spec = Spec {
    gnn_scale: 2048,
    seeds_per_gpu: 1024,
    recorded: 32,
};

/// Steps of the timed loop at scale 1 (~5 ms each on the reference box).
const STEPS: usize = 1600;

/// Everything set-up generates; the timed loop sees nothing else.
pub struct Inputs {
    /// Server B, PA's table, pre-sampling hotness.
    pub system: SystemSpec,
    /// Recorded batches, outer = step, inner = GPU.
    pub records: Vec<Vec<Vec<u32>>>,
}

impl Inputs {
    /// Generates the inputs from `seed`.
    pub fn generate(rec: &mut Recorder, seed: u64, spec: &Spec) -> Inputs {
        let platform = Platform::server_b();
        let gpus = platform.num_gpus();
        let dataset = rec.span("gnn_preset", Layer::EmbGraph, || {
            gnn_preset(GnnDatasetId::Pa, spec.gnn_scale, seed)
        });
        let cap = gnn_cache_capacity(&platform, &dataset, SystemKind::UGache);
        let (num_entries, dim, entry_bytes) =
            (dataset.num_entries(), dataset.dim, dataset.entry_bytes);
        let mut workload = GnnWorkload::new(
            dataset,
            GnnModel::GraphSageSupervised,
            spec.seeds_per_gpu,
            gpus,
            seed,
        );
        let hotness = rec.span("hotness", Layer::EmbWorkload, || {
            workload.profile_hotness(2)
        });
        let accesses = rec.span("measure_accesses_per_iter", Layer::EmbWorkload, || {
            workload.clone().measure_accesses_per_iter(2)
        });
        // One record per capture: a captured batch keeps the sampler's
        // per-visit capacity (~9 MB) until it is shrunk.
        let mut records = Vec::with_capacity(spec.recorded);
        for _ in 0..spec.recorded {
            let trace: Trace = rec.span("gnn_batches", Layer::EmbWorkload, || {
                Trace::capture(
                    &mut workload,
                    1,
                    seed,
                    num_entries as u64,
                    "gnn/pa/sage_sup@server_b",
                )
            });
            let mut captured = trace.records;
            shrink(&mut captured);
            records.extend(captured);
        }
        rec.count("gnn_batches", spec.recorded as f64);
        let mut cfg = UGacheConfig::new(entry_bytes, accesses);
        fine_grained_refresh(&mut cfg, cap);
        Inputs {
            system: SystemSpec {
                platform,
                num_entries,
                dim,
                hotness,
                cap,
                cfg,
            },
            records,
        }
    }
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
    let mut out = gather_buffer(&inputs.records, inputs.system.dim);
    let steps = args.scaled(STEPS, 10);

    let mut log = OpLog::new();
    let mut probe = RefreshProbe::new(inputs.system.build()?, &inputs.records);
    let mut sim_secs = Vec::with_capacity(steps);
    for i in 0..steps {
        let batch = &inputs.records[i % inputs.records.len()];
        let position = (i % inputs.records.len()) as u32;
        let makespan = log.run(Some(position), 1, || {
            checked_step(&mut u, &host, batch, &mut out, i)
        });
        sim_secs.extend(makespan.map(|m| m.as_secs_f64()));
        if position as usize + 1 == inputs.records.len() || i + 1 == steps {
            probe.keep_pace(&mut log, i + 1, steps);
        }
    }
    let ops_per_s = log.undisturbed_rate();
    let sim_step = mean(&sim_secs);

    // One pass over the recorded batches is what the baselines replay.
    let first_pass = &sim_secs[..sim_secs.len().min(inputs.records.len())];
    let speedup = baseline_speedup(
        &mut log,
        &inputs.system,
        &inputs.records[..first_pass.len()],
        mean(first_pass),
    );
    let refresh = probe.finish();

    let seeds_per_step = (SPEC.seeds_per_gpu * inputs.system.platform.num_gpus()) as f64;
    Ok(Untraced {
        values: EndToEndValues {
            setup_s,
            ops_per_s,
            refresh_s: refresh.refresh_s,
            sim_step_us: sim_step * 1e6,
            sim_p99_us: percentile(&sim_secs, 99.0).unwrap_or(0.0) * 1e6,
            sim_max_rate_rps: if sim_step > 0.0 { seeds_per_step / sim_step } else { 0.0 },
            sim_refresh_s: refresh.sim_refresh_s,
            sim_speedup_geomean: speedup,
        },
        notes: vec![
            format!(
                "{steps} steps over {} recorded batches of {} seeds/GPU; sim_max_rate_rps counts seed vertices",
                inputs.records.len(),
                SPEC.seeds_per_gpu
            ),
            refresh.note,
        ],
        log,
    })
}

/// The traced pass: a tenth of the steps, through shadow and real.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn run_traced(args: &RunArgs) -> Result<Traced, String> {
    traced_steps(args.seed, &SPEC, args.scaled(STEPS / 10, 10))
}

/// `steps` traced steps of a workload of shape `spec`.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn traced_steps(seed: u64, spec: &Spec, steps: usize) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let inputs = Inputs::generate(&mut rec, seed, spec);
    let mut shadow = inputs.system.build_shadow(&mut rec)?;
    let mut u = rec.span("UGache::build", Layer::UGache, || inputs.system.build())?;
    let host = inputs.system.host();
    let mut out = gather_buffer(&inputs.records, inputs.system.dim);

    // The same steps untraced, on a system of their own, for the overhead ratio.
    let mut reference = inputs.system.build()?;
    let mut plain = OpLog::new();
    for i in 0..steps {
        let batch = &inputs.records[i % inputs.records.len()];
        plain.run(None, 1, || {
            checked_step(&mut reference, &host, batch, &mut out, i)
        });
    }
    drop(reference);

    let mut log = OpLog::new();
    for i in 0..steps {
        let batch = &inputs.records[i % inputs.records.len()];
        log.run(None, 1, || {
            traced_step(
                &mut rec,
                &mut shadow,
                &mut u,
                &host,
                batch,
                &mut out,
                i,
                false,
            )
        });
    }
    let predicted = shadow.predicted_extraction_secs();
    Ok(Traced {
        untraced_ops_per_s: plain.overall_rate(),
        extras: vec![("predicted_secs", predicted)],
        log,
        rec,
    })
}
