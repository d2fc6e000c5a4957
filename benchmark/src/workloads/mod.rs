//! The four workloads. Each has an untraced pass, from which every
//! end-to-end metric comes, and a traced pass over a tenth of the ops,
//! from which every per-layer metric comes.

pub mod dlr_refresh;
pub mod eval_sweep;
pub mod gnn_train;
pub mod serve_online;

use crate::oplog::{median, OpLog};
use crate::trace::Recorder;
use std::time::Instant;

/// What a run was asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Multiplier on the op counts: 1 at the catalog's `RUN_SECONDS`,
    /// 0.01 of that for a smoke run. Shapes never scale.
    pub scale: f64,
}

impl RunArgs {
    /// `round(n × scale)`, at least `floor`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }
}

/// The end-to-end values a workload measures (`peak_rss_mb` is read by
/// the caller when the process is about to exit).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EndToEndValues {
    /// Median of the cold set-ups, host seconds.
    pub setup_s: f64,
    /// Median chunk's ops per host second.
    pub ops_per_s: f64,
    /// Median host seconds per refresh.
    pub refresh_s: f64,
    /// Mean simulated makespan per step, µs.
    pub sim_step_us: f64,
    /// p99 simulated step makespan (request latency on `serve_online`), µs.
    pub sim_p99_us: f64,
    /// Highest request rate the modelled server sustains, 1/s.
    pub sim_max_rate_rps: f64,
    /// Mean simulated seconds per completed refresh.
    pub sim_refresh_s: f64,
    /// Geomean over platform×app pairs of best baseline ÷ UGache.
    pub sim_speedup_geomean: f64,
}

/// Result of an untraced pass.
#[derive(Debug)]
pub struct Untraced {
    /// Every op attempted, with failures.
    pub log: OpLog,
    /// The measured values.
    pub values: EndToEndValues,
    /// Lines printed beside the metrics (e.g. the serving ladder).
    pub notes: Vec<String>,
}

/// Result of a traced pass.
#[derive(Debug)]
pub struct Traced {
    /// Every traced op, with failures.
    pub log: OpLog,
    /// The spans and counts.
    pub rec: Recorder,
    /// Ops per host second of the same ops run untraced, for
    /// `bench.trace_overhead_ratio`.
    pub untraced_ops_per_s: f64,
    /// Per-layer values only this workload can compute.
    pub extras: Vec<(&'static str, f64)>,
}

/// Sets up `times` times from nothing, dropping each result before the
/// next is built, and returns the last with the median time. A workload
/// whose set-up is short repeats it more often.
pub fn cold_setups<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// Drops the spare capacity generators leave on key lists, which is most
/// of a recorded GNN batch's footprint (the sampler reserves one slot per
/// visit, several times the unique keys). Each list is copied to a fresh
/// exact-size allocation: shrinking in place would keep every oversized
/// block's head alive and leave holes just too small for the next batch.
pub fn shrink(records: &mut [Vec<Vec<u32>>]) {
    for keys in records.iter_mut().flatten() {
        *keys = keys.as_slice().to_vec();
    }
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Total keys over a batch's GPUs.
pub fn batch_keys(keys_per_gpu: &[Vec<u32>]) -> usize {
    keys_per_gpu.iter().map(Vec::len).sum()
}

use crate::check::{bytes_match_keys, rows_match_host, stats_cover_keys, ROWS_SAMPLED_PER_STEP};
use crate::probes::REFRESH_TICK_SECS;
use crate::shadow::Shadow;
use crate::trace::Layer;
use cache_policy::Hotness;
use emb_cache::HostTable;
use emb_util::SimTime;
use gpu_platform::Platform;
use ugache::{UGache, UGacheConfig};

/// What it takes to stand up a `UGache` over one table — the part of a
/// workload's generated inputs that the three workloads running one
/// share.
pub struct SystemSpec {
    /// The modelled server.
    pub platform: Platform,
    /// Entries of the embedding table.
    pub num_entries: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Hotness the first placement is solved for.
    pub hotness: Hotness,
    /// Cache entries per GPU.
    pub cap: usize,
    /// System configuration.
    pub cfg: UGacheConfig,
}

impl SystemSpec {
    /// The (procedural) host table.
    pub fn host(&self) -> HostTable {
        HostTable::procedural(self.num_entries, self.dim)
    }

    fn caps(&self) -> Vec<usize> {
        vec![self.cap; self.platform.num_gpus()]
    }

    /// Solves, fills and stands up the real system.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn build(&self) -> Result<UGache, String> {
        UGache::build(
            self.platform.clone(),
            self.host(),
            &self.hotness,
            self.caps(),
            self.cfg,
        )
    }

    /// Builds the shadow of [`SystemSpec::build`], span by span.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn build_shadow(&self, rec: &mut Recorder) -> Result<Shadow, String> {
        Shadow::build(
            rec,
            self.platform.clone(),
            self.host(),
            &self.hotness,
            self.caps(),
            self.cfg,
        )
    }
}

/// A reused gather buffer large enough for any one GPU's batch.
pub fn gather_buffer<'a>(
    records: impl IntoIterator<Item = &'a Vec<Vec<u32>>>,
    dim: usize,
) -> Vec<f32> {
    let most = records
        .into_iter()
        .flatten()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    vec![0.0; most * dim]
}

/// One training/inference step on the real system, checked: the timed
/// iteration, then a functional gather on every GPU into `out`.
/// `salt` varies which gathered rows are compared with the host table.
///
/// # Errors
///
/// Fails if simulated bytes, gather counts or sampled rows are wrong.
pub fn checked_step(
    u: &mut UGache,
    host: &HostTable,
    keys_per_gpu: &[Vec<u32>],
    out: &mut [f32],
    salt: usize,
) -> Result<SimTime, String> {
    let report = u.process_iteration(keys_per_gpu);
    bytes_match_keys(&report.extract, keys_per_gpu, host.entry_bytes())?;
    let rows = ROWS_SAMPLED_PER_STEP / keys_per_gpu.len().max(1);
    for (gpu, keys) in keys_per_gpu.iter().enumerate() {
        let out = &mut out[..keys.len() * host.dim()];
        let stats = u.gather(gpu, keys, out);
        stats_cover_keys(&stats, keys.len())?;
        rows_match_host(host, keys, out, rows, salt + gpu)?;
    }
    Ok(report.extract.makespan)
}

/// The same step in the traced pass: the shadow runs it inside an op
/// span, its asides run after the op, then the real system runs it and
/// the two simulated outcomes must be equal to the bit. With
/// `start_refresh` both first force a refresh; while one is active both
/// tick their clocks after the step, as `dlr_refresh` does.
///
/// # Errors
///
/// Fails on any [`checked_step`] failure, if a refresh fails to start or
/// ends in an invalid placement, or if shadow and real differ.
#[allow(clippy::too_many_arguments)]
pub fn traced_step(
    rec: &mut Recorder,
    shadow: &mut Shadow,
    u: &mut UGache,
    host: &HostTable,
    keys_per_gpu: &[Vec<u32>],
    out: &mut [f32],
    salt: usize,
    start_refresh: bool,
) -> Result<SimTime, String> {
    let rows = ROWS_SAMPLED_PER_STEP / keys_per_gpu.len().max(1);
    let started = |r: Result<bool, String>| {
        r.and_then(|s| {
            s.then_some(())
                .ok_or("a forced refresh did not start".to_string())
        })
    };

    let op = rec.enter_op();
    let mut checked = Ok(());
    if start_refresh {
        checked = started(shadow.consider_refresh(rec, true));
    }
    let step = shadow.process_iteration(rec, keys_per_gpu);
    checked =
        checked.and_then(|()| bytes_match_keys(&step.outcome, keys_per_gpu, host.entry_bytes()));
    let mut shadow_stats = Vec::with_capacity(keys_per_gpu.len());
    for (gpu, keys) in keys_per_gpu.iter().enumerate() {
        let out = &mut out[..keys.len() * host.dim()];
        let stats = shadow.gather(rec, gpu, keys, out);
        shadow_stats.push(stats);
        checked = checked
            .and_then(|()| stats_cover_keys(&stats, keys.len()))
            .and_then(|()| rows_match_host(host, keys, out, rows, salt + gpu));
    }
    if shadow.refresh_active() {
        shadow.advance_clock(rec, REFRESH_TICK_SECS);
    }
    rec.exit(op);
    rec.count("keys", batch_keys(keys_per_gpu) as f64);
    shadow.asides(rec, &step);

    if start_refresh {
        started(rec.span("UGache::consider_refresh", Layer::UGache, || {
            u.consider_refresh(true)
        }))?;
    }
    let real = rec.span("UGache::process_iteration", Layer::UGache, || {
        u.process_iteration(keys_per_gpu)
    });
    let real_stats = rec.span("UGache::gather", Layer::UGache, || {
        keys_per_gpu
            .iter()
            .enumerate()
            .map(|(gpu, keys)| u.gather(gpu, keys, &mut out[..keys.len() * host.dim()]))
            .collect::<Vec<_>>()
    });
    if u.refresh_active() {
        u.advance_clock(REFRESH_TICK_SECS);
        if !u.refresh_active() {
            u.placement().validate()?;
        }
    }
    checked?;
    if real.extract != step.outcome
        || real_stats != shadow_stats
        || real.refresh_active != step.refresh_active
        || u.refresh_active() != shadow.refresh_active()
    {
        return Err(format!(
            "shadow (makespan {}, refresh {}) differs from UGache (makespan {}, refresh {}) in makespan, per-source bytes, per-tier key counts or refresh state",
            step.outcome.makespan,
            shadow.refresh_active(),
            real.extract.makespan,
            u.refresh_active()
        ));
    }
    if !step.refresh_active {
        rec.count("steady.steps", 1.0);
        rec.count("steady.sim_secs", step.outcome.makespan.as_secs_f64());
    }
    Ok(step.outcome.makespan)
}
