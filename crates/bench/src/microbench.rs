//! Wall-clock microbenchmarks for the optimized hot paths, plus the
//! soft bench-file regression gate (`repro bench` / `repro compare A.json
//! B.json`).
//!
//! Each microbench runs a *frozen reference* implementation and the
//! optimized implementation on identical deterministic inputs (fixed
//! seeds, fixed sizes), asserts outside the timed region that both
//! produce the same answer, and then times repeated trials of each. The
//! report records per-trial wall-clock seconds and the min-based speedup
//! (`ref_min_secs / opt_min_secs`); minima are the standard robust
//! estimator for "how fast can this code go" under scheduler noise.
//!
//! This module is the repro harness's **only sanctioned wall-clock
//! surface**: simulated results stay byte-deterministic (the equality
//! asserts pin that), and the measured seconds go into a separate
//! `BENCH_*.json` file that is gated *softly* — `compare_files` fails
//! only on large regressions (see [`REGRESSION_FACTOR`] /
//! [`SPEEDUP_LOSS_FACTOR`]), because absolute wall-clock varies across
//! machines and CI runners. Library crates remain free of wall-clock
//! reads.

use crate::json::{self, Value};
use serde::Serialize;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Schema version of the bench report file (independent of the artifact
/// schema; bump on shape changes). v2 added the per-entry `scaling`
/// thread-scaling points, v3 the per-entry `roofline` block.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// The `kind` discriminator of bench report files.
pub const BENCH_KIND: &str = "ugache-bench";

/// Worker-pool widths measured by the thread-scaling benches.
pub const SCALING_THREADS: &[usize] = &[1, 2, 4, 8];

/// Default timed trials per implementation.
pub const DEFAULT_TRIALS: usize = 5;

/// Default untimed warmup runs per implementation.
pub const DEFAULT_WARMUP: usize = 2;

/// Hard-fail when the optimized path's best trial is this many times
/// slower than the committed baseline's.
pub const REGRESSION_FACTOR: f64 = 2.5;

/// Hard-fail when the measured speedup falls below `baseline / this`.
pub const SPEEDUP_LOSS_FACTOR: f64 = 2.5;

/// Print a (non-failing) warning when the optimized path's best trial is
/// this many times slower than the baseline's.
pub const WARN_FACTOR: f64 = 1.25;

/// One thread-scaling measurement of a parallelized path.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Worker-pool width the measurement ran at.
    pub threads: usize,
    /// Fastest trial at that width.
    pub opt_min_secs: f64,
}

/// A copy pass held against what the box can do with the same bytes:
/// best-of-trials seconds for three ways of moving one set of rows, all
/// at pool width 1.
#[derive(Debug, Clone, Serialize)]
pub struct Roofline {
    /// Rows moved per trial.
    pub rows: usize,
    /// Bytes moved per trial.
    pub bytes: usize,
    /// One `copy_from_slice` of a destination's rows, contiguous in an
    /// arena slab: the ceiling for any copy of that many bytes.
    pub contiguous_min_secs: f64,
    /// One `copy_from_slice` per row, each from the slab and offset the
    /// plan names, resolved beforehand: the ceiling for copying these rows
    /// in this order.
    pub per_row_min_secs: f64,
    /// `MultiGpuCache::execute_plan` on the same plans.
    pub execute_plan_min_secs: f64,
    /// `contiguous_min_secs / execute_plan_min_secs`.
    pub of_contiguous: f64,
    /// `per_row_min_secs / execute_plan_min_secs`.
    pub of_per_row: f64,
}

/// One microbench's timings.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEntry {
    /// Microbench name (one of [`BENCH_NAMES`]).
    pub name: String,
    /// Per-trial wall-clock seconds of the frozen reference path.
    pub ref_secs: Vec<f64>,
    /// Per-trial wall-clock seconds of the optimized path.
    pub opt_secs: Vec<f64>,
    /// Fastest reference trial.
    pub ref_min_secs: f64,
    /// Fastest optimized trial.
    pub opt_min_secs: f64,
    /// `ref_min_secs / opt_min_secs`.
    pub speedup: f64,
    /// Optimized-path timings across [`SCALING_THREADS`] worker-pool
    /// widths (empty for benches without a parallel variant). Wall-clock
    /// scaling depends on the machine's core count; the committed
    /// baselines record what the baseline box measured.
    pub scaling: Vec<ScalePoint>,
    /// The optimized copy pass against the box's copy roofline (`null`
    /// for benches that move no rows).
    pub roofline: Option<Roofline>,
}

/// The whole bench report (serialized to `BENCH_*.json`).
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// [`BENCH_KIND`].
    pub kind: String,
    /// Timed trials per implementation.
    pub trials: usize,
    /// Untimed warmup runs per implementation.
    pub warmup: usize,
    /// One entry per requested microbench, in request order.
    pub benches: Vec<BenchEntry>,
}

/// Times `trials` runs of `f` after `warmup` untimed runs.
fn time_trials(trials: usize, warmup: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn entry(name: &str, ref_secs: Vec<f64>, opt_secs: Vec<f64>) -> BenchEntry {
    let ref_min_secs = min_secs(&ref_secs);
    let opt_min_secs = min_secs(&opt_secs);
    BenchEntry {
        name: name.to_string(),
        ref_secs,
        opt_secs,
        ref_min_secs,
        opt_min_secs,
        speedup: ref_min_secs / opt_min_secs,
        scaling: Vec::new(),
        roofline: None,
    }
}

fn min_secs(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Times `f` across every [`SCALING_THREADS`] pool width.
fn scale_points(trials: usize, warmup: usize, mut f: impl FnMut()) -> Vec<ScalePoint> {
    SCALING_THREADS
        .iter()
        .map(|&threads| {
            let secs =
                emb_util::pool::with_threads(threads, || time_trials(trials, warmup, &mut f));
            ScalePoint {
                threads,
                opt_min_secs: min_secs(&secs),
            }
        })
        .collect()
}

/// The f32 gather path: per-key `HashMap` probe + per-row copy
/// (reference) vs the chunked plan-then-copy gather, on a 4-GPU
/// partition cache over 400k small (DLR-style) rows and a 100k-key Zipf
/// batch. Small rows keep the copy cheap and the 160k-entry location
/// maps spill out of fast cache levels, so per-key lookup cost dominates
/// the timing. `opt` is timed at pool width 1; `scaling` times the same
/// call at every [`SCALING_THREADS`] width (on a single-core box the
/// widths time alike). `roofline` is [`gather_roofline`].
fn bench_gather(trials: usize, warmup: usize) -> BenchEntry {
    use cache_policy::{baselines, Hotness};
    use emb_cache::{HostTable, MultiGpuCache, ReferenceGatherer};
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::Platform;

    let plat = Platform::server_a();
    let n = 400_000usize;
    let dim = 8;
    let h = Hotness::new(powerlaw_hotness(n, 1.2));
    let placement = baselines::partition(&plat, &h, 40_000).expect("partition fits");
    let cache = MultiGpuCache::build(HostTable::dense(n, dim), &placement, &[40_000; 4]);
    let reference = ReferenceGatherer::new(&cache);

    let zipf = emb_util::ZipfSampler::new(n as u64, 0.9);
    let mut rng = emb_util::seed_rng(0x5EED);
    let keys: Vec<u32> = (0..100_000).map(|_| zipf.sample(&mut rng) as u32).collect();

    // Outside the timed region: both paths must agree exactly.
    let mut ref_out = vec![0.0f32; keys.len() * dim];
    let mut opt_out = vec![0.0f32; keys.len() * dim];
    for gpu in 0..4 {
        let ref_stats = reference.gather(&cache, gpu, &keys, &mut ref_out);
        let opt_stats = cache.gather(gpu, &keys, &mut opt_out);
        assert_eq!(ref_stats, opt_stats, "gather stats diverge on GPU{gpu}");
        assert_eq!(ref_out, opt_out, "gather values diverge on GPU{gpu}");
    }

    let ref_secs = time_trials(trials, warmup, || {
        for gpu in 0..4 {
            std::hint::black_box(reference.gather(&cache, gpu, &keys, &mut ref_out));
        }
    });
    let mut gather_all = || {
        for gpu in 0..4 {
            std::hint::black_box(cache.gather(gpu, &keys, &mut opt_out));
        }
    };
    let opt_secs = emb_util::pool::with_threads(1, || time_trials(trials, warmup, &mut gather_all));
    let mut e = entry("gather", ref_secs, opt_secs);
    e.scaling = scale_points(trials, warmup, gather_all);
    e.roofline = Some(gather_roofline(trials, warmup));
    e
}

/// The copy pass at the shape `benchmark/`'s `gnn_train` runs it — eight
/// destinations, 8 700 rows of 128 `f32` each, out of 18 018-row arenas
/// that together outgrow the caches, every row cached somewhere (a host
/// row here would be computed, not copied) — against one contiguous copy
/// and against bare per-row copies of the same bytes.
fn gather_roofline(trials: usize, warmup: usize) -> Roofline {
    use cache_policy::{baselines, Hotness};
    use emb_cache::{GatherPlan, HostTable, MultiGpuCache};
    use gpu_platform::Platform;
    use rand::Rng;
    const ROWS: usize = 8_700;
    const CAP: usize = 18_018;
    const DIM: usize = 128;

    let plat = Platform::server_c();
    let g = plat.num_gpus();
    let n = g * CAP;
    let h = Hotness::new(emb_util::zipf::powerlaw_hotness(n, 1.2));
    let placement = baselines::partition(&plat, &h, CAP).expect("a switch connects every pair");
    let cache = MultiGpuCache::build(HostTable::procedural(n, DIM), &placement, &vec![CAP; g]);

    let mut rng = emb_util::seed_rng(0x5EED);
    let keys: Vec<Vec<u32>> = (0..g)
        .map(|_| (0..ROWS).map(|_| rng.gen_range(0..n) as u32).collect())
        .collect();
    let plans: Vec<GatherPlan> = (0..g)
        .map(|gpu| {
            let mut plan = GatherPlan::new();
            cache.plan_gather(gpu, &keys[gpu], &mut plan);
            assert_eq!(plan.stats(gpu).host, 0, "every row is cached");
            plan
        })
        .collect();
    // Each row's slab and offset, resolved once: what `execute_plan`
    // decodes from the plan on every call.
    let sources: Vec<Vec<&[f32]>> = (0..g)
        .map(|gpu| {
            keys[gpu]
                .iter()
                .map(|&key| {
                    let arena = cache.arena(placement.access[gpu][key as usize] as usize);
                    let base = arena.offset_of(key).expect("every row is cached") as usize * DIM;
                    &arena.slab()[base..base + DIM]
                })
                .collect()
        })
        .collect();

    let mut out = vec![0.0f32; ROWS * DIM];
    // Outside the timed region: the bare loop moves what the plan moves.
    let mut planned = vec![0.0f32; ROWS * DIM];
    for (plan, rows) in plans.iter().zip(&sources) {
        cache.execute_plan(plan, &mut planned);
        for (row, src) in out.chunks_exact_mut(DIM).zip(rows) {
            row.copy_from_slice(src);
        }
        assert_eq!(
            out, planned,
            "the bare per-row copy diverges from the plan's"
        );
    }

    let (contiguous, per_row, execute_plan) = emb_util::pool::with_threads(1, || {
        let contiguous = time_trials(trials, warmup, || {
            for gpu in 0..g {
                out.copy_from_slice(&cache.arena(gpu).slab()[..ROWS * DIM]);
                std::hint::black_box(&mut out);
            }
        });
        let per_row = time_trials(trials, warmup, || {
            for rows in &sources {
                for (row, src) in out.chunks_exact_mut(DIM).zip(rows) {
                    row.copy_from_slice(src);
                }
                std::hint::black_box(&mut out);
            }
        });
        let execute_plan = time_trials(trials, warmup, || {
            for plan in &plans {
                cache.execute_plan(plan, &mut out);
                std::hint::black_box(&mut out);
            }
        });
        (
            min_secs(&contiguous),
            min_secs(&per_row),
            min_secs(&execute_plan),
        )
    });
    Roofline {
        rows: g * ROWS,
        bytes: g * ROWS * DIM * std::mem::size_of::<f32>(),
        contiguous_min_secs: contiguous,
        per_row_min_secs: per_row,
        execute_plan_min_secs: execute_plan,
        of_contiguous: contiguous / execute_plan,
        of_per_row: per_row / execute_plan,
    }
}

/// The extraction event loop: per-step full rescans (reference) vs
/// incremental active-set bookkeeping.
fn bench_memsim_step(trials: usize, warmup: usize) -> BenchEntry {
    use gpu_memsim::{
        simulate, simulate_reference, DispatchMode, GpuWork, SimConfig, SourceDemand,
    };
    use gpu_platform::{DedicationConfig, Location, Platform};

    let plat = Platform::server_c();
    let cfg = SimConfig::default();
    let works: Vec<GpuWork> = (0..8)
        .map(|gpu| GpuWork {
            gpu,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: 600e6,
                },
                SourceDemand {
                    src: Location::Gpu((gpu + 1) % 8),
                    bytes: 250e6,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 80e6,
                },
            ],
        })
        .collect();
    let mode = DispatchMode::Factored {
        dedication: DedicationConfig::default(),
    };

    // Outside the timed region: identical results (no telemetry scope is
    // active here, so both paths skip span recording).
    let opt = simulate(&plat, &cfg, &works, mode);
    let refr = simulate_reference(&plat, &cfg, &works, mode);
    assert_eq!(opt, refr, "memsim results diverge");

    let ref_secs = time_trials(trials, warmup, || {
        std::hint::black_box(simulate_reference(&plat, &cfg, &works, mode));
    });
    let opt_secs = time_trials(trials, warmup, || {
        std::hint::black_box(simulate(&plat, &cfg, &works, mode));
    });
    entry("memsim_step", ref_secs, opt_secs)
}

/// A served batch's worth of simulation: the free `simulate`, which
/// derives its per-topology state (profile, path tables) on every call,
/// vs one [`gpu_memsim::Simulator`] reused across calls, as
/// `Extractor` holds it. 15 flows on Server A — 16 requests' ~330 keys
/// of 128 B — so the whole call is fixed cost; each trial times
/// [`SMALL_CALLS`] calls.
fn bench_memsim_small(trials: usize, warmup: usize) -> BenchEntry {
    use gpu_memsim::{simulate, DispatchMode, GpuWork, SimConfig, Simulator, SourceDemand};
    use gpu_platform::{DedicationConfig, Location, Platform};
    const SMALL_CALLS: usize = 2_000;

    let plat = Platform::server_a();
    let cfg = SimConfig::default();
    let keys = |src, n: usize| SourceDemand {
        src,
        bytes: (n * 128) as f64,
    };
    let works: Vec<GpuWork> = (0..4)
        .map(|gpu| {
            let mut demands = vec![
                keys(Location::Gpu(gpu), 45),
                keys(Location::Gpu((gpu + 1) % 4), 12),
                keys(Location::Gpu((gpu + 2) % 4), 11),
                keys(Location::Host, 15),
            ];
            if gpu == 3 {
                demands.pop(); // this GPU's keys all hit a cache: 15 flows
            }
            GpuWork { gpu, demands }
        })
        .collect();
    let mode = DispatchMode::Factored {
        dedication: DedicationConfig::default(),
    };

    // Outside the timed region: a reused simulator answers like a fresh one.
    let mut reused = Simulator::new(&plat, &cfg, mode);
    for _ in 0..2 {
        assert_eq!(
            reused.simulate(&works),
            simulate(&plat, &cfg, &works, mode),
            "reused simulator diverges"
        );
    }

    let ref_secs = time_trials(trials, warmup, || {
        for _ in 0..SMALL_CALLS {
            std::hint::black_box(simulate(&plat, &cfg, std::hint::black_box(&works), mode));
        }
    });
    let opt_secs = time_trials(trials, warmup, || {
        for _ in 0..SMALL_CALLS {
            std::hint::black_box(reused.simulate(std::hint::black_box(&works)));
        }
    });
    entry("memsim_small", ref_secs, opt_secs)
}

/// The simplex tableau: full-width dense row operations (reference) vs
/// the per-row group supports.
fn bench_simplex_pivot(trials: usize, warmup: usize) -> BenchEntry {
    use milp::{solve_lp, solve_lp_dense};

    // The joint pattern LP at the size the figures solve it on an 8-GPU
    // server (~200 hotness blocks × 9 patterns: 368 rows, 2 617 tableau
    // columns), whose capacity and `tj` rows start dense and fill in
    // further — an LP whose rows stay small would flatter any sparse row
    // representation.
    let m = milp::fixtures::placement_lp(0x5EED, 8, 200, 9);

    // Outside the timed region: pivot-for-pivot identical solves.
    let sparse = solve_lp(&m).expect("feasible LP");
    let dense = solve_lp_dense(&m).expect("feasible LP");
    assert_eq!(
        sparse.iterations, dense.iterations,
        "pivot sequences diverge"
    );
    assert_eq!(
        sparse.objective.to_bits(),
        dense.objective.to_bits(),
        "objectives diverge"
    );

    let ref_secs = time_trials(trials, warmup, || {
        std::hint::black_box(solve_lp_dense(&m).expect("feasible LP"));
    });
    let opt_secs = time_trials(trials, warmup, || {
        std::hint::black_box(solve_lp(&m).expect("feasible LP"));
    });
    entry("simplex_pivot", ref_secs, opt_secs)
}

/// A kernel's timing function: `(trials, warmup)` to its entry.
pub(crate) type BenchFn = fn(usize, usize) -> BenchEntry;

/// Every microbench, in canonical execution order. The one place that
/// knows the kernel list: names, validation and dispatch all read it.
const BENCHES: &[(&str, BenchFn)] = &[
    ("gather", bench_gather),
    ("memsim_step", bench_memsim_step),
    ("memsim_small", bench_memsim_small),
    ("simplex_pivot", bench_simplex_pivot),
];

/// Every microbench name, in canonical execution order (the names of
/// `BENCHES`).
pub const BENCH_NAMES: &[&str] = &{
    let mut names = [""; BENCHES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = BENCHES[i].0;
        i += 1;
    }
    names
};

/// Looks a kernel up by name; the one unknown-name check, shared by
/// `cli::parse` (which rejects a bad name before any kernel runs) and
/// [`run_benches`].
///
/// # Errors
///
/// Returns the message `repro bench` prints for an unknown name.
pub(crate) fn find_bench(name: &str) -> Result<BenchFn, String> {
    BENCHES
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, run)| run)
        .ok_or_else(|| {
            format!(
                "unknown bench `{name}`; available: {}",
                BENCH_NAMES.join(" ")
            )
        })
}

/// Runs the named microbenches (all of [`BENCH_NAMES`] when empty).
///
/// # Errors
///
/// Returns a message naming any unknown bench.
///
/// # Panics
///
/// Panics if an optimized path's output diverges from its reference —
/// a bench never silently times two implementations that disagree.
pub fn run_benches(names: &[String], trials: usize, warmup: usize) -> Result<BenchReport, String> {
    let selected: Vec<BenchFn> = if names.is_empty() {
        BENCHES.iter().map(|&(_, run)| run).collect()
    } else {
        names
            .iter()
            .map(|n| find_bench(n))
            .collect::<Result<_, _>>()?
    };
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        kind: BENCH_KIND.to_string(),
        trials,
        warmup,
        benches: selected.iter().map(|run| run(trials, warmup)).collect(),
    })
}

/// Renders a one-line-per-bench summary to stdout.
pub fn render(report: &BenchReport) {
    println!(
        "bench: {} trials, {} warmup (wall clock; min-based speedup)",
        report.trials, report.warmup
    );
    for b in &report.benches {
        println!(
            "  {:<14} ref {:>9.3} ms   opt {:>9.3} ms   speedup {:>5.2}x",
            b.name,
            b.ref_min_secs * 1e3,
            b.opt_min_secs * 1e3,
            b.speedup
        );
        if !b.scaling.is_empty() {
            let points: Vec<String> = b
                .scaling
                .iter()
                .map(|p| format!("{}t {:.3} ms", p.threads, p.opt_min_secs * 1e3))
                .collect();
            println!("  {:<14}   scaling: {}", "", points.join("   "));
        }
        if let Some(r) = &b.roofline {
            let gbps = |secs: f64| r.bytes as f64 / secs / 1e9;
            println!(
                "  {:<14}   roofline, {} rows: contiguous {:.1} GB/s   per-row {:.1} GB/s   \
                 execute_plan {:.1} GB/s ({:.2} of contiguous, {:.2} of per-row)",
                "",
                r.rows,
                gbps(r.contiguous_min_secs),
                gbps(r.per_row_min_secs),
                gbps(r.execute_plan_min_secs),
                r.of_contiguous,
                r.of_per_row
            );
        }
    }
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Num(raw)) => raw.parse().ok(),
        _ => None,
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Parses a bench report file into `(name, opt_min_secs, speedup)` rows.
fn load_rows(path: &Path) -> io::Result<Vec<(String, f64, f64)>> {
    let text = std::fs::read_to_string(path)?;
    let v = json::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    if get_str(&v, "kind") != Some(BENCH_KIND) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a {BENCH_KIND} file", path.display()),
        ));
    }
    let Some(Value::Arr(benches)) = v.get("benches") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: missing benches array", path.display()),
        ));
    };
    let mut rows = Vec::new();
    for b in benches {
        let (Some(name), Some(opt), Some(speedup)) = (
            get_str(b, "name"),
            get_f64(b, "opt_min_secs"),
            get_f64(b, "speedup"),
        ) else {
            continue;
        };
        rows.push((name.to_string(), opt, speedup));
    }
    Ok(rows)
}

/// Soft wall-clock gate: compares a fresh bench report against a
/// committed baseline report.
///
/// Returns `(warnings, failures)`. Absolute wall-clock varies across
/// machines, so the gate is deliberately generous: a bench fails only
/// when it is missing, its best optimized trial regressed beyond
/// [`REGRESSION_FACTOR`]×, or its speedup collapsed below
/// `baseline / `[`SPEEDUP_LOSS_FACTOR`]. Moderate drift (beyond
/// [`WARN_FACTOR`]×) is reported as a warning without failing.
///
/// # Errors
///
/// Returns any I/O or parse error from reading either file.
pub fn compare_files(baseline: &Path, new: &Path) -> io::Result<(Vec<String>, Vec<String>)> {
    let base = load_rows(baseline)?;
    let fresh = load_rows(new)?;
    let mut warnings = Vec::new();
    let mut failures = Vec::new();
    for (name, base_opt, base_speedup) in &base {
        let Some((_, new_opt, new_speedup)) = fresh.iter().find(|(n, _, _)| n == name) else {
            failures.push(format!("{name}: missing from {}", new.display()));
            continue;
        };
        if *new_opt > base_opt * REGRESSION_FACTOR {
            failures.push(format!(
                "{name}: optimized path regressed {:.2}x (baseline {:.3} ms, new {:.3} ms, \
                 limit {REGRESSION_FACTOR}x)",
                new_opt / base_opt,
                base_opt * 1e3,
                new_opt * 1e3
            ));
        } else if *new_opt > base_opt * WARN_FACTOR {
            warnings.push(format!(
                "warning: {name}: optimized path {:.2}x slower than baseline \
                 (within the {REGRESSION_FACTOR}x gate)",
                new_opt / base_opt
            ));
        }
        if *new_speedup < base_speedup / SPEEDUP_LOSS_FACTOR {
            failures.push(format!(
                "{name}: speedup collapsed to {new_speedup:.2}x (baseline {base_speedup:.2}x, \
                 floor {:.2}x)",
                base_speedup / SPEEDUP_LOSS_FACTOR
            ));
        }
    }
    Ok((warnings, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_json(opt_min: f64, speedup: f64) -> String {
        let report = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            kind: BENCH_KIND.to_string(),
            trials: 1,
            warmup: 0,
            benches: vec![BenchEntry {
                name: "gather".to_string(),
                ref_secs: vec![opt_min * speedup],
                opt_secs: vec![opt_min],
                ref_min_secs: opt_min * speedup,
                opt_min_secs: opt_min,
                speedup,
                scaling: Vec::new(),
                roofline: None,
            }],
        };
        json::to_string_pretty(&report).unwrap()
    }

    #[test]
    fn compare_passes_on_identical_and_fails_on_collapse() {
        let dir = std::env::temp_dir().join("ugache-bench-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let same = dir.join("same.json");
        let slow = dir.join("slow.json");
        std::fs::write(&base, report_json(1e-3, 4.0)).unwrap();
        std::fs::write(&same, report_json(1.2e-3, 3.5)).unwrap();
        std::fs::write(&slow, report_json(5e-3, 1.0)).unwrap();

        let (warnings, failures) = compare_files(&base, &same).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "{warnings:?}");

        let (_, failures) = compare_files(&base, &slow).unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}"); // regression + collapse
    }

    #[test]
    fn moderate_drift_warns_without_failing() {
        let dir = std::env::temp_dir().join("ugache-bench-warn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let drift = dir.join("drift.json");
        std::fs::write(&base, report_json(1e-3, 4.0)).unwrap();
        std::fs::write(&drift, report_json(1.8e-3, 3.0)).unwrap();
        let (warnings, failures) = compare_files(&base, &drift).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn newest_committed_baseline_lists_exactly_the_table_kernels() {
        // Adding or removing a kernel without regenerating the baseline
        // CI gates against must fail here, not only in CI's bench job.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let newest = std::fs::read_dir(&dir)
            .expect("baselines directory")
            .filter_map(|e| {
                let path = e.expect("directory entry").path();
                let pr: u32 = path
                    .file_name()?
                    .to_str()?
                    .strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()?;
                Some((pr, path))
            })
            .max()
            .expect("a committed BENCH_<pr>.json")
            .1;
        let rows = load_rows(&newest).expect("baseline parses");
        let names: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, BENCH_NAMES, "{}", newest.display());
    }

    #[test]
    fn unknown_bench_rejected() {
        assert!(run_benches(&["nope".to_string()], 1, 0).is_err());
    }

    #[test]
    fn quick_benches_agree_and_produce_speedups() {
        // One trial, no warmup: exercises the equality asserts inside
        // each bench and the report shape without taking bench-grade time.
        let report = run_benches(&[], 1, 0).unwrap();
        let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, BENCH_NAMES, "entries carry their table names");
        for b in &report.benches {
            assert!(b.ref_min_secs > 0.0 && b.opt_min_secs > 0.0, "{}", b.name);
            assert!(b.speedup.is_finite(), "{}", b.name);
            assert_eq!(b.roofline.is_some(), b.name == "gather", "{}", b.name);
        }
    }
}
