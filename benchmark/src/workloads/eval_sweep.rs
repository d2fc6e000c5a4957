//! `eval_sweep`: the fig10/11/12 pattern, timing only.
//!
//! Datasets and hotness are built once at set-up for Server A/B/C ×
//! {PA / GraphSAGE-supervised, CR}. A round then visits the 24 cells
//! {platform × app × UGache, PartU, RepU, SOK}: a cold
//! `ugache::baselines::build_system`, then a few batches drawn from a
//! clone of the pair's generator and extracted on the simulator. This is
//! what users of `repro all` wait for: solver builds, batch generation
//! and the simulator under naive and message-based dispatch do the work;
//! the functional cache does none.

use super::{cold_setups, mean, EndToEndValues, RunArgs, Traced, Untraced};
use crate::check::bytes_match_keys;
use crate::oplog::OpLog;
use crate::probes::{fine_grained_refresh, RefreshProbe, BASELINES, BASELINE_DISPATCH_SEED};
use crate::shadow::{simulate_asides, traced_extract, traced_solve};
use crate::trace::{Layer, Recorder};
use cache_policy::{baselines as policies, build_blocks, Hotness, SolverConfig, UGacheSolver};
use emb_cache::HostTable;
use emb_util::stats::{geomean, percentile};
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use extractor::{Extractor, Mechanism};
use gpu_memsim::SimConfig;
use gpu_platform::{DedicationConfig, Platform};
use ugache::apps::dlr::dlr_cache_capacity;
use ugache::apps::gnn::gnn_cache_capacity;
use ugache::baselines::build_system;
use ugache::{SystemKind, UGache, UGacheConfig};

/// The workload's shape (`Scenario::quick()`'s scales and batch).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Divisor on PA's paper-scale vertex count.
    pub gnn_scale: usize,
    /// Divisor on CR's paper-scale table sizes.
    pub dlr_scale: usize,
    /// Seeds / requests per GPU per batch.
    pub batch: usize,
    /// Batches drawn and extracted per cell.
    pub batches_per_cell: usize,
}

/// The shape the benchmark runs.
pub const SPEC: Spec = Spec {
    gnn_scale: 4096,
    dlr_scale: 8192,
    batch: 512,
    batches_per_cell: 2,
};

/// Rounds over the 24 cells at scale 1 (~1.75 s each on the reference
/// box).
const ROUNDS: usize = 6;

/// Batches the refresh probe's sampler is fed, half before each
/// refresh. With a handful, two halves' sampled hot sets share so little
/// that some seeds turn the whole cache over at every refresh and
/// others a third of it.
const PROBE_FEED: usize = 32;

/// The systems of one platform × app pair, UGache first.
pub const SYSTEMS: [SystemKind; 4] = [SystemKind::UGache, BASELINES[0], BASELINES[1], BASELINES[2]];

/// A pair's batch generator.
#[derive(Debug, Clone)]
pub enum Source {
    /// GNN neighbourhood sampling.
    Gnn(GnnWorkload),
    /// DLR request draws.
    Dlr(DlrWorkload),
}

impl Source {
    fn next_batch(&mut self) -> Vec<Vec<u32>> {
        match self {
            Source::Gnn(w) => w.next_batch(),
            Source::Dlr(w) => w.next_batch(),
        }
    }

    /// The span (and count) name batches of this kind are recorded under.
    fn span_name(&self) -> &'static str {
        match self {
            Source::Gnn(_) => "gnn_batches",
            Source::Dlr(_) => "dlr_batches",
        }
    }
}

/// One platform × app pair.
pub struct Pair {
    /// The platform.
    pub platform: Platform,
    /// The batch generator, positioned at the first measured batch.
    pub source: Source,
    /// Hotness every system of the pair is built from.
    pub hotness: Hotness,
    /// Cache entries per GPU.
    pub cap: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Bytes per entry.
    pub entry_bytes: usize,
    /// Mean unique keys per GPU per batch.
    pub accesses: f64,
}

/// Everything set-up generates: the six pairs.
pub struct Inputs {
    /// Server A/B/C × {GNN, DLR}, platform-major.
    pub pairs: Vec<Pair>,
}

impl Inputs {
    /// Generates the inputs from `seed`.
    pub fn generate(rec: &mut Recorder, seed: u64, spec: &Spec) -> Inputs {
        let mut pairs = Vec::new();
        for platform in [
            Platform::server_a(),
            Platform::server_b(),
            Platform::server_c(),
        ] {
            let gpus = platform.num_gpus();
            let dataset = rec.span("gnn_preset", Layer::EmbGraph, || {
                gnn_preset(GnnDatasetId::Pa, spec.gnn_scale, seed)
            });
            let cap = gnn_cache_capacity(&platform, &dataset, SystemKind::UGache);
            let (dim, entry_bytes) = (dataset.dim, dataset.entry_bytes);
            let mut w = GnnWorkload::new(
                dataset,
                GnnModel::GraphSageSupervised,
                spec.batch,
                gpus,
                seed,
            );
            let hotness = rec.span("hotness", Layer::EmbWorkload, || w.profile_hotness(2));
            let accesses = rec.span("measure_accesses_per_iter", Layer::EmbWorkload, || {
                w.clone().measure_accesses_per_iter(2)
            });
            pairs.push(Pair {
                platform: platform.clone(),
                source: Source::Gnn(w),
                hotness,
                cap,
                dim,
                entry_bytes,
                accesses,
            });

            let dataset = dlr_preset(DlrDatasetId::Cr, spec.dlr_scale);
            let cap = dlr_cache_capacity(&platform, &dataset);
            let (dim, entry_bytes) = (dataset.dim, dataset.entry_bytes);
            let mut w = DlrWorkload::new(dataset, spec.batch, gpus, seed);
            let hotness = rec.span("hotness", Layer::EmbWorkload, || {
                w.hotness(DlrHotness::Analytic)
            });
            let accesses = rec.span("measure_accesses_per_iter", Layer::EmbWorkload, || {
                w.clone().measure_accesses_per_iter(2)
            });
            pairs.push(Pair {
                platform,
                source: Source::Dlr(w),
                hotness,
                cap,
                dim,
                entry_bytes,
                accesses,
            });
        }
        Inputs { pairs }
    }
}

/// One cell: cold build, then `batches` × (draw, extract). Returns the
/// simulated makespans in seconds.
fn run_cell(pair: &Pair, kind: SystemKind, batches: usize) -> Result<Vec<f64>, String> {
    let system = build_system(
        kind,
        &pair.platform,
        &pair.hotness,
        pair.cap,
        pair.entry_bytes,
        pair.accesses,
        BASELINE_DISPATCH_SEED,
    )?;
    system.placement.validate()?;
    let mut source = pair.source.clone();
    let mut secs = Vec::with_capacity(batches);
    for _ in 0..batches {
        let keys = source.next_batch();
        let outcome = system.extract(&keys);
        bytes_match_keys(&outcome, &keys, pair.entry_bytes)?;
        secs.push(outcome.makespan.as_secs_f64());
    }
    Ok(secs)
}

/// The simulated results of one round, `[pair][system]` → makespans.
type Round = Vec<Vec<Vec<f64>>>;

fn run_round(log: &mut OpLog, inputs: &Inputs, batches: usize) -> Round {
    inputs
        .pairs
        .iter()
        .enumerate()
        .map(|(p, pair)| {
            SYSTEMS
                .iter()
                .enumerate()
                .map(|(s, &kind)| {
                    let cell = (p * SYSTEMS.len() + s) as u32;
                    log.run(Some(cell), 1, || run_cell(pair, kind, batches))
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect()
}

/// The untraced pass.
///
/// # Errors
///
/// Fails only if set-up fails; failed ops are counted, not returned.
pub fn run(args: &RunArgs) -> Result<Untraced, String> {
    let (inputs, setup_s) = cold_setups(7, || {
        Ok(Inputs::generate(&mut Recorder::new(), args.seed, &SPEC))
    })?;
    let rounds = args.scaled(ROUNDS, 1);
    let cells = inputs.pairs.len() * SYSTEMS.len();

    // A refresh needs a live UGache; the sweep has none, so one is stood
    // up for its last pair (Server C × CR) from set-up's own products.
    let pair = inputs.pairs.last().expect("six pairs");
    let mut source = pair.source.clone();
    let feed: Vec<_> = (0..PROBE_FEED).map(|_| source.next_batch()).collect();
    let mut cfg = UGacheConfig::new(pair.entry_bytes, pair.accesses);
    fine_grained_refresh(&mut cfg, pair.cap);
    let mut probe = RefreshProbe::new(
        UGache::build(
            pair.platform.clone(),
            HostTable::procedural(pair.hotness.len(), pair.dim),
            &pair.hotness,
            vec![pair.cap; pair.platform.num_gpus()],
            cfg,
        )?,
        &feed,
    );

    let mut log = OpLog::new();
    let mut first = Round::new();
    for round in 0..rounds {
        let this = run_round(&mut log, &inputs, SPEC.batches_per_cell);
        if round == 0 {
            first = this;
        } else if this != first {
            log.fail_last(cells, "simulated results differ from the first round's");
        }
        probe.keep_pace(&mut log, round + 1, rounds);
    }
    let ops_per_s = log.undisturbed_rate();

    let mut ugache_secs = Vec::new();
    let mut speedups = Vec::new();
    let mut rates = Vec::new();
    for (pair, systems) in inputs.pairs.iter().zip(&first) {
        let ugache = mean(&systems[0]);
        let best = systems[1..]
            .iter()
            .map(|s| mean(s))
            .fold(f64::INFINITY, f64::min);
        if ugache > 0.0 && best.is_finite() {
            speedups.push(best / ugache);
            rates.push((SPEC.batch * pair.platform.num_gpus()) as f64 / ugache);
        }
        ugache_secs.extend_from_slice(&systems[0]);
    }

    let refresh = probe.finish();

    Ok(Untraced {
        values: EndToEndValues {
            setup_s,
            ops_per_s,
            refresh_s: refresh.refresh_s,
            sim_step_us: mean(&ugache_secs) * 1e6,
            sim_p99_us: percentile(&ugache_secs, 99.0).unwrap_or(0.0) * 1e6,
            sim_max_rate_rps: mean(&rates),
            sim_refresh_s: refresh.sim_refresh_s,
            sim_speedup_geomean: geomean(&speedups).unwrap_or(0.0),
        },
        notes: vec![
            format!(
                "{rounds} rounds over {cells} cells, {} batches of {} per GPU each",
                SPEC.batches_per_cell, SPEC.batch
            ),
            format!(
                "best baseline / UGache per pair (A-gnn, A-dlr, B-gnn, B-dlr, C-gnn, C-dlr): {speedups:.3?}"
            ),
            refresh.note,
        ],
        log,
    })
}

/// `build_system`'s policy and mechanism for `kind`, built from the
/// crates' public parts with a span around each.
fn shadow_cell(
    rec: &mut Recorder,
    pair: &Pair,
    kind: SystemKind,
    batches: usize,
    extras: &mut SweepExtras,
) -> Result<Vec<f64>, String> {
    let platform = &pair.platform;
    let naive = Mechanism::PeerNaive {
        seed: BASELINE_DISPATCH_SEED,
    };
    let partition = |rec: &mut Recorder| {
        rec.span("baseline_policy", Layer::CachePolicy, || {
            policies::partition(platform, &pair.hotness, pair.cap)
                .unwrap_or_else(|_| policies::clique_partition(platform, &pair.hotness, pair.cap))
        })
    };

    let op = rec.enter_op();
    let mut solve = None;
    let (placement, mechanism) = match kind {
        SystemKind::UGache => {
            let dedication = DedicationConfig::default();
            let solver = rec.span("UGacheSolver::new", Layer::GpuPlatform, || {
                UGacheSolver::new(platform.clone(), dedication)
            });
            let mut cfg = SolverConfig::new(pair.entry_bytes, pair.accesses);
            cfg.dedup_adjust = true;
            let caps = vec![pair.cap; platform.num_gpus()];
            let solved = traced_solve(rec, &solver, &pair.hotness, &caps, &cfg);
            let (solved, span) = match solved {
                Ok(s) => s,
                Err(e) => {
                    rec.exit(op);
                    return Err(e);
                }
            };
            solve = Some((span, cfg, solved.predicted_secs));
            extras
                .local_hit
                .push(solved.placement.local_hit_rate(&pair.hotness));
            extras
                .global_hit
                .push(solved.placement.global_hit_rate(&pair.hotness));
            (solved.placement, Mechanism::Factored { dedication })
        }
        SystemKind::PartU => (partition(rec), naive),
        SystemKind::Sok => (partition(rec), Mechanism::MessageBased),
        SystemKind::RepU => (
            rec.span("baseline_policy", Layer::CachePolicy, || {
                policies::replication(platform, &pair.hotness, pair.cap)
            }),
            naive,
        ),
        other => unreachable!("{} is not in the sweep", other.name()),
    };
    let sim = SimConfig::default();
    let extractor = rec.span("Extractor::new", Layer::Extractor, || {
        Extractor::new(platform.clone(), sim, mechanism)
    });

    let mut source = pair.source.clone();
    let mut secs = Vec::with_capacity(batches);
    let mut simulated = Vec::with_capacity(batches);
    let mut checked = Ok(());
    for _ in 0..batches {
        let keys = rec.span(source.span_name(), Layer::EmbWorkload, || {
            source.next_batch()
        });
        rec.count(source.span_name(), 1.0);
        rec.count("keys", super::batch_keys(&keys) as f64 / batches as f64);
        let works = rec.span("works_from_keys", Layer::Extractor, || {
            extractor.works_from_keys(&placement, &keys, pair.entry_bytes)
        });
        let (outcome, span) = traced_extract(rec, &extractor, &works);
        checked = checked.and_then(|()| bytes_match_keys(&outcome, &keys, pair.entry_bytes));
        secs.push(outcome.makespan.as_secs_f64());
        simulated.push((works, span));
    }
    rec.exit(op);

    for (works, span) in &simulated {
        simulate_asides(rec, platform, &sim, mechanism, works, *span);
    }
    if let Some((span, cfg, predicted)) = solve {
        let adjusted = pair.hotness.dedup_adjusted(cfg.accesses_per_iter);
        let mut bcfg = cfg.blocks;
        bcfg.min_splits = bcfg.min_splits.max(platform.num_gpus());
        rec.aside(span, "build_blocks", Layer::CachePolicy, || {
            std::hint::black_box(build_blocks(&adjusted, &bcfg));
        });
        extras.estimate_error.push(predicted / mean(&secs) - 1.0);
    }
    checked.map(|()| secs)
}

/// Per-layer values only the sweep can compute: means over its six
/// UGache cells.
#[derive(Debug, Default)]
struct SweepExtras {
    local_hit: Vec<f64>,
    global_hit: Vec<f64>,
    estimate_error: Vec<f64>,
}

/// The traced pass: one round, every cell built and run from public
/// parts and compared with `build_system` + `SystemInstance::extract`.
///
/// # Errors
///
/// Fails only if set-up fails.
pub fn run_traced(args: &RunArgs) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let inputs = Inputs::generate(&mut rec, args.seed, &SPEC);
    let batches = SPEC.batches_per_cell;

    let mut plain = OpLog::new();
    let mut log = OpLog::new();
    let mut extras = SweepExtras::default();
    for pair in &inputs.pairs {
        for kind in SYSTEMS {
            let real = plain.run(None, 1, || {
                rec.span("build_system", Layer::UGache, || {
                    run_cell(pair, kind, batches)
                })
            });
            log.run(None, 1, || {
                let mirrored = shadow_cell(&mut rec, pair, kind, batches, &mut extras)?;
                if Some(&mirrored) != real.as_ref() {
                    return Err(format!(
                        "{} on {}: shadow makespans {mirrored:?} differ from SystemInstance::extract's {real:?}",
                        kind.name(),
                        pair.platform.name
                    ));
                }
                Ok(())
            });
        }
    }
    Ok(Traced {
        untraced_ops_per_s: plain.overall_rate(),
        extras: vec![
            ("cache-policy.local_hit_rate", mean(&extras.local_hit)),
            ("cache-policy.global_hit_rate", mean(&extras.global_hit)),
            ("cache-policy.estimate_error", mean(&extras.estimate_error)),
        ],
        log,
        rec,
    })
}
