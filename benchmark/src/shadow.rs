//! A shadow of [`ugache::UGache`] built from public constructors, with a
//! span around every call into a crate.
//!
//! `UGache`'s fields are private, so its time cannot be taken apart from
//! outside. The shadow holds the same parts — `UGacheSolver`,
//! `MultiGpuCache`, `Extractor`, `HotnessSampler`, `Refresher` — wired the
//! way `UGache` wires them, and the traced pass runs every batch through
//! both. The two makespans must be bit-equal (`tests/decomposition.rs`
//! and the traced pass itself check it), so the decomposition is of the
//! thing measured.

use crate::trace::{Layer, Recorder, SpanId};
use cache_policy::solver::SolvedPolicy;
use cache_policy::{build_blocks, estimate_extraction_time, Hotness, SolverConfig, UGacheSolver};
use emb_cache::{GatherPlan, GatherStats, HostTable, HotnessSampler, MultiGpuCache, Refresher};
use extractor::{ExtractOutcome, Extractor, Mechanism};
use gpu_memsim::{simulate, simulate_traced, DispatchMode, GpuWork, SimConfig};
use gpu_platform::{Location, Platform};
use ugache::UGacheConfig;

/// Runs `UGacheSolver::solve` in a span, inside a telemetry scope so the
/// LP's counters (`policy.lp.*`) can be read, and counts what it built.
pub fn traced_solve(
    rec: &mut Recorder,
    solver: &UGacheSolver,
    hotness: &Hotness,
    cap_entries: &[usize],
    cfg: &SolverConfig,
) -> Result<(SolvedPolicy, SpanId), String> {
    let span = rec.enter("UGacheSolver::solve", Layer::CachePolicy);
    let (solved, report) = emb_telemetry::collect(|| solver.solve(hotness, cap_entries, cfg));
    rec.exit(span);
    let counter = |name: &str| {
        report
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    rec.count("solves", 1.0);
    rec.count("milp.lp_solves", counter("policy.lp.solves"));
    rec.count("milp.lp_iterations", counter("policy.lp.iterations"));
    rec.count("cache-policy.blocks", counter("policy.blocks"));
    rec.count("cache-policy.patterns", counter("policy.patterns"));
    if let Some((_, h)) = report
        .metrics
        .histograms
        .iter()
        .find(|(n, _)| n == "policy.lp.residual")
    {
        rec.peak("milp.lp_max_residual", h.max);
    }
    Ok((solved?, span))
}

/// Runs `Extractor::extract_works` in a span.
pub fn traced_extract(
    rec: &mut Recorder,
    extractor: &Extractor,
    works: &[GpuWork],
) -> (ExtractOutcome, SpanId) {
    let span = rec.enter("extract_works", Layer::Extractor);
    let outcome = extractor.extract_works(works);
    rec.exit(span);
    (outcome, span)
}

/// After an op has closed: re-runs the simulation `extract_works` ran
/// internally, as an aside charged to it, and once more through
/// `simulate_traced` under a telemetry scope for the event count and the
/// `memsim.*` counters (a top-level span, in no ledger).
///
/// The message-based mechanism has no event simulation; nothing runs.
pub fn simulate_asides(
    rec: &mut Recorder,
    platform: &Platform,
    sim: &SimConfig,
    mechanism: Mechanism,
    works: &[GpuWork],
    extract_span: SpanId,
) {
    let mode = match mechanism {
        Mechanism::PeerNaive { seed } => DispatchMode::RandomShared { seed },
        Mechanism::Factored { dedication } => DispatchMode::Factored { dedication },
        Mechanism::MessageBased => return,
    };
    // Under a telemetry scope (serve_online) the real call records spans
    // and counters; the aside pays the same, into a scope of its own so
    // the outer scope's clock and contents stay as the engine left them.
    let scoped = emb_telemetry::enabled();
    rec.aside(extract_span, "simulate", Layer::GpuMemsim, || {
        if scoped {
            emb_telemetry::collect(|| simulate(platform, sim, works, mode)).0
        } else {
            simulate(platform, sim, works, mode)
        }
    });
    let ((_, trace), report) = rec.span("probe:simulate_traced", Layer::Bench, || {
        emb_telemetry::collect(|| simulate_traced(platform, sim, works, mode))
    });
    rec.count("gpu-memsim.calls", 1.0);
    rec.count(
        "gpu-memsim.flows",
        works.iter().map(|w| w.demands.len()).sum::<usize>() as f64,
    );
    rec.count("gpu-memsim.events", trace.events.len() as f64);
    for (name, value) in &report.metrics.counters {
        if name == "memsim.congestion.link_activations" {
            rec.count("gpu-memsim.congested_flows", *value);
        }
    }
    if let Some((_, h)) = report
        .metrics
        .histograms
        .iter()
        .find(|(n, _)| n == "memsim.core_util")
    {
        rec.count("gpu-memsim.core_util_sum", h.sum);
        rec.count("gpu-memsim.core_util_n", h.count as f64);
    }
}

/// What one shadow iteration produced, and what its asides need.
#[derive(Debug, Clone)]
pub struct ShadowStep {
    /// The simulated outcome, slowdown-adjusted like `UGache`'s.
    pub outcome: ExtractOutcome,
    /// Whether a refresh was active during the iteration.
    pub refresh_active: bool,
    works: Vec<GpuWork>,
    extract_span: SpanId,
}

/// The public-constructor mirror of [`ugache::UGache`].
pub struct Shadow {
    platform: Platform,
    solver: UGacheSolver,
    extractor: Extractor,
    cache: MultiGpuCache,
    sampler: HotnessSampler,
    refresher: Refresher,
    cfg: UGacheConfig,
    cap_entries: Vec<usize>,
    predicted_secs: f64,
    clock: f64,
    plan: GatherPlan,
}

impl Shadow {
    /// Builds the shadow as `UGache::build` builds the real thing. Must be
    /// called outside every span (it runs an aside).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn build(
        rec: &mut Recorder,
        platform: Platform,
        host: HostTable,
        hotness: &Hotness,
        cap_entries: Vec<usize>,
        cfg: UGacheConfig,
    ) -> Result<Self, String> {
        let solver = rec.span("UGacheSolver::new", Layer::GpuPlatform, || {
            UGacheSolver::new(platform.clone(), cfg.dedication)
        });
        let (solved, solve_span) = traced_solve(rec, &solver, hotness, &cap_entries, &cfg.solver)?;
        // The solver's first stage on its own, with the solver's inputs.
        let adjusted = if cfg.solver.dedup_adjust && cfg.solver.accesses_per_iter > 0.0 {
            hotness.dedup_adjusted(cfg.solver.accesses_per_iter)
        } else {
            hotness.clone()
        };
        let mut bcfg = cfg.solver.blocks;
        bcfg.min_splits = bcfg.min_splits.max(platform.num_gpus());
        rec.aside(solve_span, "build_blocks", Layer::CachePolicy, || {
            std::hint::black_box(build_blocks(&adjusted, &bcfg));
        });
        rec.set(
            "cache-policy.local_hit_rate",
            solved.placement.local_hit_rate(hotness),
        );
        rec.set(
            "cache-policy.global_hit_rate",
            solved.placement.global_hit_rate(hotness),
        );
        let cache = rec.span("MultiGpuCache::build", Layer::EmbCache, || {
            MultiGpuCache::build(host, &solved.placement, &cap_entries)
        });
        let extractor = Extractor::new(
            platform.clone(),
            cfg.sim,
            Mechanism::Factored {
                dedication: cfg.dedication,
            },
        );
        Ok(Shadow {
            platform,
            solver,
            extractor,
            cache,
            sampler: HotnessSampler::new(hotness.len(), cfg.sample_stride),
            refresher: Refresher::new(cfg.refresh),
            cfg,
            cap_entries,
            predicted_secs: solved.predicted_secs,
            clock: 0.0,
            plan: GatherPlan::new(),
        })
    }

    /// The solver's predicted per-iteration extraction time (seconds).
    pub fn predicted_extraction_secs(&self) -> f64 {
        self.predicted_secs
    }

    /// The host table behind the cache.
    pub fn host_table(&self) -> &HostTable {
        self.cache.host_table()
    }

    /// Whether a refresh is active.
    pub fn refresh_active(&self) -> bool {
        self.refresher.active()
    }

    /// Completed refresh durations (simulated seconds).
    pub fn refresh_history(&self) -> &[f64] {
        &self.refresher.history
    }

    /// `UGache::process_iteration`, call by call.
    pub fn process_iteration(
        &mut self,
        rec: &mut Recorder,
        keys_per_gpu: &[Vec<u32>],
    ) -> ShadowStep {
        // The shadow's own glue is what `ugache` would be charged.
        let whole = rec.enter("shadow:process_iteration", Layer::UGache);
        let (sampler, cache) = (&mut self.sampler, &self.cache);
        rec.span("HotnessSampler::observe", Layer::EmbCache, || {
            for keys in keys_per_gpu {
                sampler.observe(keys);
            }
        });
        let splits = rec.span("access_splits", Layer::EmbCache, || {
            cache.access_splits(keys_per_gpu)
        });
        let entry_bytes = self.cfg.solver.entry_bytes;
        let works = rec.span("works_from_splits", Layer::Extractor, || {
            self.extractor.works_from_splits(&splits, entry_bytes)
        });
        let (mut outcome, extract_span) = traced_extract(rec, &self.extractor, &works);
        let slowdown = self.refresher.slowdown();
        if slowdown > 1.0 {
            outcome.makespan = outcome.makespan.mul_f64(slowdown);
            for g in outcome.per_gpu.iter_mut() {
                g.time = g.time.mul_f64(slowdown);
            }
        }
        self.clock += outcome.makespan.as_secs_f64();
        let refresh_active = self.refresher.active();
        self.tick(rec);
        rec.exit(whole);
        for w in &works {
            for d in &w.demands {
                let tier = match d.src {
                    Location::Gpu(j) if j == w.gpu => "tier.local_bytes",
                    Location::Gpu(_) => "tier.remote_bytes",
                    Location::Host => "tier.host_bytes",
                };
                rec.count(tier, d.bytes);
            }
        }
        ShadowStep {
            outcome,
            refresh_active,
            works,
            extract_span,
        }
    }

    /// The asides of one iteration; call after its op span has closed.
    pub fn asides(&self, rec: &mut Recorder, step: &ShadowStep) {
        simulate_asides(
            rec,
            &self.platform,
            &self.cfg.sim,
            self.extractor.mechanism(),
            &step.works,
            step.extract_span,
        );
    }

    /// `UGache::gather`, call by call, over a plan the shadow owns.
    pub fn gather(
        &mut self,
        rec: &mut Recorder,
        gpu: usize,
        keys: &[u32],
        out: &mut [f32],
    ) -> GatherStats {
        let whole = rec.enter("shadow:gather", Layer::UGache);
        let (sampler, cache, plan) = (&mut self.sampler, &self.cache, &mut self.plan);
        rec.span("HotnessSampler::observe", Layer::EmbCache, || {
            sampler.observe(keys)
        });
        rec.span("plan_gather", Layer::EmbCache, || {
            cache.plan_gather(gpu, keys, plan)
        });
        rec.span("execute_plan", Layer::EmbCache, || {
            cache.execute_plan(plan, out)
        });
        rec.exit(whole);
        rec.count("emb-cache.bytes_copied", std::mem::size_of_val(out) as f64);
        self.plan.stats(gpu)
    }

    fn tick(&mut self, rec: &mut Recorder) {
        let (refresher, cache, clock) = (&mut self.refresher, &mut self.cache, self.clock);
        rec.span("Refresher::tick", Layer::EmbCache, || {
            refresher.tick(clock, cache);
        });
    }

    /// `UGache::advance_clock`.
    pub fn advance_clock(&mut self, rec: &mut Recorder, secs: f64) {
        self.clock += secs;
        self.tick(rec);
    }

    /// `UGache::consider_refresh`, call by call.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn consider_refresh(&mut self, rec: &mut Recorder, force: bool) -> Result<bool, String> {
        if self.refresher.active() {
            return Ok(false);
        }
        let sampler = &self.sampler;
        let fresh = rec.span("HotnessSampler::snapshot", Layer::EmbCache, || {
            sampler.snapshot()
        });
        if fresh.total() <= 0.0 {
            return Ok(false);
        }
        let (solved, _) = traced_solve(
            rec,
            &self.solver,
            &fresh,
            &self.cap_entries,
            &self.cfg.solver,
        )?;
        let solver_cfg = &self.cfg.solver;
        let (cache, profile) = (&self.cache, self.solver.profile());
        let current = rec.span("estimate_extraction_time", Layer::CachePolicy, || {
            let fresh_cmp = if solver_cfg.dedup_adjust {
                fresh.dedup_adjusted(solver_cfg.accesses_per_iter)
            } else {
                fresh.clone()
            };
            estimate_extraction_time(
                cache.placement(),
                &fresh_cmp,
                profile,
                solver_cfg.entry_bytes,
                solver_cfg.accesses_per_iter,
            )
            .makespan
        });
        if !(force
            || self
                .refresher
                .should_refresh(current, solved.predicted_secs))
        {
            return Ok(false);
        }
        let moved: usize = cache
            .placement()
            .stored
            .iter()
            .zip(&solved.placement.stored)
            .map(|(now, then)| now.iter().zip(then).filter(|(a, b)| a != b).count())
            .sum();
        rec.count("emb-cache.refresh_rows_moved", moved as f64);
        rec.count("refreshes", 1.0);
        let (refresher, clock) = (&mut self.refresher, self.clock);
        rec.span("Refresher::begin", Layer::EmbCache, || {
            refresher.begin(clock, cache.placement(), solved.placement);
        });
        self.predicted_secs = solved.predicted_secs;
        self.sampler.reset();
        Ok(true)
    }
}
