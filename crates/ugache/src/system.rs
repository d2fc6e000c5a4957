//! The composed UGache system (paper §4).

use cache_policy::{Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::{HostTable, HotnessSampler, MultiGpuCache, RefreshConfig, Refresher};
use emb_telemetry::{Counter, Fields};
use extractor::{ExtractOutcome, Extractor, Mechanism};
use gpu_memsim::SimConfig;
use gpu_platform::{DedicationConfig, Platform};

/// The system's metrics (names in EXPERIMENTS.md).
static ITERATIONS: Counter = Counter::new("ugache.iterations");
static EXTRACT_SECS: Counter = Counter::new("ugache.extract_secs");
static REFRESHES: Counter = Counter::new("ugache.refreshes");

/// Configuration of a UGache instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UGacheConfig {
    /// Core-dedication tunables (§5.3).
    pub dedication: DedicationConfig,
    /// Timing-simulator parameters.
    pub sim: SimConfig,
    /// Solver parameters (block batching, scaling).
    pub solver: SolverConfig,
    /// Refresher parameters (§7.2).
    pub refresh: RefreshConfig,
    /// Hotness sampling stride (1 = count every key).
    pub sample_stride: usize,
}

impl UGacheConfig {
    /// A reasonable default for the given entry size and measured
    /// accesses per iteration.
    pub fn new(entry_bytes: usize, accesses_per_iter: f64) -> Self {
        let mut solver = SolverConfig::new(entry_bytes, accesses_per_iter);
        // Batches are deduplicated; size the time model accordingly.
        solver.dedup_adjust = true;
        UGacheConfig {
            dedication: DedicationConfig::default(),
            sim: SimConfig::default(),
            solver,
            refresh: RefreshConfig::default(),
            sample_stride: 16,
        }
    }
}

/// Timing and hit statistics of one data-parallel iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    /// Simulated extraction outcome (slowdown-adjusted).
    pub extract: ExtractOutcome,
    /// Whether a refresh was active during the iteration.
    pub refresh_active: bool,
    /// Virtual time at the end of the iteration (seconds).
    pub clock: f64,
}

/// A live UGache instance managing one embedding table across GPUs.
pub struct UGache {
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
    /// Open telemetry span for an in-flight refresh (inert when no scope
    /// was active at refresh start).
    refresh_span: Option<emb_telemetry::SpanId>,
}

impl UGache {
    /// Builds a UGache: solves the policy for `hotness`, deals the
    /// cache's slots, and stands up the factored extractor. The cache's
    /// rows are read from host on the first [`UGache::gather`]: a UGache
    /// that is only timed never writes them.
    ///
    /// # Errors
    ///
    /// Fails when `hotness` and `host` count different entries,
    /// `cap_entries` does not hold one capacity per GPU or
    /// `cfg.sample_stride` is 0, and propagates solver failures.
    pub fn build(
        platform: Platform,
        host: HostTable,
        hotness: &Hotness,
        cap_entries: Vec<usize>,
        cfg: UGacheConfig,
    ) -> Result<Self, String> {
        if hotness.len() != host.num_entries() {
            return Err(format!(
                "hotness covers {} entries, the host table {}",
                hotness.len(),
                host.num_entries()
            ));
        }
        if cap_entries.len() != platform.num_gpus() {
            return Err(format!(
                "{} capacities for {} GPUs",
                cap_entries.len(),
                platform.num_gpus()
            ));
        }
        if cfg.sample_stride == 0 {
            return Err("sample stride 0: the sampler records one key in every stride".to_string());
        }
        let solver = UGacheSolver::new(platform.clone(), cfg.dedication);
        let solved = solver.solve(hotness, &cap_entries, &cfg.solver)?;
        let cache = MultiGpuCache::build_unfilled(host, &solved.placement, &cap_entries);
        let extractor = Extractor::new(
            platform.clone(),
            cfg.sim,
            Mechanism::Factored {
                dedication: cfg.dedication,
            },
        );
        let sampler = HotnessSampler::new(hotness.len(), cfg.sample_stride);
        let refresher = Refresher::new(cfg.refresh);
        Ok(UGache {
            platform,
            solver,
            extractor,
            cache,
            sampler,
            refresher,
            cfg,
            cap_entries,
            predicted_secs: solved.predicted_secs,
            clock: 0.0,
            refresh_span: None,
        })
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active placement.
    pub fn placement(&self) -> &Placement {
        self.cache.placement()
    }

    /// Current virtual time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The solver's predicted per-iteration extraction time (seconds).
    pub fn predicted_extraction_secs(&self) -> f64 {
        self.predicted_secs
    }

    /// Completed refresh durations (seconds).
    pub fn refresh_history(&self) -> &[f64] {
        self.refresher.history.as_slice()
    }

    /// Functional gather for one GPU: fills `out` with real embedding
    /// values and feeds the hotness sampler. The first one fills the
    /// cache's rows ([`MultiGpuCache::fill`]).
    pub fn gather(&mut self, gpu: usize, keys: &[u32], out: &mut [f32]) -> emb_cache::GatherStats {
        self.sampler.observe(keys);
        self.cache.fill();
        self.cache.gather(gpu, keys, out)
    }

    /// One timed data-parallel iteration: simulates extraction of
    /// `keys_per_gpu` under the current placement, advances the virtual
    /// clock, ticks the refresher, and applies its foreground impact.
    pub fn process_iteration(&mut self, keys_per_gpu: &[Vec<u32>]) -> IterationReport {
        for keys in keys_per_gpu {
            self.sampler.observe(keys);
        }
        let base_ns = emb_telemetry::clock_ns();
        // Split keys by source with the cache's plan counting pass
        // (identical to `Placement::split_keys`, but reusing the gather
        // plan's buffers) and hand the counts straight to the extractor.
        let splits = self.cache.access_splits(keys_per_gpu);
        let mut outcome = self
            .extractor
            .extract_splits(&splits, self.cfg.solver.entry_bytes);
        let slowdown = self.refresher.slowdown();
        if slowdown > 1.0 {
            let unadjusted = outcome.makespan;
            outcome = outcome.scaled(slowdown);
            // The extractor advanced the scope clock by the raw makespan;
            // push it past the refresh-induced slowdown too so the
            // iteration span covers the adjusted window.
            emb_telemetry::advance_clock_ns((outcome.makespan - unadjusted).as_nanos());
        }
        self.clock += outcome.makespan.as_secs_f64();
        let refresh_active = self.refresher.active();
        let clock = self.clock;
        self.tick_refresher();
        emb_telemetry::span(
            "ugache/iterations",
            "iteration",
            base_ns,
            emb_telemetry::clock_ns(),
            || {
                Fields::new(
                    &["extract_secs", "refresh_active"],
                    &[
                        outcome.makespan.as_secs_f64().into(),
                        u64::from(refresh_active).into(),
                    ],
                )
            },
        );
        ITERATIONS.add(1.0);
        EXTRACT_SECS.add(outcome.makespan.as_secs_f64());
        emb_telemetry::event("ugache.iteration", || {
            Fields::new(
                &["extract_secs", "clock_secs", "refresh_active"],
                &[
                    outcome.makespan.as_secs_f64().into(),
                    clock.into(),
                    u64::from(refresh_active).into(),
                ],
            )
        });
        IterationReport {
            extract: outcome,
            refresh_active,
            clock,
        }
    }

    /// Advances the virtual clock without extraction work (e.g. dense
    /// compute time), still ticking the refresher.
    pub fn advance_clock(&mut self, secs: f64) {
        self.clock += secs;
        emb_telemetry::advance_clock_ns(emb_util::SimTime::from_secs_f64(secs).as_nanos());
        self.tick_refresher();
    }

    /// Ticks the refresher at the current virtual time and closes the
    /// refresh lifecycle span when the tick completes a refresh.
    fn tick_refresher(&mut self) {
        if let Some(secs) = self.refresher.tick(self.clock, &mut self.cache) {
            if let Some(id) = self.refresh_span.take() {
                emb_telemetry::span_end(id, emb_telemetry::clock_ns(), || {
                    Fields::new(&["secs"], &[secs.into()])
                });
            }
        }
    }

    /// Re-solves the policy against freshly sampled hotness and starts a
    /// background refresh if the estimated benefit exceeds the trigger
    /// threshold, or whatever the benefit when `force` is set. Returns
    /// whether a refresh started.
    ///
    /// Even with `force`, two cases solve nothing and return `Ok(false)`:
    /// a refresh is already in progress, or the sampler has counted no key
    /// since the last refresh began (or since the build), so its snapshot
    /// totals zero.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn consider_refresh(&mut self, force: bool) -> Result<bool, String> {
        if self.refresher.active() {
            return Ok(false);
        }
        let snapshot = self.sampler.snapshot();
        if snapshot.total() <= 0.0 {
            return Ok(false);
        }
        // One dedup calibration serves both the re-solve and the question
        // "how would the *current* placement fare under the new hotness?",
        // so the two estimates are comparable.
        let fresh = self.cfg.solver.adjusted(&snapshot);
        let solved = self
            .solver
            .solve_adjusted(&fresh, &self.cap_entries, &self.cfg.solver)?;
        // Forced, the current placement's estimate has no reader.
        let worth = || {
            let current = cache_policy::estimate_extraction_time(
                self.cache.placement(),
                &fresh,
                self.solver.profile(),
                self.cfg.solver.entry_bytes,
                self.cfg.solver.accesses_per_iter,
            );
            (self.refresher).should_refresh(current.makespan, solved.predicted_secs)
        };
        if force || worth() {
            self.refresher
                .begin(self.clock, self.cache.placement(), solved.placement);
            self.predicted_secs = solved.predicted_secs;
            self.sampler.reset();
            self.refresh_span = Some(emb_telemetry::span_begin(
                "ugache/refresh",
                "refresh",
                emb_telemetry::clock_ns(),
            ));
            REFRESHES.add(1.0);
            emb_telemetry::event("ugache.refresh_started", || {
                Fields::new(
                    &["clock_secs", "predicted_secs"],
                    &[self.clock.into(), self.predicted_secs.into()],
                )
            });
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Whether a refresh is currently active.
    pub fn refresh_active(&self) -> bool {
        self.refresher.active()
    }

    /// Checks the cache against its invariants ([`MultiGpuCache::audit`]):
    /// once a gather has filled the rows, every row a GPU reads holds the
    /// entry's host value, and at rest the arenas hold what the placement
    /// stores.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn audit(&self) -> Result<(), String> {
        self.cache.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::zipf::powerlaw_hotness;

    const N: usize = 2_000;
    const DIM: usize = 8;

    fn build() -> UGache {
        let platform = Platform::server_a();
        let host = HostTable::procedural(N, DIM);
        let hotness = Hotness::new(powerlaw_hotness(N, 1.2));
        let mut cfg = UGacheConfig::new(DIM * 4, 500.0);
        cfg.solver.blocks.max_blocks = 32;
        cfg.solver.blocks.min_splits = 4;
        UGache::build(platform, host, &hotness, vec![200; 4], cfg).unwrap()
    }

    #[test]
    fn build_and_functional_gather() {
        let mut u = build();
        let keys = [0u32, 1, 1999, 500];
        let mut out = vec![0.0f32; keys.len() * DIM];
        let stats = u.gather(0, &keys, &mut out);
        assert_eq!(stats.total(), 4);
        let truth = HostTable::procedural(N, DIM);
        for (k, &key) in keys.iter().enumerate() {
            assert_eq!(&out[k * DIM..(k + 1) * DIM], truth.read(key).as_slice());
        }
    }

    #[test]
    fn build_refuses_mismatched_sizes() {
        let platform = Platform::server_a();
        let hotness = Hotness::new(powerlaw_hotness(N, 1.2));
        let cfg = UGacheConfig::new(DIM * 4, 500.0);
        let build = |entries, caps| {
            let host = HostTable::procedural(entries, DIM);
            UGache::build(platform.clone(), host, &hotness, caps, cfg).err()
        };
        assert_eq!(
            build(N + 1, vec![200; 4]).as_deref(),
            Some("hotness covers 2000 entries, the host table 2001")
        );
        assert_eq!(
            build(N, vec![200; 3]).as_deref(),
            Some("3 capacities for 4 GPUs")
        );
    }

    #[test]
    fn build_refuses_a_zero_sample_stride() {
        // It used to solve and fill, then panic building the sampler.
        let mut cfg = UGacheConfig::new(DIM * 4, 500.0);
        cfg.sample_stride = 0;
        let hotness = Hotness::new(powerlaw_hotness(N, 1.2));
        let host = HostTable::procedural(N, DIM);
        let err = UGache::build(Platform::server_a(), host, &hotness, vec![200; 4], cfg).err();
        assert_eq!(
            err.as_deref(),
            Some("sample stride 0: the sampler records one key in every stride")
        );
    }

    #[test]
    fn timed_iteration_advances_clock() {
        let mut u = build();
        let keys: Vec<Vec<u32>> = (0..4)
            .map(|g| (g * 100..g * 100 + 400).map(|k| (k % N) as u32).collect())
            .collect();
        let r = u.process_iteration(&keys);
        assert!(r.extract.makespan > emb_util::SimTime::ZERO);
        assert!(u.clock() > 0.0);
        assert!(!r.refresh_active);
    }

    #[test]
    fn forced_refresh_runs_to_completion() {
        let mut u = build();
        let keys: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..300u32).map(|k| (N as u32 - 1) - (k % 1000)).collect())
            .collect();
        // Feed some accesses so the sampler has a signal, then force.
        for _ in 0..3 {
            u.process_iteration(&keys);
        }
        assert!(u.consider_refresh(true).unwrap());
        assert!(u.refresh_active());
        // Drive the clock past solve + updates.
        let mut guard = 0;
        while u.refresh_active() {
            u.advance_clock(1.0);
            guard += 1;
            assert!(guard < 1_000, "refresh stuck");
        }
        assert_eq!(u.refresh_history().len(), 1);
    }

    #[test]
    fn forced_refresh_targets_what_a_separately_calibrated_solve_would() {
        // `consider_refresh` calibrates the dedup adjustment once and
        // shares it between the re-solve and the trigger estimate; the
        // refresh it starts must be the one `solve` (its own calibration
        // inside) asks for on the same snapshot.
        let mut u = build();
        assert!(u.cfg.solver.dedup_adjust);
        let keys: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..300u32).map(|k| (N as u32 - 1) - (k % 1000)).collect())
            .collect();
        for _ in 0..3 {
            u.process_iteration(&keys);
        }
        let snapshot = u.sampler.snapshot();
        let expected = u
            .solver
            .solve(&snapshot, &u.cap_entries, &u.cfg.solver)
            .unwrap();
        assert_ne!(&expected.placement, u.placement(), "the drift moves rows");

        assert!(u.consider_refresh(true).unwrap());
        assert_eq!(
            u.predicted_extraction_secs().to_bits(),
            expected.predicted_secs.to_bits()
        );
        let mut guard = 0;
        while u.refresh_active() {
            u.advance_clock(1.0);
            guard += 1;
            assert!(guard < 1_000, "refresh stuck");
        }
        assert_eq!(u.placement(), &expected.placement);
    }

    #[test]
    fn refresh_lifecycle_and_iteration_spans_are_recorded() {
        let ((), report) = emb_telemetry::collect(|| {
            let mut u = build();
            let keys: Vec<Vec<u32>> = (0..4)
                .map(|_| (0..300u32).map(|k| (N as u32 - 1) - (k % 1000)).collect())
                .collect();
            for _ in 0..3 {
                u.process_iteration(&keys);
            }
            u.consider_refresh(true).unwrap();
            let mut guard = 0;
            while u.refresh_active() {
                u.advance_clock(1.0);
                guard += 1;
                assert!(guard < 1_000, "refresh stuck");
            }
        });
        let iterations: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.track == "ugache/iterations")
            .collect();
        assert_eq!(iterations.len(), 3);
        // Iterations are contiguous on the scope clock: each starts where
        // the previous ended.
        for w in iterations.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
        let refresh: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.track == "ugache/refresh")
            .collect();
        assert_eq!(refresh.len(), 1);
        assert!(refresh[0].end_ns > refresh[0].start_ns);
        assert!(
            refresh[0].fields.get("secs").is_some(),
            "closed refresh span carries its duration"
        );
    }

    #[test]
    fn a_forced_refresh_starts_nothing_on_an_empty_sampler_or_during_a_refresh() {
        let mut u = build();
        // Nothing sampled since the build.
        assert!(!u.consider_refresh(true).unwrap());
        assert!(!u.refresh_active());
        let keys: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..300u32).map(|k| (N as u32 - 1) - (k % 1000)).collect())
            .collect();
        u.process_iteration(&keys);
        assert!(u.consider_refresh(true).unwrap());
        let predicted = u.predicted_extraction_secs();
        // Already refreshing: no second solve, even with fresh samples.
        u.process_iteration(&keys);
        assert!(!u.consider_refresh(true).unwrap());
        assert_eq!(u.predicted_extraction_secs(), predicted);
        let mut guard = 0;
        while u.refresh_active() {
            u.advance_clock(1.0);
            guard += 1;
            assert!(guard < 1_000, "refresh stuck");
        }
        // The refresh reset the sampler when it began; the iteration run
        // during it was counted after, so one more refresh can start, and
        // then none until keys are seen again.
        assert!(u.consider_refresh(true).unwrap());
        while u.refresh_active() {
            u.advance_clock(1.0);
        }
        assert!(!u.consider_refresh(true).unwrap());
        assert_eq!(u.refresh_history().len(), 2);
    }

    #[test]
    fn refresh_slows_foreground() {
        let mut u = build();
        let keys: Vec<Vec<u32>> = (0..4).map(|_| (0..500u32).collect()).collect();
        let before = u.process_iteration(&keys).extract.makespan;
        u.consider_refresh(true).unwrap();
        let during = u.process_iteration(&keys).extract.makespan;
        assert!(during > before, "during {during} vs before {before}");
    }

    #[test]
    fn no_refresh_without_drift() {
        use emb_util::{seed_rng, ZipfSampler};
        let platform = Platform::server_a();
        let host = HostTable::procedural(N, DIM);
        let hotness = Hotness::new(powerlaw_hotness(N, 1.2));
        let mut cfg = UGacheConfig::new(DIM * 4, 500.0);
        cfg.solver.blocks.max_blocks = 32;
        cfg.solver.blocks.min_splits = 4;
        // Count every key so sampling noise cannot fake a drift.
        cfg.sample_stride = 1;
        let mut u = UGache::build(platform, host, &hotness, vec![200; 4], cfg).unwrap();
        // Feed batches drawn from the same power law the cache was solved
        // for: no drift, no refresh.
        let zipf = ZipfSampler::new(N as u64, 1.2);
        let mut rng = seed_rng(99);
        for _ in 0..20 {
            let keys: Vec<Vec<u32>> = (0..4)
                .map(|_| {
                    let mut v: Vec<u32> = (0..2000).map(|_| zipf.sample(&mut rng) as u32).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            u.process_iteration(&keys);
        }
        assert!(!u.consider_refresh(false).unwrap());
    }
}
