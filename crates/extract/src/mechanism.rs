//! Mechanism implementations and the unified extraction front-end.

use cache_policy::Placement;
use emb_telemetry::{Counter, Fields};
use emb_util::SimTime;
use gpu_memsim::{DispatchMode, GpuExtraction, GpuWork, SimConfig, Simulator, SourceDemand};
use gpu_platform::{DedicationConfig, Location, Platform};
use std::cell::RefCell;

/// Span tracks of the per-tier `gather` spans, `[local, remote, host]`.
const TIER_TRACKS: [&str; 3] = [
    "extract/tier:local",
    "extract/tier:remote",
    "extract/tier:host",
];

/// Extraction calls, and bytes per tier `[local, remote, host]` (names in
/// EXPERIMENTS.md).
static CALLS: Counter = Counter::new("extract.calls");
static TIER_BYTES: [Counter; 3] = [
    Counter::new("extract.bytes.local"),
    Counter::new("extract.bytes.remote"),
    Counter::new("extract.bytes.host"),
];

/// How cross-GPU embedding extraction is carried out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Buffer + AllToAll + reorder (message-passing systems).
    MessageBased,
    /// Zero-copy peer access with unorganized random dispatch.
    PeerNaive {
        /// Dispatch shuffle seed.
        seed: u64,
    },
    /// UGache's factored extraction mechanism.
    Factored {
        /// Core-dedication tunables.
        dedication: DedicationConfig,
    },
}

/// Result of one extraction call.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractOutcome {
    /// Time until the slowest GPU finished.
    pub makespan: SimTime,
    /// Per-GPU details (timing and per-source byte accounting).
    pub per_gpu: Vec<GpuExtraction>,
}

impl ExtractOutcome {
    /// The same extraction with every time (the makespan and each GPU's)
    /// multiplied by `factor`: per-lookup bookkeeping overhead, or the
    /// foreground slowdown of a background refresh.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.makespan = self.makespan.mul_f64(factor);
        for g in &mut self.per_gpu {
            g.time = g.time.mul_f64(factor);
        }
        self
    }
}

/// Extraction front-end bound to a platform and simulator config.
#[derive(Debug, Clone)]
pub struct Extractor {
    platform: Platform,
    sim: SimConfig,
    mechanism: Mechanism,
    /// The peer mechanisms' simulator: per-topology tables built here,
    /// once, and scratch reused by every extraction (`None` for the
    /// analytic message-based model).
    simulator: Option<RefCell<Simulator>>,
}

impl Extractor {
    /// Creates an extractor.
    pub fn new(platform: Platform, sim: SimConfig, mechanism: Mechanism) -> Self {
        let mode = match mechanism {
            Mechanism::PeerNaive { seed } => Some(DispatchMode::RandomShared { seed }),
            Mechanism::Factored { dedication } => Some(DispatchMode::Factored { dedication }),
            Mechanism::MessageBased => None,
        };
        let simulator = mode.map(|mode| RefCell::new(Simulator::new(&platform, &sim, mode)));
        Extractor {
            platform,
            sim,
            mechanism,
            simulator,
        }
    }

    /// The mechanism in use.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Builds per-GPU source demands from a placement and key batches:
    /// `Placement::split_keys` per GPU, then
    /// [`Extractor::works_from_splits`].
    ///
    /// # Panics
    ///
    /// Panics if `keys_per_gpu.len()` differs from the GPU count.
    pub fn works_from_keys(
        &self,
        placement: &Placement,
        keys_per_gpu: &[Vec<u32>],
        entry_bytes: usize,
    ) -> Vec<GpuWork> {
        let splits: Vec<_> = keys_per_gpu
            .iter()
            .enumerate()
            .map(|(gpu, keys)| placement.split_keys(gpu, keys))
            .collect();
        self.works_from_splits(&splits, entry_bytes)
    }

    /// Builds per-GPU source demands from precomputed per-source key
    /// splits (one `(location, key_count)` list per destination GPU, e.g.
    /// a gather plan's `source_split`), skipping the per-key pass of
    /// [`Extractor::works_from_keys`].
    ///
    /// # Panics
    ///
    /// Panics if `splits.len()` differs from the GPU count.
    pub fn works_from_splits(
        &self,
        splits: &[Vec<(Location, u64)>],
        entry_bytes: usize,
    ) -> Vec<GpuWork> {
        assert_eq!(
            splits.len(),
            self.platform.num_gpus(),
            "one key batch per GPU"
        );
        splits
            .iter()
            .enumerate()
            .map(|(gpu, split)| {
                let demands = split
                    .iter()
                    .map(|&(src, count)| SourceDemand {
                        src,
                        bytes: count as f64 * entry_bytes as f64,
                    })
                    .collect();
                GpuWork { gpu, demands }
            })
            .collect()
    }

    /// Extracts the given key batches under the configured mechanism.
    pub fn extract(
        &self,
        placement: &Placement,
        keys_per_gpu: &[Vec<u32>],
        entry_bytes: usize,
    ) -> ExtractOutcome {
        let works = self.works_from_keys(placement, keys_per_gpu, entry_bytes);
        self.extract_works(&works)
    }

    /// Extracts precomputed per-source key splits (the plan-based
    /// front-end: callers that already counted keys per source — e.g. via
    /// `emb_cache`'s gather plan — skip the per-key split pass).
    pub fn extract_splits(
        &self,
        splits: &[Vec<(Location, u64)>],
        entry_bytes: usize,
    ) -> ExtractOutcome {
        let works = self.works_from_splits(splits, entry_bytes);
        self.extract_works(&works)
    }

    /// Extracts pre-computed per-source demands.
    pub fn extract_works(&self, works: &[GpuWork]) -> ExtractOutcome {
        let telemetry_on = emb_telemetry::enabled();
        // Per-tier byte totals, relative to each destination GPU: local
        // HBM / peer NVLink / host PCIe (names in EXPERIMENTS.md). Only
        // computed when a telemetry scope is listening.
        let mut tiers = [0.0f64; 3]; // local, remote, host
        if telemetry_on {
            for w in works {
                for d in &w.demands {
                    match d.src {
                        Location::Gpu(j) if j == w.gpu => tiers[0] += d.bytes,
                        Location::Gpu(_) => tiers[1] += d.bytes,
                        Location::Host => tiers[2] += d.bytes,
                    }
                }
            }
            CALLS.add(1.0);
            for (bytes, tier) in TIER_BYTES.iter().zip(tiers) {
                bytes.add(tier);
            }
        }
        let base_ns = emb_telemetry::clock_ns();
        let outcome = self.dispatch(works);
        if telemetry_on {
            // One gather span per tier with traffic, spanning the whole
            // extraction window on the scope clock (the mechanism advanced
            // the clock past its makespan).
            let end_ns = base_ns.saturating_add(outcome.makespan.as_nanos());
            for (track, bytes) in TIER_TRACKS.into_iter().zip(tiers) {
                if bytes > 0.0 {
                    emb_telemetry::span(track, "gather", base_ns, end_ns, || {
                        Fields::new(&["bytes"], &[bytes.into()])
                    });
                }
            }
        }
        outcome
    }

    /// Runs the configured mechanism (no telemetry of its own; the
    /// simulator and the message-based model record their spans and
    /// advance the scope clock themselves).
    fn dispatch(&self, works: &[GpuWork]) -> ExtractOutcome {
        match &self.simulator {
            Some(simulator) => {
                let r = simulator.borrow_mut().simulate(works);
                ExtractOutcome {
                    makespan: r.makespan,
                    per_gpu: r.per_gpu,
                }
            }
            None => self.message_based(works),
        }
    }

    /// Analytic phase model for the message-based mechanism: every GPU
    /// first gathers the entries it owns that anyone needs into send
    /// buffers (2 local passes), buffers are exchanged AllToAll, host
    /// misses are fetched over PCIe, and received buffers are reordered
    /// into output order (2 local passes over received + locally hit
    /// data). Phases synchronize globally, as collective communication
    /// requires.
    fn message_based(&self, works: &[GpuWork]) -> ExtractOutcome {
        let g = self.platform.num_gpus();
        let mut bytes = vec![vec![0.0f64; g + 1]; g]; // [dst][src], host = g
        for w in works {
            for d in &w.demands {
                let j = match d.src {
                    Location::Gpu(j) => j,
                    Location::Host => g,
                };
                bytes[w.gpu][j] += d.bytes;
            }
        }

        // Phase 1: source-side gather into send buffers (remote-destined
        // bytes only; read + write = 2 local passes).
        let mut t1 = 0.0f64;
        for j in 0..g {
            let out: f64 = (0..g).filter(|&i| i != j).map(|i| bytes[i][j]).sum();
            t1 = t1.max(2.0 * out / self.platform.gpus[j].local_bw);
        }

        // Phase 2: AllToAll exchange via the collectives substrate.
        let mut m = crate::collective::TransferMatrix::zeros(g);
        for i in 0..g {
            for (j, cell) in m.bytes[i].iter_mut().enumerate() {
                if i != j {
                    *cell = bytes[i][j];
                }
            }
        }
        let t2 = crate::collective::all_to_all_time(&self.platform, &m).as_secs_f64();

        // Phase 3: host fill over PCIe (concurrent per GPU).
        let mut t3 = 0.0f64;
        for i in 0..g {
            t3 = t3.max(bytes[i][g] / self.platform.gpus[i].pcie_bw);
        }

        // Phase 4: reorder received buffers + gather local hits.
        let mut t4 = 0.0f64;
        for i in 0..g {
            let received: f64 = (0..g).filter(|&j| j != i).map(|j| bytes[i][j]).sum();
            let local = bytes[i][i];
            t4 = t4.max(2.0 * (received + local) / self.platform.gpus[i].local_bw);
        }

        let overhead = self.sim.launch_overhead.as_secs_f64() * 4.0;
        let total = t1 + t2 + t3 + t4 + overhead;

        if emb_telemetry::enabled() {
            // Phase spans back-to-back on the scope clock (each phase pays
            // one launch overhead), then advance the clock past the call —
            // mirroring what the event-driven simulator does for the peer
            // mechanisms.
            let mut cursor = emb_telemetry::clock_ns();
            let launch = self.sim.launch_overhead.as_secs_f64();
            for (name, secs) in [
                ("gather", t1),
                ("all_to_all", t2),
                ("host_fill", t3),
                ("reorder", t4),
            ] {
                let end = cursor.saturating_add(SimTime::from_secs_f64(secs + launch).as_nanos());
                emb_telemetry::span("extract/phases", name, cursor, end, || {
                    Fields::new(&["secs"], &[(secs + launch).into()])
                });
                cursor = end;
            }
            emb_telemetry::advance_clock_ns(SimTime::from_secs_f64(total).as_nanos());
        }

        // Per-GPU accounting: approximate each GPU's time by its own
        // phase contributions plus the global barriers it waits on.
        let per_gpu: Vec<GpuExtraction> = works
            .iter()
            .map(|w| {
                let per_src: Vec<gpu_memsim::LinkUse> = (0..=g)
                    .filter(|&j| bytes[w.gpu][j] > 0.0)
                    .map(|j| {
                        let src = if j == g {
                            Location::Host
                        } else {
                            Location::Gpu(j)
                        };
                        let peak = if j == g {
                            self.platform.gpus[w.gpu].pcie_bw
                        } else if j == w.gpu {
                            self.platform.gpus[w.gpu].local_bw
                        } else {
                            self.platform.path(w.gpu, src).bw
                        };
                        gpu_memsim::LinkUse {
                            src,
                            bytes: bytes[w.gpu][j],
                            busy: SimTime::from_secs_f64(total),
                            peak_bw: peak,
                        }
                    })
                    .collect();
                GpuExtraction {
                    gpu: w.gpu,
                    time: SimTime::from_secs_f64(total),
                    core_busy: SimTime::from_secs_f64(total),
                    per_src,
                }
            })
            .collect();

        ExtractOutcome {
            makespan: SimTime::from_secs_f64(total),
            per_gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_policy::{baselines, Hotness};
    use emb_util::zipf::powerlaw_hotness;
    use emb_util::{seed_rng, ZipfSampler};

    const ENTRY_BYTES: usize = 512;

    fn hotness(n: usize) -> Hotness {
        Hotness::new(powerlaw_hotness(n, 1.2))
    }

    /// Zipf-distributed key batches matching the hotness shape.
    fn batches(platform: &Platform, n: u64, per_gpu: usize) -> Vec<Vec<u32>> {
        let zipf = ZipfSampler::new(n, 1.2);
        (0..platform.num_gpus())
            .map(|g| {
                let mut rng = seed_rng(1000 + g as u64);
                (0..per_gpu).map(|_| zipf.sample(&mut rng) as u32).collect()
            })
            .collect()
    }

    fn sim_cfg() -> SimConfig {
        SimConfig {
            launch_overhead: SimTime::from_micros(10),
            ..SimConfig::default()
        }
    }

    #[test]
    fn factored_beats_naive_beats_message() {
        let plat = Platform::server_c();
        let n = 100_000u64;
        let h = hotness(n as usize);
        let placement = baselines::partition(&plat, &h, 3_000).unwrap();
        let keys = batches(&plat, n, 60_000);

        let time = |mech: Mechanism| {
            Extractor::new(plat.clone(), sim_cfg(), mech)
                .extract(&placement, &keys, ENTRY_BYTES)
                .makespan
        };
        let t_msg = time(Mechanism::MessageBased);
        let t_naive = time(Mechanism::PeerNaive { seed: 7 });
        let t_fem = time(Mechanism::Factored {
            dedication: DedicationConfig::default(),
        });
        assert!(
            t_fem < t_naive,
            "factored {t_fem} should beat naive {t_naive}"
        );
        assert!(
            t_naive < t_msg,
            "naive peer {t_naive} should beat message {t_msg}"
        );
    }

    #[test]
    fn works_from_keys_matches_split() {
        let plat = Platform::server_a();
        let h = hotness(1000);
        let placement = baselines::replication(&plat, &h, 100);
        let keys: Vec<Vec<u32>> = vec![vec![0, 1, 999], vec![], vec![5], vec![998]];
        let ex = Extractor::new(plat, sim_cfg(), Mechanism::MessageBased);
        let works = ex.works_from_keys(&placement, &keys, ENTRY_BYTES);
        // GPU0: keys 0,1 are hot (cached locally), 999 is cold (host).
        let w0 = &works[0];
        let local: f64 = w0
            .demands
            .iter()
            .filter(|d| d.src == Location::Gpu(0))
            .map(|d| d.bytes)
            .sum();
        let host: f64 = w0
            .demands
            .iter()
            .filter(|d| d.src == Location::Host)
            .map(|d| d.bytes)
            .sum();
        assert_eq!(local, 2.0 * ENTRY_BYTES as f64);
        assert_eq!(host, ENTRY_BYTES as f64);
        assert!(works[1].demands.is_empty());
    }

    #[test]
    fn works_from_splits_matches_works_from_keys() {
        let plat = Platform::server_a();
        let h = hotness(2_000);
        let placement = baselines::partition(&plat, &h, 200).unwrap();
        let keys = batches(&plat, 2_000, 5_000);
        let ex = Extractor::new(plat, sim_cfg(), Mechanism::MessageBased);
        let from_keys = ex.works_from_keys(&placement, &keys, ENTRY_BYTES);
        let splits: Vec<Vec<(Location, u64)>> = (0..keys.len())
            .map(|g| placement.split_keys(g, &keys[g]))
            .collect();
        let from_splits = ex.works_from_splits(&splits, ENTRY_BYTES);
        assert_eq!(from_keys, from_splits);
    }

    #[test]
    fn message_based_penalizes_extra_copies() {
        // With everything locally cached, message-based still pays its
        // reorder passes; peer mechanisms only the gather.
        let plat = Platform::server_c();
        let h = hotness(10_000);
        let placement = baselines::replication(&plat, &h, 10_000);
        let keys = batches(&plat, 10_000, 50_000);
        let msg = Extractor::new(plat.clone(), sim_cfg(), Mechanism::MessageBased).extract(
            &placement,
            &keys,
            ENTRY_BYTES,
        );
        let fem = Extractor::new(
            plat,
            sim_cfg(),
            Mechanism::Factored {
                dedication: DedicationConfig::default(),
            },
        )
        .extract(&placement, &keys, ENTRY_BYTES);
        assert!(msg.makespan > fem.makespan);
    }

    #[test]
    #[should_panic(expected = "unconnected")]
    fn message_based_cannot_cross_unconnected_pairs() {
        let plat = Platform::server_b();
        let mut placement = Placement::all_host(8, 10);
        placement.stored[5].set(0, true);
        placement.set_source(0, 0, 5).unwrap();
        let keys: Vec<Vec<u32>> = (0..8)
            .map(|g| if g == 0 { vec![0] } else { vec![] })
            .collect();
        let ex = Extractor::new(plat, sim_cfg(), Mechanism::MessageBased);
        let _ = ex.extract(&placement, &keys, ENTRY_BYTES);
    }

    #[test]
    fn empty_batches_cost_only_overhead() {
        let plat = Platform::server_a();
        let h = hotness(100);
        let placement = baselines::replication(&plat, &h, 10);
        let keys: Vec<Vec<u32>> = vec![vec![]; 4];
        let fem = Extractor::new(
            plat,
            sim_cfg(),
            Mechanism::Factored {
                dedication: DedicationConfig::default(),
            },
        )
        .extract(&placement, &keys, ENTRY_BYTES);
        assert!(fem.makespan <= SimTime::from_micros(50));
    }

    #[test]
    fn per_gpu_byte_accounting_consistent_across_mechanisms() {
        let plat = Platform::server_a();
        let h = hotness(5_000);
        let placement = baselines::partition(&plat, &h, 500).unwrap();
        let keys = batches(&plat, 5_000, 20_000);
        let fem = Extractor::new(
            plat.clone(),
            sim_cfg(),
            Mechanism::Factored {
                dedication: DedicationConfig::default(),
            },
        )
        .extract(&placement, &keys, ENTRY_BYTES);
        let msg = Extractor::new(plat, sim_cfg(), Mechanism::MessageBased).extract(
            &placement,
            &keys,
            ENTRY_BYTES,
        );
        for (a, b) in fem.per_gpu.iter().zip(&msg.per_gpu) {
            let ta: f64 = a.per_src.iter().map(|u| u.bytes).sum();
            let tb: f64 = b.per_src.iter().map(|u| u.bytes).sum();
            assert!((ta - tb).abs() < 1.0, "GPU{} bytes {ta} vs {tb}", a.gpu);
        }
    }
}
