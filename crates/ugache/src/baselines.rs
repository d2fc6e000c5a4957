//! Baseline system emulations (paper §8.1).
//!
//! Each baseline is reconstructed from the same substrate as UGache so
//! that comparisons isolate *policy* and *mechanism*. A system is a row
//! of this table, and the table is the API: [`SystemKind::place`] is the
//! policy column, [`SystemKind::mechanism`] the mechanism and extra-cost
//! columns.
//!
//! | system      | policy                    | mechanism      | extra cost |
//! |-------------|---------------------------|----------------|------------|
//! | GNNLab      | replication               | peer (local)   | sampler GPUs + host queues (app level) |
//! | WholeGraph  | partition (must fit all)  | naive peer     | fails on unconnected pairs / small memory |
//! | PartU       | partition (+CPU fallback) | naive peer     | cliques on non-uniform platforms |
//! | RepU        | replication               | naive peer     | — |
//! | Quiver      | clique partition          | naive peer     | — |
//! | HPS         | replication               | naive peer     | LRU online-eviction overhead |
//! | SOK         | partition (+CPU fallback) | message-based  | — |
//! | UGache      | solver (§6)               | factored (§5)  | — |
//!
//! Three ways to get a cell:
//!
//! * a row as it stands — [`build_system`];
//! * any placement under a row's mechanism — [`SystemInstance::new`]
//!   (Fig. 15's three policies read through UGache's mechanism, Fig. 16's
//!   hand-solved placements);
//! * a built system's placement under another row's mechanism —
//!   [`SystemInstance::under`] (Fig. 12's "+Policy" is
//!   `ugache.under(SystemKind::PartU, seed)`).

use crate::system::UGacheConfig;
use cache_policy::{baselines as policies, Hotness, Placement, UGacheSolver};
use emb_workload::BatchSource;
use extractor::{ExtractOutcome, Extractor, Mechanism};
use gpu_memsim::SimConfig;
use gpu_platform::{DedicationConfig, Platform};

/// Fractional extraction-time overhead of HPS's LRU bookkeeping (online
/// eviction on every lookup; the paper credits UGache's static design
/// with removing exactly this cost).
const HPS_LRU_OVERHEAD: f64 = 0.20;

/// The systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// This paper's system.
    UGache,
    /// GNNLab-style replication cache (paper baseline for GNN).
    GnnLab,
    /// WholeGraph: strict partition, peer access.
    WholeGraph,
    /// PartU: WholeGraph extended with a CPU tier and clique support.
    PartU,
    /// RepU: PartU's codebase with a replication policy.
    RepU,
    /// Quiver-style clique partition.
    Quiver,
    /// HPS: replication + LRU online eviction (paper baseline for DLR).
    Hps,
    /// SOK: partition + message-based extraction.
    Sok,
}

impl SystemKind {
    /// Every system, in paper order.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::UGache,
        SystemKind::GnnLab,
        SystemKind::WholeGraph,
        SystemKind::PartU,
        SystemKind::RepU,
        SystemKind::Quiver,
        SystemKind::Hps,
        SystemKind::Sok,
    ];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::UGache => "UGache",
            SystemKind::GnnLab => "GNNLab",
            SystemKind::WholeGraph => "WholeGraph",
            SystemKind::PartU => "PartU",
            SystemKind::RepU => "RepU",
            SystemKind::Quiver => "Quiver",
            SystemKind::Hps => "HPS",
            SystemKind::Sok => "SOK",
        }
    }

    /// The policy column: the entry-level placement this system computes
    /// for `cap_entries` cache slots per GPU. `entry_bytes` and
    /// `accesses_per_iter` size UGache's time model; the other policies
    /// ignore them.
    ///
    /// # Errors
    ///
    /// [`SystemKind::WholeGraph`] fails exactly where the real system fails
    /// to launch: unconnected GPU pairs, or total GPU memory below the full
    /// embedding volume. [`SystemKind::UGache`] propagates solver errors.
    pub fn place(
        self,
        platform: &Platform,
        hotness: &Hotness,
        cap_entries: usize,
        entry_bytes: usize,
        accesses_per_iter: f64,
    ) -> Result<Placement, String> {
        let g = platform.num_gpus();
        match self {
            SystemKind::UGache => {
                let cfg = UGacheConfig::new(entry_bytes, accesses_per_iter);
                let solver = UGacheSolver::new(platform.clone(), cfg.dedication);
                let solved = solver.solve(hotness, &vec![cap_entries; g], &cfg.solver)?;
                Ok(solved.placement)
            }
            SystemKind::GnnLab | SystemKind::RepU | SystemKind::Hps => {
                Ok(policies::replication(platform, hotness, cap_entries))
            }
            SystemKind::WholeGraph => {
                let e = hotness.len();
                if g * cap_entries < e {
                    return Err(format!(
                        "WholeGraph cannot launch: total GPU cache ({}) below embedding count ({e})",
                        g * cap_entries
                    ));
                }
                policies::partition(platform, hotness, cap_entries)
                    .map_err(|err| format!("WholeGraph cannot launch: {err}"))
            }
            SystemKind::PartU | SystemKind::Sok => {
                Ok(policies::partition(platform, hotness, cap_entries)
                    .unwrap_or_else(|_| policies::clique_partition(platform, hotness, cap_entries)))
            }
            SystemKind::Quiver => Ok(policies::clique_partition(platform, hotness, cap_entries)),
        }
    }

    /// The mechanism and extra-cost columns: how this system reads a
    /// placement (`seed` shuffles naive peer dispatch; the other
    /// mechanisms ignore it) and the multiplier its per-lookup
    /// bookkeeping puts on every extraction time.
    pub fn mechanism(self, seed: u64) -> (Mechanism, f64) {
        let naive = Mechanism::PeerNaive { seed };
        match self {
            SystemKind::UGache => {
                let dedication = DedicationConfig::default();
                (Mechanism::Factored { dedication }, 1.0)
            }
            SystemKind::Sok => (Mechanism::MessageBased, 1.0),
            SystemKind::Hps => (naive, 1.0 + HPS_LRU_OVERHEAD),
            SystemKind::GnnLab
            | SystemKind::WholeGraph
            | SystemKind::PartU
            | SystemKind::RepU
            | SystemKind::Quiver => (naive, 1.0),
        }
    }
}

/// A ready-to-measure system: placement + extraction mechanism.
#[derive(Debug, Clone)]
pub struct SystemInstance {
    /// The row whose mechanism reads the placement — and, when built by
    /// [`build_system`], whose policy produced it.
    pub kind: SystemKind,
    /// The entry-level placement being read.
    pub placement: Placement,
    /// The extraction front-end its mechanism uses.
    pub extractor: Extractor,
    /// Multiplier on extraction time for per-lookup bookkeeping.
    pub overhead_factor: f64,
    /// Bytes per embedding entry.
    pub entry_bytes: usize,
}

impl SystemInstance {
    /// Reads `placement` through `kind`'s mechanism (with its overhead)
    /// on `platform`, whichever policy produced the placement.
    pub fn new(
        kind: SystemKind,
        platform: &Platform,
        placement: Placement,
        entry_bytes: usize,
        seed: u64,
    ) -> Self {
        let (mechanism, overhead_factor) = kind.mechanism(seed);
        SystemInstance {
            kind,
            placement,
            extractor: Extractor::new(platform.clone(), SimConfig::default(), mechanism),
            overhead_factor,
            entry_bytes,
        }
    }

    /// This system's placement re-read through `kind`'s mechanism: the
    /// off-diagonal cells of the module table.
    pub fn under(&self, kind: SystemKind, seed: u64) -> SystemInstance {
        SystemInstance::new(
            kind,
            self.extractor.platform(),
            self.placement.clone(),
            self.entry_bytes,
            seed,
        )
    }

    /// Extracts one iteration's key batches, applying the system's
    /// bookkeeping overhead.
    pub fn extract(&self, keys_per_gpu: &[Vec<u32>]) -> ExtractOutcome {
        let out = self
            .extractor
            .extract(&self.placement, keys_per_gpu, self.entry_bytes);
        if self.overhead_factor > 1.0 {
            out.scaled(self.overhead_factor)
        } else {
            out
        }
    }

    /// [`SystemInstance::extract`]'s makespan in milliseconds — the number
    /// most figures plot.
    pub fn extract_ms(&self, keys_per_gpu: &[Vec<u32>]) -> f64 {
        self.extract(keys_per_gpu).makespan.as_secs_f64() * 1e3
    }

    /// Draws `iters` (at least one) batches from `source` and extracts
    /// each: `(mean extraction seconds, mean keys per GPU)` per iteration.
    pub fn mean_extract(&self, source: &mut impl BatchSource, iters: usize) -> (f64, f64) {
        let n = iters.max(1);
        let g = self.placement.num_gpus as f64;
        let (mut secs, mut keys) = (0.0, 0.0);
        for _ in 0..n {
            let batch = source.next_batch();
            keys += batch.iter().map(Vec::len).sum::<usize>() as f64 / g;
            secs += self.extract(&batch).makespan.as_secs_f64();
        }
        (secs / n as f64, keys / n as f64)
    }
}

/// Builds a baseline (or UGache itself) on a platform: `kind`'s placement
/// read through `kind`'s mechanism.
///
/// # Errors
///
/// Those of [`SystemKind::place`].
pub fn build_system(
    kind: SystemKind,
    platform: &Platform,
    hotness: &Hotness,
    cap_entries: usize,
    entry_bytes: usize,
    accesses_per_iter: f64,
    seed: u64,
) -> Result<SystemInstance, String> {
    let placement = kind.place(
        platform,
        hotness,
        cap_entries,
        entry_bytes,
        accesses_per_iter,
    )?;
    Ok(SystemInstance::new(
        kind,
        platform,
        placement,
        entry_bytes,
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::zipf::powerlaw_hotness;
    use emb_util::{seed_rng, ZipfSampler};

    const N: usize = 40_000;
    const BYTES: usize = 512;

    fn hotness() -> Hotness {
        Hotness::new(powerlaw_hotness(N, 1.2))
    }

    fn batches(g: usize, per_gpu: usize) -> Vec<Vec<u32>> {
        let zipf = ZipfSampler::new(N as u64, 1.2);
        (0..g)
            .map(|i| {
                let mut rng = seed_rng(77 + i as u64);
                let mut v: Vec<u32> = (0..per_gpu).map(|_| zipf.sample(&mut rng) as u32).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }

    #[test]
    fn all_systems_build_on_server_c() {
        let plat = Platform::server_c();
        let h = hotness();
        for kind in [
            SystemKind::UGache,
            SystemKind::GnnLab,
            SystemKind::PartU,
            SystemKind::RepU,
            SystemKind::Quiver,
            SystemKind::Hps,
            SystemKind::Sok,
        ] {
            let s = build_system(kind, &plat, &h, 1500, BYTES, 2e4, 1).unwrap();
            s.placement.validate().unwrap();
        }
    }

    #[test]
    fn wholegraph_launch_failures_match_paper() {
        let h = hotness();
        // ① total GPU memory below embedding volume.
        let err = build_system(
            SystemKind::WholeGraph,
            &Platform::server_c(),
            &h,
            100,
            BYTES,
            2e4,
            1,
        )
        .unwrap_err();
        assert!(err.contains("cannot launch"));
        // ② unconnected pairs (Server B), even with enough memory.
        let err = build_system(
            SystemKind::WholeGraph,
            &Platform::server_b(),
            &h,
            N,
            BYTES,
            2e4,
            1,
        )
        .unwrap_err();
        assert!(err.contains("cannot launch"));
        // Enough memory + fully connected: launches.
        let ok = build_system(
            SystemKind::WholeGraph,
            &Platform::server_c(),
            &h,
            N / 8 + 1,
            BYTES,
            2e4,
            1,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn ugache_extraction_beats_baselines_end_to_end() {
        let plat = Platform::server_c();
        let h = hotness();
        let keys = batches(8, 20_000);
        let cap = 1500;
        let t = |kind| {
            build_system(kind, &plat, &h, cap, BYTES, 2e4, 1)
                .unwrap()
                .extract(&keys)
                .makespan
        };
        let u = t(SystemKind::UGache);
        for kind in [
            SystemKind::Hps,
            SystemKind::Sok,
            SystemKind::RepU,
            SystemKind::PartU,
        ] {
            let b = t(kind);
            assert!(
                u.as_secs_f64() <= b.as_secs_f64() * 1.02,
                "UGache {u} vs {} {b}",
                kind.name()
            );
        }
    }

    #[test]
    fn hps_overhead_applies() {
        let plat = Platform::server_a();
        let h = hotness();
        let keys = batches(4, 10_000);
        let hps = build_system(SystemKind::Hps, &plat, &h, 1000, BYTES, 1e4, 1).unwrap();
        let repu = build_system(SystemKind::RepU, &plat, &h, 1000, BYTES, 1e4, 1).unwrap();
        let t_hps = hps.extract(&keys).makespan;
        let t_repu = repu.extract(&keys).makespan;
        let ratio = t_hps.as_secs_f64() / t_repu.as_secs_f64();
        assert!(
            (ratio - (1.0 + HPS_LRU_OVERHEAD)).abs() < 0.02,
            "ratio {ratio}"
        );
    }

    #[test]
    fn partu_falls_back_to_cliques_on_server_b() {
        let plat = Platform::server_b();
        let h = hotness();
        let s = build_system(SystemKind::PartU, &plat, &h, 1000, BYTES, 2e4, 1).unwrap();
        s.placement.validate().unwrap();
        // GPU0 must never read from the other clique.
        for e in 0..N {
            let src = s.placement.source(0, e);
            assert!(src == s.placement.host_idx() || src < 4);
        }
    }
}
