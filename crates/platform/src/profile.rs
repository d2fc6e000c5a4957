//! Platform profiling: the `T_{i←j}` / `R_{i←j}` matrices of the paper.
//!
//! The cache-policy solver (§6) consumes a profiled summary of the
//! platform: per-path transfer cost `T_{i←j}` (reciprocal bandwidth) and
//! the core-dedication ratios `R_{i←j}` chosen by the factored extractor
//! (§5.3). On real hardware UGache measures these; here they are derived
//! from the declarative [`Platform`] model, which plays the role of the
//! microbenchmark in Figure 6.

use crate::topology::{Interconnect, Location, Platform};

/// Tunables of the core-dedication strategy (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedicationConfig {
    /// Upper bound on the fraction of SMs dedicated to host extraction.
    ///
    /// The paper dedicates "a small number of cores" to the host first;
    /// PCIe tolerates fewer than 10 % of cores (Figure 6), so the actual
    /// count is `min(pcie_tolerance, host_core_fraction · SMs)`.
    pub host_core_fraction: f64,
}

impl Default for DedicationConfig {
    fn default() -> Self {
        DedicationConfig {
            host_core_fraction: 0.12,
        }
    }
}

/// Profiled platform summary: everything the solver and extractor need.
///
/// Source locations are indexed `0..G` for GPUs and `G` for host (see
/// [`Profile::host_index`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Number of GPUs `G`.
    pub num_gpus: usize,
    /// `sec_per_byte[i][j]`: seconds for GPU `i` to move one byte from
    /// source `j` at full path bandwidth; `f64::INFINITY` if unreachable.
    pub sec_per_byte: Vec<Vec<f64>>,
    /// `r[i][j]`: fraction of GPU `i`'s SMs dedicated to source `j`.
    /// `r[i][i] == 1.0` by convention: local extraction pads *all* cores
    /// once their dedicated non-local group drains (§5.3).
    pub r: Vec<Vec<f64>>,
    /// `cores[i][j]`: SM count behind `r[i][j]` (0 on the diagonal's
    /// initial assignment; local runs as padding).
    pub cores: Vec<Vec<usize>>,
}

impl Profile {
    /// Builds the profile for a platform under a dedication config.
    pub fn new(platform: &Platform, cfg: DedicationConfig) -> Self {
        let g = platform.num_gpus();
        let host = g;
        let mut sec_per_byte = vec![vec![f64::INFINITY; g + 1]; g];
        let mut r = vec![vec![0.0; g + 1]; g];
        let mut cores = vec![vec![0usize; g + 1]; g];

        for i in 0..g {
            let spec = &platform.gpus[i];
            let sm = spec.sm_count;

            // Host first: a small, tolerance-bounded core group (§5.3). Use
            // the largest core count that does NOT oversubscribe PCIe, so
            // the dedicated group saturates the link without congesting it.
            let host_path = platform.path(i, Location::Host);
            let pcie_sat = ((host_path.bw / host_path.per_core_bw).floor() as usize).max(1);
            let host_cores = pcie_sat
                .min(((cfg.host_core_fraction * sm as f64).ceil() as usize).max(1))
                .min(sm.saturating_sub(1));
            cores[i][host] = host_cores;

            // Remaining cores sliced by link-bandwidth ratio among reachable
            // remote GPUs (equal slices on a switch, where bandwidths tie).
            let remotes = platform.reachable_gpus(i);
            let remaining = sm - host_cores;
            if !remotes.is_empty() {
                let bws: Vec<f64> = remotes
                    .iter()
                    .map(|&j| platform.path(i, Location::Gpu(j)).bw)
                    .collect();
                let total: f64 = bws.iter().sum();
                // Largest-remainder rounding so the slices sum exactly.
                let exact: Vec<f64> = bws.iter().map(|bw| remaining as f64 * bw / total).collect();
                let mut alloc: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
                let mut leftover = remaining - alloc.iter().sum::<usize>();
                let mut order: Vec<usize> = (0..remotes.len()).collect();
                order.sort_by(|&a, &b| {
                    let fa = exact[a] - exact[a].floor();
                    let fb = exact[b] - exact[b].floor();
                    fb.partial_cmp(&fa).unwrap()
                });
                let mut next = 0usize;
                while leftover > 0 {
                    alloc[order[next % order.len()]] += 1;
                    leftover -= 1;
                    next += 1;
                }
                for (k, &j) in remotes.iter().enumerate() {
                    cores[i][j] = alloc[k];
                }
            }

            for j in 0..=g {
                r[i][j] = cores[i][j] as f64 / sm as f64;
            }
            // Local extraction pads every core (see field docs).
            r[i][i] = 1.0;

            // Transfer costs, as *effective concurrent* bandwidths: the
            // rate a dedicated core group actually sustains when every GPU
            // extracts simultaneously. On a switch, a source's egress is
            // implicitly sliced `G−1` ways by the equal core dedication
            // (§5.3); everywhere the dedicated cores' aggregate per-core
            // bandwidth also caps the rate.
            sec_per_byte[i][i] = 1.0 / spec.local_bw.min(sm as f64 * spec.per_core_local_bw);
            let host_rate = spec
                .pcie_bw
                .min(cores[i][host] as f64 * spec.per_core_pcie_bw);
            sec_per_byte[i][host] = 1.0 / host_rate;
            for j in platform.reachable_gpus(i) {
                let link_bw = platform.path(i, Location::Gpu(j)).bw;
                let egress_share = match &platform.interconnect {
                    Interconnect::Switch { outbound_bw } => *outbound_bw / (g - 1).max(1) as f64,
                    Interconnect::HardWired { .. } => f64::INFINITY,
                };
                let core_cap = cores[i][j] as f64 * spec.per_core_remote_bw;
                let rate = link_bw.min(egress_share).min(core_cap.max(1.0));
                sec_per_byte[i][j] = 1.0 / rate;
            }
        }

        Profile {
            num_gpus: g,
            sec_per_byte,
            r,
            cores,
        }
    }

    /// Index of the host pseudo-source.
    pub fn host_index(&self) -> usize {
        self.num_gpus
    }

    /// Maps a [`Location`] to this profile's source index.
    pub fn loc_index(&self, loc: Location) -> usize {
        match loc {
            Location::Gpu(j) => j,
            Location::Host => self.host_index(),
        }
    }

    /// Transfer cost in seconds/byte for `dst ← src`.
    pub fn t(&self, dst: usize, src: Location) -> f64 {
        self.sec_per_byte[dst][self.loc_index(src)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_a_dedication_sums_to_all_cores() {
        let p = Platform::server_a();
        let prof = Profile::new(&p, DedicationConfig::default());
        for i in 0..4 {
            let total: usize = prof.cores[i].iter().sum();
            assert_eq!(total, p.gpus[i].sm_count, "GPU{i}");
            // 3 uniform remote links → equal slices.
            let remotes: Vec<usize> = (0..4)
                .filter(|&j| j != i)
                .map(|j| prof.cores[i][j])
                .collect();
            let spread = remotes.iter().max().unwrap() - remotes.iter().min().unwrap();
            assert!(spread <= 1, "uneven slices {remotes:?}");
        }
    }

    #[test]
    fn host_cores_are_small() {
        let p = Platform::server_c();
        let prof = Profile::new(&p, DedicationConfig::default());
        for i in 0..8 {
            let frac = prof.cores[i][prof.host_index()] as f64 / p.gpus[i].sm_count as f64;
            assert!(frac <= 0.15, "GPU{i} host fraction {frac}");
            assert!(prof.cores[i][prof.host_index()] >= 1);
        }
    }

    #[test]
    fn unconnected_pairs_get_no_cores_and_infinite_cost() {
        let p = Platform::server_b();
        let prof = Profile::new(&p, DedicationConfig::default());
        assert_eq!(prof.cores[0][5], 0);
        assert!(prof.sec_per_byte[0][5].is_infinite());
        assert!(prof.t(0, Location::Gpu(5)).is_infinite());
        assert!(prof.t(0, Location::Gpu(4)).is_finite());
    }

    #[test]
    fn hard_wired_slices_follow_bandwidth_ratio() {
        let p = Platform::server_b();
        let prof = Profile::new(&p, DedicationConfig::default());
        // GPU0's links: G3 and G4 have 2×25 GB/s, G1 and G2 have 1×25 GB/s.
        assert!(prof.cores[0][3] > prof.cores[0][1]);
        assert!(prof.cores[0][4] > prof.cores[0][2]);
    }

    #[test]
    fn local_ratio_is_one() {
        let p = Platform::server_c();
        let prof = Profile::new(&p, DedicationConfig::default());
        for i in 0..8 {
            assert_eq!(prof.r[i][i], 1.0);
        }
    }

    #[test]
    fn transfer_costs_are_ordered_local_remote_host() {
        let p = Platform::server_c();
        let prof = Profile::new(&p, DedicationConfig::default());
        let local = prof.t(0, Location::Gpu(0));
        let remote = prof.t(0, Location::Gpu(1));
        let host = prof.t(0, Location::Host);
        assert!(local < remote && remote < host);
    }

    #[test]
    fn single_gpu_profile_has_only_local_and_host() {
        let p = Platform::single(crate::gpu::GpuSpec::a100(80), 1 << 40);
        let prof = Profile::new(&p, DedicationConfig::default());
        let total: usize = prof.cores[0].iter().sum();
        assert_eq!(total, prof.cores[0][prof.host_index()]);
        assert!(prof.t(0, Location::Gpu(0)).is_finite());
    }
}
