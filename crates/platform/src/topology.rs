//! Platform topology: GPUs, host, and the interconnect between them.

use crate::gpu::GpuSpec;
use crate::link::{PathKind, PathSpec};

const GB: f64 = 1e9;

/// A source (or destination) of embedding data.
///
/// Mirrors the paper's `M` = all GPUs plus host DRAM (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// GPU with the given index.
    Gpu(usize),
    /// Host DRAM, reached over PCIe.
    Host,
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Gpu(i) => write!(f, "G{i}"),
            Location::Host => write!(f, "Host"),
        }
    }
}

/// The GPU that serves key `key` on a `num_gpus`-GPU machine:
/// `key % num_gpus`. `emb-serve` shards a batch's keys by it and `repro
/// replay` re-shards a trace by it. The UGache solver stores replica `m`
/// of round-robin position `r` on `home_gpu(r + m, ·)` among the GPUs
/// (or a clique's members), and deals a run of consecutive keys at
/// position = key, so a key it partitions lives on the GPU that serves
/// it.
///
/// # Panics
///
/// Panics if `num_gpus` is zero.
pub fn home_gpu(key: usize, num_gpus: usize) -> usize {
    key % num_gpus
}

/// Cross-GPU interconnect flavour (paper Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Interconnect {
    /// Statically wired NVLink bundles. `pair_bw[i][j]` is the bandwidth of
    /// the `i ↔ j` bundle in bytes/s; `0.0` means the pair is unconnected
    /// (traffic would have to fall back to PCIe, which UGache never does —
    /// unconnected pairs are simply unreachable, as in the paper).
    HardWired {
        /// Symmetric pair bandwidth matrix, diagonal ignored.
        pair_bw: Vec<Vec<f64>>,
    },
    /// An NVSwitch fabric: every pair is connected and each GPU has
    /// `outbound_bw` total egress, dynamically shared among readers.
    Switch {
        /// Per-GPU egress bandwidth in bytes/s.
        outbound_bw: f64,
    },
}

/// A complete multi-GPU machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name (reports).
    pub name: String,
    /// The GPUs, indexed by position.
    pub gpus: Vec<GpuSpec>,
    /// Cross-GPU interconnect.
    pub interconnect: Interconnect,
    /// Host DRAM capacity in bytes.
    pub host_mem_bytes: u64,
}

impl Platform {
    /// Server A from the paper: 4×V100 16 GB, hard-wired and fully
    /// connected — every pair gets 2 NVLinks (2 × 25 GB/s).
    pub fn server_a() -> Self {
        let n = 4;
        let mut pair_bw = vec![vec![0.0; n]; n];
        for (i, row) in pair_bw.iter_mut().enumerate() {
            for (j, bw) in row.iter_mut().enumerate() {
                if i != j {
                    *bw = 50.0 * GB;
                }
            }
        }
        Platform {
            name: "ServerA-4xV100".into(),
            gpus: (0..n).map(|_| GpuSpec::v100(16)).collect(),
            interconnect: Interconnect::HardWired { pair_bw },
            host_mem_bytes: 384 << 30,
        }
    }

    /// Server B from the paper: 8×V100 32 GB in the DGX-1 hybrid cube-mesh.
    ///
    /// Non-uniform: link multiplicity varies between pairs and some pairs
    /// (e.g. `0 ↔ 5`) are unconnected, which is exactly what breaks naive
    /// partition caches (paper §3.2).
    pub fn server_b() -> Self {
        let n = 8;
        let mut pair_bw = vec![vec![0.0; n]; n];
        // (pair, NVLink multiplicity); each NVLink is 25 GB/s.
        let links: [(usize, usize, f64); 16] = [
            (0, 1, 1.0),
            (0, 2, 1.0),
            (0, 3, 2.0),
            (1, 2, 2.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
            (4, 5, 1.0),
            (4, 6, 1.0),
            (4, 7, 2.0),
            (5, 6, 2.0),
            (5, 7, 1.0),
            (6, 7, 1.0),
            (0, 4, 2.0),
            (1, 5, 2.0),
            (2, 6, 2.0),
            (3, 7, 2.0),
        ];
        for (i, j, mult) in links {
            pair_bw[i][j] = mult * 25.0 * GB;
            pair_bw[j][i] = mult * 25.0 * GB;
        }
        Platform {
            name: "ServerB-8xV100".into(),
            gpus: (0..n).map(|_| GpuSpec::v100(32)).collect(),
            interconnect: Interconnect::HardWired { pair_bw },
            host_mem_bytes: 724 << 30,
        }
    }

    /// Server C from the paper: 8×A100 80 GB behind NVSwitch, 300 GB/s
    /// egress per GPU.
    pub fn server_c() -> Self {
        Platform {
            name: "ServerC-8xA100".into(),
            gpus: (0..8).map(|_| GpuSpec::a100(80)).collect(),
            interconnect: Interconnect::Switch {
                outbound_bw: 300.0 * GB,
            },
            host_mem_bytes: 1024 << 30,
        }
    }

    /// A single-GPU machine (Table 1's testbed is one A100-80GB).
    pub fn single(gpu: GpuSpec, host_mem_bytes: u64) -> Self {
        Platform {
            name: format!("Single-{}", gpu.name),
            gpus: vec![gpu],
            interconnect: Interconnect::HardWired {
                pair_bw: vec![vec![0.0]],
            },
            host_mem_bytes,
        }
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// All source locations: every GPU plus host (the paper's `M`).
    pub fn locations(&self) -> Vec<Location> {
        let mut v: Vec<Location> = (0..self.num_gpus()).map(Location::Gpu).collect();
        v.push(Location::Host);
        v
    }

    /// Whether `dst` can read embedding data directly from `src`.
    ///
    /// Local and host paths always exist; a remote GPU is reachable when a
    /// hard-wired bundle exists or the platform is switch-based.
    pub fn connected(&self, dst: usize, src: Location) -> bool {
        match src {
            Location::Host => true,
            Location::Gpu(j) if j == dst => true,
            Location::Gpu(j) => match &self.interconnect {
                Interconnect::HardWired { pair_bw } => pair_bw[dst][j] > 0.0,
                Interconnect::Switch { .. } => true,
            },
        }
    }

    /// The transfer path for `dst ← src`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is unconnected (callers must check
    /// [`Platform::connected`] first) or indices are out of range.
    pub fn path(&self, dst: usize, src: Location) -> PathSpec {
        let g = &self.gpus[dst];
        match src {
            Location::Host => PathSpec {
                kind: PathKind::Pcie,
                bw: g.pcie_bw,
                per_core_bw: g.per_core_pcie_bw,
            },
            Location::Gpu(j) if j == dst => PathSpec {
                kind: PathKind::Local,
                bw: g.local_bw,
                per_core_bw: g.per_core_local_bw,
            },
            Location::Gpu(j) => match &self.interconnect {
                Interconnect::HardWired { pair_bw } => {
                    let bw = pair_bw[dst][j];
                    assert!(bw > 0.0, "GPU{dst} and GPU{j} are unconnected");
                    PathSpec {
                        kind: PathKind::NvLink,
                        bw,
                        per_core_bw: g.per_core_remote_bw,
                    }
                }
                Interconnect::Switch { outbound_bw } => PathSpec {
                    kind: PathKind::NvSwitch,
                    bw: *outbound_bw,
                    per_core_bw: g.per_core_remote_bw,
                },
            },
        }
    }

    /// Total egress bandwidth of a source location, used by the simulator
    /// as a cap on the *sum* of concurrent flows out of that source.
    ///
    /// Host egress is approximated as the sum of all PCIe links (each GPU
    /// has its own PCIe attachment); a hard-wired GPU's egress is the sum
    /// of its bundles; a switch-based GPU has the switch port rate.
    pub fn outbound_bw(&self, src: Location) -> f64 {
        match src {
            Location::Host => self.gpus.iter().map(|g| g.pcie_bw).sum(),
            Location::Gpu(j) => match &self.interconnect {
                Interconnect::HardWired { pair_bw } => pair_bw[j].iter().sum(),
                Interconnect::Switch { outbound_bw } => *outbound_bw,
            },
        }
    }

    /// GPUs reachable from `dst` over the GPU interconnect (excluding
    /// itself).
    pub fn reachable_gpus(&self, dst: usize) -> Vec<usize> {
        (0..self.num_gpus())
            .filter(|&j| j != dst && self.connected(dst, Location::Gpu(j)))
            .collect()
    }

    /// Greedily groups GPUs into fully-connected cliques (Quiver's
    /// clique-partition strategy for platforms with unconnected pairs).
    ///
    /// On Server B this yields `{0,1,2,3}` and `{4,5,6,7}`; on fully
    /// connected platforms it yields a single group.
    pub fn fully_connected_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.num_gpus() {
            let home = groups
                .iter_mut()
                .find(|grp| grp.iter().all(|&m| self.connected(i, Location::Gpu(m))));
            match home {
                Some(grp) => grp.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found. The presets are valid by construction; this is the
    /// check for a platform built as a struct literal.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus.is_empty() {
            return Err("platform has no GPUs".into());
        }
        if let Interconnect::HardWired { pair_bw } = &self.interconnect {
            if pair_bw.len() != self.num_gpus() {
                return Err(format!(
                    "pair_bw has {} rows for {} GPUs",
                    pair_bw.len(),
                    self.num_gpus()
                ));
            }
            for (i, row) in pair_bw.iter().enumerate() {
                if row.len() != self.num_gpus() {
                    return Err(format!("pair_bw row {i} has wrong length"));
                }
                for (j, &bw) in row.iter().enumerate() {
                    if bw < 0.0 {
                        return Err(format!("negative bandwidth on pair {i},{j}"));
                    }
                    if (bw - pair_bw[j][i]).abs() > 1e-6 {
                        return Err(format!("pair_bw not symmetric at {i},{j}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            Platform::server_a(),
            Platform::server_b(),
            Platform::server_c(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn server_a_is_uniform_fully_connected() {
        let p = Platform::server_a();
        assert_eq!(p.num_gpus(), 4);
        for i in 0..4 {
            assert_eq!(p.reachable_gpus(i).len(), 3);
            for j in p.reachable_gpus(i) {
                let path = p.path(i, Location::Gpu(j));
                assert_eq!(path.kind, PathKind::NvLink);
                assert!((path.bw - 50e9).abs() < 1.0);
            }
        }
        assert_eq!(p.fully_connected_groups(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn server_b_has_unconnected_pairs_and_six_links_per_gpu() {
        let p = Platform::server_b();
        assert!(!p.connected(0, Location::Gpu(5)));
        assert!(!p.connected(1, Location::Gpu(4)));
        assert!(p.connected(0, Location::Gpu(4)));
        // Every V100 exposes 6 NVLinks at 25 GB/s ⇒ 150 GB/s egress.
        for i in 0..8 {
            assert!(
                (p.outbound_bw(Location::Gpu(i)) - 150e9).abs() < 1.0,
                "GPU{i} egress {}",
                p.outbound_bw(Location::Gpu(i))
            );
        }
        assert_eq!(
            p.fully_connected_groups(),
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]
        );
    }

    #[test]
    fn server_c_is_switch_based() {
        let p = Platform::server_c();
        for i in 0..8 {
            for j in 0..8 {
                assert!(p.connected(i, Location::Gpu(j)));
            }
        }
        let path = p.path(0, Location::Gpu(7));
        assert_eq!(path.kind, PathKind::NvSwitch);
        assert!((path.bw - 300e9).abs() < 1.0);
        assert!((p.outbound_bw(Location::Gpu(1)) - 300e9).abs() < 1.0);
        assert_eq!(p.fully_connected_groups().len(), 1);
    }

    #[test]
    fn local_and_host_paths() {
        let p = Platform::server_c();
        assert_eq!(p.path(3, Location::Gpu(3)).kind, PathKind::Local);
        assert_eq!(p.path(3, Location::Host).kind, PathKind::Pcie);
        assert!(p.connected(3, Location::Host));
    }

    #[test]
    #[should_panic(expected = "unconnected")]
    fn unconnected_path_panics() {
        let p = Platform::server_b();
        let _ = p.path(0, Location::Gpu(5));
    }

    #[test]
    fn validate_catches_asymmetry() {
        let mut p = Platform::server_a();
        if let Interconnect::HardWired { pair_bw } = &mut p.interconnect {
            pair_bw[0][1] = 1.0;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn chain_platform_splits_into_two_groups() {
        // G0 — G1 — G2: the ends are unconnected, so no clique holds all three.
        let p = Platform {
            name: "chain".into(),
            gpus: (0..3).map(|_| GpuSpec::v100(16)).collect(),
            interconnect: Interconnect::HardWired {
                pair_bw: vec![
                    vec![0.0, 50e9, 0.0],
                    vec![50e9, 0.0, 25e9],
                    vec![0.0, 25e9, 0.0],
                ],
            },
            host_mem_bytes: 1 << 38,
        };
        p.validate().unwrap();
        assert!(p.connected(0, Location::Gpu(1)));
        assert!(!p.connected(0, Location::Gpu(2)));
        assert_eq!(p.fully_connected_groups().len(), 2);
    }

    #[test]
    fn single_gpu_platform() {
        let p = Platform::single(GpuSpec::a100(80), 1 << 40);
        assert_eq!(p.num_gpus(), 1);
        assert!(p.reachable_gpus(0).is_empty());
        assert_eq!(p.locations(), vec![Location::Gpu(0), Location::Host]);
    }
}
