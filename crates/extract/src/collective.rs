//! Collective-communication substrate (the NCCL stand-in).
//!
//! Message-based embedding systems exchange buffers with AllToAll-style
//! collectives (§3.2). This module models the bulk-synchronous transfer
//! timing of that collective on both hard-wired and switch-based
//! topologies.

use emb_util::SimTime;
use gpu_platform::{Interconnect, Platform};

/// A pairwise transfer matrix: `bytes[i][j]` flows from GPU `j` to GPU
/// `i` (diagonal ignored — local data does not cross the fabric).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferMatrix {
    /// `bytes[dst][src]`.
    pub bytes: Vec<Vec<f64>>,
}

impl TransferMatrix {
    /// An all-zeros matrix for `g` GPUs.
    pub fn zeros(g: usize) -> Self {
        TransferMatrix {
            bytes: vec![vec![0.0; g]; g],
        }
    }

    /// Total bytes entering `dst` from remote GPUs.
    pub fn inbound(&self, dst: usize) -> f64 {
        self.bytes[dst]
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != dst)
            .map(|(_, &b)| b)
            .sum()
    }

    /// Total bytes leaving `src` toward remote GPUs.
    pub fn outbound(&self, src: usize) -> f64 {
        self.bytes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != src)
            .map(|(i, _)| self.bytes[i][src])
            .sum()
    }

    /// Grand total of cross-GPU bytes.
    pub fn total(&self) -> f64 {
        (0..self.bytes.len()).map(|i| self.inbound(i)).sum()
    }
}

/// Time for one AllToAll exchange of `m` on `platform`.
///
/// Hard-wired fabrics run every pair concurrently at wire speed (the
/// bundles are disjoint), so the exchange finishes when the slowest pair
/// does. Switch fabrics bound each port's ingress and egress instead
/// (NCCL's AllToAll is near bandwidth-optimal on NVSwitch).
///
/// # Panics
///
/// Panics if the matrix routes bytes across an unconnected pair.
pub fn all_to_all_time(platform: &Platform, m: &TransferMatrix) -> SimTime {
    let g = platform.num_gpus();
    assert_eq!(m.bytes.len(), g, "matrix size mismatch");
    let secs = match &platform.interconnect {
        Interconnect::HardWired { pair_bw } => {
            let mut t: f64 = 0.0;
            for i in 0..g {
                for j in 0..g {
                    if i == j || m.bytes[i][j] == 0.0 {
                        continue;
                    }
                    assert!(
                        pair_bw[i][j] > 0.0,
                        "AllToAll routes {} bytes over unconnected pair {i},{j}",
                        m.bytes[i][j]
                    );
                    t = t.max(m.bytes[i][j] / pair_bw[i][j]);
                }
            }
            t
        }
        Interconnect::Switch { outbound_bw } => {
            let mut t: f64 = 0.0;
            for x in 0..g {
                t = t
                    .max(m.inbound(x) / outbound_bw)
                    .max(m.outbound(x) / outbound_bw);
            }
            t
        }
    };
    SimTime::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_platform::Platform;

    fn uniform_matrix(g: usize, per_pair: f64) -> TransferMatrix {
        let mut m = TransferMatrix::zeros(g);
        for i in 0..g {
            for j in 0..g {
                if i != j {
                    m.bytes[i][j] = per_pair;
                }
            }
        }
        m
    }

    #[test]
    fn accounting_is_consistent() {
        let m = uniform_matrix(4, 10.0);
        for x in 0..4 {
            assert_eq!(m.inbound(x), 30.0);
            assert_eq!(m.outbound(x), 30.0);
        }
        assert_eq!(m.total(), 120.0);
    }

    #[test]
    fn hardwired_all_to_all_is_pair_bound() {
        let p = Platform::server_a();
        // 50 MB per pair over 50 GB/s pairs → 1 ms.
        let m = uniform_matrix(4, 50e6);
        let t = all_to_all_time(&p, &m);
        assert!((t.as_secs_f64() - 1e-3).abs() < 1e-9, "{t}");
    }

    #[test]
    fn switch_all_to_all_is_port_bound() {
        let p = Platform::server_c();
        // Each GPU sends 30 MB to each of 7 peers → 210 MB egress over
        // 300 GB/s → 0.7 ms.
        let m = uniform_matrix(8, 30e6);
        let t = all_to_all_time(&p, &m);
        assert!((t.as_secs_f64() - 0.7e-3).abs() < 1e-9, "{t}");
    }

    #[test]
    fn skewed_matrix_bound_by_hot_port() {
        let p = Platform::server_c();
        let mut m = TransferMatrix::zeros(8);
        // Everyone pulls 60 MB from GPU 0 only.
        for i in 1..8 {
            m.bytes[i][0] = 60e6;
        }
        let t = all_to_all_time(&p, &m).as_secs_f64();
        // GPU0 egress: 420 MB / 300 GB/s = 1.4 ms.
        assert!((t - 1.4e-3).abs() < 1e-9, "{t}");
    }

    #[test]
    #[should_panic(expected = "unconnected pair")]
    fn hardwired_rejects_unconnected_routes() {
        let p = Platform::server_b();
        let mut m = TransferMatrix::zeros(8);
        m.bytes[0][5] = 1.0; // 0 and 5 are unconnected on DGX-1
        let _ = all_to_all_time(&p, &m);
    }
}
