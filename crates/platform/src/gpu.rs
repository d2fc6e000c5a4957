//! Per-GPU hardware description.

/// Static description of one GPU.
///
/// Bandwidth figures are *achievable gather bandwidths*, not datasheet
/// peaks: embedding extraction issues dependent, scattered reads, so the
/// sustainable rate is well below the copy-engine peak. The defaults are
/// calibrated to the paper's Figure 6 microbenchmark (see each
/// constructor).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors (the schedulable "cores").
    pub sm_count: usize,
    /// HBM capacity in bytes.
    pub mem_bytes: u64,
    /// Aggregate achievable local-HBM gather bandwidth (bytes/s).
    pub local_bw: f64,
    /// Gather bandwidth a single SM can sustain from local HBM (bytes/s).
    pub per_core_local_bw: f64,
    /// Gather bandwidth a single SM can sustain over NVLink/NVSwitch (bytes/s).
    pub per_core_remote_bw: f64,
    /// PCIe bandwidth from host memory to this GPU (bytes/s).
    pub pcie_bw: f64,
    /// Gather bandwidth a single SM can sustain over PCIe (bytes/s).
    pub per_core_pcie_bw: f64,
    /// Peak dense-math throughput (FLOP/s) for mixed-precision tensor-core
    /// GEMMs (what DL dense layers actually run on), used by the MLP cost
    /// model.
    pub flops: f64,
}

const GB: f64 = 1e9;

impl GpuSpec {
    /// NVIDIA V100 SXM2 with the given HBM capacity in GiB.
    ///
    /// Calibration (Figure 6a, 4×V100): PCIe plateaus ≈ 12 GB/s with fewer
    /// than 10 % of the 80 SMs; a hard-wired 50 GB/s pair link saturates at
    /// ≈ 1/3 of the SMs; local gather reaches ≈ 320 GB/s with all SMs.
    pub fn v100(mem_gib: u64) -> Self {
        GpuSpec {
            name: format!("V100-{mem_gib}GB"),
            sm_count: 80,
            mem_bytes: mem_gib * 1024 * 1024 * 1024,
            local_bw: 320.0 * GB,
            per_core_local_bw: 4.0 * GB,
            per_core_remote_bw: 2.0 * GB,
            pcie_bw: 12.0 * GB,
            per_core_pcie_bw: 1.7 * GB,
            flops: 112e12,
        }
    }

    /// NVIDIA A100 SXM4 with the given HBM capacity in GiB.
    ///
    /// Calibration (Figure 6b, 8×A100): PCIe 4.0 plateaus ≈ 25 GB/s at
    /// ≈ 12 SMs; an uncontended NVSwitch path reaches the full 300 GB/s
    /// outbound at ≈ half the 108 SMs; local gather reaches ≈ 650 GB/s.
    pub fn a100(mem_gib: u64) -> Self {
        GpuSpec {
            name: format!("A100-{mem_gib}GB"),
            sm_count: 108,
            mem_bytes: mem_gib * 1024 * 1024 * 1024,
            local_bw: 650.0 * GB,
            per_core_local_bw: 6.0 * GB,
            per_core_remote_bw: 6.0 * GB,
            pcie_bw: 25.0 * GB,
            per_core_pcie_bw: 2.0 * GB,
            flops: 156e12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_preset_matches_paper_numbers() {
        let g = GpuSpec::v100(16);
        assert_eq!(g.sm_count, 80);
        assert_eq!(g.mem_bytes, 16 << 30);
        // PCIe tolerance should be < 10% of SMs (paper §5.1).
        let tol = (g.pcie_bw / g.per_core_pcie_bw).ceil() as usize;
        assert!(tol < g.sm_count / 10 + 1, "tolerance {tol}");
    }

    #[test]
    fn a100_preset_matches_paper_numbers() {
        let g = GpuSpec::a100(80);
        assert_eq!(g.sm_count, 108);
        assert_eq!(g.mem_bytes, 80 << 30);
        assert!(g.local_bw > 2.0 * 300.0 * 1e9, "local must dwarf NVSwitch");
    }
}
