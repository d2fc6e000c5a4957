//! Transfer-path descriptions.

/// The physical medium a `destination ← source` transfer crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Destination reads its own HBM.
    Local,
    /// A statically wired NVLink bundle between a GPU pair.
    NvLink,
    /// A dynamically allocated path through an NVSwitch fabric.
    NvSwitch,
    /// PCIe from host memory.
    Pcie,
}

/// Characteristics of one `destination ← source` transfer path.
///
/// `tolerance` is the paper's key microbenchmark result (Figure 6): the
/// number of concurrently reading SMs beyond which the path's bandwidth is
/// exhausted and additional cores only stall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// Medium of the path.
    pub kind: PathKind,
    /// Achievable bandwidth of the path in bytes/s.
    pub bw: f64,
    /// Bandwidth one SM can sustain on this path in bytes/s.
    pub per_core_bw: f64,
}

impl PathSpec {
    /// Number of concurrent cores that saturate this path.
    ///
    /// At least 1: even the slowest path is drainable by a single core.
    pub fn tolerance(&self) -> usize {
        ((self.bw / self.per_core_bw).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_rounds_up_and_floors_at_one() {
        let p = PathSpec {
            kind: PathKind::Pcie,
            bw: 12e9,
            per_core_bw: 1.7e9,
        };
        assert_eq!(p.tolerance(), 8);
        let tiny = PathSpec {
            kind: PathKind::Pcie,
            bw: 1.0,
            per_core_bw: 100.0,
        };
        assert_eq!(tiny.tolerance(), 1);
    }
}
