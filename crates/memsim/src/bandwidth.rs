//! The bandwidth/congestion transfer function.
//!
//! This single function encodes the paper's Figure 6: achieved bandwidth
//! grows linearly with concurrent cores up to the path's *tolerance*, then
//! — rather than staying flat — degrades, because oversubscribed memory
//! pipelines stall cores and lose issue slots. The degradation is bounded
//! by `penalty` (default 0.5, matching the paper's "reduces system
//! performance by up to 50 %" observation in §3.2).

/// Parameters of the congestion model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionModel {
    /// Maximum fractional bandwidth loss under unbounded oversubscription.
    ///
    /// `0.0` disables congestion (an idealized link that merely saturates);
    /// `0.5` loses up to half the bandwidth, the paper's observation.
    pub penalty: f64,
}

impl Default for CongestionModel {
    fn default() -> Self {
        CongestionModel { penalty: 0.5 }
    }
}

/// Achieved aggregate bandwidth of a path with `cores` concurrent readers.
///
/// * Below tolerance (`cores · per_core_bw ≤ bw`): linear in `cores`.
/// * Above tolerance: `bw · (1 − penalty · (1 − tol/cores))` — monotonically
///   decreasing in `cores`, approaching `bw · (1 − penalty)`.
///
/// # Examples
///
/// ```
/// use gpu_memsim::{effective_bw, CongestionModel};
/// let m = CongestionModel::default();
/// // 4 cores at 2 GB/s each on a 12 GB/s link: below tolerance.
/// assert_eq!(effective_bw(12e9, 2e9, 4, m), 8e9);
/// // 6 cores saturate exactly.
/// assert_eq!(effective_bw(12e9, 2e9, 6, m), 12e9);
/// // 12 cores: tolerance 6, factor 1 - 0.5*(1 - 0.5) = 0.75.
/// assert_eq!(effective_bw(12e9, 2e9, 12, m), 9e9);
/// ```
pub fn effective_bw(bw: f64, per_core_bw: f64, cores: usize, model: CongestionModel) -> f64 {
    if cores == 0 {
        return 0.0;
    }
    let demand = cores as f64 * per_core_bw;
    if demand <= bw {
        return demand;
    }
    let tol = bw / per_core_bw;
    bw * (1.0 - model.penalty * (1.0 - tol / cores as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 50e9;
    const PC: f64 = 2e9;

    #[test]
    fn zero_cores_zero_bandwidth() {
        assert_eq!(effective_bw(BW, PC, 0, CongestionModel::default()), 0.0);
    }

    #[test]
    fn linear_below_tolerance() {
        let m = CongestionModel::default();
        assert_eq!(effective_bw(BW, PC, 1, m), 2e9);
        assert_eq!(effective_bw(BW, PC, 10, m), 20e9);
        assert_eq!(effective_bw(BW, PC, 25, m), 50e9);
    }

    #[test]
    fn degrades_above_tolerance() {
        let m = CongestionModel::default();
        let at_tol = effective_bw(BW, PC, 25, m);
        let over = effective_bw(BW, PC, 50, m);
        let way_over = effective_bw(BW, PC, 500, m);
        assert!(over < at_tol);
        assert!(way_over < over);
        // Bounded by (1 - penalty).
        assert!(way_over > BW * 0.5 - 1.0);
    }

    #[test]
    fn ideal_model_plateaus() {
        let m = CongestionModel { penalty: 0.0 };
        assert_eq!(effective_bw(BW, PC, 25, m), BW);
        assert_eq!(effective_bw(BW, PC, 500, m), BW);
    }

    #[test]
    fn monotone_decrease_is_continuous_at_tolerance() {
        let m = CongestionModel::default();
        // One core over the exact tolerance loses only a sliver.
        let just_over = effective_bw(BW, PC, 26, m);
        assert!(just_over > BW * 0.97, "{just_over}");
    }
}
