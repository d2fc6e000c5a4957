//! Bandwidth-vs-cores microbenchmark (paper Figure 6).
//!
//! Closed-form evaluation of the congestion model for a steady-state
//! stream: how much bandwidth do `n` concurrent cores achieve from a given
//! source, optionally while other GPUs interfere on the same source (the
//! `G2←G4`/`G3←G4` collision in Figure 6b)?

use crate::bandwidth::{effective_bw, CongestionModel};
use gpu_platform::{Interconnect, Location, Platform};

/// An interfering reader: `(dst_gpu, src, cores)`.
pub type Interferer = (usize, Location, usize);

/// Steady-state bandwidth achieved by `cores` SMs of `dst` reading `src`,
/// given concurrent interferers, in bytes/s.
///
/// # Panics
///
/// Panics if `dst` cannot reach `src` on this platform.
pub fn bandwidth_with_cores(
    platform: &Platform,
    dst: usize,
    src: Location,
    cores: usize,
    interference: &[Interferer],
    model: CongestionModel,
) -> f64 {
    assert!(
        platform.connected(dst, src),
        "GPU{dst} cannot read from {src}"
    );
    let path = platform.path(dst, src);
    let raw = effective_bw(path.bw, path.per_core_bw, cores, model);

    // Does the source's egress port get shared?
    let egress_applies = match src {
        Location::Host => true,
        Location::Gpu(j) if j == dst => false,
        Location::Gpu(_) => matches!(platform.interconnect, Interconnect::Switch { .. }),
    };
    if !egress_applies {
        record_sample(dst, src, cores, raw);
        return raw;
    }

    let mut demands: Vec<(f64, f64, usize)> = vec![(raw, path.per_core_bw, cores)];
    for &(d2, s2, c2) in interference {
        if s2 != src || c2 == 0 {
            continue;
        }
        let p2 = platform.path(d2, s2);
        demands.push((
            effective_bw(p2.bw, p2.per_core_bw, c2, model),
            p2.per_core_bw,
            c2,
        ));
    }
    let cap = platform.outbound_bw(src);
    let total_cores: usize = demands.iter().map(|d| d.2).sum();
    let pc: f64 = demands.iter().map(|d| d.1 * d.2 as f64).sum::<f64>() / total_cores.max(1) as f64;
    let eff_cap = effective_bw(cap, pc, total_cores, model).min(cap);
    let total: f64 = demands.iter().map(|d| d.0).sum();
    let achieved = if total <= eff_cap {
        raw
    } else {
        raw * eff_cap / total
    };
    record_sample(dst, src, cores, achieved);
    achieved
}

/// Records one closed-form bandwidth sample into the active telemetry
/// scope (no-op when none is active); counter names in `EXPERIMENTS.md`.
fn record_sample(dst: usize, src: Location, cores: usize, bytes_per_sec: f64) {
    if !emb_telemetry::enabled() {
        return;
    }
    emb_telemetry::count("memsim.microbench.samples", 1.0);
    emb_telemetry::observe("memsim.microbench.bytes_per_sec", bytes_per_sec);
    emb_telemetry::event("memsim.microbench", || {
        emb_telemetry::Fields::new(
            &["dst", "src", "cores", "bytes_per_sec"],
            &[
                (dst as u64).into(),
                emb_telemetry::EventValue::Str(src.to_string().into()),
                (cores as u64).into(),
                bytes_per_sec.into(),
            ],
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPU0's bandwidth from `src` at `1..=max_cores` cores, without
    /// interference: one series of Figure 6.
    fn fig6_series(p: &Platform, src: Location, max_cores: usize) -> Vec<(usize, f64)> {
        let m = CongestionModel::default();
        (1..=max_cores)
            .map(|c| (c, bandwidth_with_cores(p, 0, src, c, &[], m)))
            .collect()
    }

    #[test]
    fn local_scales_to_all_cores() {
        let p = Platform::server_c();
        let series = fig6_series(&p, Location::Gpu(0), 108);
        // Monotone non-decreasing until saturation for local HBM.
        let (_, at_54) = series[53];
        let (_, at_108) = series[107];
        assert!(at_108 >= at_54);
        assert!(at_108 <= p.gpus[0].local_bw * 1.001);
        assert!(at_108 >= p.gpus[0].local_bw * 0.95);
    }

    #[test]
    fn pcie_saturates_with_few_cores() {
        let p = Platform::server_a();
        let series = fig6_series(&p, Location::Host, 80);
        let sat_core = series
            .iter()
            .find(|(_, bw)| *bw >= p.gpus[0].pcie_bw * 0.98)
            .map(|(c, _)| *c)
            .expect("PCIe never saturates");
        assert!(sat_core <= 8, "saturated at {sat_core} cores");
        // Beyond tolerance the bandwidth *drops* (congestion).
        assert!(series[79].1 < p.gpus[0].pcie_bw);
    }

    #[test]
    fn hardwired_remote_saturates_at_fraction_of_cores() {
        let p = Platform::server_a();
        let series = fig6_series(&p, Location::Gpu(1), 80);
        let sat_core = series
            .iter()
            .find(|(_, bw)| *bw >= 50e9 * 0.999)
            .map(|(c, _)| *c)
            .unwrap();
        // ~1/3 of 80 cores, as the paper reports for 4×V100.
        assert!((20..=30).contains(&sat_core), "saturated at {sat_core}");
    }

    #[test]
    fn nvswitch_collision_halves_bandwidth() {
        let p = Platform::server_c();
        let m = CongestionModel::default();
        let alone = bandwidth_with_cores(&p, 2, Location::Gpu(4), 60, &[], m);
        let contended =
            bandwidth_with_cores(&p, 2, Location::Gpu(4), 60, &[(3, Location::Gpu(4), 60)], m);
        assert!(
            contended < alone * 0.7,
            "contended {contended} vs alone {alone}"
        );
    }

    #[test]
    fn interference_on_other_source_is_ignored() {
        let p = Platform::server_c();
        let m = CongestionModel::default();
        let alone = bandwidth_with_cores(&p, 2, Location::Gpu(4), 40, &[], m);
        let other =
            bandwidth_with_cores(&p, 2, Location::Gpu(4), 40, &[(3, Location::Gpu(5), 64)], m);
        assert_eq!(alone, other);
    }
}
