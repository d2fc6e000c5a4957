//! Property tests for the extraction simulator: conservation, bounds,
//! monotonicity and mechanism orderings on randomized demand mixes.

use emb_util::SimTime;
use gpu_memsim::{
    simulate, simulate_traced, CongestionModel, DispatchMode, GpuWork, SimConfig, SourceDemand,
};
use gpu_platform::{DedicationConfig, Location, Platform};
use proptest::prelude::*;

fn cfg() -> SimConfig {
    SimConfig {
        launch_overhead: SimTime::ZERO,
        ..SimConfig::default()
    }
}

fn works_for(plat: &Platform, local: f64, remote: f64, host: f64) -> Vec<GpuWork> {
    let g = plat.num_gpus();
    (0..g)
        .map(|gpu| GpuWork {
            gpu,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: local,
                },
                SourceDemand {
                    src: Location::Gpu((gpu + 1) % g),
                    bytes: remote,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: host,
                },
            ],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// All dispatch modes move exactly the requested bytes.
    #[test]
    fn bytes_conserved_across_modes(
        local in 0.1f64..5.0,
        remote in 0.1f64..5.0,
        host in 0.1f64..2.0,
        seed in 0u64..20,
    ) {
        let plat = Platform::server_a();
        let works = works_for(&plat, local * 1e6, remote * 1e6, host * 1e6);
        let expected = (local + remote + host) * 1e6;
        for mode in [
            DispatchMode::RandomShared { seed },
            DispatchMode::Factored { dedication: DedicationConfig::default() },
        ] {
            let r = simulate(&plat, &cfg(), &works, mode);
            for g in &r.per_gpu {
                let moved: f64 = g.per_src.iter().map(|u| u.bytes).sum();
                prop_assert!(
                    (moved - expected).abs() < expected * 1e-6 + 1.0,
                    "{mode:?} gpu{} moved {moved} expected {expected}",
                    g.gpu
                );
            }
        }
    }

    /// Makespan is bounded below by each link's line-rate time and above
    /// by the fully serialized single-core time.
    #[test]
    fn makespan_bounds(
        local in 0.1f64..4.0,
        remote in 0.1f64..4.0,
        host in 0.1f64..2.0,
        seed in 0u64..20,
    ) {
        let plat = Platform::server_a();
        let works = works_for(&plat, local * 1e6, remote * 1e6, host * 1e6);
        let r = simulate(&plat, &cfg(), &works, DispatchMode::RandomShared { seed });
        let t = r.makespan.as_secs_f64();
        let lb = (local * 1e6 / 320e9).max(remote * 1e6 / 50e9).max(host * 1e6 / 12e9);
        prop_assert!(t >= lb * 0.999, "t {t} below line-rate bound {lb}");
        // Single core at the slowest per-core rate, everything serial, with
        // the worst congestion discount: a very loose upper bound.
        let ub = 2.0
            * (local * 1e6 / 4e9 + remote * 1e6 / 2e9 + host * 1e6 / 1.7e9);
        prop_assert!(t <= ub, "t {t} above serial bound {ub}");
    }

    /// More bytes never finish faster (monotonicity in demand).
    #[test]
    fn monotone_in_demand(base in 0.2f64..2.0, extra in 0.1f64..2.0) {
        let plat = Platform::server_c();
        let mode = DispatchMode::Factored { dedication: DedicationConfig::default() };
        let small = simulate(&plat, &cfg(), &works_for(&plat, base * 1e6, base * 1e6, base * 1e6), mode);
        let big = simulate(
            &plat,
            &cfg(),
            &works_for(&plat, (base + extra) * 1e6, (base + extra) * 1e6, (base + extra) * 1e6),
            mode,
        );
        prop_assert!(big.makespan >= small.makespan);
    }

    /// Disabling the congestion penalty never slows anything down.
    #[test]
    fn congestion_penalty_only_hurts(
        local in 0.1f64..3.0,
        remote in 0.1f64..3.0,
        host in 0.1f64..2.0,
        seed in 0u64..20,
    ) {
        let plat = Platform::server_a();
        let works = works_for(&plat, local * 1e6, remote * 1e6, host * 1e6);
        let ideal_cfg = SimConfig {
            congestion: CongestionModel { penalty: 0.0 },
            launch_overhead: SimTime::ZERO,
        };
        let mode = DispatchMode::RandomShared { seed };
        let ideal = simulate(&plat, &ideal_cfg, &works, mode);
        let real = simulate(&plat, &cfg(), &works, mode);
        prop_assert!(real.makespan >= ideal.makespan);
    }

    /// Traced and untraced runs agree exactly.
    #[test]
    fn trace_does_not_perturb(
        local in 0.1f64..3.0,
        host in 0.1f64..1.0,
        seed in 0u64..20,
    ) {
        let plat = Platform::server_a();
        let works = works_for(&plat, local * 1e6, local * 0.5e6, host * 1e6);
        let mode = DispatchMode::RandomShared { seed };
        let plain = simulate(&plat, &cfg(), &works, mode);
        let (traced, trace) = simulate_traced(&plat, &cfg(), &works, mode);
        prop_assert_eq!(plain.makespan, traced.makespan);
        // Trace busy time never exceeds cores × makespan.
        for gpu in 0..plat.num_gpus() {
            let u = trace.core_utilization(gpu, plat.gpus[gpu].sm_count);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }
}
