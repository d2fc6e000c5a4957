//! Differential tests: the incremental event loop must be bit-identical
//! to the frozen reference loop — results, traces, and telemetry.

use emb_util::SimTime;
use gpu_memsim::{
    simulate, simulate_reference, simulate_reference_traced, simulate_traced, DispatchMode,
    ExtractionTrace, GpuWork, SimConfig, Simulator, SourceDemand,
};
use gpu_platform::{DedicationConfig, Location, Platform};
use proptest::prelude::*;
use rand::Rng;

fn cfg() -> SimConfig {
    SimConfig {
        launch_overhead: SimTime::from_micros(15),
        ..SimConfig::default()
    }
}

/// A skewed, merged-duplicate workload touching local, remote and host
/// paths on every GPU of the platform.
fn mixed_works(platform: &Platform) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| {
            // First reachable peer after `gpu` (hardwired topologies don't
            // connect every pair); fall back to local if none.
            let peer = (1..n)
                .map(|d| (gpu + d) % n)
                .find(|&j| platform.connected(gpu, Location::Gpu(j)))
                .unwrap_or(gpu);
            GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 600e6 + gpu as f64 * 17e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 250e6 - gpu as f64 * 11e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 40e6,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 80e6 + gpu as f64 * 5e6,
                    },
                ],
            }
        })
        .collect()
}

/// A `dlr_refresh`-shaped call: every GPU reads every source it can
/// reach, each demand MB-scale and so cut into 8 KB chunks — hundreds of
/// cores busy at once, most of them in a few large cohorts.
fn dlr_works(platform: &Platform) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| {
            let peers = (0..n)
                .filter(|&j| j != gpu && platform.connected(gpu, Location::Gpu(j)))
                .map(|j| SourceDemand {
                    src: Location::Gpu(j),
                    bytes: 0.25e6 + ((gpu + 2 * j) % 7) as f64 * 0.1e6,
                });
            let demands = [
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: 1.5e6 + gpu as f64 * 0.02e6,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 1.1e6,
                },
            ];
            GpuWork {
                gpu,
                demands: demands.into_iter().chain(peers).collect(),
            }
        })
        .collect()
}

/// GPUs 0 and 1 given the same work: their groups' cohorts finish in the
/// same steps.
fn coinciding_works() -> Vec<GpuWork> {
    (0..2)
        .map(|gpu| GpuWork {
            gpu,
            demands: vec![
                SourceDemand {
                    src: Location::Gpu(gpu),
                    bytes: 1.2e6,
                },
                SourceDemand {
                    src: Location::Host,
                    bytes: 0.4e6,
                },
            ],
        })
        .collect()
}

/// Every call the differential tests compare, by name.
fn inputs(platform: &Platform) -> [(&'static str, Vec<GpuWork>); 3] {
    [
        ("mixed", mixed_works(platform)),
        ("dlr", dlr_works(platform)),
        ("coinciding", coinciding_works()),
    ]
}

fn modes() -> Vec<DispatchMode> {
    vec![
        DispatchMode::RandomShared { seed: 0x5EED },
        DispatchMode::Factored {
            dedication: DedicationConfig::default(),
        },
    ]
}

#[test]
fn results_match_reference_across_modes_and_platforms() {
    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        for (name, works) in inputs(&platform) {
            for mode in modes() {
                let (opt_r, opt_t) = simulate_traced(&platform, &cfg(), &works, mode);
                let (ref_r, ref_t) = simulate_reference_traced(&platform, &cfg(), &works, mode);
                assert_eq!(opt_r, ref_r, "{name} under {mode:?} on {}", platform.name);
                // A core that ran dry is never offered work again.
                assert!(
                    !revived(&opt_t),
                    "{name} under {mode:?} on {}",
                    platform.name
                );
                assert!(
                    !revived(&ref_t),
                    "{name} under {mode:?} on {}",
                    platform.name
                );
            }
        }
    }
}

#[test]
fn traces_match_reference_event_for_event() {
    let platform = Platform::server_c();
    for (name, works) in inputs(&platform) {
        for mode in modes() {
            let (opt_r, opt_t) = simulate_traced(&platform, &cfg(), &works, mode);
            let (ref_r, ref_t) = simulate_reference_traced(&platform, &cfg(), &works, mode);
            assert_eq!(opt_r, ref_r, "{name} result under {mode:?}");
            assert_eq!(
                event_bits(&opt_t),
                event_bits(&ref_t),
                "{name} events under {mode:?}"
            );
            match name {
                "dlr" => assert!(
                    ref_t.events.len() > 5_000,
                    "{} chunks under {mode:?}",
                    ref_t.events.len()
                ),
                "coinciding" => assert!(
                    groups_finish_together(&ref_t),
                    "no two groups finished in one step under {mode:?}"
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn telemetry_matches_reference() {
    let platform = Platform::server_c();
    for (name, works) in inputs(&platform) {
        for mode in modes() {
            let (_, opt_rep) = emb_telemetry::collect(|| simulate(&platform, &cfg(), &works, mode));
            let (_, ref_rep) =
                emb_telemetry::collect(|| simulate_reference(&platform, &cfg(), &works, mode));
            assert_eq!(
                opt_rep.metrics, ref_rep.metrics,
                "{name} metrics under {mode:?}"
            );
            assert_eq!(
                opt_rep.spans.len(),
                ref_rep.spans.len(),
                "{name} span count under {mode:?}"
            );
            for (a, b) in opt_rep.spans.iter().zip(ref_rep.spans.iter()) {
                assert_eq!((&a.track, &a.name), (&b.track, &b.name));
                assert_eq!(a.start_ns, b.start_ns, "span {} start", a.track);
                assert_eq!(a.end_ns, b.end_ns, "span {} end", a.track);
            }
            assert_eq!(opt_rep.clock_ns, ref_rep.clock_ns);
        }
    }
}

/// Whether chunks of two different `(gpu, source)` groups completed at
/// the same instant.
fn groups_finish_together(t: &ExtractionTrace) -> bool {
    let mut ends: Vec<_> = t
        .events
        .iter()
        .map(|e| (e.end.to_bits(), e.gpu, e.src))
        .collect();
    ends.sort();
    ends.dedup();
    ends.windows(2).any(|w| w[0].0 == w[1].0)
}

/// Whether some core sat idle between two of its chunks: took a chunk
/// after an instant at which it had none.
fn revived(t: &ExtractionTrace) -> bool {
    let mut by_core: Vec<_> = t
        .events
        .iter()
        .map(|e| (e.gpu, e.core, e.start.to_bits(), e.end.to_bits()))
        .collect();
    by_core.sort();
    by_core.windows(2).any(|w| {
        let (a, b) = (w[0], w[1]);
        (a.0, a.1) == (b.0, b.1) && f64::from_bits(b.2) > f64::from_bits(a.3)
    })
}

/// A random call: any subset of GPUs (possibly none, possibly one named
/// twice), each pulling from a random mix of reachable sources with sizes
/// from nothing to `scale` bytes — duplicates and zero-byte demands
/// included.
fn random_works(rng: &mut impl Rng, platform: &Platform, scale: f64) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    let mut works = Vec::new();
    for gpu in (0..n).chain(0..1) {
        if rng.gen_bool(0.3) {
            continue;
        }
        let demands = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let src = match rng.gen_range(0..=n) {
                    j if j < n && platform.connected(gpu, Location::Gpu(j)) => Location::Gpu(j),
                    _ => Location::Host,
                };
                let bytes = if rng.gen_bool(0.15) {
                    0.0
                } else {
                    scale * rng.gen_range(0.001..1.0f64)
                };
                SourceDemand { src, bytes }
            })
            .collect();
        works.push(GpuWork { gpu, demands });
    }
    works
}

fn event_bits(t: &ExtractionTrace) -> Vec<(usize, usize, Location, u64, u64)> {
    t.events
        .iter()
        .map(|e| (e.gpu, e.core, e.src, e.start.to_bits(), e.end.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// One simulator driven through a random sequence of calls — small
    /// after large, empty, scoped and scope-less — gives exactly what a
    /// fresh one-shot simulation and the frozen reference give for each
    /// call: no scratch state survives from one call into the next.
    #[test]
    fn reused_simulator_matches_fresh_and_reference(seed in 0u64..10_000) {
        let mut rng = emb_util::seed_rng(seed);
        let platform = match rng.gen_range(0..3) {
            0 => Platform::server_a(),
            1 => Platform::server_b(),
            _ => Platform::server_c(),
        };
        let c = cfg();
        for mode in modes() {
            let mut sim = Simulator::new(&platform, &c, mode);
            for _ in 0..5 {
                // Batch-sized, or five orders of magnitude above it.
                let scale = if rng.gen_bool(0.3) { 2e8 } else { 4e3 };
                let works = random_works(&mut rng, &platform, scale);
                if rng.gen_bool(0.2) {
                    // A scope-less call in between leaves no mark either.
                    prop_assert_eq!(sim.simulate(&works), simulate(&platform, &c, &works, mode));
                }
                let ((r, t), report) = emb_telemetry::collect(|| sim.simulate_traced(&works));
                let ((fresh_r, fresh_t), fresh_report) =
                    emb_telemetry::collect(|| simulate_traced(&platform, &c, &works, mode));
                let ((ref_r, ref_t), ref_report) = emb_telemetry::collect(|| {
                    simulate_reference_traced(&platform, &c, &works, mode)
                });
                prop_assert_eq!(&r, &fresh_r, "result vs fresh under {:?}", mode);
                prop_assert_eq!(&r, &ref_r, "result vs reference under {:?}", mode);
                prop_assert_eq!(event_bits(&t), event_bits(&fresh_t));
                prop_assert_eq!(event_bits(&t), event_bits(&ref_t));
                prop_assert!(!revived(&t), "a core revived under {:?}", mode);
                prop_assert_eq!(&report, &fresh_report, "telemetry vs fresh under {:?}", mode);
                prop_assert_eq!(&report, &ref_report, "telemetry vs reference under {:?}", mode);
            }
        }
    }
}
