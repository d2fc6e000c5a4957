//! Pins the allocation budget of a reused [`Simulator`]: after warm-up, a
//! scope-less call allocates the result's vectors — `per_gpu` and one
//! `per_src` per GPU — and nothing else, however many cores are busy or
//! how finely the cohorts of busy cores fragment.
//!
//! Lives in its own integration-test binary because of the counting
//! `#[global_allocator]` (`test_support::CountingAlloc`).

use gpu_memsim::{DispatchMode, GpuWork, SimConfig, Simulator, SourceDemand};
use gpu_platform::{DedicationConfig, Location, Platform};
use test_support::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every GPU reads every source it can reach, `scale` bytes a source give
/// or take a few tenths.
fn every_flow(platform: &Platform, scale: f64) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| GpuWork {
            gpu,
            demands: (0..n)
                .filter(|&j| platform.connected(gpu, Location::Gpu(j)))
                .map(Location::Gpu)
                .chain([Location::Host])
                .enumerate()
                .map(|(k, src)| SourceDemand {
                    src,
                    bytes: scale * (0.3 + ((gpu + k) % 5) as f64 * 0.2),
                })
                .collect(),
        })
        .collect()
}

#[test]
fn a_warm_call_allocates_only_its_result() {
    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        let g = platform.num_gpus();
        // Batch-sized (8 KB chunks, hundreds of busy cores) and bulk.
        let calls = [every_flow(&platform, 1e6), every_flow(&platform, 40e6)];
        for mode in [
            DispatchMode::Factored {
                dedication: DedicationConfig::default(),
            },
            DispatchMode::RandomShared { seed: 7 },
        ] {
            let mut sim = Simulator::new(&platform, &SimConfig::default(), mode);
            for works in &calls {
                sim.simulate(works);
            }
            for works in calls.iter().chain(&calls) {
                let (r, n) = allocations(|| sim.simulate(works));
                assert_eq!(r.per_gpu.len(), g);
                assert_eq!(n, g + 1, "{} under {mode:?}", platform.name);
            }
        }
    }
}
