//! What a placement costs: a row id and a bit per GPU an entry.

use cache_policy::{Hotness, SolverConfig, UGacheSolver};
use emb_util::zipf::powerlaw_hotness;
use gpu_platform::{DedicationConfig, Platform};
use test_support::{peak_of, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_solved_server_c_placement_clones_in_three_bytes_an_entry() {
    // Eight GPUs: a `u16` row id and eight stored bits an entry, 3 bytes;
    // the dense layout it replaced held a source byte and a stored flag
    // per GPU, 16. The source table and its index are a few dozen rows.
    let n = 1 << 20;
    let solver = UGacheSolver::new(Platform::server_c(), DedicationConfig::default());
    let hotness = Hotness::new(powerlaw_hotness(n, 1.2));
    let placement = solver
        .solve(&hotness, &[n / 16; 8], &SolverConfig::new(512, 40_000.0))
        .unwrap()
        .placement;
    assert!(placement.cached_count(0) > n / 32, "the solve caches");
    let (copy, peak) = peak_of(|| placement.clone());
    assert!(copy == placement);
    assert!(
        peak <= 3 * n + 64 * 1024,
        "a clone of {n} entries peaked at {peak} bytes"
    );
}
