//! The `serve` target: throughput-vs-offered-load and latency tail
//! curves of the online inference serving layer.
//!
//! A UGache instance over a power-law table on Server A is put behind
//! `emb-serve`'s micro-batching admission queue and driven by Poisson
//! request traffic from a simulated client population. The engine's
//! saturation throughput is probed once, then the offered load sweeps
//! fixed multiples of it; each level reports achieved throughput, the
//! p50/p99/p999 latency tail, the latency breakdown (queueing, batch
//! wait, extraction), and the extraction tier mix. All timing flows
//! through the simulated clock, so the curves are exact functions of
//! the scenario and the global seed.

use super::header;
use crate::scenario::{PlatformId, Scenario, SEED};
use cache_policy::Hotness;
use emb_cache::HostTable;
use emb_serve::{estimate_capacity_rps, run_load_point, ClientPopulation, LoadSample, ServeConfig};
use emb_util::zipf::powerlaw_hotness;
use emb_util::{split_seed, SimTime};
use serde::Serialize;
use std::fmt::{self, Write as _};
use ugache::{UGache, UGacheConfig};

/// Offered-load multiples of the probed capacity, low to overload.
pub const LOAD_FACTORS: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.5];

/// Zipf exponent shared by the client draws and the solved hotness.
const ALPHA: f64 = 1.05;
/// Embedding dimension of the served table.
const DIM: usize = 32;
/// Keys per request.
const KEYS_PER_REQUEST: usize = 32;
/// Requests coalesced per extraction at most (public so
/// `repro explain-tail` can classify tail batches as underfull).
pub const MAX_BATCH: usize = 16;
/// Micro-batching window.
const BATCH_WINDOW: SimTime = SimTime::from_micros(250);

/// One offered-load level of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Point {
    /// Offered load as a multiple of the probed capacity.
    pub factor: f64,
    /// The engine's throughput/latency summary at this level.
    pub sample: LoadSample,
}

/// The full serving sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeData {
    /// Probed saturation throughput (requests per second).
    pub capacity_rps: f64,
    /// Served key domain size.
    pub num_keys: usize,
    /// Simulated client population size.
    pub num_users: usize,
    /// Sweep levels in [`LOAD_FACTORS`] order.
    pub points: Vec<Point>,
}

/// Number of served embedding keys at a given DLR scale divisor.
fn key_domain(dlr_scale: usize) -> usize {
    (40_000_000 / dlr_scale.max(1)).max(2_048)
}

/// The serving engine's configuration at the given knobs — shared by
/// the figure sweep and `repro record` for `serve/zipf@server_a`
/// traces, so recorded request streams match the live sweep's draws.
pub fn serve_config(s: &Scenario) -> ServeConfig {
    ServeConfig {
        seed: split_seed(SEED, 0x5E12E),
        num_users: s.serve_users as u64,
        num_keys: key_domain(s.dlr_scale) as u64,
        user_alpha: ALPHA,
        keys_per_request: KEYS_PER_REQUEST,
        entry_bytes: DIM * 4,
        max_batch: MAX_BATCH,
        batch_window: BATCH_WINDOW,
        requests: s.serve_requests,
    }
}

/// Computes the serving sweep (no printing).
pub fn compute(s: &Scenario) -> ServeData {
    let plat = PlatformId::ServerA.resolve();
    let n = key_domain(s.dlr_scale);
    let entry_bytes = DIM * 4;
    let hotness = Hotness::new(powerlaw_hotness(n, ALPHA));
    // Expected unique keys per coalesced batch (dedup discounts the raw
    // draw count; the exact value only shapes the solver's time model).
    let accesses = (MAX_BATCH * KEYS_PER_REQUEST) as f64 * 0.7;
    let mut cfg = UGacheConfig::new(entry_bytes, accesses);
    cfg.solver.blocks.max_blocks = 32;
    cfg.solver.blocks.min_splits = plat.num_gpus();
    cfg.sample_stride = 4;
    let host = HostTable::procedural(n, DIM);
    let cap = (n / 8).max(64);
    let mut u = UGache::build(
        plat.clone(),
        host,
        &hotness,
        vec![cap; plat.num_gpus()],
        cfg,
    )
    .expect("ugache builds");

    let serve_cfg = serve_config(s);
    let mut clients = ClientPopulation::new(
        serve_cfg.seed,
        serve_cfg.num_users,
        serve_cfg.num_keys,
        serve_cfg.user_alpha,
        serve_cfg.keys_per_request,
    );
    let capacity_rps = estimate_capacity_rps(&mut u, &serve_cfg, &mut clients);
    let points = LOAD_FACTORS
        .iter()
        .enumerate()
        .map(|(i, &factor)| Point {
            factor,
            sample: run_load_point(
                &mut u,
                &serve_cfg,
                &mut clients,
                i as u64,
                capacity_rps * factor,
            ),
        })
        .collect();
    ServeData {
        capacity_rps,
        num_keys: n,
        num_users: s.serve_users,
        points,
    }
}

/// Writes the sweep from precomputed data.
pub fn render(out: &mut String, data: &ServeData) -> fmt::Result {
    header(
        out,
        "Serving: throughput and latency tail vs offered load (Server A)",
    )?;
    writeln!(
        out,
        "{} keys, {} users, capacity ~{:.0} req/s",
        data.num_keys, data.num_users, data.capacity_rps
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "load", "offered/s", "achieved/s", "batch", "p50(ms)", "p99(ms)", "p999(ms)", "host%"
    )?;
    for p in &data.points {
        let s = &p.sample;
        writeln!(
            out,
            "{:>5.2}x {:>12.0} {:>12.0} {:>7.1} {:>9.3} {:>9.3} {:>9.3} {:>8.1}",
            p.factor,
            s.offered_rps,
            s.achieved_rps,
            s.mean_batch,
            s.p50_ms,
            s.p99_ms,
            s.p999_ms,
            s.host_frac * 100.0
        )?;
    }
    Ok(())
}
