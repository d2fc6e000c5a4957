//! Online inference serving over a [`ugache::UGache`] instance.
//!
//! The training-side harness replays the paper's offline figures; this
//! crate adds the request path the ROADMAP's north star asks for: a
//! deterministic, simulated-time embedding parameter server in the
//! style of NVIDIA's HPS (arXiv 2210.08804). Concurrent lookups from a
//! large client population are coalesced by a micro-batching admission
//! queue into single multi-GPU extractions, and every request's latency
//! is accounted as queueing + batching + extraction on the virtual
//! clock — no wall-clock reads anywhere.
//!
//! The moving parts, bottom up:
//!
//! * [`PoissonArrivals`] — a seeded Poisson process on the virtual
//!   clock: exponential inter-arrival gaps via inverse-CDF from a
//!   [`emb_util::seed_rng`] stream, accumulated in a fixed order so the
//!   arrival instants are byte-for-byte reproducible.
//! * [`ClientPopulation`] — millions of simulated users; each request
//!   picks a user and draws that user's keys from a Zipfian sampler
//!   seeded by [`emb_util::split_seed`]`(user_seed, visit)`, so every
//!   user has their own deterministic draw stream without per-user
//!   state proportional to the population size.
//! * [`next_admission`] — the micro-batcher's admission rule: a batch
//!   starts forming when the server frees up, admits up to `max_batch`
//!   requests, and dispatches early when full or at the batching-window
//!   deadline otherwise.
//! * [`run_load_point`] / [`estimate_capacity_rps`] — the serving
//!   engine: drives a [`ugache::UGache`] through the admitted batches
//!   (one [`ugache::UGache::process_iteration`] per batch — the
//!   coalesced multi-GPU extraction), keeps the telemetry scope clock
//!   aligned with serving time, and summarizes per-request latencies
//!   into throughput and p50/p99/p999 tail percentiles.
//!
//! Everything is a pure function of the config's `u64` seed; the bench
//! harness's `serve` target sweeps offered load through these APIs and
//! emits the resulting curves as schema'd artifacts.
//!
//! Every request additionally carries a correlation id ([`req_id`])
//! linking its `serve.request` decomposition event, its
//! `serve.latency_ns` histogram exemplars, and its batch's span fields —
//! the raw material `repro explain-tail` turns into a tail-latency
//! forensics report.

#![deny(missing_docs)]

mod arrivals;
mod batch;
mod clients;
mod engine;

pub use arrivals::PoissonArrivals;
pub use batch::{next_admission, BatchAdmission};
pub use clients::{ClientPopulation, Request};
pub use engine::{
    draw_request_keys, estimate_capacity_rps, req_id, run_load_point, run_load_point_with_keys,
    summarize_latencies, LoadSample,
};

use emb_util::SimTime;

/// Configuration of the serving layer (everything except the offered
/// load, which the harness sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Root seed; all client / arrival streams split from it.
    pub seed: u64,
    /// Simulated client population size.
    pub num_users: u64,
    /// Embedding key domain (must match the served cache's table).
    pub num_keys: u64,
    /// Zipf exponent of each user's key-draw distribution.
    pub user_alpha: f64,
    /// Embedding keys per request.
    pub keys_per_request: usize,
    /// Bytes per embedding entry (for key-count accounting of the
    /// extractor's byte totals).
    pub entry_bytes: usize,
    /// Maximum requests coalesced into one extraction.
    pub max_batch: usize,
    /// Longest a forming batch waits for more requests before
    /// dispatching below `max_batch`.
    pub batch_window: SimTime,
    /// Requests simulated per load point.
    pub requests: usize,
}
