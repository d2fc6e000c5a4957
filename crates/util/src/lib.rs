//! Shared utilities for the UGache reproduction.
//!
//! Everything stochastic in this workspace flows through [`rng`], so a
//! single `u64` seed fully determines a run. [`zipf`] implements the
//! power-law samplers that drive skewed embedding access, [`marks`]
//! deduplicates the keys they draw without sorting them, [`stats`]
//! holds the percentile and geometric-mean helpers, [`time`] defines
//! the fixed-point simulated-time type used by the platform simulator,
//! and [`pool`] is the deterministic chunk-based worker pool behind the
//! `--threads N` flag.

#![deny(missing_docs)]

pub mod fmt;
pub mod marks;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zipf;

pub use marks::KeyMarks;
pub use rng::{seed_rng, split_seed};
pub use time::SimTime;
pub use zipf::ZipfSampler;
