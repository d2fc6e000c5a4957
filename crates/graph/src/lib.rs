//! Graph substrate for GNN workloads.
//!
//! GNN training drives embedding access through k-hop neighbourhood
//! sampling over a power-law graph (paper §2): the skew of embedding
//! access *is* the skew of the graph's in-degree distribution. This crate
//! provides the pieces the paper's GNN experiments need:
//!
//! * [`Csr`] — compressed sparse row adjacency, the standard in-memory
//!   format graph systems sample from;
//! * [`generate()`] — a deterministic power-law graph generator whose
//!   in-degree skew is controlled by a Zipf exponent, standing in for
//!   OGB-Papers100M / Com-Friendster / MAG240M (scaled presets live in
//!   `emb-workload`);
//! * [`FanoutSampler`] — multi-hop random neighbourhood sampling
//!   (GraphSAGE 2-hop, GCN 3-hop) plus negative sampling for the
//!   unsupervised link-prediction workload.

pub mod csr;
pub mod generate;
pub mod sample;

pub use csr::Csr;
pub use generate::{generate, GraphConfig};
pub use sample::{FanoutSampler, SampleScratch, SampledBatch};
