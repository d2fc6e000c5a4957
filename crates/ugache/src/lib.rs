//! UGache: a unified multi-GPU embedding cache (SOSP '23) — Rust
//! reproduction.
//!
//! The [`UGache`] type composes the pieces built by the substrate crates
//! exactly as the paper's architecture diagram does (§4): the **Solver**
//! (`cache-policy`) decides placement from hotness and the platform
//! profile, the **Filler** loads the per-GPU arenas (`emb-cache`), the
//! **Extractor** (`extractor`) serves lookups with factored extraction,
//! and the **Refresher** migrates the cache when hotness drifts.
//!
//! [`baselines`] reconstructs the systems the paper compares against
//! from the same substrate, so like-for-like experiments differ only in
//! policy and mechanism — its module docs hold the policy × mechanism
//! table and the three ways to get a cell of it. [`apps`] adds the end-to-end application models (GNN
//! training epochs, DLR inference iterations) with dense-layer and
//! sampling cost models. [`framework`] exposes the embedding-layer
//! integration surface (§7.1) in TensorFlow-ish and PyTorch-ish flavours.

#![deny(missing_docs)]

pub mod apps;
pub mod baselines;
pub mod framework;
pub mod system;

pub use baselines::{SystemInstance, SystemKind};
pub use system::{IterationReport, UGache, UGacheConfig};
