//! Minimal dense-layer substrate.
//!
//! The paper's applications wrap the embedding layer with ordinary dense
//! compute: a DLRM inference stack (bottom MLP + feature interaction +
//! top MLP) and GNN layers that aggregate neighbour embeddings before a
//! classifier. The embedding table itself is *read-only* (pre-trained,
//! §2), so training only updates the dense part — which this crate
//! implements with plain `f32` matrices and manual backpropagation. It
//! exists so the examples can run real end-to-end model math over the
//! vectors the cache actually serves, not just cost-model time.

pub mod dlrm;
pub mod gnn;
pub mod matrix;
pub mod mlp;

pub use dlrm::DlrmModel;
pub use gnn::mean_aggregate;
pub use matrix::Matrix;
pub use mlp::Mlp;
