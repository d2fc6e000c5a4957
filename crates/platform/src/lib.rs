//! Declarative model of a multi-GPU platform.
//!
//! This crate is the reproduction's stand-in for real NVIDIA hardware (see
//! `DESIGN.md`, "the central substitution"). It describes GPUs (SM count,
//! memory capacity, sustainable bandwidths), the interconnect between them
//! (hard-wired NVLink meshes or an NVSwitch fabric, plus PCIe to the host),
//! and derives from that description the parameters the rest of the system
//! consumes:
//!
//! * [`Platform::path`] — the bandwidth/latency characteristics of every
//!   `destination ← source` transfer path, including per-core sustainable
//!   bandwidth and the resulting *core tolerance* (paper Figure 6);
//! * [`Profile`] — the `T_{i←j}` (seconds per byte) and `R_{i←j}` (core
//!   dedication ratio) matrices of the paper's Table 2, fed to the cache
//!   policy solver (§6) and the factored extractor (§5).
//!
//! Three presets mirror the paper's testbeds: [`Platform::server_a`]
//! (4×V100, hard-wired, fully connected), [`Platform::server_b`] (8×V100
//! DGX-1 hybrid cube-mesh, non-uniform with unconnected pairs) and
//! [`Platform::server_c`] (8×A100, NVSwitch).

#![deny(missing_docs)]

pub mod gpu;
pub mod link;
pub mod profile;
pub mod topology;

pub use gpu::GpuSpec;
pub use link::{PathKind, PathSpec};
pub use profile::{DedicationConfig, Profile};
pub use topology::{home_gpu, Interconnect, Location, Platform};
