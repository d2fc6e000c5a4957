//! Flow-level discrete-event simulation of multi-GPU embedding extraction.
//!
//! This crate is the timing substitute for real GPU hardware (see
//! `DESIGN.md`). Given how many bytes each destination GPU must pull from
//! each source location, and how SM cores are assigned to that work, it
//! computes how long the extraction takes on the modelled platform —
//! including the effects UGache's design revolves around:
//!
//! * **per-core bandwidth limits** — one SM can only sustain a few GB/s of
//!   dependent gather traffic (paper Figure 6);
//! * **link saturation** — a path's aggregate bandwidth caps the sum of
//!   its readers;
//! * **congestion collapse** — once concurrent readers exceed a path's
//!   *tolerance*, the effective bandwidth degrades (modelled as a bounded
//!   penalty, calibrated to the paper's "up to 50 %" core-stall loss);
//! * **source egress collision** — on switch-based platforms several GPUs
//!   reading the same source share its egress port (Figure 6b, right);
//! * **core stall** — a core occupied by a slow transfer cannot serve
//!   other work, which the event engine captures naturally.
//!
//! The two dispatch modes are the extraction mechanisms of §3.2/§5:
//! [`DispatchMode::RandomShared`] (naive peer access, random key
//! dispatch) and [`DispatchMode::Factored`] (UGache's core dedication with
//! local-extraction padding).

#![deny(missing_docs)]

pub mod bandwidth;
pub mod engine;
pub mod microbench;
pub mod reference;
pub mod trace;

pub use bandwidth::{effective_bw, CongestionModel};
pub use engine::{
    simulate, simulate_traced, DispatchMode, ExtractionResult, GpuExtraction, GpuWork, LinkUse,
    SimConfig, Simulator, SourceDemand,
};
pub use reference::{simulate_reference, simulate_reference_traced};
pub use trace::{ExtractionTrace, TraceEvent};
