//! Cache placement policies for multi-GPU embedding caches.
//!
//! This crate implements the paper's §6 (the Solver) plus every baseline
//! policy the evaluation compares against:
//!
//! * [`Placement`] — the ground truth both layers share: which entries
//!   each GPU stores and where each GPU reads each entry from (the
//!   `<GPU_i, Offset>` hashtable abstraction of §4);
//! * [`baselines`] — replication (HPS/GNNLab-style), partition
//!   (WholeGraph/SOK-style), clique partition (Quiver-style) and
//!   CPU-only;
//! * [`blocks`] — log-scale hotness batching with coarse/fine size caps
//!   (§6.3, Figure 9);
//! * [`estimate`] — the extraction-time model of §6.2 (`T_{i←j}`, hotness
//!   weights, the `R`-weighted padding bound);
//! * [`patterns`] — the realizable placement patterns the solver's LP
//!   combines (replicate on k GPUs, partition within each clique, host);
//! * [`solver`] — the UGache solver: a pattern LP over hotness blocks
//!   (fractional block placement is realizable by splitting blocks, so
//!   the LP relaxation is exact at block granularity). The paper's
//!   binary MILP is not built: this crate's tests measure the solver
//!   against a brute-force optimum of its model on tiny instances, and
//!   Figure 16's "optimal" is the pattern LP at fine block granularity
//!   (EXPERIMENTS.md, "Figure 16").

#![deny(missing_docs)]

pub mod baselines;
pub mod blocks;
pub mod estimate;
pub mod patterns;
pub mod solver;
pub mod types;

pub use blocks::{build_blocks, Block, BlockConfig};
pub use estimate::{estimate_extraction_time, TimeEstimate};
pub use solver::{SolverConfig, UGacheSolver};
pub use types::{Access, BitRow, Bits, Hotness, Placement, RowTableFull, SourceIdx};
