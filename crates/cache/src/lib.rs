//! Functional multi-GPU embedding cache.
//!
//! This crate is the *data* half of the reproduction (the timing half is
//! `gpu-memsim`): it really stores embedding vectors and really gathers
//! them, so correctness is testable end-to-end:
//!
//! * [`HostTable`] — the full embedding table in (real or procedural)
//!   host memory;
//! * [`GpuArena`] — one GPU's cache storage: a flat slot array, a LIFO
//!   free list, and a dense entry→slot index (an array indexed by entry
//!   id — bookkeeping of this crate, not a structure of the paper's);
//! * [`MultiGpuCache`] — the composed cache: per-GPU location tables in
//!   the paper's `<GPU_i, Offset>` format (§4 calls them hashtables; here
//!   they are flat arrays indexed by entry id), filled from a
//!   placement by [`MultiGpuCache::build`] (the Filler), and a
//!   [`MultiGpuCache::gather`] that returns both values and per-source
//!   hit statistics (design notes in [`plan`]);
//! * [`HotnessSampler`] — foreground request sampling for hotness
//!   tracking (§7.2);
//! * [`Refresher`] — the background refresh state machine: solve → staged
//!   small-batch cache updates with bounded foreground impact (Figure 17);
//! * [`LruCache`] — an online LRU cache (the HPS baseline's eviction
//!   design), kept so the static-vs-LRU comparison of §7.2 is measured
//!   against a real implementation.

#![deny(missing_docs)]

pub mod arena;
pub mod cache;
pub mod lru;
pub mod plan;
pub mod refresh;
pub mod sampler;
pub mod table;

pub use arena::GpuArena;
pub use cache::{GatherStats, MultiGpuCache};
pub use lru::LruCache;
pub use plan::GatherPlan;
pub use refresh::{RefreshConfig, RefreshPhase, Refresher};
pub use sampler::HotnessSampler;
pub use table::HostTable;
