//! Functional multi-GPU embedding cache.
//!
//! This crate is the *data* half of the reproduction (the timing half is
//! `gpu-memsim`): it really stores embedding vectors and really gathers
//! them, so correctness is testable end-to-end:
//!
//! * [`HostTable`] — the full embedding table in host memory, each row
//!   computed from its entry id rather than stored;
//! * [`MultiGpuCache`] — the composed cache: one row pool that every GPU
//!   shares, so an entry several GPUs hold is stored, filled and
//!   refreshed once, and one slot table over it (a pool slot per
//!   distinct cached entry, found by rank over the union of the
//!   placement's stored bits), filled from a placement by
//!   [`MultiGpuCache::build`] (the Filler, §4), and a
//!   [`MultiGpuCache::gather`] that returns both values and per-source
//!   hit statistics. The paper's per-GPU `<GPU_i, Offset>` hashtable is
//!   not stored: a key resolves through the placement's access (a row id
//!   an entry), the source GPU's stored bit (and, mid-refresh, its
//!   vacancy bit), then the union's rank and slot (design notes in
//!   [`plan`]);
//! * [`HotnessSampler`] — foreground request sampling for hotness
//!   tracking (§7.2);
//! * [`Refresher`] — the background refresh: one due time and a queue of
//!   small eviction batches after the solve, then the placement swap,
//!   which writes the inserted rows, with bounded foreground impact
//!   (Figure 17);
//! * [`LruCache`] — an online LRU cache (the HPS baseline's eviction
//!   design), kept so the static-vs-LRU comparison of §7.2 is measured
//!   against a real implementation.

#![deny(missing_docs)]

mod arena;
pub mod cache;
pub mod lru;
pub mod plan;
pub mod refresh;
pub mod sampler;
pub mod table;

pub use cache::{GatherStats, MultiGpuCache};
pub use lru::LruCache;
pub use plan::GatherPlan;
pub use refresh::{RefreshConfig, Refresher};
pub use sampler::HotnessSampler;
pub use table::HostTable;
