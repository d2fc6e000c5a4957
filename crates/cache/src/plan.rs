//! Reusable gather plans, and the design of the gather they serve.
//!
//! This is the one place the gather's design is written down; other docs
//! link here.
//!
//! [`crate::MultiGpuCache::gather`] is two passes over one batch, each
//! written once and run through `emb_util::pool::par_chunks_mut` at every
//! pool width (a width of 1 runs the same chunks inline, so there is no
//! serial variant to keep equal):
//!
//! 1. **resolve** ([`crate::MultiGpuCache::plan_gather`]) — chunks of
//!    `PLAN_CHUNK_KEYS` keys. The placement's row id and the destination
//!    GPU's column of the source table (a few bytes that stay in L1) give
//!    the source GPU ([`cache_policy::Placement::access`]); the source's
//!    stored word (and, mid-refresh, its vacancy word) says it holds the
//!    row, the union's word, its rank prefix (a `u32` per 64 entries) and
//!    a popcount give the entry's rank, and the one slot table the pool
//!    slot (together the paper's `<GPU_i, Offset>` hashtable, §4). The
//!    packed slot is `source << 32 | slot`, the source feeding the
//!    counts; a host access or a source without the entry (evicted
//!    mid-refresh) becomes `host << 32 | key`.
//!    Chunks fill disjoint slot ranges and count keys per source; the
//!    per-chunk counts are summed in chunk order (`u64`, exact).
//! 2. **copy** ([`crate::MultiGpuCache::execute_plan`]) — chunks of
//!    `COPY_CHUNK_ROWS` output rows. A chunk walks its rows once, in key
//!    order; each row is one `copy_from_slice` out of the row pool that
//!    all GPUs share (an entry several GPUs hold is one row there), or
//!    one `HostTable::read_into` for the host source.
//!    Rows are written exactly once, to disjoint output slices.
//!
//! Chunk boundaries are a function of the batch length only, so the plan,
//! the counts and the output bytes are the same at every width by
//! construction. `tests/differential.rs` pins the rows bit for bit to
//! the host table and the counts to `Placement::split_keys`, at every
//! width, at rest and mid-refresh, with [`crate::MultiGpuCache::audit`]
//! after every step.
//!
//! Splitting resolve from copy keeps the pointer-chasing table loads out
//! of the `memcpy` loop, and the per-source counts double as the per-tier
//! statistics the timing layer needs: [`GatherPlan::source_split`] has
//! the shape of `Placement::split_keys` without a second pass over the
//! keys.
//!
//! Plans are plain buffers and are meant to be reused across calls (the
//! cache keeps one per thread); [`GatherPlan::reset`] retains capacity.

use crate::cache::GatherStats;
use gpu_platform::Location;

/// A resolved gather: one packed slot per key plus per-source counts.
///
/// Each slot packs `source << 32 | payload` where `payload` is the row
/// pool slot for GPU sources and the entry id for the host source (index
/// `num_gpus`), so the copy pass never re-probes any table.
#[derive(Debug, Clone, Default)]
pub struct GatherPlan {
    pub(crate) num_gpus: usize,
    /// Packed `(source, slot-or-key)` per key, in key order.
    pub(crate) slots: Vec<u64>,
    /// Keys per source; index `num_gpus` is the host.
    pub(crate) counts: Vec<u64>,
}

impl GatherPlan {
    /// Creates an empty plan (no capacity reserved yet).
    pub fn new() -> Self {
        GatherPlan::default()
    }

    /// Clears the plan for `num_gpus` sources, retaining buffer capacity.
    pub fn reset(&mut self, num_gpus: usize) {
        self.num_gpus = num_gpus;
        self.slots.clear();
        self.counts.clear();
        self.counts.resize(num_gpus + 1, 0);
    }

    /// Number of planned keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-source hit statistics as seen from destination GPU `gpu`.
    pub fn stats(&self, gpu: usize) -> GatherStats {
        let local = self.counts[gpu];
        let host = self.counts[self.num_gpus];
        let total: u64 = self.counts.iter().sum();
        GatherStats {
            local,
            remote: total - local - host,
            host,
        }
    }

    /// The plan's `(location, key_count)` pairs, merged per source —
    /// GPUs in ascending index order, host last, zero counts skipped.
    ///
    /// This is the same shape (and ordering) as
    /// `cache_policy::Placement::split_keys`, computed from the already
    /// accumulated counts instead of a second pass over the keys.
    pub fn source_split(&self) -> Vec<(Location, u64)> {
        let mut out = Vec::new();
        for (j, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let loc = if j == self.num_gpus {
                Location::Host
            } else {
                Location::Gpu(j)
            };
            out.push((loc, c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_and_split_agree_with_counts() {
        let mut p = GatherPlan::new();
        p.reset(3);
        p.counts[0] = 4;
        p.counts[2] = 1;
        p.counts[3] = 2;
        let s = p.stats(0);
        assert_eq!(
            s,
            GatherStats {
                local: 4,
                remote: 1,
                host: 2
            }
        );
        assert_eq!(
            p.source_split(),
            vec![
                (Location::Gpu(0), 4),
                (Location::Gpu(2), 1),
                (Location::Host, 2)
            ]
        );
    }

    #[test]
    fn reset_retains_nothing_visible() {
        let mut p = GatherPlan::new();
        p.reset(2);
        p.slots.push(42);
        p.counts[1] = 7;
        p.reset(2);
        assert!(p.is_empty());
        assert_eq!(p.counts, [0, 0, 0]);
        assert_eq!(p.stats(0), GatherStats::default());
        assert!(p.source_split().is_empty());
    }
}
