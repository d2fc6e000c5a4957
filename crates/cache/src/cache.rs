//! The composed multi-GPU cache and its filler.

use crate::arena::{GpuArena, RowPool, SlotIndex};
use crate::plan::GatherPlan;
use crate::table::HostTable;
use cache_policy::{BitRow, Placement, SourceIdx};
use gpu_platform::Location;
use std::cell::RefCell;

/// Keys per chunk of the resolve pass. Boundaries are a function of the
/// key count only, so plans are identical at any pool width.
const PLAN_CHUNK_KEYS: usize = 8_192;

/// Output rows per chunk of the copy pass.
const COPY_CHUNK_ROWS: usize = 2_048;

thread_local! {
    /// Reusable gather plan, one per thread, so steady-state gathers
    /// reuse one slot buffer instead of allocating a batch-sized one per
    /// call. Thread-local (not shared) keeps parallel repro runs
    /// independent.
    static PLAN: RefCell<GatherPlan> = RefCell::new(GatherPlan::new());
}

/// Per-source hit statistics of one gather call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatherStats {
    /// Keys served from the destination GPU's own arena.
    pub local: u64,
    /// Keys served from a remote GPU's arena (over the interconnect).
    pub remote: u64,
    /// Keys served from the host table (over PCIe).
    pub host: u64,
}

impl GatherStats {
    /// Total keys gathered.
    pub fn total(&self) -> u64 {
        self.local + self.remote + self.host
    }
}

/// The functional multi-GPU embedding cache.
///
/// A key is resolved in two steps: the placement's access (the entry's
/// row id, then the destination's column of the source table) says which
/// GPU the destination reads it from, and that GPU's arena finds the slot
/// by rank over the placement's stored bits for the GPU. Together they
/// are the paper's `<GPU_i, Offset>` location hashtable (§4), kept
/// nowhere else. A miss at either step reads the host table. The slot
/// indexes one row pool that all GPUs share, so an entry several GPUs
/// hold is stored once. Gathers report per-source counts that the timing
/// layer can turn into simulated extraction times.
#[derive(Debug, Clone)]
pub struct MultiGpuCache {
    host: HostTable,
    pool: RowPool,
    arenas: Vec<GpuArena>,
    placement: Placement,
    /// Whether arena rows have been evicted since `placement` was
    /// installed (a refresh between its first update and its swap).
    migrating: bool,
}

/// Panics unless GPU `gpu`'s read of `entry` from `src` reaches a row:
/// `src` is the host or a GPU that `stored` says holds `entry` (an arena
/// holds a row for every entry its stored row sets, and for no other that
/// a read can reach).
fn assert_reachable(stored: &[BitRow], gpu: usize, entry: usize, src: SourceIdx) {
    if let Some(row) = stored.get(src as usize) {
        assert!(
            row.get(entry),
            "GPU{gpu} reads entry {entry} from GPU{src}, whose arena lacks it"
        );
    }
}

impl MultiGpuCache {
    /// Builds and fills the cache from a placement (the Filler, §4).
    ///
    /// # Panics
    ///
    /// Panics if the placement references more entries than the host
    /// table holds, a GPU stores more entries than `cap_entries`, or an
    /// access reads an entry from a GPU that does not store it.
    pub fn build(host: HostTable, placement: &Placement, cap_entries: &[usize]) -> Self {
        assert_eq!(
            placement.num_entries,
            host.num_entries(),
            "table size mismatch"
        );
        assert_eq!(
            placement.num_gpus,
            cap_entries.len(),
            "one capacity per GPU"
        );
        // Each distinct stored entry's row, read from host straight into
        // its pool slot once.
        let (pool, arenas) = RowPool::filled(cap_entries, &placement.stored, &host);

        for i in 0..placement.num_gpus {
            let access = placement.access(i);
            for e in 0..access.len() {
                assert_reachable(&placement.stored, i, e, access[e]);
            }
        }

        MultiGpuCache {
            host,
            pool,
            arenas,
            placement: placement.clone(),
            migrating: false,
        }
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.arenas.len()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.host.dim()
    }

    /// The host table.
    pub fn host_table(&self) -> &HostTable {
        &self.host
    }

    /// The active placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The slot of `entry`'s row on GPU `src`, if `src` is a GPU that
    /// stores it under the placement and has not evicted it.
    #[inline]
    fn slot_of(&self, src: usize, entry: u32) -> Option<u32> {
        let arena = self.arenas.get(src)?;
        arena.index(&self.placement.stored[src]).slot(entry)
    }

    /// Checks the cache against its own invariants and returns the first
    /// violation found:
    ///
    /// * each arena's slot table has one place per entry the placement
    ///   stores on it, and holds no more rows than its capacity;
    /// * every pool slot is either referenced by at least one arena or
    ///   free, never both; a referenced slot holds one entry, the same
    ///   slot in every arena that holds it, and a row equal to
    ///   [`HostTable::read`]'s — so at most one row per distinct entry;
    /// * every access that names a GPU reaches a row there, except, mid
    ///   refresh (rows evicted since the placement was installed), one
    ///   whose row the GPU evicted; at rest no arena has an evicted row.
    ///
    /// A pass over every access row and every pool row: for tests.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn audit(&self) -> Result<(), String> {
        let g = self.num_gpus();
        let host_idx = self.placement.host_idx();
        self.pool
            .check(&self.arenas, &self.placement.stored, &self.host)?;
        for i in 0..g {
            let access = self.placement.access(i);
            for e in 0..access.len() {
                let (e, src) = (e as u32, access[e] as usize);
                if src == host_idx as usize {
                    continue;
                }
                if src >= g {
                    return Err(format!("GPU{i} entry {e}: source {src} is no GPU"));
                }
                if self.slot_of(src, e).is_none() && !self.migrating {
                    return Err(format!(
                        "GPU{i} reads entry {e} from GPU{src}, whose arena lacks it"
                    ));
                }
            }
        }
        if !self.migrating {
            for (j, arena) in self.arenas.iter().enumerate() {
                if arena.len() != self.placement.cached_count(j) {
                    return Err(format!(
                        "GPU{j} holds {} rows, its placement stores {}",
                        arena.len(),
                        self.placement.cached_count(j)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resolves `keys` for GPU `gpu` into `plan` (the first gather pass):
    /// chunks of `PLAN_CHUNK_KEYS` keys fill disjoint slot ranges on
    /// `emb_util::pool`, and per-chunk source counts are summed in chunk
    /// order, so the plan is the same at every pool width.
    ///
    /// # Panics
    ///
    /// Panics if a key is out of range.
    pub fn plan_gather(&self, gpu: usize, keys: &[u32], plan: &mut GatherPlan) {
        let g = self.num_gpus();
        let access = self.placement.access(gpu);
        plan.reset(g);
        plan.slots.resize(keys.len(), 0);
        let host_tag = (g as u64) << 32;
        let index: Vec<SlotIndex> = (self.arenas.iter().zip(&self.placement.stored))
            .map(|(arena, stored)| arena.index(stored))
            .collect();
        let chunk_counts =
            emb_util::pool::par_chunks_mut(&mut plan.slots, PLAN_CHUNK_KEYS, |ci, slots| {
                let mut counts = vec![0u64; g + 1];
                for (slot, &key) in slots.iter_mut().zip(&keys[ci * PLAN_CHUNK_KEYS..]) {
                    assert!((key as usize) < access.len(), "entry {key} out of range");
                    let src = access[key as usize] as usize;
                    *slot = match index.get(src).and_then(|t| t.slot(key)) {
                        Some(off) => (src as u64) << 32 | off as u64,
                        None => host_tag | key as u64,
                    };
                    counts[(*slot >> 32) as usize] += 1;
                }
                counts
            });
        for counts in chunk_counts {
            for (total, c) in plan.counts.iter_mut().zip(counts) {
                *total += c;
            }
        }
    }

    /// Copies every planned row into `out` (the second gather pass):
    /// chunks of `COPY_CHUNK_ROWS` output rows run on `emb_util::pool`,
    /// each walking its rows once and copying from the pool slab or the
    /// host table its slot names. Every row is written exactly once, so
    /// the bytes are the same at every pool width.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `plan.len() × dim` floats long.
    pub fn execute_plan(&self, plan: &GatherPlan, out: &mut [f32]) {
        let dim = self.dim();
        assert_eq!(out.len(), plan.len() * dim, "output buffer length mismatch");
        if out.is_empty() {
            return;
        }
        let (g, slab) = (self.num_gpus(), self.pool.slab());
        emb_util::pool::par_chunks_mut(out, COPY_CHUNK_ROWS * dim, |ci, chunk| {
            let slots = &plan.slots[ci * COPY_CHUNK_ROWS..];
            for (row, &packed) in chunk.chunks_exact_mut(dim).zip(slots) {
                let src = (packed >> 32) as usize;
                let payload = (packed & 0xFFFF_FFFF) as usize;
                if src == g {
                    self.host.read_into(payload as u32, row);
                } else {
                    let base = payload * dim;
                    row.copy_from_slice(&slab[base..base + dim]);
                }
            }
        });
    }

    /// Gathers `keys` for GPU `gpu` into `out` (length `keys.len() × dim`)
    /// and reports per-source counts: [`MultiGpuCache::plan_gather`] then
    /// [`MultiGpuCache::execute_plan`] over a thread-local reusable plan.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length or a key is out of range.
    pub fn gather(&self, gpu: usize, keys: &[u32], out: &mut [f32]) -> GatherStats {
        assert_eq!(
            out.len(),
            keys.len() * self.dim(),
            "output buffer length mismatch"
        );
        let stats = PLAN.with(|p| {
            let mut plan = p.borrow_mut();
            self.plan_gather(gpu, keys, &mut plan);
            self.execute_plan(&plan, out);
            plan.stats(gpu)
        });
        emb_telemetry::count("cache.gathers", 1.0);
        emb_telemetry::count("cache.local_hits", stats.local as f64);
        emb_telemetry::count("cache.remote_hits", stats.remote as f64);
        emb_telemetry::count("cache.host_misses", stats.host as f64);
        stats
    }

    /// Per-GPU `(location, key_count)` splits for one batch of key
    /// batches, counted over the *placement's* access arrangement.
    ///
    /// This is the plan-based replacement for calling
    /// `Placement::split_keys` per GPU (identical output), reusing the
    /// thread-local plan's counting buffers. It deliberately skips the
    /// arena load of the gather's resolve: mid-refresh, a read whose
    /// source arena has evicted the entry goes to host, and the timing
    /// layer must keep pricing the arrangement it was given.
    ///
    /// # Panics
    ///
    /// Panics if `keys_per_gpu.len()` differs from the GPU count or a key
    /// is out of range.
    pub fn access_splits(&self, keys_per_gpu: &[Vec<u32>]) -> Vec<Vec<(Location, u64)>> {
        assert_eq!(keys_per_gpu.len(), self.num_gpus(), "one key batch per GPU");
        let g = self.num_gpus();
        PLAN.with(|p| {
            let mut plan = p.borrow_mut();
            keys_per_gpu
                .iter()
                .enumerate()
                .map(|(gpu, keys)| {
                    plan.reset(g);
                    let access = self.placement.access(gpu);
                    for &k in keys {
                        plan.counts[access[k as usize] as usize] += 1;
                    }
                    plan.source_split()
                })
                .collect()
        })
    }

    /// Applies a single incremental update on one GPU: evicts `evict`,
    /// entries the placement stores on `gpu` (any other is skipped). Reads
    /// keep following the placement until
    /// [`MultiGpuCache::swap_placement`], and an evicted entry's slot is
    /// vacant on `gpu`, so its readers there read host. The pool row is
    /// freed once no GPU holds the entry.
    pub fn update_arena(&mut self, gpu: usize, evict: &[u32]) {
        self.migrating = true;
        self.pool
            .evict(&mut self.arenas, &self.placement.stored, gpu, evict);
    }

    /// Installs a new placement (the swap step of a refresh): gathers
    /// follow it from the next call.
    ///
    /// Every entry the old placement stores on a GPU and `placement` does
    /// not must already be evicted, as [`crate::Refresher`] does. Each
    /// arena is re-indexed in one pass over its two stored rows, GPU by
    /// GPU: a kept entry keeps its pool slot, and an added one takes the
    /// slot of a GPU that holds it after the swap, else claims a free slot
    /// and reads its host row into it, once for every GPU that adds it.
    /// Then every arena holds a row for exactly the entries `placement`
    /// stores on it, so every read a valid placement makes
    /// ([`Placement::validate`]) reaches one, with no pass over the
    /// entries' accesses.
    ///
    /// # Panics
    ///
    /// Panics if the placement's shape differs from the cache's, an arena
    /// still holds an entry `placement` drops or lacks one it keeps
    /// (naming the GPU and the entry), or the added rows do not fit.
    pub fn swap_placement(&mut self, placement: Placement) {
        assert_eq!(placement.num_gpus, self.num_gpus(), "GPU count mismatch");
        assert_eq!(
            placement.num_entries, self.placement.num_entries,
            "table size mismatch"
        );
        self.pool.restack(
            &mut self.arenas,
            &self.placement.stored,
            &placement.stored,
            &self.host,
        );
        self.placement = placement;
        self.migrating = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_policy::{baselines, Hotness};
    use emb_util::zipf::powerlaw_hotness;
    use gpu_platform::Platform;

    const N: usize = 500;
    const DIM: usize = 8;

    fn setup(cap: usize) -> (MultiGpuCache, Placement) {
        let plat = Platform::server_a();
        let h = Hotness::new(powerlaw_hotness(N, 1.2));
        let placement = baselines::partition(&plat, &h, cap).unwrap();
        let host = HostTable::procedural(N, DIM);
        let cache = MultiGpuCache::build(host, &placement, &[cap; 4]);
        (cache, placement)
    }

    impl MultiGpuCache {
        /// Whether GPU `gpu`'s arena holds a row for `entry`.
        pub(crate) fn holds(&self, gpu: usize, entry: u32) -> bool {
            self.slot_of(gpu, entry).is_some()
        }
    }

    #[test]
    fn gather_matches_host_truth() {
        let (cache, _) = setup(50);
        let keys: Vec<u32> = vec![0, 3, 499, 250, 0, 77];
        let mut out = vec![0.0f32; keys.len() * DIM];
        let stats = cache.gather(1, &keys, &mut out);
        assert_eq!(stats.total(), keys.len() as u64);
        let truth = HostTable::procedural(N, DIM);
        for (k, &key) in keys.iter().enumerate() {
            assert_eq!(
                &out[k * DIM..(k + 1) * DIM],
                truth.read(key).as_slice(),
                "key {key}"
            );
        }
    }

    #[test]
    fn stats_match_placement_split() {
        let (cache, placement) = setup(50);
        let keys: Vec<u32> = (0..N as u32).collect();
        let mut out = vec![0.0f32; keys.len() * DIM];
        let stats = cache.gather(2, &keys, &mut out);
        let split = placement.split_keys(2, &keys);
        let local = split
            .iter()
            .find(|(l, _)| *l == gpu_platform::Location::Gpu(2))
            .map_or(0, |(_, c)| *c);
        let host = split
            .iter()
            .find(|(l, _)| *l == gpu_platform::Location::Host)
            .map_or(0, |(_, c)| *c);
        assert_eq!(stats.local, local);
        assert_eq!(stats.host, host);
        assert_eq!(stats.remote, N as u64 - local - host);
    }

    #[test]
    fn access_splits_match_split_keys() {
        let (cache, placement) = setup(50);
        let keys_per_gpu: Vec<Vec<u32>> = (0..4)
            .map(|i| (0..N as u32).skip(i).step_by(3).collect())
            .collect();
        let splits = cache.access_splits(&keys_per_gpu);
        for (gpu, keys) in keys_per_gpu.iter().enumerate() {
            assert_eq!(splits[gpu], placement.split_keys(gpu, keys), "gpu {gpu}");
        }
    }

    #[test]
    fn filler_respects_capacity() {
        let (cache, placement) = setup(50);
        for j in 0..4 {
            assert_eq!(cache.arenas[j].len(), placement.cached_count(j));
            assert!(cache.arenas[j].len() <= 50);
        }
    }

    #[test]
    fn build_installs_the_replication_layout() {
        let plat = Platform::server_a();
        let h = Hotness::new(powerlaw_hotness(N, 1.2));
        let rep = baselines::replication(&plat, &h, 50);
        let cache = MultiGpuCache::build(HostTable::procedural(N, DIM), &rep, &[50; 4]);
        let keys: Vec<u32> = (0..50).collect();
        let mut out = vec![0.0f32; keys.len() * DIM];
        let stats = cache.gather(3, &keys, &mut out);
        // Replication: the 50 hottest (= lowest ids for powerlaw) are local.
        assert_eq!(stats.local, 50);
        assert_eq!(stats.remote, 0);
    }

    #[test]
    fn staged_update_then_swap() {
        let (mut cache, placement) = setup(50);
        // Swap a hot resident of GPU0 (entry 0 under partition) for a cold
        // entry, then swap to the matching arrangement.
        let cold = 499u32;
        let victim = 0u32;
        assert_eq!(placement.source(0, cold as usize), placement.host_idx());
        assert!(cache.holds(0, victim));
        cache.update_arena(0, &[victim]);
        let mut p2 = placement.clone();
        p2.stored[0].set(victim as usize, false);
        p2.stored[0].set(cold as usize, true);
        p2.set_source(0, cold as usize, 0).unwrap();
        for i in 0..4 {
            if p2.source(i, victim as usize) == 0 {
                p2.set_source(i, victim as usize, p2.host_idx()).unwrap();
            }
        }
        cache.swap_placement(p2);
        let mut out = vec![0.0f32; DIM];
        let stats = cache.gather(0, &[cold], &mut out);
        assert_eq!(stats.local, 1);
        assert_eq!(out, HostTable::procedural(N, DIM).read(cold));
    }

    #[test]
    fn a_reused_slot_is_reached_only_under_its_new_entry() {
        let (mut cache, placement) = setup(50);
        // Entry 0 is stored on GPU0 under partition and every GPU reads it
        // from there; entry 499 is cold. Evicting 0 frees its slot, and a
        // swap that drops 0 and adds 499 on GPU0 gives 499 that same slot
        // (the lowest free).
        let (evicted, added) = (0u32, 499u32);
        let slot = cache.slot_of(0, evicted).unwrap();
        assert!((0..4).all(|i| placement.source(i, evicted as usize) == 0));
        assert_eq!(placement.source(0, added as usize), placement.host_idx());
        cache.update_arena(0, &[evicted]);
        assert_eq!(cache.slot_of(0, evicted), None);
        let truth = HostTable::procedural(N, DIM);
        for i in 0..4 {
            let mut out = vec![f32::NAN; 2 * DIM];
            let stats = cache.gather(i, &[evicted, added], &mut out);
            assert_eq!(stats.host, 2, "GPU{i} reads both entries from host");
            assert_eq!(&out[..DIM], truth.read(evicted).as_slice(), "GPU{i}");
            assert_eq!(&out[DIM..], truth.read(added).as_slice(), "GPU{i}");
        }
        cache.audit().unwrap();
        let mut target = placement.clone();
        target.stored[0].set(evicted as usize, false);
        target.stored[0].set(added as usize, true);
        for i in 0..4 {
            target
                .set_source(i, evicted as usize, target.host_idx())
                .unwrap();
            target.set_source(i, added as usize, 0).unwrap();
        }
        cache.swap_placement(target);
        assert_eq!(cache.slot_of(0, added), Some(slot));
        for i in 0..4 {
            let mut out = vec![f32::NAN; 2 * DIM];
            let stats = cache.gather(i, &[evicted, added], &mut out);
            assert_eq!((stats.host, stats.total()), (1, 2), "GPU{i}");
            assert_eq!(&out[..DIM], truth.read(evicted).as_slice(), "GPU{i}");
            assert_eq!(&out[DIM..], truth.read(added).as_slice(), "GPU{i}");
        }
        // Entry 1 lives on GPU1 — untouched.
        let after = cache.gather(1, &[1], &mut [0.0f32; DIM]);
        assert_eq!(after.local, 1);
        cache.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "reads entry 499 from GPU1, whose arena lacks it")]
    fn build_refuses_an_access_to_a_gpu_not_storing_the_entry() {
        let plat = Platform::server_a();
        let h = Hotness::new(powerlaw_hotness(N, 1.2));
        let mut placement = baselines::partition(&plat, &h, 50).unwrap();
        assert!(!placement.stored[1].get(499));
        placement.set_source(0, 499, 1).unwrap();
        let _ = MultiGpuCache::build(HostTable::procedural(N, DIM), &placement, &[50; 4]);
    }

    #[test]
    fn a_swap_writes_the_row_of_an_entry_it_adds() {
        let (_, placement) = setup(50);
        let host = HostTable::procedural(N, DIM);
        let mut cache = MultiGpuCache::build(host, &placement, &[51; 4]);
        // A valid placement on its own, reached with no update batch.
        let mut target = placement.clone();
        target.stored[1].set(499, true);
        target.set_source(2, 499, 1).unwrap();
        target.validate().unwrap();
        cache.swap_placement(target);
        let mut out = vec![f32::NAN; DIM];
        let stats = cache.gather(2, &[499], &mut out);
        assert_eq!(stats.remote, 1);
        assert_eq!(out, HostTable::procedural(N, DIM).read(499));
        cache.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "output buffer length")]
    fn wrong_output_length_panics() {
        let (cache, _) = setup(10);
        let mut out = vec![0.0f32; 3];
        let _ = cache.gather(0, &[1, 2], &mut out);
    }
}
