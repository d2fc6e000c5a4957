//! Per-GPU slot tables over one shared row pool.

use crate::table::HostTable;
use cache_policy::BitRow;

/// Slot-table value of a stored entry whose row was evicted mid-refresh.
/// No slot can have it: pool slots are numbered below a row count that
/// itself fits a `u32`.
const VACANT: u32 = u32::MAX;

/// Entries per word of a [`BitRow`].
const WORD_BITS: usize = u64::BITS as usize;

/// The cache's rows: one zeroed `rows × dim` f32 slab that every GPU's
/// slot table indexes, so an entry several GPUs hold is stored, filled
/// and refreshed once. It stands in for the GPUs' HBM: every GPU's copy
/// of a row holds the same bytes ([`HostTable::read`]), so what is per
/// GPU — which entries it holds, its capacity, the links a read crosses —
/// lives in the slot tables, the capacities and the timing layer.
///
/// A slot lives while any GPU's table holds its entry: GPUs that keep an
/// entry across a swap keep its slot, and an eviction frees the slot only
/// when no other table still holds the entry. A claim takes the lowest
/// free slot, so the slots ever handed out are as few as the most entries
/// held at once, and the slab's other pages are never resident.
///
/// Free slots are a bit a slot, not a list. After `serve_online`'s first
/// refresh, from a partition to a replication, 149 131 of the 199 131
/// slots in use are free for good: a LIFO `Vec<u32>` of them read
/// 0.6–1.4 MB more peak RSS, and a LIFO list threaded through the free
/// rows made each claim wait on a cache miss, the swap 5–7 ms against
/// 2.4.
#[derive(Debug, Clone)]
pub struct RowPool {
    dim: usize,
    /// `rows × dim` floats, zeroed.
    data: Vec<f32>,
    rows: usize,
    /// Bit `s` set: slot `s` is free, freed by an eviction or never handed
    /// out. Bits past the last row are clear.
    free: Vec<u64>,
    /// No slot below `lowest` is free.
    lowest: usize,
}

/// One GPU's view of the pool: the pool slot of every entry the placement
/// stores on the GPU, and the GPU's capacity. Stands in for the GPU's
/// `<GPU_i, Offset>` table.
///
/// The arena keeps no per-entry index of its own. A stored entry's slot
/// is found by rank over the placement's own stored bit-row for the GPU
/// (the `stored` every method takes): `rank` counts the stored entries
/// before each 64-entry word, a popcount within the word gives the
/// entry's rank, and `slots[rank]` its pool slot. That is `E/16` bytes
/// per GPU plus 4 a cached copy, where a dense index cost `4·E`.
///
/// Reads follow the placement, so between two stored rows the arena only
/// evicts: an evicted entry's slot is [`VACANT`] and reads of it fall to
/// host. [`RowPool::restack`] installs the next stored rows and writes
/// the rows of the entries they add.
#[derive(Debug, Clone)]
pub struct GpuArena {
    capacity: usize,
    /// `rank[w]`: how many entries the stored row holds before word `w`.
    rank: Vec<u32>,
    /// `slots[r]`: the pool slot of the stored row's `r`-th entry, entry
    /// order, or [`VACANT`] once evicted.
    slots: Vec<u32>,
    /// Rows held: the slots that are not vacant.
    len: usize,
}

/// Word `w` of GPU `j`'s row in `rows`; a GPU past the end of `rows`, and
/// a word past the end of a shorter row, hold nothing.
fn word(rows: &[BitRow], j: usize, w: usize) -> u64 {
    rows.get(j)
        .and_then(|row| row.words().get(w))
        .copied()
        .unwrap_or(0)
}

impl RowPool {
    /// A pool and one arena per capacity in `caps`, holding the rows of the
    /// entries `stored` sets on each GPU: the restack of empty arenas, so
    /// slots are dealt GPU by GPU in entry order, one per distinct entry.
    /// The pool has room for `min(Σ caps, entries)` rows, as many distinct
    /// entries as arenas within their capacities can hold.
    ///
    /// # Panics
    ///
    /// Panics if `stored` sets more entries on a GPU than its capacity.
    pub fn filled(caps: &[usize], stored: &[BitRow], host: &HostTable) -> (Self, Vec<GpuArena>) {
        let rows = caps.iter().sum::<usize>().min(host.num_entries());
        let mut free = vec![!0u64; rows.div_ceil(WORD_BITS)];
        if let Some(last) = free.last_mut().filter(|_| rows % WORD_BITS != 0) {
            *last >>= WORD_BITS - rows % WORD_BITS;
        }
        let mut pool = RowPool {
            dim: host.dim(),
            data: vec![0.0; rows * host.dim()],
            rows,
            free,
            lowest: 0,
        };
        let mut arenas: Vec<GpuArena> = caps.iter().map(|&c| GpuArena::new(c)).collect();
        // From no rows nothing is dropped or kept. It allocates nothing
        // full-length: a transient full-length row here shifted the heap
        // under later gathers, which ran measurably slower.
        pool.restack(&mut arenas, &[], stored, host);
        (pool, arenas)
    }

    /// The slab: `rows × dim` floats, slot-major. Row `s` occupies
    /// `slab()[s * dim .. (s + 1) * dim]`; exposed so gathers stream many
    /// rows out of it without a bounds-checked call per row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// The lowest free slot, taken. A slot is in use while some arena
    /// holds its entry, and every arena holds at most its capacity, so the
    /// pool never runs out first. Claims come only in a restack, after the
    /// evictions, so within one the scan only moves up.
    fn claim(&mut self) -> u32 {
        let mut w = self.lowest / WORD_BITS;
        while self.free[w] == 0 {
            w += 1;
        }
        let slot = w * WORD_BITS + self.free[w].trailing_zeros() as usize;
        self.free[w] &= self.free[w] - 1;
        self.lowest = slot + 1;
        slot as u32
    }

    /// Whether slot `s` is free.
    fn is_free(&self, s: usize) -> bool {
        self.free[s / WORD_BITS] >> (s % WORD_BITS) & 1 != 0
    }

    /// Evicts `entries` from GPU `gpu`'s arena, each that `stored[gpu]`
    /// holds and whose row was not yet evicted; returns how many were.
    /// A slot goes back to the pool only when no other arena still holds
    /// its entry: up to G − 1 rank lookups, the GPUs after `gpu` first
    /// (a refresh evicts GPU by GPU), and no reference count.
    ///
    /// # Panics
    ///
    /// Panics if `stored` has no row `gpu`, as for a GPU past the last.
    pub fn evict(
        &mut self,
        arenas: &mut [GpuArena],
        stored: &[BitRow],
        gpu: usize,
        entries: &[u32],
    ) -> usize {
        // Out of range, this panics before any eviction, however few.
        let row = &stored[gpu];
        let mut evicted = 0;
        for &e in entries {
            let Some(slot) = arenas[gpu].evict(row, e) else {
                continue;
            };
            evicted += 1;
            let mut others = (gpu + 1..arenas.len()).chain(0..gpu);
            if !others.any(|k| arenas[k].index(&stored[k]).slot(e).is_some()) {
                let s = slot as usize;
                self.free[s / WORD_BITS] |= 1 << (s % WORD_BITS);
                self.lowest = self.lowest.min(s);
            }
        }
        evicted
    }

    /// Re-indexes every arena from stored rows `old` to `new` (the swap of
    /// a refresh), GPU by GPU, each in one pass over its two rows' words
    /// in entry order: an entry a GPU keeps keeps its slot; an entry it
    /// drops must have been evicted; an entry it adds takes the slot of
    /// another GPU that holds it after the swap — one already re-indexed,
    /// or one after it that keeps the entry — else claims a free slot and
    /// reads its row from `host` straight into it, once for all the GPUs
    /// that add it. A GPU's old slot table is dropped as soon as its new
    /// one is built: a pass word by word over all GPUs held every old
    /// table beside every new one, and read 0.3 MB more `serve_online`
    /// peak RSS. A GPU past the end of `old` holds nothing.
    ///
    /// # Panics
    ///
    /// Panics, naming the GPU and the entry, if an entry a GPU drops still
    /// has a row or an entry it keeps has none; panics if the rows a GPU
    /// adds do not fit its capacity. The arenas are not usable after a
    /// panic.
    pub fn restack(
        &mut self,
        arenas: &mut [GpuArena],
        old: &[BitRow],
        new: &[BitRow],
        host: &HostTable,
    ) {
        let dim = self.dim;
        for j in 0..arenas.len() {
            let words = new[j].words().len();
            let mut rank = Vec::with_capacity(words);
            let mut slots = Vec::with_capacity(new[j].count_ones());
            let mut r = 0;
            for w in 0..words {
                let (was, will) = (word(old, j, w), new[j].words()[w]);
                rank.push(slots.len() as u32);
                // A word whose bits did not change keeps its slots whole,
                // unless one is vacant: the per-bit pass below names that
                // entry. Against that pass alone, whole words read
                // `dlr_refresh` `refresh_s` ×0.85 (8 of 10 pairs, a
                // two-core VM).
                let n = was.count_ones() as usize;
                let held = &arenas[j].slots[r..r + n];
                if was == will && !held.contains(&VACANT) {
                    slots.extend_from_slice(held);
                    r += n;
                    continue;
                }
                let mut bits = was | will;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let e = w * WORD_BITS + bit.trailing_zeros() as usize;
                    let slot = if was & bit != 0 {
                        let slot = arenas[j].slots[r];
                        r += 1;
                        if will & bit == 0 {
                            assert!(
                                slot == VACANT,
                                "GPU{j} still holds entry {e}, which its new placement does not store"
                            );
                            continue;
                        }
                        assert!(
                            slot != VACANT,
                            "GPU{j} stores entry {e} but holds no row for it"
                        );
                        slot
                    } else {
                        arenas[j].hold();
                        shared_slot(arenas, old, new, j, w, bit).unwrap_or_else(|| {
                            let slot = self.claim();
                            let base = slot as usize * dim;
                            host.read_into(e as u32, &mut self.data[base..base + dim]);
                            slot
                        })
                    };
                    slots.push(slot);
                }
            }
            arenas[j].rank = rank;
            arenas[j].slots = slots;
        }
    }

    /// Checks that every slot is either referenced by at least one arena
    /// or free, never both, that no slot below `lowest` is free and no bit
    /// past the last row set; that a referenced slot holds one entry, in
    /// every arena that holds it, and that entry's host row; and each
    /// arena's own slot table ([`GpuArena::check_slots`]). A pass over
    /// every slot table and every row: for tests.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check(
        &self,
        arenas: &[GpuArena],
        stored: &[BitRow],
        host: &HostTable,
    ) -> Result<(), String> {
        let rows = self.rows;
        // `entry_of[s]`: the entry slot `s` holds; `slot_of[e]`: the slot
        // entry `e` sits in.
        let mut entry_of = vec![VACANT; rows];
        let mut slot_of = vec![VACANT; host.num_entries()];
        for (j, (arena, row)) in arenas.iter().zip(stored).enumerate() {
            arena
                .check_slots(row, rows)
                .map_err(|e| format!("GPU{j}: {e}"))?;
            for (e, &s) in row.ones().zip(&arena.slots) {
                if s == VACANT {
                    continue;
                }
                let (was_entry, was_slot) = (entry_of[s as usize], slot_of[e]);
                if was_entry != VACANT && was_entry as usize != e {
                    return Err(format!("pool slot {s} holds entries {was_entry} and {e}"));
                }
                if was_slot != VACANT && was_slot != s {
                    return Err(format!("entry {e} sits in pool slots {was_slot} and {s}"));
                }
                (entry_of[s as usize], slot_of[e]) = (e as u32, s);
            }
        }
        let past = (rows..self.free.len() * WORD_BITS).find(|&s| self.is_free(s));
        if let Some(s) = past.or_else(|| (0..self.lowest.min(rows)).find(|&s| self.is_free(s))) {
            return Err(format!(
                "pool slot {s} is free, past the last row or below the lowest"
            ));
        }
        let mut truth = vec![0.0f32; self.dim];
        for (s, &e) in entry_of.iter().enumerate() {
            match (e == VACANT, self.is_free(s)) {
                (true, true) => continue,
                (true, false) => return Err(format!("pool slot {s} is neither held nor free")),
                (false, true) => return Err(format!("pool slot {s} is both held and free")),
                (false, false) => {}
            }
            host.read_into(e, &mut truth);
            let row = &self.data[s * self.dim..][..self.dim];
            if row
                .iter()
                .zip(&truth)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("pool slot {s} does not hold entry {e}'s row"));
            }
        }
        Ok(())
    }
}

/// The slot GPU `j`, mid-restack from `old` to `new`, takes for the entry
/// at `bit` of word `w`, which it adds: that of a GPU before it (already
/// re-indexed to `new`) that stores the entry, or of a GPU after it that
/// keeps the entry (its old slot table still in place); `None` if no
/// other GPU holds the entry after the swap yet. A keeper's vacant slot
/// is returned as it is: the keeper's own pass panics on it.
fn shared_slot(
    arenas: &[GpuArena],
    old: &[BitRow],
    new: &[BitRow],
    j: usize,
    w: usize,
    bit: u64,
) -> Option<u32> {
    (0..arenas.len()).find_map(|k| {
        let will = new[k].words()[w];
        if k == j || will & bit == 0 {
            return None;
        }
        let held = if k < j { will } else { word(old, k, w) };
        let below = (held & (bit - 1)).count_ones() as usize;
        (held & bit != 0).then(|| arenas[k].slots[arenas[k].rank[w] as usize + below])
    })
}

impl GpuArena {
    /// An empty arena with room for `capacity` rows.
    fn new(capacity: usize) -> Self {
        GpuArena {
            capacity,
            rank: Vec::new(),
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The arena's slot lookup under stored row `stored`.
    #[inline]
    pub fn index<'a>(&'a self, stored: &'a BitRow) -> SlotIndex<'a> {
        SlotIndex {
            words: stored.words(),
            rank: &self.rank,
            slots: &self.slots,
        }
    }

    /// Counts one more row held.
    fn hold(&mut self) {
        assert!(
            self.len < self.capacity,
            "arena full ({} entries)",
            self.capacity
        );
        self.len += 1;
    }

    /// Vacates the slot of an entry `stored` holds; returns the slot if
    /// there was one.
    fn evict(&mut self, stored: &BitRow, entry: u32) -> Option<u32> {
        let r = self.index(stored).rank_of(entry)?;
        let slot = std::mem::replace(&mut self.slots[r], VACANT);
        if slot == VACANT {
            return None;
        }
        self.len -= 1;
        Some(slot)
    }

    /// Checks that the slot table has one place per entry `stored` holds,
    /// that the rows held are counted and fit the capacity, and that every
    /// slot is below the pool's `rows`.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check_slots(&self, stored: &BitRow, rows: usize) -> Result<(), String> {
        if self.slots.len() != stored.count_ones() {
            return Err(format!(
                "{} slot-table places for {} stored entries",
                self.slots.len(),
                stored.count_ones()
            ));
        }
        let live = self.slots.iter().copied().filter(|&s| s != VACANT);
        let held = live.clone().count();
        if held != self.len {
            return Err(format!("{held} rows held, {} counted", self.len));
        }
        if held > self.capacity {
            return Err(format!("{held} rows held, room for {}", self.capacity));
        }
        match live.clone().find(|&s| s as usize >= rows) {
            Some(s) => Err(format!("slot {s} is past the pool's {rows} rows")),
            None => Ok(()),
        }
    }
}

/// An arena's slot lookup: the stored row's words, the rank directory
/// over them and the slot table, borrowed once for a loop over many keys.
#[derive(Debug, Clone, Copy)]
pub struct SlotIndex<'a> {
    words: &'a [u64],
    rank: &'a [u32],
    slots: &'a [u32],
}

impl SlotIndex<'_> {
    /// `entry`'s rank among the stored entries, if it is stored.
    #[inline]
    fn rank_of(&self, entry: u32) -> Option<usize> {
        let (w, b) = (entry as usize / WORD_BITS, entry as usize % WORD_BITS);
        let word = *self.words.get(w)?;
        let below = word & ((1u64 << b) - 1);
        (word >> b & 1 != 0).then(|| self.rank[w] as usize + below.count_ones() as usize)
    }

    /// The pool slot of `entry` if it is stored and its row was not
    /// evicted: a stored word, its rank prefix and one slot load.
    #[inline]
    pub fn slot(&self, entry: u32) -> Option<u32> {
        let slot = self.slots[self.rank_of(entry)?];
        (slot != VACANT).then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::{BTreeSet, HashMap};

    /// The row at pool slot `slot`.
    fn row(pool: &RowPool, slot: u32) -> &[f32] {
        &pool.slab()[slot as usize * pool.dim..(slot as usize + 1) * pool.dim]
    }

    /// The pool's free slots, ascending.
    fn free_slots(pool: &RowPool) -> Vec<u32> {
        let slots = 0..pool.free.len() * WORD_BITS;
        slots
            .filter(|&s| pool.is_free(s))
            .map(|s| s as u32)
            .collect()
    }

    /// A `len`-entry stored row holding `entries`.
    fn stored_row(len: usize, entries: impl IntoIterator<Item = u32>) -> BitRow {
        let mut row = BitRow::new(len);
        for e in entries {
            row.set(e as usize, true);
        }
        row
    }

    #[test]
    fn a_fill_deals_one_slot_per_distinct_entry_gpu_by_gpu() {
        let host = HostTable::procedural(200, 3);
        let stored = [
            stored_row(200, [3, 64, 65, 127, 128, 199]),
            stored_row(200, [3, 5, 65, 128, 130]),
        ];
        let (pool, arenas) = RowPool::filled(&[8, 8], &stored, &host);
        // GPU0 claims a slot per entry, in entry order; GPU1 shares 3, 65
        // and 128 and claims 5 and 130.
        assert_eq!(arenas[0].slots, [0, 1, 2, 3, 4, 5]);
        assert_eq!(arenas[1].slots, [0, 6, 2, 4, 7]);
        assert_eq!(arenas[0].rank, [0, 1, 4, 5]);
        assert_eq!(arenas[1].rank, [0, 2, 3, 5]);
        assert_eq!((pool.rows, free_slots(&pool)), (16, (8..16).collect()));
        assert_eq!((arenas[0].len(), arenas[1].len()), (6, 5));
        for (arena, stored) in arenas.iter().zip(&stored) {
            for e in stored.ones().map(|e| e as u32) {
                let slot = arena.index(stored).slot(e).unwrap();
                assert_eq!(row(&pool, slot), host.read(e).as_slice());
            }
            for e in [0, 4, 63, 66, 126, 198] {
                assert_eq!(arena.index(stored).slot(e), None, "entry {e}");
            }
            // Past the last entry, and past the last word.
            assert_eq!(arena.index(stored).slot(u32::MAX), None);
        }
        pool.check(&arenas, &stored, &host).unwrap();
        // The pool has room for no more rows than entries.
        let (few, host) = (
            [stored_row(10, [1, 2]), stored_row(10, [2, 9])],
            HostTable::procedural(10, 3),
        );
        let (pool, arenas) = RowPool::filled(&[8, 8], &few, &host);
        assert_eq!((pool.rows, free_slots(&pool)), (10, (3..10).collect()));
        pool.check(&arenas, &few, &host).unwrap();
    }

    #[test]
    #[should_panic(expected = "arena full (2 entries)")]
    fn an_overfull_fill_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = [stored_row(9, [1]), stored_row(9, [1, 4, 8])];
        let _ = RowPool::filled(&[4, 2], &stored, &host);
    }

    #[test]
    fn an_eviction_frees_a_slot_with_its_last_holder_and_a_claim_takes_the_lowest() {
        let host = HostTable::procedural(9, 3);
        let old = [stored_row(9, [1, 2, 5]), stored_row(9, [5])];
        let new = [stored_row(9, [2, 6, 7]), stored_row(9, [7, 8])];
        let (mut pool, mut arenas) = RowPool::filled(&[3, 2], &old, &host);
        assert_eq!(
            (arenas[0].slots.as_slice(), arenas[1].slots.as_slice()),
            (&[0, 1, 2][..], &[2][..])
        );
        assert_eq!(pool.evict(&mut arenas, &old, 0, &[5]), 1);
        assert_eq!(free_slots(&pool), [3, 4], "GPU1 still holds entry 5");
        assert_eq!(pool.evict(&mut arenas, &old, 0, &[5]), 0, "already vacant");
        assert_eq!(pool.evict(&mut arenas, &old, 0, &[6]), 0, "not stored");
        assert_eq!(
            (arenas[0].len(), arenas[0].index(&old[0]).slot(5)),
            (2, None)
        );
        assert_eq!(arenas[1].index(&old[1]).slot(5), Some(2));
        pool.check(&arenas, &old, &host).unwrap();
        assert_eq!(pool.evict(&mut arenas, &old, 0, &[1]), 1);
        assert_eq!(pool.evict(&mut arenas, &old, 1, &[5]), 1);
        assert_eq!(free_slots(&pool), [0, 2, 3, 4]);
        pool.check(&arenas, &old, &host).unwrap();
        pool.restack(&mut arenas, &old, &new, &host);
        // Entry 6 takes the lowest free slot (entry 1's), entry 7 the next
        // (entry 5's) on GPU0 and shares it on GPU1, and entry 8 the lowest
        // never handed out.
        assert_eq!(
            (arenas[0].slots.as_slice(), arenas[1].slots.as_slice()),
            (&[1, 0, 2][..], &[2, 3][..])
        );
        for (arena, stored) in arenas.iter().zip(&new) {
            for e in stored.ones().map(|e| e as u32) {
                assert_eq!(
                    row(&pool, arena.index(stored).slot(e).unwrap()),
                    host.read(e)
                );
            }
        }
        assert_eq!((arenas[0].len(), arenas[1].len()), (3, 2));
        assert_eq!(free_slots(&pool), [4]);
        pool.check(&arenas, &new, &host).unwrap();
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 2 but the index is 2")]
    fn an_eviction_on_a_gpu_past_the_last_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = [stored_row(9, [1]), stored_row(9, [1, 4])];
        let (mut pool, mut arenas) = RowPool::filled(&[2, 2], &stored, &host);
        // GPU2 would be the third; GPU3 and beyond fail the same way, and
        // so does an empty batch.
        pool.evict(&mut arenas, &stored, 2, &[]);
    }

    #[test]
    #[should_panic(expected = "arena full (3 entries)")]
    fn a_restack_past_capacity_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = [stored_row(9, [1, 4, 8])];
        let (mut pool, mut arenas) = RowPool::filled(&[3], &stored, &host);
        pool.restack(&mut arenas, &stored, &[stored_row(9, [1, 2, 4, 8])], &host);
    }

    #[test]
    #[should_panic(expected = "GPU3 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_stored_entry_without_a_row() {
        // GPU0 keeps entry 70's slot alive; GPU3's word holding it changes.
        let host = HostTable::procedural(130, 1);
        let mut old = vec![
            stored_row(130, [70]),
            stored_row(130, []),
            stored_row(130, []),
        ];
        old.push(stored_row(130, [1, 70]));
        let (mut pool, mut arenas) = RowPool::filled(&[4; 4], &old, &host);
        pool.evict(&mut arenas, &old, 3, &[70]);
        let mut new = old.clone();
        new[3].set(71, true);
        pool.restack(&mut arenas, &old, &new, &host);
    }

    #[test]
    #[should_panic(expected = "GPU1 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_vacant_entry_mid_word_in_an_unchanged_word() {
        // GPU0 keeps entry 70's slot alive; GPU1's words do not change.
        let host = HostTable::procedural(130, 1);
        let old = [
            stored_row(130, [64, 70]),
            stored_row(130, [1, 64, 70, 100, 127]),
        ];
        let (mut pool, mut arenas) = RowPool::filled(&[8, 8], &old, &host);
        pool.evict(&mut arenas, &old, 1, &[70]);
        pool.restack(&mut arenas, &old, &old, &host);
    }

    #[test]
    #[should_panic(expected = "GPU2 still holds entry 70, which its new placement does not store")]
    fn a_restack_refuses_a_row_nobody_evicted() {
        let host = HostTable::procedural(130, 1);
        let old = [
            stored_row(130, [70]),
            stored_row(130, []),
            stored_row(130, [1, 70]),
        ];
        let (mut pool, mut arenas) = RowPool::filled(&[4; 3], &old, &host);
        let mut new = old.clone();
        new[2].set(70, false);
        pool.restack(&mut arenas, &old, &new, &host);
    }

    /// Per-GPU entry→slot maps over one pool — an ordered set of free
    /// slots — and a slab of rows, written the plain way: the model the
    /// pool and its slot tables must match slot for slot and bit for bit.
    struct Model {
        dim: usize,
        data: Vec<f32>,
        maps: Vec<HashMap<u32, u32>>,
        free: BTreeSet<u32>,
        /// One past the highest slot ever handed out.
        used: u32,
        /// Additions that shared a slot another GPU held, additions that
        /// took a slot an eviction freed, and additions of an entry some GPU held once
        /// and none held when it was added.
        shared: usize,
        reused: usize,
        re_added: usize,
        once_held: Vec<bool>,
    }

    impl Model {
        fn new(gpus: usize, rows: usize, dim: usize, entries: usize) -> Self {
            Model {
                dim,
                data: vec![0.0; rows * dim],
                maps: vec![HashMap::new(); gpus],
                free: (0..rows as u32).collect(),
                used: 0,
                shared: 0,
                reused: 0,
                re_added: 0,
                once_held: vec![false; entries],
            }
        }

        /// The slot some GPU holds `entry` in.
        fn slot(&self, entry: u32) -> Option<u32> {
            self.maps.iter().find_map(|m| m.get(&entry).copied())
        }

        /// GPU `gpu` adds `entry`: the slot another GPU holds it in, else
        /// the lowest free slot, filled from `host`.
        fn add(&mut self, gpu: usize, entry: u32, host: &HostTable) {
            let slot = match self.slot(entry) {
                Some(slot) => {
                    self.shared += 1;
                    slot
                }
                None => {
                    self.re_added += usize::from(self.once_held[entry as usize]);
                    let slot = self.free.pop_first().expect("never overfilled");
                    self.reused += usize::from(slot < self.used);
                    self.used = self.used.max(slot + 1);
                    let base = slot as usize * self.dim;
                    host.read_into(entry, &mut self.data[base..base + self.dim]);
                    slot
                }
            };
            self.once_held[entry as usize] = true;
            assert!(self.maps[gpu].insert(entry, slot).is_none(), "{entry} held");
        }

        fn evict(&mut self, gpu: usize, entry: u32) -> bool {
            let Some(slot) = self.maps[gpu].remove(&entry) else {
                return false;
            };
            if self.slot(entry).is_none() {
                self.free.insert(slot);
            }
            true
        }

        /// The restack from `old` to `new`: every addition, GPU by GPU,
        /// in entry order.
        fn restack(&mut self, old: &[BitRow], new: &[BitRow], host: &HostTable) {
            for (j, (was, will)) in old.iter().zip(new).enumerate() {
                for e in will.ones().filter(|&e| !was.get(e)) {
                    self.add(j, e as u32, host);
                }
            }
        }
    }

    #[test]
    fn random_op_sequences_match_per_gpu_maps_over_one_pool() {
        // Two to four GPUs over a crowded key range, so GPUs share entries:
        // fills, evictions by one GPU or by all (freeing a slot only with
        // its last holder) and
        // restacks onto what each GPU holds plus entries its stored row
        // lacks — some another GPU keeps, some another adds in the same
        // restack, some whose last holder evicted them. Now and then one
        // adds more than a GPU's capacity; it is refused, and that ends
        // its sequence.
        const CAP: usize = 10;
        const DIM: usize = 3;
        const N: usize = 200;
        let ids: Vec<u32> = (0..24).chain([63, 64, 127, 128, 190, 199]).collect();
        let host = HostTable::procedural(N, DIM);
        let (mut refused, mut shared, mut reused, mut re_added) = (0, 0, 0, 0);
        for seed in 0..30u64 {
            let mut rng = emb_util::seed_rng(seed);
            let g = 2 + seed as usize % 3;
            let pick = |rng: &mut rand::rngs::StdRng| ids[rng.gen_range(0..ids.len())];
            let mut stored: Vec<BitRow> = (0..g)
                .map(|_| stored_row(N, (0..rng.gen_range(0..CAP)).map(|_| pick(&mut rng))))
                .collect();
            let (mut pool, mut arenas) = RowPool::filled(&vec![CAP; g], &stored, &host);
            let mut model = Model::new(g, pool.rows, DIM, N);
            model.restack(&vec![BitRow::new(N); g], &stored, &host);
            for step in 0..400 {
                let what = format!("seed {seed} step {step}");
                let j = rng.gen_range(0..g);
                if rng.gen_range(0..3) != 0 {
                    // One GPU evicts an entry, or now and then every GPU
                    // in turn, as a refresh that drops it everywhere.
                    let e = pick(&mut rng);
                    let gpus = if rng.gen_bool(0.25) { 0..g } else { j..j + 1 };
                    for k in gpus {
                        let evicted = pool.evict(&mut arenas, &stored, k, &[e]) == 1;
                        assert_eq!(evicted, model.evict(k, e), "{what}: GPU{k} evicts {e}");
                    }
                } else {
                    // What each GPU holds, plus up to five entries its
                    // stored row lacks.
                    let mut next = Vec::with_capacity(g);
                    let mut overfill = false;
                    for (k, row) in stored.iter().enumerate() {
                        let mut added: Vec<u32> = (0..rng.gen_range(0..6))
                            .map(|_| pick(&mut rng))
                            .filter(|&e| !row.get(e as usize))
                            .collect();
                        added.sort_unstable();
                        added.dedup();
                        let room = CAP - model.maps[k].len();
                        if added.len() > room && !overfill && rng.gen_bool(0.1) {
                            overfill = true;
                        } else {
                            added.truncate(room);
                        }
                        let held = model.maps[k].keys().copied();
                        next.push(stored_row(N, held.chain(added)));
                    }
                    if overfill {
                        let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            pool.restack(&mut arenas, &stored, &next, &host);
                        }))
                        .expect_err("the added rows do not fit");
                        let message = full.downcast_ref::<String>().expect("a formatted panic");
                        assert!(message.contains("arena full"), "{what}: {message}");
                        refused += 1;
                        break;
                    }
                    pool.restack(&mut arenas, &stored, &next, &host);
                    model.restack(&stored, &next, &host);
                    stored = next;
                }
                pool.check(&arenas, &stored, &host)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                for (k, arena) in arenas.iter().enumerate() {
                    assert_eq!(arena.len(), model.maps[k].len(), "{what}: GPU{k}");
                    for &e in &ids {
                        let want = model.maps[k].get(&e).copied();
                        assert_eq!(arena.index(&stored[k]).slot(e), want, "{what}: GPU{k} {e}");
                    }
                }
                // The same free slots, and the slab bit for bit.
                let free: Vec<u32> = model.free.iter().copied().collect();
                assert_eq!(free_slots(&pool), free, "{what}: free slots");
                for (i, (a, m)) in pool.slab().iter().zip(&model.data).enumerate() {
                    assert_eq!(a.to_bits(), m.to_bits(), "{what}: slab element {i}");
                }
            }
            (shared, reused) = (shared + model.shared, reused + model.reused);
            re_added += model.re_added;
        }
        assert!(refused > 0, "no sequence ever filled an arena");
        assert!(
            shared > 200 && reused > 50 && re_added > 20,
            "{shared} shared, {reused} reused, {re_added} re-added"
        );
    }
}
