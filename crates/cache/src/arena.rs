//! One slot table over the row pool every GPU shares.

use crate::table::HostTable;
use cache_policy::BitRow;

/// Entries per word of a [`BitRow`].
const WORD_BITS: usize = u64::BITS as usize;

/// The cache's rows and the one table that finds them.
///
/// The rows are one `rows × dim` f32 slab that stands in for the GPUs'
/// HBM: every GPU's copy of a row holds the same bytes
/// ([`HostTable::read`]), so an entry several GPUs hold is stored, filled
/// and refreshed once. What is per GPU — which entries it stores, its
/// capacity, the links a read crosses — lives in the placement's stored
/// rows, the capacities and the timing layer.
///
/// The table is the paper's `<GPU_i, Offset>` location table (§4) kept
/// once, since every GPU holding an entry holds it at the same offset: a
/// slot for every entry of the *union* (the OR of the placement's stored
/// rows), found by rank over the union words — `rank` counts the union
/// entries before each 64-entry word, a popcount within the word gives
/// the entry's rank, and `slots[rank]` its slot. That is `3E/16` bytes
/// plus 4 a distinct cached entry, whatever the GPU count.
///
/// Between two swaps the pool only evicts: GPU `j` evicting entry `e`
/// sets bit `e` of `j`'s vacancy words, reads of `e` from `j` fall to
/// host, and no slot moves. [`RowPool::restack`] installs the next
/// stored rows: an entry that stays in the union keeps its slot and its
/// row, even if every old holder evicted it; an entry that leaves it
/// frees its slot, and one that joins it takes the lowest free slot. So
/// the slots ever handed out are as few as the most distinct entries
/// stored at once.
///
/// The rows are the functional layer's check data, which no simulated
/// number reads: a pool starts unfilled, dealing slots and holding an
/// empty slab, until [`RowPool::fill`] allocates the slab and writes the
/// rows, so a cache that is only timed holds no row bytes. A slab
/// allocated at build was not free either: once a freed mmapped block has
/// raised glibc's mmap threshold, a zeroed block of that size comes from
/// the heap and `calloc` writes every page of it.
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
    /// `rows × dim` floats once filled, empty until then.
    data: Vec<f32>,
    rows: usize,
    /// Bit `s` set: slot `s` is free, freed by a swap or never handed
    /// out. Bits past the last row are clear.
    free: Vec<u64>,
    /// No slot below `lowest` is free.
    lowest: usize,
    /// Whether every union entry's slot holds its row: set by
    /// [`RowPool::fill`], after which a restack reads each row it adds.
    filled: bool,
    /// The OR of the placement's stored rows: the entries with a slot.
    union: Vec<u64>,
    /// `rank[w]`: how many union entries precede word `w`.
    rank: Vec<u32>,
    /// `slots[r]`: the slot of the union's `r`-th entry, entry order.
    slots: Vec<u32>,
    /// Per GPU, the most entries its stored row may set.
    caps: Vec<usize>,
    /// Per GPU, bit `e` set: the GPU evicted entry `e` since the last
    /// swap. Empty until the GPU's first eviction after a swap, dropped
    /// at the swap.
    vacant: Vec<Vec<u64>>,
}

/// Word `w` of `words`; a word past the end holds nothing.
fn at(words: &[u64], w: usize) -> u64 {
    words.get(w).copied().unwrap_or(0)
}

/// The set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let b = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(w * WORD_BITS + b)
        })
    })
}

impl RowPool {
    /// An unfilled pool with one capacity per GPU in `caps`, holding the
    /// entries `stored` sets on each GPU: the restack of an empty pool, so
    /// slots are dealt in entry order, one per distinct entry. The pool
    /// has room for `min(Σ caps, entries)` rows, as many distinct entries
    /// as GPUs within their capacities can store; its slab stays empty
    /// until [`RowPool::fill`].
    ///
    /// # Panics
    ///
    /// Panics if `stored` sets more entries on a GPU than its capacity.
    pub fn new(caps: &[usize], stored: &[BitRow], host: &HostTable) -> Self {
        let rows = caps.iter().sum::<usize>().min(host.num_entries());
        let mut free = vec![!0u64; rows.div_ceil(WORD_BITS)];
        if let Some(last) = free.last_mut().filter(|_| rows % WORD_BITS != 0) {
            *last >>= WORD_BITS - rows % WORD_BITS;
        }
        let mut pool = RowPool {
            dim: host.dim(),
            data: Vec::new(),
            rows,
            free,
            lowest: 0,
            filled: false,
            union: Vec::new(),
            rank: Vec::new(),
            slots: Vec::new(),
            caps: caps.to_vec(),
            vacant: vec![Vec::new(); caps.len()],
        };
        pool.restack(&[], stored, host);
        pool
    }

    /// Whether every union entry's slot holds its row.
    pub fn is_filled(&self) -> bool {
        self.filled
    }

    /// Allocates the zeroed `rows × dim` slab and writes every union
    /// entry's row from `host` into its slot, once each, in one walk of
    /// the union, and marks the pool filled; returns how many rows it
    /// wrote, none once filled.
    pub fn fill(&mut self, host: &HostTable) -> usize {
        if std::mem::replace(&mut self.filled, true) {
            return 0;
        }
        let dim = self.dim;
        self.data = vec![0.0; self.rows * dim];
        for (e, &s) in ones(&self.union).zip(&self.slots) {
            host.read_into(e as u32, &mut self.data[s as usize * dim..][..dim]);
        }
        self.slots.len()
    }

    /// The slab: `rows × dim` floats, slot-major, once filled; empty
    /// before. Row `s` occupies `slab()[s * dim .. (s + 1) * dim]`;
    /// exposed so gathers stream many rows out of it without a
    /// bounds-checked call per row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// Whether some GPU has evicted a row since the last swap.
    pub fn is_open(&self) -> bool {
        self.vacant.iter().any(|v| !v.is_empty())
    }

    /// The slot lookup under stored rows `stored`, the placement's.
    #[inline]
    pub fn index<'a>(&'a self, stored: &'a [BitRow]) -> SlotIndex<'a> {
        SlotIndex {
            stored,
            // At rest no GPU has a vacancy word to test.
            vacant: if self.is_open() { &self.vacant } else { &[] },
            union: &self.union,
            rank: &self.rank,
            slots: &self.slots,
        }
    }

    /// The lowest free slot, taken. A slot is in use while its entry is
    /// in the union, which holds no more entries than the pool has rows,
    /// so the pool never runs out first. Claims come only in a restack,
    /// after its frees, so within one the scan only moves up.
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

    /// Evicts `entries` from GPU `gpu`, each that `stored[gpu]` holds and
    /// that `gpu` has not evicted yet; returns how many were. It sets the
    /// GPU's vacancy bits and touches no slot and no other GPU.
    ///
    /// # Panics
    ///
    /// Panics if `stored` has no row `gpu`, as for a GPU past the last.
    pub fn evict(&mut self, stored: &[BitRow], gpu: usize, entries: &[u32]) -> usize {
        let (row, vacant) = (stored[gpu].words(), &mut self.vacant[gpu]);
        let mut evicted = 0;
        for &e in entries {
            let (w, bit) = (e as usize / WORD_BITS, 1 << (e as usize % WORD_BITS));
            if at(row, w) & !at(vacant, w) & bit != 0 {
                vacant.resize(row.len(), 0);
                vacant[w] |= bit;
                evicted += 1;
            }
        }
        evicted
    }

    /// Installs stored rows `new` in place of `old` (the swap of a
    /// refresh). First, per GPU, word-wide checks: every entry it drops
    /// was evicted, none it keeps was, and its new row fits its capacity.
    /// Then one pass over the old and new union words frees the slots of
    /// the entries that leave the union, and a second claims the lowest
    /// free slot for each entry that joins it, reading its row from
    /// `host` once the pool is filled. An entry that stays keeps its slot
    /// and its row. The vacancy words are dropped. A GPU past the end of
    /// `old` stored nothing.
    ///
    /// # Panics
    ///
    /// Panics, naming the first GPU and its first such entry, if a GPU
    /// drops an entry it did not evict or keeps one it did; panics if a
    /// GPU's new row does not fit its capacity. The pool is not usable
    /// after a panic.
    pub fn restack(&mut self, old: &[BitRow], new: &[BitRow], host: &HostTable) {
        for (j, row) in new.iter().enumerate() {
            let was = old.get(j).map_or(&[][..], BitRow::words);
            if let Some(refusal) = self.refusal(j, was, row) {
                panic!("GPU{j} {refusal}");
            }
        }
        let words = new.iter().map(|r| r.words().len()).max().unwrap_or(0);
        let union: Vec<u64> = (0..words)
            .map(|w| new.iter().fold(0, |u, r| u | at(r.words(), w)))
            .collect();
        for (w, &will) in union.iter().enumerate() {
            let was = at(&self.union, w);
            let mut left = was & !will;
            while left != 0 {
                let below = was & ((left & left.wrapping_neg()) - 1);
                let s = self.slots[self.rank[w] as usize + below.count_ones() as usize] as usize;
                self.free[s / WORD_BITS] |= 1 << (s % WORD_BITS);
                self.lowest = self.lowest.min(s);
                left &= left - 1;
            }
        }
        let (dim, mut r) = (self.dim, 0);
        let mut slots = Vec::with_capacity(union.iter().map(|w| w.count_ones() as usize).sum());
        self.rank.resize(words, 0);
        for (w, &will) in union.iter().enumerate() {
            let was = at(&self.union, w);
            self.rank[w] = slots.len() as u32;
            // A word whose bits did not change keeps its slots whole.
            if was == will {
                let n = was.count_ones() as usize;
                slots.extend_from_slice(&self.slots[r..r + n]);
                r += n;
                continue;
            }
            let mut bits = was | will;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                if was & bit != 0 {
                    if will & bit != 0 {
                        slots.push(self.slots[r]);
                    }
                    r += 1;
                    continue;
                }
                let slot = self.claim();
                if self.filled {
                    let e = w * WORD_BITS + bit.trailing_zeros() as usize;
                    host.read_into(e as u32, &mut self.data[slot as usize * dim..][..dim]);
                }
                slots.push(slot);
            }
        }
        (self.union, self.slots) = (union, slots);
        self.vacant.iter_mut().for_each(|v| *v = Vec::new());
    }

    /// Why GPU `j` cannot go from stored words `was` to stored row `new`:
    /// its first entry dropped but not evicted, or kept but evicted, or
    /// its capacity.
    fn refusal(&self, j: usize, was: &[u64], new: &BitRow) -> Option<String> {
        for (w, &will) in new.words().iter().enumerate() {
            let (was, gone) = (at(was, w), at(&self.vacant[j], w));
            let (stale, lost) = (was & !will & !gone, was & will & gone);
            if stale | lost != 0 {
                let b = (stale | lost).trailing_zeros() as usize;
                let e = w * WORD_BITS + b;
                return Some(match lost >> b & 1 {
                    0 => format!("still holds entry {e}, which its new placement does not store"),
                    _ => format!("stores entry {e} but holds no row for it"),
                });
            }
        }
        let cap = self.caps[j];
        let n = new.count_ones();
        (n > cap).then(|| format!("stores {n} entries: arena full ({cap} entries)"))
    }

    /// Checks that the union is the OR of `stored` and `rank` its rank
    /// directory; that every union entry has one slot, below the pool's
    /// rows, and every slot is either an entry's or free, never both, with
    /// none below `lowest` free and no bit past the last row set; that
    /// each GPU's vacancy words set only entries it stores and its stored
    /// row fits its capacity; that the slab is empty until the pool is
    /// filled and `rows × dim` floats after; and, once filled, that every
    /// entry's slot holds its host row. A pass over every stored row and
    /// every slot: for tests.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check(&self, stored: &[BitRow], host: &HostTable) -> Result<(), String> {
        for (j, row) in stored.iter().enumerate() {
            let (n, cap) = (row.count_ones(), self.caps[j]);
            if n > cap {
                return Err(format!("GPU{j} stores {n} entries, room for {cap}"));
            }
            let vacant = &self.vacant[j];
            if let Some(w) = (0..vacant.len()).find(|&w| vacant[w] & !at(row.words(), w) != 0) {
                return Err(format!(
                    "GPU{j} evicted an entry of word {w} it does not store"
                ));
            }
        }
        let words = stored.iter().map(|r| r.words().len()).max().unwrap_or(0);
        let mut r = 0;
        for w in 0..words.max(self.union.len()) {
            let or = stored.iter().fold(0, |u, row| u | at(row.words(), w));
            if at(&self.union, w) != or {
                return Err(format!("union word {w} is not the stored rows' OR"));
            }
            if self.rank.get(w) != Some(&r) {
                return Err(format!(
                    "word {w} ranks {:?}, after {r} entries",
                    self.rank.get(w)
                ));
            }
            r += or.count_ones();
        }
        let rows = self.rows;
        if self.slots.len() != r as usize {
            return Err(format!("{} slots for {r} union entries", self.slots.len()));
        }
        let mut held = vec![false; rows];
        for &s in &self.slots {
            let s = s as usize;
            if s >= rows {
                return Err(format!("slot {s} is past the pool's {rows} rows"));
            }
            if std::mem::replace(&mut held[s], true) {
                return Err(format!("pool slot {s} holds two entries"));
            }
            if self.is_free(s) {
                return Err(format!("pool slot {s} is both held and free"));
            }
        }
        if let Some(s) = (0..rows).find(|&s| !held[s] && !self.is_free(s)) {
            return Err(format!("pool slot {s} is neither held nor free"));
        }
        let past = (rows..self.free.len() * WORD_BITS).find(|&s| self.is_free(s));
        if let Some(s) = past.or_else(|| (0..self.lowest.min(rows)).find(|&s| self.is_free(s))) {
            return Err(format!(
                "pool slot {s} is free, past the last row or below the lowest"
            ));
        }
        let slab = if self.filled { rows * self.dim } else { 0 };
        if self.data.len() != slab {
            return Err(format!(
                "the slab holds {} floats, not {slab}",
                self.data.len()
            ));
        }
        let mut truth = vec![0.0f32; self.dim];
        for (e, &s) in ones(&self.union).zip(&self.slots).filter(|_| self.filled) {
            host.read_into(e as u32, &mut truth);
            let row = &self.data[s as usize * self.dim..][..self.dim];
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

/// The slot table's lookup, borrowed once for a loop over many keys: the
/// stored rows, the vacancy words (none at rest), and the union's words,
/// rank directory and slots.
#[derive(Debug, Clone, Copy)]
pub struct SlotIndex<'a> {
    stored: &'a [BitRow],
    vacant: &'a [Vec<u64>],
    union: &'a [u64],
    rank: &'a [u32],
    slots: &'a [u32],
}

impl SlotIndex<'_> {
    /// The pool slot of `entry` on `gpu`, if `gpu` is a GPU that stores it
    /// and has not evicted it: a stored word, mid-refresh a vacancy word,
    /// then a union word, its rank prefix and one slot load.
    #[inline]
    pub fn slot(&self, gpu: usize, entry: u32) -> Option<u32> {
        let (w, b) = (entry as usize / WORD_BITS, entry as usize % WORD_BITS);
        let mut held = *self.stored.get(gpu)?.words().get(w)?;
        if let Some(vacant) = self.vacant.get(gpu) {
            held &= !at(vacant, w);
        }
        if held >> b & 1 == 0 {
            return None;
        }
        let below = self.union[w] & ((1u64 << b) - 1);
        Some(self.slots[self.rank[w] as usize + below.count_ones() as usize])
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

    /// A pool built and filled, as `MultiGpuCache::build` makes one.
    fn filled(caps: &[usize], stored: &[BitRow], host: &HostTable) -> RowPool {
        let mut pool = RowPool::new(caps, stored, host);
        pool.fill(host);
        pool
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
    fn a_build_deals_one_slot_per_distinct_entry_in_entry_order_and_a_fill_writes_each_once() {
        let host = HostTable::procedural(200, 3);
        let stored = [
            stored_row(200, [3, 64, 65, 127, 128, 199]),
            stored_row(200, [3, 5, 65, 128, 130]),
        ];
        let mut pool = RowPool::new(&[8, 8], &stored, &host);
        // The slots are dealt and the slab stays empty until the fill,
        // which allocates it and writes each of the 8 distinct entries'
        // rows once.
        assert!(pool.slab().is_empty());
        pool.check(&stored, &host).unwrap();
        assert_eq!(pool.fill(&host), 8);
        // The union 3, 5, 64, 65, 127, 128, 130, 199 takes a slot an
        // entry, in entry order; 3, 65 and 128 have one slot on both GPUs.
        assert_eq!(pool.slots, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(pool.rank, [0, 2, 5, 7]);
        assert_eq!((pool.rows, free_slots(&pool)), (16, (8..16).collect()));
        let index = pool.index(&stored);
        assert_eq!((index.slot(0, 65), index.slot(1, 65)), (Some(3), Some(3)));
        assert_eq!((index.slot(0, 5), index.slot(1, 5)), (None, Some(1)));
        for (j, stored) in stored.iter().enumerate() {
            for e in stored.ones().map(|e| e as u32) {
                assert_eq!(
                    row(&pool, index.slot(j, e).unwrap()),
                    host.read(e).as_slice()
                );
            }
            for e in [0, 4, 63, 66, 126, 198] {
                assert_eq!(index.slot(j, e), None, "entry {e}");
            }
            // Past the last entry, and past the last word.
            assert_eq!(index.slot(j, u32::MAX), None);
        }
        // The host's index, past the last GPU, holds nothing.
        assert_eq!(index.slot(2, 3), None);
        pool.check(&stored, &host).unwrap();
        // The pool has room for no more rows than entries.
        let (few, host) = (
            [stored_row(10, [1, 2]), stored_row(10, [2, 9])],
            HostTable::procedural(10, 3),
        );
        let pool = filled(&[8, 8], &few, &host);
        assert_eq!((pool.rows, free_slots(&pool)), (10, (3..10).collect()));
        pool.check(&few, &host).unwrap();
    }

    #[test]
    #[should_panic(expected = "GPU1 stores 3 entries: arena full (2 entries)")]
    fn an_overfull_fill_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = [stored_row(9, [1]), stored_row(9, [1, 4, 8])];
        let _ = filled(&[4, 2], &stored, &host);
    }

    #[test]
    fn an_eviction_sets_a_bit_and_a_swap_frees_the_slots_of_entries_leaving_the_union() {
        let host = HostTable::procedural(9, 3);
        let old = [stored_row(9, [1, 2, 5]), stored_row(9, [5])];
        let new = [stored_row(9, [2, 6, 7]), stored_row(9, [7, 8])];
        let mut pool = filled(&[3, 2], &old, &host);
        assert_eq!(pool.slots, [0, 1, 2]);
        assert!(!pool.is_open());
        assert_eq!(pool.evict(&old, 0, &[5]), 1);
        assert!(pool.is_open());
        assert_eq!(pool.evict(&old, 0, &[5]), 0, "already evicted");
        assert_eq!(pool.evict(&old, 0, &[6, u32::MAX]), 0, "not stored");
        // An eviction frees no slot: GPU1 still reads entry 5 there.
        assert_eq!(free_slots(&pool), [3, 4]);
        let index = pool.index(&old);
        assert_eq!((index.slot(0, 5), index.slot(1, 5)), (None, Some(2)));
        assert_eq!(index.slot(0, 1), Some(0));
        pool.check(&old, &host).unwrap();
        assert_eq!(pool.evict(&old, 0, &[1]), 1);
        assert_eq!(pool.evict(&old, 1, &[5]), 1);
        assert_eq!(free_slots(&pool), [3, 4]);
        pool.check(&old, &host).unwrap();
        pool.restack(&old, &new, &host);
        // Entries 1 and 5 leave the union and free slots 0 and 2; entry 6
        // takes the lowest free slot, 7 the next, and 8 the lowest never
        // handed out; entry 2 keeps slot 1.
        assert_eq!(pool.slots, [1, 0, 2, 3]);
        assert_eq!(free_slots(&pool), [4]);
        assert!(!pool.is_open());
        let index = pool.index(&new);
        for (j, stored) in new.iter().enumerate() {
            for e in stored.ones().map(|e| e as u32) {
                assert_eq!(row(&pool, index.slot(j, e).unwrap()), host.read(e));
            }
        }
        pool.check(&new, &host).unwrap();
    }

    #[test]
    fn an_entry_every_holder_evicts_and_another_gpu_adds_keeps_its_slot() {
        let host = HostTable::procedural(9, 3);
        let old = [stored_row(9, [1, 5]), stored_row(9, [3])];
        let new = [stored_row(9, [0, 5]), stored_row(9, [1, 3])];
        let mut pool = filled(&[2, 2], &old, &host);
        assert_eq!(pool.slots, [0, 1, 2]);
        assert_eq!(pool.evict(&old, 0, &[1]), 1);
        pool.restack(&old, &new, &host);
        // Entry 1 never leaves the union, so it keeps slot 0 and its row;
        // entry 0 joins and claims the one free slot.
        let index = pool.index(&new);
        assert_eq!((index.slot(1, 1), index.slot(0, 0)), (Some(0), Some(3)));
        assert_eq!(row(&pool, 0), host.read(1));
        assert_eq!(free_slots(&pool), []);
        pool.check(&new, &host).unwrap();
    }

    #[test]
    #[should_panic(expected = "GPU2 stores 4 entries: arena full (3 entries)")]
    fn a_restack_past_capacity_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = [
            stored_row(9, []),
            stored_row(9, []),
            stored_row(9, [1, 4, 8]),
        ];
        let mut pool = filled(&[3; 3], &stored, &host);
        let mut new = stored.clone();
        new[2].set(2, true);
        pool.restack(&stored, &new, &host);
    }

    #[test]
    #[should_panic(expected = "GPU3 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_stored_entry_without_a_row() {
        // GPU0 keeps entry 70 in the union; GPU3's word holding it changes.
        let host = HostTable::procedural(130, 1);
        let mut old = vec![
            stored_row(130, [70]),
            stored_row(130, []),
            stored_row(130, []),
        ];
        old.push(stored_row(130, [1, 70]));
        let mut pool = filled(&[4; 4], &old, &host);
        pool.evict(&old, 3, &[70]);
        let mut new = old.clone();
        new[3].set(71, true);
        pool.restack(&old, &new, &host);
    }

    #[test]
    #[should_panic(expected = "GPU1 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_vacant_entry_mid_word_in_an_unchanged_word() {
        // GPU0 keeps entry 70 in the union; GPU1's words do not change.
        let host = HostTable::procedural(130, 1);
        let old = [
            stored_row(130, [64, 70]),
            stored_row(130, [1, 64, 70, 100, 127]),
        ];
        let mut pool = filled(&[8, 8], &old, &host);
        pool.evict(&old, 1, &[70]);
        pool.restack(&old, &old, &host);
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
        let mut pool = filled(&[4; 3], &old, &host);
        let mut new = old.clone();
        new[2].set(70, false);
        pool.restack(&old, &new, &host);
    }

    /// One entry→slot map over an ordered set of free slots, per-GPU held
    /// and evicted sets, and a slab of rows, written the plain way: the
    /// model the pool must match slot for slot and bit for bit.
    struct Model {
        dim: usize,
        data: Vec<f32>,
        slot: HashMap<u32, u32>,
        held: Vec<BTreeSet<u32>>,
        vacant: Vec<BTreeSet<u32>>,
        free: BTreeSet<u32>,
        /// One past the highest slot ever handed out.
        used: u32,
        /// Additions of an entry the union already held, and of those the
        /// ones every old holder had evicted; claims of a slot a swap
        /// freed; and claims for an entry the union held once and had
        /// lost.
        shared: usize,
        revived: usize,
        reused: usize,
        re_added: usize,
        once_held: Vec<bool>,
    }

    impl Model {
        fn new(gpus: usize, rows: usize, dim: usize, entries: usize) -> Self {
            Model {
                dim,
                data: vec![0.0; rows * dim],
                slot: HashMap::new(),
                held: vec![BTreeSet::new(); gpus],
                vacant: vec![BTreeSet::new(); gpus],
                free: (0..rows as u32).collect(),
                used: 0,
                shared: 0,
                revived: 0,
                reused: 0,
                re_added: 0,
                once_held: vec![false; entries],
            }
        }

        /// The entries GPU `gpu` holds a row for.
        fn rows(&self, gpu: usize) -> impl Iterator<Item = u32> + '_ {
            self.held[gpu].difference(&self.vacant[gpu]).copied()
        }

        fn evict(&mut self, gpu: usize, entry: u32) -> bool {
            self.held[gpu].contains(&entry) && self.vacant[gpu].insert(entry)
        }

        /// The swap to `new`: every entry that leaves the union frees its
        /// slot, then every entry that joins it, ascending, claims the
        /// lowest free slot, filled from `host`.
        fn restack(&mut self, new: &[BitRow], host: &HostTable) {
            let will: BTreeSet<u32> = new
                .iter()
                .flat_map(|r| r.ones())
                .map(|e| e as u32)
                .collect();
            for (j, row) in new.iter().enumerate() {
                for e in row.ones().map(|e| e as u32) {
                    if self.slot.contains_key(&e) && !self.held[j].contains(&e) {
                        self.shared += 1;
                        let holders = (0..self.held.len()).filter(|&k| self.held[k].contains(&e));
                        let mut holders = holders.peekable();
                        let gone = holders.peek().is_some()
                            && holders.all(|k| self.vacant[k].contains(&e));
                        self.revived += usize::from(gone);
                    }
                }
            }
            let left: Vec<u32> = self
                .slot
                .keys()
                .copied()
                .filter(|e| !will.contains(e))
                .collect();
            for e in left {
                self.free.insert(self.slot.remove(&e).unwrap());
            }
            let joined: Vec<u32> = will
                .into_iter()
                .filter(|e| !self.slot.contains_key(e))
                .collect();
            for e in joined {
                self.re_added += usize::from(self.once_held[e as usize]);
                self.once_held[e as usize] = true;
                let slot = self.free.pop_first().expect("never overfilled");
                self.reused += usize::from(slot < self.used);
                self.used = self.used.max(slot + 1);
                let base = slot as usize * self.dim;
                host.read_into(e, &mut self.data[base..base + self.dim]);
                self.slot.insert(e, slot);
            }
            for (j, row) in new.iter().enumerate() {
                self.held[j] = row.ones().map(|e| e as u32).collect();
                self.vacant[j].clear();
            }
        }

        /// Checks `pool` against the model slot for slot, free slot for
        /// free slot and, once `pool` is filled, union row for union row;
        /// an unfilled pool's slab must still be empty.
        fn matches(&self, pool: &RowPool, stored: &[BitRow], what: &str) {
            let index = pool.index(stored);
            for (k, row) in stored.iter().enumerate() {
                for e in 0..row.len() as u32 {
                    let reads = self.held[k].contains(&e) && !self.vacant[k].contains(&e);
                    let want = reads.then(|| self.slot[&e]);
                    assert_eq!(index.slot(k, e), want, "{what}: GPU{k} {e}");
                }
            }
            assert_eq!(
                pool.is_open(),
                self.vacant.iter().any(|v| !v.is_empty()),
                "{what}"
            );
            let free: Vec<u32> = self.free.iter().copied().collect();
            assert_eq!(free_slots(pool), free, "{what}: free slots");
            if !pool.is_filled() {
                assert!(pool.slab().is_empty(), "{what}: slab allocated");
                return;
            }
            for &s in self.slot.values() {
                let (held, want) = (row(pool, s), &self.data[s as usize * self.dim..]);
                assert!(
                    held.iter()
                        .zip(want)
                        .all(|(a, m)| a.to_bits() == m.to_bits()),
                    "{what}: pool slot {s}"
                );
            }
        }
    }

    #[test]
    fn random_op_sequences_match_one_slot_map_over_one_pool() {
        // Two to four GPUs over a crowded key range, so GPUs share entries:
        // fills, evictions by one GPU or by all, and restacks onto what
        // each GPU holds plus entries its stored row lacks — some another
        // GPU keeps, some another adds in the same restack, some every
        // holder evicted. Now and then one adds more than a GPU's
        // capacity; it is refused, and that ends its sequence. Beside the
        // filled pool an unfilled one runs the same sequence, dealing the
        // same slots with its slab empty, until it is filled at a step
        // the seed picks, or after the last.
        const CAP: usize = 10;
        const DIM: usize = 3;
        const N: usize = 200;
        let ids: Vec<u32> = (0..24).chain([63, 64, 127, 128, 190, 199]).collect();
        let host = HostTable::procedural(N, DIM);
        let mut refused = 0;
        let (mut shared, mut revived, mut reused, mut re_added) = (0, 0, 0, 0);
        for seed in 0..30u64 {
            let mut rng = emb_util::seed_rng(seed);
            let g = 2 + seed as usize % 3;
            let pick = |rng: &mut rand::rngs::StdRng| ids[rng.gen_range(0..ids.len())];
            let mut stored: Vec<BitRow> = (0..g)
                .map(|_| stored_row(N, (0..rng.gen_range(0..CAP)).map(|_| pick(&mut rng))))
                .collect();
            let mut pool = filled(&vec![CAP; g], &stored, &host);
            let mut lazy = RowPool::new(&vec![CAP; g], &stored, &host);
            let fill_at = [0, 1, 57, 200, 399, usize::MAX][seed as usize % 6];
            let mut model = Model::new(g, pool.rows, DIM, N);
            model.restack(&stored, &host);
            for step in 0..400 {
                let what = format!("seed {seed} step {step}");
                let j = rng.gen_range(0..g);
                if rng.gen_range(0..3) != 0 {
                    // One GPU evicts an entry, or now and then every GPU
                    // in turn, as a refresh that drops it everywhere.
                    let e = pick(&mut rng);
                    let gpus = if rng.gen_bool(0.25) { 0..g } else { j..j + 1 };
                    for k in gpus {
                        let evicted = pool.evict(&stored, k, &[e]) == 1;
                        assert_eq!(evicted, model.evict(k, e), "{what}: GPU{k} evicts {e}");
                        let lazily = lazy.evict(&stored, k, &[e]) == 1;
                        assert_eq!(lazily, evicted, "{what}: GPU{k} evicts {e} lazily");
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
                        let room = CAP - model.rows(k).count();
                        if added.len() > room && !overfill && rng.gen_bool(0.1) {
                            overfill = true;
                        } else {
                            added.truncate(room);
                        }
                        next.push(stored_row(N, model.rows(k).chain(added)));
                    }
                    if overfill {
                        let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            pool.restack(&stored, &next, &host);
                        }))
                        .expect_err("the added rows do not fit");
                        let message = full.downcast_ref::<String>().expect("a formatted panic");
                        assert!(message.contains("arena full"), "{what}: {message}");
                        refused += 1;
                        break;
                    }
                    pool.restack(&stored, &next, &host);
                    lazy.restack(&stored, &next, &host);
                    model.restack(&next, &host);
                    stored = next;
                }
                pool.check(&stored, &host)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                model.matches(&pool, &stored, &what);
                // The whole slab bit for bit, free slots' stale rows too.
                assert_eq!(pool.slab().len(), model.data.len(), "{what}: slab");
                for (i, (a, m)) in pool.slab().iter().zip(&model.data).enumerate() {
                    assert_eq!(a.to_bits(), m.to_bits(), "{what}: slab element {i}");
                }
                if step == fill_at {
                    assert_eq!(lazy.fill(&host), model.slot.len());
                    assert_eq!(lazy.fill(&host), 0, "{what}: refill");
                }
                lazy.check(&stored, &host)
                    .unwrap_or_else(|err| panic!("{what}, lazily: {err}"));
                model.matches(&lazy, &stored, &format!("{what}, lazily"));
            }
            // A pool filled after its last step holds the rows of the
            // eager one's last good step.
            if !lazy.is_filled() {
                assert_eq!(lazy.fill(&host), model.slot.len());
                lazy.check(&stored, &host).unwrap();
                model.matches(&lazy, &stored, &format!("seed {seed}, lazily"));
            }
            (shared, revived) = (shared + model.shared, revived + model.revived);
            (reused, re_added) = (reused + model.reused, re_added + model.re_added);
        }
        assert!(refused > 0, "no sequence ever filled an arena");
        assert!(
            shared > 200 && revived > 4 && reused > 50 && re_added > 20,
            "{shared} shared, {revived} revived, {reused} reused, {re_added} re-added"
        );
    }
}
