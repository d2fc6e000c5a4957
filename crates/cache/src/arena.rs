//! Per-GPU cache storage.

use crate::table::HostTable;
use cache_policy::BitRow;

/// Slot-table value of a stored entry whose row was evicted mid-refresh.
/// No slot can have it: slots are numbered below a capacity that itself
/// fits a `u32`.
const VACANT: u32 = u32::MAX;

/// Entries per word of a [`BitRow`].
const WORD_BITS: usize = u64::BITS as usize;

/// One GPU's embedding-cache arena: `capacity × dim` f32 slots, and the
/// slot of every entry the placement stores on the GPU. Stands in for a
/// GPU HBM allocation.
///
/// The arena keeps no per-entry index of its own. A stored entry's slot
/// is found by rank over the placement's own stored bit-row for the GPU
/// (the `stored` every method takes): `rank` counts the stored entries
/// before each 64-entry word, a popcount within the word gives the
/// entry's rank, and `slots[rank]` its slot. That is `E/16` bytes per GPU
/// plus 4 a cached row, where a dense index cost `4·E`.
///
/// Reads follow the placement, so between two stored rows the arena only
/// evicts: an evicted entry's slot is [`VACANT`] and reads of it fall to
/// host. [`GpuArena::restack`] installs the next stored row and writes
/// the rows of the entries it adds.
#[derive(Debug, Clone)]
pub struct GpuArena {
    dim: usize,
    capacity: usize,
    data: Vec<f32>,
    /// `rank[w]`: how many entries the stored row holds before word `w`.
    rank: Vec<u32>,
    /// `slots[r]`: the slot of the stored row's `r`-th entry, entry order,
    /// or [`VACANT`] once evicted.
    slots: Vec<u32>,
    /// Rows held: the slots that are not vacant.
    len: usize,
    /// Slots freed by evictions, the most recent last: they are handed
    /// out again before any slot from `fresh` on (a LIFO free list).
    freed: Vec<u32>,
    /// Slots `fresh..capacity` have never been handed out.
    fresh: u32,
}

impl GpuArena {
    /// An arena with room for `capacity` rows of `host`'s width, holding
    /// the rows of the entries `stored` sets: the restack of an empty
    /// arena, so slots are dealt in entry order and the slot table starts
    /// out as the identity.
    ///
    /// # Panics
    ///
    /// Panics if `stored` sets more than `capacity` entries.
    pub fn filled(capacity: usize, stored: &BitRow, host: &HostTable) -> Self {
        let mut arena = GpuArena {
            dim: host.dim(),
            capacity,
            data: vec![0.0; capacity * host.dim()],
            rank: Vec::new(),
            slots: Vec::new(),
            len: 0,
            freed: Vec::new(),
            fresh: 0,
        };
        // From a row of no words nothing is dropped or kept, so no GPU is
        // named. It allocates nothing: a transient full-length row here
        // shifted the heap under later gathers, which ran measurably
        // slower (`runs/PR46.md`).
        arena.restack(0, &BitRow::new(0), stored, host);
        arena
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

    /// A free slot: the most recently freed, else the lowest never used.
    fn claim(&mut self) -> u32 {
        let slot = self.freed.pop().unwrap_or_else(|| {
            assert!(
                (self.fresh as usize) < self.capacity,
                "arena full ({} entries)",
                self.capacity
            );
            self.fresh += 1;
            self.fresh - 1
        });
        self.len += 1;
        slot
    }

    /// Frees the row of an entry `stored` holds; returns whether there was
    /// one.
    pub fn evict(&mut self, stored: &BitRow, entry: u32) -> bool {
        let Some(r) = self.index(stored).rank_of(entry) else {
            return false;
        };
        let slot = std::mem::replace(&mut self.slots[r], VACANT);
        if slot == VACANT {
            return false;
        }
        self.freed.push(slot);
        self.len -= 1;
        true
    }

    /// Re-indexes the arena from stored row `old` to `new` (the swap of a
    /// refresh) in one pass over their words, in entry order: an entry
    /// both hold keeps its slot, an entry only `old` holds must have been
    /// evicted, and an entry only `new` holds claims a free slot and reads
    /// its row from `host` straight into it. Entries past the end of a
    /// shorter `old` read as not held.
    ///
    /// # Panics
    ///
    /// Panics, naming GPU `gpu` and the entry, if an entry only `old`
    /// holds still has a row or an entry both hold has none; panics if the
    /// rows `new` adds do not fit. The arena is not usable after a panic.
    pub fn restack(&mut self, gpu: usize, old: &BitRow, new: &BitRow, host: &HostTable) {
        let mut rank = Vec::with_capacity(new.words().len());
        let mut slots = Vec::with_capacity(new.count_ones());
        let mut r = 0;
        let was_words = old.words().iter().copied().chain(std::iter::repeat(0));
        for (w, (was, &will)) in was_words.zip(new.words()).enumerate() {
            rank.push(slots.len() as u32);
            let mut bits = was | will;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let e = w * WORD_BITS + bit.trailing_zeros() as usize;
                if was & bit == 0 {
                    let slot = self.claim();
                    let base = slot as usize * self.dim;
                    host.read_into(e as u32, &mut self.data[base..base + self.dim]);
                    slots.push(slot);
                    continue;
                }
                let slot = self.slots[r];
                r += 1;
                if will & bit == 0 {
                    assert!(
                        slot == VACANT,
                        "GPU{gpu} still holds entry {e}, which its new placement does not store"
                    );
                } else {
                    assert!(
                        slot != VACANT,
                        "GPU{gpu} stores entry {e} but holds no row for it"
                    );
                    slots.push(slot);
                }
            }
        }
        self.rank = rank;
        self.slots = slots;
        // A refresh may evict most of the arena before this pass claims
        // the slots back: return the list's room rather than keep it.
        self.freed.shrink_to_fit();
    }

    /// The raw backing slab: `capacity × dim` floats, slot-major.
    ///
    /// Row `s` occupies `slab()[s * dim .. (s + 1) * dim]`. Exposed so
    /// blocked gather paths can stream many rows out of one slab without
    /// a bounds-checked call per row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// Checks that every slot is in exactly one place — a live rank, the
    /// freed list or the never-used tail — and that the slot table has one
    /// place per entry `stored` holds.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check_slots(&self, stored: &BitRow) -> Result<(), String> {
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
        let mut seen = vec![false; self.capacity];
        let freed = self.freed.iter().copied();
        for s in live.chain(freed).chain(self.fresh..self.capacity as u32) {
            match seen.get_mut(s as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(format!("slot {s} is out of range or in two places")),
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(s) => Err(format!("slot {s} is in no place")),
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

    /// The slot of `entry` if it is stored and its row was not evicted: a
    /// stored word, its rank prefix and one slot load.
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
    use std::collections::HashMap;

    /// The row at slot `offset`.
    fn row(a: &GpuArena, offset: u32) -> &[f32] {
        &a.slab()[offset as usize * a.dim..(offset as usize + 1) * a.dim]
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
    fn a_fill_deals_slots_in_entry_order_and_reads_each_host_row() {
        let host = HostTable::procedural(200, 3);
        let stored = stored_row(200, [3, 64, 65, 127, 128, 199]);
        let a = GpuArena::filled(8, &stored, &host);
        assert_eq!(a.len(), 6);
        assert_eq!(a.slots, [0, 1, 2, 3, 4, 5], "the identity");
        assert_eq!(a.rank, [0, 1, 4, 5]);
        for (s, e) in stored.ones().enumerate() {
            assert_eq!(a.index(&stored).slot(e as u32), Some(s as u32));
            assert_eq!(row(&a, s as u32), host.read(e as u32).as_slice());
        }
        for e in [0, 4, 63, 66, 126, 198] {
            assert_eq!(a.index(&stored).slot(e), None, "entry {e}");
        }
        // Past the last entry, and past the last word.
        assert_eq!(a.index(&stored).slot(u32::MAX), None);
        a.check_slots(&stored).unwrap();
    }

    #[test]
    #[should_panic(expected = "arena full (2 entries)")]
    fn an_overfull_fill_panics() {
        let _ = GpuArena::filled(2, &stored_row(9, [1, 4, 8]), &HostTable::procedural(9, 1));
    }

    #[test]
    fn a_restack_reads_each_added_row_into_a_freed_slot_first() {
        let host = HostTable::procedural(9, 3);
        let (old, new) = (stored_row(9, [2, 5]), stored_row(9, [2, 6, 7]));
        let mut a = GpuArena::filled(3, &old, &host);
        assert!(a.evict(&old, 5));
        assert!(!a.evict(&old, 5), "already vacant");
        assert!(!a.evict(&old, 6), "not stored");
        assert_eq!((a.len(), a.index(&old).slot(5)), (1, None));
        a.restack(0, &old, &new, &host);
        // Entry 6 takes the slot 5 freed, entry 7 the one never used.
        assert_eq!(a.slots, [0, 1, 2]);
        assert_eq!(a.rank, [0]);
        for e in [2, 6, 7] {
            assert_eq!(row(&a, a.index(&new).slot(e).unwrap()), host.read(e));
        }
        assert_eq!(a.len(), 3);
        a.check_slots(&new).unwrap();
    }

    #[test]
    #[should_panic(expected = "arena full (3 entries)")]
    fn a_restack_past_capacity_panics() {
        let host = HostTable::procedural(9, 1);
        let stored = stored_row(9, [1, 4, 8]);
        let mut a = GpuArena::filled(3, &stored, &host);
        a.restack(0, &stored, &stored_row(9, [1, 2, 4, 8]), &host);
    }

    #[test]
    #[should_panic(expected = "GPU3 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_stored_entry_without_a_row() {
        let host = HostTable::procedural(130, 1);
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &host);
        a.evict(&old, 70);
        a.restack(3, &old, &old, &host);
    }

    #[test]
    #[should_panic(expected = "GPU2 still holds entry 70, which its new placement does not store")]
    fn a_restack_refuses_a_row_nobody_evicted() {
        let host = HostTable::procedural(130, 1);
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &host);
        a.restack(2, &old, &stored_row(130, [1]), &host);
    }

    /// The arena as it was indexed before the slot table — an entry→slot
    /// map beside the same LIFO free list — kept as the model the slot
    /// table must match offset for offset.
    struct MapArena {
        dim: usize,
        data: Vec<f32>,
        slots: HashMap<u32, u32>,
        free: Vec<u32>,
    }

    impl MapArena {
        fn new(capacity: usize, dim: usize) -> Self {
            MapArena {
                dim,
                data: vec![0.0; capacity * dim],
                slots: HashMap::new(),
                free: (0..capacity as u32).rev().collect(),
            }
        }

        fn insert(&mut self, entry: u32, values: &[f32]) {
            let slot = self
                .free
                .pop()
                .expect("the driver never overfills the model");
            assert!(self.slots.insert(entry, slot).is_none(), "{entry} held");
            let base = slot as usize * self.dim;
            self.data[base..base + self.dim].copy_from_slice(values);
        }

        fn evict(&mut self, entry: u32) -> bool {
            self.slots
                .remove(&entry)
                .map(|s| self.free.push(s))
                .is_some()
        }
    }

    #[test]
    fn random_op_sequences_match_the_map_indexed_model() {
        // Fills, evictions (scrambling the free list, so added rows land
        // on scattered slots) and restacks onto the entries the model
        // holds plus a few the stored row lacks, as a refresh moves:
        // between restacks the arena only evicts, and a restack adds
        // entries in entry order. Now and then a restack adds more than
        // fits; it is refused, and that ends its sequence.
        const CAP: usize = 24;
        const DIM: usize = 3;
        const N: usize = 200;
        // A crowded low range so evictions, re-additions and slot reuse
        // are common, and a few ids on and past word edges.
        let ids: Vec<u32> = (0..40).chain([63, 64, 127, 128, 190, 199]).collect();
        let host = HostTable::procedural(N, DIM);
        let mut refused = 0;
        for seed in 0..20u64 {
            let mut rng = emb_util::seed_rng(seed);
            let pick = |rng: &mut rand::rngs::StdRng| ids[rng.gen_range(0..ids.len())];
            let first: Vec<u32> = (0..rng.gen_range(0..CAP)).map(|_| pick(&mut rng)).collect();
            let mut stored = stored_row(N, first);
            let mut arena = GpuArena::filled(CAP, &stored, &host);
            let mut model = MapArena::new(CAP, DIM);
            for e in stored.ones() {
                model.insert(e as u32, &host.read(e as u32));
            }
            for step in 0..600 {
                let what = format!("seed {seed} step {step}");
                if rng.gen_range(0..3) != 0 {
                    let e = pick(&mut rng);
                    assert_eq!(arena.evict(&stored, e), model.evict(e), "{what}: evict {e}");
                } else {
                    // What the model holds, plus up to six entries the
                    // stored row lacks, added in entry order.
                    let mut added: Vec<u32> = (0..rng.gen_range(0..7))
                        .map(|_| pick(&mut rng))
                        .filter(|&e| !stored.get(e as usize))
                        .collect();
                    added.sort_unstable();
                    added.dedup();
                    let room = CAP - model.slots.len();
                    let overfill = added.len() > room && rng.gen_bool(0.1);
                    if !overfill {
                        added.truncate(room);
                    }
                    let held = model.slots.keys().copied();
                    let next = stored_row(N, held.chain(added.iter().copied()));
                    if overfill {
                        let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            arena.restack(0, &stored, &next, &host);
                        }))
                        .expect_err("the added rows do not fit");
                        let message = full.downcast_ref::<String>().expect("a formatted panic");
                        assert!(message.contains("arena full"), "{what}: {message}");
                        refused += 1;
                        break;
                    }
                    arena.restack(0, &stored, &next, &host);
                    for &e in &added {
                        model.insert(e, &host.read(e));
                    }
                    stored = next;
                }
                assert_eq!(arena.len(), model.slots.len(), "{what}");
                arena
                    .check_slots(&stored)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                for &e in &ids {
                    let want = model.slots.get(&e).copied();
                    assert_eq!(arena.index(&stored).slot(e), want, "{what}: {e}");
                }
                for (i, (a, m)) in arena.slab().iter().zip(&model.data).enumerate() {
                    assert_eq!(a.to_bits(), m.to_bits(), "{what}: slab element {i}");
                }
            }
        }
        assert!(refused > 0, "no sequence ever filled the arena");
    }
}
