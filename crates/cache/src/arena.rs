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
/// Reads follow the placement, so a refresh changes nothing a read can
/// reach until [`GpuArena::restack`] installs the next stored row: an
/// eviction marks its entry's slot [`VACANT`] (reads of it fall to host),
/// and an insertion of an entry the placement does not store yet writes
/// into a free slot recorded in `pending`, which no read can reach.
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
    /// `(entry, slot)` of every row written for an entry the stored row
    /// does not hold yet, in insertion order.
    pending: Vec<(u32, u32)>,
    /// Rows held: live slots plus pending ones.
    len: usize,
    /// Slots freed by evictions, the most recent last: they are handed
    /// out again before any slot from `fresh` on (a LIFO free list).
    freed: Vec<u32>,
    /// Slots `fresh..capacity` have never been handed out.
    fresh: u32,
}

impl GpuArena {
    /// An arena with room for `capacity` rows of `host`'s width, holding
    /// the rows of the entries `stored` sets, each read from `host`
    /// straight into its slot. Slots are dealt in entry order, so the
    /// slot table starts out as the identity.
    ///
    /// # Panics
    ///
    /// Panics if `stored` sets more than `capacity` entries.
    pub fn filled(capacity: usize, stored: &BitRow, host: &HostTable) -> Self {
        let dim = host.dim();
        let held = stored.count_ones();
        assert!(held <= capacity, "arena full ({capacity} entries)");
        let mut data = vec![0.0; capacity * dim];
        for (row, e) in data.chunks_exact_mut(dim.max(1)).zip(stored.ones()) {
            host.read_into(e as u32, &mut row[..dim]);
        }
        GpuArena {
            dim,
            capacity,
            data,
            rank: rank_directory(stored),
            slots: (0..held as u32).collect(),
            pending: Vec::new(),
            len: held,
            freed: Vec::new(),
            fresh: held as u32,
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

    /// `entry`'s rank among the entries `stored` holds, if it holds it.
    fn rank_of(&self, stored: &BitRow, entry: u32) -> Option<usize> {
        self.index(stored).rank_of(entry)
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

    /// Hands out a slot's `dim` floats for `entry`'s row, to be produced
    /// in place: the slot `entry` occupies if `stored` holds it and it is
    /// live, else a free one — back into its rank if `stored` holds it,
    /// pending otherwise. A freshly claimed slot still holds its previous
    /// occupant's values.
    ///
    /// An entry `stored` does not hold may be inserted once between two
    /// [`GpuArena::restack`]s; the second pending row is refused there.
    ///
    /// # Panics
    ///
    /// Panics if a free slot is needed and there is none.
    pub fn insert_row(&mut self, stored: &BitRow, entry: u32) -> &mut [f32] {
        let slot = match self.rank_of(stored, entry) {
            Some(r) if self.slots[r] != VACANT => self.slots[r],
            Some(r) => {
                let slot = self.claim();
                self.slots[r] = slot;
                slot
            }
            None => {
                let slot = self.claim();
                self.pending.push((entry, slot));
                slot
            }
        };
        let base = slot as usize * self.dim;
        &mut self.data[base..base + self.dim]
    }

    /// Frees the row of an entry `stored` holds; returns whether there was
    /// one. Pending rows are not evicted.
    pub fn evict(&mut self, stored: &BitRow, entry: u32) -> bool {
        let Some(r) = self.rank_of(stored, entry) else {
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
    /// refresh): an entry both hold keeps its slot, an entry only `new`
    /// holds takes its pending row. The evicted entries are checked by
    /// rank, the pending ones by a bit test; then one merge pass walks the
    /// old slot table in entry order, skipping vacant places, and puts each
    /// pending row where `new` ranks its entry.
    ///
    /// # Panics
    ///
    /// Panics, naming GPU `gpu` and the entry, if an entry only `old`
    /// holds still has a row, a pending row's entry is not one only `new`
    /// holds or was inserted twice, or `new` holds an entry with no row.
    pub fn restack(&mut self, gpu: usize, old: &BitRow, new: &BitRow) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by_key(|&(e, _)| e);
        let mut inserted = 0;
        for (w, (&was, &will)) in old.words().iter().zip(new.words()).enumerate() {
            inserted += (will & !was).count_ones() as usize;
            let mut gone = was & !will;
            while gone != 0 {
                let bit = gone & gone.wrapping_neg();
                gone ^= bit;
                let r = self.rank[w] as usize + (was & (bit - 1)).count_ones() as usize;
                assert!(
                    self.slots[r] == VACANT,
                    "GPU{gpu} still holds entry {}, which its new placement does not store",
                    w * WORD_BITS + bit.trailing_zeros() as usize
                );
            }
        }
        let rank = rank_directory(new);
        // Where each pending row goes in the new table, then a stop.
        let mut places = Vec::with_capacity(pending.len() + 1);
        for (k, &(e, _)) in pending.iter().enumerate() {
            let (w, bit) = (e as usize / WORD_BITS, 1u64 << (e % WORD_BITS as u32));
            let (was, will) = (old.words()[w], new.words()[w]);
            assert!(
                will & !was & bit != 0,
                "GPU{gpu} holds a row for entry {e}, which its new placement does not store"
            );
            assert!(
                k == 0 || pending[k - 1].0 != e,
                "GPU{gpu}: entry {e} inserted twice"
            );
            places.push(rank[w] as usize + (will & (bit - 1)).count_ones() as usize);
        }
        places.push(usize::MAX);
        let n = new.count_ones();
        // One place to spare: a vacant slot is written, then overwritten.
        let mut slots = vec![0; n + 1];
        let (mut out, mut k) = (0, 0);
        let mut place_pending = |out: &mut usize, slots: &mut [u32]| {
            while *out == places[k] {
                slots[*out] = pending[k].1;
                (*out, k) = (*out + 1, k + 1);
            }
        };
        for &slot in &self.slots {
            place_pending(&mut out, &mut slots);
            slots[out] = slot;
            out += usize::from(slot != VACANT);
        }
        place_pending(&mut out, &mut slots);
        if out != n || k != pending.len() || inserted != pending.len() {
            let e = new
                .ones()
                .find(|&e| {
                    let row = if old.get(e) {
                        self.index(old).slot(e as u32).is_some()
                    } else {
                        pending.binary_search_by_key(&(e as u32), |p| p.0).is_ok()
                    };
                    !row
                })
                .expect("an entry without a row");
            panic!("GPU{gpu} stores entry {e} but holds no row for it");
        }
        slots.truncate(n);
        self.rank = rank;
        self.slots = slots;
    }

    /// The raw backing slab: `capacity × dim` floats, slot-major.
    ///
    /// Row `s` occupies `slab()[s * dim .. (s + 1) * dim]`. Exposed so
    /// blocked gather paths can stream many rows out of one slab without
    /// a bounds-checked call per row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// The rows written for entries the stored row does not hold yet, as
    /// `(entry, slot)` in insertion order.
    pub fn pending(&self) -> &[(u32, u32)] {
        &self.pending
    }

    /// Checks that every slot is in exactly one place — a live rank, a
    /// pending row, the freed list or the never-used tail — and that the
    /// slot table has one place per entry `stored` holds.
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
        let held = live.clone().count() + self.pending.len();
        if held != self.len {
            return Err(format!("{held} rows held, {} counted", self.len));
        }
        let mut seen = vec![false; self.capacity];
        let pending = self.pending.iter().map(|&(_, s)| s);
        let freed = self.freed.iter().copied();
        for s in live
            .chain(pending)
            .chain(freed)
            .chain(self.fresh..self.capacity as u32)
        {
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

/// The rank directory of `stored`: the set bits before each word.
fn rank_directory(stored: &BitRow) -> Vec<u32> {
    let mut before = 0;
    stored
        .words()
        .iter()
        .map(|w| {
            let rank = before;
            before += w.count_ones();
            rank
        })
        .collect()
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
    fn insert_read_roundtrip() {
        let (empty, held) = (stored_row(9, []), stored_row(9, [7]));
        let mut a = GpuArena::filled(4, &empty, &HostTable::procedural(9, 3));
        a.insert_row(&empty, 7).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a.index(&empty).slot(7), None, "pending until the restack");
        a.restack(0, &empty, &held);
        let off = a.index(&held).slot(7).expect("restacked");
        assert_eq!(row(&a, off), [1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let stored = stored_row(9, [1]);
        let mut a = GpuArena::filled(2, &stored, &HostTable::procedural(9, 2));
        a.insert_row(&stored, 1).copy_from_slice(&[2.0, 2.0]);
        assert_eq!(a.len(), 1);
        assert_eq!(row(&a, a.index(&stored).slot(1).unwrap()), [2.0, 2.0]);
    }

    #[test]
    fn evict_frees_slot_for_reuse() {
        let stored = stored_row(9, [5]);
        let mut a = GpuArena::filled(1, &stored, &HostTable::procedural(9, 1));
        assert!(a.evict(&stored, 5));
        assert!(!a.evict(&stored, 5));
        // Capacity freed: a new insert must succeed.
        a.insert_row(&stored, 6).fill(6.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.pending(), [(6, 0)]);
    }

    #[test]
    #[should_panic(expected = "arena full (3 entries)")]
    fn overfull_panics() {
        let stored = stored_row(9, [1, 4, 8]);
        let mut a = GpuArena::filled(3, &stored, &HostTable::procedural(9, 1));
        a.insert_row(&stored, 2);
    }

    #[test]
    #[should_panic(expected = "GPU3 stores entry 70 but holds no row for it")]
    fn a_restack_refuses_a_stored_entry_without_a_row() {
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &HostTable::procedural(130, 1));
        a.evict(&old, 70);
        a.restack(3, &old, &old);
    }

    #[test]
    #[should_panic(expected = "GPU0 stores entry 129 but holds no row for it")]
    fn a_restack_refuses_a_new_entry_no_insertion_wrote() {
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &HostTable::procedural(130, 1));
        a.restack(0, &old, &stored_row(130, [1, 70, 129]));
    }

    #[test]
    #[should_panic(
        expected = "GPU1 holds a row for entry 5, which its new placement does not store"
    )]
    fn a_restack_refuses_a_pending_row_the_new_row_lacks() {
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &HostTable::procedural(130, 1));
        a.insert_row(&old, 5);
        a.insert_row(&old, 9);
        a.restack(1, &old, &stored_row(130, [1, 9, 70]));
    }

    #[test]
    #[should_panic(expected = "GPU2 still holds entry 70, which its new placement does not store")]
    fn a_restack_refuses_a_row_nobody_evicted() {
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &HostTable::procedural(130, 1));
        a.restack(2, &old, &stored_row(130, [1]));
    }

    #[test]
    #[should_panic(expected = "GPU0: entry 9 inserted twice")]
    fn a_restack_refuses_an_entry_inserted_twice() {
        let old = stored_row(130, [1, 70]);
        let mut a = GpuArena::filled(4, &old, &HostTable::procedural(130, 1));
        a.insert_row(&old, 9);
        a.insert_row(&old, 9);
        a.restack(0, &old, &stored_row(130, [1, 9, 70]));
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

        fn insert(&mut self, entry: u32, values: &[f32]) -> u32 {
            let free = &mut self.free;
            let slot = *self
                .slots
                .entry(entry)
                .or_insert_with(|| free.pop().expect("the driver never overfills the model"));
            let base = slot as usize * self.dim;
            self.data[base..base + self.dim].copy_from_slice(values);
            slot
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
        // Fills, evictions, insertions one at a time and in runs (repeats
        // allowed for stored entries, whose later row must win; evictions
        // scramble the free list, so runs land on scattered slots) and
        // restacks onto the entries the model holds. Between restacks an
        // entry the stored row lacks is inserted at most once and never
        // evicted, as a refresh does.
        const CAP: usize = 24;
        const DIM: usize = 3;
        const N: usize = 200;
        // A crowded low range so re-inserts, evictions and slot reuse are
        // common, and a few ids on and past word edges.
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
            let mut stamp = 0.0f32;
            let mut row = || -> [f32; DIM] {
                stamp += 1.0;
                [stamp, -stamp, stamp * 0.5]
            };
            for step in 0..600 {
                let what = format!("seed {seed} step {step}");
                let pending = |arena: &GpuArena, e: u32| arena.pending.iter().any(|p| p.0 == e);
                match rng.gen_range(0..6) {
                    0 => {
                        let e = pick(&mut rng);
                        if !pending(&arena, e) {
                            let evicted = arena.evict(&stored, e);
                            assert_eq!(evicted, model.evict(e), "{what}: evict {e}");
                        }
                    }
                    1 => {
                        // Up to five rows at once, never more new entries
                        // than there is room for.
                        let mut room = CAP - model.slots.len();
                        for _ in 0..rng.gen_range(0..6) {
                            let e = pick(&mut rng);
                            let known = model.slots.contains_key(&e);
                            if (known && stored.get(e as usize)) || (!known && room > 0) {
                                room -= usize::from(!known);
                                let values = row();
                                arena.insert_row(&stored, e).copy_from_slice(&values);
                                model.insert(e, &values);
                            }
                        }
                    }
                    2 => {
                        let next = stored_row(N, model.slots.keys().copied());
                        arena.restack(0, &stored, &next);
                        stored = next;
                        assert!(arena.pending.is_empty(), "{what}");
                    }
                    _ => {
                        let e = pick(&mut rng);
                        let known = model.slots.contains_key(&e);
                        if model.slots.len() == CAP && !known {
                            // The checks below hold the refused insert
                            // to having left no trace.
                            let full =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    arena.insert_row(&stored, e).fill(0.0);
                                }))
                                .expect_err("a new entry does not fit a full arena");
                            let message = full.downcast_ref::<String>().expect("a formatted panic");
                            assert!(message.contains("arena full"), "{what}: {message}");
                            refused += 1;
                        } else if !known || stored.get(e as usize) {
                            let values = row();
                            arena.insert_row(&stored, e).copy_from_slice(&values);
                            let slot = model.insert(e, &values);
                            let got = arena
                                .index(&stored)
                                .slot(e)
                                .or_else(|| arena.pending.iter().find(|p| p.0 == e).map(|p| p.1));
                            assert_eq!(got, Some(slot), "{what}: insert {e}");
                        }
                    }
                }
                assert_eq!(arena.len(), model.slots.len(), "{what}");
                arena
                    .check_slots(&stored)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                for &e in &ids {
                    let want = model.slots.get(&e).copied();
                    match want {
                        Some(slot) if !stored.get(e as usize) => {
                            // Held but not stored: pending, out of reads' reach.
                            assert_eq!(arena.index(&stored).slot(e), None, "{what}: {e}");
                            assert!(arena.pending.contains(&(e, slot)), "{what}: {e}");
                        }
                        _ => assert_eq!(arena.index(&stored).slot(e), want, "{what}: {e}"),
                    }
                }
                for (i, (a, m)) in arena.slab().iter().zip(&model.data).enumerate() {
                    assert_eq!(a.to_bits(), m.to_bits(), "{what}: slab element {i}");
                }
            }
        }
        assert!(refused > 0, "no sequence ever filled the arena");
    }
}
