//! Per-GPU cache storage.

/// Index value of an entry the arena does not hold. No slot can have it:
/// slots are numbered below a capacity that itself fits a `u32`.
const VACANT: u32 = u32::MAX;

/// One GPU's embedding-cache arena: `capacity × dim` f32 slots plus the
/// entry→slot index. Stands in for a GPU HBM allocation.
#[derive(Debug, Clone)]
pub struct GpuArena {
    dim: usize,
    capacity: usize,
    data: Vec<f32>,
    /// `index[entry]`: the slot holding `entry`, or [`VACANT`]. Dense,
    /// grown on demand to the highest id ever stored.
    index: Vec<u32>,
    /// Entries currently cached.
    len: usize,
    /// Free slot indices (reverse order so allocation is LIFO).
    free: Vec<u32>,
}

impl GpuArena {
    /// Creates an arena with room for `capacity` entries of `dim` floats.
    pub fn new(capacity: usize, dim: usize) -> Self {
        GpuArena {
            dim,
            capacity,
            data: vec![0.0; capacity * dim],
            index: Vec::new(),
            len: 0,
            free: (0..capacity as u32).rev().collect(),
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Slot offset of a cached entry.
    pub fn offset_of(&self, entry: u32) -> Option<u32> {
        self.index
            .get(entry as usize)
            .copied()
            .filter(|&slot| slot != VACANT)
    }

    /// The slot `entry` occupies, taking one off the free list if it is
    /// not cached yet.
    fn claim_slot(&mut self, entry: u32) -> u32 {
        let e = entry as usize;
        if e >= self.index.len() {
            self.index.resize(e + 1, VACANT);
        }
        if self.index[e] == VACANT {
            let capacity = self.capacity;
            self.index[e] = self
                .free
                .pop()
                .unwrap_or_else(|| panic!("arena full ({capacity} entries)"));
            self.len += 1;
        }
        self.index[e]
    }

    /// Claims a slot for `entry` — the one it already occupies if it is
    /// cached — and hands out the slot's `dim` floats for the caller to
    /// fill, so a row can be produced in place instead of copied in.
    /// A freshly claimed slot still holds its previous occupant's values.
    ///
    /// # Panics
    ///
    /// Panics if the arena is full.
    pub fn insert_row(&mut self, entry: u32) -> &mut [f32] {
        let base = self.claim_slot(entry) as usize * self.dim;
        &mut self.data[base..base + self.dim]
    }

    /// Bulk-inserts `entries` with their rows packed contiguously in
    /// `rows` (`entries.len() × dim` floats, entry order).
    ///
    /// Equivalent to filling [`GpuArena::insert_row`] once per entry, but the
    /// copy loop coalesces runs of adjacent destination slots into single
    /// `copy_from_slice` calls — on a fresh arena the LIFO free list
    /// hands out consecutive slots, so a filler pass becomes a handful of
    /// large block copies instead of one bounds-checked copy per row.
    /// Bitwise-identical to the per-row path (it moves the same bytes).
    ///
    /// # Panics
    ///
    /// Panics if the arena runs out of capacity or
    /// `rows.len() != entries.len() * dim`.
    pub fn insert_many(&mut self, entries: &[u32], rows: &[f32]) {
        assert_eq!(
            rows.len(),
            entries.len() * self.dim,
            "rows buffer must be entries × dim"
        );
        // Pass 1: allocate a slot per entry (dedup-aware — a repeated
        // entry reuses its slot, matching repeated `insert_row` calls).
        let slots: Vec<u32> = entries.iter().map(|&e| self.claim_slot(e)).collect();
        // Pass 2: copy maximal runs of consecutive destination slots.
        let dim = self.dim;
        let mut i = 0;
        while i < slots.len() {
            let mut j = i + 1;
            while j < slots.len() && slots[j] == slots[j - 1] + 1 {
                j += 1;
            }
            let dst = slots[i] as usize * dim;
            self.data[dst..dst + (j - i) * dim].copy_from_slice(&rows[i * dim..j * dim]);
            i = j;
        }
    }

    /// Evicts an entry; returns whether it was present.
    pub fn evict(&mut self, entry: u32) -> bool {
        match self.offset_of(entry) {
            Some(s) => {
                self.index[entry as usize] = VACANT;
                self.len -= 1;
                self.free.push(s);
                true
            }
            None => false,
        }
    }

    /// The raw backing slab: `capacity × dim` floats, slot-major.
    ///
    /// Row `s` occupies `slab()[s * dim .. (s + 1) * dim]`. Exposed so
    /// blocked gather paths can stream many rows out of one slab without
    /// a bounds-checked call per row.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashMap;

    /// Claims `entry`'s slot and writes `values` there; returns the slot.
    fn insert(a: &mut GpuArena, entry: u32, values: &[f32]) -> u32 {
        a.insert_row(entry).copy_from_slice(values);
        a.offset_of(entry).expect("just inserted")
    }

    /// The row at slot `offset`.
    fn row(a: &GpuArena, offset: u32) -> &[f32] {
        &a.slab()[offset as usize * a.dim..(offset as usize + 1) * a.dim]
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut a = GpuArena::new(4, 3);
        let off = insert(&mut a, 7, &[1.0, 2.0, 3.0]);
        assert_eq!(row(&a, off), [1.0, 2.0, 3.0]);
        assert_eq!(a.offset_of(7), Some(off));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let mut a = GpuArena::new(2, 2);
        let o1 = insert(&mut a, 1, &[1.0, 1.0]);
        let o2 = insert(&mut a, 1, &[2.0, 2.0]);
        assert_eq!(o1, o2);
        assert_eq!(a.len(), 1);
        assert_eq!(row(&a, o2), [2.0, 2.0]);
    }

    #[test]
    fn evict_frees_slot_for_reuse() {
        let mut a = GpuArena::new(1, 1);
        insert(&mut a, 5, &[5.0]);
        assert!(a.evict(5));
        assert!(!a.evict(5));
        // Capacity freed: a new insert must succeed.
        insert(&mut a, 6, &[6.0]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arena full")]
    fn overfull_panics() {
        let mut a = GpuArena::new(1, 1);
        insert(&mut a, 1, &[1.0]);
        insert(&mut a, 2, &[2.0]);
    }

    /// Reference per-row fill loop `insert_many` must match bitwise.
    fn insert_rows_one_by_one(a: &mut GpuArena, entries: &[u32], rows: &[f32], dim: usize) {
        for (i, &e) in entries.iter().enumerate() {
            insert(a, e, &rows[i * dim..(i + 1) * dim]);
        }
    }

    #[test]
    fn insert_many_is_bitwise_identical_to_per_row_inserts() {
        let dim = 5;
        // Non-trivial values (including denormal-ish magnitudes) and a
        // duplicated entry whose later row must win, like repeated inserts.
        let entries: Vec<u32> = vec![9, 2, 5, 2, 30, 31, 32, 7];
        let rows: Vec<f32> = (0..entries.len() * dim)
            .map(|i| (i as f32 - 11.0) * 1.0e-7)
            .collect();
        let mut bulk = GpuArena::new(64, dim);
        bulk.insert_many(&entries, &rows);
        let mut reference = GpuArena::new(64, dim);
        insert_rows_one_by_one(&mut reference, &entries, &rows, dim);
        assert_eq!(bulk.len(), reference.len());
        for &e in &entries {
            assert_eq!(bulk.offset_of(e), reference.offset_of(e), "entry {e}");
        }
        let (b, r) = (bulk.slab(), reference.slab());
        assert_eq!(b.len(), r.len());
        for (i, (x, y)) in b.iter().zip(r).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "slab element {i}");
        }
    }

    #[test]
    fn insert_many_coalesces_after_fragmentation() {
        // Evictions scramble the free list, so bulk inserts land on
        // non-consecutive slots; values must still match per-row inserts.
        let dim = 3;
        let mut bulk = GpuArena::new(8, dim);
        let mut reference = GpuArena::new(8, dim);
        for a in [&mut bulk, &mut reference] {
            for e in 0..8u32 {
                insert(a, e, &[e as f32; 3]);
            }
            a.evict(6);
            a.evict(1);
            a.evict(3);
        }
        let entries = [10u32, 11, 12];
        let rows: Vec<f32> = (0..9).map(|i| i as f32 * 0.125).collect();
        bulk.insert_many(&entries, &rows);
        insert_rows_one_by_one(&mut reference, &entries, &rows, dim);
        for (x, y) in bulk.slab().iter().zip(reference.slab()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "arena full")]
    fn insert_many_overflow_panics() {
        let mut a = GpuArena::new(2, 1);
        a.insert_many(&[1, 2, 3], &[1.0, 2.0, 3.0]);
    }

    /// The arena as it was indexed before the dense index — a `HashMap`
    /// beside the same LIFO free list — kept as the model the dense one
    /// must match offset for offset.
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
        const CAP: usize = 24;
        const DIM: usize = 3;
        // A crowded low range so re-inserts, evictions and slot reuse are
        // common, and a few ids far beyond it so the index has to grow.
        let ids: Vec<u32> = (0..40).chain([977, 65_536, 3_000_000]).collect();
        let mut refused = 0;
        for seed in 0..20u64 {
            let mut rng = emb_util::seed_rng(seed);
            let mut arena = GpuArena::new(CAP, DIM);
            let mut model = MapArena::new(CAP, DIM);
            let mut stamp = 0.0f32;
            let mut row = || -> [f32; DIM] {
                stamp += 1.0;
                [stamp, -stamp, stamp * 0.5]
            };
            for step in 0..600 {
                let pick = |rng: &mut rand::rngs::StdRng| ids[rng.gen_range(0..ids.len())];
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0..4) {
                    0 => {
                        let e = pick(&mut rng);
                        assert_eq!(arena.evict(e), model.evict(e), "{what}: evict {e}");
                    }
                    1 => {
                        // Up to five rows at once, repeats allowed, never
                        // more new entries than there is room for.
                        let mut room = CAP - model.slots.len();
                        let mut batch: Vec<u32> = Vec::new();
                        for _ in 0..rng.gen_range(0..6) {
                            let e = pick(&mut rng);
                            let known = model.slots.contains_key(&e) || batch.contains(&e);
                            if known || room > 0 {
                                room -= usize::from(!known);
                                batch.push(e);
                            }
                        }
                        let rows: Vec<f32> = batch.iter().flat_map(|_| row()).collect();
                        arena.insert_many(&batch, &rows);
                        for (e, values) in batch.iter().zip(rows.chunks_exact(DIM)) {
                            model.insert(*e, values);
                        }
                    }
                    _ => {
                        let e = pick(&mut rng);
                        if model.slots.len() == CAP && !model.slots.contains_key(&e) {
                            // The checks below hold the refused insert
                            // to having left no trace.
                            let full =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    insert(&mut arena, e, &[0.0; DIM])
                                }))
                                .expect_err("a new entry does not fit a full arena");
                            let message = full.downcast_ref::<String>().expect("a formatted panic");
                            assert!(message.contains("arena full"), "{what}: {message}");
                            refused += 1;
                        } else {
                            let values = row();
                            let slot = insert(&mut arena, e, &values);
                            assert_eq!(slot, model.insert(e, &values), "{what}: insert {e}");
                        }
                    }
                }
                assert_eq!(arena.len(), model.slots.len(), "{what}");
                for &e in &ids {
                    assert_eq!(
                        arena.offset_of(e),
                        model.slots.get(&e).copied(),
                        "{what}: {e}"
                    );
                }
                // Never stored: inside the index, just past it, far past it.
                for e in [40, 3_000_001, u32::MAX] {
                    assert_eq!(arena.offset_of(e), None, "{what}: {e}");
                }
                for (i, (a, m)) in arena.slab().iter().zip(&model.data).enumerate() {
                    assert_eq!(a.to_bits(), m.to_bits(), "{what}: slab element {i}");
                }
            }
        }
        assert!(refused > 0, "no sequence ever filled the arena");
    }
}
