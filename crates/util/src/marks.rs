//! Distinct keys in ascending order by mark-and-scan.
//!
//! A batch generator draws keys with heavy repetition — a GraphSAGE
//! batch visits 217 k vertices to keep 9 k — and owes the extraction
//! layer every distinct key once, ascending. [`KeyMarks`] gets there
//! without a comparison sort: one bit per key, set as keys are drawn,
//! read back in order.
//!
//! Neither step may cost the key space (26 k draws over CR's 882 M keys
//! must not scan 14 M words), so above the key bits sit summary levels,
//! one bit per word of the level below, set while that word is non-zero,
//! up to a single word. Marking climbs only while it turns a zero word
//! non-zero; [`KeyMarks::take_sorted`] descends from the top through set
//! bits only and zeroes every word it leaves. Both are O(keys marked ×
//! levels) whatever the key space — five levels at 2³⁰ keys — and the
//! structure is clean for the next batch without a sweep.

/// A reusable set of `u32` keys below a fixed bound (module docs).
#[derive(Debug, Clone)]
pub struct KeyMarks {
    /// One bit per key.
    bits: Vec<u64>,
    /// `summaries[0]`: one bit per word of `bits`; `summaries[l + 1]`: one
    /// bit per word of `summaries[l]`. The last is one word; there is
    /// none when `bits` itself is one word.
    summaries: Vec<Vec<u64>>,
    /// Distinct keys marked since the last [`KeyMarks::take_sorted`].
    marked: usize,
}

impl KeyMarks {
    /// An empty set over keys `0..key_space`.
    pub fn new(key_space: usize) -> Self {
        let words = |bits: usize| bits.div_ceil(64).max(1);
        let bits = vec![0u64; words(key_space)];
        let mut summaries: Vec<Vec<u64>> = Vec::new();
        let mut below = bits.len();
        while below > 1 {
            summaries.push(vec![0u64; words(below)]);
            below = words(below);
        }
        KeyMarks {
            bits,
            summaries,
            marked: 0,
        }
    }

    /// Adds `key` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `key` lies beyond the last word of the key space.
    #[inline]
    pub fn mark(&mut self, key: u32) {
        let (word, bit) = (key as usize >> 6, 1u64 << (key & 63));
        let before = self.bits[word];
        if before & bit != 0 {
            return;
        }
        self.bits[word] = before | bit;
        self.marked += 1;
        if before == 0 {
            self.summarize(word);
        }
    }

    /// Records in the summary levels that word `at` of `bits` has become
    /// non-zero.
    fn summarize(&mut self, mut at: usize) {
        for level in &mut self.summaries {
            let (word, bit) = (at >> 6, 1u64 << (at & 63));
            let before = level[word];
            level[word] = before | bit;
            if before != 0 {
                return;
            }
            at = word;
        }
    }

    /// Removes and returns every marked key, ascending, in a vector
    /// allocated at exactly their number.
    pub fn take_sorted(&mut self) -> Vec<u32> {
        let mut keys = Vec::with_capacity(self.marked);
        self.marked = 0;
        self.drain_below(self.summaries.len(), 0, &mut keys);
        keys
    }

    /// Zeroes word `word` of level `level` (0: `bits`; `l + 1`:
    /// `summaries[l]`) and everything set below it, pushing the keys
    /// found there in ascending order.
    fn drain_below(&mut self, level: usize, word: usize, keys: &mut Vec<u32>) {
        let Some(above) = level.checked_sub(1) else {
            let mut set = std::mem::take(&mut self.bits[word]);
            while set != 0 {
                keys.push(((word << 6) | set.trailing_zeros() as usize) as u32);
                set &= set - 1;
            }
            return;
        };
        let mut set = std::mem::take(&mut self.summaries[above][word]);
        while set != 0 {
            self.drain_below(above, (word << 6) | set.trailing_zeros() as usize, keys);
            set &= set - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seed_rng;
    use rand::Rng;

    #[test]
    fn takes_what_sort_and_dedup_keep() {
        // Key spaces of one word, one summary word, and three and four
        // levels; draws sparse and dense; the same marks reused throughout.
        for key_space in [1usize, 64, 65, 4096, 4097, 300_000, 20_000_000] {
            let mut marks = KeyMarks::new(key_space);
            let mut rng = seed_rng(key_space as u64);
            for draws in [0usize, 1, 50, 5_000, 100_000] {
                let drawn: Vec<u32> = (0..draws)
                    .map(|_| rng.gen_range(0..key_space as u32))
                    .collect();
                for &k in &drawn {
                    marks.mark(k);
                }
                let mut expected = drawn;
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(marks.marked, expected.len());
                let taken = marks.take_sorted();
                assert_eq!(taken, expected, "key space {key_space}, {draws} draws");
                assert_eq!(taken.capacity(), taken.len());
                assert_eq!(marks.marked, 0);
                assert!(
                    marks.bits.iter().all(|&w| w == 0)
                        && marks.summaries.iter().flatten().all(|&w| w == 0),
                    "take_sorted left a bit behind"
                );
            }
        }
    }

    #[test]
    fn first_and_last_keys_of_the_space() {
        let mut marks = KeyMarks::new(1_000_000);
        for k in [999_999, 0, 999_999, 64, 63, 0] {
            marks.mark(k);
        }
        assert_eq!(marks.take_sorted(), vec![0, 63, 64, 999_999]);
    }

    #[test]
    fn levels_shrink_by_sixty_four_down_to_one_word() {
        let sizes = |key_space| -> Vec<usize> {
            let marks = KeyMarks::new(key_space);
            std::iter::once(&marks.bits)
                .chain(&marks.summaries)
                .map(Vec::len)
                .collect()
        };
        assert_eq!(sizes(0), vec![1]);
        assert_eq!(sizes(64), vec![1]);
        assert_eq!(sizes(65), vec![2, 1]);
        assert_eq!(sizes(300_000), vec![4688, 74, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_key_beyond_the_space_panics() {
        KeyMarks::new(100).mark(128);
    }
}
