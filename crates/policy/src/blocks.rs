//! Log-scale hotness batching (§6.3, Figure 9).
//!
//! Entries with similar hotness get near-identical placement decisions,
//! so the solver groups them into *blocks* and decides per block. Levels
//! are log-scale in hotness (a 110→120 difference matters less than
//! 10→20); within a level, block size is capped both coarsely (a fixed
//! fraction of all entries, bounding cold-tail blocks) and finely (each
//! level splits into at least `min_splits` blocks so low cache ratios can
//! still place sub-level fractions).

use crate::types::Hotness;
use std::ops::Range;

/// Block-building tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockConfig {
    /// Maximum block size as a fraction of total entries (paper: 0.5 %).
    pub coarse_cap: f64,
    /// Minimum number of blocks per hotness level (paper: the GPU count).
    pub min_splits: usize,
    /// Upper bound on total blocks; adjacent same-level blocks are merged
    /// to respect it (keeps the LP small on huge entry counts).
    pub max_blocks: usize,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            coarse_cap: 0.005,
            min_splits: 8,
            max_blocks: 256,
        }
    }
}

/// A group of entries with similar hotness, placed as a unit (possibly
/// split fractionally by the solver).
///
/// Its entries, hottest first, are `hot` and then a stretch of the
/// hotness's zero tail: the zero-weight entries are one level, after
/// every non-zero entry and in index order, and a block names them by
/// position ([`Hotness::zero_entries`]) rather than listing them.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's non-zero entries, hottest first.
    pub hot: Vec<u32>,
    /// The positions in the zero tail the block ends with (empty for a
    /// block of non-zero entries only).
    pub zeros: Range<usize>,
    /// Summed *normalized* hotness of the entries.
    pub weight: f64,
    /// Log-scale hotness level (0 = hottest).
    pub level: u32,
}

impl Block {
    /// Number of entries in the block.
    pub fn size(&self) -> usize {
        self.hot.len() + self.zeros.len()
    }

    /// The entries at `positions` of the block, in order; `hotness` is the
    /// one the block was built from.
    ///
    /// # Panics
    ///
    /// Panics if `positions` reaches past the block's size.
    pub fn entries_at<'h>(
        &'h self,
        hotness: &'h Hotness,
        positions: Range<usize>,
    ) -> impl Iterator<Item = u32> + 'h {
        assert!(positions.end <= self.size(), "positions past the block");
        let n = self.hot.len();
        let hot = &self.hot[positions.start.min(n)..positions.end.min(n)];
        let zeros = self.zeros.start + positions.start.saturating_sub(n)
            ..self.zeros.start + positions.end.saturating_sub(n);
        hot.iter().copied().chain(hotness.zero_entries(zeros))
    }

    /// Every entry of the block, hottest first.
    pub fn entries<'h>(&'h self, hotness: &'h Hotness) -> impl Iterator<Item = u32> + 'h {
        self.entries_at(hotness, 0..self.size())
    }

    /// Appends the next block's entries and weight.
    fn absorb(&mut self, next: Block) {
        debug_assert!(
            next.hot.is_empty() || self.zeros.is_empty(),
            "non-zero entries after zero ones"
        );
        self.hot.extend(next.hot);
        if self.zeros.is_empty() {
            self.zeros = next.zeros;
        } else if !next.zeros.is_empty() {
            self.zeros.end = next.zeros.end;
        }
        self.weight += next.weight;
    }
}

/// Level of the zero-weight entries, below every level a weight gets.
const ZERO_LEVEL: u32 = 61;

/// Batches entries into hotness blocks.
///
/// Zero-hotness entries form the final level. The concatenation of all
/// blocks' entries is [`Hotness::ranking`]: every entry once, hottest
/// first, ties by id. Only the non-zero weights are visited; the zero
/// level is cut by count.
pub fn build_blocks(hotness: &Hotness, cfg: &BlockConfig) -> Vec<Block> {
    let e = hotness.len();
    if e == 0 {
        return Vec::new();
    }
    let total = hotness.total();
    // Positions of the non-zero weights, hottest first: each `(id,
    // weight)` is read through the hotness, with no ranked copy of them.
    let ranked = hotness.rank_positions();
    let at = |k: u32| hotness.nonzero_at(k);
    let h_max = ranked.first().map_or(0.0, |&k| at(k).1);
    // Levels on a log2 scale relative to the hottest entry.
    let level_of = |w: f64| -> u32 { (h_max / w).log2().floor().clamp(0.0, 60.0) as u32 };

    // Fine split: at least `min_splits` blocks per level (floor-based so
    // the remainder becomes an extra block); coarse cap on top.
    let coarse = ((cfg.coarse_cap * e as f64).ceil() as usize).max(1);
    let per_block = |count: usize| (count / cfg.min_splits.max(1)).clamp(1, coarse);

    // Walk the ranking, cutting level runs into capped blocks.
    let mut blocks: Vec<Block> = Vec::new();
    let mut i = 0usize;
    while i < ranked.len() {
        let level = level_of(at(ranked[i]).1);
        let mut j = i + 1;
        while j < ranked.len() && level_of(at(ranked[j]).1) == level {
            j += 1;
        }
        for part in ranked[i..j].chunks(per_block(j - i)) {
            blocks.push(Block {
                hot: part.iter().map(|&k| at(k).0).collect(),
                zeros: 0..0,
                weight: part.iter().map(|&k| at(k).1 / total).sum(),
                level,
            });
        }
        i = j;
    }
    let zeros = e - ranked.len();
    let step = per_block(zeros);
    for start in (0..zeros).step_by(step) {
        blocks.push(Block {
            hot: Vec::new(),
            zeros: start..(start + step).min(zeros),
            // A zero entry's share is `+0.0`, and so is their sum.
            weight: 0.0,
            level: ZERO_LEVEL,
        });
    }

    // Merge pass to respect max_blocks: repeatedly merge the smallest
    // adjacent same-level pair.
    while blocks.len() > cfg.max_blocks.max(1) {
        let mut best: Option<(usize, usize)> = None; // (index, combined size)
        for k in 0..blocks.len() - 1 {
            if blocks[k].level != blocks[k + 1].level {
                continue;
            }
            let sz = blocks[k].size() + blocks[k + 1].size();
            if best.is_none_or(|(_, s)| sz < s) {
                best = Some((k, sz));
            }
        }
        // No same-level pair left: merge the smallest adjacent pair of
        // different levels (keeps termination guaranteed).
        let k = best.map_or_else(
            || {
                (0..blocks.len() - 1)
                    .min_by_key(|&k| blocks[k].size() + blocks[k + 1].size())
                    .expect("at least two blocks")
            },
            |(k, _)| k,
        );
        let b = blocks.remove(k + 1);
        blocks[k].absorb(b);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use emb_util::zipf::powerlaw_hotness;

    fn powerlaw(n: usize) -> Hotness {
        Hotness::new(powerlaw_hotness(n, 1.2))
    }

    #[test]
    fn blocks_partition_all_entries() {
        let h = powerlaw(10_000);
        let blocks = build_blocks(&h, &BlockConfig::default());
        let mut all: Vec<u32> = blocks.iter().flat_map(|b| b.entries(&h)).collect();
        assert_eq!(all.len(), 10_000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10_000);
    }

    #[test]
    fn blocks_end_to_end_are_the_ranking() {
        // Ties, zeros, and a block budget tight enough to force merges
        // within and then across levels: merging must not reorder.
        let mut w: Vec<f64> = (0..3_000).map(|i| ((i * 37) % 11) as f64).collect();
        w.extend(powerlaw_hotness(2_000, 1.2));
        let h = Hotness::new(w);
        for max_blocks in [256, 16, 3, 1] {
            let cfg = BlockConfig {
                max_blocks,
                ..Default::default()
            };
            let blocks = build_blocks(&h, &cfg);
            assert!(blocks.len() <= max_blocks);
            let all: Vec<u32> = blocks.iter().flat_map(|b| b.entries(&h)).collect();
            assert_eq!(all, h.ranking(), "max_blocks {max_blocks}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let h = powerlaw(5_000);
        let blocks = build_blocks(&h, &BlockConfig::default());
        let total: f64 = blocks.iter().map(|b| b.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_levels_are_finely_split() {
        let h = powerlaw(100_000);
        let cfg = BlockConfig {
            min_splits: 8,
            ..Default::default()
        };
        let blocks = build_blocks(&h, &cfg);
        // Level 0 (hottest) must have at least min_splits blocks unless it
        // has fewer entries than that.
        let l0: Vec<&Block> = blocks.iter().filter(|b| b.level == 0).collect();
        let l0_entries: usize = l0.iter().map(|b| b.size()).sum();
        if l0_entries >= cfg.min_splits {
            assert!(
                l0.len() >= cfg.min_splits,
                "level 0 has {} blocks",
                l0.len()
            );
        }
    }

    #[test]
    fn coarse_cap_bounds_cold_blocks() {
        let h = powerlaw(100_000);
        let cfg = BlockConfig {
            max_blocks: 10_000,
            ..Default::default()
        };
        let blocks = build_blocks(&h, &cfg);
        let cap = (0.005f64 * 100_000.0).ceil() as usize;
        for b in &blocks {
            assert!(
                b.size() <= cap,
                "block of {} exceeds coarse cap {cap}",
                b.size()
            );
        }
    }

    #[test]
    fn max_blocks_respected() {
        let h = powerlaw(200_000);
        let cfg = BlockConfig {
            max_blocks: 64,
            ..Default::default()
        };
        let blocks = build_blocks(&h, &cfg);
        assert!(blocks.len() <= 64, "{} blocks", blocks.len());
        let total: usize = blocks.iter().map(|b| b.size()).sum();
        assert_eq!(total, 200_000);
    }

    #[test]
    fn blocks_are_hotness_ordered() {
        let h = powerlaw(10_000);
        let blocks = build_blocks(&h, &BlockConfig::default());
        for w in blocks.windows(2) {
            let a = w[0].weight / w[0].size() as f64;
            let b = w[1].weight / w[1].size() as f64;
            assert!(a >= b * 0.999, "blocks out of order: {a} then {b}");
        }
    }

    #[test]
    fn zero_hotness_entries_form_tail_level() {
        let mut w = vec![0.0; 100];
        w[3] = 5.0;
        w[7] = 1.0;
        let h = Hotness::new(w);
        let blocks = build_blocks(
            &h,
            &BlockConfig {
                min_splits: 2,
                ..Default::default()
            },
        );
        assert_eq!(blocks[0].hot[0], 3);
        let tail: usize = blocks
            .iter()
            .filter(|b| b.level == 61)
            .map(|b| b.size())
            .sum();
        assert_eq!(tail, 98);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(build_blocks(&Hotness::new(vec![]), &BlockConfig::default()).is_empty());
        let one = build_blocks(&Hotness::new(vec![2.0]), &BlockConfig::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].hot, vec![0]);
    }
}
