//! Core data types shared by all policies.

use gpu_platform::Location;
use std::collections::HashMap;
use std::ops::Range;

/// Compact source index: `0..G` are GPUs, `G` is host.
pub type SourceIdx = u8;

/// Per-entry access-frequency weights (the paper's hotness metric, §6.1).
///
/// Weights are relative; [`Hotness::normalized`] returns each entry's
/// share of total accesses. Applications may supply measured frequencies
/// (pre-sampling epoch counts, vertex degrees, Zipf masses) directly.
///
/// Held sparse: the non-zero weights in entry order, with their entry
/// ids — or without ids when no weight is zero (analytic hotness), so a
/// zero-free hotness costs one `f64` an entry, as a plain vector would.
/// The zero entries are implicit. A sampler's snapshot is mostly zeros
/// (97 % of `serve_online`'s), and every stage of a solve walks only the
/// non-zeros: the calibration, the ranking, the blocks, the estimate.
/// The zeros rank last, as one tail in index order
/// ([`Hotness::zero_entries`]), which is listed only where an entry of it
/// is placed in a cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotness {
    /// Number of entries, zeros included.
    len: usize,
    /// Entry ids of `weights`, ascending; empty when no weight is zero.
    ids: Vec<u32>,
    /// The non-zero weights, in entry order.
    weights: Vec<f64>,
}

impl Hotness {
    /// Wraps raw weights, one per entry.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        let mut zeros = 0usize;
        for &w in &weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "hotness weights must be finite and non-negative"
            );
            zeros += usize::from(w == 0.0);
        }
        if zeros == 0 {
            return Hotness {
                len: weights.len(),
                ids: Vec::new(),
                weights,
            };
        }
        Self::from_pairs(
            weights.len(),
            weights.iter().enumerate().map(|(e, &w)| (e as u32, w)),
        )
    }

    /// Builds hotness from integer access counts, one per entry.
    pub fn from_counts(counts: &[u64]) -> Self {
        Self::from_pairs(
            counts.len(),
            counts
                .iter()
                .enumerate()
                .map(|(e, &c)| (e as u32, c as f64)),
        )
    }

    /// Hotness over `len` entries from the weights of some of them:
    /// `entries` ascending, each with its weight in `weights`, every other
    /// entry zero.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ, `entries` is not ascending or
    /// reaches `len`, or a weight is negative or non-finite.
    pub fn sparse(len: usize, entries: &[u32], weights: &[f64]) -> Self {
        assert_eq!(entries.len(), weights.len(), "one weight per entry");
        assert!(
            entries.windows(2).all(|w| w[0] < w[1]),
            "entries must be ascending"
        );
        assert!(
            entries.last().is_none_or(|&e| (e as usize) < len),
            "entry out of range"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "hotness weights must be finite and non-negative"
        );
        Self::from_pairs(len, entries.iter().copied().zip(weights.iter().copied()))
    }

    /// Keeps the pairs whose weight is not zero, ids ascending, and the
    /// ids only if some entry is left out.
    fn from_pairs(len: usize, pairs: impl Iterator<Item = (u32, f64)>) -> Self {
        let (mut ids, weights): (Vec<u32>, Vec<f64>) = pairs.filter(|&(_, w)| w != 0.0).unzip();
        if weights.len() == len {
            ids = Vec::new();
        }
        Hotness { len, ids, weights }
    }

    /// The same entries with new non-zero weights, one for each of
    /// `self`'s; a weight of zero drops its entry into the zero tail.
    fn reweighted(&self, weights: Vec<f64>) -> Self {
        if !weights.contains(&0.0) {
            return Hotness {
                len: self.len,
                ids: self.ids.clone(),
                weights,
            };
        }
        Self::from_pairs(self.len, self.nonzeros().map(|(e, _)| e).zip(weights))
    }

    /// Number of entries, zeros included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries with a non-zero weight.
    pub fn nonzero_count(&self) -> usize {
        self.weights.len()
    }

    /// The `(entry, weight)` pairs whose weight is not zero, in entry
    /// order.
    pub fn nonzeros(&self) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        // With no ids stored, the `k`-th weight is entry `k`'s.
        self.weights
            .iter()
            .enumerate()
            .map(|(k, &w)| (self.ids.get(k).map_or(k as u32, |&e| e), w))
    }

    /// Every entry's weight, zeros included: one pass over the key space,
    /// for callers that want a plain vector.
    pub fn dense_weights(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.len];
        for (e, w) in self.nonzeros() {
            dense[e as usize] = w;
        }
        dense
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        // From `+0.0`, so an all-zero hotness totals `+0.0`, as the sum
        // over its entries would.
        self.weights.iter().fold(0.0, |sum, w| sum + w)
    }

    /// Every entry's share of total accesses (all zeros if total is 0): a
    /// pass over the key space.
    pub fn normalized(&self) -> Vec<f64> {
        let t = self.total();
        let mut shares = vec![0.0; self.len];
        if t > 0.0 {
            for (e, w) in self.nonzeros() {
                shares[e as usize] = w / t;
            }
        }
        shares
    }

    /// Adjusts hotness for per-batch key deduplication.
    ///
    /// Extraction serves each *distinct* key in a batch once, so the
    /// traffic an entry contributes is its probability of *appearing* in
    /// a batch, not its raw draw frequency — for hot entries those differ
    /// wildly once batches are large relative to the key domain.
    /// Poissonizing draws, the appearance probability is
    /// `1 − exp(−λ·p_e)` with `λ` calibrated (by bisection) so the
    /// expected number of distinct keys per batch equals
    /// `unique_per_batch`. The returned weights are those probabilities.
    ///
    /// Ranking is preserved; only magnitudes saturate.
    ///
    /// The bisection compares `Σ_e 1 − exp(−λ·p_e)` with the target 60
    /// times, but pays a pass over the non-zero weights only for a
    /// comparison that earlier passes leave open — about 30 at 10⁵
    /// entries, the rest being forced by monotonicity or repeated (see
    /// `calibrate_lambda`). A zero weight's term is `1 − exp(−0)`, exactly
    /// `+0.0` at every `λ`, and adding it leaves a sum's bits alone, so
    /// the zeros are never visited. In a pass, when at most one non-zero
    /// weight in sixteen is distinct (a sampler's snapshot: small integer
    /// counts) `exp` is evaluated once per distinct value and the
    /// per-entry terms are looked up; otherwise (analytic hotness: every
    /// weight its own) once per entry. `exp` is pure and both loops add
    /// the same terms in entry order, so neither the choice nor a skipped
    /// pass ever shows in the returned bits.
    pub fn dedup_adjusted(&self, unique_per_batch: f64) -> Hotness {
        let e = self.len;
        let total = self.total();
        if e == 0 || total <= 0.0 || unique_per_batch <= 0.0 {
            return self.clone();
        }
        let target = unique_per_batch.min(e as f64 * 0.999_999);
        let terms = self.weights.len();
        let appears = |lambda: f64, p: f64| 1.0 - (-lambda * p).exp();
        let adjusted = match group_by_bits(&self.weights, terms / GROUPED_ENTRIES_PER_DISTINCT) {
            None => {
                let mut p: Vec<f64> = self.weights.iter().map(|w| w / total).collect();
                let lambda = calibrate_lambda(target, terms, |lambda| {
                    p.iter().fold(0.0, |sum, &pi| sum + appears(lambda, pi))
                });
                // In place: no second full-length vector beside `p`.
                for pi in &mut p {
                    *pi = appears(lambda, *pi);
                }
                p
            }
            Some((values, group_of)) => {
                let p: Vec<f64> = values.iter().map(|w| w / total).collect();
                let terms_at =
                    |lambda: f64| -> Vec<f64> { p.iter().map(|&pi| appears(lambda, pi)).collect() };
                let lambda = calibrate_lambda(target, terms, |lambda| {
                    let terms = terms_at(lambda);
                    group_of.iter().fold(0.0, |sum, &g| sum + terms[g as usize])
                });
                let terms = terms_at(lambda);
                group_of.iter().map(|&g| terms[g as usize]).collect()
            }
        };
        self.reweighted(adjusted)
    }

    /// Positions of the non-zero weights, hottest first, ties in entry
    /// order: read through [`Hotness::nonzero_at`], the head of
    /// [`Hotness::ranking`].
    pub(crate) fn rank_positions(&self) -> Vec<u32> {
        // Every weight is positive and finite, so its bit pattern rises
        // with its value: comparing integer keys, not weights through
        // `partial_cmp`, is what makes the sort fast on input without
        // long sorted runs (vertex degrees, all-distinct masses). Each
        // comparison reads its keys from the weights: no full-length copy.
        let mut positions: Vec<u32> = (0..self.weights.len() as u32).collect();
        // Stable, so equal keys keep entry order.
        positions.sort_by_key(|&k| !self.weights[k as usize].to_bits());
        positions
    }

    /// The `(entry, weight)` pair at position `k` of the non-zero weights.
    pub(crate) fn nonzero_at(&self, k: u32) -> (u32, f64) {
        let e = self.ids.get(k as usize).map_or(k, |&e| e);
        (e, self.weights[k as usize])
    }

    /// Entry indices sorted hottest-first (ties by index for determinism):
    /// the non-zero entries sorted, then the zero tail in index order.
    pub fn ranking(&self) -> Vec<u32> {
        let mut ranking = self.rank_positions();
        // With no ids stored, positions are entries.
        if !self.ids.is_empty() {
            for k in ranking.iter_mut() {
                *k = self.ids[*k as usize];
            }
        }
        ranking.extend(self.zero_entries(0..self.len - self.weights.len()));
        ranking
    }

    /// The zero entries at `positions` of the zero tail — the entries
    /// whose weight is zero, in index order, numbered from 0 — in order.
    ///
    /// # Panics
    ///
    /// Panics if `positions` reaches past the number of zero entries.
    pub fn zero_entries(&self, positions: Range<usize>) -> ZeroEntries<'_> {
        let zeros = self.len - self.weights.len();
        assert!(
            positions.start <= positions.end && positions.end <= zeros,
            "zero-tail positions {positions:?} out of 0..{zeros}"
        );
        // The `k`-th non-zero entry has `ids[k] − k` zeros before it, a
        // count that never falls as `k` rises: skip the non-zero entries
        // with at most `start` zeros before them, and the `start`-th zero
        // is `start` plus their number.
        let (mut skipped, mut hi) = (0, self.ids.len());
        while skipped < hi {
            let mid = skipped + (hi - skipped) / 2;
            if self.ids[mid] as usize - mid <= positions.start {
                skipped = mid + 1;
            } else {
                hi = mid;
            }
        }
        ZeroEntries {
            ids: &self.ids[skipped..],
            next: (positions.start + skipped) as u32,
            left: positions.len(),
        }
    }
}

/// The zero entries of a [`Hotness`] over a stretch of its zero tail, in
/// index order (see [`Hotness::zero_entries`]).
#[derive(Debug, Clone)]
pub struct ZeroEntries<'a> {
    /// The non-zero entries from `next` on.
    ids: &'a [u32],
    next: u32,
    left: usize,
}

impl Iterator for ZeroEntries<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        while let Some((&e, rest)) = self.ids.split_first() {
            if e != self.next {
                break;
            }
            self.ids = rest;
            self.next += 1;
        }
        let e = self.next;
        self.left -= 1;
        self.next += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ZeroEntries<'_> {}

/// [`Hotness::dedup_adjusted`] evaluates `exp` per distinct weight when
/// there are at least this many non-zero entries per distinct value: a
/// step then costs a load and an addition per entry instead of an `exp`,
/// which has to pay for hashing every weight once to find the groups.
/// Real inputs sit far to either side — a sampler's snapshot holds a few
/// hundred distinct counts among thousands of non-zero entries, analytic
/// hotness no two weights alike.
const GROUPED_ENTRIES_PER_DISTINCT: usize = 16;

/// The distinct values of `weights`, by bit pattern and in order of first
/// appearance, and every entry's index among them — or `None` as soon as
/// more than `max_distinct` have turned up.
fn group_by_bits(weights: &[f64], max_distinct: usize) -> Option<(Vec<f64>, Vec<u32>)> {
    // Probed, never iterated: the hasher's per-process seed cannot reach
    // the result.
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut values = Vec::new();
    let mut group_of = Vec::with_capacity(weights.len());
    for &w in weights {
        let next = values.len() as u32;
        let id = *ids.entry(w.to_bits()).or_insert(next);
        if id == next {
            if values.len() == max_distinct {
                return None;
            }
            values.push(w);
        }
        group_of.push(id);
    }
    Some((values, group_of))
}

/// A sum of `terms` values `1 − exp(−λ·p)` read through rounding, and
/// what its readings so far settle about `reading(λ) < target` elsewhere.
///
/// The exact sum is non-decreasing in `λ`, and a reading `s` is within
/// `terms · ε · (s + 8)` of it with room to spare: `terms` roundings of a
/// running sum that never exceeds its final value cost at most
/// `terms · ε/2 · s`, and each term is off by a few `ε/2` (the product,
/// a sub-ulp `exp` of a value in `(0, 1]`, the subtraction from one).
/// So a reading more than twice that bound under `target` at `λ` puts
/// the reading at every `λ' ≤ λ` under `target` as well, and likewise
/// over it; a loose bound costs a pass or two, never a wrong answer.
struct Readings<F> {
    uniques: F,
    target: f64,
    terms: f64,
    /// The largest `λ` read surely under `target`, with its reading…
    under: (f64, f64),
    /// …and the smallest read surely over it.
    over: (f64, f64),
    /// The two most recent `(λ, reading)` pairs, newest last.
    recent: [(f64, f64); 2],
}

impl<F: FnMut(f64) -> f64> Readings<F> {
    /// Twice the rounding bound of a reading at or under `s`.
    fn margin(&self, s: f64) -> f64 {
        2.0 * self.terms * f64::EPSILON * (s + 8.0)
    }

    /// One pass: the reading at `lambda`.
    fn read(&mut self, lambda: f64) -> f64 {
        let s = (self.uniques)(lambda);
        if s < self.target - self.margin(self.target) {
            if lambda > self.under.0 {
                self.under = (lambda, s);
            }
        } else if s > self.target + self.margin(s) && lambda < self.over.0 {
            self.over = (lambda, s);
        }
        self.recent = [self.recent[1], (lambda, s)];
        s
    }

    /// `reading(lambda) < target`, without a pass where a witness
    /// decides it.
    fn below(&mut self, lambda: f64) -> bool {
        if lambda <= self.under.0 {
            true
        } else if lambda >= self.over.0 {
            false
        } else {
            self.read(lambda) < self.target
        }
    }

    /// Plants both witnesses within a few margins of the crossing:
    /// secant steps through the two newest readings, each aimed two
    /// margins to the side whose witness is the farther from `target`.
    /// Where a probe lands only decides how many passes the bisection is
    /// spared, never an outcome.
    fn close_in(&mut self) {
        let margin = self.margin(self.target);
        for _ in 0..MAX_PROBES {
            let under_gap = self.target - self.under.1;
            let over_gap = self.over.1 - self.target;
            if under_gap.max(over_gap) <= 4.0 * margin {
                break;
            }
            let [(x0, s0), (x1, s1)] = self.recent;
            let slope = (s1 - s0) / (x1 - x0);
            let aim = if under_gap > over_gap { -2.0 } else { 2.0 } * margin;
            let inside = |x: f64| x > self.under.0 && x < self.over.0;
            // A secant step can leave the bracket (two readings on one
            // side of a sharp bend) or be NaN (a flat or repeated one).
            let mut probe = x1 + (self.target + aim - s1) / slope;
            if !inside(probe) {
                probe = 0.5 * (self.under.0 + self.over.0);
                if !inside(probe) {
                    break;
                }
            }
            self.read(probe);
        }
    }
}

/// Probes [`Readings::close_in`] may spend; the secant's order of
/// convergence gets from a factor-two bracket to the rounding bound in
/// about six, and two more straddle it.
const MAX_PROBES: usize = 10;

/// The `λ` at which `uniques(λ)` — a sum of `terms` values
/// `1 − exp(−λ·p)`, increasing in `λ` — meets `target`: doubling until it
/// is bracketed (at most 200 times, for input that can never reach it),
/// then 60 bisection steps. A step whose comparison the readings taken so
/// far already force makes no pass (see [`Readings`]), nor does one at a
/// `λ` compared before, so every step goes the way plain bisection's
/// would and the result has its bits.
fn calibrate_lambda(target: f64, terms: usize, uniques: impl FnMut(f64) -> f64) -> f64 {
    let mut readings = Readings {
        uniques,
        target,
        terms: terms as f64,
        under: (f64::NEG_INFINITY, f64::NEG_INFINITY),
        over: (f64::INFINITY, f64::INFINITY),
        // Every term is exactly zero at λ = 0.
        recent: [(0.0, 0.0); 2],
    };
    let mut lo = 0.0f64;
    let mut hi = target.max(1.0);
    // Whether `lo` and `hi` have been compared (as under and not under).
    let (mut lo_known, mut hi_known) = (false, true);
    let mut guard = 0;
    while readings.below(hi) {
        hi *= 2.0;
        guard += 1;
        if guard > 200 {
            hi_known = false;
            break;
        }
    }
    if hi_known {
        readings.close_in();
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let below = if mid == lo && lo_known {
            true
        } else if mid == hi && hi_known {
            false
        } else {
            readings.below(mid)
        };
        if below {
            (lo, lo_known) = (mid, true);
        } else {
            (hi, hi_known) = (mid, true);
        }
    }
    0.5 * (lo + hi)
}

/// Bits in one word of a [`BitRow`].
const WORD_BITS: usize = 64;

/// One bit per entry: the entries one GPU stores.
///
/// Entry `e` is bit `e % 64` of word `e / 64`, and the bits of the last
/// word past [`BitRow::len`] are always clear, so two rows of a length
/// compare word by word and [`BitRow::count_ones`] is a popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    len: usize,
    words: Vec<u64>,
}

impl BitRow {
    /// `len` clear bits.
    pub fn new(len: usize) -> Self {
        BitRow {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not below [`BitRow::len`].
    pub fn get(&self, e: usize) -> bool {
        assert!(e < self.len, "bit {e} of a {}-bit row", self.len);
        self.words[e / WORD_BITS] >> (e % WORD_BITS) & 1 == 1
    }

    /// Sets bit `e` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not below [`BitRow::len`].
    pub fn set(&mut self, e: usize, value: bool) {
        assert!(e < self.len, "bit {e} of a {}-bit row", self.len);
        let (word, bit) = (&mut self.words[e / WORD_BITS], 1u64 << (e % WORD_BITS));
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The bits 64 at a time: entry `e` is bit `e % 64` of word `e / 64`,
    /// and the last word's bits past [`BitRow::len`] are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Every bit, in order.
    pub fn iter(&self) -> Bits<'_> {
        Bits { row: self, next: 0 }
    }

    /// The set bits' indices, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * WORD_BITS + rest.trailing_zeros() as usize)
        })
    }
}

/// The bits of a [`BitRow`], in order.
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    row: &'a BitRow,
    next: usize,
}

impl Iterator for Bits<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        (self.next < self.row.len).then(|| {
            self.next += 1;
            self.row.get(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.row.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Bits<'_> {}

impl<'a> IntoIterator for &'a BitRow {
    type Item = bool;
    type IntoIter = Bits<'a>;

    fn into_iter(self) -> Bits<'a> {
        self.iter()
    }
}

/// Id of a row of a [`Placement`]'s source table.
pub(crate) type RowId = u16;

/// The error of a write that would give a [`Placement`]'s source table a
/// 65 537th row: every entry's row id is a `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTableFull;

impl std::fmt::Display for RowTableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "placement source table full: {} distinct per-GPU source rows",
            RowId::MAX as usize + 1
        )
    }
}

impl std::error::Error for RowTableFull {}

/// A complete cache layout: storage and access arrangement.
///
/// `source(i, e)` says where GPU `i` reads entry `e` (a [`SourceIdx`]);
/// `stored[j].get(e)` says whether GPU `j` holds a copy of `e`. The invariant
/// `source(i, e) = j (GPU) ⇒ stored[j].get(e)` corresponds to the paper's
/// `s_j^e ≥ a_{i←j}^e` constraint and is checked by
/// [`Placement::validate`].
///
/// An entry costs `2 + G/8` bytes. `stored` is one [`BitRow`] per GPU.
/// Where the GPUs read an entry is a `u16` row id into a table of
/// distinct per-GPU source rows, interned as they are written
/// ([`Placement::set_source`]). A solved placement deals its entries over
/// a few (pattern, residue) layouts (§6.3), so the table holds a few
/// dozen rows; row 0 is every GPU reading host, which makes
/// [`Placement::all_host`] zeroed memory. Two placements are equal when
/// they store and read the same, whatever order their rows were interned
/// in.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of GPUs `G`.
    pub num_gpus: usize,
    /// Number of entries `E`.
    pub num_entries: usize,
    /// `stored[j]`: the entries GPU `j` caches.
    pub stored: Vec<BitRow>,
    /// `rows[e]`: entry `e`'s row of `sources`.
    rows: Vec<RowId>,
    /// `sources[i][r]`: where GPU `i` reads the entries of row `r`, one
    /// small column per GPU.
    sources: Vec<Vec<SourceIdx>>,
    /// Each row of the table, by its sources, to its id.
    ids: HashMap<Box<[SourceIdx]>, RowId>,
}

impl Placement {
    /// An all-host placement (nothing cached).
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` leaves no [`SourceIdx`] for the host (more
    /// than 255 GPUs).
    pub fn all_host(num_gpus: usize, num_entries: usize) -> Self {
        let host = SourceIdx::try_from(num_gpus).expect("at most 255 GPUs");
        Placement {
            num_gpus,
            num_entries,
            stored: (0..num_gpus).map(|_| BitRow::new(num_entries)).collect(),
            rows: vec![0; num_entries],
            sources: vec![vec![host]; num_gpus],
            ids: HashMap::from([(vec![host; num_gpus].into_boxed_slice(), 0)]),
        }
    }

    /// The host source index for this placement.
    pub fn host_idx(&self) -> SourceIdx {
        self.num_gpus as SourceIdx
    }

    /// Number of entries cached on GPU `j`.
    pub fn cached_count(&self, gpu: usize) -> usize {
        self.stored[gpu].count_ones()
    }

    /// Where GPU `gpu` reads entry `entry` from.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` or `entry` is out of range.
    pub fn source(&self, gpu: usize, entry: usize) -> SourceIdx {
        self.access(gpu)[entry]
    }

    /// Where GPU `gpu` reads each entry: a view for loops over many keys.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn access(&self, gpu: usize) -> Access<'_> {
        Access {
            rows: &self.rows,
            sources: &self.sources[gpu],
        }
    }

    /// Makes GPU `gpu` read entry `entry` from `src`, interning the
    /// entry's new row of sources. `stored` is not touched: a placement
    /// may pass through states [`Placement::validate`] refuses.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, if the new row would be the table's
    /// 65 537th. Rows no entry reads any more still count.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` or `entry` is out of range or `src` is past the
    /// host.
    pub fn set_source(
        &mut self,
        gpu: usize,
        entry: usize,
        src: SourceIdx,
    ) -> Result<(), RowTableFull> {
        let row = usize::from(self.rows[entry]);
        if self.sources[gpu][row] == src {
            return Ok(());
        }
        let mut buf = [0; 256];
        let sources = &mut buf[..self.num_gpus];
        for (s, column) in sources.iter_mut().zip(&self.sources) {
            *s = column[row];
        }
        sources[gpu] = src;
        let id = self.intern(sources)?;
        self.rows[entry] = id;
        Ok(())
    }

    /// The id of the row `sources` (one per GPU), added to the table if
    /// it is new.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, if the table is full.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not have one source per GPU or one is
    /// past the host.
    pub(crate) fn intern(&mut self, sources: &[SourceIdx]) -> Result<RowId, RowTableFull> {
        if let Some(&id) = self.ids.get(sources) {
            return Ok(id);
        }
        assert_eq!(sources.len(), self.num_gpus, "one source per GPU");
        assert!(
            sources.iter().all(|&s| s <= self.host_idx()),
            "source past the host in {sources:?}"
        );
        let id = RowId::try_from(self.ids.len()).map_err(|_| RowTableFull)?;
        for (column, &s) in self.sources.iter_mut().zip(sources) {
            column.push(s);
        }
        self.ids.insert(sources.into(), id);
        Ok(id)
    }

    /// Points entry `entry` at row `row`, an id [`Placement::intern`]
    /// returned.
    pub(crate) fn set_row(&mut self, entry: usize, row: RowId) {
        self.rows[entry] = row;
    }

    /// Whether `other` reads every entry from the sources `self` does.
    /// Each of `other`'s row ids is translated into `self`'s numbering
    /// and compared with `self`'s id.
    fn reads_as(&self, other: &Placement) -> bool {
        // `other`'s rows by id, each to the id of the same sources in
        // `self`'s table, or to no id at all.
        let mut sources = vec![0; self.num_gpus];
        let ids: Vec<u32> = (0..other.ids.len())
            .map(|r| {
                for (s, column) in sources.iter_mut().zip(&other.sources) {
                    *s = column[r];
                }
                self.ids
                    .get(&sources[..])
                    .map_or(u32::MAX, |&id| u32::from(id))
            })
            .collect();
        (self.rows.iter().zip(&other.rows))
            .all(|(&was, &will)| ids[usize::from(will)] == u32::from(was))
    }

    /// Validates the storage/access invariants; returns the first problem:
    /// `stored` not one row of `num_entries` bits per GPU, or a GPU
    /// reading an entry from a GPU that does not store it.
    ///
    /// # Errors
    ///
    /// Describes the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.stored.len() != self.num_gpus || self.sources.len() != self.num_gpus {
            return Err(format!(
                "arity mismatch: {} stored rows for {} GPUs",
                self.stored.len(),
                self.num_gpus
            ));
        }
        if self.rows.len() != self.num_entries {
            return Err(format!(
                "{} access rows for {} entries",
                self.rows.len(),
                self.num_entries
            ));
        }
        for (j, row) in self.stored.iter().enumerate() {
            if row.len() != self.num_entries {
                return Err(format!(
                    "GPU{j} stored row has {} entries, not {}",
                    row.len(),
                    self.num_entries
                ));
            }
        }
        let host = self.host_idx();
        for (i, column) in self.sources.iter().enumerate() {
            if column.iter().all(|&s| s == host) {
                continue;
            }
            for (e, &row) in self.rows.iter().enumerate() {
                let s = column[usize::from(row)];
                if s != host && !self.stored[usize::from(s)].get(e) {
                    return Err(format!(
                        "GPU{i} reads entry {e} from GPU{s} which does not store it"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Splits a batch of keys by source for one GPU: returns
    /// `(location, key_count)` pairs, merged per source.
    pub fn split_keys(&self, gpu: usize, keys: &[u32]) -> Vec<(Location, u64)> {
        let access = self.access(gpu);
        let mut counts = vec![0u64; self.num_gpus + 1];
        for &k in keys {
            counts[usize::from(access[k as usize])] += 1;
        }
        let mut out = Vec::new();
        for (j, &c) in counts.iter().enumerate() {
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

    /// Counts a whole iteration's keys (one batch per destination GPU) by
    /// tier: `[local, remote, host]` — read from the destination's own
    /// cache, from a peer GPU's, from host memory.
    pub fn tier_keys(&self, keys_per_gpu: &[Vec<u32>]) -> [u64; 3] {
        let mut tiers = [0u64; 3];
        for (gpu, keys) in keys_per_gpu.iter().enumerate() {
            for (loc, count) in self.split_keys(gpu, keys) {
                let tier = match loc {
                    Location::Gpu(j) if j == gpu => 0,
                    Location::Gpu(_) => 1,
                    Location::Host => 2,
                };
                tiers[tier] += count;
            }
        }
        tiers
    }

    /// Hotness-weighted access split for one GPU:
    /// `(local, remote, host)` fractions — the series of Figure 14.
    pub fn access_split(&self, gpu: usize, hotness: &Hotness) -> (f64, f64, f64) {
        assert_eq!(hotness.len(), self.num_entries);
        let total = hotness.total();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let access = self.access(gpu);
        let (mut local, mut remote, mut host) = (0.0, 0.0, 0.0);
        for (e, w) in hotness.nonzeros() {
            let s = access[e as usize];
            if s == self.host_idx() {
                host += w;
            } else if s as usize == gpu {
                local += w;
            } else {
                remote += w;
            }
        }
        (local / total, remote / total, host / total)
    }

    /// Hotness-weighted global hit rate: fraction of accesses served by
    /// *any* GPU cache (averaged over destination GPUs).
    pub fn global_hit_rate(&self, hotness: &Hotness) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.num_gpus {
            let (l, r, _) = self.access_split(i, hotness);
            acc += l + r;
        }
        acc / self.num_gpus as f64
    }

    /// Hotness-weighted local hit rate (averaged over destination GPUs).
    pub fn local_hit_rate(&self, hotness: &Hotness) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.num_gpus {
            let (l, _, _) = self.access_split(i, hotness);
            acc += l;
        }
        acc / self.num_gpus as f64
    }
}

impl PartialEq for Placement {
    /// Equal shapes, stored bits and sources, however the rows are
    /// numbered.
    fn eq(&self, other: &Placement) -> bool {
        if self.num_gpus != other.num_gpus
            || self.num_entries != other.num_entries
            || self.stored != other.stored
            || self.rows.len() != other.rows.len()
        {
            return false;
        }
        self.reads_as(other)
    }
}

/// Where one GPU reads each entry of a [`Placement`]
/// ([`Placement::access`]): `access[e]` is a load of the entry's row id
/// and one from the GPU's column of the source table, a few dozen bytes
/// that stay in L1.
#[derive(Debug, Clone, Copy)]
pub struct Access<'a> {
    rows: &'a [RowId],
    sources: &'a [SourceIdx],
}

impl Access<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::ops::Index<usize> for Access<'_> {
    type Output = SourceIdx;

    /// Where the GPU reads entry `e`.
    fn index(&self, e: usize) -> &SourceIdx {
        &self.sources[usize::from(self.rows[e])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotness_basics() {
        let h = Hotness::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(h.len(), 4);
        assert_eq!(h.total(), 10.0);
        assert_eq!(h.ranking(), vec![0, 2, 3, 1]);
        let n = h.normalized();
        assert!((n[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn hotness_ties_are_deterministic() {
        let h = Hotness::new(vec![1.0; 5]);
        assert_eq!(h.ranking(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_hotness_panics() {
        let _ = Hotness::new(vec![1.0, -0.5]);
    }

    /// `ranking` before it sorted integer keys: indices through a
    /// `partial_cmp` comparator over every entry's weight, zeros included.
    fn ranking_by_partial_cmp(weights: &[f64]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..weights.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (wa, wb) = (weights[a as usize], weights[b as usize]);
            wb.partial_cmp(&wa).unwrap().then(a.cmp(&b))
        });
        idx
    }

    /// A weight drawn from `bits`: zeros of both signs, ties among a few
    /// small counts, and fractions unlikely to repeat.
    fn weight_from(bits: u64) -> f64 {
        let fraction = (bits >> 11) as f64 / (1u64 << 53) as f64;
        match bits % 6 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => ((bits >> 3) % 4) as f64,
            _ => fraction,
        }
    }

    /// A sampler-like draw from `bits`: nine in ten a zero of either
    /// sign, the rest [`weight_from`] (itself a zero one time in three).
    fn mostly_zero_from(bits: u64) -> f64 {
        match (bits >> 32) % 10 {
            0 => weight_from(bits),
            _ if bits & 1 == 0 => 0.0,
            _ => -0.0,
        }
    }

    /// Every zero entry of `weights`, in index order.
    fn zeros_by_scan(weights: &[f64]) -> Vec<u32> {
        (0..weights.len() as u32)
            .filter(|&e| weights[e as usize] == 0.0)
            .collect()
    }

    /// Holds `weights`' hotness to the dense oracles: the ranking, every
    /// stretch of the zero tail, the dense weights back (a `−0.0` reads
    /// `+0.0`), and ids kept only beside a zero.
    fn check_against_dense(weights: &[f64]) {
        let h = Hotness::new(weights.to_vec());
        assert_eq!(h.ranking(), ranking_by_partial_cmp(weights), "{weights:?}");
        let zeros = zeros_by_scan(weights);
        assert_eq!(h.nonzero_count(), weights.len() - zeros.len());
        assert_eq!(
            h.ids.is_empty(),
            zeros.is_empty() || zeros.len() == weights.len()
        );
        for start in 0..=zeros.len() {
            for end in start..=zeros.len() {
                let got: Vec<u32> = h.zero_entries(start..end).collect();
                assert_eq!(got, zeros[start..end], "{weights:?}: {start}..{end}");
            }
        }
        let dense = h.dense_weights();
        for (e, (&got, &w)) in dense.iter().zip(weights).enumerate() {
            let want = if w == 0.0 { 0.0f64 } else { w };
            assert_eq!(got.to_bits(), want.to_bits(), "entry {e}");
        }
        let (ids, nonzero): (Vec<u32>, Vec<f64>) = h.nonzeros().unzip();
        assert_eq!(Hotness::sparse(weights.len(), &ids, &nonzero), h);
    }

    proptest::proptest! {
        #[test]
        fn ranking_orders_as_the_partial_cmp_comparator(
            raw in proptest::prop::collection::vec(0u64..u64::MAX, 0..400),
            distinct in proptest::prop::collection::vec(0.0f64..1.0, 0..400),
            sparse in proptest::prop::collection::vec(0u64..u64::MAX, 0..400),
        ) {
            let mixed: Vec<f64> = raw.into_iter().map(weight_from).collect();
            let mostly_zero: Vec<f64> = sparse.into_iter().map(mostly_zero_from).collect();
            for weights in [mixed, distinct, mostly_zero] {
                let want = ranking_by_partial_cmp(&weights);
                proptest::prop_assert_eq!(Hotness::new(weights).ranking(), want);
            }
        }
    }

    #[test]
    fn the_zero_tail_follows_the_non_zeros_in_index_order_at_its_edges() {
        // No zero, all zeros, one non-zero entry at either end or in the
        // middle, runs of non-zeros on both sides of a zero: the tail is
        // empty, everything, or skips entries at its edges.
        for n in [1usize, 2, 3, 17, 64, 65] {
            let signed_zeros: Vec<f64> = (0..n)
                .map(|e| if e % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            let all_nonzero: Vec<f64> = (0..n).map(|e| 1.0 + (e % 4) as f64).collect();
            let mut cases = vec![signed_zeros.clone(), all_nonzero.clone()];
            for at in [0, n / 2, n - 1] {
                let mut lone = signed_zeros.clone();
                lone[at] = 2.0;
                cases.push(lone);
                let mut hole = all_nonzero.clone();
                hole[at] = 0.0;
                cases.push(hole);
            }
            cases.push((0..n).map(|e| (e % 2) as f64).collect());
            cases.push((0..n).map(|e| ((e / 3) % 2) as f64).collect());
            for weights in cases {
                check_against_dense(&weights);
            }
        }
        check_against_dense(&[]);
    }

    proptest::proptest! {
        #[test]
        fn sparse_hotness_reads_as_its_dense_weights(
            sparse in proptest::prop::collection::vec(0u64..u64::MAX, 0..120),
        ) {
            let weights: Vec<f64> = sparse.into_iter().map(mostly_zero_from).collect();
            check_against_dense(&weights);
        }
    }

    #[test]
    fn a_zero_free_hotness_stores_no_ids() {
        let h = Hotness::new(vec![0.5, 2.0, 1.0]);
        assert!(h.ids.is_empty());
        assert_eq!(
            h.nonzeros().collect::<Vec<_>>(),
            [(0, 0.5), (1, 2.0), (2, 1.0)]
        );
        assert_eq!(h.zero_entries(0..0).count(), 0);
        assert_eq!(Hotness::from_counts(&[3, 1]), Hotness::new(vec![3.0, 1.0]));
        // An adjusted weight that rounds to zero joins the zero tail.
        let tiny = Hotness::new(vec![1.0, 1e-300]).dedup_adjusted(0.5);
        assert_eq!(tiny.nonzero_count(), 1);
        assert_eq!(tiny.ranking(), [0, 1]);
    }

    /// `calibrate_lambda` before it skipped anything: every comparison a
    /// pass.
    fn bisect_every_step(target: f64, uniques: impl Fn(f64) -> f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, target.max(1.0));
        let mut guard = 0;
        while uniques(hi) < target {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                break;
            }
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if uniques(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn calibration_lands_on_the_plain_bisections_bits_within_45_passes() {
        // Entry counts and per-batch uniques of the benchmark's two DLR
        // shapes (CR at 1/8192 under 512-request batches in `eval_sweep`,
        // at 1/4096 under 1 024 in `dlr_refresh`); an all-distinct power
        // law stands in for the 26 tables' analytic masses. Plain
        // bisection takes 62 and 63 passes here.
        for (n, target) in [(104_731usize, 3_331.875), (209_478, 6_189.062_5)] {
            let w = emb_util::zipf::powerlaw_hotness(n, 1.1);
            let total: f64 = w.iter().sum();
            let p: Vec<f64> = w.iter().map(|w| w / total).collect();
            let uniques =
                |lambda: f64| -> f64 { p.iter().map(|&pi| 1.0 - (-lambda * pi).exp()).sum() };
            let mut passes = 0;
            let got = calibrate_lambda(target, n, |lambda| {
                passes += 1;
                uniques(lambda)
            });
            let want = bisect_every_step(target, uniques);
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}: {got} vs {want}");
            assert!(passes <= 45, "n = {n}: {passes} passes");
        }
    }

    #[test]
    fn all_host_placement_is_valid() {
        let p = Placement::all_host(4, 100);
        p.validate().unwrap();
        assert_eq!(p.cached_count(0), 0);
        assert_eq!(p.source(2, 50), p.host_idx());
    }

    #[test]
    fn validate_catches_phantom_source() {
        let mut p = Placement::all_host(2, 4);
        p.set_source(0, 1, 1).unwrap(); // reads from GPU1, which stores nothing
        assert!(p.validate().is_err());
        p.stored[1].set(1, true);
        p.validate().unwrap();
    }

    #[test]
    fn split_keys_counts_per_source() {
        let mut p = Placement::all_host(2, 6);
        p.stored[0].set(0, true);
        p.stored[1].set(1, true);
        p.set_source(0, 0, 0).unwrap();
        p.set_source(0, 1, 1).unwrap();
        let split = p.split_keys(0, &[0, 0, 1, 5, 4]);
        assert!(split.contains(&(Location::Gpu(0), 2)));
        assert!(split.contains(&(Location::Gpu(1), 1)));
        assert!(split.contains(&(Location::Host, 2)));
    }

    #[test]
    fn access_split_and_hit_rates() {
        let mut p = Placement::all_host(2, 4);
        let h = Hotness::new(vec![4.0, 3.0, 2.0, 1.0]);
        // GPU0 stores entries 0,1; GPU1 stores 0.
        p.stored[0].set(0, true);
        p.stored[0].set(1, true);
        p.stored[1].set(0, true);
        p.set_source(0, 0, 0).unwrap();
        p.set_source(0, 1, 0).unwrap();
        p.set_source(1, 0, 1).unwrap();
        p.set_source(1, 1, 0).unwrap(); // remote for GPU1
        p.validate().unwrap();
        let (l0, r0, h0) = p.access_split(0, &h);
        assert!((l0 - 0.7).abs() < 1e-12);
        assert_eq!(r0, 0.0);
        assert!((h0 - 0.3).abs() < 1e-12);
        let (l1, r1, _) = p.access_split(1, &h);
        assert!((l1 - 0.4).abs() < 1e-12);
        assert!((r1 - 0.3).abs() < 1e-12);
        assert!((p.global_hit_rate(&h) - 0.7).abs() < 1e-12);
        assert!((p.local_hit_rate(&h) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn bit_rows_keep_the_bits_past_their_length_clear() {
        for len in [0, 1, 63, 64, 65, 130] {
            let mut row = BitRow::new(len);
            for e in (0..len).step_by(3) {
                row.set(e, true);
            }
            if len > 0 {
                row.set(len - 1, true);
                row.set(len - 1, false);
            }
            let want: Vec<usize> = (0..len).step_by(3).filter(|&e| e + 1 < len).collect();
            assert_eq!(row.ones().collect::<Vec<_>>(), want, "len {len}");
            assert_eq!(row.count_ones(), want.len(), "len {len}");
            let bits: Vec<bool> = row.iter().collect();
            assert_eq!(bits.len(), len);
            assert!(bits
                .iter()
                .enumerate()
                .all(|(e, &b)| b == want.contains(&e) && b == row.get(e)));
            if len % WORD_BITS != 0 {
                let last = row.words()[len / WORD_BITS];
                assert_eq!(last >> (len % WORD_BITS), 0, "len {len}");
            }
        }
    }
}
