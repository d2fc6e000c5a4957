//! Core data types shared by all policies.

use gpu_platform::Location;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Compact source index: `0..G` are GPUs, `G` is host.
pub type SourceIdx = u8;

/// Per-entry access-frequency weights (the paper's hotness metric, §6.1).
///
/// Weights are relative; [`Hotness::normalized`] returns each entry's
/// share of total accesses. Applications may supply measured frequencies
/// (pre-sampling epoch counts, vertex degrees, Zipf masses) directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotness {
    /// Non-negative weight per entry.
    pub weights: Vec<f64>,
}

impl Hotness {
    /// Wraps raw weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "hotness weights must be finite and non-negative"
        );
        Hotness { weights }
    }

    /// Builds hotness from integer access counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        Hotness {
            weights: counts.iter().map(|&c| c as f64).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Per-entry share of total accesses (all zeros if total is 0).
    pub fn normalized(&self) -> Vec<f64> {
        let t = self.total();
        if t <= 0.0 {
            return vec![0.0; self.len()];
        }
        self.weights.iter().map(|w| w / t).collect()
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
    /// times, but pays a pass over the entries only for a comparison that
    /// earlier passes leave open — about 30 at 10⁵ entries, the rest
    /// being forced by monotonicity or repeated (see `calibrate_lambda`).
    /// In a pass, when at most one weight in sixteen is distinct (a
    /// sampler's snapshot: small integer counts, mostly zero) `exp` is
    /// evaluated once per distinct value and the per-entry terms are
    /// looked up; otherwise (analytic hotness: every weight its own) once
    /// per entry. `exp` is pure and both loops add the same terms in
    /// entry order, so neither the choice nor a skipped pass ever shows
    /// in the returned bits.
    pub fn dedup_adjusted(&self, unique_per_batch: f64) -> Hotness {
        let e = self.len();
        let total = self.total();
        if e == 0 || total <= 0.0 || unique_per_batch <= 0.0 {
            return self.clone();
        }
        let target = unique_per_batch.min(e as f64 * 0.999_999);
        let appears = |lambda: f64, p: f64| 1.0 - (-lambda * p).exp();
        let Some((values, group_of)) =
            group_by_bits(&self.weights, e / GROUPED_ENTRIES_PER_DISTINCT)
        else {
            let p: Vec<f64> = self.weights.iter().map(|w| w / total).collect();
            let lambda = calibrate_lambda(target, e, |lambda| {
                p.iter().map(|&pi| appears(lambda, pi)).sum()
            });
            return Hotness::new(p.iter().map(|&pi| appears(lambda, pi)).collect());
        };
        let p: Vec<f64> = values.iter().map(|w| w / total).collect();
        // `p == 0` makes the term `1 − exp(−0)`, exactly `+0.0` at every
        // λ, and adding that leaves a sum's bits alone: leave it out.
        let summed: Vec<u32> = group_of
            .iter()
            .copied()
            .filter(|&g| p[g as usize] != 0.0)
            .collect();
        let terms_at =
            |lambda: f64| -> Vec<f64> { p.iter().map(|&pi| appears(lambda, pi)).collect() };
        let lambda = calibrate_lambda(target, summed.len(), |lambda| {
            let terms = terms_at(lambda);
            summed.iter().fold(0.0, |sum, &g| sum + terms[g as usize])
        });
        let terms = terms_at(lambda);
        Hotness::new(group_of.iter().map(|&g| terms[g as usize]).collect())
    }

    /// Entry indices sorted hottest-first (ties by index for determinism).
    ///
    /// Weights that [`Hotness::new`] would refuse — `weights` is a public
    /// field — still get a deterministic order, never a panic: negative
    /// and infinite weights rank by value, as everywhere else, and a NaN
    /// ranks by its sign bit, above `+∞` or below `−∞`.
    pub fn ranking(&self) -> Vec<u32> {
        let n = self.len();
        let (mut hot, mut zeros) = (0usize, 0usize);
        let keys: Vec<u64> = self
            .weights
            .iter()
            .map(|&w| {
                let key = rank_key(w);
                hot += usize::from(key < ZERO_KEY);
                zeros += usize::from(key == ZERO_KEY);
                key
            })
            .collect();
        let key_of = |&i: &u32| keys[i as usize];
        if zeros == 0 {
            // Nothing to split off, and dealing the indices out would cost
            // a pass. Comparing keys read from one array, not weights through
            // `partial_cmp`, is what makes the sort fast on input without
            // long sorted runs (vertex degrees, all-distinct masses).
            let mut idx: Vec<u32> = (0..n as u32).collect();
            // Stable, so equal keys keep index order.
            idx.sort_by_key(key_of);
            return idx;
        }
        // A sampler's snapshot is mostly zeros, and zeros tie: deal the
        // indices out in index order to the entries hotter than zero, the
        // zeros and the rest (negative, `−NaN`), then sort only the first
        // and the last part. Each part keeps index order among equal keys,
        // so this is the stable sort's order.
        let mut idx = vec![0u32; n];
        let mut next = [0, hot, hot + zeros];
        for (i, &key) in keys.iter().enumerate() {
            let part = match key.cmp(&ZERO_KEY) {
                Ordering::Less => 0,
                Ordering::Equal => 1,
                Ordering::Greater => 2,
            };
            idx[next[part]] = i as u32;
            next[part] += 1;
        }
        idx[..hot].sort_by_key(key_of);
        idx[hot + zeros..].sort_by_key(key_of);
        idx
    }
}

/// [`Hotness::ranking`]'s integer key, which falls as the weight rises:
/// the bit pattern, with the magnitude bits flipped where the sign is
/// clear.
fn rank_key(w: f64) -> u64 {
    // `-0.0` ties with `+0.0`, as it does under `partial_cmp`.
    let bits = if w == 0.0 { 0 } else { w.to_bits() };
    if bits >> 63 == 0 {
        bits ^ (u64::MAX >> 1)
    } else {
        bits
    }
}

/// [`rank_key`] of a zero weight: hotter weights (and `+NaN`) have
/// smaller keys, negative ones (and `−NaN`) larger.
const ZERO_KEY: u64 = u64::MAX >> 1;

/// [`Hotness::dedup_adjusted`] evaluates `exp` per distinct weight when
/// there are at least this many entries per distinct value: a step then
/// costs a load and an addition per entry instead of an `exp`, which has
/// to pay for hashing every weight once to find the groups. Real inputs
/// sit far to either side — a sampler's snapshot holds a few hundred
/// distinct counts among hundreds of thousands of entries, analytic
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
    // A sampler's snapshot is mostly `+0.0`: once its group is known, a
    // zero takes it without a probe.
    let mut zero_id = None;
    for &w in weights {
        let bits = w.to_bits();
        let id = match zero_id {
            Some(id) if bits == 0 => id,
            _ => {
                let next = values.len() as u32;
                let id = *ids.entry(bits).or_insert(next);
                if id == next {
                    if values.len() == max_distinct {
                        return None;
                    }
                    values.push(w);
                }
                if bits == 0 {
                    zero_id = Some(id);
                }
                id
            }
        };
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

/// A complete cache layout: storage and access arrangement.
///
/// `access[i][e]` says where GPU `i` reads entry `e` (a [`SourceIdx`]);
/// `stored[j][e]` says whether GPU `j` holds a copy of `e`. The invariant
/// `access[i][e] = j (GPU) ⇒ stored[j][e]` corresponds to the paper's
/// `s_j^e ≥ a_{i←j}^e` constraint and is checked by
/// [`Placement::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Number of GPUs `G`.
    pub num_gpus: usize,
    /// Number of entries `E`.
    pub num_entries: usize,
    /// `access[i][e]`: source index GPU `i` reads entry `e` from.
    pub access: Vec<Vec<SourceIdx>>,
    /// `stored[j][e]`: whether GPU `j` caches entry `e`.
    pub stored: Vec<Vec<bool>>,
}

impl Placement {
    /// An all-host placement (nothing cached).
    pub fn all_host(num_gpus: usize, num_entries: usize) -> Self {
        Placement {
            num_gpus,
            num_entries,
            access: vec![vec![num_gpus as SourceIdx; num_entries]; num_gpus],
            stored: vec![vec![false; num_entries]; num_gpus],
        }
    }

    /// The host source index for this placement.
    pub fn host_idx(&self) -> SourceIdx {
        self.num_gpus as SourceIdx
    }

    /// Number of entries cached on GPU `j`.
    pub fn cached_count(&self, gpu: usize) -> usize {
        self.stored[gpu].iter().filter(|&&s| s).count()
    }

    /// Validates the storage/access invariants; returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.access.len() != self.num_gpus || self.stored.len() != self.num_gpus {
            return Err("arity mismatch".into());
        }
        for i in 0..self.num_gpus {
            if self.access[i].len() != self.num_entries || self.stored[i].len() != self.num_entries
            {
                return Err(format!("GPU{i} vectors have wrong length"));
            }
            for e in 0..self.num_entries {
                let s = self.access[i][e];
                if s > self.host_idx() {
                    return Err(format!("GPU{i} entry {e}: bad source {s}"));
                }
                if s != self.host_idx() && !self.stored[s as usize][e] {
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
        let mut counts = vec![0u64; self.num_gpus + 1];
        for &k in keys {
            counts[self.access[gpu][k as usize] as usize] += 1;
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
        let (mut local, mut remote, mut host) = (0.0, 0.0, 0.0);
        for (e, &w) in hotness.weights.iter().enumerate() {
            let s = self.access[gpu][e];
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
    /// `partial_cmp` comparator, which panics on a NaN, so a NaN is first
    /// put above `+∞` or below `−∞` by its sign bit, as `ranking` does.
    fn ranking_by_partial_cmp(weights: &[f64]) -> Vec<u32> {
        let nan_side = |w: f64| match (w.is_nan(), w.is_sign_positive()) {
            (true, true) => 0,
            (false, _) => 1,
            (true, false) => 2,
        };
        let mut idx: Vec<u32> = (0..weights.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (wa, wb) = (weights[a as usize], weights[b as usize]);
            nan_side(wa)
                .cmp(&nan_side(wb))
                .then_with(|| {
                    if wa.is_nan() {
                        std::cmp::Ordering::Equal
                    } else {
                        wb.partial_cmp(&wa).unwrap()
                    }
                })
                .then(a.cmp(&b))
        });
        idx
    }

    /// A weight drawn from `bits`: ties among a few small counts, zeros
    /// of both signs, and values unlikely to repeat — negative, infinite
    /// and NaN ones too, which `Hotness::new` refuses but the field
    /// admits.
    fn weight_from(bits: u64) -> f64 {
        let fraction = (bits >> 11) as f64 / (1u64 << 53) as f64;
        match bits % 8 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => ((bits >> 3) % 4) as f64,
            4 => -fraction,
            5 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN][(bits >> 3) as usize % 4],
            _ => fraction,
        }
    }

    /// A sampler-like draw from `bits`: nine in ten a zero of either
    /// sign, the rest [`weight_from`] (itself a zero one time in four).
    fn mostly_zero_from(bits: u64) -> f64 {
        match (bits >> 32) % 10 {
            0 => weight_from(bits),
            _ if bits & 1 == 0 => 0.0,
            _ => -0.0,
        }
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
                proptest::prop_assert_eq!(Hotness { weights }.ranking(), want);
            }
        }
    }

    #[test]
    fn ranking_splits_around_the_zeros_at_their_edges() {
        // No zero, all zeros, one entry on either side of them at either
        // end: the parts the ranking sorts apart are empty or one long.
        for n in [1usize, 2, 63, 64, 65] {
            let signed_zeros: Vec<f64> = (0..n)
                .map(|e| if e % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            let all_nonzero: Vec<f64> = (0..n as u64)
                .map(|e| weight_from(e.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                .map(|w| if w == 0.0 { 1.5 } else { w })
                .collect();
            let mut cases = vec![signed_zeros.clone(), all_nonzero];
            for at in [0, n / 2, n - 1] {
                for lone in [2.0, -2.0, f64::NAN, -f64::NAN] {
                    let mut w = signed_zeros.clone();
                    w[at] = lone;
                    cases.push(w);
                }
            }
            for weights in cases {
                let want = ranking_by_partial_cmp(&weights);
                let h = Hotness { weights };
                assert_eq!(h.ranking(), want, "{:?}", h.weights);
            }
            let in_order: Vec<u32> = (0..n as u32).collect();
            assert_eq!(Hotness::new(signed_zeros).ranking(), in_order);
        }
    }

    #[test]
    fn ranking_puts_a_nan_by_its_sign_bit() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let weights = vec![1.0, nan, -nan, inf, -1.0, -inf];
        assert_eq!(Hotness { weights }.ranking(), vec![1, 3, 0, 4, 5, 2]);
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
        assert_eq!(p.access[2][50], p.host_idx());
    }

    #[test]
    fn validate_catches_phantom_source() {
        let mut p = Placement::all_host(2, 4);
        p.access[0][1] = 1; // reads from GPU1, which stores nothing
        assert!(p.validate().is_err());
        p.stored[1][1] = true;
        p.validate().unwrap();
    }

    #[test]
    fn split_keys_counts_per_source() {
        let mut p = Placement::all_host(2, 6);
        p.stored[0][0] = true;
        p.stored[1][1] = true;
        p.access[0][0] = 0;
        p.access[0][1] = 1;
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
        p.stored[0][0] = true;
        p.stored[0][1] = true;
        p.stored[1][0] = true;
        p.access[0][0] = 0;
        p.access[0][1] = 0;
        p.access[1][0] = 1;
        p.access[1][1] = 0; // remote for GPU1
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
}
