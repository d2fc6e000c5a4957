//! Zipfian / power-law sampling.
//!
//! Embedding access in EmbDL workloads is skewed: DLR keys follow user
//! preference power laws, and GNN neighbour expansion follows graph degree
//! power laws (paper §2). [`ZipfSampler`] draws such ranks by
//! rejection-inversion (Hörmann & Derflinger), which needs no per-rank
//! state and so covers the multi-million-entry domains the paper
//! evaluates; a bounded *head table* decides the hot ranks — nearly every
//! draw — without evaluating a power.
//!
//! # One exact path, one table in front of it
//!
//! A draw maps a uniform `v` to `u = H(n+½) + v·(H(½) − 1 − H(n+½))`,
//! inverts the antiderivative `H(x) = x^(1−α)/(1−α)` to `x`, rounds to a
//! rank `k` and accepts when `k − x ≤ s` or `u ≥ H(k+½) − k^−α`;
//! otherwise it draws again. That body — two to three `powf` calls per
//! attempt — is [`ZipfSampler`]'s private `exact`, kept as it always was:
//! it is the definition of the stream, the fallback, and the oracle the
//! tests compare against.
//!
//! `H` is increasing for α on both sides of 1, so all of it can be
//! decided in `u`: rank `k` ⇔ `H(k−½) ≤ u < H(k+½)`, `k − x ≤ s` ⇔
//! `u ≥ H(k − s)`, and `u ≥ T_k = H(k+½) − k^−α` is a compare against a
//! constant. For the first `min(n, 4096)` ranks (`HEAD`) the sampler
//! stores four cut points per rank and a guide table of at most 8 192
//! buckets on `v`: a draw is one bucket load, a short upward scan and two
//! or three compares.
//!
//! # The guard
//!
//! The float body's `x` carries rounding error, amplified by
//! `|1/(1−α)|`; mapped back through `H` that amplification cancels, and
//! what is left is a handful of ulps *in `u`* whatever α. In half-ulps
//! (2⁻⁵³ relative), with a `powf` good to an ulp: 1 from the product
//! `u·(1−α)`, `2·|1−α|` from `powf`'s result, `|1−α|·ln x ≤ 8.4·|1−α|`
//! over the head from the rounded exponent `1/(1−α)`, and 3 in each
//! stored `H(·)` — under `4 + 12·|1−α|`. The table declines to decide
//! any `u` within a relative `(32 + 32·|1−α|)·ε` — `64 + 64·|1−α|`
//! half-ulps, five times that budget — of a rank boundary or of
//! `H(k − s)`, and any rank beyond the head; those draws run `exact`
//! **on the same `u`**. `T_k` needs no band: the table compares `u` with
//! the very float the body computes. Rank 1 has no lower boundary
//! (smaller `x` clamps to 1) and rank `n` no upper one. A declined draw
//! costs what every draw used to cost, so the guard trades nothing but
//! speed, and little of that: a band is some 10⁻¹⁴ of the `u` range
//! (at the nudged α = 1, where ranks are only thousands of ulps wide, the
//! table still decides 99.4 % of the draws of a 4 096-rank domain).
//!
//! # Memory
//!
//! At most 4 096 × 32 B of cut points and 8 192 × 2 B of guide entries:
//! 144 KiB per distinct sampler, behind an [`Arc`] — cloning a sampler
//! shares the table.

use rand::Rng;
use std::sync::Arc;

/// Ranks the head table decides; deeper ranks take the exact path.
const HEAD: usize = 4096;

/// What the head table says about one `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Accepted: this rank (1-based), as `exact` would find.
    Accept(u64),
    /// Rejected, as `exact` would: draw again.
    Reject,
    /// Beyond the head or inside a guard band: ask `exact`.
    Unsure,
}

/// Cut points of one rank `k` in `u`, guard bands applied.
#[derive(Debug, Clone, Copy)]
struct Cuts {
    /// `H(k+½)` less its band; `+∞` for the last rank of the domain.
    /// `u` above it belongs to a later rank (or to the band).
    hi: f64,
    /// Accept from here up to `hi`: `min(T_k, H(k − s) + band)`, never
    /// below `lo`.
    accept: f64,
    /// Reject from `lo` up to, not including, this:
    /// `min(T_k, H(k − s) − band)`.
    reject: f64,
    /// `H(k−½)` plus its band; `−∞` for rank 1.
    lo: f64,
}

/// The head table (module docs).
#[derive(Debug, Default)]
struct Head {
    /// `cuts[k − 1]` for rank `k`.
    cuts: Vec<Cuts>,
    /// `guide[i]`: the lowest rank a `v` in bucket `i` can belong to; 0
    /// when the whole bucket lies beyond the head.
    guide: Vec<u16>,
    /// Bucket count as a float: a power of two, so `v * buckets` is
    /// exact and bucket `i` is exactly `v ∈ [i, i + 1) / buckets`.
    buckets: f64,
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^alpha`.
///
/// Uses rejection-inversion, which needs no per-rank state, so a sampler
/// over a billion-entry domain costs O(1) memory beyond the bounded head
/// table (module docs) that decides the hot ranks without a `powf`.
/// `clone()` shares that table.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = emb_util::ZipfSampler::new(1_000_000, 1.2);
/// let k = z.sample(&mut rng);
/// assert!(k < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    /// `H(0.5) - 1`: lower bound of the inverted integral domain.
    h_x0: f64,
    /// `H(n + 0.5)`: upper bound of the inverted integral domain.
    h_n: f64,
    /// Acceptance shortcut threshold for rank 1.
    s: f64,
    head: Arc<Head>,
}

impl ZipfSampler {
    /// Creates a sampler over ranks `0..n` with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is not finite and positive.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "Zipf exponent must be a positive finite number"
        );
        // The closed-form antiderivative below is only valid for alpha != 1;
        // nudge alpha by an epsilon (the distributions are indistinguishable).
        let alpha = if (alpha - 1.0).abs() < 1e-9 {
            1.0 + 1e-9
        } else {
            alpha
        };
        let mut z = ZipfSampler {
            n,
            alpha,
            h_x0: 0.0,
            h_n: 0.0,
            s: 0.0,
            head: Arc::default(),
        };
        z.h_x0 = z.h(0.5) - 1.0;
        z.h_n = z.h(n as f64 + 0.5);
        z.s = 1.0 - z.h_inv(z.h(1.5) - 2.0_f64.powf(-alpha));
        z.head = Arc::new(z.build_head());
        z
    }

    fn h(&self, x: f64) -> f64 {
        // `H(x) = x^(1-alpha) / (1-alpha)`, the antiderivative of `x^-alpha`.
        x.powf(1.0 - self.alpha) / (1.0 - self.alpha)
    }

    fn h_inv(&self, x: f64) -> f64 {
        (x * (1.0 - self.alpha)).powf(1.0 / (1.0 - self.alpha))
    }

    /// The `u` a uniform `v ∈ [0, 1)` stands for: `H(n+½)` at 0, falling
    /// towards `H(½) − 1` (rank 1's end) as `v` rises.
    fn u_of(&self, v: f64) -> f64 {
        self.h_n + v * (self.h_x0 - self.h_n)
    }

    /// The rejection-inversion decision on `u`, exactly: the accepted
    /// 1-based rank, or `None` to draw again. This body defines the
    /// stream; the head table only ever repeats its answers.
    fn exact(&self, u: f64) -> Option<u64> {
        let x = self.h_inv(u);
        let k = x.round().clamp(1.0, self.n as f64);
        (k - x <= self.s || u >= self.h(k + 0.5) - k.powf(-self.alpha)).then_some(k as u64)
    }

    /// Builds the head table (module docs) from the sampler's constants.
    fn build_head(&self) -> Head {
        let ranks = self.n.min(HEAD as u64) as usize;
        let guard = (32.0 + 32.0 * (1.0 - self.alpha).abs()) * f64::EPSILON;
        let band = |at: f64| guard * at.abs();
        let mut cuts = Vec::with_capacity(ranks);
        let mut lo = f64::NEG_INFINITY;
        for k in 1..=ranks {
            let kf = k as f64;
            let upper = self.h(kf + 0.5);
            // The float `exact` compares `u` with, from the same expression.
            let t = upper - kf.powf(-self.alpha);
            let shortcut = self.h(kf - self.s);
            let hi = if k as u64 == self.n {
                f64::INFINITY
            } else {
                upper - band(upper)
            };
            if hi <= lo {
                // A rank narrower than its own bands has nothing left to
                // decide, and the scan below relies on `hi` rising.
                break;
            }
            cuts.push(Cuts {
                hi,
                accept: t.min(shortcut + band(shortcut)).max(lo),
                reject: t.min(shortcut - band(shortcut)),
                lo,
            });
            lo = upper + band(upper);
        }

        // `u_of` is non-increasing in `v` (float multiplication and
        // addition are monotone), so the lowest `u` of bucket `i` is at
        // its largest `v`, one step of 2^-53 below the next bucket.
        // Walking the buckets from the last, that `u` rises, and (`hi`
        // rising too) so does the first rank whose `hi` it does not exceed.
        let buckets = (2 * cuts.len()).next_power_of_two();
        let mut guide = vec![0u16; buckets];
        let mut at = 0;
        for (i, first) in guide.iter_mut().enumerate().rev() {
            let v_max = (i + 1) as f64 / buckets as f64 - 0.5 * f64::EPSILON;
            let u_min = self.u_of(v_max);
            while at < cuts.len() && cuts[at].hi < u_min {
                at += 1;
            }
            if at < cuts.len() {
                *first = (at + 1) as u16;
            }
        }
        Head {
            cuts,
            guide,
            buckets: buckets as f64,
        }
    }

    /// The head table's verdict on the draw `(v, u_of(v))`.
    fn table(&self, v: f64, u: f64) -> Verdict {
        let head = &*self.head;
        let mut k = head.guide[(v * head.buckets) as usize] as usize;
        if k == 0 {
            return Verdict::Unsure;
        }
        while let Some(c) = head.cuts.get(k - 1) {
            if u <= c.hi {
                return if u >= c.accept {
                    Verdict::Accept(k as u64)
                } else if u >= c.lo && u < c.reject {
                    Verdict::Reject
                } else {
                    Verdict::Unsure
                };
            }
            k += 1;
        }
        Verdict::Unsure
    }

    /// Draws one rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let v: f64 = rng.gen();
            let u = self.u_of(v);
            let accepted = match self.table(v, u) {
                Verdict::Accept(k) => Some(k),
                Verdict::Reject => None,
                Verdict::Unsure => self.exact(u),
            };
            if let Some(k) = accepted {
                return k - 1;
            }
        }
    }

    /// Returns the domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Computes the exact probabilities of the first `k` ranks.
    ///
    /// Normalization uses a full `O(n)` pass; intended for tests and for
    /// generating hotness ground truth on scaled-down domains.
    pub fn head_probabilities(&self, k: usize) -> Vec<f64> {
        let norm: f64 = (1..=self.n).map(|r| (r as f64).powf(-self.alpha)).sum();
        (0..k.min(self.n as usize))
            .map(|r| ((r + 1) as f64).powf(-self.alpha) / norm)
            .collect()
    }
}

/// Generates a normalized power-law hotness vector over `n` entries.
///
/// Entry `e` receives mass proportional to `(e+1)^-alpha`; the result sums
/// to 1. This is the "measured hotness" shape used throughout the policy
/// crate when an application supplies frequencies directly (paper §6.1).
pub fn powerlaw_hotness(n: usize, alpha: f64) -> Vec<f64> {
    let mut h: Vec<f64> = (0..n).map(|e| ((e + 1) as f64).powf(-alpha)).collect();
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seed_rng;

    #[test]
    fn samples_in_domain() {
        let mut rng = seed_rng(3);
        let z = ZipfSampler::new(100, 0.99);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_hottest() {
        let mut rng = seed_rng(4);
        let z = ZipfSampler::new(1000, 1.2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn empirical_matches_theoretical_head() {
        let mut rng = seed_rng(5);
        let n = 10_000;
        let z = ZipfSampler::new(n, 1.1);
        let draws = 400_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expected = z.head_probabilities(5);
        for (r, &p) in expected.iter().enumerate() {
            let emp = counts[r] as f64 / draws as f64;
            assert!(
                (emp - p).abs() / p < 0.1,
                "rank {r}: empirical {emp} vs theoretical {p}"
            );
        }
    }

    #[test]
    fn alpha_one_is_handled() {
        let mut rng = seed_rng(6);
        let z = ZipfSampler::new(50, 1.0);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn singleton_domain() {
        let mut rng = seed_rng(7);
        let z = ZipfSampler::new(1, 1.3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    impl ZipfSampler {
        /// `sample` with the head table taken away: every attempt asks
        /// `exact`. The stream as it was before the table existed.
        fn sample_exact<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            loop {
                let v: f64 = rng.gen();
                if let Some(k) = self.exact(self.u_of(v)) {
                    return k - 1;
                }
            }
        }
    }

    /// Exponents on both sides of 1, the nudged 1.0 itself, and the
    /// datasets' own (CF 1.0, PA 1.15, MAG/CR 1.1, SYN-A 1.2, SYN-B 1.4).
    const ALPHAS: [f64; 8] = [0.7, 0.99, 1.0, 1.05, 1.1, 1.15, 1.2, 1.4];

    #[test]
    fn sample_repeats_the_exact_path_draw_for_draw() {
        // Domains inside the head, on its edge, and far beyond it (CR's
        // largest table at scale 4096, SYN's at scale 1).
        const DOMAINS: [u64; 8] = [1, 4, 17, 4095, 4096, 4097, 68_906, 8_000_000];
        const DRAWS: usize = 1 << 20;
        for alpha in ALPHAS {
            for n in DOMAINS {
                let z = ZipfSampler::new(n, alpha);
                let mut fast = seed_rng(n ^ alpha.to_bits());
                let mut slow = fast.clone();
                for draw in 0..DRAWS {
                    assert_eq!(
                        z.sample(&mut fast),
                        z.sample_exact(&mut slow),
                        "alpha {alpha}, n {n}, draw {draw}"
                    );
                }
                assert_eq!(
                    fast, slow,
                    "alpha {alpha}, n {n}: RNGs drew different amounts"
                );
            }
        }
    }

    #[test]
    fn head_table_decides_nearly_every_draw_inside_it() {
        // The guard must cost speed only, and hardly any: with the whole
        // domain in the head, a table that declines more than a sliver of
        // the draws (the nudged exponent 1, whose ranks are a few
        // thousand ulps of `u` wide, declines the most) is mis-built.
        for alpha in ALPHAS {
            for n in [1u64, 17, 4096] {
                let z = ZipfSampler::new(n, alpha);
                let mut rng = seed_rng(11);
                let mut seen = [0usize; 3];
                for _ in 0..200_000 {
                    let v: f64 = rng.gen();
                    match z.table(v, z.u_of(v)) {
                        Verdict::Accept(_) => seen[0] += 1,
                        Verdict::Reject => seen[1] += 1,
                        Verdict::Unsure => seen[2] += 1,
                    }
                }
                assert!(seen[2] < 2_000, "alpha {alpha}, n {n}: {seen:?}");
            }
        }
    }

    #[test]
    fn table_and_exact_agree_around_every_stored_boundary() {
        // Aim `v` at every float the table stores (and at the raw
        // boundaries the bands were cut around), walk at least 64 ulps of
        // `u` to either side, and hold every verdict the table is sure of
        // to the exact path's.
        let step_v = 0.5 * f64::EPSILON;
        let mut sure = [0usize; 2];
        for (n, alpha) in [
            (1u64, 1.3),
            (4, 0.7),
            (17, 1.1),
            (300, 1.0),
            (4096, 1.4),
            (5000, 1.15),
            (68_906, 1.1),
            (1_000_000, 0.99),
        ] {
            let z = ZipfSampler::new(n, alpha);
            let span = z.h_x0 - z.h_n;
            let mut targets = Vec::new();
            for (at, c) in z.head.cuts.iter().enumerate() {
                let kf = (at + 1) as f64;
                targets.extend([c.hi, c.accept, c.reject, c.lo]);
                targets.extend([
                    z.h(kf + 0.5),
                    z.h(kf + 0.5) - kf.powf(-alpha),
                    z.h(kf - z.s),
                ]);
            }
            // Every rank of a small head, a spread of a large one.
            let stride = (targets.len() / 2_000).max(1);
            for &target in targets.iter().step_by(stride) {
                if !target.is_finite() {
                    continue;
                }
                let v0 = (target - z.h_n) / span;
                // One step moves `u` by about an ulp, or by what one step
                // of `v` moves it when that is more.
                let step = step_v.max((target.abs() * step_v / span.abs()).abs());
                for d in -80i32..=80 {
                    let v = v0 + d as f64 * step;
                    if !(0.0..1.0).contains(&v) {
                        continue;
                    }
                    let u = z.u_of(v);
                    match z.table(v, u) {
                        Verdict::Accept(k) => {
                            sure[0] += 1;
                            assert_eq!(z.exact(u), Some(k), "alpha {alpha}, n {n}, u {u:e}");
                        }
                        Verdict::Reject => {
                            sure[1] += 1;
                            assert_eq!(z.exact(u), None, "alpha {alpha}, n {n}, u {u:e}");
                        }
                        Verdict::Unsure => {}
                    }
                }
            }
        }
        assert!(sure[0] > 10_000 && sure[1] > 10_000, "vacuous: {sure:?}");
    }

    #[test]
    fn clones_share_the_head_table() {
        let z = ZipfSampler::new(10_000, 1.2);
        assert!(Arc::ptr_eq(&z.head, &z.clone().head));
        assert!(z.head.cuts.len() == HEAD && z.head.guide.len() == 2 * HEAD);
    }

    #[test]
    fn powerlaw_hotness_is_normalized_and_sorted() {
        let h = powerlaw_hotness(1000, 1.2);
        let sum: f64 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in h.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
