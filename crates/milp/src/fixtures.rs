//! Seeded LP generators for the differential tests, so they exercise
//! the shape of LP the solver meets in production rather than one that
//! happens to be convenient.

use crate::model::{ConstraintSense, LinExpr, Model, VarId};

/// Builds a seeded LP shaped like the cache-policy pattern LP (paper
/// §6.2; `cache_policy::UGacheSolver` builds the real one): per hotness
/// block `b` and placement pattern `p` a fraction `y[b][p] ∈ [0, 1]`,
/// per GPU `i` and source `j` (GPUs, then host) a time `tj[i][j] ≥ 0`,
/// per GPU a time `t[i] ≥ 0`, and the makespan `z`, which is minimized.
///
/// Rows, in order: `blocks` assignment equalities `Σ_p y[b][p] = 1`;
/// `gpus` capacity rows `Σ size_b · store[p] · y[b][p] ≤ cap_j`, dense
/// across every block; `gpus · (gpus + 1)` defining equalities
/// `Σ w_b · T[i][j] · read[p][i][j] · y[b][p] − tj[i][j] = 0`, equally
/// dense and with rhs 0 (so the solve is heavily degenerate); then per
/// GPU the `t[i] ≥ tj[i][j]` rows, the padded row
/// `t[i] ≥ Σ_j R[i][j] · tj[i][j]`, and `z ≥ t[i]`.
///
/// Like the solver's patterns on a switch platform, the patterns here
/// are symmetric across GPUs: pattern 0 reads everything from host and
/// stores nothing (so the LP is always feasible), pattern `p ≥ 1`
/// stores the fraction `p / (patterns − 1)` of a block on every GPU,
/// reads that fraction locally and spreads the rest over the other GPUs
/// (over host when there is one GPU), and `T`/`R` depend only on
/// whether a source is local, remote or host. The symmetry is what
/// makes the real tableau cancel to exact zeros as it fills in. Block
/// sizes, block weights, the three `T`/`R` levels and the per-GPU
/// capacities are drawn from `seed`.
///
/// The tableau `milp::solve_lp` builds has
/// `blocks · (patterns + 2) + 5·gpus·(gpus + 1) + 7·gpus + 1` columns
/// (structurals plus a slack and an artificial per row).
///
/// # Panics
///
/// Panics if `gpus` or `blocks` is zero or `patterns < 2`.
pub fn placement_lp(seed: u64, gpus: usize, blocks: usize, patterns: usize) -> Model {
    assert!(
        gpus > 0 && blocks > 0 && patterns > 1,
        "placement LP needs a GPU, a block, and a caching pattern beside all-host"
    );
    let g = gpus;
    let host = g;
    let mut draws = 0u64;
    // Uniform in [0, 1), one SplitMix64 output per draw.
    let mut unit = move || {
        draws += 1;
        (emb_util::split_seed(seed, draws) >> 11) as f64 / (1u64 << 53) as f64
    };

    // Per-byte times relative to host (= 1) and padding weights, by
    // source class.
    let (sec_local, sec_remote) = (0.02 + 0.03 * unit(), 0.1 + 0.2 * unit());
    let (pad_local, pad_remote, pad_host) = (unit(), unit(), unit());
    let class = |i: usize, j: usize, local: f64, remote: f64, at_host: f64| {
        if j == host {
            at_host
        } else if j == i {
            local
        } else {
            remote
        }
    };

    // Power-law block weights over jittered block sizes.
    let sizes: Vec<f64> = (0..blocks)
        .map(|_| (50.0 + 450.0 * unit()).floor())
        .collect();
    let raw: Vec<f64> = (0..blocks)
        .map(|b| ((b + 1) as f64).powf(-1.2) * (0.5 + unit()))
        .collect();
    let raw_total: f64 = raw.iter().sum();
    let total_size: f64 = sizes.iter().sum();
    let caps: Vec<f64> = (0..g)
        .map(|_| (total_size * (0.08 + 0.04 * unit())).floor())
        .collect();

    // store[p] (the same on every GPU) and read[p][i][j].
    let store: Vec<f64> = (0..patterns)
        .map(|p| p as f64 / (patterns - 1) as f64)
        .collect();
    let read = |p: usize, i: usize, j: usize| {
        let elsewhere = 1.0 - store[p];
        if g == 1 || p == 0 {
            class(i, j, store[p], 0.0, elsewhere)
        } else {
            class(i, j, store[p], elsewhere / (g - 1) as f64, 0.0)
        }
    };

    let mut m = Model::new();
    let y: Vec<Vec<VarId>> = (0..blocks)
        .map(|b| {
            (0..patterns)
                .map(|p| m.add_var(&format!("y_{b}_{p}"), 0.0, 1.0, 0.0, false))
                .collect()
        })
        .collect();
    let tj: Vec<Vec<VarId>> = (0..g)
        .map(|i| {
            (0..=host)
                .map(|j| m.add_nonneg(&format!("tj_{i}_{j}"), 0.0))
                .collect()
        })
        .collect();
    let t: Vec<VarId> = (0..g)
        .map(|i| m.add_nonneg(&format!("t_{i}"), 0.0))
        .collect();
    let z = m.add_nonneg("z", 1.0);

    for row in &y {
        let expr = LinExpr::from_terms(row.iter().map(|&v| (v, 1.0)));
        m.add_constraint(expr, ConstraintSense::Eq, 1.0);
    }
    for j in 0..g {
        let mut expr = LinExpr::new();
        for b in 0..blocks {
            for p in 0..patterns {
                let c = sizes[b] * store[p];
                if c > 0.0 {
                    expr = expr.plus(y[b][p], c);
                }
            }
        }
        m.add_constraint(expr, ConstraintSense::Le, caps[j]);
    }
    for i in 0..g {
        for j in 0..=host {
            let mut expr = LinExpr::new().plus(tj[i][j], -1.0);
            for b in 0..blocks {
                for p in 0..patterns {
                    let frac = read(p, i, j);
                    if frac > 0.0 {
                        let sec = class(i, j, sec_local, sec_remote, 1.0);
                        expr = expr.plus(y[b][p], raw[b] / raw_total * sec * frac);
                    }
                }
            }
            m.add_constraint(expr, ConstraintSense::Eq, 0.0);
        }
    }
    for i in 0..g {
        for j in 0..=host {
            let expr = LinExpr::new().plus(t[i], 1.0).plus(tj[i][j], -1.0);
            m.add_constraint(expr, ConstraintSense::Ge, 0.0);
        }
        let mut padded = LinExpr::new().plus(t[i], 1.0);
        for j in 0..=host {
            padded = padded.plus(tj[i][j], -class(i, j, pad_local, pad_remote, pad_host));
        }
        m.add_constraint(padded, ConstraintSense::Ge, 0.0);
        m.add_constraint(
            LinExpr::new().plus(z, 1.0).plus(t[i], -1.0),
            ConstraintSense::Ge,
            0.0,
        );
    }
    m
}
