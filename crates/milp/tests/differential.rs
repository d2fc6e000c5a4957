//! Differential tests: the simplex must follow the exact same pivot
//! sequence as the frozen dense solver — same solutions, same objectives,
//! same iteration counts — through everything it skips: zero groups,
//! retired columns, re-pricing outside the pivot row's support and after
//! bound flips (debug builds also assert, after every pivot, that the
//! partial re-price left what a full one would).

use milp::{
    solve_lp, solve_lp_dense, ConstraintSense::*, LinExpr, LpResult, LpStatus, Model, VarId,
};
use rand::Rng;

fn expr(terms: &[(VarId, f64)]) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied())
}

/// Asserts both solvers agree on `m` and returns `solve_lp`'s answer.
fn assert_same(m: &Model, label: &str) -> Result<LpResult, LpStatus> {
    let sparse = solve_lp(m);
    let dense = solve_lp_dense(m);
    match (&sparse, &dense) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.iterations, b.iterations, "{label}: iteration count");
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "{label}: objective {} vs {}",
                a.objective,
                b.objective
            );
            assert_eq!(a.x.len(), b.x.len(), "{label}: solution length");
            for (j, (xa, xb)) in a.x.iter().zip(b.x.iter()).enumerate() {
                // Zero-sign divergence (±0.0) is the one tolerated bitwise
                // difference: skipping an exact-zero column can keep a -0.0
                // the dense subtraction would flip. `==` treats them equal
                // and nothing downstream distinguishes them.
                assert!(xa == xb, "{label}: x[{j}] = {xa} (sparse) vs {xb} (dense)");
            }
            assert_eq!(a.max_residual, b.max_residual, "{label}: residual mismatch");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: status"),
        _ => panic!("{label}: sparse {sparse:?} vs dense {dense:?}"),
    }
    sparse
}

#[test]
fn transportation_lp_matches_dense() {
    let mut m = Model::new();
    let costs = [[4.0, 6.0, 9.0], [5.0, 3.0, 8.0]];
    let supply = [30.0, 40.0];
    let demand = [20.0, 30.0, 20.0];
    let mut v = [[None; 3]; 2];
    for (i, row) in costs.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            v[i][j] = Some(m.add_nonneg(c));
        }
    }
    for i in 0..2 {
        let e = expr(&(0..3).map(|j| (v[i][j].unwrap(), 1.0)).collect::<Vec<_>>());
        m.add_constraint(e, Le, supply[i]);
    }
    for j in 0..3 {
        let e = expr(&(0..2).map(|i| (v[i][j].unwrap(), 1.0)).collect::<Vec<_>>());
        m.add_constraint(e, Ge, demand[j]);
    }
    assert_same(&m, "transportation").expect("feasible");
}

#[test]
fn terminal_statuses_match_dense() {
    // Infeasible.
    let mut inf = Model::new();
    let x = inf.add_var(0.0, 1.0, 1.0);
    inf.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
    assert_eq!(assert_same(&inf, "infeasible"), Err(LpStatus::Infeasible));

    // Unbounded.
    let mut unb = Model::new();
    let x = unb.add_nonneg(-1.0);
    let y = unb.add_nonneg(0.0);
    unb.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Le, 1.0);
    assert_eq!(assert_same(&unb, "unbounded"), Err(LpStatus::Unbounded));
}

#[test]
fn random_lps_match_dense_pivot_for_pivot() {
    // Dense-ish and sparse-ish random LPs across several seeds; equality,
    // inequality, bound-flip and phase-1 paths are all exercised.
    for seed in [3u64, 11, 42, 97, 2026] {
        let mut rng = emb_util::seed_rng(seed);
        let mut m = Model::new();
        let n = 30;
        let rows = 18;
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-1.0..1.0)))
            .collect();
        for r in 0..rows {
            // Sparse rows: ~1/3 of the variables participate.
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_range(0.0..1.0) < 0.34 {
                    terms.push((v, rng.gen_range(-1.0..1.0)));
                }
            }
            let e = expr(&terms);
            if r % 3 == 0 {
                m.add_constraint(e, Ge, rng.gen_range(-2.0..0.5));
            } else {
                m.add_constraint(e, Le, rng.gen_range(0.5..6.0));
            }
        }
        assert_same(&m, &format!("random seed {seed}")).expect("feasible");
    }
}

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
fn placement_lp(seed: u64, gpus: usize, blocks: usize, patterns: usize) -> Model {
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
        .map(|_| (0..patterns).map(|_| m.add_var(0.0, 1.0, 0.0)).collect())
        .collect();
    let tj: Vec<Vec<VarId>> = (0..g)
        .map(|_| (0..=host).map(|_| m.add_nonneg(0.0)).collect())
        .collect();
    let t: Vec<VarId> = (0..g).map(|_| m.add_nonneg(0.0)).collect();
    let z = m.add_nonneg(1.0);

    for row in &y {
        let expr = LinExpr::from_terms(row.iter().map(|&v| (v, 1.0)));
        m.add_constraint(expr, Eq, 1.0);
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
        m.add_constraint(expr, Le, caps[j]);
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
            m.add_constraint(expr, Eq, 0.0);
        }
    }
    for i in 0..g {
        for j in 0..=host {
            let expr = LinExpr::new().plus(t[i], 1.0).plus(tj[i][j], -1.0);
            m.add_constraint(expr, Ge, 0.0);
        }
        let mut padded = LinExpr::new().plus(t[i], 1.0);
        for j in 0..=host {
            padded = padded.plus(tj[i][j], -class(i, j, pad_local, pad_remote, pad_host));
        }
        m.add_constraint(padded, Ge, 0.0);
        m.add_constraint(LinExpr::new().plus(z, 1.0).plus(t[i], -1.0), Ge, 0.0);
    }
    m
}

#[test]
fn placement_shaped_lps_match_dense_pivot_for_pivot() {
    // (gpus, blocks, patterns, total tableau columns, seeds): one word
    // minus a bit, exactly one word, one word plus a bit, two words plus a
    // bit, a ~2 000-column case with Server-C-like 8 GPUs whose capacity
    // and `tj` rows fill in the way the real placement LP's do, and the
    // joint pattern LP at the size the figures solve it on an 8-GPU
    // server (368 rows; one seed, as it costs more than the rest together
    // in a debug build).
    let two = &[1u64, 2026][..];
    for (gpus, blocks, patterns, columns, seeds) in [
        (1, 5, 7, 63, two),
        (2, 1, 17, 64, two),
        (2, 4, 3, 65, two),
        (2, 4, 19, 129, two),
        (8, 32, 48, 2017, two),
        (8, 200, 9, 2617, &[0x5EED]),
    ] {
        for &seed in seeds {
            let m = placement_lp(seed, gpus, blocks, patterns);
            assert_eq!(
                m.num_vars() + 2 * m.num_constraints(),
                columns,
                "G{gpus} B{blocks} P{patterns}"
            );
            let label = format!("placement G{gpus} B{blocks} P{patterns} seed {seed}");
            assert_same(&m, &label).expect("the all-host pattern keeps it feasible");
        }
    }
}

/// A seeded LP over `n` box variables and `rows` rows of mixed sense
/// whose right-hand sides keep `x = 0.4` feasible; `pin` fixes every
/// third variable (`lb == ub`).
fn mixed_lp(seed: u64, n: usize, rows: usize, pin: bool) -> Model {
    let mut rng = emb_util::seed_rng(seed);
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n)
        .map(|j| {
            let cost = rng.gen_range(-1.0..1.0);
            if pin && j % 3 == 1 {
                let at = rng.gen_range(0.0..1.0);
                m.add_var(at, at, cost)
            } else {
                m.add_var(0.0, 1.0, cost)
            }
        })
        .collect();
    for r in 0..rows {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_range(0.0..1.0) < 0.6 {
                terms.push((v, rng.gen_range(-1.0..1.0)));
            }
        }
        let at_interior: f64 = terms.iter().map(|&(_, k)| 0.4 * k).sum();
        let (sense, rhs) = match r % 3 {
            0 => (Le, at_interior + rng.gen_range(0.0..0.5)),
            1 => (Ge, at_interior - rng.gen_range(0.0..0.5)),
            _ => (Eq, at_interior),
        };
        m.add_constraint(expr(&terms), sense, rhs);
    }
    m
}

#[test]
fn widths_around_the_group_size_match_dense() {
    // (structurals, rows) whose tableau — a slack and an artificial per
    // row — is 1, 7, 8, 9, 63, 64 and 65 columns wide: one group minus a
    // lane, exactly one, one plus a lane, and the same around eight.
    for (n, rows) in [(1, 0), (3, 2), (4, 2), (5, 2), (23, 20), (24, 20), (25, 20)] {
        for seed in [5u64, 71, 2027] {
            let m = mixed_lp(seed, n, rows, false);
            let _ = assert_same(&m, &format!("width {} seed {seed}", n + 2 * rows));
        }
    }
}

#[test]
fn pinned_structurals_match_dense() {
    // Every third variable has `lb == ub`: it sits in the rows (its value
    // shifts the residuals) but its column is retired from the start.
    // Pinned values are drawn, so some of these are infeasible — the
    // statuses must agree too.
    let mut solved = 0;
    for seed in 0..12u64 {
        let m = mixed_lp(seed, 30, 14, true);
        solved += usize::from(assert_same(&m, &format!("pinned seed {seed}")).is_ok());
    }
    assert!(solved >= 4, "only {solved} of 12 pinned LPs are feasible");
}

#[test]
fn all_equality_lps_match_dense() {
    // A balanced transportation problem, every row an equality: every
    // slack is retired from the start and phase 1 does all the routing.
    for seed in [1u64, 9, 300] {
        let mut rng = emb_util::seed_rng(seed);
        let (sources, sinks) = (6, 9);
        let supply: Vec<f64> = (0..sources).map(|_| rng.gen_range(5..40) as f64).collect();
        let total: f64 = supply.iter().sum();
        let mut demand: Vec<f64> = (0..sinks).map(|_| (total / sinks as f64).floor()).collect();
        demand[0] += total - demand.iter().sum::<f64>();
        let mut m = Model::new();
        let ship: Vec<Vec<VarId>> = (0..sources)
            .map(|_| {
                (0..sinks)
                    .map(|_| m.add_nonneg(rng.gen_range(1.0..9.0)))
                    .collect()
            })
            .collect();
        for (i, &s) in supply.iter().enumerate() {
            m.add_constraint(
                expr(&ship[i].iter().map(|&v| (v, 1.0)).collect::<Vec<_>>()),
                Eq,
                s,
            );
        }
        for (j, &d) in demand.iter().enumerate() {
            m.add_constraint(
                expr(&ship.iter().map(|row| (row[j], 1.0)).collect::<Vec<_>>()),
                Eq,
                d,
            );
        }
        let sol = assert_same(&m, &format!("all-equality seed {seed}")).expect("balanced");
        assert!(sol.max_residual < 1e-6);
    }
}

#[test]
fn box_lps_dominated_by_bound_flips_match_dense() {
    // 40 box variables `f` with negative cost share 6 rows with 20 box
    // variables `g`, and every row's right-hand side exceeds the most its
    // left side can reach: no basic slack ever blocks, so all 40 (and
    // every `g` that pays) go to their upper bound by a flip — reduced
    // costs are kept, not recomputed — while 10 tight rows over `g` alone
    // pivot in between. The flips are at least the 40, which the
    // iteration count must leave at 30 % or more.
    for seed in [4u64, 44, 444] {
        let mut rng = emb_util::seed_rng(seed);
        let mut m = Model::new();
        let f: Vec<VarId> = (0..40)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-1.0..-0.01)))
            .collect();
        let g: Vec<VarId> = (0..20)
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-1.0..1.0)))
            .collect();
        for _ in 0..6 {
            let terms: Vec<(VarId, f64)> = f
                .iter()
                .chain(&g)
                .map(|&v| (v, rng.gen_range(0.0..1.0)))
                .collect();
            let reach: f64 = terms.iter().map(|&(_, k)| k).sum();
            m.add_constraint(expr(&terms), Le, reach + 2.0);
        }
        for _ in 0..10 {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &v in &g {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    terms.push((v, rng.gen_range(0.0..1.0)));
                }
            }
            m.add_constraint(expr(&terms), Le, rng.gen_range(0.5..1.5));
        }
        let sol = assert_same(&m, &format!("flips seed {seed}")).expect("x = 0 is feasible");
        for &v in &f {
            assert_eq!(sol.x[v.index()], 1.0, "seed {seed}: an `f` did not flip up");
        }
        assert!(
            10 * f.len() >= 3 * sol.iterations,
            "seed {seed}: {} flips among {} iterations",
            f.len(),
            sol.iterations
        );
    }
}

#[test]
fn free_variables_that_enter_match_dense() {
    // Two free variables among bounded ones: they rest at 0 and can only
    // move by entering the basis, which the optimum (both nonzero) forces.
    // Their violation is `|d|`, scanned apart from the signed columns and
    // merged by the same largest-first, lowest-index rule.
    for seed in [2u64, 20, 200] {
        let mut rng = emb_util::seed_rng(seed);
        let mut m = Model::new();
        let x: Vec<VarId> = (0..6)
            .map(|_| m.add_var(0.0, 2.0, rng.gen_range(-1.0..1.0)))
            .collect();
        let up = m.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let down = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.5);
        let more: Vec<VarId> = (0..6)
            .map(|_| m.add_var(0.0, 2.0, rng.gen_range(-1.0..1.0)))
            .collect();
        let all = || x.iter().chain(&more).copied();
        let weights = |rng: &mut rand::rngs::StdRng| -> Vec<(VarId, f64)> {
            all().map(|v| (v, rng.gen_range(-0.5..0.5))).collect()
        };
        let mut cap = weights(&mut rng);
        cap.push((up, 1.0));
        m.add_constraint(expr(&cap), Le, 7.0);
        let mut floor = weights(&mut rng);
        floor.push((down, 1.0));
        m.add_constraint(expr(&floor), Ge, -5.0);
        let mut tie = weights(&mut rng);
        tie.extend([(up, 1.0), (down, 1.0)]);
        m.add_constraint(expr(&tie), Le, 4.0);
        let sol = assert_same(&m, &format!("free seed {seed}")).expect("bounded");
        assert!(sol.x[up.index()] != 0.0 && sol.x[down.index()] != 0.0);
    }
}

/// `min c·x` over the cone `A x ≥ 0, x ≥ 0` with `c = Aᵀy + s` for
/// `y, s ≥ 0`: bounded (the optimum is the apex), and every step from the
/// apex is degenerate.
fn cone_lp(seed: u64, n: usize, rows: usize) -> Model {
    let mut rng = emb_util::seed_rng(seed);
    let a: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..n)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n)
        .map(|j| {
            let priced: f64 = (0..rows).map(|i| a[i][j] * y[i]).sum();
            m.add_nonneg(priced + rng.gen_range(0.0..0.2))
        })
        .collect();
    for row in &a {
        let terms = (0..n).filter(|&j| row[j] != 0.0).map(|j| (vars[j], row[j]));
        m.add_constraint(LinExpr::from_terms(terms), Ge, 0.0);
    }
    m
}

#[test]
fn degenerate_lps_in_blands_mode_match_dense() {
    // Every step of a cone LP has length zero, so after `2·(rows + 16)`
    // of them the entering rule falls back to Bland's for good. Counted
    // with a scratch counter when this test was written: 497 of the
    // first LP's 576 steps and 68 of the second's 123 run under Bland's
    // rule; the third never gets out (5 257 of 5 320) and both solvers
    // give up at the iteration cap.
    for (n, rows, seed, iterations) in [
        (41, 23, 3u64, Some(576)),
        (65, 11, 15, Some(123)),
        (37, 15, 11, None),
    ] {
        let m = cone_lp(seed, n, rows);
        let got = assert_same(&m, &format!("cone n {n} rows {rows}"));
        match iterations {
            Some(steps) => assert_eq!(got.expect("bounded at the apex").iterations, steps),
            None => assert_eq!(got, Err(LpStatus::IterationLimit)),
        }
    }
}
