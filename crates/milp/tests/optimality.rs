//! Optimality tests: every answer `solve_lp` gives is proved optimal by a
//! certificate computed here, from the model, sharing no code with the
//! solver.
//!
//! * **Primal:** `x` satisfies the rows and bounds (`Model::is_feasible`,
//!   1e-7).
//! * **Dual:** the dual LP is solved (with `solve_lp`, but any `y` will
//!   do), its `y` clamped to the signs the row senses allow, and weak
//!   duality turns it into a lower bound on the optimum:
//!   `bᵀy + Σⱼ dⱼ·(lⱼ if dⱼ > 0 else uⱼ)` for `d = c − Aᵀy` (Neumaier &
//!   Shcherbina's safe bound). The objective must sit on it, within
//!   1e-7·(1 + |objective|).
//! * **Infeasible:** the same bound for zero costs and `y` boxed to
//!   `[−1, 1]` must be positive, which no feasible point allows (Farkas).
//!
//! On models of at most four variables and four rows the status and the
//! objective must also be what enumerating every basic solution finds.
//! The pivot path the placements depend on is pinned elsewhere, by
//! `baselines/quick` and `cache-policy`'s placement hashes.

use milp::{solve_lp, ConstraintSense, ConstraintSense::*, LinExpr, LpResult, LpStatus, Model};
use proptest::prelude::*;
use rand::Rng;

/// One row: `(terms, sense, rhs)`, a term `(variable, coefficient)`.
type Row = (Vec<(usize, f64)>, ConstraintSense, f64);

/// A test-side LP description: `Model` keeps its rows to itself, and a
/// certificate reads them.
#[derive(Debug, Clone, Default)]
struct Lp {
    /// `(lb, ub, cost)` per variable.
    vars: Vec<(f64, f64, f64)>,
    rows: Vec<Row>,
}

impl Lp {
    fn add_var(&mut self, lb: f64, ub: f64, cost: f64) -> usize {
        self.vars.push((lb, ub, cost));
        self.vars.len() - 1
    }

    fn add_nonneg(&mut self, cost: f64) -> usize {
        self.add_var(0.0, f64::INFINITY, cost)
    }

    fn add_row(&mut self, terms: Vec<(usize, f64)>, sense: ConstraintSense, rhs: f64) {
        self.rows.push((terms, sense, rhs));
    }

    fn to_model(&self) -> Model {
        let mut m = Model::new();
        let ids: Vec<_> = self
            .vars
            .iter()
            .map(|&(lb, ub, cost)| m.add_var(lb, ub, cost))
            .collect();
        for (terms, sense, rhs) in &self.rows {
            let expr = LinExpr::from_terms(terms.iter().map(|&(j, k)| (ids[j], k)));
            m.add_constraint(expr, *sense, *rhs);
        }
        m
    }

    fn costs(&self) -> Vec<f64> {
        self.vars.iter().map(|v| v.2).collect()
    }
}

/// The sign range a row's dual may take, for `min`: `≤` rows `y ≤ 0`,
/// `≥` rows `y ≥ 0`, equalities free; all within `±limit`.
fn dual_range(sense: ConstraintSense, limit: f64) -> (f64, f64) {
    match sense {
        Le => (-limit, 0.0),
        Ge => (0.0, limit),
        Eq => (-limit, limit),
    }
}

/// The dual of `min costsᵀx` over `lp`'s rows and bounds, as a
/// minimization: a `y` per row within [`dual_range`], an `r ≥ 0` per
/// finite lower bound and an `s ≥ 0` per finite upper bound, and per
/// variable `j` the row `Σᵢ aᵢⱼ yᵢ + rⱼ − sⱼ = cⱼ`. Its objective
/// `−bᵀy − Σ lⱼ rⱼ + Σ uⱼ sⱼ` is minus the dual bound; its first
/// `rows` variables are `y`.
fn dual(lp: &Lp, costs: &[f64], limit: f64) -> Lp {
    let mut d = Lp::default();
    let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); lp.vars.len()];
    for (terms, sense, rhs) in &lp.rows {
        let (lo, hi) = dual_range(*sense, limit);
        let y = d.add_var(lo, hi, -rhs);
        for &(j, k) in terms {
            columns[j].push((y, k));
        }
    }
    for (j, &(lb, ub, _)) in lp.vars.iter().enumerate() {
        if lb.is_finite() {
            let r = d.add_nonneg(-lb);
            columns[j].push((r, 1.0));
        }
        if ub.is_finite() {
            let s = d.add_nonneg(ub);
            columns[j].push((s, -1.0));
        }
    }
    for (column, &c) in columns.into_iter().zip(costs) {
        d.add_row(column, Eq, c);
    }
    d
}

/// The weak-duality lower bound `y` proves on `min costsᵀx` over `lp`,
/// after clamping `y` to the signs its rows allow. A reduced cost on an
/// infinite bound must be zero (within 1e-9), or `y` proves nothing.
fn dual_bound(lp: &Lp, costs: &[f64], y: &[f64], label: &str) -> f64 {
    let y: Vec<f64> = lp
        .rows
        .iter()
        .zip(y)
        .map(|((_, sense, _), &yi)| {
            let (lo, hi) = dual_range(*sense, f64::INFINITY);
            yi.clamp(lo, hi)
        })
        .collect();
    let mut d = costs.to_vec();
    let mut bound = 0.0;
    for ((terms, _, rhs), &yi) in lp.rows.iter().zip(&y) {
        bound += rhs * yi;
        for &(j, k) in terms {
            d[j] -= k * yi;
        }
    }
    for (j, (&dj, &(lb, ub, _))) in d.iter().zip(&lp.vars).enumerate() {
        if dj == 0.0 {
            continue;
        }
        let at = if dj > 0.0 { lb } else { ub };
        if at.is_finite() {
            bound += dj * at;
        } else {
            assert!(
                dj.abs() <= 1e-9,
                "{label}: reduced cost {dj} of x[{j}] on an infinite bound"
            );
        }
    }
    bound
}

/// Solves `lp` and proves the answer: an optimum primal feasible and on
/// its dual bound, an `Infeasible` by a Farkas bound. Returns the answer.
fn certify(lp: &Lp, label: &str) -> Result<LpResult, LpStatus> {
    let model = lp.to_model();
    let got = solve_lp(&model);
    match &got {
        Ok(sol) => {
            assert!(model.is_feasible(&sol.x, 1e-7), "{label}: x infeasible");
            let costs = lp.costs();
            let y = solve_lp(&dual(lp, &costs, f64::INFINITY).to_model())
                .unwrap_or_else(|s| panic!("{label}: the dual has no optimum ({s:?})"))
                .x;
            let bound = dual_bound(lp, &costs, &y, label);
            let gap = sol.objective - bound;
            assert!(
                gap <= 1e-7 * (1.0 + sol.objective.abs()),
                "{label}: objective {} is {gap:e} above its dual bound",
                sol.objective
            );
        }
        Err(LpStatus::Infeasible) => {
            let zeros = vec![0.0; lp.vars.len()];
            let y = solve_lp(&dual(lp, &zeros, 1.0).to_model())
                .unwrap_or_else(|s| panic!("{label}: the Farkas LP has no optimum ({s:?})"))
                .x;
            let bound = dual_bound(lp, &zeros, &y, label);
            assert!(
                bound > 1e-7,
                "{label}: Infeasible, but the Farkas bound is {bound:e}"
            );
        }
        Err(_) => {}
    }
    got
}

#[test]
fn transportation_lp_is_certified() {
    let mut lp = Lp::default();
    let costs = [[4.0, 6.0, 9.0], [5.0, 3.0, 8.0]];
    let supply = [30.0, 40.0];
    let demand = [20.0, 30.0, 20.0];
    let v: Vec<Vec<usize>> = costs
        .iter()
        .map(|row| row.iter().map(|&c| lp.add_nonneg(c)).collect())
        .collect();
    for i in 0..2 {
        lp.add_row((0..3).map(|j| (v[i][j], 1.0)).collect(), Le, supply[i]);
    }
    for j in 0..3 {
        lp.add_row((0..2).map(|i| (v[i][j], 1.0)).collect(), Ge, demand[j]);
    }
    let sol = certify(&lp, "transportation").expect("feasible");
    // 20 at 4, 30 at 3, 10 at 9 and 10 at 8.
    assert!((sol.objective - 340.0).abs() < 1e-9, "{}", sol.objective);
}

#[test]
fn terminal_statuses_are_certified() {
    // Infeasible, with a Farkas bound.
    let mut inf = Lp::default();
    let x = inf.add_var(0.0, 1.0, 1.0);
    inf.add_row(vec![(x, 1.0)], Ge, 2.0);
    assert_eq!(certify(&inf, "infeasible"), Err(LpStatus::Infeasible));

    // Unbounded.
    let mut unb = Lp::default();
    let x = unb.add_nonneg(-1.0);
    let y = unb.add_nonneg(0.0);
    unb.add_row(vec![(x, 1.0), (y, -1.0)], Le, 1.0);
    assert_eq!(certify(&unb, "unbounded"), Err(LpStatus::Unbounded));
}

#[test]
fn random_lps_are_certified() {
    // Dense-ish and sparse-ish random LPs across several seeds; equality,
    // inequality, bound-flip and phase-1 paths are all exercised.
    for seed in [3u64, 11, 42, 97, 2026] {
        let mut rng = emb_util::seed_rng(seed);
        let mut lp = Lp::default();
        let n = 30;
        let rows = 18;
        let vars: Vec<_> = (0..n)
            .map(|_| lp.add_var(0.0, 1.0, rng.gen_range(-1.0..1.0)))
            .collect();
        for r in 0..rows {
            // Sparse rows: ~1/3 of the variables participate.
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_range(0.0..1.0) < 0.34 {
                    terms.push((v, rng.gen_range(-1.0..1.0)));
                }
            }
            if r % 3 == 0 {
                lp.add_row(terms, Ge, rng.gen_range(-2.0..0.5));
            } else {
                lp.add_row(terms, Le, rng.gen_range(0.5..6.0));
            }
        }
        certify(&lp, &format!("random seed {seed}")).expect("feasible");
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
fn placement_lp(seed: u64, gpus: usize, blocks: usize, patterns: usize) -> Lp {
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

    let mut lp = Lp::default();
    let y: Vec<Vec<usize>> = (0..blocks)
        .map(|_| (0..patterns).map(|_| lp.add_var(0.0, 1.0, 0.0)).collect())
        .collect();
    let tj: Vec<Vec<usize>> = (0..g)
        .map(|_| (0..=host).map(|_| lp.add_nonneg(0.0)).collect())
        .collect();
    let t: Vec<usize> = (0..g).map(|_| lp.add_nonneg(0.0)).collect();
    let z = lp.add_nonneg(1.0);

    for row in &y {
        lp.add_row(row.iter().map(|&v| (v, 1.0)).collect(), Eq, 1.0);
    }
    for j in 0..g {
        let mut terms = Vec::new();
        for b in 0..blocks {
            for p in 0..patterns {
                let c = sizes[b] * store[p];
                if c > 0.0 {
                    terms.push((y[b][p], c));
                }
            }
        }
        lp.add_row(terms, Le, caps[j]);
    }
    for i in 0..g {
        for j in 0..=host {
            let mut terms = vec![(tj[i][j], -1.0)];
            for b in 0..blocks {
                for p in 0..patterns {
                    let frac = read(p, i, j);
                    if frac > 0.0 {
                        let sec = class(i, j, sec_local, sec_remote, 1.0);
                        terms.push((y[b][p], raw[b] / raw_total * sec * frac));
                    }
                }
            }
            lp.add_row(terms, Eq, 0.0);
        }
    }
    for i in 0..g {
        for j in 0..=host {
            lp.add_row(vec![(t[i], 1.0), (tj[i][j], -1.0)], Ge, 0.0);
        }
        let mut padded = vec![(t[i], 1.0)];
        for j in 0..=host {
            padded.push((tj[i][j], -class(i, j, pad_local, pad_remote, pad_host)));
        }
        lp.add_row(padded, Ge, 0.0);
        lp.add_row(vec![(z, 1.0), (t[i], -1.0)], Ge, 0.0);
    }
    lp
}

#[test]
fn placement_shaped_lps_are_certified() {
    // (gpus, blocks, patterns, total tableau columns, seeds): one word
    // minus a bit, exactly one word, one word plus a bit, two words plus a
    // bit, and two Server-C-like 8-GPU cases whose capacity and `tj` rows
    // fill in the way the real placement LP's do. Wider ones have a dual
    // of thousands of rows, which takes minutes to solve; the next test
    // pins them.
    let two = &[1u64, 2026][..];
    for (gpus, blocks, patterns, columns, seeds) in [
        (1, 5, 7, 63, two),
        (2, 1, 17, 64, two),
        (2, 4, 3, 65, two),
        (2, 4, 19, 129, two),
        (8, 4, 9, 461, two),
        (8, 16, 9, 593, two),
    ] {
        for &seed in seeds {
            let lp = placement_lp(seed, gpus, blocks, patterns);
            assert_eq!(
                lp.vars.len() + 2 * lp.rows.len(),
                columns,
                "G{gpus} B{blocks} P{patterns}"
            );
            let label = format!("placement G{gpus} B{blocks} P{patterns} seed {seed}");
            certify(&lp, &label).expect("the all-host pattern keeps it feasible");
        }
    }
}

#[test]
fn wide_placement_lps_keep_their_pivot_path() {
    // A ~2 000-column case, and the joint pattern LP at the size the
    // figures solve it on an 8-GPU server (368 rows). Their duals are
    // too large to solve here, so they hold their iteration counts and
    // objectives, recorded when the dense solver they were checked
    // against pivot for pivot was retired.
    for (gpus, blocks, patterns, seed, iterations, objective) in [
        (8, 32, 48, 1u64, 320, 0x3fb0_eaea_0605_6ff0u64),
        (8, 32, 48, 2026, 292, 0x3fb0_151a_fcad_d11e),
        (8, 200, 9, 0x5EED, 896, 0x3fb8_1e3e_f78a_aeae),
    ] {
        let label = format!("placement G{gpus} B{blocks} P{patterns} seed {seed}");
        let lp = placement_lp(seed, gpus, blocks, patterns);
        let model = lp.to_model();
        let sol = solve_lp(&model).expect("the all-host pattern keeps it feasible");
        assert!(model.is_feasible(&sol.x, 1e-7), "{label}: x infeasible");
        assert_eq!(sol.iterations, iterations, "{label}");
        assert_eq!(
            sol.objective.to_bits(),
            objective,
            "{label}: {}",
            sol.objective
        );
    }
}

/// A seeded LP over `n` box variables and `rows` rows of mixed sense
/// whose right-hand sides keep `x = 0.4` feasible; `pin` fixes every
/// third variable (`lb == ub`).
fn mixed_lp(seed: u64, n: usize, rows: usize, pin: bool) -> Lp {
    let mut rng = emb_util::seed_rng(seed);
    let mut lp = Lp::default();
    let vars: Vec<usize> = (0..n)
        .map(|j| {
            let cost = rng.gen_range(-1.0..1.0);
            if pin && j % 3 == 1 {
                let at = rng.gen_range(0.0..1.0);
                lp.add_var(at, at, cost)
            } else {
                lp.add_var(0.0, 1.0, cost)
            }
        })
        .collect();
    for r in 0..rows {
        let mut terms: Vec<(usize, f64)> = Vec::new();
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
        lp.add_row(terms, sense, rhs);
    }
    lp
}

#[test]
fn widths_around_the_group_size_are_certified() {
    // (structurals, rows) whose tableau — a slack and an artificial per
    // row — is 1, 7, 8, 9, 63, 64 and 65 columns wide: one group minus a
    // lane, exactly one, one plus a lane, and the same around eight.
    for (n, rows) in [(1, 0), (3, 2), (4, 2), (5, 2), (23, 20), (24, 20), (25, 20)] {
        for seed in [5u64, 71, 2027] {
            let lp = mixed_lp(seed, n, rows, false);
            certify(&lp, &format!("width {} seed {seed}", n + 2 * rows)).expect("x = 0.4");
        }
    }
}

#[test]
fn pinned_structurals_are_certified() {
    // Every third variable has `lb == ub`: it sits in the rows (its value
    // shifts the residuals) but its column is retired from the start.
    // Pinned values are drawn, so one could be infeasible; it would carry
    // a Farkas bound.
    let mut solved = 0;
    for seed in 0..12u64 {
        let lp = mixed_lp(seed, 30, 14, true);
        let got = certify(&lp, &format!("pinned seed {seed}"));
        assert!(matches!(got, Ok(_) | Err(LpStatus::Infeasible)), "{got:?}");
        solved += usize::from(got.is_ok());
    }
    assert!(solved >= 4, "only {solved} of 12 pinned LPs are feasible");
}

#[test]
fn all_equality_lps_are_certified() {
    // A balanced transportation problem, every row an equality: every
    // slack is retired from the start and phase 1 does all the routing.
    for seed in [1u64, 9, 300] {
        let mut rng = emb_util::seed_rng(seed);
        let (sources, sinks) = (6, 9);
        let supply: Vec<f64> = (0..sources).map(|_| rng.gen_range(5..40) as f64).collect();
        let total: f64 = supply.iter().sum();
        let mut demand: Vec<f64> = (0..sinks).map(|_| (total / sinks as f64).floor()).collect();
        demand[0] += total - demand.iter().sum::<f64>();
        let mut lp = Lp::default();
        let ship: Vec<Vec<usize>> = (0..sources)
            .map(|_| {
                (0..sinks)
                    .map(|_| lp.add_nonneg(rng.gen_range(1.0..9.0)))
                    .collect()
            })
            .collect();
        for (i, &s) in supply.iter().enumerate() {
            lp.add_row(ship[i].iter().map(|&v| (v, 1.0)).collect(), Eq, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            lp.add_row(ship.iter().map(|row| (row[j], 1.0)).collect(), Eq, d);
        }
        let sol = certify(&lp, &format!("all-equality seed {seed}")).expect("balanced");
        assert!(sol.max_residual < 1e-6);
    }
}

#[test]
fn box_lps_dominated_by_bound_flips_are_certified() {
    // 40 box variables `f` with negative cost share 6 rows with 20 box
    // variables `g`, and every row's right-hand side exceeds the most its
    // left side can reach: no basic slack ever blocks, so all 40 (and
    // every `g` that pays) go to their upper bound by a flip — reduced
    // costs are kept, not recomputed — while 10 tight rows over `g` alone
    // pivot in between. The flips are at least the 40, which the
    // iteration count must leave at 30 % or more.
    for seed in [4u64, 44, 444] {
        let mut rng = emb_util::seed_rng(seed);
        let mut lp = Lp::default();
        let f: Vec<usize> = (0..40)
            .map(|_| lp.add_var(0.0, 1.0, rng.gen_range(-1.0..-0.01)))
            .collect();
        let g: Vec<usize> = (0..20)
            .map(|_| lp.add_var(0.0, 1.0, rng.gen_range(-1.0..1.0)))
            .collect();
        for _ in 0..6 {
            let terms: Vec<(usize, f64)> = f
                .iter()
                .chain(&g)
                .map(|&v| (v, rng.gen_range(0.0..1.0)))
                .collect();
            let reach: f64 = terms.iter().map(|&(_, k)| k).sum();
            lp.add_row(terms, Le, reach + 2.0);
        }
        for _ in 0..10 {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for &v in &g {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    terms.push((v, rng.gen_range(0.0..1.0)));
                }
            }
            lp.add_row(terms, Le, rng.gen_range(0.5..1.5));
        }
        let sol = certify(&lp, &format!("flips seed {seed}")).expect("x = 0 is feasible");
        for &v in &f {
            assert_eq!(sol.x[v], 1.0, "seed {seed}: an `f` did not flip up");
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
fn free_variables_that_enter_are_certified() {
    // Two free variables among bounded ones: they rest at 0 and can only
    // move by entering the basis, which the optimum (both nonzero) forces.
    // Their violation is `|d|`, scanned apart from the signed columns and
    // merged by the same largest-first, lowest-index rule; the
    // certificate needs their reduced costs at zero.
    for seed in [2u64, 20, 200] {
        let mut rng = emb_util::seed_rng(seed);
        let mut lp = Lp::default();
        let x: Vec<usize> = (0..6)
            .map(|_| lp.add_var(0.0, 2.0, rng.gen_range(-1.0..1.0)))
            .collect();
        let up = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let down = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.5);
        let more: Vec<usize> = (0..6)
            .map(|_| lp.add_var(0.0, 2.0, rng.gen_range(-1.0..1.0)))
            .collect();
        let all = || x.iter().chain(&more).copied();
        let weights = |rng: &mut rand::rngs::StdRng| -> Vec<(usize, f64)> {
            all().map(|v| (v, rng.gen_range(-0.5..0.5))).collect()
        };
        let mut cap = weights(&mut rng);
        cap.push((up, 1.0));
        lp.add_row(cap, Le, 7.0);
        let mut floor = weights(&mut rng);
        floor.push((down, 1.0));
        lp.add_row(floor, Ge, -5.0);
        let mut tie = weights(&mut rng);
        tie.extend([(up, 1.0), (down, 1.0)]);
        lp.add_row(tie, Le, 4.0);
        let sol = certify(&lp, &format!("free seed {seed}")).expect("bounded");
        assert!(sol.x[up] != 0.0 && sol.x[down] != 0.0);
    }
}

/// `min c·x` over the cone `A x ≥ 0, x ≥ 0` with `c = Aᵀy + s` for
/// `y, s ≥ 0`: bounded (the optimum is the apex), and every step from the
/// apex is degenerate. Returns the LP and its `y`, a dual that proves
/// the optimum 0.
fn cone_lp(seed: u64, n: usize, rows: usize) -> (Lp, Vec<f64>) {
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
    let mut lp = Lp::default();
    for j in 0..n {
        let priced: f64 = (0..rows).map(|i| a[i][j] * y[i]).sum();
        lp.add_nonneg(priced + rng.gen_range(0.0..0.2));
    }
    for row in &a {
        let terms = (0..n).filter(|&j| row[j] != 0.0).map(|j| (j, row[j]));
        lp.add_row(terms.collect(), Ge, 0.0);
    }
    (lp, y)
}

#[test]
fn degenerate_lps_in_blands_mode_reach_their_apex() {
    // Every step of a cone LP has length zero, so after `2·(rows + 16)`
    // of them the entering rule falls back to Bland's for good. Counted
    // with a scratch counter when this test was written: 497 of the
    // first LP's 576 steps and 68 of the second's 123 run under Bland's
    // rule; the third never gets out (5 257 of 5 320) and the solver
    // gives up at the iteration cap.
    for (n, rows, seed, iterations) in [
        (41, 23, 3u64, Some(576)),
        (65, 11, 15, Some(123)),
        (37, 15, 11, None),
    ] {
        let label = format!("cone n {n} rows {rows}");
        let (lp, y) = cone_lp(seed, n, rows);
        let model = lp.to_model();
        let got = solve_lp(&model);
        let Some(steps) = iterations else {
            assert_eq!(got, Err(LpStatus::IterationLimit), "{label}");
            continue;
        };
        let sol = got.expect("bounded at the apex");
        assert_eq!(sol.iterations, steps, "{label}");
        assert!(model.is_feasible(&sol.x, 1e-7), "{label}: x infeasible");
        let bound = dual_bound(&lp, &lp.costs(), &y, &label);
        assert_eq!(bound, 0.0, "{label}: the cone's own dual proves 0");
        assert!(
            sol.objective.abs() <= 1e-7,
            "{label}: objective {}",
            sol.objective
        );
    }
}

/// The optimum of a model whose variables are all boxed, by enumerating
/// its basic solutions: every choice of as many rows and bounds as there
/// are variables, held with equality, solved by Gaussian elimination, and
/// kept when feasible (1e-9). `None` when no basic solution is feasible,
/// which for a nonempty box means the model is infeasible.
fn enumerated_optimum(lp: &Lp) -> Option<f64> {
    let n = lp.vars.len();
    // Every hyperplane a vertex may lie on: rows, then bounds.
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for (terms, _, rhs) in &lp.rows {
        let mut a = vec![0.0; n];
        for &(j, k) in terms {
            a[j] += k;
        }
        planes.push((a, *rhs));
    }
    for (j, &(lb, ub, _)) in lp.vars.iter().enumerate() {
        let unit: Vec<f64> = (0..n).map(|k| f64::from(u8::from(k == j))).collect();
        planes.push((unit.clone(), lb));
        if ub != lb {
            planes.push((unit, ub));
        }
    }
    let feasible = |x: &[f64]| {
        let tol = 1e-9;
        lp.vars
            .iter()
            .zip(x)
            .all(|(&(lb, ub, _), &xj)| xj >= lb - tol && xj <= ub + tol)
            && lp.rows.iter().all(|(terms, sense, rhs)| {
                let lhs: f64 = terms.iter().map(|&(j, k)| k * x[j]).sum();
                match sense {
                    Le => lhs <= rhs + tol,
                    Ge => lhs >= rhs - tol,
                    Eq => (lhs - rhs).abs() <= tol,
                }
            })
    };
    let mut best: Option<f64> = None;
    for chosen in 0u32..1 << planes.len() {
        if chosen.count_ones() as usize != n {
            continue;
        }
        // [A | b] of the chosen planes, reduced with partial pivoting.
        let mut m: Vec<Vec<f64>> = (0..planes.len())
            .filter(|&p| (chosen >> p) & 1 == 1)
            .map(|p| {
                let (a, b) = &planes[p];
                a.iter().copied().chain([*b]).collect()
            })
            .collect();
        let mut singular = false;
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&r, &s| m[r][col].abs().total_cmp(&m[s][col].abs()))
                .expect("rows remain");
            if m[pivot][col].abs() < 1e-12 {
                singular = true;
                break;
            }
            m.swap(col, pivot);
            for r in 0..n {
                if r != col {
                    let f = m[r][col] / m[col][col];
                    for k in col..=n {
                        m[r][k] -= f * m[col][k];
                    }
                }
            }
        }
        if singular {
            continue;
        }
        let x: Vec<f64> = (0..n).map(|r| m[r][n] / m[r][r]).collect();
        if feasible(&x) {
            let obj: f64 = lp.vars.iter().zip(&x).map(|(v, &xj)| v.2 * xj).sum();
            best = Some(best.map_or(obj, |b| b.min(obj)));
        }
    }
    best
}

/// A model of one to four boxed variables (some pinned) and up to four
/// rows of any sense. Every coefficient, bound and right-hand side is a
/// multiple of 1/2, so a feasible model is feasible by a margin and an
/// infeasible one infeasible by one.
fn tiny_lp(seed: u64) -> Lp {
    let mut rng = emb_util::seed_rng(seed);
    let half =
        |rng: &mut rand::rngs::StdRng, lo: i32, hi: i32| f64::from(rng.gen_range(lo..=hi)) / 2.0;
    let mut lp = Lp::default();
    let n = rng.gen_range(1..=4);
    for _ in 0..n {
        let lb = half(&mut rng, -4, 0);
        let ub = lb + half(&mut rng, 0, 6);
        let cost = half(&mut rng, -4, 4);
        lp.add_var(lb, ub, cost);
    }
    for _ in 0..rng.gen_range(0..=4) {
        let terms = (0..n)
            .map(|j| (j, half(&mut rng, -4, 4)))
            .filter(|&(_, k)| k != 0.0)
            .collect();
        let sense = [Le, Ge, Eq][rng.gen_range(0..3)];
        let rhs = half(&mut rng, -6, 6);
        lp.add_row(terms, sense, rhs);
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// On tiny boxed models the solver's status and objective are the
    /// enumeration's, `Infeasible` included, and carry their certificate.
    #[test]
    fn tiny_models_match_the_enumeration(seed in 0u64..1 << 32) {
        let lp = tiny_lp(seed);
        let got = certify(&lp, &format!("tiny seed {seed}: {lp:?}"));
        match (enumerated_optimum(&lp), got) {
            (None, got) => prop_assert_eq!(got, Err(LpStatus::Infeasible)),
            (Some(want), Ok(sol)) => prop_assert!(
                (sol.objective - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "objective {} vs enumerated {}", sol.objective, want
            ),
            (Some(want), Err(s)) => prop_assert!(false, "{:?}, enumerated {}", s, want),
        }
    }
}
