//! Differential tests: the bitset-support simplex must follow the exact
//! same pivot sequence as the frozen dense solver — same solutions, same
//! objectives, same iteration counts.

use milp::fixtures::placement_lp;
use milp::{
    solve_lp, solve_lp_dense, ConstraintSense::*, LinExpr, LpResult, LpStatus, Model, VarId,
};
use rand::Rng;

fn expr(terms: &[(VarId, f64)]) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied())
}

/// Asserts both solvers agree on `m` and returns the bitset solver's answer.
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
            v[i][j] = Some(m.add_nonneg(&format!("x{i}{j}"), c));
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
    let x = inf.add_var("x", 0.0, 1.0, 1.0, false);
    inf.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
    assert_eq!(assert_same(&inf, "infeasible"), Err(LpStatus::Infeasible));

    // Unbounded.
    let mut unb = Model::new();
    let x = unb.add_nonneg("x", -1.0);
    let y = unb.add_nonneg("y", 0.0);
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
            .map(|i| m.add_var(&format!("x{i}"), 0.0, 1.0, rng.gen_range(-1.0..1.0), false))
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

#[test]
fn placement_shaped_lps_match_dense_pivot_for_pivot() {
    // (gpus, blocks, patterns, total tableau columns): one word minus a
    // bit, exactly one word, one word plus a bit, two words plus a bit,
    // and a ~2 000-column case with Server-C-like 8 GPUs whose capacity
    // and `tj` rows fill in the way the real placement LP's do.
    for (gpus, blocks, patterns, columns) in [
        (1, 5, 7, 63),
        (2, 1, 17, 64),
        (2, 4, 3, 65),
        (2, 4, 19, 129),
        (8, 32, 48, 2017),
    ] {
        for seed in [1u64, 2026] {
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
