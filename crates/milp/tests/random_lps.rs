//! Property tests for the LP solver on randomized instances.

use milp::{solve_lp, ConstraintSense, LinExpr, Model};
use proptest::prelude::*;

/// Builds a random box-bounded minimization LP with `n` vars and `m`
/// non-negative-coefficient ≤-constraints (always feasible: x = 0).
fn random_model(costs: &[f64], coeffs: &[f64], rhs: &[f64]) -> Model {
    let n = costs.len();
    let m = rhs.len();
    let mut model = Model::new();
    let vars: Vec<_> = costs.iter().map(|&c| model.add_var(0.0, 1.0, c)).collect();
    for r in 0..m {
        let expr = LinExpr::from_terms(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, coeffs[r * n + i])),
        );
        model.add_constraint(expr, ConstraintSense::Le, rhs[r]);
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// LP solutions are feasible and dominate every 0/1 corner.
    #[test]
    fn lp_dominates_binary_corners(
        costs in prop::collection::vec(-3.0f64..3.0, 2..6),
        rhs in prop::collection::vec(0.5f64..3.0, 1..4),
        coeff_seed in prop::collection::vec(0.05f64..1.5, 24),
    ) {
        let n = costs.len();
        let m = rhs.len();
        let coeffs: Vec<f64> = (0..n * m).map(|k| coeff_seed[k % coeff_seed.len()]).collect();
        let model = random_model(&costs, &coeffs, &rhs);
        let sol = solve_lp(&model).expect("feasible by construction");
        prop_assert!(model.is_feasible(&sol.x, 1e-6));
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            if model.is_feasible(&x, 1e-9) {
                prop_assert!(
                    sol.objective <= model.objective_value(&x) + 1e-6,
                    "corner {x:?} beats the LP"
                );
            }
        }
    }

    /// Equality-constrained transportation problems balance exactly.
    #[test]
    fn transportation_balances(
        demand in prop::collection::vec(0.2f64..2.0, 2..4),
        cost_seed in prop::collection::vec(0.1f64..5.0, 12),
    ) {
        let sinks = demand.len();
        let srcs = 3usize;
        let total: f64 = demand.iter().sum();
        let mut m = Model::new();
        let mut vars = vec![vec![]; srcs];
        for (i, row) in vars.iter_mut().enumerate() {
            for j in 0..sinks {
                let c = cost_seed[(i * sinks + j) % cost_seed.len()];
                row.push(m.add_nonneg(c));
            }
        }
        // Each source ships at most total (loose), each sink exactly met.
        for row in &vars {
            let e = LinExpr::from_terms(row.iter().map(|&v| (v, 1.0)));
            m.add_constraint(e, ConstraintSense::Le, total);
        }
        for (j, &d) in demand.iter().enumerate() {
            let e = LinExpr::from_terms((0..srcs).map(|i| (vars[i][j], 1.0)));
            m.add_constraint(e, ConstraintSense::Eq, d);
        }
        let sol = solve_lp(&m).expect("feasible");
        // Every sink's inflow equals its demand.
        for (j, &d) in demand.iter().enumerate() {
            let inflow: f64 = (0..srcs).map(|i| sol.x[vars[i][j].index()]).sum();
            prop_assert!((inflow - d).abs() < 1e-6);
        }
        // Optimal routes everything through per-sink-cheapest sources.
        let cheapest: f64 = demand
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let c = (0..srcs)
                    .map(|i| cost_seed[(i * sinks + j) % cost_seed.len()])
                    .fold(f64::INFINITY, f64::min);
                c * d
            })
            .sum();
        prop_assert!((sol.objective - cheapest).abs() < 1e-6);
    }
}
