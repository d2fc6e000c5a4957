//! Best-first branch-and-bound over the LP relaxation.

use crate::model::Model;
use crate::simplex::{solve_lp, LpStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;

/// Relative optimality gap at which the search stops early.
const REL_GAP: f64 = 1e-6;

/// Branch-and-bound limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions { max_nodes: 20_000 }
    }
}

/// Outcome classification of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Incumbent proven optimal (within a relative gap of 1e-6).
    Optimal,
    /// Node limit hit; the incumbent is feasible but not proven optimal.
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// The relaxation (hence the MILP) is unbounded.
    Unbounded,
    /// Node limit hit before any integer-feasible point was found.
    NoSolutionFound,
}

/// Result of [`solve_milp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MilpResult {
    /// Solve outcome.
    pub status: MilpStatus,
    /// Best integer-feasible point (empty when none found).
    pub x: Vec<f64>,
    /// Objective of `x` (+inf when none found).
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub bound: f64,
    /// Nodes explored.
    pub nodes: usize,
}

/// A pending node: bound overrides relative to the base model.
#[derive(Debug, Clone)]
struct Node {
    overrides: Vec<(usize, f64, f64)>,
    lp_bound: f64,
}

/// Min-heap ordering by LP bound (best-first for minimization).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.lp_bound == other.lp_bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest bound.
        other
            .lp_bound
            .partial_cmp(&self.lp_bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Solves a MILP by branch-and-bound.
///
/// The model's integer variables are branched on; continuous variables
/// are left to the LP. Designed for the block-granularity placement
/// instances of the UGache solver (hundreds of binaries).
pub fn solve_milp(model: &Model, opts: &MilpOptions) -> MilpResult {
    let int_vars = model.integer_vars();
    let mut work = model.clone();

    let mut best_x: Vec<f64> = Vec::new();
    let mut best_obj = f64::INFINITY;
    let mut nodes = 0usize;

    // Root relaxation.
    let root = match solve_with(&mut work, model, &[]) {
        Ok(sol) => sol,
        Err(LpStatus::Infeasible) => {
            return MilpResult {
                status: MilpStatus::Infeasible,
                x: vec![],
                objective: f64::INFINITY,
                bound: f64::INFINITY,
                nodes: 1,
            }
        }
        Err(LpStatus::Unbounded) => {
            return MilpResult {
                status: MilpStatus::Unbounded,
                x: vec![],
                objective: f64::NEG_INFINITY,
                bound: f64::NEG_INFINITY,
                nodes: 1,
            }
        }
        Err(LpStatus::IterationLimit) => {
            return MilpResult {
                status: MilpStatus::NoSolutionFound,
                x: vec![],
                objective: f64::INFINITY,
                bound: f64::NEG_INFINITY,
                nodes: 1,
            }
        }
    };

    // Root rounding heuristic: nearest-integer snap, keep if feasible.
    {
        let mut rx = root.x.clone();
        for &v in &int_vars {
            rx[v] = rx[v].round();
        }
        if model.is_feasible(&rx, 1e-6) {
            best_obj = model.objective_value(&rx);
            best_x = rx;
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        overrides: vec![],
        lp_bound: root.objective,
    });
    let mut global_bound = root.objective;

    while let Some(node) = heap.pop() {
        if nodes >= opts.max_nodes {
            break;
        }
        nodes += 1;
        global_bound = node.lp_bound;

        // Prune against incumbent.
        if node.lp_bound >= best_obj - gap_abs(best_obj) {
            // Best-first: every remaining node is at least as bad.
            global_bound = best_obj;
            break;
        }

        let sol = match solve_with(&mut work, model, &node.overrides) {
            Ok(s) => s,
            Err(_) => continue, // infeasible or numerically stuck: prune
        };
        if sol.objective >= best_obj - gap_abs(best_obj) {
            continue;
        }

        // Most fractional integer variable.
        let frac_var = int_vars
            .iter()
            .copied()
            .map(|v| (v, (sol.x[v] - sol.x[v].round()).abs()))
            .filter(|&(_, f)| f > INT_TOL)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        match frac_var {
            None => {
                // Integral: new incumbent.
                if sol.objective < best_obj {
                    best_obj = sol.objective;
                    best_x = sol.x.clone();
                }
            }
            Some((v, _)) => {
                let xv = sol.x[v];
                let (lo_ub, hi_lb) = (xv.floor(), xv.floor() + 1.0);
                let mut down = node.overrides.clone();
                down.push((v, f64::NEG_INFINITY, lo_ub));
                let mut up = node.overrides.clone();
                up.push((v, hi_lb, f64::INFINITY));
                heap.push(Node {
                    overrides: down,
                    lp_bound: sol.objective,
                });
                heap.push(Node {
                    overrides: up,
                    lp_bound: sol.objective,
                });
            }
        }
    }

    if heap.is_empty() && nodes < opts.max_nodes {
        global_bound = best_obj;
    }
    let status = if best_x.is_empty() {
        if heap.is_empty() && nodes < opts.max_nodes {
            MilpStatus::Infeasible
        } else {
            MilpStatus::NoSolutionFound
        }
    } else if heap.is_empty()
        || global_bound >= best_obj - gap_abs(best_obj)
        || nodes < opts.max_nodes && heap.peek().is_none_or(|n| n.lp_bound >= best_obj)
    {
        MilpStatus::Optimal
    } else {
        MilpStatus::Feasible
    };
    MilpResult {
        status,
        x: best_x,
        objective: best_obj,
        bound: global_bound,
        nodes,
    }
}

fn gap_abs(obj: f64) -> f64 {
    if obj.is_finite() {
        REL_GAP * obj.abs().max(1.0)
    } else {
        0.0
    }
}

/// Solves the LP with per-node bound overrides applied (intersected with
/// the base bounds), restoring the work model afterwards.
fn solve_with(
    work: &mut Model,
    base: &Model,
    overrides: &[(usize, f64, f64)],
) -> Result<crate::simplex::LpResult, LpStatus> {
    for &(v, lb, ub) in overrides {
        let new_lb = work.vars[v].lb.max(lb);
        let new_ub = work.vars[v].ub.min(ub);
        if new_lb > new_ub {
            // Restore before reporting.
            for &(w, _, _) in overrides {
                work.vars[w].lb = base.vars[w].lb;
                work.vars[w].ub = base.vars[w].ub;
            }
            return Err(LpStatus::Infeasible);
        }
        work.vars[v].lb = new_lb;
        work.vars[v].ub = new_ub;
    }
    let r = solve_lp(work);
    for &(v, _, _) in overrides {
        work.vars[v].lb = base.vars[v].lb;
        work.vars[v].ub = base.vars[v].ub;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense::*, LinExpr, Model};

    fn expr(terms: &[(crate::model::VarId, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c + 4d s.t. 3a+4b+2c+d <= 7  (as min of negs)
        let mut m = Model::new();
        let a = m.add_var("a", 0.0, 1.0, -10.0, true);
        let b = m.add_var("b", 0.0, 1.0, -13.0, true);
        let c = m.add_var("c", 0.0, 1.0, -7.0, true);
        let d = m.add_var("d", 0.0, 1.0, -4.0, true);
        m.add_constraint(expr(&[(a, 3.0), (b, 4.0), (c, 2.0), (d, 1.0)]), Le, 7.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        // Best: b + c + d = 13+7+4 = 24 (weight 7).
        assert!((r.objective + 24.0).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // LP optimum is fractional; MILP must branch.
        // max x + y s.t. 2x + 2y <= 3, x,y binary → best is 1 (not 1.5).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, -1.0, true);
        let y = m.add_var("y", 0.0, 1.0, -1.0, true);
        m.add_constraint(expr(&[(x, 2.0), (y, 2.0)]), Le, 3.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_problem() {
        // 3×3 assignment, cost matrix with known optimum 5 (1+1+3).
        let cost = [[1.0, 4.0, 5.0], [3.0, 1.0, 9.0], [8.0, 7.0, 3.0]];
        let mut m = Model::new();
        let mut v = [[None; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                v[i][j] = Some(m.add_var(&format!("x{i}{j}"), 0.0, 1.0, cost[i][j], true));
            }
        }
        for i in 0..3 {
            let e = expr(&(0..3).map(|j| (v[i][j].unwrap(), 1.0)).collect::<Vec<_>>());
            m.add_constraint(e, Eq, 1.0);
        }
        for j in 0..3 {
            let e = expr(&(0..3).map(|i| (v[i][j].unwrap(), 1.0)).collect::<Vec<_>>());
            m.add_constraint(e, Eq, 1.0);
        }
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 5.0).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 1.0, true);
        let y = m.add_var("y", 0.0, 1.0, 1.0, true);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Ge, 3.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_with_continuous() {
        // min -y - 0.5 x s.t. y <= 2.5 + ... : y integer, x continuous.
        // y - x <= 1.2, x <= 0.7, y <= 3 → x=0.7, y<=1.9 → y=1 → obj -1.35.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 0.7, -0.5, false);
        let y = m.add_var("y", 0.0, 3.0, -1.0, true);
        m.add_constraint(expr(&[(y, 1.0), (x, -1.0)]), Le, 1.2);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective + 1.35).abs() < 1e-6, "{}", r.objective);
        assert!((r.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 4.0, -1.0, false);
        m.add_constraint(expr(&[(x, 1.0)]), Le, 2.5);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective + 2.5).abs() < 1e-9);
    }

    #[test]
    fn node_limit_respected() {
        use rand::Rng;
        let mut rng = emb_util::seed_rng(5);
        let mut m = Model::new();
        let n = 30;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(&format!("b{i}"), 0.0, 1.0, -rng.gen_range(1.0..10.0), true))
            .collect();
        let e = expr(
            &vars
                .iter()
                .map(|&v| (v, rng.gen_range(1.0..5.0)))
                .collect::<Vec<_>>(),
        );
        m.add_constraint(e, Le, 20.0);
        let r = solve_milp(&m, &MilpOptions { max_nodes: 5 });
        assert!(r.nodes <= 6);
        // With the rounding heuristic an incumbent usually exists; either
        // way the status must reflect reality.
        match r.status {
            MilpStatus::Optimal | MilpStatus::Feasible => assert!(!r.x.is_empty()),
            MilpStatus::NoSolutionFound => assert!(r.x.is_empty()),
            s => panic!("unexpected status {s:?}"),
        }
    }

    #[test]
    fn bound_never_exceeds_incumbent() {
        let mut m = Model::new();
        let a = m.add_var("a", 0.0, 1.0, -3.0, true);
        let b = m.add_var("b", 0.0, 1.0, -2.0, true);
        m.add_constraint(expr(&[(a, 1.0), (b, 1.0)]), Le, 1.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(r.bound <= r.objective + 1e-6);
        assert!((r.objective + 3.0).abs() < 1e-6);
    }
}
