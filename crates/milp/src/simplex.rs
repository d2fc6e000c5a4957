//! Bounded-variable primal simplex with a two-phase start.
//!
//! Variables carry native `[lb, ub]` bounds (so `0 ≤ x ≤ 1` binaries do
//! not become rows), nonbasic variables rest at one of their bounds, and
//! the ratio test supports *bound flips*. Phase 1 minimizes the sum of
//! per-row artificial variables; phase 2 minimizes the true objective.
//! Anti-cycling falls back to Bland's rule after a run of degenerate
//! pivots.
//!
//! # Row supports
//!
//! The tableau is dense row-major storage, but every row also carries a
//! *support*: one bit per column in `⌈n/64⌉` `u64` words, set wherever
//! the entry may be nonzero. Pricing walks a row's set bits. A pivot
//! packs the scaled pivot row once into contiguous `(column, value)`
//! arrays holding exactly its nonzeros, and every other row with a
//! nonzero in the entering column then does one scatter-axpy over that
//! packed row and one word-wise `OR` of the pivot row's support — cost
//! proportional to the pivot row's nonzeros, with no per-row merge. That
//! matters because the placement LP's capacity and `tj` rows start with
//! ~1 000 nonzeros each and fill in to two thirds of the width, where a
//! sorted index list spends more time merging than multiplying.
//!
//! Supports are *supersets* of the true nonzeros: an entry that cancels
//! to exactly zero keeps its bit until its row is next packed as a pivot
//! row. That is safe because a listed zero only ever contributes a
//! `±0.0` term, and adding or subtracting `±0.0` never changes a nonzero
//! value bitwise nor any comparison the solver makes; the packed pivot
//! row is pruned by *value*, so the set of multiply-subtracts is the
//! dense solver's set minus its exact-zero terms. The solver therefore
//! produces the same pivots and the same solution as the frozen dense
//! copy in [`crate::dense`] — which the differential tests assert.

use crate::model::{ConstraintSense, Model};

/// Terminal states other than "optimal solution found".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
    /// The iteration limit was hit (numerical trouble).
    IterationLimit,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpResult {
    /// Optimal values of the model's structural variables.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
    /// Simplex pivots/bound-flips performed across both phases.
    pub iterations: usize,
    /// Largest remaining constraint violation at `x` (see
    /// [`Model::max_violation`]); ideally ~0, reported as the solver's
    /// convergence residual.
    pub max_residual: f64,
}

const EPS: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-9;

struct Tableau {
    m: usize,
    /// Total columns: structural + slacks + artificials.
    n: usize,
    /// Number of structural columns.
    n_struct: usize,
    /// First artificial column.
    art_start: usize,
    /// `B⁻¹ A`, row-major `m × n`.
    t: Vec<f64>,
    /// Current value of every column's variable.
    x: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// For nonbasic columns: resting at upper bound?
    at_upper: Vec<bool>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    cost: Vec<f64>,
    /// Simplex steps taken so far, accumulated across phases.
    iterations: usize,
    /// Words per row of `support`: `⌈n/64⌉`.
    words: usize,
    /// Row supports, row-major `m × words`: bit `j` of row `i` is set
    /// wherever `t[i][j]` may be nonzero (a superset of the true
    /// nonzeros; see the module docs).
    support: Vec<u64>,
    /// Reduced costs of the current iteration.
    d: Vec<f64>,
    /// The entering column `t[·][q]` of the current step.
    col: Vec<f64>,
    /// The scaled pivot row packed to its nonzeros: columns…
    piv_cols: Vec<u32>,
    /// …and values, index-aligned with `piv_cols`.
    piv_vals: Vec<f64>,
    /// The pivot row's support words with the entering column cleared.
    piv_support: Vec<u64>,
}

/// Calls `f(j)` for every set bit `j` of one row's support words.
#[inline]
fn for_each_set(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

impl Tableau {
    fn build(model: &Model) -> Self {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let n_slack = m;
        let n = n_struct + n_slack + m; // + artificials
        let art_start = n_struct + n_slack;

        let mut lb = vec![0.0f64; n];
        let mut ub = vec![0.0f64; n];
        for (j, v) in model.vars.iter().enumerate() {
            lb[j] = v.lb;
            ub[j] = v.ub;
        }
        let mut t = vec![0.0f64; m * n];
        let mut b = vec![0.0f64; m];
        for (i, c) in model.constraints.iter().enumerate() {
            for &(v, k) in &c.expr.terms {
                t[i * n + v.index()] += k;
            }
            b[i] = c.rhs;
            let s = n_struct + i;
            t[i * n + s] = 1.0;
            match c.sense {
                ConstraintSense::Le => {
                    lb[s] = 0.0;
                    ub[s] = f64::INFINITY;
                }
                ConstraintSense::Ge => {
                    lb[s] = f64::NEG_INFINITY;
                    ub[s] = 0.0;
                }
                ConstraintSense::Eq => {
                    lb[s] = 0.0;
                    ub[s] = 0.0;
                }
            }
        }
        // Artificials: bounds set below once residual signs are known.
        for i in 0..m {
            let a = art_start + i;
            lb[a] = 0.0;
            ub[a] = f64::INFINITY;
            t[i * n + a] = 1.0;
        }

        // Nonbasic start: every structural/slack at its nearest finite
        // bound (0 for free variables).
        let mut x = vec![0.0f64; n];
        let mut at_upper = vec![false; n];
        for j in 0..art_start {
            if lb[j].is_finite() {
                x[j] = lb[j];
            } else if ub[j].is_finite() {
                x[j] = ub[j];
                at_upper[j] = true;
            } else {
                x[j] = 0.0;
            }
        }

        // Residuals decide artificial signs; rows with negative residual
        // are negated so artificials stay ≥ 0.
        for i in 0..m {
            let mut r = b[i];
            for j in 0..art_start {
                r -= t[i * n + j] * x[j];
            }
            if r < 0.0 {
                for j in 0..art_start {
                    t[i * n + j] = -t[i * n + j];
                }
                r = -r;
            }
            x[art_start + i] = r;
        }

        let basis: Vec<usize> = (0..m).map(|i| art_start + i).collect();
        let mut in_basis = vec![false; n];
        for &j in &basis {
            in_basis[j] = true;
        }

        // Initial row supports: the structural terms plus one slack and
        // one artificial per row.
        assert!(n <= u32::MAX as usize, "tableau too wide");
        let words = n.div_ceil(64);
        let mut support = vec![0u64; m * words];
        for i in 0..m {
            for j in (0..n).filter(|&j| t[i * n + j] != 0.0) {
                support[i * words + j / 64] |= 1 << (j % 64);
            }
        }

        Tableau {
            m,
            n,
            n_struct,
            art_start,
            t,
            x,
            lb,
            ub,
            at_upper,
            basis,
            in_basis,
            cost: vec![0.0; n],
            iterations: 0,
            words,
            support,
            d: vec![0.0; n],
            col: vec![0.0; m],
            piv_cols: Vec::new(),
            piv_vals: Vec::new(),
            piv_support: Vec::new(),
        }
    }

    fn set_phase1_costs(&mut self) {
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in self.art_start..self.n {
            self.cost[j] = 1.0;
        }
    }

    fn set_phase2_costs(&mut self, model: &Model) {
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for (j, v) in model.vars.iter().enumerate() {
            self.cost[j] = v.obj;
        }
        // Artificials are pinned at zero for phase 2.
        for j in self.art_start..self.n {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
        }
    }

    /// Refreshes `self.d` with the reduced costs `c − c_B' · (B⁻¹A)`,
    /// priced over each row's support only (skipped columns contribute an
    /// exact-zero term).
    fn price(&mut self) {
        let Tableau {
            n,
            words,
            t,
            cost,
            basis,
            support,
            d,
            ..
        } = self;
        d.copy_from_slice(cost);
        for (i, &b) in basis.iter().enumerate() {
            let yb = cost[b];
            if yb != 0.0 {
                let row = &t[i * *n..(i + 1) * *n];
                for_each_set(&support[i * *words..(i + 1) * *words], |j| {
                    d[j] -= yb * row[j];
                });
            }
        }
    }

    /// The optimality tolerance for the current costs: relative to the
    /// cost magnitude so badly scaled objectives (tiny per-iteration
    /// times) still converge.
    fn optimality_eps(&self) -> f64 {
        let cmax = self.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        EPS * cmax.clamp(1e-9, 1.0)
    }

    /// Picks the entering column from the priced `self.d`, or `None` at
    /// optimality.
    fn choose_entering(&self, eps: f64, bland: bool) -> Option<usize> {
        let d = &self.d;
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n {
            if self.in_basis[j] || self.lb[j] == self.ub[j] {
                continue;
            }
            let free = self.lb[j] == f64::NEG_INFINITY && self.ub[j] == f64::INFINITY;
            let viol = if free {
                d[j].abs()
            } else if self.at_upper[j] {
                d[j]
            } else {
                -d[j]
            };
            if viol > eps {
                if bland {
                    return Some(j);
                }
                if best.is_none_or(|(_, v)| viol > v) {
                    best = Some((j, viol));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// One simplex step for entering column `q`. Returns `Ok(t)` (step
    /// length) or `Err(())` when the problem is unbounded along `q`.
    fn step(&mut self, q: usize, d_q: f64) -> Result<f64, ()> {
        // Direction of movement for x_q.
        let free = self.lb[q] == f64::NEG_INFINITY && self.ub[q] == f64::INFINITY;
        let dir: f64 = if free {
            if d_q < 0.0 {
                1.0
            } else {
                -1.0
            }
        } else if self.at_upper[q] {
            -1.0
        } else {
            1.0
        };

        // Own bound span.
        let span = if free {
            f64::INFINITY
        } else {
            self.ub[q] - self.lb[q]
        };

        // Gather the entering column once; the ratio test, the value
        // update and the pivot all read it.
        for (i, c) in self.col.iter_mut().enumerate() {
            *c = self.t[i * self.n + q];
        }

        // Ratio test over basic variables.
        let mut t_best = span;
        let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
        for i in 0..self.m {
            let alpha = self.col[i] * dir;
            let bi = self.basis[i];
            let xb = self.x[bi];
            if alpha > PIVOT_TOL {
                if self.lb[bi].is_finite() {
                    let ti = (xb - self.lb[bi]) / alpha;
                    if ti < t_best - 1e-12 {
                        t_best = ti.max(0.0);
                        leave = Some((i, false));
                    }
                }
            } else if alpha < -PIVOT_TOL && self.ub[bi].is_finite() {
                let ti = (self.ub[bi] - xb) / (-alpha);
                if ti < t_best - 1e-12 {
                    t_best = ti.max(0.0);
                    leave = Some((i, true));
                }
            }
        }

        if t_best.is_infinite() {
            return Err(());
        }
        let t_step = t_best;

        // Move basic values.
        for i in 0..self.m {
            let alpha = self.col[i] * dir;
            let bi = self.basis[i];
            self.x[bi] -= alpha * t_step;
        }
        self.x[q] += dir * t_step;

        match leave {
            None => {
                // Bound flip: q stays nonbasic at the other bound.
                self.at_upper[q] = !self.at_upper[q];
                self.x[q] = if self.at_upper[q] {
                    self.ub[q]
                } else {
                    self.lb[q]
                };
            }
            Some((r, leaves_at_upper)) => {
                let out = self.basis[r];
                // Snap the leaving variable exactly onto its bound.
                self.x[out] = if leaves_at_upper {
                    self.ub[out]
                } else {
                    self.lb[out]
                };
                self.at_upper[out] = leaves_at_upper;
                self.in_basis[out] = false;
                self.basis[r] = q;
                self.in_basis[q] = true;
                self.pivot(r, q);
            }
        }
        Ok(t_step)
    }

    /// Pivots on `t[r][q]`; `self.col` holds column `q` as gathered by
    /// [`Tableau::step`].
    fn pivot(&mut self, r: usize, q: usize) {
        let Tableau {
            m,
            n,
            words,
            t,
            support,
            col,
            piv_cols,
            piv_vals,
            piv_support,
            ..
        } = self;
        let (m, n, words) = (*m, *n, *words);
        let piv = col[r];
        debug_assert!(piv.abs() > PIVOT_TOL, "tiny pivot {piv}");
        let inv = 1.0 / piv;
        let (q_word, q_bit) = (q / 64, 1u64 << (q % 64));

        // Scale the pivot row and pack its nonzeros; they become the row's
        // support, so entries that are exactly zero lose their bit.
        piv_cols.clear();
        piv_vals.clear();
        let row = &mut t[r * n..(r + 1) * n];
        let row_support = &mut support[r * words..(r + 1) * words];
        for_each_set(row_support, |j| {
            // Kill round-off on the pivot column.
            let v = if j == q { 1.0 } else { row[j] * inv };
            row[j] = v;
            if v != 0.0 {
                piv_cols.push(j as u32);
                piv_vals.push(v);
            }
        });
        row_support.fill(0);
        for &j in piv_cols.iter() {
            row_support[j as usize / 64] |= 1 << (j % 64);
        }

        // Every other row loses column `q`, so it gains the pivot row's
        // support minus that bit.
        piv_support.clear();
        piv_support.extend_from_slice(row_support);
        piv_support[q_word] &= !q_bit;

        for i in (0..m).filter(|&i| i != r) {
            let row = &mut t[i * n..(i + 1) * n];
            let row_support = &mut support[i * words..(i + 1) * words];
            let f = col[i];
            row_support[q_word] &= !q_bit;
            if f.abs() > 1e-12 {
                for (&j, &v) in piv_cols.iter().zip(piv_vals.iter()) {
                    row[j as usize] -= f * v;
                }
                for (dst, &src) in row_support.iter_mut().zip(piv_support.iter()) {
                    *dst |= src;
                }
            }
            row[q] = 0.0;
        }
    }

    /// Runs simplex to optimality with the current costs.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let max_iter = 400 + 60 * (self.m + self.n);
        let mut degenerate_run = 0usize;
        let mut bland = false;
        // Costs only change at a phase switch, so the tolerance is fixed
        // for the whole run.
        let eps = self.optimality_eps();
        for _ in 0..max_iter {
            self.price();
            let Some(q) = self.choose_entering(eps, bland) else {
                return Ok(());
            };
            self.iterations += 1;
            match self.step(q, self.d[q]) {
                Ok(t) => {
                    if t <= 1e-10 {
                        degenerate_run += 1;
                        if degenerate_run > 2 * (self.m + 16) {
                            bland = true;
                        }
                    } else {
                        degenerate_run = 0;
                        bland = false;
                    }
                }
                Err(()) => return Err(LpStatus::Unbounded),
            }
        }
        Err(LpStatus::IterationLimit)
    }

    fn phase1_objective(&self) -> f64 {
        (self.art_start..self.n).map(|j| self.x[j]).sum()
    }

    fn solution(&self, model: &Model) -> LpResult {
        let x: Vec<f64> = self.x[..self.n_struct].to_vec();
        let objective = model.objective_value(&x);
        let max_residual = model.max_violation(&x);
        LpResult {
            x,
            objective,
            iterations: self.iterations,
            max_residual,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality ignored).
///
/// Returns the optimal solution, or the terminal [`LpStatus`] otherwise.
pub fn solve_lp(model: &Model) -> Result<LpResult, LpStatus> {
    let mut t = Tableau::build(model);

    // Phase 1 only if some artificial starts positive.
    if t.phase1_objective() > EPS {
        t.set_phase1_costs();
        match t.optimize() {
            Ok(()) => {}
            // Phase 1 is bounded below by 0; unboundedness is numerical.
            Err(LpStatus::Unbounded) => return Err(LpStatus::IterationLimit),
            Err(s) => return Err(s),
        }
        if t.phase1_objective() > 1e-6 {
            return Err(LpStatus::Infeasible);
        }
    }

    t.set_phase2_costs(model);
    t.optimize()?;
    Ok(t.solution(model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense::*, LinExpr, Model};

    fn expr(terms: &[(crate::model::VarId, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn simple_2d_lp() {
        // min -3x - 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18 → (2,6), -36.
        let mut m = Model::new();
        let x = m.add_nonneg("x", -3.0);
        let y = m.add_nonneg("y", -5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Le, 4.0);
        m.add_constraint(expr(&[(y, 2.0)]), Le, 12.0);
        m.add_constraint(expr(&[(x, 3.0), (y, 2.0)]), Le, 18.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 36.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn bound_flip_only_problem() {
        // min -x - y with 0<=x<=2, 0<=y<=3, no constraints.
        let mut m = Model::new();
        let _ = m.add_var("x", 0.0, 2.0, -1.0, false);
        let _ = m.add_var("y", 0.0, 3.0, -1.0, false);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 → (3,2), obj 5.
        let mut m = Model::new();
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Eq, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Eq, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert!((sol.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 → (10? no): best puts all
        // weight on x: x=10,y=0 → obj 20? x>=2 satisfied. Check: obj 20.
        let mut m = Model::new();
        let x = m.add_nonneg("x", 2.0);
        let y = m.add_nonneg("y", 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Ge, 10.0);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
        assert_eq!(solve_lp(&m), Err(LpStatus::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_nonneg("x", -1.0);
        let y = m.add_nonneg("y", 0.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Le, 1.0);
        assert_eq!(solve_lp(&m), Err(LpStatus::Unbounded));
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -7 (free var) → -7.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0, false);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, -7.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x+y s.t. -x - y <= -4 (i.e. x+y >= 4), 0<=x,y<=3.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 3.0, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 1.0, false);
        m.add_constraint(expr(&[(x, -1.0), (y, -1.0)]), Le, -4.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints meet at the optimum.
        let mut m = Model::new();
        let x = m.add_nonneg("x", -1.0);
        let y = m.add_nonneg("y", -1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Le, 1.0);
        m.add_constraint(expr(&[(y, 1.0)]), Le, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Le, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 2.0)]), Le, 3.0);
        m.add_constraint(expr(&[(x, 2.0), (y, 1.0)]), Le, 3.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn transportation_like_lp() {
        // 2 supplies × 3 demands, costs chosen so the answer is known.
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
        let sol = solve_lp(&m).unwrap();
        // Optimal: x00=20, x02=10, x11=30, x12=10 → 80+90+90+80 = 340.
        assert!((sol.objective - 340.0).abs() < 1e-5, "{}", sol.objective);
    }

    #[test]
    fn larger_random_lp_is_feasible_and_bounded() {
        use rand::Rng;
        let mut rng = emb_util::seed_rng(11);
        let mut m = Model::new();
        let n = 40;
        let rows = 25;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(&format!("x{i}"), 0.0, 1.0, rng.gen_range(-1.0..1.0), false))
            .collect();
        for _ in 0..rows {
            let e = expr(
                &vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(0.0..1.0)))
                    .collect::<Vec<_>>(),
            );
            m.add_constraint(e, Le, rng.gen_range(2.0..8.0));
        }
        let sol = solve_lp(&m).unwrap();
        assert!(m.is_feasible(&sol.x, 1e-6));
    }
}
