//! Frozen pre-optimization dense simplex, kept as the differential
//! tests' oracle.
//!
//! [`solve_lp_dense`] is the original solver verbatim: every pivot and
//! every pricing pass walks all `n` tableau columns. It must produce the
//! same pivots, iteration counts and solutions as the sparsified
//! [`crate::solve_lp`] (the differential tests assert this); do not
//! "improve" it — its value is being the fixed yardstick the sparse row
//! operations are compared against.

use crate::model::{ConstraintSense, Model};
use crate::simplex::{LpResult, LpStatus};

const EPS: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-9;

struct DenseTableau {
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
}

impl DenseTableau {
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

        DenseTableau {
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

    /// Reduced costs `d = c − c_B' · (B⁻¹A)`.
    fn reduced_costs(&self) -> Vec<f64> {
        let mut d = self.cost.clone();
        for i in 0..self.m {
            let yb = self.cost[self.basis[i]];
            if yb != 0.0 {
                let row = &self.t[i * self.n..(i + 1) * self.n];
                for (dj, &tij) in d.iter_mut().zip(row) {
                    *dj -= yb * tij;
                }
            }
        }
        d
    }

    /// Picks the entering column, or `None` at optimality. The optimality
    /// tolerance is relative to the cost magnitude so badly scaled
    /// objectives (tiny per-iteration times) still converge.
    fn choose_entering(&self, d: &[f64], bland: bool) -> Option<usize> {
        let cmax = self.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let eps = EPS * cmax.clamp(1e-9, 1.0);
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

        // Ratio test over basic variables.
        let mut t_best = span;
        let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
        for i in 0..self.m {
            let alpha = self.t[i * self.n + q] * dir;
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
            let alpha = self.t[i * self.n + q] * dir;
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

    fn pivot(&mut self, r: usize, q: usize) {
        let n = self.n;
        let piv = self.t[r * n + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "tiny pivot {piv}");
        let inv = 1.0 / piv;
        for j in 0..n {
            self.t[r * n + j] *= inv;
        }
        self.t[r * n + q] = 1.0; // kill round-off on the pivot column
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let f = self.t[i * n + q];
            if f.abs() <= 1e-12 {
                self.t[i * n + q] = 0.0;
                continue;
            }
            for j in 0..n {
                self.t[i * n + j] -= f * self.t[r * n + j];
            }
            self.t[i * n + q] = 0.0;
        }
    }

    /// Runs simplex to optimality with the current costs.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let max_iter = 400 + 60 * (self.m + self.n);
        let mut degenerate_run = 0usize;
        let mut bland = false;
        for _ in 0..max_iter {
            let d = self.reduced_costs();
            let Some(q) = self.choose_entering(&d, bland) else {
                return Ok(());
            };
            self.iterations += 1;
            match self.step(q, d[q]) {
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

/// [`crate::solve_lp`] with the original dense row operations.
///
/// Returns the optimal solution, or the terminal [`LpStatus`] otherwise.
pub fn solve_lp_dense(model: &Model) -> Result<LpResult, LpStatus> {
    let mut t = DenseTableau::build(model);

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
