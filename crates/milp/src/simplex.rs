//! Bounded-variable primal simplex with a two-phase start.
//!
//! Variables carry native `[lb, ub]` bounds (so `0 ≤ x ≤ 1` binaries do
//! not become rows), nonbasic variables rest at one of their bounds, and
//! the ratio test supports *bound flips*. Phase 1 minimizes the sum of
//! per-row artificial variables; phase 2 minimizes the true objective.
//! Anti-cycling falls back to Bland's rule after a run of degenerate
//! pivots.
//!
//! The solver follows the frozen dense copy in [`crate::dense`] pivot for
//! pivot and returns its solution (up to the sign of a zero); the
//! differential tests assert that. What it adds is only ever *not doing*
//! work whose outcome is already known, in four ways.
//!
//! # Row supports, one bit per cache line
//!
//! The tableau is dense row-major storage in *groups* of eight
//! columns — one cache line of `f64`; the row stride is padded to whole
//! groups and the padding stays zero. Every row carries a *support*: one
//! bit per group, set wherever some entry of the group may be nonzero.
//! Pricing walks a row's set groups. A pivot scales the pivot row, packs
//! the groups that still hold a nonzero into a contiguous
//! `(group, [f64; 8])` list, and every other row with a nonzero in the
//! entering column then does one fixed-width axpy per packed group and
//! one word-wise `OR` of the pivot row's support. Supports are
//! *supersets* of the true nonzeros (a lane of a listed group may be
//! zero, and a group that cancels to zero keeps its bit until its row is
//! next packed). That is safe because a listed zero only ever
//! contributes a `±0.0` term, and adding or subtracting `±0.0` never
//! changes a nonzero value bitwise nor any comparison the solver makes:
//! the multiply-subtracts done are the dense solver's minus some of its
//! exact-zero terms.
//!
//! # Retired columns
//!
//! A nonbasic column with `lb == ub` can never be chosen to enter, and
//! bounds only ever tighten (artificials are pinned at the phase switch),
//! so it stays nonbasic for good: every `Eq` row's slack and every pinned
//! structural from the start, every nonbasic artificial from phase 2 on,
//! a pinned variable the moment it leaves the basis. A pivot computes
//! each tableau column from that column and the entering one alone, the
//! ratio test reads only the entering column, and a nonbasic variable's
//! value is its bound — so nothing live ever reads a retired column. Its
//! entries are therefore zeroed (those that are nonzero: untouched pages
//! of the zero-initialised tableau stay untouched) or never written, and
//! it drops out of supports and packed pivot rows by value.
//!
//! # Partial re-pricing
//!
//! Reduced costs are `d[j] = c[j] − Σ_i c[basis[i]] · t[i][j]`, summed in
//! row order over the rows whose support lists `j`'s group. A pivot on
//! row `r` changes tableau entries only in columns of row `r`'s support,
//! changes supports only by those groups, and changes the cost of row
//! `r` alone, whose terms lie in the same columns. So after a pivot `d`
//! is recomputed for the groups of row `r`'s (pre-pivot) support only —
//! by the same routine, over the same rows in the same order, which makes
//! it bit-equal to recomputing everything (debug builds assert so after
//! every pivot). After a bound flip tableau, basis and costs are what
//! they were, and `d` is kept.
//!
//! # Entering scan
//!
//! `sign[j]` is `+1` for a nonbasic column at its upper bound, `−1` at
//! its lower, `0` for basic, retired and padding columns; the violation
//! the dense solver computes by cases is `sign[j] · d[j]` exactly. Free
//! columns (violation `|d[j]|`) are rare and listed apart, then merged by
//! the dense scan's rule: the largest violation wins, the lowest column
//! among equals; in Bland's mode the lowest column over the tolerance.

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

/// Columns per support group: one cache line of `f64`.
const LANES: usize = 8;
type Group = [f64; LANES];

struct Tableau {
    m: usize,
    /// Total columns: structural + slacks + artificials.
    n: usize,
    /// Number of structural columns.
    n_struct: usize,
    /// First artificial column.
    art_start: usize,
    /// Groups per row: `⌈n/LANES⌉`.
    groups: usize,
    /// Words per row of `support`: `⌈groups/64⌉`.
    words: usize,
    /// `B⁻¹ A`, row-major `m × groups`; retired columns hold zeros.
    t: Vec<Group>,
    /// Current value of every column's variable.
    x: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Per column (padded to whole groups): `+1` nonbasic at upper, `−1`
    /// nonbasic at lower, `0` basic, retired, free or padding.
    sign: Vec<f64>,
    /// The free columns (`lb = −∞`, `ub = +∞`), ascending.
    free: Vec<u32>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Padded to whole groups, like `d`.
    cost: Vec<f64>,
    /// Simplex steps taken so far, accumulated across phases.
    iterations: usize,
    /// Row supports, row-major `m × words`: bit `g` of row `i` is set
    /// wherever some `t[i][g][·]` may be nonzero (a superset; see the
    /// module docs).
    support: Vec<u64>,
    /// Reduced costs; meaningful where `sign` is nonzero or the column is
    /// free and nonbasic.
    d: Vec<f64>,
    /// The entering column `t[·][q]` of the current step.
    col: Vec<f64>,
    /// The scaled pivot row packed to the groups that hold a nonzero.
    packed: Vec<(u32, Group)>,
    /// The pivot row's support after the pivot (the groups of `packed`)…
    piv_support: Vec<u64>,
    /// …and before it: where the pivot changed anything.
    touched: Vec<u64>,
    /// Every group: the mask of a full pricing pass.
    all_groups: Vec<u64>,
}

/// Calls `f(g)` for every bit `g` set in both `words` and `mask`.
#[inline]
fn for_each_set(words: &[u64], mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, (&word, &keep)) in words.iter().zip(mask).enumerate() {
        let mut rest = word & keep;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

fn is_free(lb: f64, ub: f64) -> bool {
    lb == f64::NEG_INFINITY && ub == f64::INFINITY
}

/// Recomputes the reduced costs `c − c_B' · (B⁻¹A)` of the groups in
/// `mask`, over each row's support only (skipped groups contribute
/// exact-zero terms). A column's terms are subtracted in row order
/// whatever the mask, so a masked pass leaves in `d` what a full one
/// would.
fn price(t: &[Group], support: &[u64], basis: &[usize], cost: &[f64], mask: &[u64], d: &mut [f64]) {
    let words = mask.len();
    let (cost_groups, _) = cost.as_chunks::<LANES>();
    let (d, _) = d.as_chunks_mut::<LANES>();
    let groups = d.len();
    for_each_set(mask, mask, |g| d[g] = cost_groups[g]);
    for (i, &b) in basis.iter().enumerate() {
        let yb = cost[b];
        if yb != 0.0 {
            let row = &t[i * groups..(i + 1) * groups];
            for_each_set(&support[i * words..(i + 1) * words], mask, |g| {
                for (dj, &tij) in d[g].iter_mut().zip(&row[g]) {
                    *dj -= yb * tij;
                }
            });
        }
    }
}

impl Tableau {
    fn build(model: &Model) -> Self {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let art_start = n_struct + m; // structurals, then one slack per row
        let n = art_start + m; // + artificials
        let groups = n.div_ceil(LANES);
        let words = groups.div_ceil(64);
        assert!(n <= u32::MAX as usize, "tableau too wide");

        // Nonbasic start: every structural/slack at its nearest finite
        // bound (0 for free variables).
        let mut lb = vec![0.0f64; n];
        let mut ub = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut sign = vec![0.0f64; groups * LANES];
        let mut free = Vec::new();
        let mut rest = |j: usize, lo: f64, hi: f64| {
            lb[j] = lo;
            ub[j] = hi;
            x[j] = if lo.is_finite() {
                lo
            } else if hi.is_finite() {
                hi
            } else {
                0.0
            };
            if lo == hi {
                // Pinned: retired from the start.
            } else if is_free(lo, hi) {
                free.push(j as u32);
            } else {
                sign[j] = if lo.is_finite() { -1.0 } else { 1.0 };
            }
        };
        for (j, v) in model.vars.iter().enumerate() {
            rest(j, v.lb, v.ub);
        }
        for (i, c) in model.constraints.iter().enumerate() {
            match c.sense {
                ConstraintSense::Le => rest(n_struct + i, 0.0, f64::INFINITY),
                ConstraintSense::Ge => rest(n_struct + i, f64::NEG_INFINITY, 0.0),
                ConstraintSense::Eq => rest(n_struct + i, 0.0, 0.0),
            }
        }
        // Artificials start basic in `[0, ∞)` at the row's residual, set
        // below.
        ub[art_start..].fill(f64::INFINITY);

        // Rows are written from the model's terms: nothing walks the
        // `m × n` zeros, and pages no term lands on are never touched.
        let mut t = vec![[0.0f64; LANES]; m * groups];
        let mut support = vec![0u64; m * words];
        let mut cols: Vec<usize> = Vec::new();
        for (i, c) in model.constraints.iter().enumerate() {
            let row = &mut t[i * groups..(i + 1) * groups];
            let row_support = &mut support[i * words..(i + 1) * words];
            let mut list = |g: usize| row_support[g / 64] |= 1 << (g % 64);
            cols.clear();
            for &(v, k) in &c.expr.terms {
                let j = v.index();
                row[j / LANES][j % LANES] += k;
                cols.push(j);
            }
            cols.sort_unstable();
            cols.dedup();

            // The residual decides the artificial's sign: a row with a
            // negative residual is negated so artificials stay ≥ 0. Terms
            // in column order, as the dense solver subtracts them (its
            // other columns, slack included, subtract exact zeros).
            let mut r = c.rhs;
            for &j in &cols {
                r -= row[j / LANES][j % LANES] * x[j];
            }
            let negate = r < 0.0;
            x[art_start + i] = if negate { -r } else { r };

            for &j in &cols {
                let v = &mut row[j / LANES][j % LANES];
                if lb[j] == ub[j] {
                    *v = 0.0;
                    continue;
                }
                if negate {
                    *v = -*v;
                }
                if *v != 0.0 {
                    list(j / LANES);
                }
            }
            let s = n_struct + i;
            if lb[s] != ub[s] {
                row[s / LANES][s % LANES] = if negate { -1.0 } else { 1.0 };
                list(s / LANES);
            }
            let a = art_start + i;
            row[a / LANES][a % LANES] = 1.0;
            list(a / LANES);
        }

        let basis: Vec<usize> = (0..m).map(|i| art_start + i).collect();
        let mut in_basis = vec![false; n];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut all_groups = vec![0u64; words];
        for g in 0..groups {
            all_groups[g / 64] |= 1 << (g % 64);
        }

        Tableau {
            m,
            n,
            n_struct,
            art_start,
            groups,
            words,
            t,
            x,
            lb,
            ub,
            sign,
            free,
            basis,
            in_basis,
            cost: vec![0.0; groups * LANES],
            iterations: 0,
            support,
            d: vec![0.0; groups * LANES],
            col: vec![0.0; m],
            packed: Vec::new(),
            piv_support: vec![0; words],
            touched: vec![0; words],
            all_groups,
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
        // Artificials are pinned at zero for phase 2, which retires the
        // nonbasic ones: zero their columns, and unlist the groups that
        // leaves empty.
        for j in self.art_start..self.n {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
            self.sign[j] = 0.0;
        }
        let first = self.art_start / LANES;
        for i in 0..self.m {
            let row = &mut self.t[i * self.groups..(i + 1) * self.groups];
            let row_support = &mut self.support[i * self.words..(i + 1) * self.words];
            for g in first..self.groups {
                if row_support[g / 64] >> (g % 64) & 1 == 0 {
                    continue;
                }
                for (k, v) in row[g].iter_mut().enumerate() {
                    let j = g * LANES + k;
                    if (self.art_start..self.n).contains(&j) && !self.in_basis[j] && *v != 0.0 {
                        *v = 0.0;
                    }
                }
                if row[g].iter().all(|&v| v == 0.0) {
                    row_support[g / 64] &= !(1 << (g % 64));
                }
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
    /// optimality: the largest violation over `eps`, the lowest column
    /// among equals; under `bland` the lowest column over `eps`.
    fn choose_entering(&self, eps: f64, bland: bool) -> Option<usize> {
        let viols = || self.sign.iter().zip(&self.d).map(|(&s, &dj)| s * dj);
        let (mut best, mut best_viol) = (None, eps);
        if bland {
            best = viols().position(|viol| viol > eps);
        } else {
            // The maximum first, lane by lane (no lane waits on another,
            // so the loop is vector code), then the first column at it.
            let (sign, _) = self.sign.as_chunks::<LANES>();
            let (d, _) = self.d.as_chunks::<LANES>();
            let mut lane_max = [eps; LANES];
            for (s, dj) in sign.iter().zip(d) {
                for k in 0..LANES {
                    let viol = s[k] * dj[k];
                    if viol > lane_max[k] {
                        lane_max[k] = viol;
                    }
                }
            }
            let top = lane_max.into_iter().fold(eps, f64::max);
            if top > eps {
                (best, best_viol) = (viols().position(|viol| viol == top), top);
            }
        }
        for &f in &self.free {
            let j = f as usize;
            let viol = self.d[j].abs();
            if !self.in_basis[j] && viol > eps {
                let wins = match best {
                    None => true,
                    Some(b) if bland => j < b,
                    Some(b) => viol > best_viol || (viol == best_viol && j < b),
                };
                if wins {
                    (best, best_viol) = (Some(j), viol);
                }
                if bland {
                    break;
                }
            }
        }
        best
    }

    /// One simplex step for entering column `q`. Returns the step length
    /// and whether the step was a pivot (`false`: a bound flip, which
    /// leaves tableau, basis and reduced costs as they were), or `Err(())`
    /// when the problem is unbounded along `q`.
    fn step(&mut self, q: usize, d_q: f64) -> Result<(f64, bool), ()> {
        // Direction of movement for x_q.
        let free = is_free(self.lb[q], self.ub[q]);
        let dir: f64 = if free {
            if d_q < 0.0 {
                1.0
            } else {
                -1.0
            }
        } else {
            -self.sign[q]
        };

        // Own bound span.
        let span = if free {
            f64::INFINITY
        } else {
            self.ub[q] - self.lb[q]
        };

        // Gather the entering column once; the ratio test, the value
        // update and the pivot all read it.
        let (qg, ql) = (q / LANES, q % LANES);
        for (i, c) in self.col.iter_mut().enumerate() {
            *c = self.t[i * self.groups + qg][ql];
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
                self.sign[q] = -self.sign[q];
                self.x[q] = if self.sign[q] > 0.0 {
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
                self.in_basis[out] = false;
                self.basis[r] = q;
                self.in_basis[q] = true;
                self.sign[q] = 0.0;
                if self.lb[out] == self.ub[out] {
                    // Pinned, so retired as it leaves: a basic column is
                    // the unit vector of its row.
                    self.t[r * self.groups + out / LANES][out % LANES] = 0.0;
                } else {
                    self.sign[out] = if leaves_at_upper { 1.0 } else { -1.0 };
                }
                self.pivot(r, q);
            }
        }
        Ok((t_step, leave.is_some()))
    }

    /// Pivots on `t[r][q]`; `self.col` holds column `q` as gathered by
    /// [`Tableau::step`]. Leaves row `r`'s pre-pivot support in
    /// `self.touched`.
    fn pivot(&mut self, r: usize, q: usize) {
        let Tableau {
            m,
            groups,
            words,
            t,
            support,
            col,
            packed,
            piv_support,
            touched,
            ..
        } = self;
        let (m, groups, words) = (*m, *groups, *words);
        let piv = col[r];
        debug_assert!(piv.abs() > PIVOT_TOL, "tiny pivot {piv}");
        let inv = 1.0 / piv;
        let (qg, ql) = (q / LANES, q % LANES);

        // Scale the pivot row and pack the groups that hold a nonzero;
        // they become the row's support, so a group that is all exact
        // zeros loses its bit.
        let row = &mut t[r * groups..(r + 1) * groups];
        touched.copy_from_slice(&support[r * words..(r + 1) * words]);
        packed.clear();
        piv_support.fill(0);
        for_each_set(touched, touched, |g| {
            let lanes = &mut row[g];
            for v in lanes.iter_mut() {
                *v *= inv;
            }
            if g == qg {
                lanes[ql] = 1.0; // kill round-off on the pivot column
            }
            if lanes.iter().any(|&v| v != 0.0) {
                packed.push((g as u32, *lanes));
                piv_support[g / 64] |= 1 << (g % 64);
            }
        });
        support[r * words..(r + 1) * words].copy_from_slice(piv_support);

        // Rows with an exact zero in column `q` are not read at all.
        for i in (0..m).filter(|&i| i != r && col[i] != 0.0) {
            let row = &mut t[i * groups..(i + 1) * groups];
            let f = col[i];
            if f.abs() > 1e-12 {
                for (g, vals) in packed.iter() {
                    // Through a copy: every load precedes the stores, which
                    // is what lets the eight lanes become vector code.
                    let mut lanes = row[*g as usize];
                    for (v, &p) in lanes.iter_mut().zip(vals) {
                        *v -= f * p;
                    }
                    row[*g as usize] = lanes;
                }
                let row_support = &mut support[i * words..(i + 1) * words];
                for (dst, &src) in row_support.iter_mut().zip(piv_support.iter()) {
                    *dst |= src;
                }
            }
            row[qg][ql] = 0.0;
        }
    }

    /// Prices the groups of `self.touched` (after a pivot) or all of them.
    fn reprice(&mut self, all: bool) {
        let mask = if all { &self.all_groups } else { &self.touched };
        price(
            &self.t,
            &self.support,
            &self.basis,
            &self.cost,
            mask,
            &mut self.d,
        );
    }

    /// Runs simplex to optimality with the current costs.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let max_iter = 400 + 60 * (self.m + self.n);
        let mut degenerate_run = 0usize;
        let mut bland = false;
        // Costs only change at a phase switch, so the tolerance is fixed
        // for the whole run, and one full pricing pass starts it.
        let eps = self.optimality_eps();
        self.reprice(true);
        for _ in 0..max_iter {
            let Some(q) = self.choose_entering(eps, bland) else {
                return Ok(());
            };
            self.iterations += 1;
            match self.step(q, self.d[q]) {
                Ok((t, pivoted)) => {
                    if pivoted {
                        self.reprice(false);
                        debug_assert!(self.priced_in_full(), "partial re-price diverged");
                    }
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

    /// Whether `self.d` is, to the bit, what a full pricing pass leaves.
    fn priced_in_full(&self) -> bool {
        let mut full = vec![0.0; self.d.len()];
        price(
            &self.t,
            &self.support,
            &self.basis,
            &self.cost,
            &self.all_groups,
            &mut full,
        );
        full.iter()
            .zip(&self.d)
            .all(|(a, b)| a.to_bits() == b.to_bits())
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

/// Solves the LP `model`.
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
        let x = m.add_nonneg(-3.0);
        let y = m.add_nonneg(-5.0);
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
        let _ = m.add_var(0.0, 2.0, -1.0);
        let _ = m.add_var(0.0, 3.0, -1.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 → (3,2), obj 5.
        let mut m = Model::new();
        let x = m.add_nonneg(1.0);
        let y = m.add_nonneg(1.0);
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
        let x = m.add_nonneg(2.0);
        let y = m.add_nonneg(3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Ge, 10.0);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, 2.0);
        assert_eq!(solve_lp(&m), Err(LpStatus::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0);
        let y = m.add_nonneg(0.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Le, 1.0);
        assert_eq!(solve_lp(&m), Err(LpStatus::Unbounded));
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -7 (free var) → -7.
        let mut m = Model::new();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Ge, -7.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x+y s.t. -x - y <= -4 (i.e. x+y >= 4), 0<=x,y<=3.
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0, 1.0);
        let y = m.add_var(0.0, 3.0, 1.0);
        m.add_constraint(expr(&[(x, -1.0), (y, -1.0)]), Le, -4.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints meet at the optimum.
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0);
        let y = m.add_nonneg(-1.0);
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
            .map(|_| m.add_var(0.0, 1.0, rng.gen_range(-1.0..1.0)))
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
