//! The modelling API: variables, constraints, objective.

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Positional index of the variable in solution vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear expression `Σ coeff · var`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms; duplicates are summed on use.
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// An empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coeff · var` and returns `self` for chaining.
    pub fn plus(mut self, var: VarId, coeff: f64) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Builds an expression from an iterator of terms.
    pub fn from_terms<I: IntoIterator<Item = (VarId, f64)>>(it: I) -> Self {
        LinExpr {
            terms: it.into_iter().collect(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDef {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConstraintDef {
    pub expr: LinExpr,
    pub sense: ConstraintSense,
    pub rhs: f64,
}

/// A minimization LP.
///
/// # Examples
///
/// ```
/// use milp::{ConstraintSense, LinExpr, Model};
/// // minimize -x - 2y  s.t.  x + y <= 4, 0 <= x,y <= 3
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 3.0, -1.0);
/// let y = m.add_var(0.0, 3.0, -2.0);
/// m.add_constraint(LinExpr::new().plus(x, 1.0).plus(y, 1.0), ConstraintSense::Le, 4.0);
/// let sol = milp::solve_lp(&m).unwrap();
/// assert!((sol.objective - (-7.0)).abs() < 1e-6); // x=1, y=3
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj`. Returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let id = VarId(self.vars.len());
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "NaN bound on variable {}",
            id.0
        );
        assert!(
            lb <= ub,
            "empty bound range on variable {}: [{lb}, {ub}]",
            id.0
        );
        self.vars.push(VarDef { lb, ub, obj });
        id
    }

    /// Convenience: a variable in `[0, +inf)`.
    pub fn add_nonneg(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, f64::INFINITY, obj)
    }

    /// Adds a linear constraint.
    ///
    /// # Panics
    ///
    /// Panics if the expression references an unknown variable or a
    /// coefficient/rhs is non-finite.
    pub fn add_constraint(&mut self, expr: LinExpr, sense: ConstraintSense, rhs: f64) {
        assert!(rhs.is_finite(), "non-finite constraint rhs {rhs}");
        for &(v, c) in &expr.terms {
            assert!(
                v.0 < self.vars.len(),
                "constraint references unknown variable"
            );
            assert!(c.is_finite(), "non-finite coefficient {c}");
        }
        self.constraints.push(ConstraintDef { expr, sense, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Largest primal constraint violation of a point, in rhs units
    /// (`0.0` when every constraint holds exactly). Variable bounds are
    /// not included — use [`Model::is_feasible`] for the full check. This is the convergence residual the telemetry layer
    /// reports per LP solve.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the highest variable index any
    /// constraint references.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.constraints {
            let lhs: f64 = c.expr.terms.iter().map(|&(v, k)| k * x[v.0]).sum();
            let viol = match c.sense {
                ConstraintSense::Le => lhs - c.rhs,
                ConstraintSense::Ge => c.rhs - lhs,
                ConstraintSense::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Checks primal feasibility of a point within tolerance `tol`
    /// (bounds and constraints).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lb - tol || xi > v.ub + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.expr.terms.iter().map(|&(v, k)| k * x[v.0]).sum();
            let ok = match c.sense {
                ConstraintSense::Le => lhs <= c.rhs + tol,
                ConstraintSense::Ge => lhs >= c.rhs - tol,
                ConstraintSense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 1.0);
        let b = m.add_var(0.0, 1.0, 2.0);
        m.add_constraint(
            LinExpr::new().plus(x, 1.0).plus(b, -1.0),
            ConstraintSense::Ge,
            0.5,
        );
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.objective_value(&[3.0, 1.0]), 5.0);
    }

    #[test]
    fn feasibility_checks_everything() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, 0.0);
        let b = m.add_var(0.0, 1.0, 0.0);
        m.add_constraint(
            LinExpr::new().plus(x, 1.0).plus(b, 1.0),
            ConstraintSense::Le,
            1.5,
        );
        assert!(m.is_feasible(&[0.5, 1.0], 1e-9));
        assert!(!m.is_feasible(&[2.0, 0.0], 1e-9), "bound violation");
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9), "constraint violation");
        assert!(!m.is_feasible(&[1.0], 1e-9), "wrong arity");
    }

    #[test]
    #[should_panic(expected = "empty bound range")]
    fn inverted_bounds_panic() {
        let mut m = Model::new();
        let _ = m.add_var(2.0, 1.0, 0.0);
    }
}
