//! A self-contained (MI)LP solver: the reproduction's Gurobi substitute.
//!
//! UGache models cache placement as a mixed-integer linear program
//! (paper §6.2) and hands it to an off-the-shelf solver. This crate
//! implements the required machinery from scratch:
//!
//! * [`Model`] — a small modelling API (variables with bounds and
//!   integrality, linear constraints, a linear objective to minimize);
//! * [`simplex`] — a *bounded-variable* primal simplex with a two-phase
//!   start (so `0 ≤ x ≤ 1` binaries do not blow up the row count). The
//!   tableau is dense, in cache-line groups of eight columns, and each
//!   row carries one support bit per group that may hold a nonzero:
//!   pricing walks set groups, and a pivot packs the pivot row's nonzero
//!   groups once, then updates every other row with one eight-lane axpy
//!   per group and one word-wise `OR`. Columns that can never enter
//!   (`lb == ub`, nonbasic) are zeroed and drop out, reduced costs are
//!   recomputed only where a pivot changed something and not at all after
//!   a bound flip. Every skipped operation is one whose outcome is
//!   already known — a `±0.0` term, a column nothing reads, a sum whose
//!   terms did not move — so the solver follows the original dense solver
//!   pivot for pivot; that solver survives as [`dense::solve_lp_dense`],
//!   the frozen yardstick for differential tests;
//! * [`branch`] — best-first branch-and-bound over the LP relaxation with
//!   most-fractional branching and node limits.
//!
//! Scale note: UGache's block batching (§6.3) keeps instances at
//! hundreds-to-thousands of variables, which a dense simplex handles in
//! seconds. The policy crate additionally exploits that *fractional*
//! block placements are realizable (a block can be split), so the LP
//! relaxation is usually the final answer and branch-and-bound is only
//! exercised by tests (this crate's, and `cache-policy`'s of the paper
//! MILP).

#![deny(missing_docs)]

pub mod branch;
pub mod dense;
pub mod model;
pub mod simplex;

pub use branch::{solve_milp, MilpOptions, MilpResult, MilpStatus};
pub use dense::solve_lp_dense;
pub use model::{ConstraintSense, LinExpr, Model, VarId};
pub use simplex::{solve_lp, LpResult, LpStatus};
