//! A self-contained LP solver: the reproduction's Gurobi substitute.
//!
//! UGache models cache placement as a mixed-integer linear program
//! (paper §6.2) and hands it to an off-the-shelf solver. Its block
//! batching (§6.3) turns that into a linear program, because a block's
//! placement may be fractional (a block can be split), and this crate
//! solves that LP from scratch:
//!
//! * [`Model`] — a small modelling API (variables with bounds, linear
//!   constraints, a linear objective to minimize);
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
//!   the frozen yardstick for differential tests.
//!
//! Scale note: block batching keeps instances at hundreds-to-thousands of
//! variables, which a dense simplex handles in seconds. No integer
//! program is solved: `cache-policy`'s tests measure the LP's placements
//! against a brute-force optimum of the paper's model instead.

#![deny(missing_docs)]

pub mod dense;
pub mod model;
pub mod simplex;

pub use dense::solve_lp_dense;
pub use model::{ConstraintSense, LinExpr, Model, VarId};
pub use simplex::{solve_lp, LpResult, LpStatus};
