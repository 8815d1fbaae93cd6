//! # cophy-bip
//!
//! A self-contained binary-integer-programming substrate — the stand-in for
//! the off-the-shelf solver (CPLEX 12.1) the CoPhy paper delegates to.  The
//! calibration note for this reproduction flags Rust LP-solver crates as
//! immature, so everything here is built from scratch:
//!
//! * [`Model`] — a sparse BIP model builder;
//! * [`SimplexSolver`] — a two-phase, bounded-variable **sparse revised**
//!   primal simplex for the LP relaxations: sparse-LU basis factorization
//!   (`factor`, Markowitz-style ordering + threshold partial pivoting) with
//!   eta-file product-form updates and periodic refactorization, Devex
//!   pricing with a Dantzig-equivalent reset, optimal-[`Basis`] snapshots
//!   for warm re-solves, and a one-step recovery from a singular basis on
//!   the same kernel's careful pivot path.  It is the only simplex that
//!   ships: the previous dense explicit-`B⁻¹` tableau is compiled under
//!   `cfg(test)` alone, as the oracle of this crate's differential tests.
//!   [`SimplexSolver::resolve`] is its bounded-variable **dual simplex**,
//!   which re-solves an LP from a parent basis after a bound pinch (the
//!   branch-and-bound warm-start: a child LP costs a handful of dual pivots
//!   instead of a fresh two-phase solve), with dual Devex row pricing and a
//!   bound-flipping (long-step) ratio test that moves box-constrained
//!   binaries across their box without a pivot;
//! * [`BranchBound`] — a best-first branch-and-bound MIP solver with
//!   anytime incumbents, a global lower bound, relative-gap early
//!   termination, time/node limits and improvement callbacks (the paper's
//!   "continuous feedback" of Figure 6a);
//! * [`LagrangianSolver`] — a Lagrangian-decomposition solver for the
//!   block-angular structure of index-tuning BIPs (the `relax(B)` step of
//!   Figure 3): per-query minimum subproblems + an LP-knapsack coupling
//!   subproblem, driven by subgradient ascent, with warm-startable
//!   multipliers for fast re-solves;
//! * [`continuous_min`] — the continuous knapsack, with the 0-1 knapsack
//!   helpers shared by the above;
//! * [`write_mps`] / [`parse_mps`] — free-format MPS export/import of a
//!   [`Model`], the portable hand-off to (and cross-check against) external
//!   solvers.
//!
//! * the shared **anytime solve engine**: one [`SolveBudget`] (gap /
//!   wall-clock / node limits), one crate-private driver owning the
//!   incumbent stream, monotone bound and proven-gap tracking, and the
//!   unified [`SolveProgress`] callback both backends report through;
//! * **interactive re-optimization**: a [`DeltaModel`] is a model, its
//!   pin/ban fixings and the last solve's root basis, incumbent
//!   and pseudo-costs; `set_rhs` (budget sweeps), `fix` (pin/ban) and
//!   `set_objective` (Pareto λ steps) mutate it, [`BranchBound::resolve`]
//!   re-solves it, so a follow-up question costs a few pivots, not a fresh
//!   solve.
//!
//! The solvers report the same observables CPLEX exposes to CoPhy:
//! feasibility, anytime incumbent + bound (⇒ optimality gap), and cheap
//! re-solves after model deltas.

mod branch_bound;
mod delta;
#[cfg(test)]
mod dense;
mod driver;
mod dual;
mod factor;
mod knapsack;
mod lagrangian;
#[cfg(test)]
mod lp_equivalence;
mod model;
mod mps;
mod simplex;

#[doc(hidden)]
pub use branch_bound::bench_repair;
pub use branch_bound::{BranchBound, MipResult, SolveOptions};
pub use delta::DeltaModel;
pub use driver::{CancelToken, DecompositionProgress, MipStatus, SolveBudget, SolveProgress};
pub use knapsack::continuous_min;
pub use lagrangian::{
    Alt, Block, BlockProblem, FixedBlockProblem, LagrangeResult, LagrangianSolver, SlotChoices,
    WarmStart,
};
pub use model::{ConstrId, Constraint, LinExpr, Model, Sense, VarId};
pub use mps::{lint_mps, parse_mps, write_mps};
#[doc(hidden)]
pub use simplex::bench_refactor;
pub use simplex::{Basis, LpResult, LpStatus, SimplexSolver};
