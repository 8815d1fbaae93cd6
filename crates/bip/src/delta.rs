//! A model under interactive re-optimization (paper §4.2).
//!
//! CoPhy's interactive claim rests on the observation that a DBA's follow-up
//! questions — "what about a smaller budget?", "force this index in", "never
//! build that one" — are *small mutations* of a BIP that has already been
//! solved, so they should be answered by cheap re-solves of the existing
//! model, not fresh tuning runs.  [`DeltaModel`] is that model: a [`Model`],
//! its variable fixings, and what the last solve left behind for the next —
//! the root LP basis, the incumbent and the pseudo-cost table.  Three
//! setters mutate it, and each keeps the warm state usable:
//!
//! * [`DeltaModel::set_rhs`] (budget sweeps) and [`DeltaModel::fix`] (index
//!   pin / ban as a bound pinch, `None` to free) — reduced costs depend on
//!   neither, so the old basis stays **dual feasible** and the dual
//!   simplex ([`SimplexSolver::resolve`](crate::SimplexSolver::resolve))
//!   restores primal feasibility in a handful of pivots;
//! * [`DeltaModel::set_objective`] (one λ step of a Pareto sweep) — the old
//!   basis stays **primal** feasible while its reduced costs go stale, so
//!   the next root restarts phase 2 of the *primal* simplex from it.
//!
//! Nothing here adds, drops or rewrites a row or a column: a caller whose
//! edit changes the layout builds a new `DeltaModel`.
//! [`BranchBound::resolve`](crate::BranchBound::resolve) is the one consumer.

use crate::branch_bound::PseudoCosts;
use crate::model::{ConstrId, Model, VarId};
use crate::simplex::Basis;

/// A model under re-solve: the BIP, its current variable fixings and the
/// warm state [`BranchBound::resolve`](crate::BranchBound::resolve) reads
/// and rewrites (all of it empty until the first solve).
#[derive(Debug)]
pub struct DeltaModel {
    model: Model,
    fixed: Vec<Option<bool>>,
    /// Optimal root basis of the last solve that reached one.
    pub(crate) basis: Option<Basis>,
    /// Last solve's incumbent; clamped to the fixings and repaired against
    /// the mutated rows, it seeds the next.
    pub(crate) incumbent: Option<Vec<f64>>,
    /// Branching history accumulated over every solve so far.
    pub(crate) pseudo: Option<PseudoCosts>,
    /// The objective changed since `basis` was taken: a dual re-solve would
    /// price with stale reduced costs, so the next root goes primal.
    pub(crate) objective_moved: bool,
}

impl DeltaModel {
    /// Wrap a freshly built model: no fixings, nothing warm.
    pub fn new(model: Model) -> Self {
        let fixed = vec![None; model.n_vars()];
        DeltaModel {
            model,
            fixed,
            basis: None,
            incumbent: None,
            pseudo: None,
            objective_moved: false,
        }
    }

    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Root variable bounds under the current fixings.
    pub fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.model.n_vars();
        let mut lo = vec![0.0; n];
        let mut hi = vec![1.0; n];
        for (j, f) in self.fixed.iter().enumerate() {
            if let Some(v) = f {
                lo[j] = if *v { 1.0 } else { 0.0 };
                hi[j] = lo[j];
            }
        }
        (lo, hi)
    }

    /// Replace a row's right-hand side (e.g. the storage-budget sweep).
    pub fn set_rhs(&mut self, row: ConstrId, rhs: f64) {
        self.model.set_rhs(row, rhs);
    }

    /// Pin a variable to a binary value (index pin = 1, ban = 0) by
    /// collapsing its `[lo, hi]` interval, or restore `[0, 1]` with `None`.
    pub fn fix(&mut self, var: VarId, value: Option<bool>) {
        self.fixed[var.0 as usize] = value;
    }

    /// Replace the full objective vector (e.g. one λ step of a chord sweep
    /// over `λ·cost + (1−λ)·storage`).
    pub fn set_objective(&mut self, coeffs: &[f64]) {
        self.objective_moved = true;
        self.model.set_objective_coeffs(coeffs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Sense};

    fn knapsack() -> (Model, ConstrId) {
        // min −10x − 6y − 4z s.t. 5x + 4y + 3z ≤ 9.
        let mut m = Model::new();
        let x = m.add_var("x", -10.0);
        let y = m.add_var("y", -6.0);
        let z = m.add_var("z", -4.0);
        let row =
            m.add_constraint(LinExpr::new().term(x, 5.0).term(y, 4.0).term(z, 3.0), Sense::Le, 9.0);
        (m, row)
    }

    #[test]
    fn rhs_and_bound_edits_leave_the_basis_dual_usable() {
        let (m, row) = knapsack();
        let mut dm = DeltaModel::new(m);
        dm.set_rhs(row, 5.0);
        dm.fix(VarId(0), Some(true));
        dm.fix(VarId(0), None);
        assert!(!dm.objective_moved);
        assert_eq!(dm.model().constraint(row).rhs, 5.0);
    }

    #[test]
    fn fixings_materialize_as_bounds() {
        let (m, _) = knapsack();
        let mut dm = DeltaModel::new(m);
        dm.fix(VarId(1), Some(true));
        dm.fix(VarId(2), Some(false));
        let (lo, hi) = dm.bounds();
        assert_eq!((lo[0], hi[0]), (0.0, 1.0));
        assert_eq!((lo[1], hi[1]), (1.0, 1.0));
        assert_eq!((lo[2], hi[2]), (0.0, 0.0));
        dm.fix(VarId(2), None);
        let (lo, hi) = dm.bounds();
        assert_eq!((lo[2], hi[2]), (0.0, 1.0));
    }

    #[test]
    fn objective_edits_send_the_next_root_primal() {
        let (m, _) = knapsack();
        let mut dm = DeltaModel::new(m);
        dm.set_objective(&[-1.0, -2.0, -3.0]);
        assert!(dm.objective_moved);
        assert_eq!(dm.model().objective(), &[-1.0, -2.0, -3.0]);
    }
}
