//! The Solver's one chain (paper Figure 3): feasibility → block form or
//! Theorem-1 model → relax (Lagrangian) → seed → exact (`BranchBound` over a
//! [`DeltaModel`]).  [`CoPhy::solve`] selects the stages from what the caller
//! holds: a live [`Exact`] state (a sweep, the Chord explorer) is re-solved
//! warm; a Lagrangian warm-start slot (a session) is relaxed; a tune, holding
//! neither, is checked, then relaxed if its constraint set has the block
//! form's shape and the backend allows it, else seeded and solved exact.

use std::time::{Duration, Instant};

use cophy_bip::{
    BranchBound, CancelToken, DeltaModel, LagrangianSolver, MipStatus, SolveBudget, SolveOptions,
    SolveProgress, WarmStart,
};
use cophy_catalog::Configuration;
use cophy_inum::{InumCache, PreparedWorkload};
use cophy_workload::QueryId;

use crate::bipgen::BipMapping;
use crate::cgen::CandidateSet;
use crate::constraints::ConstraintSet;
use crate::error::CoPhyError;
use crate::solver::{CoPhy, SolverBackend};

/// Read access to a prepared workload, one call at a time: a plain borrow,
/// or a shared cache's read lock — taken per call, so a session's solve never
/// holds the cache's writers out.
pub(crate) trait ReadPrepared {
    fn read<R>(&self, f: impl FnOnce(&PreparedWorkload) -> R) -> R;
}

impl ReadPrepared for PreparedWorkload {
    fn read<R>(&self, f: impl FnOnce(&PreparedWorkload) -> R) -> R {
        f(self)
    }
}

impl ReadPrepared for InumCache {
    fn read<R>(&self, f: impl FnOnce(&PreparedWorkload) -> R) -> R {
        InumCache::read(self, f)
    }
}

/// The exact stage's state: a Theorem-1 model under re-solve (root basis,
/// incumbent and pseudo-costs included) and the map back to indexes.
#[derive(Debug)]
pub(crate) struct Exact {
    pub dm: DeltaModel,
    pub mapping: BipMapping,
}

/// What a caller brings to [`CoPhy::solve`]; a tune brings nothing.
#[derive(Default)]
pub(crate) struct Held<'a> {
    /// Per-candidate pin (`Some(true)`) / ban (`Some(false)`).
    pub fixed: Option<Vec<Option<bool>>>,
    /// A session's Lagrangian warm start, read and rewritten.
    pub warm: Option<&'a mut Option<WarmStart>>,
    /// A live exact state, already edited for this solve.
    pub exact: Option<&'a mut Exact>,
    /// A lower bound on this solve's model optimum the caller has proven.
    pub known_bound: Option<f64>,
    pub cancel: Option<CancelToken>,
}

/// One stage's answer; dressing it adds the update-base cost `offset`
/// (outside the model) to `objective` and `bound`.
#[derive(Default)]
pub(crate) struct Solved {
    pub configuration: Configuration,
    pub objective: f64,
    pub bound: f64,
    pub offset: f64,
    pub gap: f64,
    pub trace: Vec<SolveProgress>,
    pub build_time: Duration,
    pub solve_time: Duration,
    pub n_variables: usize,
    /// Branch-and-bound nodes and simplex pivots (zero from the relax stage).
    pub nodes: usize,
    pub pivots: usize,
}

/// The block form carries a storage budget and nothing else.  The one place
/// the solve path reads a constraint set's shape.
pub(crate) fn block_form(constraints: &ConstraintSet) -> Result<(), CoPhyError> {
    let why = "the Lagrangian relaxation takes storage-only constraint sets";
    constraints.is_storage_only().then_some(()).ok_or_else(|| CoPhyError::Invalid(why.into()))
}

/// Every statement a query-cost bound names is prepared: BIPGen matches the
/// id against `PreparedQuery::qid`, and an id no statement carries would add
/// no row, leaving the tune unconstrained.
fn bounds_name_prepared(
    prepared: &impl ReadPrepared,
    constraints: &ConstraintSet,
) -> Result<(), CoPhyError> {
    let carried = |q: QueryId| prepared.read(|pw| pw.queries.iter().any(|pq| pq.qid == q));
    let mut targets = constraints.query_cost_bounds().into_iter().filter_map(|(target, _)| target);
    match targets.find(|&q| !carried(q)) {
        None => Ok(()),
        Some(q) => Err(CoPhyError::Invalid(format!(
            "a query-cost bound names statement {}, which no prepared statement carries",
            q.0
        ))),
    }
}

impl CoPhy<'_> {
    /// Run the stages `held` selects, streaming every improvement.  An exact
    /// solve without an integral point is [`CoPhyError::Infeasible`], one
    /// whose budget ran out first [`CoPhyError::NoIncumbent`].
    pub(crate) fn solve(
        &self,
        prepared: &impl ReadPrepared,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
        mut held: Held<'_>,
        on_progress: impl FnMut(&SolveProgress),
    ) -> Result<Solved, CoPhyError> {
        if let Some(exact) = held.exact.take() {
            return self.exact(exact, candidates, held, None, Instant::now(), on_progress);
        }
        if held.warm.is_none() {
            // A tune: Figure 3's line 1, then the route.
            bounds_name_prepared(prepared, constraints)?;
            self.check_feasibility(candidates, constraints)?;
            let relax = match self.options.backend {
                SolverBackend::BranchBound => false,
                SolverBackend::Lagrangian => block_form(constraints).map(|()| true)?,
                SolverBackend::Auto => block_form(constraints).is_ok(),
            };
            if !relax {
                let tb = Instant::now();
                let mut exact = self.exact_state(prepared, candidates, constraints);
                let build_time = tb.elapsed();
                let started = Instant::now();
                let seed = self.storage_projection_seed(&exact);
                held.known_bound = seed.as_ref().and_then(|(_, b)| b.is_finite().then_some(*b));
                let seed_x = seed.as_ref().map(|(x, _)| x.as_slice());
                let solved = self.exact(&mut exact, candidates, held, seed_x, started, on_progress);
                return solved.map(|s| Solved { build_time, ..s });
            }
        }
        Ok(self.relax(prepared, candidates, constraints, held, on_progress))
    }

    /// The Theorem-1 model of `constraints`, ready for the exact stage.
    pub(crate) fn exact_state(
        &self,
        prepared: &impl ReadPrepared,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> Exact {
        let (schema, cm) = (self.optimizer().schema(), self.optimizer().cost_model());
        let (model, mapping) =
            prepared.read(|pw| self.options.bipgen.model(schema, cm, pw, candidates, constraints));
        Exact { dm: DeltaModel::new(model), mapping }
    }

    /// The relax stage: the block form with the pins and bans folded in (item
    /// ids, and so the warm multipliers, stay valid), solved by the Lagrangian
    /// decomposition from and back into `held.warm`.
    fn relax(
        &self,
        prepared: &impl ReadPrepared,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
        held: Held<'_>,
        mut on_progress: impl FnMut(&SolveProgress),
    ) -> Solved {
        let (schema, cm) = (self.optimizer().schema(), self.optimizer().cost_model());
        let tb = Instant::now();
        let tp = prepared
            .read(|pw| self.options.bipgen.block_problem(schema, cm, pw, candidates, constraints));
        let reduction = held.fixed.map(|fixed| {
            tp.block
                .with_fixings(&fixed)
                .expect("pin_index and set_constraints keep the pinned indexes within budget")
        });
        let block = reduction.as_ref().map_or(&tp.block, |fx| &fx.problem);
        let build_time = tb.elapsed();

        let ts = Instant::now();
        let solver = LagrangianSolver { budget: self.options.budget, cancel: held.cancel };
        let warm_in = held.warm.as_ref().and_then(|w| w.as_ref());
        let (r, warm) = solver.solve_warm_with_progress(block, warm_in, |p, _| on_progress(p));
        let solve_time = ts.elapsed();
        if let Some(slot) = held.warm {
            *slot = Some(warm);
        }

        let mut selected = r.selected;
        let (mut objective, mut bound) = (r.objective, r.bound);
        if let Some(fx) = &reduction {
            fx.apply_to_selection(&mut selected);
            objective += fx.pinned_cost;
            bound += fx.pinned_cost;
        }
        let chosen = candidates.iter().filter(|(id, _)| selected[id.0 as usize]);
        Solved {
            configuration: Configuration::from_indexes(chosen.map(|(_, ix)| ix.clone())),
            objective,
            bound,
            offset: tp.fixed_cost,
            gap: r.gap,
            trace: r.trace,
            build_time,
            solve_time,
            n_variables: tp.block.n_choices() + tp.block.n_items,
            ..Default::default()
        }
    }

    /// The seed stage: relax `exact`'s block form — the storage-only
    /// projection of the constraint set, its knapsack row the tune's storage
    /// budget — on a small budget and complete its selection through
    /// `exact`'s layout (the exact stage repairs it for the rich rows).  The
    /// projection's dual bound bounds the rich problem too, keeping its gap
    /// finite.
    fn storage_projection_seed(&self, exact: &Exact) -> Option<(Vec<f64>, f64)> {
        if exact.mapping.z.is_empty() {
            return None;
        }
        let budget = SolveBudget {
            gap_limit: 0.05,
            time_limit: self.options.budget.time_limit.map(|t| t / 10),
            node_limit: Some(200),
            ..Default::default()
        };
        let r =
            LagrangianSolver { budget, ..Default::default() }.solve(&exact.mapping.problem.block);
        Some((exact.mapping.completion(&r.selected, exact.dm.model().n_vars()), r.bound))
    }

    /// The exact stage: the fixings into the `z` bounds, then one classified
    /// B&B (re-)solve from `seed` or from what the model's last solve left, on
    /// a wall clock that began at `started` (a seed spends part of it).
    fn exact(
        &self,
        exact: &mut Exact,
        candidates: &CandidateSet,
        held: Held<'_>,
        seed: Option<&[f64]>,
        started: Instant,
        mut on_progress: impl FnMut(&SolveProgress),
    ) -> Result<Solved, CoPhyError> {
        for (pos, &var) in exact.mapping.z.iter().enumerate() {
            exact.dm.fix(var, held.fixed.as_ref().and_then(|f| f[pos]));
        }
        let mut budget = self.options.budget;
        budget.time_limit = budget.time_limit.map(|t| t.saturating_sub(started.elapsed()));
        let opts = SolveOptions {
            budget,
            known_bound: held.known_bound,
            cancel: held.cancel,
            ..Default::default()
        };
        let r = BranchBound::new().resolve(&mut exact.dm, &opts, seed, |p, _| on_progress(p));
        if r.status == MipStatus::Infeasible {
            return Err(CoPhyError::Infeasible(
                "BIP infeasible under the hard constraints and the pinned indexes".into(),
            ));
        }
        if r.x.is_empty() {
            return Err(CoPhyError::NoIncumbent(r.status));
        }
        Ok(Solved {
            configuration: exact.mapping.extract_configuration(&r.x, candidates),
            objective: r.objective,
            bound: r.bound,
            offset: exact.mapping.problem.fixed_cost,
            gap: r.gap,
            trace: r.trace,
            solve_time: started.elapsed(),
            n_variables: exact.dm.model().n_vars(),
            nodes: r.nodes,
            pivots: r.pivots,
            ..Default::default()
        })
    }
}
