//! Best-first branch-and-bound over binary variables.
//!
//! The generic "off-the-shelf BIP solver" face of this crate: LP-relaxation
//! bounds from the [`simplex`](crate::simplex), an **LP-rounding +
//! greedy-repair diving heuristic** for root-node incumbents, **pseudo-cost
//! branching** with reliability initialization from strong branching, and the
//! anytime contract of the shared [`SolveDriver`]:
//!
//! * **gap feedback** — a monotone proven-gap trace streamed after every
//!   incumbent or bound improvement (Figure 6a's curves are exactly this);
//! * **early termination** — stop as soon as the gap falls below
//!   `SolveBudget::gap_limit` (the paper runs CPLEX at 5%);
//! * **limits** — wall-clock and node limits with the best-so-far returned.
//!
//! ## Primal heuristics
//!
//! Index-tuning BIPs have near-integral LP relaxations, but plain rounding
//! usually breaks the assignment rows (`Σ_k y_qk = 1`, `Σ_a x = y`) and the
//! AT-MOST/storage rows.  `round_and_repair` rounds the LP point and then
//! repairs violated rows greedily: candidate flips are scored by objective
//! damage per unit of violation removed — penalized when a flip would break
//! other rows — and selected by the shared
//! [`knapsack::greedy_cover`] routine (a
//! violated storage row *is* a covering knapsack over drop candidates).  If
//! repair fails at the root, a bounded LP **dive** fixes the most-integral
//! fractionals one at a time and retries.  The heuristic re-runs periodically
//! at search nodes on their LP points.
//!
//! **A repeated state proves `None`.**  One repair pass is a deterministic
//! map `x → x'`: the violated list, every row repair and every collateral
//! count read only `x`, the model, the box and the tolerances.  A state seen
//! twice at a pass boundary therefore repeats for ever, through states each
//! already found infeasible, and the loop could only end by running out its
//! passes — so it returns that `None` at the repeat (states are compared
//! whole, never by hash; one saved state re-saved after passes 1, 2, 4, 8, …
//! catches a cycle within three times its entry + period).  On index-tuning
//! BIPs most failing calls are such cycles — a two-term linking row and the
//! assignment row it feeds re-breaking each other from the fourth pass on —
//! and they end after ≈ 6 passes instead of `2 · rows + 16`.  The pass cap
//! stays as the backstop for the one run the cut cannot shorten: a long walk
//! through states that never repeat.  `MipResult::repair_calls` /
//! `repair_passes` / `repair_hits` count what the heuristic did.
//!
//! ## Warm-started node evaluation
//!
//! Node evaluation is a pure function of `(model, bounds, parent basis)`
//! (`Search::evaluate_node`) over what one solve builds once and every LP
//! and heuristic call then only reads — the rows' standard form, whose
//! columns also tell the repair heuristic which rows a variable is in: each
//! node re-solves its LP from the parent's optimal [`Basis`] with the
//! bounded-variable dual simplex ([`SimplexSolver::resolve`]; a bound pinch
//! leaves the parent basis dual feasible, so a child costs a handful of dual
//! pivots instead of a two-phase solve), falling back to a cold solve when
//! the warm path stalls or its point fails validation.  The
//! search is one serial best-first loop — pop the cheapest open node, raise
//! the bound and check the stop, prune against the incumbent, evaluate the
//! node, merge its result through the [`SolveDriver`] — so every run is
//! deterministic.

use std::rc::Rc;

use crate::delta::DeltaModel;
use crate::driver::{CancelToken, MipStatus, SolveBudget, SolveDriver, SolveProgress};
use crate::knapsack;
use crate::model::{ConstrId, Model, Sense};
use crate::simplex::{Basis, LpResult, LpStatus, SimplexSolver, StandardForm};

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipResult {
    pub status: MipStatus,
    /// Best integral solution found (empty if none).
    pub x: Vec<f64>,
    pub objective: f64,
    /// Global lower bound at termination.
    pub bound: f64,
    /// Best proven relative gap at termination.
    pub gap: f64,
    pub nodes: usize,
    /// Cumulative simplex pivots across the root and node LPs (warm dual
    /// pivots and cold two-phase pivots alike); `pivots / nodes` is the
    /// per-node LP cost the warm start drives down.
    pub pivots: usize,
    /// From-scratch basis factorizations across every LP of the solve.
    pub refactorizations: usize,
    /// Devex reference-framework resets across every LP of the solve.
    pub devex_resets: usize,
    /// Cold two-phase LPs paid by strong branching.  Zero by construction
    /// on the warm path: probes re-solve from the node basis through the
    /// dual simplex and are *skipped* (not downgraded) when that fails.
    pub sb_cold_lps: usize,
    /// Cold two-phase LPs paid by the dive heuristic (same contract).
    pub dive_cold_lps: usize,
    /// Singular-basis breakdowns the solve recovered from instead of
    /// surfacing an error: a failed refactorization (or an ftran/pricing
    /// disagreement) forces a cold two-phase re-solve on the simplex's
    /// careful pivot path, and warm re-solves that went singular pay the
    /// cold fallback (see [`LpStatus::Singular`]).
    pub factor_recoveries: usize,
    /// Calls of the rounding + greedy-repair heuristic (root, dive levels
    /// and search nodes).
    pub repair_calls: usize,
    /// Repair passes across those calls; `repair_passes / repair_calls`
    /// stays in single digits while the periodicity cut holds (see the
    /// module docs) and is in the thousands without it.
    pub repair_passes: usize,
    /// Calls that returned a feasible point.
    pub repair_hits: usize,
    /// Incumbent/bound improvements over time.
    pub trace: Vec<SolveProgress>,
}

impl MipResult {
    fn infeasible() -> Self {
        MipResult {
            status: MipStatus::Infeasible,
            x: Vec::new(),
            objective: f64::INFINITY,
            bound: f64::INFINITY,
            gap: f64::INFINITY,
            nodes: 0,
            pivots: 0,
            refactorizations: 0,
            devex_resets: 0,
            sb_cold_lps: 0,
            dive_cold_lps: 0,
            factor_recoveries: 0,
            repair_calls: 0,
            repair_passes: 0,
            repair_hits: 0,
            trace: Vec::new(),
        }
    }
}

/// Per-solve LP and heuristic instrumentation, surfaced through
/// [`MipResult`] (internal).
#[derive(Debug, Default, Clone, Copy)]
struct NodeStats {
    refactorizations: usize,
    devex_resets: usize,
    sb_cold_lps: usize,
    dive_cold_lps: usize,
    factor_recoveries: usize,
    repair_calls: usize,
    repair_passes: usize,
    repair_hits: usize,
}

impl NodeStats {
    /// Fold one LP's factorization/pricing counters into the totals.
    fn absorb(&mut self, lp: &LpResult) {
        self.refactorizations += lp.refactorizations;
        self.devex_resets += lp.devex_resets;
        self.factor_recoveries += lp.factor_recoveries;
    }

    fn apply(&self, out: &mut MipResult) {
        out.refactorizations = self.refactorizations;
        out.devex_resets = self.devex_resets;
        out.sb_cold_lps = self.sb_cold_lps;
        out.dive_cold_lps = self.dive_cold_lps;
        out.factor_recoveries = self.factor_recoveries;
        out.repair_calls = self.repair_calls;
        out.repair_passes = self.repair_passes;
        out.repair_hits = self.repair_hits;
    }
}

/// Solver options: the shared resource budget plus B&B-specific knobs.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Gap / time / node budget (shared semantics with every backend).
    pub budget: SolveBudget,
    /// A caller-proven valid lower bound on the binary optimum (e.g. the
    /// dual bound of a relaxation such as the storage-only projection).
    /// Raised into the driver before the root LP, so even a solve whose
    /// root relaxation hits the deadline reports a finite gap.
    pub known_bound: Option<f64>,
    /// Total strong-branching variable evaluations across the solve (each
    /// costs two bounded child LPs).
    pub strong_branch_budget: usize,
    /// Re-run the rounding heuristic every this many nodes (the root run is
    /// unconditional; large models run it at every node since repair is
    /// cheap next to their LPs).
    pub heuristic_period: usize,
    /// Re-solve node LPs from the parent's optimal basis with the dual
    /// simplex (cold two-phase fallback when the warm path stalls or fails
    /// validation).  On by default; the bench harness turns it off to
    /// measure the cold-LP baseline.
    pub warm_start: bool,
    /// Cooperative cancellation: when the token fires, the solve stops at
    /// its next node boundary with [`MipStatus::TimeLimit`] (the budget's
    /// deadline brought forward to now).
    pub cancel: Option<CancelToken>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            budget: SolveBudget::default(),
            known_bound: None,
            strong_branch_budget: 24,
            heuristic_period: 16,
            warm_start: true,
            cancel: None,
        }
    }
}

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;
/// Strong-branch a variable until it has this many pseudo-cost
/// observations in each direction (reliability branching).
const RELIABILITY: u32 = 1;
/// Strong branching is disabled above this variable count — on large
/// models the bounded child LPs cost more than the better branching
/// saves (pseudo-costs then learn from regular node solves only).
const STRONG_BRANCH_MAX_VARS: usize = 400;

/// A search node: variable fixings layered over the root bounds.  `bound` is
/// the parent's LP objective (a valid lower bound for the node); `branch`
/// records the last fixing `(var, up, parent fraction)` for pseudo-cost
/// updates once the node's own LP is solved; `basis` is the parent's optimal
/// LP basis (shared by both children), the warm-start handle for the dual
/// re-solve.
#[derive(Debug, Clone)]
struct Node {
    bound: f64,
    fixings: Vec<(usize, bool)>,
    depth: usize,
    branch: Option<(usize, bool, f64)>,
    basis: Option<Rc<Basis>>,
}

impl Node {
    /// Materialize this node's variable bounds over fresh copies of the root
    /// bounds (all `[0, 1]` on a plain solve; pinched by the caller's
    /// pin/ban fixings on a warm re-solve).
    fn bounds(&self, root_lo: &[f64], root_hi: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = root_lo.to_vec();
        let mut hi = root_hi.to_vec();
        self.apply_fixings(&mut lo, &mut hi, root_lo, root_hi);
        (lo, hi)
    }

    fn apply_fixings(&self, lo: &mut [f64], hi: &mut [f64], root_lo: &[f64], root_hi: &[f64]) {
        lo.copy_from_slice(root_lo);
        hi.copy_from_slice(root_hi);
        for &(j, v) in &self.fixings {
            lo[j] = if v { 1.0 } else { 0.0 };
            hi[j] = lo[j];
        }
    }
}

/// What every LP and heuristic call of one engine run shares, built once
/// per solve and only read afterwards.  The standard form depends on the
/// model's rows alone, so the root, every dive level, every probe and every
/// node reuse it instead of walking the constraint list again: the LPs pivot
/// on its columns, the repair heuristic reads off them which rows a variable
/// is in.
struct Search<'a> {
    form: StandardForm<'a>,
    /// [`Repair::penalty`] of the model.
    repair_penalty: f64,
    lp_solver: SimplexSolver,
    /// `lp_solver` with the pivot budget capped for node-LP dual re-solves
    /// (see `solve_engine`).
    dual: SimplexSolver,
    warm_start: bool,
    root_lo: &'a [f64],
    root_hi: &'a [f64],
}

impl Search<'_> {
    /// Evaluate one node's LP relaxation — a pure function of the model,
    /// the node's bounds and the parent basis: the dual re-solve from the
    /// parent basis when there is one, through [`Search::accept_or_cold`].
    fn evaluate_node(&self, node: &Node) -> LpResult {
        let (lo, hi) = node.bounds(self.root_lo, self.root_hi);
        let warm = node
            .basis
            .as_ref()
            .filter(|_| self.warm_start)
            .and_then(|basis| self.dual.resolve_on(&self.form, &lo, &hi, basis));
        self.accept_or_cold(&lo, &hi, warm, true)
    }

    /// The warm → validate → cold ladder every warm-started LP of the
    /// search goes through.  The warm answer is taken when it is `Optimal`
    /// at a point that passes [`warm_point_valid`] (the bound must stay
    /// sound under numerical drift), when the deadline ended it, or — only
    /// where `trust_infeasible` — when it is `Infeasible`: at a node that
    /// merely prunes a subtree, but at the root it would abort the whole
    /// solve, and dual unboundedness on a stale near-degenerate basis can be
    /// drift.  Everything else (no warm answer, a stall, a singular basis,
    /// an invalid point) pays the cold two-phase solve, which keeps the warm
    /// pivots in the accounting and counts a singular warm basis as a
    /// recovered breakdown.
    fn accept_or_cold(
        &self,
        lo: &[f64],
        hi: &[f64],
        warm: Option<LpResult>,
        trust_infeasible: bool,
    ) -> LpResult {
        let Some(r) = warm else {
            return self.lp_solver.solve_on(&self.form, lo, hi);
        };
        match r.status {
            LpStatus::Optimal if warm_point_valid(self.form.model, &r.x, lo, hi) => r,
            LpStatus::Infeasible if trust_infeasible => r,
            LpStatus::IterLimit if self.lp_solver.deadline_expired() => r,
            _ => {
                let mut cold = self.lp_solver.solve_on(&self.form, lo, hi);
                cold.iterations += r.iterations;
                cold.factor_recoveries +=
                    r.factor_recoveries + usize::from(r.status == LpStatus::Singular);
                cold
            }
        }
    }

    /// The rounding + repair heuristic on an LP point, inside the root box.
    fn round_and_repair(
        &self,
        x_lp: &[f64],
        mode: RoundMode,
        stats: &mut NodeStats,
    ) -> Option<(f64, Vec<f64>)> {
        Repair { form: &self.form, penalty: self.repair_penalty }.round_and_repair(
            x_lp,
            mode,
            self.root_lo,
            self.root_hi,
            stats,
        )
    }
}

/// Cheap soundness check on a warm-optimal point: every row satisfied and
/// every variable inside its (pinched) bounds, within a loose tolerance.
fn warm_point_valid(model: &Model, x: &[f64], lo: &[f64], hi: &[f64]) -> bool {
    const TOL: f64 = 1e-5;
    x.iter().zip(lo.iter().zip(hi)).all(|(&v, (&l, &h))| v >= l - TOL && v <= h + TOL)
        && model.feasible(x, TOL)
}

/// Per-variable branching history: average objective degradation per unit of
/// fraction, per direction.
#[derive(Debug, Clone)]
pub(crate) struct PseudoCosts {
    up: Vec<f64>,
    dn: Vec<f64>,
    n_up: Vec<u32>,
    n_dn: Vec<u32>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts { up: vec![0.0; n], dn: vec![0.0; n], n_up: vec![0; n], n_dn: vec![0; n] }
    }

    /// Fold one observed per-unit degradation into the running mean.
    fn record(&mut self, j: usize, up: bool, per_unit: f64) {
        let (sum, cnt) = if up {
            (&mut self.up[j], &mut self.n_up[j])
        } else {
            (&mut self.dn[j], &mut self.n_dn[j])
        };
        *cnt += 1;
        *sum += (per_unit - *sum) / f64::from(*cnt);
    }

    fn reliable(&self, j: usize, threshold: u32) -> bool {
        self.n_up[j] >= threshold && self.n_dn[j] >= threshold
    }

    /// Mean initialized pseudo-costs — the fallback estimate for variables
    /// never branched on.
    fn global_means(&self) -> (f64, f64) {
        let mean = |sums: &[f64], counts: &[u32]| {
            let mut total = 0.0;
            let mut n = 0usize;
            for (s, c) in sums.iter().zip(counts) {
                if *c > 0 {
                    total += *s;
                    n += 1;
                }
            }
            if n > 0 {
                total / n as f64
            } else {
                1.0
            }
        };
        (mean(&self.up, &self.n_up), mean(&self.dn, &self.n_dn))
    }

    /// Product score of branching on `j` at fraction `frac`.
    fn score(&self, j: usize, frac: f64, means: (f64, f64)) -> f64 {
        let up = if self.n_up[j] > 0 { self.up[j] } else { means.0 };
        let dn = if self.n_dn[j] > 0 { self.dn[j] } else { means.1 };
        (up * (1.0 - frac)).max(1e-9) * (dn * frac).max(1e-9)
    }
}

/// Warm inputs of one engine run (internal).
struct WarmInputs<'a> {
    root_lo: &'a [f64],
    root_hi: &'a [f64],
    basis: Option<&'a Basis>,
    pseudo: Option<PseudoCosts>,
    /// The objective moved since the basis snapshot: route the root through
    /// [`SimplexSolver::warm_solve_on`] (phase-2 primal restart) — a dual
    /// re-solve would price with stale reduced costs and is unsound.
    primal_root: bool,
}

impl<'a> WarmInputs<'a> {
    fn cold(lo: &'a [f64], hi: &'a [f64]) -> WarmInputs<'a> {
        WarmInputs { root_lo: lo, root_hi: hi, basis: None, pseudo: None, primal_root: false }
    }
}

/// What one engine run leaves behind for the next (internal).
struct EngineArtifacts {
    root_basis: Option<Basis>,
    pseudo: PseudoCosts,
}

/// Best-first B&B solver.
#[derive(Debug, Default)]
pub struct BranchBound {
    pub(crate) simplex: SimplexSolver,
}

impl BranchBound {
    pub fn new() -> Self {
        BranchBound::default()
    }

    /// Feasibility check of the LP relaxation (the paper's Solver line 1).
    pub fn is_feasible(&self, model: &Model) -> bool {
        let n = model.n_vars();
        self.simplex.is_feasible(model, &vec![0.0; n], &vec![1.0; n])
    }

    /// Solve `model` to binary optimality (or to the configured budget),
    /// streaming every incumbent/bound improvement through `on_progress`
    /// (the improving solution rides along on incumbent events).  A
    /// caller-known (possibly infeasible) `seed` is repaired to feasibility
    /// and offered as the first incumbent.  CoPhy seeds rich-constraint
    /// solves with the Lagrangian backend's storage-only solution.
    pub fn solve_seeded_with_progress(
        &self,
        model: &Model,
        opts: &SolveOptions,
        seed: Option<&[f64]>,
        on_progress: impl FnMut(&SolveProgress, Option<&Vec<f64>>),
    ) -> MipResult {
        let n = model.n_vars();
        let lo = vec![0.0; n];
        let hi = vec![1.0; n];
        self.solve_engine(model, opts, seed, WarmInputs::cold(&lo, &hi), on_progress).0
    }

    /// Solve a [`DeltaModel`] from what its last solve left in it, and leave
    /// the same behind for the next: the root LP restarts from the stored
    /// basis with the dual simplex (sound after any mix of
    /// [`DeltaModel::set_rhs`] and [`DeltaModel::fix`] — neither RHS nor
    /// bounds enter the reduced costs), the previous incumbent is clamped to
    /// the current fixings, repaired against the mutated rows and offered as
    /// the seed, and branching continues from the accumulated pseudo-cost
    /// table.  After [`DeltaModel::set_objective`] (the λ step of a Pareto
    /// sweep) the root goes through the *primal* simplex's phase-2 restart
    /// instead: the old point stays primal feasible while its reduced costs
    /// go stale, the exact mirror of the RHS/bound case.  The first solve of
    /// a fresh `DeltaModel` has nothing to restart from and runs cold.
    /// A caller-known `seed` (as in
    /// [`BranchBound::solve_seeded_with_progress`]) is offered in place of
    /// the previous incumbent.  Every incumbent/bound improvement streams
    /// through `on_progress` (`|_, _| {}` to ignore them).
    pub fn resolve(
        &self,
        dm: &mut DeltaModel,
        opts: &SolveOptions,
        seed: Option<&[f64]>,
        on_progress: impl FnMut(&SolveProgress, Option<&Vec<f64>>),
    ) -> MipResult {
        let (lo, hi) = dm.bounds();
        // Seed from the caller's point or the previous incumbent, clamped
        // into the current pin/ban box so the repair starts from a
        // bound-respecting point.
        let seed: Option<Vec<f64>> = seed.or(dm.incumbent.as_deref()).map(|x| {
            x.iter().zip(lo.iter().zip(&hi)).map(|(&v, (&l, &h))| v.clamp(l, h)).collect()
        });
        let warm = WarmInputs {
            root_lo: &lo,
            root_hi: &hi,
            basis: dm.basis.as_ref(),
            pseudo: dm.pseudo.take(),
            primal_root: dm.objective_moved,
        };
        let (result, artifacts) =
            self.solve_engine(dm.model(), opts, seed.as_deref(), warm, on_progress);
        dm.pseudo = Some(artifacts.pseudo);
        // No fresh optimal root (deadline inside the root LP) keeps the old
        // basis: it still fits, the layout cannot have changed.
        if let Some(b) = artifacts.root_basis {
            dm.basis = Some(b);
        }
        dm.objective_moved = false;
        if !result.x.is_empty() {
            dm.incumbent = Some(result.x.clone());
        }
        result
    }

    /// The shared search engine behind [`BranchBound::solve_seeded_with_progress`]
    /// and [`BranchBound::resolve`]: root bounds carry the
    /// caller's pin/ban fixings, `warm.basis` (if any) warm-starts the root
    /// LP through the dual simplex, and `warm.pseudo` (if any) continues an
    /// earlier solve's branching history.  Returns the result plus the
    /// artifacts (fresh root basis, pseudo-cost table) the next re-solve
    /// reuses.
    fn solve_engine(
        &self,
        model: &Model,
        opts: &SolveOptions,
        seed: Option<&[f64]>,
        warm: WarmInputs<'_>,
        on_progress: impl FnMut(&SolveProgress, Option<&Vec<f64>>),
    ) -> (MipResult, EngineArtifacts) {
        let n = model.n_vars();
        let (root_lo, root_hi) = (warm.root_lo, warm.root_hi);
        let mut driver = SolveDriver::with_progress(opts.budget, on_progress);
        driver.set_cancel(opts.cancel.clone());
        // Arm every LP with the wall-clock deadline so one big relaxation
        // cannot blow through the budget.
        let lp_solver = SimplexSolver {
            deadline: opts.budget.time_limit.map(|tl| std::time::Instant::now() + tl),
            ..self.simplex.clone()
        };
        let mut lo = root_lo.to_vec();
        let mut hi = root_hi.to_vec();
        let mut stats = NodeStats::default();
        let mut pc = warm.pseudo.unwrap_or_else(|| PseudoCosts::new(n));
        if let Some(kb) = opts.known_bound {
            driver.raise_bound(kb);
        }

        // The dual simplex is armed like the primal; a warm re-solve after
        // one bound pinch should cost a handful of dual pivots, so node LPs
        // cap its budget well below the primal's — a degenerate or cycling
        // re-solve then fails fast to the cold fallback instead of burning
        // the full pivot budget first (the dual loop has no Bland-style
        // anti-cycling switch).
        let dual = SimplexSolver {
            max_iters: (4 * model.n_constraints() + 256).min(lp_solver.max_iters),
            ..lp_solver.clone()
        };
        let search = Search {
            form: StandardForm::new(model),
            repair_penalty: Repair::penalty(model),
            lp_solver,
            dual,
            warm_start: opts.warm_start,
            root_lo,
            root_hi,
        };
        let (form, lp_solver) = (&search.form, &search.lp_solver);

        // Root LP: warm from the caller's basis when one is available (an
        // interactive re-solve), cold two-phase otherwise.  After RHS/bound
        // deltas the basis is still dual feasible and the dual simplex
        // repairs it; after an objective edit it is primal feasible instead
        // (the dual path would price with stale reduced costs), so phase 2
        // of the primal simplex restarts from it.
        let warm_root = warm.basis.and_then(|basis| {
            if warm.primal_root {
                lp_solver.warm_solve_on(form, root_lo, root_hi, basis)
            } else {
                lp_solver.resolve_on(form, root_lo, root_hi, basis)
            }
        });
        let root = search.accept_or_cold(root_lo, root_hi, warm_root, false);
        driver.add_pivots(root.iterations);
        stats.absorb(&root);
        let root_basis_out = root.basis.clone();
        let artifacts =
            |pc: PseudoCosts| EngineArtifacts { root_basis: root_basis_out, pseudo: pc };
        match root.status {
            LpStatus::Infeasible => {
                let mut out = MipResult::infeasible();
                stats.apply(&mut out);
                return (out, artifacts(pc));
            }
            LpStatus::Unbounded => {
                // Binary variables are bounded; an unbounded relaxation means
                // a modeling error. Surface it loudly.
                panic!("LP relaxation of a BIP cannot be unbounded");
            }
            LpStatus::IterLimit | LpStatus::Singular => {
                // Out of time inside the root LP — or the careful retry
                // went singular too, which exhausts the recovery ladder:
                // salvage what the primal heuristics can build from the
                // seed / partial point.  The caller's known bound (if any)
                // keeps the reported gap finite even on this path.
                for start in [seed.unwrap_or(&root.x), &root.x as &[f64]] {
                    if let Some((obj, x)) =
                        search.round_and_repair(start, RoundMode::Nearest, &mut stats)
                    {
                        driver.offer_incumbent(obj, x);
                        break;
                    }
                }
                let r = driver.finish();
                let mut out = MipResult::infeasible();
                out.status = MipStatus::TimeLimit;
                out.bound = r.bound;
                out.pivots = r.pivots;
                if let Some((obj, x)) = r.incumbent {
                    out.objective = obj;
                    out.x = x;
                    out.gap = r.gap;
                    out.trace = r.trace;
                }
                stats.apply(&mut out);
                return (out, artifacts(pc));
            }
            LpStatus::Optimal => {}
        }
        driver.raise_bound(root.objective);

        // Root primal: the caller's seed first (repaired to feasibility),
        // then LP rounding + greedy repair, then a bounded dive if the cheap
        // repairs fail.  This is what turns "gap = ∞ forever" into an
        // anytime incumbent on rich constraint sets.
        if let Some(seed) = seed {
            if let Some((obj, x)) = search.round_and_repair(seed, RoundMode::Nearest, &mut stats) {
                driver.offer_incumbent(obj, x);
            }
        }
        for mode in [RoundMode::Nearest, RoundMode::Floor] {
            if let Some((obj, x)) = search.round_and_repair(&root.x, mode, &mut stats) {
                driver.offer_incumbent(obj, x);
                break;
            }
        }
        if !driver.has_incumbent() {
            if let Some((obj, x)) = search.dive(root.basis.as_ref(), &root.x, &driver, &mut stats) {
                driver.offer_incumbent(obj, x);
            }
        }

        // Frontier ordered by bound (best-first); the root's LP is reused.
        let mut frontier: Vec<Node> = vec![Node {
            bound: root.objective,
            fixings: Vec::new(),
            depth: 0,
            branch: None,
            basis: None,
        }];
        let mut root_lp = Some(root);
        let mut sb_remaining =
            if n <= STRONG_BRANCH_MAX_VARS { opts.strong_branch_budget } else { 0 };
        let heuristic_period = match opts.heuristic_period {
            0 => 0,
            p if n > 500 => p.min(1),
            p => p,
        };

        let mut status: Option<MipStatus> = None;
        // Subtrees abandoned because their LP stalled on the pivot cap: the
        // global bound must never rise above the cheapest of them, and the
        // search can no longer prove optimality by exhaustion.
        let mut stalled_nodes = 0usize;
        let mut stalled_bound_cap = f64::INFINITY;
        while let Some(pos) = best_node(&frontier) {
            // The popped node is the cheapest open one, so its bound is the
            // global bound.
            let node = frontier.swap_remove(pos);
            driver.raise_bound(node.bound.min(stalled_bound_cap));
            if let Some(stop) = driver.stop_status() {
                status = Some(stop);
                break;
            }
            // Prune against the incumbent.
            if node.bound >= driver.incumbent_objective() - 1e-9 {
                continue;
            }

            // The first node evaluated is the root (the frontier holds
            // nothing else until it branches), and its LP is already solved.
            let lp = match root_lp.take() {
                Some(mut lp) => {
                    // The root's pivots were accounted when its LP was
                    // solved; zero them (and the factorization counters)
                    // so they are not counted twice below.
                    lp.iterations = 0;
                    lp.refactorizations = 0;
                    lp.devex_resets = 0;
                    lp.factor_recoveries = 0;
                    lp
                }
                None => search.evaluate_node(&node),
            };
            driver.tick();
            driver.add_pivots(lp.iterations);
            stats.absorb(&lp);

            if lp.status == LpStatus::Infeasible {
                continue;
            }
            if lp.status == LpStatus::Singular {
                // Both pivot paths went singular on this node's LP, so
                // its objective is unusable.  Treat it exactly like a
                // pivot stall: skip the node (the parent bound stays
                // valid via the frontier) and remember the search is no
                // longer exhaustive.
                stalled_nodes += 1;
                stalled_bound_cap = stalled_bound_cap.min(node.bound);
                continue;
            }
            if lp.status == LpStatus::IterLimit {
                // The LP stalled, so its objective is not a sound bound.
                // Deadline hit → stop with the best-so-far; pivot-cap
                // stall without a deadline → skip just this node (its
                // parent bound stays valid via the frontier) and keep
                // searching, but remember the search is no longer
                // exhaustive.
                if lp_solver.deadline_expired() {
                    status = Some(MipStatus::TimeLimit);
                    break;
                }
                stalled_nodes += 1;
                stalled_bound_cap = stalled_bound_cap.min(node.bound);
                continue;
            }
            // Pseudo-cost update from the branch that created this node.
            if let Some((j, up, frac)) = node.branch {
                let per_unit = (lp.objective - node.bound).max(0.0)
                    / if up { (1.0 - frac).max(1e-6) } else { frac.max(1e-6) };
                pc.record(j, up, per_unit);
            }
            if lp.objective >= driver.incumbent_objective() - 1e-9 {
                continue;
            }

            let fracs = fractionals(&lp.x, INT_TOL);
            if fracs.is_empty() {
                driver.offer_incumbent(lp.objective, lp.x.clone());
                continue;
            }
            // Periodic node heuristic on the node's LP point.
            if heuristic_period > 0 && driver.ticks() % heuristic_period == 0 {
                if let Some((obj, x)) =
                    search.round_and_repair(&lp.x, RoundMode::Nearest, &mut stats)
                {
                    driver.offer_incumbent(obj, x);
                }
            }

            // Strong branching probes from this node's bounds.
            node.apply_fixings(&mut lo, &mut hi, root_lo, root_hi);
            let j = search.select_branch_var(
                if opts.warm_start { lp.basis.as_ref() } else { None },
                &mut lo,
                &mut hi,
                lp.objective,
                &fracs,
                &mut pc,
                &mut sb_remaining,
                &mut stats,
            );
            let frac = lp.x[j].fract();
            let child_basis = lp.basis.map(Rc::new);
            for v in [true, false] {
                let mut fx = node.fixings.clone();
                fx.push((j, v));
                frontier.push(Node {
                    bound: lp.objective,
                    fixings: fx,
                    depth: node.depth + 1,
                    branch: Some((j, v, frac)),
                    basis: child_basis.clone(),
                });
            }
        }

        if status.is_none() {
            if stalled_nodes == 0 {
                // Search exhausted: the incumbent (if any) is optimal.
                driver.close_exhausted();
            } else {
                // Some subtrees were abandoned on stalled LPs: the bound
                // (capped at the cheapest abandoned subtree) stands, but
                // optimality cannot be claimed.
                status = Some(MipStatus::NodeLimit);
            }
        }

        let r = driver.finish();
        let mut result = match r.incumbent {
            None => {
                // No integral point found. If the search was exhausted the
                // BIP is integrally infeasible.
                let mut out = MipResult::infeasible();
                out.nodes = r.ticks;
                out.pivots = r.pivots;
                if let Some(st) = status {
                    out.status = st;
                    out.bound = r.bound;
                }
                out
            }
            Some((obj, x)) => MipResult {
                status: if r.gap <= 1e-9 {
                    MipStatus::Optimal
                } else {
                    status.unwrap_or(MipStatus::Optimal)
                },
                x,
                objective: obj,
                bound: r.bound,
                gap: r.gap,
                nodes: r.ticks,
                pivots: r.pivots,
                trace: r.trace,
                ..MipResult::infeasible()
            },
        };
        stats.apply(&mut result);
        (result, artifacts(pc))
    }

    /// Solve without a seed or progress consumer.
    pub fn solve(&self, model: &Model, opts: &SolveOptions) -> MipResult {
        self.solve_seeded_with_progress(model, opts, None, |_, _| {})
    }
}

impl Search<'_> {
    /// Bounded LP dive: fix the most-integral fractional variable to its
    /// rounded value, re-solve, and retry the cheap repair at every level.
    /// One flip is allowed per level when the dive LP goes infeasible.
    ///
    /// When warm-starting with a root `basis`, every dive level re-solves
    /// through the dual simplex from the previous level's basis (a bound
    /// pinch keeps it dual feasible), chaining bases down the dive; if a
    /// warm re-solve stalls the dive aborts rather than paying a cold
    /// two-phase LP, so `dive_cold_lps` stays zero on the warm path.
    fn dive<F>(
        &self,
        root_basis: Option<&Basis>,
        root_x: &[f64],
        driver: &SolveDriver<'_, F>,
        stats: &mut NodeStats,
    ) -> Option<(f64, Vec<f64>)> {
        const MAX_DIVE: usize = 24;
        let mut lo = self.root_lo.to_vec();
        let mut hi = self.root_hi.to_vec();
        let mut x = root_x.to_vec();
        let mut basis = if self.warm_start { root_basis.cloned() } else { None };
        for _ in 0..MAX_DIVE {
            if driver.stop_status() == Some(MipStatus::TimeLimit) {
                return None;
            }
            if let Some(found) = self.round_and_repair(&x, RoundMode::Nearest, stats) {
                return Some(found);
            }
            // Most integral fractional variable.
            let (j, frac) = fractionals(&x, INT_TOL)
                .into_iter()
                .min_by(|a, b| (a.1 - a.1.round()).abs().total_cmp(&(b.1 - b.1.round()).abs()))?;
            let v = frac >= 0.5;
            let mut fixed = false;
            for val in [if v { 1.0 } else { 0.0 }, if v { 0.0 } else { 1.0 }] {
                lo[j] = val;
                hi[j] = val;
                let lp = match &basis {
                    Some(b) => match self.dual.resolve_on(&self.form, &lo, &hi, b) {
                        Some(r) => {
                            stats.absorb(&r);
                            match r.status {
                                // Warm verdicts only; a stalled warm
                                // re-solve aborts the dive instead of
                                // falling back to a cold LP.
                                LpStatus::Optimal | LpStatus::Infeasible => r,
                                _ => return None,
                            }
                        }
                        None => return None,
                    },
                    None => {
                        stats.dive_cold_lps += 1;
                        let r = self.lp_solver.solve_on(&self.form, &lo, &hi);
                        stats.absorb(&r);
                        r
                    }
                };
                if lp.status == LpStatus::Optimal {
                    x = lp.x;
                    if basis.is_some() {
                        // Chain to the child basis; abort rather than
                        // degrade to cold if the snapshot is missing.
                        basis = Some(lp.basis?);
                    }
                    fixed = true;
                    break;
                }
                // Infeasible at this value: flip once (re-solving from the
                // same pre-pinch basis), then give up on this path.
            }
            if !fixed {
                return None;
            }
        }
        None
    }

    /// Reliability-initialized pseudo-cost branching: pick the fractional
    /// variable with the best degradation-product score, strong-branching
    /// the most fractional unreliable candidates while the strong-branch
    /// budget lasts.
    ///
    /// With a `node_basis` (the warm path), each probe re-solves the pinched
    /// child from the node's own optimal basis through the dual simplex —
    /// a handful of dual pivots instead of a bounded two-phase LP.  Only
    /// warm Optimal/Infeasible verdicts feed the pseudo-costs; a stalled
    /// probe is *skipped*, never downgraded to a cold solve, so
    /// `sb_cold_lps` is zero by construction whenever the warm path is on.
    #[allow(clippy::too_many_arguments)]
    fn select_branch_var(
        &self,
        node_basis: Option<&Basis>,
        lo: &mut [f64],
        hi: &mut [f64],
        node_obj: f64,
        fracs: &[(usize, f64)],
        pc: &mut PseudoCosts,
        sb_remaining: &mut usize,
        stats: &mut NodeStats,
    ) -> usize {
        if *sb_remaining > 0 {
            // Most fractional candidates first (closest to 0.5).
            let mut cands: Vec<(usize, f64)> = fracs.to_vec();
            cands.sort_by(|a, b| (a.1 - 0.5).abs().total_cmp(&(b.1 - 0.5).abs()));
            let big = 1e6 * (1.0 + node_obj.abs());
            let sb_simplex = SimplexSolver { max_iters: 2_000, ..self.lp_solver.clone() };
            for &(j, frac) in cands.iter().take(8) {
                if *sb_remaining == 0 {
                    break;
                }
                if pc.reliable(j, RELIABILITY) {
                    continue;
                }
                *sb_remaining -= 1;
                for up in [false, true] {
                    let (plo, phi) = (lo[j], hi[j]);
                    lo[j] = if up { 1.0 } else { 0.0 };
                    hi[j] = lo[j];
                    let denom = if up { (1.0 - frac).max(1e-6) } else { frac.max(1e-6) };
                    let per_unit = match node_basis {
                        Some(b) => match self.dual.resolve_on(&self.form, lo, hi, b) {
                            Some(r) => {
                                stats.absorb(&r);
                                match r.status {
                                    LpStatus::Infeasible => Some(big),
                                    LpStatus::Optimal => {
                                        Some((r.objective - node_obj).max(0.0) / denom)
                                    }
                                    // Stalled warm probe: record nothing.
                                    _ => None,
                                }
                            }
                            None => None,
                        },
                        None => {
                            stats.sb_cold_lps += 1;
                            let child = sb_simplex.solve_on(&self.form, lo, hi);
                            stats.absorb(&child);
                            Some(match child.status {
                                LpStatus::Infeasible => big,
                                _ => (child.objective - node_obj).max(0.0) / denom,
                            })
                        }
                    };
                    lo[j] = plo;
                    hi[j] = phi;
                    if let Some(pu) = per_unit {
                        pc.record(j, up, pu);
                    }
                }
            }
        }
        let means = pc.global_means();
        let mut best = fracs[0].0;
        let mut best_score = f64::NEG_INFINITY;
        for &(j, frac) in fracs {
            let s = pc.score(j, frac, means);
            if s > best_score {
                best_score = s;
                best = j;
            }
        }
        best
    }
}

fn best_node(frontier: &[Node]) -> Option<usize> {
    frontier
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.bound.total_cmp(&b.bound).then(a.depth.cmp(&b.depth)))
        .map(|(i, _)| i)
}

/// Fractional coordinates of `x` (index, value).
fn fractionals(x: &[f64], tol: f64) -> Vec<(usize, f64)> {
    x.iter()
        .enumerate()
        .filter(|(_, &v)| (v - v.round()).abs() > tol)
        .map(|(j, &v)| (j, v))
        .collect()
}

/// How the LP point is snapped to binaries before repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundMode {
    /// Round to the nearest binary (≥ 0.5 → 1).
    Nearest,
    /// Round every fractional down (covering rows then pull vars back in).
    Floor,
}

/// The repair heuristic over a solve's standard form — whose structural
/// columns say which rows each variable is in, what the collateral-damage
/// count walks — with the penalty that count is priced at.
struct Repair<'a> {
    form: &'a StandardForm<'a>,
    penalty: f64,
}

impl<'a> Repair<'a> {
    fn new(form: &'a StandardForm<'a>) -> Repair<'a> {
        Repair { form, penalty: Repair::penalty(form.model) }
    }

    /// What one newly broken row costs a candidate flip: above any sum of
    /// objective coefficients the flips of a row could save.
    fn penalty(model: &Model) -> f64 {
        1e6 * (1.0 + model.objective().iter().fold(0.0f64, |m, c| m.max(c.abs())))
    }

    /// LP-rounding + greedy-repair primal heuristic.
    ///
    /// Rounds `x_lp` per `mode` (clamped into the caller's root `[lo, hi]`
    /// box, so pin/ban fixings always hold), then repairs violated rows:
    /// each pass walks the violated constraints and flips the candidate
    /// variables with the least objective damage per unit of violation
    /// removed (penalizing flips that would break currently-satisfied rows),
    /// selected by [`knapsack::greedy_cover`]; fixed variables (`lo == hi`)
    /// are never flipped.  Returns a feasible `(objective, x)`, or `None`
    /// when a pass flips nothing, when the passes are proved periodic (module
    /// docs), or when the pass cap runs out.
    fn round_and_repair(
        &self,
        x_lp: &[f64],
        mode: RoundMode,
        lo: &[f64],
        hi: &[f64],
        stats: &mut NodeStats,
    ) -> Option<(f64, Vec<f64>)> {
        let model = self.form.model;
        stats.repair_calls += 1;
        let mut x = rounded(x_lp, mode, lo, hi);
        // One saved pass-boundary state, re-saved after passes 1, 2, 4, 8, …
        // (Brent): a cycle entered after μ passes with period λ is caught
        // within 3·(μ + λ) passes, at one vector compare per pass.
        let mut saved = x.clone();
        let mut save_after = 1usize;
        for pass in 1..=max_repair_passes(model) {
            let violated = model.violated(&x, INT_TOL);
            if violated.is_empty() {
                stats.repair_hits += 1;
                return Some((model.objective_value(&x), x));
            }
            stats.repair_passes += 1;
            let mut flipped_any = false;
            for cid in violated {
                flipped_any |= self.repair_row(cid, &mut x, lo, hi);
            }
            if !flipped_any || x == saved {
                return None;
            }
            if pass == save_after {
                saved.copy_from_slice(&x);
                save_after *= 2;
            }
        }
        None
    }

    /// Repair one violated row by greedy covering over candidate flips
    /// (fixed variables are not candidates).  Returns whether anything was
    /// flipped.
    fn repair_row(&self, cid: ConstrId, x: &mut [f64], lo: &[f64], hi: &[f64]) -> bool {
        let cons = self.form.model.constraint(cid);
        let lhs = cons.expr.value(x);
        // Positive amount by which the lhs must fall (`need_fall`) or rise.
        let (need_fall, amount) = match cons.sense {
            Sense::Le => (true, lhs - cons.rhs),
            Sense::Ge => (false, cons.rhs - lhs),
            Sense::Eq => {
                if lhs > cons.rhs {
                    (true, lhs - cons.rhs)
                } else {
                    (false, cons.rhs - lhs)
                }
            }
        };
        if amount <= INT_TOL {
            return false; // repaired as a side effect of an earlier row
        }
        let obj = self.form.model.objective();
        // Candidate flips: (variable, movement toward feasibility, flip cost).
        let mut moves: Vec<(usize, f64, f64)> = Vec::new();
        for &(v, c) in &cons.expr.terms {
            let j = v.0 as usize;
            if lo[j] >= hi[j] {
                continue; // pinned by the caller's fixings — not a repair move
            }
            let set = x[j] >= 0.5;
            let gain = match (need_fall, set, c > 0.0) {
                (true, true, true) => c,    // drop a positive term
                (true, false, false) => -c, // add a negative term
                (false, true, false) => -c, // drop a negative term
                (false, false, true) => c,  // add a positive term
                _ => continue,
            };
            let mut cost = if set { -obj[j] } else { obj[j] };
            cost += self.penalty * self.collateral_violations(x, j, cid) as f64;
            moves.push((j, gain, cost));
        }
        let items: Vec<(f64, f64)> = moves.iter().map(|&(_, gain, cost)| (cost, gain)).collect();
        let Some(chosen) = knapsack::greedy_cover(amount, &items) else {
            return false;
        };
        let mut flipped = false;
        for i in chosen {
            let j = moves[i].0;
            x[j] = 1.0 - x[j];
            flipped = true;
        }
        flipped
    }

    /// How many currently-satisfied rows (other than `fixing`) would
    /// flipping `j` break?
    fn collateral_violations(&self, x: &mut [f64], j: usize, fixing: ConstrId) -> usize {
        let mut broken = 0;
        let old = x[j];
        for &(ci, _) in self.form.col(j) {
            if ci == fixing.0 as usize {
                continue;
            }
            let cons = &self.form.model.constraints()[ci];
            if !cons.satisfied(x, 1e-6) {
                continue; // already violated; cannot get "newly broken"
            }
            x[j] = 1.0 - old;
            let still_ok = cons.satisfied(x, 1e-6);
            x[j] = old;
            if !still_ok {
                broken += 1;
            }
        }
        broken
    }
}

/// Hook for `crates/bench/benches/micro.rs`, not part of the interface: hands
/// `run` the rounding + repair heuristic on `model` over the free `[0, 1]`
/// box — the per-solve standard form already built — as a closure from an LP
/// point to the repaired objective.
#[doc(hidden)]
pub fn bench_repair(model: &Model, run: impl FnOnce(&mut dyn FnMut(&[f64]) -> Option<f64>)) {
    let form = StandardForm::new(model);
    let repair = Repair::new(&form);
    let n = model.n_vars();
    let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
    run(&mut |x_lp| {
        let mut stats = NodeStats::default();
        let found = repair.round_and_repair(x_lp, RoundMode::Nearest, &lo, &hi, &mut stats);
        found.map(|(objective, _)| objective)
    });
}

/// Snap an LP point to binaries per `mode`, inside the `[lo, hi]` box.
fn rounded(x_lp: &[f64], mode: RoundMode, lo: &[f64], hi: &[f64]) -> Vec<f64> {
    x_lp.iter()
        .zip(lo.iter().zip(hi))
        .map(|(&v, (&l, &h))| {
            let r: f64 = match mode {
                RoundMode::Nearest => {
                    if v >= 0.5 {
                        1.0
                    } else {
                        0.0
                    }
                }
                RoundMode::Floor => {
                    if v >= 1.0 - 1e-9 {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            r.clamp(l, h)
        })
        .collect()
}

/// The backstop of the repair loop: a run that is neither feasible, stuck
/// nor periodic by then — each pass reaching a state never seen before —
/// is cut off here.
fn max_repair_passes(model: &Model) -> usize {
    2 * model.n_constraints() + 16
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense, VarId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solves_tiny_knapsack_exactly() {
        // max 10x + 6y + 4z s.t. 5x+4y+3z ≤ 9  (as min of negatives)
        let mut m = Model::new();
        let x = m.add_var("x", -10.0);
        let y = m.add_var("y", -6.0);
        let z = m.add_var("z", -4.0);
        m.add_constraint(LinExpr::new().term(x, 5.0).term(y, 4.0).term(z, 3.0), Sense::Le, 9.0);
        let r = BranchBound::new().solve(&m, &SolveOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        let (expect, _) = m.brute_force().unwrap();
        assert!((r.objective - expect).abs() < 1e-6);
        assert!(m.feasible(&r.x, 1e-6));
        assert!(r.gap <= 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Ge, 3.0);
        let r = BranchBound::new().solve(&m, &SolveOptions::default());
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(!BranchBound::new().is_feasible(&m));
    }

    #[test]
    fn integrally_infeasible_detected() {
        // x + y = 1 and x − y = 0 has the LP solution (0.5, 0.5) only.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Eq, 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, -1.0), Sense::Eq, 0.0);
        let r = BranchBound::new().solve(&m, &SolveOptions::default());
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn matches_brute_force_on_random_bips() {
        let mut rng = SmallRng::seed_from_u64(123);
        for trial in 0..25 {
            let n = rng.gen_range(3..10);
            let mut m = Model::new();
            let vars: Vec<_> =
                (0..n).map(|j| m.add_var(format!("v{j}"), rng.gen_range(-10.0..10.0))).collect();
            for _ in 0..rng.gen_range(1..4) {
                let mut e = LinExpr::new();
                for &v in &vars {
                    if rng.gen_bool(0.7) {
                        e.add(v, rng.gen_range(-5.0..5.0));
                    }
                }
                if e.terms.is_empty() {
                    continue;
                }
                let sense = match rng.gen_range(0..3) {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                // keep Eq constraints satisfiable reasonably often
                let rhs = match sense {
                    Sense::Eq => {
                        if rng.gen_bool(0.5) {
                            0.0
                        } else {
                            e.terms[0].1
                        }
                    }
                    _ => rng.gen_range(-4.0..6.0),
                };
                m.add_constraint(e, sense, rhs);
            }
            let r = BranchBound::new().solve(&m, &SolveOptions::default());
            match m.brute_force() {
                None => assert_eq!(
                    r.status,
                    MipStatus::Infeasible,
                    "trial {trial}: solver found {:?} on infeasible model",
                    r.objective
                ),
                Some((expect, _)) => {
                    assert_ne!(r.status, MipStatus::Infeasible, "trial {trial}");
                    assert!(
                        (r.objective - expect).abs() < 1e-5,
                        "trial {trial}: got {} expected {expect}",
                        r.objective
                    );
                    assert!(m.feasible(&r.x, 1e-6));
                }
            }
        }
    }

    #[test]
    fn gap_limit_stops_early_with_valid_bound() {
        // A knapsack with many similar items → nontrivial search tree.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..16 {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(5.0..15.0));
            e.add(v, rng.gen_range(3.0..9.0));
        }
        m.add_constraint(e, Sense::Le, 30.0);
        let opts = SolveOptions { budget: SolveBudget::within(0.10), ..Default::default() };
        let r = BranchBound::new().solve(&m, &opts);
        assert!(matches!(r.status, MipStatus::GapReached | MipStatus::Optimal));
        assert!(r.gap <= 0.10 + 1e-9);
        assert!(r.bound <= r.objective + 1e-9, "bound must stay below incumbent");
        assert!(m.feasible(&r.x, 1e-6));
    }

    #[test]
    fn progress_stream_is_anytime_consistent() {
        let mut m = Model::new();
        let mut e = LinExpr::new();
        let mut rng = SmallRng::seed_from_u64(11);
        for j in 0..12 {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(1.0..20.0));
            e.add(v, rng.gen_range(1.0..10.0));
        }
        m.add_constraint(e, Sense::Le, 25.0);
        let mut events: Vec<SolveProgress> = Vec::new();
        let mut incumbent_events = 0usize;
        let r = BranchBound::new().solve_seeded_with_progress(
            &m,
            &SolveOptions::default(),
            None,
            |p, sol| {
                if let Some(x) = sol {
                    incumbent_events += 1;
                    assert!(m.feasible(x, 1e-6), "streamed incumbent must be feasible");
                    assert!((m.objective_value(x) - p.incumbent).abs() < 1e-9);
                }
                events.push(*p);
            },
        );
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(incumbent_events > 0, "at least the root heuristic must stream");
        // Incumbents improve monotonically, gaps never regress.
        let (mut prev_inc, mut prev_gap) = (f64::INFINITY, f64::INFINITY);
        for p in &events {
            assert!(p.incumbent <= prev_inc + 1e-9);
            assert!(p.gap <= prev_gap + 1e-12);
            assert!(p.incumbent >= p.bound - 1e-9);
            prev_inc = p.incumbent;
            prev_gap = p.gap;
        }
        // The recorded trace mirrors the stream.
        assert_eq!(events.len(), r.trace.len());
    }

    #[test]
    fn node_limit_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..20 {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(5.0..6.0));
            e.add(v, rng.gen_range(3.0..4.0));
        }
        m.add_constraint(e, Sense::Le, 20.0);
        let opts =
            SolveOptions { budget: SolveBudget::exact().with_nodes(5), ..Default::default() };
        let r = BranchBound::new().solve(&m, &opts);
        assert!(r.nodes <= 5, "overshot the node limit: {}", r.nodes);
    }

    #[test]
    fn root_incumbent_on_assignment_structure() {
        // A miniature Theorem-1 shape: 2 "queries" × (y-rows, x-rows, x ≤ z)
        // plus an AT-MOST row over z.  Plain rounding breaks the Eq rows;
        // the repair must still produce a root incumbent.
        let mut m = Model::new();
        let z: Vec<_> = (0..3).map(|a| m.add_var(format!("z{a}"), 1.0)).collect();
        for q in 0..2 {
            let y = m.add_var(format!("y{q}"), 5.0);
            m.add_constraint(LinExpr::new().term(y, 1.0), Sense::Eq, 1.0);
            let xh = m.add_var(format!("xh{q}"), 20.0); // heap fallback
            let mut xsum = LinExpr::new().term(xh, 1.0);
            for (a, &zv) in z.iter().enumerate() {
                let xv = m.add_var(format!("x{q}_{a}"), 2.0 + a as f64);
                m.add_constraint(LinExpr::new().term(xv, 1.0).term(zv, -1.0), Sense::Le, 0.0);
                xsum.add(xv, 1.0);
            }
            xsum.add(y, -1.0);
            m.add_constraint(xsum, Sense::Eq, 0.0);
        }
        // AT-MOST one z.
        let mut zsum = LinExpr::new();
        for &zv in &z {
            zsum.add(zv, 1.0);
        }
        m.add_constraint(zsum, Sense::Le, 1.0);

        let mut first_incumbent_ticks = None;
        let r = BranchBound::new().solve_seeded_with_progress(
            &m,
            &SolveOptions::default(),
            None,
            |p, sol| {
                if sol.is_some() && first_incumbent_ticks.is_none() {
                    first_incumbent_ticks = Some(p.ticks);
                }
            },
        );
        assert_ne!(r.status, MipStatus::Infeasible);
        assert_eq!(first_incumbent_ticks, Some(0), "incumbent must appear at the root");
        let (expect, _) = m.brute_force().unwrap();
        assert!((r.objective - expect).abs() < 1e-6);
    }

    #[test]
    fn warm_and_cold_node_lps_agree_and_warm_is_cheaper() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..16 {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(5.0..15.0));
            e.add(v, rng.gen_range(3.0..9.0));
        }
        m.add_constraint(e, Sense::Le, 30.0);
        // Disable heuristics/strong branching noise so pivot counts compare
        // the LP engines alone.
        let base =
            SolveOptions { heuristic_period: 0, strong_branch_budget: 0, ..Default::default() };
        let warm = BranchBound::new().solve(&m, &base);
        let cold = BranchBound::new().solve(&m, &SolveOptions { warm_start: false, ..base });
        assert_eq!(warm.status, MipStatus::Optimal);
        assert_eq!(cold.status, MipStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.pivots > 0 && cold.pivots > 0, "pivot accounting must be live");
        assert!(
            warm.pivots <= cold.pivots,
            "warm-started re-solves must not pivot more than cold: {} vs {}",
            warm.pivots,
            cold.pivots
        );
    }

    #[test]
    fn serial_trace_is_reproducible_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..14 {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(4.0..14.0));
            e.add(v, rng.gen_range(2.0..7.0));
        }
        m.add_constraint(e, Sense::Le, 22.0);
        let run = || {
            let mut seen: Vec<(f64, f64, f64)> = Vec::new();
            let r = BranchBound::new().solve_seeded_with_progress(
                &m,
                &SolveOptions::default(),
                None,
                |p, _| {
                    seen.push((p.incumbent, p.bound, p.gap));
                },
            );
            (r, seen)
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(ea, eb, "a serial solve must reproduce the exact event stream");
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.pivots, b.pivots);
    }

    /// A knapsack model plus the id of its single row.
    fn resolve_knapsack(seed: u64, n: usize, cap: f64) -> (Model, ConstrId) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..n {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(4.0..16.0));
            e.add(v, rng.gen_range(2.0..8.0));
        }
        let row = m.add_constraint(e, Sense::Le, cap);
        (m, row)
    }

    #[test]
    fn rhs_sweep_resolves_match_cold_solves_and_pivot_less() {
        let (m, row) = resolve_knapsack(5, 14, 30.0);
        let mut dm = DeltaModel::new(m.clone());
        let opts = SolveOptions::default();
        let mut warm_pivots = 0usize;
        let mut cold_pivots = 0usize;
        for (i, rhs) in [30.0, 24.0, 18.0, 12.0, 6.0].into_iter().enumerate() {
            dm.set_rhs(row, rhs);
            let warm = BranchBound::new().resolve(&mut dm, &opts, None, |_, _| {});
            let mut cold_model = m.clone();
            cold_model.set_rhs(row, rhs);
            let cold = BranchBound::new().solve(&cold_model, &opts);
            assert_eq!(warm.status, cold.status, "rhs {rhs}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "rhs {rhs}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!((warm.bound - cold.bound).abs() < 1e-6, "rhs {rhs}: bounds must agree");
            assert!(cold_model.feasible(&warm.x, 1e-6));
            if i > 0 {
                warm_pivots += warm.pivots;
                cold_pivots += cold.pivots;
            }
        }
        assert!(dm.basis.is_some(), "optimal resolves must leave a root basis behind");
        assert!(
            warm_pivots <= cold_pivots,
            "warm-chained re-solves must not pivot more than cold solves: {warm_pivots} vs \
             {cold_pivots}"
        );
    }

    #[test]
    fn fix_and_free_deltas_are_respected_across_resolves() {
        let (m, _) = resolve_knapsack(9, 10, 20.0);
        let mut dm = DeltaModel::new(m.clone());
        let opts = SolveOptions::default();
        let free = BranchBound::new().resolve(&mut dm, &opts, None, |_, _| {});
        assert_eq!(free.status, MipStatus::Optimal);

        // Ban the variable the free optimum relies on most (first one set).
        let banned = free.x.iter().position(|&v| v >= 0.5).expect("something selected");
        dm.fix(crate::VarId(banned as u32), Some(false));
        let r_ban = BranchBound::new().resolve(&mut dm, &opts, None, |_, _| {});
        assert_eq!(r_ban.status, MipStatus::Optimal);
        assert_eq!(r_ban.x[banned], 0.0, "banned variable must stay 0");
        assert!(r_ban.objective >= free.objective - 1e-9, "banning cannot improve the optimum");

        // Pin a variable the ban run left out, then free everything again.
        let pinned = r_ban.x.iter().position(|&v| v < 0.5).expect("something unset");
        dm.fix(crate::VarId(pinned as u32), Some(true));
        let r_pin = BranchBound::new().resolve(&mut dm, &opts, None, |_, _| {});
        if r_pin.status != MipStatus::Infeasible {
            assert_eq!(r_pin.x[pinned], 1.0, "pinned variable must stay 1");
            assert_eq!(r_pin.x[banned], 0.0, "ban still applies");
        }
        dm.fix(crate::VarId(banned as u32), None);
        dm.fix(crate::VarId(pinned as u32), None);
        let r_free = BranchBound::new().resolve(&mut dm, &opts, None, |_, _| {});
        assert!((r_free.objective - free.objective).abs() < 1e-6, "freeing restores the optimum");
    }

    #[test]
    fn round_and_repair_handles_storage_row() {
        // All-ones LP point violating a storage row: repair must drop the
        // worst value-per-size items (the knapsack cover in action).
        let mut m = Model::new();
        let mut row = LinExpr::new();
        for j in 0..6 {
            let v = m.add_var(format!("v{j}"), -(6.0 - j as f64));
            row.add(v, 2.0);
        }
        m.add_constraint(row, Sense::Le, 6.0);
        let lp_point = vec![1.0; 6];
        let (lo, hi) = (vec![0.0; 6], vec![1.0; 6]);
        let mut stats = NodeStats::default();
        let (obj, x) = Repair::new(&StandardForm::new(&m))
            .round_and_repair(&lp_point, RoundMode::Nearest, &lo, &hi, &mut stats)
            .unwrap();
        assert_eq!((stats.repair_calls, stats.repair_passes, stats.repair_hits), (1, 1, 1));
        assert!(m.feasible(&x, 1e-6));
        assert!((m.objective_value(&x) - obj).abs() < 1e-9);
        // The cheap-to-drop (least negative) items go first.
        assert_eq!(x[0], 1.0);
        assert_eq!(x[5], 0.0);
    }

    /// A knapsack-family BIP with a fractional root and enough symmetry to
    /// force real branching (shared by the instrumentation tests below).
    pub(crate) fn branchy_model(seed: u64, n: usize) -> Model {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..n {
            let v = m.add_var(format!("v{j}"), -rng.gen_range(5.0..6.0));
            e.add(v, rng.gen_range(3.0..4.0));
        }
        m.add_constraint(e, Sense::Le, 2.0 * n as f64);
        m
    }

    #[test]
    fn warm_strong_branching_and_dives_pay_no_cold_lps() {
        let m = branchy_model(42, 18);
        let warm = SolveOptions { strong_branch_budget: 24, ..Default::default() };
        let rw = BranchBound::new().solve(&m, &warm);
        assert_eq!(rw.status, MipStatus::Optimal);
        assert_eq!(
            rw.sb_cold_lps, 0,
            "warm strong branching must probe through the dual simplex only"
        );
        assert_eq!(rw.dive_cold_lps, 0, "warm dives must chain bases, never cold-solve");
        assert!(rw.refactorizations > 0, "sparse LU path must have factorized at least once");
        assert_eq!(
            rw.factor_recoveries, 0,
            "a numerically clean solve must not report singular-basis recoveries"
        );

        // With warm starts off, the same probes fall back to bounded
        // two-phase LPs — and the counter proves the warm path above
        // actually avoided them rather than never probing.
        let cold =
            SolveOptions { warm_start: false, strong_branch_budget: 24, ..Default::default() };
        let rc = BranchBound::new().solve(&m, &cold);
        assert_eq!(rc.status, MipStatus::Optimal);
        assert!((rw.objective - rc.objective).abs() < 1e-6);
        assert!(rc.sb_cold_lps > 0, "cold path should have paid strong-branching LPs");
    }

    #[test]
    fn objective_sweep_resolves_match_cold_solves() {
        // A λ sweep over two objective vectors (the soft-constraint chord
        // walk): each warm resolve restarts the primal from the last basis
        // and must land exactly where a cold solve of the reweighted model
        // lands.
        let m = branchy_model(5, 14);
        let base: Vec<f64> = m.objective().to_vec();
        let bb = BranchBound::new();
        let opts = SolveOptions::default();
        let mut dm = DeltaModel::new(m.clone());
        let first = bb.resolve(&mut dm, &opts, None, |_, _| {});
        assert_eq!(first.status, MipStatus::Optimal);
        for lam in [0.8, 0.5, 0.2] {
            let coeffs: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(j, c)| lam * c + (1.0 - lam) * -(((j % 3) as f64) + 0.5))
                .collect();
            dm.set_objective(&coeffs);
            let warm = bb.resolve(&mut dm, &opts, None, |_, _| {});
            let mut cold_model = m.clone();
            cold_model.set_objective_coeffs(&coeffs);
            let cold = bb.solve(&cold_model, &opts);
            assert_eq!(warm.status, cold.status, "λ={lam}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "λ={lam}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
        assert!(dm.basis.is_some());
    }

    // -- the repair heuristic against the loop it replaces ------------------

    /// The pass loop as it was before the periodicity cut: it ends on a
    /// feasible point, on a pass that flips nothing, or at the pass cap.
    fn repair_without_the_cut(
        r: &Repair<'_>,
        x_lp: &[f64],
        mode: RoundMode,
        lo: &[f64],
        hi: &[f64],
    ) -> Option<(f64, Vec<f64>)> {
        let mut x = rounded(x_lp, mode, lo, hi);
        for _ in 0..max_repair_passes(r.form.model) {
            let violated = r.form.model.violated(&x, INT_TOL);
            if violated.is_empty() {
                return Some((r.form.model.objective_value(&x), x));
            }
            let mut flipped_any = false;
            for cid in violated {
                flipped_any |= r.repair_row(cid, &mut x, lo, hi);
            }
            if !flipped_any {
                return None;
            }
        }
        None
    }

    /// `(entry, period)` of the pass map from the rounded start, by keeping
    /// every state; `None` when the run ends (feasible or stuck) first.
    fn cycle_of(r: &Repair<'_>, x_lp: &[f64], lo: &[f64], hi: &[f64]) -> Option<(usize, usize)> {
        let mut x = rounded(x_lp, RoundMode::Nearest, lo, hi);
        let mut seen: Vec<Vec<f64>> = vec![x.clone()];
        loop {
            let violated = r.form.model.violated(&x, INT_TOL);
            let mut flipped_any = false;
            for cid in violated {
                flipped_any |= r.repair_row(cid, &mut x, lo, hi);
            }
            if !flipped_any {
                return None;
            }
            if let Some(entry) = seen.iter().position(|s| *s == x) {
                return Some((entry, seen.len() - entry));
            }
            seen.push(x.clone());
        }
    }

    /// Rows that fall like dominoes, one per pass: `x₀ = 1`, then
    /// `x_i ≥ x_{i−1}` for `i = 1..=k`.  From all-zeros the repair sets one
    /// more variable per pass (a row joins the violated list only on the
    /// pass after its predecessor's repair broke it) and ends feasible
    /// after `k + 1` passes.  Appended to `m` on fresh variables.
    fn add_domino_chain(m: &mut Model, k: usize) {
        let x: Vec<_> = (0..=k).map(|i| m.add_var(format!("d{i}"), -1.0)).collect();
        m.add_constraint(LinExpr::new().term(x[0], 1.0), Sense::Eq, 1.0);
        for i in 1..=k {
            m.add_constraint(LinExpr::new().term(x[i], 1.0).term(x[i - 1], -1.0), Sense::Ge, 0.0);
        }
    }

    /// `a + b = 1` against `a − b = 0`: from `(0, 0)` the first row sets
    /// `a`, which breaks the second, whose cheapest repair clears `a` again.
    fn add_period_two(m: &mut Model) {
        let a = m.add_var("a", 1.0);
        let b = m.add_var("b", 1.0);
        m.add_constraint(LinExpr::new().term(a, 1.0).term(b, 1.0), Sense::Eq, 1.0);
        m.add_constraint(LinExpr::new().term(a, 1.0).term(b, -1.0), Sense::Eq, 0.0);
    }

    /// `2a + b = 2` against `−2b = −1` (no binary `b` satisfies it): from
    /// `(1, 1)` the passes visit `(0, 0)`, `(1, 0)` and `(1, 1)` again.
    fn add_period_three(m: &mut Model) -> [VarId; 2] {
        let a = m.add_var("a", 3.0);
        let b = m.add_var("b", -1.0);
        m.add_constraint(LinExpr::new().term(a, 2.0).term(b, 1.0), Sense::Eq, 2.0);
        m.add_constraint(LinExpr::new().term(b, -2.0), Sense::Eq, -1.0);
        [a, b]
    }

    /// Run the shipped heuristic from `start` over the free box and return
    /// its answer with the passes it took.
    fn repair_from(m: &Model, start: &[f64]) -> (Option<(f64, Vec<f64>)>, usize) {
        let (lo, hi) = (vec![0.0; start.len()], vec![1.0; start.len()]);
        let mut stats = NodeStats::default();
        let found = Repair::new(&StandardForm::new(m)).round_and_repair(
            start,
            RoundMode::Nearest,
            &lo,
            &hi,
            &mut stats,
        );
        assert_eq!(stats.repair_calls, 1);
        assert_eq!(stats.repair_hits, usize::from(found.is_some()));
        (found, stats.repair_passes)
    }

    #[test]
    fn periodic_repairs_end_at_the_repeat_not_at_the_pass_cap() {
        // (model, start, entry, period) — the last one enters its cycle only
        // after the dominoes have fallen, past the saves at passes 1 to 8.
        let mut two = Model::new();
        add_period_two(&mut two);
        let mut three = Model::new();
        add_period_three(&mut three);
        let mut late = Model::new();
        add_domino_chain(&mut late, 10);
        add_period_two(&mut late);
        let mut late_three = Model::new();
        let [a, b] = add_period_three(&mut late_three);
        add_domino_chain(&mut late_three, 12);
        let mut late_three_start = vec![0.0; late_three.n_vars()];
        late_three_start[a.0 as usize] = 1.0;
        late_three_start[b.0 as usize] = 1.0;
        let cases = [
            (&two, vec![0.0; 2], 0, 2),
            (&three, vec![1.0, 1.0], 0, 3),
            (&late, vec![0.0; late.n_vars()], 11, 2),
            (&late_three, late_three_start, 13, 3),
        ];
        for (m, start, entry, period) in cases {
            let (lo, hi) = (vec![0.0; start.len()], vec![1.0; start.len()]);
            let form = StandardForm::new(m);
            let r = Repair::new(&form);
            assert_eq!(cycle_of(&r, &start, &lo, &hi), Some((entry, period)));
            let (found, passes) = repair_from(m, &start);
            assert!(found.is_none(), "a periodic repair cannot succeed");
            assert!(
                passes <= 3 * (entry + period),
                "entry {entry}, period {period}: {passes} passes"
            );
            assert!(passes < max_repair_passes(m), "the cap is the backstop, not the exit");
            assert!(repair_without_the_cut(&r, &start, RoundMode::Nearest, &lo, &hi).is_none());
        }
    }

    #[test]
    fn a_repair_that_needs_many_passes_still_succeeds() {
        let mut m = Model::new();
        add_domino_chain(&mut m, 9);
        let (found, passes) = repair_from(&m, &vec![0.0; m.n_vars()]);
        let (obj, x) = found.expect("ten passes, each on a state never seen before");
        assert_eq!(passes, 10);
        assert_eq!(x, vec![1.0; m.n_vars()]);
        assert_eq!(obj, -10.0);
    }

    /// A Theorem-1-shaped BIP: `z` per index under a storage row and an
    /// AT-MOST row, and per query an assignment row over its plans, each
    /// plan needing one `x ≤ z` access per slot (or the heap fallback).
    pub(crate) fn theorem1_model(rng: &mut SmallRng) -> Model {
        let mut m = Model::new();
        let n_idx = rng.gen_range(3..8);
        let z: Vec<_> =
            (0..n_idx).map(|a| m.add_var(format!("z{a}"), rng.gen_range(0.0..2.0))).collect();
        let mut storage = LinExpr::new();
        let mut count = LinExpr::new();
        for &zv in &z {
            storage.add(zv, rng.gen_range(1.0..10.0));
            count.add(zv, 1.0);
        }
        m.add_constraint(storage, Sense::Le, rng.gen_range(2.0..12.0));
        m.add_constraint(count, Sense::Le, f64::from(rng.gen_range(1..3)));
        for q in 0..rng.gen_range(2..6) {
            let mut assign = LinExpr::new();
            for k in 0..rng.gen_range(1..4) {
                let y = m.add_var(format!("y{q}_{k}"), rng.gen_range(1.0..10.0));
                assign.add(y, 1.0);
                for slot in 0..rng.gen_range(1..3) {
                    let heap = m.add_var(format!("h{q}_{k}_{slot}"), rng.gen_range(20.0..60.0));
                    let mut link = LinExpr::new().term(heap, 1.0).term(y, -1.0);
                    for &zv in &z {
                        if rng.gen_bool(0.4) {
                            let x = m.add_var("x", rng.gen_range(1.0..20.0));
                            m.add_constraint(
                                LinExpr::new().term(x, 1.0).term(zv, -1.0),
                                Sense::Le,
                                0.0,
                            );
                            link.add(x, 1.0);
                        }
                    }
                    m.add_constraint(link, Sense::Eq, 0.0);
                }
            }
            m.add_constraint(assign, Sense::Eq, 1.0);
        }
        m
    }

    #[test]
    fn repair_walks_the_rows_the_nested_column_index_listed() {
        let mut rng = SmallRng::seed_from_u64(0xC5C);
        for _ in 0..50 {
            let m = theorem1_model(&mut rng);
            // The per-call index `round_and_repair` used to build.
            let mut cols: Vec<Vec<u32>> = vec![Vec::new(); m.n_vars()];
            for (ci, c) in m.constraints().iter().enumerate() {
                for &(v, _) in &c.expr.terms {
                    cols[v.0 as usize].push(ci as u32);
                }
            }
            let form = StandardForm::new(&m);
            let r = Repair::new(&form);
            for (j, rows) in cols.iter().enumerate() {
                let walked: Vec<u32> = form.col(j).iter().map(|&(ci, _)| ci as u32).collect();
                assert_eq!(&walked, rows);
            }
            let cmax = m.objective().iter().fold(0.0f64, |m, c| m.max(c.abs()));
            assert_eq!(r.penalty.to_bits(), (1e6 * (1.0 + cmax)).to_bits());
        }
    }

    #[test]
    fn cut_and_uncut_repairs_agree_on_random_models() {
        let mut rng = SmallRng::seed_from_u64(0xB0B);
        let (mut hits, mut misses, mut cut_short) = (0, 0, 0);
        for case in 0..600 {
            let mut m = if case % 3 == 0 {
                branchy_model(case as u64, rng.gen_range(4..30))
            } else {
                theorem1_model(&mut rng)
            };
            // Every fifth model carries rows no point satisfies, so its
            // repair cycles once the satisfiable part has settled.
            match case % 10 {
                1 => add_period_two(&mut m),
                6 => _ = add_period_three(&mut m),
                _ => {}
            }
            let n = m.n_vars();
            // Fractional start points with most coordinates integral, like
            // an LP vertex; `case % 4 == 0` pins a few variables.
            let start: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0..1.0),
                })
                .collect();
            let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
            if case % 4 == 0 {
                for _ in 0..rng.gen_range(1..4) {
                    let j = rng.gen_range(0..n);
                    lo[j] = f64::from(rng.gen_range(0..2));
                    hi[j] = lo[j];
                }
            }
            let form = StandardForm::new(&m);
            let r = Repair::new(&form);
            for mode in [RoundMode::Nearest, RoundMode::Floor] {
                let mut stats = NodeStats::default();
                let cut = r.round_and_repair(&start, mode, &lo, &hi, &mut stats);
                let uncut = repair_without_the_cut(&r, &start, mode, &lo, &hi);
                let bits = |found: &Option<(f64, Vec<f64>)>| {
                    found.as_ref().map(|(obj, x)| (obj.to_bits(), x.clone()))
                };
                assert_eq!(bits(&cut), bits(&uncut), "case {case}, {mode:?}");
                match cut {
                    Some((_, x)) => {
                        assert!(m.feasible(&x, INT_TOL));
                        assert!(x
                            .iter()
                            .zip(lo.iter().zip(&hi))
                            .all(|(v, (l, h))| l <= v && v <= h));
                        hits += 1;
                    }
                    None => misses += 1,
                }
                if mode == RoundMode::Nearest && cycle_of(&r, &start, &lo, &hi).is_some() {
                    assert!(stats.repair_passes < max_repair_passes(&m));
                    cut_short += 1;
                }
            }
        }
        assert!(
            hits > 500 && misses > 200 && cut_short > 100,
            "{hits} hits, {misses} misses, {cut_short} cycles cut"
        );
    }
}
