//! The shared anytime solve engine.
//!
//! Both BIP backends — the simplex-based [`BranchBound`](crate::BranchBound)
//! and the [`LagrangianSolver`](crate::LagrangianSolver) — used to hand-roll
//! their own `Instant` arithmetic, gap bookkeeping and trace vectors.  The
//! [`SolveDriver`] centralizes that contract so every solver offers the same
//! observables through one type:
//!
//! * **deadline / limits** — one [`SolveBudget`] carries the relative-gap
//!   target, the wall-clock limit and the node/iteration limit; the driver
//!   turns them into a single [`SolveDriver::stop_status`] decision;
//! * **incumbent stream** — feasible solutions are *offered*; improvements
//!   are kept, recorded in the trace and pushed through the progress
//!   callback (the paper's "continuous feedback", Figure 6a);
//! * **bound stream** — dual/relaxation bounds are raised monotonically;
//! * **gap tracking** — the reported gap is the best gap *proven so far*
//!   (incumbents only improve and bounds only rise, so an earlier proof
//!   stays valid), which makes every anytime gap series monotonically
//!   non-increasing by construction;
//! * **accounting** — `ticks` counts B&B nodes or subgradient iterations,
//!   so budget semantics are uniform across backends.
//!
//! The driver is generic over the solution payload `S` (`Vec<f64>` for the
//! generic BIP, `Vec<bool>` selections for the block-angular form), so future
//! backends plug in without re-deriving the anytime contract.

use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle for an in-flight solve.
///
/// Cloning shares the flag; any holder may [`cancel`](CancelToken::cancel),
/// and the solve observes it at its next `SolveDriver::stop_status` check
/// (between B&B nodes / subgradient iterations — latency is bounded by one
/// node LP).  Cancellation is wired through the budget's deadline semantics:
/// a fired token behaves exactly like a `time_limit` brought forward to
/// *now*, so the solve ends with [`MipStatus::TimeLimit`] and whatever
/// incumbent/bound it had — the anytime contract holds.  This is how the
/// `cophy-server` daemon aborts solves whose client disconnected.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// Termination reason of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Proven optimal (gap 0 within tolerance).
    Optimal,
    /// Stopped because the relative gap reached the budget's `gap_limit`.
    GapReached,
    /// Stopped on the time limit.
    TimeLimit,
    /// Stopped on the node/iteration limit (or, in B&B, because stalled
    /// node relaxations forced subtrees to be abandoned — optimality can
    /// then no longer be proven by exhaustion).
    NodeLimit,
    /// The relaxation (and hence the BIP) is infeasible.
    Infeasible,
}

/// Relative optimality gap, safe for zero incumbents.
pub(crate) fn relative_gap(incumbent: f64, bound: f64) -> f64 {
    if !incumbent.is_finite() {
        return f64::INFINITY;
    }
    let denom = incumbent.abs().max(1e-12);
    ((incumbent - bound) / denom).max(0.0)
}

/// The resource budget of one solve, shared by every backend.
///
/// `node_limit` counts branch-and-bound nodes on the generic backend and
/// subgradient iterations on the Lagrangian backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveBudget {
    /// Stop when the proven relative gap falls to this value.
    pub gap_limit: f64,
    pub time_limit: Option<Duration>,
    /// B&B node limit / Lagrangian iteration limit.
    pub node_limit: Option<usize>,
    /// Ignored: every backend solves on the caller's thread.  The field
    /// stays only so existing struct literals keep compiling.
    pub parallelism: usize,
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget { gap_limit: 1e-9, time_limit: None, node_limit: None, parallelism: 1 }
    }
}

impl SolveBudget {
    /// Prove optimality (no limits).
    pub fn exact() -> Self {
        SolveBudget::default()
    }

    /// Terminate at the given relative gap.
    pub fn within(gap_limit: f64) -> Self {
        SolveBudget { gap_limit, ..Default::default() }
    }

    /// Builder: wall-clock limit.
    pub fn with_time(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Builder: node/iteration limit.
    pub fn with_nodes(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }
}

/// Progress of a block-decomposed solve: how far the per-block subproblem
/// sweep and the coordinating multiplier loop have come.  Reported by the
/// Lagrangian backend (`None` on backends without a decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionProgress {
    /// Cumulative block subproblems solved across all outer iterations.
    pub blocks_done: usize,
    /// Width of the decomposition: blocks per outer iteration.
    pub blocks_total: usize,
    /// Outer (subgradient multiplier) iterations completed.
    pub outer_iter: usize,
}

/// One progress event of an anytime solve — the unified observable both
/// backends report and every consumer (advisor facade, tuning session,
/// bench harness) receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveProgress {
    /// Wall-clock time since the solve started.
    pub at: Duration,
    /// Best feasible objective so far (`∞` while none is known).
    pub incumbent: f64,
    /// Best proven lower bound so far (`−∞` while none is known).
    pub bound: f64,
    /// Best *proven* relative gap so far (monotone non-increasing).
    pub gap: f64,
    /// Nodes (B&B) or iterations (Lagrangian) completed.
    pub ticks: usize,
    /// Cumulative simplex pivots across node LPs (0 for backends that do
    /// not run the simplex).  `pivots / ticks` is the per-node pivot count
    /// the warm-started dual re-solve drives down.
    pub pivots: usize,
    /// Block-decomposition progress (`None` on non-decomposed backends or
    /// before the first outer iteration).
    pub decomposition: Option<DecompositionProgress>,
}

/// Callback invoked on every incumbent or bound improvement.  The second
/// argument carries the improving solution when the event is an incumbent
/// improvement (`None` for pure bound moves).
pub(crate) type ProgressFn<'cb, S> = dyn FnMut(&SolveProgress, Option<&S>) + 'cb;

/// Everything a backend hands back when its search loop ends.
#[derive(Debug, Clone)]
pub(crate) struct DriverResult<S> {
    /// Best `(objective, solution)` found, if any.
    pub incumbent: Option<(f64, S)>,
    pub bound: f64,
    /// Best proven relative gap.
    pub gap: f64,
    pub ticks: usize,
    /// Cumulative simplex pivots reported via `SolveDriver::add_pivots`.
    pub pivots: usize,
    /// Every progress event streamed, in order.
    pub trace: Vec<SolveProgress>,
}

/// The shared engine state: deadline, incumbent, bound, gap, trace.
pub(crate) struct SolveDriver<'cb, S> {
    budget: SolveBudget,
    started: Instant,
    incumbent: Option<(f64, S)>,
    bound: f64,
    best_gap: f64,
    ticks: usize,
    pivots: usize,
    decomposition: Option<DecompositionProgress>,
    trace: Vec<SolveProgress>,
    cancel: Option<CancelToken>,
    on_progress: Box<ProgressFn<'cb, S>>,
}

impl<'cb, S> SolveDriver<'cb, S> {
    /// Driver streaming every improvement to `on_progress`.
    pub(crate) fn with_progress(
        budget: SolveBudget,
        on_progress: impl FnMut(&SolveProgress, Option<&S>) + 'cb,
    ) -> Self {
        SolveDriver {
            budget,
            started: Instant::now(),
            incumbent: None,
            bound: f64::NEG_INFINITY,
            best_gap: f64::INFINITY,
            ticks: 0,
            pivots: 0,
            decomposition: None,
            trace: Vec::new(),
            cancel: None,
            on_progress: Box::new(on_progress),
        }
    }

    /// Arm cooperative cancellation: once `token` fires, `stop_status`
    /// reports [`MipStatus::TimeLimit`] (the deadline brought forward).
    pub(crate) fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    pub(crate) fn ticks(&self) -> usize {
        self.ticks
    }

    pub(crate) fn has_incumbent(&self) -> bool {
        self.incumbent.is_some()
    }

    /// Objective of the best incumbent (`∞` if none).
    pub(crate) fn incumbent_objective(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(obj, _)| *obj)
    }

    /// Best `(objective, solution)` so far.
    pub(crate) fn incumbent(&self) -> Option<&(f64, S)> {
        self.incumbent.as_ref()
    }

    /// Count one unit of search work (a node or an iteration).
    pub(crate) fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Account simplex pivots spent on node LPs (warm or cold).
    pub(crate) fn add_pivots(&mut self, n: usize) {
        self.pivots += n;
    }

    /// Record the current decomposition state; every subsequent progress
    /// event carries it (decomposed backends update this once per outer
    /// iteration, before offering incumbents or raising bounds).
    pub(crate) fn set_decomposition(&mut self, d: DecompositionProgress) {
        self.decomposition = Some(d);
    }

    fn snapshot(&self) -> SolveProgress {
        SolveProgress {
            at: self.started.elapsed(),
            incumbent: self.incumbent_objective(),
            bound: self.bound,
            gap: self.best_gap,
            ticks: self.ticks,
            pivots: self.pivots,
            decomposition: self.decomposition,
        }
    }

    fn refresh_gap(&mut self) {
        let g = relative_gap(self.incumbent_objective(), self.bound);
        if g < self.best_gap {
            self.best_gap = g;
        }
    }

    /// Offer a feasible solution; keep it (and emit progress) if it improves
    /// the incumbent.  Returns whether it was accepted.
    pub(crate) fn offer_incumbent(&mut self, objective: f64, solution: S) -> bool {
        if objective >= self.incumbent_objective() - 1e-9 {
            return false;
        }
        self.incumbent = Some((objective, solution));
        self.refresh_gap();
        let p = self.snapshot();
        self.trace.push(p);
        let sol = self.incumbent.as_ref().map(|(_, s)| s);
        (self.on_progress)(&p, sol);
        true
    }

    /// Raise the global lower bound (monotone).  Emits progress when the
    /// proven gap improves meaningfully.  Returns whether the bound moved.
    ///
    /// The bound is capped at the incumbent objective: a relaxation bound
    /// above the best feasible point just proves that incumbent optimal, and
    /// the true global bound `min(open-node bounds, incumbent)` never
    /// exceeds it.
    pub(crate) fn raise_bound(&mut self, bound: f64) -> bool {
        let bound = bound.min(self.incumbent_objective());
        // NaN-safe: only a strict, finite improvement moves the bound.
        if bound <= self.bound + 1e-12 || bound.is_nan() {
            return false;
        }
        self.bound = bound;
        let before = self.best_gap;
        self.refresh_gap();
        // Trace resolution: record bound moves only when they change the
        // proven gap visibly, so B&B's per-node bound creep does not flood
        // the trace.
        let visible = self.best_gap.is_finite()
            && (!before.is_finite()
                || before - self.best_gap > 1e-4
                || (self.best_gap <= self.budget.gap_limit && before > self.budget.gap_limit));
        if visible {
            let p = self.snapshot();
            self.trace.push(p);
            (self.on_progress)(&p, None);
        }
        true
    }

    /// Has the proven gap reached the budget's target?
    pub(crate) fn gap_reached(&self) -> bool {
        self.best_gap <= self.budget.gap_limit
    }

    /// The stop decision: gap target, wall clock, then node budget.
    /// `None` means keep searching.
    pub(crate) fn stop_status(&self) -> Option<MipStatus> {
        if self.has_incumbent() && self.gap_reached() {
            return Some(if self.best_gap <= 1e-9 {
                MipStatus::Optimal
            } else {
                MipStatus::GapReached
            });
        }
        if let Some(tl) = self.budget.time_limit {
            if self.started.elapsed() >= tl {
                return Some(MipStatus::TimeLimit);
            }
        }
        // A fired cancel token is the time limit brought forward to now.
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(MipStatus::TimeLimit);
        }
        if let Some(nl) = self.budget.node_limit {
            if self.ticks >= nl {
                return Some(MipStatus::NodeLimit);
            }
        }
        None
    }

    /// Close the gap after an exhausted search: with no open work left, the
    /// incumbent is optimal, so the bound snaps to it.
    pub(crate) fn close_exhausted(&mut self) {
        if let Some((obj, _)) = &self.incumbent {
            let obj = *obj;
            if obj > self.bound {
                self.raise_bound(obj);
            }
            self.best_gap = 0.0;
        }
    }

    /// Tear down into the final result, recording a terminal trace point.
    pub(crate) fn finish(mut self) -> DriverResult<S> {
        if self.has_incumbent() {
            let p = self.snapshot();
            let last = self.trace.last();
            if last.is_none_or(|lp| {
                lp.incumbent != p.incumbent || lp.bound != p.bound || lp.gap != p.gap
            }) {
                self.trace.push(p);
                (self.on_progress)(&p, self.incumbent.as_ref().map(|(_, s)| s));
            }
        }
        DriverResult {
            incumbent: self.incumbent,
            bound: self.bound,
            gap: self.best_gap,
            ticks: self.ticks,
            pivots: self.pivots,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_keep_only_improvements() {
        let mut d: SolveDriver<'_, Vec<f64>> =
            SolveDriver::with_progress(SolveBudget::exact(), |_, _| {});
        assert!(d.offer_incumbent(10.0, vec![1.0]));
        assert!(!d.offer_incumbent(10.0, vec![0.0]), "equal objective is not an improvement");
        assert!(!d.offer_incumbent(12.0, vec![0.0]));
        assert!(d.offer_incumbent(8.0, vec![0.5]));
        assert_eq!(d.incumbent_objective(), 8.0);
        assert_eq!(d.incumbent().unwrap().1, vec![0.5]);
    }

    #[test]
    fn bound_is_monotone_and_gap_non_increasing() {
        let mut events: Vec<SolveProgress> = Vec::new();
        {
            let mut d: SolveDriver<'_, ()> =
                SolveDriver::with_progress(SolveBudget::exact(), |p, _| events.push(*p));
            d.offer_incumbent(10.0, ());
            d.raise_bound(5.0);
            assert!(!d.raise_bound(4.0), "bound must not regress");
            assert_eq!(d.bound, 5.0);
            d.raise_bound(9.0);
            d.offer_incumbent(9.2, ());
            let _ = d.finish();
        }
        let mut prev = f64::INFINITY;
        for e in &events {
            assert!(e.gap <= prev + 1e-12, "gap series must be non-increasing: {events:?}");
            prev = e.gap;
        }
    }

    #[test]
    fn reported_gap_survives_denominator_shrink() {
        // inc 10 → 6 with bound −2: the raw relative gap would *rise*
        // (1.2 → 1.33); the proven gap must not.
        let mut d: SolveDriver<'_, ()> =
            SolveDriver::with_progress(SolveBudget::exact(), |_, _| {});
        d.offer_incumbent(10.0, ());
        d.raise_bound(-2.0);
        let g1 = d.best_gap;
        d.offer_incumbent(6.0, ());
        assert!(d.best_gap <= g1 + 1e-12);
    }

    #[test]
    fn stop_decision_order() {
        let mut d: SolveDriver<'_, ()> =
            SolveDriver::with_progress(SolveBudget::within(0.5).with_nodes(3), |_, _| {});
        assert_eq!(d.stop_status(), None);
        d.tick();
        d.tick();
        d.tick();
        assert_eq!(d.stop_status(), Some(MipStatus::NodeLimit));
        // Gap satisfaction dominates the node limit.
        d.offer_incumbent(10.0, ());
        d.raise_bound(8.0);
        assert_eq!(d.stop_status(), Some(MipStatus::GapReached));
        d.raise_bound(10.0);
        assert_eq!(d.stop_status(), Some(MipStatus::Optimal));
    }

    #[test]
    fn time_limit_observed() {
        let d: SolveDriver<'_, ()> =
            SolveDriver::with_progress(SolveBudget::exact().with_time(Duration::ZERO), |_, _| {});
        assert_eq!(d.stop_status(), Some(MipStatus::TimeLimit));
    }

    #[test]
    fn exhausted_search_closes_gap() {
        let mut d: SolveDriver<'_, ()> =
            SolveDriver::with_progress(SolveBudget::exact(), |_, _| {});
        d.offer_incumbent(7.0, ());
        d.raise_bound(5.0);
        d.close_exhausted();
        assert_eq!(d.best_gap, 0.0);
        assert_eq!(d.bound, 7.0);
        let r = d.finish();
        assert_eq!(r.gap, 0.0);
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn cancel_token_acts_as_deadline() {
        let mut d: SolveDriver<'_, ()> =
            SolveDriver::with_progress(SolveBudget::exact(), |_, _| {});
        let token = CancelToken::new();
        d.set_cancel(Some(token.clone()));
        assert_eq!(d.stop_status(), None);
        token.cancel();
        assert_eq!(d.stop_status(), Some(MipStatus::TimeLimit));
        // Gap satisfaction still dominates: a finished solve reports its
        // real status even if the client gave up at the same moment.
        d.offer_incumbent(10.0, ());
        d.raise_bound(10.0);
        assert_eq!(d.stop_status(), Some(MipStatus::Optimal));
        // Clones share the flag.
        let t2 = CancelToken::new();
        assert!(!t2.is_cancelled());
        t2.clone().cancel();
        assert!(t2.is_cancelled());
    }

    #[test]
    fn relative_gap_basics() {
        assert_eq!(relative_gap(f64::INFINITY, 0.0), f64::INFINITY);
        assert!(relative_gap(10.0, 10.0).abs() < 1e-12);
        assert!((relative_gap(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(relative_gap(10.0, 12.0), 0.0, "bound above incumbent clamps to 0");
    }
}
