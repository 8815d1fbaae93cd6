//! The CoPhy Solver (paper Figure 3) and the advisor facade.
//!
//! `Solver(B, C_hard)`:
//!
//! 1. **feasibility check** — an LP over the `z` variables and the
//!    constraint rows; on failure the offending constraints are reported so
//!    the DBA can drop or soften them;
//! 2. **`relax(B)`, then an exact finish** — one chain (`chain.rs`): the
//!    Lagrangian relaxation over the block form answers storage-only tunes
//!    (the common, large case) and session `recommend`s; rich sets relax
//!    their storage-only projection into a seed for branch-and-bound, which
//!    also re-solves session sweeps and the Chord explorer warm;
//! 3. **solve** — anytime incumbents with a global bound; terminate at the
//!    configured optimality gap (the paper runs at 5%).
//!
//! Both backends run inside `cophy-bip`'s shared anytime engine: the
//! advisor passes one [`SolveBudget`] (gap / wall-clock / node limits) to
//! whichever backend is selected and surfaces the unified [`SolveProgress`]
//! stream through [`CoPhy::try_tune_prepared`].
//!
//! Every `try_tune*` door is the same two steps: drain the workload through
//! the chunked `crate::ingest` (clustering, INUM probes under
//! [`CoPhyOptions::retry`], CGen, the [`CoPhyOptions::min_coverage`] floor),
//! then [`CoPhy::try_tune_prepared`].  A materialized [`Workload`] is a
//! source like any other ([`CoPhy::try_tune`] *is* [`CoPhy::try_tune_source`]
//! over `w.source()`), so the same statements get the same answer through
//! either door under every compression policy.

use std::time::Duration;

use cophy_bip::{BranchBound, Model, SolveBudget, SolveProgress};
use cophy_catalog::Configuration;
use cophy_compress::{CompressionPolicy, CompressionSummary};
use cophy_inum::{PrepFaultReport, PreparedWorkload};
use cophy_optimizer::{RetryPolicy, WhatIfBackend};
use cophy_workload::{Workload, WorkloadSource, DEFAULT_CHUNK};

use crate::bipgen::BipGen;
use crate::cgen::{CGen, CandidateSet};
use crate::chain::{Held, ReadPrepared, Solved};
use crate::constraints::{add_z_row, Constraint, ConstraintSet};
use crate::error::CoPhyError;
use crate::ingest::Ingest;
use crate::session::TuningSession;

/// Which engine solves the BIP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Lagrangian for storage-only constraint sets, B&B otherwise.
    Auto,
    /// Force the Lagrangian decomposition (storage-only sets).
    Lagrangian,
    /// Force the generic simplex-based branch-and-bound.
    BranchBound,
}

/// Advisor options.
#[derive(Debug, Clone)]
pub struct CoPhyOptions {
    /// The solve budget handed to whichever backend runs: relative gap
    /// (paper default 5%), wall-clock limit (default **60 s**, overridable
    /// to `None` for unbounded solves) and node/iteration limit.  Both
    /// backends solve serially on the caller's thread, so a solve is
    /// deterministic; `parallelism` is ignored.
    pub budget: SolveBudget,
    pub backend: SolverBackend,
    pub cgen: CGen,
    pub bipgen: BipGen,
    /// Workload compression before INUM preparation: `Off` (default —
    /// bit-for-bit today's pipeline), `Lossless` (exact-duplicate merging),
    /// or `Epsilon(ε)` (bounded-loss clustering; see
    /// [`CompressionPolicy::default_epsilon`]).  Under compression, INUM
    /// prepares only cluster representatives and the reported costs expand
    /// back to the full workload through the conserved cluster weights.
    pub compression: CompressionPolicy,
    /// Retry policy of every INUM probe, behind every door (batch and
    /// streamed tunes, sessions, their later deltas): transient backend
    /// failures are retried with capped exponential backoff, and a probe
    /// that exhausts its retries *degrades* the statement (skipped template
    /// / substituted cost) instead of aborting.  The default
    /// [`RetryPolicy::none`] performs no retries.
    pub retry: RetryPolicy,
    /// The degradation hard floor: when the weighted fraction of the
    /// workload prepared *fully* drops below this, ingestion fails with
    /// [`CoPhyError::Coverage`] instead of returning a silently unreliable
    /// recommendation — checked as each chunk commits, the violating chunk
    /// rolled back.  `0.0` never fails; `1.0` tolerates no degradation.
    pub min_coverage: f64,
}

impl Default for CoPhyOptions {
    fn default() -> Self {
        CoPhyOptions {
            budget: SolveBudget::within(0.05).with_time(Duration::from_secs(60)),
            backend: SolverBackend::Auto,
            cgen: CGen::default(),
            bipgen: BipGen::default(),
            compression: CompressionPolicy::Off,
            retry: RetryPolicy::none(),
            min_coverage: 0.5,
        }
    }
}

/// Where the time went (the paper's INUM / build / solve split, Figures
/// 5 & 10).
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Time inside ingestion: clustering, the INUM probes and CGen.
    pub inum_time: Duration,
    pub build_time: Duration,
    pub solve_time: Duration,
    pub what_if_calls: u64,
    pub n_candidates: usize,
    /// μ-dimension (Lagrangian) or variable count (B&B).
    pub n_variables: usize,
}

impl SolveStats {
    pub fn total_time(&self) -> Duration {
        self.inum_time + self.build_time + self.solve_time
    }
}

/// How much a tune was degraded by lost what-if probes (retry exhaustion
/// during INUM preparation).  Attached to [`Recommendation::degradation`]
/// whenever anything failed; absent on a fault-free preparation.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Probes that failed at least once (recovered + lost).
    pub probes_failed: u64,
    /// Retry attempts spent during preparation.
    pub retries: u64,
    /// Probes recovered by a retry — their answers are exact.
    pub probes_recovered: u64,
    /// Probes lost after retry exhaustion: their templates were skipped or
    /// their statements' costs substituted.
    pub probes_substituted: u64,
    /// Statements with at least one lost probe.
    pub statements_degraded: usize,
    /// Statements prepared in total.
    pub statements_total: usize,
    /// Weighted fraction of the workload prepared *fully* (1.0 = nothing
    /// degraded).  Compared against [`CoPhyOptions::min_coverage`].
    pub coverage: f64,
    /// Worst-case relative cost-bound inflation: the weighted share of the
    /// baseline workload cost carried by degraded statements.  Lost probes
    /// can only *overestimate* a statement's cost (the unconstrained
    /// template still instantiates under every configuration), so the
    /// reported objective exceeds the true INUM objective by at most this
    /// fraction.
    pub worst_case_inflation: f64,
}

impl DegradationReport {
    /// Build the report from a resilient preparation's fault account.
    /// Returns `None` when nothing failed.  Reads each statement's cached
    /// `cost(q, ∅)`, so it prices nothing.
    pub(crate) fn from_prep(
        prepared: &PreparedWorkload,
        report: &PrepFaultReport,
    ) -> Option<DegradationReport> {
        if report.is_clean() {
            return None;
        }
        // A statement's qid is its position; the cache holds its current
        // weight (a cluster's merges after the probes were lost count too).
        let degraded = || {
            report.degraded.iter().map(|&qid| {
                let pq = &prepared.queries[qid.0 as usize];
                debug_assert_eq!(pq.qid, qid);
                pq
            })
        };
        let total_weight: f64 = prepared.queries.iter().map(|pq| pq.weight).sum();
        let degraded_weight: f64 = degraded().map(|pq| pq.weight).sum();
        let baseline = prepared.empty_cost();
        // Folded from +0.0: a fully recovered preparation inflates by 0, not
        // by the −0 an empty `sum()` returns.
        let degraded_base =
            degraded().map(|pq| pq.weight * pq.empty_cost).fold(0.0, |sum, cost| sum + cost);
        Some(DegradationReport {
            probes_failed: report.probes_recovered + report.probes_exhausted,
            retries: report.retries,
            probes_recovered: report.probes_recovered,
            probes_substituted: report.probes_exhausted,
            statements_degraded: report.degraded.len(),
            statements_total: prepared.queries.len(),
            coverage: if total_weight > 0.0 { 1.0 - degraded_weight / total_weight } else { 1.0 },
            worst_case_inflation: if baseline > 0.0 { degraded_base / baseline } else { 0.0 },
        })
    }

    /// [`DegradationReport::from_prep`] as it was when it re-priced every
    /// statement under ∅ on each call: the oracle of the cached costs.
    #[cfg(test)]
    pub(crate) fn from_prep_repricing(
        schema: &cophy_catalog::Schema,
        cm: &cophy_optimizer::CostModel,
        prepared: &PreparedWorkload,
        report: &PrepFaultReport,
    ) -> Option<DegradationReport> {
        if report.is_clean() {
            return None;
        }
        let degraded = || {
            report.degraded.iter().map(|&qid| {
                let pq = &prepared.queries[qid.0 as usize];
                debug_assert_eq!(pq.qid, qid);
                pq
            })
        };
        let total_weight: f64 = prepared.queries.iter().map(|pq| pq.weight).sum();
        let degraded_weight: f64 = degraded().map(|pq| pq.weight).sum();
        let baseline = prepared.cost(schema, cm, &Configuration::empty());
        let degraded_base = degraded()
            .map(|pq| pq.weight * pq.cost(schema, cm, &Configuration::empty()))
            .fold(0.0, |sum, cost| sum + cost);
        Some(DegradationReport {
            probes_failed: report.probes_recovered + report.probes_exhausted,
            retries: report.retries,
            probes_recovered: report.probes_recovered,
            probes_substituted: report.probes_exhausted,
            statements_degraded: report.degraded.len(),
            statements_total: prepared.queries.len(),
            coverage: if total_weight > 0.0 { 1.0 - degraded_weight / total_weight } else { 1.0 },
            worst_case_inflation: if baseline > 0.0 { degraded_base / baseline } else { 0.0 },
        })
    }
}

/// A tuning outcome.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub configuration: Configuration,
    /// INUM-estimated workload cost under the recommendation.
    pub objective: f64,
    /// INUM-estimated workload cost under the empty configuration.
    pub baseline_cost: f64,
    /// Global lower bound proved by the solver.
    pub bound: f64,
    /// Relative optimality gap at termination.
    pub gap: f64,
    /// Anytime incumbent/bound trace (Figure 6a).
    pub trace: Vec<SolveProgress>,
    pub stats: SolveStats,
    /// Present when the workload was compressed before tuning.  `objective`
    /// and `baseline_cost` are then *expansions* to the full workload:
    /// cluster weights conserve total workload weight, so
    /// `Σ_r w_r · cost(rep_r, X)` estimates `Σ_q f_q · cost(q, X)` with each
    /// original statement approximated by its representative — reported
    /// TotalCost stays comparable with an uncompressed tune.
    pub compression: Option<CompressionSummary>,
    /// Present when INUM preparation lost probes to exhausted retries (see
    /// [`CoPhyOptions::retry`]): how much of the workload was degraded and
    /// the worst-case inflation of the reported cost bound.  `None` on a
    /// fault-free preparation — including every run without a fault layer.
    pub degradation: Option<DegradationReport>,
}

impl Recommendation {
    /// Estimated improvement `1 − cost(X*)/cost(∅)` (INUM-based; the bench
    /// harness re-measures against the ground-truth optimizer).
    pub fn estimated_improvement(&self) -> f64 {
        if self.baseline_cost <= 0.0 {
            return 0.0;
        }
        1.0 - self.objective / self.baseline_cost
    }
}

/// The CoPhy advisor — a thin layer over any [`WhatIfBackend`] (live
/// optimizer, trace replay, fault wrapper, or a custom DBMS adapter).
#[derive(Debug)]
pub struct CoPhy<'o> {
    opt: &'o dyn WhatIfBackend,
    pub options: CoPhyOptions,
}

impl<'o> CoPhy<'o> {
    pub fn new(opt: &'o dyn WhatIfBackend, options: CoPhyOptions) -> Self {
        CoPhy { opt, options }
    }

    /// The what-if backend behind this advisor.
    pub fn optimizer(&self) -> &'o dyn WhatIfBackend {
        self.opt
    }

    /// Full pipeline: compression → INUM → CGen → BIPGen → Solver,
    /// surfacing infeasibility (paper line 2: the DBA removes or softens the
    /// reported constraints), probe failures and a breached coverage floor
    /// as typed errors.
    ///
    /// [`CoPhy::try_tune_source`] over `w.source()`: a materialized workload
    /// is a stream that happens to be resident, and is tuned as one.
    pub fn try_tune(
        &self,
        w: &Workload,
        constraints: &ConstraintSet,
    ) -> Result<Recommendation, CoPhyError> {
        self.try_tune_source(&mut w.source(), constraints)
    }

    /// [`CoPhy::try_tune`] with a caller-supplied candidate set (`S_DBA`
    /// merging, the Figure-5 sweeps): CGen is skipped, nothing else differs.
    pub fn try_tune_with_candidates(
        &self,
        w: &Workload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> Result<Recommendation, CoPhyError> {
        self.ingest_and_solve(&mut w.source(), Some(candidates.clone()), constraints)
    }

    /// Full pipeline over a workload source — a materialized workload's
    /// `source()` or the million-statement stream that is never
    /// materialized.  With [`CoPhyOptions::compression`] enabled the
    /// statements are clustered online
    /// ([`cophy_compress::CompressedWorkload::streaming`]) as they arrive;
    /// CGen and INUM see only the cluster-opening ones, so the what-if
    /// budget scales with the number of clusters instead of `|W|`, and
    /// memory with the representatives plus one chunk.
    pub fn try_tune_source(
        &self,
        source: &mut dyn WorkloadSource,
        constraints: &ConstraintSet,
    ) -> Result<Recommendation, CoPhyError> {
        self.ingest_and_solve(source, None, constraints)
    }

    /// What every `try_tune*` door does: drain the statements through the
    /// ingest in [`DEFAULT_CHUNK`]s, then solve what it prepared.
    fn ingest_and_solve(
        &self,
        source: &mut dyn WorkloadSource,
        candidates: Option<CandidateSet>,
        constraints: &ConstraintSet,
    ) -> Result<Recommendation, CoPhyError> {
        let by_id = |c: &Constraint| matches!(c, Constraint::QueryCost { .. });
        if !self.options.compression.is_off() && constraints.hard.iter().any(by_id) {
            let why = "a query-cost bound names a statement by id, which compression renumbers";
            return Err(CoPhyError::Invalid(why.into()));
        }
        let mut ingest = Ingest::open(self, candidates)?;
        ingest.add_source(self, source, DEFAULT_CHUNK)?;
        let (spent, calls) = (ingest.inum_time, ingest.what_if_calls);
        let mut rec = ingest.prepared.read(|prepared| {
            self.try_tune_prepared(prepared, &ingest.candidates, constraints, spent, calls, |_| {})
        })?;
        rec.compression = ingest.compressed.as_ref().map(|c| c.summary());
        rec.degradation = ingest.degradation;
        Ok(rec)
    }

    /// Solve from an existing INUM cache (sessions, benches and baselines
    /// that amortize preparation), with the unified anytime stream: every
    /// incumbent or bound improvement of whichever backend runs is surfaced
    /// as a [`SolveProgress`] event (the paper's continuous solver feedback,
    /// Figures 3 & 6a) — identical semantics for both backends.  Pass
    /// `|_| {}` to ignore it.
    pub fn try_tune_prepared(
        &self,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
        inum_time: Duration,
        what_if_calls: u64,
        on_progress: impl FnMut(&SolveProgress),
    ) -> Result<Recommendation, CoPhyError> {
        let solved = self.solve(prepared, candidates, constraints, Held::default(), on_progress)?;
        let mut rec = self.recommendation(prepared, candidates, constraints, solved);
        rec.stats.inum_time = inum_time;
        rec.stats.what_if_calls = what_if_calls;
        Ok(rec)
    }

    /// Dress the chain's answer as a [`Recommendation`]; ingestion's share
    /// (probes, `inum_time`, compression, degradation) is the caller's.
    pub(crate) fn recommendation(
        &self,
        prepared: &impl ReadPrepared,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
        solved: Solved,
    ) -> Recommendation {
        let schema = self.opt.schema();
        let baseline_cost = prepared.read(PreparedWorkload::empty_cost);
        debug_assert!(
            constraints.check_configuration(schema, &solved.configuration).is_ok(),
            "solver returned a constraint-violating configuration"
        );
        Recommendation {
            configuration: solved.configuration,
            objective: solved.objective + solved.offset,
            baseline_cost,
            bound: solved.bound + solved.offset,
            gap: solved.gap,
            trace: solved.trace,
            compression: None,
            degradation: None,
            stats: SolveStats {
                build_time: solved.build_time,
                solve_time: solved.solve_time,
                n_candidates: candidates.len(),
                n_variables: solved.n_variables,
                ..Default::default()
            },
        }
    }

    /// Paper Figure 3, line 1: is the constraint polytope non-empty?
    /// Reports the violated constraints on failure.
    pub fn check_feasibility(
        &self,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> Result<(), CoPhyError> {
        let rows = constraints.z_rows(self.opt.schema(), candidates);
        if rows.is_empty() {
            return Ok(());
        }
        let mut m = Model::new();
        let z: Vec<_> = (0..candidates.len()).map(|a| m.add_var(format!("z{a}"), 0.0)).collect();
        for row in &rows {
            add_z_row(&mut m, &z, row);
        }
        let why = "hard constraints are mutually infeasible over the candidate set";
        BranchBound::new()
            .is_feasible(&m)
            .then_some(())
            .ok_or_else(|| CoPhyError::Infeasible(why.into()))
    }

    /// Open an interactive tuning session (paper §4.2):
    /// [`CoPhy::try_session_streaming`] over `w.source()`.
    pub fn try_session(
        &self,
        w: &Workload,
        constraints: ConstraintSet,
    ) -> Result<TuningSession<'o, '_>, CoPhyError> {
        self.try_session_streaming(&mut w.source(), constraints)
    }

    /// Open a session over an **existing** shared INUM cache
    /// ([`TuningSession::cache`]): the advisor-as-a-service pattern where
    /// many sessions answer `what_if` / `recommend` against one prepared
    /// workload.  No CGen or INUM work is paid; `candidates` is typically
    /// cloned from the session that built the cache.
    pub fn try_session_shared(
        &self,
        cache: std::sync::Arc<cophy_inum::InumCache>,
        candidates: CandidateSet,
        constraints: ConstraintSet,
    ) -> Result<TuningSession<'o, '_>, CoPhyError> {
        TuningSession::over(self, Ingest::over(cache, candidates), constraints)
    }

    /// Open a session by draining a [`WorkloadSource`] in
    /// [`DEFAULT_CHUNK`]-sized chunks: clustering, INUM and CGen run once,
    /// through the same ingest as [`CoPhy::try_tune_source`] — so invalid
    /// options (non-storage-only constraints, invalid compression ε), probe
    /// failures and a breached coverage floor are the same typed errors.  A
    /// chunk that fails is rolled back whole and fails the open.  Callers
    /// needing a different chunk size, or to keep what did ingest, open over
    /// an empty source and drive [`TuningSession::try_add_source`] directly.
    pub fn try_session_streaming(
        &self,
        source: &mut dyn WorkloadSource,
        constraints: ConstraintSet,
    ) -> Result<TuningSession<'o, '_>, CoPhyError> {
        TuningSession::open(self, source, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{Cmp, Constraint, IndexFilter};
    use cophy_catalog::TpchGen;
    use cophy_inum::Inum;
    use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
    use cophy_workload::HomGen;

    fn advisor_setup(n: usize) -> (WhatIfOptimizer, Workload) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(77).generate(o.schema(), n);
        (o, w)
    }

    #[test]
    fn end_to_end_tune_improves_workload() {
        let (o, w) = advisor_setup(25);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let rec = cophy.try_tune(&w, &constraints).unwrap();
        assert!(!rec.configuration.is_empty(), "should recommend something");
        assert!(rec.objective < rec.baseline_cost, "must beat the empty config");
        assert!(rec.estimated_improvement() > 0.1, "{}", rec.estimated_improvement());
        assert!(rec.bound <= rec.objective + 1e-6);
        // ground truth check: the optimizer agrees the config helps
        let perf = o.perf(&w, &rec.configuration);
        assert!(perf > 0.0, "optimizer-measured improvement {perf}");
        // constraints respected
        assert!(constraints.check_configuration(o.schema(), &rec.configuration).is_ok());
    }

    #[test]
    fn tighter_budget_never_improves_objective() {
        let (o, w) = advisor_setup(15);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let loose = cophy.try_tune(&w, &ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let tight = cophy.try_tune(&w, &ConstraintSet::storage_fraction(o.schema(), 0.05)).unwrap();
        assert!(loose.objective <= tight.objective * 1.02 + 1e-6);
        let tight_size = tight.configuration.size_bytes(o.schema());
        assert!(tight_size <= o.schema().data_bytes() / 20 + 1);
    }

    #[test]
    fn backends_agree_on_small_instance() {
        let (o, w) = advisor_setup(6);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.2);
        let candidates = CGen::default().generate(o.schema(), &w).truncate(10);
        let mut opts = CoPhyOptions {
            budget: SolveBudget { gap_limit: 1e-6, node_limit: Some(800), ..Default::default() },
            ..Default::default()
        };
        opts.backend = SolverBackend::Lagrangian;
        let lag = CoPhy::new(&o, opts.clone())
            .try_tune_with_candidates(&w, &candidates, &constraints)
            .unwrap();
        opts.backend = SolverBackend::BranchBound;
        let bb =
            CoPhy::new(&o, opts).try_tune_with_candidates(&w, &candidates, &constraints).unwrap();
        // B&B is exact; the Lagrangian incumbent must be within a small gap.
        assert!(lag.objective >= bb.objective - 1e-6);
        assert!(
            (lag.objective - bb.objective) / bb.objective < 0.02,
            "lagrangian {} vs exact {}",
            lag.objective,
            bb.objective
        );
    }

    #[test]
    fn lossless_compression_halves_probes_on_duplicated_workloads() {
        let (o, base) = advisor_setup(12);
        // Every statement twice: the lossless tune must probe half as much.
        let mut w = Workload::new();
        for (_, stmt, weight) in base.iter().chain(base.iter()) {
            w.push_weighted(stmt.clone(), weight);
        }
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let plain = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();
        assert!(plain.compression.is_none());
        let opts = CoPhyOptions { compression: CompressionPolicy::Lossless, ..Default::default() };
        let rec = CoPhy::new(&o, opts).try_tune(&w, &constraints).unwrap();
        let summary = rec.compression.expect("compressed tune carries its summary");
        assert_eq!(summary.n_original, w.len());
        assert!(summary.n_representatives <= base.len());
        assert!((summary.total_weight - w.total_weight()).abs() < 1e-9);
        assert!(
            rec.stats.what_if_calls <= plain.stats.what_if_calls / 2 + 1,
            "lossless compression must cut probes: {} vs {}",
            rec.stats.what_if_calls,
            plain.stats.what_if_calls
        );
        // Lossless merging leaves the weighted cost function unchanged, so
        // the expanded objective matches the plain tune closely (both solves
        // stop at the configured gap).
        assert!((rec.objective - plain.objective).abs() / plain.objective < 0.05);
        assert!((rec.baseline_cost - plain.baseline_cost).abs() < 1e-6 * plain.baseline_cost);
    }

    #[test]
    fn epsilon_compression_cuts_probes_and_expands_costs() {
        let (o, w) = advisor_setup(60);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let plain = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();
        let opts = CoPhyOptions {
            compression: CompressionPolicy::default_epsilon(),
            ..Default::default()
        };
        let rec = CoPhy::new(&o, opts).try_tune(&w, &constraints).unwrap();
        let summary = rec.compression.expect("summary present");
        assert!(summary.ratio() > 1.5, "W_hom60 must compress: ratio {}", summary.ratio());
        assert!(rec.stats.what_if_calls < plain.stats.what_if_calls);
        // The recommendation itself must hold up on the *full* workload.
        let full = Inum::new(&o).prepare_workload(&w);
        let cost_plain = full.cost(o.schema(), o.cost_model(), &plain.configuration);
        let cost_comp = full.cost(o.schema(), o.cost_model(), &rec.configuration);
        assert!(
            cost_comp <= cost_plain * 1.1,
            "compressed recommendation degrades full-workload cost: {cost_comp} vs {cost_plain}"
        );
        assert!(constraints.check_configuration(o.schema(), &rec.configuration).is_ok());
    }

    #[test]
    fn invalid_epsilon_surfaces_as_error_not_panic() {
        let (o, w) = advisor_setup(4);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let opts =
                CoPhyOptions { compression: CompressionPolicy::Epsilon(bad), ..Default::default() };
            let cophy = CoPhy::new(&o, opts);
            let err = cophy.try_tune(&w, &constraints).unwrap_err();
            assert!(
                matches!(err, CoPhyError::Invalid(_)) && err.to_string().contains("ε"),
                "{err}"
            );
            let cands = CGen::default().generate(o.schema(), &w).truncate(5);
            assert!(cophy.try_tune_with_candidates(&w, &cands, &constraints).is_err());
        }
    }

    #[test]
    fn infeasible_constraints_reported() {
        let (o, w) = advisor_setup(5);
        let candidates = CGen::default().generate(o.schema(), &w).truncate(5);
        // Require ≥ 3 indexes but allow at most 1 → infeasible.
        let cs = ConstraintSet::none()
            .with(Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Ge, value: 3 })
            .with(Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Le, value: 1 });
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        assert!(cophy.try_tune_with_candidates(&w, &candidates, &cs).is_err());
    }

    #[test]
    fn rich_constraints_route_to_branch_bound_and_hold() {
        let (o, w) = advisor_setup(6);
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        let candidates = CGen::default().generate(o.schema(), &w).truncate(12);
        let cs = ConstraintSet::storage_fraction(o.schema(), 1.0).with(Constraint::IndexCount {
            filter: IndexFilter::on_table(li),
            cmp: Cmp::Le,
            value: 1,
        });
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let rec = cophy.try_tune_with_candidates(&w, &candidates, &cs).unwrap();
        let on_li = rec.configuration.on_table(li).count();
        assert!(on_li <= 1, "constraint violated: {on_li} lineitem indexes");
    }

    #[test]
    fn both_backends_stream_the_same_progress_contract() {
        let (o, w) = advisor_setup(8);
        let candidates = CGen::default().generate(o.schema(), &w).truncate(12);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let storage = ConstraintSet::storage_fraction(o.schema(), 0.3);
        for backend in [SolverBackend::Lagrangian, SolverBackend::BranchBound] {
            let cophy = CoPhy::new(&o, CoPhyOptions { backend, ..Default::default() });
            let mut events: Vec<SolveProgress> = Vec::new();
            let rec = cophy
                .try_tune_prepared(&prepared, &candidates, &storage, Duration::ZERO, 0, |p| {
                    events.push(*p)
                })
                .expect("feasible");
            assert!(!events.is_empty(), "{backend:?} must stream progress");
            let mut prev = f64::INFINITY;
            for e in &events {
                assert!(e.gap <= prev + 1e-12, "{backend:?} gap series must not regress");
                assert!(e.incumbent >= e.bound - 1e-9);
                prev = e.gap;
            }
            assert!(rec.gap.is_finite(), "{backend:?} must reach a finite gap");
        }
    }

    #[test]
    fn gap_trace_present_and_bounded() {
        let (o, w) = advisor_setup(20);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let rec = cophy.try_tune(&w, &ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        assert!(!rec.trace.is_empty());
        assert!(rec.gap >= 0.0);
        assert!(rec.stats.n_candidates > 0);
        assert!(rec.stats.what_if_calls > 0, "INUM must have probed the optimizer");
    }

    use cophy_optimizer::{FaultInjectingBackend, FaultPlan, RetryPolicy};

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        }
    }

    #[test]
    fn all_transient_faults_with_retries_match_fault_free_tune_bit_for_bit() {
        let (o, w) = advisor_setup(10);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let clean = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();
        assert!(clean.degradation.is_none(), "fault-free tune must carry no report");

        let faulty = FaultInjectingBackend::new(
            Box::new(WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)),
            FaultPlan::transient_only(0xFA17, 0.4, 2),
        );
        let opts = CoPhyOptions { retry: fast_retry(4), ..Default::default() };
        let rec = CoPhy::new(&faulty, opts).try_tune(&w, &constraints).unwrap();
        // Every transient schedule is exhausted below max_attempts, so the
        // prepared workload — and therefore the whole tune — is bit-identical.
        assert_eq!(rec.objective.to_bits(), clean.objective.to_bits());
        assert_eq!(rec.configuration, clean.configuration);
        let d = rec.degradation.expect("recovered faults must still be reported");
        assert!(d.probes_recovered > 0, "schedule must have fired");
        assert_eq!(d.probes_substituted, 0);
        assert_eq!(d.statements_degraded, 0);
        assert_eq!(d.coverage, 1.0);
        assert_eq!(d.worst_case_inflation.to_bits(), 0.0f64.to_bits(), "+0, not an empty sum's −0");
    }

    #[test]
    fn permanent_faults_degrade_with_bounded_inflation() {
        let (o, w) = advisor_setup(12);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let clean = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();

        let faulty = FaultInjectingBackend::new(
            Box::new(WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)),
            FaultPlan { permanent_rate: 0.15, ..FaultPlan::transient_only(0xDE6, 0.3, 1) },
        );
        let opts = CoPhyOptions { retry: fast_retry(3), min_coverage: 0.0, ..Default::default() };
        let rec = CoPhy::new(&faulty, opts).try_tune(&w, &constraints).unwrap();
        let d = rec.degradation.expect("permanent faults must degrade the tune");
        assert!(d.probes_substituted > 0, "some probes must be lost for this seed");
        assert!(d.coverage < 1.0 && d.coverage > 0.0, "coverage {}", d.coverage);
        assert!(d.worst_case_inflation > 0.0 && d.worst_case_inflation <= 1.0);
        // Lost templates only overestimate: the degraded objective is a valid
        // upper bound, and within the report's advertised inflation of the
        // fault-free objective.
        assert!(rec.objective + 1e-6 >= clean.bound, "degradation must stay sound");
        assert!(
            rec.objective <= clean.objective * (1.0 + d.worst_case_inflation) + 1e-6,
            "objective {} exceeds advertised inflation bound over {}",
            rec.objective,
            clean.objective
        );
    }

    #[test]
    fn coverage_floor_turns_heavy_degradation_into_typed_error() {
        let (o, w) = advisor_setup(8);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let faulty = FaultInjectingBackend::new(
            Box::new(WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)),
            FaultPlan { permanent_rate: 0.6, ..FaultPlan::transient_only(0xF100D, 0.2, 1) },
        );
        let opts = CoPhyOptions { retry: fast_retry(2), min_coverage: 0.999, ..Default::default() };
        let err = CoPhy::new(&faulty, opts)
            .try_tune(&w, &constraints)
            .expect_err("60% permanent faults cannot clear a 0.999 coverage floor");
        assert!(matches!(err, CoPhyError::Coverage { .. }), "{err:?}");
        assert!(err.to_string().contains("coverage"), "floor error must name coverage: {err}");
    }
}
