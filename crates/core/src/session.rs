//! Interactive tuning sessions (paper §4.2, Figure 6b).
//!
//! Index tuning is exploratory: the DBA nudges `S`, `W` or `C` and asks for a
//! revised recommendation.  Instead of rebuilding and re-solving from
//! scratch, a [`TuningSession`] keeps the INUM cache, the candidate set and
//! the solver's warm-start state (Lagrangian multipliers + last incumbent);
//! deltas extend the problem *in place* — new candidates append items with
//! fresh ids, new statements append blocks — so the multiplier coordinates of
//! the untouched parts remain valid and re-solves converge an order of
//! magnitude faster (the Figure 6b behavior).
//!
//! ## The interactive surface
//!
//! Beyond workload/candidate deltas, the session answers the DBA's variant
//! questions from the *same* model and caches:
//!
//! * [`TuningSession::try_sweep_storage_with_progress`] — a K-point budget sweep solved as one
//!   **warm chain** over a single Theorem-1 BIP: each point sets the
//!   storage row's RHS ([`cophy_bip::DeltaModel::set_rhs`]) and re-solves from the
//!   root basis, incumbent and pseudo-costs the previous point left in the
//!   same `DeltaModel`, so K points cost one cold root plus K−1 dual
//!   re-solves instead of K cold tunes (the paper's Figure 10 economics);
//! * [`TuningSession::pin_index`] / [`TuningSession::ban_index`] — force an
//!   index into or out of every subsequent answer by fixing its `z`
//!   variable ([`cophy_bip::DeltaModel::fix`]), a bound pinch the warm re-solve
//!   absorbs in a handful of dual pivots;
//! * [`TuningSession::what_if`] — cost an explicit configuration **entirely
//!   from the INUM cache**: zero optimizer what-if calls, zero solver work.
//!
//! The session owns pin / ban / budget **once** ([`TuningSession::fixings`],
//! [`TuningSession::constraints`]).  The interactive BIP is a cache of them:
//! each sweep point writes the fixings and its budget into the model just
//! before it solves, so no mutator has to keep a second copy in step.
//!
//! Every solve streams through the unified [`SolveProgress`] contract.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cophy_bip::{CancelToken, SolveProgress, WarmStart};
use cophy_catalog::{Configuration, Index};
use cophy_inum::InumCache;
use cophy_workload::{WorkloadSource, DEFAULT_CHUNK};

use crate::cgen::CandidateSet;
use crate::chain::{block_form, Exact, Held};
use crate::constraints::{Constraint, ConstraintSet};
use crate::error::CoPhyError;
use crate::ingest::Ingest;
use crate::solver::{CoPhy, DegradationReport, Recommendation};

/// One point of a [`TuningSession::try_sweep_storage_with_progress`] budget
/// sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub budget_bytes: u64,
    /// INUM-estimated workload cost under this point's recommendation.
    pub objective: f64,
    /// Solver lower bound at this point.
    pub bound: f64,
    /// Relative optimality gap at termination.
    pub gap: f64,
    pub configuration: Configuration,
    /// Branch-and-bound nodes spent on this point.
    pub nodes: usize,
    /// Simplex pivots spent on this point (root + node LPs; the warm chain
    /// drives this down for every point after the first).
    pub pivots: usize,
    pub solve_time: Duration,
}

/// A [`TuningSession::what_if`] answer, computed entirely from the session's
/// INUM cache — no optimizer what-if calls, no solver work.
#[derive(Debug, Clone)]
pub struct WhatIfAnswer {
    /// INUM-estimated workload cost under the probed configuration.
    pub cost: f64,
    /// Cost under the empty configuration (same cache).
    pub baseline_cost: f64,
    /// Total size of the probed configuration.
    pub size_bytes: u64,
    /// `Some(reason)` when the configuration violates the session's hard
    /// constraints (the answer is still costed).
    pub constraint_violation: Option<String>,
}

impl WhatIfAnswer {
    /// Estimated improvement `1 − cost/baseline` of the probed configuration.
    pub fn improvement(&self) -> f64 {
        if self.baseline_cost <= 0.0 {
            return 0.0;
        }
        1.0 - self.cost / self.baseline_cost
    }
}

/// An open tuning session.
#[derive(Debug)]
pub struct TuningSession<'o, 'c> {
    cophy: &'c CoPhy<'o>,
    /// What ingestion built and every statement delta grows: the shared INUM
    /// cost service (sessions do not own the template cache —
    /// [`TuningSession::cache`] hands the `Arc` out, and
    /// [`crate::CoPhy::try_session_shared`] opens further sessions over it,
    /// concurrent readers, writes serialized on the delta path), the
    /// candidate set, the clustering when
    /// [`crate::CoPhyOptions::compression`] is on, and the running
    /// degradation account.
    ingest: Ingest,
    constraints: ConstraintSet,
    warm: Option<WarmStart>,
    /// The sweeps' interactive BIP and warm state, with a storage row of its
    /// own; built by the first sweep, dropped by new candidates or statements.
    interactive: Option<Exact>,
    /// Pin (`true`) / ban (`false`) fixings, keyed by index: the one copy,
    /// read by every recommend and written into the interactive model by
    /// every sweep point.
    fixings: Vec<(Index, bool)>,
    /// Cooperative cancellation armed on every solve this session runs
    /// (B&B re-solves and Lagrangian recommends alike); `None` = never
    /// cancelled.  The `cophy-server` daemon fires it when the requesting
    /// client disconnects.
    cancel: Option<CancelToken>,
}

impl<'o, 'c> TuningSession<'o, 'c> {
    /// A session over what `ingest` holds (possibly nothing yet).  Its
    /// `recommend` relaxes over the block form, so the constraints must be
    /// storage-only; its sweeps finish exact, each point under its own budget.
    pub(crate) fn over(
        cophy: &'c CoPhy<'o>,
        ingest: Ingest,
        constraints: ConstraintSet,
    ) -> Result<Self, CoPhyError> {
        block_form(&constraints)?;
        Ok(TuningSession {
            cophy,
            ingest,
            constraints,
            warm: None,
            interactive: None,
            fixings: Vec::new(),
            cancel: None,
        })
    }

    /// Open a session by draining `source` through a fresh ingest; a chunk
    /// that fails fails the open.
    pub(crate) fn open(
        cophy: &'c CoPhy<'o>,
        source: &mut dyn WorkloadSource,
        constraints: ConstraintSet,
    ) -> Result<Self, CoPhyError> {
        let ingest = Ingest::open(cophy, None)?;
        let mut session = Self::over(cophy, ingest, constraints)?;
        session.try_add_source(source, DEFAULT_CHUNK)?;
        Ok(session)
    }

    /// Arm (or disarm) cooperative cancellation: every subsequent solve —
    /// warm Lagrangian recommends and interactive B&B re-solves alike —
    /// observes the token between nodes/iterations and stops with
    /// `TimeLimit` semantics once it fires, keeping its best incumbent.
    pub fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The session's hard constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// What the probes this session's ingestion retried or lost amount to,
    /// as of its last committed chunk (`None` when every probe answered
    /// first time — always so for a shared-cache session before its first
    /// delta).  Attached to every recommendation the session produces.
    pub fn degradation(&self) -> Option<&DegradationReport> {
        self.ingest.degradation.as_ref()
    }

    /// Rough bytes of *private* (non-shared) session state: candidates,
    /// the clustering when compression is on, the interactive BIP under
    /// mutation, and the Lagrangian warm-start vectors.  The shared INUM
    /// cache is excluded — it outlives any one
    /// session.  This is the metric the `cophy-server` LRU evicts on: an
    /// evicted session drops exactly this state and rebuilds it from the
    /// retained workload handle + sticky fixings on the next touch.
    pub fn approx_state_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.ingest.candidates.len() * (size_of::<Index>() + 16);
        bytes += self.ingest.compressed.as_ref().map_or(0, |cw| cw.approx_bytes());
        if let Some(st) = &self.interactive {
            let model = st.dm.model();
            let nnz: usize = model.constraints().iter().map(|c| c.expr.terms.len()).sum();
            bytes += model.n_vars() * 24 + model.n_constraints() * 48 + nnz * 16;
            // Its warm state: a basis + pseudo-cost table ~ O(vars).
            bytes += model.n_vars() * 48;
        }
        if let Some(warm) = &self.warm {
            bytes += warm.multipliers.capacity() * size_of::<((u32, u32, u32, u32), f64)>()
                + warm.selection.capacity() * size_of::<bool>();
        }
        bytes
    }

    /// The session's shared INUM cache handle.  Clones are cheap; pass one
    /// to [`crate::CoPhy::try_session_shared`] to open further sessions (or
    /// ad-hoc readers) over the same prepared workload.
    pub fn cache(&self) -> Arc<InumCache> {
        Arc::clone(&self.ingest.prepared)
    }

    pub fn candidates(&self) -> &CandidateSet {
        &self.ingest.candidates
    }

    /// Number of statements the session represents (original statements,
    /// not cluster representatives).
    pub fn n_statements(&self) -> usize {
        self.ingest.n_statements()
    }

    /// Number of INUM-prepared representatives (equals
    /// [`TuningSession::n_statements`] when compression is off).
    pub fn n_representatives(&self) -> usize {
        self.ingest.prepared.len()
    }

    /// Add DBA-curated candidate indexes (`S_DBA`); ids of existing
    /// candidates are stable, so the warm state stays valid.  The
    /// interactive BIP (if built) is dropped: its variable layout grows, and
    /// the next interactive answer rebuilds it with the new `z` columns.
    pub fn add_candidates(&mut self, extra: impl IntoIterator<Item = Index>) {
        self.ingest.candidates.extend(self.cophy.optimizer().schema(), extra);
        self.interactive = None;
    }

    /// Replace the storage budget.  Refused, with the session unchanged, when
    /// the new set is not storage-only or the pinned indexes no longer fit.
    /// A live interactive BIP survives — basis, incumbent and pseudo-costs
    /// included: its storage row is the sweeps', not the session's.
    pub fn set_constraints(&mut self, constraints: ConstraintSet) -> Result<(), CoPhyError> {
        block_form(&constraints)?;
        self.check_pins_fit(None, &constraints)?;
        self.constraints = constraints;
        Ok(())
    }

    /// Stream statements into the session from a [`WorkloadSource`] in
    /// chunks of `chunk_size` (clamped to ≥ 1) — the one way statements
    /// enter, at open and afterwards (`&mut w.source()` for an in-memory
    /// delta; the server's `add` verb).  New statements append blocks and
    /// CGen extends the candidate set in place: old block coordinates and
    /// candidate ids are stable, so the warm state stays valid.  Only one
    /// chunk is resident at a time, so a generator- or file-backed source
    /// ingests an arbitrarily large workload without materializing it;
    /// under compression each chunk routes through incremental
    /// re-clustering — a statement that lands in an existing cluster bumps
    /// its representative's weight, **zero** new what-if calls — and only
    /// cluster-opening statements pay INUM preparation and CGen.
    ///
    /// Probes are retried per [`crate::CoPhyOptions::retry`], and faults
    /// roll back **per chunk**: a chunk that hits a non-retryable probe
    /// failure (replay miss, spent quota) or would breach
    /// [`crate::CoPhyOptions::min_coverage`] is undone whole (cache,
    /// clustering, candidates and [`TuningSession::degradation`] exactly as
    /// before it — sessions sharing the cache never see it), but chunks
    /// committed earlier stay, and the caller may retry the remainder of the
    /// stream later.  Ingestion is linear in the stream: what a chunk keeps
    /// for its rollback is proportional to the chunk, never to the
    /// statements absorbed so far.
    pub fn try_add_source(
        &mut self,
        source: &mut dyn WorkloadSource,
        chunk_size: usize,
    ) -> Result<(), CoPhyError> {
        self.interactive = None; // the block layout grows; rebuilt on demand
        self.ingest.add_source(self.cophy, source, chunk_size)
    }

    // -- the interactive surface (paper §4.2) -------------------------------

    /// Answer a K-point storage-budget sweep (paper Figure 10) as **one warm
    /// chain**: every point mutates the storage row's RHS in place and
    /// re-solves from the previous point's root basis, incumbent and
    /// pseudo-costs, so the chain costs one cold root LP plus K−1 dual
    /// re-solves instead of K independent tunes.  The sweep's budgets are
    /// its own: [`TuningSession::constraints`] is unchanged afterwards.
    /// `on_progress(point_index, event)` fires for every incumbent or bound
    /// improvement of every point (`|_, _| {}` to ignore them).
    ///
    /// A point no configuration fits (pinned indexes exceeding that budget)
    /// is [`CoPhyError::Infeasible`]; a plain storage sweep without pins is
    /// always feasible.  A point whose time budget or cancel token runs out
    /// before its first incumbent is [`CoPhyError::NoIncumbent`].
    pub fn try_sweep_storage_with_progress(
        &mut self,
        budgets: &[u64],
        mut on_progress: impl FnMut(usize, &SolveProgress),
    ) -> Result<Vec<SweepPoint>, CoPhyError> {
        let mut points = Vec::with_capacity(budgets.len());
        // Monotone-bound carry: tightening the storage budget can only raise
        // the optimum, so a point's proven lower bound remains valid for
        // every *tighter* successor — the next solve starts with it instead
        // of re-proving from scratch (the chain's second warm-start lever,
        // next to the root basis).
        let mut prev: Option<(u64, f64)> = None;
        for (i, &budget) in budgets.iter().enumerate() {
            let t0 = Instant::now();
            let fixed = self.fixing_vector();
            let cophy = self.cophy;
            let (prepared, candidates) = (&*self.ingest.prepared, &self.ingest.candidates);
            let exact = self.interactive.get_or_insert_with(|| {
                let storage =
                    ConstraintSet::none().with(Constraint::Storage { budget_bytes: budget });
                cophy.exact_state(prepared, candidates, &storage)
            });
            let row = exact.mapping.storage_row.expect("a sweep's model has a storage row");
            exact.dm.set_rhs(row, budget as f64);
            let held = Held {
                fixed,
                exact: Some(exact),
                known_bound: prev.and_then(|(pb, b)| (budget <= pb && b.is_finite()).then_some(b)),
                cancel: self.cancel.clone(),
                ..Default::default()
            };
            let s = cophy
                .solve(prepared, candidates, &self.constraints, held, |p| on_progress(i, p))?;
            prev = Some((budget, s.bound));
            points.push(SweepPoint {
                budget_bytes: budget,
                objective: s.objective + s.offset,
                bound: s.bound + s.offset,
                gap: s.gap,
                configuration: s.configuration,
                nodes: s.nodes,
                pivots: s.pivots,
                solve_time: t0.elapsed(),
            });
        }
        Ok(points)
    }

    /// Force `ix` into every subsequent answer (`z = 1`).  An index CGen
    /// never proposed is adopted as a DBA candidate first.  The fixing is a
    /// bound pinch, so the sweeps' warm re-solve state survives.  Refused,
    /// with the session unchanged, when the pinned indexes would no longer
    /// fit the storage budget — no later answer could honor them.
    pub fn pin_index(&mut self, ix: &Index) -> Result<(), CoPhyError> {
        self.check_pins_fit(Some(ix), &self.constraints)?;
        self.fix_index(ix.clone(), true);
        Ok(())
    }

    /// Would the pinned indexes (plus `extra`) fit `constraints`' budget?
    fn check_pins_fit(
        &self,
        extra: Option<&Index>,
        constraints: &ConstraintSet,
    ) -> Result<(), CoPhyError> {
        let Some(budget) = constraints.storage_budget() else { return Ok(()) };
        let schema = self.cophy.optimizer().schema();
        let pinned = self.fixings.iter().filter(|(i, on)| *on && Some(i) != extra).map(|(i, _)| i);
        let bytes: u64 = pinned.chain(extra).map(|i| i.size_bytes(schema)).sum();
        if bytes > budget {
            return Err(CoPhyError::Infeasible(format!(
                "pinned indexes are infeasible under the session constraints: \
                 {bytes} bytes pinned, storage budget {budget}"
            )));
        }
        Ok(())
    }

    /// Exclude `ix` from every subsequent answer (`z = 0`).  Banning an
    /// index outside the candidate set holds vacuously.
    pub fn ban_index(&mut self, ix: &Index) {
        self.fix_index(ix.clone(), false);
    }

    /// Remove a pin/ban previously placed on `ix`.
    pub fn unfix_index(&mut self, ix: &Index) {
        self.fixings.retain(|(i, _)| i != ix);
    }

    /// Current pin/ban fixings `(index, pinned?)`.
    pub fn fixings(&self) -> &[(Index, bool)] {
        &self.fixings
    }

    fn fix_index(&mut self, ix: Index, value: bool) {
        self.fixings.retain(|(i, _)| *i != ix);
        // Pinning an unknown index adopts it as a candidate.
        if value && self.ingest.candidates.id_of(&ix).is_none() {
            self.add_candidates([ix.clone()]);
        }
        self.fixings.push((ix, value));
    }

    /// Export the session's Theorem-1 BIP as free-format MPS text
    /// ([`cophy_bip::write_mps`]) — the portable hand-off for cross-checking the
    /// built-in engines against an external solver.  The model is built for
    /// the export from the current statements, candidates and constraints
    /// (pin/ban fixings are variable bounds, not rows, and are listed
    /// separately by [`TuningSession::fixings`]).
    pub fn export_mps(&self) -> String {
        let (prepared, candidates) = (&*self.ingest.prepared, &self.ingest.candidates);
        let exact = self.cophy.exact_state(prepared, candidates, &self.constraints);
        cophy_bip::write_mps(exact.dm.model(), "cophy_bip")
    }

    /// Cost an explicit configuration against the session workload,
    /// **entirely from the INUM cache**: no optimizer what-if calls, no
    /// solver work — the paper's "what does this configuration cost?"
    /// interaction at memo-lookup price.
    pub fn what_if(&self, cfg: &Configuration) -> WhatIfAnswer {
        let schema = self.cophy.optimizer().schema();
        let cm = self.cophy.optimizer().cost_model();
        self.ingest.prepared.read(|pw| WhatIfAnswer {
            cost: pw.cost(schema, cm, cfg),
            baseline_cost: pw.empty_cost(),
            size_bytes: cfg.size_bytes(schema),
            constraint_violation: self.constraints.check_configuration(schema, cfg).err(),
        })
    }

    /// The per-candidate pin/ban vector, or `None` when no fixing touches a
    /// known candidate (bans of never-proposed indexes hold vacuously).
    fn fixing_vector(&self) -> Option<Vec<Option<bool>>> {
        if self.fixings.is_empty() {
            return None;
        }
        let mut fixed = vec![None; self.ingest.candidates.len()];
        let mut any = false;
        for (ix, value) in &self.fixings {
            if let Some(id) = self.ingest.candidates.id_of(ix) {
                fixed[id.0 as usize] = Some(*value);
                any = true;
            }
        }
        any.then_some(fixed)
    }

    /// Compute (or re-compute) the recommendation, warm-starting from the
    /// previous solve.
    pub fn recommend(&mut self) -> Recommendation {
        self.recommend_with_progress(|_| {})
    }

    /// [`TuningSession::recommend`] with streaming incumbents: every
    /// improvement the warm-started solver finds is surfaced immediately as
    /// a [`SolveProgress`] event, so an interactive caller can show the
    /// refinement loop converging instead of waiting for the final answer
    /// (the paper's §4.2 continuous-feedback contract).
    pub fn recommend_with_progress(
        &mut self,
        on_progress: impl FnMut(&SolveProgress),
    ) -> Recommendation {
        let held = Held {
            fixed: self.fixing_vector(),
            warm: Some(&mut self.warm),
            cancel: self.cancel.clone(),
            ..Default::default()
        };
        let (prepared, candidates) = (&*self.ingest.prepared, &self.ingest.candidates);
        let solved = self.cophy.solve(prepared, candidates, &self.constraints, held, on_progress);
        let solved = solved.expect("the relax stage always answers");
        let mut rec = self.cophy.recommendation(prepared, candidates, &self.constraints, solved);
        rec.compression = self.ingest.compressed.as_ref().map(|c| c.summary());
        rec.degradation = self.ingest.degradation.clone();
        rec.stats.inum_time = std::mem::take(&mut self.ingest.inum_time);
        rec.stats.what_if_calls = std::mem::take(&mut self.ingest.what_if_calls);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CoPhyOptions;
    use cophy_bip::{BranchBound, CancelToken, MipStatus, SolveOptions};
    use cophy_catalog::{ColumnId, TpchGen};
    use cophy_compress::CompressedWorkload;
    use cophy_optimizer::{
        BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend, WhatIfOptimizer,
    };
    use cophy_workload::{HetGen, HomGen, Query, Statement, UpdateGen, Workload};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn setup() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    #[test]
    fn state_bytes_charge_the_warm_list_it_holds() {
        let o = setup();
        let w = HetGen::new(5).generate(o.schema(), 20);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        session.recommend();
        let warm = session.warm.take().expect("a storage-only recommend runs the Lagrangian");
        let cold_bytes = session.approx_state_bytes();
        let (n, selection) = (warm.multipliers.len(), warm.selection.len());
        assert!(n > 0, "the solve left no multiplier");
        // The list leaves the solve sized to its entries: BIPGen lists an
        // item at most once per slot.
        assert_eq!(warm.multipliers.capacity(), n);
        assert_eq!(warm.selection.capacity(), selection);
        session.warm = Some(warm);
        assert_eq!(session.approx_state_bytes() - cold_bytes, n * 24 + selection);
    }

    #[test]
    fn session_recommend_then_retune_with_new_candidates() {
        let o = setup();
        let w = HomGen::new(31).generate(o.schema(), 20);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let r1 = session.recommend();
        assert!(r1.objective < r1.baseline_cost);

        // DBA adds hand-picked candidates; retune must not get worse.
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        session.add_candidates([
            Index::secondary(li, vec![ColumnId(10), ColumnId(4)]),
            Index::secondary(li, vec![ColumnId(0), ColumnId(10)]),
        ]);
        let r2 = session.recommend();
        assert!(
            r2.objective <= r1.objective * 1.001 + 1e-6,
            "more candidates cannot hurt: {} vs {}",
            r2.objective,
            r1.objective
        );
    }

    #[test]
    fn retune_reuses_warm_state_and_is_fast() {
        let o = setup();
        let w = HomGen::new(32).generate(o.schema(), 30);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let r1 = session.recommend();
        let cold_solve = r1.stats.solve_time;
        // Small delta: a couple of random candidates.
        let ord = o.schema().table_by_name("orders").unwrap().id;
        session.add_candidates([Index::secondary(ord, vec![ColumnId(6), ColumnId(1)])]);
        let r2 = session.recommend();
        // Warm solve should not blow up; typically it is much faster. We
        // assert a loose factor to stay robust on shared CI machines.
        assert!(
            r2.stats.solve_time <= cold_solve * 3 + Duration::from_millis(50),
            "warm {:?} vs cold {:?}",
            r2.stats.solve_time,
            cold_solve
        );
        assert!(r2.objective <= r1.objective * 1.001 + 1e-6);
    }

    #[test]
    fn recommend_streams_incumbents() {
        let o = setup();
        let w = HomGen::new(36).generate(o.schema(), 20);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let mut events: Vec<SolveProgress> = Vec::new();
        let r = session.recommend_with_progress(|p| events.push(*p));
        assert!(!events.is_empty(), "the interactive loop must stream progress");
        let (mut prev_inc, mut prev_gap) = (f64::INFINITY, f64::INFINITY);
        for e in &events {
            assert!(e.incumbent <= prev_inc + 1e-9, "incumbents must only improve");
            assert!(e.gap <= prev_gap + 1e-12, "gap series must not regress");
            prev_inc = e.incumbent;
            prev_gap = e.gap;
        }
        // The stream converges onto the returned recommendation (the fixed
        // update-base cost is added on top of the solver objective).
        assert!(prev_inc <= r.objective + 1e-6);
        assert!((events.last().unwrap().gap - r.gap).abs() < 1e-9);
    }

    #[test]
    fn exported_mps_reimports_and_solves_to_the_native_objective() {
        let o = setup();
        let w = HomGen::new(38).generate(o.schema(), 5);
        // Lean candidate grammar keeps the exact B&B cross-check fast.
        let opts = CoPhyOptions {
            cgen: crate::cgen::CGen { max_key_columns: 2, max_include_columns: 0 },
            ..Default::default()
        };
        let cophy = CoPhy::new(&o, opts);
        let session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let text = session.export_mps();
        let (cols, rows) = cophy_bip::lint_mps(&text).expect("export passes the format lint");
        assert!(rows > 0 && cols > 0, "the Theorem-1 BIP is non-trivial");

        // The re-import is lossless: re-exporting it reproduces every
        // non-comment line bit-for-bit (only the `* xj = name` comments
        // differ — the parsed model carries the sanitized names), so solving
        // the parsed model is solving exactly the model the text describes.
        let imported = cophy_bip::parse_mps(&text).expect("export re-imports");
        let payload =
            |s: &str| s.lines().filter(|l| !l.starts_with('*')).collect::<Vec<_>>().join("\n");
        assert_eq!(payload(&cophy_bip::write_mps(&imported, "cophy_bip")), payload(&text));

        // The native in-memory BIP and its MPS round trip solve to the same
        // objective within the engines' proven gap slack.
        let solve_opts = SolveOptions::default();
        let (prepared, candidates) = (&*session.ingest.prepared, &session.ingest.candidates);
        let exact = cophy.exact_state(prepared, candidates, session.constraints());
        let native = BranchBound::new().solve(exact.dm.model(), &solve_opts);
        let round = BranchBound::new().solve(&imported, &solve_opts);
        assert_eq!(native.status, round.status);
        let slack = (native.gap.max(round.gap) + 1e-9) * native.objective.abs().max(1.0);
        assert!(
            (native.objective - round.objective).abs() <= slack,
            "native {} vs re-imported {} (slack {slack})",
            native.objective,
            round.objective
        );
    }

    #[test]
    fn adding_statements_extends_blocks() {
        let o = setup();
        let w = HomGen::new(33).generate(o.schema(), 10);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let r1 = session.recommend();
        let more = HomGen::new(34).generate(o.schema(), 5);
        session.try_add_source(&mut more.source(), DEFAULT_CHUNK).unwrap();
        assert_eq!(session.n_statements(), 15);
        let r2 = session.recommend();
        // More statements → higher total workload cost.
        assert!(r2.objective > r1.objective);
        assert!(r2.baseline_cost > r1.baseline_cost);
    }

    #[test]
    fn chunked_ingestion_is_invariant_to_chunk_size() {
        let o = setup();
        let opts = CoPhyOptions {
            compression: cophy_compress::CompressionPolicy::default_epsilon(),
            ..Default::default()
        };
        let cophy = CoPhy::new(&o, opts);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let empty = Workload::new();
        let mut models: Vec<String> = Vec::new();
        for chunk in [1usize, 7, 64, 512] {
            let mut s =
                cophy.try_session_streaming(&mut empty.source(), constraints.clone()).unwrap();
            s.try_add_source(&mut HomGen::new(9).stream(o.schema(), 60), chunk).unwrap();
            assert_eq!(s.n_statements(), 60);
            models.push(s.export_mps());
        }
        assert!(models.windows(2).all(|p| p[0] == p[1]), "model must not depend on chunk size");
    }

    #[test]
    fn streaming_session_keeps_residency_at_representatives() {
        let o = setup();
        let opts = CoPhyOptions {
            compression: cophy_compress::CompressionPolicy::default_epsilon(),
            ..Default::default()
        };
        let cophy = CoPhy::new(&o, opts);
        let mut src = HomGen::new(2).stream(o.schema(), 400);
        let session = cophy
            .try_session_streaming(&mut src, ConstraintSet::storage_fraction(o.schema(), 0.5))
            .unwrap();
        assert_eq!(session.n_statements(), 400);
        // Only representatives are prepared/resident — the stream itself is
        // gone.  A homogeneous 400-statement stream must cluster hard.
        assert!(
            session.n_representatives() * 4 <= session.n_statements(),
            "homogeneous stream must cluster: {} representatives",
            session.n_representatives()
        );
    }

    /// A live optimizer behind a probe quota that can be lifted: the probe
    /// that would exceed it fails, permanently, until the limit moves.
    #[derive(Debug)]
    struct QuotaBackend {
        inner: WhatIfOptimizer,
        limit: AtomicU64,
    }

    impl WhatIfBackend for QuotaBackend {
        fn schema(&self) -> &cophy_catalog::Schema {
            self.inner.schema()
        }
        fn profile(&self) -> SystemProfile {
            self.inner.profile()
        }
        fn cost_model(&self) -> &CostModel {
            self.inner.cost_model()
        }
        fn try_probe(
            &self,
            q: &Query,
            config: &Configuration,
        ) -> Result<ProbeAnswer, BackendError> {
            let (spent, limit) = (self.inner.what_if_calls(), self.limit.load(Ordering::SeqCst));
            if spent >= limit {
                return Err(BackendError::QuotaExceeded { spent, limit });
            }
            self.inner.try_probe(q, config)
        }
        fn what_if_calls(&self) -> u64 {
            self.inner.what_if_calls()
        }
        fn reset_call_counter(&self) {
            self.inner.reset_call_counter()
        }
    }

    /// Everything a failed chunk must leave as it found it.
    #[derive(Debug, PartialEq)]
    struct IngestState {
        clustering: CompressedWorkload,
        /// Bits of every float of the clustering (`==` would let `-0.0`
        /// pass for `0.0`).
        clustering_bits: Vec<u64>,
        prepared_weight_bits: Vec<u64>,
        candidates: Vec<Index>,
        statements: usize,
    }

    fn ingest_state(session: &TuningSession) -> IngestState {
        let cw = session.ingest.compressed.clone().expect("compression is on");
        let mut clustering_bits = vec![cw.total_weight().to_bits()];
        for id in cw.representatives().ids() {
            let f = cw.representative_features(id).expect("one feature row per representative");
            clustering_bits.push(cw.representatives().weight(id).to_bits());
            clustering_bits.extend(f.selectivities.iter().map(|s| s.to_bits()));
            clustering_bits.push(f.update_rows.to_bits());
        }
        IngestState {
            clustering_bits,
            prepared_weight_bits: session
                .ingest
                .prepared
                .read(|pw| pw.queries.iter().map(|pq| pq.weight.to_bits()).collect()),
            candidates: session.candidates().iter().map(|(_, ix)| ix.clone()).collect(),
            statements: cw.n_original(),
            clustering: cw,
        }
    }

    #[test]
    fn failed_chunk_rolls_back_exactly_and_the_stream_resumes() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        let schema = TpchGen::default().schema();
        for case in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x0117_BACC ^ case);
            // Template statements (merges, drifting centroids, novel shells)
            // between diverse ones (new clusters, probes), a third updates.
            let hom = HomGen::new(rng.gen_range(0..1000)).generate(&schema, 120);
            let het = HetGen::new(rng.gen_range(0..1000)).generate(&schema, 24);
            let mut base = Workload::new();
            for (i, (_, stmt, weight)) in hom.iter().enumerate() {
                base.push_weighted(stmt.clone(), weight);
                if let Some((_, stmt, weight)) = het.iter().nth(i / 5).filter(|_| i % 5 == 4) {
                    base.push_weighted(stmt.clone(), weight);
                }
            }
            let stream: Vec<(Statement, f64)> = UpdateGen::new(rng.gen_range(0..1000))
                .mix_into(&schema, &base, 0.3)
                .iter()
                .map(|(_, stmt, weight)| (stmt.clone(), weight))
                .collect();
            let chunks: Vec<Workload> = stream
                .chunks(rng.gen_range(8..64))
                .map(|c| {
                    let mut w = Workload::new();
                    for (stmt, weight) in c {
                        w.push_weighted(stmt.clone(), *weight);
                    }
                    w
                })
                .collect();
            let backend = || QuotaBackend {
                inner: WhatIfOptimizer::new(schema.clone(), SystemProfile::A),
                limit: u64::MAX.into(),
            };
            let opts = CoPhyOptions {
                compression: cophy_compress::CompressionPolicy::default_epsilon(),
                ..Default::default()
            };
            let constraints = ConstraintSet::storage_fraction(&schema, 0.5);
            let empty = Workload::new();

            // The session that never fails.
            let healthy = backend();
            let cophy = CoPhy::new(&healthy, opts.clone());
            let mut reference =
                cophy.try_session_streaming(&mut empty.source(), constraints.clone()).unwrap();
            for chunk in &chunks {
                reference.try_add_source(&mut chunk.source(), chunk.len()).unwrap();
            }
            let probes = healthy.what_if_calls();
            assert!(probes > 0);

            // The same stream against a quota that runs out at a random probe
            // (of the later ones: the chunk then merges before it fails).
            let flaky = backend();
            flaky.limit.store(rng.gen_range(probes / 3..probes), Ordering::SeqCst);
            let cophy = CoPhy::new(&flaky, opts);
            let mut session =
                cophy.try_session_streaming(&mut empty.source(), constraints).unwrap();
            let mut failed = None;
            for (i, chunk) in chunks.iter().enumerate() {
                let before = ingest_state(&session);
                if session.try_add_source(&mut chunk.source(), chunk.len()).is_err() {
                    // (a) the clustering, (b) the cache, the candidates and
                    // the committed prefix are as before the chunk; the
                    // probes the chunk did issue stay on the books.
                    assert_eq!(ingest_state(&session), before, "case {case}, chunk {i}");
                    assert_eq!(session.n_statements(), before.statements);
                    assert_eq!(
                        before.statements,
                        chunks[..i].iter().map(Workload::len).sum::<usize>()
                    );
                    assert_eq!(session.ingest.what_if_calls, flaky.what_if_calls());
                    assert_eq!(session.cache().what_if_calls(), flaky.what_if_calls());
                    failed = Some(i);
                    break;
                }
            }
            let failed = failed.expect("a quota below the healthy run's probes must run out");

            // (c) with the quota lifted the rest of the stream lands the
            // session where the healthy one is.
            flaky.limit.store(u64::MAX, Ordering::SeqCst);
            for chunk in &chunks[failed..] {
                session.try_add_source(&mut chunk.source(), chunk.len()).unwrap();
            }
            assert_eq!(ingest_state(&session), ingest_state(&reference), "case {case}");
            assert_eq!(session.export_mps(), reference.export_mps(), "case {case}");
            assert_eq!(
                session.recommend().objective.to_bits(),
                reference.recommend().objective.to_bits(),
                "case {case}"
            );
        }
    }

    fn faulty(plan: &cophy_optimizer::FaultPlan) -> cophy_optimizer::FaultInjectingBackend {
        cophy_optimizer::FaultInjectingBackend::new(Box::new(setup()), plan.clone())
    }

    fn fast_retry(max_attempts: u32) -> cophy_optimizer::RetryPolicy {
        cophy_optimizer::RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        }
    }

    #[test]
    fn every_door_retries_transient_faults_into_the_fault_free_answer() {
        use cophy_optimizer::FaultPlan;
        let o = setup();
        let w = HomGen::new(77).generate(o.schema(), 10);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let clean = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();

        let plan = FaultPlan::transient_only(0xFA17, 0.4, 2);
        let opts = CoPhyOptions { retry: fast_retry(4), ..Default::default() };
        let (batch, streamed, session) = (faulty(&plan), faulty(&plan), faulty(&plan));
        let via_tune = CoPhy::new(&batch, opts.clone()).try_tune(&w, &constraints).unwrap();
        let via_source = CoPhy::new(&streamed, opts.clone())
            .try_tune_source(&mut w.source(), &constraints)
            .unwrap();
        let cophy = CoPhy::new(&session, opts);
        let mut s =
            cophy.try_session_streaming(&mut Workload::new().source(), constraints).unwrap();
        s.try_add_source(&mut w.source(), DEFAULT_CHUNK).unwrap();
        let via_add = s.recommend();

        let d = via_tune.degradation.clone().expect("recovered faults are still reported");
        assert!(d.probes_recovered > 0, "the schedule must have fired");
        assert_eq!(d.statements_degraded, 0);
        for rec in [&via_tune, &via_source, &via_add] {
            assert_eq!(rec.objective.to_bits(), clean.objective.to_bits());
            assert_eq!(rec.configuration, clean.configuration);
            assert_eq!(rec.degradation.as_ref(), Some(&d), "one policy behind every door");
        }
    }

    #[test]
    fn chunk_below_the_coverage_floor_rolls_back_and_the_session_stands() {
        use cophy_optimizer::FaultPlan;
        let schema = TpchGen::default().schema();
        let w = HetGen::new(5).generate(&schema, 16);
        let plan = FaultPlan { permanent_rate: 0.3, ..FaultPlan::transient_only(0xF100D, 0.3, 1) };
        let constraints = ConstraintSet::storage_fraction(&schema, 0.5);
        let empty = Workload::new();
        let opts = |min_coverage| CoPhyOptions {
            compression: cophy_compress::CompressionPolicy::default_epsilon(),
            retry: fast_retry(2),
            min_coverage,
            ..Default::default()
        };
        let one = |stmt: &Statement, weight| {
            let mut w = Workload::new();
            w.push_weighted(stmt.clone(), weight);
            w
        };

        // Which statements lose probes for good is a function of the plan's
        // seed: a scout session with no floor sorts them.
        let scout_backend = faulty(&plan);
        let scout = CoPhy::new(&scout_backend, opts(0.0));
        let mut s = scout.try_session_streaming(&mut empty.source(), constraints.clone()).unwrap();
        let (mut healthy, mut doomed) = (Workload::new(), Workload::new());
        for (_, stmt, weight) in w.iter() {
            let lost = |s: &TuningSession| s.degradation().map_or(0, |d| d.statements_degraded);
            let before = lost(&s);
            s.try_add_source(&mut one(stmt, weight).source(), 1).unwrap();
            let side = if lost(&s) > before { &mut doomed } else { &mut healthy };
            side.push_weighted(stmt.clone(), weight);
        }
        assert!(healthy.len() >= 3 && !doomed.is_empty(), "{} / {}", healthy.len(), doomed.len());

        // A live session that tolerates no degradation: the healthy
        // statements commit (their transient faults recover) ...
        let backend = faulty(&plan);
        let cophy = CoPhy::new(&backend, opts(1.0));
        let mut session =
            cophy.try_session_streaming(&mut empty.source(), constraints.clone()).unwrap();
        session.try_add_source(&mut healthy.source(), DEFAULT_CHUNK).unwrap();
        let degradation = session.degradation().cloned();
        assert!(degradation.as_ref().is_some_and(|d| d.probes_recovered > 0 && d.coverage == 1.0));
        let before = ingest_state(&session);

        // ... and a chunk that merges onto them and then loses probes is
        // refused whole: the coverage error, and no trace of the chunk.
        let mut chunk = healthy.truncate(3);
        for (_, stmt, weight) in doomed.iter() {
            chunk.push_weighted(stmt.clone(), weight);
        }
        let err = session.try_add_source(&mut chunk.source(), DEFAULT_CHUNK).unwrap_err();
        assert!(matches!(err, CoPhyError::Coverage { floor, .. } if floor == 1.0), "{err:?}");
        assert!(err.to_string().contains("coverage"), "{err}");
        assert_eq!(ingest_state(&session), before);
        assert_eq!(session.degradation(), degradation.as_ref());
        assert_eq!(session.n_statements(), healthy.len());
        assert_eq!(session.cache().what_if_calls(), backend.what_if_calls());

        // The session still answers, and takes what it can take.
        assert!(session.recommend().gap.is_finite());
        session.try_add_source(&mut healthy.truncate(3).source(), DEFAULT_CHUNK).unwrap();
        assert_eq!(session.n_statements(), healthy.len() + 3);

        // The fault account went back with the chunk, not just the report: a
        // twin that never saw the refused chunk reports the same.
        let twin_backend = faulty(&plan);
        let twin = CoPhy::new(&twin_backend, opts(1.0));
        let mut twin = twin.try_session_streaming(&mut empty.source(), constraints).unwrap();
        twin.try_add_source(&mut healthy.source(), DEFAULT_CHUNK).unwrap();
        twin.try_add_source(&mut healthy.truncate(3).source(), DEFAULT_CHUNK).unwrap();
        assert_eq!(session.degradation(), twin.degradation());
    }

    #[test]
    fn over_pinning_is_refused_and_leaves_the_session_unchanged() {
        let o = setup();
        let w = HomGen::new(13).generate(o.schema(), 12);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let roomy = cophy
            .try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.8))
            .unwrap()
            .recommend();
        let tight = ConstraintSet::none().with(crate::Constraint::Storage { budget_bytes: 4096 });
        let mut session = cophy.try_session(&w, tight.clone()).unwrap();
        for ix in roomy.configuration.indexes() {
            let fixings = session.fixings().to_vec();
            match session.pin_index(ix) {
                Ok(()) => assert!(session.fixings().len() > fixings.len()),
                Err(e) => {
                    assert!(matches!(e, CoPhyError::Infeasible(_)), "{e:?}");
                    assert_eq!(session.fixings(), &fixings[..]);
                }
            }
        }
        assert!(session.fixings().len() < roomy.configuration.len(), "4 KiB cannot hold them all");
        assert!(session.recommend().gap.is_finite(), "what is pinned fits, so the tune answers");

        // The same holds for a budget change under existing pins.
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.8)).unwrap();
        session.pin_index(&roomy.configuration.indexes()[0]).unwrap();
        let err = session.set_constraints(tight).unwrap_err();
        assert!(matches!(err, CoPhyError::Infeasible(_)), "{err:?}");
        assert_eq!(session.constraints().storage_budget(), Some(o.schema().data_bytes() * 8 / 10));
    }

    #[test]
    fn compressed_session_absorbs_deltas_without_new_probes() {
        let o = setup();
        let w = HomGen::new(37).generate(o.schema(), 30);
        let opts = crate::CoPhyOptions {
            compression: cophy_compress::CompressionPolicy::default_epsilon(),
            ..Default::default()
        };
        let cophy = CoPhy::new(&o, opts);
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        assert_eq!(session.n_statements(), 30);
        assert!(session.n_representatives() < 30, "W_hom must cluster");
        let r1 = session.recommend();
        assert_eq!(r1.compression.unwrap().n_original, 30);

        // Re-send part of the workload verbatim: pure weight bumps, zero
        // what-if calls, no new representatives.
        let reps_before = session.n_representatives();
        let calls_before = o.what_if_calls();
        session.try_add_source(&mut w.truncate(10).source(), DEFAULT_CHUNK).unwrap();
        assert_eq!(o.what_if_calls(), calls_before, "duplicates must not probe");
        assert_eq!(session.n_representatives(), reps_before);
        assert_eq!(session.n_statements(), 40);

        // The recommendation reflects the grown workload.
        let r2 = session.recommend();
        assert!(r2.baseline_cost > r1.baseline_cost);
        assert_eq!(r2.compression.unwrap().n_original, 40);

        // A genuinely novel statement pays exactly one preparation, and
        // CGen extends the candidate set so indexes can actually serve it.
        let ps = o.schema().table_by_name("partsupp").unwrap().id;
        let aq = o.schema().resolve("partsupp.ps_availqty").unwrap();
        let mut q = cophy_workload::Query::scan(ps);
        q.predicates.push(cophy_workload::Predicate::gt(aq, 100.0));
        let mut novel = Workload::new();
        novel.push(cophy_workload::Statement::Select(q));
        session.try_add_source(&mut novel.source(), DEFAULT_CHUNK).unwrap();
        assert!(o.what_if_calls() > calls_before, "novel statement must probe");
        assert_eq!(session.n_representatives(), reps_before + 1);
        assert!(
            session
                .candidates()
                .iter()
                .any(|(_, ix)| ix.table == ps && ix.key.first() == Some(&aq.column)),
            "candidate set must gain an index keyed on the novel predicate column"
        );
    }

    #[test]
    fn try_session_surfaces_invalid_options_as_errors() {
        let o = setup();
        let w = HomGen::new(38).generate(o.schema(), 5);
        let storage = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let bad_eps = crate::CoPhyOptions {
            compression: cophy_compress::CompressionPolicy::Epsilon(-0.5),
            ..Default::default()
        };
        let err = CoPhy::new(&o, bad_eps).try_session(&w, storage.clone()).err().unwrap();
        assert!(err.to_string().contains("invalid compression ε"), "{err}");

        let li = o.schema().table_by_name("lineitem").unwrap().id;
        let rich = storage.with(crate::Constraint::IndexCount {
            filter: crate::IndexFilter::on_table(li),
            cmp: crate::Cmp::Le,
            value: 1,
        });
        let cophy = CoPhy::new(&o, crate::CoPhyOptions::default());
        assert!(cophy.try_session(&w, rich).is_err(), "rich constraints are not sessionable");
    }

    #[test]
    fn sweep_storage_is_one_warm_chain() {
        let o = setup();
        let w = HomGen::new(40).generate(o.schema(), 8);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let total = o.schema().data_bytes();
        // Loose → tight, the paper's sweep direction: every step pinches the
        // storage row and pays dual pivots from the previous basis.
        let budgets: Vec<u64> =
            [1.0, 0.4, 0.15, 0.05].iter().map(|m| (total as f64 * m) as u64).collect();
        let mut events = vec![0usize; budgets.len()];
        let points =
            session.try_sweep_storage_with_progress(&budgets, |i, _| events[i] += 1).unwrap();
        assert_eq!(points.len(), budgets.len());
        for (p, &b) in points.iter().zip(&budgets) {
            assert!(
                p.configuration.size_bytes(o.schema()) <= b,
                "sweep point must respect its budget"
            );
            assert!(p.objective >= p.bound - 1e-6);
            assert!(p.gap.is_finite());
        }
        // Tighter budgets cannot cost less (modulo both points' gap slack).
        for pair in points.windows(2) {
            assert!(
                pair[1].objective >= pair[0].objective / 1.06 - 1e-6,
                "tightening the budget must not lower the cost: {} then {}",
                pair[0].objective,
                pair[1].objective
            );
        }
        assert!(events.iter().all(|&e| e > 0), "every sweep point must stream progress");
        // (The ≥3× pivot economy of the warm chain vs K cold tunes is gated
        // at release scale by the `fig10_interactive` bench bin and the
        // interactive integration tests.)
    }

    #[test]
    fn pin_and_ban_shape_the_recommendation() {
        let o = setup();
        let w = HomGen::new(41).generate(o.schema(), 8);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let r_free = session.recommend();
        assert!(!r_free.configuration.is_empty());

        let target = r_free.configuration.indexes()[0].clone();
        session.ban_index(&target);
        let r_ban = session.recommend();
        assert!(!r_ban.configuration.contains(&target), "banned index must stay out");
        assert!(
            session.constraints.check_configuration(o.schema(), &r_ban.configuration).is_ok(),
            "fixed solve must stay feasible"
        );
        assert!(
            r_ban.objective >= r_free.objective / 1.05 - 1e-6,
            "banning cannot beat the free optimum: {} vs {}",
            r_ban.objective,
            r_free.objective
        );

        session.unfix_index(&target);
        session.pin_index(&target).unwrap();
        let r_pin = session.recommend();
        assert!(r_pin.configuration.contains(&target), "pinned index must be in");
        assert!(session.constraints.check_configuration(o.schema(), &r_pin.configuration).is_ok());

        // Pins survive a budget sweep; every point honors them.
        let total = o.schema().data_bytes();
        let budgets = [total / 2, total];
        for p in session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap() {
            assert!(p.configuration.contains(&target), "sweep must honor the pin");
        }
    }

    #[test]
    fn pinning_an_unknown_index_adopts_it() {
        let o = setup();
        let w = HomGen::new(43).generate(o.schema(), 6);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let ps = o.schema().table_by_name("partsupp").unwrap().id;
        let pet = Index::secondary(ps, vec![ColumnId(2), ColumnId(3)]);
        let before = session.candidates().len();
        session.pin_index(&pet).unwrap();
        assert_eq!(session.candidates().len(), before + 1, "pet index adopted as candidate");
        let r = session.recommend();
        assert!(r.configuration.contains(&pet));
    }

    #[test]
    fn what_if_is_free_of_optimizer_calls() {
        let o = setup();
        let w = HomGen::new(42).generate(o.schema(), 10);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let rec = session.recommend();
        let calls = o.what_if_calls();
        let ans = session.what_if(&rec.configuration);
        let empty = session.what_if(&cophy_catalog::Configuration::empty());
        assert_eq!(o.what_if_calls(), calls, "what_if must never touch the optimizer");
        // The cache-costed answer is the recommendation's own objective.
        assert!(
            (ans.cost - rec.objective).abs() / rec.objective < 1e-6,
            "what_if {} vs recommendation {}",
            ans.cost,
            rec.objective
        );
        assert!((empty.cost - rec.baseline_cost).abs() / rec.baseline_cost < 1e-9);
        assert!(ans.improvement() > 0.0);
        assert!(ans.constraint_violation.is_none());
        assert!(ans.size_bytes > 0);
        // An over-budget probe is flagged but still costed.
        let everything = cophy_catalog::Configuration::from_indexes(
            session.candidates().iter().map(|(_, ix)| ix.clone()),
        );
        if everything.size_bytes(o.schema()) > o.schema().data_bytes() / 2 {
            let over = session.what_if(&everything);
            assert!(over.constraint_violation.is_some());
            assert!(over.cost.is_finite());
        }
        assert_eq!(o.what_if_calls(), calls);
    }

    #[test]
    fn sessions_share_one_inum_cache() {
        let o = setup();
        let w = HomGen::new(44).generate(o.schema(), 8);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
        let cache = session.cache();
        let calls = o.what_if_calls();
        let mut twin = cophy
            .try_session_shared(
                Arc::clone(&cache),
                session.candidates().clone(),
                ConstraintSet::storage_fraction(o.schema(), 0.25),
            )
            .unwrap();
        assert_eq!(o.what_if_calls(), calls, "a shared open must not re-prepare");
        assert_eq!(twin.n_statements(), 8);
        let a = session.what_if(&Configuration::empty());
        let b = twin.what_if(&Configuration::empty());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "one cache, one answer");

        // Statement deltas through one session are visible through the other.
        let more = HomGen::new(45).generate(o.schema(), 2);
        twin.try_add_source(&mut more.source(), DEFAULT_CHUNK).unwrap();
        assert_eq!(cache.len(), 10);
        assert_eq!(session.n_representatives(), 10);
        let a2 = session.what_if(&Configuration::empty());
        assert!(a2.cost > a.cost, "grown workload must cost more");
        let r = twin.recommend();
        assert!(r.objective < r.baseline_cost);
    }

    #[test]
    fn budget_change_respected_after_retune() {
        let o = setup();
        let w = HomGen::new(35).generate(o.schema(), 15);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session =
            cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
        let _ = session.recommend();
        session.set_constraints(ConstraintSet::storage_fraction(o.schema(), 0.02)).unwrap();
        let r = session.recommend();
        assert!(
            r.configuration.size_bytes(o.schema()) <= o.schema().data_bytes() / 50 + 1,
            "budget not respected after retune"
        );
    }

    #[test]
    fn every_sweep_point_imposes_its_budget_without_a_storage_row() {
        let o = setup();
        let w = HomGen::new(77).generate(o.schema(), 12);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session = cophy.try_session(&w, ConstraintSet::none()).unwrap();
        let budgets = [1_227_134_060, 24_542_681, 1];
        let points = session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap();
        for p in &points {
            let size = p.configuration.size_bytes(o.schema());
            assert!(
                size <= p.budget_bytes,
                "{size} B answered for a budget of {} B",
                p.budget_bytes
            );
        }
        assert!(points[2].configuration.is_empty());
    }

    #[test]
    fn a_sweep_out_of_time_has_no_incumbent_and_is_not_infeasible() {
        let o = setup();
        let w = HetGen::new(5).generate(o.schema(), 60);
        let storage = ConstraintSet::storage_fraction(o.schema(), 0.05);
        let budgets = [storage.storage_budget().unwrap()];
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let mut session = cophy.try_session(&w, storage.clone()).unwrap();
        let fired = CancelToken::new();
        fired.cancel();
        session.set_cancel(Some(fired));
        let err = session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap_err();
        assert_eq!(err, CoPhyError::NoIncumbent(MipStatus::TimeLimit), "{err}");

        let mut out_of_time = CoPhyOptions::default();
        out_of_time.budget.time_limit = Some(Duration::ZERO);
        let cophy = CoPhy::new(&o, out_of_time);
        let mut session = cophy
            .try_session_shared(session.cache(), session.candidates().clone(), storage)
            .unwrap();
        let err = session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap_err();
        assert_eq!(err, CoPhyError::NoIncumbent(MipStatus::TimeLimit), "{err}");
    }
}
