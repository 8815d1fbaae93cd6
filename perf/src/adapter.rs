//! Every call into the product, and nothing else.
//!
//! The rest of the benchmark sees plain numbers and the opaque handles
//! defined here, so the planned collapse of the `try_tune*` / `prepare_*` /
//! `try_session*` entry points is a mechanical edit of this one file.
//!
//! Untraced entry points go through the product's front door
//! (`CoPhy::try_tune`, `CoPhy::try_tune_source`, `cophy_server::Client`).
//! The traced twins call the layers behind that door one by one, in the
//! order the front door does, each inside a [`Tracer`] span; the caller
//! asserts both reach the bit-identical objective, which is what keeps the
//! mirror honest when the product changes.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cophy::{
    BipGen, CandidateSet, Cmp, CoPhy, CoPhyOptions, CompressedWorkload, CompressionPolicy,
    Constraint, ConstraintSet, IndexFilter, InumCache, Recommendation, SolveBudget, SolveProgress,
    SolverBackend, TuningSession, WorkloadSource, DEFAULT_CHUNK,
};
use cophy_bip::{BranchBound, LagrangianSolver, MipStatus, SimplexSolver, SolveOptions};
use cophy_catalog::{Configuration, Index, Schema, TpchGen};
use cophy_inum::{Inum, PreparedWorkload};
use cophy_optimizer::trace::fmt_index;
use cophy_optimizer::{
    BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_server::{
    parse_spec, parse_spec_source, Client, ClientError, ErrCode, ProgressLine, Request, Server,
    ServerConfig, ServerHandle, TuneReply,
};
use cophy_workload::{HetGen, HetStream, HomGen, HomStream, Query, Statement, UpdateGen, Workload};
use rand::{rngs::SmallRng, SeedableRng};

use crate::trace::Tracer;

/// Named counts and timings a traced run collects, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Storage budget of every workload, as a share of the data size (the
/// paper's Figure-4 setting).
const STORAGE_FRACTION: f64 = 0.5;

/// The what-if optimizer under the advisor: TPC-H schema, system profile A.
pub struct Engine {
    optimizer: WhatIfOptimizer,
}

impl Engine {
    pub fn new() -> Engine {
        Engine { optimizer: WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A) }
    }

    fn schema(&self) -> &Schema {
        self.optimizer.schema()
    }
}

/// Termination is by gap or by node/iteration count, never by the clock, so
/// counters repeat exactly and wall time measures work done.
fn budget(gap_limit: f64, nodes: usize) -> SolveBudget {
    SolveBudget { gap_limit, time_limit: None, node_limit: Some(nodes), parallelism: 1 }
}

/// Which solver backend a scenario runs, with its iteration/node cap.
#[derive(Debug, Clone, Copy)]
pub enum Solver {
    /// Gap 0.05 or `iters` subgradient iterations, whichever comes first.
    Lagrangian { iters: usize },
    /// Exactly `nodes` branch-and-bound nodes: the gap limit is that of an
    /// exact solve, so the node cap ends every solve and a faster LP kernel
    /// shows as less wall at equal nodes.  (Gap-terminated B&B was measured
    /// chaotic: the same 24 statements end after 0.15 s or after 2 s.)
    BranchBound { nodes: usize },
}

/// The statement mix of a batch scenario.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// The fifteen `HomGen` templates in rotation, each instantiated with
    /// seeded parameters — equal counts per template, as the TPC-H query
    /// generator the paper used produces.  (`HomGen::generate` jitters the
    /// rotation, and a template's share decides the probe count: at 150
    /// statements its tune wall was measured 1.5–3.5 s from seed to seed,
    /// against 2.1–2.4 s with equal counts.)
    Hom,
    Het,
    /// `HetGen` plus the same number of UPDATEs (50 %).
    HetUpdate,
}

/// `HomGen` with one `HetGen` statement after every `het_every` — a
/// bench-side [`WorkloadSource`], as a DBA's query-log tailer would be.
struct MixSource<'a> {
    hom: HomStream<'a>,
    het: HetStream<'a>,
    het_every: usize,
    since_het: usize,
}

impl WorkloadSource for MixSource<'_> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let mut produced = 0;
        while produced < max {
            let got = if self.since_het == self.het_every && self.het.remaining() != Some(0) {
                self.since_het = 0;
                self.het.next_chunk(1, out)
            } else {
                let take = (max - produced).min(self.het_every - self.since_het).max(1);
                let got = self.hom.next_chunk(take, out);
                self.since_het = (self.since_het + got).min(self.het_every);
                got
            };
            if got == 0 {
                break;
            }
            produced += got;
        }
        produced
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.hom.remaining()? + self.het.remaining()?)
    }
}

/// A [`WorkloadSource`] that records one `workload.next_chunk` span per pull.
struct TracedSource<'a, S> {
    inner: S,
    tracer: &'a Tracer,
}

impl<S: WorkloadSource> WorkloadSource for TracedSource<'_, S> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        self.tracer.span("workload.next_chunk", || self.inner.next_chunk(max, out))
    }

    fn remaining(&self) -> Option<usize> {
        self.inner.remaining()
    }
}

/// A what-if backend that records one `optimizer.probe` span per probe
/// (traced pass only; the untraced pass talks to the optimizer directly).
#[derive(Debug)]
struct TimedBackend<'a> {
    inner: &'a WhatIfOptimizer,
    tracer: &'a Tracer,
}

impl WhatIfBackend for TimedBackend<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn profile(&self) -> SystemProfile {
        self.inner.profile()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        let start = self.tracer.now_ns();
        let answer = WhatIfBackend::try_probe(self.inner, q, config);
        self.tracer.record("optimizer.probe", start, self.tracer.now_ns());
        answer
    }

    fn what_if_calls(&self) -> u64 {
        self.inner.what_if_calls()
    }

    fn reset_call_counter(&self) {
        self.inner.reset_call_counter()
    }
}

enum Input {
    Batch(Workload),
    Stream { seed: u64, hom: usize, het_every: usize },
}

/// One fully specified tuning problem: input, constraints and options.
pub struct Scenario {
    input: Input,
    constraints: ConstraintSet,
    options: CoPhyOptions,
}

/// What a tune returned, as plain numbers plus the opaque configuration.
#[derive(Debug, Clone)]
pub struct Tuned {
    pub objective: f64,
    pub bound: f64,
    pub gap: f64,
    pub baseline: f64,
    pub probes: u64,
    pub statements: usize,
    pub candidates: usize,
    pub variables: usize,
    configuration: Configuration,
}

/// What INUM and CGen produced for a traced tune, kept for the single-layer
/// measurements of [`Scenario::probe_layers`].
pub struct Prepared {
    prepared: PreparedWorkload,
    candidates: CandidateSet,
}

impl Tuned {
    fn from_recommendation(rec: Recommendation, statements: usize) -> Tuned {
        Tuned {
            objective: rec.objective,
            bound: rec.bound,
            gap: rec.gap,
            baseline: rec.baseline_cost,
            probes: rec.stats.what_if_calls,
            statements: rec.compression.map_or(statements, |c| c.n_original),
            candidates: rec.stats.n_candidates,
            variables: rec.stats.n_variables,
            configuration: rec.configuration,
        }
    }

    pub fn indexes(&self) -> usize {
        self.configuration.len()
    }
}

impl Scenario {
    /// A materialized workload of `n` generated statements (`Mix::HetUpdate`
    /// doubles it with UPDATEs), storage 0.5 × data; a branch-and-bound
    /// scenario adds the repository's long-standing rich constraint,
    /// `IndexCount(lineitem) ≤ 2`.  Compression is off.
    pub fn batch(engine: &Engine, mix: Mix, seed: u64, n: usize, solver: Solver) -> Scenario {
        let schema = engine.schema();
        let workload = match mix {
            Mix::Hom => {
                let (gen, mut rng) = (HomGen::new(seed), SmallRng::seed_from_u64(seed));
                (0..n)
                    .map(|i| {
                        Statement::Select(gen.instantiate(schema, i % HomGen::TEMPLATES, &mut rng))
                    })
                    .collect()
            }
            Mix::Het => HetGen::new(seed).generate(schema, n),
            Mix::HetUpdate => UpdateGen::new(seed ^ 0x5EED).mix_into(
                schema,
                &HetGen::new(seed).generate(schema, n),
                0.5,
            ),
        };
        let storage = ConstraintSet::storage_fraction(schema, STORAGE_FRACTION);
        let (constraints, backend, budget) = match solver {
            Solver::Lagrangian { iters } => (storage, SolverBackend::Auto, budget(0.05, iters)),
            Solver::BranchBound { nodes } => {
                let lineitem = schema.table_by_name("lineitem").expect("TPC-H lineitem").id;
                let rich = storage.with(Constraint::IndexCount {
                    filter: IndexFilter::on_table(lineitem),
                    cmp: Cmp::Le,
                    value: 2,
                });
                (rich, SolverBackend::BranchBound, budget(SolveBudget::exact().gap_limit, nodes))
            }
        };
        Scenario {
            input: Input::Batch(workload),
            constraints,
            options: CoPhyOptions { budget, backend, ..Default::default() },
        }
    }

    /// `hom` homogeneous statements streamed with one heterogeneous
    /// statement after every `het_every`, compressed online with the default
    /// ε; the workload is never materialized.
    pub fn stream(
        engine: &Engine,
        seed: u64,
        hom: usize,
        het_every: usize,
        iters: usize,
    ) -> Scenario {
        Scenario {
            input: Input::Stream { seed, hom, het_every },
            constraints: ConstraintSet::storage_fraction(engine.schema(), STORAGE_FRACTION),
            options: CoPhyOptions {
                budget: budget(0.05, iters),
                compression: CompressionPolicy::default_epsilon(),
                ..Default::default()
            },
        }
    }

    /// Statements the scenario feeds the advisor.
    pub fn statements(&self) -> usize {
        match &self.input {
            Input::Batch(w) => w.len(),
            Input::Stream { hom, het_every, .. } => hom + hom / het_every,
        }
    }

    fn source<'a>(&self, schema: &'a Schema) -> MixSource<'a> {
        let Input::Stream { seed, hom, het_every } = self.input else {
            unreachable!("only stream scenarios ask for a source")
        };
        MixSource {
            hom: HomGen::new(seed).stream(schema, hom),
            het: HetGen::new(seed ^ 0x4E7).stream(schema, hom / het_every),
            het_every,
            since_het: 0,
        }
    }

    /// One tune through the product's front door.
    pub fn tune(&self, engine: &Engine) -> Result<Tuned, String> {
        let cophy = CoPhy::new(&engine.optimizer, self.options.clone());
        let rec = match &self.input {
            Input::Batch(w) => cophy.try_tune(w, &self.constraints)?,
            Input::Stream { .. } => {
                cophy.try_tune_source(&mut self.source(engine.schema()), &self.constraints)?
            }
        };
        Ok(Tuned::from_recommendation(rec, self.statements()))
    }

    /// The same tune with the layers called one by one, each in a span.
    /// Mirrors `CoPhy::try_tune` → `try_tune_with_candidates` →
    /// `try_tune_prepared_with_progress` for a batch, and
    /// `CoPhy::try_tune_source` → `try_session_streaming` → `try_add_source`
    /// → `recommend` for a stream.
    pub fn tune_traced(
        &self,
        engine: &Engine,
        tracer: &Tracer,
        counts: &mut Counts,
    ) -> Result<(Tuned, Prepared), String> {
        let backend = TimedBackend { inner: &engine.optimizer, tracer };
        let schema = backend.schema();
        tracer.span("tune.front_door", || match &self.input {
            Input::Batch(w) => {
                let candidates =
                    tracer.span("cgen.generate", || self.options.cgen.generate(schema, w));
                let before = backend.what_if_calls();
                let (prepared, faults) = tracer
                    .span("inum.prepare", || {
                        Inum::with_retry(&backend, self.options.retry.clone())
                            .try_prepare_workload_resilient(w, None)
                    })
                    .map_err(|e| e.to_string())?;
                counts.insert("inum.degraded", faults.degraded.len() as f64);
                let probes = backend.what_if_calls() - before;
                let layers = Prepared { prepared, candidates };
                let tuned =
                    self.solve_traced(&backend, tracer, counts, &layers, probes, w.len())?;
                Ok((tuned, layers))
            }
            Input::Stream { .. } => {
                let cophy = CoPhy::new(&backend, self.options.clone());
                let before = backend.what_if_calls();
                let mut source = TracedSource { inner: self.source(schema), tracer };
                let session = tracer.span("session.ingest", || {
                    cophy.try_session_streaming(&mut source, self.constraints.clone())
                })?;
                let probes = backend.what_if_calls() - before;
                let degraded = session.degradation().map_or(0, |d| d.statements_degraded);
                counts.insert("inum.degraded", degraded as f64);
                let layers = tracer.span("trace.snapshot", || Prepared {
                    prepared: session.cache().snapshot(),
                    candidates: session.candidates().clone(),
                });
                let statements = session.n_statements();
                let tuned =
                    self.solve_traced(&backend, tracer, counts, &layers, probes, statements)?;
                Ok((tuned, layers))
            }
        })
    }

    /// BIPGen + solve over a prepared workload: the body of
    /// `CoPhy::try_tune_prepared_with_progress`, one span per layer call.
    fn solve_traced(
        &self,
        backend: &TimedBackend<'_>,
        tracer: &Tracer,
        counts: &mut Counts,
        layers: &Prepared,
        probes: u64,
        statements: usize,
    ) -> Result<Tuned, String> {
        let Prepared { prepared, candidates } = layers;
        let (schema, cm) = (backend.schema(), backend.cost_model());
        let bipgen = &self.options.bipgen;
        tracer.span("lp.feasibility", || {
            CoPhy::new(backend, self.options.clone())
                .check_feasibility(candidates, &self.constraints)
        })?;
        counts.insert("cgen.candidates", candidates.len() as f64);
        counts.insert("inum.probes", probes as f64);
        let templates: usize = prepared.queries.iter().map(|pq| pq.templates.len()).sum();
        counts.insert("inum.templates", templates as f64);
        counts.insert(
            "inum.templates_per_stmt",
            templates as f64 / prepared.queries.len().max(1) as f64,
        );

        let mut first_incumbent_ms = None;
        let mut on_progress = |p: &SolveProgress| {
            if first_incumbent_ms.is_none() && p.incumbent.is_finite() {
                first_incumbent_ms = Some(p.at.as_secs_f64() * 1e3);
            }
        };
        let use_lagrangian = match self.options.backend {
            SolverBackend::Lagrangian => true,
            SolverBackend::BranchBound => false,
            SolverBackend::Auto => self.constraints.is_storage_only(),
        };
        let (configuration, objective, bound, gap, variables);
        if use_lagrangian {
            let tp = tracer.span("bipgen.build", || {
                bipgen.block_problem(schema, cm, prepared, candidates, &self.constraints)
            });
            let solver = LagrangianSolver { budget: self.options.budget, ..Default::default() };
            let (r, _) = tracer.span("lagrangian.solve", || {
                solver.solve_warm_with_progress(&tp.block, None, |p, _| on_progress(p))
            });
            variables = tp.block.n_choices() + tp.block.n_items;
            // The block form has one convexity row per block, one linking row
            // per (alternative, slot), and the budget row; its nonzeros are
            // the (slot, index) choices.
            let slots: usize =
                tp.block.blocks.iter().flat_map(|b| &b.alts).map(|a| a.slots.len()).sum();
            counts.insert("bipgen.rows", (tp.block.blocks.len() + slots + 1) as f64);
            counts.insert("bipgen.nnz", tp.block.n_choices() as f64);
            counts.insert("lagrangian.iters", r.iterations as f64);
            counts.insert("lagrangian.blocks", tp.block.blocks.len() as f64);
            if let Some(ms) = first_incumbent_ms {
                counts.insert("lagrangian.first_incumbent_ms", ms);
            }
            configuration = Configuration::from_indexes(
                candidates
                    .iter()
                    .filter(|(id, _)| r.selected[id.0 as usize])
                    .map(|(_, ix)| ix.clone()),
            );
            objective = r.objective + tp.fixed_cost;
            bound = r.bound + tp.fixed_cost;
            gap = r.gap;
        } else {
            let (model, mapping) = tracer.span("bipgen.build", || {
                bipgen.model(schema, cm, prepared, candidates, &self.constraints)
            });
            let fixed: f64 =
                prepared.queries.iter().map(|pq| pq.weight * pq.fixed_update_cost).sum();
            // The front door seeds B&B with a small Lagrangian solve of the
            // storage-only projection (`CoPhy::storage_projection_seed`).
            let seed = (!candidates.is_empty()).then(|| {
                let projection = match self.constraints.storage_budget() {
                    Some(budget_bytes) => {
                        ConstraintSet::none().with(Constraint::Storage { budget_bytes })
                    }
                    None => ConstraintSet::none(),
                };
                let tp = tracer.span("bipgen.seed_build", || {
                    bipgen.block_problem(schema, cm, prepared, candidates, &projection)
                });
                let seed_budget = SolveBudget {
                    gap_limit: 0.05,
                    time_limit: self.options.budget.time_limit.map(|t| t / 10),
                    node_limit: Some(200),
                    ..Default::default()
                };
                let r = tracer.span("lagrangian.seed_solve", || {
                    LagrangianSolver { budget: seed_budget, ..Default::default() }.solve(&tp.block)
                });
                counts.insert("lagrangian.iters", r.iterations as f64);
                (mapping.completion(&r.selected, model.n_vars()), r.bound)
            });
            let (seed_x, known_bound) = match &seed {
                Some((x, b)) => (Some(x.as_slice()), b.is_finite().then_some(*b)),
                None => (None, None),
            };
            let opts =
                SolveOptions { budget: self.options.budget, known_bound, ..Default::default() };
            let r = tracer.span("bb.solve", || {
                BranchBound::new()
                    .solve_seeded_with_progress(&model, &opts, seed_x, |p, _| on_progress(p))
            });
            if r.status == MipStatus::Infeasible {
                return Err("BIP infeasible under the hard constraints".into());
            }
            if r.x.is_empty() {
                return Err(format!(
                    "no feasible incumbent within the solve budget ({:?})",
                    r.status
                ));
            }
            variables = model.n_vars();
            let nnz: usize = model.constraints().iter().map(|c| c.expr.terms.len()).sum();
            counts.insert("bipgen.rows", model.n_constraints() as f64);
            counts.insert("bipgen.nnz", nnz as f64);
            counts.insert("bb.nodes", r.nodes as f64);
            counts.insert("bb.pivots", r.pivots as f64);
            counts.insert("bb.refactorizations", r.refactorizations as f64);
            counts.insert("bb.factor_recoveries", r.factor_recoveries as f64);
            if let Some(ms) = first_incumbent_ms {
                counts.insert("bb.first_incumbent_ms", ms);
            }
            configuration = mapping.extract_configuration(&r.x, candidates);
            objective = r.objective + fixed;
            bound = r.bound + fixed;
            gap = r.gap;
        }
        counts.insert("bipgen.vars", variables as f64);
        let baseline = tracer
            .span("inum.baseline_cost", || prepared.cost(schema, cm, &Configuration::empty()));
        Ok(Tuned {
            objective,
            bound,
            gap,
            baseline,
            probes,
            statements,
            candidates: candidates.len(),
            variables,
            configuration,
        })
    }

    /// Single-layer measurements that are not steps of a tune, each in a
    /// span of its own outside the `tune.front_door` span: a stream replayed
    /// through generation and through compression alone, with INUM and CGen
    /// over its representatives alone (to split the session's ingest span);
    /// candidate re-insertion; a cached cost evaluation; and, for a
    /// branch-and-bound scenario, the root LP of the Theorem-1 model.
    pub fn probe_layers(
        &self,
        engine: &Engine,
        tracer: &Tracer,
        counts: &mut Counts,
        tuned: &Tuned,
        layers: &Prepared,
    ) {
        let backend = TimedBackend { inner: &engine.optimizer, tracer };
        let (schema, cm) = (backend.schema(), backend.cost_model());
        if matches!(self.input, Input::Stream { .. }) {
            let mut buf = Vec::new();
            let mut source = self.source(schema);
            tracer.span("replay.generate", || loop {
                buf.clear();
                if source.next_chunk(DEFAULT_CHUNK, &mut buf) == 0 {
                    break;
                }
                black_box(&buf);
            });
            let mut source = self.source(schema);
            let mut cw = CompressedWorkload::streaming(self.options.compression);
            loop {
                buf.clear();
                if source.next_chunk(DEFAULT_CHUNK, &mut buf) == 0 {
                    break;
                }
                tracer.span("compress.absorb", || cw.absorb_chunk(schema, &buf));
            }
            // What the session pays per chunk for its rollback snapshot.
            tracer.span("compress.snapshot", || black_box(cw.clone()));
            counts.insert("compress.reps", cw.n_representatives() as f64);
            counts.insert("compress.ratio", cw.summary().ratio());
            let reps = cw.representatives();
            tracer.span("replay.cgen", || black_box(self.options.cgen.generate(schema, reps)));
            tracer
                .span("replay.inum", || {
                    Inum::with_retry(&backend, self.options.retry.clone())
                        .try_prepare_workload_resilient(reps, None)
                })
                .expect("the live optimizer answers every probe");
        }
        tracer.span("cgen.extend", || {
            let mut set = CandidateSet::new();
            set.extend(schema, layers.candidates.indexes().iter().cloned());
            black_box(set);
        });
        tracer.span("inum.cost_eval", || {
            for _ in 0..COST_EVALS {
                black_box(layers.prepared.cost(schema, cm, black_box(&tuned.configuration)));
            }
        });
        if matches!(self.options.backend, SolverBackend::BranchBound) {
            let (model, _) = self.options.bipgen.model(
                schema,
                cm,
                &layers.prepared,
                &layers.candidates,
                &self.constraints,
            );
            root_lp(tracer, counts, &model);
        }
    }

    /// The output checks that fail a run: the constraints hold on the
    /// recommended configuration, the bound is below the objective with a
    /// finite gap, the objective beats no indexes at all, and every
    /// statement fed in was counted.
    pub fn verify(&self, engine: &Engine, tuned: &Tuned) -> Result<(), String> {
        self.constraints.check_configuration(engine.schema(), &tuned.configuration)?;
        check_bounds(tuned.objective, tuned.bound, tuned.gap, tuned.baseline)?;
        if tuned.statements != self.statements() {
            return Err(format!(
                "advisor counted {} statements, {} were fed in",
                tuned.statements,
                self.statements()
            ));
        }
        Ok(())
    }

    /// The paper's quality metric (§5.1), in percent:
    /// `100 · perf(W, X*) = 100 · (1 − cost(W, X* ∪ X0) / cost(W, X0))`,
    /// costed through the what-if backend (not INUM) over the first `sample`
    /// statements of the input.
    pub fn improvement_pct(&self, engine: &Engine, tuned: &Tuned, sample: usize) -> f64 {
        let sampled;
        let w = match &self.input {
            Input::Batch(w) if w.len() <= sample => w,
            Input::Batch(w) => {
                sampled = w.truncate(sample);
                &sampled
            }
            Input::Stream { .. } => {
                let mut buf = Vec::new();
                self.source(engine.schema()).next_chunk(sample, &mut buf);
                sampled = buf.into_iter().fold(Workload::new(), |mut w, (stmt, weight)| {
                    w.push_weighted(stmt, weight);
                    w
                });
                &sampled
            }
        };
        100.0 * engine.optimizer.perf(w, &tuned.configuration)
    }
}

/// Cost evaluations per `inum.cost_eval` span (one is too short to time).
pub const COST_EVALS: usize = 10;

fn check_bounds(objective: f64, bound: f64, gap: f64, baseline: f64) -> Result<(), String> {
    if !(gap.is_finite() && gap >= 0.0) {
        return Err(format!("gap {gap} is not a finite non-negative number"));
    }
    let slack = 1e-9 * objective.abs().max(1.0);
    if bound > objective + slack {
        return Err(format!("bound {bound} above objective {objective}"));
    }
    if objective > baseline + 1e-9 * baseline.abs().max(1.0) {
        return Err(format!("objective {objective} worse than no indexes at all ({baseline})"));
    }
    Ok(())
}

/// Root relaxation of a Theorem-1 model, solved standalone.
fn root_lp(tracer: &Tracer, counts: &mut Counts, model: &cophy_bip::Model) {
    let n = model.n_vars();
    let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
    let lp = tracer.span("lp.root", || SimplexSolver::new().solve(model, &lo, &hi));
    counts.insert("lp.root_pivots", lp.iterations as f64);
    counts.insert("lp.root_refactorizations", lp.refactorizations as f64);
}

// ---------------------------------------------------------------------------
// The interactive workload: the daemon over loopback, and the same script
// against `TuningSession` in process.
// ---------------------------------------------------------------------------

/// Client threads of the closed loop (= `nproc` of the reference box).
pub const WIRE_CLIENTS: usize = 2;
/// Consecutive scripts of one client that share a workload spec: the first
/// opens it cold, the rest hit the daemon's shared INUM cache.
const SCRIPTS_PER_SPEC: usize = 4;
/// Statements of each spec, and of each `add`.
const SPEC_STATEMENTS: usize = 12;
const ADD_STATEMENTS: usize = 2;

/// Gap 0.05 or 100 nodes/iterations, no time limit.  The cap bounds a sweep
/// point: over twelve generated specs a three-point sweep was measured at
/// 0.1–5.4 s with a 300-node cap.
fn server_config() -> ServerConfig {
    ServerConfig { budget: budget(0.05, 100), solver_slots: WIRE_CLIENTS, ..Default::default() }
}

/// The spec script `k` of `client` opens.  Clients never share a spec, so
/// every count is independent of how their requests interleave.
fn spec_of(seed: u64, client: usize, k: usize) -> String {
    let base = seed % 1_000_000_000;
    format!("hom:{}:{SPEC_STATEMENTS}", base + (client * 1000 + k / SCRIPTS_PER_SPEC) as u64)
}

fn add_spec_of(seed: u64, client: usize, k: usize) -> String {
    let base = seed % 1_000_000_000;
    format!("hom:{}:{ADD_STATEMENTS}", base + (500_000 + client * 1000 + k) as u64)
}

/// Budgets of one sweep, loosest first (each a tightening of the last, so
/// the chain carries its bound).
pub const SWEEP_POINTS: usize = 3;

fn sweep_budgets(schema: &Schema) -> [u64; SWEEP_POINTS] {
    let data = schema.data_bytes();
    [data, data / 2, data / 4]
}

/// A running daemon on an ephemeral loopback port.
pub struct WireServer(ServerHandle);

impl WireServer {
    pub fn start() -> std::io::Result<WireServer> {
        Ok(WireServer(Server::bind("127.0.0.1:0", server_config(), None)?.spawn()))
    }

    pub fn stop(self) {
        self.0.stop();
    }
}

/// Latency samples (seconds) and counts of one closed-loop wire run.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Samples per operation: `open_cold`, `open_hit`, `tune`, `what_if`,
    /// `add`, `sweep_point`, `close`, `script`.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub requests: u64,
    pub failed: u64,
    pub busy_rejects: u64,
    pub progress_lines: u64,
    /// Statements the daemon ingested (cold opens + adds).
    pub statements: u64,
    /// `stats` verb after the last script.
    pub probes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub max_gap: f64,
    /// The first `tune` reply over each freshly opened spec.
    first_tunes: Vec<(String, TuneReply)>,
    pub errors: Vec<String>,
}

impl WireRun {
    fn sample(&mut self, name: &'static str, seconds: f64) {
        self.samples.entry(name).or_default().push(seconds);
    }

    fn merge(&mut self, other: WireRun) {
        for (name, mut values) in other.samples {
            self.samples.entry(name).or_default().append(&mut values);
        }
        self.requests += other.requests;
        self.failed += other.failed;
        self.busy_rejects += other.busy_rejects;
        self.progress_lines += other.progress_lines;
        self.statements += other.statements;
        self.max_gap = self.max_gap.max(other.max_gap);
        self.first_tunes.extend(other.first_tunes);
        self.errors.extend(other.errors);
    }

    /// One request: time it, count it, and record a failure (an `err busy`
    /// refusal included) instead of a latency.
    fn request<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<R, ClientError>,
    ) -> Option<R> {
        let t0 = Instant::now();
        let out = f();
        let seconds = t0.elapsed().as_secs_f64();
        self.requests += 1;
        match out {
            Ok(reply) => {
                self.sample(name, seconds);
                Some(reply)
            }
            Err(e) => {
                self.failed += 1;
                if matches!(&e, ClientError::Server(w) if w.code == ErrCode::Busy) {
                    self.busy_rejects += 1;
                }
                self.errors.push(format!("{name}: {e}"));
                None
            }
        }
    }
}

/// One DBA session over the wire: open · tune · ban the first recommended
/// index · tune · unfix · tune · three what-ifs · (odd scripts) add two
/// statements and tune · (every fourth) a three-budget sweep · close.
fn wire_script(
    client: &mut Client,
    run: &mut WireRun,
    schema: &Schema,
    seed: u64,
    c: usize,
    k: usize,
) {
    let t0 = Instant::now();
    let sid = format!("c{c}");
    let spec = spec_of(seed, c, k);
    let cold = k % SCRIPTS_PER_SPEC == 0;
    let Some(open) = run.request(if cold { "open_cold" } else { "open_hit" }, || {
        client.open(&sid, &spec, STORAGE_FRACTION)
    }) else {
        return;
    };
    if open.cache_hit == cold {
        run.failed += 1;
        run.errors.push(format!("open {spec}: cache_hit={} on script {k}", open.cache_hit));
    }
    if cold {
        run.statements += open.statements as u64;
    }
    let mut progress = 0u64;
    let mut tune = |run: &mut WireRun, client: &mut Client| {
        let reply = run.request("tune", || client.tune(&sid, |_: &ProgressLine| progress += 1))?;
        run.max_gap = run.max_gap.max(reply.gap);
        if let Err(e) = check_bounds(reply.objective, reply.bound, reply.gap, reply.baseline) {
            run.failed += 1;
            run.errors.push(format!("tune {spec}: {e}"));
        }
        Some(reply)
    };
    if let Some(first) = tune(run, client) {
        if let Some(top) = first.indexes.first() {
            run.request("ban", || client.ban(&sid, top));
            tune(run, client);
            run.request("unfix", || client.unfix(&sid, top));
            tune(run, client);
        }
        let all = first.indexes.as_slice();
        for config in [all, &all[all.len().min(1)..], &all[..all.len().min(1)]] {
            run.request("what_if", || client.what_if(&sid, config));
        }
        if cold {
            run.first_tunes.push((spec.clone(), first));
        }
    }
    if k % 2 == 1 {
        if run.request("add", || client.add(&sid, &add_spec_of(seed, c, k))).is_some() {
            run.statements += ADD_STATEMENTS as u64;
        }
        tune(run, client);
    }
    if k % 4 == 3 {
        let budgets = sweep_budgets(schema);
        let t = Instant::now();
        if let Some(points) = run.request("sweep", || client.sweep(&sid, &budgets, |_| {})) {
            let per_point = t.elapsed().as_secs_f64() / points.len().max(1) as f64;
            for point in &points {
                run.sample("sweep_point", per_point);
                run.max_gap = run.max_gap.max(point.gap);
            }
        }
    }
    run.request("close", || client.close(&sid));
    run.progress_lines += progress;
    run.sample("script", t0.elapsed().as_secs_f64());
}

/// One closed-loop run: [`WIRE_CLIENTS`] client threads, each sending its
/// next request only after the previous reply, `scripts` scripts each.
pub fn wire_run(server: &WireServer, seed: u64, scripts: usize) -> WireRun {
    let addr = server.0.addr();
    let schema = server.0.manager().schema().clone();
    let mut run = WireRun::default();
    let per_client: Vec<WireRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WIRE_CLIENTS)
            .map(|c| {
                let schema = &schema;
                s.spawn(move || {
                    let mut run = WireRun::default();
                    match Client::connect(addr) {
                        Ok(mut client) => {
                            for k in 0..scripts {
                                wire_script(&mut client, &mut run, schema, seed, c, k);
                            }
                            let _ = client.quit();
                        }
                        Err(e) => {
                            run.requests += 1;
                            run.failed += 1;
                            run.errors.push(format!("connect: {e}"));
                        }
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a wire client thread panicked")).collect()
    });
    for client_run in per_client {
        run.merge(client_run);
    }
    match Client::connect(addr).and_then(|mut client| client.stats()) {
        Ok(stats) => {
            run.probes = stats.probes;
            run.cache_hits = stats.cache_hits;
            run.cache_misses = stats.cache_misses;
        }
        Err(e) => {
            run.failed += 1;
            run.errors.push(format!("stats: {e}"));
        }
    }
    run.requests += 1;
    run
}

/// Check the first `tune` of every spec against an in-process
/// `TuningSession::recommend` of the same spec, bit for bit (objective,
/// bound, index list), and return the mean `100 · perf(W, X*)` of those
/// recommendations, costed through the what-if backend.
pub fn wire_verify(engine: &Engine, run: &WireRun) -> Result<f64, String> {
    if run.first_tunes.is_empty() {
        return Err("no tune reply to verify".into());
    }
    let schema = engine.schema();
    let config = server_config();
    let options = CoPhyOptions { budget: config.budget, retry: config.retry, ..Default::default() };
    let cophy = CoPhy::new(&engine.optimizer, options);
    let constraints = ConstraintSet::storage_fraction(schema, STORAGE_FRACTION);
    let mut improvement = 0.0;
    for (spec, reply) in &run.first_tunes {
        let w = parse_spec(spec, schema).map_err(|e| e.to_string())?;
        let rec = cophy.try_session(&w, constraints.clone())?.recommend();
        let mut indexes: Vec<Index> = rec.configuration.iter().cloned().collect();
        indexes.sort_by_cached_key(fmt_index);
        if rec.objective.to_bits() != reply.objective.to_bits()
            || rec.bound.to_bits() != reply.bound.to_bits()
            || indexes != reply.indexes
        {
            return Err(format!(
                "{spec}: wire tune (objective {}, bound {}, {} indexes) differs from the \
                 in-process recommend (objective {}, bound {}, {} indexes)",
                reply.objective,
                reply.bound,
                reply.indexes.len(),
                rec.objective,
                rec.bound,
                indexes.len()
            ));
        }
        constraints.check_configuration(schema, &rec.configuration)?;
        improvement += 100.0 * engine.optimizer.perf(&w, &rec.configuration);
    }
    Ok(improvement / run.first_tunes.len() as f64)
}

/// The wire script against `TuningSession` in process, on one thread, one
/// span per session call; also the B&B counters of its sweeps and the root
/// LP of the first spec's Theorem-1 model.
pub fn session_script(
    engine: &Engine,
    tracer: &Tracer,
    counts: &mut Counts,
    seed: u64,
    scripts: usize,
) -> Result<(), String> {
    let backend = TimedBackend { inner: &engine.optimizer, tracer };
    let schema = backend.schema();
    let config = server_config();
    let options = CoPhyOptions { budget: config.budget, retry: config.retry, ..Default::default() };
    let cophy = CoPhy::new(&backend, options);
    let constraints = ConstraintSet::storage_fraction(schema, STORAGE_FRACTION);
    let mut shared: HashMap<String, (Arc<InumCache>, CandidateSet)> = HashMap::new();
    let (mut nodes, mut pivots, mut bb_seconds, mut state_bytes) = (0usize, 0usize, 0.0f64, 0usize);
    let mut first_model = None;
    for c in 0..WIRE_CLIENTS {
        for k in 0..scripts {
            let spec = spec_of(seed, c, k);
            let mut session: TuningSession<'_, '_> = match shared.get(&spec) {
                Some((cache, candidates)) => tracer.span("session.open_shared", || {
                    cophy.try_session_shared(cache.clone(), candidates.clone(), constraints.clone())
                })?,
                None => {
                    let w = parse_spec(&spec, schema).map_err(|e| e.to_string())?;
                    let session = tracer
                        .span("session.open", || cophy.try_session(&w, constraints.clone()))?;
                    shared.insert(spec.clone(), (session.cache(), session.candidates().clone()));
                    session
                }
            };
            let first = tracer.span("session.recommend", || session.recommend());
            if let Some(top) = first.configuration.iter().next().cloned() {
                session.ban_index(&top);
                tracer.span("session.resolve", || black_box(session.recommend()));
                session.unfix_index(&top);
                tracer.span("session.recommend", || black_box(session.recommend()));
            }
            let all: Vec<Index> = first.configuration.iter().cloned().collect();
            for indexes in [&all[..], &all[all.len().min(1)..], &all[..all.len().min(1)]] {
                let cfg = Configuration::from_indexes(indexes.iter().cloned());
                tracer.span("session.what_if", || black_box(session.what_if(&cfg)));
            }
            if k % 2 == 1 {
                let mut source = parse_spec_source(&add_spec_of(seed, c, k), schema)
                    .map_err(|e| e.to_string())?;
                tracer.span("session.add", || {
                    session.try_add_source(source.as_mut(), DEFAULT_CHUNK)
                })?;
                tracer.span("session.recommend", || black_box(session.recommend()));
            }
            if k % 4 == 3 {
                let points = tracer.span("session.sweep", || {
                    session.try_sweep_storage_with_progress(&sweep_budgets(schema), |_, _| {})
                })?;
                for point in &points {
                    nodes += point.nodes;
                    pivots += point.pivots;
                    bb_seconds += point.solve_time.as_secs_f64();
                }
            }
            state_bytes = state_bytes.max(session.approx_state_bytes());
            if first_model.is_none() {
                first_model = Some(session.cache().read(|pw| {
                    BipGen::default()
                        .model(schema, backend.cost_model(), pw, session.candidates(), &constraints)
                        .0
                }));
            }
        }
    }
    counts.insert("bb.nodes", nodes as f64);
    counts.insert("bb.pivots", pivots as f64);
    counts.insert("bb.solve_s", bb_seconds);
    counts.insert("session.state_bytes", state_bytes as f64);
    root_lp(tracer, counts, &first_model.expect("at least one script ran"));
    Ok(())
}

/// Microseconds per `Request::parse` + `ProgressLine` render/parse round
/// trip — the protocol's own cost per streamed tune line.
pub fn protocol_round_trip_us() -> f64 {
    const ROUNDS: u32 = 2000;
    let request = "tune s1";
    let progress = ProgressLine {
        point: 0,
        at_us: 1234,
        incumbent: 123_456.789,
        bound: 120_000.5,
        gap: 0.028,
        ticks: 17,
        pivots: 420,
        decomposition: None,
    };
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let parsed = Request::parse(black_box(request)).expect("a valid request line");
        let line = black_box(&progress).to_line();
        let back = ProgressLine::parse(&line).expect("a line the protocol just rendered");
        black_box((parsed, back));
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}
