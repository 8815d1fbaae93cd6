//! Workspace-surface test: every public crate is importable, and the
//! Quick-start snippet from `crates/core/src/lib.rs` (also shown in the root
//! README) works verbatim through the public API.  If the doctest, the
//! README and this test ever disagree, CI fails.

use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

/// The Quick-start snippet, line for line (keep in sync with the `cophy`
/// crate docs and README.md).
#[test]
fn quickstart_snippet_roundtrips() {
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let workload = HomGen::new(1).generate(optimizer.schema(), 20);
    let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
    // storage budget = 0.5 × data size
    let constraints = ConstraintSet::storage_fraction(optimizer.schema(), 0.5);
    let rec = cophy.try_tune(&workload, &constraints).unwrap();
    assert!(rec.objective <= rec.baseline_cost * 1.0 + 1e-6);
    println!("{} indexes, gap {:.1}%", rec.configuration.len(), rec.gap * 100.0);

    // Beyond the snippet: the recommendation is non-trivial and feasible.
    assert!(!rec.configuration.is_empty(), "quick start should recommend indexes");
    assert!(constraints.check_configuration(optimizer.schema(), &rec.configuration).is_ok());
}

/// The "Streaming large workloads" snippet from the `cophy` crate docs
/// (also shown in the root README), line for line: a generator-backed
/// `WorkloadSource` feeds the advisor chunk by chunk with online
/// compression, and the workload is never materialized.
#[test]
fn streaming_snippet_roundtrips() {
    use cophy::CompressionPolicy;

    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    // A generator-backed source: statements are produced on demand, chunk
    // by chunk — the full workload never exists in memory.
    let mut source = HomGen::new(1).stream(optimizer.schema(), 500);
    let options =
        CoPhyOptions { compression: CompressionPolicy::default_epsilon(), ..Default::default() };
    let cophy = CoPhy::new(&optimizer, options);
    let constraints = ConstraintSet::storage_fraction(optimizer.schema(), 0.5);
    let rec = cophy.try_tune_source(&mut source, &constraints).unwrap();
    let summary = rec.compression.as_ref().unwrap();
    assert_eq!(summary.n_original, 500);
    assert!(summary.n_representatives < 500);

    // Beyond the snippet: the streamed tune is real, proven, and feasible.
    assert!(!rec.configuration.is_empty(), "streamed tune should recommend indexes");
    assert!(rec.objective <= rec.baseline_cost + 1e-6 && rec.gap.is_finite());
    assert!(constraints.check_configuration(optimizer.schema(), &rec.configuration).is_ok());
}

/// The "Backends & portability" README snippet, line for line: any
/// `&dyn WhatIfBackend` drives a session end-to-end, and the session's BIP
/// exports as lintable MPS.
#[test]
fn backends_snippet_roundtrips() {
    use cophy::WhatIfBackend;

    fn tune_with(backend: &dyn WhatIfBackend) {
        let w = cophy_workload::HomGen::new(1).generate(backend.schema(), 8);
        let cophy = CoPhy::new(backend, CoPhyOptions::default());
        let storage = ConstraintSet::storage_fraction(backend.schema(), 0.5);
        let mut session = cophy.try_session(&w, storage).unwrap();
        let rec = session.recommend();
        println!("{} indexes, {} what-if calls", rec.configuration.len(), rec.stats.what_if_calls);
        let mps = session.export_mps(); // hand the exact BIP to CPLEX/Gurobi/...
        assert!(cophy_bip::lint_mps(&mps).is_ok());
    }

    tune_with(&WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A));
}

/// The "Robustness & fault injection" README snippet, line for line: a
/// chaos-schedule backend still completes the tune, and the recommendation
/// reports its degradation honestly.
#[test]
fn fault_injection_snippet_roundtrips() {
    use cophy_optimizer::{FaultInjectingBackend, FaultPlan, RetryPolicy, WhatIfBackend};

    let flaky = FaultInjectingBackend::new(
        Box::new(WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)),
        FaultPlan::chaos(42), // seeded schedule: transients, timeouts, corruption
    );
    let workload = HomGen::new(1).generate(flaky.schema(), 20);
    let constraints = ConstraintSet::storage_fraction(flaky.schema(), 0.5);
    let opts =
        CoPhyOptions { retry: RetryPolicy::default(), min_coverage: 0.5, ..Default::default() };
    let rec = CoPhy::new(&flaky, opts).try_tune(&workload, &constraints).unwrap();
    if let Some(d) = &rec.degradation {
        println!("coverage {:.0}%, {} probes recovered", d.coverage * 100.0, d.probes_recovered);
    }

    // Beyond the snippet: the chaos schedule actually fired, and the
    // degraded recommendation is still real and feasible.
    let d = rec.degradation.as_ref().expect("a chaos schedule must report degradation");
    assert!(d.probes_failed > 0, "the schedule must inject faults");
    assert!(d.coverage >= 0.5, "tune must respect the coverage floor it was given");
    assert!(rec.objective.is_finite() && rec.gap.is_finite());
    assert!(constraints.check_configuration(flaky.schema(), &rec.configuration).is_ok());
}

/// The "Advisor as a service" README snippet (also the `cophy-server`
/// crate's doctest), line for line — plus teardown assertions beyond it.
#[test]
fn server_snippet_roundtrips() {
    use cophy_server::{Client, Server, ServerConfig};

    let handle = Server::bind("127.0.0.1:0", ServerConfig::default(), None).unwrap().spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.open("s1", "hom:7:24", 0.5).unwrap(); // budget = 0.5 x data size
    let rec = client.tune("s1", |p| println!("gap {:.1}%", p.gap * 100.0)).unwrap();
    println!("{} indexes, objective {}", rec.indexes.len(), rec.objective);
    client.close("s1").unwrap();
    handle.stop();

    // Beyond the snippet: the streamed recommendation is real and proven.
    assert!(!rec.indexes.is_empty(), "advisor session should recommend indexes");
    assert!(rec.objective.is_finite() && rec.gap.is_finite());
    assert!(rec.objective <= rec.baseline + 1e-6);
}

/// One symbol from each public crate of the workspace, so a broken
/// manifest edge or module wiring fails this single test.
#[test]
fn every_public_crate_is_reachable() {
    // cophy-catalog
    let schema = TpchGen::default().schema();
    assert!(schema.n_tables() >= 8, "TPC-H has 8 tables");
    let cfg = cophy_catalog::Configuration::baseline(&schema);
    assert!(!cfg.is_empty());

    // cophy-workload
    let w = HomGen::new(7).generate(&schema, 5);
    assert_eq!(w.len(), 5);

    // cophy-optimizer
    use cophy_optimizer::WhatIfBackend;
    let o = WhatIfOptimizer::new(schema.clone(), SystemProfile::B);
    let plan_cost = o.cost_workload(&w, &cfg);
    assert!(plan_cost.is_finite() && plan_cost > 0.0);

    // cophy-inum
    let inum = cophy_inum::Inum::new(&o);
    let prepared = inum.prepare_workload(&w);
    assert_eq!(prepared.queries.len(), w.len());

    // cophy (core) + cophy-bip
    let cands = cophy::CGen::default().generate(o.schema(), &w);
    assert!(!cands.is_empty());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.3);
    let (model, _mapping) =
        cophy::BipGen::default().model(o.schema(), o.cost_model(), &prepared, &cands, &constraints);
    let r = cophy_bip::BranchBound::new().solve(&model, &cophy_bip::SolveOptions::default());
    assert_eq!(r.status, cophy_bip::MipStatus::Optimal);

    // cophy-advisors
    use cophy_advisors::Advisor;
    let greedy = cophy_advisors::ToolB;
    let rec = greedy.recommend(&o, &w, &constraints);
    assert!(constraints.check_configuration(o.schema(), &rec).is_ok());

    // cophy-bench (one experiment table, knobs that fail closed)
    let knobs = cophy_bench::Knobs::parse(Some("smoke")).unwrap();
    let sizes = knobs.scale.sizes();
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    assert!(cophy_bench::Knobs::parse(Some("smok")).is_err());
    assert_eq!(cophy_bench::select("fig4").map(|e| e[0].name), Some("fig4"));
    assert_eq!(cophy_bench::select("gates").map(<[_]>::len), Some(6));

    // cophy-server (workload specs are the daemon's cache fingerprint)
    let spec_w = cophy_server::parse_spec("het:3:6", &schema).unwrap();
    assert_eq!(spec_w.len(), 6);
    assert!(cophy_server::parse_spec("bogus:1:1", &schema).is_err());
}

/// One simplex kernel ships: the solver stack is built and run without
/// naming an engine.  `::new()` is the only way to build either solver —
/// neither has a field settable from outside `cophy-bip`, so there is no
/// place for a selector to come back.  The one `SimplexSolver` runs both
/// the cold primal solve and the warm dual re-solve.
#[test]
fn the_solver_stack_has_no_engine_selector() {
    use cophy_bip::{BranchBound, LinExpr, LpStatus, Model, Sense, SimplexSolver};

    let lp = SimplexSolver::new();

    let mut m = Model::new();
    let x = m.add_var("x", -1.0);
    let y = m.add_var("y", -2.0);
    m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
    let root = lp.solve(&m, &[0.0, 0.0], &[1.0, 1.0]);
    assert_eq!(root.status, LpStatus::Optimal);
    assert_eq!(root.factor_recoveries, 0);
    let basis = root.basis.as_ref().expect("optimal solve snapshots its basis");
    let child = lp.resolve(&m, &[1.0, 0.0], &[1.0, 1.0], basis).expect("basis fits");
    assert_eq!(child.status, LpStatus::Optimal);
    assert!((child.objective - (-2.0)).abs() < 1e-6);

    let bb = BranchBound::new();
    let r = bb.solve(&m, &cophy_bip::SolveOptions::default());
    assert_eq!(r.status, cophy_bip::MipStatus::Optimal);
    assert!((r.objective - (-2.0)).abs() < 1e-6);
}

/// Every door fails with the one `CoPhyError`, matched by variant — and a
/// caller that carries errors as text still propagates it with `?`.
#[test]
fn every_door_fails_with_the_one_error_type() {
    use cophy::{Cmp, CoPhyError, CompressionPolicy, Constraint, IndexFilter};

    fn tune_as_text(
        cophy: &CoPhy<'_>,
        w: &cophy_workload::Workload,
        constraints: &ConstraintSet,
    ) -> Result<usize, String> {
        Ok(cophy.try_tune(w, constraints)?.configuration.len())
    }

    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(1).generate(o.schema(), 4);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let at_least_3 = Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Ge, value: 3 };
    let at_most_1 = Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Le, value: 1 };
    let contradictory = ConstraintSet::none().with(at_least_3).with(at_most_1);

    let batch = cophy.try_tune(&w, &contradictory).unwrap_err();
    let streamed = cophy.try_tune_source(&mut w.source(), &contradictory).unwrap_err();
    assert!(matches!(batch, CoPhyError::Infeasible(_)), "{batch:?}");
    assert_eq!(batch, streamed, "one path behind both doors");
    assert!(matches!(
        cophy.try_session(&w, contradictory.clone()).map(|_| ()),
        Err(CoPhyError::Invalid(_))
    ));
    assert_eq!(tune_as_text(&cophy, &w, &contradictory), Err(batch.to_string()));

    // A query-cost bound names a statement by id: an id no statement
    // carries, or any id once compression renumbers the statements, is
    // refused rather than dropped or retargeted.
    let bound = |id| {
        let storage = ConstraintSet::storage_fraction(o.schema(), 0.5);
        storage.with(Constraint::QueryCost { query: cophy_workload::QueryId(id), factor: 2.0 })
    };
    assert!(matches!(cophy.try_tune(&w, &bound(99)), Err(CoPhyError::Invalid(_))));
    let options =
        CoPhyOptions { compression: CompressionPolicy::default_epsilon(), ..Default::default() };
    let compressed = CoPhy::new(&o, options);
    assert!(matches!(compressed.try_tune(&w, &bound(0)), Err(CoPhyError::Invalid(_))));
}
