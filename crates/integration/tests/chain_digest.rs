//! The solve paths no other digest reaches, pinned as one number per seed.
//!
//! `bb_digest.rs` pins a rich-constraint tune, the solver alone and a
//! ban / unfix session chain; `lagrangian_digest.rs` pins the relaxation.
//! Three paths between them stay open, and this test closes them.  For each
//! seed it folds into one FNV-1a digest
//!
//! * **a branch-and-bound tune of a storage-only set** — `CoPhy::try_tune`
//!   routed to `SolverBackend::BranchBound` under a plain storage budget, so
//!   the Lagrangian seed solves the whole problem: objective / bound / gap
//!   bits, every trace event's incumbent / bound / gap bits and the
//!   configuration;
//! * **a session that re-targets its live model** — pin the smallest
//!   candidate → recommend → sweep (the interactive model is now live) →
//!   `set_constraints` to a tighter storage set → sweep → `add_candidates`
//!   → sweep → recommend: objective / bound bits and the index list of every
//!   answer, plus each sweep point's gap, nodes and pivots;
//! * **the Chord explorer** — `ChordExplorer::explore` over the same
//!   workload: every point's λ, cost and size bits and its configuration.
//!
//! 12 statements of `HomGen`, storage 0.5 × data, an exact gap ended by a
//! 60-node cap, one thread, no wall-clock limit, so nothing depends on the
//! host.  The constants were recorded before the tune, the session and the
//! explorer shared one solve chain; a refactor that keeps every float bit,
//! every pivot and every node leaves them alone.  They are not to be
//! regenerated; `front_door_digest.rs` has the re-record protocol.

use cophy::{
    CGen, ChordExplorer, CoPhy, CoPhyOptions, ConstraintSet, SolveBudget, SolverBackend,
    TuningSession,
};
use cophy_catalog::{ColumnId, Configuration, Index, Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::HomGen;

const EXPECTED_SEED_7: u64 = 0x9be2_d5c9_474b_0561;
const EXPECTED_SEED_1001: u64 = 0xf12a_d645_1026_5a85;

const STATEMENTS: usize = 12;
const NODES: usize = 60;

fn budget() -> SolveBudget {
    SolveBudget { time_limit: None, ..SolveBudget::exact().with_nodes(NODES) }
}

fn answer(fold: &mut Fold, objective: f64, bound: f64, c: &Configuration) {
    fold.f64(objective);
    fold.f64(bound);
    fold.configuration(c);
}

fn sweep(fold: &mut Fold, session: &mut TuningSession<'_, '_>, schema: &Schema, budgets: &[u64]) {
    let points = session.try_sweep_storage_with_progress(budgets, |_, _| {}).expect("feasible");
    for p in &points {
        assert!(p.configuration.size_bytes(schema) <= p.budget_bytes);
        answer(fold, p.objective, p.bound, &p.configuration);
        fold.f64(p.gap);
        fold.u64(p.nodes as u64);
        fold.u64(p.pivots as u64);
    }
}

fn digest(backend: &dyn WhatIfBackend, seed: u64) -> u64 {
    let schema = backend.schema();
    let w = HomGen::new(seed).generate(schema, STATEMENTS);
    let storage = ConstraintSet::storage_fraction(schema, 0.5);
    let options = CoPhyOptions {
        budget: budget(),
        backend: SolverBackend::BranchBound,
        ..Default::default()
    };
    let cophy = CoPhy::new(backend, options);
    let mut fold = Fold::default();

    // (a) Branch-and-bound on a storage-only set.
    let rec = cophy.try_tune(&w, &storage).expect("a storage budget is feasible");
    for v in [rec.objective, rec.bound, rec.gap] {
        fold.f64(v);
    }
    fold.u64(rec.trace.len() as u64);
    for pt in &rec.trace {
        for v in [pt.incumbent, pt.bound, pt.gap] {
            fold.f64(v);
        }
    }
    fold.configuration(&rec.configuration);

    // (b) A session whose live model is re-targeted, then widened.
    let at = |fraction: f64| {
        ConstraintSet::storage_fraction(schema, fraction).storage_budget().expect("storage row")
    };
    let mut session = cophy.try_session(&w, storage).expect("storage-only session");
    let smallest = session
        .candidates()
        .indexes()
        .iter()
        .min_by_key(|ix| ix.size_bytes(schema))
        .expect("CGen proposes candidates")
        .clone();
    session.pin_index(&smallest).expect("the smallest candidate fits");
    let first = session.recommend();
    assert!(first.configuration.contains(&smallest));
    answer(&mut fold, first.objective, first.bound, &first.configuration);
    sweep(&mut fold, &mut session, schema, &[at(0.5), at(0.2)]);
    session.set_constraints(ConstraintSet::storage_fraction(schema, 0.3)).expect("pin fits");
    sweep(&mut fold, &mut session, schema, &[at(0.3), at(0.1)]);
    let lineitem = schema.table_by_name("lineitem").expect("TPC-H lineitem").id;
    session.add_candidates([
        Index::secondary(lineitem, vec![ColumnId(10), ColumnId(4)]),
        Index::secondary(lineitem, vec![ColumnId(0), ColumnId(10)]),
    ]);
    sweep(&mut fold, &mut session, schema, &[at(0.3), at(0.05)]);
    let last = session.recommend();
    answer(&mut fold, last.objective, last.bound, &last.configuration);

    // (c) The Chord explorer over the same workload.
    let prepared = Inum::new(backend).prepare_workload(&w);
    let candidates = CGen::default().generate(schema, &w);
    let points = ChordExplorer { max_points: 5 }.explore(&cophy, &prepared, &candidates);
    fold.u64(points.len() as u64);
    for p in &points {
        fold.f64(p.lambda);
        fold.f64(p.workload_cost);
        fold.u64(p.size_bytes);
        fold.configuration(&p.configuration);
    }

    fold.digest()
}

fn check(seed: u64, expected: u64) {
    let backend = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let got = digest(&backend, seed);
    assert_eq!(got, expected, "seed {seed} drifted from the recorded solves: {got:#018x}");
}

// One test per seed: the harness runs them on separate threads.

#[test]
fn seed_7_folds_to_the_recorded_digest() {
    check(7, EXPECTED_SEED_7);
}

#[test]
fn seed_1001_folds_to_the_recorded_digest() {
    check(1001, EXPECTED_SEED_1001);
}
