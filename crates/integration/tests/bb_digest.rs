//! Branch-and-bound on the `rich_bb` shape, pinned as one number per seed.
//!
//! `lagrangian_digest.rs` pins the Lagrangian backend at `perf`'s sizes; this
//! test does the same for the exact backend, on the input `perf`'s `rich_bb`
//! workload runs: 20 statements — the 15 `HomGen` templates in rotation, the
//! first five twice, drawn as `perf/src/adapter.rs::Scenario::batch` draws
//! them —, storage 0.5 × data plus `IndexCount(lineitem) ≤ 2`, an exact gap
//! ended by a 100-node cap, one thread, no wall-clock limit.  For each seed
//! it folds into one FNV-1a digest
//!
//! * **the front door** — `CoPhy::try_tune` routed to
//!   `SolverBackend::BranchBound`: objective / bound / gap bits, every
//!   trace event's incumbent / bound / gap bits (not its timestamp) and the
//!   configuration;
//! * **the solver alone** — `BranchBound::solve` on `BipGen::model`'s output,
//!   unseeded: status, objective / bound / gap bits, every bit of `x`, and
//!   the counters `nodes`, `pivots`, `refactorizations`, `devex_resets`,
//!   `factor_recoveries`, `sb_cold_lps`, `dive_cold_lps`;
//! * **a session chain through `BranchBound::resolve`** — recommend → ban the
//!   first recommended index → recommend → a one-point sweep with the ban in
//!   force → unfix → a three-budget sweep: objective / bound bits and the
//!   index list of every answer, plus each sweep point's nodes and pivots.
//!
//! The constants were recorded at commit 8a9c42c (PR 18), when every repair
//! call rebuilt its column index and ran out its pass cap, the LU probed
//! every earlier step for every column, and every node LP rebuilt its
//! standard form from the constraint list.  A rewrite of those layers that
//! keeps every float bit, every flip and every pivot leaves them alone;
//! anything else moves them.  They are not to be regenerated;
//! `front_door_digest.rs` has the re-record protocol.

use cophy::{
    BipGen, CGen, Cmp, CoPhy, CoPhyOptions, Constraint, ConstraintSet, IndexFilter, SolveBudget,
    SolverBackend,
};
use cophy_bip::{BranchBound, SolveOptions};
use cophy_catalog::{Configuration, Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{HomGen, Statement, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The first variant `perf` draws from its default seed.
const PERF_SEED: u64 = sub_seed(0xC0FFEE, 0);
const EXPECTED_PERF_SEED: u64 = 0x01c8_88c1_8bb6_b72a;
/// A seed of no other significance.
const EXPECTED_SEED_23: u64 = 0x6efb_2c28_c28e_cb6f;

const STATEMENTS: usize = 20;
const NODES: usize = 100;

/// `perf/src/workloads.rs::sub_seed`: the seed of variant `i` of a run.
const fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The templates in rotation, as `Scenario::batch` instantiates them.
fn workload(schema: &Schema, seed: u64) -> Workload {
    let (gen, mut rng) = (HomGen::new(seed), SmallRng::seed_from_u64(seed));
    (0..STATEMENTS)
        .map(|i| Statement::Select(gen.instantiate(schema, i % HomGen::TEMPLATES, &mut rng)))
        .collect()
}

/// Exact gap, so the node cap ends every solve; no wall clock anywhere, so
/// the digests do not depend on the host.
fn budget() -> SolveBudget {
    SolveBudget { time_limit: None, ..SolveBudget::exact().with_nodes(NODES) }
}

fn digest(backend: &dyn WhatIfBackend, seed: u64) -> u64 {
    let (schema, cm) = (backend.schema(), backend.cost_model());
    let w = workload(schema, seed);
    let storage = ConstraintSet::storage_fraction(schema, 0.5);
    let lineitem = schema.table_by_name("lineitem").expect("TPC-H lineitem").id;
    let rich = storage.clone().with(Constraint::IndexCount {
        filter: IndexFilter::on_table(lineitem),
        cmp: Cmp::Le,
        value: 2,
    });
    let options = CoPhyOptions {
        budget: budget(),
        backend: SolverBackend::BranchBound,
        ..Default::default()
    };
    let cophy = CoPhy::new(backend, options);
    let mut fold = Fold::default();

    // (a) The front door.
    let rec = cophy.try_tune(&w, &rich).expect("the rich set is feasible");
    assert!(rec.configuration.on_table(lineitem).count() <= 2);
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

    // (b) The solver alone on the Theorem-1 model, without the front door's
    // Lagrangian seed: the root heuristics and the dive start from the LP
    // point only.
    let prepared = Inum::new(backend).prepare_workload(&w);
    let candidates = CGen::default().generate(schema, &w);
    let (model, _) = BipGen::default().model(schema, cm, &prepared, &candidates, &rich);
    let opts = SolveOptions { budget: budget(), ..Default::default() };
    let r = BranchBound::new().solve(&model, &opts);
    fold.bytes(format!("{:?}", r.status).as_bytes());
    for v in [r.objective, r.bound, r.gap] {
        fold.f64(v);
    }
    fold.u64(r.x.len() as u64);
    for &v in &r.x {
        fold.f64(v);
    }
    for v in [
        r.nodes,
        r.pivots,
        r.refactorizations,
        r.devex_resets,
        r.factor_recoveries,
        r.sb_cold_lps,
        r.dive_cold_lps,
    ] {
        fold.u64(v as u64);
    }

    // (c) A session: `recommend` answers from the Lagrangian backend, every
    // sweep point is a `BranchBound::resolve` from the previous point's
    // basis, incumbent and pseudo-costs.
    let mut session = cophy.try_session(&w, storage).expect("storage-only session");
    let answer = |fold: &mut Fold, objective: f64, bound: f64, c: &Configuration| {
        fold.f64(objective);
        fold.f64(bound);
        fold.configuration(c);
    };
    let first = session.recommend();
    answer(&mut fold, first.objective, first.bound, &first.configuration);
    let banned = first.configuration.indexes().first().expect("an index is recommended").clone();
    session.ban_index(&banned);
    let second = session.recommend();
    assert!(!second.configuration.indexes().contains(&banned));
    answer(&mut fold, second.objective, second.bound, &second.configuration);
    let at = |fraction: f64| {
        ConstraintSet::storage_fraction(schema, fraction).storage_budget().expect("storage row")
    };
    let sweep = |fold: &mut Fold, session: &mut cophy::TuningSession, budgets: &[u64]| {
        let points = session.try_sweep_storage_with_progress(budgets, |_, _| {}).expect("feasible");
        for p in &points {
            answer(fold, p.objective, p.bound, &p.configuration);
            fold.u64(p.nodes as u64);
            fold.u64(p.pivots as u64);
        }
        points
    };
    let under_ban = sweep(&mut fold, &mut session, &[at(0.5)]);
    assert!(!under_ban[0].configuration.indexes().contains(&banned));
    session.unfix_index(&banned);
    sweep(&mut fold, &mut session, &[at(0.5), at(0.3), at(0.15)]);

    fold.digest()
}

fn check(seed: u64, expected: u64) {
    let backend = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let got = digest(&backend, seed);
    assert_eq!(got, expected, "seed {seed:#x} drifted from the recorded solves: {got:#018x}");
}

// One test per seed: the harness runs them on separate threads.

#[test]
fn perf_default_seed_folds_to_the_recorded_digest() {
    check(PERF_SEED, EXPECTED_PERF_SEED);
}

#[test]
fn seed_23_folds_to_the_recorded_digest() {
    check(23, EXPECTED_SEED_23);
}
