//! End-to-end pipeline tests spanning every crate: catalog → workload →
//! optimizer → INUM → BIP → CoPhy → baselines.

use cophy::{CGen, CoPhy, CoPhyOptions, ConstraintSet, SolveBudget, SolverBackend};
use cophy_advisors::{Advisor, IlpAdvisor, ToolA, ToolB};
use cophy_catalog::{Configuration, Skew, TpchGen};
use cophy_inum::Inum;
use cophy_optimizer::{
    access_rows, ucost, IndexFacts, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{HetGen, HomGen, Statement, UpdateGen};

fn optimizer(profile: SystemProfile, z: f64) -> WhatIfOptimizer {
    WhatIfOptimizer::new(TpchGen::new(1.0, Skew(z)).schema(), profile)
}

#[test]
fn full_pipeline_on_homogeneous_workload() {
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(1).generate(o.schema(), 40);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
    let rec = cophy.try_tune(&w, &constraints).unwrap();

    // The recommendation must beat the baseline on the *real* optimizer, not
    // just on INUM's approximation.
    let perf = o.perf(&w, &rec.configuration);
    assert!(perf > 0.3, "expected a strong improvement on W_hom, got {perf}");
    // And the INUM estimate must agree with the ground truth directionally.
    assert!(rec.estimated_improvement() > 0.0);
    // Budget respected.
    assert!(rec.configuration.size_bytes(o.schema()) <= o.schema().data_bytes());
}

#[test]
fn full_pipeline_on_heterogeneous_workload_with_updates() {
    let o = optimizer(SystemProfile::B, 0.0);
    let reads = HetGen::new(2).generate(o.schema(), 30);
    let w = UpdateGen::new(3).mix_into(o.schema(), &reads, 0.25);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let rec = cophy.try_tune(&w, &constraints).unwrap();
    let perf = o.perf(&w, &rec.configuration);
    assert!(perf >= 0.0, "updates must not drive the recommendation negative: {perf}");
    assert!(constraints.check_configuration(o.schema(), &rec.configuration).is_ok());
}

#[test]
fn update_heavy_workload_selects_fewer_indexes() {
    // Maintenance costs must make the advisor (weakly) more conservative.
    // Compare against the *same* workload with every UPDATE replaced by a
    // SELECT of its query shell: the read side is identical, so index
    // maintenance is the only difference between the two tuning problems.
    // (Comparing against the read-only workload alone would be unsound: the
    // update shells are highly selective point lookups that legitimately
    // make extra, cheap-to-maintain indexes worthwhile.)
    let o = optimizer(SystemProfile::A, 0.0);
    let reads = HomGen::new(4).generate(o.schema(), 24);
    let update_heavy = UpdateGen::new(5).mix_into(o.schema(), &reads, 0.5);

    let mut maintenance_free = cophy_workload::Workload::new();
    for (_, stmt, weight) in update_heavy.iter() {
        maintenance_free.push_weighted(Statement::Select(stmt.read_shell().clone()), weight);
    }

    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
    let free_rec =
        CoPhy::new(&o, CoPhyOptions::default()).try_tune(&maintenance_free, &constraints).unwrap();
    let upd_rec =
        CoPhy::new(&o, CoPhyOptions::default()).try_tune(&update_heavy, &constraints).unwrap();

    assert!(
        upd_rec.configuration.len() <= free_rec.configuration.len(),
        "update-heavy: {} indexes vs maintenance-free: {}",
        upd_rec.configuration.len(),
        free_rec.configuration.len()
    );
    // And the maintenance-aware objective can only be worse (costs added).
    assert!(upd_rec.objective >= free_rec.objective - 1e-6);
}

#[test]
fn skew_makes_selective_indexes_more_attractive() {
    // §5.2: with z=2 "certain indices become very beneficial".
    let uni = optimizer(SystemProfile::A, 0.0);
    let skw = optimizer(SystemProfile::A, 2.0);
    let w_uni = HomGen::new(6).generate(uni.schema(), 30);
    let w_skw = HomGen::new(6).generate(skw.schema(), 30);
    let c_uni = ConstraintSet::storage_fraction(uni.schema(), 1.0);
    let c_skw = ConstraintSet::storage_fraction(skw.schema(), 1.0);
    let r_uni = CoPhy::new(&uni, CoPhyOptions::default()).try_tune(&w_uni, &c_uni).unwrap();
    let r_skw = CoPhy::new(&skw, CoPhyOptions::default()).try_tune(&w_skw, &c_skw).unwrap();
    let p_uni = uni.perf(&w_uni, &r_uni.configuration);
    let p_skw = skw.perf(&w_skw, &r_skw.configuration);
    assert!(p_uni > 0.0 && p_skw > 0.0);
    // Both regimes must produce solid recommendations; the easier skewed
    // problem should not be *worse*.
    assert!(p_skw > 0.25, "skewed tuning too weak: {p_skw}");
}

#[test]
fn all_advisors_produce_feasible_configurations() {
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(7).generate(o.schema(), 12);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let advisors: Vec<Box<dyn Advisor>> =
        vec![Box::new(IlpAdvisor::default()), Box::new(ToolA), Box::new(ToolB)];
    for a in &advisors {
        let cfg = a.recommend(&o, &w, &constraints);
        assert!(
            constraints.check_configuration(o.schema(), &cfg).is_ok(),
            "{} violated the storage budget",
            a.name()
        );
        assert!(o.perf(&w, &cfg) >= -0.01, "{} made things worse", a.name());
    }
}

#[test]
fn cophy_beats_or_matches_every_baseline_on_heterogeneous() {
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HetGen::new(8).generate(o.schema(), 30);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
    let rec = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();
    let p_cophy = o.perf(&w, &rec.configuration);
    for (name, cfg) in [
        ("Tool-A", ToolA.recommend(&o, &w, &constraints)),
        ("Tool-B", ToolB.recommend(&o, &w, &constraints)),
    ] {
        let p = o.perf(&w, &cfg);
        assert!(p_cophy >= p - 0.03, "CoPhy ({p_cophy}) lost to {name} ({p}) on W_het");
    }
}

#[test]
fn backend_equivalence_end_to_end() {
    // The Lagrangian (scaled) backend and exact B&B must land within the gap
    // tolerance of each other through the full public API.
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(9).generate(o.schema(), 8);
    let candidates = CGen::default().generate(o.schema(), &w).truncate(12);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.25);

    let exact = CoPhy::new(
        &o,
        CoPhyOptions {
            backend: SolverBackend::BranchBound,
            budget: SolveBudget::exact(),
            ..Default::default()
        },
    )
    .try_tune_with_candidates(&w, &candidates, &constraints)
    .unwrap();
    let lagr = CoPhy::new(
        &o,
        CoPhyOptions {
            backend: SolverBackend::Lagrangian,
            budget: SolveBudget { gap_limit: 1e-6, node_limit: Some(800), ..Default::default() },
            ..Default::default()
        },
    )
    .try_tune_with_candidates(&w, &candidates, &constraints)
    .unwrap();

    assert!(lagr.objective >= exact.objective - 1e-6, "Lagrangian below proven optimum");
    assert!(
        (lagr.objective - exact.objective) / exact.objective < 0.02,
        "backends disagree: lagrangian {} vs exact {}",
        lagr.objective,
        exact.objective
    );
}

#[test]
fn rich_constraint_solve_is_deterministic() {
    // The rich-constraint B&B route must reproduce its incumbent/bound
    // trace bit-for-bit across runs, end to end (no time limit, so nothing
    // wall-clock-dependent steers the search).
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(12).generate(o.schema(), 6);
    let candidates = CGen::default().generate(o.schema(), &w).truncate(10);
    let li = o.schema().table_by_name("lineitem").unwrap().id;
    let rich =
        ConstraintSet::storage_fraction(o.schema(), 0.4).with(cophy::Constraint::IndexCount {
            filter: cophy::IndexFilter::on_table(li),
            cmp: cophy::Cmp::Le,
            value: 1,
        });
    let inum = Inum::new(&o);
    let prepared = inum.prepare_workload(&w);

    let run = || {
        let cophy = CoPhy::new(
            &o,
            CoPhyOptions {
                backend: SolverBackend::BranchBound,
                budget: SolveBudget::exact(),
                ..Default::default()
            },
        );
        let mut events: Vec<(u64, u64, u64)> = Vec::new();
        let rec = cophy
            .try_tune_prepared(&prepared, &candidates, &rich, std::time::Duration::ZERO, 0, |p| {
                events.push((p.incumbent.to_bits(), p.bound.to_bits(), p.gap.to_bits()))
            })
            .expect("feasible");
        (rec, events)
    };

    let (rec_a, trace_a) = run();
    let (rec_b, trace_b) = run();
    assert_eq!(trace_a, trace_b, "the trace must be reproducible bit-for-bit");
    assert_eq!(rec_a.objective.to_bits(), rec_b.objective.to_bits());
    assert_eq!(rec_a.bound.to_bits(), rec_b.bound.to_bits());
    assert!(rich.check_configuration(o.schema(), &rec_a.configuration).is_ok());
}

#[test]
fn inum_cache_consistent_with_what_if_after_tuning() {
    // After tuning, re-validate INUM's accuracy *on the recommended
    // configuration* — the operating point that matters.
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(10).generate(o.schema(), 15);
    let rec = CoPhy::new(&o, CoPhyOptions::default())
        .try_tune(&w, &ConstraintSet::storage_fraction(o.schema(), 1.0))
        .unwrap();
    let inum = Inum::new(&o);
    let prepared = inum.prepare_workload(&w);
    for pq in &prepared.queries {
        let approx = pq.cost(o.schema(), o.cost_model(), &rec.configuration);
        let exact = o.cost_statement(w.statement(pq.qid), &rec.configuration);
        let ratio = approx / exact;
        assert!(
            (0.99..=1.4).contains(&ratio),
            "INUM drift at the recommended configuration: {ratio}"
        );
    }
}

#[test]
fn baseline_x0_is_never_part_of_recommendation_budget() {
    // The budget constrains X*, not X0: evaluation unions the clustered PKs.
    let o = optimizer(SystemProfile::A, 0.0);
    let w = HomGen::new(11).generate(o.schema(), 10);
    let tiny = ConstraintSet::storage_fraction(o.schema(), 0.01);
    let rec = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &tiny).unwrap();
    assert!(rec.configuration.size_bytes(o.schema()) <= o.schema().data_bytes() / 100 + 1);
    let x0 = Configuration::baseline(o.schema());
    let union = rec.configuration.union(&x0);
    assert_eq!(union.len(), rec.configuration.len() + x0.len());
}

/// INUM prices an UPDATE from the rows it cached at preparation, the
/// backend's `cost_statement` from `access_rows` computed afresh; both go
/// through §2's one definition (`cophy_optimizer::ucost` and
/// `CostModel::rewrite`).  The cached rows are the fresh ones, and
/// `PreparedQuery::ucost` (with the height from the index facts BIPGen
/// builds) and `fixed_update_cost` are the shared functions of them, bit for
/// bit, over UPDATE statements × CGen's candidates under both system
/// profiles.  So is the backend's whole statement cost under the
/// candidates on the UPDATE's table.
#[test]
fn inum_and_the_backend_price_index_maintenance_alike() {
    let (mut priced, mut affected) = (0, 0);
    for profile in [SystemProfile::A, SystemProfile::B] {
        let o = optimizer(profile, 0.0);
        let (schema, cm) = (o.schema(), o.cost_model());
        let reads = HetGen::new(8).generate(schema, 40);
        let w = UpdateGen::new(9).mix_into(schema, &reads, 0.5);
        let candidates = CGen::default().generate(schema, &w);
        let prepared = Inum::new(&o).prepare_workload(&w);
        for pq in &prepared.queries {
            let Some((u, rows)) = &pq.update else { continue };
            let fresh = access_rows(schema, &u.shell, u.table());
            assert_eq!(rows.to_bits(), fresh.to_bits(), "{u:?}");
            assert_eq!(pq.fixed_update_cost.to_bits(), cm.rewrite(fresh).to_bits(), "{u:?}");
            for (_, ix) in candidates.iter() {
                let facts = IndexFacts::new(schema, ix);
                let inum = pq.ucost(cm, ix, || facts.height());
                let shared = ucost(cm, u, fresh, ix, || ix.height(schema));
                assert_eq!(inum.to_bits(), shared.to_bits(), "{ix:?} under {u:?}");
                priced += 1;
                affected += usize::from(shared > 0.0);
            }
            let on_table = candidates.iter().filter(|(_, ix)| ix.table == u.table());
            let config = Configuration::from_indexes(on_table.map(|(_, ix)| ix.clone()));
            let read = o.try_probe(&u.shell, &config).unwrap().total_cost;
            let maintenance: f64 =
                config.iter().map(|ix| pq.ucost(cm, ix, || ix.height(schema))).sum();
            let backend = o.cost_statement(&Statement::Update(u.clone()), &config);
            let inum = read + maintenance + pq.fixed_update_cost;
            assert_eq!(backend.to_bits(), inum.to_bits(), "{u:?}");
        }
    }
    assert!(affected > 500 && priced > 10 * affected, "{affected} of {priced} pairs affected");
}
