//! Integration tests of the interactive re-optimization surface
//! (paper §4.2): warm-chained budget sweeps, index pin/ban, and
//! cache-only `what_if` answers.

use proptest::prelude::*;

use cophy::{CoPhy, CoPhyOptions, ConstraintSet, SolveBudget, SolveProgress};
use cophy_catalog::Configuration;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;
use std::time::Duration;

fn optimizer() -> WhatIfOptimizer {
    WhatIfOptimizer::new(cophy_catalog::TpchGen::default().schema(), SystemProfile::A)
}

/// The lean candidate grammar of the interactive studies (2-column keys, no
/// covering variants): keeps debug-mode exact solves in the seconds range.
fn lean_cgen() -> cophy::CGen {
    cophy::CGen { max_key_columns: 2, max_include_columns: 0 }
}

/// Exact-solve options: both the warm chain and the cold tunes prove
/// optimality, so per-point objectives and bounds must coincide regardless
/// of the search path either side takes.
fn exact_options() -> CoPhyOptions {
    CoPhyOptions {
        budget: SolveBudget::within(1e-9).with_time(Duration::from_secs(120)),
        backend: cophy::SolverBackend::BranchBound,
        cgen: lean_cgen(),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Warm-chain equivalence: `try_sweep_storage_with_progress` over K budgets returns, per
    /// point, the same objective and bound as K independent cold tunes of
    /// the same workload at that budget (both sides solved to optimality).
    #[test]
    fn warm_sweep_matches_cold_tunes(seed in 0u64..1000) {
        let o = optimizer();
        let w = HomGen::new(seed).generate(o.schema(), 6);
        let total = o.schema().data_bytes();
        let budgets: Vec<u64> =
            [1.0, 0.3, 0.08].iter().map(|m| (total as f64 * m) as u64).collect();

        let cophy = CoPhy::new(&o, exact_options());
        let mut session = cophy.session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0));
        let points = session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap();

        for (p, &b) in points.iter().zip(&budgets) {
            prop_assert!(p.gap <= 1e-6, "sweep point must be solved to optimality");
            prop_assert!(p.configuration.size_bytes(o.schema()) <= b);
            let cold = cophy
                .try_tune(&w, &ConstraintSet::none().with(cophy::Constraint::Storage {
                    budget_bytes: b,
                }))
                .expect("cold tune feasible");
            prop_assert!(
                (p.objective - cold.objective).abs() / cold.objective < 1e-6,
                "objective diverged at budget {}: warm {} vs cold {}",
                b, p.objective, cold.objective
            );
            prop_assert!(
                (p.bound - cold.bound).abs() / cold.bound.abs().max(1.0) < 1e-6,
                "bound diverged at budget {}: warm {} vs cold {}",
                b, p.bound, cold.bound
            );
        }
    }

    /// Pin/ban re-solves stay feasible and respect the fixings at every
    /// budget point of a subsequent sweep.
    #[test]
    fn pin_and_ban_hold_across_sweeps(seed in 0u64..1000) {
        let o = optimizer();
        let w = HomGen::new(seed.wrapping_add(7)).generate(o.schema(), 6);
        let cophy = CoPhy::new(&o, CoPhyOptions { cgen: lean_cgen(), ..Default::default() });
        let storage = ConstraintSet::storage_fraction(o.schema(), 0.6);
        let mut session = cophy.session(&w, storage.clone());
        let free = session.recommend();
        if free.configuration.is_empty() {
            return Ok(()); // nothing to pin/ban on this seed
        }

        let banned = free.configuration.indexes()[0].clone();
        session.ban_index(&banned);
        let smallest = free
            .configuration
            .indexes()
            .iter()
            .min_by_key(|ix| ix.size_bytes(o.schema()))
            .cloned()
            .unwrap();
        if smallest != banned {
            session.pin_index(&smallest).unwrap();
        }

        let r = session.recommend();
        prop_assert!(!r.configuration.contains(&banned), "ban violated");
        if smallest != banned {
            prop_assert!(r.configuration.contains(&smallest), "pin violated");
        }
        prop_assert!(
            storage.check_configuration(o.schema(), &r.configuration).is_ok(),
            "fixed recommendation must stay feasible"
        );

        let total = o.schema().data_bytes();
        let budgets = [(total as f64 * 0.6) as u64, (total as f64 * 0.3) as u64];
        for p in session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap() {
            prop_assert!(!p.configuration.contains(&banned), "sweep must honor the ban");
            prop_assert!(
                p.configuration.size_bytes(o.schema()) <= p.budget_bytes,
                "sweep point over budget"
            );
        }
    }
}

/// Acceptance criterion: `what_if` answers issue **zero** new optimizer
/// what-if calls — everything comes from the session's INUM cache.
#[test]
fn what_if_issues_zero_optimizer_calls() {
    let o = optimizer();
    let w = HomGen::new(2024).generate(o.schema(), 12);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let mut session = cophy.session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5));
    let rec = session.recommend();

    let calls_before = o.what_if_calls();
    // Probe the recommendation, the empty config, and every single-index
    // sub-configuration — a realistic DBA exploration burst.
    let ans = session.what_if(&rec.configuration);
    let empty = session.what_if(&Configuration::empty());
    for ix in rec.configuration.indexes() {
        let single = Configuration::from_indexes([ix.clone()]);
        let a = session.what_if(&single);
        assert!(a.cost <= empty.cost + 1e-6, "a single useful index cannot hurt");
        assert!(a.cost >= ans.cost - 1e-6, "a sub-configuration cannot beat the optimum");
    }
    assert_eq!(
        o.what_if_calls(),
        calls_before,
        "what_if must be answered entirely from the INUM cache"
    );

    // The cache-costed answers are consistent with the recommendation.
    assert!((ans.cost - rec.objective).abs() / rec.objective < 1e-6);
    assert!((empty.cost - rec.baseline_cost).abs() / rec.baseline_cost < 1e-9);
    assert!(ans.improvement() > 0.0);
}

/// The session's BIP exports as lintable, losslessly re-importable MPS —
/// the portable hand-off to external solvers.
#[test]
fn session_exports_a_lintable_reimportable_mps_model() {
    let o = optimizer();
    let w = HomGen::new(91).generate(o.schema(), 6);
    let cophy = CoPhy::new(&o, CoPhyOptions { cgen: lean_cgen(), ..Default::default() });
    let mut session = cophy.session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5));
    let text = session.export_mps();
    let (cols, rows) = cophy_bip::lint_mps(&text).expect("export passes the format lint");
    let model = cophy_bip::parse_mps(&text).expect("export re-imports");
    assert_eq!(model.n_constraints(), rows);
    assert_eq!(model.n_vars(), cols);
    // Lossless round trip, modulo the `* xj = name` comment lines (the
    // parsed model carries the sanitized names).
    let payload =
        |s: &str| s.lines().filter(|l| !l.starts_with('*')).collect::<Vec<_>>().join("\n");
    assert_eq!(payload(&cophy_bip::write_mps(&model, "cophy_bip")), payload(&text));
}

/// Sweep answers stream through the unified `SolveProgress` contract:
/// per point, incumbents only improve and the proven gap never regresses.
#[test]
fn sweep_streams_anytime_consistent_progress() {
    let o = optimizer();
    let w = HomGen::new(77).generate(o.schema(), 8);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let mut session = cophy.session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0));
    let total = o.schema().data_bytes();
    let budgets = [total, total / 4, total / 20];
    let mut per_point: Vec<Vec<SolveProgress>> = vec![Vec::new(); budgets.len()];
    let points =
        session.try_sweep_storage_with_progress(&budgets, |i, p| per_point[i].push(*p)).unwrap();
    assert_eq!(points.len(), budgets.len());
    for (i, events) in per_point.iter().enumerate() {
        assert!(!events.is_empty(), "point {i} must stream progress");
        let (mut prev_inc, mut prev_gap) = (f64::INFINITY, f64::INFINITY);
        for e in events {
            assert!(e.incumbent <= prev_inc + 1e-9, "point {i}: incumbents must only improve");
            assert!(e.gap <= prev_gap + 1e-12, "point {i}: gap series must not regress");
            assert!(e.incumbent >= e.bound - 1e-9);
            prev_inc = e.incumbent;
            prev_gap = e.gap;
        }
    }
}
