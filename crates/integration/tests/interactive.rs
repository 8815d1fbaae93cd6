//! Integration tests of the interactive re-optimization surface
//! (paper §4.2): warm-chained budget sweeps, index pin/ban, and
//! cache-only `what_if` answers.

use proptest::prelude::*;

use cophy::{CoPhy, CoPhyOptions, ConstraintSet, SolveBudget, SolveProgress};
use cophy_catalog::{ColumnId, Configuration, Index};
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
    /// the same workload at that budget (both sides solved to optimality) —
    /// whether or not the session's own constraints carry a storage row.
    #[test]
    fn warm_sweep_matches_cold_tunes(seed in 0u64..1000) {
        let o = optimizer();
        let w = HomGen::new(seed).generate(o.schema(), 6);
        let total = o.schema().data_bytes();
        let budgets: Vec<u64> =
            [1.0, 0.3, 0.08].iter().map(|m| (total as f64 * m) as u64).collect();

        let cophy = CoPhy::new(&o, exact_options());
        let cold: Vec<_> = budgets
            .iter()
            .map(|&b| {
                let storage = ConstraintSet::none().with(cophy::Constraint::Storage {
                    budget_bytes: b,
                });
                cophy.try_tune(&w, &storage).expect("cold tune feasible")
            })
            .collect();
        for session_set in [ConstraintSet::storage_fraction(o.schema(), 1.0), ConstraintSet::none()] {
            let mut session = cophy.try_session(&w, session_set).unwrap();
            let points = session.try_sweep_storage_with_progress(&budgets, |_, _| {}).unwrap();
            for ((p, &b), cold) in points.iter().zip(&budgets).zip(&cold) {
                prop_assert!(p.gap <= 1e-6, "sweep point must be solved to optimality");
                prop_assert!(p.configuration.size_bytes(o.schema()) <= b);
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
    }

    /// The session owns pin / ban / budget once.  Pin/ban re-solves stay
    /// feasible and respect the fixings at every budget point of a sweep; a
    /// sweep borrows the model's storage row without moving the session's
    /// budget; after any interleaving of the mutators every sweep point
    /// honours exactly `session.fixings()`; and a ban between two sweeps
    /// leaves the second one warm.
    #[test]
    fn pin_and_ban_hold_across_sweeps(
        seed in 0u64..1000,
        ops in prop::collection::vec((0u8..6, any::<u16>()), 4..9),
    ) {
        let o = optimizer();
        let w = HomGen::new(seed.wrapping_add(7)).generate(o.schema(), 6);
        let cophy = CoPhy::new(&o, CoPhyOptions { cgen: lean_cgen(), ..Default::default() });
        let storage = ConstraintSet::storage_fraction(o.schema(), 0.6);
        let mut session = cophy.try_session(&w, storage.clone()).unwrap();
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

        // A sweep to tighter budgets is a question, not a `set_constraints`:
        // the exported model keeps the session's own storage row.
        let total = o.schema().data_bytes();
        let budgets = [(total as f64 * 0.6) as u64, (total as f64 * 0.3) as u64];
        let rhs_before = rhs_section(&session.export_mps());
        let first_sweep = checked_sweep(&o, &mut session, &budgets)?;
        prop_assert_eq!(rhs_section(&session.export_mps()), rhs_before);

        // sweep → ban → sweep: the ban is a bound pinch on the model the
        // first sweep left warm, so the second sweep's first point restarts
        // from that root basis, where a fresh session pays a cold root LP.
        let newly_banned = first_sweep.and_then(|points| {
            points[0].configuration.indexes().iter().find(|ix| **ix != smallest).cloned()
        });
        if let Some(ix) = newly_banned {
            session.ban_index(&ix);
            let warm = checked_sweep(&o, &mut session, &budgets[..1])?.expect("bans fit");
            let mut fresh = cophy.try_session(&w, storage.clone()).unwrap();
            for (ix, pinned) in session.fixings().to_vec() {
                if pinned {
                    fresh.pin_index(&ix).unwrap();
                } else {
                    fresh.ban_index(&ix);
                }
            }
            let cold = checked_sweep(&o, &mut fresh, &budgets[..1])?.expect("bans fit");
            prop_assert!(
                warm[0].pivots < cold[0].pivots,
                "a ban must not cool the chain: {} warm pivots vs {} cold",
                warm[0].pivots, cold[0].pivots
            );
        }

        // Any interleaving of the mutators, then a sweep.
        for (op, arg) in ops {
            let arg = arg as usize;
            let pick = session.candidates().indexes()[arg % session.candidates().len()].clone();
            match op {
                // A pin the budget cannot hold is refused, session unchanged.
                0 => drop(session.pin_index(&pick)),
                1 => session.ban_index(&pick),
                2 => {
                    let fixed = session.fixings();
                    if let Some((ix, _)) = fixed.get(arg % fixed.len().max(1)).cloned() {
                        session.unfix_index(&ix);
                    }
                }
                // Likewise a budget the pins no longer fit.
                3 => drop(session.set_constraints(ConstraintSet::storage_fraction(
                    o.schema(),
                    0.1 + (arg % 9) as f64 * 0.1,
                ))),
                4 => {
                    let n_cols = o.schema().table(pick.table).columns.len();
                    let extra = ColumnId((arg % n_cols) as u32);
                    if !pick.contains(extra) {
                        let mut key = pick.key.clone();
                        key.push(extra);
                        session.add_candidates([Index::secondary(pick.table, key)]);
                    }
                }
                _ => drop(checked_sweep(&o, &mut session, &[total / (1 + arg as u64 % 8)])?),
            }
        }
        checked_sweep(&o, &mut session, &budgets)?;
    }
}

/// The `RHS` section of an exported model.
fn rhs_section(mps: &str) -> Vec<String> {
    mps.lines()
        .skip_while(|l| *l != "RHS")
        .take_while(|l| *l != "BOUNDS")
        .map(String::from)
        .collect()
}

/// Sweep `budgets` and check every point against the session's own record of
/// its fixings: each pinned index present, each banned one absent, the
/// configuration inside the point's budget.  `None` when the sweep is refused
/// as infeasible — which only pins larger than a point's budget may cause.
fn checked_sweep(
    o: &WhatIfOptimizer,
    session: &mut cophy::TuningSession<'_, '_>,
    budgets: &[u64],
) -> Result<Option<Vec<cophy::SweepPoint>>, TestCaseError> {
    let fixings = session.fixings().to_vec();
    let points = match session.try_sweep_storage_with_progress(budgets, |_, _| {}) {
        Ok(points) => points,
        Err(e) => {
            let pinned: u64 =
                fixings.iter().filter(|(_, on)| *on).map(|(ix, _)| ix.size_bytes(o.schema())).sum();
            let tightest = *budgets.iter().min().expect("a sweep has points");
            prop_assert!(pinned > tightest, "{e}: {pinned} bytes pinned fit {tightest}");
            return Ok(None);
        }
    };
    for p in &points {
        for (ix, pinned) in &fixings {
            prop_assert_eq!(
                p.configuration.contains(ix),
                *pinned,
                "budget {}: {:?} is {}",
                p.budget_bytes,
                ix,
                if *pinned { "pinned" } else { "banned" }
            );
        }
        prop_assert!(
            p.configuration.size_bytes(o.schema()) <= p.budget_bytes,
            "sweep point over budget"
        );
    }
    Ok(Some(points))
}

/// Acceptance criterion: `what_if` answers issue **zero** new optimizer
/// what-if calls — everything comes from the session's INUM cache.
#[test]
fn what_if_issues_zero_optimizer_calls() {
    let o = optimizer();
    let w = HomGen::new(2024).generate(o.schema(), 12);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let mut session =
        cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
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
    let session = cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 0.5)).unwrap();
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
    let mut session =
        cophy.try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0)).unwrap();
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
