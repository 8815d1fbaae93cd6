//! Differential equivalence suite: the shipped sparse revised simplex (LU +
//! eta updates, Devex pricing, bound-flipping dual ratio test) against the
//! test-only dense explicit-inverse oracle ([`crate::dense`]), and the
//! sparse kernel's careful pivot path against its fast one.
//!
//! The contract under test is *objective/verdict equality*, not trace
//! equality: the kernels pivot differently (Devex vs Dantzig vs Bland), but
//! on every LP they must agree on feasibility and on the optimal value, and
//! a [`Basis`](crate::Basis) snapshot must survive a snapshot → restore
//! round-trip on either kernel.

use proptest::prelude::*;

use crate::dense::{dense_resolve, dense_solve};
use crate::simplex::{structural_x_by_position, PivotPath, StandardForm, Tableau};
use crate::{LinExpr, LpStatus, Model, Sense, SimplexSolver, VarId};

/// Deterministic LCG in [-1, 1) from a seed, same idiom as `properties.rs`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

/// Strategy: a random bounded LP over binaries — a knapsack row for
/// boundedness plus a few generic ≤/≥/= rows (some infeasible by design).
fn random_lp() -> impl Strategy<Value = Model> {
    (2usize..10, 1usize..4, any::<u64>()).prop_map(|(n, extra_rows, seed)| {
        let mut next = lcg(seed);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|j| m.add_var(format!("v{j}"), next() * 10.0)).collect();
        let mut e = LinExpr::new();
        for &v in &vars {
            e.add(v, next().abs() * 5.0 + 0.5);
        }
        m.add_constraint(e, Sense::Le, 1.0 + next().abs() * n as f64);
        for _ in 0..extra_rows {
            let mut g = LinExpr::new();
            for &v in &vars {
                if next() > 0.2 {
                    g.add(v, next() * 4.0);
                }
            }
            if g.terms.is_empty() {
                continue;
            }
            let sense = if next() > 0.3 {
                Sense::Le
            } else if next() > 0.0 {
                Sense::Ge
            } else {
                Sense::Eq
            };
            m.add_constraint(g, sense, next() * 3.0);
        }
        m
    })
}

/// Strategy: a model plus a chain of random bound pinches (var, value).
fn lp_with_pinches() -> impl Strategy<Value = (Model, Vec<(usize, bool)>)> {
    (random_lp(), 1usize..6, any::<u64>()).prop_map(|(m, n_pinch, seed)| {
        let mut next = lcg(seed);
        let n = m.n_vars();
        let pinches: Vec<(usize, bool)> =
            (0..n_pinch).map(|_| ((next().abs() * n as f64) as usize % n, next() > 0.0)).collect();
        (m, pinches)
    })
}

/// An index-tuning-shaped LP (Theorem 1): `n_q` assignment rows
/// `Σ_k y_qk = 1`, a coupling row `y_qk ≤ z_a` per plan, one storage row
/// over the `z` — hundreds of rows, massively degenerate, which the ≤ 4-row
/// [`random_lp`] family is not.
fn tuning_shaped_lp(n_q: usize, n_plans: usize, n_idx: usize, seed: u64) -> Model {
    let mut next = lcg(seed);
    let mut m = Model::new();
    let z: Vec<VarId> =
        (0..n_idx).map(|a| m.add_var(format!("z{a}"), 1.0 + next().abs())).collect();
    let mut storage = LinExpr::new();
    for &za in &z {
        storage.add(za, 1.0 + next().abs() * 9.0);
    }
    m.add_constraint(storage, Sense::Le, 2.5 * n_idx as f64);
    for q in 0..n_q {
        let mut assign = LinExpr::new();
        for k in 0..n_plans {
            let y = m.add_var(format!("y{q}_{k}"), 5.0 + next().abs() * 40.0);
            assign.add(y, 1.0);
            if k > 0 {
                // Plan 0 is the index-free fallback; the others need an index.
                let a = (next().abs() * n_idx as f64) as usize % n_idx;
                m.add_constraint(LinExpr::new().term(y, 1.0).term(z[a], -1.0), Sense::Le, 0.0);
            }
        }
        m.add_constraint(assign, Sense::Eq, 1.0);
    }
    m
}

#[test]
fn careful_path_solves_tuning_shaped_lps() {
    for seed in 0..6u64 {
        let m = tuning_shaped_lp(40, 4, 12, seed);
        let n = m.n_vars();
        let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
        let solver = SimplexSolver::new();
        let form = StandardForm::new(&m);
        let fast = solver.solve_cold(&form, &lo, &hi, PivotPath::Fast);
        let careful = solver.solve_cold(&form, &lo, &hi, PivotPath::Careful);
        let oracle = dense_solve(&solver, &m, &lo, &hi);
        assert_eq!(fast.status, LpStatus::Optimal, "seed {seed}");
        for (name, r) in [("careful", &careful), ("oracle", &oracle)] {
            assert_eq!(r.status, LpStatus::Optimal, "{name}, seed {seed}");
            assert!(
                (r.objective - fast.objective).abs() <= 1e-6 * (1.0 + fast.objective.abs()),
                "seed {seed}: {name} {} vs fast {}",
                r.objective,
                fast.objective
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold solves: identical verdicts, equal objectives within tolerance.
    #[test]
    fn engines_agree_on_random_lps(m in random_lp()) {
        let n = m.n_vars();
        let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
        let sparse = SimplexSolver::new().solve(&m, &lo, &hi);
        let dense = dense_solve(&SimplexSolver::new(), &m, &lo, &hi);
        prop_assert_eq!(sparse.status, dense.status);
        if let Some(basis) = &sparse.basis {
            let form = StandardForm::new(&m);
            let mut t = Tableau::new(&form, &lo, &hi);
            prop_assert!(t.restore(basis));
            prop_assert_eq!(t.structural_x(), structural_x_by_position(&t));
        }
        if sparse.status == LpStatus::Optimal {
            prop_assert!(
                (sparse.objective - dense.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
                "sparse {} vs dense {}", sparse.objective, dense.objective
            );
            // The dense oracle never runs Devex, so it never resets it.
            prop_assert_eq!(dense.devex_resets, 0);
        }
    }

    /// The recovery path is a solver in its own right: a cold solve on the
    /// careful pivot path (Bland from the first pivot, stricter ratio-test
    /// tolerance, fresh LU per pivot) reaches the fast path's verdict and
    /// value.
    #[test]
    fn careful_path_agrees_with_the_fast_path(m in random_lp()) {
        let n = m.n_vars();
        let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
        let solver = SimplexSolver::new();
        let form = StandardForm::new(&m);
        let fast = solver.solve_cold(&form, &lo, &hi, PivotPath::Fast);
        let careful = solver.solve_cold(&form, &lo, &hi, PivotPath::Careful);
        prop_assert_eq!(careful.status, fast.status);
        if fast.status == LpStatus::Optimal {
            prop_assert!(
                (careful.objective - fast.objective).abs() <= 1e-6 * (1.0 + fast.objective.abs()),
                "careful {} vs fast {}", careful.objective, fast.objective
            );
            prop_assert!(careful.basis.is_some(), "a careful optimum snapshots its basis");
        }
    }

    /// Warm pinch chains: the sparse dual simplex re-solving from the parent
    /// basis must reach the verdict and value of a dense cold solve at every
    /// link of the chain.
    #[test]
    fn warm_sparse_chain_matches_dense_cold(case in lp_with_pinches()) {
        let (m, pinches) = case;
        let n = m.n_vars();
        let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        if root.status != LpStatus::Optimal {
            // Infeasible roots carry no basis to chain from; skip the case.
            return Ok(());
        }
        let mut basis = root.basis.expect("optimal solve snapshots a basis");
        let dual = SimplexSolver::new();
        for (j, v) in pinches {
            lo[j] = if v { 1.0 } else { 0.0 };
            hi[j] = lo[j];
            let warm = dual.resolve(&m, &lo, &hi, &basis).expect("basis fits the same model");
            let cold = dense_solve(&SimplexSolver::new(), &m, &lo, &hi);
            prop_assert!(
                warm.status == cold.status
                    || (warm.status == LpStatus::IterLimit && cold.status == LpStatus::Optimal),
                "warm {:?} vs dense cold {:?}", warm.status, cold.status
            );
            match warm.status {
                LpStatus::Optimal => {
                    prop_assert!(
                        (warm.objective - cold.objective).abs()
                            <= 1e-6 * (1.0 + cold.objective.abs()),
                        "warm {} vs dense cold {}", warm.objective, cold.objective
                    );
                    basis = warm.basis.expect("optimal resolve snapshots a basis");
                    // The single walk over the basis reads the same point
                    // off the solved tableau as one search per variable.
                    let form = StandardForm::new(&m);
                    let mut t = Tableau::new(&form, &lo, &hi);
                    prop_assert!(t.restore(&basis));
                    prop_assert_eq!(t.structural_x(), structural_x_by_position(&t));
                }
                // Infeasible: the chain cannot continue from this pinch.
                _ => break,
            }
        }
    }

    /// Basis round-trip: a snapshot restored under the *same* bounds is
    /// already optimal (zero or near-zero extra pivots, equal objective).
    #[test]
    fn basis_roundtrips_across_snapshot_and_restore(m in random_lp()) {
        let n = m.n_vars();
        let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        if root.status != LpStatus::Optimal {
            // Nothing to round-trip without an optimal snapshot.
            return Ok(());
        }
        let basis = root.basis.clone().expect("optimal solve snapshots a basis");

        // Restore under identical bounds: the dual simplex finds nothing to
        // repair on either kernel.
        let dual = SimplexSolver::new();
        for r in [dual.resolve(&m, &lo, &hi, &basis), dense_resolve(&dual, &m, &lo, &hi, &basis)] {
            let r = r.expect("snapshot fits its own model");
            prop_assert_eq!(r.status, LpStatus::Optimal);
            prop_assert!(
                (r.objective - root.objective).abs() <= 1e-6 * (1.0 + root.objective.abs())
            );
        }
    }
}
