//! Property-based tests (proptest) for the core invariants.

use proptest::prelude::*;

use cophy::{BipGen, CGen, Constraint, ConstraintSet};
use cophy_bip::{
    continuous_min, Alt, Block, BlockProblem, BranchBound, LagrangianSolver, LinExpr, Model, Sense,
    SimplexSolver, SlotChoices, SolveOptions, SolveProgress,
};
use cophy_catalog::{ColumnId, Configuration, Index, Skew, TpchGen};
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

// ---------------------------------------------------------------------------
// BIP substrate invariants
// ---------------------------------------------------------------------------

/// Strategy: a random small BIP (knapsack-ish + a couple of generic rows).
fn small_bip() -> impl Strategy<Value = Model> {
    (2usize..8, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // [-1, 1)
        };
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|j| m.add_var(format!("v{j}"), next() * 10.0)).collect();
        // knapsack row keeps things feasible and bounded
        let mut e = LinExpr::new();
        for &v in &vars {
            e.add(v, next().abs() * 5.0 + 0.5);
        }
        m.add_constraint(e, Sense::Le, n as f64);
        // one optional generic row
        if next() > 0.0 {
            let mut g = LinExpr::new();
            for &v in &vars {
                if next() > 0.3 {
                    g.add(v, next() * 4.0);
                }
            }
            if !g.terms.is_empty() {
                m.add_constraint(g, Sense::Le, 2.0 + next().abs() * 3.0);
            }
        }
        m
    })
}

/// Strategy: a random small block-angular problem with guaranteed
/// fallbacks (the Lagrangian backend's input shape).
fn small_block() -> impl Strategy<Value = BlockProblem> {
    (2usize..8, 2usize..10, any::<u64>()).prop_map(|(n_items, n_blocks, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // [-1, 1)
        };
        let item_cost = (0..n_items).map(|_| next().abs() * 2.0).collect();
        let item_size = (0..n_items).map(|_| next().abs() * 4.0 + 1.0).collect();
        let mut blocks = Vec::new();
        for _ in 0..n_blocks {
            let mut alts = Vec::new();
            for _ in 0..1 + (next().abs() * 3.0) as usize {
                let mut slots = Vec::new();
                for _ in 0..1 + (next().abs() * 3.0) as usize {
                    let fallback = Some(next().abs() * 45.0 + 5.0);
                    let choices = (0..(next().abs() * 4.0) as usize)
                        .map(|_| {
                            let item =
                                ((next().abs() * n_items as f64) as u32).min(n_items as u32 - 1);
                            (item, next().abs() * 39.5 + 0.5)
                        })
                        .collect();
                    slots.push(SlotChoices { fallback, choices });
                }
                alts.push(Alt { base: next().abs() * 19.0 + 1.0, slots });
            }
            blocks.push(Block { alts });
        }
        BlockProblem {
            n_items,
            item_cost,
            item_size,
            budget: Some(next().abs() * (n_items as f64 * 3.0) + 3.0),
            blocks,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LP relaxation never exceeds the binary optimum, and B&B matches
    /// the brute-force oracle exactly.
    #[test]
    fn branch_and_bound_matches_oracle(m in small_bip()) {
        let n = m.n_vars();
        let lp = SimplexSolver::new().solve(&m, &vec![0.0; n], &vec![1.0; n]);
        let bb = BranchBound::new().solve(&m, &SolveOptions::default());
        match m.brute_force() {
            None => prop_assert_eq!(bb.status, cophy_bip::MipStatus::Infeasible),
            Some((opt, _)) => {
                prop_assert!((bb.objective - opt).abs() < 1e-5,
                    "B&B {} vs oracle {}", bb.objective, opt);
                prop_assert!(lp.objective <= opt + 1e-6,
                    "LP bound {} above optimum {}", lp.objective, opt);
                prop_assert!(m.feasible(&bb.x, 1e-6));
                prop_assert!(bb.bound <= bb.objective + 1e-9);
            }
        }
    }

    /// Anytime-stream invariants, generic backend: every streamed incumbent
    /// is feasible with objective ≥ the concurrently reported lower bound,
    /// the incumbent never rises, and the proven-gap series is monotonically
    /// non-increasing.
    #[test]
    fn branch_bound_anytime_stream_invariants(m in small_bip()) {
        let mut events: Vec<(SolveProgress, Option<(bool, f64)>)> = Vec::new();
        let r = BranchBound::new().solve_seeded_with_progress(
            &m,
            &SolveOptions::default(),
            None,
            |p, sol| events.push((*p, sol.map(|x| (m.feasible(x, 1e-6), m.objective_value(x))))),
        );
        let (mut prev_inc, mut prev_gap) = (f64::INFINITY, f64::INFINITY);
        for (p, sol) in &events {
            if let Some((feasible, obj)) = sol {
                prop_assert!(*feasible, "streamed incumbent violates the model");
                prop_assert!((obj - p.incumbent).abs() < 1e-6,
                    "streamed objective {} != reported incumbent {}", obj, p.incumbent);
            }
            prop_assert!(p.incumbent >= p.bound - 1e-9,
                "incumbent {} below bound {}", p.incumbent, p.bound);
            prop_assert!(p.incumbent <= prev_inc + 1e-9, "incumbent stream regressed");
            prop_assert!(p.gap <= prev_gap + 1e-12, "gap series regressed");
            prev_inc = p.incumbent;
            prev_gap = p.gap;
        }
        if r.status != cophy_bip::MipStatus::Infeasible {
            prop_assert!(!events.is_empty(), "a solved model must stream progress");
        }
    }

    /// Anytime-stream invariants, Lagrangian backend: same contract as the
    /// generic backend, over the block-angular form.
    #[test]
    fn lagrangian_anytime_stream_invariants(p in small_block()) {
        type Event = (SolveProgress, Option<(bool, Option<f64>)>);
        let mut events: Vec<Event> = Vec::new();
        let (r, _) = LagrangianSolver::new().solve_warm_with_progress(
            &p,
            None,
            |pr, sel| events.push((
                *pr,
                sel.map(|s| (p.fits_budget(s), p.evaluate(s))),
            )),
        );
        prop_assert!(!events.is_empty());
        let mut prev_gap = f64::INFINITY;
        for (pr, sol) in &events {
            if let Some((fits, obj)) = sol {
                prop_assert!(*fits, "streamed selection exceeds the budget");
                let obj = obj.expect("streamed selection must evaluate");
                prop_assert!((obj - pr.incumbent).abs() < 1e-6,
                    "streamed objective {} != reported incumbent {}", obj, pr.incumbent);
            }
            prop_assert!(pr.incumbent >= pr.bound - 1e-9,
                "incumbent {} below bound {}", pr.incumbent, pr.bound);
            prop_assert!(pr.gap <= prev_gap + 1e-12, "gap series regressed");
            prev_gap = pr.gap;
        }
        prop_assert!(r.gap >= 0.0);
    }

    /// Warm-started dual-simplex re-solves from a parent basis reach the
    /// same objective (± tolerance) as a cold two-phase solve across random
    /// sequences of bound pinches, and agree on feasibility.
    #[test]
    fn dual_resolve_matches_cold_across_bound_pinches(
        m in small_bip(),
        pinches in prop::collection::vec((0usize..8, any::<bool>()), 1..5),
    ) {
        let n = m.n_vars();
        let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        if root.status != cophy_bip::LpStatus::Optimal {
            return Ok(());
        }
        let mut basis = root.basis.expect("optimal solves snapshot a basis");
        for (j, up) in pinches {
            let j = j % n;
            lo[j] = if up { 1.0 } else { 0.0 };
            hi[j] = lo[j];
            let warm = SimplexSolver::new()
                .resolve(&m, &lo, &hi, &basis)
                .expect("basis from the same model must fit");
            let cold = SimplexSolver::new().solve(&m, &lo, &hi);
            prop_assert_eq!(warm.status, cold.status,
                "warm/cold disagree on feasibility after pinch ({}, {})", j, up);
            if warm.status != cophy_bip::LpStatus::Optimal {
                break;
            }
            prop_assert!((warm.objective - cold.objective).abs() < 1e-5,
                "warm {} vs cold {} after pinch ({}, {})",
                warm.objective, cold.objective, j, up);
            basis = warm.basis.expect("warm optimum snapshots too");
        }
    }

    /// The continuous knapsack lower-bounds the binary optimum (brute force
    /// over at most 2¹¹ selections) — the inequality that makes the
    /// Lagrangian `z` subproblem a valid dual bound — and respects budgets.
    #[test]
    fn knapsack_relaxation_dominance(
        costs in prop::collection::vec(-20.0..0.0f64, 1..12),
        sizes in prop::collection::vec(0.1..10.0f64, 1..12),
        budget in 0.0..40.0f64,
    ) {
        let n = costs.len().min(sizes.len());
        let mut z = Vec::new();
        let c_obj =
            continuous_min(&costs[..n], &sizes[..n], budget, &mut z, &mut Vec::new());
        let mut b_obj = f64::INFINITY;
        for mask in 0..1u32 << n {
            let chosen = || (0..n).filter(move |j| mask >> j & 1 == 1);
            if chosen().map(|j| sizes[j]).sum::<f64>() <= budget {
                b_obj = b_obj.min(chosen().map(|j| costs[j]).sum());
            }
        }
        prop_assert!(c_obj <= b_obj + 1e-9);
        let used: f64 = z.iter().zip(&sizes[..n]).map(|(zi, s)| zi * s).sum();
        prop_assert!(used <= budget + 1e-6);
        for zi in &z {
            prop_assert!((0.0..=1.0).contains(zi));
        }
    }
}

// ---------------------------------------------------------------------------
// Index-tuning invariants (these use the real pipeline on small instances,
// so keep the case counts low).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Theorem 1: the BIP optimum equals the exhaustive-search optimum of the
    /// index tuning problem under the INUM cost function — under a storage
    /// budget alone, and with query-cost rows (E.2) over every statement or
    /// over one.  HomGen emits SELECTs only, whose INUM cost is the row's
    /// read cost.  Two budgets: 0.2 × data, the storage-only case this test
    /// has always checked, and 0.08 × data, tight enough for a query-cost
    /// row to bind (at 0.2 the storage-only optimum is, in practice, every
    /// statement's cheapest feasible plan, so a row is slack or infeasible).
    /// A factor bounds a cost ratio to the baseline configuration; it sits
    /// at `t` of the way from the least ratio any storage-feasible subset
    /// reaches to the ratio at the storage-only optimum (a span of at least
    /// 1 %, so no factor lands on a ratio).
    #[test]
    fn theorem1_equivalence(seed in 0u64..500, n_cands in 4usize..9, t in -0.1f64..1.1) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let (schema, cm) = (o.schema(), o.cost_model());
        let w = HomGen::new(seed).generate(schema, 4);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = CGen::default().generate(schema, &w).truncate(n_cands);
        let baseline = Configuration::baseline(schema);
        let base: Vec<f64> =
            prepared.queries.iter().map(|pq| pq.cost(schema, cm, &baseline)).collect();
        let fixed: f64 = prepared.queries.iter()
            .map(|pq| pq.weight * pq.fixed_update_cost).sum();
        for fraction in [0.2, 0.08] {
            let storage = ConstraintSet::storage_fraction(schema, fraction);
            let subsets: Vec<Configuration> = (0..1u32 << candidates.len())
                .map(|mask| Configuration::from_indexes(
                    candidates.iter().filter(|(id, _)| mask >> id.0 & 1 == 1)
                        .map(|(_, ix)| ix.clone())))
                .filter(|cfg| storage.check_configuration(schema, cfg).is_ok())
                .collect();

            // Per subset, each statement's cost over its baseline cost.
            let ratios: Vec<Vec<f64>> = subsets.iter().map(|cfg| {
                prepared.queries.iter().zip(&base).map(|(pq, b)| pq.cost(schema, cm, cfg) / b)
                    .collect()
            }).collect();
            let costs: Vec<f64> =
                subsets.iter().map(|cfg| prepared.cost(schema, cm, cfg)).collect();
            let optimum = (0..subsets.len())
                .min_by(|&a, &b| costs[a].total_cmp(&costs[b]))
                .expect("the empty subset fits");
            let at = |lo: f64, hi: f64| lo + t * (hi - lo).max(0.01 * lo);
            let worst = |r: &Vec<f64>| r.iter().copied().fold(0.0f64, f64::max);
            let least_worst = ratios.iter().map(worst).fold(f64::INFINITY, f64::min);
            let every = at(least_worst, worst(&ratios[optimum]));
            let least = |q: usize| ratios.iter().map(|r| r[q]).fold(f64::INFINITY, f64::min);
            let bounded = (0..base.len())
                .max_by(|&a, &b| {
                    let span = |q: usize| ratios[optimum][q] - least(q);
                    span(a).total_cmp(&span(b))
                })
                .expect("statements");
            let sets = [
                storage.clone(),
                storage.clone().with(Constraint::AllQueryCosts { factor: every }),
                storage.with(Constraint::QueryCost {
                    query: prepared.queries[bounded].qid,
                    factor: at(least(bounded), ratios[optimum][bounded]),
                }),
            ];
            for constraints in &sets {
                let (model, mapping) =
                    BipGen::default().model(schema, cm, &prepared, &candidates, constraints);
                let r = BranchBound::new().solve(&model, &SolveOptions::default());

                // Oracle: every storage-feasible subset whose bounded
                // statements cost at most `factor` times their baseline cost.
                let within = |cfg: &Configuration| {
                    constraints.query_cost_bounds().into_iter().all(|(target, factor)| {
                        prepared.queries.iter().zip(&base)
                            .filter(|(pq, _)| target.is_none_or(|q| q == pq.qid))
                            .all(|(pq, b)| pq.cost(schema, cm, cfg) <= factor * b)
                    })
                };
                let best = subsets.iter().zip(&costs)
                    .filter(|(cfg, _)| within(cfg))
                    .fold(f64::INFINITY, |best, (_, &c)| best.min(c));
                if best.is_infinite() {
                    prop_assert_eq!(r.status, cophy_bip::MipStatus::Infeasible);
                    continue;
                }
                prop_assert_eq!(r.status, cophy_bip::MipStatus::Optimal);
                prop_assert!(((r.objective + fixed) - best).abs() / best < 1e-6,
                    "BIP {} vs oracle {}", r.objective + fixed, best);
                // Extracted configuration achieves the optimum.
                let cfg = mapping.extract_configuration(&r.x, &candidates);
                let achieved = prepared.cost(schema, cm, &cfg);
                prop_assert!((achieved - best).abs() / best < 1e-6);
            }
        }
    }

    /// Lagrangian bound validity on real tuning instances:
    /// bound ≤ optimum ≤ incumbent.
    #[test]
    fn lagrangian_bound_sandwich(seed in 0u64..500) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(seed).generate(o.schema(), 4);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = CGen::default().generate(o.schema(), &w).truncate(8);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.15);
        let tp = BipGen::default().block_problem(
            o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        let r = LagrangianSolver::default().solve(&tp.block);

        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << candidates.len()) {
            let sel: Vec<bool> = (0..candidates.len()).map(|a| mask >> a & 1 == 1).collect();
            if !tp.block.fits_budget(&sel) {
                continue;
            }
            if let Some(c) = tp.block.evaluate(&sel) {
                best = best.min(c);
            }
        }
        prop_assert!(r.bound <= best + 1e-6, "bound {} above optimum {}", r.bound, best);
        prop_assert!(r.objective >= best - 1e-6, "incumbent below optimum?!");
    }

    /// Fault-layer determinism, end to end: any all-transient fault
    /// schedule that recovers within the retry budget must leave the
    /// recommendation bit-identical to the fault-free tune.
    #[test]
    fn transient_faults_never_change_the_recommendation(
        fault_seed in any::<u64>(),
        rate in 0.05f64..0.9,
        max_transient in 1u32..3,
    ) {
        use cophy::{CoPhy, CoPhyOptions};
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan, RetryPolicy};

        let retry = RetryPolicy {
            max_attempts: max_transient + 1,
            base_backoff: std::time::Duration::from_micros(10),
            max_backoff: std::time::Duration::from_micros(50),
            ..Default::default()
        };
        let clean = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(11).generate(clean.schema(), 6);
        let constraints = ConstraintSet::storage_fraction(clean.schema(), 0.4);
        let want = CoPhy::new(&clean, CoPhyOptions::default())
            .try_tune(&w, &constraints)
            .expect("fault-free tune is feasible");

        let faulty = FaultInjectingBackend::new(
            Box::new(WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)),
            FaultPlan::transient_only(fault_seed, rate, max_transient),
        );
        let opts = CoPhyOptions { retry, ..Default::default() };
        let got = CoPhy::new(&faulty, opts)
            .try_tune(&w, &constraints)
            .expect("an all-transient schedule within the retry budget must recover");
        prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits(),
            "objective drifted: {} vs {}", got.objective, want.objective);
        prop_assert_eq!(got.bound.to_bits(), want.bound.to_bits());
        prop_assert_eq!(&got.configuration, &want.configuration);
        if let Some(d) = &got.degradation {
            prop_assert_eq!(d.statements_degraded, 0, "nothing may stay degraded");
            prop_assert!(d.coverage == 1.0, "recovered tune must report full coverage");
        }
    }

    /// INUM monotonicity: growing the configuration never increases
    /// read-side cost (free disposal of indexes).  HomGen emits SELECTs
    /// only, whose `cost` is their read side.
    #[test]
    fn inum_free_disposal(seed in 0u64..1000) {
        let o = WhatIfOptimizer::new(
            TpchGen::new(1.0, Skew((seed % 3) as f64)).schema(), SystemProfile::B);
        let w = HomGen::new(seed).generate(o.schema(), 3);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        let ord = o.schema().table_by_name("orders").unwrap().id;
        let small = Configuration::from_indexes([
            Index::secondary(li, vec![ColumnId((seed % 16) as u32)]),
        ]);
        let big = small.union(&Configuration::from_indexes([
            Index::secondary(ord, vec![ColumnId((seed % 9) as u32)]),
            Index::secondary(li, vec![ColumnId((seed % 16) as u32), ColumnId(10)]),
        ]));
        for pq in &prepared.queries {
            prop_assert!(pq.update.is_none() && pq.fixed_update_cost == 0.0);
            let cs = pq.cost(o.schema(), o.cost_model(), &small);
            let cb = pq.cost(o.schema(), o.cost_model(), &big);
            prop_assert!(cb <= cs + 1e-9, "free disposal violated: {} > {}", cb, cs);
        }
    }
}

/// The root LP bound is the Lagrangian's ceiling (the sibling of
/// `lagrangian_bound_sandwich`, at sizes exhaustive search cannot reach).
/// The Theorem-1 blocks have the integrality property and the `z`
/// subproblem is a continuous knapsack, so by weak duality every bound the
/// subgradient reports on the block form is at most the root LP optimum of
/// the model laid out from it.  A bound above it is a bug; an invalid bound
/// (above the optimum) is always above it.  Three generators at perf's
/// seed and storage fraction, with and without dominated-`x` pruning.
#[test]
fn lp_bound_caps_every_lagrangian_bound() {
    lp_bound_caps_every_lagrangian_bound_at(12);
}

/// [`lp_bound_caps_every_lagrangian_bound`] at 50 statements a generator
/// (25 mixed with as many UPDATEs), ≈ 4× the size: ≈ 40 s in release on a
/// 2-core box, most of it the unpruned het model's root LP.
#[test]
#[ignore = "release only: ≈ 40 s"]
fn lp_bound_caps_every_lagrangian_bound_at_50_statements() {
    lp_bound_caps_every_lagrangian_bound_at(50);
}

/// `n` HomGen and `n` HetGen statements, and `n / 2` HetGen statements
/// mixed 50 % with UPDATEs.
fn lp_bound_caps_every_lagrangian_bound_at(n: usize) {
    use cophy_bip::{LpStatus, SolveBudget};
    use cophy_workload::{HetGen, UpdateGen};

    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let (schema, cm) = (o.schema(), o.cost_model());
    let seed = 0xC0FFEE;
    let het = |n| HetGen::new(seed).generate(schema, n);
    let inputs = [
        ("hom", HomGen::new(seed).generate(schema, n)),
        ("het", het(n)),
        ("het+updates", UpdateGen::new(seed ^ 0x5EED).mix_into(schema, &het(n / 2), 0.5)),
    ];
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let solver = LagrangianSolver { budget: SolveBudget::within(1e-9), ..Default::default() };
    for (name, w) in &inputs {
        let prepared = Inum::new(&o).prepare_workload(w);
        let candidates = CGen::default().generate(schema, w);
        for prune_dominated in [true, false] {
            let (model, mapping) =
                BipGen { prune_dominated }.model(schema, cm, &prepared, &candidates, &constraints);
            let n = model.n_vars();
            let lp = SimplexSolver::new().solve(&model, &vec![0.0; n], &vec![1.0; n]);
            assert_eq!(lp.status, LpStatus::Optimal, "{name}, pruned {prune_dominated}");
            let ceiling = lp.objective + 1e-9 * lp.objective.abs();
            let mut bounds = Vec::new();
            let (r, _) = solver.solve_warm_with_progress(&mapping.problem.block, None, |p, _| {
                bounds.push(p.bound)
            });
            assert!(!bounds.is_empty(), "{name}: no anytime event");
            for b in bounds.iter().chain([&r.bound]) {
                assert!(
                    *b <= ceiling,
                    "{name}, pruned {prune_dominated}: bound {b} above LP {}",
                    lp.objective
                );
            }
            eprintln!(
                "{name:<12} pruned {prune_dominated:<5} bound/LP {:.3}",
                r.bound / lp.objective
            );
        }
    }
}

// ---------------------------------------------------------------------------
// What-if optimizer invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `try_probe` answers describe their query: one leaf per referenced
    /// table in `q.tables` order, each requiring columns of its own table,
    /// finite costs and `0 ≤ internal ≤ total`.  The plan behind an answer
    /// is checked in the memo by `dp.rs::winners_are_well_formed_in_the_memo`.
    #[test]
    fn probe_answers_are_well_formed(seed in 0u64..10_000, keep in 0.0f64..0.08) {
        use cophy_optimizer::WhatIfBackend;
        use cophy_workload::HetGen;

        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let schema = o.schema();
        let mut statements = HetGen::new(seed).generate(schema, 20);
        for (_, stmt, _) in HomGen::new(seed).generate(schema, 15).iter() {
            statements.push(stmt.clone());
        }
        // A random sub-configuration of the candidate set, with and without
        // the clustered baseline under it.
        let mut s = seed;
        let mut coin = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        let picked: Configuration = CGen::default()
            .generate(schema, &statements)
            .iter()
            .filter(|_| coin() < keep)
            .map(|(_, ix)| ix.clone())
            .collect();
        let configs = [picked.union(&Configuration::baseline(schema)), picked];

        for (_, stmt, _) in statements.iter() {
            let q = stmt.read_shell();
            for cfg in &configs {
                let ans = o.try_probe(q, cfg).expect("the live optimizer answers");
                let tables: Vec<_> = ans.leaves.iter().map(|l| l.table).collect();
                prop_assert_eq!(&tables, &q.tables, "one leaf per referenced table, in order");
                for leaf in &ans.leaves {
                    let width = schema.table(leaf.table).columns.len();
                    prop_assert!(
                        leaf.required.iter().all(|c| (c.0 as usize) < width),
                        "{:?} requires a column off its table", leaf
                    );
                }
                let (total, internal) = (ans.total_cost, ans.internal_cost);
                prop_assert!(total.is_finite() && internal.is_finite(), "{:?}", ans);
                prop_assert!(0.0 <= internal && internal <= total, "{:?}", ans);
            }
        }
    }
}
