//! BIPGen: Theorem 1 made executable.
//!
//! From a prepared workload (INUM templates) and a candidate set, BIPGen
//! produces the compact BIP in two isomorphic representations:
//!
//! * [`BipGen::model`] — the *literal* Theorem-1 program over variables
//!   `y_qk`, `x_qkia`, `z_a` for the generic branch-and-bound backend (and
//!   for the equivalence tests against exhaustive search);
//! * [`BipGen::block_problem`] — the same program in block-angular form for
//!   the Lagrangian backend, which scales to the paper's large instances.
//!
//! Variable pruning: a slot's `x` variable is dropped when its `γ` is
//! dominated by the slot's `I∅` cost (`γ ≥ γ_I∅` with the heap admissible) —
//! replacing such an access by the heap scan never hurts, so the solution
//! space is unchanged while the program shrinks drastically.  The knob
//! `prune_dominated` exists for the ablation bench.
//!
//! **One `γ` per (statement, table, candidate).**  `γ_qkia` depends on the
//! template `k` only through the slot's order requirement
//! ([`Slot::admits`]); the cost itself is a function of the statement, the
//! table and the index.  Both builders therefore bucket the candidates by
//! table once per build, price every candidate on a table a statement reads
//! once against that table's [`TableFacts`] (`StatementGammas`), and let
//! each template slot filter the priced list by its order requirement and
//! the domination rule — in candidate-id order, so the emitted program is
//! the one a (template, slot, candidate) triple loop would emit.

use cophy_bip::{Alt, Block, BlockProblem, ConstrId, LinExpr, Model, Sense, SlotChoices, VarId};
use cophy_catalog::{Configuration, Index, Schema};
use cophy_inum::{PreparedQuery, PreparedWorkload, Slot};
use cophy_optimizer::access::TableFacts;
use cophy_optimizer::CostModel;

use crate::cgen::CandidateSet;
use crate::constraints::{add_z_row, ConstraintSet};

/// BIP generator options.
#[derive(Debug, Clone)]
pub struct BipGen {
    /// Drop `x` variables dominated by the heap fallback (on by default).
    pub prune_dominated: bool,
}

impl Default for BipGen {
    fn default() -> Self {
        BipGen { prune_dominated: true }
    }
}

/// One slot's variables: the heap fallback (if admissible) and the surviving
/// candidate accesses, each with its `γ` cost.
#[derive(Debug, Clone)]
pub struct SlotVars {
    pub heap: Option<(VarId, f64)>,
    /// `(candidate position, x variable, γ)`.
    pub choices: Vec<(u32, VarId, f64)>,
}

/// One template alternative's variables.
#[derive(Debug, Clone)]
pub struct TemplateVars {
    pub y: VarId,
    /// `f_q β_qk` (weighted internal cost).
    pub base: f64,
    pub slots: Vec<SlotVars>,
}

/// Per-query variable layout (position-aligned with the prepared workload).
#[derive(Debug, Clone, Default)]
pub struct QueryVars {
    pub templates: Vec<TemplateVars>,
}

/// Mapping from model variables back to the tuning domain.
#[derive(Debug, Clone)]
pub struct BipMapping {
    /// `z_a` variable per candidate (position-aligned with the candidate set).
    pub z: Vec<VarId>,
    /// Per-query template/slot variable layout (Theorem 1's structure).
    pub queries: Vec<QueryVars>,
    /// Total `y` variables (one per query-template).
    pub n_y: usize,
    /// Total `x` variables after pruning.
    pub n_x: usize,
    /// The model row carrying the storage budget, if the constraint set has
    /// one — the interactive session's `DeltaModel::set_rhs` handle for
    /// warm-chained budget sweeps.
    pub storage_row: Option<ConstrId>,
    /// `Σ_q f_q c_q`: the fixed update-base cost outside the model.
    pub fixed_cost: f64,
}

impl BipMapping {
    /// Read a configuration off a solved assignment.
    pub fn extract_configuration(&self, x: &[f64], candidates: &CandidateSet) -> Configuration {
        let mut cfg = Configuration::empty();
        for (pos, v) in self.z.iter().enumerate() {
            if x[v.0 as usize] >= 0.5 {
                cfg.insert(candidates.get(cophy_catalog::IndexId(pos as u32)).clone());
            }
        }
        cfg
    }

    /// Best integral completion of a candidate selection: set `z` from
    /// `selected`, then per query pick the cheapest instantiable template
    /// and per-slot access.  Used to seed the generic backend with the
    /// Lagrangian backend's storage-only solution (the completion satisfies
    /// all Theorem-1 rows by construction; any extra constraint rows are
    /// repaired by the solver's rounding heuristic).
    pub fn completion(&self, selected: &[bool], n_vars: usize) -> Vec<f64> {
        let mut x = vec![0.0; n_vars];
        for (pos, v) in self.z.iter().enumerate() {
            if selected[pos] {
                x[v.0 as usize] = 1.0;
            }
        }
        for q in &self.queries {
            // Cheapest template under the selection.
            let mut best: Option<(f64, usize)> = None;
            for (k, t) in q.templates.iter().enumerate() {
                let mut total = t.base;
                let mut ok = true;
                for s in &t.slots {
                    let mut sbest = s.heap.map(|(_, h)| h);
                    for &(cand, _, g) in &s.choices {
                        if selected[cand as usize] && sbest.is_none_or(|c| g < c) {
                            sbest = Some(g);
                        }
                    }
                    match sbest {
                        Some(c) => total += c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && best.is_none_or(|(c, _)| total < c) {
                    best = Some((total, k));
                }
            }
            let Some((_, k)) = best else { continue };
            let t = &q.templates[k];
            x[t.y.0 as usize] = 1.0;
            for s in &t.slots {
                let mut sbest: Option<(f64, VarId)> = s.heap.map(|(v, h)| (h, v));
                for &(cand, v, g) in &s.choices {
                    if selected[cand as usize] && sbest.as_ref().is_none_or(|(c, _)| g < *c) {
                        sbest = Some((g, v));
                    }
                }
                if let Some((_, v)) = sbest {
                    x[v.0 as usize] = 1.0;
                }
            }
        }
        x
    }
}

/// A fully generated tuning problem (both solver forms plus bookkeeping).
#[derive(Debug)]
pub struct TuningProblem {
    pub block: BlockProblem,
    /// `Σ_q f_q c_q`: the fixed update-base cost excluded from optimization.
    pub fixed_cost: f64,
}

/// The candidate set bucketed by table (`TableId.0` indexes the outer
/// vector): `(candidate position, index)` in candidate-id order.
fn candidates_by_table<'a>(
    schema: &Schema,
    candidates: &'a CandidateSet,
) -> Vec<Vec<(u32, &'a Index)>> {
    let mut by_table = vec![Vec::new(); schema.n_tables()];
    for (id, ix) in candidates.iter() {
        by_table[ix.table.0 as usize].push((id.0, ix));
    }
    by_table
}

/// `Σ_q f_q · ucost(a, q)` per candidate.  An UPDATE only charges indexes on
/// the table it writes; every other term of the sum is `+ 0.0`.
fn maintenance_costs(
    schema: &Schema,
    cm: &CostModel,
    prepared: &PreparedWorkload,
    by_table: &[Vec<(u32, &Index)>],
    n_candidates: usize,
) -> Vec<f64> {
    let mut costs = vec![0.0f64; n_candidates];
    for pq in &prepared.queries {
        let Some((update, _)) = &pq.update else { continue };
        for &(a, ix) in &by_table[update.table().0 as usize] {
            costs[a as usize] += pq.weight * pq.ucost(schema, cm, ix);
        }
    }
    costs
}

/// One table a statement reads: its facts and `(candidate position, index,
/// γ)` of every candidate on it that has a finite `γ`, in candidate-id order.
struct TableGammas<'a> {
    facts: TableFacts<'a>,
    priced: Vec<(u32, &'a Index, f64)>,
}

/// One statement's `γ` table: a [`TableGammas`] per table its templates read.
struct StatementGammas<'a>(Vec<TableGammas<'a>>);

impl<'a> StatementGammas<'a> {
    fn new(
        schema: &Schema,
        cm: &CostModel,
        pq: &'a PreparedQuery,
        by_table: &[Vec<(u32, &'a Index)>],
    ) -> Self {
        let price = |facts: TableFacts<'a>| {
            let priced = by_table[facts.table().0 as usize]
                .iter()
                .filter_map(|&(a, ix)| facts.index_cost(schema, cm, ix).map(|g| (a, ix, g)))
                .collect();
            TableGammas { facts, priced }
        };
        StatementGammas(pq.table_facts(schema).into_iter().map(price).collect())
    }

    /// Per-slot candidate survivors: `(candidate position, γ)` pairs.
    fn slot_choices(&self, slot: &Slot, prune_dominated: bool) -> Vec<(u32, f64)> {
        let on_table = self
            .0
            .iter()
            .find(|t| t.facts.table() == slot.table)
            .expect("every slot table was priced");
        let dominated = |g: f64| prune_dominated && slot.heap_cost.is_some_and(|h| g >= h);
        on_table
            .priced
            .iter()
            .filter(|&&(_, ix, g)| slot.admits(ix, on_table.facts.eq_cols()) && !dominated(g))
            .map(|&(a, _, g)| (a, g))
            .collect()
    }
}

impl BipGen {
    /// Build the block-angular form (Lagrangian backend).
    ///
    /// Costs are pre-weighted by `f_q`; the storage budget (if any) becomes
    /// the knapsack row.  Richer constraints are not representable here —
    /// the Solver routes such instances to the generic backend.
    pub fn block_problem(
        &self,
        schema: &Schema,
        cm: &CostModel,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> TuningProblem {
        debug_assert!(constraints.is_storage_only(), "block form supports storage only");
        let n = candidates.len();
        let by_table = candidates_by_table(schema, candidates);
        let item_cost = maintenance_costs(schema, cm, prepared, &by_table, n);
        let item_size: Vec<f64> =
            candidates.iter().map(|(id, _)| candidates.size_bytes(id) as f64).collect();

        let mut blocks = Vec::with_capacity(prepared.queries.len());
        let mut fixed_cost = 0.0;
        for pq in &prepared.queries {
            fixed_cost += pq.weight * pq.fixed_update_cost;
            let gammas = StatementGammas::new(schema, cm, pq, &by_table);
            let mut alts = Vec::with_capacity(pq.templates.len());
            for tpl in &pq.templates {
                let mut slots = Vec::with_capacity(tpl.slots.len());
                for slot in &tpl.slots {
                    let choices = gammas.slot_choices(slot, self.prune_dominated);
                    slots.push(SlotChoices {
                        fallback: slot.heap_cost.map(|f| pq.weight * f),
                        choices: choices.into_iter().map(|(a, g)| (a, pq.weight * g)).collect(),
                    });
                }
                alts.push(Alt { base: pq.weight * tpl.internal_cost, slots });
            }
            blocks.push(Block { alts });
        }

        TuningProblem {
            block: BlockProblem {
                n_items: n,
                item_cost,
                item_size,
                budget: constraints.storage_budget().map(|b| b as f64),
                blocks,
            },
            fixed_cost,
        }
    }

    /// Build the literal Theorem-1 model (generic backend).
    pub fn model(
        &self,
        schema: &Schema,
        cm: &CostModel,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> (Model, BipMapping) {
        let mut m = Model::new();
        // z_a variables with their update-cost objective coefficients.
        let by_table = candidates_by_table(schema, candidates);
        let z_obj = maintenance_costs(schema, cm, prepared, &by_table, candidates.len());
        let z: Vec<VarId> = candidates
            .iter()
            .map(|(id, ix)| m.add_var(format!("z_{}", ix.describe(schema)), z_obj[id.0 as usize]))
            .collect();

        let mut n_y = 0usize;
        let mut n_x = 0usize;
        // Per-query cost expressions (unweighted), for query-cost constraints.
        let mut cost_exprs: Vec<LinExpr> = Vec::with_capacity(prepared.queries.len());
        let mut queries: Vec<QueryVars> = Vec::with_capacity(prepared.queries.len());

        for (qi, pq) in prepared.queries.iter().enumerate() {
            let mut yq = Vec::with_capacity(pq.templates.len());
            let mut cost_expr = LinExpr::new();
            for (k, tpl) in pq.templates.iter().enumerate() {
                let y = m.add_var(format!("y_q{qi}_k{k}"), pq.weight * tpl.internal_cost);
                cost_expr.add(y, tpl.internal_cost);
                yq.push(y);
                n_y += 1;
            }
            // Σ_k y_qk = 1
            let mut ysum = LinExpr::new();
            for &y in &yq {
                ysum.add(y, 1.0);
            }
            m.add_constraint(ysum, Sense::Eq, 1.0);

            let gammas = StatementGammas::new(schema, cm, pq, &by_table);
            let mut qvars = QueryVars::default();
            for (k, tpl) in pq.templates.iter().enumerate() {
                let mut tvars = TemplateVars {
                    y: yq[k],
                    base: pq.weight * tpl.internal_cost,
                    slots: Vec::with_capacity(tpl.slots.len()),
                };
                for (s, slot) in tpl.slots.iter().enumerate() {
                    let choices = gammas.slot_choices(slot, self.prune_dominated);
                    let mut svars = SlotVars { heap: None, choices: Vec::new() };
                    let mut xsum = LinExpr::new();
                    if let Some(h) = slot.heap_cost {
                        let xh = m.add_var(format!("x_q{qi}_k{k}_s{s}_heap"), pq.weight * h);
                        cost_expr.add(xh, h);
                        xsum.add(xh, 1.0);
                        svars.heap = Some((xh, pq.weight * h));
                        n_x += 1;
                    }
                    for (a, g) in choices {
                        let xv = m.add_var(format!("x_q{qi}_k{k}_s{s}_a{a}"), pq.weight * g);
                        cost_expr.add(xv, g);
                        xsum.add(xv, 1.0);
                        svars.choices.push((a, xv, pq.weight * g));
                        n_x += 1;
                        // x ≤ z   (z_a ≥ x_qkia)
                        m.add_constraint(
                            LinExpr::new().term(xv, 1.0).term(z[a as usize], -1.0),
                            Sense::Le,
                            0.0,
                        );
                    }
                    // Σ_a x_qkia = y_qk
                    xsum.add(yq[k], -1.0);
                    m.add_constraint(xsum, Sense::Eq, 0.0);
                    tvars.slots.push(svars);
                }
                qvars.templates.push(tvars);
            }
            queries.push(qvars);
            cost_exprs.push(cost_expr);
        }

        // z-only constraint rows, constraint by constraint so the storage
        // row's id can be recorded for interactive RHS sweeps.
        let mut storage_row = None;
        for c in &constraints.hard {
            let is_storage = matches!(c, crate::constraints::Constraint::Storage { .. });
            for row in c.z_rows(schema, candidates) {
                let cid = add_z_row(&mut m, &z, &row);
                if is_storage && storage_row.is_none() {
                    storage_row = Some(cid);
                }
            }
        }

        // Query-cost constraints (E.2): cost(q, X) ≤ factor · cost(q, X0).
        let bounds = constraints.query_cost_bounds();
        if !bounds.is_empty() {
            let x0 = Configuration::baseline(schema);
            for (target, factor) in bounds {
                for (qi, pq) in prepared.queries.iter().enumerate() {
                    if let Some(t) = target {
                        if t != pq.qid {
                            continue;
                        }
                    }
                    let baseline = pq.cost(schema, cm, &x0);
                    m.add_constraint(cost_exprs[qi].clone(), Sense::Le, factor * baseline);
                }
            }
        }

        let fixed_cost = prepared.queries.iter().map(|pq| pq.weight * pq.fixed_update_cost).sum();
        (m, BipMapping { z, queries, n_y, n_x, storage_row, fixed_cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_bip::{BranchBound, LagrangianSolver, SolveOptions};
    use cophy_catalog::TpchGen;
    use cophy_inum::Inum;
    use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
    use cophy_workload::{HomGen, Workload};

    fn setup(n_queries: usize, seed: u64) -> (WhatIfOptimizer, Workload) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(seed).generate(o.schema(), n_queries);
        (o, w)
    }

    /// Exhaustive optimum over candidate subsets via the INUM cost function.
    fn brute_force_tuning(
        o: &WhatIfOptimizer,
        prepared: &cophy_inum::PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> f64 {
        assert!(candidates.len() <= 14);
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << candidates.len()) {
            let cfg = Configuration::from_indexes(
                candidates.iter().filter(|(id, _)| mask >> id.0 & 1 == 1).map(|(_, ix)| ix.clone()),
            );
            if constraints.check_configuration(o.schema(), &cfg).is_err() {
                continue;
            }
            let c = prepared.cost(o.schema(), o.cost_model(), &cfg);
            best = best.min(c);
        }
        best
    }

    #[test]
    fn theorem1_model_matches_exhaustive_search() {
        let (o, w) = setup(6, 21);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        // Small candidate set to keep the oracle cheap.
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w).truncate(8);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.15);

        let (model, mapping) = BipGen::default().model(
            o.schema(),
            o.cost_model(),
            &prepared,
            &candidates,
            &constraints,
        );
        let r = BranchBound::new().solve(&model, &SolveOptions::default());
        assert_eq!(r.status, cophy_bip::MipStatus::Optimal);

        let fixed: f64 = prepared.queries.iter().map(|pq| pq.weight * pq.fixed_update_cost).sum();
        let expect = brute_force_tuning(&o, &prepared, &candidates, &constraints);
        assert!(
            (r.objective + fixed - expect).abs() / expect < 1e-6,
            "BIP optimum {} ≠ exhaustive optimum {}",
            r.objective + fixed,
            expect
        );
        // The extracted configuration achieves the same INUM cost.
        let cfg = mapping.extract_configuration(&r.x, &candidates);
        let achieved = prepared.cost(o.schema(), o.cost_model(), &cfg);
        assert!((achieved - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn block_problem_matches_model_objective() {
        let (o, w) = setup(5, 33);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w).truncate(10);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.2);

        let gen = BipGen::default();
        let tp =
            gen.block_problem(o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        // Block evaluation at a selection == INUM cost of the configuration.
        for mask in [0u32, 1, 3, 5, 0b1010101010] {
            let sel: Vec<bool> = (0..candidates.len()).map(|a| mask >> a & 1 == 1).collect();
            let cfg = Configuration::from_indexes(
                candidates.iter().filter(|(id, _)| sel[id.0 as usize]).map(|(_, ix)| ix.clone()),
            );
            let block_cost = tp.block.evaluate(&sel).unwrap() + tp.fixed_cost;
            let inum_cost = prepared.cost(o.schema(), o.cost_model(), &cfg);
            assert!(
                (block_cost - inum_cost).abs() / inum_cost < 1e-9,
                "mask {mask:#b}: block {block_cost} vs inum {inum_cost}"
            );
        }
    }

    #[test]
    fn lagrangian_on_block_matches_exhaustive_closely() {
        let (o, w) = setup(6, 44);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w).truncate(10);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.15);

        let tp = BipGen::default().block_problem(
            o.schema(),
            o.cost_model(),
            &prepared,
            &candidates,
            &constraints,
        );
        let r = LagrangianSolver {
            budget: cophy_bip::SolveBudget {
                gap_limit: 1e-6,
                node_limit: Some(600),
                ..Default::default()
            },
            ..Default::default()
        }
        .solve(&tp.block);
        let expect = brute_force_tuning(&o, &prepared, &candidates, &constraints);
        // bound ≤ optimum ≤ incumbent, incumbent near-optimal.
        assert!(r.bound <= expect - tp.fixed_cost + 1e-6);
        assert!(r.objective + tp.fixed_cost >= expect - 1e-6);
        assert!(
            (r.objective + tp.fixed_cost - expect) / expect < 0.02,
            "Lagrangian incumbent {} too far from optimum {}",
            r.objective + tp.fixed_cost,
            expect
        );
    }

    #[test]
    fn pruning_shrinks_model_without_changing_optimum() {
        let (o, w) = setup(4, 55);
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w).truncate(6);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.2);

        let pruned = BipGen { prune_dominated: true };
        let full = BipGen { prune_dominated: false };
        let (mp, map_p) =
            pruned.model(o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        let (mf, map_f) =
            full.model(o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        assert!(map_p.n_x <= map_f.n_x);
        let rp = BranchBound::new().solve(&mp, &SolveOptions::default());
        let rf = BranchBound::new().solve(&mf, &SolveOptions::default());
        assert!(
            (rp.objective - rf.objective).abs() / rf.objective.abs().max(1.0) < 1e-6,
            "pruning changed the optimum: {} vs {}",
            rp.objective,
            rf.objective
        );
    }

    #[test]
    fn model_size_grows_linearly_in_queries() {
        let (o, w) = setup(8, 66);
        let inum = Inum::new(&o);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w).truncate(12);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let gen = BipGen::default();

        let small = inum.prepare_workload(&w.truncate(4));
        let big = inum.prepare_workload(&w);
        let (ms, _) = gen.model(o.schema(), o.cost_model(), &small, &candidates, &constraints);
        let (mb, _) = gen.model(o.schema(), o.cost_model(), &big, &candidates, &constraints);
        // Doubling queries should roughly double variables (never explode).
        assert!(mb.n_vars() <= ms.n_vars() * 3 + candidates.len());
    }
}
