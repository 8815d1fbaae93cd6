//! BIPGen: Theorem 1 made executable.
//!
//! **One walk, two layouts.**  One walk over INUM's (statement, template,
//! slot, candidate) produces the compact BIP in block-angular form, a
//! [`TuningProblem`]: a [`Block`] per statement, an [`Alt`] per template,
//! [`SlotChoices`] per slot, costs weighted by `f_q`.
//! [`BipGen::block_problem`] returns it to the Lagrangian backend;
//! [`BipGen::model`] lays the literal Theorem-1 program over `y_qk`,
//! `x_qkia`, `z_a` out from it for branch-and-bound and keeps it in the
//! [`BipMapping`].
//!
//! **The layout**, which [`BipMapping::completion`] walks the block form
//! against: the `z` columns in candidate order; then per block its `y`
//! columns, one per alternative, and per alternative and slot the heap column
//! (when the slot has a fallback) and one column per choice.  Each column's
//! objective is its block-form cost.  Rows: per block `Σ y = 1`, then per
//! slot an `x ≤ z` row per choice and `Σ x = y`; then the constraint set's
//! `z`-only rows; then the query-cost rows (E.2).
//!
//! Variable pruning: a slot's `x` is dropped when its `γ` is dominated by the
//! slot's `I∅` cost (`γ ≥ γ_I∅`, heap admissible) — the heap scan never does
//! worse, so the solution space is unchanged while the program shrinks
//! drastically.  `prune_dominated` exists for the ablation bench.
//!
//! **One `γ` per (statement, table, candidate).**  `γ_qkia` depends on the
//! template only through the slot's order requirement ([`Slot::admits`]).
//! The walk prices every candidate on a table a statement reads once against
//! that table's [`TableFacts`] (`StatementGammas`), and each slot filters the
//! priced list by its order requirement and the domination rule in
//! candidate-id order — the program a (template, slot, candidate) triple loop
//! would emit.
//!
//! **Once per candidate.**  What pricing reads of an index alone — leaf
//! pages, height, its columns as a bit mask — is an [`IndexFacts`] built
//! once per walk, in candidate order, and copied into the by-table buckets;
//! every `γ` is [`TableFacts::price`] against it, and the maintenance terms
//! (`z`'s costs, [`PreparedWorkload::maintenance_costs`]) read its height.
//! Once per (statement, table, candidate), the length of the key prefix the
//! statement's equalities bind is computed and shared by every slot's order
//! test (`Index::provides_order_past`, which is [`Slot::admits`] for a
//! candidate on the slot's table).

use cophy_bip::{Alt, Block, BlockProblem, ConstrId, LinExpr, Model, Sense, SlotChoices, VarId};
use cophy_catalog::{Configuration, Index, Schema};
use cophy_inum::{PreparedQuery, PreparedWorkload, Slot};
use cophy_optimizer::{CostModel, IndexFacts, TableFacts};

use crate::cgen::CandidateSet;
use crate::constraints::{add_z_row, Constraint, ConstraintSet};

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

/// Mapping from model variables back to the tuning domain.
#[derive(Debug, Clone)]
pub struct BipMapping {
    /// `z_a` variable per candidate (position-aligned with the candidate set).
    pub z: Vec<VarId>,
    /// The model row carrying the storage budget, if the constraint set has
    /// one — the interactive session's `DeltaModel::set_rhs` handle for
    /// warm-chained budget sweeps.
    pub storage_row: Option<ConstrId>,
    /// The block form the model was laid out from, its knapsack row the
    /// constraint set's storage budget at layout time.
    pub problem: TuningProblem,
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
    /// `selected`, then per block the alternative and per slot the access
    /// [`Block::argmin`] picks.  Used to seed the generic backend with the
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
        // The columns after the `z`s, in the module header's layout.
        let mut col = self.z.len();
        for block in &self.problem.block.blocks {
            let best = block.argmin(selected).map(|(k, _)| k);
            if let Some(k) = best {
                x[col + k] = 1.0;
            }
            col += block.alts.len();
            for (k, alt) in block.alts.iter().enumerate() {
                for slot in &alt.slots {
                    let heap = usize::from(slot.fallback.is_some());
                    if best == Some(k) {
                        if let Some((_, choice)) = slot.argmin(selected) {
                            x[col + choice.map_or(0, |i| heap + i)] = 1.0;
                        }
                    }
                    col += heap + slot.choices.len();
                }
            }
        }
        x
    }
}

/// A tuning problem in block-angular form, plus the update-base cost that
/// lies outside it.
#[derive(Debug, Clone)]
pub struct TuningProblem {
    pub block: BlockProblem,
    /// `Σ_q f_q c_q`: the fixed update-base cost excluded from optimization.
    pub fixed_cost: f64,
}

/// One candidate as the walk prices it: its position, its definition and
/// its [`IndexFacts`], computed once per walk.
type Candidate<'a> = (u32, &'a Index, IndexFacts);

/// The candidate set bucketed by table (`TableId.0` indexes the outer
/// vector), in candidate-id order; `facts` holds each candidate's
/// [`IndexFacts`], by id.
fn candidates_by_table<'a>(
    schema: &Schema,
    candidates: &'a CandidateSet,
    facts: &[IndexFacts],
) -> Vec<Vec<Candidate<'a>>> {
    let mut by_table = vec![Vec::new(); schema.n_tables()];
    for (id, ix) in candidates.iter() {
        by_table[ix.table.0 as usize].push((id.0, ix, facts[id.0 as usize]));
    }
    by_table
}

/// One candidate with a finite `γ` on a table a statement reads: its
/// position, its definition, `γ`, and the length of its key prefix the
/// statement's equality predicates bind (what [`Slot::admits`] strips).
struct Priced<'a> {
    a: u32,
    ix: &'a Index,
    gamma: f64,
    eq_prefix_len: usize,
}

/// One table a statement reads: its facts and the candidates on it that
/// have a finite `γ`, in candidate-id order.
struct TableGammas<'a> {
    facts: TableFacts,
    priced: Vec<Priced<'a>>,
}

/// One statement's `γ` table: a [`TableGammas`] per table its templates read.
struct StatementGammas<'a>(Vec<TableGammas<'a>>);

impl<'a> StatementGammas<'a> {
    fn new(
        schema: &Schema,
        cm: &CostModel,
        pq: &PreparedQuery,
        by_table: &[Vec<Candidate<'a>>],
    ) -> Self {
        let price = |facts: TableFacts| {
            let priced = by_table[facts.table().0 as usize]
                .iter()
                .filter_map(|&(a, ix, ref ixf)| {
                    let gamma = facts.price(cm, ix, ixf)?;
                    let eq_prefix_len = ix.eq_prefix_len(facts.eq_cols());
                    Some(Priced { a, ix, gamma, eq_prefix_len })
                })
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
        // `Slot::admits` with the candidate's bound prefix in hand: every
        // candidate here is on the slot's table.
        let admits = |c: &Priced<'_>| {
            let admitted = c.ix.provides_order_past(&slot.required, c.eq_prefix_len);
            debug_assert_eq!(admitted, slot.admits(c.ix, on_table.facts.eq_cols()));
            admitted
        };
        on_table
            .priced
            .iter()
            .filter(|c| admits(c) && !dominated(c.gamma))
            .map(|c| (c.a, c.gamma))
            .collect()
    }
}

impl BipGen {
    /// The one walk from INUM to the Theorem-1 program: costs pre-weighted
    /// by `f_q`, `budget` the knapsack row.
    fn walk(
        &self,
        schema: &Schema,
        cm: &CostModel,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        budget: Option<f64>,
    ) -> TuningProblem {
        let n = candidates.len();
        let facts: Vec<IndexFacts> =
            candidates.iter().map(|(_, ix)| IndexFacts::new(schema, ix)).collect();
        let by_table = candidates_by_table(schema, candidates, &facts);
        let heights = candidates.iter().zip(&facts).map(|((_, ix), ixf)| (ix, ixf.height()));
        let item_cost = prepared.maintenance_costs(cm, heights);
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
            block: BlockProblem { n_items: n, item_cost, item_size, budget, blocks },
            fixed_cost,
        }
    }

    /// Build the block-angular form (Lagrangian backend): the storage budget
    /// (if any) becomes the knapsack row.  Richer constraints are not
    /// representable here — the Solver routes them to the generic backend.
    pub fn block_problem(
        &self,
        schema: &Schema,
        cm: &CostModel,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> TuningProblem {
        debug_assert!(constraints.is_storage_only(), "block form supports storage only");
        let budget = constraints.storage_budget().map(|b| b as f64);
        self.walk(schema, cm, prepared, candidates, budget)
    }

    /// Build the literal Theorem-1 model (generic backend), laid out from
    /// the block form as the module header describes.
    pub fn model(
        &self,
        schema: &Schema,
        cm: &CostModel,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
        constraints: &ConstraintSet,
    ) -> (Model, BipMapping) {
        let budget = constraints.storage_budget().map(|b| b as f64);
        let problem = self.walk(schema, cm, prepared, candidates, budget);
        let p = &problem.block;
        let mut m = Model::new();
        let z: Vec<VarId> = candidates
            .iter()
            .map(|(id, ix)| {
                m.add_var(format!("z_{}", ix.describe(schema)), p.item_cost[id.0 as usize])
            })
            .collect();

        // Where each block's columns start, plus the end of the last.
        let mut starts = Vec::with_capacity(p.blocks.len() + 1);
        for (qi, block) in p.blocks.iter().enumerate() {
            let first = m.n_vars();
            starts.push(first);
            let mut ysum = LinExpr::new();
            for (k, alt) in block.alts.iter().enumerate() {
                ysum.add(m.add_var(format!("y_q{qi}_k{k}"), alt.base), 1.0);
            }
            m.add_constraint(ysum, Sense::Eq, 1.0);
            for (k, alt) in block.alts.iter().enumerate() {
                for (s, slot) in alt.slots.iter().enumerate() {
                    let mut xsum = LinExpr::new();
                    if let Some(h) = slot.fallback {
                        xsum.add(m.add_var(format!("x_q{qi}_k{k}_s{s}_heap"), h), 1.0);
                    }
                    for &(a, g) in &slot.choices {
                        let xv = m.add_var(format!("x_q{qi}_k{k}_s{s}_a{a}"), g);
                        xsum.add(xv, 1.0);
                        // x ≤ z   (z_a ≥ x_qkia)
                        let row = LinExpr::new().term(xv, 1.0).term(z[a as usize], -1.0);
                        m.add_constraint(row, Sense::Le, 0.0);
                    }
                    // Σ_a x_qkia = y_qk
                    xsum.add(VarId((first + k) as u32), -1.0);
                    m.add_constraint(xsum, Sense::Eq, 0.0);
                }
            }
        }
        starts.push(m.n_vars());

        // z-only constraint rows, constraint by constraint so the storage
        // row's id can be recorded for interactive RHS sweeps.
        let mut storage_row = None;
        for c in &constraints.hard {
            for row in c.z_rows(schema, candidates) {
                let cid = add_z_row(&mut m, &z, &row);
                if matches!(c, Constraint::Storage { .. }) && storage_row.is_none() {
                    storage_row = Some(cid);
                }
            }
        }

        // Query-cost constraints (E.2): cost(q, X) ≤ factor · cost(q, X0),
        // scaled by f_q — the block's columns at their objective costs.
        let x0 = Configuration::baseline(schema);
        for (target, factor) in constraints.query_cost_bounds() {
            let named = prepared.queries.iter().enumerate();
            for (qi, pq) in named.filter(|(_, pq)| target.is_none_or(|t| t == pq.qid)) {
                let cols = starts[qi]..starts[qi + 1];
                let terms = cols.map(|j| (VarId(j as u32), m.objective()[j])).collect();
                let rhs = pq.weight * factor * pq.cost(schema, cm, &x0);
                m.add_constraint(LinExpr { terms }, Sense::Le, rhs);
            }
        }

        (m, BipMapping { z, storage_row, problem })
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
        let (mp, _) =
            pruned.model(o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        let (mf, _) = full.model(o.schema(), o.cost_model(), &prepared, &candidates, &constraints);
        assert!(mp.n_vars() <= mf.n_vars());
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

    /// The walk's order test, with each candidate's equality-bound key
    /// prefix computed once per (statement, table), is `Slot::admits` for
    /// every slot of every template over the three generators and CGen's
    /// candidates — those priced and those refused alike.
    #[test]
    fn shared_eq_prefix_admits_what_the_slot_admits() {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let s = o.schema();
        let inum = Inum::new(&o);
        let (mut compared, mut admitted, mut bound) = (0, 0, 0);
        for w in [
            HomGen::new(5).generate(s, 40),
            cophy_workload::HetGen::new(5).generate(s, 40),
            cophy_workload::UpdateGen::new(5).generate(s, 40),
        ] {
            let prepared = inum.prepare_workload(&w);
            let candidates = crate::cgen::CGen::default().generate(s, &w);
            let facts: Vec<IndexFacts> =
                candidates.iter().map(|(_, ix)| IndexFacts::new(s, ix)).collect();
            let by_table = candidates_by_table(s, &candidates, &facts);
            for pq in &prepared.queries {
                for facts in pq.table_facts(s) {
                    for &(_, ix, _) in &by_table[facts.table().0 as usize] {
                        let eq_prefix_len = ix.eq_prefix_len(facts.eq_cols());
                        bound += usize::from(eq_prefix_len > 0);
                        let slots = pq.templates.iter().flat_map(|tpl| &tpl.slots);
                        for slot in slots.filter(|slot| slot.table == facts.table()) {
                            let admits = slot.admits(ix, facts.eq_cols());
                            let past = ix.provides_order_past(&slot.required, eq_prefix_len);
                            assert_eq!(past, admits, "{ix:?}");
                            admitted += usize::from(admits);
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(
            compared > 10_000 && compared - admitted > 1_000 && bound > 100,
            "{compared} compared, {admitted} admitted, {bound} with a bound prefix"
        );
    }
}
