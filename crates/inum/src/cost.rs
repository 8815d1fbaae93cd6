//! The linearly composable cost function (Definition 1).
//!
//! Given a prepared query, `cost(q, X)` is evaluated per template by
//! independent per-slot minimization — the cartesian structure of
//! `atom(X)` means the minimum over atomic configurations decomposes into a
//! minimum per slot.  This is the approximation-free consequence of the
//! paper's Definition 1 and what makes the evaluation run in microseconds.
//! The update terms `(Σ_{a ∈ X} ucost(a, q)) + c_q` are added to the
//! winning template's cost in the same function.

use cophy_catalog::{Configuration, Index, Schema};
use cophy_optimizer::{ucost, CostModel, IndexFacts, TableFacts};

use crate::prepare::{PreparedQuery, PreparedWorkload};

impl PreparedQuery {
    /// What every `γ` of this statement is priced against: the access facts
    /// of each table its templates' slots read, one entry per table.  `γ`
    /// depends on the template only through
    /// [`Slot::admits`](crate::Slot::admits), so callers that price many
    /// indexes gather these once and use [`Slot::gamma`](crate::Slot::gamma).
    pub fn table_facts(&self, schema: &Schema) -> Vec<TableFacts> {
        let mut facts: Vec<TableFacts> = Vec::new();
        for slot in self.templates.iter().flat_map(|tpl| &tpl.slots) {
            if !facts.iter().any(|f| f.table() == slot.table) {
                facts.push(TableFacts::new(schema, &self.query, slot.table));
            }
        }
        facts
    }

    /// [`cophy_optimizer::ucost`] of index `a` under this statement, over
    /// the rows cached at preparation (0 for SELECTs).  `height` yields
    /// `ix.height(schema)`, and is called only when the statement maintains
    /// `ix`; a caller holding the index's
    /// [`IndexFacts`](cophy_optimizer::IndexFacts) passes its height.
    pub fn ucost(&self, cm: &CostModel, ix: &Index, height: impl FnOnce() -> u32) -> f64 {
        match &self.update {
            Some((u, rows)) => ucost(cm, u, *rows, ix, height),
            None => 0.0,
        }
    }

    /// `cost(q, X)`: the read side `min_k { β_qk + Σ_i min_a γ_qkia }` over
    /// `a ∈ X_i ∪ {I∅}`, always finite thanks to the unconstrained template,
    /// plus `(Σ_{ix ∈ X} ucost(ix, q)) + c_q`.
    pub fn cost(&self, schema: &Schema, cm: &CostModel, config: &Configuration) -> f64 {
        self.cost_of(schema, cm, &index_facts(schema, config))
    }

    /// [`PreparedQuery::cost`] over the configuration's indexes, each with
    /// its facts, in configuration order.  Each slot's minimum runs over the
    /// heap scan and then the admitted indexes, keeping the first strictly
    /// cheapest; the first strictly cheapest template wins.
    fn cost_of(&self, schema: &Schema, cm: &CostModel, indexes: &[(&Index, IndexFacts)]) -> f64 {
        let facts = self.table_facts(schema);
        let mut best: Option<f64> = None;
        'templates: for tpl in &self.templates {
            let mut total = tpl.internal_cost;
            for slot in &tpl.slots {
                let slot_facts = facts
                    .iter()
                    .find(|f| f.table() == slot.table)
                    .expect("facts of every slot table were gathered");
                let mut slot_best = slot.heap_cost;
                for (ix, ixf) in indexes.iter().filter(|(ix, _)| ix.table == slot.table) {
                    if let Some(g) = slot.gamma(slot_facts, cm, ix, ixf) {
                        if slot_best.is_none_or(|c| g < c) {
                            slot_best = Some(g);
                        }
                    }
                }
                let Some(g) = slot_best else { continue 'templates };
                total += g;
            }
            if best.is_none_or(|b| total < b) {
                best = Some(total);
            }
        }
        let read = best.expect("unconstrained template guarantees feasibility");
        let maintenance: f64 =
            indexes.iter().map(|(ix, ixf)| self.ucost(cm, ix, || ixf.height())).sum();
        read + (maintenance + self.fixed_update_cost)
    }
}

/// Each index of `config` with its facts, in configuration order.
fn index_facts<'c>(schema: &Schema, config: &'c Configuration) -> Vec<(&'c Index, IndexFacts)> {
    config.iter().map(|ix| (ix, IndexFacts::new(schema, ix))).collect()
}

impl PreparedWorkload {
    /// `Σ_q f_q · cost(q, X)` via the INUM cache — no optimizer calls.
    pub fn cost(&self, schema: &Schema, cm: &CostModel, config: &Configuration) -> f64 {
        let indexes = index_facts(schema, config);
        self.queries.iter().map(|pq| pq.weight * pq.cost_of(schema, cm, &indexes)).sum()
    }

    /// `Σ_q f_q · ucost(a, q)` per candidate `a`, given in candidate order
    /// with its height: the `z` costs of every BIP over this workload.  An
    /// UPDATE visits only the candidates on the table it writes; each sum
    /// runs in statement order.
    pub fn maintenance_costs<'a>(
        &self,
        cm: &CostModel,
        candidates: impl IntoIterator<Item = (&'a Index, u32)>,
    ) -> Vec<f64> {
        let (mut costs, mut by_table) = (Vec::new(), Vec::<Vec<(usize, &Index, u32)>>::new());
        for (ix, height) in candidates {
            let t = ix.table.0 as usize;
            by_table.resize_with(by_table.len().max(t + 1), Vec::new);
            by_table[t].push((costs.len(), ix, height));
            costs.push(0.0f64);
        }
        for pq in &self.queries {
            let Some((u, rows)) = &pq.update else { continue };
            for &(a, ix, height) in by_table.get(u.table().0 as usize).into_iter().flatten() {
                costs[a] += pq.weight * ucost(cm, u, *rows, ix, || height);
            }
        }
        costs
    }

    /// `Σ_q f_q · cost(q, ∅)`, the baseline every recommendation is measured
    /// against: the sum [`PreparedWorkload::cost`] takes under
    /// [`Configuration::empty`], term for term, over each statement's cached
    /// [`PreparedQuery::empty_cost`] and current weight.  Prices nothing.
    pub fn empty_cost(&self) -> f64 {
        self.queries.iter().map(|pq| pq.weight * pq.empty_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::Inum;
    use cophy_catalog::{Configuration, Index, TpchGen};
    use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
    use cophy_workload::{HetGen, HomGen, Predicate, Query, Statement, Workload};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    /// Random small configuration of candidate indexes over the schema.
    fn random_config(o: &WhatIfOptimizer, seed: u64) -> Configuration {
        let s = o.schema();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cfg = Configuration::empty();
        for _ in 0..rng.gen_range(1..6) {
            let t = &s.tables()[rng.gen_range(0..s.n_tables())];
            let ncols = rng.gen_range(1..=2.min(t.columns.len()));
            let mut key = Vec::new();
            while key.len() < ncols {
                let c = cophy_catalog::ColumnId(rng.gen_range(0..t.columns.len() as u32));
                if !key.contains(&c) {
                    key.push(c);
                }
            }
            cfg.insert(Index::secondary(t.id, key));
        }
        cfg
    }

    /// Random small configuration over the columns `q` reads: one to three
    /// indexes of one or two keys on its tables.
    fn config_on(q: &Query, seed: u64) -> Configuration {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cfg = Configuration::empty();
        for _ in 0..rng.gen_range(1..4) {
            let t = q.tables[rng.gen_range(0..q.tables.len())];
            let cols = q.columns_used_on(t);
            if cols.is_empty() {
                continue;
            }
            let mut key = vec![cols[rng.gen_range(0..cols.len())]];
            let second = cols[rng.gen_range(0..cols.len())];
            if rng.gen_bool(0.5) && !key.contains(&second) {
                key.push(second);
            }
            cfg.insert(Index::secondary(t, key));
        }
        cfg
    }

    #[test]
    fn inum_cost_matches_empty_config_optimizer_cost() {
        let o = opt();
        let inum = Inum::new(&o);
        let w = HomGen::new(4).generate(o.schema(), 20);
        let pw = inum.prepare_workload(&w);
        for pq in &pw.queries {
            let inum_cost = pq.cost(o.schema(), o.cost_model(), &Configuration::empty());
            let direct = o.try_probe(&pq.query, &Configuration::empty()).unwrap().total_cost;
            let ratio = inum_cost / direct;
            assert!(
                (0.999..=1.001).contains(&ratio),
                "empty-config INUM cost must equal the optimizer's: ratio {ratio}"
            );
        }
    }

    #[test]
    fn inum_is_accurate_approximation_under_random_configs() {
        let o = opt();
        let inum = Inum::new(&o);
        let w = HomGen::new(8).generate(o.schema(), 12);
        let pw = inum.prepare_workload(&w);
        let mut worst: f64 = 1.0;
        for seed in 0..6u64 {
            let cfg = random_config(&o, seed);
            for pq in &pw.queries {
                let inum_cost = pq.cost(o.schema(), o.cost_model(), &cfg);
                let direct = o.try_probe(&pq.query, &cfg).unwrap().total_cost;
                let ratio = inum_cost / direct;
                // INUM restricts plan shapes to the template set → the INUM
                // cost can never be more than marginally below the
                // optimizer's, and stays close above it ([15] reports the
                // same bound empirically).
                assert!(ratio >= 0.995, "INUM under-estimated: {ratio}");
                worst = worst.max(ratio);
            }
        }
        assert!(worst <= 1.35, "INUM over-estimation too large: {worst}");
    }

    #[test]
    fn cost_picks_useful_index() {
        let o = opt();
        let (s, cm) = (o.schema(), o.cost_model());
        let inum = Inum::new(&o);
        let ord = s.table_by_name("orders").unwrap().id;
        let ck = s.resolve("orders.o_custkey").unwrap();
        let mut q = Query::scan(ord);
        q.predicates.push(Predicate::eq(ck, 11.0));
        let mut w = Workload::new();
        let qid = w.push(Statement::Select(q));
        let pw = inum.prepare_workload(&w);
        let pq = &pw.queries[qid.0 as usize];

        let ix = Index::secondary(ord, vec![ck.column]);
        let ixf = IndexFacts::new(s, &ix);
        let mut cfg = Configuration::empty();
        cfg.insert(ix.clone());
        // The one slot takes the index: the cost is the cheapest template
        // instantiated with it, and beats the heap scan's.
        let facts = pq.table_facts(s);
        let with_ix = pq
            .templates
            .iter()
            .filter_map(|tpl| tpl.icost(&facts, cm, &[Some((&ix, &ixf))]))
            .reduce(f64::min)
            .unwrap();
        assert!(pq.templates.iter().all(|tpl| tpl.slots.len() == 1));
        assert_eq!(pq.cost(s, cm, &cfg).to_bits(), with_ix.to_bits());
        assert!(with_ix < pq.cost(s, cm, &Configuration::empty()));
    }

    #[test]
    fn monotone_in_configuration() {
        // Adding an index never increases the INUM cost of a SELECT.
        let o = opt();
        let inum = Inum::new(&o);
        let w = HetGen::new(9).generate(o.schema(), 15);
        let pw = inum.prepare_workload(&w);
        let small = random_config(&o, 42);
        let big = small.union(&random_config(&o, 43));
        for pq in &pw.queries {
            let cs = pq.cost(o.schema(), o.cost_model(), &small);
            let cb = pq.cost(o.schema(), o.cost_model(), &big);
            assert!(cb <= cs + 1e-9, "more indexes must not hurt reads: {cb} > {cs}");
        }
    }

    #[test]
    fn update_cost_adds_maintenance_linearly() {
        let o = opt();
        let s = o.schema();
        let inum = Inum::new(&o);
        let w = cophy_workload::UpdateGen::new(7).generate(s, 3);
        let pw = inum.prepare_workload(&w);
        for pq in &pw.queries {
            let (u, _) = pq.update.clone().unwrap();
            let affected = Index::secondary(u.table(), vec![u.set_columns[0]]);
            let mut cfg = Configuration::empty();
            cfg.insert(affected.clone());
            let (cm, fixed) = (o.cost_model(), pq.fixed_update_cost);
            let ucost = pq.ucost(cm, &affected, || affected.height(s));
            assert!(ucost > 0.0);
            // The read side is the cost of the statement's read shell: the
            // same templates with no maintenance and no `c_q`.
            let shell = PreparedQuery { update: None, fixed_update_cost: 0.0, ..pq.clone() };
            let read = shell.cost(s, cm, &cfg);
            let read0 = shell.cost(s, cm, &Configuration::empty());
            assert_eq!(pq.cost(s, cm, &cfg).to_bits(), (read + (ucost + fixed)).to_bits());
            assert_eq!(
                pq.cost(s, cm, &Configuration::empty()).to_bits(),
                (read0 + fixed).to_bits()
            );
        }
    }

    /// Definition 1 taken literally: `cost(q, X)` is the minimum over
    /// templates `k` and atomic configurations `A ∈ atom(X)` (one index of
    /// `X` on the slot's table, or `I∅`, per slot) of `icost(k, A)`, plus
    /// `(Σ_{ix ∈ X} ucost(ix, q)) + c_q`.  The per-slot minimum of `cost` is
    /// that minimum bit for bit: float addition is monotone in each operand,
    /// so the sum of the per-slot minima, taken in slot order, is the least
    /// of the sums.
    #[test]
    fn cost_is_the_minimum_over_atomic_configurations() {
        let o = opt();
        let (s, cm) = (o.schema(), o.cost_model());
        let inum = Inum::new(&o);
        let workloads = [
            HomGen::new(3).generate(s, 12),
            HetGen::new(5).generate(s, 12),
            cophy_workload::UpdateGen::new(11).generate(s, 8),
        ];
        let (mut compared, mut atomics, mut index_wins) = (0, 0, 0);
        for w in &workloads {
            let pw = inum.prepare_workload(w);
            for seed in 0..8u64 {
                for (i, pq) in pw.queries.iter().enumerate() {
                    let cfg = random_config(&o, seed)
                        .union(&config_on(&pq.query, seed * 1000 + i as u64));
                    let indexes: Vec<(&Index, IndexFacts)> =
                        cfg.iter().map(|ix| (ix, IndexFacts::new(s, ix))).collect();
                    let facts = pq.table_facts(s);
                    // The least icost, and whether its atomic configuration
                    // (the first found at that cost) holds an index.
                    let mut best: Option<(f64, bool)> = None;
                    for tpl in &pq.templates {
                        let options: Vec<Vec<Option<(&Index, &IndexFacts)>>> = tpl
                            .slots
                            .iter()
                            .map(|slot| {
                                let on_table =
                                    indexes.iter().filter(|(ix, _)| ix.table == slot.table);
                                let on_table = on_table.map(|(ix, ixf)| Some((*ix, ixf)));
                                std::iter::once(None).chain(on_table).collect()
                            })
                            .collect();
                        // Odometer over the cartesian product atom(X).
                        let mut pick = vec![0usize; options.len()];
                        loop {
                            let atomic: Vec<Option<(&Index, &IndexFacts)>> =
                                pick.iter().zip(&options).map(|(&k, opts)| opts[k]).collect();
                            if let Some(c) = tpl.icost(&facts, cm, &atomic) {
                                if best.is_none_or(|(b, _)| c < b) {
                                    best = Some((c, atomic.iter().any(Option::is_some)));
                                }
                            }
                            atomics += 1;
                            let Some(d) = (0..pick.len()).find(|&d| pick[d] + 1 < options[d].len())
                            else {
                                break;
                            };
                            pick[d] += 1;
                            pick[..d].fill(0);
                        }
                    }
                    let (read, index_won) = best.expect("the unconstrained template");
                    let maintenance: f64 =
                        cfg.iter().map(|ix| pq.ucost(cm, ix, || ix.height(s))).sum();
                    let oracle = read + (maintenance + pq.fixed_update_cost);
                    let cost = pq.cost(s, cm, &cfg);
                    assert_eq!(oracle.to_bits(), cost.to_bits(), "{oracle} vs cost {cost}");
                    compared += 1;
                    index_wins += usize::from(index_won);
                }
            }
        }
        assert!(
            compared == 8 * 32 && atomics > 8 * compared && index_wins > compared / 3,
            "{compared} statements × configurations, {atomics} atomic configurations, \
             {index_wins} won by an index"
        );
    }

    #[test]
    fn workload_cost_is_weighted_sum() {
        let o = opt();
        let inum = Inum::new(&o);
        let mut w = Workload::new();
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        w.push_weighted(Statement::Select(Query::scan(li)), 2.0);
        w.push_weighted(Statement::Select(Query::scan(li)), 3.0);
        let pw = inum.prepare_workload(&w);
        let c = pw.cost(o.schema(), o.cost_model(), &Configuration::empty());
        let single = pw.queries[0].cost(o.schema(), o.cost_model(), &Configuration::empty());
        assert!((c - 5.0 * single).abs() < 1e-6);
    }

    /// The cached baseline is the priced one, bit for bit, over the three
    /// generators — and still is after merges move weight between
    /// statements, as a compressed workload's clusters do.
    #[test]
    fn empty_cost_is_the_cost_of_the_empty_configuration() {
        let o = opt();
        let (s, cm) = (o.schema(), o.cost_model());
        let inum = Inum::new(&o);
        let workloads = [
            HomGen::new(7).generate(s, 30),
            HetGen::new(7).generate(s, 30),
            cophy_workload::UpdateGen::new(7).generate(s, 30),
        ];
        for w in &workloads {
            let mut pw = inum.prepare_workload(w);
            let priced = |pw: &PreparedWorkload| pw.cost(s, cm, &Configuration::empty()).to_bits();
            assert_eq!(pw.empty_cost().to_bits(), priced(&pw));
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..20 {
                let rep = rng.gen_range(0..pw.queries.len());
                pw.queries[rep].weight += rng.gen_range(1..4) as f64 * 0.5;
                assert_eq!(pw.empty_cost().to_bits(), priced(&pw));
            }
        }
    }
}
