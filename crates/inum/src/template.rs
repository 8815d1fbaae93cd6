//! Template plans: the unit of INUM's cache.

use cophy_catalog::{ColumnId, Index, TableId};
use cophy_optimizer::{CostModel, IndexFacts, TableFacts};
use serde::{Deserialize, Serialize};

/// One leaf slot of a template plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slot {
    pub table: TableId,
    /// Order the internal plan requires from this access (local columns,
    /// already normalized: equality-bound prefix stripped).  Empty = any
    /// access method fits.
    pub required: Vec<ColumnId>,
    /// `γ_qki∅`: cost of instantiating the slot with the heap scan `I∅`;
    /// `None` when the required order makes the heap scan incompatible
    /// (`γ = ∞` in the paper's notation).
    pub heap_cost: Option<f64>,
}

impl Slot {
    /// Can `ix` fill this slot — is it on the slot's table, and does its
    /// scan deliver the required order once the equality-bound columns
    /// `eq_cols` are stripped from the front of its key?  This is all of
    /// `γ` that depends on the template.
    pub fn admits(&self, ix: &Index, eq_cols: &[ColumnId]) -> bool {
        ix.table == self.table && ix.provides_order(&self.required, eq_cols)
    }

    /// `γ` of this slot for `ix`, priced against the facts of the slot's
    /// table that the caller gathered once for the statement and the facts
    /// of `ix` (`IndexFacts::new(schema, ix)`).
    pub fn gamma(
        &self,
        facts: &TableFacts,
        cm: &CostModel,
        ix: &Index,
        ixf: &IndexFacts,
    ) -> Option<f64> {
        debug_assert_eq!(facts.table(), self.table);
        if !self.admits(ix, facts.eq_cols()) {
            return None;
        }
        facts.price(cm, ix, ixf)
    }
}

/// A template plan: internal operators with open access slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplatePlan {
    /// `β_qk`: the internal plan cost (joins, sorts, aggregation).
    pub internal_cost: f64,
    /// One slot per referenced table, in the query's table order.
    pub slots: Vec<Slot>,
}

impl TemplatePlan {
    /// Signature used for deduplication: two templates with identical slot
    /// requirements are interchangeable (keep the cheaper β).
    pub fn signature(&self) -> Vec<(TableId, Vec<ColumnId>)> {
        self.slots.iter().map(|s| (s.table, s.required.clone())).collect()
    }

    /// Instantiated cost `icost(p, A)` for an atomic configuration given as
    /// one optional index, with its facts, per slot (`None` = `I∅`), each
    /// `γ` priced by [`Slot::gamma`] against the statement's gathered
    /// `facts` ([`PreparedQuery::table_facts`](crate::PreparedQuery::table_facts)).
    /// Returns `None` when the configuration cannot instantiate the template
    /// (infinite cost).
    pub fn icost(
        &self,
        facts: &[TableFacts],
        cm: &CostModel,
        atomic: &[Option<(&Index, &IndexFacts)>],
    ) -> Option<f64> {
        debug_assert_eq!(atomic.len(), self.slots.len());
        let mut total = self.internal_cost;
        for (slot, choice) in self.slots.iter().zip(atomic) {
            let slot_cost = match choice {
                None => slot.heap_cost?,
                Some((ix, ixf)) => {
                    let slot_facts = facts
                        .iter()
                        .find(|f| f.table() == slot.table)
                        .expect("facts of every slot table were gathered");
                    slot.gamma(slot_facts, cm, ix, ixf)?
                }
            };
            total += slot_cost;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_optimizer::SystemProfile;
    use cophy_workload::{Predicate, Query};

    fn setup() -> (cophy_catalog::Schema, CostModel) {
        (TpchGen::default().schema(), CostModel::profile(SystemProfile::A))
    }

    fn sample_query(s: &cophy_catalog::Schema) -> (Query, TableId) {
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let mut q = Query::scan(li);
        q.predicates.push(Predicate::between(sd, 10.0, 60.0));
        (q, li)
    }

    #[test]
    fn gamma_infinite_for_wrong_table_or_order() {
        let (s, cm) = setup();
        let (q, li) = sample_query(&s);
        let tpl = TemplatePlan {
            internal_cost: 5.0,
            slots: vec![Slot {
                table: li,
                required: vec![s.resolve("lineitem.l_quantity").unwrap().column],
                heap_cost: None,
            }],
        };
        let (slot, facts) = (&tpl.slots[0], TableFacts::new(&s, &q, li));
        // Index on another table: incompatible.
        let other = Index::secondary(s.table_by_name("orders").unwrap().id, vec![ColumnId(0)]);
        assert!(slot.gamma(&facts, &cm, &other, &IndexFacts::new(&s, &other)).is_none());
        // Index that does not deliver the required order: incompatible.
        let wrong = Index::secondary(li, vec![s.resolve("lineitem.l_shipdate").unwrap().column]);
        assert!(slot.gamma(&facts, &cm, &wrong, &IndexFacts::new(&s, &wrong)).is_none());
        // Index delivering the order: finite.
        let right = Index::secondary(li, vec![s.resolve("lineitem.l_quantity").unwrap().column]);
        assert!(slot.gamma(&facts, &cm, &right, &IndexFacts::new(&s, &right)).is_some());
    }

    #[test]
    fn icost_adds_beta_and_gammas() {
        let (s, cm) = setup();
        let (q, li) = sample_query(&s);
        let heap = cophy_optimizer::heap_path(&s, &cm, &q, li, None);
        let tpl = TemplatePlan {
            internal_cost: 7.0,
            slots: vec![Slot { table: li, required: vec![], heap_cost: Some(heap.cost) }],
        };
        let c = tpl.icost(&[TableFacts::new(&s, &q, li)], &cm, &[None]).unwrap();
        assert!((c - (7.0 + heap.cost)).abs() < 1e-9);
        // With a selective index the icost drops.
        let ix = Index::secondary(li, vec![s.resolve("lineitem.l_shipdate").unwrap().column]);
        let ixf = IndexFacts::new(&s, &ix);
        let c_ix = tpl.icost(&[TableFacts::new(&s, &q, li)], &cm, &[Some((&ix, &ixf))]).unwrap();
        assert!(c_ix < c);
    }

    #[test]
    fn icost_none_when_uninstantiable() {
        let (s, cm) = setup();
        let (q, li) = sample_query(&s);
        let tpl = TemplatePlan {
            internal_cost: 1.0,
            slots: vec![Slot {
                table: li,
                required: vec![s.resolve("lineitem.l_quantity").unwrap().column],
                heap_cost: None,
            }],
        };
        assert!(tpl.icost(&[TableFacts::new(&s, &q, li)], &cm, &[None]).is_none());
    }

    #[test]
    fn signature_dedup_key() {
        let (s, _) = setup();
        let li = s.table_by_name("lineitem").unwrap().id;
        let a = TemplatePlan {
            internal_cost: 1.0,
            slots: vec![Slot { table: li, required: vec![], heap_cost: Some(1.0) }],
        };
        let b = TemplatePlan {
            internal_cost: 2.0,
            slots: vec![Slot { table: li, required: vec![], heap_cost: Some(1.0) }],
        };
        assert_eq!(a.signature(), b.signature());
    }

    use cophy_catalog::{ColumnId, Index, TableId};
}
