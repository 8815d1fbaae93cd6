//! The constraint language (paper §3.2 and Appendix E).
//!
//! Every constraint class reported by Bruno & Chaudhuri's constrained
//! physical design study translates into *linear* rows over the BIP
//! variables:
//!
//! * **index constraints** (E.1): `Σ_{a ∈ Sc} w_a z_a <=> V` over a
//!   declaratively filtered candidate subset;
//! * **storage** (§3.2): the weighted case with `w_a = size(a)`;
//! * **query-cost constraints** (E.2): `cost(q, X) ≤ factor · cost(q, X0)` —
//!   linear because the cost function itself is linear in `y`/`x`;
//! * **generators** (E.3): FOR-loops over tables/queries, unrolled at
//!   translation time, e.g. at most one clustered index per table;
//! * **soft constraints** (§4.1) are *not* rows — they reshape the objective
//!   and are handled by [`crate::soft`].

use cophy_bip::{ConstrId, LinExpr, Model, Sense, VarId};
use cophy_catalog::{ColumnId, Schema, TableId};
use cophy_workload::QueryId;
use serde::{Deserialize, Serialize};

use crate::cgen::CandidateSet;

/// Comparison operator of an index constraint (`<=>` in the paper's E.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

/// One linear constraint row over candidate positions, as consumed by the
/// BIP generator: `(terms, cmp, rhs)` with terms `(candidate position,
/// coefficient)`.
pub(crate) type LinearRow = (Vec<(usize, f64)>, Cmp, f64);

/// Add one row to `m` over its `z` columns (position-aligned with the
/// candidate set).
pub(crate) fn add_z_row(m: &mut Model, z: &[VarId], (terms, cmp, rhs): &LinearRow) -> ConstrId {
    let mut e = LinExpr::new();
    for &(pos, coeff) in terms {
        e.add(z[pos], coeff);
    }
    let sense = match cmp {
        Cmp::Le => Sense::Le,
        Cmp::Ge => Sense::Ge,
        Cmp::Eq => Sense::Eq,
    };
    m.add_constraint(e, sense, *rhs)
}

/// A declarative filter selecting the candidate subset `Sc ⊂ S` a constraint
/// applies to (the paper's Filters, E.3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexFilter {
    /// Restrict to one table.
    pub table: Option<TableId>,
    /// Only indexes with at least this many columns (key + include).
    pub min_columns: Option<usize>,
    /// Only indexes with at most this many columns.
    pub max_columns: Option<usize>,
    /// Only indexes whose key contains this column.
    pub key_contains: Option<(TableId, ColumnId)>,
    /// Only clustered indexes.
    pub clustered_only: bool,
}

impl IndexFilter {
    pub fn all() -> Self {
        IndexFilter::default()
    }

    pub fn on_table(table: TableId) -> Self {
        IndexFilter { table: Some(table), ..Default::default() }
    }

    /// Does `ix` pass the filter?
    pub fn matches(&self, ix: &cophy_catalog::Index) -> bool {
        if let Some(t) = self.table {
            if ix.table != t {
                return false;
            }
        }
        if let Some(n) = self.min_columns {
            if ix.n_columns() < n {
                return false;
            }
        }
        if let Some(n) = self.max_columns {
            if ix.n_columns() > n {
                return false;
            }
        }
        if let Some((t, c)) = self.key_contains {
            if ix.table != t || !ix.key.contains(&c) {
                return false;
            }
        }
        if self.clustered_only && !ix.is_clustered() {
            return false;
        }
        true
    }
}

/// One hard constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// `Σ size(a) · z_a ≤ budget` (bytes).
    Storage { budget_bytes: u64 },
    /// `Σ_{a ∈ filter} z_a <=> value` — e.g. "at most 2 wide indexes on T".
    IndexCount { filter: IndexFilter, cmp: Cmp, value: u32 },
    /// `Σ_{a ∈ filter} size(a) · z_a <=> value` (bytes).
    IndexSize { filter: IndexFilter, cmp: Cmp, value: u64 },
    /// Unrolled generator (E.3): at most one clustered index per table.
    OneClusteredPerTable,
    /// E.2: `cost(q, X) ≤ factor · baseline_cost(q)` for the prepared
    /// statement whose id is `query` (its position in the workload).  A tune
    /// refuses an id no prepared statement carries, and refuses the bound
    /// outright under compression, which renumbers the statements.
    QueryCost { query: QueryId, factor: f64 },
    /// Unrolled generator over all queries: every query within `factor` of
    /// its baseline cost.
    AllQueryCosts { factor: f64 },
}

impl Constraint {
    /// Linear rows of *this* constraint over the candidate positions — the
    /// per-constraint building block of [`ConstraintSet::z_rows`], exposed
    /// so the BIP generator can tag which model row came from which
    /// constraint (the interactive session mutates the storage row's RHS in
    /// place for budget sweeps).  Query-cost constraints translate to rows
    /// over `y`/`x` variables instead and return nothing here.
    pub(crate) fn z_rows(&self, schema: &Schema, candidates: &CandidateSet) -> Vec<LinearRow> {
        let mut rows = Vec::new();
        match self {
            Constraint::Storage { budget_bytes } => {
                let terms: Vec<(usize, f64)> = candidates
                    .iter()
                    .map(|(id, _)| (id.0 as usize, candidates.size_bytes(id) as f64))
                    .collect();
                rows.push((terms, Cmp::Le, *budget_bytes as f64));
            }
            Constraint::IndexCount { filter, cmp, value } => {
                let terms: Vec<(usize, f64)> = candidates
                    .iter()
                    .filter(|(_, ix)| filter.matches(ix))
                    .map(|(id, _)| (id.0 as usize, 1.0))
                    .collect();
                rows.push((terms, *cmp, f64::from(*value)));
            }
            Constraint::IndexSize { filter, cmp, value } => {
                let terms: Vec<(usize, f64)> = candidates
                    .iter()
                    .filter(|(_, ix)| filter.matches(ix))
                    .map(|(id, _)| (id.0 as usize, candidates.size_bytes(id) as f64))
                    .collect();
                rows.push((terms, *cmp, *value as f64));
            }
            Constraint::OneClusteredPerTable => {
                for t in schema.tables() {
                    let terms: Vec<(usize, f64)> = candidates
                        .iter()
                        .filter(|(_, ix)| ix.is_clustered() && ix.table == t.id)
                        .map(|(id, _)| (id.0 as usize, 1.0))
                        .collect();
                    if terms.len() > 1 {
                        rows.push((terms, Cmp::Le, 1.0));
                    }
                }
            }
            Constraint::QueryCost { .. } | Constraint::AllQueryCosts { .. } => {
                // handled by BipGen (needs the y/x variables)
            }
        }
        rows
    }
}

/// The constraint set `C = C_hard` handed to the Solver.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    pub hard: Vec<Constraint>,
}

impl ConstraintSet {
    pub fn none() -> Self {
        ConstraintSet::default()
    }

    /// The common case: a storage budget expressed as a fraction `M` of the
    /// database size (the paper's default experiment uses `M = 1`).
    pub fn storage_fraction(schema: &Schema, m: f64) -> Self {
        let budget = (schema.data_bytes() as f64 * m) as u64;
        ConstraintSet { hard: vec![Constraint::Storage { budget_bytes: budget }] }
    }

    pub fn with(mut self, c: Constraint) -> Self {
        self.hard.push(c);
        self
    }

    /// The storage budget if one is present.
    pub fn storage_budget(&self) -> Option<u64> {
        self.hard.iter().find_map(|c| match c {
            Constraint::Storage { budget_bytes } => Some(*budget_bytes),
            _ => None,
        })
    }

    /// True when the set is a plain storage budget (or empty) — the shape the
    /// Lagrangian backend handles natively; anything richer routes to the
    /// generic B&B backend.
    pub fn is_storage_only(&self) -> bool {
        self.hard.iter().all(|c| matches!(c, Constraint::Storage { .. }))
    }

    /// Check a concrete configuration against the z-only constraints
    /// (storage, counts, clustered rules).  Query-cost constraints need the
    /// cost function and are verified by the Solver.
    pub fn check_configuration(
        &self,
        schema: &Schema,
        cfg: &cophy_catalog::Configuration,
    ) -> Result<(), String> {
        for c in &self.hard {
            match c {
                Constraint::Storage { budget_bytes } => {
                    let used = cfg.size_bytes(schema);
                    if used > *budget_bytes {
                        return Err(format!("storage {used} exceeds budget {budget_bytes}"));
                    }
                }
                Constraint::IndexCount { filter, cmp, value } => {
                    let count = cfg.iter().filter(|ix| filter.matches(ix)).count() as u32;
                    let ok = match cmp {
                        Cmp::Le => count <= *value,
                        Cmp::Ge => count >= *value,
                        Cmp::Eq => count == *value,
                    };
                    if !ok {
                        return Err(format!("index count {count} violates {cmp:?} {value}"));
                    }
                }
                Constraint::IndexSize { filter, cmp, value } => {
                    let sz: u64 = cfg
                        .iter()
                        .filter(|ix| filter.matches(ix))
                        .map(|ix| ix.size_bytes(schema))
                        .sum();
                    let ok = match cmp {
                        Cmp::Le => sz <= *value,
                        Cmp::Ge => sz >= *value,
                        Cmp::Eq => sz == *value,
                    };
                    if !ok {
                        return Err(format!("filtered size {sz} violates {cmp:?} {value}"));
                    }
                }
                Constraint::OneClusteredPerTable => {
                    let bad = cfg.clustered_violations();
                    if !bad.is_empty() {
                        return Err(format!("tables with >1 clustered index: {bad:?}"));
                    }
                }
                Constraint::QueryCost { .. } | Constraint::AllQueryCosts { .. } => {}
            }
        }
        Ok(())
    }

    /// Translate the z-only constraints into linear rows over the candidate
    /// set: `(terms, cmp, rhs)` with terms `(candidate position, coeff)`.
    pub(crate) fn z_rows(&self, schema: &Schema, candidates: &CandidateSet) -> Vec<LinearRow> {
        self.hard.iter().flat_map(|c| c.z_rows(schema, candidates)).collect()
    }

    /// Query-cost constraints, normalized to per-query factors.
    pub fn query_cost_bounds(&self) -> Vec<(Option<QueryId>, f64)> {
        self.hard
            .iter()
            .filter_map(|c| match c {
                Constraint::QueryCost { query, factor } => Some((Some(*query), *factor)),
                Constraint::AllQueryCosts { factor } => Some((None, *factor)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::{Configuration, Index, TpchGen};

    #[test]
    fn filter_matching() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let ord = s.table_by_name("orders").unwrap().id;
        let ix = Index::secondary(li, vec![ColumnId(10), ColumnId(4)]);
        assert!(IndexFilter::all().matches(&ix));
        assert!(IndexFilter::on_table(li).matches(&ix));
        assert!(!IndexFilter::on_table(ord).matches(&ix));
        assert!(IndexFilter { min_columns: Some(2), ..Default::default() }.matches(&ix));
        assert!(!IndexFilter { min_columns: Some(3), ..Default::default() }.matches(&ix));
        assert!(!IndexFilter { max_columns: Some(1), ..Default::default() }.matches(&ix));
        assert!(IndexFilter { key_contains: Some((li, ColumnId(10))), ..Default::default() }
            .matches(&ix));
        assert!(!IndexFilter { clustered_only: true, ..Default::default() }.matches(&ix));
    }

    #[test]
    fn storage_fraction_budget() {
        let s = TpchGen::default().schema();
        let c = ConstraintSet::storage_fraction(&s, 0.5);
        assert_eq!(c.storage_budget().unwrap(), s.data_bytes() / 2);
        assert!(c.is_storage_only());
    }

    #[test]
    fn check_configuration_storage_and_count() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let ix = Index::secondary(li, vec![ColumnId(0)]);
        let cfg = Configuration::from_indexes([ix.clone()]);
        let tight =
            ConstraintSet::none().with(Constraint::Storage { budget_bytes: ix.size_bytes(&s) - 1 });
        assert!(tight.check_configuration(&s, &cfg).is_err());
        let loose =
            ConstraintSet::none().with(Constraint::Storage { budget_bytes: ix.size_bytes(&s) + 1 });
        assert!(loose.check_configuration(&s, &cfg).is_ok());

        let count = ConstraintSet::none().with(Constraint::IndexCount {
            filter: IndexFilter::on_table(li),
            cmp: Cmp::Le,
            value: 0,
        });
        assert!(count.check_configuration(&s, &cfg).is_err());
    }

    #[test]
    fn clustered_generator_unrolls() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut cands = CandidateSet::new();
        cands.insert(&s, Index::clustered(li, vec![ColumnId(0)]));
        cands.insert(&s, Index::clustered(li, vec![ColumnId(1)]));
        cands.insert(&s, Index::secondary(li, vec![ColumnId(2)]));
        let cs = ConstraintSet::none().with(Constraint::OneClusteredPerTable);
        let rows = cs.z_rows(&s, &cands);
        assert_eq!(rows.len(), 1, "one row for the one table with 2 clustered candidates");
        let (terms, cmp, rhs) = &rows[0];
        assert_eq!(terms.len(), 2);
        assert_eq!(*cmp, Cmp::Le);
        assert_eq!(*rhs, 1.0);
        assert!(!cs.is_storage_only());
    }

    #[test]
    fn z_rows_storage_has_all_candidates() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut cands = CandidateSet::new();
        for c in 0..5u32 {
            cands.insert(&s, Index::secondary(li, vec![ColumnId(c)]));
        }
        let cs = ConstraintSet::storage_fraction(&s, 1.0);
        let rows = cs.z_rows(&s, &cands);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.len(), 5);
    }
}
