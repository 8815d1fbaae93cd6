//! Workloads: weighted statement collections.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::features::{keys, ShellKey, TemplateKey};
use crate::query::Statement;

/// Dense identifier of a statement within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(pub u32);

/// A representative workload `W`: statements with weights `f_q` (frequency or
/// DBA-assigned importance, §2).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    statements: Vec<Statement>,
    weights: Vec<f64>,
}

impl Workload {
    pub fn new() -> Self {
        Workload::default()
    }

    pub fn push(&mut self, stmt: Statement) -> QueryId {
        self.push_weighted(stmt, 1.0)
    }

    pub fn push_weighted(&mut self, stmt: Statement, weight: f64) -> QueryId {
        debug_assert!(weight > 0.0, "weights must be positive");
        let id = QueryId(self.statements.len() as u32);
        self.statements.push(stmt);
        self.weights.push(weight);
        id
    }

    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    pub fn statement(&self, id: QueryId) -> &Statement {
        &self.statements[id.0 as usize]
    }

    pub fn weight(&self, id: QueryId) -> f64 {
        self.weights[id.0 as usize]
    }

    pub fn ids(&self) -> impl Iterator<Item = QueryId> {
        (0..self.statements.len() as u32).map(QueryId)
    }

    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &Statement, f64)> {
        self.statements
            .iter()
            .zip(self.weights.iter())
            .enumerate()
            .map(|(i, (s, w))| (QueryId(i as u32), s, *w))
    }

    /// Take the first `n` statements (used to build the 250/500/1000-query
    /// variants from one generated pool, as the paper does).
    pub fn truncate(&self, n: usize) -> Workload {
        Workload {
            statements: self.statements.iter().take(n).cloned().collect(),
            weights: self.weights.iter().take(n).copied().collect(),
        }
    }

    /// Bump the weight of an existing statement by `delta` (used when a
    /// merged duplicate is routed onto its representative).
    pub fn add_weight(&mut self, id: QueryId, delta: f64) {
        debug_assert!(delta > 0.0, "weight deltas must be positive");
        self.weights[id.0 as usize] += delta;
    }

    /// Overwrite the weight of an existing statement (restores a saved
    /// weight when a rolled-back merge is undone).
    pub fn set_weight(&mut self, id: QueryId, weight: f64) {
        debug_assert!(weight > 0.0, "weights must be positive");
        self.weights[id.0 as usize] = weight;
    }

    /// Remove the last statement (undoes the latest
    /// [`Workload::push_weighted`]; earlier ids stay stable).
    pub fn pop(&mut self) -> Option<(Statement, f64)> {
        self.statements.pop().zip(self.weights.pop())
    }

    /// Merge exact duplicates — statements with identical shells, constants
    /// included — by summing their weights (first occurrence kept, order
    /// preserved).  This is the lossless fast path of workload compression:
    /// the merged workload has bit-identical total cost under every
    /// configuration.  The shell is the (template, constants) pair; the
    /// constants alone would merge two templates that share them.
    pub fn dedup_by_shell(&self) -> Workload {
        let mut seen: HashMap<(TemplateKey, ShellKey), QueryId> = HashMap::new();
        let mut out = Workload::new();
        for (_, stmt, weight) in self.iter() {
            match seen.entry(keys(stmt)) {
                std::collections::hash_map::Entry::Occupied(e) => out.add_weight(*e.get(), weight),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(out.push_weighted(stmt.clone(), weight));
                }
            }
        }
        out
    }

    /// Total workload weight `Σ_q f_q`.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// A [`WorkloadSource`](crate::source::WorkloadSource) cursor over this
    /// workload: statements stream out in id order with their weights.
    pub fn source(&self) -> crate::source::WorkloadCursor<'_> {
        crate::source::WorkloadCursor::new(self)
    }

    /// Validate every statement's IR invariants.
    pub fn validate(&self) -> Result<(), String> {
        for (id, s, _) in self.iter() {
            s.validate().map_err(|e| format!("statement {}: {e}", id.0))?;
        }
        Ok(())
    }
}

impl FromIterator<Statement> for Workload {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Self {
        let mut w = Workload::new();
        for s in iter {
            w.push(s);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, Statement, UpdateStatement};
    use cophy_catalog::{ColumnId, TpchGen};

    #[test]
    fn push_iterate_weights() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut w = Workload::new();
        let a = w.push(Statement::Select(Query::scan(li)));
        let b = w.push_weighted(Statement::Select(Query::scan(li)), 3.5);
        assert_eq!(w.len(), 2);
        assert_eq!(w.weight(a), 1.0);
        assert_eq!(w.weight(b), 3.5);
        assert_eq!(w.iter().count(), 2);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn read_and_update_partition() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut w = Workload::new();
        w.push(Statement::Select(Query::scan(li)));
        w.push(Statement::Update(UpdateStatement {
            shell: Query::scan(li),
            set_columns: vec![ColumnId(4)],
        }));
        // Every statement has a read shell (`W_r` in §2); one is an update (`W_u`).
        assert!(w.iter().all(|(_, s, _)| s.read_shell() == &Query::scan(li)));
        assert_eq!(w.iter().filter(|(_, s, _)| matches!(s, Statement::Update(_))).count(), 1);
    }

    /// Interleave `w` with itself: every statement appears exactly twice.
    fn doubled(w: &Workload) -> Workload {
        let mut out = Workload::new();
        for (_, s, wt) in w.iter() {
            out.push_weighted(s.clone(), wt);
            out.push_weighted(s.clone(), wt * 2.0);
        }
        out
    }

    #[test]
    fn dedup_by_shell_merges_duplicates_on_every_generator() {
        let s = TpchGen::default().schema();
        for w in [
            crate::HomGen::new(21).generate(&s, 40),
            crate::HetGen::new(22).generate(&s, 40),
            crate::UpdateGen::new(23).generate(&s, 40),
        ] {
            let twice = doubled(&w);
            let merged = twice.dedup_by_shell();
            // Every duplicated statement collapses onto its first occurrence
            // (the generators themselves may also repeat shells).
            assert!(merged.len() <= w.len(), "{} > {}", merged.len(), w.len());
            assert!((merged.total_weight() - twice.total_weight()).abs() < 1e-9);
            assert!(merged.validate().is_ok());
            // Merging is idempotent.
            assert_eq!(merged.dedup_by_shell().len(), merged.len());
        }
    }

    #[test]
    fn dedup_by_shell_keeps_distinct_constants_apart() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let mut w = Workload::new();
        for v in [10.0, 20.0, 10.0] {
            let mut q = Query::scan(li);
            q.predicates.push(crate::Predicate::lt(sd, v));
            w.push(Statement::Select(q));
        }
        let merged = w.dedup_by_shell();
        assert_eq!(merged.len(), 2, "10.0 duplicates merge; 20.0 stays separate");
        assert_eq!(merged.weight(QueryId(0)), 2.0);
        assert_eq!(merged.weight(QueryId(1)), 1.0);
    }

    #[test]
    fn add_weight_accumulates() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut w = Workload::new();
        let id = w.push_weighted(Statement::Select(Query::scan(li)), 1.5);
        w.add_weight(id, 2.5);
        assert_eq!(w.weight(id), 4.0);
        assert_eq!(w.total_weight(), 4.0);
    }

    #[test]
    fn set_weight_and_pop_undo_the_last_mutations() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut w = Workload::new();
        let id = w.push_weighted(Statement::Select(Query::scan(li)), 1.5);
        let before = w.clone();
        w.add_weight(id, 0.1);
        w.push(Statement::Select(Query::scan(li)));
        assert_eq!(w.pop().map(|(_, weight)| weight), Some(1.0));
        w.set_weight(id, 1.5);
        assert_eq!(w, before);
        w.pop();
        assert!(w.is_empty() && w.pop().is_none());
    }

    #[test]
    fn truncate_keeps_prefix() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let mut w = Workload::new();
        for i in 0..10 {
            w.push_weighted(Statement::Select(Query::scan(li)), 1.0 + i as f64);
        }
        let t = w.truncate(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.weight(QueryId(3)), 4.0);
    }
}
