//! The what-if optimization facade.
//!
//! This is the interface the paper's architecture diagram draws between the
//! DBMS and everything else: given a statement and a *hypothetical*
//! configuration, return the optimal plan's cost and what it asks of each
//! table access, without materializing anything.  A probe runs the DP
//! (`dp::probe`) and reads its [`ProbeAnswer`] off the DP's memo; no plan
//! is built.  The facade (through its [`WhatIfBackend`] impl) also:
//!
//! * counts what-if calls — the scarce resource whose consumption separates
//!   INUM-based advisors from optimizer-in-the-loop advisors (Figures 4/5),
//! * prices UPDATE statements per §2:
//!   `cost(q, X) = cost(q_r, X) + Σ_{a ∈ X affected} ucost(a, q) + c_q`,
//! * evaluates whole workloads, which is the ground-truth `perf` metric of
//!   §5.1.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use cophy_catalog::{Configuration, Schema};
use cophy_workload::Query;

use crate::backend::{BackendError, ProbeAnswer, WhatIfBackend};
use crate::cost::{CostModel, SystemProfile};
use crate::dp;

/// A simulated DBMS what-if optimizer.
#[derive(Debug)]
pub struct WhatIfOptimizer {
    schema: Schema,
    cm: CostModel,
    profile: SystemProfile,
    calls: AtomicU64,
}

impl WhatIfOptimizer {
    pub fn new(schema: Schema, profile: SystemProfile) -> Self {
        WhatIfOptimizer {
            schema,
            cm: CostModel::profile(profile),
            profile,
            calls: AtomicU64::new(0),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn profile(&self) -> SystemProfile {
        self.profile
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// Number of what-if optimizations performed so far.
    pub fn what_if_calls(&self) -> u64 {
        self.calls.load(AtomicOrdering::Relaxed)
    }

    pub fn reset_call_counter(&self) {
        self.calls.store(0, AtomicOrdering::Relaxed);
    }
}

/// The reference [`WhatIfBackend`]: every probe is a live `dp::probe` call,
/// and the statement / workload costing (`cost_query` … `perf`) is the
/// trait's own — import [`WhatIfBackend`] to call it on the concrete type.
impl WhatIfBackend for WhatIfOptimizer {
    fn schema(&self) -> &Schema {
        WhatIfOptimizer::schema(self)
    }

    fn profile(&self) -> SystemProfile {
        WhatIfOptimizer::profile(self)
    }

    fn cost_model(&self) -> &CostModel {
        WhatIfOptimizer::cost_model(self)
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        self.calls.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(dp::probe(&self.schema, &self.cm, q, config))
    }

    fn what_if_calls(&self) -> u64 {
        WhatIfOptimizer::what_if_calls(self)
    }

    fn reset_call_counter(&self) {
        WhatIfOptimizer::reset_call_counter(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::{Index, TpchGen};
    use cophy_workload::{HomGen, Predicate, Statement, UpdateGen, Workload};

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    #[test]
    fn counts_calls() {
        let o = opt();
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        assert_eq!(o.what_if_calls(), 0);
        let _ = o.cost_query(&Query::scan(li), &Configuration::empty());
        let _ = o.cost_query(&Query::scan(li), &Configuration::empty());
        assert_eq!(o.what_if_calls(), 2);
        o.reset_call_counter();
        assert_eq!(o.what_if_calls(), 0);
    }

    #[test]
    fn update_cost_includes_maintenance() {
        let o = opt();
        let s = o.schema();
        let w = UpdateGen::new(1).generate(s, 1);
        let (_, stmt, _) = w.iter().next().unwrap();
        let Statement::Update(u) = stmt else { panic!() };
        let empty_cost = o.cost_statement(stmt, &Configuration::empty());
        // Add an index on a SET column: cost must rise by its ucost.
        let ix = Index::secondary(u.table(), vec![u.set_columns[0]]);
        let mut cfg = Configuration::empty();
        cfg.insert(ix.clone());
        let with_ix = o.cost_statement(stmt, &cfg);
        let ucost = o.ucost(u, &ix);
        assert!(ucost > 0.0);
        // The shell may get cheaper with the index, but the maintenance term
        // must be present.
        assert!(
            with_ix + 1e-9
                >= empty_cost - o.cost_query(&u.shell, &Configuration::empty())
                    + o.cost_query(&u.shell, &cfg)
                    + ucost
                    - 1e-9
        );
    }

    #[test]
    fn unaffected_index_has_zero_ucost() {
        let o = opt();
        let s = o.schema();
        let w = UpdateGen::new(2).generate(s, 1);
        let (_, stmt, _) = w.iter().next().unwrap();
        let Statement::Update(u) = stmt else { panic!() };
        let other_table = s.tables().iter().find(|t| t.id != u.table()).unwrap().id;
        let ix = Index::secondary(other_table, vec![cophy_catalog::ColumnId(0)]);
        assert_eq!(o.ucost(u, &ix), 0.0);
    }

    #[test]
    fn perf_positive_for_useful_indexes() {
        let o = opt();
        let s = o.schema();
        let ord = s.table_by_name("orders").unwrap().id;
        let ck = s.resolve("orders.o_custkey").unwrap();
        let mut wl = Workload::new();
        for v in 0..10 {
            let mut q = Query::scan(ord);
            q.predicates.push(Predicate::eq(ck, f64::from(v)));
            q.projections.push(s.resolve("orders.o_totalprice").unwrap());
            wl.push(Statement::Select(q));
        }
        let mut cfg = Configuration::empty();
        cfg.insert(Index::secondary(ord, vec![ck.column]));
        let p = o.perf(&wl, &cfg);
        assert!(p > 0.5, "selective index should cut most of the cost, got {p}");
        // Empty configuration yields zero improvement.
        assert!(o.perf(&wl, &Configuration::empty()).abs() < 1e-9);
    }

    #[test]
    fn workload_cost_is_weighted_sum() {
        let o = opt();
        let s = o.schema();
        let w = HomGen::new(4).generate(s, 10);
        let total = o.cost_workload(&w, &Configuration::empty());
        let manual: f64 =
            w.iter().map(|(_, stmt, f)| f * o.cost_statement(stmt, &Configuration::empty())).sum();
        assert!((total - manual).abs() < 1e-6);
    }
}
