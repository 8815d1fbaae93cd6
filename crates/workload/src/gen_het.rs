//! The heterogeneous workload generator `W_het`.
//!
//! The paper's `W_het` comes from an index-tuning benchmark \[17\] (the C2 suite
//! with the most complex templates): SPJ queries with group-by and
//! aggregation, spanning *many more distinct templates* than `W_hom`.  We
//! reproduce the property that matters — structural diversity — by sampling
//! random connected subgraphs of the TPC-H foreign-key join graph and
//! attaching random sargable predicates, projections, group-bys and
//! order-bys.  With the default knobs, a 1000-query workload contains several
//! hundred structurally distinct shapes, which defeats sampling-based
//! workload compression (Figure 9 / Table 1).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use cophy_catalog::{ColumnId, ColumnRef, ColumnType, Schema, TableId};

use crate::query::{AggFunc, Aggregate, Join, Predicate, Query, Statement};
use crate::workload::Workload;

/// A foreign-key edge of the TPC-H join graph, by column names.
const FK_EDGES: &[(&str, &str)] = &[
    ("nation.n_regionkey", "region.r_regionkey"),
    ("supplier.s_nationkey", "nation.n_nationkey"),
    ("customer.c_nationkey", "nation.n_nationkey"),
    ("partsupp.ps_partkey", "part.p_partkey"),
    ("partsupp.ps_suppkey", "supplier.s_suppkey"),
    ("orders.o_custkey", "customer.c_custkey"),
    ("lineitem.l_orderkey", "orders.o_orderkey"),
    ("lineitem.l_partkey", "part.p_partkey"),
    ("lineitem.l_suppkey", "supplier.s_suppkey"),
];

/// Generator for the heterogeneous SPJ/aggregate workload.
#[derive(Debug, Clone, Copy)]
pub struct HetGen {
    pub seed: u64,
    /// Maximum number of joined tables per query (≥ 1).
    pub max_tables: usize,
    /// Maximum number of predicates per referenced table.
    pub max_preds_per_table: usize,
}

impl HetGen {
    pub fn new(seed: u64) -> Self {
        HetGen { seed, max_tables: 4, max_preds_per_table: 2 }
    }

    /// Generate `n` SELECT statements over the TPC-H `schema`.
    ///
    /// Equivalent to draining [`HetGen::stream`]; the two are bit-identical.
    pub fn generate(&self, schema: &Schema, n: usize) -> Workload {
        crate::source::drain_to_workload(&mut self.stream(schema, n))
    }

    /// Stream `n` SELECT statements lazily, chunk by chunk.
    pub fn stream<'a>(&self, schema: &'a Schema, n: usize) -> HetStream<'a> {
        let edges: Vec<(ColumnRef, ColumnRef)> = FK_EDGES
            .iter()
            .map(|(a, b)| {
                (
                    schema.resolve(a).unwrap_or_else(|| panic!("missing {a}")),
                    schema.resolve(b).unwrap_or_else(|| panic!("missing {b}")),
                )
            })
            .collect();
        HetStream {
            gen: *self,
            schema,
            edges,
            rng: SmallRng::seed_from_u64(self.seed),
            produced: 0,
            n,
        }
    }

    /// Sample one random SPJ/aggregate query.
    fn random_query(
        &self,
        schema: &Schema,
        edges: &[(ColumnRef, ColumnRef)],
        rng: &mut SmallRng,
    ) -> Query {
        // 1. Grow a connected table set along FK edges.
        let n_tables = rng.gen_range(1..=self.max_tables.max(1));
        let start = TableId(rng.gen_range(0..schema.n_tables() as u32));
        let mut tables = vec![start];
        let mut joins: Vec<Join> = Vec::new();
        while tables.len() < n_tables {
            let mut frontier: Vec<(ColumnRef, ColumnRef)> = edges
                .iter()
                .filter(|(a, b)| tables.contains(&a.table) != tables.contains(&b.table))
                .copied()
                .collect();
            if frontier.is_empty() {
                break;
            }
            frontier.shuffle(rng);
            let (a, b) = frontier[0];
            let newcomer = if tables.contains(&a.table) { b.table } else { a.table };
            tables.push(newcomer);
            joins.push(Join::new(a, b));
        }

        // 2. Random sargable predicates per table; the biggest table always
        //    gets at least one (a fact-table filter, as in the C2 suite).
        let mut predicates = Vec::new();
        let biggest =
            tables.iter().copied().max_by_key(|t| schema.table(*t).rows).expect("non-empty");
        for &t in &tables {
            let table = schema.table(t);
            let min_preds = usize::from(t == biggest);
            let n_preds = rng.gen_range(min_preds..=self.max_preds_per_table.max(min_preds));
            for _ in 0..n_preds {
                let col = ColumnId(rng.gen_range(0..table.columns.len() as u32));
                // Skip wide comment columns: real generators don't filter them.
                if matches!(table.column(col).ty, ColumnType::Varchar(n) if n > 60) {
                    continue;
                }
                let stats = &table.column(col).stats;
                let cref = ColumnRef::new(t, col);
                // The C2 benchmark suite this mirrors uses *selective*
                // predicates — that is what makes index tuning worthwhile.
                let p = if rng.gen_bool(0.45) && stats.ndv >= 50 {
                    let v = rng.gen_range(stats.min..=stats.max.max(stats.min + 1e-9));
                    Predicate::eq(cref, v.floor())
                } else {
                    let span = (stats.max - stats.min).max(1e-9);
                    let width = span * rng.gen_range(0.002..0.06);
                    let lo = rng.gen_range(stats.min..=(stats.max - width).max(stats.min));
                    Predicate::between(cref, lo, lo + width)
                };
                predicates.push(p);
            }
        }

        // 3. Projections: a few narrow columns from random tables.
        let mut projections = Vec::new();
        for &t in &tables {
            let table = schema.table(t);
            if rng.gen_bool(0.7) {
                let col = ColumnId(rng.gen_range(0..table.columns.len() as u32));
                let cref = ColumnRef::new(t, col);
                if !projections.contains(&cref) {
                    projections.push(cref);
                }
            }
        }

        // 4. Group-by + aggregates (C2-suite style) or plain order-by.
        let mut group_by = Vec::new();
        let mut aggregates = Vec::new();
        let mut order_by = Vec::new();
        if rng.gen_bool(0.6) {
            let t = *tables.choose(rng).expect("non-empty");
            let table = schema.table(t);
            // group on a low-cardinality column when possible
            let mut cands: Vec<ColumnId> = (0..table.columns.len() as u32)
                .map(ColumnId)
                .filter(|c| table.column(*c).stats.ndv <= 10_000)
                .collect();
            if cands.is_empty() {
                cands.push(ColumnId(0));
            }
            let g = *cands.choose(rng).expect("non-empty");
            group_by.push(ColumnRef::new(t, g));
            let funcs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max];
            let f = *funcs.choose(rng).expect("non-empty");
            let agg_col = if matches!(f, AggFunc::Count) {
                None
            } else {
                let t2 = *tables.choose(rng).expect("non-empty");
                let table2 = schema.table(t2);
                let numeric: Vec<ColumnId> = (0..table2.columns.len() as u32)
                    .map(ColumnId)
                    .filter(|c| {
                        matches!(
                            table2.column(*c).ty,
                            ColumnType::Int | ColumnType::Decimal | ColumnType::Float
                        )
                    })
                    .collect();
                numeric.choose(rng).map(|c| ColumnRef::new(t2, *c))
            };
            if agg_col.is_some() || matches!(f, AggFunc::Count) {
                aggregates.push(Aggregate { func: f, column: agg_col });
            } else {
                aggregates.push(Aggregate { func: AggFunc::Count, column: None });
            }
        } else if rng.gen_bool(0.65) {
            let t = tables[0];
            let table = schema.table(t);
            let col = ColumnId(rng.gen_range(0..table.columns.len() as u32));
            order_by.push(ColumnRef::new(t, col));
        }

        Query { tables, projections, predicates, joins, group_by, aggregates, order_by }
    }
}

/// Lazy [`WorkloadSource`](crate::source::WorkloadSource) over [`HetGen`]:
/// produces the exact statement sequence of `generate(schema, n)` without
/// materializing the workload.
#[derive(Debug)]
pub struct HetStream<'a> {
    gen: HetGen,
    schema: &'a Schema,
    edges: Vec<(ColumnRef, ColumnRef)>,
    rng: SmallRng,
    produced: usize,
    n: usize,
}

impl crate::source::WorkloadSource for HetStream<'_> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let take = max.min(self.n - self.produced);
        for _ in 0..take {
            let q = self.gen.random_query(self.schema, &self.edges, &mut self.rng);
            debug_assert!(q.validate().is_ok(), "{:?}", q.validate());
            out.push((Statement::Select(q), 1.0));
            self.produced += 1;
        }
        take
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.n - self.produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use std::collections::BTreeSet;

    #[test]
    fn generates_and_validates() {
        let s = TpchGen::default().schema();
        let w = HetGen::new(5).generate(&s, 200);
        assert_eq!(w.len(), 200);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let s = TpchGen::default().schema();
        let a = HetGen::new(5).generate(&s, 40);
        let b = HetGen::new(5).generate(&s, 40);
        for (id, stmt, _) in a.iter() {
            assert_eq!(stmt, b.statement(id));
        }
    }

    #[test]
    fn much_more_diverse_than_hom() {
        let s = TpchGen::default().schema();
        let shape = |w: &Workload| -> BTreeSet<String> {
            w.iter()
                .map(|(_, stmt, _)| {
                    let q = stmt.read_shell();
                    // structural fingerprint: tables + predicate columns + group/order
                    format!(
                        "{:?}|{:?}|{:?}|{:?}",
                        q.tables,
                        q.predicates.iter().map(|p| p.column).collect::<Vec<_>>(),
                        q.group_by,
                        q.order_by
                    )
                })
                .collect()
        };
        let hom = shape(&crate::gen_hom::HomGen::new(1).generate(&s, 300));
        let het = shape(&HetGen::new(1).generate(&s, 300));
        assert!(het.len() > 2 * hom.len(), "het {} shapes vs hom {} shapes", het.len(), hom.len());
    }

    #[test]
    fn join_graphs_are_connected() {
        let s = TpchGen::default().schema();
        let w = HetGen::new(17).generate(&s, 100);
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            if q.tables.len() <= 1 {
                continue;
            }
            // BFS over join edges must reach every referenced table.
            let mut seen = vec![q.tables[0]];
            let mut frontier = vec![q.tables[0]];
            while let Some(t) = frontier.pop() {
                for j in q.joins_on(t) {
                    let (_, remote) = j.side(t).unwrap();
                    if !seen.contains(&remote.table) {
                        seen.push(remote.table);
                        frontier.push(remote.table);
                    }
                }
            }
            assert_eq!(seen.len(), q.tables.len(), "disconnected join graph: {q:?}");
        }
    }
}
