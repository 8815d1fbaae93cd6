//! The homogeneous workload generator `W_hom`.
//!
//! The paper generates `W_hom` with the TPC-H query generator restricted to
//! fifteen templates (the other seven were unsupported by their SQL parser).
//! We hand-translate fifteen TPC-H-inspired templates into the IR; each
//! generated statement picks a template round-robin-with-jitter and binds the
//! template's parameters to random constants drawn from the column domains.
//! The result: thousands of statements but only fifteen *structural* shapes —
//! the property that makes workload compression (Tool-B) effective on `W_hom`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cophy_catalog::{ColumnRef, Schema, DATE_DOMAIN_DAYS};

use crate::query::{AggFunc, Aggregate, Join, Predicate, Query, Statement};
use crate::workload::Workload;

/// Generator for the homogeneous TPC-H-like workload.
#[derive(Debug, Clone, Copy)]
pub struct HomGen {
    pub seed: u64,
}

impl HomGen {
    pub fn new(seed: u64) -> Self {
        HomGen { seed }
    }

    /// Number of distinct templates.
    pub const TEMPLATES: usize = 15;

    /// Generate `n` SELECT statements over the TPC-H `schema`.
    ///
    /// Panics if `schema` is not TPC-H-shaped (missing tables/columns).
    ///
    /// Equivalent to draining [`HomGen::stream`]; the two are bit-identical.
    pub fn generate(&self, schema: &Schema, n: usize) -> Workload {
        crate::source::drain_to_workload(&mut self.stream(schema, n))
    }

    /// Stream `n` SELECT statements lazily, chunk by chunk.
    pub fn stream<'a>(&self, schema: &'a Schema, n: usize) -> HomStream<'a> {
        HomStream { gen: *self, schema, rng: SmallRng::seed_from_u64(self.seed), produced: 0, n }
    }

    /// Instantiate template `t ∈ [0, TEMPLATES)` with fresh random parameters.
    pub fn instantiate(&self, s: &Schema, t: usize, rng: &mut SmallRng) -> Query {
        let c = |q: &str| -> ColumnRef {
            s.resolve(q).unwrap_or_else(|| panic!("TPC-H column missing: {q}"))
        };
        let tid = |name: &str| s.table_by_name(name).unwrap_or_else(|| panic!("{name}")).id;
        let date = |rng: &mut SmallRng, width: f64| -> (f64, f64) {
            let lo = rng.gen_range(0.0..(DATE_DOMAIN_DAYS as f64 - width));
            (lo, lo + width)
        };

        match t {
            // Q1: pricing summary report.
            0 => {
                let (_, hi) = date(rng, 90.0);
                Query {
                    tables: vec![tid("lineitem")],
                    predicates: vec![Predicate::lt(c("lineitem.l_shipdate"), hi)],
                    group_by: vec![c("lineitem.l_returnflag"), c("lineitem.l_linestatus")],
                    aggregates: vec![
                        Aggregate { func: AggFunc::Sum, column: Some(c("lineitem.l_quantity")) },
                        Aggregate {
                            func: AggFunc::Sum,
                            column: Some(c("lineitem.l_extendedprice")),
                        },
                        Aggregate { func: AggFunc::Avg, column: Some(c("lineitem.l_discount")) },
                        Aggregate { func: AggFunc::Count, column: None },
                    ],
                    order_by: vec![c("lineitem.l_returnflag"), c("lineitem.l_linestatus")],
                    ..Default::default()
                }
            }
            // Q3: shipping priority.
            1 => {
                let (lo, _) = date(rng, 0.0);
                let seg = rng.gen_range(0..5) as f64;
                Query {
                    tables: vec![tid("customer"), tid("orders"), tid("lineitem")],
                    projections: vec![c("orders.o_shippriority")],
                    predicates: vec![
                        Predicate::eq(c("customer.c_mktsegment"), seg),
                        Predicate::lt(c("orders.o_orderdate"), lo),
                        Predicate::gt(c("lineitem.l_shipdate"), lo),
                    ],
                    joins: vec![
                        Join::new(c("customer.c_custkey"), c("orders.o_custkey")),
                        Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey")),
                    ],
                    group_by: vec![c("lineitem.l_orderkey"), c("orders.o_orderdate")],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    order_by: vec![c("orders.o_orderdate")],
                }
            }
            // Q4: order priority checking.
            2 => {
                let (lo, hi) = date(rng, 90.0);
                Query {
                    tables: vec![tid("orders"), tid("lineitem")],
                    predicates: vec![Predicate::between(c("orders.o_orderdate"), lo, hi)],
                    joins: vec![Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey"))],
                    group_by: vec![c("orders.o_orderpriority")],
                    aggregates: vec![Aggregate { func: AggFunc::Count, column: None }],
                    order_by: vec![c("orders.o_orderpriority")],
                    ..Default::default()
                }
            }
            // Q5: local supplier volume (6-way join).
            3 => {
                let (lo, hi) = date(rng, 365.0);
                let region = rng.gen_range(0..5) as f64;
                Query {
                    tables: vec![
                        tid("customer"),
                        tid("orders"),
                        tid("lineitem"),
                        tid("supplier"),
                        tid("nation"),
                        tid("region"),
                    ],
                    predicates: vec![
                        Predicate::eq(c("region.r_name"), region),
                        Predicate::between(c("orders.o_orderdate"), lo, hi),
                    ],
                    joins: vec![
                        Join::new(c("customer.c_custkey"), c("orders.o_custkey")),
                        Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey")),
                        Join::new(c("lineitem.l_suppkey"), c("supplier.s_suppkey")),
                        Join::new(c("supplier.s_nationkey"), c("nation.n_nationkey")),
                        Join::new(c("nation.n_regionkey"), c("region.r_regionkey")),
                    ],
                    group_by: vec![c("nation.n_name")],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q6: forecasting revenue change.
            4 => {
                let (lo, hi) = date(rng, 365.0);
                let disc = rng.gen_range(0.02..0.09);
                let qty = rng.gen_range(24.0..26.0);
                Query {
                    tables: vec![tid("lineitem")],
                    predicates: vec![
                        Predicate::between(c("lineitem.l_shipdate"), lo, hi),
                        Predicate::between(c("lineitem.l_discount"), disc - 0.01, disc + 0.01),
                        Predicate::lt(c("lineitem.l_quantity"), qty),
                    ],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q7-ish: volume shipping between a nation's suppliers and orders.
            5 => {
                let (lo, hi) = date(rng, 730.0);
                let nat = rng.gen_range(0..25) as f64;
                Query {
                    tables: vec![tid("supplier"), tid("lineitem"), tid("orders"), tid("nation")],
                    predicates: vec![
                        Predicate::eq(c("nation.n_name"), nat),
                        Predicate::between(c("lineitem.l_shipdate"), lo, hi),
                    ],
                    joins: vec![
                        Join::new(c("supplier.s_suppkey"), c("lineitem.l_suppkey")),
                        Join::new(c("lineitem.l_orderkey"), c("orders.o_orderkey")),
                        Join::new(c("supplier.s_nationkey"), c("nation.n_nationkey")),
                    ],
                    group_by: vec![c("lineitem.l_shipmode")],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q10: returned item reporting.
            6 => {
                let (lo, hi) = date(rng, 90.0);
                Query {
                    tables: vec![tid("customer"), tid("orders"), tid("lineitem"), tid("nation")],
                    projections: vec![c("customer.c_acctbal"), c("nation.n_name")],
                    predicates: vec![
                        Predicate::between(c("orders.o_orderdate"), lo, hi),
                        Predicate::eq(c("lineitem.l_returnflag"), 2.0),
                    ],
                    joins: vec![
                        Join::new(c("customer.c_custkey"), c("orders.o_custkey")),
                        Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey")),
                        Join::new(c("customer.c_nationkey"), c("nation.n_nationkey")),
                    ],
                    group_by: vec![c("customer.c_custkey")],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q12: shipping modes and order priority.
            7 => {
                let (lo, hi) = date(rng, 365.0);
                let mode = rng.gen_range(0..6) as f64;
                Query {
                    tables: vec![tid("orders"), tid("lineitem")],
                    predicates: vec![
                        Predicate::between(c("lineitem.l_shipmode"), mode, mode + 1.0),
                        Predicate::between(c("lineitem.l_receiptdate"), lo, hi),
                    ],
                    joins: vec![Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey"))],
                    group_by: vec![c("lineitem.l_shipmode")],
                    aggregates: vec![Aggregate { func: AggFunc::Count, column: None }],
                    ..Default::default()
                }
            }
            // Q14: promotion effect.
            8 => {
                let (lo, hi) = date(rng, 30.0);
                Query {
                    tables: vec![tid("lineitem"), tid("part")],
                    predicates: vec![Predicate::between(c("lineitem.l_shipdate"), lo, hi)],
                    joins: vec![Join::new(c("lineitem.l_partkey"), c("part.p_partkey"))],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q17: small-quantity-order revenue.
            9 => {
                let brand = rng.gen_range(0..25) as f64;
                let container = rng.gen_range(0..40) as f64;
                Query {
                    tables: vec![tid("lineitem"), tid("part")],
                    predicates: vec![
                        Predicate::eq(c("part.p_brand"), brand),
                        Predicate::eq(c("part.p_container"), container),
                        Predicate::lt(c("lineitem.l_quantity"), rng.gen_range(2.0..8.0)),
                    ],
                    joins: vec![Join::new(c("lineitem.l_partkey"), c("part.p_partkey"))],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Avg,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q18-ish: large volume customers.
            10 => {
                let price = rng.gen_range(400_000.0..550_000.0);
                Query {
                    tables: vec![tid("customer"), tid("orders"), tid("lineitem")],
                    projections: vec![c("customer.c_name"), c("orders.o_totalprice")],
                    predicates: vec![Predicate::gt(c("orders.o_totalprice"), price)],
                    joins: vec![
                        Join::new(c("customer.c_custkey"), c("orders.o_custkey")),
                        Join::new(c("orders.o_orderkey"), c("lineitem.l_orderkey")),
                    ],
                    group_by: vec![c("orders.o_orderkey")],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_quantity")),
                    }],
                    order_by: vec![c("orders.o_totalprice")],
                }
            }
            // Q19-ish: discounted revenue for brand/quantity bands.
            11 => {
                let brand = rng.gen_range(0..25) as f64;
                let q0 = rng.gen_range(1.0..30.0);
                let mode = rng.gen_range(0..6) as f64;
                Query {
                    tables: vec![tid("lineitem"), tid("part")],
                    predicates: vec![
                        Predicate::eq(c("part.p_brand"), brand),
                        Predicate::between(c("lineitem.l_quantity"), q0, q0 + 10.0),
                        Predicate::eq(c("lineitem.l_shipmode"), mode),
                    ],
                    joins: vec![Join::new(c("lineitem.l_partkey"), c("part.p_partkey"))],
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: Some(c("lineitem.l_extendedprice")),
                    }],
                    ..Default::default()
                }
            }
            // Q21-ish: suppliers who kept orders waiting.
            12 => {
                let nat = rng.gen_range(0..25) as f64;
                Query {
                    tables: vec![tid("supplier"), tid("lineitem"), tid("orders"), tid("nation")],
                    projections: vec![c("supplier.s_name")],
                    predicates: vec![
                        Predicate::eq(c("orders.o_orderstatus"), 0.0),
                        Predicate::eq(c("nation.n_name"), nat),
                    ],
                    joins: vec![
                        Join::new(c("supplier.s_suppkey"), c("lineitem.l_suppkey")),
                        Join::new(c("lineitem.l_orderkey"), c("orders.o_orderkey")),
                        Join::new(c("supplier.s_nationkey"), c("nation.n_nationkey")),
                    ],
                    group_by: vec![c("supplier.s_suppkey")],
                    aggregates: vec![Aggregate { func: AggFunc::Count, column: None }],
                    ..Default::default()
                }
            }
            // Point lookup on orders (order-status style query).
            13 => {
                let t = s.table_by_name("orders").unwrap();
                let key = rng.gen_range(0.0..t.rows as f64);
                Query {
                    tables: vec![tid("orders")],
                    projections: vec![
                        c("orders.o_orderstatus"),
                        c("orders.o_totalprice"),
                        c("orders.o_orderdate"),
                    ],
                    predicates: vec![Predicate::eq(c("orders.o_custkey"), key % 150_000.0)],
                    order_by: vec![c("orders.o_orderdate")],
                    ..Default::default()
                }
            }
            // Q2-ish: minimum-cost supplier over partsupp.
            14 => {
                let size: f64 = rng.gen_range(1.0..50.0);
                Query {
                    tables: vec![tid("partsupp"), tid("part"), tid("supplier")],
                    projections: vec![c("supplier.s_name"), c("partsupp.ps_supplycost")],
                    predicates: vec![
                        Predicate::eq(c("part.p_size"), size.floor()),
                        Predicate::lt(c("partsupp.ps_supplycost"), rng.gen_range(100.0..900.0)),
                    ],
                    joins: vec![
                        Join::new(c("partsupp.ps_partkey"), c("part.p_partkey")),
                        Join::new(c("partsupp.ps_suppkey"), c("supplier.s_suppkey")),
                    ],
                    order_by: vec![c("partsupp.ps_supplycost")],
                    ..Default::default()
                }
            }
            _ => panic!("template index out of range: {t}"),
        }
    }
}

/// Lazy [`WorkloadSource`](crate::source::WorkloadSource) over [`HomGen`]:
/// produces the exact statement sequence of `generate(schema, n)` without
/// materializing the workload.
#[derive(Debug)]
pub struct HomStream<'a> {
    gen: HomGen,
    schema: &'a Schema,
    rng: SmallRng,
    produced: usize,
    n: usize,
}

impl crate::source::WorkloadSource for HomStream<'_> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let take = max.min(self.n - self.produced);
        for _ in 0..take {
            // Rotate templates so every size-250 prefix covers all fifteen.
            let t = (self.produced + self.rng.gen_range(0..3)) % HomGen::TEMPLATES;
            let q = self.gen.instantiate(self.schema, t, &mut self.rng);
            debug_assert!(q.validate().is_ok(), "template {t} invalid: {:?}", q.validate());
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

    #[test]
    fn generates_requested_size_and_validates() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(7).generate(&s, 100);
        assert_eq!(w.len(), 100);
        assert!(w.validate().is_ok());
        assert!(w.iter().all(|(_, s, _)| matches!(s, Statement::Select(_))));
    }

    #[test]
    fn stream_matches_generate_across_chunk_boundaries() {
        use crate::source::WorkloadSource;
        let s = TpchGen::default().schema();
        let batch = HomGen::new(13).generate(&s, 53);
        let mut stream = HomGen::new(13).stream(&s, 53);
        let mut streamed = Workload::new();
        let mut buf = Vec::new();
        // A chunk size that does not divide 53: exercises a ragged last chunk.
        while stream.next_chunk(7, &mut buf) > 0 {
            for (stmt, w) in buf.drain(..) {
                streamed.push_weighted(stmt, w);
            }
        }
        assert_eq!(streamed.len(), batch.len());
        for (id, stmt, _) in batch.iter() {
            assert_eq!(stmt, streamed.statement(id));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let s = TpchGen::default().schema();
        let a = HomGen::new(42).generate(&s, 50);
        let b = HomGen::new(42).generate(&s, 50);
        for (id, stmt, _) in a.iter() {
            assert_eq!(stmt, b.statement(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = TpchGen::default().schema();
        let a = HomGen::new(1).generate(&s, 30);
        let b = HomGen::new(2).generate(&s, 30);
        let same = a.iter().filter(|(id, stmt, _)| *stmt == b.statement(*id)).count();
        assert!(same < 30);
    }

    #[test]
    fn all_templates_instantiate_and_validate() {
        let s = TpchGen::default().schema();
        let gen = HomGen::new(3);
        let mut rng = SmallRng::seed_from_u64(9);
        for t in 0..HomGen::TEMPLATES {
            let q = gen.instantiate(&s, t, &mut rng);
            assert!(q.validate().is_ok(), "template {t}: {:?}", q.validate());
            assert!(!q.tables.is_empty());
        }
    }

    #[test]
    fn covers_all_templates_in_modest_prefix() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(11).generate(&s, 60);
        let mut table_counts = std::collections::BTreeSet::new();
        for (_, stmt, _) in w.iter() {
            table_counts.insert(stmt.read_shell().tables.len());
        }
        // Templates span 1..=6 tables; a 60-query prefix must see variety.
        assert!(table_counts.len() >= 3, "{table_counts:?}");
    }
}
