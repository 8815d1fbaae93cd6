//! UPDATE statement generator.
//!
//! §2 models an update as a query shell `q_r` (selecting the affected rows)
//! plus an update shell `q_u` that rewrites the base tuples and maintains
//! every affected index at cost `ucost(a, q)`.  The generator produces
//! single-table updates on the four frequently-written TPC-H tables with
//! selective WHERE clauses (key equality or a narrow date range) and one or
//! two SET columns.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use cophy_catalog::{ColumnId, ColumnRef, Schema};

use crate::query::{Predicate, Query, Statement, UpdateStatement};
use crate::workload::Workload;

/// (table, filter column, settable columns) — mirrors the write patterns of
/// TPC-C-style maintenance on a TPC-H schema.
const UPDATE_SHAPES: &[(&str, &str, &[&str])] = &[
    ("lineitem", "lineitem.l_orderkey", &["l_quantity", "l_discount", "l_tax"]),
    ("orders", "orders.o_orderkey", &["o_orderstatus", "o_totalprice"]),
    ("customer", "customer.c_custkey", &["c_acctbal", "c_address"]),
    ("partsupp", "partsupp.ps_partkey", &["ps_availqty", "ps_supplycost"]),
];

/// Generator for UPDATE statements.
#[derive(Debug, Clone, Copy)]
pub struct UpdateGen {
    pub seed: u64,
}

impl UpdateGen {
    pub fn new(seed: u64) -> Self {
        UpdateGen { seed }
    }

    /// Generate `n` UPDATE statements.
    ///
    /// Equivalent to draining [`UpdateGen::stream`]; the two are bit-identical.
    pub fn generate(&self, schema: &Schema, n: usize) -> Workload {
        crate::source::drain_to_workload(&mut self.stream(schema, n))
    }

    /// Stream `n` UPDATE statements lazily, chunk by chunk.
    pub fn stream<'a>(&self, schema: &'a Schema, n: usize) -> UpdateStream<'a> {
        UpdateStream { gen: *self, schema, rng: SmallRng::seed_from_u64(self.seed), produced: 0, n }
    }

    /// Mix `frac_updates` of updates into `base` (e.g. 0.2 → 20% updates),
    /// interleaved deterministically.
    pub fn mix_into(&self, schema: &Schema, base: &Workload, frac_updates: f64) -> Workload {
        assert!((0.0..1.0).contains(&frac_updates));
        let n_upd = ((base.len() as f64 * frac_updates) / (1.0 - frac_updates)).round() as usize;
        let updates = self.generate(schema, n_upd);
        let mut out = Workload::new();
        let stride = if n_upd == 0 { usize::MAX } else { base.len().div_ceil(n_upd).max(1) };
        let mut u = updates.iter();
        for (i, (_, stmt, weight)) in base.iter().enumerate() {
            out.push_weighted(stmt.clone(), weight);
            if (i + 1) % stride == 0 {
                if let Some((_, us, uw)) = u.next() {
                    out.push_weighted(us.clone(), uw);
                }
            }
        }
        for (_, us, uw) in u {
            out.push_weighted(us.clone(), uw);
        }
        out
    }

    fn random_update(&self, schema: &Schema, rng: &mut SmallRng) -> UpdateStatement {
        let (tname, filter, settable) = UPDATE_SHAPES.choose(rng).expect("non-empty");
        let table = schema.table_by_name(tname).unwrap_or_else(|| panic!("{tname}"));
        let fcol = schema.resolve(filter).expect("filter column");
        let key = rng.gen_range(0.0..table.rows as f64).floor();

        // Either a point update (key equality) or a small-range update.
        let pred = if rng.gen_bool(0.7) {
            Predicate::eq(fcol, key)
        } else {
            let width = (table.rows as f64 * 0.0005).max(1.0);
            Predicate::between(fcol, key, key + width)
        };

        let mut set_columns: Vec<ColumnId> = Vec::new();
        let n_set = rng.gen_range(1..=2.min(settable.len()));
        let mut cols: Vec<&&str> = settable.iter().collect();
        cols.shuffle(rng);
        for c in cols.into_iter().take(n_set) {
            set_columns.push(table.column_by_name(c).unwrap_or_else(|| panic!("{c}")));
        }

        UpdateStatement {
            shell: Query {
                tables: vec![table.id],
                projections: set_columns.iter().map(|c| ColumnRef::new(table.id, *c)).collect(),
                predicates: vec![pred],
                ..Default::default()
            },
            set_columns,
        }
    }
}

/// Lazy [`WorkloadSource`](crate::source::WorkloadSource) over [`UpdateGen`]:
/// produces the exact statement sequence of `generate(schema, n)` without
/// materializing the workload.
#[derive(Debug)]
pub struct UpdateStream<'a> {
    gen: UpdateGen,
    schema: &'a Schema,
    rng: SmallRng,
    produced: usize,
    n: usize,
}

impl crate::source::WorkloadSource for UpdateStream<'_> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let take = max.min(self.n - self.produced);
        for _ in 0..take {
            let u = self.gen.random_update(self.schema, &mut self.rng);
            out.push((Statement::Update(u), 1.0));
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
    use crate::gen_hom::HomGen;
    use cophy_catalog::TpchGen;

    #[test]
    fn generates_valid_updates() {
        let s = TpchGen::default().schema();
        let w = UpdateGen::new(3).generate(&s, 50);
        assert_eq!(w.len(), 50);
        assert!(w.validate().is_ok());
        assert!(w.iter().all(|(_, s, _)| matches!(s, Statement::Update(_))));
    }

    #[test]
    fn updates_are_single_table_with_set_columns() {
        let s = TpchGen::default().schema();
        let w = UpdateGen::new(4).generate(&s, 20);
        for (_, stmt, _) in w.iter() {
            match stmt {
                Statement::Update(u) => {
                    assert_eq!(u.shell.tables.len(), 1);
                    assert!(!u.set_columns.is_empty() && u.set_columns.len() <= 2);
                }
                _ => panic!("expected update"),
            }
        }
    }

    #[test]
    fn mix_hits_requested_fraction() {
        let s = TpchGen::default().schema();
        let base = HomGen::new(1).generate(&s, 200);
        let mixed = UpdateGen::new(2).mix_into(&s, &base, 0.2);
        let updates = mixed.iter().filter(|(_, s, _)| matches!(s, Statement::Update(_))).count();
        let frac = updates as f64 / mixed.len() as f64;
        assert!((0.15..=0.25).contains(&frac), "frac={frac}");
        assert!(mixed.validate().is_ok());
    }

    #[test]
    fn mix_zero_is_identity() {
        let s = TpchGen::default().schema();
        let base = HomGen::new(1).generate(&s, 30);
        let mixed = UpdateGen::new(2).mix_into(&s, &base, 0.0);
        assert_eq!(mixed.len(), 30);
        assert!(mixed.iter().all(|(_, s, _)| matches!(s, Statement::Select(_))));
    }
}
