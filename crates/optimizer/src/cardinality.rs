//! Cardinality estimation from catalog statistics.
//!
//! Classic System-R estimators with attribute-independence: predicate
//! selectivities multiply, equi-join selectivity is `1/max(ndv_l, ndv_r)`,
//! group counts are capped products of group-column NDVs.  The advisor does
//! not need perfect estimates — it needs the *same* estimates the what-if
//! optimizer uses, which is what makes `perf(X*, W)` a consistent metric.

use cophy_catalog::{ColumnRef, Schema};
use cophy_workload::{Join, Query};

/// Estimated output rows of accessing `table` under `q`'s local predicates.
pub fn access_rows(schema: &Schema, q: &Query, table: cophy_catalog::TableId) -> f64 {
    let t = schema.table(table);
    (t.rows as f64 * q.local_selectivity(schema, table)).max(1.0)
}

/// NDV of a column, capped by the current row estimate of its relation.
pub(crate) fn ndv(schema: &Schema, c: ColumnRef, rows: f64) -> f64 {
    let raw = schema.table(c.table).column(c.column).stats.ndv as f64;
    raw.min(rows.max(1.0)).max(1.0)
}

/// Selectivity of an equi-join edge given current per-side row estimates.
pub(crate) fn join_selectivity(schema: &Schema, j: &Join, left_rows: f64, right_rows: f64) -> f64 {
    let nl = ndv(schema, j.left, left_rows);
    let nr = ndv(schema, j.right, right_rows);
    1.0 / nl.max(nr)
}

/// Number of groups produced by GROUP BY over `rows` input rows.
pub(crate) fn group_rows(schema: &Schema, group_by: &[ColumnRef], rows: f64) -> f64 {
    if group_by.is_empty() {
        return 1.0; // scalar aggregate
    }
    let mut groups = 1.0;
    for c in group_by {
        groups *= ndv(schema, *c, rows);
    }
    // Squared-correlation damping: real group counts rarely reach the full
    // NDV product; cap at input rows.
    groups.powf(0.9).min(rows).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_workload::Predicate;

    #[test]
    fn access_rows_respects_predicates() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let base = access_rows(&s, &Query::scan(li), li);
        assert_eq!(base, 6_000_000.0);
        let mut q = Query::scan(li);
        q.predicates.push(Predicate::lt(s.resolve("lineitem.l_shipdate").unwrap(), 100.0));
        assert!(access_rows(&s, &q, li) < base);
    }

    #[test]
    fn fk_join_preserves_fact_cardinality() {
        // orders ⋈ lineitem over orderkey: output ≈ |lineitem|.
        let s = TpchGen::default().schema();
        let j = Join::new(
            s.resolve("orders.o_orderkey").unwrap(),
            s.resolve("lineitem.l_orderkey").unwrap(),
        );
        let (lr, rr) = (1_500_000.0, 6_000_000.0);
        let out = lr * rr * join_selectivity(&s, &j, lr, rr);
        let rel_err = (out - 6_000_000.0).abs() / 6_000_000.0;
        assert!(rel_err < 0.01, "FK join should preserve fact rows, got {out}");
    }

    #[test]
    fn ndv_capped_by_rows() {
        let s = TpchGen::default().schema();
        let ck = s.resolve("customer.c_custkey").unwrap();
        assert_eq!(ndv(&s, ck, 100.0), 100.0);
        assert_eq!(ndv(&s, ck, 1e9), 150_000.0);
    }

    #[test]
    fn group_rows_bounded() {
        let s = TpchGen::default().schema();
        let rf = s.resolve("lineitem.l_returnflag").unwrap();
        let ls = s.resolve("lineitem.l_linestatus").unwrap();
        let g = group_rows(&s, &[rf, ls], 1e6);
        assert!((1.0..=7.0).contains(&g), "3×2 groups expected, got {g}");
        assert_eq!(group_rows(&s, &[], 1e6), 1.0);
        // group count never exceeds input rows
        let ck = s.resolve("customer.c_custkey").unwrap();
        assert!(group_rows(&s, &[ck], 50.0) <= 50.0);
    }
}
