//! TPC-H schema + statistics generator with Zipf skew.
//!
//! Stands in for the paper's "1 GB TPC-H database generated by the `tpcdskew`
//! tool" \[8\].  We synthesize the *statistics* of that database directly: row
//! counts at a scale factor, per-column NDVs from the TPC-H specification, and
//! histograms skewed by the Zipf parameter `z` (`z = 0` uniform, `z = 2`
//! highly skewed), applied to the same columns `tpcdskew` skews (foreign keys
//! and attribute values; primary keys stay uniform and dense).
//!
//! Dates are encoded as days since 1992-01-01 (TPC-H covers 1992-1998,
//! 2557 days).

use serde::{Deserialize, Serialize};

use crate::schema::{Column, ColumnId, ColumnType, Schema, Table, TableId};
use crate::stats::{ColumnStats, Skew};

/// Number of days in the TPC-H date domain (1992-01-01 .. 1998-12-31).
pub const DATE_DOMAIN_DAYS: u64 = 2557;

/// TPC-H schema/statistics generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TpchGen {
    /// Scale factor; `1.0` is the paper's 1 GB database.
    pub scale: f64,
    /// Zipf skew applied to non-key columns, as in `tpcdskew`.
    pub skew: Skew,
}

impl Default for TpchGen {
    fn default() -> Self {
        TpchGen { scale: 1.0, skew: Skew::UNIFORM }
    }
}

impl TpchGen {
    pub fn new(scale: f64, skew: Skew) -> Self {
        TpchGen { scale, skew }
    }

    fn rows(&self, base: u64) -> u64 {
        ((base as f64) * self.scale).round().max(1.0) as u64
    }

    /// A key column: dense, unique, uniform regardless of skew.
    fn key(&self, name: &str, rows: u64) -> Column {
        Column::new(name, ColumnType::Int, ColumnStats::uniform(rows, 0.0, rows as f64 - 1.0))
    }

    /// A skewed data column.
    fn data(&self, name: &str, ty: ColumnType, ndv: u64, lo: f64, hi: f64) -> Column {
        Column::new(name, ty, ColumnStats::zipf(ndv, lo, hi, self.skew))
    }

    /// A skewed foreign-key column referencing a table with `ref_rows` rows.
    fn fkey(&self, name: &str, ref_rows: u64) -> Column {
        self.data(name, ColumnType::Int, ref_rows, 0.0, ref_rows as f64 - 1.0)
    }

    /// Build the full 8-table schema.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();

        let supplier_rows = self.rows(10_000);
        let customer_rows = self.rows(150_000);
        let part_rows = self.rows(200_000);
        let partsupp_rows = self.rows(800_000);
        let orders_rows = self.rows(1_500_000);
        let lineitem_rows = self.rows(6_000_000);
        let d = DATE_DOMAIN_DAYS as f64;

        s.add_table(Table {
            id: TableId(0),
            name: "region".into(),
            columns: vec![
                self.key("r_regionkey", 5),
                self.data("r_name", ColumnType::Char(25), 5, 0.0, 4.0),
                self.data("r_comment", ColumnType::Varchar(152), 5, 0.0, 4.0),
            ],
            rows: 5,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(1),
            name: "nation".into(),
            columns: vec![
                self.key("n_nationkey", 25),
                self.data("n_name", ColumnType::Char(25), 25, 0.0, 24.0),
                self.fkey("n_regionkey", 5),
                self.data("n_comment", ColumnType::Varchar(152), 25, 0.0, 24.0),
            ],
            rows: 25,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(2),
            name: "supplier".into(),
            columns: vec![
                self.key("s_suppkey", supplier_rows),
                self.data("s_name", ColumnType::Char(25), supplier_rows, 0.0, supplier_rows as f64),
                self.data(
                    "s_address",
                    ColumnType::Varchar(40),
                    supplier_rows,
                    0.0,
                    supplier_rows as f64,
                ),
                self.fkey("s_nationkey", 25),
                self.data(
                    "s_phone",
                    ColumnType::Char(15),
                    supplier_rows,
                    0.0,
                    supplier_rows as f64,
                ),
                self.data("s_acctbal", ColumnType::Decimal, supplier_rows / 10, -999.99, 9999.99),
                self.data(
                    "s_comment",
                    ColumnType::Varchar(101),
                    supplier_rows,
                    0.0,
                    supplier_rows as f64,
                ),
            ],
            rows: supplier_rows,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(3),
            name: "customer".into(),
            columns: vec![
                self.key("c_custkey", customer_rows),
                self.data(
                    "c_name",
                    ColumnType::Varchar(25),
                    customer_rows,
                    0.0,
                    customer_rows as f64,
                ),
                self.data(
                    "c_address",
                    ColumnType::Varchar(40),
                    customer_rows,
                    0.0,
                    customer_rows as f64,
                ),
                self.fkey("c_nationkey", 25),
                self.data(
                    "c_phone",
                    ColumnType::Char(15),
                    customer_rows,
                    0.0,
                    customer_rows as f64,
                ),
                self.data("c_acctbal", ColumnType::Decimal, customer_rows / 10, -999.99, 9999.99),
                self.data("c_mktsegment", ColumnType::Char(10), 5, 0.0, 4.0),
                self.data(
                    "c_comment",
                    ColumnType::Varchar(117),
                    customer_rows,
                    0.0,
                    customer_rows as f64,
                ),
            ],
            rows: customer_rows,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(4),
            name: "part".into(),
            columns: vec![
                self.key("p_partkey", part_rows),
                self.data("p_name", ColumnType::Varchar(55), part_rows, 0.0, part_rows as f64),
                self.data("p_mfgr", ColumnType::Char(25), 5, 0.0, 4.0),
                self.data("p_brand", ColumnType::Char(10), 25, 0.0, 24.0),
                self.data("p_type", ColumnType::Varchar(25), 150, 0.0, 149.0),
                self.data("p_size", ColumnType::Int, 50, 1.0, 50.0),
                self.data("p_container", ColumnType::Char(10), 40, 0.0, 39.0),
                self.data("p_retailprice", ColumnType::Decimal, part_rows / 10, 900.0, 2100.0),
                self.data("p_comment", ColumnType::Varchar(23), part_rows, 0.0, part_rows as f64),
            ],
            rows: part_rows,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(5),
            name: "partsupp".into(),
            columns: vec![
                self.fkey("ps_partkey", part_rows),
                self.fkey("ps_suppkey", supplier_rows),
                self.data("ps_availqty", ColumnType::Int, 10_000, 1.0, 9999.0),
                self.data("ps_supplycost", ColumnType::Decimal, 100_000, 1.0, 1000.0),
                self.data(
                    "ps_comment",
                    ColumnType::Varchar(199),
                    partsupp_rows,
                    0.0,
                    partsupp_rows as f64,
                ),
            ],
            rows: partsupp_rows,
            primary_key: vec![ColumnId(0), ColumnId(1)],
        });

        s.add_table(Table {
            id: TableId(6),
            name: "orders".into(),
            columns: vec![
                self.key("o_orderkey", orders_rows),
                self.fkey("o_custkey", customer_rows),
                self.data("o_orderstatus", ColumnType::Char(1), 3, 0.0, 2.0),
                self.data("o_totalprice", ColumnType::Decimal, orders_rows / 10, 850.0, 560_000.0),
                self.data("o_orderdate", ColumnType::Date, DATE_DOMAIN_DAYS, 0.0, d),
                self.data("o_orderpriority", ColumnType::Char(15), 5, 0.0, 4.0),
                self.data(
                    "o_clerk",
                    ColumnType::Char(15),
                    self.rows(1000),
                    0.0,
                    self.rows(1000) as f64,
                ),
                self.data("o_shippriority", ColumnType::Int, 1, 0.0, 0.0),
                self.data(
                    "o_comment",
                    ColumnType::Varchar(79),
                    orders_rows,
                    0.0,
                    orders_rows as f64,
                ),
            ],
            rows: orders_rows,
            primary_key: vec![ColumnId(0)],
        });

        s.add_table(Table {
            id: TableId(7),
            name: "lineitem".into(),
            columns: vec![
                self.fkey("l_orderkey", orders_rows),
                self.fkey("l_partkey", part_rows),
                self.fkey("l_suppkey", supplier_rows),
                self.data("l_linenumber", ColumnType::Int, 7, 1.0, 7.0),
                self.data("l_quantity", ColumnType::Decimal, 50, 1.0, 50.0),
                self.data(
                    "l_extendedprice",
                    ColumnType::Decimal,
                    lineitem_rows / 10,
                    900.0,
                    105_000.0,
                ),
                self.data("l_discount", ColumnType::Decimal, 11, 0.0, 0.10),
                self.data("l_tax", ColumnType::Decimal, 9, 0.0, 0.08),
                self.data("l_returnflag", ColumnType::Char(1), 3, 0.0, 2.0),
                self.data("l_linestatus", ColumnType::Char(1), 2, 0.0, 1.0),
                self.data("l_shipdate", ColumnType::Date, DATE_DOMAIN_DAYS, 0.0, d),
                self.data("l_commitdate", ColumnType::Date, DATE_DOMAIN_DAYS, 0.0, d),
                self.data("l_receiptdate", ColumnType::Date, DATE_DOMAIN_DAYS, 0.0, d),
                self.data("l_shipinstruct", ColumnType::Char(25), 4, 0.0, 3.0),
                self.data("l_shipmode", ColumnType::Char(10), 7, 0.0, 6.0),
                self.data(
                    "l_comment",
                    ColumnType::Varchar(44),
                    lineitem_rows,
                    0.0,
                    lineitem_rows as f64,
                ),
            ],
            rows: lineitem_rows,
            primary_key: vec![ColumnId(0), ColumnId(3)],
        });

        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_tables_with_spec_cardinalities() {
        let s = TpchGen::default().schema();
        assert_eq!(s.n_tables(), 8);
        assert_eq!(s.table_by_name("region").unwrap().rows, 5);
        assert_eq!(s.table_by_name("nation").unwrap().rows, 25);
        assert_eq!(s.table_by_name("supplier").unwrap().rows, 10_000);
        assert_eq!(s.table_by_name("customer").unwrap().rows, 150_000);
        assert_eq!(s.table_by_name("part").unwrap().rows, 200_000);
        assert_eq!(s.table_by_name("partsupp").unwrap().rows, 800_000);
        assert_eq!(s.table_by_name("orders").unwrap().rows, 1_500_000);
        assert_eq!(s.table_by_name("lineitem").unwrap().rows, 6_000_000);
    }

    #[test]
    fn scale_factor_scales_big_tables() {
        let s = TpchGen::new(0.1, Skew::UNIFORM).schema();
        assert_eq!(s.table_by_name("lineitem").unwrap().rows, 600_000);
        // Fixed-size tables stay fixed per spec? tpcdskew scales them too; we
        // follow tpcdskew and keep region/nation constant only at >= 1.
        assert_eq!(s.table_by_name("region").unwrap().rows, 5);
    }

    #[test]
    fn sf1_is_about_one_gigabyte() {
        let s = TpchGen::default().schema();
        let gb = s.data_bytes() as f64 / (1u64 << 30) as f64;
        assert!((0.6..=1.6).contains(&gb), "SF1 should be ~1GB, got {gb:.2}GB");
    }

    #[test]
    fn skew_changes_data_columns_not_keys() {
        let uni = TpchGen::new(1.0, Skew::UNIFORM).schema();
        let skw = TpchGen::new(1.0, Skew(2.0)).schema();
        let li = uni.table_by_name("lineitem").unwrap().id;
        let t_uni = uni.table(li);
        let t_skw = skw.table(li);
        // l_orderkey (FK) is skewed, selectivities differ.
        let c = t_uni.column_by_name("l_shipdate").unwrap();
        assert!(t_skw.column(c).stats.eq_selectivity() > t_uni.column(c).stats.eq_selectivity());
        // primary keys stay dense-uniform.
        let orders = uni.table_by_name("orders").unwrap();
        let ok = orders.column_by_name("o_orderkey").unwrap();
        let skw_orders = skw.table(orders.id);
        assert_eq!(
            skw_orders.column(ok).stats.eq_selectivity(),
            orders.column(ok).stats.eq_selectivity()
        );
    }

    #[test]
    fn table_enum_ids_line_up() {
        // Table order matches the TPC-H specification, and ids are positions.
        let s = TpchGen::default().schema();
        let names: Vec<&str> = s.tables().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            ["region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"]
        );
        for (i, t) in s.tables().iter().enumerate() {
            assert_eq!(t.id, TableId(i as u32));
        }
    }

    #[test]
    fn resolve_qualified_names() {
        let s = TpchGen::default().schema();
        assert!(s.resolve("lineitem.l_shipdate").is_some());
        assert!(s.resolve("orders.o_orderdate").is_some());
        assert!(s.resolve("lineitem.does_not_exist").is_none());
    }
}
