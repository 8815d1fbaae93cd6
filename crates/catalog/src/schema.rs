//! Tables, columns and column types.
//!
//! The schema is immutable once built (the advisor only ever *reads* it), so
//! all lookups hand out references and ids are dense indexes into vectors.

use serde::{Deserialize, Serialize};

use crate::stats::ColumnStats;

/// Dense identifier of a table within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Dense identifier of a column within its [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

/// A fully-qualified column reference: table + column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: ColumnId,
}

impl ColumnRef {
    pub fn new(table: TableId, column: ColumnId) -> Self {
        ColumnRef { table, column }
    }
}

/// SQL column types used by the TPC-H schema (and the synthetic workloads).
///
/// Only the *width* matters to the cost model; semantics (comparability,
/// orderability) are uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 4-byte integer.
    Int,
    /// 8-byte integer.
    BigInt,
    /// Fixed-point decimal, stored as 8 bytes.
    Decimal,
    /// 8-byte float.
    Float,
    /// 4-byte date.
    Date,
    /// Fixed-width character string.
    Char(u16),
    /// Variable-width string; the argument is the declared maximum, the
    /// estimated average width is half of it (classic optimizer assumption).
    Varchar(u16),
}

impl ColumnType {
    /// Estimated stored width in bytes (average width for varlena types).
    pub fn width(&self) -> u32 {
        match *self {
            ColumnType::Int | ColumnType::Date => 4,
            ColumnType::BigInt | ColumnType::Decimal | ColumnType::Float => 8,
            ColumnType::Char(n) => u32::from(n),
            ColumnType::Varchar(n) => (u32::from(n) / 2).max(1),
        }
    }
}

/// A column: name, type and statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub stats: ColumnStats,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType, stats: ColumnStats) -> Self {
        Column { name: name.into(), ty, stats }
    }

    /// Stored width of one value of this column, in bytes.
    pub fn width(&self) -> u32 {
        self.ty.width()
    }
}

/// A base table: columns, cardinality and the primary-key definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    /// Number of rows (from statistics, like `pg_class.reltuples`).
    pub rows: u64,
    /// Columns of the primary key, in key order. May be empty for heap-only
    /// tables, though every TPC-H table has one.
    pub primary_key: Vec<ColumnId>,
}

impl Table {
    /// Average row width in bytes, including per-row overhead.
    pub(crate) fn row_width(&self) -> u64 {
        let data: u64 = self.columns.iter().map(|c| u64::from(c.width())).sum();
        data + crate::ROW_OVERHEAD
    }

    /// Heap size of the table in bytes.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.rows * self.row_width()
    }

    /// Heap size in pages (the unit of the I/O cost model).
    pub fn heap_pages(&self) -> u64 {
        self.heap_bytes().div_ceil(crate::PAGE_SIZE).max(1)
    }

    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.0 as usize]
    }

    /// Find a column id by name; `None` if absent.
    pub fn column_by_name(&self, name: &str) -> Option<ColumnId> {
        self.columns.iter().position(|c| c.name == name).map(|i| ColumnId(i as u32))
    }
}

/// The widest table a schema registers: the optimizer's access-cost kernel
/// keeps a table's columns as the bits of one `u64`.
const MAX_COLUMNS: usize = 64;

/// An immutable database schema: the universe the advisor tunes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    tables: Vec<Table>,
}

impl Schema {
    pub fn new() -> Self {
        Schema { tables: Vec::new() }
    }

    /// Register a table; its `id` field is overwritten with the dense id.
    /// Panics on a table wider than 64 columns.
    pub(crate) fn add_table(&mut self, mut table: Table) -> TableId {
        assert!(
            table.columns.len() <= MAX_COLUMNS,
            "table {} has {} columns, supported: at most {}",
            table.name,
            table.columns.len(),
            MAX_COLUMNS
        );
        let id = TableId(self.tables.len() as u32);
        table.id = id;
        self.tables.push(table);
        id
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Total heap size of all tables in bytes — the paper expresses storage
    /// budgets as a fraction `M` of this quantity.
    pub fn data_bytes(&self) -> u64 {
        self.tables.iter().map(Table::heap_bytes).sum()
    }

    /// Resolve a `table.column` string like `"lineitem.l_orderkey"`.
    pub fn resolve(&self, qualified: &str) -> Option<ColumnRef> {
        let (t, c) = qualified.split_once('.')?;
        let table = self.table_by_name(t)?;
        let column = table.column_by_name(c)?;
        Some(ColumnRef::new(table.id, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ColumnStats;

    fn toy_table() -> Table {
        Table {
            id: TableId(0),
            name: "t".into(),
            columns: vec![
                Column::new("a", ColumnType::Int, ColumnStats::uniform(100, 0.0, 99.0)),
                Column::new("b", ColumnType::Varchar(40), ColumnStats::uniform(10, 0.0, 9.0)),
            ],
            rows: 1000,
            primary_key: vec![ColumnId(0)],
        }
    }

    #[test]
    fn widths_and_sizes() {
        let t = toy_table();
        assert_eq!(t.column(ColumnId(0)).width(), 4);
        assert_eq!(t.column(ColumnId(1)).width(), 20);
        assert_eq!(t.row_width(), 4 + 20 + crate::ROW_OVERHEAD);
        assert_eq!(t.heap_bytes(), 1000 * t.row_width());
        assert!(t.heap_pages() >= 1);
    }

    #[test]
    fn schema_lookup() {
        let mut s = Schema::new();
        let id = s.add_table(toy_table());
        assert_eq!(id, TableId(0));
        assert_eq!(s.table(id).name, "t");
        assert_eq!(s.table_by_name("t").unwrap().id, id);
        let r = s.resolve("t.b").unwrap();
        assert_eq!(r, ColumnRef::new(TableId(0), ColumnId(1)));
        assert!(s.resolve("t.zzz").is_none());
        assert!(s.resolve("nope.a").is_none());
    }

    #[test]
    fn column_type_widths() {
        assert_eq!(ColumnType::Int.width(), 4);
        assert_eq!(ColumnType::Date.width(), 4);
        assert_eq!(ColumnType::BigInt.width(), 8);
        assert_eq!(ColumnType::Decimal.width(), 8);
        assert_eq!(ColumnType::Float.width(), 8);
        assert_eq!(ColumnType::Char(25).width(), 25);
        assert_eq!(ColumnType::Varchar(1).width(), 1);
    }

    #[test]
    fn data_bytes_sums_tables() {
        let mut s = Schema::new();
        s.add_table(toy_table());
        s.add_table(toy_table());
        let one = s.table(TableId(0)).heap_bytes();
        assert_eq!(s.data_bytes(), 2 * one);
    }

    fn table_of_width(n: usize) -> Table {
        let stats = ColumnStats::uniform(10, 0.0, 9.0);
        let columns = (0..n).map(|i| Column::new(format!("c{i}"), ColumnType::Int, stats.clone()));
        Table { columns: columns.collect(), ..toy_table() }
    }

    #[test]
    fn a_table_of_max_columns_registers() {
        let mut s = Schema::new();
        let id = s.add_table(table_of_width(MAX_COLUMNS));
        assert_eq!(s.table(id).columns.len(), 64);
    }

    #[test]
    #[should_panic(expected = "table t has 65 columns, supported: at most 64")]
    fn a_table_past_max_columns_is_refused() {
        Schema::new().add_table(table_of_width(MAX_COLUMNS + 1));
    }
}
