//! Index metadata and size estimation.
//!
//! The paper places no limitation on index type or column count, except that
//! each index covers exactly one table (no join indexes, §2).  We model
//! B-tree indexes with an ordered key-column list, optional INCLUDE columns
//! (covering payload), and clustered/unique flags.  `size()` feeds the storage
//! constraint `Σ z_a · size(a) ≤ M` of §3.2.

use serde::{Deserialize, Serialize};

use crate::schema::{ColumnId, Schema, Table, TableId};
use crate::{ENTRY_OVERHEAD, PAGE_SIZE};

/// Identifier of a candidate index within a candidate set `S`.
///
/// Ids are assigned densely by the candidate generator, so `IndexId.0` indexes
/// directly into `Vec`-based maps in the BIP generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndexId(pub u32);

/// Physical kind of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// Secondary B-tree: leaf entries hold key + row pointer (+ includes).
    Secondary,
    /// Clustered B-tree: the table *is* the index; at most one per table
    /// (Appendix E.3 encodes this as a linear constraint).
    Clustered,
}

/// A (candidate) index definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Index {
    pub table: TableId,
    /// Key columns in order; the index provides rows sorted by this prefix.
    pub key: Vec<ColumnId>,
    /// Non-key columns stored in leaf entries (covering payload).
    pub include: Vec<ColumnId>,
    pub kind: IndexKind,
    pub unique: bool,
}

impl Index {
    pub fn secondary(table: TableId, key: Vec<ColumnId>) -> Self {
        Index { table, key, include: Vec::new(), kind: IndexKind::Secondary, unique: false }
    }

    pub fn covering(table: TableId, key: Vec<ColumnId>, include: Vec<ColumnId>) -> Self {
        Index { table, key, include, kind: IndexKind::Secondary, unique: false }
    }

    pub fn clustered(table: TableId, key: Vec<ColumnId>) -> Self {
        Index { table, key, include: Vec::new(), kind: IndexKind::Clustered, unique: false }
    }

    pub fn is_clustered(&self) -> bool {
        self.kind == IndexKind::Clustered
    }

    /// Total number of columns materialized in the index.
    pub fn n_columns(&self) -> usize {
        self.key.len() + self.include.len()
    }

    /// Does the index materialize column `c` (as key or include)?
    pub fn contains(&self, c: ColumnId) -> bool {
        self.key.contains(&c) || self.include.contains(&c)
    }

    /// Does the index cover *all* of `cols` (no heap lookup needed)?
    /// A clustered index covers everything by definition.
    pub fn covers(&self, cols: &[ColumnId]) -> bool {
        self.is_clustered() || cols.iter().all(|c| self.contains(*c))
    }

    /// Length of the longest prefix of the index key consisting solely of
    /// columns in `eq_cols` — the sargable-prefix length for a conjunction of
    /// equality predicates.
    pub fn eq_prefix_len(&self, eq_cols: &[ColumnId]) -> usize {
        self.key.iter().take_while(|k| eq_cols.contains(k)).count()
    }

    /// Does a scan of this index deliver rows ordered by `order` (column list,
    /// ascending) given equality predicates on `eq_cols` binding a prefix?
    ///
    /// Classic rule: strip key columns bound by equality from the front, then
    /// the remaining key must have `order` as a prefix.
    pub fn provides_order(&self, order: &[ColumnId], eq_cols: &[ColumnId]) -> bool {
        order.is_empty() || self.provides_order_past(order, self.eq_prefix_len(eq_cols))
    }

    /// [`Index::provides_order`] once the first `bound` key columns are
    /// bound by equality: the rest of the key must have `order` as a prefix.
    pub fn provides_order_past(&self, order: &[ColumnId], bound: usize) -> bool {
        self.key[bound..].starts_with(order)
    }

    /// Leaf-entry width in bytes.
    pub(crate) fn entry_width(&self, table: &Table) -> u64 {
        let cols: u64 = self
            .key
            .iter()
            .chain(self.include.iter())
            .map(|c| u64::from(table.column(*c).width()))
            .sum();
        cols + ENTRY_OVERHEAD
    }

    /// Estimated on-disk size in bytes.
    ///
    /// Secondary index: `rows × entry_width / fill_factor` for the leaf level;
    /// inner levels add ~1/fanout.  Clustered index: the whole table re-laid
    /// out, i.e. the heap size (the storage constraint then charges rebuilding
    /// the table in that order).
    pub fn size_bytes(&self, schema: &Schema) -> u64 {
        let table = schema.table(self.table);
        self.size_bytes_at(table, self.entry_width(table))
    }

    /// [`Index::size_bytes`] with the leaf-entry width in hand.
    fn size_bytes_at(&self, table: &Table, entry_width: u64) -> u64 {
        match self.kind {
            IndexKind::Clustered => table.heap_bytes(),
            IndexKind::Secondary => {
                let leaf = table.rows * entry_width;
                // 70% fill factor, ~0.5% inner-node overhead.
                let with_fill = (leaf as f64 / 0.70 * 1.005) as u64;
                with_fill.max(PAGE_SIZE)
            }
        }
    }

    /// Size in pages, and the B-tree height estimate (levels above the
    /// leaves) that seek costs and update maintenance read, from one walk
    /// of the columns.
    pub fn pages_and_height(&self, schema: &Schema) -> (u64, u32) {
        let table = schema.table(self.table);
        let entry = self.entry_width(table);
        let pages = self.size_bytes_at(table, entry).div_ceil(PAGE_SIZE).max(1);
        let fanout = (PAGE_SIZE / entry.max(1)).max(2) as f64;
        let leaves = pages.max(1) as f64;
        (pages, (leaves.ln() / fanout.ln()).ceil().max(1.0) as u32)
    }

    /// B-tree height estimate (levels above the leaves), used for seek costs.
    pub fn height(&self, schema: &Schema) -> u32 {
        self.pages_and_height(schema).1
    }

    /// Human-readable name, e.g. `ix_lineitem(l_orderkey,l_suppkey)+inc2`.
    pub fn describe(&self, schema: &Schema) -> String {
        let table = schema.table(self.table);
        let keys: Vec<&str> = self.key.iter().map(|c| table.column(*c).name.as_str()).collect();
        let prefix = if self.is_clustered() { "cix" } else { "ix" };
        let mut s = format!("{prefix}_{}({})", table.name, keys.join(","));
        if !self.include.is_empty() {
            s.push_str(&format!("+inc{}", self.include.len()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema, Table};
    use crate::stats::ColumnStats;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(Table {
            id: TableId(0),
            name: "t".into(),
            columns: vec![
                Column::new("a", ColumnType::Int, ColumnStats::uniform(100, 0.0, 99.0)),
                Column::new("b", ColumnType::Int, ColumnStats::uniform(100, 0.0, 99.0)),
                Column::new("c", ColumnType::Char(16), ColumnStats::uniform(10, 0.0, 9.0)),
            ],
            rows: 100_000,
            primary_key: vec![ColumnId(0)],
        });
        s
    }

    #[test]
    fn covers_and_contains() {
        let ix = Index::covering(TableId(0), vec![ColumnId(0)], vec![ColumnId(2)]);
        assert!(ix.contains(ColumnId(0)));
        assert!(ix.contains(ColumnId(2)));
        assert!(!ix.contains(ColumnId(1)));
        assert!(ix.covers(&[ColumnId(0), ColumnId(2)]));
        assert!(!ix.covers(&[ColumnId(1)]));
        let cl = Index::clustered(TableId(0), vec![ColumnId(0)]);
        assert!(cl.covers(&[ColumnId(0), ColumnId(1), ColumnId(2)]));
    }

    #[test]
    fn order_with_bound_prefix() {
        // key (a, b): equality on a makes the index deliver order-by-b.
        let ix = Index::secondary(TableId(0), vec![ColumnId(0), ColumnId(1)]);
        assert!(ix.provides_order(&[ColumnId(0)], &[]));
        assert!(ix.provides_order(&[ColumnId(1)], &[ColumnId(0)]));
        assert!(!ix.provides_order(&[ColumnId(1)], &[]));
        assert!(ix.provides_order(&[], &[]));
        assert!(ix.provides_order(&[ColumnId(0), ColumnId(1)], &[]));
        assert!(!ix.provides_order(&[ColumnId(2)], &[ColumnId(0), ColumnId(1)]));
    }

    #[test]
    fn eq_prefix() {
        let ix = Index::secondary(TableId(0), vec![ColumnId(0), ColumnId(1), ColumnId(2)]);
        assert_eq!(ix.eq_prefix_len(&[ColumnId(1), ColumnId(0)]), 2);
        assert_eq!(ix.eq_prefix_len(&[ColumnId(1)]), 0);
        assert_eq!(ix.eq_prefix_len(&[]), 0);
    }

    #[test]
    fn sizes_scale_with_columns() {
        let s = schema();
        let narrow = Index::secondary(TableId(0), vec![ColumnId(0)]);
        let wide = Index::covering(TableId(0), vec![ColumnId(0)], vec![ColumnId(1), ColumnId(2)]);
        assert!(wide.size_bytes(&s) > narrow.size_bytes(&s));
        let clustered = Index::clustered(TableId(0), vec![ColumnId(0)]);
        assert_eq!(clustered.size_bytes(&s), s.table(TableId(0)).heap_bytes());
        assert!(narrow.height(&s) >= 1);
    }

    /// `size_pages` and `height` as they were before they shared one walk of
    /// the columns: the oracle of [`Index::pages_and_height`].
    fn pages_and_height_per_call(ix: &Index, s: &Schema) -> (u64, u32) {
        let size_pages = |ix: &Index| ix.size_bytes(s).div_ceil(PAGE_SIZE).max(1);
        let table = s.table(ix.table);
        let entry = ix.entry_width(table).max(1);
        let fanout = (PAGE_SIZE / entry).max(2) as f64;
        let leaves = size_pages(ix).max(1) as f64;
        (size_pages(ix), (leaves.ln() / fanout.ln()).ceil().max(1.0) as u32)
    }

    #[test]
    fn pages_and_height_match_the_per_call_estimates() {
        let s = crate::TpchGen::default().schema();
        let mut n = 0;
        for t in s.tables() {
            let cols: Vec<ColumnId> = (0..t.columns.len() as u32).map(ColumnId).collect();
            for (i, &a) in cols.iter().enumerate() {
                for k in 0..cols.len() {
                    let key = vec![a];
                    let rest = cols[..k].iter().copied().filter(|&c| c != a).collect();
                    for ix in [
                        Index::secondary(t.id, key.clone()),
                        Index::covering(t.id, key.clone(), rest),
                        Index::clustered(t.id, cols[i..].to_vec()),
                    ] {
                        assert_eq!(ix.pages_and_height(&s), pages_and_height_per_call(&ix, &s));
                        assert_eq!(ix.height(&s), pages_and_height_per_call(&ix, &s).1);
                        n += 1;
                    }
                }
            }
        }
        assert!(n > 1_000, "{n}");
    }

    #[test]
    fn describe_format() {
        let s = schema();
        let ix = Index::covering(TableId(0), vec![ColumnId(0), ColumnId(1)], vec![ColumnId(2)]);
        assert_eq!(ix.describe(&s), "ix_t(a,b)+inc1");
        let cl = Index::clustered(TableId(0), vec![ColumnId(0)]);
        assert_eq!(cl.describe(&s), "cix_t(a)");
    }
}
