//! Access-path selection for a single table reference.
//!
//! Enumerates the ways one table of a query can be read under a
//! configuration: heap scan (or clustered-index scan), index *seek* (B-tree
//! descend on a sargable prefix) and full index *scan*, with index-only
//! variants when the index covers every referenced column.  The same
//! machinery computes INUM's `γ_qkia` — the cost of instantiating slot `i`
//! with index `a`: [`TableFacts::price`] is the cost of the path
//! `TableFacts::index_path` returns, without building the path.
//!
//! **One kernel, two kinds of facts.**  Every access cost is
//! [`TableFacts::price`] of an index against two records: the
//! [`TableFacts`] of the (query, table) pair — its predicates, and the used
//! and equality-bound columns as bit masks — and the [`IndexFacts`] of the
//! index — leaf pages, height and its columns as a bit mask.  The what-if
//! DP builds both on the spot for the one index it prices; INUM's cost
//! function builds an index's facts once per statement it prices, and
//! BIPGen and the ILP baseline, which price every candidate against every
//! statement, once per candidate.

use cophy_catalog::{ColumnId, ColumnRef, Configuration, Index, Schema, Table, TableId};
use cophy_workload::Query;

use crate::cost::CostModel;
use crate::ordering::Ordering;

/// A costed access path: the cheapest read of one table through one index
/// (seek if a key prefix is sargable, else a full scan of its leaves) or
/// through the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPath {
    /// Total cost of the access including residual filtering and heap
    /// fetches.
    pub cost: f64,
    /// Rows delivered after all local predicates.
    pub rows: f64,
    /// Sort order of the delivered rows (already normalized: equality-bound
    /// prefix stripped).
    pub order: Ordering,
}

/// The columns `cols` of `table` as a bit mask, bit `c` for column `c`.
/// Panics on an id past the table's width: such a column would otherwise be
/// priced as another column's bit.  A schema registers no table wider than
/// 64 columns, so every valid id has a bit.
fn column_mask(table: &Table, cols: impl IntoIterator<Item = ColumnId>) -> u64 {
    cols.into_iter().fold(0, |mask, c| {
        assert!(
            (c.0 as usize) < table.columns.len(),
            "table {} has no column {} (it has {})",
            table.name,
            c.0,
            table.columns.len()
        );
        mask | 1 << c.0
    })
}

/// Is column `c` in `mask`?  Exact for every id, in range or not.
fn has(mask: u64, c: ColumnId) -> bool {
    mask.checked_shr(c.0).is_some_and(|m| m & 1 == 1)
}

/// What pricing reads of one index, computed once per index: the pure
/// functions of the definition that every (query, table) pair would
/// otherwise recompute.
#[derive(Debug, Clone, Copy)]
pub struct IndexFacts {
    /// `Index::pages_and_height`: leaf pages and B-tree height.
    leaf_pages: u64,
    height: u32,
    /// Key ∪ include columns, one bit per column id.
    columns: u64,
    clustered: bool,
}

impl IndexFacts {
    /// The facts of `ix`.  Panics on a key or include column past its
    /// table's width.
    pub fn new(schema: &Schema, ix: &Index) -> Self {
        let table = schema.table(ix.table);
        let columns = column_mask(table, ix.key.iter().chain(&ix.include).copied());
        let (leaf_pages, height) = ix.pages_and_height(schema);
        IndexFacts { leaf_pages, height, columns, clustered: ix.is_clustered() }
    }

    /// The B-tree height (`Index::height`).
    pub fn height(&self) -> u32 {
        self.height
    }
}

/// One local predicate as the kernel reads it.
#[derive(Debug, Clone, Copy)]
struct SargPred {
    column: ColumnId,
    is_eq: bool,
    sel: f64,
}

/// Everything the access paths of one table reference share: the facts that
/// depend on the (query, table) pair but not on the index being priced.
/// `enumerate` gathers them once per table; every heap and index path of
/// that table is then priced against the same record.  Public so that the
/// layers above the optimizer (INUM's `γ`, BIPGen) can gather them once per
/// (statement, table) and price every candidate index against them with
/// [`TableFacts::price`].
#[derive(Debug)]
pub struct TableFacts {
    table: TableId,
    /// Base-table row count.
    rows: f64,
    heap_pages: u64,
    /// Local predicates in query order, each with its selectivity.
    preds: Vec<SargPred>,
    /// Columns bound by equality predicates.
    eq_cols: Vec<ColumnId>,
    /// `eq_cols` as a mask; `range_mask` the columns of the other
    /// predicates (`<`, `>`, `BETWEEN`).
    eq_mask: u64,
    range_mask: u64,
    /// Every column of the table the query touches (the covering set).
    used_mask: u64,
    /// Rows delivered after all local predicates.
    rows_out: f64,
}

/// Split of the local predicates with respect to an index key:
/// `matched_sel` is the selectivity the B-tree range absorbs, `n_in_index`
/// counts residual predicates testable on index columns, `n_residual` the
/// rest.
struct SargAnalysis {
    matched_sel: f64,
    eq_bound: usize,
    n_in_index: usize,
    n_residual: usize,
    in_index_sel: f64,
}

impl TableFacts {
    /// The facts of `table` as `q` reads it.  Panics on a column of `table`
    /// that `q` names past the table's width.
    pub fn new(schema: &Schema, q: &Query, table: TableId) -> Self {
        let t = schema.table(table);
        let preds: Vec<SargPred> = q
            .predicates_on(table)
            .map(|p| SargPred {
                column: p.column.column,
                is_eq: p.is_eq(),
                sel: p.selectivity(schema),
            })
            .collect();
        let eq_cols: Vec<ColumnId> = preds.iter().filter(|p| p.is_eq).map(|p| p.column).collect();
        let eq_mask = column_mask(t, eq_cols.iter().copied());
        let range_mask = column_mask(t, preds.iter().filter(|p| !p.is_eq).map(|p| p.column));
        let used_mask = column_mask(t, q.columns_used_on(table));
        // `Query::local_selectivity`, over the selectivities already in hand.
        let sel = preds.iter().map(|p| p.sel).product::<f64>().clamp(1e-12, 1.0);
        let rows = t.rows as f64;
        TableFacts {
            table,
            rows,
            heap_pages: t.heap_pages(),
            preds,
            eq_cols,
            eq_mask,
            range_mask,
            used_mask,
            rows_out: (rows * sel).max(1.0),
        }
    }

    /// The table these facts describe.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Columns bound by equality predicates, in predicate order
    /// (`Query::eq_columns_on`) — what `Index::provides_order` strips from
    /// the front of a key.
    pub fn eq_cols(&self) -> &[ColumnId] {
        &self.eq_cols
    }

    /// Delivered order of a scan of `ix`: the key suffix after the
    /// equality-bound prefix.
    fn order_of(&self, ix: &Index) -> Ordering {
        let bound = ix.eq_prefix_len(&self.eq_cols);
        Ordering(ix.key[bound..].iter().map(|c| ColumnRef::new(self.table, *c)).collect())
    }

    fn analyze_sargs(&self, ix: &Index, ixf: &IndexFacts) -> SargAnalysis {
        let preds = &self.preds;
        // One flag per local predicate, on the stack for any realistic count.
        let (mut inline, mut spilled) = ([false; 16], Vec::new());
        let matched: &mut [bool] = match inline.get_mut(..preds.len()) {
            Some(flags) => flags,
            None => {
                spilled.resize(preds.len(), false);
                &mut spilled
            }
        };
        let mut matched_sel = 1.0;
        let mut eq_bound = 0;

        // Bind equality predicates along the key prefix: each key column to
        // the first equality predicate on it, stopping at a column with none
        // or with that predicate already bound.
        for &key_col in &ix.key {
            if !has(self.eq_mask, key_col) {
                break;
            }
            match preds.iter().position(|p| p.column == key_col && p.is_eq) {
                Some(pi) if !matched[pi] => {
                    matched[pi] = true;
                    matched_sel *= preds[pi].sel;
                    eq_bound += 1;
                }
                _ => break,
            }
        }
        // One range predicate on the next key column extends the sargable
        // prefix.
        if let Some(&next) = ix.key.get(eq_bound).filter(|&&c| has(self.range_mask, c)) {
            if let Some(pi) = (0..preds.len())
                .find(|&pi| !matched[pi] && preds[pi].column == next && !preds[pi].is_eq)
            {
                matched[pi] = true;
                matched_sel *= preds[pi].sel;
            }
        }

        // Residuals: applicable before the heap fetch iff on indexed columns.
        let mut n_in_index = 0;
        let mut in_index_sel = 1.0;
        let mut n_residual = 0;
        for (p, _) in preds.iter().zip(matched.iter()).filter(|(_, &m)| !m) {
            if has(ixf.columns, p.column) {
                n_in_index += 1;
                in_index_sel *= p.sel;
            } else {
                n_residual += 1;
            }
        }
        SargAnalysis { matched_sel, eq_bound, n_in_index, n_residual, in_index_sel }
    }

    fn heap_path(&self, cm: &CostModel, clustered: Option<&Index>) -> AccessPath {
        let cost = cm.seq_scan(self.heap_pages, self.rows) + cm.filter(self.rows, self.preds.len());
        let order = clustered.map_or_else(Ordering::none, |cix| self.order_of(cix));
        AccessPath { cost, rows: self.rows_out, order }
    }

    /// Price the best access that uses `ix`, whose facts are `ixf`
    /// (`IndexFacts::new(schema, ix)`): its cost.  `None` when using the
    /// index is nonsensical (see `index_path`).  The one copy of the
    /// access-cost formula; allocates nothing.
    pub fn price(&self, cm: &CostModel, ix: &Index, ixf: &IndexFacts) -> Option<f64> {
        debug_assert_eq!(ix.table, self.table);
        let rows = self.rows;
        let sarg = self.analyze_sargs(ix, ixf);
        let covering = ixf.clustered || self.used_mask & !ixf.columns == 0;
        let leaf_pages = ixf.leaf_pages;

        // A range predicate on the first key column is sargable even when no
        // equality binds a prefix.
        let sargable = sarg.matched_sel < 1.0
            || sarg.eq_bound > 0
            || ix.key.first().is_some_and(|&c| has(self.range_mask, c));

        if sargable {
            // Seek: descend + bounded leaf range.
            let scanned = rows * sarg.matched_sel;
            let mut cost = cm.index_range_scan(ixf.height, leaf_pages, sarg.matched_sel, scanned);
            cost += cm.filter(scanned, sarg.n_in_index);
            let fetch_rows = scanned * sarg.in_index_sel;
            if !covering {
                cost += cm.heap_fetches(fetch_rows) + cm.filter(fetch_rows, sarg.n_residual);
            }
            Some(cost)
        } else {
            // Full index scan: only sensible when covering (index-only) or
            // when the delivered order will be exploited — the caller decides
            // the latter; we only refuse the plainly dominated non-covering
            // case, where the equality-bound prefix leaves no order at all.
            // Nothing binds the first key column here, so that prefix is the
            // whole key only when the key is empty.
            if !covering && ix.key.is_empty() {
                return None;
            }
            let mut cost = cm.index_leaf_scan(leaf_pages, rows);
            cost += cm.filter(rows, sarg.n_in_index);
            let fetch_rows = rows * sarg.in_index_sel;
            if !covering {
                cost += cm.heap_fetches(fetch_rows) + cm.filter(fetch_rows, sarg.n_residual);
            }
            Some(cost)
        }
    }

    /// Best access path that *uses index `ix`* (seek if sargable, else full
    /// scan).  Returns `None` when using the index is nonsensical (e.g. a full
    /// scan of a non-covering index would re-fetch every heap row *and* the
    /// index has no sargable prefix or useful order — such paths are strictly
    /// dominated by the heap scan and INUM prunes their `x` variables).
    fn index_path(&self, schema: &Schema, cm: &CostModel, ix: &Index) -> Option<AccessPath> {
        let cost = self.price(cm, ix, &IndexFacts::new(schema, ix))?;
        Some(AccessPath { cost, rows: self.rows_out, order: self.order_of(ix) })
    }
}

/// The heap-scan path (INUM's `I∅`).  If the configuration clusters the table,
/// the "heap" is the clustered index and the scan delivers its key order.
pub fn heap_path(
    schema: &Schema,
    cm: &CostModel,
    q: &Query,
    table: TableId,
    clustered: Option<&Index>,
) -> AccessPath {
    TableFacts::new(schema, q, table).heap_path(cm, clustered)
}

/// Enumerate the pareto-useful access paths for `table` under
/// `config ∪ {heap}`: minimum cost per distinct delivered order, always
/// including the overall cheapest.
pub(crate) fn enumerate(
    schema: &Schema,
    cm: &CostModel,
    q: &Query,
    table: TableId,
    config: &Configuration,
) -> Vec<AccessPath> {
    let facts = TableFacts::new(schema, q, table);
    let clustered = config.on_table(table).find(|ix| ix.is_clustered());
    let mut paths = vec![facts.heap_path(cm, clustered)];
    paths.extend(config.on_table(table).filter_map(|ix| facts.index_path(schema, cm, ix)));
    prune_paths(paths)
}

/// Keep the cheapest path per delivered order, dropping orders whose best
/// path costs more than a path delivering an *extension* of that order.
fn prune_paths(mut paths: Vec<AccessPath>) -> Vec<AccessPath> {
    paths.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let mut kept: Vec<AccessPath> = Vec::new();
    for p in paths {
        let dominated = kept.iter().any(|k| {
            k.cost <= p.cost
                && k.order.0.len() >= p.order.0.len()
                && k.order.0[..p.order.0.len()] == p.order.0[..]
        });
        if !dominated {
            kept.push(p);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SystemProfile;
    use cophy_catalog::TpchGen;
    use cophy_workload::{PredOp, Predicate};

    fn setup() -> (Schema, CostModel) {
        (TpchGen::default().schema(), CostModel::profile(SystemProfile::A))
    }

    #[test]
    fn heap_scan_costs_full_table() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let p = heap_path(&s, &cm, &q, li, None);
        assert!(p.cost >= s.table(li).heap_pages() as f64);
        assert!(p.order.is_none());
    }

    #[test]
    fn selective_seek_beats_heap_scan() {
        let (s, cm) = setup();
        let ord = s.table_by_name("orders").unwrap();
        let ck = s.resolve("orders.o_custkey").unwrap();
        let mut q = Query::scan(ord.id);
        q.predicates.push(Predicate::eq(ck, 42.0));
        let ix = Index::secondary(ord.id, vec![ck.column]);
        let facts = TableFacts::new(&s, &q, ord.id);
        let seek = facts.index_path(&s, &cm, &ix).unwrap();
        let heap = heap_path(&s, &cm, &q, ord.id, None);
        // Priced as a seek: below a full scan of the same index's leaves.
        let priced = facts.price(&cm, &ix, &IndexFacts::new(&s, &ix)).unwrap();
        let leaf_scan = cm.index_leaf_scan(ix.pages_and_height(&s).0, ord.rows as f64);
        assert!(priced < leaf_scan, "seek {priced} leaf scan {leaf_scan}");
        assert!(seek.cost < heap.cost / 10.0, "seek {} heap {}", seek.cost, heap.cost);
    }

    #[test]
    fn covering_seek_beats_non_covering() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap();
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let ep = s.resolve("lineitem.l_extendedprice").unwrap();
        let mut q = Query::scan(li.id);
        q.predicates.push(Predicate::between(sd, 100.0, 150.0));
        q.projections.push(ep);
        let plain = Index::secondary(li.id, vec![sd.column]);
        let cov = Index::covering(li.id, vec![sd.column], vec![ep.column]);
        let p_plain = TableFacts::new(&s, &q, li.id).index_path(&s, &cm, &plain).unwrap();
        let p_cov = TableFacts::new(&s, &q, li.id).index_path(&s, &cm, &cov).unwrap();
        assert!(p_cov.cost < p_plain.cost);
    }

    #[test]
    fn eq_bound_prefix_strips_order() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap();
        let ok = s.resolve("lineitem.l_orderkey").unwrap();
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let mut q = Query::scan(li.id);
        q.predicates.push(Predicate::eq(ok, 7.0));
        let ix = Index::secondary(li.id, vec![ok.column, sd.column]);
        let p = TableFacts::new(&s, &q, li.id).index_path(&s, &cm, &ix).unwrap();
        assert_eq!(p.order, Ordering(vec![sd]), "bound prefix must be stripped");
    }

    #[test]
    fn useless_index_rejected() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap();
        let cm2 = s.resolve("lineitem.l_comment").unwrap();
        let q = Query {
            tables: vec![li.id],
            projections: vec![s.resolve("lineitem.l_quantity").unwrap()],
            ..Default::default()
        };
        // Index on an unprojected, unfiltered comment column: full scan of it
        // is non-covering with no order value — but it *does* deliver an
        // order, so `index_path` returns a (costly) IndexScan.
        let ix = Index::secondary(li.id, vec![cm2.column]);
        let p = TableFacts::new(&s, &q, li.id).index_path(&s, &cm, &ix).unwrap();
        let heap = heap_path(&s, &cm, &q, li.id, None);
        assert!(p.cost > heap.cost, "useless index must not look cheap");
    }

    #[test]
    fn enumerate_includes_heap_and_prunes() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap();
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let mut q = Query::scan(li.id);
        q.predicates.push(Predicate::between(sd, 100.0, 130.0));
        let mut cfg = Configuration::empty();
        cfg.insert(Index::secondary(li.id, vec![sd.column]));
        cfg.insert(Index::secondary(li.id, vec![sd.column])); // duplicate ignored
        let paths = enumerate(&s, &cm, &q, li.id, &cfg);
        // The selective seek dominates the heap scan here (cheaper AND
        // delivers a superset order), so pruning may drop the heap.
        assert!(paths.iter().any(|p| p.order == Ordering(vec![sd])));
        // pruning keeps at most one path per order
        let mut orders: Vec<_> = paths.iter().map(|p| p.order.clone()).collect();
        orders.sort_by_key(|o| o.0.len());
        orders.dedup();
        assert_eq!(orders.len(), paths.len());
        // Without indexes, the heap scan is the only path.
        let bare = enumerate(&s, &cm, &q, li.id, &Configuration::empty());
        assert_eq!(bare, vec![heap_path(&s, &cm, &q, li.id, None)]);
    }

    /// Index shapes over `table` as `q` sees it: every key of one to three
    /// of the columns the query touches plus one it does not (CGen's shapes
    /// and the useless ones it never proposes), each plain and with the
    /// remaining touched columns as INCLUDE payload, the clustered primary
    /// key, and the keyless index (the one shape with no order to deliver).
    fn index_family(s: &Schema, q: &Query, table: TableId) -> Vec<Index> {
        let t = s.table(table);
        let used = q.columns_used_on(table);
        let mut cols: Vec<ColumnId> = used.iter().copied().take(4).collect();
        cols.extend((0..t.columns.len() as u32).map(ColumnId).find(|c| !used.contains(c)));
        let mut keys: Vec<Vec<ColumnId>> = vec![Vec::new()];
        for &a in &cols {
            keys.push(vec![a]);
            for &b in cols.iter().filter(|&&b| b != a) {
                keys.push(vec![a, b]);
                keys.extend(cols.iter().filter(|&&c| c != a && c != b).map(|&c| vec![a, b, c]));
            }
        }
        let mut family = vec![Index::clustered(table, t.primary_key.clone())];
        for key in keys {
            let rest = used.iter().copied().filter(|c| !key.contains(c)).collect();
            family.push(Index::covering(table, key.clone(), rest));
            family.push(Index::secondary(table, key));
        }
        family
    }

    /// The access-cost formula as it was before the kernel read
    /// [`IndexFacts`] and column masks: per call it walks the index's
    /// columns for its size and height, scans key and include lists for
    /// `contains` / `covers`, and follows each predicate's pointer.  The
    /// oracle of [`TableFacts::price`].
    struct PerCallFacts<'q> {
        table: TableId,
        rows: f64,
        preds: Vec<(&'q Predicate, f64)>,
        eq_cols: Vec<ColumnId>,
        used_cols: Vec<ColumnId>,
    }

    impl<'q> PerCallFacts<'q> {
        fn new(schema: &Schema, q: &'q Query, table: TableId) -> Self {
            let preds: Vec<(&Predicate, f64)> =
                q.predicates_on(table).map(|p| (p, p.selectivity(schema))).collect();
            let eq_cols =
                preds.iter().filter(|(p, _)| p.is_eq()).map(|(p, _)| p.column.column).collect();
            PerCallFacts {
                table,
                rows: schema.table(table).rows as f64,
                preds,
                eq_cols,
                used_cols: q.columns_used_on(table),
            }
        }

        fn analyze_sargs(&self, ix: &Index) -> SargAnalysis {
            let preds = &self.preds;
            let mut matched = vec![false; preds.len()];
            let mut matched_sel = 1.0;
            let mut eq_bound = 0;
            for key_col in &ix.key {
                match preds.iter().position(|(p, _)| p.column.column == *key_col && p.is_eq()) {
                    Some(pi) if !matched[pi] => {
                        matched[pi] = true;
                        matched_sel *= preds[pi].1;
                        eq_bound += 1;
                    }
                    _ => break,
                }
            }
            if eq_bound < ix.key.len() {
                let next = ix.key[eq_bound];
                if let Some(pi) = preds.iter().enumerate().find_map(|(pi, (p, _))| {
                    (!matched[pi] && p.column.column == next && !p.is_eq()).then_some(pi)
                }) {
                    matched[pi] = true;
                    matched_sel *= preds[pi].1;
                }
            }
            let mut n_in_index = 0;
            let mut in_index_sel = 1.0;
            let mut n_residual = 0;
            for (pi, (p, sel)) in preds.iter().enumerate() {
                if matched[pi] {
                    continue;
                }
                if ix.contains(p.column.column) {
                    n_in_index += 1;
                    in_index_sel *= sel;
                } else {
                    n_residual += 1;
                }
            }
            SargAnalysis { matched_sel, eq_bound, n_in_index, n_residual, in_index_sel }
        }

        fn has_range_pred(&self, c: ColumnId) -> bool {
            self.preds.iter().any(|(p, _)| {
                p.column.column == c
                    && matches!(p.op, PredOp::Lt(_) | PredOp::Gt(_) | PredOp::Between(_, _))
            })
        }

        /// Whether the best access through `ix` is a seek: a key prefix is
        /// sargable.
        fn seeks(&self, ix: &Index) -> bool {
            let sarg = self.analyze_sargs(ix);
            sarg.matched_sel < 1.0
                || sarg.eq_bound > 0
                || (!ix.key.is_empty() && self.has_range_pred(ix.key[0]))
        }

        fn price(&self, schema: &Schema, cm: &CostModel, ix: &Index) -> Option<f64> {
            assert_eq!(ix.table, self.table);
            let rows = self.rows;
            let sarg = self.analyze_sargs(ix);
            let covering = ix.covers(&self.used_cols);
            let leaf_pages = ix.pages_and_height(schema).0;
            if self.seeks(ix) {
                let scanned = rows * sarg.matched_sel;
                let mut cost =
                    cm.index_range_scan(ix.height(schema), leaf_pages, sarg.matched_sel, scanned);
                cost += cm.filter(scanned, sarg.n_in_index);
                let fetch_rows = scanned * sarg.in_index_sel;
                if !covering {
                    cost += cm.heap_fetches(fetch_rows) + cm.filter(fetch_rows, sarg.n_residual);
                }
                Some(cost)
            } else {
                if !covering && ix.eq_prefix_len(&self.eq_cols) == ix.key.len() {
                    return None;
                }
                let mut cost = cm.index_leaf_scan(leaf_pages, rows);
                cost += cm.filter(rows, sarg.n_in_index);
                let fetch_rows = rows * sarg.in_index_sel;
                if !covering {
                    cost += cm.heap_fetches(fetch_rows) + cm.filter(fetch_rows, sarg.n_residual);
                }
                Some(cost)
            }
        }
    }

    /// The kernel against its per-call oracle, bit for bit, over HomGen,
    /// HetGen and UpdateGen: every table of every statement priced with
    /// [`index_family`] and with CGen's candidate set for the workload (the
    /// candidates BIPGen prices, proposed for other statements too).  The
    /// path `index_path` builds costs the same, and refuses only the full
    /// scan that neither covers the query nor delivers an order.
    #[test]
    fn index_cost_is_the_cost_of_the_path() {
        use cophy_workload::{HetGen, HomGen, UpdateGen};
        let (s, cm) = setup();
        let workloads = [
            HomGen::new(3).generate(&s, 50),
            HetGen::new(3).generate(&s, 50),
            UpdateGen::new(3).generate(&s, 50),
        ];
        let (mut priced, mut refused, mut from_cgen) = (0, 0, 0);
        for w in &workloads {
            let cgen = cophy::CGen::default().generate(&s, w);
            for (_, stmt, _) in w.iter() {
                let q = stmt.read_shell();
                for &table in &q.tables {
                    let facts = TableFacts::new(&s, q, table);
                    let oracle = PerCallFacts::new(&s, q, table);
                    assert_eq!(facts.eq_cols(), q.eq_columns_on(table));
                    let proposed = cgen.indexes().iter().filter(|ix| ix.table == table);
                    from_cgen += proposed.clone().count();
                    for ix in index_family(&s, q, table).iter().chain(proposed) {
                        let kernel = facts.price(&cm, ix, &IndexFacts::new(&s, ix));
                        let bits = |p: Option<f64>| p.map(f64::to_bits);
                        assert_eq!(bits(kernel), bits(oracle.price(&s, &cm, ix)), "{ix:?}");
                        let path = facts.index_path(&s, &cm, ix);
                        assert_eq!(bits(kernel), path.as_ref().map(|p| p.cost.to_bits()));
                        // The one refusal: a full scan that neither covers
                        // the query nor delivers an order.
                        let useless =
                            !ix.covers(&q.columns_used_on(table)) && facts.order_of(ix).is_none();
                        match path {
                            Some(_) => {
                                let seek = oracle.seeks(ix);
                                assert!(seek || !useless, "{ix:?} should have been refused");
                                priced += 1;
                            }
                            None => {
                                assert!(useless, "{ix:?} was refused");
                                refused += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(priced > 10_000 && refused > 100, "{priced} priced, {refused} refused");
        assert!(from_cgen > 10_000, "{from_cgen} CGen candidates priced");
    }

    /// A column id past its table's width is refused, never priced as the
    /// column whose bit it would wrap onto (`c mod 64`), whether a query or
    /// an index names it.
    #[test]
    fn an_out_of_range_column_is_refused_not_aliased() {
        let (s, cm) = setup();
        let nation = s.table_by_name("nation").unwrap();
        let width = nation.columns.len() as u32;
        let key = s.resolve("nation.n_nationkey").unwrap();
        for bad in [width, 63, 64, 64 + key.column.0, u32::MAX].map(ColumnId) {
            let ok = Index::secondary(nation.id, vec![key.column]);
            let mut q = Query::scan(nation.id);
            q.projections.push(ColumnRef::new(nation.id, bad));
            let facts = std::panic::catch_unwind(|| TableFacts::new(&s, &q, nation.id));
            assert!(facts.is_err(), "query column {bad:?} was accepted");
            let wide = Index::covering(nation.id, vec![key.column], vec![bad]);
            let ixf = std::panic::catch_unwind(|| IndexFacts::new(&s, &wide));
            assert!(ixf.is_err(), "index column {bad:?} was accepted");
            let facts = TableFacts::new(&s, &Query::scan(nation.id), nation.id);
            assert!(std::panic::catch_unwind(|| facts.index_path(&s, &cm, &wide)).is_err());
            assert!(facts.index_path(&s, &cm, &ok).is_some());
            // Membership is exact for every id, the ones past 63 included.
            assert!(!has(u64::MAX >> 1, ColumnId(63)) && !has(1 << key.column.0, bad));
        }
    }

    #[test]
    fn clustered_scan_delivers_key_order() {
        let (s, cm) = setup();
        let ord = s.table_by_name("orders").unwrap();
        let q = Query::scan(ord.id);
        let cix = Index::clustered(ord.id, ord.primary_key.clone());
        let p = heap_path(&s, &cm, &q, ord.id, Some(&cix));
        assert_eq!(p.order.0.len(), 1);
        assert_eq!(p.order.0[0].column, ord.primary_key[0]);
    }
}
