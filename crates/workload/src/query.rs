//! The query IR.
//!
//! A deliberately small relational core — selections, equi-joins, group-by
//! with aggregates, order-by, projections — which is exactly the fragment the
//! INUM template-plan model covers (template plans fix the internal operators
//! and leave per-table *access* slots open).  Everything is resolved to
//! catalog ids; there is no name resolution at optimization time.

use serde::{Deserialize, Serialize};

use cophy_catalog::{ColumnId, ColumnRef, Schema, TableId};

/// Comparison operator of a local (single-table) predicate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredOp {
    /// `col = v`
    Eq(f64),
    /// `col < v`
    Lt(f64),
    /// `col > v`
    Gt(f64),
    /// `a <= col <= b`
    Between(f64, f64),
}

/// A sargable predicate on one column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    pub column: ColumnRef,
    pub op: PredOp,
}

impl Predicate {
    pub fn eq(column: ColumnRef, v: f64) -> Self {
        Predicate { column, op: PredOp::Eq(v) }
    }

    pub fn lt(column: ColumnRef, v: f64) -> Self {
        Predicate { column, op: PredOp::Lt(v) }
    }

    pub fn gt(column: ColumnRef, v: f64) -> Self {
        Predicate { column, op: PredOp::Gt(v) }
    }

    pub fn between(column: ColumnRef, a: f64, b: f64) -> Self {
        Predicate { column, op: PredOp::Between(a, b) }
    }

    /// Is this an equality predicate (binds one key column exactly)?
    pub fn is_eq(&self) -> bool {
        matches!(self.op, PredOp::Eq(_))
    }

    /// Estimated selectivity against the catalog statistics.
    pub fn selectivity(&self, schema: &Schema) -> f64 {
        let stats = &schema.table(self.column.table).column(self.column.column).stats;
        let sel = match self.op {
            PredOp::Eq(v) => stats.eq_selectivity_at(v).max(stats.eq_selectivity() * 0.1),
            PredOp::Lt(v) => stats.lt_selectivity(v),
            PredOp::Gt(v) => 1.0 - stats.lt_selectivity(v),
            PredOp::Between(a, b) => stats.range_selectivity(a, b),
        };
        sel.clamp(1e-9, 1.0)
    }
}

/// An equi-join edge between two table references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Join {
    pub left: ColumnRef,
    pub right: ColumnRef,
}

impl Join {
    pub fn new(left: ColumnRef, right: ColumnRef) -> Self {
        Join { left, right }
    }

    /// Does this edge touch `table`? Returns the local and remote column.
    pub fn side(&self, table: TableId) -> Option<(ColumnRef, ColumnRef)> {
        if self.left.table == table {
            Some((self.left, self.right))
        } else if self.right.table == table {
            Some((self.right, self.left))
        } else {
            None
        }
    }
}

/// Aggregate functions supported by the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    Sum,
    Avg,
    Min,
    Max,
    Count,
}

/// One aggregate in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    pub func: AggFunc,
    /// `None` means `COUNT(*)`.
    pub column: Option<ColumnRef>,
}

/// Most table references one query may carry: the join enumerator keys its
/// dynamic-programming table by a bitmask over them.
pub const MAX_TABLES: usize = 16;

/// A SELECT query (or the *query shell* `q_r` of an UPDATE).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Referenced tables; per the paper's assumption each appears once.
    pub tables: Vec<TableId>,
    /// Plain projected columns (columns an index must cover to avoid heap
    /// lookups); aggregate inputs are tracked separately.
    pub projections: Vec<ColumnRef>,
    /// Local sargable predicates.
    pub predicates: Vec<Predicate>,
    /// Equi-join edges; the join graph must be connected over `tables`.
    pub joins: Vec<Join>,
    pub group_by: Vec<ColumnRef>,
    pub aggregates: Vec<Aggregate>,
    /// ORDER BY columns, ascending.
    pub order_by: Vec<ColumnRef>,
}

impl Query {
    /// A single-table scan query.
    pub fn scan(table: TableId) -> Self {
        Query { tables: vec![table], ..Default::default() }
    }

    /// Check IR invariants: between one and [`MAX_TABLES`] unique table refs,
    /// all column refs on referenced tables, join edges between two distinct
    /// referenced tables, and a join graph that connects every table (the IR
    /// has no cross products).
    pub fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() || self.tables.len() > MAX_TABLES {
            return Err(format!(
                "query references {} tables, supported: 1..={MAX_TABLES}",
                self.tables.len()
            ));
        }
        for (i, t) in self.tables.iter().enumerate() {
            if self.tables[i + 1..].contains(t) {
                return Err(format!("table {t:?} referenced more than once"));
            }
        }
        let on_ref = |c: &ColumnRef| self.tables.contains(&c.table);
        for c in self.projections.iter().chain(self.group_by.iter()).chain(self.order_by.iter()) {
            if !on_ref(c) {
                return Err(format!("column {c:?} not on a referenced table"));
            }
        }
        for p in &self.predicates {
            if !on_ref(&p.column) {
                return Err(format!("predicate column {:?} not referenced", p.column));
            }
        }
        for a in &self.aggregates {
            if let Some(c) = &a.column {
                if !on_ref(c) {
                    return Err(format!("aggregate column {c:?} not referenced"));
                }
            }
        }
        for j in &self.joins {
            if j.left.table == j.right.table {
                return Err("self-join edge".into());
            }
            if !on_ref(&j.left) || !on_ref(&j.right) {
                return Err("join edge touches unreferenced table".into());
            }
        }
        self.check_connected()
    }

    /// Union-find over the join edges: every table must end up in one
    /// component.  (An edge with an unreferenced endpoint is the edge
    /// check's to report and connects nothing here.)
    fn check_connected(&self) -> Result<(), String> {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut parent: [usize; MAX_TABLES] = std::array::from_fn(|i| i);
        let pos = |t: TableId| self.tables.iter().position(|x| *x == t);
        let mut components = self.tables.len();
        for j in &self.joins {
            let (Some(a), Some(b)) = (pos(j.left.table), pos(j.right.table)) else { continue };
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
                components -= 1;
            }
        }
        if components > 1 {
            return Err(format!("join graph splits the tables into {components} components"));
        }
        Ok(())
    }

    /// Local predicates on `table`.
    pub fn predicates_on(&self, table: TableId) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(move |p| p.column.table == table)
    }

    /// Columns of `table` bound by equality predicates.
    pub fn eq_columns_on(&self, table: TableId) -> Vec<ColumnId> {
        self.predicates_on(table).filter(|p| p.is_eq()).map(|p| p.column.column).collect()
    }

    /// Combined selectivity of the local predicates on `table`
    /// (independence assumption).
    pub fn local_selectivity(&self, schema: &Schema, table: TableId) -> f64 {
        self.predicates_on(table).map(|p| p.selectivity(schema)).product::<f64>().clamp(1e-12, 1.0)
    }

    /// Every column of `table` the query touches in any clause — the set an
    /// index must cover for an index-only access of this table.
    pub fn columns_used_on(&self, table: TableId) -> Vec<ColumnId> {
        let mut cols: Vec<ColumnId> = Vec::new();
        let mut push = |c: &ColumnRef| {
            if c.table == table && !cols.contains(&c.column) {
                cols.push(c.column);
            }
        };
        for c in &self.projections {
            push(c);
        }
        for p in &self.predicates {
            push(&p.column);
        }
        for j in &self.joins {
            push(&j.left);
            push(&j.right);
        }
        for c in self.group_by.iter().chain(self.order_by.iter()) {
            push(c);
        }
        for a in &self.aggregates {
            if let Some(c) = &a.column {
                push(c);
            }
        }
        cols
    }

    /// Join edges incident to `table`.
    pub fn joins_on(&self, table: TableId) -> impl Iterator<Item = &Join> {
        self.joins.iter().filter(move |j| j.side(table).is_some())
    }

    /// Interesting orders for `table` in this query: per-table prefixes of
    /// ORDER BY / GROUP BY lists plus join columns (useful for merge joins).
    /// Each entry is an ordered column list an access path could deliver.
    pub fn interesting_orders_on(&self, table: TableId) -> Vec<Vec<ColumnId>> {
        let mut orders: Vec<Vec<ColumnId>> = Vec::new();
        let mut add = |o: Vec<ColumnId>| {
            if !o.is_empty() && !orders.contains(&o) {
                orders.push(o);
            }
        };
        // ORDER BY prefix belonging to this table (only a *leading* prefix of
        // the ORDER BY can be satisfied by a single table's access order).
        let ob: Vec<ColumnId> =
            self.order_by.iter().take_while(|c| c.table == table).map(|c| c.column).collect();
        add(ob);
        // GROUP BY columns on this table (any order helps sort-based grouping;
        // we use catalog order for determinism).
        let gb: Vec<ColumnId> =
            self.group_by.iter().filter(|c| c.table == table).map(|c| c.column).collect();
        add(gb);
        // Join columns, one order per incident edge.
        for j in self.joins_on(table) {
            let (local, _) = j.side(table).expect("edge is incident");
            add(vec![local.column]);
        }
        orders
    }
}

/// An UPDATE statement, modeled per §2 as query shell + update shell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStatement {
    /// The query shell `q_r`: selects the rows to be updated (single table).
    pub shell: Query,
    /// Columns assigned by the SET clause.
    pub set_columns: Vec<ColumnId>,
}

impl UpdateStatement {
    pub fn table(&self) -> TableId {
        self.shell.tables[0]
    }

    /// Is index `ix` affected by this update (must be maintained)?
    ///
    /// An index on the updated table pays maintenance if it materializes any
    /// SET column (entry re-write) — clustered indexes always pay because the
    /// row itself is stored in them.
    pub fn affects(&self, ix: &cophy_catalog::Index) -> bool {
        ix.table == self.table()
            && (ix.is_clustered() || self.set_columns.iter().any(|c| ix.contains(*c)))
    }

    pub fn validate(&self) -> Result<(), String> {
        self.shell.validate()?;
        if self.shell.tables.len() != 1 {
            return Err("update shell must reference exactly one table".into());
        }
        if self.set_columns.is_empty() {
            return Err("update must set at least one column".into());
        }
        Ok(())
    }
}

/// A workload statement: SELECT or UPDATE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    Select(Query),
    Update(UpdateStatement),
}

impl Statement {
    /// The SELECT body or the UPDATE's query shell — the part INUM processes.
    pub fn read_shell(&self) -> &Query {
        match self {
            Statement::Select(q) => q,
            Statement::Update(u) => &u.shell,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        match self {
            Statement::Select(q) => q.validate(),
            Statement::Update(u) => u.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;

    fn schema() -> Schema {
        TpchGen::default().schema()
    }

    fn cr(s: &Schema, q: &str) -> ColumnRef {
        s.resolve(q).unwrap()
    }

    #[test]
    fn validate_rejects_duplicate_tables() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query { tables: vec![li, li], ..Default::default() };
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_foreign_columns() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query {
            tables: vec![li],
            projections: vec![cr(&s, "orders.o_orderdate")],
            ..Default::default()
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_disconnected_join_graph() {
        let s = schema();
        let ord = s.table_by_name("orders").unwrap().id;
        let li = s.table_by_name("lineitem").unwrap().id;
        let cust = s.table_by_name("customer").unwrap().id;
        // `FROM orders, lineitem` with no edge.
        let cross = Query { tables: vec![ord, li], ..Default::default() };
        assert!(cross.validate().unwrap_err().contains("2 components"));
        // One edge over three tables leaves the third apart; the second edge
        // connects it.
        let mut q = Query {
            tables: vec![cust, ord, li],
            joins: vec![Join::new(cr(&s, "orders.o_orderkey"), cr(&s, "lineitem.l_orderkey"))],
            ..Default::default()
        };
        assert!(q.validate().is_err());
        q.joins.push(Join::new(cr(&s, "customer.c_custkey"), cr(&s, "orders.o_custkey")));
        assert_eq!(q.validate(), Ok(()));
    }

    #[test]
    fn validate_bounds_the_table_count() {
        assert!(Query::default().validate().is_err(), "no table at all");
        // A chain of distinct tables joined left to right: valid up to the
        // DP's bitmask width, rejected one past it.
        let chain = |n: u32| {
            let key = |t: u32| ColumnRef::new(TableId(t), ColumnId(0));
            Query {
                tables: (0..n).map(TableId).collect(),
                joins: (1..n).map(|t| Join::new(key(t - 1), key(t))).collect(),
                ..Default::default()
            }
        };
        assert_eq!(chain(MAX_TABLES as u32).validate(), Ok(()));
        assert!(chain(MAX_TABLES as u32 + 1).validate().unwrap_err().contains("17 tables"));
    }

    #[test]
    fn generated_statements_validate() {
        let s = schema();
        for seed in [1, 2, 3] {
            for w in [
                crate::HomGen::new(seed).generate(&s, 45),
                crate::HetGen::new(seed).generate(&s, 200),
                crate::UpdateGen::new(seed).generate(&s, 60),
            ] {
                assert_eq!(w.validate(), Ok(()), "seed {seed}");
            }
        }
    }

    #[test]
    fn join_query_validates() {
        let s = schema();
        let q = Query {
            tables: vec![
                s.table_by_name("orders").unwrap().id,
                s.table_by_name("lineitem").unwrap().id,
            ],
            projections: vec![cr(&s, "orders.o_orderdate")],
            predicates: vec![Predicate::lt(cr(&s, "lineitem.l_shipdate"), 100.0)],
            joins: vec![Join::new(cr(&s, "orders.o_orderkey"), cr(&s, "lineitem.l_orderkey"))],
            ..Default::default()
        };
        assert!(q.validate().is_ok());
        let li = s.table_by_name("lineitem").unwrap().id;
        assert_eq!(q.predicates_on(li).count(), 1);
        assert_eq!(q.joins_on(li).count(), 1);
    }

    #[test]
    fn selectivity_product_and_bounds() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query {
            tables: vec![li],
            predicates: vec![
                Predicate::between(cr(&s, "lineitem.l_shipdate"), 0.0, 365.0),
                Predicate::eq(cr(&s, "lineitem.l_returnflag"), 1.0),
            ],
            ..Default::default()
        };
        let sel = q.local_selectivity(&s, li);
        assert!(sel > 0.0 && sel < 1.0);
        let each: f64 = q.predicates_on(li).map(|p| p.selectivity(&s)).product();
        assert!((sel - each).abs() < 1e-12);
    }

    #[test]
    fn columns_used_deduplicates() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = cr(&s, "lineitem.l_shipdate");
        let q = Query {
            tables: vec![li],
            projections: vec![sd],
            predicates: vec![Predicate::lt(sd, 10.0)],
            order_by: vec![sd],
            ..Default::default()
        };
        assert_eq!(q.columns_used_on(li), vec![sd.column]);
    }

    #[test]
    fn interesting_orders_cover_order_group_join() {
        let s = schema();
        let ord = s.table_by_name("orders").unwrap().id;
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query {
            tables: vec![ord, li],
            joins: vec![Join::new(cr(&s, "orders.o_orderkey"), cr(&s, "lineitem.l_orderkey"))],
            group_by: vec![cr(&s, "lineitem.l_returnflag")],
            order_by: vec![cr(&s, "orders.o_orderdate")],
            ..Default::default()
        };
        let io_ord = q.interesting_orders_on(ord);
        // order-by prefix + join column
        assert!(io_ord.contains(&vec![cr(&s, "orders.o_orderdate").column]));
        assert!(io_ord.contains(&vec![cr(&s, "orders.o_orderkey").column]));
        let io_li = q.interesting_orders_on(li);
        assert!(io_li.contains(&vec![cr(&s, "lineitem.l_returnflag").column]));
        assert!(io_li.contains(&vec![cr(&s, "lineitem.l_orderkey").column]));
        // ORDER BY belongs to orders, so lineitem gets no order-by entry.
        assert_eq!(io_li.len(), 2);
    }

    #[test]
    fn update_affects_indexes_with_set_columns() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let qty = cr(&s, "lineitem.l_quantity").column;
        let tax = cr(&s, "lineitem.l_tax").column;
        let upd = UpdateStatement {
            shell: Query {
                tables: vec![li],
                predicates: vec![Predicate::eq(cr(&s, "lineitem.l_orderkey"), 42.0)],
                ..Default::default()
            },
            set_columns: vec![qty],
        };
        assert!(upd.validate().is_ok());
        let with_qty = cophy_catalog::Index::secondary(li, vec![qty]);
        let with_tax = cophy_catalog::Index::secondary(li, vec![tax]);
        let clustered = cophy_catalog::Index::clustered(li, vec![tax]);
        assert!(upd.affects(&with_qty));
        assert!(!upd.affects(&with_tax));
        assert!(upd.affects(&clustered));
        // index on a different table is never affected
        let other =
            cophy_catalog::Index::secondary(s.table_by_name("orders").unwrap().id, vec![qty]);
        assert!(!upd.affects(&other));
    }

    #[test]
    fn statement_shell_access() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let sel = Statement::Select(q.clone());
        assert!(matches!(sel, Statement::Select(_)));
        assert_eq!(sel.read_shell(), &q);
    }
}
