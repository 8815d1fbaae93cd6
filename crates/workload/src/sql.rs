//! SQL pretty-printing for the query IR.
//!
//! Purely for human consumption: examples, logs and the bench harness print
//! statements in a familiar form.  Numeric constants that stand for
//! dictionary-encoded strings/dates are printed as-is.

use std::fmt::Write as _;

use cophy_catalog::{ColumnRef, Schema};

use crate::query::{AggFunc, PredOp, Query, Statement, UpdateStatement};

fn col(schema: &Schema, c: ColumnRef) -> String {
    let t = schema.table(c.table);
    format!("{}.{}", t.name, t.column(c.column).name)
}

/// Render a SELECT query as SQL text.
pub(crate) fn format_query(schema: &Schema, q: &Query) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("SELECT ");
    let mut items: Vec<String> = q.projections.iter().map(|c| col(schema, *c)).collect();
    for g in &q.group_by {
        let g = col(schema, *g);
        if !items.contains(&g) {
            items.push(g);
        }
    }
    for a in &q.aggregates {
        let f = match a.func {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Count => "COUNT",
        };
        match &a.column {
            Some(c) => items.push(format!("{f}({})", col(schema, *c))),
            None => items.push("COUNT(*)".to_string()),
        }
    }
    if items.is_empty() {
        items.push("*".to_string());
    }
    out.push_str(&items.join(", "));

    out.push_str("\nFROM ");
    let tables: Vec<&str> = q.tables.iter().map(|t| schema.table(*t).name.as_str()).collect();
    out.push_str(&tables.join(", "));

    let mut conds: Vec<String> = Vec::new();
    for j in &q.joins {
        conds.push(format!("{} = {}", col(schema, j.left), col(schema, j.right)));
    }
    for p in &q.predicates {
        let c = col(schema, p.column);
        match p.op {
            PredOp::Eq(v) => conds.push(format!("{c} = {v}")),
            PredOp::Lt(v) => conds.push(format!("{c} < {v}")),
            PredOp::Gt(v) => conds.push(format!("{c} > {v}")),
            PredOp::Between(a, b) => conds.push(format!("{c} BETWEEN {a} AND {b}")),
        }
    }
    if !conds.is_empty() {
        let _ = write!(out, "\nWHERE {}", conds.join("\n  AND "));
    }
    if !q.group_by.is_empty() {
        let g: Vec<String> = q.group_by.iter().map(|c| col(schema, *c)).collect();
        let _ = write!(out, "\nGROUP BY {}", g.join(", "));
    }
    if !q.order_by.is_empty() {
        let o: Vec<String> = q.order_by.iter().map(|c| col(schema, *c)).collect();
        let _ = write!(out, "\nORDER BY {}", o.join(", "));
    }
    out
}

/// Render an UPDATE statement as SQL text.
pub(crate) fn format_update(schema: &Schema, u: &UpdateStatement) -> String {
    let t = schema.table(u.table());
    let sets: Vec<String> =
        u.set_columns.iter().map(|c| format!("{} = ?", t.column(*c).name)).collect();
    let mut out = format!("UPDATE {}\nSET {}", t.name, sets.join(", "));
    let conds: Vec<String> = u
        .shell
        .predicates
        .iter()
        .map(|p| {
            let c = col(schema, p.column);
            match p.op {
                PredOp::Eq(v) => format!("{c} = {v}"),
                PredOp::Lt(v) => format!("{c} < {v}"),
                PredOp::Gt(v) => format!("{c} > {v}"),
                PredOp::Between(a, b) => format!("{c} BETWEEN {a} AND {b}"),
            }
        })
        .collect();
    if !conds.is_empty() {
        let _ = write!(out, "\nWHERE {}", conds.join(" AND "));
    }
    out
}

/// Render any statement.
pub fn format_statement(schema: &Schema, s: &Statement) -> String {
    match s {
        Statement::Select(q) => format_query(schema, q),
        Statement::Update(u) => format_update(schema, u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_hom::HomGen;
    use crate::gen_update::UpdateGen;
    use cophy_catalog::TpchGen;

    #[test]
    fn select_contains_clauses() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(1).generate(&s, 15);
        let mut saw_group = false;
        let mut saw_order = false;
        for (_, stmt, _) in w.iter() {
            let sql = format_statement(&s, stmt);
            assert!(sql.starts_with("SELECT"));
            assert!(sql.contains("FROM"));
            saw_group |= sql.contains("GROUP BY");
            saw_order |= sql.contains("ORDER BY");
        }
        assert!(saw_group && saw_order);
    }

    #[test]
    fn update_format() {
        let s = TpchGen::default().schema();
        let w = UpdateGen::new(1).generate(&s, 5);
        for (_, stmt, _) in w.iter() {
            let sql = format_statement(&s, stmt);
            assert!(sql.starts_with("UPDATE"));
            assert!(sql.contains("SET"));
            assert!(sql.contains("WHERE"));
        }
    }

    #[test]
    fn empty_projection_prints_star() {
        let s = TpchGen::default().schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let sql = format_query(&s, &q);
        assert!(sql.contains('*'));
    }
}
