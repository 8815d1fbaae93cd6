//! Per-statement feature extraction for workload compression.
//!
//! Large workloads are dominated by *statements that differ only in their
//! constants* (the paper's `W_hom` is fifteen templates instantiated
//! thousands of times).  Compression clusters such statements and tunes a
//! weighted representative set; this module provides the signal it clusters
//! on:
//!
//! * [`TemplateKey`] — the structural shell of a statement with constants
//!   erased: tables touched, sargable columns and their comparison shapes,
//!   join edges, GROUP BY / ORDER BY interesting orders, projections,
//!   aggregates, and the update footprint (SET columns).  Two statements with
//!   different template keys never cluster together.
//! * [`ShellKey`] — the statement's constants *under its template*, in
//!   encoding order and bit-exact (`-0.0` and `0.0` differ).  The pair
//!   (template, constants) identifies the exact shell, and is what lossless
//!   exact-duplicate merging keys on; the constants alone do not (two
//!   templates may share them).
//! * [`StatementFeatures`] — both keys plus the numeric features that vary
//!   within a template: per-predicate selectivities against the catalog
//!   statistics and the estimated update row footprint.
//!
//! [`StatementFeatures::distance`] is the template-aware metric the greedy
//! ε-bounded agglomeration uses: `∞` across different templates, `0` exactly
//! for identical shells, and otherwise the largest absolute selectivity
//! deviation (plus the relative update-footprint deviation), clamped
//! positive so that `ε = 0` merges nothing but exact duplicates.
//!
//! # Why the pair is the shell
//!
//! The exact shell is one word stream: every structural word, with each
//! constant spliced in where the encoder meets it.  Only comparison
//! predicates carry constants, and each one follows its operator's tag word,
//! which fixes how many come next: one for `=`, `<` and `>` (tags 0–2), two
//! for `BETWEEN` (tag 3).  Nothing else sits between a tag and its
//! constants.  So the template stream fixes every position at which the
//! shell holds a constant, and splicing the constants back in at those
//! positions rebuilds the shell: equal (template, constants) pairs ⇔ equal
//! shells.  The index keeps the two apart so that a duplicate test hashes a
//! few constants under a template it has already found, not a whole shell.

use serde::{Deserialize, Serialize};

use cophy_catalog::{ColumnRef, Schema};

use crate::query::{Aggregate, PredOp, Query, Statement};

/// Structural shell signature of a statement with constants erased.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TemplateKey(Vec<u64>);

/// The constants of a statement under its [`TemplateKey`], in encoding
/// order and bit-exact: together with the template, the exact shell (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ShellKey(Vec<u64>);

/// The clustering features of one statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatementFeatures {
    pub template: TemplateKey,
    pub shell: ShellKey,
    /// Per-predicate selectivities of the read shell, in predicate order
    /// (statements with equal [`TemplateKey`]s have aligned predicate lists).
    pub selectivities: Vec<f64>,
    /// Estimated rows touched by the update shell (0 for SELECTs).
    pub update_rows: f64,
}

impl StatementFeatures {
    /// Extract the features of `stmt` against the catalog statistics.
    pub fn extract(schema: &Schema, stmt: &Statement) -> StatementFeatures {
        let q = stmt.read_shell();
        let selectivities = q.predicates.iter().map(|p| p.selectivity(schema)).collect();
        let update_rows = match stmt {
            Statement::Select(_) => 0.0,
            Statement::Update(u) => {
                let t = schema.table(u.table());
                (q.local_selectivity(schema, u.table()) * t.rows as f64).max(1.0)
            }
        };
        let (template, shell) = keys(stmt);
        StatementFeatures { template, shell, selectivities, update_rows }
    }

    /// Template-aware clustering distance.
    ///
    /// * `∞` if the structural templates differ (never cluster),
    /// * `0` exactly when the shells are identical (exact duplicates: equal
    ///   templates and equal constants),
    /// * otherwise `max(largest |Δselectivity|, relative Δupdate-rows)`,
    ///   clamped to a positive value — so a threshold of `0` merges exact
    ///   duplicates and nothing else.
    pub fn distance(&self, other: &StatementFeatures) -> f64 {
        if self.template != other.template {
            return f64::INFINITY;
        }
        if self.shell == other.shell {
            return 0.0;
        }
        debug_assert_eq!(
            self.selectivities.len(),
            other.selectivities.len(),
            "equal templates must have aligned predicate lists"
        );
        let mut d = 0.0f64;
        for (a, b) in self.selectivities.iter().zip(other.selectivities.iter()) {
            d = d.max((a - b).abs());
        }
        let rows = self.update_rows.max(other.update_rows);
        if rows > 0.0 {
            d = d.max((self.update_rows - other.update_rows).abs() / rows.max(1.0));
        }
        // Distinct shells are never at distance zero.
        d.max(f64::MIN_POSITIVE)
    }
}

impl Statement {
    /// The clustering features of this statement (see [`StatementFeatures`]).
    pub fn features(&self, schema: &Schema) -> StatementFeatures {
        StatementFeatures::extract(schema, self)
    }
}

/// Both keys of `stmt` in one traversal (the hot path of compression —
/// called once per absorbed statement).  Together they are the exact shell:
/// key an exact-duplicate index by the pair, or by the constants only under
/// one template.
pub(crate) fn keys(stmt: &Statement) -> (TemplateKey, ShellKey) {
    let e = encode(stmt);
    (TemplateKey(e.template), ShellKey(e.shell))
}

/// The structural template key of `stmt` (constants erased).
pub fn template_key(stmt: &Statement) -> TemplateKey {
    keys(stmt).0
}

/// Word-stream encoder emitting both keys in one pass: structural words go
/// to the template stream, constants to the shell stream.  Every section is
/// tagged and length-prefixed so that sections cannot alias each other.
struct Enc {
    template: Vec<u64>,
    shell: Vec<u64>,
    /// The one-stream shell — structural words and constants interleaved —
    /// that the pair must be equivalent to.
    #[cfg(test)]
    oracle: Vec<u64>,
}

impl Enc {
    /// Sized for `stmt`: the constants stream exactly, since an index may
    /// keep it for as long as the clustering lives.
    fn new(stmt: &Statement) -> Enc {
        let constants = stmt
            .read_shell()
            .predicates
            .iter()
            .map(|p| if matches!(p.op, PredOp::Between(..)) { 2 } else { 1 })
            .sum();
        Enc {
            template: Vec::with_capacity(24),
            shell: Vec::with_capacity(constants),
            #[cfg(test)]
            oracle: Vec::new(),
        }
    }

    fn word(&mut self, w: u64) {
        self.template.push(w);
        #[cfg(test)]
        self.oracle.push(w);
    }

    fn section(&mut self, tag: u64, len: usize) {
        self.word((tag << 32) | len as u64);
    }

    fn col(&mut self, c: &ColumnRef) {
        self.word(((c.table.0 as u64) << 32) | c.column.0 as u64);
    }

    /// A constant: part of the shell, erased from the template.
    fn constant(&mut self, v: f64) {
        self.shell.push(v.to_bits());
        #[cfg(test)]
        self.oracle.push(v.to_bits());
    }
}

fn encode_query(e: &mut Enc, q: &Query) {
    e.section(1, q.tables.len());
    for t in &q.tables {
        e.word(t.0 as u64);
    }
    e.section(2, q.predicates.len());
    for p in &q.predicates {
        e.col(&p.column);
        match p.op {
            PredOp::Eq(v) => {
                e.word(0);
                e.constant(v);
            }
            PredOp::Lt(v) => {
                e.word(1);
                e.constant(v);
            }
            PredOp::Gt(v) => {
                e.word(2);
                e.constant(v);
            }
            PredOp::Between(a, b) => {
                e.word(3);
                e.constant(a);
                e.constant(b);
            }
        }
    }
    e.section(3, q.joins.len());
    for j in &q.joins {
        e.col(&j.left);
        e.col(&j.right);
    }
    e.section(4, q.projections.len());
    for c in &q.projections {
        e.col(c);
    }
    e.section(5, q.group_by.len());
    for c in &q.group_by {
        e.col(c);
    }
    e.section(6, q.order_by.len());
    for c in &q.order_by {
        e.col(c);
    }
    e.section(7, q.aggregates.len());
    for Aggregate { func, column } in &q.aggregates {
        e.word(*func as u64);
        match column {
            Some(c) => e.col(c),
            None => e.word(u64::MAX),
        }
    }
}

fn encode(stmt: &Statement) -> Enc {
    let mut e = Enc::new(stmt);
    match stmt {
        Statement::Select(q) => {
            e.section(0, 0);
            encode_query(&mut e, q);
        }
        Statement::Update(u) => {
            e.section(8, u.set_columns.len());
            for c in &u.set_columns {
                e.word(c.0 as u64);
            }
            encode_query(&mut e, &u.shell);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_hom::HomGen;
    use crate::query::{Predicate, UpdateStatement};
    use crate::{HetGen, UpdateGen, Workload};
    use cophy_catalog::TpchGen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        TpchGen::default().schema()
    }

    /// The one-stream shell: structural words with the constants spliced in.
    fn oracle_shell(stmt: &Statement) -> Vec<u64> {
        encode(stmt).oracle
    }

    /// Whether `a` and `b` have equal shells, after checking that the pair of
    /// keys says the same as the one-stream oracle.
    fn same_shell(a: &Statement, b: &Statement) -> bool {
        let same = oracle_shell(a) == oracle_shell(b);
        assert_eq!(keys(a) == keys(b), same, "{a:?} vs {b:?}");
        same
    }

    /// `stmt` under the same template, each constant kept or, one time in
    /// four, replaced from a small set that holds both zeros — so a variant
    /// often has its original's shell and often differs from it in one place.
    fn variant(stmt: &Statement, rng: &mut SmallRng) -> Statement {
        const VALUES: [f64; 4] = [0.0, -0.0, 1.0, 2.0];
        let mut pick =
            |v: f64| if rng.gen_range(0..4) == 0 { VALUES[rng.gen_range(0..4)] } else { v };
        let mut out = stmt.clone();
        let predicates = match &mut out {
            Statement::Select(q) => &mut q.predicates,
            Statement::Update(u) => &mut u.shell.predicates,
        };
        for p in predicates {
            p.op = match p.op {
                PredOp::Eq(v) => PredOp::Eq(pick(v)),
                PredOp::Lt(v) => PredOp::Lt(pick(v)),
                PredOp::Gt(v) => PredOp::Gt(pick(v)),
                PredOp::Between(a, b) => PredOp::Between(pick(a), pick(b)),
            };
        }
        out
    }

    #[test]
    fn the_pair_is_the_shell() {
        let s = schema();
        let mut rng = SmallRng::seed_from_u64(0x5E11);
        let (mut equal, mut pairs) = (0, 0);
        for seed in 0..6 {
            let pool: Vec<Statement> = [
                HomGen::new(seed).generate(&s, 30),
                HetGen::new(seed).generate(&s, 30),
                UpdateGen::new(seed).generate(&s, 30),
            ]
            .iter()
            .flat_map(|w| w.iter().map(|(_, stmt, _)| stmt.clone()).collect::<Vec<_>>())
            .collect();
            // Within one template: each statement against variants of itself.
            for a in &pool {
                for _ in 0..3 {
                    let b = variant(a, &mut rng);
                    assert_eq!(template_key(a), template_key(&b));
                    equal += usize::from(same_shell(a, &b));
                    pairs += 1;
                }
            }
            // And every pair of the pool, within a template or across two.
            for (i, a) in pool.iter().enumerate() {
                for b in &pool[i + 1..] {
                    equal += usize::from(same_shell(a, b));
                    pairs += 1;
                }
            }
        }
        assert!(0 < equal && equal < pairs, "{equal} equal shells in {pairs} pairs");
    }

    #[test]
    fn the_pair_separates_what_the_constants_alone_do_not() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let od = s.resolve("orders.o_orderdate").unwrap();
        let ok = s.resolve("lineitem.l_orderkey").unwrap();
        let select = |p: Predicate| {
            let mut q = Query::scan(p.column.table);
            q.predicates.push(p);
            Statement::Select(q)
        };
        let update = {
            let mut shell = Query::scan(li);
            shell.predicates.push(Predicate::eq(ok, 7.0));
            Statement::Update(UpdateStatement { shell, set_columns: vec![ok.column] })
        };
        let cases = [
            (select(Predicate::lt(sd, 0.0)), select(Predicate::lt(sd, -0.0)), false),
            (
                select(Predicate::between(sd, 10.0, 20.0)),
                select(Predicate::between(sd, 20.0, 10.0)),
                false,
            ),
            (select(Predicate::lt(sd, 10.0)), select(Predicate::lt(od, 10.0)), false),
            (update.clone(), Statement::Select(update.read_shell().clone()), false),
            (select(Predicate::lt(sd, 10.0)), select(Predicate::lt(sd, 10.0)), true),
        ];
        for (a, b, same) in cases {
            assert_eq!(same_shell(&a, &b), same, "{a:?} vs {b:?}");
            let mut w = Workload::new();
            w.push(a.clone());
            w.push(b.clone());
            assert_eq!(w.dedup_by_shell().len(), if same { 1 } else { 2 }, "{a:?} vs {b:?}");
        }
        // Two templates with the same constants: only the template tells them
        // apart, in the keys and in `dedup_by_shell`.
        let (a, b) = (select(Predicate::lt(sd, 10.0)), select(Predicate::lt(od, 10.0)));
        assert_eq!(keys(&a).1, keys(&b).1);
        assert_eq!(keys(&update).1, keys(&Statement::Select(update.read_shell().clone())).1);
    }

    #[test]
    fn same_template_different_constants_share_template_key() {
        let s = schema();
        let gen = HomGen::new(5);
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..HomGen::TEMPLATES {
            let a = Statement::Select(gen.instantiate(&s, t, &mut rng));
            let b = Statement::Select(gen.instantiate(&s, t, &mut rng));
            assert_eq!(template_key(&a), template_key(&b), "template {t}");
        }
    }

    #[test]
    fn different_templates_have_different_keys_and_infinite_distance() {
        let s = schema();
        let gen = HomGen::new(5);
        let mut rng = SmallRng::seed_from_u64(2);
        let stmts: Vec<Statement> = (0..HomGen::TEMPLATES)
            .map(|t| Statement::Select(gen.instantiate(&s, t, &mut rng)))
            .collect();
        for i in 0..stmts.len() {
            for j in (i + 1)..stmts.len() {
                assert_ne!(template_key(&stmts[i]), template_key(&stmts[j]), "{i} vs {j}");
                let fi = stmts[i].features(&s);
                let fj = stmts[j].features(&s);
                assert!(fi.distance(&fj).is_infinite());
            }
        }
    }

    #[test]
    fn shell_key_separates_constants_distance_is_positive_and_bounded() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let mk = |v: f64| {
            let mut q = Query::scan(li);
            q.predicates.push(Predicate::lt(sd, v));
            Statement::Select(q)
        };
        let (a, b) = (mk(100.0), mk(900.0));
        assert_eq!(template_key(&a), template_key(&b));
        assert_ne!(keys(&a).1, keys(&b).1);
        let (fa, fb) = (a.features(&s), b.features(&s));
        let d = fa.distance(&fb);
        assert!(d > 0.0 && d <= 1.0, "selectivity distance in (0, 1]: {d}");
        assert_eq!(fa.distance(&fa), 0.0, "identical shells are at distance 0");
    }

    #[test]
    fn update_set_columns_split_templates() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let ok = s.resolve("lineitem.l_orderkey").unwrap();
        let mk = |set: Vec<cophy_catalog::ColumnId>| {
            let mut shell = Query::scan(li);
            shell.predicates.push(Predicate::eq(ok, 7.0));
            Statement::Update(UpdateStatement { shell, set_columns: set })
        };
        let a = mk(vec![cophy_catalog::ColumnId(4)]);
        let b = mk(vec![cophy_catalog::ColumnId(6)]);
        assert_ne!(template_key(&a), template_key(&b));
        // An update and its read shell are different templates too.
        let sel = {
            let mut q = Query::scan(li);
            q.predicates.push(Predicate::eq(ok, 7.0));
            Statement::Select(q)
        };
        assert_ne!(template_key(&a), template_key(&sel));
    }

    #[test]
    fn update_rows_feature_tracks_selectivity() {
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let ok = s.resolve("lineitem.l_orderkey").unwrap();
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let point = {
            let mut shell = Query::scan(li);
            shell.predicates.push(Predicate::eq(ok, 7.0));
            Statement::Update(UpdateStatement { shell, set_columns: vec![ok.column] })
        };
        let range = {
            let mut shell = Query::scan(li);
            shell.predicates.push(Predicate::between(sd, 0.0, 1000.0));
            Statement::Update(UpdateStatement { shell, set_columns: vec![ok.column] })
        };
        let fp = point.features(&s);
        let fr = range.features(&s);
        assert!(fp.update_rows >= 1.0);
        assert!(fr.update_rows > fp.update_rows, "range update touches more rows");
        // SELECTs carry no update footprint.
        let sel = Statement::Select(Query::scan(li)).features(&s);
        assert_eq!(sel.update_rows, 0.0);
    }
}
