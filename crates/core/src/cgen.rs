//! CGen: candidate-index generation (paper §4).
//!
//! CoPhy's candidate generator deliberately applies **no aggressive pruning**
//! — the BIP solver can cope with thousands of candidates (the paper runs
//! 1933 and even 10 000), so CGen only uses "more or less well known
//! heuristics" to propose per-query candidates and unions them:
//!
//! * single-column indexes on predicate / join / group / order columns,
//! * equality-prefix + range composites,
//! * order-delivering composites (eq prefix + ORDER BY / GROUP BY columns),
//! * join-column composites with selective predicate columns,
//! * covering variants (INCLUDE payload for index-only plans).
//!
//! The DBA may merge hand-curated indexes via [`CandidateSet::extend`], and
//! [`CandidateSet::pad_random`] reproduces the paper's `S_L` (10k random
//! candidates) stress set.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cophy_catalog::{ColumnId, Index, IndexId, Schema};
use cophy_workload::{Query, Statement, Workload};

/// Limits for candidate generation.
#[derive(Debug, Clone)]
pub struct CGen {
    /// Maximum key columns of a generated composite.
    pub max_key_columns: usize,
    /// Maximum INCLUDE columns of covering variants (0 disables covering).
    pub max_include_columns: usize,
}

impl Default for CGen {
    fn default() -> Self {
        CGen { max_key_columns: 3, max_include_columns: 14 }
    }
}

/// The candidate set `S = S_1 ∪ … ∪ S_n`, with dense [`IndexId`]s.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    indexes: Vec<Index>,
    sizes: Vec<u64>,
    /// Definition → id, so that `insert` deduplicates without scanning
    /// `indexes` (quadratic at the paper's 10k-candidate `S_L`).
    ids: HashMap<Index, IndexId>,
}

impl CandidateSet {
    pub fn new() -> Self {
        CandidateSet::default()
    }

    /// Add an index if not already present; returns its id.
    pub fn insert(&mut self, schema: &Schema, ix: Index) -> IndexId {
        match self.ids.entry(ix) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(slot) => {
                let id = IndexId(self.indexes.len() as u32);
                self.sizes.push(slot.key().size_bytes(schema));
                self.indexes.push(slot.key().clone());
                *slot.insert(id)
            }
        }
    }

    pub fn extend(&mut self, schema: &Schema, extra: impl IntoIterator<Item = Index>) {
        for ix in extra {
            self.insert(schema, ix);
        }
    }

    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    pub fn get(&self, id: IndexId) -> &Index {
        &self.indexes[id.0 as usize]
    }

    /// The id of `ix`, if it is a candidate.
    pub(crate) fn id_of(&self, ix: &Index) -> Option<IndexId> {
        self.ids.get(ix).copied()
    }

    pub fn size_bytes(&self, id: IndexId) -> u64 {
        self.sizes[id.0 as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = (IndexId, &Index)> {
        self.indexes.iter().enumerate().map(|(i, ix)| (IndexId(i as u32), ix))
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Keep only the first `n` candidates (the paper's `S_500`, `S_1000`
    /// subsets of `S_ALL`).
    pub fn truncate(&self, n: usize) -> CandidateSet {
        let indexes: Vec<Index> = self.indexes.iter().take(n).cloned().collect();
        CandidateSet {
            sizes: self.sizes.iter().take(n).copied().collect(),
            ids: indexes.iter().zip(0..).map(|(ix, i)| (ix.clone(), IndexId(i))).collect(),
            indexes,
        }
    }

    /// Pad with random single/two-column indexes up to `total` candidates
    /// (the paper's `S_L` with 10k indices).
    pub fn pad_random(&mut self, schema: &Schema, total: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut guard = 0;
        while self.len() < total && guard < total * 50 {
            guard += 1;
            let t = &schema.tables()[rng.gen_range(0..schema.n_tables())];
            let nc = t.columns.len() as u32;
            let mut key = vec![ColumnId(rng.gen_range(0..nc))];
            if rng.gen_bool(0.5) {
                let extra = ColumnId(rng.gen_range(0..nc));
                if !key.contains(&extra) {
                    key.push(extra);
                }
            }
            self.insert(schema, Index::secondary(t.id, key));
        }
    }
}

impl CGen {
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate the union of per-query candidates for a workload.
    ///
    /// Candidate enumeration only looks at the structural shell of each
    /// statement (tables, sargable columns and their comparison shapes, join
    /// edges, interesting orders, projections) — exactly what
    /// [`cophy_workload::TemplateKey`] captures with constants
    /// erased.  Statements sharing a template therefore propose identical
    /// candidates, and the expensive per-query expansion runs once per
    /// *template* rather than once per statement.  The resulting
    /// [`CandidateSet`] is byte-identical to the naive per-statement loop:
    /// the first occurrence of a template inserts all of its candidates in
    /// order, and repeats would only re-insert duplicates that
    /// [`CandidateSet::insert`] drops anyway.
    pub fn generate(&self, schema: &Schema, w: &Workload) -> CandidateSet {
        self.propose(schema, w.iter().map(|(_, stmt, _)| stmt)).0
    }

    /// [`Self::generate`] over statements wherever they live (the ingest
    /// proposes for the cluster-opening statements of a chunk without
    /// copying them into a workload), plus the number of per-query
    /// expansions actually performed (== number of distinct statement
    /// templates).
    pub(crate) fn propose<'a>(
        &self,
        schema: &Schema,
        statements: impl IntoIterator<Item = &'a Statement>,
    ) -> (CandidateSet, usize) {
        let mut set = CandidateSet::new();
        let mut seen = HashSet::new();
        let mut expansions = 0usize;
        for stmt in statements {
            if seen.insert(cophy_workload::template_key(stmt)) {
                self.per_query(schema, stmt.read_shell(), &mut set);
                expansions += 1;
            }
        }
        (set, expansions)
    }

    /// Candidates proposed by one query.
    pub fn per_query(&self, schema: &Schema, q: &Query, out: &mut CandidateSet) {
        for &t in &q.tables {
            let eq_cols = q.eq_columns_on(t);
            let range_cols: Vec<ColumnId> =
                q.predicates_on(t).filter(|p| !p.is_eq()).map(|p| p.column.column).collect();
            let join_cols: Vec<ColumnId> =
                q.joins_on(t).filter_map(|j| j.side(t)).map(|(l, _)| l.column).collect();
            let group_cols: Vec<ColumnId> =
                q.group_by.iter().filter(|c| c.table == t).map(|c| c.column).collect();
            let order_cols: Vec<ColumnId> =
                q.order_by.iter().take_while(|c| c.table == t).map(|c| c.column).collect();
            let used = q.columns_used_on(t);

            // 1. Single-column candidates on every interesting column.
            for c in eq_cols
                .iter()
                .chain(range_cols.iter())
                .chain(join_cols.iter())
                .chain(group_cols.iter())
                .chain(order_cols.iter())
            {
                out.insert(schema, Index::secondary(t, vec![*c]));
            }

            // 2. Equality prefix (+ range column).
            if !eq_cols.is_empty() {
                let key = self.clip(eq_cols.clone());
                out.insert(schema, Index::secondary(t, key.clone()));
                if let Some(r) = range_cols.first() {
                    let mut k2 = key.clone();
                    if !k2.contains(r) {
                        k2.push(*r);
                        out.insert(schema, Index::secondary(t, self.clip(k2)));
                    }
                }
            }

            // 3. Order-delivering composites: eq prefix + order/group columns.
            for target in [&order_cols, &group_cols] {
                if target.is_empty() {
                    continue;
                }
                let mut key = eq_cols.clone();
                for c in target {
                    if !key.contains(c) {
                        key.push(*c);
                    }
                }
                let key = self.clip(key);
                out.insert(schema, Index::secondary(t, key.clone()));
                // covering variant
                if self.max_include_columns > 0 {
                    let include: Vec<ColumnId> = used
                        .iter()
                        .filter(|c| !key.contains(c))
                        .take(self.max_include_columns)
                        .copied()
                        .collect();
                    if !include.is_empty() {
                        out.insert(schema, Index::covering(t, key.clone(), include));
                    }
                }
            }

            // 4. Join-column composites (merge-join enablers), optionally
            //    covering.
            for jc in &join_cols {
                let mut key = vec![*jc];
                if let Some(e) = eq_cols.first() {
                    if !key.contains(e) {
                        key.push(*e);
                    }
                }
                let key = self.clip(key);
                out.insert(schema, Index::secondary(t, key.clone()));
                if self.max_include_columns > 0 {
                    let include: Vec<ColumnId> = used
                        .iter()
                        .filter(|c| !key.contains(c))
                        .take(self.max_include_columns)
                        .copied()
                        .collect();
                    if !include.is_empty() {
                        out.insert(schema, Index::covering(t, key, include));
                    }
                }
            }

            // 5. Range column + covering payload (index-only range scans).
            if let Some(r) = range_cols.first() {
                if self.max_include_columns > 0 {
                    let include: Vec<ColumnId> = used
                        .iter()
                        .filter(|c| c != &r)
                        .take(self.max_include_columns)
                        .copied()
                        .collect();
                    if !include.is_empty() {
                        out.insert(schema, Index::covering(t, vec![*r], include));
                    }
                }
            }

            // 6. Pairwise composites over all interesting columns, both
            //    orders — CGen deliberately over-generates (no pruning, §4);
            //    the paper reaches 1933 candidates on W_hom-1000.
            let mut interesting: Vec<ColumnId> = Vec::new();
            for c in eq_cols
                .iter()
                .chain(range_cols.iter())
                .chain(join_cols.iter())
                .chain(group_cols.iter())
                .chain(order_cols.iter())
            {
                if !interesting.contains(c) {
                    interesting.push(*c);
                }
            }
            for &a in &interesting {
                for &b in &interesting {
                    if a == b {
                        continue;
                    }
                    out.insert(schema, Index::secondary(t, vec![a, b]));
                }
            }
            // A handful of width-3 composites anchored on equality columns.
            if self.max_key_columns >= 3 {
                for &a in eq_cols.iter().take(2) {
                    for &b in &interesting {
                        for &c in &interesting {
                            if a != b && b != c && a != c {
                                out.insert(schema, Index::secondary(t, vec![a, b, c]));
                            }
                        }
                    }
                }
            }
        }
    }

    fn clip(&self, mut key: Vec<ColumnId>) -> Vec<ColumnId> {
        key.truncate(self.max_key_columns);
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_workload::{HetGen, HomGen};

    #[test]
    fn generates_rich_candidate_set() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(1).generate(&s, 100);
        let set = CGen::default().generate(&s, &w);
        // The paper reports 1933 candidates for W_hom 1000; a 100-query
        // prefix should already produce a few hundred.
        assert!(set.len() >= 100, "only {} candidates", set.len());
        // all candidates well-formed
        for (_, ix) in set.iter() {
            assert!(!ix.key.is_empty());
            assert!(ix.key.len() <= 3);
        }
    }

    #[test]
    fn dedup_across_queries() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(2).generate(&s, 50);
        let set = CGen::default().generate(&s, &w);
        for (id_a, a) in set.iter() {
            for (id_b, b) in set.iter() {
                if id_a != id_b {
                    assert_ne!(a, b, "duplicate candidate");
                }
            }
        }
    }

    #[test]
    fn template_dedup_preserves_candidate_set() {
        let s = TpchGen::default().schema();
        // HomGen draws from a fixed template pool, so a 200-statement
        // workload repeats templates many times over.
        let w = HomGen::new(4).generate(&s, 200);
        let gen = CGen::default();

        // Naive per-statement loop (the pre-dedup behavior).
        let mut naive = CandidateSet::new();
        for (_, stmt, _) in w.iter() {
            gen.per_query(&s, stmt.read_shell(), &mut naive);
        }

        let (deduped, expansions) = gen.propose(&s, w.iter().map(|(_, stmt, _)| stmt));
        let distinct: std::collections::HashSet<_> =
            w.iter().map(|(_, stmt, _)| cophy_workload::template_key(stmt)).collect();
        assert_eq!(expansions, distinct.len());
        assert!(expansions < w.len(), "expected template repeats in W_hom");

        // Byte-identical: same candidates, same insertion order, same sizes.
        assert_eq!(deduped.len(), naive.len());
        for ((id_a, a), (id_b, b)) in deduped.iter().zip(naive.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(a, b);
            assert_eq!(deduped.size_bytes(id_a), naive.size_bytes(id_b));
        }
    }

    #[test]
    fn insert_assigns_the_ids_of_a_linear_scan() {
        let s = TpchGen::default().schema();
        let mut rng = SmallRng::seed_from_u64(41);
        // 2 000 inserts over a space small enough to repeat definitions.
        let draws: Vec<Index> = (0..2_000)
            .map(|_| {
                let t = &s.tables()[rng.gen_range(0..s.n_tables())];
                let nc = t.columns.len() as u32;
                let key =
                    (0..rng.gen_range(1..3)).map(|_| ColumnId(rng.gen_range(0..nc))).collect();
                Index::secondary(t.id, key)
            })
            .collect();
        let mut set = CandidateSet::new();
        let mut scan: Vec<&Index> = Vec::new();
        for ix in &draws {
            let expected = scan.iter().position(|seen| *seen == ix).unwrap_or_else(|| {
                scan.push(ix);
                scan.len() - 1
            });
            assert_eq!(set.insert(&s, ix.clone()), IndexId(expected as u32));
        }
        assert!(scan.len() < draws.len(), "the draws must contain duplicates");
        assert_eq!(set.len(), scan.len());
        assert!(set.iter().zip(&scan).all(|((_, a), b)| a == *b), "dense, in insertion order");

        // `truncate` and `extend` keep the map in step: a dropped definition
        // gets a fresh id at the end, a kept one its old id.
        let mut small = set.truncate(10);
        assert_eq!(small.insert(&s, scan[3].clone()), IndexId(3));
        assert_eq!(small.insert(&s, scan[10].clone()), IndexId(10));
        small.extend(&s, [scan[10].clone(), scan[12].clone()]);
        assert_eq!(small.len(), 12);
        assert_eq!(small.get(IndexId(11)), scan[12]);
    }

    #[test]
    fn truncate_and_pad() {
        let s = TpchGen::default().schema();
        let w = HetGen::new(3).generate(&s, 40);
        let set = CGen::default().generate(&s, &w);
        let small = set.truncate(10);
        assert_eq!(small.len(), 10);
        let mut padded = set.clone();
        padded.pad_random(&s, set.len() + 50, 9);
        assert_eq!(padded.len(), set.len() + 50);
        // existing candidates unchanged
        for (id, ix) in set.iter() {
            assert_eq!(padded.get(id), ix);
        }
    }

    #[test]
    fn sizes_cached() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(4).generate(&s, 10);
        let set = CGen::default().generate(&s, &w);
        for (id, ix) in set.iter() {
            assert_eq!(set.size_bytes(id), ix.size_bytes(&s));
        }
    }

    #[test]
    fn covering_disabled_when_zero_includes() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(5).generate(&s, 30);
        let gen = CGen { max_include_columns: 0, ..Default::default() };
        let set = gen.generate(&s, &w);
        assert!(set.iter().all(|(_, ix)| ix.include.is_empty()));
    }
}
