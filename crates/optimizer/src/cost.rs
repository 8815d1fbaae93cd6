//! The cost model: abstract cost units in the System-R tradition \[18\].
//!
//! Costs mix I/O (pages, sequential vs random) and CPU (per-tuple work).
//! The absolute unit is irrelevant to the advisor — only *relative* plan
//! costs matter — so we follow the PostgreSQL convention of charging one
//! unit per sequential page.
//!
//! Two [`SystemProfile`]s stand in for the two commercial systems of §5: the
//! profiles differ in random-I/O penalty, sort constants and CPU weights,
//! which shifts plan choices (profile B favors index seeks and sorts more
//! aggressively), producing genuinely different tuning problems on the same
//! workload — as the paper's per-system results do.
//!
//! §2's update model, `cost(q_r, X) + Σ_{a ∈ X} ucost(a, q) + c_q`, is
//! defined here once: [`ucost`] and `c_q` = [`CostModel::rewrite`].

use cophy_catalog::Index;
use cophy_workload::UpdateStatement;
use serde::{Deserialize, Serialize};

/// Which simulated DBMS the optimizer models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemProfile {
    /// "System-A": disk-oriented, steep random-I/O penalty.
    A,
    /// "System-B": buffer-pool friendly, milder random-I/O penalty.
    B,
}

/// Tunable constants of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of reading one page sequentially.
    pub seq_page: f64,
    /// Cost of reading one page at a random location.
    pub random_page: f64,
    /// CPU cost of processing one heap tuple.
    pub cpu_tuple: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple: f64,
    /// CPU cost of a generic operator invocation (comparison, hash).
    pub cpu_operator: f64,
    /// Multiplier on `n·log2(n)` comparisons for sorting.
    pub sort_factor: f64,
    /// Per-row cost of building a hash table.
    pub hash_build: f64,
    /// Per-row cost of probing a hash table.
    pub hash_probe: f64,
    /// Fraction of heap fetches that hit already-cached pages (0..1); higher
    /// values soften the non-covering-index penalty.
    pub fetch_cache_hit: f64,
    /// Per-affected-row, per-level cost of maintaining a B-tree on update.
    pub index_maintain: f64,
}

impl CostModel {
    /// Cost model for the given profile.
    pub fn profile(p: SystemProfile) -> Self {
        match p {
            SystemProfile::A => CostModel {
                seq_page: 1.0,
                random_page: 4.0,
                cpu_tuple: 0.01,
                cpu_index_tuple: 0.005,
                cpu_operator: 0.0025,
                sort_factor: 0.0045,
                hash_build: 0.015,
                hash_probe: 0.008,
                fetch_cache_hit: 0.35,
                index_maintain: 0.02,
            },
            SystemProfile::B => CostModel {
                seq_page: 1.0,
                random_page: 2.5,
                cpu_tuple: 0.012,
                cpu_index_tuple: 0.004,
                cpu_operator: 0.002,
                sort_factor: 0.006,
                hash_build: 0.02,
                hash_probe: 0.01,
                fetch_cache_hit: 0.55,
                index_maintain: 0.025,
            },
        }
    }

    /// Sequential scan of a heap: all pages + per-tuple CPU.
    pub(crate) fn seq_scan(&self, pages: u64, rows: f64) -> f64 {
        pages as f64 * self.seq_page + rows * self.cpu_tuple
    }

    /// Full scan of a B-tree's leaf level.
    pub(crate) fn index_leaf_scan(&self, leaf_pages: u64, entries: f64) -> f64 {
        leaf_pages as f64 * self.seq_page + entries * self.cpu_index_tuple
    }

    /// Descend a B-tree of the given height.
    pub(crate) fn btree_descend(&self, height: u32) -> f64 {
        f64::from(height) * self.random_page
    }

    /// Read `frac` of a B-tree's leaves after a descend (range scan).
    pub(crate) fn index_range_scan(
        &self,
        height: u32,
        leaf_pages: u64,
        frac: f64,
        entries: f64,
    ) -> f64 {
        self.btree_descend(height)
            + (leaf_pages as f64 * frac).ceil() * self.seq_page
            + entries * self.cpu_index_tuple
    }

    /// Fetch `rows` heap tuples pointed to by index entries (non-covering
    /// access); fetches are random but partially cached.
    pub(crate) fn heap_fetches(&self, rows: f64) -> f64 {
        rows * self.random_page * (1.0 - self.fetch_cache_hit)
    }

    /// Sort `rows` tuples (in-memory n·log₂n model; the advisor's workloads
    /// never sort more than a few million rows).
    pub fn sort(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            return self.cpu_operator;
        }
        self.sort_factor * rows * rows.log2()
    }

    /// Hash join: build on `build_rows`, probe with `probe_rows`, emit `out`.
    pub(crate) fn hash_join(&self, build_rows: f64, probe_rows: f64, out: f64) -> f64 {
        build_rows * self.hash_build + probe_rows * self.hash_probe + out * self.cpu_tuple
    }

    /// Merge join over two sorted inputs.
    pub(crate) fn merge_join(&self, left_rows: f64, right_rows: f64, out: f64) -> f64 {
        (left_rows + right_rows) * self.cpu_operator * 2.0 + out * self.cpu_tuple
    }

    /// Block nested-loop join (no index on the inner); only competitive when
    /// one side is tiny, which is exactly when the optimizer picks it.
    pub(crate) fn nl_join(&self, outer_rows: f64, inner_rows: f64, out: f64) -> f64 {
        outer_rows * inner_rows * self.cpu_operator + out * self.cpu_tuple
    }

    /// Hash aggregation of `rows` into `groups`.
    pub(crate) fn hash_agg(&self, rows: f64, groups: f64, n_aggs: usize) -> f64 {
        rows * (self.hash_probe + n_aggs as f64 * self.cpu_operator) + groups * self.cpu_tuple
    }

    /// Stream (sorted-input) aggregation.
    pub(crate) fn stream_agg(&self, rows: f64, groups: f64, n_aggs: usize) -> f64 {
        rows * (self.cpu_operator * (1 + n_aggs) as f64) + groups * self.cpu_tuple
    }

    /// Filter `rows` through `n_preds` residual predicates.
    pub fn filter(&self, rows: f64, n_preds: usize) -> f64 {
        rows * n_preds as f64 * self.cpu_operator
    }

    /// `c_q`: rewriting the `rows` base tuples an UPDATE modifies.
    pub fn rewrite(&self, rows: f64) -> f64 {
        self.heap_fetches(rows) + rows * self.cpu_tuple
    }
}

/// `ucost(a, q)`: maintaining index `ix` under `upd`, which modifies `rows`
/// rows (`access_rows(schema, &upd.shell, upd.table())`) — independent of
/// the rest of the configuration, `0.0` if `upd` does not affect `ix`.
/// `height` yields `ix.height(schema)`; it is called only for an affected
/// index.
pub fn ucost(
    cm: &CostModel,
    upd: &UpdateStatement,
    rows: f64,
    ix: &Index,
    height: impl FnOnce() -> u32,
) -> f64 {
    if !upd.affects(ix) {
        return 0.0;
    }
    rows * (cm.index_maintain + f64::from(height()) * cm.random_page * 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let a = CostModel::profile(SystemProfile::A);
        let b = CostModel::profile(SystemProfile::B);
        assert_ne!(a, b);
        assert!(a.random_page > b.random_page);
    }

    #[test]
    fn seq_scan_monotone_in_pages_and_rows() {
        let m = CostModel::profile(SystemProfile::A);
        assert!(m.seq_scan(100, 1000.0) < m.seq_scan(200, 1000.0));
        assert!(m.seq_scan(100, 1000.0) < m.seq_scan(100, 5000.0));
    }

    #[test]
    fn sort_superlinear() {
        let m = CostModel::profile(SystemProfile::A);
        let s1 = m.sort(1_000.0);
        let s2 = m.sort(2_000.0);
        assert!(s2 > 2.0 * s1, "sort must be superlinear: {s1} {s2}");
        assert!(m.sort(0.0) > 0.0, "degenerate sort still costs something");
    }

    #[test]
    fn random_io_dominates_sequential() {
        let m = CostModel::profile(SystemProfile::A);
        assert!(m.heap_fetches(100.0) > 100.0 * m.seq_page * 0.5);
        assert!(m.btree_descend(3) == 3.0 * m.random_page);
    }

    #[test]
    fn stream_agg_cheaper_than_hash_agg() {
        let m = CostModel::profile(SystemProfile::A);
        assert!(m.stream_agg(1e6, 10.0, 2) < m.hash_agg(1e6, 10.0, 2));
    }

    #[test]
    fn nl_join_quadratic() {
        let m = CostModel::profile(SystemProfile::A);
        assert!(m.nl_join(1e3, 1e3, 1e3) < m.nl_join(1e4, 1e4, 1e3));
        // tiny inputs: NL beats hash
        assert!(m.nl_join(5.0, 25.0, 25.0) < m.hash_join(5.0, 25.0, 25.0) + 1.0);
    }
}
