//! The pluggable what-if backend trait.
//!
//! CoPhy's portability claim (§1, §6) is that the advisor is a thin layer
//! over *any* what-if optimizer: everything above the DBMS consumes a narrow
//! costing interface.  [`WhatIfBackend`] is that interface.  A backend
//! implements six methods: the **probe** ([`WhatIfBackend::try_probe`]),
//! which costs a query under a hypothetical configuration and says what the
//! chosen plan asks of each table access — its internal cost and the order
//! each leaf must deliver ([`ProbeAnswer`]), all INUM needs to build template
//! plans; **call accounting**, the scarce resource of Figures 4/5; and what
//! it costs against (`schema`, `profile`, `cost_model`).  Candidate indexes
//! are not the backend's business: CGen enumerates them itself.
//!
//! The trait provides three evaluators, `cost_statement`, `cost_workload`
//! and `perf`.  UPDATE maintenance and `c_q` are §2's plain functions
//! [`crate::ucost`] and [`CostModel::rewrite`], which no backend overrides.
//!
//! [`crate::WhatIfOptimizer`] is the reference implementation: it reads each
//! answer off its DP's memo and builds no plan.  See [`crate::trace`] for a
//! record/replay backend and [`crate::fault`] for a
//! seeded fault- and cost-corruption-injecting wrapper.

use std::fmt;

use cophy_catalog::{ColumnId, Configuration, Schema, TableId};
use cophy_workload::{Query, Statement, Workload};

use crate::cardinality::access_rows;
use crate::cost::{ucost, CostModel, SystemProfile};

/// A typed costing failure.
///
/// Backends embedded in long-lived, multi-tenant processes must not panic: a
/// replay miss or an exhausted probe quota is a per-request error, not a
/// process fault.  Fallible callers (INUM preparation, the advisor session
/// API, the `cophy-server` daemon) consume [`WhatIfBackend::try_probe`] and
/// surface this error; the provided evaluators (`cost_statement`,
/// `cost_workload`, `perf`) panic on it, preserving the original
/// single-tenant behavior for code that treats its backend as total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A replay-style backend was asked for a `(query, configuration)` pair
    /// it has no recorded answer for.
    UnrecordedProbe {
        query: u64,
        config: u64,
        /// How many probe answers the backend does hold (diagnostic).
        recorded: usize,
    },
    /// The backend answered, but the answer does not describe `query`: its
    /// internal cost is not finite and non-negative, its leaves are not one
    /// per referenced table in order, or a required column is not a column
    /// of its leaf's table.  Permanent: the same probe would return the same
    /// answer.
    MalformedAnswer { query: u64, config: u64 },
    /// A metered backend refused the probe because the tenant's what-if
    /// quota is spent.
    QuotaExceeded { spent: u64, limit: u64 },
    /// A transient backend failure (lost connection, optimizer overload, a
    /// fault-injection schedule entry).  Retryable: the same probe may
    /// succeed on a later attempt.
    Transient {
        query: u64,
        config: u64,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// The probe exceeded its deadline.  Retryable like
    /// [`BackendError::Transient`] but accounted separately — a timeout spent
    /// real wall clock, so retry loops must charge it against their budget.
    Timeout { query: u64, config: u64, elapsed_ms: u64 },
}

impl BackendError {
    /// Whether a retry can possibly succeed.  Only the transient fault
    /// classes are retryable; replay misses and spent quotas are permanent
    /// and must surface immediately.
    pub fn is_retryable(&self) -> bool {
        matches!(self, BackendError::Transient { .. } | BackendError::Timeout { .. })
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnrecordedProbe { query, config, recorded } => write!(
                f,
                "unrecorded probe: ({query:016x}, {config:016x}) not in trace \
                 ({recorded} probes recorded)"
            ),
            BackendError::MalformedAnswer { query, config } => write!(
                f,
                "malformed probe answer: ({query:016x}, {config:016x}) does not \
                 describe the query's tables and columns with a finite, \
                 non-negative cost"
            ),
            BackendError::QuotaExceeded { spent, limit } => {
                write!(f, "what-if quota exceeded: spent {spent} of {limit} probes")
            }
            BackendError::Transient { query, config, attempt } => write!(
                f,
                "transient what-if failure: probe ({query:016x}, {config:016x}) \
                 attempt {attempt}"
            ),
            BackendError::Timeout { query, config, elapsed_ms } => write!(
                f,
                "what-if probe timed out after {elapsed_ms}ms: \
                 ({query:016x}, {config:016x})"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// One leaf access of a probed plan: the table it reads and the key-column
/// prefix (in the leaf's *local* columns) the internal plan relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeLeaf {
    pub table: TableId,
    /// Required delivered-order prefix; empty = any access method works.
    /// The plan may require an order on equivalent columns of *other*
    /// tables (ORDER BY `o_orderdate` satisfied through a join); the leaf
    /// records the local equivalent, the prefix of its own delivered order
    /// of that length.
    pub required: Vec<ColumnId>,
}

/// The answer to one what-if probe — everything INUM's template extraction
/// and the plain costing path need, and nothing plan-shaped that a remote or
/// replayed backend could not supply.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAnswer {
    /// `cost(q, X)`: total plan cost.
    pub total_cost: f64,
    /// INUM's `β`: cost of the internal operators only.
    pub internal_cost: f64,
    /// One entry per referenced table, in `q.tables` order.
    pub leaves: Vec<ProbeLeaf>,
}

/// A pluggable what-if costing service.
///
/// Object safe: the whole stack threads `&dyn WhatIfBackend`, so backends can
/// be swapped at run time (live optimizer, trace replay, fault wrapper, or a
/// remote DBMS adapter).  `Send + Sync` is required because the server's
/// worker threads probe a tenant's backend concurrently.
pub trait WhatIfBackend: std::fmt::Debug + Send + Sync {
    /// The schema the backend costs against.
    fn schema(&self) -> &Schema;

    /// The cost-model parameterization the backend calibrates to.
    fn profile(&self) -> SystemProfile;

    /// The analytic cost model that §2's update model prices UPDATEs with.
    fn cost_model(&self) -> &CostModel;

    /// One what-if optimization: cost `q` under hypothetical configuration
    /// `config`.  Counts one call.  This is the *fallible* probe — the one
    /// costing method a backend implements — so replay misses and quota
    /// rejections surface as typed errors instead of panics.
    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError>;

    /// Number of what-if optimizations performed so far.
    fn what_if_calls(&self) -> u64;

    fn reset_call_counter(&self);

    /// Full statement cost under a configuration: the probe's total for a
    /// SELECT; for an UPDATE, §2's
    /// `cost(q_r, X) + Σ_{a ∈ X} ucost(a, q) + c_q`, one maintenance term
    /// per index of `X` in `X`'s order.  Panics on [`BackendError`];
    /// fallible callers use [`WhatIfBackend::try_probe`].
    fn cost_statement(&self, stmt: &Statement, config: &Configuration) -> f64 {
        let probe =
            |q| self.try_probe(q, config).unwrap_or_else(|e| panic!("what-if backend error: {e}"));
        match stmt {
            Statement::Select(q) => probe(q).total_cost,
            Statement::Update(u) => {
                let read = probe(&u.shell).total_cost;
                let (schema, cm) = (self.schema(), self.cost_model());
                let rows = access_rows(schema, &u.shell, u.table());
                let maintenance: f64 =
                    config.iter().map(|ix| ucost(cm, u, rows, ix, || ix.height(schema))).sum();
                read + maintenance + cm.rewrite(rows)
            }
        }
    }

    /// Weighted workload cost `Σ_q f_q · cost(q, X)`.
    fn cost_workload(&self, w: &Workload, config: &Configuration) -> f64 {
        w.iter().map(|(_, stmt, f)| f * self.cost_statement(stmt, config)).sum()
    }

    /// The §5.1 quality metric:
    /// `perf(X*, W) = 1 − cost(X* ∪ X0, W) / cost(X0, W)`,
    /// where `X0` is the clustered-primary-key baseline.
    fn perf(&self, w: &Workload, x_star: &Configuration) -> f64 {
        let x0 = Configuration::baseline(self.schema());
        let base = self.cost_workload(w, &x0);
        let tuned = self.cost_workload(w, &x_star.union(&x0));
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - tuned / base
    }
}

/// SplitMix64 finalizer — the seeded scrambling primitive of the
/// fault-injection wrapper: one pass turns a fingerprint XOR into
/// uniform 64-bit output, so a pair's draw depends only on `(seed, pair)`.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash — the stable fingerprint primitive shared by the trace
/// backend and the fault-injection wrapper (keyed on `Debug` renderings, which are
/// deterministic for the resolved-id IR).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a query (its full resolved IR).
pub fn query_fingerprint(q: &Query) -> u64 {
    fnv1a(format!("{q:?}").as_bytes())
}

/// Order-independent fingerprint of a configuration: per-index renderings are
/// sorted before hashing, so set-equal configurations fingerprint equal.
pub fn config_fingerprint(config: &Configuration) -> u64 {
    let mut parts: Vec<String> = config.iter().map(|ix| format!("{ix:?}")).collect();
    parts.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &parts {
        h = fnv1a(format!("{h:016x}|{p}").as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WhatIfOptimizer;
    use cophy_catalog::{Index, TpchGen};

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    #[test]
    fn fingerprints_are_stable_and_order_independent() {
        let o = opt();
        let s = o.schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let ord = s.table_by_name("orders").unwrap().id;
        let a = Index::secondary(li, vec![ColumnId(0)]);
        let b = Index::secondary(ord, vec![ColumnId(1)]);
        let mut c1 = Configuration::empty();
        c1.insert(a.clone());
        c1.insert(b.clone());
        let mut c2 = Configuration::empty();
        c2.insert(b);
        c2.insert(a);
        assert_eq!(config_fingerprint(&c1), config_fingerprint(&c2));
        assert_ne!(config_fingerprint(&c1), config_fingerprint(&Configuration::empty()));
        let q = Query::scan(li);
        assert_eq!(query_fingerprint(&q), query_fingerprint(&q.clone()));
    }
}
