//! # cophy-optimizer
//!
//! A cost-based *what-if* query optimizer: the DBMS-side substrate the CoPhy
//! paper assumes.  Commercial systems expose a what-if interface that costs a
//! query under *hypothetical* index configurations without materializing
//! them; INUM and the index advisors only ever consume that interface.  This
//! crate provides:
//!
//! * a System-R-style cost model ([`CostModel`]) with two parameterizations
//!   ([`SystemProfile::A`], [`SystemProfile::B`]) standing in for the paper's
//!   two commercial systems,
//! * cardinality estimation from catalog statistics (`cardinality`),
//! * access-path selection over heap scans, index seeks, index scans and
//!   index-only variants ([`AccessPath`], priced by [`TableFacts::price`]),
//! * Selinger-style dynamic-programming join enumeration with *interesting
//!   orders* (`dp`) — the plan-space structure INUM's template plans encode,
//! * the what-if facade ([`WhatIfOptimizer`]) with per-call accounting,
//!   behind the [`WhatIfBackend`] trait, whose provided methods evaluate
//!   statements and workloads with §2's update model: [`ucost`] and
//!   [`CostModel::rewrite`], plain functions no backend overrides.
//!
//! A probe answers with the plan's cost split into its internal operators
//! and its leaf *accesses*, plus the order each leaf must deliver
//! ([`ProbeAnswer`]): exactly the decomposition INUM needs,
//! `total = internal (β) + Σ leaf access costs (γ)`.  The DP reads that
//! answer off its memo of priced candidates; it never builds a plan tree.

mod access;
mod backend;
mod cardinality;
mod cost;
mod dp;
mod fault;
mod ordering;
pub mod trace;
mod whatif;

pub use access::{heap_path, AccessPath, IndexFacts, TableFacts};
pub use backend::{
    config_fingerprint, fnv1a, query_fingerprint, BackendError, ProbeAnswer, ProbeLeaf,
    WhatIfBackend,
};
pub use cardinality::access_rows;
pub use cost::{ucost, CostModel, SystemProfile};
pub use fault::{probe_with_retry, FaultInjectingBackend, FaultPlan, RetriedProbe, RetryPolicy};
pub use ordering::{EquivClasses, Ordering};
pub use trace::{TraceRecorder, TraceReplay};
pub use whatif::WhatIfOptimizer;
