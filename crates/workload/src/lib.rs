//! # cophy-workload
//!
//! The workload substrate: a structured query IR (SELECT and UPDATE
//! statements, §2 of the paper) plus the two synthetic workload families of
//! the evaluation:
//!
//! * [`HomGen`] — the *homogeneous* workload `W_hom`: random instantiations of
//!   fifteen TPC-H-like query templates (the paper uses the TPC-H query
//!   generator on fifteen templates);
//! * [`HetGen`] — the *heterogeneous* workload `W_het`: structurally diverse
//!   SPJ queries with group-by and aggregation, modeled on the online
//!   index-selection benchmark's C2 suite \[17\];
//! * [`UpdateGen`] — UPDATE statements, modeled as a query shell plus an
//!   update shell with per-index maintenance costs (§2).
//!
//! Statements observe the paper's simplifying assumption that each statement
//! references a table at most once; generators enforce it by construction and
//! [`Query::validate`] checks it.

mod features;
mod gen_het;
mod gen_hom;
mod gen_update;
mod query;
mod source;
mod sql;
mod workload;

pub use features::{template_key, ShellKey, StatementFeatures, TemplateKey};
pub use gen_het::{HetGen, HetStream};
pub use gen_hom::{HomGen, HomStream};
pub use gen_update::{UpdateGen, UpdateStream};
pub use query::{
    AggFunc, Aggregate, Join, PredOp, Predicate, Query, Statement, UpdateStatement, MAX_TABLES,
};
pub use source::{drain_to_workload, WorkloadCursor, WorkloadSource, DEFAULT_CHUNK};
pub use sql::format_statement;
pub use workload::{QueryId, Workload};
