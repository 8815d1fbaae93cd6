//! # cophy-inum
//!
//! An implementation of INUM — *efficient use of the query optimizer for
//! automated physical design* \[15\] — the fast what-if layer the CoPhy paper
//! builds on.
//!
//! For each query `q`, INUM makes a small number of carefully chosen what-if
//! optimizer calls — one per *distinct* ideal configuration that the
//! combinations of exploited *interesting orders* build, plus one under the
//! empty configuration — and caches the resulting **template plans**:
//! physical plans whose leaf accesses are replaced by slots.  A template `k`
//! stores
//!
//! * `β_qk` — the *internal plan cost* of its join/aggregation operators, and
//! * per-slot order requirements, from which `γ_qkia` — the cost of
//!   instantiating slot `i` with access method `a` — is computed analytically
//!   (no optimizer call) for any candidate index.
//!
//! `cost(q, X)` is then the Definition-1 minimum
//! `min_k { β_qk + Σ_i min_{a ∈ X_i ∪ I∅} γ_qkia }`, i.e. the *linearly
//! composable* cost function of the paper, evaluated in microseconds instead
//! of a full optimization, plus the update terms `(Σ_{a ∈ X} ucost(a, q)) +
//! c_q`: one function, [`PreparedQuery::cost`], which
//! [`PreparedWorkload::cost`] weights and sums.  [`Slot::gamma`] exposes the
//! γ constants directly — exactly what CoPhy's BIP generator consumes —
//! priced against the statement's [`PreparedQuery::table_facts`], gathered
//! once, and the index's `IndexFacts`, which a caller pricing many
//! statements builds once per index.
//!
//! Every preparation is [`Inum::try_prepare_statement`] over some statements:
//! one probing loop that retries transient failures, degrades lost probes,
//! and counts both into a [`PrepFaultReport`] — retries, recovered and
//! exhausted probes, and the ids of the degraded statements, the one fault
//! account the advisor reads.  [`Inum::try_prepare_workload_resilient`] runs
//! it over a workload in statement order, and a compressed workload is
//! prepared by handing over its representatives — only they are probed, with
//! cluster weights scaling the cached plan costs.

mod cache;
mod cost;
mod ideal;
mod prepare;
mod template;

pub use cache::InumCache;
pub use ideal::{ideal_config, ideal_index};
pub use prepare::{Inum, PrepFaultReport, PreparedQuery, PreparedWorkload};
pub use template::{Slot, TemplatePlan};
