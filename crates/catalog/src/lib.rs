//! # cophy-catalog
//!
//! The relational-schema and statistics substrate underneath the CoPhy index
//! advisor.  The paper's testbed is a 1 GB TPC-H database generated with the
//! `tpcdskew` tool (skew parameter `z`); index tuning itself never reads base
//! tuples — both the paper's what-if optimizer calls and ours are pure
//! cost-model evaluations over *statistics*.  This crate therefore models:
//!
//! * the schema: tables, columns, column types ([`Schema`], [`Table`],
//!   [`Column`]),
//! * per-column statistics with a Zipf-skew knob ([`ColumnStats`],
//!   [`Histogram`]), matching `tpcdskew`'s `z ∈ {0, 1, 2}`,
//! * index metadata: key/include columns, clustered/unique flags, size
//!   estimation ([`Index`], [`IndexKind`]),
//! * the TPC-H schema + statistics generator ([`tpch::TpchGen`]).
//!
//! Everything is identified by dense integer ids (`TableId`, `ColumnId`,
//! `IndexId`) so the optimizer, INUM and the BIP generator can use plain
//! vectors as maps.

mod config;
mod index;
mod schema;
mod stats;
mod tpch;

pub use config::Configuration;
pub use index::{Index, IndexId, IndexKind};
pub use schema::{Column, ColumnId, ColumnRef, ColumnType, Schema, Table, TableId};
pub use stats::{ColumnStats, Histogram, Skew};
pub use tpch::{TpchGen, DATE_DOMAIN_DAYS};

/// A page in the storage model is 8 KiB, the common default of the systems the
/// paper targets.
pub(crate) const PAGE_SIZE: u64 = 8192;

/// Per-row storage overhead (tuple header + slot pointer), bytes.
pub(crate) const ROW_OVERHEAD: u64 = 27;

/// Per-index-entry overhead (key header + row pointer), bytes.
pub(crate) const ENTRY_OVERHEAD: u64 = 12;
