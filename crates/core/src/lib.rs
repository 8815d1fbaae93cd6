//! # cophy
//!
//! A Rust implementation of **CoPhy** — *A Scalable, Portable, and
//! Interactive Index Advisor for Large Workloads* (Dash, Polyzotis,
//! Ailamaki; PVLDB 4(6), 2011).
//!
//! CoPhy's insight: when query costs come from a fast what-if layer (INUM),
//! the index tuning problem *is* a compact binary integer program (Theorem
//! 1), with one variable per candidate index rather than one per index-set.
//! Everything else — constraints, soft constraints, anytime feedback,
//! interactive re-tuning — rides on mature BIP machinery.
//!
//! ## Quick start
//!
//! ```
//! use cophy::{CoPhy, ConstraintSet, CoPhyOptions};
//! use cophy_catalog::TpchGen;
//! use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
//! use cophy_workload::HomGen;
//!
//! let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
//! let workload = HomGen::new(1).generate(optimizer.schema(), 20);
//! let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
//! // storage budget = 0.5 × data size
//! let constraints = ConstraintSet::storage_fraction(optimizer.schema(), 0.5);
//! let rec = cophy.try_tune(&workload, &constraints).unwrap();
//! assert!(rec.objective <= rec.baseline_cost * 1.0 + 1e-6);
//! println!("{} indexes, gap {:.1}%", rec.configuration.len(), rec.gap * 100.0);
//! ```
//!
//! ## Streaming large workloads
//!
//! Million-statement workloads never need to be materialized: any
//! [`cophy_workload::WorkloadSource`] (generator streams, file readers,
//! query-log tailers) feeds the advisor chunk by chunk, compression
//! clusters **online** (resident state ∝ representatives, not `|W|`), and
//! the Lagrangian backend solves the model one per-statement block at a time.
//! A materialized workload is tuned as its own `source()`, so loaded or
//! tailed, the same statements get the same recommendation:
//!
//! ```
//! use cophy::{CoPhy, CoPhyOptions, CompressionPolicy, ConstraintSet};
//! use cophy_catalog::TpchGen;
//! use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
//! use cophy_workload::HomGen;
//!
//! let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
//! // A generator-backed source: statements are produced on demand, chunk
//! // by chunk — the full workload never exists in memory.
//! let mut source = HomGen::new(1).stream(optimizer.schema(), 500);
//! let options =
//!     CoPhyOptions { compression: CompressionPolicy::default_epsilon(), ..Default::default() };
//! let cophy = CoPhy::new(&optimizer, options);
//! let constraints = ConstraintSet::storage_fraction(optimizer.schema(), 0.5);
//! let rec = cophy.try_tune_source(&mut source, &constraints).unwrap();
//! let summary = rec.compression.as_ref().unwrap();
//! assert_eq!(summary.n_original, 500);
//! assert!(summary.n_representatives < 500);
//! ```
//!
//! ## Architecture (paper Figure 2)
//!
//! | Paper component | Here |
//! |---|---|
//! | workload compression | [`cophy_compress::CompressedWorkload`] (pre-INUM clustering, [`CoPhyOptions::compression`]) |
//! | INUM            | [`cophy_inum::Inum`] |
//! | CGen            | [`cgen::CGen`] |
//! | BIPGen          | [`bipgen::BipGen`] |
//! | Solver          | [`solver::CoPhy`] (Lagrangian `relax(B)` + B&B backends) |
//! | soft constraints| [`soft::ChordExplorer`] (Pareto frontier via the Chord algorithm) |
//! | interactive     | [`session::TuningSession`] (warm-started deltas) |
//!
//! ## Backends & portability
//!
//! The paper's portability claim — CoPhy works against *any* DBMS that can
//! answer what-if questions — is a trait seam here: every layer above the
//! optimizer (INUM, `CoPhy`, [`TuningSession`], the baseline advisors) sees
//! only [`WhatIfBackend`].  A backend implements six methods: what it costs
//! against (`schema`, `profile`, `cost_model`), one fallible probe
//! (`try_probe(query, configuration) → Result<ProbeAnswer, BackendError>`:
//! total cost, internal cost, per-table leaf column requirements), and call
//! accounting (`what_if_calls`, `reset_call_counter`).  The trait provides
//! three evaluators on top — `cost_statement`, `cost_workload` and `perf` —
//! and prices an UPDATE by §2's update model, the plain functions
//! [`cophy_optimizer::ucost`] and [`cophy_optimizer::CostModel::rewrite`],
//! which no backend overrides: the ground truth and what INUM and BIPGen
//! optimize price maintenance alike.  Three implementations ship:
//!
//! * [`cophy_optimizer::WhatIfOptimizer`] — the live analytic optimizer;
//! * [`cophy_optimizer::TraceRecorder`] / [`cophy_optimizer::TraceReplay`] —
//!   record a tune's probe answers to text, then replay them bit-identically
//!   with zero optimizer work (the CI backend-swap smoke);
//! * [`cophy_optimizer::FaultInjectingBackend`] — seeded faults and bounded
//!   cost corruption on top of any inner backend, for robustness studies.
//!
//! Wiring a custom backend into a session is just passing the trait object:
//!
//! ```
//! use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
//! use cophy_catalog::TpchGen;
//! use cophy_optimizer::{
//!     FaultInjectingBackend, FaultPlan, SystemProfile, WhatIfBackend, WhatIfOptimizer,
//! };
//! use cophy_workload::HomGen;
//!
//! let live = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
//! // Any `WhatIfBackend` drives the whole stack — here a wrapper that scales
//! // every probe by a seeded per-(query, configuration) factor within ±5%.
//! let noise =
//!     FaultPlan { corruption_rate: 1.0, corruption_amplitude: 0.05, ..FaultPlan::none(7) };
//! let backend = FaultInjectingBackend::new(Box::new(live), noise);
//! let w = HomGen::new(1).generate(backend.schema(), 8);
//! let cophy = CoPhy::new(&backend, CoPhyOptions::default());
//! let storage = ConstraintSet::storage_fraction(backend.schema(), 0.5);
//! let mut session = cophy.try_session(&w, storage).unwrap();
//! let rec = session.recommend();
//! assert!(rec.objective <= rec.baseline_cost + 1e-6);
//! // The same model is exportable for external solvers:
//! let mps = session.export_mps();
//! assert!(cophy_bip::lint_mps(&mps).is_ok());
//! ```
//!
//! Sessions over the same workload can also share one INUM cost service:
//! [`CoPhy::try_session_shared`] accepts the [`cophy_inum::InumCache`]
//! handle of an existing session ([`TuningSession::cache`]), so concurrent
//! readers reuse every cached plan instead of re-probing the backend.

mod bipgen;
mod cgen;
mod chain;
mod constraints;
mod error;
mod ingest;
mod session;
mod soft;
mod solver;

pub use bipgen::{BipGen, BipMapping, TuningProblem};
pub use cgen::{CGen, CandidateSet};
pub use constraints::{Cmp, Constraint, ConstraintSet, IndexFilter};
pub use error::CoPhyError;
pub use session::{SweepPoint, TuningSession, WhatIfAnswer};
pub use soft::{ChordExplorer, ParetoPoint};
pub use solver::{
    CoPhy, CoPhyOptions, DegradationReport, Recommendation, SolveStats, SolverBackend,
};

// The shared anytime solve engine's budget/progress vocabulary, re-exported
// so advisor-level callers need not depend on `cophy_bip` directly.
pub use cophy_bip::{DecompositionProgress, SolveBudget, SolveProgress};

// The backend seam's vocabulary (see "Backends & portability" above),
// re-exported so custom-backend authors and cache-sharing callers need not
// depend on `cophy_optimizer`/`cophy_inum` directly.
pub use cophy_inum::InumCache;
pub use cophy_optimizer::{ProbeAnswer, ProbeLeaf, TraceRecorder, TraceReplay, WhatIfBackend};

// The workload-compression subsystem's vocabulary, re-exported so callers
// can set `CoPhyOptions::compression` and read `Recommendation::compression`
// without depending on `cophy_compress` directly.
pub use cophy_compress::{Absorption, CompressedWorkload, CompressionPolicy, CompressionSummary};

// The streaming-ingestion vocabulary (see "Streaming large workloads"
// above): implement `WorkloadSource` to feed `CoPhy::try_tune_source` /
// `TuningSession::try_add_source` without materializing the workload.
pub use cophy_workload::{WorkloadSource, DEFAULT_CHUNK};
