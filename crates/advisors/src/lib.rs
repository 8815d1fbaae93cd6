//! # cophy-advisors
//!
//! The competitor techniques of the paper's evaluation (§5.1), rebuilt so the
//! comparisons can be reproduced:
//!
//! * [`IlpAdvisor`] — the BIP-per-atomic-configuration formulation of
//!   Papadomanolakis & Ailamaki \[14\], with the candidate-configuration
//!   pruning of \[13\].  Interfaced with INUM and solved by the same solver as
//!   CoPhy — exactly the paper's setup — so the measured difference is the
//!   *formulation*: ILP's build phase enumerates (and must prune) a
//!   multiplicative space of atomic configurations, while CoPhy's stays
//!   linear in the candidates.
//! * [`ToolA`] — a relaxation-based advisor in the style of Bruno &
//!   Chaudhuri \[3\] (the technique behind the paper's commercial Tool-A):
//!   start from per-query optimal candidate sets, then repeatedly *relax*
//!   (drop/merge/shrink), re-costing against the what-if optimizer until the
//!   storage budget holds.
//! * [`ToolB`] — a DB2-Design-Advisor-style greedy \[20\] (the paper's
//!   Tool-B): workload compression by random sampling, benefit/size greedy
//!   selection, iterative refinement.
//!
//! All advisors implement [`Advisor`] — a name and one `recommend` call —
//! and are measured with the same ground-truth metric `perf(X*, W)` as
//! CoPhy.

mod ilp;
mod tool_a;
mod tool_b;

use cophy::ConstraintSet;
use cophy_catalog::Configuration;
use cophy_optimizer::WhatIfBackend;
use cophy_workload::Workload;

pub use ilp::{IlpAdvisor, IlpStats};
pub use tool_a::ToolA;
pub use tool_b::ToolB;

/// A baseline index advisor.
pub trait Advisor {
    /// Human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// Recommend a configuration for `w` under `constraints`.
    fn recommend(
        &self,
        optimizer: &dyn WhatIfBackend,
        w: &Workload,
        constraints: &ConstraintSet,
    ) -> Configuration;
}
