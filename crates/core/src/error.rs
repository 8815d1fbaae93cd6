//! The advisor's one error type.

use std::fmt;

use cophy_bip::MipStatus;
use cophy_optimizer::BackendError;

/// Why a tune, a session call or an ingestion failed.  The variants are the
/// contract (the daemon maps them to wire codes); `Display` is the sentence
/// for the DBA.
#[derive(Debug, Clone, PartialEq)]
pub enum CoPhyError {
    /// A what-if probe failed in a way retrying cannot fix (replay miss,
    /// spent quota) — or was lost with no retry policy to absorb it.
    Backend(BackendError),
    /// Lost probes degraded more of the workload than
    /// [`crate::CoPhyOptions::min_coverage`] tolerates.
    Coverage { coverage: f64, floor: f64, statements_degraded: usize, statements_total: usize },
    /// The hard constraints (or the pins held against them) admit no
    /// configuration; the message names what to drop or soften.
    Infeasible(String),
    /// Options or constraints this entry point cannot serve.
    Invalid(String),
    /// The solve budget ran out before the first feasible configuration.
    NoIncumbent(MipStatus),
}

impl fmt::Display for CoPhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoPhyError::Backend(e) => e.fmt(f),
            CoPhyError::Coverage { coverage, floor, statements_degraded, statements_total } => {
                write!(
                    f,
                    "degraded coverage {coverage:.3} below floor {floor:.3}: \
                     {statements_degraded} of {statements_total} statements lost \
                     what-if probes during preparation"
                )
            }
            CoPhyError::Infeasible(why) | CoPhyError::Invalid(why) => f.write_str(why),
            CoPhyError::NoIncumbent(status) => {
                write!(f, "no feasible incumbent within the solve budget ({status:?})")
            }
        }
    }
}

impl std::error::Error for CoPhyError {}

impl From<BackendError> for CoPhyError {
    fn from(e: BackendError) -> Self {
        CoPhyError::Backend(e)
    }
}

/// So callers that carry errors as text keep propagating with `?`.
impl From<CoPhyError> for String {
    fn from(e: CoPhyError) -> Self {
        e.to_string()
    }
}
