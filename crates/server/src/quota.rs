//! Per-tenant what-if probe metering.
//!
//! The daemon charges every optimizer probe a tenant's sessions trigger —
//! INUM preparation on a cold `open`, statement deltas via `add` — against a
//! configurable quota.  [`MeteredBackend`] wraps any [`WhatIfBackend`] and
//! turns the probe that would exceed the quota into a typed
//! [`BackendError::QuotaExceeded`] instead of performing it, so the whole
//! fallible pipeline (`try_prepare_*`, `TuningSession::try_add_source`)
//! unwinds cleanly: the session's chunk-granular rollback restores the
//! shared cache (fully-ingested chunks stay committed) and the client sees
//! `err quota …` while every other tenant keeps working.
//!
//! Metering rides on the backend's own call counter (the PR-6
//! `what_if_calls` accounting): `spent` is exactly the number of probes the
//! inner backend performed, so the ledger can never drift from the costs it
//! gates.

use cophy_catalog::{Configuration, Schema};
use cophy_optimizer::{BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend};
use cophy_workload::Query;

/// A quota-enforcing wrapper around a what-if backend.
///
/// One instance per tenant; all of the tenant's sessions share it, so the
/// quota covers the tenant's total probe spend, not per-session slices.
#[derive(Debug)]
pub(crate) struct MeteredBackend {
    inner: Box<dyn WhatIfBackend>,
    limit: u64,
}

impl MeteredBackend {
    /// Wrap `inner`, allowing at most `limit` probes (`u64::MAX` = unmetered).
    pub(crate) fn new(inner: Box<dyn WhatIfBackend>, limit: u64) -> Self {
        MeteredBackend { inner, limit }
    }

    /// Probes the tenant has spent so far.
    pub(crate) fn spent(&self) -> u64 {
        self.inner.what_if_calls()
    }
}

impl WhatIfBackend for MeteredBackend {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn profile(&self) -> SystemProfile {
        self.inner.profile()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        let spent = self.inner.what_if_calls();
        if spent >= self.limit {
            return Err(BackendError::QuotaExceeded { spent, limit: self.limit });
        }
        self.inner.try_probe(q, config)
    }

    fn what_if_calls(&self) -> u64 {
        self.inner.what_if_calls()
    }

    fn reset_call_counter(&self) {
        self.inner.reset_call_counter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_optimizer::WhatIfOptimizer;
    use cophy_workload::HomGen;

    fn metered(limit: u64) -> (MeteredBackend, cophy_workload::Workload) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(5).generate(o.schema(), 4);
        (MeteredBackend::new(Box::new(o), limit), w)
    }

    #[test]
    fn probes_below_the_quota_pass_through() {
        let (b, w) = metered(10);
        let q = w.iter().next().unwrap().1.read_shell().clone();
        assert!(b.try_probe(&q, &Configuration::empty()).is_ok());
        assert_eq!(b.spent(), 1);
    }

    #[test]
    fn the_probe_that_would_exceed_the_quota_is_rejected_typed() {
        let (b, w) = metered(2);
        let q = w.iter().next().unwrap().1.read_shell().clone();
        assert!(b.try_probe(&q, &Configuration::empty()).is_ok());
        assert!(b.try_probe(&q, &Configuration::empty()).is_ok());
        match b.try_probe(&q, &Configuration::empty()) {
            Err(BackendError::QuotaExceeded { spent: 2, limit: 2 }) => {}
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // The rejected probe was never performed: the ledger holds at 2.
        assert_eq!(b.spent(), 2);
    }
}
