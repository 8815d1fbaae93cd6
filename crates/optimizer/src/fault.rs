//! Deterministic fault injection and retry for the what-if seam.
//!
//! Real deployments sit on a what-if optimizer they do not control: probes
//! fail transiently, time out, and occasionally return garbage.  This module
//! provides the harness the rest of the stack hardens against:
//!
//! * [`FaultPlan`] — a seeded, schedule-driven fault plan.  Every fault
//!   decision is a pure function of `(seed, query fingerprint, configuration
//!   fingerprint, attempt number)`, so a schedule is reproducible across
//!   runs *and independent of probe interleaving*: concurrent sessions
//!   sharing one backend see the identical fault pattern.
//! * [`FaultInjectingBackend`] — wraps any [`WhatIfBackend`] and applies the
//!   plan: the first `k` attempts of a scheduled pair fail (transient or
//!   timeout), permanent pairs never succeed, and corrupted pairs return a
//!   deterministically scaled cost.  Injected faults happen *before* the
//!   inner backend is consulted, so they never consume a real what-if call.
//! * [`RetryPolicy`] — capped exponential backoff with seeded jitter and a
//!   per-probe deadline, consumed by [`probe_with_retry`] (the helper
//!   `Inum`'s probing loop calls for every preparation probe).
//!
//! This module is the fault *mechanism* only.  The account of what a
//! preparation retried and lost — three counters and the degraded
//! statements' ids — is `cophy_inum::PrepFaultReport`, kept by the probing
//! loop itself.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cophy_catalog::{Configuration, Schema};
use cophy_workload::Query;

use crate::backend::{
    config_fingerprint, query_fingerprint, splitmix64, BackendError, ProbeAnswer, WhatIfBackend,
};
use crate::cost::{CostModel, SystemProfile};

/// Uniform `[0, 1)` from one seeded draw.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded, schedule-driven fault plan.  Rates are per `(query, config)`
/// *pair*, not per attempt: a pair scheduled for transient failure fails its
/// first `k` attempts and then succeeds forever, which is what makes retry
/// outcomes independent of thread interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every draw; the same seed reproduces the same schedule.
    pub seed: u64,
    /// Fraction of pairs that fail transiently before succeeding.
    pub transient_rate: f64,
    /// A transiently failing pair fails `1..=max_transient` attempts.
    pub max_transient: u32,
    /// Fraction of *faulted* attempts injected as timeouts instead of
    /// plain transient errors.
    pub timeout_share: f64,
    /// Fraction of pairs that never succeed (every attempt fails) — the
    /// schedule entries that exhaust retries and force degradation.
    pub permanent_rate: f64,
    /// Fraction of pairs whose successful probes are cost-corrupted.
    pub corruption_rate: f64,
    /// Maximum relative corruption, e.g. `0.05` for ±5%.
    pub corruption_amplitude: f64,
}

impl FaultPlan {
    /// The do-nothing schedule: every probe passes through untouched.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            max_transient: 0,
            timeout_share: 0.0,
            permanent_rate: 0.0,
            corruption_rate: 0.0,
            corruption_amplitude: 0.0,
        }
    }

    /// An all-transient schedule: `rate` of pairs fail their first
    /// `1..=max_transient` attempts, then succeed.  With a retry policy
    /// allowing more than `max_transient` attempts, a preparation over this
    /// schedule recovers *everything* — the bit-identity property the fault
    /// tolerance tests lean on.
    pub fn transient_only(seed: u64, rate: f64, max_transient: u32) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(max_transient >= 1, "a transient schedule needs at least one failure");
        FaultPlan {
            seed,
            transient_rate: rate,
            max_transient,
            timeout_share: 0.25,
            permanent_rate: 0.0,
            corruption_rate: 0.0,
            corruption_amplitude: 0.0,
        }
    }

    /// The default chaos schedule of the `chaos_smoke` gate: a third of the
    /// pairs fail transiently (a quarter of those attempts as timeouts), 2%
    /// never succeed (forcing degradation), and 10% return mildly corrupted
    /// costs.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.33,
            max_transient: 2,
            timeout_share: 0.25,
            permanent_rate: 0.02,
            corruption_rate: 0.10,
            corruption_amplitude: 0.05,
        }
    }

    /// The deterministic fate of one `(query, config)` pair under this plan.
    pub(crate) fn fate(&self, query_fp: u64, config_fp: u64) -> PairFate {
        let h = splitmix64(self.seed ^ query_fp ^ config_fp.rotate_left(32));
        let permanent = unit(splitmix64(h ^ 0x01)) < self.permanent_rate;
        let faults = if permanent {
            u32::MAX
        } else if unit(splitmix64(h ^ 0x02)) < self.transient_rate {
            1 + (splitmix64(h ^ 0x03) % u64::from(self.max_transient.max(1))) as u32
        } else {
            0
        };
        let factor = if unit(splitmix64(h ^ 0x04)) < self.corruption_rate {
            let u = 2.0 * unit(splitmix64(h ^ 0x05)) - 1.0;
            1.0 + self.corruption_amplitude * u
        } else {
            1.0
        };
        PairFate { faults, factor, timeout_salt: splitmix64(h ^ 0x06) }
    }
}

/// What the plan has in store for one probe pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PairFate {
    /// How many leading attempts fail (`u32::MAX` = never succeeds).
    pub faults: u32,
    /// Multiplicative cost corruption applied to successful probes.
    pub factor: f64,
    /// Per-pair salt deciding which faulted attempts are timeouts.
    timeout_salt: u64,
}

impl PairFate {
    /// Whether the `attempt`-th (1-based) faulted attempt is a timeout.
    fn is_timeout(&self, plan: &FaultPlan, attempt: u32) -> bool {
        unit(splitmix64(self.timeout_salt ^ u64::from(attempt))) < plan.timeout_share
    }
}

/// A backend that injects the plan's faults in front of any inner backend.
///
/// Owns its inner backend (`Box<dyn WhatIfBackend>`) so long-lived hosts —
/// the `cophy-server` daemon wrapping a tenant, the chaos bench harness —
/// can hold it without borrowing.  Fault decisions are keyed per pair and
/// attempt (see `FaultPlan::fate`), so two backends over the same plan and
/// seed inject identical faults regardless of probe order.
#[derive(Debug)]
pub struct FaultInjectingBackend {
    inner: Box<dyn WhatIfBackend>,
    plan: FaultPlan,
    /// Attempts seen so far per pair that faults — the only mutable
    /// schedule state.  A pair whose fate injects no fault never reads its
    /// count, so it gets no entry.
    attempts: Mutex<HashMap<(u64, u64), u32>>,
}

impl FaultInjectingBackend {
    pub fn new(inner: Box<dyn WhatIfBackend>, plan: FaultPlan) -> Self {
        FaultInjectingBackend { inner, plan, attempts: Mutex::new(HashMap::new()) }
    }
}

impl WhatIfBackend for FaultInjectingBackend {
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
        let qfp = query_fingerprint(q);
        let cfp = config_fingerprint(config);
        let fate = self.plan.fate(qfp, cfp);
        if fate.faults > 0 {
            let attempt = {
                let mut attempts = self.attempts.lock().unwrap();
                let n = attempts.entry((qfp, cfp)).or_insert(0);
                *n = n.saturating_add(1);
                *n
            };
            if attempt <= fate.faults {
                // Injected before the inner backend is consulted: a faulted
                // attempt never spends a real what-if call.
                return Err(if fate.is_timeout(&self.plan, attempt) {
                    BackendError::Timeout { query: qfp, config: cfp, elapsed_ms: 0 }
                } else {
                    BackendError::Transient { query: qfp, config: cfp, attempt }
                });
            }
        }
        let mut ans = self.inner.try_probe(q, config)?;
        if fate.factor != 1.0 {
            ans.total_cost *= fate.factor;
            ans.internal_cost *= fate.factor;
        }
        Ok(ans)
    }

    fn what_if_calls(&self) -> u64 {
        self.inner.what_if_calls()
    }

    fn reset_call_counter(&self) {
        self.inner.reset_call_counter()
    }
}

/// Seed of the per-(pair, attempt) backoff jitter draw.
const JITTER_SEED: u64 = 0x5EED;

/// Capped exponential backoff with seeded jitter and a per-probe deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per probe (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Wall-clock budget of one probe *including* its retries and backoffs;
    /// past it the probe gives up with its last error.
    pub probe_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    /// The production default: four attempts, 1 ms base backoff capped at
    /// 20 ms, 250 ms per probe.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            probe_deadline: Some(Duration::from_millis(250)),
        }
    }
}

impl RetryPolicy {
    /// No retries at all — every preparation path behaves exactly as before
    /// the fault layer existed (zero extra probes, bit-identical results).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// The backoff before retrying after the `attempt`-th (1-based) failed
    /// attempt: `base · 2^(attempt-1)`, capped, scaled by a deterministic
    /// jitter in `[0.5, 1.0)` drawn from `(pair, attempt)` under a fixed seed.
    pub fn backoff(&self, query_fp: u64, config_fp: u64, attempt: u32) -> Duration {
        let exp =
            self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16)).min(self.max_backoff);
        let bits =
            splitmix64(JITTER_SEED ^ query_fp ^ config_fp.rotate_left(32) ^ u64::from(attempt));
        exp.mul_f64(0.5 + 0.5 * unit(bits))
    }
}

/// The outcome of one retried probe: the final answer (or the last error
/// once attempts are exhausted) plus how many retries were spent.
#[derive(Debug, Clone, PartialEq)]
pub struct RetriedProbe {
    pub result: Result<ProbeAnswer, BackendError>,
    pub retries: u32,
}

/// Probe with retry: re-attempts retryable failures per `policy`, sleeping
/// the backoff between attempts, until success, a non-retryable error, the
/// per-probe deadline, or exhaustion.
pub fn probe_with_retry(
    backend: &dyn WhatIfBackend,
    policy: &RetryPolicy,
    q: &Query,
    config: &Configuration,
) -> RetriedProbe {
    let started = Instant::now();
    let probe_deadline = policy.probe_deadline.map(|d| started + d);
    let mut retries = 0u32;
    loop {
        match backend.try_probe(q, config) {
            Ok(ans) => return RetriedProbe { result: Ok(ans), retries },
            Err(e) => {
                let attempt = retries + 1;
                if !e.is_retryable()
                    || attempt >= policy.max_attempts
                    || probe_deadline.is_some_and(|dl| Instant::now() >= dl)
                {
                    return RetriedProbe { result: Err(e), retries };
                }
                let (qfp, cfp) = match e {
                    BackendError::Transient { query, config, .. }
                    | BackendError::Timeout { query, config, .. } => (query, config),
                    _ => unreachable!("non-retryable errors returned above"),
                };
                std::thread::sleep(policy.backoff(qfp, cfp, attempt));
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WhatIfOptimizer;
    use cophy_catalog::TpchGen;
    use cophy_workload::HomGen;

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        }
    }

    #[test]
    fn zero_plan_is_bit_identical_passthrough() {
        let clean = opt();
        let faulty = FaultInjectingBackend::new(Box::new(opt()), FaultPlan::none(7));
        let w = HomGen::new(5).generate(clean.schema(), 8);
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let a = clean.try_probe(q, &Configuration::empty()).unwrap();
            let b = faulty.try_probe(q, &Configuration::empty()).unwrap();
            assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
            assert_eq!(a.internal_cost.to_bits(), b.internal_cost.to_bits());
            assert_eq!(a.leaves, b.leaves);
        }
        assert_eq!(faulty.what_if_calls(), clean.what_if_calls());
    }

    #[test]
    fn only_faulting_pairs_keep_an_attempt_count() {
        let w = HomGen::new(6).generate(opt().schema(), 8);
        let configs = [Configuration::empty(), Configuration::baseline(opt().schema())];
        for (plan, faults) in [(FaultPlan::none(7), false), (FaultPlan::chaos(5), true)] {
            let faulty = FaultInjectingBackend::new(Box::new(opt()), plan.clone());
            let (mut pairs, mut faulting) = (0, 0);
            for (_, stmt, _) in w.iter() {
                let q = stmt.read_shell();
                for cfg in &configs {
                    // Twice: a pair asked again adds no entry either.
                    let _ = faulty.try_probe(q, cfg);
                    let _ = faulty.try_probe(q, cfg);
                    pairs += 1;
                    let fate = plan.fate(query_fingerprint(q), config_fingerprint(cfg));
                    faulting += usize::from(fate.faults > 0);
                }
            }
            assert_eq!(faulty.attempts.lock().unwrap().len(), faulting, "{plan:?}");
            assert_eq!(faulting > 0, faults, "{plan:?}");
            assert!(faulting < pairs, "{plan:?}");
        }
    }

    #[test]
    fn transient_pairs_fail_then_succeed_deterministically() {
        let plan = FaultPlan::transient_only(42, 1.0, 3);
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan.clone());
        let li = faulty.schema().table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let fate = plan.fate(query_fingerprint(&q), config_fingerprint(&Configuration::empty()));
        assert!((1..=3).contains(&fate.faults));
        for attempt in 1..=fate.faults {
            let err = faulty.try_probe(&q, &Configuration::empty()).unwrap_err();
            assert!(err.is_retryable(), "attempt {attempt} must inject a retryable fault");
        }
        assert!(faulty.try_probe(&q, &Configuration::empty()).is_ok());
        // No real what-if call was spent on the faulted attempts.
        assert_eq!(faulty.what_if_calls(), 1);
    }

    #[test]
    fn retry_recovers_all_transient_schedules() {
        let plan = FaultPlan::transient_only(9, 1.0, 3);
        let clean = opt();
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let w = HomGen::new(2).generate(clean.schema(), 6);
        let policy = fast_retry(4);
        let mut recovered = 0;
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let probe = probe_with_retry(&faulty, &policy, q, &Configuration::empty());
            recovered += u32::from(probe.retries > 0);
            let want = clean.try_probe(q, &Configuration::empty()).unwrap();
            assert_eq!(probe.result.unwrap().total_cost.to_bits(), want.total_cost.to_bits());
        }
        assert!(recovered > 0, "an all-pairs schedule must have injected faults");
    }

    #[test]
    fn permanent_pairs_exhaust_retries() {
        let mut plan = FaultPlan::none(3);
        plan.permanent_rate = 1.0;
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let li = faulty.schema().table_by_name("lineitem").unwrap().id;
        let probe =
            probe_with_retry(&faulty, &fast_retry(3), &Query::scan(li), &Configuration::empty());
        assert!(probe.result.is_err());
        assert_eq!(probe.retries, 2, "3 attempts = 2 retries");
        assert_eq!(faulty.what_if_calls(), 0);
    }

    #[test]
    fn hard_errors_are_not_retried() {
        // A quota of zero makes the metered inner fail hard on attempt one.
        let err = BackendError::QuotaExceeded { spent: 1, limit: 1 };
        assert!(!err.is_retryable());
        let err = BackendError::UnrecordedProbe { query: 1, config: 2, recorded: 0 };
        assert!(!err.is_retryable());
        assert!(BackendError::Transient { query: 1, config: 2, attempt: 1 }.is_retryable());
        assert!(BackendError::Timeout { query: 1, config: 2, elapsed_ms: 5 }.is_retryable());
    }

    #[test]
    fn corruption_is_deterministic_and_bounded() {
        let mut plan = FaultPlan::none(11);
        plan.corruption_rate = 1.0;
        plan.corruption_amplitude = 0.05;
        let clean = opt();
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let w = HomGen::new(4).generate(clean.schema(), 6);
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let base = clean.try_probe(q, &Configuration::empty()).unwrap().total_cost;
            let a = faulty.try_probe(q, &Configuration::empty()).unwrap().total_cost;
            let b = faulty.try_probe(q, &Configuration::empty()).unwrap().total_cost;
            assert_eq!(a.to_bits(), b.to_bits(), "corruption must be deterministic per pair");
            assert!((a / base - 1.0).abs() <= 0.05 + 1e-12);
        }
    }

    #[test]
    fn backoff_grows_capped_with_seeded_jitter() {
        let policy = RetryPolicy::default();
        let b1 = policy.backoff(1, 2, 1);
        let b2 = policy.backoff(1, 2, 2);
        let b9 = policy.backoff(1, 2, 9);
        assert!(b1 >= policy.base_backoff / 2);
        assert!(b2 <= policy.max_backoff);
        assert!(b9 <= policy.max_backoff, "backoff must stay capped");
        assert_eq!(policy.backoff(1, 2, 1), b1, "jitter must be deterministic");
        assert_ne!(policy.backoff(1, 3, 1), b1, "different pairs draw different jitter");
    }
}
