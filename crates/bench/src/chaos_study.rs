//! Robustness study (the `chaos` CI gate).
//!
//! Runs the same tune three times on one workload:
//!
//! 1. **clean** — the unwrapped what-if optimizer (the fault-free baseline);
//! 2. **zero-fault** — the same optimizer behind a [`FaultInjectingBackend`]
//!    with an all-zero [`FaultPlan`]: the wrapper must be *transparent* —
//!    bit-identical recommendation, not one extra what-if probe;
//! 3. **chaos** — a seeded [`FaultPlan::chaos`] schedule (transients,
//!    timeouts, a few permanent failures, mild cost corruption) under the
//!    retry/backoff policy: the pipeline must *complete*, report its
//!    degradation honestly, and land within a bounded cost delta of the
//!    fault-free tune.

use std::time::{Duration, Instant};

use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{
    FaultInjectingBackend, FaultPlan, RetryPolicy, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};

use crate::Cell::{Bool, Int, Num, Pct, Secs};
use crate::{Knobs, Outcome, Table};

/// The chaos schedule's seed — fixed so the study is reproducible and the
/// gate bounds below are meaningful.
const CHAOS_SEED: u64 = 0xC4A05;

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(50),
        ..Default::default()
    }
}

/// Run the whole study on the workload `hom:7:n`, `n` the scale's middle
/// size (the `server` study's workload, so the two gates stress the same
/// tune).
pub(crate) fn chaos(k: &Knobs) -> Outcome {
    let n = k.scale.sizes()[1];
    let t0 = Instant::now();
    let schema = TpchGen::default().schema();
    let o = WhatIfOptimizer::new(schema.clone(), SystemProfile::A);
    let w = cophy_workload::HomGen::new(7).generate(o.schema(), n);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);

    // 1. Fault-free baseline.
    let clean = CoPhy::new(&o, CoPhyOptions::default())
        .try_tune(&w, &constraints)
        .expect("fault-free tune is feasible");
    let clean_probes = o.what_if_calls();

    // 2. Zero-fault schedule: the wrapper must be invisible.
    let wrapped = FaultInjectingBackend::new(
        Box::new(WhatIfOptimizer::new(schema.clone(), SystemProfile::A)),
        FaultPlan::none(CHAOS_SEED),
    );
    let zero = CoPhy::new(&wrapped, CoPhyOptions::default())
        .try_tune(&w, &constraints)
        .expect("zero-fault tune is feasible");
    let wrapped_probes = wrapped.what_if_calls();
    let zero_fault_identical = zero.objective.to_bits() == clean.objective.to_bits()
        && zero.bound.to_bits() == clean.bound.to_bits()
        && zero.configuration == clean.configuration
        && zero.degradation.is_none();

    // 3. Chaos schedule under retry/backoff.
    let chaotic = FaultInjectingBackend::new(
        Box::new(WhatIfOptimizer::new(schema, SystemProfile::A)),
        FaultPlan::chaos(CHAOS_SEED),
    );
    let opts = CoPhyOptions { retry: fast_retry(), min_coverage: 0.25, ..Default::default() };
    let chaos = CoPhy::new(&chaotic, opts)
        .try_tune(&w, &constraints)
        .expect("chaos tune must complete (degraded, not dead)");

    // Relative cost of the chaos recommendation vs the fault-free tune
    // (positive = worse).
    let cost_delta = chaos.objective / clean.objective - 1.0;
    let chaos_probes = chaotic.what_if_calls();
    let d = chaos.degradation.as_ref();
    let count = |f: fn(&cophy::DegradationReport) -> u64| Int(d.map_or(0, f));
    let t = Table::record(
        format!(
            "workload hom:7:{n}, chaos seed {CHAOS_SEED:#x}, retry {} attempts",
            fast_retry().max_attempts
        ),
        vec![
            ("clean_probes", Int(clean_probes)),
            ("wrapped_probes", Int(wrapped_probes)),
            ("zero_fault_identical", Bool(zero_fault_identical)),
            ("clean_objective", Num(clean.objective)),
            ("chaos_objective", Num(chaos.objective)),
            ("cost_delta", Pct(cost_delta)),
            ("chaos_probes", Int(chaos_probes)),
            ("chaos_gap", Pct(chaos.gap)),
            ("probes_failed", count(|d| d.probes_failed)),
            ("retries", count(|d| d.retries)),
            ("probes_recovered", count(|d| d.probes_recovered)),
            ("probes_substituted", count(|d| d.probes_substituted)),
            ("statements_degraded", count(|d| d.statements_degraded as u64)),
            ("statements_total", Int(d.map_or(n, |d| d.statements_total) as u64)),
            ("coverage", Pct(d.map_or(1.0, |d| d.coverage))),
            ("worst_case_inflation", Pct(d.map_or(0.0, |d| d.worst_case_inflation))),
            ("wall", Secs(t0.elapsed())),
        ],
    );

    let mut out = Outcome::new(vec![t]);
    out.claim(
        zero_fault_identical,
        "a zero-fault schedule is bit-identical to the unwrapped backend",
    );
    out.claim(
        wrapped_probes == clean_probes,
        format!(
            "the zero-fault wrapper costs not one extra what-if probe: \
             {wrapped_probes} vs {clean_probes}"
        ),
    );
    out.claim(d.is_some(), "the chaos tune reports its degradation");
    out.claim(d.is_some_and(|d| d.probes_failed > 0), "the chaos schedule actually fires");
    out.claim(d.is_some_and(|d| d.probes_recovered > 0), "retries recover at least one transient");
    out.claim(
        d.is_some_and(|d| d.coverage >= 0.25),
        "chaos coverage stays at or above the 0.25 floor",
    );
    out.claim(chaos.gap.is_finite(), "the chaos tune proves a finite gap");
    // Bounded cost delta: cost corruption is ±5% per probe and lost
    // templates inflate by at most the advertised worst case, so 15% plus
    // the report's own inflation bound is a conservative ceiling.
    let ceiling = 0.15 + d.map_or(0.0, |d| d.worst_case_inflation);
    out.claim(
        cost_delta.abs() <= ceiling,
        format!(
            "the chaos cost delta stays under its ceiling: {:+.2}% vs {:.2}%",
            cost_delta * 100.0,
            ceiling * 100.0
        ),
    );
    out
}
