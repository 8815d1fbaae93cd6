//! Concurrency contract of the shared INUM cache: N threads driving N
//! distinct sessions over one `Arc<InumCache>` must (a) spend exactly the
//! what-if probes of a single session — preparation is paid once, shared by
//! all — and (b) produce recommendations byte-identical to running the same
//! sessions serially.  This is the in-process form of the guarantee the
//! `cophy-server` daemon sells over TCP.

use std::thread;

use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

const N_SESSIONS: usize = 8;

/// Fingerprint of a recommendation for byte-identity comparison: objective,
/// bound and gap bits plus the exact selected index set (wire encoding).
fn fingerprint(rec: &cophy::Recommendation) -> (u64, u64, u64, Vec<String>) {
    let mut wires: Vec<String> =
        rec.configuration.iter().map(cophy_optimizer::trace::fmt_index).collect();
    wires.sort();
    (rec.objective.to_bits(), rec.bound.to_bits(), rec.gap.to_bits(), wires)
}

#[test]
fn n_threads_over_one_cache_cost_one_preparation_and_agree_with_serial() {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(21).generate(o.schema(), 20);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);

    // One session builds the cache; its probe count is the whole budget.
    let builder = cophy.try_session(&w, constraints.clone()).unwrap();
    let cache = builder.cache();
    let candidates = builder.candidates().clone();
    let probes_single = o.what_if_calls();
    assert!(probes_single > 0);

    // Serial reference: one cold solve per distinct session shape (session
    // i pins the i-th candidate, so the N sessions are genuinely distinct).
    let pins: Vec<cophy_catalog::Index> =
        candidates.iter().take(N_SESSIONS).map(|(_, ix)| ix.clone()).collect();
    let serial: Vec<_> = pins
        .iter()
        .map(|pin| {
            let mut s = cophy
                .try_session_shared(cache.clone(), candidates.clone(), constraints.clone())
                .unwrap();
            s.pin_index(pin).unwrap();
            fingerprint(&s.recommend())
        })
        .collect();
    assert_eq!(o.what_if_calls(), probes_single, "shared sessions must not re-probe the optimizer");

    // Concurrent run: N OS threads, each its own session over the same Arc.
    let concurrent: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = pins
            .iter()
            .map(|pin| {
                let cache = cache.clone();
                let candidates = candidates.clone();
                let constraints = constraints.clone();
                let cophy = &cophy;
                scope.spawn(move || {
                    let mut s = cophy.try_session_shared(cache, candidates, constraints).unwrap();
                    s.pin_index(pin).unwrap();
                    fingerprint(&s.recommend())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    });

    // (a) The probe ledger did not move: N concurrent sessions cost exactly
    // one session's preparation.
    assert_eq!(
        o.what_if_calls(),
        probes_single,
        "concurrent shared sessions must not re-probe the optimizer"
    );

    // (b) Every concurrent recommendation is byte-identical to its serial
    // counterpart: same objective/bound/gap bits, same index wire set.
    for (i, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
        assert_eq!(c, s, "session {i} diverged from its serial reference");
    }
}

#[test]
fn concurrent_what_if_probes_are_free_and_consistent() {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(23).generate(o.schema(), 12);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let builder = cophy.try_session(&w, constraints.clone()).unwrap();
    let cache = builder.cache();
    let candidates = builder.candidates().clone();
    let probes_single = o.what_if_calls();

    let cfg = cophy_catalog::Configuration::from_indexes(
        candidates.iter().take(3).map(|(_, ix)| ix.clone()),
    );
    let reference = builder.what_if(&cfg);

    let answers: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..N_SESSIONS)
            .map(|_| {
                let (cache, candidates, constraints, cfg) =
                    (cache.clone(), candidates.clone(), constraints.clone(), cfg.clone());
                let cophy = &cophy;
                scope.spawn(move || {
                    let s = cophy.try_session_shared(cache, candidates, constraints).unwrap();
                    s.what_if(&cfg)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(o.what_if_calls(), probes_single, "what_if must stay memo-lookup under sharing");
    for a in &answers {
        assert_eq!(a.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(a.baseline_cost.to_bits(), reference.baseline_cost.to_bits());
    }
}
