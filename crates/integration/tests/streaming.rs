//! Streaming-ingestion and block-decomposition properties (PR 10).
//!
//! Three invariants of the large-workload path:
//!
//! 0. **The door is invisible.**  A materialized workload handed to
//!    `try_tune` / `try_session` and the same statements streamed into
//!    `try_tune_source` / `try_session_streaming` build the same model and
//!    give the same answer, bit for bit, under every compression policy.
//! 1. **Chunking is invisible.**  Feeding a mixed workload through the
//!    chunked `WorkloadSource` ingestion in any chunk size yields a model
//!    bit-identical to one-shot ingestion (compared as exported MPS text,
//!    which captures queries, weights, candidates and constraint rows).
//! 2. **Decomposition is sound.**  The block-decomposed Lagrangian solve —
//!    per-statement subproblems sharded across worker threads, coordinated
//!    by shared-row multipliers — agrees with the monolithic
//!    branch-and-bound solve on small mixed workloads within the solvers'
//!    proven gap slack, and its bound never crosses its incumbent.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use cophy::{
    CGen, CoPhy, CoPhyOptions, CompressionPolicy, ConstraintSet, SolveBudget, SolverBackend,
    TuningSession,
};
use cophy_catalog::{Index, TpchGen};
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HetGen, HomGen, UpdateGen, Workload, DEFAULT_CHUNK};

mod common;

/// A mixed select + update workload (the shape that exercises both block
/// kinds: query blocks and update blocks with fixed base costs).
fn mixed_workload(
    schema: &cophy_catalog::Schema,
    seed: u64,
    n_sel: usize,
    n_upd: usize,
) -> Workload {
    let mut w = HomGen::new(seed).generate(schema, n_sel);
    for (_, stmt, f) in UpdateGen::new(seed ^ 0xA5).generate(schema, n_upd).iter() {
        w.push_weighted(stmt.clone(), f);
    }
    w
}

/// The materialized doors against the streamed ones, on `w` under `policy`.
/// No wall clock: every solve ends by gap or by its iteration cap.
fn assert_doors_agree(w: &Workload, policy: CompressionPolicy, iterations: usize, label: &str) {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let opts = CoPhyOptions {
        budget: SolveBudget {
            time_limit: None,
            ..SolveBudget::within(0.05).with_nodes(iterations)
        },
        compression: policy,
        ..Default::default()
    };
    let cophy = CoPhy::new(&o, opts);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);

    let batch = cophy.try_tune(w, &constraints).unwrap();
    let streamed = cophy.try_tune_source(&mut w.source(), &constraints).unwrap();
    let mut session = cophy.try_session(w, constraints.clone()).unwrap();
    let mut streamed_session = cophy.try_session_streaming(&mut w.source(), constraints).unwrap();
    assert_eq!(session.n_statements(), w.len(), "{label}");
    assert_eq!(session.n_representatives(), streamed_session.n_representatives(), "{label}");
    assert_eq!(session.export_mps(), streamed_session.export_mps(), "{label}: Theorem-1 model");

    let (recommended, streamed_recommended) = (session.recommend(), streamed_session.recommend());
    for (a, b) in [(&batch, &streamed), (&recommended, &streamed_recommended)] {
        for (x, y) in [(a.objective, b.objective), (a.bound, b.bound), (a.gap, b.gap)] {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} vs {y}");
        }
        assert_eq!(a.configuration, b.configuration, "{label}");
        assert_eq!(a.stats.what_if_calls, b.stats.what_if_calls, "{label}");
        assert_eq!(a.stats.n_candidates, b.stats.n_candidates, "{label}");
        assert_eq!(a.compression, b.compression, "{label}");
        assert_eq!(a.compression.is_some(), !policy.is_off(), "{label}");
    }
}

#[test]
fn every_door_gives_the_same_answer_under_every_policy() {
    let schema = TpchGen::default().schema();
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    let policies = |rng: &mut SmallRng| {
        [
            CompressionPolicy::Off,
            CompressionPolicy::Lossless,
            CompressionPolicy::Epsilon(rng.gen_range(0.01..0.6)),
            CompressionPolicy::default_epsilon(),
        ]
    };
    let (seed, n) = (rng.gen_range(0..1000u64), rng.gen_range(12..40usize));
    for (shape, w, iterations) in [
        ("long", common::long_workload(&schema), 40),
        ("hom", HomGen::new(seed).generate(&schema, n), 400),
        ("het", HetGen::new(seed).generate(&schema, n), 400),
        ("update_mix", mixed_workload(&schema, seed, n, n / 3 + 1), 400),
    ] {
        for policy in policies(&mut rng) {
            assert_doors_agree(&w, policy, iterations, &format!("{shape}:{seed}:{n}/{policy}"));
        }
    }
}

/// `approx_state_bytes` — what the daemon's LRU evicts on — counts the
/// clustering a session keeps for itself, which follows the distinct shells
/// absorbed.  A session without one (compression off, or opened over a
/// shared cache) reports, before its first solve, its candidates alone.
#[test]
fn state_bytes_count_the_sessions_private_clustering() {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let w = HomGen::new(7).generate(o.schema(), 120);
    let clustering_bytes = |s: &TuningSession| {
        s.approx_state_bytes() - s.candidates().len() * (std::mem::size_of::<Index>() + 16)
    };
    let plain = CoPhy::new(&o, CoPhyOptions::default());
    let off = plain.try_session(&w, constraints.clone()).unwrap();
    let opts =
        CoPhyOptions { compression: CompressionPolicy::default_epsilon(), ..Default::default() };
    let cophy = CoPhy::new(&o, opts);
    let (cache, candidates) = (off.cache(), off.candidates().clone());
    let shared = cophy.try_session_shared(cache, candidates, constraints.clone()).unwrap();
    assert_eq!((clustering_bytes(&off), clustering_bytes(&shared)), (0, 0));

    // The same templates under fresh constants, twice: new shells grow the
    // figure, their exact repeats add weight and no state.
    let mut session = cophy.try_session(&w, constraints).unwrap();
    let fresh = HomGen::new(8).generate(o.schema(), 120);
    let mut bytes = vec![clustering_bytes(&session)];
    for _ in 0..2 {
        session.try_add_source(&mut fresh.source(), DEFAULT_CHUNK).unwrap();
        bytes.push(clustering_bytes(&session));
    }
    assert!(0 < bytes[0] && bytes[0] < bytes[1] && bytes[1] == bytes[2], "{bytes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chunked_ingestion_builds_bit_identical_models(
        seed in 0u64..1000,
        n in 10usize..36,
        chunk in 1usize..17,
        lossless in any::<bool>(),
    ) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let policy = if lossless {
            CompressionPolicy::Lossless
        } else {
            CompressionPolicy::default_epsilon()
        };
        let opts = CoPhyOptions { compression: policy, ..Default::default() };
        let cophy = CoPhy::new(&o, opts);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
        let w = mixed_workload(o.schema(), seed, n, n / 3 + 1);

        let empty = Workload::new();
        let mut one_shot =
            cophy.try_session_streaming(&mut empty.source(), constraints.clone()).unwrap();
        one_shot.try_add_source(&mut w.source(), w.len()).unwrap();
        let mut chunked = cophy.try_session_streaming(&mut empty.source(), constraints).unwrap();
        chunked.try_add_source(&mut w.source(), chunk).unwrap();

        prop_assert_eq!(one_shot.n_statements(), w.len());
        prop_assert_eq!(one_shot.n_statements(), chunked.n_statements());
        prop_assert_eq!(one_shot.n_representatives(), chunked.n_representatives());
        prop_assert_eq!(one_shot.export_mps(), chunked.export_mps());
    }

    #[test]
    fn decomposed_solve_matches_monolithic_within_gap_slack(
        seed in 0u64..500,
        n in 4usize..9,
    ) {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = mixed_workload(o.schema(), seed, n, 2);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.25);
        let candidates = CGen::default().generate(o.schema(), &w).truncate(10);
        let budget = SolveBudget { gap_limit: 1e-6, node_limit: Some(800), ..Default::default() };

        let lag_opts = CoPhyOptions {
            budget,
            backend: SolverBackend::Lagrangian,
            ..Default::default()
        };
        let lag = CoPhy::new(&o, lag_opts)
            .try_tune_with_candidates(&w, &candidates, &constraints)
            .unwrap();
        let bb_opts =
            CoPhyOptions { budget, backend: SolverBackend::BranchBound, ..Default::default() };
        let bb = CoPhy::new(&o, bb_opts)
            .try_tune_with_candidates(&w, &candidates, &constraints)
            .unwrap();

        // B&B is exact at this size; the decomposed incumbent may not beat
        // it, must sit within the solvers' summed proven gaps of it, and
        // must dominate its own bound.
        prop_assert!(lag.objective >= bb.objective - 1e-6);
        let slack = (lag.gap + bb.gap).max(0.02);
        prop_assert!(
            (lag.objective - bb.objective) / bb.objective <= slack + 1e-9,
            "decomposed {} vs monolithic {} exceeds slack {}",
            lag.objective,
            bb.objective,
            slack
        );
        prop_assert!(lag.bound <= lag.objective + 1e-6);
    }
}
