//! Record/replay coverage through the full advisor stack: a smoke tune
//! recorded against the live [`WhatIfOptimizer`] is checked in at
//! `tests/data/smoke.trace`, and replaying it through [`TraceReplay`] must
//! reproduce the recommendation **bit-identically** — with zero live
//! optimizer work.  This is the portability claim of the `WhatIfBackend`
//! seam made executable, and it gives CI a backend-swap smoke that runs
//! without the analytic optimizer in the loop.

use cophy::{CGen, CoPhy, CoPhyOptions, ConstraintSet, Recommendation};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, TraceRecorder, TraceReplay, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{HomGen, Workload};

const TRACE: &str = include_str!("data/smoke.trace");

/// The fixed smoke tune behind the fixture (all generators deterministic).
const SMOKE_SEED: u64 = 23;
const SMOKE_STATEMENTS: usize = 6;

fn smoke_workload(backend: &dyn WhatIfBackend) -> Workload {
    HomGen::new(SMOKE_SEED).generate(backend.schema(), SMOKE_STATEMENTS)
}

fn smoke_tune(backend: &dyn WhatIfBackend, w: &Workload) -> Recommendation {
    let candidates = CGen::default().generate(backend.schema(), w).truncate(10);
    let constraints = ConstraintSet::storage_fraction(backend.schema(), 0.5);
    CoPhy::new(backend, CoPhyOptions::default())
        .try_tune_with_candidates(w, &candidates, &constraints)
        .expect("storage-only tune is feasible")
}

#[test]
fn recorded_smoke_tune_replays_bit_identically() {
    let live = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let recorder = TraceRecorder::new(&live);
    let w = smoke_workload(&recorder);
    let recorded = smoke_tune(&recorder, &w);
    assert_eq!(
        recorder.serialize(),
        TRACE,
        "trace fixture drifted from the live backend; if the change is \
         intentional, regenerate via `regenerate_smoke_trace`"
    );

    // Replay the identical tune from the fixture alone.  Any probe the
    // replay cannot answer panics, so passing at all proves the trace
    // covers the whole advisor stack's probe sequence.
    let live_calls = live.what_if_calls();
    let replay = TraceReplay::parse(TpchGen::default().schema(), TRACE).expect("fixture parses");
    let replayed = smoke_tune(&replay, &w);
    assert_eq!(live.what_if_calls(), live_calls, "replay must not touch the live optimizer");
    assert_eq!(replayed.configuration, recorded.configuration, "recommendations must agree");
    assert_eq!(replayed.objective.to_bits(), recorded.objective.to_bits());
    assert_eq!(replayed.bound.to_bits(), recorded.bound.to_bits());
    assert_eq!(
        replayed.stats.what_if_calls, recorded.stats.what_if_calls,
        "what-if call accounting must be preserved across the backend swap"
    );
}

#[test]
fn replay_fixture_drives_the_advisor_stack_without_a_live_optimizer() {
    // CI's backend-swap smoke: no `WhatIfOptimizer` is ever constructed.
    let replay = TraceReplay::parse(TpchGen::default().schema(), TRACE).expect("fixture parses");
    let w = smoke_workload(&replay);
    let rec = smoke_tune(&replay, &w);
    assert!(rec.estimated_improvement() > 0.0, "replayed tune must still find improvements");
    assert!(rec.stats.what_if_calls > 0, "the stack must have probed the trace");
}

/// Regenerate `tests/data/smoke.trace` after an intentional backend or
/// format change:
/// `cargo test -p cophy-integration --test backend_replay regenerate -- --ignored`.
#[test]
#[ignore = "writes the trace fixture; run explicitly after backend/format changes"]
fn regenerate_smoke_trace() {
    let live = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let recorder = TraceRecorder::new(&live);
    let w = smoke_workload(&recorder);
    let _ = smoke_tune(&recorder, &w);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/smoke.trace");
    std::fs::write(path, recorder.serialize()).expect("write fixture");
}
