//! Record/replay coverage through the full advisor stack: a smoke tune
//! recorded against the live [`WhatIfOptimizer`] is checked in at
//! `tests/data/smoke.trace`, and replaying it through [`TraceReplay`] must
//! reproduce the recommendation **bit-identically** — with zero live
//! optimizer work.  This is the portability claim of the `WhatIfBackend`
//! seam made executable, and it gives CI a backend-swap smoke that runs
//! without the analytic optimizer in the loop.
//!
//! The seam's other side: a backend whose answer does not describe the
//! probed query — a replayed trace with an edited leaf, or a live backend
//! behind a corrupting wrapper (bad leaves, or an internal cost that is not
//! finite and non-negative) — fails the tune with a typed
//! `BackendError::MalformedAnswer` instead of panicking inside INUM.

use cophy::{CGen, CoPhy, CoPhyError, CoPhyOptions, ConstraintSet, Recommendation};
use cophy_catalog::{ColumnId, Configuration, Schema, TableId, TpchGen};
use cophy_inum::{Inum, PrepFaultReport};
use cophy_optimizer::{
    config_fingerprint, query_fingerprint, BackendError, CostModel, ProbeAnswer, SystemProfile,
    TraceRecorder, TraceReplay, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{HomGen, Query, Workload};

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

/// The fixture's empty-configuration probe of its first query, whose first
/// leaf (table 3) the hostile-trace test rewrites.
const EMPTY_PROBE: &str = "probe 10ad67dd5acfaf9a cbf29ce484222325 410c9bb0c9f64264 \
                           40bbd2d93ec84c80 3:- 6:- 7:- 1:-";

#[test]
fn a_replayed_leaf_on_a_missing_table_fails_the_tune_typed() {
    assert_eq!(TRACE.matches(EMPTY_PROBE).count(), 1, "fixture line moved");
    let edited = TRACE.replace(EMPTY_PROBE, &EMPTY_PROBE.replace(" 3:-", " 999:-"));
    let replay = TraceReplay::parse(TpchGen::default().schema(), &edited).expect("edit parses");
    let w = smoke_workload(&replay);
    let constraints = ConstraintSet::storage_fraction(replay.schema(), 0.5);
    let err = CoPhy::new(&replay, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap_err();
    assert_eq!(
        err,
        CoPhyError::Backend(BackendError::MalformedAnswer {
            query: 0x10ad_67dd_5acf_af9a,
            config: config_fingerprint(&Configuration::empty()),
        })
    );
}

/// How [`CorruptingBackend`] bends every answer of its live optimizer.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// The first leaf names a table the schema does not have.
    TableOutOfRange,
    /// The first leaf names a real table the query does not read.
    ForeignTable,
    /// One leaf too few.
    LeafCount,
    /// The first leaf requires a column its table does not have.
    ColumnOutOfRange,
    /// The internal cost is replaced by this value.
    InternalCost(f64),
}

/// A live optimizer behind a wrapper that corrupts each answer it returns.
#[derive(Debug)]
struct CorruptingBackend {
    inner: WhatIfOptimizer,
    corruption: Corruption,
}

impl WhatIfBackend for CorruptingBackend {
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
        let mut ans = WhatIfBackend::try_probe(&self.inner, q, config)?;
        match self.corruption {
            Corruption::TableOutOfRange => ans.leaves[0].table = TableId(999),
            Corruption::ForeignTable => {
                let mut tables = self.schema().tables().iter().map(|t| t.id);
                ans.leaves[0].table =
                    tables.find(|t| !q.tables.contains(t)).expect("a foreign table");
            }
            Corruption::LeafCount => {
                ans.leaves.pop();
            }
            Corruption::ColumnOutOfRange => ans.leaves[0].required = vec![ColumnId(999)],
            Corruption::InternalCost(cost) => ans.internal_cost = cost,
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

#[test]
fn a_corrupted_answer_fails_preparation_and_the_tune_typed() {
    for corruption in [
        Corruption::TableOutOfRange,
        Corruption::ForeignTable,
        Corruption::LeafCount,
        Corruption::ColumnOutOfRange,
        Corruption::InternalCost(f64::INFINITY),
        Corruption::InternalCost(f64::NAN),
        Corruption::InternalCost(f64::NEG_INFINITY),
        Corruption::InternalCost(-1.0),
    ] {
        let backend = CorruptingBackend {
            inner: WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A),
            corruption,
        };
        let w = smoke_workload(&backend);
        let (qid, stmt, weight) = w.iter().next().expect("a statement");
        // The empty configuration is the first probe of every statement.
        let want = BackendError::MalformedAnswer {
            query: query_fingerprint(stmt.read_shell()),
            config: config_fingerprint(&Configuration::empty()),
        };

        let mut report = PrepFaultReport::default();
        let err = Inum::new(&backend)
            .try_prepare_statement(qid, stmt, weight, None, &mut report)
            .unwrap_err();
        assert_eq!(err, want, "{corruption:?}");
        assert!(!err.is_retryable());
        assert_eq!(report, PrepFaultReport::default(), "{corruption:?}: not a lost probe");

        let constraints = ConstraintSet::storage_fraction(backend.schema(), 0.5);
        let err = CoPhy::new(&backend, CoPhyOptions::default()).try_tune(&w, &constraints);
        assert_eq!(err.unwrap_err(), CoPhyError::Backend(want), "{corruption:?}");
    }
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
