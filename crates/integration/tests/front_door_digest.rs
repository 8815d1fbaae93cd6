//! The advisor's front doors, pinned as a table of numbers.
//!
//! `CoPhy` has five ways in — `try_tune`, `try_tune_with_candidates`,
//! `try_session` (+ `recommend`), `try_session_streaming` (+ `recommend`)
//! and `try_tune_source` — and what each of them computes is a contract:
//! the prepared workload (every template cost and slot), the candidate set
//! in id order, the Theorem-1 model, and the bits of the answer.  This test
//! folds all of that into one FNV-1a digest per door, for three workload
//! generators under three compression policies, one workload longer than a
//! `DEFAULT_CHUNK`, one rich-constraint tune (branch-and-bound) and one
//! fault-injected tune whose degradation report is folded in too.
//!
//! The probe bill — what-if calls spent — is pinned beside the digests as
//! plain counts (`EXPECTED_CALLS*`), not folded into them: a change that
//! asks the backend less often but answers alike moves a count and leaves
//! every digest alone.
//!
//! The constants were recorded at commit 169295f (PR 13), when the doors
//! were four separate implementations of "statements → clustering →
//! what-if probes → candidates".  A refactor of the path behind the doors
//! that keeps every float bit, every id and every probe answer leaves them
//! alone; anything else moves them.  They are not to be regenerated.  They
//! were re-recorded once, when the bill left the fold, from the unchanged
//! code of commit d2afe1c.
//!
//! **Re-record protocol** (this file and `probe_digest.rs`,
//! `lagrangian_digest.rs`, `bb_digest.rs`).  A change that moves an answer
//! on purpose changes constants only in a commit of its own, which contains
//! nothing but the new constants and whose message names the issue, the
//! test that justifies the move (an oracle or an equality property that
//! fails at the parent) and the gate numbers that moved with it.  The new
//! values are the ones the failing test prints: every digest test prints
//! its full computed table on a mismatch, and no switch or environment
//! variable regenerates anything.  First use: ISSUE 21 gave every door the
//! streaming clustering, which moved the three `long/epsilon` constants of
//! the materialized-workload doors onto their streamed twins' values
//! (`streaming.rs::every_door_gives_the_same_answer_under_every_policy`).

use std::time::Duration;

use cophy::{
    CGen, CandidateSet, Cmp, CoPhy, CoPhyOptions, CompressionPolicy, Constraint, ConstraintSet,
    IndexFilter, Recommendation, SolveBudget, TuningSession,
};
use cophy_catalog::{Schema, TpchGen};
use cophy_integration::Fold;
use cophy_optimizer::{
    FaultInjectingBackend, FaultPlan, RetryPolicy, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{HetGen, HomGen, UpdateGen, Workload};

mod common;

const DOORS: [&str; 5] = [
    "try_tune",
    "try_tune_with_candidates",
    "try_session",
    "try_session_streaming",
    "try_tune_source",
];

/// `(workload/policy, one digest per door in DOORS order)`.
const EXPECTED: [(&str, [u64; 5]); 12] = [
    (
        "hom/off",
        [
            0x14b3fbb3e7feea75,
            0xd7bfe46bc6b9196e,
            0xa475bc8f6f6a342c,
            0xa475bc8f6f6a342c,
            0x14b3fbb3e7feea75,
        ],
    ),
    (
        "hom/lossless",
        [
            0x90ecdc8e89485c56,
            0x9c5cbb7629a2da4d,
            0x4e48fb6abc064a4f,
            0x4e48fb6abc064a4f,
            0x90ecdc8e89485c56,
        ],
    ),
    (
        "hom/epsilon",
        [
            0x005d049d4a50cb80,
            0xb3f7565fffd3256a,
            0x7fadb4a923a45f98,
            0x7fadb4a923a45f98,
            0x005d049d4a50cb80,
        ],
    ),
    (
        "het/off",
        [
            0x8d49d07ca9533e31,
            0xd0d92b09211d42b3,
            0xe2a14358affc436c,
            0xe2a14358affc436c,
            0x8d49d07ca9533e31,
        ],
    ),
    (
        "het/lossless",
        [
            0xdca3ca08edd14cbc,
            0x11597b3b369c7d7e,
            0x8f483ab9ecd34611,
            0x8f483ab9ecd34611,
            0xdca3ca08edd14cbc,
        ],
    ),
    (
        "het/epsilon",
        [
            0xdca3ca08edd14cbc,
            0x11597b3b369c7d7e,
            0x8f483ab9ecd34611,
            0x8f483ab9ecd34611,
            0xdca3ca08edd14cbc,
        ],
    ),
    (
        "update_mix/off",
        [
            0xcaabe6e3b6bddc72,
            0x5afe9b14463072bc,
            0x860fdca48d7dd0b0,
            0x860fdca48d7dd0b0,
            0xcaabe6e3b6bddc72,
        ],
    ),
    (
        "update_mix/lossless",
        [
            0xfa5c00a7e3919a6d,
            0x810760ff7a811163,
            0xa988c49c3eff856f,
            0xa988c49c3eff856f,
            0xfa5c00a7e3919a6d,
        ],
    ),
    (
        "update_mix/epsilon",
        [
            0xd7d50d7dfba639c3,
            0xbf7b08e9951a8d89,
            0xa9c2b0a628792e34,
            0xa9c2b0a628792e34,
            0xd7d50d7dfba639c3,
        ],
    ),
    (
        "long/off",
        [
            0x755d3209869b0504,
            0x2f8e121e2c2d65ef,
            0xe485cd6d51b63abe,
            0xe485cd6d51b63abe,
            0x755d3209869b0504,
        ],
    ),
    (
        "long/lossless",
        [
            0x39bc8f8d1f5dc16f,
            0xb17beaedcb462a7f,
            0x2108f9c2a4065129,
            0x2108f9c2a4065129,
            0x39bc8f8d1f5dc16f,
        ],
    ),
    (
        "long/epsilon",
        [
            0xf25c01b3e8a1f703,
            0xe72bcda9a848c4ca,
            0xa236e9913ef6af1f,
            0xa236e9913ef6af1f,
            0xf25c01b3e8a1f703,
        ],
    ),
];

/// `try_tune` under a rich constraint set (branch-and-bound).
const EXPECTED_RICH: u64 = 0x8116_bb10_4ced_ab63;

/// `try_tune` against a transient + permanent fault schedule, compression
/// off and on, `DegradationReport` folded in.
const EXPECTED_FAULTED: [u64; 2] = [0x88de_5f12_763d_8945, 0xf65f_4e4f_a588_3aa5];

/// What-if calls spent by each door of [`EXPECTED`], in the same shape.
const EXPECTED_CALLS: [(&str, [u64; 5]); 12] = [
    ("hom/off", [174, 174, 174, 174, 174]),
    ("hom/lossless", [174, 174, 174, 174, 174]),
    ("hom/epsilon", [92, 92, 92, 92, 92]),
    ("het/off", [74, 74, 74, 74, 74]),
    ("het/lossless", [74, 74, 74, 74, 74]),
    ("het/epsilon", [74, 74, 74, 74, 74]),
    ("update_mix/off", [150, 150, 150, 150, 150]),
    ("update_mix/lossless", [150, 150, 150, 150, 150]),
    ("update_mix/epsilon", [89, 89, 89, 89, 89]),
    ("long/off", [2597, 2597, 2597, 2597, 2597]),
    ("long/lossless", [2533, 2533, 2533, 2533, 2533]),
    ("long/epsilon", [450, 450, 450, 450, 450]),
];

/// What-if calls spent by the tune of [`EXPECTED_RICH`].
const EXPECTED_CALLS_RICH: u64 = 85;

/// What-if calls spent by the tunes of [`EXPECTED_FAULTED`].
const EXPECTED_CALLS_FAULTED: [u64; 2] = [129, 75];

fn fold_recommendation(fold: &mut Fold, rec: &Recommendation) {
    for v in [rec.objective, rec.bound, rec.baseline_cost, rec.gap] {
        fold.f64(v);
    }
    fold.configuration(&rec.configuration);
    fold.u64(rec.stats.n_candidates as u64);
    fold.u64(rec.stats.n_variables as u64);
    match &rec.compression {
        None => fold.u64(0),
        Some(c) => {
            fold.u64(1);
            fold.u64(c.n_original as u64);
            fold.u64(c.n_representatives as u64);
            fold.f64(c.total_weight);
        }
    }
    match &rec.degradation {
        None => fold.u64(0),
        Some(d) => {
            fold.u64(1);
            for v in [d.probes_failed, d.retries, d.probes_recovered, d.probes_substituted] {
                fold.u64(v);
            }
            fold.u64(d.statements_degraded as u64);
            fold.u64(d.statements_total as u64);
            fold.f64(d.coverage);
            fold.f64(d.worst_case_inflation);
        }
    }
}

/// Everything a session holds before its first solve: the prepared
/// workload, the candidates and the model.  Returns the cache's probe bill.
fn fold_session(fold: &mut Fold, session: &mut TuningSession) -> u64 {
    fold.u64(session.n_statements() as u64);
    let pw = session.cache().snapshot();
    fold.u64(pw.queries.len() as u64);
    for pq in &pw.queries {
        fold.u64(u64::from(pq.qid.0));
        fold.f64(pq.weight);
        fold.f64(pq.fixed_update_cost);
        fold.u64(pq.templates.len() as u64);
        for t in &pq.templates {
            fold.f64(t.internal_cost);
            for s in &t.slots {
                fold.u64(u64::from(s.table.0));
                fold.u64(s.required.len() as u64);
                for c in &s.required {
                    fold.u64(u64::from(c.0));
                }
                fold.opt(s.heap_cost);
            }
        }
    }
    fold.u64(session.candidates().len() as u64);
    for (_, ix) in session.candidates().iter() {
        fold.index(ix);
    }
    fold.bytes(session.export_mps().as_bytes());
    pw.what_if_calls
}

fn optimizer() -> WhatIfOptimizer {
    WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
}

/// No wall-clock limit anywhere: every solve below ends by gap or by its
/// iteration cap, so the digests do not depend on the host.
fn options(compression: CompressionPolicy, iterations: usize) -> CoPhyOptions {
    CoPhyOptions {
        budget: SolveBudget {
            time_limit: None,
            ..SolveBudget::within(0.05).with_nodes(iterations)
        },
        compression,
        ..Default::default()
    }
}

/// One digest and one probe bill per door for `w` under `opts`.
fn door_digests(
    backend: &dyn WhatIfBackend,
    opts: &CoPhyOptions,
    w: &Workload,
) -> ([u64; 5], [u64; 5]) {
    let schema = backend.schema();
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let cophy = CoPhy::new(backend, opts.clone());
    // A caller-curated `S_DBA`: a prefix of CGen's proposal for the workload.
    let curated: CandidateSet = CGen::default().generate(schema, w).truncate(40);
    let doors = DOORS.map(|door| {
        let mut fold = Fold::default();
        let mut session_calls = None;
        let rec = match door {
            "try_tune" => cophy.try_tune(w, &constraints).expect(door),
            "try_tune_with_candidates" => {
                cophy.try_tune_with_candidates(w, &curated, &constraints).expect(door)
            }
            "try_session" => {
                let mut s = cophy.try_session(w, constraints.clone()).expect(door);
                session_calls = Some(fold_session(&mut fold, &mut s));
                s.recommend()
            }
            "try_session_streaming" => {
                let mut s =
                    cophy.try_session_streaming(&mut w.source(), constraints.clone()).expect(door);
                session_calls = Some(fold_session(&mut fold, &mut s));
                s.recommend()
            }
            "try_tune_source" => cophy.try_tune_source(&mut w.source(), &constraints).expect(door),
            _ => unreachable!(),
        };
        fold_recommendation(&mut fold, &rec);
        if let Some(calls) = session_calls {
            assert_eq!(calls, rec.stats.what_if_calls, "{door}: the cache's bill is the tune's");
        }
        (fold.digest(), rec.stats.what_if_calls)
    });
    (doors.map(|(digest, _)| digest), doors.map(|(_, calls)| calls))
}

fn hom(schema: &Schema) -> Workload {
    HomGen::new(3).generate(schema, 18)
}

fn het(schema: &Schema) -> Workload {
    HetGen::new(17).generate(schema, 14)
}

fn update_mix(schema: &Schema) -> Workload {
    UpdateGen::new(101).mix_into(schema, &HomGen::new(5).generate(schema, 18), 0.4)
}

const POLICIES: [(&str, CompressionPolicy); 3] = [
    ("off", CompressionPolicy::Off),
    ("lossless", CompressionPolicy::Lossless),
    ("epsilon", CompressionPolicy::Epsilon(CompressionPolicy::DEFAULT_EPSILON)),
];

/// The rows of a recorded table as the source text of its constant.
fn table(rows: &[(String, [u64; 5])], cell: impl Fn(u64) -> String) -> String {
    let mut table = String::new();
    for (label, row) in rows {
        let cells: Vec<String> = row.iter().map(|&v| cell(v)).collect();
        table.push_str(&format!("    ({label:?}, [{}]),\n", cells.join(", ")));
    }
    table
}

fn matches(got: &[(String, [u64; 5])], want: &[(&str, [u64; 5])]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((label, row), (want_label, want_row))| label == want_label && row == want_row)
}

#[test]
fn every_front_door_folds_to_its_recorded_digest() {
    let o = optimizer();
    let schema = o.schema().clone();
    let workloads: [(&str, Workload, usize); 4] = [
        ("hom", hom(&schema), 400),
        ("het", het(&schema), 400),
        ("update_mix", update_mix(&schema), 400),
        ("long", common::long_workload(&schema), 40),
    ];
    let mut got: Vec<(String, [u64; 5])> = Vec::new();
    let mut calls: Vec<(String, [u64; 5])> = Vec::new();
    for (name, w, iterations) in &workloads {
        for (policy_name, policy) in POLICIES {
            let (digests, bills) = door_digests(&o, &options(policy, *iterations), w);
            got.push((format!("{name}/{policy_name}"), digests));
            calls.push((format!("{name}/{policy_name}"), bills));
        }
    }
    // Answers first: a moved bill under unmoved answers reads as such.
    if !matches(&got, &EXPECTED) {
        panic!(
            "front-door digests drifted from the recorded ones; computed:\n{}",
            table(&got, |d| format!("{d:#018x}"))
        );
    }
    if !matches(&calls, &EXPECTED_CALLS) {
        panic!(
            "front-door probe bills drifted from the recorded ones; computed:\n{}",
            table(&calls, |c| c.to_string())
        );
    }
}

#[test]
fn rich_constraint_tune_folds_to_its_recorded_digest() {
    let o = optimizer();
    let schema = o.schema();
    let w = HomGen::new(77).generate(schema, 6);
    let li = schema.table_by_name("lineitem").expect("TPC-H").id;
    let rich = ConstraintSet::storage_fraction(schema, 0.5).with(Constraint::IndexCount {
        filter: IndexFilter::on_table(li),
        cmp: Cmp::Le,
        value: 1,
    });
    // A lean candidate grammar keeps the Theorem-1 LP small.
    let opts = CoPhyOptions {
        cgen: CGen { max_key_columns: 2, max_include_columns: 0 },
        ..options(CompressionPolicy::Off, 30)
    };
    let rec = CoPhy::new(&o, opts).try_tune(&w, &rich).expect("feasible");
    assert!(rec.configuration.on_table(li).count() <= 1);
    let mut fold = Fold::default();
    fold_recommendation(&mut fold, &rec);
    assert_eq!(
        fold.digest(),
        EXPECTED_RICH,
        "rich-constraint tune drifted: {:#018x}",
        fold.digest()
    );
    assert_eq!(rec.stats.what_if_calls, EXPECTED_CALLS_RICH, "rich-constraint probe bill drifted");
}

#[test]
fn faulted_tune_folds_to_its_recorded_digest() {
    let clean = optimizer();
    let w = update_mix(clean.schema());
    let constraints = ConstraintSet::storage_fraction(clean.schema(), 0.5);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(50),
        probe_deadline: None,
    };
    let got = [CompressionPolicy::Off, CompressionPolicy::default_epsilon()].map(|policy| {
        let faulty = FaultInjectingBackend::new(
            Box::new(optimizer()),
            FaultPlan { permanent_rate: 0.15, ..FaultPlan::transient_only(0xD16E57, 0.3, 2) },
        );
        let opts = CoPhyOptions { retry: retry.clone(), min_coverage: 0.0, ..options(policy, 400) };
        let rec =
            CoPhy::new(&faulty, opts).try_tune(&w, &constraints).expect("degrades, not fails");
        let d = rec.degradation.as_ref().expect("the schedule must fire");
        assert!(d.probes_recovered > 0 && d.probes_substituted > 0 && d.statements_degraded > 0);
        let mut fold = Fold::default();
        fold_recommendation(&mut fold, &rec);
        (fold.digest(), rec.stats.what_if_calls)
    });
    let digests = got.map(|(digest, _)| digest);
    assert_eq!(digests, EXPECTED_FAULTED, "faulted tunes drifted: {digests:#018x?}");
    let calls = got.map(|(_, calls)| calls);
    assert_eq!(calls, EXPECTED_CALLS_FAULTED, "faulted probe bills drifted: {calls:?}");
}
