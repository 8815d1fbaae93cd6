//! The advisor's front doors, pinned as a table of numbers.
//!
//! `CoPhy` has five ways in — `try_tune`, `try_tune_with_candidates`,
//! `try_session` (+ `recommend`), `try_session_streaming` (+ `recommend`)
//! and `try_tune_source` — and what each of them computes is a contract:
//! the prepared workload (every template cost and slot), the probe bill,
//! the candidate set in id order, the Theorem-1 model, and the bits of the
//! answer.  This test folds all of that into one FNV-1a digest per door,
//! for three workload generators under three compression policies, one
//! workload longer than a `DEFAULT_CHUNK`, one rich-constraint tune
//! (branch-and-bound) and one fault-injected tune whose degradation report
//! is folded in too.
//!
//! The constants were recorded at commit 169295f (PR 13), when the doors
//! were four separate implementations of "statements → clustering →
//! what-if probes → candidates".  A refactor of the path behind the doors
//! that keeps every float bit, every id and every probe leaves them alone;
//! anything else moves them.  They are not to be regenerated.
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
            0xab342d56fe7d6f75,
            0x7717bbfb8fcb877e,
            0x92851d084e78db80,
            0x92851d084e78db80,
            0xab342d56fe7d6f75,
        ],
    ),
    (
        "hom/lossless",
        [
            0x005406ff41cac156,
            0x51d8313a58b52abd,
            0x72a8c9a86783b8c3,
            0x72a8c9a86783b8c3,
            0x005406ff41cac156,
        ],
    ),
    (
        "hom/epsilon",
        [
            0x8405d18572afabda,
            0x3568867558000544,
            0x12fc95819bb331b4,
            0x12fc95819bb331b4,
            0x8405d18572afabda,
        ],
    ),
    (
        "het/off",
        [
            0xce5568d03231deee,
            0x4e87109c68cff5b0,
            0x4769d768b03fd81a,
            0x4769d768b03fd81a,
            0xce5568d03231deee,
        ],
    ),
    (
        "het/lossless",
        [
            0x3f1aba33f5f63693,
            0xfa986d70b914834d,
            0x5f8a4665ee6612c7,
            0x5f8a4665ee6612c7,
            0x3f1aba33f5f63693,
        ],
    ),
    (
        "het/epsilon",
        [
            0x3f1aba33f5f63693,
            0xfa986d70b914834d,
            0x5f8a4665ee6612c7,
            0x5f8a4665ee6612c7,
            0x3f1aba33f5f63693,
        ],
    ),
    (
        "update_mix/off",
        [
            0xa7d07e2ae7cad1b7,
            0x59905b3b783a25a1,
            0xd22fff620bbd2b9c,
            0xd22fff620bbd2b9c,
            0xa7d07e2ae7cad1b7,
        ],
    ),
    (
        "update_mix/lossless",
        [
            0x07fe8479d5039978,
            0x2ec69ffa46b81fce,
            0xd00f20bffdb87083,
            0xd00f20bffdb87083,
            0x07fe8479d5039978,
        ],
    ),
    (
        "update_mix/epsilon",
        [
            0x57e5ed93f5465a70,
            0x5f561258ebaf08b6,
            0x7b63470a03e4f9b4,
            0x7b63470a03e4f9b4,
            0x57e5ed93f5465a70,
        ],
    ),
    (
        "long/off",
        [
            0x49d64622873a0194,
            0x43390646c900d403,
            0xb32fb41c486f13ca,
            0xb32fb41c486f13ca,
            0x49d64622873a0194,
        ],
    ),
    (
        "long/lossless",
        [
            0xa62177f9263d471f,
            0x90f133b91876aac3,
            0xbec09866d2a5e1e1,
            0xbec09866d2a5e1e1,
            0xa62177f9263d471f,
        ],
    ),
    (
        "long/epsilon",
        [
            0xddfda26aefe915c3,
            0x9d3ca32245ad565a,
            0xd6de81103778ca6f,
            0xd6de81103778ca6f,
            0xddfda26aefe915c3,
        ],
    ),
];

/// `try_tune` under a rich constraint set (branch-and-bound).
const EXPECTED_RICH: u64 = 0x70d3_e94e_e379_056d;

/// `try_tune` against a transient + permanent fault schedule, compression
/// off and on, `DegradationReport` folded in.
const EXPECTED_FAULTED: [u64; 2] = [0x1941_83a5_214c_1f03, 0x9d94_d808_7bc7_687c];

fn fold_recommendation(fold: &mut Fold, rec: &Recommendation) {
    for v in [rec.objective, rec.bound, rec.baseline_cost, rec.gap] {
        fold.f64(v);
    }
    fold.configuration(&rec.configuration);
    fold.u64(rec.stats.what_if_calls);
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
/// workload, the probe bill, the candidates and the model.
fn fold_session(fold: &mut Fold, session: &mut TuningSession) {
    fold.u64(session.n_statements() as u64);
    let pw = session.cache().snapshot();
    fold.u64(pw.what_if_calls);
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

/// One digest per door for `w` under `opts`.
fn door_digests(backend: &dyn WhatIfBackend, opts: &CoPhyOptions, w: &Workload) -> [u64; 5] {
    let schema = backend.schema();
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let cophy = CoPhy::new(backend, opts.clone());
    // A caller-curated `S_DBA`: a prefix of CGen's proposal for the workload.
    let curated: CandidateSet = CGen::default().generate(schema, w).truncate(40);
    DOORS.map(|door| {
        let mut fold = Fold::default();
        let rec = match door {
            "try_tune" => cophy.try_tune(w, &constraints).expect(door),
            "try_tune_with_candidates" => {
                cophy.try_tune_with_candidates(w, &curated, &constraints).expect(door)
            }
            "try_session" => {
                let mut s = cophy.try_session(w, constraints.clone()).expect(door);
                fold_session(&mut fold, &mut s);
                s.recommend()
            }
            "try_session_streaming" => {
                let mut s =
                    cophy.try_session_streaming(&mut w.source(), constraints.clone()).expect(door);
                fold_session(&mut fold, &mut s);
                s.recommend()
            }
            "try_tune_source" => cophy.try_tune_source(&mut w.source(), &constraints).expect(door),
            _ => unreachable!(),
        };
        fold_recommendation(&mut fold, &rec);
        fold.digest()
    })
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
    for (name, w, iterations) in &workloads {
        for (policy_name, policy) in POLICIES {
            let digests = door_digests(&o, &options(policy, *iterations), w);
            got.push((format!("{name}/{policy_name}"), digests));
        }
    }
    let matches = got.len() == EXPECTED.len()
        && got
            .iter()
            .zip(&EXPECTED)
            .all(|((label, d), (want_label, want))| label == want_label && d == want);
    if !matches {
        let mut table = String::new();
        for (label, digests) in &got {
            let cells: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
            table.push_str(&format!("    ({label:?}, [{}]),\n", cells.join(", ")));
        }
        panic!("front-door digests drifted from the recorded ones; computed:\n{table}");
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
        fold.digest()
    });
    assert_eq!(got, EXPECTED_FAULTED, "faulted tunes drifted: {got:#018x?}");
}
