//! The what-if kernel's output contract, pinned as one number.
//!
//! Every layer above the optimizer — INUM templates, BIP coefficients,
//! recommendations, probe counts, `improvement_pct` — is a function of the
//! [`ProbeAnswer`]s `dp::probe` reads off the DP's memo.  This test folds
//! every answer over a fixed family of inputs into one FNV-1a digest: all
//! three workload generators at three seeds, each statement probed under
//! the empty configuration, the clustered-primary-key baseline, every ideal
//! configuration INUM builds for it, and a 30-index `CGen` prefix.
//! `backend_replay`'s `smoke.trace` covers six statements; this covers the
//! six-table template, update shells and wide configurations.
//!
//! The answers carry costs and leaf requirements only, so two plans of
//! equal cost fold alike whichever of them won; the DP builds no plan that
//! could tell them apart.
//!
//! Each (query, configuration) pair is folded the first time it is asked,
//! compared by value: a second ask of a pair repeats an answer already
//! pinned, so how often a caller re-asks moves the probe count, not the
//! digest.  The constant was re-recorded when the fold became
//! first-ask-only, from the kernel of commit d2afe1c, unchanged.
//!
//! A kernel change that keeps every float bit and every tie-break leaves
//! the digest alone; anything else moves it (`front_door_digest.rs` has
//! the re-record protocol).  The same inputs also check that every probe
//! costs finitely, which the DP's pareto front assumes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cophy::CGen;
use cophy_catalog::{Configuration, Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::{Inum, PrepFaultReport};
use cophy_optimizer::{
    fnv1a, BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{HetGen, HomGen, Query, UpdateGen, Workload};

/// Recorded from the kernel at commit b657eae (PR 11), before the
/// back-pointer rewrite; re-recorded from the same answers under the
/// first-ask fold.
const EXPECTED_DIGEST: u64 = 0xd5b4_23b1_25e5_f163;

const SEEDS: [u64; 3] = [3, 17, 101];

/// A live optimizer that appends the answer to every pair it is first asked
/// to a byte log.
#[derive(Debug)]
struct DigestBackend {
    inner: WhatIfOptimizer,
    log: Mutex<Fold>,
    /// The pairs asked so far, bucketed by the FNV-1a of their rendering.
    asked: Mutex<HashMap<u64, Vec<(Query, Configuration)>>>,
    /// Answers with a non-finite total or internal cost.
    non_finite: AtomicU64,
}

impl DigestBackend {
    fn new() -> Self {
        DigestBackend {
            inner: WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A),
            log: Mutex::default(),
            asked: Mutex::default(),
            non_finite: AtomicU64::new(0),
        }
    }

    /// True the first time `(q, config)` is asked, compared by value.
    fn first_ask(&self, q: &Query, config: &Configuration) -> bool {
        let key = fnv1a(format!("{q:?}|{config:?}").as_bytes());
        let mut asked = self.asked.lock().expect("single-threaded test");
        let bucket = asked.entry(key).or_default();
        if bucket.iter().any(|(bq, bc)| bq == q && bc == config) {
            return false;
        }
        bucket.push((q.clone(), config.clone()));
        true
    }

    fn record(&self, ans: &ProbeAnswer) {
        let mut log = self.log.lock().expect("single-threaded test");
        log.f64(ans.total_cost);
        log.f64(ans.internal_cost);
        for leaf in &ans.leaves {
            log.u32(leaf.table.0);
            log.u32(leaf.required.len() as u32);
            for c in &leaf.required {
                log.u32(c.0);
            }
        }
    }
}

impl WhatIfBackend for DigestBackend {
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
        let ans = self.inner.try_probe(q, config)?;
        if !(ans.total_cost.is_finite() && ans.internal_cost.is_finite()) {
            self.non_finite.fetch_add(1, Ordering::Relaxed);
        }
        if self.first_ask(q, config) {
            self.record(&ans);
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

/// Probe every statement of `w` under the four configuration families.
fn probe_workload(backend: &DigestBackend, w: &Workload) {
    let schema = backend.schema();
    let baseline = Configuration::baseline(schema);
    let wide: Configuration =
        CGen::default().generate(schema, w).iter().take(30).map(|(_, ix)| ix.clone()).collect();
    let inum = Inum::new(backend);
    let mut faults = PrepFaultReport::default();
    for (qid, stmt, weight) in w.iter() {
        let q = stmt.read_shell();
        backend.try_probe(q, &Configuration::empty()).unwrap();
        backend.try_probe(q, &baseline).unwrap();
        // INUM's probing loop: the empty configuration again, then one
        // probe per ideal configuration of the statement.
        inum.try_prepare_statement(qid, stmt, weight, None, &mut faults)
            .expect("the live optimizer answers");
        backend.try_probe(q, &wide).unwrap();
    }
}

/// Probe all three generators at every seed; a backend over all inputs.
fn probe_inputs() -> DigestBackend {
    let backend = DigestBackend::new();
    let schema = backend.schema().clone();
    let mut max_tables = 0;
    for seed in SEEDS {
        let hom = HomGen::new(seed).generate(&schema, 30);
        let het = HetGen::new(seed).generate(&schema, 30);
        let upd = UpdateGen::new(seed).generate(&schema, 15);
        for w in [&hom, &het, &upd] {
            max_tables =
                w.iter().map(|(_, s, _)| s.read_shell().tables.len()).fold(max_tables, usize::max);
            probe_workload(&backend, w);
        }
    }
    assert_eq!(max_tables, 6, "the inputs must include the six-table template");
    backend
}

#[test]
fn probe_answers_fold_to_the_recorded_digest() {
    let backend = probe_inputs();
    let probes = backend.what_if_calls();
    assert!(probes > 2_000, "only {probes} probes folded");
    let digest = backend.log.lock().expect("single-threaded test").digest();
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "probe answers drifted from the recorded kernel ({probes} probes): {digest:#018x}"
    );
}

/// `dp.rs`'s front keeps one candidate per order, which equals the
/// stable-sort prune only when no cost is NaN.
#[test]
fn every_probe_costs_finitely() {
    let backend = probe_inputs();
    let non_finite = backend.non_finite.load(Ordering::Relaxed);
    let probes = backend.what_if_calls();
    assert_eq!(non_finite, 0, "{non_finite} of {probes} probes cost non-finitely");
}
