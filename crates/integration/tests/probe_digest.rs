//! The what-if kernel's output contract, pinned as one number.
//!
//! Every layer above the optimizer — INUM templates, BIP coefficients,
//! recommendations, probe counts, `improvement_pct` — is a function of the
//! [`ProbeAnswer`]s `dp::optimize` produces.  This test folds every answer
//! over a fixed family of inputs into one FNV-1a digest: all three workload
//! generators at three seeds, each statement probed under the empty
//! configuration, the clustered-primary-key baseline, every ideal
//! configuration INUM builds for it, and a 30-index `CGen` prefix.
//! `backend_replay`'s `smoke.trace` covers six statements; this covers the
//! six-table template, update shells and wide configurations.
//!
//! A kernel change that keeps every float bit and every tie-break leaves
//! the digest alone; anything else moves it (`front_door_digest.rs` has the
//! re-record protocol).

use std::sync::Mutex;

use cophy::CGen;
use cophy_catalog::{Configuration, Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::{Inum, PrepFaultReport};
use cophy_optimizer::{
    BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{HetGen, HomGen, Query, UpdateGen, Workload};

/// Recorded from the kernel at commit b657eae (PR 11), before the
/// back-pointer rewrite.
const EXPECTED_DIGEST: u64 = 0x43d0_4351_0176_95de;

const SEEDS: [u64; 3] = [3, 17, 101];

/// A live optimizer that appends every answer it gives to a byte log.
#[derive(Debug)]
struct DigestBackend {
    inner: WhatIfOptimizer,
    log: Mutex<Fold>,
}

impl DigestBackend {
    fn new() -> Self {
        DigestBackend {
            inner: WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A),
            log: Mutex::default(),
        }
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
        let ans = WhatIfBackend::try_probe(&self.inner, q, config)?;
        self.record(&ans);
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
        backend.probe(q, &Configuration::empty());
        backend.probe(q, &baseline);
        // INUM's probing loop: the empty configuration again, then one
        // probe per ideal configuration of the statement.
        inum.try_prepare_statement(qid, stmt, weight, None, None, &mut faults)
            .expect("the live optimizer answers");
        backend.probe(q, &wide);
    }
}

#[test]
fn probe_answers_fold_to_the_recorded_digest() {
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
    let probes = backend.what_if_calls();
    assert!(probes > 2_000, "only {probes} probes folded");
    let digest = backend.log.lock().expect("single-threaded test").digest();
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "probe answers drifted from the recorded kernel ({probes} probes): {digest:#018x}"
    );
}
