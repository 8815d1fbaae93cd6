//! The one way a workload reaches INUM.
//!
//! Every front door — a batch tune, a streamed tune, a session, a session's
//! later deltas, the daemon's `open` and `add` — feeds statements through
//! [`Ingest::add_source`]: chunk by chunk they are clustered (when
//! compression is on), the cluster-opening ones are shown to CGen and probed
//! by INUM under the advisor's retry policy, and the chunk commits only if
//! every probe either answered or degraded *and* the degraded share stays
//! above the coverage floor.  A chunk that fails is undone whole, from state
//! proportional to the chunk.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cophy_compress::{Absorption, CompressedWorkload};
use cophy_inum::{Inum, InumCache, PrepFaultReport};
use cophy_workload::{QueryId, Statement, WorkloadSource};

use crate::cgen::CandidateSet;
use crate::error::CoPhyError;
use crate::solver::{CoPhy, DegradationReport};

/// What ingestion has built so far.
#[derive(Debug)]
pub(crate) struct Ingest {
    /// The INUM cost service, one prepared query per representative.
    /// Shared: sessions hand the `Arc` out and open over one another's.
    pub prepared: Arc<InumCache>,
    pub candidates: CandidateSet,
    /// The clustering when compression is on; `None` makes every statement
    /// its own representative.
    pub compressed: Option<CompressedWorkload>,
    /// Whether CGen extends `candidates` with what novel statements propose
    /// (off for a caller-curated set).
    grow_candidates: bool,
    /// Running account of retried and lost probes over everything committed.
    faults: PrepFaultReport,
    /// `faults` against the current weights, as of the last commit.
    pub degradation: Option<DegradationReport>,
    /// Probes and time spent ingesting since the owner last took them.
    pub what_if_calls: u64,
    pub inum_time: Duration,
}

impl Ingest {
    /// An empty ingest under the advisor's compression policy.  A supplied
    /// candidate set (`S_DBA`) is used as is; otherwise CGen grows one.
    pub(crate) fn open(
        cophy: &CoPhy<'_>,
        candidates: Option<CandidateSet>,
    ) -> Result<Ingest, CoPhyError> {
        let policy = cophy.options.compression;
        policy.validate().map_err(CoPhyError::Invalid)?;
        let compressed = (!policy.is_off()).then(|| CompressedWorkload::streaming(policy));
        let grow_candidates = candidates.is_none();
        let ingest = Ingest::over(InumCache::empty(), candidates.unwrap_or_default());
        Ok(Ingest { compressed, grow_candidates, ..ingest })
    }

    /// Continue on an existing cache: nothing is clustered, probed or
    /// generated until the first delta.
    pub(crate) fn over(prepared: Arc<InumCache>, candidates: CandidateSet) -> Ingest {
        Ingest {
            prepared,
            candidates,
            compressed: None,
            grow_candidates: true,
            faults: PrepFaultReport::default(),
            degradation: None,
            what_if_calls: 0,
            inum_time: Duration::ZERO,
        }
    }

    /// Original statements represented (not cluster representatives).
    pub(crate) fn n_statements(&self) -> usize {
        self.compressed.as_ref().map_or(self.prepared.len(), |c| c.n_original())
    }

    /// Drain `source` in chunks of `chunk_size` (clamped to ≥ 1).  Faults
    /// roll back **per chunk**: on error the failing chunk is undone whole
    /// and the chunks before it stay committed, so the caller may retry the
    /// rest of the stream later.  The probes a failed chunk did issue stay
    /// on the books — they were really spent.
    pub(crate) fn add_source(
        &mut self,
        cophy: &CoPhy<'_>,
        source: &mut dyn WorkloadSource,
        chunk_size: usize,
    ) -> Result<(), CoPhyError> {
        let chunk_size = chunk_size.max(1);
        let backend = cophy.optimizer();
        let before = backend.what_if_calls();
        let t0 = Instant::now();
        let inum = Inum::with_retry(backend, cophy.options.retry.clone());
        let mut chunk: Vec<(Statement, f64)> = Vec::new();
        let mut result = Ok(());
        while result.is_ok() && source.next_chunk(chunk_size, &mut chunk) > 0 {
            result = self.add_chunk(cophy, &inum, &chunk);
            chunk.clear();
        }
        let spent = backend.what_if_calls() - before;
        self.prepared.write(|pw| pw.what_if_calls += spent);
        self.what_if_calls += spent;
        self.inum_time += t0.elapsed();
        result
    }

    /// Ingest one chunk or leave no trace of it, in the pipeline's order:
    /// cluster, CGen, INUM, commit.  What a failure undoes is proportional
    /// to the chunk: the clustering keeps an undo journal
    /// ([`CompressedWorkload::begin_chunk`]), the cache's old weights are
    /// noted per merge, and the fault account is cut back to where it stood.
    fn add_chunk(
        &mut self,
        cophy: &CoPhy<'_>,
        inum: &Inum<'_>,
        chunk: &[(Statement, f64)],
    ) -> Result<(), CoPhyError> {
        let schema = cophy.optimizer().schema();

        // Cluster: a statement either opens a cluster — only those are new
        // to CGen and INUM — or lands on a representative as a weight bump.
        let mut opened: Vec<(&Statement, f64)> = Vec::new();
        let mut merges: Vec<(usize, f64)> = Vec::new();
        if let Some(cw) = self.compressed.as_mut() {
            cw.begin_chunk();
        }
        for &(ref stmt, weight) in chunk {
            match self.compressed.as_mut().map(|cw| cw.absorb(schema, stmt, weight)) {
                Some(Absorption::Merged(rep)) => merges.push((rep.0 as usize, weight)),
                Some(Absorption::NewRepresentative(_)) | None => opened.push((stmt, weight)),
            }
        }
        let proposed = self
            .grow_candidates
            .then(|| cophy.options.cgen.propose(schema, opened.iter().map(|&(stmt, _)| stmt)).0);

        // INUM: probe the opened statements, bump the merged ones, and check
        // the coverage floor where the chunk would commit — against
        // everything committed so far.
        let faults_before = PrepFaultReport { degraded: Vec::new(), ..self.faults };
        let n_degraded = self.faults.degraded.len();
        let outcome = self.prepared.write(|pw| {
            let n_before = pw.queries.len();
            let mut weights_before: Vec<f64> = Vec::with_capacity(merges.len());
            let mut commit = || {
                pw.queries.reserve(opened.len());
                for &(stmt, weight) in &opened {
                    // A representative's id is its position in the cache.
                    let qid = QueryId(pw.queries.len() as u32);
                    let faults = &mut self.faults;
                    pw.queries.push(inum.try_prepare_statement(qid, stmt, weight, None, faults)?);
                }
                for &(rep, weight) in &merges {
                    weights_before.push(pw.queries[rep].weight);
                    pw.queries[rep].weight += weight;
                }
                let degradation = DegradationReport::from_prep(pw, &self.faults);
                match &degradation {
                    Some(d) if d.coverage < cophy.options.min_coverage => {
                        Err(CoPhyError::Coverage {
                            coverage: d.coverage,
                            floor: cophy.options.min_coverage,
                            statements_degraded: d.statements_degraded,
                            statements_total: d.statements_total,
                        })
                    }
                    _ => Ok(degradation),
                }
            };
            let outcome = commit();
            if outcome.is_err() {
                // Newest first, so a representative merged onto twice ends
                // at its oldest saved weight.
                for (&(rep, _), w0) in merges.iter().zip(weights_before).rev() {
                    pw.queries[rep].weight = w0;
                }
                pw.queries.truncate(n_before);
            }
            outcome
        });

        match outcome {
            Ok(degradation) => {
                if let Some(cw) = self.compressed.as_mut() {
                    cw.commit_chunk();
                }
                match proposed {
                    Some(proposed) if self.candidates.is_empty() => self.candidates = proposed,
                    Some(proposed) => {
                        self.candidates.extend(schema, proposed.indexes().iter().cloned())
                    }
                    None => {}
                }
                self.degradation = degradation;
                Ok(())
            }
            Err(e) => {
                if let Some(cw) = self.compressed.as_mut() {
                    cw.rollback_chunk();
                }
                let mut degraded = std::mem::take(&mut self.faults.degraded);
                degraded.truncate(n_degraded);
                self.faults = PrepFaultReport { degraded, ..faults_before };
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cophy_catalog::{Configuration, TpchGen};
    use cophy_compress::CompressionPolicy;
    use cophy_optimizer::{
        FaultInjectingBackend, FaultPlan, RetryPolicy, SystemProfile, WhatIfBackend,
        WhatIfOptimizer,
    };
    use cophy_workload::{HetGen, HomGen};

    use super::*;
    use crate::CoPhyOptions;

    fn bits(d: &Option<DegradationReport>) -> Option<[u64; 8]> {
        d.as_ref().map(|d| {
            [
                d.probes_failed,
                d.retries,
                d.probes_recovered,
                d.probes_substituted,
                d.statements_degraded as u64,
                d.statements_total as u64,
                d.coverage.to_bits(),
                d.worst_case_inflation.to_bits(),
            ]
        })
    }

    /// A streamed ingest under a permanent-fault plan, 60 chunks: after
    /// every chunk the degradation report, read from the statements' cached
    /// `cost(q, ∅)`, equals the one that re-prices the whole cache, bit for
    /// bit — while later chunks merge weight onto degraded representatives;
    /// so does the workload's cached `Σ f_q · cost(q, ∅)`.
    #[test]
    fn degradation_from_cached_empty_costs_matches_repricing_after_every_chunk() {
        let opt = || WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let schema = opt().schema().clone();
        let plan = FaultPlan { permanent_rate: 0.1, ..FaultPlan::none(29) };
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            probe_deadline: None,
        };
        let opts = CoPhyOptions {
            compression: CompressionPolicy::default_epsilon(),
            retry: retry.clone(),
            min_coverage: 0.0,
            ..Default::default()
        };
        let cophy = CoPhy::new(&faulty, opts);
        let inum = Inum::with_retry(&faulty, retry);
        let (hom, het) =
            (HomGen::new(31).generate(&schema, 120), HetGen::new(31).generate(&schema, 120));
        let stream: Vec<(Statement, f64)> = hom
            .iter()
            .zip(het.iter())
            .flat_map(|((_, a, wa), (_, b, wb))| [(a.clone(), wa), (b.clone(), wb)])
            .collect();
        let mut ingest = Ingest::open(&cophy, None).unwrap();
        let mut chunks = 0;
        for chunk in stream.chunks(4) {
            ingest.add_chunk(&cophy, &inum, chunk).unwrap();
            chunks += 1;
            let want = ingest.prepared.read(|pw| {
                DegradationReport::from_prep_repricing(
                    &schema,
                    faulty.cost_model(),
                    pw,
                    &ingest.faults,
                )
            });
            assert_eq!(bits(&ingest.degradation), bits(&want), "chunk {chunks}");
            let (cached, priced) = ingest.prepared.read(|pw| {
                (pw.empty_cost(), pw.cost(&schema, faulty.cost_model(), &Configuration::empty()))
            });
            assert_eq!(cached.to_bits(), priced.to_bits(), "chunk {chunks}");
        }
        assert!(chunks >= 50);
        let d = ingest.degradation.as_ref().expect("the plan must have lost probes");
        assert!(d.statements_degraded > 0 && d.worst_case_inflation > 0.0);
        assert!(ingest.compressed.as_ref().unwrap().n_original() > d.statements_total);
    }
}
