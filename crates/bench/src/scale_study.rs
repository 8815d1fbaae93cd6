//! Million-statement scaling study (the `fig_scale` bin and the
//! `scale_smoke` CI gate).
//!
//! Exercises the PR-10 large-workload path end to end: a generator-backed
//! [`WorkloadSource`] feeds a streaming session chunk by chunk, compression
//! clusters **online** (resident statements stay bounded by the
//! representative count plus one chunk buffer, never `|W|`), INUM prepares
//! only cluster-opening representatives, and the block-decomposed Lagrangian
//! backend solves the per-statement blocks in parallel.
//!
//! Three claims are measured and gated:
//!
//! 1. **Bounded residency** — the per-chunk high-water mark of resident
//!    statements (`representatives + chunk buffer`) is a constant multiple
//!    of the final representative count, independent of `|W|`;
//! 2. **Linear ingestion** — per-statement ingest time grows by at most
//!    half between the two study sizes (the grid lookup is amortized
//!    constant and a chunk's rollback journal is the chunk's size; the
//!    slack is for hash-map growth and CI noise, not for a per-chunk cost
//!    that grows with `|W|`);
//! 3. **Decomposition soundness** — on a small workload the decomposed
//!    parallel solve lands within the solvers' proven-gap slack of the
//!    exact monolithic branch-and-bound answer.
//!
//! Writes `BENCH_scale.json` *before* gating, so the CI artifact survives a
//! failure.

use std::time::{Duration, Instant};

use cophy::{
    CGen, CoPhy, CoPhyOptions, CompressionPolicy, ConstraintSet, SolveBudget, SolverBackend,
};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HomGen, Statement, Workload, WorkloadSource, DEFAULT_CHUNK};

use crate::{host_threads, secs, study_threads};

/// Stream seed — fixed so the study is reproducible across runs and hosts.
const SCALE_SEED: u64 = 0x5CA1E;

/// The two streamed workload sizes: `COPHY_SCALE=full` runs the paper-scale
/// million-statement tune on the cron workflow; every other scale streams
/// 2·10⁴ and 10⁵ statements (the smoke acceptance size — still far beyond
/// anything the batch path would want to materialize per-statement state
/// for).
pub fn scale_sizes() -> (usize, usize) {
    match std::env::var("COPHY_SCALE").as_deref() {
        Ok("full") => (200_000, 1_000_000),
        _ => (20_000, 100_000),
    }
}

/// One chunk handed back out of a pre-pulled buffer, so the study can
/// observe the session between chunks (the residency high-water probe).
struct SliceSource {
    items: Vec<(Statement, f64)>,
    pos: usize,
}

impl WorkloadSource for SliceSource {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let n = max.min(self.items.len() - self.pos);
        out.extend(self.items[self.pos..self.pos + n].iter().cloned());
        self.pos += n;
        n
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.items.len() - self.pos)
    }
}

/// One streamed tune at one workload size.
pub struct ScaleRow {
    pub statements: usize,
    /// Cluster representatives at the end of ingestion (== INUM-prepared
    /// statements == resident statement state of the session).
    pub representatives: usize,
    /// Max over chunks of `representatives-so-far + chunk length`: every
    /// statement resident at any point during ingestion.
    pub resident_high_water: usize,
    /// Generation + online clustering + INUM preparation of representatives.
    pub ingest_time: Duration,
    pub solve_time: Duration,
    pub objective: f64,
    pub gap: f64,
    /// What-if probes spent (scales with representatives, not `|W|`).
    pub probes: u64,
}

impl ScaleRow {
    pub fn per_statement_us(&self) -> f64 {
        self.ingest_time.as_secs_f64() * 1e6 / self.statements.max(1) as f64
    }
}

/// Stream `n` statements into a fresh session, tracking the residency
/// high-water mark, then solve with the block-decomposed parallel backend.
pub fn scale_row(n: usize) -> ScaleRow {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let opts = CoPhyOptions {
        compression: CompressionPolicy::default_epsilon(),
        budget: SolveBudget::within(0.05)
            .with_time(Duration::from_secs(60))
            .with_parallelism(study_threads()),
        backend: SolverBackend::Lagrangian,
        ..Default::default()
    };
    let cophy = CoPhy::new(&o, opts);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let empty = Workload::new();
    let mut session = cophy
        .try_session_streaming(&mut empty.source(), constraints)
        .unwrap_or_else(|e| panic!("{e}"));

    let mut stream = HomGen::new(SCALE_SEED).stream(o.schema(), n);
    let mut high_water = 0usize;
    let t0 = Instant::now();
    loop {
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
        let got = stream.next_chunk(DEFAULT_CHUNK, &mut buf);
        if got == 0 {
            break;
        }
        let mut chunk = SliceSource { items: buf, pos: 0 };
        session.try_add_source(&mut chunk, DEFAULT_CHUNK).unwrap_or_else(|e| panic!("{e}"));
        high_water = high_water.max(session.n_representatives() + got);
    }
    let ingest_time = t0.elapsed();
    assert_eq!(session.n_statements(), n, "every streamed statement must be accounted");

    let t1 = Instant::now();
    let rec = session.recommend();
    ScaleRow {
        statements: n,
        representatives: session.n_representatives(),
        resident_high_water: high_water,
        ingest_time,
        solve_time: t1.elapsed(),
        objective: rec.objective,
        gap: rec.gap,
        probes: rec.stats.what_if_calls,
    }
}

/// The small-instance decomposition cross-check: decomposed parallel
/// Lagrangian vs exact monolithic branch-and-bound.
pub struct ScaleAgreement {
    pub statements: usize,
    pub lag_objective: f64,
    pub lag_gap: f64,
    pub bb_objective: f64,
    pub bb_gap: f64,
}

impl ScaleAgreement {
    /// Relative distance of the decomposed incumbent from the exact answer.
    pub fn rel_delta(&self) -> f64 {
        (self.lag_objective - self.bb_objective) / self.bb_objective
    }

    /// The tolerated slack: the solvers' summed proven gaps, floored at the
    /// study's 5% budget gap.
    pub fn slack(&self) -> f64 {
        (self.lag_gap + self.bb_gap).max(0.05)
    }
}

/// Run both backends on a small workload where branch-and-bound is exact.
pub fn scale_agreement() -> ScaleAgreement {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(SCALE_SEED ^ 1).generate(o.schema(), 8);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.25);
    let candidates = CGen::default().generate(o.schema(), &w).truncate(10);
    let budget = SolveBudget { gap_limit: 1e-6, node_limit: Some(800), ..Default::default() };
    let lag = CoPhy::new(
        &o,
        CoPhyOptions {
            budget: budget.with_parallelism(study_threads()),
            backend: SolverBackend::Lagrangian,
            ..Default::default()
        },
    )
    .try_tune_with_candidates(&w, &candidates, &constraints)
    .unwrap_or_else(|e| panic!("{e}"));
    let bb = CoPhy::new(
        &o,
        CoPhyOptions { budget, backend: SolverBackend::BranchBound, ..Default::default() },
    )
    .try_tune_with_candidates(&w, &candidates, &constraints)
    .unwrap_or_else(|e| panic!("{e}"));
    ScaleAgreement {
        statements: w.len(),
        lag_objective: lag.objective,
        lag_gap: lag.gap,
        bb_objective: bb.objective,
        bb_gap: bb.gap,
    }
}

/// Everything the study produces; report, artifact and gate all read this.
pub struct ScaleStudy {
    pub rows: [ScaleRow; 2],
    pub agreement: ScaleAgreement,
}

/// Run the full study at the configured scale.
pub fn scale_study() -> ScaleStudy {
    let (small, large) = scale_sizes();
    ScaleStudy { rows: [scale_row(small), scale_row(large)], agreement: scale_agreement() }
}

/// The `BENCH_scale.json` artifact body.
pub fn scale_artifact_json(s: &ScaleStudy) -> String {
    let mut out = String::from("{\"experiment\":\"scale\",");
    out.push_str(&format!(
        "\"threads\":{},\"host_threads\":{},\"chunk\":{},\"rows\":[",
        study_threads(),
        host_threads(),
        DEFAULT_CHUNK
    ));
    for (i, r) in s.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"statements\":{},\"representatives\":{},\"resident_high_water\":{},\
             \"ingest_s\":{:.4},\"per_statement_us\":{:.4},\"solve_s\":{:.4},\
             \"objective\":{:.6},\"gap\":{:.6},\"probes\":{}}}",
            r.statements,
            r.representatives,
            r.resident_high_water,
            r.ingest_time.as_secs_f64(),
            r.per_statement_us(),
            r.solve_time.as_secs_f64(),
            r.objective,
            r.gap,
            r.probes,
        ));
    }
    let a = &s.agreement;
    out.push_str(&format!(
        "],\"agreement\":{{\"statements\":{},\"lag_objective\":{:.6},\"lag_gap\":{:.6},\
         \"bb_objective\":{:.6},\"bb_gap\":{:.6},\"rel_delta\":{:.6},\"slack\":{:.6}}}}}\n",
        a.statements,
        a.lag_objective,
        a.lag_gap,
        a.bb_objective,
        a.bb_gap,
        a.rel_delta(),
        a.slack(),
    ));
    out
}

/// Write the scaling artifact next to the experiment output.
pub fn write_scale_artifact(json: &str) {
    let path = "BENCH_scale.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote scaling artifact to {path}");
}

/// Human-readable report.
pub fn scale_report(s: &ScaleStudy) -> String {
    let mut out = String::new();
    out.push_str("## fig_scale — streamed million-statement tuning\n\n");
    out.push_str(&format!("threads={} chunk={}\n\n", study_threads(), DEFAULT_CHUNK));
    out.push_str("|W| streamed | reps | resident hi-water | ingest | us/stmt | solve | gap\n");
    out.push_str("------------|------|-------------------|--------|---------|-------|----\n");
    for r in &s.rows {
        out.push_str(&format!(
            "{:>11} | {:>4} | {:>17} | {:>6} | {:>7.2} | {:>5} | {:.3}\n",
            r.statements,
            r.representatives,
            r.resident_high_water,
            secs(r.ingest_time),
            r.per_statement_us(),
            secs(r.solve_time),
            r.gap,
        ));
    }
    let a = &s.agreement;
    out.push_str(&format!(
        "\ndecomposed vs monolithic on |W|={}: {:.6} vs {:.6} (delta {:+.3}%, slack {:.1}%)\n",
        a.statements,
        a.lag_objective,
        a.bb_objective,
        a.rel_delta() * 100.0,
        a.slack() * 100.0,
    ));
    out
}

/// Assertions behind the CI gate; the artifact is written by the caller
/// first, so a failure still leaves diagnostics behind.
pub fn scale_gate(s: &ScaleStudy) {
    let (_, large) = scale_sizes();
    let big = &s.rows[1];
    assert_eq!(big.statements, large, "gate: the large tune must stream the full size");
    assert!(big.gap.is_finite() && big.objective.is_finite(), "gate: streamed tune must solve");

    // 1. Bounded residency: high-water ≤ reps + one chunk (+1 chunk slack),
    //    and far below |W|.
    for r in &s.rows {
        assert!(
            r.resident_high_water <= r.representatives + 2 * DEFAULT_CHUNK,
            "gate: residency {} exceeds reps {} + 2 chunks at |W|={}",
            r.resident_high_water,
            r.representatives,
            r.statements
        );
        assert!(
            r.resident_high_water * 10 <= r.statements,
            "gate: residency {} not far below |W|={}",
            r.resident_high_water,
            r.statements
        );
    }

    // 2. Linear ingestion: per-statement time may grow by at most 1.5×
    //    between the sizes (grid clustering and the rollback journal are
    //    amortized-constant per statement; the slack absorbs CI noise and
    //    cache effects).
    let (t1, t2) = (s.rows[0].per_statement_us(), s.rows[1].per_statement_us());
    assert!(
        t2 <= t1 * 1.5 + 1.0,
        "gate: per-statement ingest grew superlinearly: {t1:.2}us -> {t2:.2}us"
    );

    // 3. Decomposition soundness on the exact small instance.
    let a = &s.agreement;
    assert!(a.lag_objective >= a.bb_objective - 1e-6, "gate: B&B is exact, lag cannot beat it");
    assert!(
        a.rel_delta() <= a.slack() + 1e-9,
        "gate: decomposed solve {:.6} off exact {:.6} beyond slack {:.3}",
        a.lag_objective,
        a.bb_objective,
        a.slack()
    );
}

/// Entry point of the `scale_smoke` bin.
pub fn scale_smoke() -> String {
    let study = scale_study();
    write_scale_artifact(&scale_artifact_json(&study));
    let report = scale_report(&study);
    scale_gate(&study);
    report
}
