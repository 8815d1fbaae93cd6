//! Million-statement scaling study (the `scale` CI gate).
//!
//! Exercises the PR-10 large-workload path end to end: a generator-backed
//! [`WorkloadSource`] feeds a streaming session chunk by chunk, compression
//! clusters **online** (resident statements stay bounded by the
//! representative count plus one chunk buffer, never `|W|`), INUM prepares
//! only cluster-opening representatives, and the block-decomposed Lagrangian
//! backend solves the per-statement blocks.
//!
//! Three claims are measured and gated:
//!
//! 1. **Bounded residency** — the per-chunk high-water mark of resident
//!    statements (`representatives + chunk buffer`) is a constant multiple
//!    of the final representative count, independent of `|W|`;
//! 2. **Linear ingestion** — per-statement ingest time grows by at most
//!    half between the two study sizes (a statement is an exact-shell hit
//!    or a scan of its template's representatives, counted at ≤ 5 of them,
//!    and a chunk's rollback journal is the chunk's size; the slack is for
//!    hash-map growth and CI noise, not for a cost that grows with `|W|`);
//! 3. **Decomposition soundness** — on a small workload the decomposed
//!    solve lands within the solvers' proven-gap slack of the exact
//!    monolithic branch-and-bound answer.

use std::time::{Duration, Instant};

use cophy::{
    CGen, CoPhy, CoPhyOptions, CompressionPolicy, ConstraintSet, SolveBudget, SolverBackend,
};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HomGen, Statement, Workload, WorkloadSource, DEFAULT_CHUNK};

use crate::Cell::{Int, Num, Pct, Secs};
use crate::{Knobs, Outcome, Scale, Table};

/// Stream seed — fixed so the study is reproducible across runs and hosts.
const SCALE_SEED: u64 = 0x5CA1E;

/// The two streamed workload sizes: `COPHY_SCALE=full` runs the paper-scale
/// million-statement tune on the cron workflow; every other scale streams
/// 2·10⁴ and 10⁵ statements (the smoke acceptance size — still far beyond
/// anything the batch path would want to materialize per-statement state
/// for).
fn stream_sizes(scale: Scale) -> [usize; 2] {
    match scale {
        Scale::Full => [200_000, 1_000_000],
        _ => [20_000, 100_000],
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
struct ScaleRow {
    statements: usize,
    /// Cluster representatives at the end of ingestion (== INUM-prepared
    /// statements == resident statement state of the session).
    representatives: usize,
    /// Max over chunks of `representatives-so-far + chunk length`: every
    /// statement resident at any point during ingestion.
    resident_high_water: usize,
    /// Generation + online clustering + INUM preparation of representatives.
    ingest_time: Duration,
    solve_time: Duration,
    objective: f64,
    gap: f64,
    /// What-if probes spent (scales with representatives, not `|W|`).
    probes: u64,
}

impl ScaleRow {
    fn per_statement_us(&self) -> f64 {
        self.ingest_time.as_secs_f64() * 1e6 / self.statements.max(1) as f64
    }
}

/// Stream `n` statements into a fresh session, tracking the residency
/// high-water mark, then solve with the block-decomposed backend.
fn scale_row(n: usize) -> ScaleRow {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let opts = CoPhyOptions {
        compression: CompressionPolicy::default_epsilon(),
        budget: SolveBudget::within(0.05).with_time(Duration::from_secs(60)),
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

/// The small-instance decomposition cross-check: decomposed Lagrangian vs
/// exact monolithic branch-and-bound.
struct ScaleAgreement {
    statements: usize,
    lag_objective: f64,
    lag_gap: f64,
    bb_objective: f64,
    bb_gap: f64,
}

impl ScaleAgreement {
    /// Relative distance of the decomposed incumbent from the exact answer.
    fn rel_delta(&self) -> f64 {
        (self.lag_objective - self.bb_objective) / self.bb_objective
    }

    /// The tolerated slack: the solvers' summed proven gaps, floored at the
    /// study's 5% budget gap.
    fn slack(&self) -> f64 {
        (self.lag_gap + self.bb_gap).max(0.05)
    }
}

/// Run both backends on a small workload where branch-and-bound is exact.
fn scale_agreement() -> ScaleAgreement {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(SCALE_SEED ^ 1).generate(o.schema(), 8);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.25);
    let candidates = CGen::default().generate(o.schema(), &w).truncate(10);
    let budget = SolveBudget { gap_limit: 1e-6, node_limit: Some(800), ..Default::default() };
    let lag = CoPhy::new(
        &o,
        CoPhyOptions { budget, backend: SolverBackend::Lagrangian, ..Default::default() },
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

/// Run the full study at the configured scale.
pub(crate) fn scale(k: &Knobs) -> Outcome {
    let sizes = stream_sizes(k.scale);
    let rows = sizes.map(scale_row);
    let a = scale_agreement();

    let mut streamed = Table::new(
        format!("streamed tunes, chunk = {DEFAULT_CHUNK} statements"),
        &[
            "statements",
            "representatives",
            "resident_high_water",
            "ingest",
            "per_statement_us",
            "solve",
            "objective",
            "gap",
            "probes",
        ],
    );
    for r in &rows {
        streamed.row(vec![
            Int(r.statements as u64),
            Int(r.representatives as u64),
            Int(r.resident_high_water as u64),
            Secs(r.ingest_time),
            Num(r.per_statement_us()),
            Secs(r.solve_time),
            Num(r.objective),
            Pct(r.gap),
            Int(r.probes),
        ]);
    }
    let agreement = Table::record(
        "decomposed Lagrangian vs monolithic branch-and-bound on a small exact instance",
        vec![
            ("statements", Int(a.statements as u64)),
            ("lag_objective", Num(a.lag_objective)),
            ("lag_gap", Pct(a.lag_gap)),
            ("bb_objective", Num(a.bb_objective)),
            ("bb_gap", Pct(a.bb_gap)),
            ("rel_delta", Pct(a.rel_delta())),
            ("slack", Pct(a.slack())),
        ],
    );

    let mut out = Outcome::new(vec![streamed, agreement]);
    let big = &rows[1];
    out.claim(
        big.statements == sizes[1],
        format!("the large tune streams the full size: {} of {}", big.statements, sizes[1]),
    );
    out.claim(
        big.gap.is_finite() && big.objective.is_finite(),
        format!(
            "the streamed tune solves: objective {:.0}, gap {:.2}%",
            big.objective,
            big.gap * 100.0
        ),
    );

    // 1. Bounded residency: high-water ≤ reps + one chunk (+1 chunk slack),
    //    and far below |W|.
    for r in &rows {
        out.claim(
            r.resident_high_water <= r.representatives + 2 * DEFAULT_CHUNK,
            format!(
                "residency stays within representatives + 2 chunks at |W|={}: {} vs {} reps",
                r.statements, r.resident_high_water, r.representatives
            ),
        );
        out.claim(
            r.resident_high_water * 10 <= r.statements,
            format!(
                "residency stays far below |W|={}: {} resident",
                r.statements, r.resident_high_water
            ),
        );
    }

    // 2. Linear ingestion: per-statement time may grow by at most 1.5×
    //    between the sizes (the same-template scan is ≤ 5 representatives
    //    long and the rollback journal one record per statement; the slack
    //    absorbs CI noise and cache effects).
    let (t1, t2) = (rows[0].per_statement_us(), rows[1].per_statement_us());
    out.claim(
        t2 <= t1 * 1.5 + 1.0,
        format!(
            "per-statement ingest grows at most 1.5× between the sizes: {t1:.2}us -> {t2:.2}us"
        ),
    );

    // 3. Decomposition soundness on the exact small instance.
    out.claim(
        a.lag_objective >= a.bb_objective - 1e-6,
        format!(
            "B&B is exact, the decomposed solve cannot beat it: {:.6} vs {:.6}",
            a.lag_objective, a.bb_objective
        ),
    );
    out.claim(
        a.rel_delta() <= a.slack() + 1e-9,
        format!(
            "the decomposed solve lands within gap slack of the exact answer: \
             delta {:+.3}% vs slack {:.1}%",
            a.rel_delta() * 100.0,
            a.slack() * 100.0
        ),
    );
    out
}
