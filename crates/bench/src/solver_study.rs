//! Solve-engine study: both backends' gap-vs-time trajectories through the
//! unified [`SolveProgress`] stream, and the warm-start comparison of two
//! branch-and-bound configurations on one BIP.
//!
//! Gated on the generic backend producing a root incumbent and a finite gap
//! within the default budget (guards the LP-rounding/repair heuristic), on
//! warm-started node LPs beating the cold PR-2 baseline,
//! on the LP kernel's pivot throughput staying above a fixed floor, and on
//! the repair heuristic giving up on a periodic run within a few passes.

use std::time::Duration;

use cophy::{
    BipGen, CGen, CandidateSet, Cmp, CoPhy, CoPhyError, CoPhyOptions, Constraint, ConstraintSet,
    IndexFilter, Recommendation, SolveBudget, SolveProgress, SolverBackend,
};
use cophy_bip::{BranchBound, SolveOptions};
use cophy_inum::PreparedWorkload;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};

use crate::Cell::{Bool, Int, Num, Pct, Secs, Text};
use crate::{make_optimizer, make_workload, prepare, timed, Knobs, Outcome, Table, WorkloadKind};

/// The rich (non-storage-only) constraint set that routes tuning to the
/// generic branch-and-bound backend.
fn rich_constraints(o: &WhatIfOptimizer) -> ConstraintSet {
    let li = o.schema().table_by_name("lineitem").expect("TPC-H lineitem").id;
    ConstraintSet::storage_fraction(o.schema(), 0.5).with(Constraint::IndexCount {
        filter: IndexFilter::on_table(li),
        cmp: Cmp::Le,
        value: 2,
    })
}

/// Run one backend with the unified progress stream captured.
fn capture_trajectory(
    o: &WhatIfOptimizer,
    prepared: &PreparedWorkload,
    cands: &CandidateSet,
    constraints: &ConstraintSet,
    backend: SolverBackend,
) -> (Vec<SolveProgress>, Result<Recommendation, CoPhyError>) {
    let cophy = CoPhy::new(o, CoPhyOptions { backend, ..Default::default() });
    let mut points = Vec::new();
    let rec = cophy
        .try_tune_prepared(prepared, cands, constraints, Duration::ZERO, 0, |p| points.push(*p));
    (points, rec)
}

/// One configuration of the warm-start study.
struct ConfigRow {
    label: &'static str,
    nodes: usize,
    pivots: usize,
    gap: f64,
    wall: Duration,
    repair_calls: usize,
    repair_passes: usize,
}

impl ConfigRow {
    /// Pivot throughput — the metric of the [`PIVOT_RATE_FLOOR`] gate.
    fn pivots_per_sec(&self) -> f64 {
        self.pivots as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

pub(crate) fn solver(k: &Knobs) -> Outcome {
    // Rich-constraint B&B runs cap at the acceptance workload (24) while
    // still honoring smaller smoke scales: the claims under test are about
    // the search, not workload scale.
    let n = k.scale.default_size().min(24);
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, WorkloadKind::Hom, n);
    let rich = rich_constraints(&o);
    // One INUM preparation + candidate set serves the guard run and the
    // warm-start study.
    let prepared = prepare(&o, &w);
    let cands = CGen::default().generate(o.schema(), &w);
    let (bb_points, bb_rec) =
        capture_trajectory(&o, &prepared, &cands, &rich, SolverBackend::BranchBound);

    // Lagrangian on the storage-only set (the common, large case).
    let n_lag = k.scale.default_size();
    let w_lag = make_workload(&o, WorkloadKind::Hom, n_lag);
    let storage = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let (lag_points, lag_rec) = capture_trajectory(
        &o,
        &prepare(&o, &w_lag),
        &CGen::default().generate(o.schema(), &w_lag),
        &storage,
        SolverBackend::Lagrangian,
    );

    let mut finals = Table::new(
        "final state per backend (Lagrangian: storage-only; B&B: rich constraints)",
        &["backend", "statements", "events", "gap", "bound", "solve"],
    );
    let mut series = Table::new(
        "gap-vs-time trajectories",
        &["backend", "t_ms", "incumbent", "bound", "gap", "ticks", "pivots"],
    );
    for (backend, statements, points, rec) in
        [("lagrangian", n_lag, &lag_points, &lag_rec), ("branch_bound", n, &bb_points, &bb_rec)]
    {
        let rec = rec.as_ref().ok();
        finals.row(vec![
            Text(backend.into()),
            Int(statements as u64),
            Int(points.len() as u64),
            Pct(rec.map_or(f64::INFINITY, |r| r.gap)),
            Num(rec.map_or(f64::NEG_INFINITY, |r| r.bound)),
            Secs(rec.map_or(Duration::ZERO, |r| r.stats.solve_time)),
        ]);
        for p in points {
            series.row(vec![
                Text(backend.into()),
                Num(p.at.as_secs_f64() * 1e3),
                Num(p.incumbent),
                Num(p.bound),
                Num(p.gap),
                Int(p.ticks as u64),
                Int(p.pivots as u64),
            ]);
        }
    }

    let (configs, rows) = config_rows(&o, &prepared, &cands, &rich);
    let mut out = Outcome::new(vec![finals, configs, series]);

    out.claim(lag_rec.is_ok(), "storage-only Lagrangian tuning is feasible");
    out.claim(
        bb_rec.as_ref().is_ok_and(|r| r.gap.is_finite()),
        "rich-constraint B&B reaches an incumbent and a finite gap within the default budget",
    );
    let first_incumbent = bb_points.iter().find(|p| p.incumbent.is_finite()).map(|p| p.ticks);
    out.claim(
        first_incumbent == Some(0),
        format!(
            "the rounding heuristic produces the first incumbent at the root node (tick 0): \
             {first_incumbent:?}"
        ),
    );
    config_claims(&mut out, &rows);
    out
}

/// Run the rich-constraint BIP through two branch-and-bound configurations
/// under the same default interactive budget (5% gap, 60 s): the PR-2
/// baseline (cold two-phase node LPs) and warm-started node LPs.  The model
/// is built once from the caller's INUM cache; each run solves the same BIP,
/// so nodes/pivots/gap compare configurations, not model noise.
fn config_rows(
    o: &WhatIfOptimizer,
    prepared: &PreparedWorkload,
    cands: &CandidateSet,
    constraints: &ConstraintSet,
) -> (Table, Vec<ConfigRow>) {
    let (model, _mapping) =
        BipGen::default().model(o.schema(), o.cost_model(), prepared, cands, constraints);
    let mut t = Table::new(
        format!("warm-start study: rich W_hom{} BIP, budget 5% gap / 60 s", prepared.queries.len()),
        &[
            "config",
            "warm_start",
            "nodes",
            "pivots",
            "pivots_per_node",
            "pivots_per_sec",
            "refactorizations",
            "devex_resets",
            "repair_calls",
            "repair_passes",
            "repair_hits",
            "gap",
            "bound",
            "objective",
            "wall",
        ],
    );
    let rows = [("cold-serial (PR-2 baseline)", false), ("warm-serial", true)]
        .into_iter()
        .map(|(label, warm_start)| {
            let opts = SolveOptions {
                budget: SolveBudget::within(0.05).with_time(Duration::from_secs(60)),
                warm_start,
                ..Default::default()
            };
            let (r, wall) = timed(|| BranchBound::new().solve(&model, &opts));
            let row = ConfigRow {
                label,
                nodes: r.nodes,
                pivots: r.pivots,
                gap: r.gap,
                wall,
                repair_calls: r.repair_calls,
                repair_passes: r.repair_passes,
            };
            t.row(vec![
                Text(label.into()),
                Bool(warm_start),
                Int(r.nodes as u64),
                Int(r.pivots as u64),
                Num(r.pivots as f64 / r.nodes.max(1) as f64),
                Num(row.pivots_per_sec()),
                Int(r.refactorizations as u64),
                Int(r.devex_resets as u64),
                Int(r.repair_calls as u64),
                Int(r.repair_passes as u64),
                Int(r.repair_hits as u64),
                Pct(r.gap),
                Num(r.bound),
                Num(r.objective),
                Secs(wall),
            ]);
            row
        })
        .collect();
    (t, rows)
}

/// Floor on warm-serial pivot throughput, in pivots per second: half the
/// rate last measured, the half being the allowance for host variance.
///
/// Measured at the commit that taught the simplex loops to price by row, walk
/// an ordered prefix of the breakpoints and solve both `btran`s in one pass
/// (PR 24, on parent ba628cf; `COPHY_SCALE=smoke`, rich
/// W_hom24 BIP, 2-core container): warm-serial made 108 505 pivots over 855
/// nodes in 5.617 s = **19 317 pivots/s**; the parent, the same pivots in
/// 8.015 s = 13 538/s.  Re-record it when the kernel gets faster again: the
/// constant it replaces (1 549/s, ten times the dense tableau's last rate,
/// halved) had fallen to an eighth of the going rate, and a floor that far
/// under lets a regression of that factor through.
const PIVOT_RATE_FLOOR: f64 = 19_317.0 / 2.0;

/// Ceiling on the repair heuristic's mean passes per call.  A call either
/// lands within a handful of passes or falls into a short cycle, which the
/// periodicity cut ends within three times its entry + period; run to the
/// pass cap instead (`2 · rows + 16`), the same BIP reads ≈ 1 440 — counted,
/// so the guard does not depend on a clock.
const REPAIR_PASSES_PER_CALL_CEILING: f64 = 16.0;

/// The gate of warm-started node LPs — within the same budget the
/// warm-serial configuration proves a strictly smaller gap than the
/// cold-serial PR-2 baseline and explores ≥ 5× its nodes (or already reaches
/// the 5% gap target, where it is allowed to stop early) — and of the LP
/// kernel: warm-serial pivots at [`PIVOT_RATE_FLOOR`] or faster, checked
/// only when the run is long enough to measure (pivots ≥ 500 and wall ≥
/// 50 ms; below that, in the early-stop regime, throughput is noise) — and
/// of the repair heuristic: no configuration averages more than
/// [`REPAIR_PASSES_PER_CALL_CEILING`] passes per call.
fn config_claims(out: &mut Outcome, rows: &[ConfigRow]) {
    let find = |label: &str| rows.iter().find(|r| r.label.starts_with(label)).expect("config row");
    let (base, warm) = (find("cold-serial"), find("warm-serial"));
    let target_reached = warm.gap <= 0.05 + 1e-9;
    out.claim(
        warm.gap < base.gap - 1e-9 || target_reached,
        format!(
            "warm-serial proves a strictly smaller gap than the cold baseline \
             (or reaches the 5% target): {:.2}% vs {:.2}%",
            warm.gap * 100.0,
            base.gap * 100.0
        ),
    );
    out.claim(
        warm.nodes >= 5 * base.nodes || target_reached,
        format!(
            "warm-serial explores ≥ 5× the baseline's nodes within the budget \
             (or reaches the 5% target): {} vs {}",
            warm.nodes, base.nodes
        ),
    );

    let worst = rows
        .iter()
        .map(|r| r.repair_passes as f64 / r.repair_calls.max(1) as f64)
        .fold(0.0, f64::max);
    out.claim(
        worst <= REPAIR_PASSES_PER_CALL_CEILING,
        format!(
            "the repair heuristic averages ≤ {REPAIR_PASSES_PER_CALL_CEILING} passes per call \
             in every configuration: worst {worst:.1}"
        ),
    );

    let rate = warm.pivots_per_sec();
    if warm.pivots >= 500 && warm.wall >= Duration::from_millis(50) {
        out.claim(
            rate >= PIVOT_RATE_FLOOR,
            format!(
                "warm-serial sustains the fixed pivot-throughput floor \
                 (half the recorded warm-serial rate): {rate:.0}/s vs {PIVOT_RATE_FLOOR:.0}/s"
            ),
        );
    } else {
        out.claim(
            true,
            format!(
                "pivot throughput not gated: run too short to measure \
                 ({} pivots / {:.0} ms)",
                warm.pivots,
                warm.wall.as_secs_f64() * 1e3
            ),
        );
    }
}
