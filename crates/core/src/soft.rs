//! Soft constraints and the Chord algorithm (paper §4.1, Appendix D,
//! Figure 6c).
//!
//! A soft storage constraint asks not for one configuration but for the
//! trade-off curve between workload cost and index storage.  CoPhy
//! re-weights the objective as
//!
//! ```text
//! f_λ(X) = λ · cost(X, W) + (1 − λ) · scale · size(X)
//! ```
//!
//! and retrieves Pareto-optimal points by solving for selected values of
//! `λ ∈ [0, 1]`.  The **Chord algorithm** \[9\] picks those values: starting
//! from the extreme points it recursively solves at the λ induced by each
//! chord's slope and keeps the new point only if it is further than `ε` from
//! the chord — yielding a provably good approximation of the frontier with
//! few solver invocations.
//!
//! Successive λ points are **warm-chained**: the BIP is built once (by
//! [`crate::CoPhyOptions::bipgen`]), each λ step is a
//! [`DeltaModel::set_objective`](cophy_bip::DeltaModel::set_objective) on
//! the same [`cophy_bip::DeltaModel`], and the solve is the advisor's exact
//! stage, [`cophy_bip::BranchBound::resolve`] — the root LP restarts
//! phase 2 of the primal simplex from the previous λ's optimal basis (an
//! objective edit keeps that basis primal feasible), the previous
//! configuration seeds the incumbent, and the pseudo-cost table carries over
//! (the paper reports a 4× speed-up for warm-started sweeps over solving
//! each point from scratch).

use std::time::{Duration, Instant};

use cophy_catalog::Configuration;
use cophy_inum::PreparedWorkload;

use crate::cgen::CandidateSet;
use crate::chain::{Exact, Held};
use crate::constraints::ConstraintSet;
use crate::solver::CoPhy;

/// One point of the Pareto frontier.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    pub lambda: f64,
    pub configuration: Configuration,
    /// INUM-estimated workload cost (the `cost` axis).
    pub workload_cost: f64,
    /// Total index storage (the `size` axis).
    pub size_bytes: u64,
    /// Time spent solving this point (Figure 6c's bars).
    pub solve_time: Duration,
}

/// The chord-distance threshold ε for recursing, relative to the empty
/// configuration's workload cost.
const EPSILON: f64 = 0.02;

/// Pareto-frontier explorer for a soft storage constraint.  A point is kept
/// only if it lies further from its chord than ε = 0.02 (`EPSILON`) times
/// the empty configuration's workload cost.
#[derive(Debug, Clone)]
pub struct ChordExplorer {
    /// Hard cap on solver invocations.
    pub max_points: usize,
}

impl Default for ChordExplorer {
    fn default() -> Self {
        ChordExplorer { max_points: 9 }
    }
}

impl ChordExplorer {
    /// Explore the cost/size trade-off for the prepared workload.  Returns
    /// points sorted by λ (ascending: small λ = storage-frugal end).
    pub fn explore(
        &self,
        cophy: &CoPhy<'_>,
        prepared: &PreparedWorkload,
        candidates: &CandidateSet,
    ) -> Vec<ParetoPoint> {
        let schema = cophy.optimizer().schema();
        let cm = cophy.optimizer().cost_model();
        // Build the unbudgeted BIP once; every λ is an objective re-weight
        // of the same model, warm-chained through one DeltaModel.
        let none = ConstraintSet::none();
        let mut exact = cophy.exact_state(prepared, candidates, &none);
        // Normalize storage into cost units so λ spans a meaningful range:
        // one "cost unit" per (data_bytes / baseline_cost) bytes.
        let baseline = prepared.empty_cost();
        let scale = baseline / schema.data_bytes() as f64;
        // λ=1 objective per variable, and each variable's storage footprint
        // (nonzero only for the z columns): f_λ is their affine blend.
        let base_obj: Vec<f64> = exact.dm.model().objective().to_vec();
        let mut sizes = vec![0.0f64; base_obj.len()];
        for (pos, v) in exact.mapping.z.iter().enumerate() {
            let ix = candidates.get(cophy_catalog::IndexId(pos as u32));
            sizes[v.0 as usize] = ix.size_bytes(schema) as f64;
        }

        let mut solves = 0usize;
        let solve_at = |lambda: f64, exact: &mut Exact, solves: &mut usize| {
            *solves += 1;
            let t0 = Instant::now();
            let coeffs: Vec<f64> = base_obj
                .iter()
                .zip(&sizes)
                .map(|(&c, &s)| lambda * c + (1.0 - lambda) * scale * s)
                .collect();
            exact.dm.set_objective(&coeffs);
            let held = Held { exact: Some(exact), ..Default::default() };
            // A λ the budget ran out on answers with the empty configuration.
            let configuration = cophy
                .solve(prepared, candidates, &none, held, |_| {})
                .map_or_else(|_| Configuration::empty(), |s| s.configuration);
            let workload_cost = prepared.cost(schema, cm, &configuration);
            let size_bytes = configuration.size_bytes(schema);
            ParetoPoint {
                lambda,
                configuration,
                workload_cost,
                size_bytes,
                solve_time: t0.elapsed(),
            }
        };

        // Extremes: λ→0 is the empty configuration by construction; solve it
        // analytically to save a solver call.
        let empty = ParetoPoint {
            lambda: 0.0,
            configuration: Configuration::empty(),
            workload_cost: baseline,
            size_bytes: 0,
            solve_time: Duration::ZERO,
        };
        let full = solve_at(1.0, &mut exact, &mut solves);

        let mut points = vec![empty, full];
        // Chord recursion over a worklist of (lo, hi) index pairs into
        // `points` (kept sorted by λ).
        let mut segments = vec![(0usize, 1usize)];
        while let Some((lo_i, hi_i)) = segments.pop() {
            if solves >= self.max_points {
                break;
            }
            let (a, b) = (&points[lo_i], &points[hi_i]);
            // Weight vector orthogonal to the chord in normalized coords.
            let cost_span = (a.workload_cost - b.workload_cost).abs();
            let size_span = (a.size_bytes as f64 - b.size_bytes as f64).abs() * scale;
            if cost_span + size_span < 1e-9 {
                continue;
            }
            let lambda = (size_span / (cost_span + size_span)).clamp(0.01, 0.99);
            let p = solve_at(lambda, &mut exact, &mut solves);
            // Distance of p from the chord (normalized space).
            let d = chord_distance(
                (a.workload_cost, a.size_bytes as f64 * scale),
                (b.workload_cost, b.size_bytes as f64 * scale),
                (p.workload_cost, p.size_bytes as f64 * scale),
            );
            if d > EPSILON * baseline {
                // Insert between a and b (λ between theirs after sorting).
                points.push(p);
                points.sort_by(|x, y| x.lambda.total_cmp(&y.lambda));
                // Recurse on the two sub-segments around the new point.
                let pos = points
                    .iter()
                    .position(|x| (x.lambda - lambda).abs() < 1e-12)
                    .expect("just inserted");
                if pos > 0 {
                    segments.push((pos - 1, pos));
                }
                if pos + 1 < points.len() {
                    segments.push((pos, pos + 1));
                }
            }
        }

        points.sort_by(|x, y| x.lambda.total_cmp(&y.lambda));
        points
    }
}

/// Euclidean distance of point `p` from the line through `a`, `b`.
fn chord_distance(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> f64 {
    let (ax, ay) = a;
    let (bx, by) = b;
    let (px, py) = p;
    let dx = bx - ax;
    let dy = by - ay;
    let len = (dx * dx + dy * dy).sqrt();
    if len < 1e-12 {
        return ((px - ax).powi(2) + (py - ay).powi(2)).sqrt();
    }
    ((dy * px - dx * py + bx * ay - by * ax) / len).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CoPhyOptions;
    use cophy_catalog::TpchGen;
    use cophy_inum::Inum;
    use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
    use cophy_workload::HomGen;

    fn explore(n_queries: usize) -> Vec<ParetoPoint> {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(9).generate(o.schema(), n_queries);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w);
        ChordExplorer::default().explore(&cophy, &prepared, &candidates)
    }

    #[test]
    fn frontier_is_monotone_tradeoff() {
        let points = explore(15);
        assert!(points.len() >= 2);
        // λ = 0 end: empty config.
        assert_eq!(points[0].size_bytes, 0);
        // As λ grows, more storage is spent and cost falls (weakly).
        for w in points.windows(2) {
            assert!(
                w[1].size_bytes >= w[0].size_bytes,
                "size must weakly grow with λ: {:?}",
                points.iter().map(|p| (p.lambda, p.size_bytes)).collect::<Vec<_>>()
            );
            assert!(
                w[1].workload_cost <= w[0].workload_cost * 1.01,
                "cost must weakly fall with λ"
            );
        }
        // The λ = 1 end actually helps.
        assert!(points.last().unwrap().workload_cost < points[0].workload_cost);
    }

    #[test]
    fn chord_distance_basics() {
        // Distance from the x-axis line.
        let d = chord_distance((0.0, 0.0), (10.0, 0.0), (5.0, 3.0));
        assert!((d - 3.0).abs() < 1e-9);
        // Collinear point → zero.
        let d2 = chord_distance((0.0, 0.0), (10.0, 10.0), (4.0, 4.0));
        assert!(d2 < 1e-9);
        // Degenerate chord → plain distance.
        let d3 = chord_distance((1.0, 1.0), (1.0, 1.0), (4.0, 5.0));
        assert!((d3 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_points_budget() {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(10).generate(o.schema(), 10);
        let cophy = CoPhy::new(&o, CoPhyOptions::default());
        let inum = Inum::new(&o);
        let prepared = inum.prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w);
        let explorer = ChordExplorer { max_points: 3 };
        let points = explorer.explore(&cophy, &prepared, &candidates);
        // analytic empty point + at most 3 solves
        assert!(points.len() <= 4);
    }
    #[test]
    fn the_explorer_builds_its_model_with_the_advisors_bipgen() {
        let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
        let w = HomGen::new(9).generate(o.schema(), 8);
        let prepared = Inum::new(&o).prepare_workload(&w);
        let candidates = crate::cgen::CGen::default().generate(o.schema(), &w);
        let n_vars = |prune_dominated| {
            let bipgen = crate::BipGen { prune_dominated };
            let cophy = CoPhy::new(&o, CoPhyOptions { bipgen, ..Default::default() });
            let exact = cophy.exact_state(&prepared, &candidates, &ConstraintSet::none());
            exact.dm.model().n_vars()
        };
        assert!(n_vars(false) > n_vars(true), "{} vs {}", n_vars(false), n_vars(true));
    }
}
