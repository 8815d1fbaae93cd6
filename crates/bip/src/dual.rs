//! Bounded-variable dual simplex for warm-started re-solves, on the sparse
//! revised kernel.
//!
//! Branch-and-bound creates child LPs by pinching a single variable's
//! `[lo, hi]` interval.  The parent's optimal basis stays **dual feasible**
//! under any bound change (reduced costs do not depend on the bounds), so
//! instead of rebuilding phase-1 artificials and paying a full two-phase
//! primal solve, a child LP can restart from the parent's [`Basis`] snapshot
//! and run dual pivots until primal feasibility is restored — typically a
//! handful of pivots, which is what turns node throughput from "one LP per
//! tens of seconds" into hundreds of nodes per budget on the rich
//! 24-statement models (ROADMAP, "Solve-engine architecture").
//!
//! The algorithm is the bounded-variable dual simplex on the same sparse
//! `Tableau` workspace the primal uses (LU factors + eta file):
//!
//! 1. **Leaving row** — picked by **dual Devex**: maximize
//!    `violation² / dw_i` against reference-framework row weights updated
//!    from each pivot column (reset to 1 — plain most-violated — when they
//!    overflow, counted in [`LpResult::devex_resets`]); none ⇒ the basis is
//!    primal feasible and, being dual feasible by invariant, optimal.
//! 2. **Bound-flipping (long-step) ratio test** — the pivot row `ρ = eᵣᵀB⁻¹`
//!    prices `α_j = ρ·a_j` by scattering its non-zero rows over a row-wise
//!    copy of the columns (`Tableau::price_row`), so only the columns those
//!    rows reach are looked at; the eligible ones become breakpoints at dual
//!    ratio `|d_j| / |α_j|`.  The walk reads them in `(ratio, index)` order
//!    and orders only the prefix it reads (`knapsack::OrderedPrefix`): every
//!    *boxed* column whose full `lo↔hi` flip still leaves the leaving row
//!    violated is flipped (no pivot, no factorization update — exactly how
//!    box-constrained binaries should move), and the first breakpoint that
//!    cannot be stepped over becomes the entering column.  All flips of one
//!    iteration are applied with a single collective `ftran`.  Exhausting
//!    the breakpoints with violation left ⇒ the dual is unbounded ⇒ the
//!    pinched polytope is empty (`Infeasible`) — decided before any flip is
//!    applied.
//! 3. **Pivot** — appends a product-form eta shared with the primal,
//!    refactorized every `REFACTOR_EVERY` pivots.
//!
//! Soundness: callers treat anything other than `Optimal`/`Infeasible` as
//! "fall back to a cold two-phase solve", and the branch-and-bound
//! additionally validates a warm-optimal point against the model rows before
//! trusting its objective as a node bound.  Note the dual restart is sound
//! for *bound/RHS* deltas only; after an **objective** change the basis is
//! primal- but not dual-feasible, and the right warm restart is
//! [`SimplexSolver::warm_solve_on`](crate::SimplexSolver::warm_solve_on).

#![allow(clippy::needless_range_loop)]

use crate::knapsack::OrderedPrefix;
use crate::model::Model;
use crate::simplex::{
    Basis, LpResult, LpStatus, SimplexSolver, StandardForm, Tableau, VarState,
    DEADLINE_CHECK_INTERVAL, DEVEX_RESET_LIMIT, PIVOT_TOL, REFACTOR_EVERY,
};

impl SimplexSolver {
    /// Re-solve `model` under new per-variable bounds, warm-starting from a
    /// basis snapshot taken by an optimal solve of the *same model* (only
    /// the bounds may differ).  Returns `None` when the snapshot does not
    /// fit the model or its basis matrix is singular — the caller then pays
    /// the cold two-phase solve instead.
    ///
    /// This is the bounded-variable dual simplex: it runs under the same
    /// iteration cap, tolerance and wall-clock deadline as
    /// [`SimplexSolver::solve`], and an already-expired deadline aborts it
    /// (status [`LpStatus::IterLimit`]) before the first factorization.
    pub fn resolve(
        &self,
        model: &Model,
        lo: &[f64],
        hi: &[f64],
        basis: &Basis,
    ) -> Option<LpResult> {
        self.resolve_on(&StandardForm::new(model), lo, hi, basis)
    }

    /// [`SimplexSolver::resolve`] on a standard form the caller already built.
    pub(crate) fn resolve_on(
        &self,
        form: &StandardForm<'_>,
        lo: &[f64],
        hi: &[f64],
        basis: &Basis,
    ) -> Option<LpResult> {
        if form.model.n_constraints() == 0 {
            // The bound-minimization shortcut in the primal is already free.
            return None;
        }
        // An already-expired deadline aborts before the first factorization.
        if self.deadline.is_some_and(|dl| std::time::Instant::now() >= dl) {
            return Some(LpResult::aborted(form.model.n_vars()));
        }
        let mut t = Tableau::new(form, lo, hi);
        if !t.restore(basis) {
            return None;
        }
        let cost = t.phase2_cost();
        let (status, iterations) = self.run_dual(&mut t, &cost);
        Some(t.into_result(status, iterations))
    }

    /// The dual pivot loop.  Invariant: the basis is dual feasible (reduced
    /// costs correctly signed per nonbasic state, within tolerance) on
    /// entry and after every pivot.
    fn run_dual(&self, t: &mut Tableau<'_>, cost: &[f64]) -> (LpStatus, usize) {
        let m = t.m;
        let mut y = vec![0.0; m];
        let mut rho = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut flip_rhs = vec![0.0; m];
        let mut flip_w = vec![0.0; m];
        // Dual Devex reference weights, one per row.
        let mut dw = vec![1.0f64; m];
        let mut since_refactor = 0usize;
        // (j, priced α_j, dual ratio) breakpoints of the current iteration.
        let mut cands: Vec<(usize, f64, f64)> = Vec::new();

        for iter in 0..self.max_iters {
            if iter % DEADLINE_CHECK_INTERVAL == 0 {
                if let Some(dl) = self.deadline {
                    if std::time::Instant::now() >= dl {
                        return (LpStatus::IterLimit, iter);
                    }
                }
            }

            // Leaving row by dual Devex: largest violation²/weight.
            let mut leave: Option<(usize, f64, VarState)> = None; // (i, score, to)
            for i in 0..m {
                let bv = t.basis[i];
                let below = t.lo[bv] - t.xb[i];
                let above = t.xb[i] - t.hi[bv];
                if below > self.tol {
                    let score = below * below / dw[i];
                    if leave.as_ref().is_none_or(|&(_, s, _)| score > s) {
                        leave = Some((i, score, VarState::Lower));
                    }
                }
                if above > self.tol {
                    let score = above * above / dw[i];
                    if leave.as_ref().is_none_or(|&(_, s, _)| score > s) {
                        leave = Some((i, score, VarState::Upper));
                    }
                }
            }
            let Some((r, _, leave_to)) = leave else {
                return (LpStatus::Optimal, iter);
            };

            // Row r of B⁻¹ prices the nonbasic columns, α_j = ρ · a_j, and
            // the duals their reduced costs: one fused solve for both.
            t.btran_row_and_duals(r, cost, &mut rho, &mut y);

            // `increase` ⟺ the leaving variable sits below its lower bound
            // and must rise toward it.
            let increase = leave_to == VarState::Lower;
            collect_breakpoints(t, cost, &y, &rho, increase, &mut cands);
            let bv = t.basis[r];
            let violation = match leave_to {
                VarState::Lower => t.lo[bv] - t.xb[r],
                VarState::Upper => t.xb[r] - t.hi[bv],
                VarState::Basic => unreachable!(),
            };
            let Some((q, n_flips)) = long_step(&mut cands, &t.lo, &t.hi, violation, self.tol)
            else {
                // No breakpoint at all, or every one of them stepped over
                // with violation left: flipping the whole box cannot restore
                // feasibility ⇒ dual unbounded ⇒ the pinched primal polytope
                // is empty (no flip has been applied yet).
                return (LpStatus::Infeasible, iter);
            };

            // Apply all flips with one collective ftran.
            if n_flips > 0 {
                for &(j, _, _) in cands.iter().take(n_flips) {
                    let (dv, flipped) = match t.state[j] {
                        VarState::Lower => (t.hi[j] - t.lo[j], VarState::Upper),
                        VarState::Upper => (t.lo[j] - t.hi[j], VarState::Lower),
                        VarState::Basic => unreachable!(),
                    };
                    t.state[j] = flipped;
                    for &(i, a) in t.col(j) {
                        flip_rhs[i] += a * dv;
                    }
                }
                t.ftran_vec(&mut flip_rhs, &mut flip_w);
                for i in 0..m {
                    t.xb[i] -= flip_w[i];
                }
            }

            // Pivot: the entering variable moves off its bound by
            // t_e = δ / α_q where δ = x_B[r] − violated bound (recomputed
            // after the flips), landing the leaving variable on that bound.
            let delta = match leave_to {
                VarState::Lower => t.xb[r] - t.lo[bv],
                VarState::Upper => t.xb[r] - t.hi[bv],
                VarState::Basic => unreachable!(),
            };
            t.ftran(q, &mut w);
            let alpha = w[r];
            if alpha.abs() <= PIVOT_TOL {
                // Priced α and the ftran disagree beyond tolerance —
                // numerical trouble; let the caller fall back cold.
                return (LpStatus::Singular, iter);
            }
            let t_e = delta / alpha;
            let enter_val = t.nb_value(q) + t_e;
            t.state[bv] = leave_to;
            t.state[q] = VarState::Basic;
            t.basis[r] = q;

            // One pass over the pivot column moves x_B and raises the dual
            // Devex weights.
            let dw_r = dw[r];
            let inv_a2 = 1.0 / (alpha * alpha);
            let mut dmax = 1.0f64;
            for i in 0..m {
                if i == r {
                    continue;
                }
                t.xb[i] -= t_e * w[i];
                let cand = w[i] * w[i] * inv_a2 * dw_r;
                if cand > dw[i] {
                    dw[i] = cand;
                }
                if dw[i] > dmax {
                    dmax = dw[i];
                }
            }
            t.xb[r] = enter_val;
            dw[r] = (dw_r * inv_a2).max(1.0);
            if dw[r] > dmax {
                dmax = dw[r];
            }
            if dmax > DEVEX_RESET_LIMIT {
                dw.fill(1.0);
                t.devex_resets += 1;
            }

            if !t.update_factors(r, &w, &mut since_refactor, REFACTOR_EVERY) {
                return (LpStatus::Singular, iter);
            }
        }
        (LpStatus::IterLimit, self.max_iters)
    }
}

/// One breakpoint of the dual ratio test: `(j, priced α_j, dual ratio)`.
type Breakpoint = (usize, f64, f64);

/// The breakpoints of one dual iteration: every nonbasic, unfixed column the
/// pivot row `rho` prices beyond [`PIVOT_TOL`] with the sign that lets it
/// absorb the leaving row's violation.  Only columns reached by
/// [`Tableau::price_row`] can qualify; they arrive in the order the scatter
/// met them, which [`long_step`]'s total order makes immaterial.
fn collect_breakpoints(
    t: &mut Tableau<'_>,
    cost: &[f64],
    y: &[f64],
    rho: &[f64],
    increase: bool,
    cands: &mut Vec<Breakpoint>,
) {
    cands.clear();
    t.price_row(rho);
    for &j in &t.reached {
        if let Some(ratio) = breakpoint(t, cost, y, j, t.alpha[j], increase) {
            cands.push((j, t.alpha[j], ratio));
        }
    }
    t.clear_pricing();
}

/// The dual ratio of column `j` priced at `alpha`, if it is a breakpoint.
fn breakpoint(
    t: &Tableau<'_>,
    cost: &[f64],
    y: &[f64],
    j: usize,
    alpha: f64,
    increase: bool,
) -> Option<f64> {
    // The filters run cheapest first (α is in hand, the state is one byte);
    // which columns pass does not depend on their order.
    if alpha.abs() <= PIVOT_TOL {
        return None;
    }
    // Entering from Lower moves up, from Upper moves down; the induced
    // change on x_B[r] is −t·α_j, so eligibility pairs the state with the
    // sign of α_j.
    let eligible = match (t.state[j], increase) {
        (VarState::Lower, true) | (VarState::Upper, false) => alpha < 0.0,
        (VarState::Upper, true) | (VarState::Lower, false) => alpha > 0.0,
        (VarState::Basic, _) => false,
    };
    if !eligible || t.lo[j] >= t.hi[j] {
        return None;
    }
    let d = t.reduced_cost(cost, y, j);
    // Dual feasibility magnitude: d ≥ 0 at Lower, ≤ 0 at Upper; clamp small
    // drift to zero.
    let dmag = match t.state[j] {
        VarState::Lower => d.max(0.0),
        VarState::Upper => (-d).max(0.0),
        VarState::Basic => unreachable!(),
    };
    Some(dmag / alpha.abs())
}

/// `(ratio, index)`: ties to the lowest index, keeping re-solves
/// deterministic — and making the order total, so a prefix of it is the
/// prefix of any sort.
fn by_ratio(a: &Breakpoint, b: &Breakpoint) -> std::cmp::Ordering {
    a.2.partial_cmp(&b.2).expect("finite ratios").then(a.0.cmp(&b.0))
}

/// Breakpoints put in order per call of [`OrderedPrefix::cover`], doubling:
/// of the ≈ 125 a `rich_bb` iteration collects, the walk reads a handful.
const FIRST_BREAKPOINTS: usize = 8;

/// The bound-flipping walk over the breakpoints in dual-ratio order.  A
/// boxed column whose full flip still leaves the row violated is stepped
/// over; the first that cannot be enters the basis.  Returns `(entering
/// column, flips)` with the flipped breakpoints in `cands[..flips]`, in walk
/// order, or `None` when every breakpoint was stepped over.  Most walks end
/// within a few breakpoints, so only the prefix read is put in order.
fn long_step(
    cands: &mut [Breakpoint],
    lo: &[f64],
    hi: &[f64],
    mut violation: f64,
    tol: f64,
) -> Option<(usize, usize)> {
    let mut prefix = OrderedPrefix::new(FIRST_BREAKPOINTS);
    for k in 0..cands.len() {
        prefix.cover(cands, k, by_ratio);
        let (j, alpha, _) = cands[k];
        let range = hi[j] - lo[j];
        if range.is_finite() && violation - alpha.abs() * range > tol {
            violation -= alpha.abs() * range;
        } else {
            return Some((j, k));
        }
    }
    None
}

/// [`collect_breakpoints`] as it was: `ρ·a_j` recomputed by a walk down
/// every column, the breakpoints listed in column order.  The oracle of the
/// row scatter.
#[cfg(test)]
fn collect_breakpoints_by_columns(
    t: &Tableau<'_>,
    cost: &[f64],
    y: &[f64],
    rho: &[f64],
    increase: bool,
    cands: &mut Vec<Breakpoint>,
) {
    cands.clear();
    for (j, alpha) in t.price_by_columns(rho).into_iter().enumerate() {
        if t.state[j] == VarState::Basic || t.lo[j] >= t.hi[j] {
            continue;
        }
        if alpha.abs() <= PIVOT_TOL {
            continue;
        }
        let eligible = match (t.state[j], increase) {
            (VarState::Lower, true) | (VarState::Upper, false) => alpha < 0.0,
            (VarState::Upper, true) | (VarState::Lower, false) => alpha > 0.0,
            (VarState::Basic, _) => false,
        };
        if !eligible {
            continue;
        }
        let d = t.reduced_cost(cost, y, j);
        let dmag = match t.state[j] {
            VarState::Lower => d.max(0.0),
            VarState::Upper => (-d).max(0.0),
            VarState::Basic => unreachable!(),
        };
        cands.push((j, alpha, dmag / alpha.abs()));
    }
}

/// [`long_step`] as it was: every breakpoint sorted before the walk reads
/// the first few.  The oracle of the prefix walk.
#[cfg(test)]
fn long_step_after_a_full_sort(
    cands: &mut [Breakpoint],
    lo: &[f64],
    hi: &[f64],
    mut violation: f64,
    tol: f64,
) -> Option<(usize, usize)> {
    cands.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite ratios").then(a.0.cmp(&b.0)));
    let mut n_flips = 0usize;
    for &(j, alpha, _) in cands.iter() {
        let range = hi[j] - lo[j];
        if range.is_finite() && violation - alpha.abs() * range > tol {
            n_flips += 1;
            violation -= alpha.abs() * range;
        } else {
            return Some((j, n_flips));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::dense_resolve;
    use crate::factor::tests::float_bits;
    use crate::model::{LinExpr, Model, Sense};
    use crate::simplex::tests::{pinned_bounds, pricing_family, pricing_rows};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn breakpoint_bits(cands: &[Breakpoint]) -> Vec<(usize, u64, u64)> {
        cands.iter().map(|&(j, alpha, ratio)| (j, alpha.to_bits(), ratio.to_bits())).collect()
    }

    #[test]
    fn scattered_breakpoints_are_the_column_walks_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xD0A1);
        let (mut compared, mut breakpoints) = (0, 0);
        for (case, m) in pricing_family().iter().enumerate() {
            let n = m.n_vars();
            let form = StandardForm::new(m);
            let root = SimplexSolver::new().solve_on(&form, &vec![0.0; n], &vec![1.0; n]);
            let Some(basis) = root.basis else { continue };
            // The root basis under a node's pinched bounds, then a few dual
            // pivots further on.
            let (lo, hi) = pinned_bounds(&mut rng, n);
            let mut t = Tableau::new(&form, &lo, &hi);
            assert!(t.restore(&basis));
            let cost = t.phase2_cost();
            for burst in [0, 1, 3] {
                let dual = SimplexSolver { max_iters: burst, ..Default::default() };
                if dual.run_dual(&mut t, &cost).0 == LpStatus::Singular {
                    break;
                }
                let (mut y, mut fused_y) = (vec![0.0; t.m], vec![0.0; t.m]);
                t.duals(&cost, &mut y);
                for rho in pricing_rows(&mut t, &mut rng) {
                    for increase in [true, false] {
                        let (mut scattered, mut walked) = (Vec::new(), Vec::new());
                        collect_breakpoints(&mut t, &cost, &y, &rho, increase, &mut scattered);
                        collect_breakpoints_by_columns(&t, &cost, &y, &rho, increase, &mut walked);
                        // The scatter lists them as it meets them.
                        scattered.sort_unstable_by_key(|&(j, _, _)| j);
                        assert_eq!(
                            breakpoint_bits(&scattered),
                            breakpoint_bits(&walked),
                            "case {case}, burst {burst}"
                        );
                        compared += 1;
                        breakpoints += walked.len();
                    }
                }
                // The fused solve against its two halves, on a live basis
                // with its eta file.
                let r = rng.gen_range(0..t.m);
                let (mut rho, mut fused_rho) = (vec![0.0; t.m], vec![0.0; t.m]);
                t.btran_row(r, &mut rho);
                t.btran_row_and_duals(r, &cost, &mut fused_rho, &mut fused_y);
                assert_eq!(float_bits(&fused_rho), float_bits(&rho), "case {case}, burst {burst}");
                assert_eq!(float_bits(&fused_y), float_bits(&y), "case {case}, burst {burst}");
            }
        }
        assert!(
            compared > 1000 && breakpoints > 3000,
            "{compared} rows compared, {breakpoints} breakpoints"
        );
    }

    #[test]
    fn prefix_walk_reproduces_the_full_sort() {
        let mut rng = SmallRng::seed_from_u64(0xB0F7);
        let (mut entered, mut exhausted, mut long_walks, mut tied) = (0, 0, 0, 0);
        for case in 0..3000 {
            let n_cols = rng.gen_range(1..260usize);
            // Boxed binaries, a few free-above columns no walk steps over.
            let lo = vec![0.0; n_cols];
            let hi: Vec<f64> =
                (0..n_cols).map(|_| if rng.gen_bool(0.03) { f64::INFINITY } else { 1.0 }).collect();
            // Degenerate LPs clamp most dual ratios to exactly zero (of
            // either sign: `(-d).max(0.0)`); the rest repeat a few values.
            let zero_share = [0.0, 0.6, 0.95, 1.0][case % 4];
            let mut cols: Vec<usize> = (0..n_cols).collect();
            for i in (1..n_cols).rev() {
                cols.swap(i, rng.gen_range(0..i + 1));
            }
            cols.truncate(rng.gen_range(0..n_cols + 1));
            let cands: Vec<Breakpoint> = cols
                .iter()
                .map(|&j| {
                    let ratio = if rng.gen_bool(zero_share) {
                        [0.0, -0.0][rng.gen_range(0..2)]
                    } else {
                        f64::from(rng.gen_range(0..6)) * 0.25
                    };
                    (j, rng.gen_range(-2.0..2.0), ratio)
                })
                .collect();
            // From a walk that stops at the first breakpoint to one that
            // flips past everything the prefix first ordered, or past all.
            let violation = [0.5, 6.0, 40.0, 400.0][rng.gen_range(0..4)];

            let (mut prefix, mut sorted) = (cands.clone(), cands);
            let fast = long_step(&mut prefix, &lo, &hi, violation, 1e-7);
            let oracle = long_step_after_a_full_sort(&mut sorted, &lo, &hi, violation, 1e-7);
            assert_eq!(fast, oracle, "case {case}");
            match fast {
                Some((_, flips)) => {
                    assert_eq!(
                        breakpoint_bits(&prefix[..flips]),
                        breakpoint_bits(&sorted[..flips]),
                        "case {case}: flip list"
                    );
                    entered += 1;
                    long_walks += usize::from(flips > FIRST_BREAKPOINTS);
                    tied += usize::from(flips > 0 && sorted[flips].2 == sorted[0].2);
                }
                None => exhausted += 1,
            }
        }
        assert!(
            entered > 1500 && exhausted > 100 && long_walks > 300 && tied > 300,
            "{entered} entered, {exhausted} exhausted, {long_walks} long walks, {tied} tied"
        );
    }

    fn pinch(lo: &mut [f64], hi: &mut [f64], j: usize, v: f64) {
        lo[j] = v;
        hi[j] = v;
    }

    #[test]
    fn singular_snapshot_resolve_returns_none() {
        // A corrupted (duplicate-column, hence singular) snapshot must make
        // the warm re-solve bow out with `None` — the caller then pays a
        // cold two-phase solve — rather than pivot on a broken basis.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Le, 0.8);
        let root = SimplexSolver::new().solve(&m, &[0.0, 0.0], &[1.0, 1.0]);
        let mut bad = root.basis.clone().expect("root basis");
        bad.basis[1] = bad.basis[0];
        let _ = (x, y);
        assert!(SimplexSolver::new().resolve(&m, &[0.0, 0.0], &[1.0, 1.0], &bad).is_none());
    }

    #[test]
    fn resolve_matches_cold_after_bound_pinch() {
        // min −x − 2y s.t. x + y ≤ 1.5: root is (0.5, 1).  Pinch x to each
        // binary value and compare against cold solves.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let root = SimplexSolver::new().solve(&m, &[0.0, 0.0], &[1.0, 1.0]);
        let basis = root.basis.clone().expect("root basis");
        let _ = (x, y);
        for v in [0.0, 1.0] {
            let (mut lo, mut hi) = (vec![0.0, 0.0], vec![1.0, 1.0]);
            pinch(&mut lo, &mut hi, 0, v);
            let warm = SimplexSolver::new().resolve(&m, &lo, &hi, &basis).expect("basis fits");
            let cold = SimplexSolver::new().solve(&m, &lo, &hi);
            assert_eq!(warm.status, LpStatus::Optimal, "pinch x={v}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "pinch x={v}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(warm.basis.is_some(), "warm optimum snapshots a basis too");
        }
    }

    #[test]
    fn resolve_detects_infeasible_pinch() {
        // x + y ≥ 1.5 with both pinched to 0 is empty.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Ge, 1.5);
        let _ = (x, y);
        let root = SimplexSolver::new().solve(&m, &[0.0, 0.0], &[1.0, 1.0]);
        let basis = root.basis.expect("root basis");
        let r =
            SimplexSolver::new().resolve(&m, &[0.0, 0.0], &[0.0, 0.0], &basis).expect("basis fits");
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn resolve_chains_through_nested_pinches() {
        // Knapsack: re-solve child-of-child from each parent basis.
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..6 {
            let v = m.add_var(format!("v{j}"), -((j + 2) as f64));
            e.add(v, 1.5 + j as f64 * 0.5);
        }
        m.add_constraint(e, Sense::Le, 5.0);
        let n = 6;
        let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        let mut basis = root.basis.expect("root basis");
        for (j, v) in [(0usize, 1.0), (3usize, 0.0), (1usize, 1.0)] {
            pinch(&mut lo, &mut hi, j, v);
            let warm = SimplexSolver::new().resolve(&m, &lo, &hi, &basis).expect("fits");
            let cold = SimplexSolver::new().solve(&m, &lo, &hi);
            assert_eq!(warm.status, cold.status, "pinch ({j}, {v})");
            if warm.status == LpStatus::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-6,
                    "pinch ({j}, {v}): warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
                basis = warm.basis.expect("optimal warm solve snapshots");
            }
        }
    }

    #[test]
    fn expired_deadline_aborts_before_first_factorization() {
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let _ = (x, y);
        let root = SimplexSolver::new().solve(&m, &[0.0, 0.0], &[1.0, 1.0]);
        let basis = root.basis.expect("root basis");
        let dual =
            SimplexSolver { deadline: Some(std::time::Instant::now()), ..Default::default() };
        let (lo, hi) = ([1.0, 0.0], [1.0, 1.0]);
        let r = dual.resolve(&m, &lo, &hi, &basis).expect("fits");
        assert_eq!(r.status, LpStatus::IterLimit);
        assert_eq!(r.iterations, 0, "no dual pivot may run past an expired deadline");
        assert_eq!(r.refactorizations, 0, "no factorization past an expired deadline");
        // The dense oracle, called directly, has no entry check of its own
        // (that lives in `resolve`): it restores the basis, then stops at
        // the loop's first deadline check without a pivot.
        let oracle = dense_resolve(&dual, &m, &lo, &hi, &basis).expect("fits");
        assert_eq!(oracle.status, LpStatus::IterLimit);
        assert_eq!(oracle.iterations, 0, "no dual pivot may run past an expired deadline");
    }

    #[test]
    fn mismatched_basis_is_rejected() {
        let mut a = Model::new();
        let x = a.add_var("x", 1.0);
        a.add_constraint(LinExpr::new().term(x, 1.0), Sense::Le, 1.0);
        let root = SimplexSolver::new().solve(&a, &[0.0], &[1.0]);
        let basis = root.basis.expect("basis");
        // A model with a different shape cannot consume the snapshot.
        let mut b = Model::new();
        let p = b.add_var("p", 1.0);
        let q = b.add_var("q", 1.0);
        b.add_constraint(LinExpr::new().term(p, 1.0).term(q, 1.0), Sense::Le, 1.0);
        assert!(SimplexSolver::new().resolve(&b, &[0.0, 0.0], &[1.0, 1.0], &basis).is_none());
    }

    #[test]
    fn bound_flip_heavy_resolve_matches_cold() {
        // Fix many binaries to 1 at once: the covering row goes deeply
        // infeasible and the long-step ratio test must flip several boxed
        // columns per pivot.  Correctness contract: same verdict and
        // objective as a cold solve.
        let mut m = Model::new();
        let n = 12;
        let mut e = LinExpr::new();
        for j in 0..n {
            let v = m.add_var(format!("v{j}"), -(1.0 + (j % 5) as f64));
            e.add(v, 1.0 + (j % 3) as f64 * 0.5);
        }
        m.add_constraint(e, Sense::Le, 6.0);
        let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        let basis = root.basis.expect("root basis");
        // Pinch five variables to 1 simultaneously (still feasible: the
        // five cheapest weights sum below the capacity) and two to 0.
        for j in [0usize, 3, 6, 9, 11] {
            pinch(&mut lo, &mut hi, j, 1.0);
        }
        for j in [1usize, 4] {
            pinch(&mut lo, &mut hi, j, 0.0);
        }
        let warm = SimplexSolver::new().resolve(&m, &lo, &hi, &basis).expect("fits");
        let cold = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(warm.status, cold.status);
        if warm.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn engines_agree_across_pinch_chain() {
        // The sparse dual (Devex + BFRT) and the dense oracle (most-violated
        // + plain ratio) must produce identical verdicts and objectives on a
        // shared pinch chain from the same root basis.
        let mut m = Model::new();
        let mut e = LinExpr::new();
        for j in 0..8 {
            let v = m.add_var(format!("v{j}"), -((j % 4 + 1) as f64));
            e.add(v, ((j % 3) + 1) as f64);
        }
        m.add_constraint(e, Sense::Le, 7.0);
        let n = 8;
        let (mut lo, mut hi) = (vec![0.0; n], vec![1.0; n]);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        let basis = root.basis.expect("root basis");
        let dual = SimplexSolver::new();
        for (j, v) in [(2usize, 1.0), (5usize, 1.0), (0usize, 0.0), (7usize, 1.0)] {
            pinch(&mut lo, &mut hi, j, v);
            let a = dual.resolve(&m, &lo, &hi, &basis).expect("sparse fits");
            let b = dense_resolve(&dual, &m, &lo, &hi, &basis).expect("dense fits");
            assert_eq!(a.status, b.status, "pinch ({j}, {v})");
            if a.status == LpStatus::Optimal {
                assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "pinch ({j}, {v}): sparse {} vs dense {}",
                    a.objective,
                    b.objective
                );
            }
        }
    }
}
