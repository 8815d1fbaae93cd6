//! Lagrangian decomposition for block-angular index-tuning BIPs.
//!
//! The Theorem-1 BIP has a special shape: per-query variables (`y`, `x`)
//! couple to the global index variables (`z`) only through `x_qkia ≤ z_a`.
//! Dualizing those coupling constraints with multipliers `μ ≥ 0` makes the
//! problem fall apart (Fisher \[11\], the technique the paper's Solver applies
//! as `relax(B)` in Figure 3):
//!
//! * one **independent minimum per query block** — for fixed `μ`, each query
//!   picks its best template and per-slot access with `γ` inflated by `μ`;
//! * one **continuous-knapsack `z` subproblem** — each index's reduced cost
//!   is its update cost minus its accumulated multipliers, subject to the
//!   storage budget (the LP relaxation of the binary knapsack, still a valid
//!   lower bound);
//!
//! Subgradient ascent tightens the bound while a primal stream (knapsack
//! rounding + repair + local search over an item→block inverted index)
//! produces anytime incumbents.  The solver therefore offers the same
//! observables as the simplex-based B&B — anytime incumbent, global lower
//! bound, gap trace, warm start — but scales to hundreds of thousands of `x`
//! variables, where a dense-inverse simplex cannot go.
//!
//! **The solve is single-threaded**, like the paper's Solver: for a fixed μ
//! each subgradient iteration takes the per-block minima one after another
//! and folds them in block order (`SolveBudget::parallelism` is not read
//! here).  Progress of the block sweep and the coordinating multiplier loop
//! streams through [`DecompositionProgress`] on every progress event.

use std::collections::HashMap;

use crate::driver::{
    CancelToken, DecompositionProgress, GapPoint, SolveBudget, SolveDriver, SolveProgress,
};
use crate::knapsack;

/// Per-slot access choices: the fallback `I∅` cost (if the slot's order
/// requirement admits it) and `(item, γ)` pairs for compatible candidate
/// indexes.  Costs are pre-multiplied by the statement weight `f_q`.
#[derive(Debug, Clone, Default)]
pub struct SlotChoices {
    pub fallback: Option<f64>,
    pub choices: Vec<(u32, f64)>,
}

/// One template alternative of a block: `f_q β_qk` plus its slots.
#[derive(Debug, Clone, Default)]
pub struct Alt {
    pub base: f64,
    pub slots: Vec<SlotChoices>,
}

/// One query block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub alts: Vec<Alt>,
}

/// The block-angular problem: `min Σ_b block_cost_b(z) + Σ_a cost_a z_a`
/// subject to `Σ_a size_a z_a ≤ budget`, `z ∈ {0,1}`.
#[derive(Debug, Clone, Default)]
pub struct BlockProblem {
    pub n_items: usize,
    /// Fixed selection cost per item (`Σ_q f_q · ucost(a, q)`), ≥ 0.
    pub item_cost: Vec<f64>,
    /// Knapsack size per item.
    pub item_size: Vec<f64>,
    /// Storage budget; `None` = unconstrained.
    pub budget: Option<f64>,
    pub blocks: Vec<Block>,
}

impl BlockProblem {
    /// Exact cost of block `b` under selection `sel`; `None` when no template
    /// is instantiable (cannot happen if every block has an unconstrained
    /// alternative, which INUM guarantees).
    pub fn block_cost(&self, b: usize, sel: &[bool]) -> Option<f64> {
        let mut best: Option<f64> = None;
        for alt in &self.blocks[b].alts {
            let mut total = alt.base;
            let mut ok = true;
            for slot in &alt.slots {
                let mut sbest = slot.fallback;
                for &(item, g) in &slot.choices {
                    if sel[item as usize] && sbest.is_none_or(|c| g < c) {
                        sbest = Some(g);
                    }
                }
                match sbest {
                    Some(c) => total += c,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && best.is_none_or(|c| total < c) {
                best = Some(total);
            }
        }
        best
    }

    /// Total objective under `sel` (block costs + item costs); `None` if some
    /// block is uninstantiable.
    pub fn evaluate(&self, sel: &[bool]) -> Option<f64> {
        debug_assert_eq!(sel.len(), self.n_items);
        let items: f64 = (0..self.n_items).filter(|&a| sel[a]).map(|a| self.item_cost[a]).sum();
        let mut total = items;
        for b in 0..self.blocks.len() {
            total += self.block_cost(b, sel)?;
        }
        Some(total)
    }

    /// Total size of a selection.
    pub fn size_of(&self, sel: &[bool]) -> f64 {
        (0..self.n_items).filter(|&a| sel[a]).map(|a| self.item_size[a]).sum()
    }

    /// Does `sel` respect the budget?
    pub fn fits_budget(&self, sel: &[bool]) -> bool {
        match self.budget {
            None => true,
            Some(b) => self.size_of(sel) <= b + 1e-9,
        }
    }

    /// Inverted index: which blocks reference each item.
    pub fn item_blocks(&self) -> Vec<Vec<u32>> {
        let mut inv: Vec<Vec<u32>> = vec![Vec::new(); self.n_items];
        for (b, block) in self.blocks.iter().enumerate() {
            for alt in &block.alts {
                for slot in &alt.slots {
                    for &(item, _) in &slot.choices {
                        let v = &mut inv[item as usize];
                        if v.last() != Some(&(b as u32)) {
                            v.push(b as u32);
                        }
                    }
                }
            }
        }
        for v in &mut inv {
            v.dedup();
        }
        inv
    }

    /// Total number of `(block, alt, slot, choice)` coordinates (the μ
    /// dimension).
    pub fn n_choices(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.alts.iter())
            .flat_map(|a| a.slots.iter())
            .map(|s| s.choices.len())
            .sum()
    }

    /// Fold pin/ban fixings into the block form, keeping item ids (and thus
    /// warm-start μ coordinates) stable.  A pinned item's γ choices become
    /// unconditional — each slot's fallback drops to `min(fallback, γ)` — its
    /// maintenance cost moves into [`FixedBlockProblem::pinned_cost`], and its
    /// size is charged against the budget up front.  A banned item's choices
    /// are stripped.  Either way the item's own cost and size collapse to
    /// zero, so whatever the solver decides about it is objective-neutral and
    /// overwritten by [`FixedBlockProblem::apply_to_selection`].
    ///
    /// Returns `None` when the pinned sizes alone overflow the budget.
    pub fn with_fixings(&self, fixed: &[Option<bool>]) -> Option<FixedBlockProblem> {
        debug_assert_eq!(fixed.len(), self.n_items);
        let mut p = self.clone();
        let mut pinned_cost = 0.0f64;
        let mut pinned_size = 0.0f64;
        for (a, fix) in fixed.iter().enumerate().take(self.n_items) {
            match fix {
                Some(true) => {
                    pinned_cost += p.item_cost[a];
                    pinned_size += p.item_size[a];
                    p.item_cost[a] = 0.0;
                    p.item_size[a] = 0.0;
                }
                Some(false) => {
                    p.item_cost[a] = 0.0;
                    p.item_size[a] = 0.0;
                }
                None => {}
            }
        }
        if let Some(b) = p.budget.as_mut() {
            *b -= pinned_size;
            if *b < -1e-9 {
                return None;
            }
            *b = b.max(0.0);
        }
        for block in &mut p.blocks {
            for alt in &mut block.alts {
                for slot in &mut alt.slots {
                    let mut fb = slot.fallback;
                    slot.choices.retain(|&(item, g)| match fixed[item as usize] {
                        Some(true) => {
                            if fb.is_none_or(|c| g < c) {
                                fb = Some(g);
                            }
                            false
                        }
                        Some(false) => false,
                        None => true,
                    });
                    slot.fallback = fb;
                }
            }
        }
        Some(FixedBlockProblem { problem: p, pinned_cost, fixed: fixed.to_vec() })
    }
}

/// A [`BlockProblem`] with pin/ban fixings folded in — the Lagrangian-path
/// equivalent of the interactive BIP's variable bounds.  Solve
/// [`FixedBlockProblem::problem`] with any warm state from the unfixed chain
/// (coordinates are stable), then add [`FixedBlockProblem::pinned_cost`] to
/// the objective and bound and force the fixed decisions back onto the
/// selection.
#[derive(Debug, Clone)]
pub struct FixedBlockProblem {
    pub problem: BlockProblem,
    /// `Σ item_cost` over pinned items — constant part of any solution.
    pub pinned_cost: f64,
    fixed: Vec<Option<bool>>,
}

impl FixedBlockProblem {
    /// Overwrite the fixed coordinates of a reduced-problem selection.
    pub fn apply_to_selection(&self, sel: &mut [bool]) {
        for (a, fx) in self.fixed.iter().enumerate() {
            if let Some(v) = *fx {
                sel[a] = v;
            }
        }
    }
}

/// Warm-start state carried between solves (interactive tuning, Pareto
/// sweeps): multipliers keyed by stable coordinates and the last incumbent.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// μ keyed by `(block, alt, slot, item)`.
    pub multipliers: HashMap<(u32, u32, u32, u32), f64>,
    pub selection: Vec<bool>,
}

/// Result of a Lagrangian solve.
#[derive(Debug, Clone)]
pub struct LagrangeResult {
    pub selected: Vec<bool>,
    pub objective: f64,
    /// Best Lagrangian dual bound (≤ the binary optimum).
    pub bound: f64,
    pub gap: f64,
    pub iterations: usize,
    pub trace: Vec<GapPoint>,
}

/// Subgradient-driven Lagrangian solver, running inside the shared
/// [`SolveDriver`] (one tick per subgradient iteration).
#[derive(Debug, Clone)]
pub struct LagrangianSolver {
    /// Gap / time / iteration budget.  `node_limit` caps subgradient
    /// iterations; when `None`, [`LagrangianSolver::DEFAULT_MAX_ITERS`]
    /// applies (subgradient ascent also self-terminates once the step
    /// scale collapses).
    pub budget: SolveBudget,
    /// Cooperative cancellation: a fired token stops the subgradient loop
    /// at its next iteration with [`MipStatus::TimeLimit`](crate::MipStatus::TimeLimit) semantics.
    pub cancel: Option<CancelToken>,
}

impl Default for LagrangianSolver {
    fn default() -> Self {
        LagrangianSolver { budget: SolveBudget::within(0.02), cancel: None }
    }
}

impl LagrangianSolver {
    /// Iteration cap applied when the budget sets no `node_limit`.
    pub const DEFAULT_MAX_ITERS: usize = 400;

    pub fn new() -> Self {
        Self::default()
    }

    /// Solve from scratch.
    pub fn solve(&self, p: &BlockProblem) -> LagrangeResult {
        self.solve_warm(p, None).0
    }

    /// Solve with optional warm-start state; returns the result plus the
    /// state to reuse for the next (incrementally modified) solve.
    pub fn solve_warm(
        &self,
        p: &BlockProblem,
        warm: Option<&WarmStart>,
    ) -> (LagrangeResult, WarmStart) {
        self.solve_warm_with_progress(p, warm, |_, _| {})
    }

    /// [`LagrangianSolver::solve_warm`] streaming every incumbent/bound
    /// improvement through `on_progress` (the improving selection rides
    /// along on incumbent events) — the same anytime contract as the
    /// branch-and-bound backend.
    pub fn solve_warm_with_progress(
        &self,
        p: &BlockProblem,
        warm: Option<&WarmStart>,
        on_progress: impl FnMut(&SolveProgress, Option<&Vec<bool>>),
    ) -> (LagrangeResult, WarmStart) {
        let mut driver = SolveDriver::with_progress(self.budget, on_progress);
        driver.set_cancel(self.cancel.clone());
        let max_iters = self.budget.node_limit.unwrap_or(Self::DEFAULT_MAX_ITERS);
        let n = p.n_items;

        // --- flatten μ coordinates -----------------------------------------
        // offsets[(b,k,s)] → position of that slot's first choice in μ.
        let mut coord: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(p.n_choices());
        // block_start[b] → position of block b's first choice coordinate;
        // each block's coordinates are contiguous.
        let mut block_start: Vec<usize> = Vec::with_capacity(p.blocks.len());
        for (b, block) in p.blocks.iter().enumerate() {
            block_start.push(coord.len());
            for (k, alt) in block.alts.iter().enumerate() {
                for (s, slot) in alt.slots.iter().enumerate() {
                    for &(item, _) in &slot.choices {
                        coord.push((b as u32, k as u32, s as u32, item));
                    }
                }
            }
        }
        let mut mu = vec![0.0f64; coord.len()];
        if let Some(w) = warm {
            for (c, m) in coord.iter().zip(mu.iter_mut()) {
                if let Some(v) = w.multipliers.get(c) {
                    *m = *v;
                }
            }
        }

        // --- initial primal -------------------------------------------------
        let mut best_sel = greedy_initial(p);
        if let Some(w) = warm {
            let mut cand = vec![false; n];
            for (a, &v) in w.selection.iter().take(n).enumerate() {
                cand[a] = v;
            }
            let value_proxy: Vec<f64> = vec![1.0; n];
            knapsack::repair_to_budget(
                &mut cand,
                &value_proxy,
                &p.item_size,
                p.budget.unwrap_or(f64::INFINITY),
            );
            if better(p, &cand, &best_sel) {
                best_sel = cand;
            }
        }
        let initial_ub = p.evaluate(&best_sel).expect("initial selection evaluates");
        driver.offer_incumbent(initial_ub, best_sel);

        // Initial Polyak step scale (halved after stretches without dual
        // improvement).
        const ALPHA0: f64 = 2.0;
        let mut alpha = ALPHA0;
        let mut stall = 0usize;
        let mut g = vec![0.0f64; coord.len()];
        let mut m_acc = vec![0.0f64; n];
        let mut chosen: Vec<u32> = Vec::new();
        let mut block_choice: Vec<u32> = Vec::new();
        let mut blocks_done = 0usize;

        while driver.ticks() < max_iters {
            if driver.stop_status().is_some() {
                break;
            }
            driver.tick();

            // M_a = Σ μ over the item's choice coordinates.
            m_acc.fill(0.0);
            for (ci, &(_, _, _, item)) in coord.iter().enumerate() {
                m_acc[item as usize] += mu[ci];
            }

            // Query part: the per-block minima under μ-inflated γ — the
            // decomposed subproblems, which only couple through μ — folded
            // in block order.
            chosen.clear();
            let mut query_part = 0.0;
            for (block, &start) in p.blocks.iter().zip(&block_start) {
                let val = block_minimum(block, &mu, start, &mut block_choice);
                debug_assert!(val.is_finite(), "block without feasible alternative");
                query_part += val;
                chosen.extend_from_slice(&block_choice);
            }
            blocks_done += p.blocks.len();
            driver.set_decomposition(DecompositionProgress {
                blocks_done,
                blocks_total: p.blocks.len(),
                outer_iter: driver.ticks(),
            });

            // z subproblem: continuous knapsack over reduced costs.
            let zcost: Vec<f64> = (0..n).map(|a| p.item_cost[a] - m_acc[a]).collect();
            let (zobj, zfrac) = match p.budget {
                Some(b) => knapsack::continuous_min(&zcost, &p.item_size, b),
                None => {
                    let mut z = vec![0.0; n];
                    let mut obj = 0.0;
                    for a in 0..n {
                        if zcost[a] < 0.0 {
                            z[a] = 1.0;
                            obj += zcost[a];
                        }
                    }
                    (obj, z)
                }
            };
            let lb = query_part + zobj;
            if driver.raise_bound(lb) {
                stall = 0;
            } else {
                stall += 1;
                if stall > 20 {
                    alpha *= 0.5;
                    stall = 0;
                }
            }

            // Primal: round z, repair, evaluate.
            let mut cand: Vec<bool> = zfrac.iter().map(|v| *v >= 0.5).collect();
            knapsack::repair_to_budget(
                &mut cand,
                &m_acc,
                &p.item_size,
                p.budget.unwrap_or(f64::INFINITY),
            );
            if p.fits_budget(&cand) {
                if let Some(obj) = p.evaluate(&cand) {
                    driver.offer_incumbent(obj, cand);
                }
            }

            if driver.gap_reached() {
                break;
            }

            // Subgradient step.
            g.fill(0.0);
            for &cc in &chosen {
                g[cc as usize] += 1.0;
            }
            for (ci2, &(_, _, _, item)) in coord.iter().enumerate() {
                g[ci2] -= zfrac[item as usize];
            }
            let norm2: f64 = g.iter().map(|v| v * v).sum();
            if norm2 < 1e-14 {
                break;
            }
            let best_ub = driver.incumbent_objective();
            let target = (best_ub - lb).max(best_ub.abs() * 1e-4);
            let t = alpha * target / norm2;
            for (m, gi) in mu.iter_mut().zip(g.iter()) {
                *m = (*m + t * gi).max(0.0);
            }
            if alpha < 1e-6 {
                break;
            }
        }

        // Local search with the inverted index.
        const LOCAL_SEARCH_PASSES: usize = 2;
        let (mut ls_best, mut ls_sel) =
            driver.incumbent().map(|(obj, sel)| (*obj, sel.clone())).expect("primal exists");
        let inv = p.item_blocks();
        local_search(p, &inv, &mut ls_sel, &mut ls_best, LOCAL_SEARCH_PASSES);
        driver.offer_incumbent(ls_best, ls_sel);

        let r = driver.finish();
        let (objective, best_sel) = r.incumbent.expect("initial incumbent always offered");
        let result = LagrangeResult {
            selected: best_sel.clone(),
            objective,
            bound: r.bound,
            gap: r.gap,
            iterations: r.ticks,
            trace: r.trace,
        };
        let mut wout = WarmStart { multipliers: HashMap::new(), selection: best_sel };
        for (ci, c) in coord.iter().enumerate() {
            if mu[ci] != 0.0 {
                wout.multipliers.insert(*c, mu[ci]);
            }
        }
        (result, wout)
    }
}

/// One decomposed subproblem: the minimum of block `b` under μ-inflated γ,
/// with `start` the block's first coordinate in the flat μ vector.  Writes
/// the winning choice coordinates into `out` (cleared first) and returns the
/// minimal value.  Pure in `(block, mu, start)`.
fn block_minimum(block: &Block, mu: &[f64], start: usize, out: &mut Vec<u32>) -> f64 {
    out.clear();
    let mut best = f64::INFINITY;
    let mut scratch: Vec<u32> = Vec::new();
    let mut ci = start; // coordinate cursor; advances alt by alt
    for alt in &block.alts {
        // This alt's coords occupy [ci, ci + span), matching the flattening
        // order of `coord` in the solver.
        let alt_start = ci;
        ci += alt.slots.iter().map(|s| s.choices.len()).sum::<usize>();
        let mut val = alt.base;
        scratch.clear();
        let mut ok = true;
        let mut slot_ci = alt_start;
        for slot in &alt.slots {
            let mut sbest = slot.fallback;
            let mut sbest_ci: Option<u32> = None;
            for (off, &(_, gamma)) in slot.choices.iter().enumerate() {
                let inflated = gamma + mu[slot_ci + off];
                if sbest.is_none_or(|c| inflated < c) {
                    sbest = Some(inflated);
                    sbest_ci = Some((slot_ci + off) as u32);
                }
            }
            slot_ci += slot.choices.len();
            match sbest {
                Some(c) => {
                    val += c;
                    if let Some(cc) = sbest_ci {
                        scratch.push(cc);
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && val < best {
            best = val;
            std::mem::swap(out, &mut scratch);
        }
    }
    best
}

/// Is `a` a strictly better feasible selection than `b`?
fn better(p: &BlockProblem, a: &[bool], b: &[bool]) -> bool {
    if !p.fits_budget(a) {
        return false;
    }
    match (p.evaluate(a), p.evaluate(b)) {
        (Some(ca), Some(cb)) => ca < cb,
        (Some(_), None) => true,
        _ => false,
    }
}

/// Marginal-gain greedy with lazy re-evaluation: repeatedly add the item
/// with the best exact cost reduction per byte until nothing helps or the
/// budget is exhausted.  Block costs are cached and only the blocks touching
/// a flipped item are re-costed; scores are managed lazily (pop, recompute,
/// re-push if stale) as in the accelerated greedy for submodular
/// maximization — marginal gains here are not exactly submodular, but close
/// enough that laziness rarely mis-orders candidates (and the subsequent
/// local search cleans up the rest).
fn greedy_initial(p: &BlockProblem) -> Vec<bool> {
    let inv = p.item_blocks();
    let budget = p.budget.unwrap_or(f64::INFINITY);
    let mut sel = vec![false; p.n_items];
    let mut cache: Vec<f64> =
        (0..p.blocks.len()).map(|b| p.block_cost(b, &sel).unwrap_or(f64::INFINITY)).collect();
    let mut used = 0.0f64;

    fn gain_per_byte(
        p: &BlockProblem,
        inv: &[Vec<u32>],
        cache: &[f64],
        sel: &mut [bool],
        a: usize,
    ) -> f64 {
        sel[a] = true;
        let mut delta = p.item_cost[a];
        for &b in &inv[a] {
            delta += p.block_cost(b as usize, sel).unwrap_or(f64::INFINITY) - cache[b as usize];
        }
        sel[a] = false;
        -delta / p.item_size[a].max(1.0)
    }

    // (score, item, stamp): stamp is the selection round the score was
    // computed in; stale scores are recomputed on pop.
    let mut heap: Vec<(f64, usize, usize)> = (0..p.n_items)
        .filter(|&a| p.item_size[a] <= budget)
        .map(|a| (gain_per_byte(p, &inv, &cache, &mut sel, a), a, 0))
        .collect();
    heap.retain(|(s, _, _)| *s > 0.0);
    heap.sort_by(|x, y| x.0.total_cmp(&y.0)); // ascending; best at the end
    let mut round = 0usize;

    while let Some((score, a, stamp)) = heap.pop() {
        if sel[a] || used + p.item_size[a] > budget + 1e-9 || score <= 0.0 {
            continue;
        }
        if stamp != round {
            let fresh = gain_per_byte(p, &inv, &cache, &mut sel, a);
            if fresh > 0.0 {
                // Binary-insert to keep the lazy queue ordered.
                let pos = heap.partition_point(|(s, _, _)| *s < fresh);
                heap.insert(pos, (fresh, a, round));
            }
            continue;
        }
        // Accept.
        sel[a] = true;
        used += p.item_size[a];
        for &b in &inv[a] {
            cache[b as usize] = p.block_cost(b as usize, &sel).unwrap_or(f64::INFINITY);
        }
        round += 1;
    }
    sel
}

/// Add/drop local search over the item→blocks inverted index: only blocks
/// touching the flipped item are re-costed.
fn local_search(
    p: &BlockProblem,
    inv: &[Vec<u32>],
    sel: &mut [bool],
    best: &mut f64,
    passes: usize,
) {
    let budget = p.budget.unwrap_or(f64::INFINITY);
    for _ in 0..passes {
        let mut improved = false;
        let mut used = p.size_of(sel);
        for a in 0..p.n_items {
            let flip_to = !sel[a];
            if flip_to && used + p.item_size[a] > budget + 1e-9 {
                continue;
            }
            // Delta over affected blocks only.
            let mut delta = if flip_to { p.item_cost[a] } else { -p.item_cost[a] };
            let before: f64 = inv[a]
                .iter()
                .map(|&b| p.block_cost(b as usize, sel).unwrap_or(f64::INFINITY))
                .sum();
            sel[a] = flip_to;
            let after: f64 = inv[a]
                .iter()
                .map(|&b| p.block_cost(b as usize, sel).unwrap_or(f64::INFINITY))
                .sum();
            delta += after - before;
            if delta < -1e-9 {
                *best += delta;
                used += if flip_to { p.item_size[a] } else { -p.item_size[a] };
                improved = true;
            } else {
                sel[a] = !flip_to; // revert
            }
        }
        if !improved {
            break;
        }
    }
    // Re-evaluate exactly to kill accumulated float drift.
    if let Some(exact) = p.evaluate(sel) {
        *best = exact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Random block problem with guaranteed fallback alternatives.
    fn random_problem(seed: u64, n_items: usize, n_blocks: usize) -> BlockProblem {
        let mut rng = SmallRng::seed_from_u64(seed);
        let item_cost = (0..n_items).map(|_| rng.gen_range(0.0..2.0)).collect();
        let item_size = (0..n_items).map(|_| rng.gen_range(1.0..5.0)).collect();
        let mut blocks = Vec::new();
        for _ in 0..n_blocks {
            let mut alts = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let mut slots = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    let fallback = Some(rng.gen_range(5.0..50.0));
                    let mut choices = Vec::new();
                    for _ in 0..rng.gen_range(0..4) {
                        let item = rng.gen_range(0..n_items) as u32;
                        let g = rng.gen_range(0.5..40.0);
                        choices.push((item, g));
                    }
                    slots.push(SlotChoices { fallback, choices });
                }
                alts.push(Alt { base: rng.gen_range(1.0..20.0), slots });
            }
            blocks.push(Block { alts });
        }
        BlockProblem {
            n_items,
            item_cost,
            item_size,
            budget: Some(rng.gen_range(3.0..(n_items as f64 * 3.0))),
            blocks,
        }
    }

    /// Exhaustive optimum over item subsets (test oracle).
    fn brute_force(p: &BlockProblem) -> (f64, Vec<bool>) {
        assert!(p.n_items <= 16);
        let mut best = (f64::INFINITY, vec![false; p.n_items]);
        for mask in 0..(1u32 << p.n_items) {
            let sel: Vec<bool> = (0..p.n_items).map(|a| mask >> a & 1 == 1).collect();
            if !p.fits_budget(&sel) {
                continue;
            }
            if let Some(obj) = p.evaluate(&sel) {
                if obj < best.0 {
                    best = (obj, sel);
                }
            }
        }
        best
    }

    #[test]
    fn evaluate_hand_computed() {
        // One block, two alts; two items.
        let p = BlockProblem {
            n_items: 2,
            item_cost: vec![1.0, 0.0],
            item_size: vec![1.0, 1.0],
            budget: Some(2.0),
            blocks: vec![Block {
                alts: vec![
                    Alt {
                        base: 10.0,
                        slots: vec![SlotChoices {
                            fallback: Some(20.0),
                            choices: vec![(0, 5.0), (1, 8.0)],
                        }],
                    },
                    Alt {
                        base: 18.0,
                        slots: vec![SlotChoices { fallback: Some(4.0), choices: vec![] }],
                    },
                ],
            }],
        };
        // No items: min(10+20, 18+4) = 22.
        assert_eq!(p.evaluate(&[false, false]).unwrap(), 22.0);
        // Item 0: min(10+5, 22) + item_cost 1 = 16.
        assert_eq!(p.evaluate(&[true, false]).unwrap(), 16.0);
        // Item 1: min(10+8, 22) + 0 = 18.
        assert_eq!(p.evaluate(&[false, true]).unwrap(), 18.0);
    }

    #[test]
    fn bound_below_optimum_and_incumbent_feasible() {
        for seed in 0..8u64 {
            let p = random_problem(seed, 8, 12);
            let (opt, _) = brute_force(&p);
            let r = LagrangianSolver::new().solve(&p);
            assert!(
                r.bound <= opt + 1e-6,
                "seed {seed}: Lagrangian bound {} above optimum {opt}",
                r.bound
            );
            assert!(
                r.objective >= opt - 1e-6,
                "seed {seed}: incumbent {} below optimum {opt}?!",
                r.objective
            );
            assert!(p.fits_budget(&r.selected));
            assert!((p.evaluate(&r.selected).unwrap() - r.objective).abs() < 1e-6);
        }
    }

    #[test]
    fn finds_optimum_on_small_instances() {
        let mut hits = 0;
        for seed in 0..10u64 {
            let p = random_problem(100 + seed, 6, 8);
            let (opt, _) = brute_force(&p);
            let solver = LagrangianSolver {
                budget: SolveBudget::exact().with_nodes(800),
                ..Default::default()
            };
            let r = solver.solve(&p);
            if (r.objective - opt).abs() < 1e-6 {
                hits += 1;
            }
        }
        assert!(hits >= 8, "heuristic+LS should hit the optimum almost always: {hits}/10");
    }

    #[test]
    fn progress_stream_matches_branch_bound_contract() {
        let p = random_problem(21, 10, 25);
        let mut events = 0usize;
        let mut prev_gap = f64::INFINITY;
        let (r, _) = LagrangianSolver::new().solve_warm_with_progress(&p, None, |pr, sel| {
            events += 1;
            assert!(pr.gap <= prev_gap + 1e-12, "gap series must be non-increasing");
            prev_gap = pr.gap;
            assert!(pr.incumbent >= pr.bound - 1e-9);
            if let Some(sel) = sel {
                assert!(p.fits_budget(sel), "streamed incumbent must fit the budget");
                let exact = p.evaluate(sel).expect("streamed incumbent evaluates");
                assert!((exact - pr.incumbent).abs() < 1e-6);
            }
        });
        assert!(events > 0);
        assert_eq!(events, r.trace.len());
    }

    #[test]
    fn decomposition_progress_streams_through_events() {
        let p = random_problem(31, 10, 25);
        let n_blocks = p.blocks.len();
        let solver = LagrangianSolver { budget: SolveBudget::within(0.001), ..Default::default() };
        let mut decomposed_events = 0usize;
        let mut prev_done = 0usize;
        let (r, _) = solver.solve_warm_with_progress(&p, None, |pr, _| {
            if let Some(d) = pr.decomposition {
                decomposed_events += 1;
                assert_eq!(d.blocks_total, n_blocks);
                assert!(d.blocks_done >= prev_done, "blocks_done must be cumulative");
                assert_eq!(d.blocks_done, d.outer_iter * n_blocks);
                assert!(d.outer_iter <= pr.ticks);
                prev_done = d.blocks_done;
            }
        });
        // The initial greedy incumbent precedes the first outer iteration
        // (no decomposition yet); everything after the first iteration
        // must carry the typed decomposition state.
        assert!(decomposed_events > 0, "no decomposition progress observed");
        assert_eq!(prev_done, r.iterations * n_blocks);
    }

    #[test]
    fn gap_trace_is_anytime_consistent() {
        let p = random_problem(42, 12, 30);
        let r = LagrangianSolver::new().solve(&p);
        let mut prev_inc = f64::INFINITY;
        let mut prev_bound = f64::NEG_INFINITY;
        for pt in &r.trace {
            assert!(pt.incumbent <= prev_inc + 1e-9, "incumbent must not regress");
            assert!(pt.bound >= prev_bound - 1e-9, "bound must not regress");
            prev_inc = pt.incumbent;
            prev_bound = pt.bound;
        }
        assert!(r.gap >= 0.0);
    }

    #[test]
    fn warm_start_converges_faster() {
        let p = random_problem(77, 14, 40);
        let solver = LagrangianSolver { budget: SolveBudget::within(0.01), ..Default::default() };
        let (r1, warm) = solver.solve_warm(&p, None);
        let (r2, _) = solver.solve_warm(&p, Some(&warm));
        // Warm-started solve must not do worse, and usually does far less work.
        assert!(r2.objective <= r1.objective + 1e-6);
        assert!(
            r2.iterations <= r1.iterations,
            "warm start took more iterations: {} > {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn budget_zero_selects_nothing_positive_size() {
        let mut p = random_problem(5, 6, 6);
        p.budget = Some(0.0);
        let r = LagrangianSolver::new().solve(&p);
        assert!(r.selected.iter().all(|s| !s));
    }

    #[test]
    fn unbudgeted_problem_takes_all_useful_items() {
        let mut p = random_problem(9, 6, 10);
        p.budget = None;
        p.item_cost = vec![0.0; 6]; // free items
        let r = LagrangianSolver::new().solve(&p);
        // With zero cost and no budget, selecting everything is optimal;
        // the solver must find something at least as good.
        let all = vec![true; 6];
        let best_possible = p.evaluate(&all).unwrap();
        assert!(r.objective <= best_possible + 1e-6);
    }

    #[test]
    fn fixings_fold_exactly_into_the_block_form() {
        for seed in 0..6u64 {
            let p = random_problem(300 + seed, 8, 10);
            let mut fixed = vec![None; 8];
            fixed[0] = Some(true);
            fixed[1] = Some(false);
            let Some(fx) = p.with_fixings(&fixed) else {
                continue; // pinned item alone overflows this seed's budget
            };
            // Budget bookkeeping: pinned size is pre-charged.
            assert!(
                (fx.problem.budget.unwrap() - (p.budget.unwrap() - p.item_size[0]).max(0.0)).abs()
                    < 1e-9
            );
            assert_eq!(fx.problem.item_size[0], 0.0);
            assert_eq!(fx.problem.item_cost[1], 0.0);
            // Any selection respecting the fixings costs the same in the
            // reduced problem (plus the pinned constant) as in the original.
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..50 {
                let mut sel: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.5)).collect();
                fx.apply_to_selection(&mut sel);
                assert!(sel[0] && !sel[1]);
                let orig = p.evaluate(&sel);
                let reduced = fx.problem.evaluate(&sel).map(|v| v + fx.pinned_cost);
                match (orig, reduced) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "{a} vs {b}"),
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
            // Solving the reduced problem yields the fixed-optimal objective.
            let (r, _) = LagrangianSolver::new().solve_warm(&fx.problem, None);
            let mut sel = r.selected.clone();
            fx.apply_to_selection(&mut sel);
            let restricted_opt = {
                let mut best = f64::INFINITY;
                for mask in 0..(1u32 << 8) {
                    let s: Vec<bool> = (0..8).map(|a| mask >> a & 1 == 1).collect();
                    if !s[0] || s[1] || !p.fits_budget(&s) {
                        continue;
                    }
                    if let Some(obj) = p.evaluate(&s) {
                        best = best.min(obj);
                    }
                }
                best
            };
            let achieved = p.evaluate(&sel).expect("fixed selection evaluates");
            assert!(p.fits_budget(&sel));
            assert!(
                achieved >= restricted_opt - 1e-6,
                "seed {seed}: {achieved} below restricted optimum {restricted_opt}?!"
            );
            assert!((achieved - (r.objective + fx.pinned_cost)).abs() < 1e-6);
        }
    }

    #[test]
    fn infeasible_pins_are_reported() {
        let mut p = random_problem(17, 5, 5);
        p.budget = Some(0.5);
        let fixed = vec![Some(true), None, None, None, None];
        assert!(p.item_size[0] > 0.5);
        assert!(p.with_fixings(&fixed).is_none());
    }

    #[test]
    fn inverted_index_is_complete() {
        let p = random_problem(13, 10, 20);
        let inv = p.item_blocks();
        for (b, block) in p.blocks.iter().enumerate() {
            for alt in &block.alts {
                for slot in &alt.slots {
                    for &(item, _) in &slot.choices {
                        assert!(
                            inv[item as usize].contains(&(b as u32)),
                            "missing block {b} for item {item}"
                        );
                    }
                }
            }
        }
    }
}
