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
//! and folds them in block order.  Progress of the block sweep and the coordinating multiplier loop
//! streams through [`DecompositionProgress`] on every progress event.
//!
//! # The flat layout
//!
//! [`BlockProblem`] is the nested form BIPGen emits and the public reference
//! semantics ([`BlockProblem::block_cost`], [`BlockProblem::evaluate`]).  A
//! solve flattens it once into contiguous arrays and runs every iteration on
//! those.  One μ *coordinate* per `(block, alt, slot, choice)`, numbered in
//! that nesting order; per coordinate `γ`, its item and its slot; per slot a
//! coordinate range and the fallback; per alternative a slot range and the
//! base; per block an alternative range; and the inverse, item → its
//! coordinates in ascending order.  The `(block, alt, slot, item)` keys of a
//! [`WarmStart`] are produced by a walk over the nested form at import and
//! export only.  The walk's order is the keys' order up to the items within
//! a slot, so neither side hashes: the export sorts each slot's run of
//! non-zero multipliers by item, and the import keeps one cursor on the list
//! that finds each slot's run as the walk reaches the slot, and looks items
//! up inside the run.
//!
//! An iteration then costs what it touches, not the size of the problem —
//! and changes no bit of any result, because
//!
//! * *skipping zeros in ascending order keeps every sum.*  `M_a = Σ μ` and
//!   `‖g‖²` are left folds over the coordinates in ascending order.  A
//!   coordinate with `μ = 0` (resp. `g = 0`) contributes `+ 0.0`, the
//!   accumulators start at `+0.0` and never reach `−0.0` (μ is clamped at
//!   `+0.0`, squares are non-negative), and `x + 0.0 == x` bit for bit for
//!   every such `x`.  So `M_a` visits only the support of μ (≈ 20 % of the
//!   coordinates), as a bitset walked word by word, which is ascending
//!   order.  `‖g‖²` visits less: `g` is non-zero only on the block winners
//!   and the coordinates of items with `z > 0` (≈ 10 %), and there, unless
//!   the item's `z` is fractional, `g²` is exactly 1.0 (a winner of a
//!   `z = 0` item, a loser of a `z = 1` item) or 0.0 (a winner of a `z = 1`
//!   item).  So one pass over word bitsets — the winners, the coordinates of
//!   `z = 1` items, the fractional items' coordinates — counts the ones by
//!   popcount up to each fractional item's coordinate, adds each count by
//!   `add_ones` (`k` sequential `+= 1.0` in one addition per binade, exact
//!   because `x + 1.0` only rounds where it crosses into the next binade),
//!   and folds the fractional terms in place.  The μ update visits fewer
//!   still: `(μ + t·g).max(0.0)` is `μ` again for `g = 0`, and `+0.0` again
//!   for `g < 0` at `μ = 0`, so the same pass lists only the coordinates
//!   that can move, ≈ 2 % of them;
//! * *a minimum does not depend on the order it is taken in — once ties are
//!   broken by position.*  `min` over a set of finite floats is the same
//!   value whatever the order, but not always the same bits: `−0.0 == +0.0`,
//!   and a scan by `<` keeps whichever it met first.  So a slot's minimum is
//!   kept as a *winner*, its value and its position, and a tie goes to the
//!   earlier position in the scan order "fallback, then coordinates
//!   ascending" (`Winner::offer`).  That is a total order, so the winner is
//!   the scan's whatever order the candidates arrive in.  The rounded
//!   candidate is priced from the winners of the *selected* items' choices,
//!   seeded with the fallbacks; the sums — an alternative over its slots, the
//!   objective over the blocks — are then taken in the reference order, so
//!   no addition is reordered.  The primal heuristics price an item flip the
//!   same way, from winners kept current across flips (`SlotMinima`);
//! * *the knapsack order is a total order.*  A stable sort by ratio is the
//!   order `(ratio, index)`; [`knapsack::continuous_min`] may produce only
//!   the prefix of it that the budget consumes.
//!
//! # Slot winners across μ steps
//!
//! The block minima read no coordinate.  A solve keeps every slot's winner
//! under the current μ (`Winners`): built by one scan of every slot after
//! the warm-start import, then carried from step to step.  One step changes
//! the bits of ≈ 2 % of the multipliers, and each of them is merged into its
//! slot with `v = γ + μ`, the expression the scan evaluates:
//!
//! * the winner itself stays on a fall or a tie (it was first among the
//!   minima and still is), and marks its slot for a rescan on a rise (another
//!   coordinate may now be smaller; only a scan can tell which);
//! * another coordinate takes over on a smaller value, or on a tie with a
//!   winner at a larger coordinate; the fallback keeps every tie — exactly
//!   where a scan by `<` would have switched;
//! * a marked slot takes no merges, and is rescanned once against the final μ
//!   when the step closes.
//!
//! The scan (`Flat::scan`) takes two passes: a four-lane minimum of `γ + μ`,
//! exact in any order for finite values, then the first coordinate whose
//! `γ + μ` equals it — with its own bits, so a `±0` tie resolves as the
//! sequential scan resolves it.  That minimum is compared with the fallback
//! by `<`.  The block pass then sums each alternative's base and winners in
//! slot order, takes the first minimal alternative by `<`, and hands the
//! winning coordinates to the subgradient — the same floats in the same
//! order as the sweep over every coordinate it replaces, which survives as
//! the `#[cfg(test)]` oracle `Flat::block_minimum` and is checked against
//! the winners at every block of every test solve.
//!
//! All of this assumes finite coefficients, which BIPGen guarantees.  The
//! kernels are tested against the nested walks bit for bit, and
//! `lagrangian_digest.rs` pins whole solves recorded before the rewrite.

use crate::driver::{CancelToken, DecompositionProgress, SolveBudget, SolveDriver, SolveProgress};
use crate::knapsack;

/// Per-slot access choices: the fallback `I∅` cost (if the slot's order
/// requirement admits it) and `(item, γ)` pairs for compatible candidate
/// indexes.  Costs are pre-multiplied by the statement weight `f_q`.
#[derive(Debug, Clone, Default)]
pub struct SlotChoices {
    pub fallback: Option<f64>,
    pub choices: Vec<(u32, f64)>,
}

impl SlotChoices {
    /// The cheapest access under `sel`: its cost and the position of its
    /// choice (`None` for the fallback), or `None` when nothing is
    /// admissible.  A tie keeps the earlier access, the fallback first.
    pub fn argmin(&self, sel: &[bool]) -> Option<(f64, Option<usize>)> {
        let mut best = self.fallback.map(|f| (f, None));
        for (i, &(item, g)) in self.choices.iter().enumerate() {
            if sel[item as usize] && best.is_none_or(|(c, _)| g < c) {
                best = Some((g, Some(i)));
            }
        }
        best
    }
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

impl Block {
    /// The cheapest instantiable alternative under `sel`: its position and
    /// its base plus slot minima, summed in slot order; `None` when no
    /// alternative instantiates.  A tie keeps the earlier alternative.
    pub fn argmin(&self, sel: &[bool]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        'alts: for (k, alt) in self.alts.iter().enumerate() {
            let mut total = alt.base;
            for slot in &alt.slots {
                let Some((c, _)) = slot.argmin(sel) else { continue 'alts };
                total += c;
            }
            if best.is_none_or(|(_, c)| total < c) {
                best = Some((k, total));
            }
        }
        best
    }
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
        self.blocks[b].argmin(sel).map(|(_, cost)| cost)
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
/// sweeps): the non-zero multipliers keyed by stable coordinates, and the
/// last incumbent.
///
/// A key is `(block, alt, slot, item)`, which pins and bans keep valid (they
/// strip choices, not items) and appended blocks leave alone.  A solve
/// exports the list ordered by key, each key once, sized to the non-zero
/// count; where a slot lists an item twice, the key carries the μ of its
/// later coordinate.  The import relies on that order — it reads the list
/// with one cursor — and gives every coordinate of a key the key's μ where
/// that is positive.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// `((block, alt, slot, item), μ)`, ordered by key, each key once.
    pub multipliers: Vec<((u32, u32, u32, u32), f64)>,
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
    pub trace: Vec<SolveProgress>,
}

/// Subgradient-driven Lagrangian solver, running inside the anytime engine
/// it shares with [`BranchBound`](crate::BranchBound) (one tick per
/// subgradient iteration).
#[derive(Debug, Clone)]
pub struct LagrangianSolver {
    /// Gap / time / iteration budget.  `node_limit` caps subgradient
    /// iterations; when `None`, `LagrangianSolver::DEFAULT_MAX_ITERS` (400)
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
    pub(crate) const DEFAULT_MAX_ITERS: usize = 400;

    pub fn new() -> Self {
        Self::default()
    }

    /// Solve from scratch.
    pub fn solve(&self, p: &BlockProblem) -> LagrangeResult {
        self.solve_warm_with_progress(p, None, |_, _| {}).0
    }

    /// Solve with optional warm-start state; returns the result plus the
    /// state to reuse for the next (incrementally modified) solve.  Every
    /// incumbent/bound improvement streams through `on_progress` (the
    /// improving selection rides along on incumbent events) — the same
    /// anytime contract as the branch-and-bound backend.
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
        let flat = Flat::new(p);
        let n_coords = flat.gamma.len();

        // --- multipliers ----------------------------------------------------
        // `nonzero` is the support of μ; a multiplier is imported where it is
        // one (μ > 0), so the support only ever holds positive coordinates.
        let mut mu = vec![0.0f64; n_coords];
        let mut nonzero = CoordSet::new(n_coords);
        if let Some(w) = warm {
            import(p, &w.multipliers, &mut mu, &mut nonzero);
        }

        // --- initial primal -------------------------------------------------
        let mut best_sel = greedy_initial(p, &flat);
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
        // Everything an iteration writes lives in these buffers; the loop
        // allocates only the rounded candidate it offers the driver.
        let mut m_acc = vec![0.0f64; n];
        let mut zcost = vec![0.0f64; n];
        let mut zfrac: Vec<f64> = Vec::with_capacity(n);
        let mut ratio_order: Vec<(f64, u32)> = Vec::new();
        let mut chosen: Vec<u32> = Vec::new();
        let mut support = Support::new(n_coords);
        let mut step: Vec<(u32, f64)> = Vec::new();
        let mut slot_min = flat.fallback.clone();
        let mut winners = Winners::new(&flat, &mu);
        let mut blocks_done = 0usize;

        while driver.ticks() < max_iters {
            if driver.stop_status().is_some() {
                break;
            }
            driver.tick();

            // M_a = Σ μ over the item's choice coordinates.
            m_acc.fill(0.0);
            nonzero.for_each(|ci| m_acc[flat.item_of[ci] as usize] += mu[ci]);

            // Query part: the per-block minima under μ-inflated γ — the
            // decomposed subproblems, which only couple through μ — folded
            // in block order, from the slot winners the μ steps keep.
            chosen.clear();
            let mut query_part = 0.0;
            for b in 0..p.blocks.len() {
                let val = winners.block_minimum(&flat, b, &mut chosen);
                #[cfg(test)]
                debug_assert_eq!(
                    val.to_bits(),
                    flat.block_minimum(b, &mu, &mut Vec::new()).to_bits(),
                    "block {b}: the winners against the dense scan"
                );
                debug_assert!(val.is_finite(), "block without feasible alternative");
                query_part += val;
            }
            blocks_done += p.blocks.len();
            driver.set_decomposition(DecompositionProgress {
                blocks_done,
                blocks_total: p.blocks.len(),
                outer_iter: driver.ticks(),
            });

            // z subproblem: continuous knapsack over reduced costs.
            for a in 0..n {
                zcost[a] = p.item_cost[a] - m_acc[a];
            }
            let zobj = match p.budget {
                Some(b) => {
                    knapsack::continuous_min(&zcost, &p.item_size, b, &mut zfrac, &mut ratio_order)
                }
                None => {
                    zfrac.clear();
                    zfrac.resize(n, 0.0);
                    let mut obj = 0.0;
                    for a in 0..n {
                        if zcost[a] < 0.0 {
                            zfrac[a] = 1.0;
                            obj += zcost[a];
                        }
                    }
                    obj
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
                let obj = flat.evaluate(p, &cand, &mut slot_min);
                debug_assert_eq!(obj.map(f64::to_bits), p.evaluate(&cand).map(f64::to_bits));
                if let Some(obj) = obj {
                    driver.offer_incumbent(obj, cand);
                }
            }

            if driver.gap_reached() {
                break;
            }

            // Subgradient step: g = [coordinate won its slot] − z_item.
            support.load(&flat, &chosen, &zfrac);
            let norm2 = support.walk(&flat, &zfrac, &mu, &nonzero, &mut step);
            #[cfg(test)]
            {
                let (want_norm2, want_step) = touched_step(&flat, &chosen, &zfrac, &mu);
                assert_eq!(
                    step_bits(norm2, &step),
                    step_bits(want_norm2, &want_step),
                    "‖g‖² and the movers against the touched walk"
                );
            }
            if norm2 < 1e-14 {
                break;
            }
            let best_ub = driver.incumbent_objective();
            let target = (best_ub - lb).max(best_ub.abs() * 1e-4);
            let t = alpha * target / norm2;
            for &(ci, g) in &step {
                let ci = ci as usize;
                let m = (mu[ci] + t * g).max(0.0);
                if m.to_bits() != mu[ci].to_bits() {
                    mu[ci] = m;
                    nonzero.set(ci, m != 0.0);
                    winners.moved(&flat, &mu, ci);
                }
            }
            winners.rescan(&flat, &mu);
            if alpha < 1e-6 {
                break;
            }
        }

        // Local search over the item → coordinates inverse.
        const LOCAL_SEARCH_PASSES: usize = 2;
        let (mut ls_best, mut ls_sel) =
            driver.incumbent().map(|(obj, sel)| (*obj, sel.clone())).expect("primal exists");
        local_search(p, &flat, &mut ls_sel, &mut ls_best, LOCAL_SEARCH_PASSES);
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
        let multipliers = export(p, &mu, nonzero.len());
        (result, WarmStart { multipliers, selection: best_sel })
    }
}

/// A [`WarmStart`] key: `(block, alt, slot, item)`.
type Key = (u32, u32, u32, u32);

/// The `(block, alt, slot)` a key belongs to.
fn slot_key((b, k, s, _): Key) -> (u32, u32, u32) {
    (b, k, s)
}

/// Walk the μ coordinates in flattening order — block, alternative, slot,
/// choice — handing each its position and its stable [`WarmStart`] key.
/// The walk meets the slots in key order, and a slot's items in its
/// choices' order.
fn for_each_key(p: &BlockProblem, mut f: impl FnMut(usize, Key)) {
    let mut ci = 0;
    for (b, block) in p.blocks.iter().enumerate() {
        for (k, alt) in block.alts.iter().enumerate() {
            for (s, slot) in alt.slots.iter().enumerate() {
                for &(item, _) in &slot.choices {
                    f(ci, (b as u32, k as u32, s as u32, item));
                    ci += 1;
                }
            }
        }
    }
}

/// Give every coordinate the μ its key carries in `list` (a
/// [`WarmStart::multipliers`]), where that is positive, and mark it in
/// `nonzero`.  One cursor walks the list along with the coordinates: at
/// each slot it skips the keys of earlier slots and takes the slot's run,
/// and an item is looked up inside the run.
fn import(p: &BlockProblem, list: &[(Key, f64)], mu: &mut [f64], nonzero: &mut CoordSet) {
    debug_assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "keys ordered, each once");
    let (mut cursor, mut run, mut slot) = (0, &list[..0], None);
    for_each_key(p, |ci, key| {
        let here = slot_key(key);
        if slot != Some(here) {
            slot = Some(here);
            while cursor < list.len() && slot_key(list[cursor].0) < here {
                cursor += 1;
            }
            let start = cursor;
            while cursor < list.len() && slot_key(list[cursor].0) == here {
                cursor += 1;
            }
            run = &list[start..cursor];
        }
        if let Ok(i) = run.binary_search_by_key(&key.3, |&(k, _)| k.3) {
            let v = run[i].1;
            if v > 0.0 {
                mu[ci] = v;
                nonzero.insert(ci);
            }
        }
    });
}

/// The non-zero multipliers as a [`WarmStart::multipliers`] list, at the
/// capacity `n_nonzero`, their count.  The walk already orders the keys up
/// to the items inside a slot, so each slot's run is put in item order as
/// the walk leaves it — where it is not in order already.
fn export(p: &BlockProblem, mu: &[f64], n_nonzero: usize) -> Vec<(Key, f64)> {
    let mut list = Vec::with_capacity(n_nonzero);
    let mut run = 0;
    for_each_key(p, |ci, key| {
        if mu[ci] == 0.0 {
            return;
        }
        if list.get(run).is_some_and(|&(k, _): &(Key, f64)| slot_key(k) != slot_key(key)) {
            close_run(&mut list, run);
            run = list.len();
        }
        list.push((key, mu[ci]));
    });
    close_run(&mut list, run);
    list
}

/// Put one slot's run `list[run..]` in item order, each item once with the
/// μ of its last coordinate — what inserting the run into a map would keep.
fn close_run(list: &mut Vec<(Key, f64)>, run: usize) {
    if list[run..].windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // Stable: a repeated item keeps its coordinates in walk order.
    list[run..].sort_by_key(|&(key, _)| key);
    let mut kept = run;
    for i in run..list.len() {
        if kept > run && list[kept - 1].0 == list[i].0 {
            list[kept - 1].1 = list[i].1;
        } else {
            list[kept] = list[i];
            kept += 1;
        }
    }
    list.truncate(kept);
}

/// `x` plus `k` ones, bit for bit as `k` sequential `x += 1.0` (for
/// `x ≥ +0.0`).  Inside a binade `[2^e, 2^(e+1))` with `e ≤ 52` the ulp
/// divides 1.0, so each `+= 1.0` is exact while the sum stays below
/// `2^(e+1)`: those steps are one exact addition, and where all `k` stay
/// inside — the common case — so is the whole call.  The step that crosses
/// into the next binade, and every step below 1.0 or from `2^53` on, is
/// taken as it is; a step that leaves `x` where it was leaves it there for
/// good.
fn add_ones(mut x: f64, mut k: u32) -> f64 {
    debug_assert!(x >= 0.0, "{x}");
    const EXACT: f64 = (1u64 << 53) as f64;
    while k > 0 {
        if (1.0..EXACT).contains(&x) {
            let binade_end = f64::from_bits(((x.to_bits() >> 52) + 1) << 52);
            // Rounding is monotone and `binade_end` is a float, so a sum
            // below it is the exact one.
            let all = x + f64::from(k);
            if all < binade_end {
                return all;
            }
            // Exact: both are multiples of the ulp, within a factor of two.
            // And `gap ≤ k`, as the sum reached `binade_end`.
            let gap = binade_end - x;
            // The steps that stay inside: `j ≥ 1` with `x + j < binade_end`.
            let whole = gap as u32;
            let inside = whole - u32::from(f64::from(whole) == gap);
            x += f64::from(inside);
            k -= inside;
        }
        let next = x + 1.0;
        k -= 1;
        if next == x {
            break;
        }
        x = next;
    }
    x
}

/// The support of the subgradient `g = [coordinate won its slot] − z_item`
/// in one μ step, as word bitsets over the coordinates (see the module
/// docs): [`Support::load`] fills it from the block winners and `z`, and
/// [`Support::walk`] folds `‖g‖²` from it and lists the coordinates whose μ
/// can move.  Off the fractional items `g` is `1.0` on a winner of a `z = 0`
/// item, `−1.0` on a loser of a `z = 1` item and `0.0` on a winner of one.
struct Support {
    /// The block winners.
    won: CoordSet,
    /// The coordinates of the items with `z = 1`.
    full: CoordSet,
    /// The coordinates of the other items with `z ≠ 0`.
    frac: CoordSet,
}

impl Support {
    fn new(n_coords: usize) -> Self {
        Support {
            won: CoordSet::new(n_coords),
            full: CoordSet::new(n_coords),
            frac: CoordSet::new(n_coords),
        }
    }

    /// `chosen` holds the block winners, `zfrac` the knapsack's `z`.
    fn load(&mut self, flat: &Flat, chosen: &[u32], zfrac: &[f64]) {
        self.won.clear();
        self.full.clear();
        self.frac.clear();
        for &ci in chosen {
            self.won.insert(ci as usize);
        }
        for (a, &z) in zfrac.iter().enumerate() {
            let set = if z == 1.0 {
                &mut self.full
            } else if z != 0.0 {
                &mut self.frac
            } else {
                continue;
            };
            for &ci in flat.coords_of(a) {
                set.insert(ci as usize);
            }
        }
    }

    /// `‖g‖²`, bit for bit the ascending fold over every coordinate, and in
    /// `step` the coordinates whose μ can move, ascending, with their `g`:
    /// `(μ + t·g).max(0.0)` is `μ` again for `g = 0`, and `+0.0` again for
    /// `g < 0` at `μ = 0` — off `nonzero`.  One pass over the words: the
    /// terms of exactly 1.0 before a fractional item's coordinate are added
    /// as a count, its own term in place, and the zeros are left out.
    fn walk(
        &self,
        flat: &Flat,
        zfrac: &[f64],
        mu: &[f64],
        nonzero: &CoordSet,
        step: &mut Vec<(u32, f64)>,
    ) -> f64 {
        /// The `±1` movers in word `w`, ascending.
        fn push(step: &mut Vec<(u32, f64)>, w: usize, won: u64, mut bits: u64) {
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let g = if won >> bit & 1 == 1 { 1.0 } else { -1.0 };
                step.push(((w * 64) as u32 + bit, g));
                bits &= bits - 1;
            }
        }
        step.clear();
        let (mut norm2, mut ones_before) = (0.0f64, 0);
        for w in 0..self.won.words.len() {
            let (won, full, mut frac) = (self.won.words[w], self.full.words[w], self.frac.words[w]);
            let free_won = won & !full & !frac;
            let mut ones = free_won | (full & !won);
            let mut movers = free_won | (full & !won & nonzero.words[w]);
            while frac != 0 {
                let bit = frac.trailing_zeros();
                let below = (1u64 << bit) - 1;
                ones_before += (ones & below).count_ones();
                ones &= !below;
                push(step, w, won, movers & below);
                movers &= !below;
                norm2 = add_ones(norm2, ones_before);
                ones_before = 0;
                let ci = w * 64 + bit as usize;
                let g = f64::from(u8::from(won >> bit & 1 == 1)) - zfrac[flat.item_of[ci] as usize];
                norm2 += g * g;
                if (g > 0.0) | ((g < 0.0) & (mu[ci] > 0.0)) {
                    step.push((ci as u32, g));
                }
                frac &= frac - 1;
            }
            ones_before += ones.count_ones();
            push(step, w, won, movers);
        }
        add_ones(norm2, ones_before)
    }
}

/// The μ step as a walk of every coordinate where `g ≠ 0` — the block
/// winners and the coordinates of items with `z ≠ 0` — ascending: `‖g‖²`
/// and the coordinates that can move, with their `g`.  The oracle of
/// [`Support`].
#[cfg(test)]
fn touched_step(flat: &Flat, chosen: &[u32], zfrac: &[f64], mu: &[f64]) -> (f64, Vec<(u32, f64)>) {
    let mut touched = CoordSet::new(flat.gamma.len());
    for &ci in chosen {
        touched.insert(ci as usize);
    }
    for (a, &z) in zfrac.iter().enumerate() {
        if z != 0.0 {
            for &ci in flat.coords_of(a) {
                touched.insert(ci as usize);
            }
        }
    }
    let (mut norm2, mut step, mut next_won) = (0.0f64, Vec::new(), 0);
    touched.for_each(|ci| {
        let won = chosen.get(next_won) == Some(&(ci as u32));
        next_won += usize::from(won);
        let g = f64::from(u8::from(won)) - zfrac[flat.item_of[ci] as usize];
        norm2 += g * g;
        if (g > 0.0) | ((g < 0.0) & (mu[ci] > 0.0)) {
            step.push((ci as u32, g));
        }
    });
    (norm2, step)
}

/// A μ step's `‖g‖²` and movers, bit for bit.
#[cfg(test)]
fn step_bits(norm2: f64, step: &[(u32, f64)]) -> (u64, Vec<(u32, u64)>) {
    (norm2.to_bits(), step.iter().map(|&(ci, g)| (ci, g.to_bits())).collect())
}

/// "No coordinate": the slot's fallback won.
const NO_COORD: u32 = u32::MAX;
/// A slot with neither a fallback nor a choice: no alternative that has it
/// instantiates.
const EMPTY_SLOT: u32 = u32::MAX - 1;
/// A slot whose winner rose in this μ step, to be rescanned at its end.
const RESCAN: u32 = u32::MAX - 2;

/// A [`BlockProblem`] flattened once per solve into contiguous arrays (see
/// the module docs).  Coordinates, slots, alternatives and blocks are each
/// numbered globally in flattening order; a slot owns a contiguous coordinate
/// range, an alternative a contiguous slot range, a block a contiguous
/// alternative range.
struct Flat {
    /// Per coordinate: `γ`, the item, and the (global) slot it belongs to.
    gamma: Vec<f64>,
    item_of: Vec<u32>,
    slot_of: Vec<u32>,
    /// Slot `s` owns coordinates `slot_start[s]..slot_start[s + 1]`.
    slot_start: Vec<u32>,
    /// Per slot, its winner while no coordinate competes: the fallback, or
    /// [`Winner::EMPTY`].
    fallback: Vec<Winner>,
    block_of_slot: Vec<u32>,
    /// Alternative `k` owns slots `alt_start[k]..alt_start[k + 1]`.
    alt_start: Vec<u32>,
    base: Vec<f64>,
    /// Block `b` owns alternatives `block_start[b]..block_start[b + 1]`.
    block_start: Vec<u32>,
    /// Item `a` sits at coordinates
    /// `item_coords[item_start[a]..item_start[a + 1]]`, ascending.
    item_start: Vec<u32>,
    item_coords: Vec<u32>,
}

impl Flat {
    fn new(p: &BlockProblem) -> Flat {
        let n_coords = p.n_choices();
        assert!(n_coords < RESCAN as usize, "μ coordinates are indexed by u32");
        let mut f = Flat {
            gamma: Vec::with_capacity(n_coords),
            item_of: Vec::with_capacity(n_coords),
            slot_of: Vec::with_capacity(n_coords),
            slot_start: vec![0],
            fallback: Vec::new(),
            block_of_slot: Vec::new(),
            alt_start: vec![0],
            base: Vec::new(),
            block_start: vec![0],
            item_start: vec![0; p.n_items + 1],
            item_coords: vec![0; n_coords],
        };
        for (b, block) in p.blocks.iter().enumerate() {
            for alt in &block.alts {
                for slot in &alt.slots {
                    let s = f.fallback.len() as u32;
                    for &(item, gamma) in &slot.choices {
                        f.gamma.push(gamma);
                        f.item_of.push(item);
                        f.slot_of.push(s);
                        f.item_start[item as usize + 1] += 1;
                    }
                    f.fallback.push(match slot.fallback {
                        Some(value) => Winner { value, pos: NO_COORD },
                        None => Winner::EMPTY,
                    });
                    f.block_of_slot.push(b as u32);
                    f.slot_start.push(f.gamma.len() as u32);
                }
                f.base.push(alt.base);
                f.alt_start.push(f.fallback.len() as u32);
            }
            f.block_start.push(f.base.len() as u32);
        }
        // The inverse is a counting sort of the coordinates by item, which
        // leaves every item's coordinates ascending.
        for a in 0..p.n_items {
            f.item_start[a + 1] += f.item_start[a];
        }
        let mut next = f.item_start.clone();
        for (ci, &item) in f.item_of.iter().enumerate() {
            f.item_coords[next[item as usize] as usize] = ci as u32;
            next[item as usize] += 1;
        }
        f
    }

    fn n_blocks(&self) -> usize {
        self.block_start.len() - 1
    }

    fn alts_of(&self, b: usize) -> std::ops::Range<usize> {
        self.block_start[b] as usize..self.block_start[b + 1] as usize
    }

    fn slots_of(&self, k: usize) -> std::ops::Range<usize> {
        self.alt_start[k] as usize..self.alt_start[k + 1] as usize
    }

    fn coords_in(&self, s: usize) -> std::ops::Range<usize> {
        self.slot_start[s] as usize..self.slot_start[s + 1] as usize
    }

    /// The coordinates of item `a`, ascending.
    fn coords_of(&self, a: usize) -> &[u32] {
        &self.item_coords[self.item_start[a] as usize..self.item_start[a + 1] as usize]
    }

    /// The blocks that reference item `a`, ascending, each once.
    fn blocks_of(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let mut last = None;
        self.coords_of(a).iter().filter_map(move |&ci| {
            let b = self.block_of_slot[self.slot_of[ci as usize] as usize] as usize;
            (last != Some(b)).then(|| {
                last = Some(b);
                b
            })
        })
    }

    /// The winner of slot `s` under μ: the first minimum of `γ + μ` in the
    /// order "fallback, then coordinates ascending".  Two passes: a four-lane
    /// minimum of the coordinates' values (exact in any order, for finite
    /// values), then the first coordinate at that value, with its own bits —
    /// `−0.0 == +0.0`, so the first of a `±0` tie wins as in a scan by `<`.
    /// (One pass that keeps each lane's first minimum with its position is
    /// slower: the positions keep the lanes from vectorizing.)
    fn scan(&self, s: usize, mu: &[f64]) -> Winner {
        let coords = self.coords_in(s);
        let (gamma, mu) = (&self.gamma[coords.clone()], &mu[coords.clone()]);
        let mut lanes = [f64::INFINITY; 4];
        let (g4, m4) = (gamma.chunks_exact(4), mu.chunks_exact(4));
        let tail = g4.remainder().iter().zip(m4.remainder());
        for (g, m) in g4.zip(m4) {
            for l in 0..4 {
                let v = g[l] + m[l];
                if v < lanes[l] {
                    lanes[l] = v;
                }
            }
        }
        for (g, m) in tail {
            let v = g + m;
            if v < lanes[0] {
                lanes[0] = v;
            }
        }
        let min = lanes.into_iter().fold(f64::INFINITY, |a, v| if v < a { v } else { a });
        let fallback = self.fallback[s];
        if min < fallback.value {
            // Only a NaN can miss `min`; the module assumes finite values.
            let off = gamma.iter().zip(mu).position(|(g, m)| g + m == min).unwrap_or(0);
            Winner { value: gamma[off] + mu[off], pos: (coords.start + off) as u32 }
        } else {
            fallback
        }
    }

    /// One decomposed subproblem by a sweep over every coordinate (what each
    /// iteration ran before the slot winners): the minimum of block `b`
    /// under μ-inflated γ.  Appends the winning choice coordinates (slot
    /// order of the winning alternative) to `chosen` and returns the minimal
    /// value.  Pure in `(b, mu)`; the oracle of [`Winners::block_minimum`].
    #[cfg(test)]
    fn block_minimum(&self, b: usize, mu: &[f64], chosen: &mut Vec<u32>) -> f64 {
        let block_base = chosen.len();
        let mut best = f64::INFINITY;
        for k in self.alts_of(b) {
            // This alternative's winners go behind the block's current ones
            // and replace them if it wins.
            let alt_base = chosen.len();
            let mut val = self.base[k];
            let mut ok = true;
            for s in self.slots_of(k) {
                let coords = self.coords_in(s);
                let fallback = self.fallback[s];
                let (mut sbest, mut sbest_ci, rest) = match fallback.pos {
                    NO_COORD => (fallback.value, NO_COORD, coords),
                    _ if coords.is_empty() => {
                        ok = false;
                        break;
                    }
                    _ => {
                        let first = coords.start;
                        (self.gamma[first] + mu[first], first as u32, first + 1..coords.end)
                    }
                };
                let first = rest.start;
                for (off, (gamma, m)) in self.gamma[rest.clone()].iter().zip(&mu[rest]).enumerate()
                {
                    let inflated = gamma + m;
                    if inflated < sbest {
                        sbest = inflated;
                        sbest_ci = (first + off) as u32;
                    }
                }
                val += sbest;
                if sbest_ci != NO_COORD {
                    chosen.push(sbest_ci);
                }
            }
            if ok && val < best {
                best = val;
                let won = chosen.len() - alt_base;
                chosen.copy_within(alt_base.., block_base);
                chosen.truncate(block_base + won);
            } else {
                chosen.truncate(alt_base);
            }
        }
        best
    }

    /// Every slot's winner under `sel`, priced from the selected items'
    /// coordinates: every slot starts at its fallback and each selected
    /// choice is offered to its slot.
    fn slot_minima(&self, sel: &[bool], slot_min: &mut [Winner]) {
        slot_min.copy_from_slice(&self.fallback);
        for a in (0..sel.len()).filter(|&a| sel[a]) {
            for &ci in self.coords_of(a) {
                let s = self.slot_of[ci as usize] as usize;
                slot_min[s].offer(self.gamma[ci as usize], ci);
            }
        }
    }

    /// The cheapest instantiable alternative of block `b` given every
    /// slot's winner: its position and its base plus the winners' values,
    /// summed in slot order; `None` when no alternative instantiates.  A tie
    /// keeps the earlier alternative.
    fn best_alt(&self, b: usize, slot: &[Winner]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        'alts: for k in self.alts_of(b) {
            let mut total = self.base[k];
            for w in &slot[self.slots_of(k)] {
                if w.pos == EMPTY_SLOT {
                    continue 'alts;
                }
                total += w.value;
            }
            if best.is_none_or(|(_, c)| total < c) {
                best = Some((k, total));
            }
        }
        best
    }

    /// [`BlockProblem::evaluate`], bit for bit, in time proportional to the
    /// selected items' coordinates plus the slot count.  `slot_min` is
    /// scratch of one entry per slot.
    fn evaluate(&self, p: &BlockProblem, sel: &[bool], slot_min: &mut [Winner]) -> Option<f64> {
        debug_assert_eq!(sel.len(), p.n_items);
        self.slot_minima(sel, slot_min);
        let items: f64 = (0..p.n_items).filter(|&a| sel[a]).map(|a| p.item_cost[a]).sum();
        let mut total = items;
        for b in 0..self.n_blocks() {
            total += self.best_alt(b, slot_min)?.1;
        }
        Some(total)
    }
}

/// A slot's winner under μ: its value and its position — a coordinate,
/// [`NO_COORD`] for the fallback, [`EMPTY_SLOT`], or [`RESCAN`] while a μ
/// step is open.
#[derive(Debug, Clone, Copy)]
struct Winner {
    value: f64,
    pos: u32,
}

impl Winner {
    /// The winner of a slot with neither a fallback nor a choice.
    const EMPTY: Winner = Winner { value: f64::INFINITY, pos: EMPTY_SLOT };

    /// Coordinate `ci` at `value` enters the slot: it wins if a scan in slot
    /// order meets it first among the minima — on a smaller value, or on a
    /// tie with a coordinate after it.  The fallback keeps every tie.
    fn offer(&mut self, value: f64, ci: u32) {
        if value < self.value || (value == self.value && self.pos != NO_COORD && ci < self.pos) {
            *self = Winner { value, pos: ci };
        }
    }
}

/// Every slot's winner under the current μ (see the module docs), kept
/// across μ steps: [`Winners::moved`] merges each coordinate whose μ changed
/// bits, [`Winners::rescan`] closes the step, and
/// [`Winners::block_minimum`] takes a block's minimum from the winners alone.
struct Winners {
    slot: Vec<Winner>,
    /// The slots marked [`RESCAN`] in the open step.
    marked: Vec<u32>,
}

impl Winners {
    fn new(flat: &Flat, mu: &[f64]) -> Self {
        let slot = (0..flat.fallback.len()).map(|s| flat.scan(s, mu)).collect();
        Winners { slot, marked: Vec::new() }
    }

    /// Coordinate `ci`'s μ changed bits.  The winner stays on a fall or a
    /// tie; a rise marks the slot for a rescan.  Another coordinate takes
    /// over on a smaller value, or on a tie with a winner at a larger
    /// coordinate; the fallback keeps every tie.
    fn moved(&mut self, flat: &Flat, mu: &[f64], ci: usize) {
        let s = flat.slot_of[ci];
        let w = &mut self.slot[s as usize];
        let v = flat.gamma[ci] + mu[ci];
        let ci = ci as u32;
        if w.pos == ci {
            if v > w.value {
                w.pos = RESCAN;
                self.marked.push(s);
            } else {
                w.value = v;
            }
        } else if w.pos != RESCAN {
            w.offer(v, ci);
        }
    }

    /// Close a μ step: rescan the slots whose winner rose.
    fn rescan(&mut self, flat: &Flat, mu: &[f64]) {
        for s in self.marked.drain(..) {
            self.slot[s as usize] = flat.scan(s as usize, mu);
        }
    }

    /// One decomposed subproblem: the minimum of block `b` under μ-inflated
    /// γ, each alternative its base plus its slots' winners in slot order.
    /// Appends the winning alternative's choice coordinates to `chosen` (in
    /// slot order) and returns the minimal value.
    fn block_minimum(&self, flat: &Flat, b: usize, chosen: &mut Vec<u32>) -> f64 {
        let Some((k, value)) = flat.best_alt(b, &self.slot) else { return f64::INFINITY };
        let won = self.slot[flat.slots_of(k)].iter().map(|w| w.pos);
        chosen.extend(won.filter(|&pos| pos != NO_COORD));
        value
    }
}

/// A set of μ coordinates, walked in ascending order word by word.
struct CoordSet {
    words: Vec<u64>,
}

impl CoordSet {
    fn new(n_coords: usize) -> Self {
        CoordSet { words: vec![0; n_coords.div_ceil(64)] }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn insert(&mut self, ci: usize) {
        self.words[ci / 64] |= 1 << (ci % 64);
    }

    fn set(&mut self, ci: usize, member: bool) {
        let bit = 1 << (ci % 64);
        if member {
            self.words[ci / 64] |= bit;
        } else {
            self.words[ci / 64] &= !bit;
        }
    }

    /// Visit the members in ascending order.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
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

/// The primal heuristics' view of a selection: the per-slot minima it
/// induces and the block costs that follow, kept current across item flips
/// so that a flip is priced from the flipped item's coordinates and the slots
/// of the blocks it touches instead of a walk over those blocks' choices.
/// One flip is open at a time: [`SlotMinima::add`] / [`SlotMinima::remove`]
/// apply it to the minima and log what they overwrote,
/// [`SlotMinima::flipped_cost`] prices a block under it, then
/// [`SlotMinima::commit`] or [`SlotMinima::revert`] closes it.
struct SlotMinima<'f> {
    flat: &'f Flat,
    slot_min: Vec<Winner>,
    /// Cost of every block (`∞` if uninstantiable) with no flip open.
    block_cost: Vec<f64>,
    /// `(slot, winner before)` per write of the open flip.
    undo: Vec<(u32, Winner)>,
}

impl<'f> SlotMinima<'f> {
    fn new(flat: &'f Flat, sel: &[bool]) -> Self {
        let mut slot_min = flat.fallback.clone();
        flat.slot_minima(sel, &mut slot_min);
        let mut minima = SlotMinima { flat, slot_min, block_cost: Vec::new(), undo: Vec::new() };
        minima.block_cost = (0..flat.n_blocks()).map(|b| minima.flipped_cost(b)).collect();
        minima
    }

    /// Cost of block `b` under the current minima, open flip included.
    fn flipped_cost(&self, b: usize) -> f64 {
        self.flat.best_alt(b, &self.slot_min).map_or(f64::INFINITY, |(_, cost)| cost)
    }

    /// Item `a` joins the selection: its choices enter their slots.
    fn add(&mut self, a: usize) {
        for &ci in self.flat.coords_of(a) {
            let s = self.flat.slot_of[ci as usize];
            self.undo.push((s, self.slot_min[s as usize]));
            self.slot_min[s as usize].offer(self.flat.gamma[ci as usize], ci);
        }
    }

    /// Item `a` left the selection (`sel[a]` is already `false`): a slot one
    /// of its choices won is re-scanned.
    fn remove(&mut self, a: usize, sel: &[bool]) {
        let flat = self.flat;
        for &ci in flat.coords_of(a) {
            let s = flat.slot_of[ci as usize] as usize;
            if self.slot_min[s].pos != ci {
                continue;
            }
            self.undo.push((s as u32, self.slot_min[s]));
            self.slot_min[s] = flat.fallback[s];
            for cj in flat.coords_in(s) {
                if sel[flat.item_of[cj] as usize] {
                    self.slot_min[s].offer(flat.gamma[cj], cj as u32);
                }
            }
        }
    }

    /// Keep the open flip of item `a`.
    fn commit(&mut self, a: usize) {
        self.undo.clear();
        for b in self.flat.blocks_of(a) {
            self.block_cost[b] = self.flipped_cost(b);
        }
    }

    /// Undo the open flip.
    fn revert(&mut self) {
        while let Some((s, before)) = self.undo.pop() {
            self.slot_min[s as usize] = before;
        }
    }
}

/// Marginal-gain greedy with lazy re-evaluation: repeatedly add the item
/// with the best exact cost reduction per byte until nothing helps or the
/// budget is exhausted.  Block costs are cached and only the blocks touching
/// a flipped item are re-costed, from cached slot minima; scores are managed
/// lazily (pop, recompute, re-push if stale) as in the accelerated greedy
/// for submodular maximization — marginal gains here are not exactly
/// submodular, but close enough that laziness rarely mis-orders candidates
/// (and the subsequent local search cleans up the rest).
fn greedy_initial(p: &BlockProblem, flat: &Flat) -> Vec<bool> {
    let budget = p.budget.unwrap_or(f64::INFINITY);
    let mut sel = vec![false; p.n_items];
    let mut minima = SlotMinima::new(flat, &sel);
    let mut used = 0.0f64;

    fn gain_per_byte(p: &BlockProblem, minima: &mut SlotMinima, a: usize) -> f64 {
        minima.add(a);
        let mut delta = p.item_cost[a];
        for b in minima.flat.blocks_of(a) {
            delta += minima.flipped_cost(b) - minima.block_cost[b];
        }
        minima.revert();
        -delta / p.item_size[a].max(1.0)
    }

    // (score, item, stamp): stamp is the selection round the score was
    // computed in; stale scores are recomputed on pop.
    let mut heap: Vec<(f64, usize, usize)> = (0..p.n_items)
        .filter(|&a| p.item_size[a] <= budget)
        .map(|a| (gain_per_byte(p, &mut minima, a), a, 0))
        .collect();
    heap.retain(|(s, _, _)| *s > 0.0);
    heap.sort_by(|x, y| x.0.total_cmp(&y.0)); // ascending; best at the end
    let mut round = 0usize;

    while let Some((score, a, stamp)) = heap.pop() {
        if sel[a] || used + p.item_size[a] > budget + 1e-9 || score <= 0.0 {
            continue;
        }
        if stamp != round {
            let fresh = gain_per_byte(p, &mut minima, a);
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
        minima.add(a);
        minima.commit(a);
        round += 1;
    }
    sel
}

/// Add/drop local search over the item → coordinates inverse: only blocks
/// touching the flipped item are re-costed, from cached slot minima.
fn local_search(p: &BlockProblem, flat: &Flat, sel: &mut [bool], best: &mut f64, passes: usize) {
    let budget = p.budget.unwrap_or(f64::INFINITY);
    let mut minima = SlotMinima::new(flat, sel);
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
            let before: f64 = flat.blocks_of(a).map(|b| minima.block_cost[b]).sum();
            sel[a] = flip_to;
            if flip_to {
                minima.add(a);
            } else {
                minima.remove(a, sel);
            }
            let after: f64 = flat.blocks_of(a).map(|b| minima.flipped_cost(b)).sum();
            delta += after - before;
            if delta < -1e-9 {
                *best += delta;
                used += if flip_to { p.item_size[a] } else { -p.item_size[a] };
                improved = true;
                minima.commit(a);
            } else {
                sel[a] = !flip_to; // revert
                minima.revert();
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
    use std::collections::HashMap;

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

    /// A problem with every irregularity the flat kernels must survive:
    /// slots without a fallback, slots without choices, an item in two slots
    /// of one alternative (and twice in one slot), zero-size items.  With
    /// `instantiable`, every block also gets one alternative whose slots all
    /// have fallbacks, so that the solver can run on it.
    fn ragged_problem(seed: u64, budget: Option<f64>, instantiable: bool) -> BlockProblem {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_items = rng.gen_range(3..9);
        let mut blocks = Vec::new();
        for _ in 0..rng.gen_range(1..10) {
            let mut alts = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let mut slots = Vec::new();
                let twice = rng.gen_range(0..n_items) as u32;
                for _ in 0..rng.gen_range(1..4) {
                    let fallback = rng.gen_bool(0.7).then(|| rng.gen_range(5.0..50.0));
                    let mut choices: Vec<(u32, f64)> = (0..rng.gen_range(0..5))
                        .map(|_| (rng.gen_range(0..n_items) as u32, rng.gen_range(0.5..40.0)))
                        .collect();
                    if rng.gen_bool(0.5) {
                        choices.push((twice, rng.gen_range(0.5..40.0)));
                    }
                    slots.push(SlotChoices { fallback, choices });
                }
                alts.push(Alt { base: rng.gen_range(1.0..20.0), slots });
            }
            if instantiable {
                let slots = (0..rng.gen_range(1..3))
                    .map(|_| SlotChoices {
                        fallback: Some(rng.gen_range(20.0..60.0)),
                        choices: vec![(rng.gen_range(0..n_items) as u32, rng.gen_range(0.5..40.0))],
                    })
                    .collect();
                alts.push(Alt { base: rng.gen_range(1.0..20.0), slots });
            }
            blocks.push(Block { alts });
        }
        BlockProblem {
            n_items,
            item_cost: (0..n_items).map(|_| rng.gen_range(0.0..2.0)).collect(),
            item_size: (0..n_items)
                .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(1.0..5.0) })
                .collect(),
            budget,
            blocks,
        }
    }

    /// A value of the small grid the tied problems live on; both zeros are
    /// on it.
    fn on_grid(rng: &mut SmallRng) -> f64 {
        [-0.0, 0.0, 1.0, 2.0, 3.0][rng.gen_range(0..5)]
    }

    /// Ties everywhere: γ, fallbacks and bases on a small integer grid,
    /// slots without a fallback, and in the first block one slot with
    /// neither a fallback nor a choice.  With `instantiable`, every block
    /// also gets an alternative whose one slot has a fallback.
    fn tied_problem(seed: u64, budget: Option<f64>, instantiable: bool) -> BlockProblem {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_items = rng.gen_range(2..6);
        let mut blocks = Vec::new();
        for b in 0..rng.gen_range(1..8) {
            let mut alts = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let mut slots = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    let fallback = rng.gen_bool(0.6).then(|| on_grid(&mut rng));
                    let choices = (0..rng.gen_range(0..7))
                        .map(|_| (rng.gen_range(0..n_items) as u32, on_grid(&mut rng)))
                        .collect();
                    slots.push(SlotChoices { fallback, choices });
                }
                alts.push(Alt { base: on_grid(&mut rng), slots });
            }
            if b == 0 {
                alts[0].slots.push(SlotChoices::default());
            }
            if instantiable {
                let slot = SlotChoices {
                    fallback: Some(on_grid(&mut rng)),
                    choices: vec![(rng.gen_range(0..n_items) as u32, on_grid(&mut rng))],
                };
                alts.push(Alt { base: on_grid(&mut rng), slots: vec![slot] });
            }
            blocks.push(Block { alts });
        }
        BlockProblem {
            n_items,
            item_cost: (0..n_items).map(|_| on_grid(&mut rng).abs()).collect(),
            item_size: (0..n_items).map(|_| on_grid(&mut rng).abs()).collect(),
            budget,
            blocks,
        }
    }

    /// Kernel inputs: regular, ragged and tied problems, with and without a
    /// budget, and the empty problem.
    fn kernel_problems() -> Vec<BlockProblem> {
        let mut problems = vec![BlockProblem::default(), random_problem(1, 12, 30)];
        for seed in 0..40u64 {
            let budget = (seed % 3 != 0).then_some(2.0 + seed as f64);
            problems.push(ragged_problem(seed, budget, seed % 2 == 0));
        }
        for seed in 0..20u64 {
            let budget = (seed % 3 != 0).then_some(1.0 + (seed % 4) as f64);
            problems.push(tied_problem(seed, budget, seed % 2 == 0));
        }
        problems
    }

    /// Random multipliers: about half of them zero, like a running solve.
    fn random_mu(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..30.0) }).collect()
    }

    /// Multipliers on the tied problems' grid, so that γ + μ ties too (and
    /// `−0.0 + −0.0` makes a `−0.0`).
    fn grid_mu(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| on_grid(rng)).collect()
    }

    /// Every slot's winner, bit for bit.
    fn winner_bits(slot: &[Winner]) -> Vec<(u64, u32)> {
        slot.iter().map(|w| (w.value.to_bits(), w.pos)).collect()
    }

    fn random_selection(rng: &mut SmallRng, n: usize) -> Vec<bool> {
        let density = rng.gen_range(0.0..1.0);
        (0..n).map(|_| rng.gen_bool(density)).collect()
    }

    /// Every block's first coordinate.
    fn block_starts(p: &BlockProblem) -> Vec<usize> {
        let mut next = 0;
        let mut starts = Vec::new();
        for block in &p.blocks {
            starts.push(next);
            next +=
                block.alts.iter().flat_map(|a| &a.slots).map(|s| s.choices.len()).sum::<usize>();
        }
        starts
    }

    /// The block minimum as a walk over the nested problem (what every
    /// iteration ran before the flat layout): the oracle of
    /// [`Flat::block_minimum`].  `start` is the block's first coordinate.
    fn block_minimum(block: &Block, mu: &[f64], start: usize, out: &mut Vec<u32>) -> f64 {
        out.clear();
        let mut best = f64::INFINITY;
        let mut scratch: Vec<u32> = Vec::new();
        let mut ci = start; // coordinate cursor; advances alt by alt
        for alt in &block.alts {
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

    /// The subgradient loop as dense sweeps over every coordinate (what ran
    /// before the sparse walks), around the same primal heuristics and
    /// driver: the oracle of
    /// [`LagrangianSolver::solve_warm_with_progress`] on a cold start.
    fn dense_solve(p: &BlockProblem, budget: SolveBudget) -> (LagrangeResult, WarmStart) {
        let mut driver: SolveDriver<Vec<bool>> = SolveDriver::with_progress(budget, |_, _| {});
        let n = p.n_items;
        let flat = Flat::new(p);
        let mut coord = Vec::new();
        for_each_key(p, |_, key| coord.push(key));
        let block_start = block_starts(p);
        let mut mu = vec![0.0f64; coord.len()];
        let best_sel = greedy_initial(p, &flat);
        driver.offer_incumbent(p.evaluate(&best_sel).unwrap(), best_sel);

        let (mut alpha, mut stall) = (2.0, 0);
        let mut g = vec![0.0f64; coord.len()];
        let mut m_acc = vec![0.0f64; n];
        let (mut chosen, mut block_choice) = (Vec::new(), Vec::new());
        let (mut zfrac, mut order) = (Vec::new(), Vec::new());
        while driver.ticks() < budget.node_limit.unwrap() {
            if driver.stop_status().is_some() {
                break;
            }
            driver.tick();
            m_acc.fill(0.0);
            for (ci, &(_, _, _, item)) in coord.iter().enumerate() {
                m_acc[item as usize] += mu[ci];
            }
            chosen.clear();
            let mut query_part = 0.0;
            for (block, &start) in p.blocks.iter().zip(&block_start) {
                query_part += block_minimum(block, &mu, start, &mut block_choice);
                chosen.extend_from_slice(&block_choice);
            }
            let zcost: Vec<f64> = (0..n).map(|a| p.item_cost[a] - m_acc[a]).collect();
            let zobj = match p.budget {
                Some(b) => {
                    knapsack::continuous_min(&zcost, &p.item_size, b, &mut zfrac, &mut order)
                }
                None => {
                    zfrac = zcost.iter().map(|&c| if c < 0.0 { 1.0 } else { 0.0 }).collect();
                    zcost.iter().filter(|&&c| c < 0.0).fold(0.0, |obj, c| obj + c)
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
            let mut cand: Vec<bool> = zfrac.iter().map(|v| *v >= 0.5).collect();
            let cap = p.budget.unwrap_or(f64::INFINITY);
            knapsack::repair_to_budget(&mut cand, &m_acc, &p.item_size, cap);
            if p.fits_budget(&cand) {
                if let Some(obj) = p.evaluate(&cand) {
                    driver.offer_incumbent(obj, cand);
                }
            }
            if driver.gap_reached() {
                break;
            }
            g.fill(0.0);
            for &cc in &chosen {
                g[cc as usize] += 1.0;
            }
            for (ci, &(_, _, _, item)) in coord.iter().enumerate() {
                g[ci] -= zfrac[item as usize];
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
        let (mut ls_best, mut ls_sel) = driver.incumbent().cloned().unwrap();
        local_search(p, &flat, &mut ls_sel, &mut ls_best, 2);
        driver.offer_incumbent(ls_best, ls_sel);
        let r = driver.finish();
        let (objective, selected) = r.incumbent.unwrap();
        let multipliers = sorted(export_hashed(p, &mu));
        (
            LagrangeResult {
                selected: selected.clone(),
                objective,
                bound: r.bound,
                gap: r.gap,
                iterations: r.ticks,
                trace: r.trace,
            },
            WarmStart { multipliers, selection: selected },
        )
    }

    /// The warm-start export as it was: a map from key to the μ of the last
    /// non-zero coordinate with that key.  The oracle of [`export`].
    fn export_hashed(p: &BlockProblem, mu: &[f64]) -> HashMap<Key, f64> {
        let mut map = HashMap::new();
        for_each_key(p, |ci, key| {
            if mu[ci] != 0.0 {
                map.insert(key, mu[ci]);
            }
        });
        map
    }

    /// The warm-start import as it was, from a map.  The oracle of
    /// [`import`].
    fn import_hashed(p: &BlockProblem, map: &HashMap<Key, f64>) -> (Vec<f64>, CoordSet) {
        let mut mu = vec![0.0; p.n_choices()];
        let mut nonzero = CoordSet::new(mu.len());
        for_each_key(p, |ci, key| {
            if let Some(&v) = map.get(&key) {
                if v > 0.0 {
                    mu[ci] = v;
                    nonzero.insert(ci);
                }
            }
        });
        (mu, nonzero)
    }

    /// A map's entries ordered by key: the list [`export`] must produce.
    fn sorted(map: HashMap<Key, f64>) -> Vec<(Key, f64)> {
        let mut list: Vec<_> = map.into_iter().collect();
        list.sort_unstable_by_key(|&(key, _)| key);
        list
    }

    fn list_bits(list: &[(Key, f64)]) -> Vec<(Key, u64)> {
        list.iter().map(|&(key, v)| (key, v.to_bits())).collect()
    }

    #[test]
    fn add_ones_matches_sequential_additions() {
        // Zero, integers (up to and past 2^53, where `+ 1.0` ties or
        // vanishes), values just under a power of two, and fractions.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut starts = vec![0.0, 1.0, 2.0, 3.0, 7.0, 1000.0, 4095.0, 123_456.0];
        for e in [52, 53, 54, 60] {
            let p = (1u64 << e) as f64;
            starts.extend([p - 4.0, p - 1.0, p, p + 2.0, p + 4.0]);
        }
        for e in -3..60 {
            let p = 2f64.powi(e);
            starts.extend([f64::from_bits(p.to_bits() - 1), f64::from_bits(p.to_bits() - 3)]);
        }
        starts.extend([0.1, 0.5, 0.75, 1.5, 3.3, 1e-300, 5e-324, 1023.999, 65_535.5]);
        starts.extend((0..40).map(|_| rng.gen_range(0.0..1.0)));
        starts.extend((0..40).map(|_| rng.gen_range(0.0..1e6)));
        starts.extend((0..10).map(|_| rng.gen_range(0.0..1e17)));
        const K: u32 = 100_000;
        let mut checked = 0;
        for &x in &starts {
            let mut checkpoints: Vec<u32> =
                (0..300).chain((0..30).map(|_| rng.gen_range(0..=K))).chain([K]).collect();
            checkpoints.sort_unstable();
            checkpoints.dedup();
            let (mut sum, mut done) = (x, 0);
            for &k in &checkpoints {
                for _ in done..k {
                    sum += 1.0;
                }
                done = k;
                assert_eq!(add_ones(x, k).to_bits(), sum.to_bits(), "{x:e} plus {k} ones");
                checked += 1;
            }
        }
        assert!(checked > 40_000, "{checked}");
    }

    #[test]
    fn support_matches_the_touched_walk() {
        // The block winners under random μ, and a `z` with zeros (both), ones
        // and fractions — from none to several fractional items.
        let mut rng = SmallRng::seed_from_u64(23);
        let (mut steps, mut fractional, mut moved) = (0, 0, 0);
        for p in kernel_problems() {
            let flat = Flat::new(&p);
            let mut support = Support::new(flat.gamma.len());
            let mut step = Vec::new();
            for draw in 0..20 {
                let mu = match draw % 2 {
                    0 => random_mu(&mut rng, p.n_choices()),
                    _ => grid_mu(&mut rng, p.n_choices()).into_iter().map(f64::abs).collect(),
                };
                let mut nonzero = CoordSet::new(mu.len());
                for (ci, &m) in mu.iter().enumerate() {
                    nonzero.set(ci, m != 0.0);
                }
                let winners = Winners::new(&flat, &mu);
                let mut chosen = Vec::new();
                for b in 0..p.blocks.len() {
                    winners.block_minimum(&flat, b, &mut chosen);
                }
                let zfrac: Vec<f64> = (0..p.n_items)
                    .map(|_| match rng.gen_range(0..6) {
                        0 => -0.0,
                        1 | 2 => 0.0,
                        3 | 4 => 1.0,
                        _ => rng.gen_range(0.0..1.0),
                    })
                    .collect();
                support.load(&flat, &chosen, &zfrac);
                let norm2 = support.walk(&flat, &zfrac, &mu, &nonzero, &mut step);
                let (want_norm2, want_step) = touched_step(&flat, &chosen, &zfrac, &mu);
                assert!(
                    step_bits(norm2, &step) == step_bits(want_norm2, &want_step),
                    "‖g‖² {norm2} against {want_norm2}, movers {step:?} against {want_step:?}"
                );
                steps += 1;
                fractional += usize::from(support.frac.len() > 0);
                moved += step.len();
            }
        }
        assert!(steps > 1000 && fractional > 500 && moved > 10_000, "{steps} {fractional} {moved}");
    }

    #[test]
    fn warm_lists_round_trip_like_the_hashed_oracle() {
        // Export: random μ over ragged problems (an item twice in a slot).
        // Import: solved warm states into the problem itself, into it with
        // pins and bans folded in, and into it with blocks appended.
        let mut rng = SmallRng::seed_from_u64(29);
        let (mut repeats, mut imports) = (0, 0);
        let solver =
            LagrangianSolver { budget: SolveBudget::within(1e-6).with_nodes(30), cancel: None };
        for seed in 0..40u64 {
            let p = ragged_problem(seed, Some(4.0 + seed as f64), true);
            for _ in 0..10 {
                let mu = random_mu(&mut rng, p.n_choices());
                let n_nonzero = mu.iter().filter(|&&m| m != 0.0).count();
                let list = export(&p, &mu, n_nonzero);
                assert_eq!(list.capacity(), n_nonzero);
                assert_eq!(list_bits(&list), list_bits(&sorted(export_hashed(&p, &mu))));
                repeats += usize::from(list.len() < n_nonzero);
            }

            let (_, warm) = solver.solve_warm_with_progress(&p, None, |_, _| {});
            let fixed: Vec<Option<bool>> = (0..p.n_items)
                .map(|_| [None, None, Some(true), Some(false)][rng.gen_range(0..4)])
                .collect();
            let mut appended = p.clone();
            appended.blocks.extend(p.blocks.iter().take(3).cloned());
            let mut targets = vec![p.clone(), appended];
            targets.extend(p.with_fixings(&fixed).map(|fx| fx.problem));
            let map: HashMap<Key, f64> = warm.multipliers.iter().copied().collect();
            for q in &targets {
                let mut mu = vec![0.0; q.n_choices()];
                let mut nonzero = CoordSet::new(mu.len());
                import(q, &warm.multipliers, &mut mu, &mut nonzero);
                let (want_mu, want_nonzero) = import_hashed(q, &map);
                assert_eq!(
                    mu.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                    want_mu.iter().map(|m| m.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(nonzero.words, want_nonzero.words);
                imports += usize::from(nonzero.len() > 0);
            }
        }
        assert!(
            repeats > 50 && imports > 60,
            "{repeats} lists with a repeated key, {imports} imports"
        );
    }

    #[test]
    fn flat_block_minimum_matches_the_nested_walk() {
        let mut rng = SmallRng::seed_from_u64(7);
        for p in kernel_problems() {
            let flat = Flat::new(&p);
            assert_eq!(flat.gamma.len(), p.n_choices());
            assert_eq!(flat.n_blocks(), p.blocks.len());
            for draw in 0..40 {
                let mu = match draw % 2 {
                    0 => random_mu(&mut rng, p.n_choices()),
                    _ => grid_mu(&mut rng, p.n_choices()),
                };
                let winners = Winners::new(&flat, &mu);
                let (mut want, mut got, mut kept) = (Vec::new(), Vec::new(), Vec::new());
                for (b, (block, start)) in p.blocks.iter().zip(block_starts(&p)).enumerate() {
                    let want_val = block_minimum(block, &mu, start, &mut want);
                    got.clear();
                    let got_val = flat.block_minimum(b, &mu, &mut got);
                    assert_eq!(got_val.to_bits(), want_val.to_bits(), "value of block {b}");
                    assert_eq!(got, want, "winning coordinates of block {b}");
                    kept.clear();
                    let kept_val = winners.block_minimum(&flat, b, &mut kept);
                    assert_eq!(kept_val.to_bits(), want_val.to_bits(), "winners' block {b}");
                    assert_eq!(kept, want, "winners' coordinates of block {b}");
                }
            }
        }
    }

    #[test]
    fn winners_follow_random_steps_like_a_fresh_scan() {
        // Each step moves a random subset of the multipliers, each once, in
        // ascending (as the solve does) or descending order; after its
        // rescan every slot's winner is the one a fresh scan finds, and
        // every block's minimum is the dense sweep's.
        let mut rng = SmallRng::seed_from_u64(17);
        let (mut rises, mut takeovers) = (0, 0);
        for p in kernel_problems() {
            let flat = Flat::new(&p);
            let n = p.n_choices();
            let mut mu = grid_mu(&mut rng, n);
            let mut winners = Winners::new(&flat, &mu);
            for step in 0..30 {
                let mut order: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
                if step % 2 == 1 {
                    order.reverse();
                }
                for ci in order {
                    let m =
                        if rng.gen_bool(0.7) { on_grid(&mut rng) } else { rng.gen_range(0.0..4.0) };
                    if m.to_bits() != mu[ci].to_bits() {
                        let before = winners.slot[flat.slot_of[ci] as usize].pos;
                        mu[ci] = m;
                        winners.moved(&flat, &mu, ci);
                        let after = winners.slot[flat.slot_of[ci] as usize].pos;
                        rises += usize::from(before == ci as u32 && after == RESCAN);
                        takeovers += usize::from(before != ci as u32 && after == ci as u32);
                    }
                }
                winners.rescan(&flat, &mu);
                assert_eq!(winner_bits(&winners.slot), winner_bits(&Winners::new(&flat, &mu).slot));
                let (mut want, mut got) = (Vec::new(), Vec::new());
                for b in 0..p.blocks.len() {
                    want.clear();
                    got.clear();
                    let want_val = flat.block_minimum(b, &mu, &mut want);
                    let got_val = winners.block_minimum(&flat, b, &mut got);
                    assert_eq!((got_val.to_bits(), &got), (want_val.to_bits(), &want), "block {b}");
                }
            }
        }
        assert!(rises > 1000 && takeovers > 500, "{rises} rises, {takeovers} takeovers");
    }

    #[test]
    fn winners_merge_by_the_scan_order() {
        // One alternative with a slot per merge rule, coordinates numbered
        // in slot order, and a second alternative whose one slot is empty.
        let slot = |fallback: Option<f64>, gamma: &[f64]| SlotChoices {
            fallback,
            choices: gamma.iter().map(|&g| (0, g)).collect(),
        };
        let p = BlockProblem {
            n_items: 1,
            item_cost: vec![0.0],
            item_size: vec![1.0],
            budget: None,
            blocks: vec![Block {
                alts: vec![
                    Alt {
                        base: 1.0,
                        slots: vec![
                            slot(Some(9.0), &[1.0, 2.0, 3.0]),  // A: coordinates 0..3
                            slot(Some(9.0), &[4.0, 3.0]),       // B: 3..5
                            slot(None, &[0.0, 1.0]),            // C: 5..7
                            slot(Some(3.0), &[1.0]),            // D: 7
                            slot(Some(10.0), &[1.0, 1.0, 1.0]), // E: 8..11
                            slot(None, &[-0.0, 0.0]),           // F: 11..13
                            slot(Some(-0.0), &[0.0]),           // G: 13
                        ],
                    },
                    Alt { base: 0.0, slots: vec![slot(None, &[])] }, // H
                ],
            }],
        };
        let flat = Flat::new(&p);
        let bits = |v: &[(f64, u32)]| -> Vec<(u64, u32)> {
            v.iter().map(|&(value, pos)| (value.to_bits(), pos)).collect()
        };
        let mut mu = vec![0.0, 0.0, 0.0, 2.0, 3.0, 3.0, 0.0, 4.0, 0.0, 2.0, 3.0, 1.0, 0.0, 1.0];
        let mut winners = Winners::new(&flat, &mu);
        let start = [
            (1.0, 0),
            (6.0, 3), // a tie, the lower coordinate first
            (1.0, 6),
            (3.0, NO_COORD),
            (1.0, 8),
            (0.0, 12),
            (-0.0, NO_COORD),
            (f64::INFINITY, EMPTY_SLOT),
        ];
        assert_eq!(winner_bits(&winners.slot), bits(&start));

        for (ci, m) in [
            (0, 5.0),   // A: the winner rises to 6, a rescan follows
            (3, 1.0),   // B: the winner falls to 5
            (5, 1.0),   // C: a coordinate ties the winner at a lower index
            (7, 2.0),   // D: a coordinate ties the fallback
            (8, 4.0),   // E: the winner rises ...
            (10, 0.0),  // ... and another coordinate falls, in one step
            (11, -0.0), // F: −0.0 + −0.0 ties +0.0 at a lower index
            (13, 0.0),  // G: +0.0 ties a −0.0 fallback
        ] {
            mu[ci] = m;
            winners.moved(&flat, &mu, ci);
        }
        assert_eq!(winners.marked, [0, 4], "the slots whose winner rose");
        winners.rescan(&flat, &mu);
        let end = [
            (2.0, 1),
            (5.0, 3),
            (1.0, 5),
            (3.0, NO_COORD),
            (1.0, 10),
            (-0.0, 11),
            (-0.0, NO_COORD),
            (f64::INFINITY, EMPTY_SLOT),
        ];
        assert_eq!(winner_bits(&winners.slot), bits(&end));
        assert_eq!(winner_bits(&winners.slot), winner_bits(&Winners::new(&flat, &mu).slot));

        let (mut want, mut got) = (Vec::new(), Vec::new());
        let want_val = flat.block_minimum(0, &mu, &mut want);
        let got_val = winners.block_minimum(&flat, 0, &mut got);
        assert_eq!((got_val.to_bits(), &got), (want_val.to_bits(), &want));
        assert_eq!(got, [1, 3, 5, 10, 11], "the winning coordinates, fallbacks left out");
    }

    #[test]
    fn flat_block_minimum_appends_behind_earlier_blocks() {
        // The loop hands every block the same vector: what earlier blocks
        // pushed stays, a losing alternative leaves nothing behind.
        let p = random_problem(3, 10, 25);
        let flat = Flat::new(&p);
        let mu = random_mu(&mut SmallRng::seed_from_u64(1), p.n_choices());
        let (mut all, mut one) = (Vec::new(), Vec::new());
        let mut expect = Vec::new();
        for b in 0..p.blocks.len() {
            flat.block_minimum(b, &mu, &mut all);
            one.clear();
            flat.block_minimum(b, &mu, &mut one);
            expect.extend_from_slice(&one);
        }
        assert_eq!(all, expect);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "winners come out ascending");
    }

    #[test]
    fn sparse_pricing_matches_evaluate() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (mut priced, mut uninstantiable) = (0, 0);
        for p in kernel_problems() {
            let flat = Flat::new(&p);
            let mut scratch = flat.fallback.clone();
            for _ in 0..30 {
                let sel = random_selection(&mut rng, p.n_items);
                let want = p.evaluate(&sel);
                let got = flat.evaluate(&p, &sel, &mut scratch);
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                match want {
                    Some(_) => priced += 1,
                    None => uninstantiable += 1,
                }
            }
        }
        assert!(priced > 100 && uninstantiable > 100, "{priced} priced, {uninstantiable} not");
    }

    #[test]
    fn flip_pricing_matches_block_cost_differences() {
        let mut rng = SmallRng::seed_from_u64(13);
        for p in kernel_problems() {
            let flat = Flat::new(&p);
            let reference = |b: usize, sel: &[bool]| p.block_cost(b, sel).unwrap_or(f64::INFINITY);
            let mut sel = random_selection(&mut rng, p.n_items);
            let mut minima = SlotMinima::new(&flat, &sel);
            for _ in 0..60 {
                if p.n_items == 0 {
                    break;
                }
                let a = rng.gen_range(0..p.n_items);
                let before: Vec<f64> = (0..p.blocks.len()).map(|b| reference(b, &sel)).collect();
                assert_eq!(minima.block_cost, before);
                sel[a] = !sel[a];
                if sel[a] {
                    minima.add(a);
                } else {
                    minima.remove(a, &sel);
                }
                // Every block is priced right under the open flip, and the
                // ones the item does not touch have not moved.
                for (b, before) in before.iter().enumerate() {
                    assert_eq!(minima.flipped_cost(b).to_bits(), reference(b, &sel).to_bits());
                    if !flat.blocks_of(a).any(|x| x == b) {
                        assert_eq!(reference(b, &sel).to_bits(), before.to_bits());
                    }
                }
                if rng.gen_bool(0.5) {
                    minima.commit(a);
                } else {
                    sel[a] = !sel[a];
                    minima.revert();
                }
                let fresh = SlotMinima::new(&flat, &sel);
                assert_eq!(winner_bits(&minima.slot_min), winner_bits(&fresh.slot_min));
                assert_eq!(minima.block_cost, fresh.block_cost);
            }
        }
    }

    #[test]
    fn sparse_iteration_matches_the_dense_sweep() {
        let budget = SolveBudget::within(1e-6).with_nodes(50);
        let solver = LagrangianSolver { budget, cancel: None };
        let mut solved = 0;
        for p in kernel_problems() {
            if p.evaluate(&vec![false; p.n_items]).is_none() {
                continue; // a block with no instantiable alternative
            }
            let (want, want_warm) = dense_solve(&p, budget);
            let (got, got_warm) = solver.solve_warm_with_progress(&p, None, |_, _| {});
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.objective.to_bits(), want.objective.to_bits());
            assert_eq!(got.bound.to_bits(), want.bound.to_bits());
            assert_eq!(got.selected, want.selected);
            let bits = |r: &LagrangeResult| -> Vec<[u64; 3]> {
                r.trace
                    .iter()
                    .map(|pt| [pt.incumbent, pt.bound, pt.gap].map(f64::to_bits))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(list_bits(&got_warm.multipliers), list_bits(&want_warm.multipliers));
            solved += usize::from(got.iterations == 50);
        }
        assert!(solved >= 10, "only {solved} inputs ran all 50 iterations");
    }

    #[test]
    fn the_empty_problem_solves() {
        let r = LagrangianSolver::new().solve(&BlockProblem::default());
        assert!(r.selected.is_empty());
        assert_eq!(r.objective, 0.0);
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
        let (r1, warm) = solver.solve_warm_with_progress(&p, None, |_, _| {});
        let (r2, _) = solver.solve_warm_with_progress(&p, Some(&warm), |_, _| {});
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
            let (r, _) =
                LagrangianSolver::new().solve_warm_with_progress(&fx.problem, None, |_, _| {});
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
        let flat = Flat::new(&p);
        for_each_key(&p, |ci, (b, _, _, item)| {
            assert!(flat.coords_of(item as usize).contains(&(ci as u32)));
            assert!(flat.blocks_of(item as usize).any(|x| x == b as usize));
        });
        for a in 0..p.n_items {
            assert!(flat.coords_of(a).windows(2).all(|w| w[0] < w[1]), "ascending, no repeats");
            assert!(flat.coords_of(a).iter().all(|&ci| flat.item_of[ci as usize] == a as u32));
            let blocks: Vec<usize> = flat.blocks_of(a).collect();
            assert!(blocks.windows(2).all(|w| w[0] < w[1]), "ascending, each block once");
        }
    }
}
