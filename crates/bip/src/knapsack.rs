//! Knapsack helpers.
//!
//! The storage-budget constraint `Σ size_a · z_a ≤ M` gives index-tuning BIPs
//! a knapsack core.  The Lagrangian `z`-subproblem is a *continuous* knapsack
//! (solvable greedily by ratio — a valid lower bound on the binary version),
//! and the primal heuristics need fast 0/1 repairs.

/// The part of a slice already in order, for a walk that usually stops after
/// a few elements: instead of sorting everything up front, the walk calls
/// [`OrderedPrefix::cover`] before it reads element `i`, and the prefix grows
/// one doubling chunk at a time — select the chunk's members, sort them.
/// Under a total order every element read is the one a full sort would have
/// put there.
pub(crate) struct OrderedPrefix {
    ordered: usize,
    chunk: usize,
}

impl OrderedPrefix {
    pub(crate) fn new(first_chunk: usize) -> OrderedPrefix {
        OrderedPrefix { ordered: 0, chunk: first_chunk }
    }

    /// Make `v[..=i]` final.  The walk reads `0, 1, 2, …`, so `i` is at most
    /// the first element past the prefix.
    #[inline]
    pub(crate) fn cover<T>(
        &mut self,
        v: &mut [T],
        i: usize,
        by: impl Fn(&T, &T) -> std::cmp::Ordering + Copy,
    ) {
        if i < self.ordered {
            return;
        }
        debug_assert_eq!(i, self.ordered);
        let rest = &mut v[self.ordered..];
        let n = self.chunk.min(rest.len());
        if n < rest.len() {
            rest.select_nth_unstable_by(n, by);
        }
        rest[..n].sort_unstable_by(by);
        self.ordered += n;
        self.chunk *= 2;
    }
}

/// Solve `min Σ cost_j · z_j  s.t.  Σ size_j · z_j ≤ budget, z ∈ [0,1]`.
///
/// Only items with negative cost are worth taking; they are taken greedily by
/// `cost/size` ratio (most negative per unit first, lowest index first among
/// equal ratios), fractionally at the end.  Writes the solution into `z`
/// (resized to the item count) and returns the objective.  `order` is
/// scratch: a caller that solves in a loop — the Lagrangian `z` subproblem,
/// once per subgradient iteration — keeps both buffers and allocates nothing.
pub fn continuous_min(
    cost: &[f64],
    size: &[f64],
    budget: f64,
    z: &mut Vec<f64>,
    order: &mut Vec<(f64, u32)>,
) -> f64 {
    debug_assert_eq!(cost.len(), size.len());
    z.clear();
    z.resize(cost.len(), 0.0);
    order.clear();
    let mut obj = 0.0;
    for (j, (&c, &s)) in cost.iter().zip(size).enumerate() {
        if c < 0.0 {
            if s <= 0.0 {
                // Zero-size bargains are free.
                z[j] = 1.0;
                obj += c;
            } else if s > 0.0 {
                // (a NaN size is neither free nor a candidate)
                order.push((c / s, j as u32));
            }
        }
    }
    // The budget usually runs out long before the candidates do, so they are
    // put in `(ratio, index)` order — the order a stable sort by ratio gives
    // — one doubling chunk at a time.
    let by_ratio = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut remaining = budget;
    let mut prefix = OrderedPrefix::new(32);
    for i in 0..order.len() {
        if remaining <= 0.0 {
            break;
        }
        prefix.cover(order, i, by_ratio);
        let j = order[i].1 as usize;
        let take = (remaining / size[j]).min(1.0);
        z[j] = take;
        obj += cost[j] * take;
        remaining -= size[j] * take;
    }
    obj
}

/// Greedy covering: pick items by cost-per-unit-gain (ascending, so
/// objective-improving flips go first) until the accumulated gain covers
/// `need`.  Items are `(cost, gain)` pairs with `gain > 0` (non-positive
/// gains are ignored).  Returns indices into `items`, or `None` when even
/// taking everything falls short.
///
/// This is the selection core shared by the budget repairs below and by the
/// branch-and-bound rounding heuristic's row repair (violated AT-MOST /
/// storage rows are exactly a covering knapsack over candidate flips).
pub(crate) fn greedy_cover(need: f64, items: &[(f64, f64)]) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..items.len()).filter(|&i| items[i].1 > 0.0).collect();
    let total: f64 = order.iter().map(|&i| items[i].1).sum();
    if total + 1e-9 < need {
        return None;
    }
    order.sort_by(|&a, &b| {
        let ra = items[a].0 / items[a].1;
        let rb = items[b].0 / items[b].1;
        ra.total_cmp(&rb)
    });
    let mut out = Vec::new();
    let mut got = 0.0;
    for i in order {
        if got + 1e-9 >= need {
            break;
        }
        out.push(i);
        got += items[i].1;
    }
    if got + 1e-9 >= need {
        Some(out)
    } else {
        None
    }
}

/// Drop items (largest size first among the worst ratios) until the selection
/// fits the budget.  Used to repair heuristic solutions.
pub(crate) fn repair_to_budget(selected: &mut [bool], value: &[f64], size: &[f64], budget: f64) {
    let mut used: f64 = (0..selected.len()).filter(|&j| selected[j]).map(|j| size[j]).sum();
    while used > budget {
        // Drop the selected item with the worst value-per-size.
        let worst =
            (0..selected.len()).filter(|&j| selected[j] && size[j] > 0.0).min_by(|&a, &b| {
                let ra = value[a] / size[a];
                let rb = value[b] / size[b];
                ra.total_cmp(&rb)
            });
        match worst {
            Some(j) => {
                selected[j] = false;
                used -= size[j];
            }
            None => break, // only zero-size items left; budget must be < 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`continuous_min`] into fresh buffers: `(objective, z)`.
    fn continuous(cost: &[f64], size: &[f64], budget: f64) -> (f64, Vec<f64>) {
        let mut z = Vec::new();
        let obj = continuous_min(cost, size, budget, &mut z, &mut Vec::new());
        (obj, z)
    }

    #[test]
    fn continuous_takes_best_ratio_first() {
        // item 0: cost −10 size 5 (ratio −2); item 1: cost −6 size 2 (−3).
        let (obj, z) = continuous(&[-10.0, -6.0], &[5.0, 2.0], 4.0);
        assert_eq!(z[1], 1.0);
        assert!((z[0] - 0.4).abs() < 1e-9);
        assert!((obj - (-6.0 - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn continuous_ignores_positive_cost() {
        let (obj, z) = continuous(&[3.0, -1.0], &[1.0, 1.0], 10.0);
        assert_eq!(z[0], 0.0);
        assert_eq!(z[1], 1.0);
        assert_eq!(obj, -1.0);
    }

    #[test]
    fn continuous_zero_budget() {
        let (obj, z) = continuous(&[-5.0], &[2.0], 0.0);
        assert_eq!(obj, 0.0);
        assert_eq!(z[0], 0.0);
    }

    #[test]
    fn continuous_bound_dominates_binary() {
        // LP knapsack optimum ≤ the best 0/1 selection (both minimizing) —
        // the inequality that makes the Lagrangian `z` subproblem a bound.
        let cost = [-7.0, -4.0, -9.0, -2.0, -5.0];
        let size = [3.0, 2.0, 5.0, 1.0, 4.0];
        for budget in [0.0, 2.5, 5.0, 8.0, 100.0] {
            let (c_obj, _) = continuous(&cost, &size, budget);
            let mut b_obj = f64::INFINITY;
            for mask in 0..1u32 << cost.len() {
                let chosen = || (0..cost.len()).filter(move |j| mask >> j & 1 == 1);
                if chosen().map(|j| size[j]).sum::<f64>() <= budget {
                    b_obj = b_obj.min(chosen().map(|j| cost[j]).sum());
                }
            }
            assert!(c_obj <= b_obj + 1e-9, "budget {budget}: {c_obj} > {b_obj}");
        }
    }

    #[test]
    fn chunked_ordering_is_the_stable_sort_by_ratio() {
        // The textbook routine: sort every candidate by ratio, stably, then
        // fill.  Ratios repeat (costs and sizes are drawn from few values),
        // and budgets run from "first chunk suffices" to "takes everything".
        fn by_full_sort(cost: &[f64], size: &[f64], budget: f64) -> (f64, Vec<f64>) {
            let mut z = vec![0.0; cost.len()];
            let mut order: Vec<usize> = (0..cost.len()).filter(|&j| cost[j] < 0.0).collect();
            let mut obj = 0.0;
            let mut remaining = budget;
            for &j in &order {
                if size[j] <= 0.0 {
                    z[j] = 1.0;
                    obj += cost[j];
                }
            }
            order.retain(|&j| size[j] > 0.0);
            order.sort_by(|&a, &b| (cost[a] / size[a]).total_cmp(&(cost[b] / size[b])));
            for j in order {
                if remaining <= 0.0 {
                    break;
                }
                let take = (remaining / size[j]).min(1.0);
                z[j] = take;
                obj += cost[j] * take;
                remaining -= size[j] * take;
            }
            (obj, z)
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let (mut z, mut order) = (Vec::new(), Vec::new());
        for n in [0, 1, 31, 32, 33, 100, 500] {
            let cost: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(-6..3))).collect();
            let size: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..5))).collect();
            for budget in [0.0, 7.5, 40.0, 333.0, 1e9] {
                let (want_obj, want_z) = by_full_sort(&cost, &size, budget);
                let obj = continuous_min(&cost, &size, budget, &mut z, &mut order);
                assert_eq!(obj.to_bits(), want_obj.to_bits(), "n {n} budget {budget}");
                assert_eq!(z, want_z, "n {n} budget {budget}");
            }
        }
    }

    #[test]
    fn buffers_are_reused_across_calls() {
        // A second solve into the same buffers sees nothing of the first.
        let (mut z, mut order) = (Vec::new(), Vec::new());
        continuous_min(&[-1.0, -2.0, -3.0], &[1.0, 1.0, 1.0], 3.0, &mut z, &mut order);
        assert_eq!(z, [1.0, 1.0, 1.0]);
        let obj = continuous_min(&[-4.0, 1.0], &[2.0, 1.0], 1.0, &mut z, &mut order);
        assert_eq!(z, [0.5, 0.0]);
        assert_eq!(obj, -2.0);
    }

    #[test]
    fn equal_ratios_are_taken_lowest_index_first() {
        // Three items of ratio −1; the budget covers one and a half.
        let (obj, z) = continuous(&[-2.0, -2.0, -2.0], &[2.0, 2.0, 2.0], 3.0);
        assert_eq!(z, [1.0, 0.5, 0.0]);
        assert_eq!(obj, -3.0);
    }

    #[test]
    fn repair_enforces_budget() {
        let value = [10.0, 3.0, 8.0];
        let size = [5.0, 5.0, 5.0];
        let mut sel = [true, true, true];
        repair_to_budget(&mut sel, &value, &size, 10.0);
        let used: f64 = (0..3).filter(|&j| sel[j]).map(|j| size[j]).sum();
        assert!(used <= 10.0);
        // the low-value item goes first
        assert!(!sel[1]);
        assert!(sel[0] && sel[2]);
    }

    #[test]
    fn greedy_cover_prefers_cheap_ratios() {
        // Covering 3 units: item 1 has the best cost/gain ratio, item 0 the
        // next; item 2 is never needed.
        let items = [(4.0, 2.0), (1.0, 2.0), (9.0, 1.0)];
        let chosen = greedy_cover(3.0, &items).unwrap();
        assert_eq!(chosen, vec![1, 0]);
        // Improving (negative-cost) flips always go first.
        let improving = [(5.0, 1.0), (-2.0, 1.0)];
        assert_eq!(greedy_cover(1.0, &improving).unwrap(), vec![1]);
        // Short supply is reported, not silently mangled.
        assert!(greedy_cover(10.0, &items).is_none());
        // Nothing needed → nothing chosen.
        assert!(greedy_cover(0.0, &items).unwrap().is_empty());
    }

    #[test]
    fn zero_size_items_always_taken() {
        let (obj, z) = continuous(&[-5.0, -1.0], &[0.0, 1.0], 0.0);
        assert_eq!(z[0], 1.0);
        assert_eq!(z[1], 0.0);
        assert_eq!(obj, -5.0);
    }
}
