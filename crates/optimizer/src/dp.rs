//! Selinger-style dynamic-programming plan enumeration with interesting
//! orders, priced without building plans.
//!
//! For every connected subset of the query's tables the DP keeps a small
//! pareto set of sub-plans — the cheapest plan per *useful* delivered order.
//! An order is useful when it is a step toward satisfying one of the query's
//! order requirements: the ORDER BY list, the GROUP BY list (stream
//! aggregation) or a join column (merge join).  This is precisely the plan
//! space INUM's template plans quotient: one template per combination of
//! exploited interesting orders.
//!
//! # Candidate records, back-pointers, one materialization
//!
//! A what-if probe prices thousands of join candidates and returns one plan,
//! so the enumeration never holds a plan tree.  A candidate is a `Cand`:
//! cost, rows, the id of its delivered order, and an `Op` that names its
//! inputs by *reference* — an access path by `(table, index into that
//! table's path list)`, a join by the arena ids of the two kept candidates
//! it combines plus, for a merge join, the order each side is first sorted
//! to.  The kept candidates of all table subsets live in one arena
//! (`Memo::arena`); a subset's pareto set is a range of it.  Orders are
//! interned per query (`Orders`): the handful of useful ones get small
//! ids, so a candidate is `Copy` and pricing one allocates nothing.
//! Everything that does not depend on the pair being priced is computed
//! before the pair loop: each join edge's table bits, selectivity and merge
//! orders once per query, a split's crossing edges and residual-filter cost
//! once per split.  A subset's candidates are never collected: each is
//! offered to a `Front` of one slot per order as it is priced, and only the
//! slots' survivors are pruned (see "Bit identity").  Once the join edges
//! are interned no new order appears, so whether one order satisfies
//! another is a lookup in a per-query table (`Satisfies`).
//!
//! `finalize` prices aggregation and the final sort the same way, as up to
//! three `Wrap` records stacked on a joined candidate, and only the
//! winner is turned into a [`SubPlan`] tree, by `Memo::materialize`
//! following the back-pointers.
//!
//! # Bit identity
//!
//! Every layer above consumes these costs as exact floats: INUM's β, the BIP
//! coefficients, the recorded traces.  The kernel therefore keeps three
//! things fixed: each cost is produced by the same float operations in the
//! same order (a hoisted sub-expression is only ever a whole call of a pure
//! [`CostModel`] function, never a re-associated sum); candidates are
//! offered in the same order (splits by descending sub-mask, left × right in
//! pareto order, hash / nested-loop / merge per pair); and `finalize` takes
//! the first cheapest plan.  `crates/integration/tests/probe_digest.rs` pins
//! the answers and the full plans.
//!
//! The pareto set a subset keeps is defined by a prune over *all* its
//! candidates in the total order (cost by `total_cmp`, then offer order): a
//! candidate is kept unless a kept one at most as expensive delivers an
//! order extending its own.  Only the first cheapest candidate `m` of each
//! order `o` can be kept, so the front holds just that one.  Take any later
//! candidate `p` of order `o`:
//!
//! - if `m` is kept, it dominates `p`: `m.cost ≤ p.cost`, and `o` extends
//!   `o`;
//! - if `m` is dominated by a kept `k`, then `k.cost ≤ m.cost ≤ p.cost` and
//!   `k`'s order extends `o`, so `k` dominates `p` too.
//!
//! Whether a survivor is kept depends only on the kept candidates before it,
//! all of them survivors, so pruning the survivors in the same order keeps
//! the same candidates in the same arena order.  The argument needs costs
//! that are not NaN: the prune over all candidates keeps every NaN candidate
//! of an order (`NaN <= x` is false), the front one.  `Front::offer`
//! asserts it in debug builds, and a test checks that the probes of all
//! three workload generators cost finitely.  The stable-sort prune over all
//! candidates is kept as the test oracle of the front.

use std::ops::Range;

use cophy_catalog::{ColumnRef, Configuration, Schema};
use cophy_workload::Query;

use crate::access::{self, AccessPath};
use crate::cardinality;
use crate::cost::CostModel;
use crate::ordering::{EquivClasses, Ordering};
use crate::plan::{PhysicalPlan, PlanNode, SubPlan};

/// Maximum number of table references the DP supports (bitmask width; the
/// workloads top out at six).  [`Query::validate`] enforces it.
pub(crate) const MAX_TABLES: usize = cophy_workload::MAX_TABLES;

/// Id of an interned order; [`Orders::NONE`] is "no order".
type OrderId = u32;

/// Index of a kept candidate in [`Memo::arena`].
type CandId = u32;

/// The distinct delivered orders of one query's candidates.
struct Orders(Vec<Ordering>);

impl Orders {
    const NONE: OrderId = 0;

    fn new() -> Self {
        Orders(vec![Ordering::none()])
    }

    fn intern(&mut self, cols: &[ColumnRef]) -> OrderId {
        let id = self.0.iter().position(|o| o.0 == cols).unwrap_or_else(|| {
            self.0.push(Ordering(cols.to_vec()));
            self.0.len() - 1
        });
        id as OrderId
    }

    fn get(&self, id: OrderId) -> &Ordering {
        &self.0[id as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum JoinKind {
    Hash,
    NestLoop,
    Merge,
}

/// What a candidate does, with its inputs named by reference.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Leaf: `Memo::paths[table][path]`.
    Access { table: u32, path: u32 },
    /// Join of two kept candidates.  `sort_left` / `sort_right` is the order
    /// that side is explicitly sorted to first (merge joins only).
    Join {
        kind: JoinKind,
        left: CandId,
        right: CandId,
        sort_left: Option<OrderId>,
        sort_right: Option<OrderId>,
    },
}

/// One priced sub-plan.
#[derive(Clone, Copy)]
struct Cand {
    /// Cumulative cost including all inputs.
    cost: f64,
    rows: f64,
    /// Delivered order.
    order: OrderId,
    op: Op,
}

/// One equi-join edge, resolved against the query's table list.
struct Edge {
    /// Bit of the left / right column's table.
    left_bit: usize,
    right_bit: usize,
    /// `Ordering::single` of the left / right column: what a merge join on
    /// this edge needs from the side holding that column.
    left_req: OrderId,
    right_req: OrderId,
    selectivity: f64,
}

impl Edge {
    fn crosses(&self, l: usize, r: usize) -> bool {
        (l & self.left_bit != 0 && r & self.right_bit != 0)
            || (l & self.right_bit != 0 && r & self.left_bit != 0)
    }
}

/// The DP's memory: what [`Memo::materialize`] needs to turn a candidate
/// back into a plan tree.
struct Memo<'a> {
    cm: &'a CostModel,
    /// Pruned access paths per table, in `q.tables` order.
    paths: Vec<Vec<AccessPath>>,
    orders: Orders,
    /// Kept candidates of every table subset, subset after subset.
    arena: Vec<Cand>,
}

/// Optimize `q` under configuration `config`.
///
/// `q` must pass [`Query::validate`], which bounds the table count by
/// [`MAX_TABLES`] and guarantees a connected join graph; the DP panics on a
/// query that does not.
pub(crate) fn optimize(
    schema: &Schema,
    cm: &CostModel,
    q: &Query,
    config: &Configuration,
) -> PhysicalPlan {
    debug_assert!(q.validate().is_ok(), "{:?}", q.validate());
    let n = q.tables.len();
    assert!((1..=MAX_TABLES).contains(&n), "query must reference 1..={MAX_TABLES} tables");

    let ec = EquivClasses::of_query(q);
    let requirements = collect_requirements(q);
    let mut memo = Memo { cm, paths: Vec::with_capacity(n), orders: Orders::new(), arena: vec![] };
    // Reused by every subset: the survivors of the candidates priced for it.
    let mut front = Front::default();
    // `kept[mask]`: the subset's pareto set, as a range of the arena.
    let mut kept: Vec<Range<usize>> = vec![0..0; 1usize << n];

    // Per-table access paths as single-table candidates.
    let mut base_rows = vec![0.0f64; n];
    for (i, &t) in q.tables.iter().enumerate() {
        base_rows[i] = cardinality::access_rows(schema, q, t);
        let paths = access::enumerate(schema, cm, q, t, config);
        for (pi, p) in paths.iter().enumerate() {
            let useful = useful_prefix(&p.order, &requirements, &ec);
            front.offer(Cand {
                cost: p.cost,
                rows: p.rows,
                order: memo.orders.intern(&p.order.0[..useful]),
                op: Op::Access { table: i as u32, path: pi as u32 },
            });
        }
        memo.paths.push(paths);
        kept[1 << i] = front.drain_into(&memo.orders, &mut memo.arena);
    }

    // Join edges resolved against the table list, once per query.
    let table_pos = |c: ColumnRef| q.tables.iter().position(|t| *t == c.table);
    let edges: Vec<Edge> = q
        .joins
        .iter()
        .filter_map(|j| {
            let (li, ri) = (table_pos(j.left)?, table_pos(j.right)?);
            Some(Edge {
                left_bit: 1 << li,
                right_bit: 1 << ri,
                left_req: memo.orders.intern(&[j.left]),
                right_req: memo.orders.intern(&[j.right]),
                selectivity: cardinality::join_selectivity(schema, j, base_rows[li], base_rows[ri]),
            })
        })
        .collect();
    // Every order is interned by now.
    let mut sat = Satisfies::new(&ec, &memo.orders);

    // Subset cardinality: base rows times the selectivity of every edge
    // inside the subset.
    let rows_of = |mask: usize| -> f64 {
        let mut rows = 1.0;
        for (i, br) in base_rows.iter().enumerate() {
            if mask & (1 << i) != 0 {
                rows *= br;
            }
        }
        let mut sel = 1.0;
        for e in &edges {
            if mask & e.left_bit != 0 && mask & e.right_bit != 0 {
                sel *= e.selectivity;
            }
        }
        (rows * sel).max(1.0)
    };

    // Join enumeration over connected splits.
    let full = (1usize << n) - 1;
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let out_rows = rows_of(mask);
        // Enumerate proper submask splits.
        let mut l = (mask - 1) & mask;
        while l != 0 {
            let r = mask ^ l;
            if !kept[l].is_empty() && !kept[r].is_empty() {
                let mut crossing = edges.iter().filter(|e| e.crosses(l, r));
                if let Some(edge) = crossing.next() {
                    let split = Split::new(cm, edge, l, crossing.count(), out_rows);
                    for li in kept[l].clone() {
                        for ri in kept[r].clone() {
                            split.price_pair(&memo, &mut sat, li, ri, &mut front);
                        }
                    }
                }
            }
            l = (l - 1) & mask;
        }
        kept[mask] = front.drain_into(&memo.orders, &mut memo.arena);
    }

    let joined = kept[full].clone();
    assert!(!joined.is_empty(), "no plan found for a validated query: {q:?}");

    finalize(schema, q, &ec, &memo, joined)
}

/// All order requirements of the query (for normalization).
fn collect_requirements(q: &Query) -> Vec<Ordering> {
    let mut reqs: Vec<Ordering> = Vec::new();
    if !q.order_by.is_empty() {
        reqs.push(Ordering(q.order_by.clone()));
    }
    if !q.group_by.is_empty() {
        reqs.push(Ordering(q.group_by.clone()));
    }
    for j in &q.joins {
        reqs.push(Ordering::single(j.left));
        reqs.push(Ordering::single(j.right));
    }
    reqs
}

/// Length of the longest prefix of `order` that fully satisfies some
/// requirement.  Candidates deliver only that prefix: unusable orders become
/// "none", collapsing the DP state.
fn useful_prefix(order: &Ordering, reqs: &[Ordering], ec: &EquivClasses) -> usize {
    let mut useful = 0;
    for r in reqs {
        if r.0.len() > useful && ec.satisfies(order, r) {
            useful = r.0.len();
        }
    }
    useful
}

/// The pareto set of one table subset while its candidates are priced: one
/// slot per interned order, holding the first cheapest candidate offered
/// with that order (see "Bit identity" for why no other can survive).
/// Reused by every subset; nothing is allocated once the slots have grown to
/// the query's order count.
#[derive(Default)]
struct Front {
    /// `slots[order]`: the slot's candidate and its offer number.
    slots: Vec<Option<(u32, Cand)>>,
    /// The orders whose slot is filled.
    filled: Vec<OrderId>,
    /// Candidates offered since the last drain.
    offers: u32,
}

impl Front {
    /// Offer the next priced candidate: it takes its order's slot if that is
    /// empty or holds a candidate strictly more expensive by `total_cmp`.
    fn offer(&mut self, c: Cand) {
        debug_assert!(!c.cost.is_nan(), "the front is exact for non-NaN costs only");
        let seq = self.offers;
        self.offers += 1;
        let i = c.order as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        match &mut self.slots[i] {
            Some((_, m)) if c.cost.total_cmp(&m.cost).is_ge() => {}
            slot => {
                if slot.is_none() {
                    self.filled.push(c.order);
                }
                *slot = Some((seq, c));
            }
        }
    }

    /// Pareto prune the survivors onto the end of the arena, empty the front
    /// and return the range they occupy: in `(cost, offer)` order, a
    /// candidate is kept unless a kept one at most as expensive delivers an
    /// order extending its own.
    fn drain_into(&mut self, orders: &Orders, arena: &mut Vec<Cand>) -> Range<usize> {
        let slots = &mut self.slots;
        let slot = |o: OrderId| slots[o as usize].expect("a filled slot");
        self.filled.sort_unstable_by(|&a, &b| {
            let ((sa, a), (sb, b)) = (slot(a), slot(b));
            a.cost.total_cmp(&b.cost).then(sa.cmp(&sb))
        });
        let start = arena.len();
        for &o in &self.filled {
            let (_, p) = slots[o as usize].take().expect("a filled slot");
            let order = &orders.get(p.order).0;
            let dominated = arena[start..]
                .iter()
                .any(|k| k.cost <= p.cost && orders.get(k.order).0.starts_with(order));
            if !dominated {
                arena.push(p);
            }
        }
        self.filled.clear();
        self.offers = 0;
        start..arena.len()
    }
}

/// [`EquivClasses::satisfies`] over the interned orders of one query, each
/// pair computed on first use.  Built once the join edges are interned,
/// after which no new order appears.
struct Satisfies<'a> {
    ec: &'a EquivClasses,
    orders: &'a Orders,
    /// `cells[delivered * n + required]`, `None` until asked.
    cells: Vec<Option<bool>>,
}

impl<'a> Satisfies<'a> {
    fn new(ec: &'a EquivClasses, orders: &'a Orders) -> Self {
        let n = orders.0.len();
        Satisfies { ec, orders, cells: vec![None; n * n] }
    }

    /// Does order `delivered` satisfy order `required`?
    fn get(&mut self, delivered: OrderId, required: OrderId) -> bool {
        let (ec, orders) = (self.ec, self.orders);
        let cell = &mut self.cells[delivered as usize * orders.0.len() + required as usize];
        *cell.get_or_insert_with(|| ec.satisfies(orders.get(delivered), orders.get(required)))
    }
}

/// Cost of `input_cost` plus an explicit sort of `rows` rows.
fn sorted(cm: &CostModel, input_cost: f64, rows: f64) -> f64 {
    input_cost + cm.sort(rows)
}

/// One (left subset, right subset) split of a table subset: everything the
/// candidates of its sub-plan pairs have in common.
struct Split {
    out_rows: f64,
    /// Cost of filtering the output on the crossing edges beyond the first.
    residual_filter: f64,
    /// Merge-join order of the left / right side: the first crossing edge's
    /// column on that side.
    left_req: OrderId,
    right_req: OrderId,
}

impl Split {
    /// `edge` is the first edge crossing the split, `residual` the number of
    /// further ones, `l` the left subset.
    fn new(cm: &CostModel, edge: &Edge, l: usize, residual: usize, out_rows: f64) -> Self {
        let (left_req, right_req) = if l & edge.left_bit != 0 {
            (edge.left_req, edge.right_req)
        } else {
            (edge.right_req, edge.left_req)
        };
        Split { out_rows, residual_filter: cm.filter(out_rows, residual), left_req, right_req }
    }

    /// Emit the hash / nested-loop / merge join candidates for one (left,
    /// right) pair of kept candidates.
    fn price_pair(
        &self,
        memo: &Memo,
        sat: &mut Satisfies,
        left: usize,
        right: usize,
        front: &mut Front,
    ) {
        let (cm, out_rows) = (memo.cm, self.out_rows);
        let (pl, pr) = (memo.arena[left], memo.arena[right]);
        let join = |kind, sort_left, sort_right| Op::Join {
            kind,
            left: left as CandId,
            right: right as CandId,
            sort_left,
            sort_right,
        };

        // Hash join: build on left, probe right (the split enumeration covers
        // the mirrored pair).
        front.offer(Cand {
            cost: pl.cost
                + pr.cost
                + cm.hash_join(pl.rows, pr.rows, out_rows)
                + self.residual_filter,
            rows: out_rows,
            order: Orders::NONE,
            op: join(JoinKind::Hash, None, None),
        });

        // Block nested-loop join: preserves outer order; only plausible for
        // tiny inputs but the cost model prices that in.
        front.offer(Cand {
            cost: pl.cost + pr.cost + cm.nl_join(pl.rows, pr.rows, out_rows) + self.residual_filter,
            rows: out_rows,
            order: pl.order,
            op: join(JoinKind::NestLoop, None, None),
        });

        // Merge join on the first crossing edge; sorts inserted as needed.
        // It delivers the left merge order, which is itself a requirement
        // and so already its own useful prefix.
        let mut needs_sort = |p: &Cand, req: OrderId| (!sat.get(p.order, req)).then_some(req);
        let sort_left = needs_sort(&pl, self.left_req);
        let sort_right = needs_sort(&pr, self.right_req);
        let side_cost = |p: &Cand, sort: Option<OrderId>| match sort {
            Some(_) => sorted(cm, p.cost, p.rows),
            None => p.cost,
        };
        front.offer(Cand {
            cost: side_cost(&pl, sort_left)
                + side_cost(&pr, sort_right)
                + cm.merge_join(pl.rows, pr.rows, out_rows)
                + self.residual_filter,
            rows: out_rows,
            order: self.left_req,
            op: join(JoinKind::Merge, sort_left, sort_right),
        });
    }
}

impl Memo<'_> {
    /// Rebuild the plan tree of a kept candidate from its back-pointers.
    fn materialize(&self, id: CandId) -> SubPlan {
        let c = self.arena[id as usize];
        let op = match c.op {
            Op::Access { table, path } => {
                PlanNode::Access(self.paths[table as usize][path as usize].clone())
            }
            Op::Join { kind, left, right, sort_left, sort_right } => {
                let l = Box::new(self.input(left, sort_left));
                let r = Box::new(self.input(right, sort_right));
                match kind {
                    JoinKind::Hash => PlanNode::HashJoin(l, r),
                    JoinKind::NestLoop => PlanNode::NestLoopJoin(l, r),
                    JoinKind::Merge => PlanNode::MergeJoin(l, r),
                }
            }
        };
        SubPlan { op, cost: c.cost, rows: c.rows, order: self.orders.get(c.order).clone() }
    }

    /// A join input: the candidate, wrapped in an explicit sort if the join
    /// asked for one.
    fn input(&self, id: CandId, sort_to: Option<OrderId>) -> SubPlan {
        let plan = self.materialize(id);
        match sort_to {
            None => plan,
            Some(order) => SubPlan {
                cost: sorted(self.cm, plan.cost, plan.rows),
                rows: plan.rows,
                order: self.orders.get(order).clone(),
                op: PlanNode::Sort(Box::new(plan)),
            },
        }
    }
}

/// An operator [`finalize`] stacks on a joined candidate.
#[derive(Clone, Copy)]
enum WrapKind {
    Sort,
    HashAgg,
    StreamAgg,
}

#[derive(Clone, Copy)]
struct Wrap<'a> {
    kind: WrapKind,
    /// Cumulative cost including the input.
    cost: f64,
    rows: f64,
    order: &'a Ordering,
}

/// A joined candidate under its aggregation and sort operators, innermost
/// first: at most sort → stream aggregate → sort.
#[derive(Clone, Copy)]
struct Finished<'a> {
    input: CandId,
    wraps: [Option<Wrap<'a>>; 3],
    /// Cost, rows and delivered order of the outermost operator.
    cost: f64,
    rows: f64,
    order: &'a Ordering,
}

impl<'a> Finished<'a> {
    fn wrap(mut self, kind: WrapKind, cost: f64, rows: f64, order: &'a Ordering) -> Self {
        let slot = self.wraps.iter().position(Option::is_none).expect("at most three wraps");
        self.wraps[slot] = Some(Wrap { kind, cost, rows, order });
        Finished { cost, rows, order, ..self }
    }
}

/// Apply aggregation and final ordering to every fully joined candidate,
/// pick the global winner and materialize it.
fn finalize(
    schema: &Schema,
    q: &Query,
    ec: &EquivClasses,
    memo: &Memo,
    joined: Range<usize>,
) -> PhysicalPlan {
    let cm = memo.cm;
    let has_agg = !q.aggregates.is_empty() || !q.group_by.is_empty();
    let no_order = Ordering::none();
    let group_req = Ordering(q.group_by.clone());
    let order_req = Ordering(q.order_by.clone());
    let n_aggs = q.aggregates.len().max(1);

    // The first cheapest finished plan wins.
    let mut winner: Option<Finished> = None;
    for id in joined {
        let p = memo.arena[id];
        let bare = Finished {
            input: id as CandId,
            wraps: [None; 3],
            cost: p.cost,
            rows: p.rows,
            order: memo.orders.get(p.order),
        };
        let posts = if !has_agg {
            [Some(bare), None]
        } else if q.group_by.is_empty() {
            // Scalar aggregate: single streaming pass, no order needed.
            let cost = p.cost + cm.stream_agg(p.rows, 1.0, n_aggs);
            [Some(bare.wrap(WrapKind::StreamAgg, cost, 1.0, &no_order)), None]
        } else {
            let groups = cardinality::group_rows(schema, &q.group_by, p.rows);
            // Hash aggregation.
            let hcost = p.cost + cm.hash_agg(p.rows, groups, n_aggs);
            // Stream aggregation over (possibly sorted) input.
            let input = if ec.satisfies(bare.order, &group_req) {
                bare
            } else {
                bare.wrap(WrapKind::Sort, sorted(cm, p.cost, p.rows), p.rows, &group_req)
            };
            let scost = input.cost + cm.stream_agg(input.rows, groups, n_aggs);
            [
                Some(bare.wrap(WrapKind::HashAgg, hcost, groups, &no_order)),
                Some(input.wrap(WrapKind::StreamAgg, scost, groups, &group_req)),
            ]
        };
        for post in posts.into_iter().flatten() {
            let done = if order_req.is_none() || ec.satisfies(post.order, &order_req) {
                post
            } else {
                post.wrap(WrapKind::Sort, sorted(cm, post.cost, post.rows), post.rows, &order_req)
            };
            if winner.as_ref().is_none_or(|w| done.cost.total_cmp(&w.cost).is_lt()) {
                winner = Some(done);
            }
        }
    }

    let winner = winner.expect("at least one finished plan");
    let mut root = memo.materialize(winner.input);
    for wrap in winner.wraps.into_iter().flatten() {
        let input = Box::new(root);
        root = SubPlan {
            cost: wrap.cost,
            rows: wrap.rows,
            order: wrap.order.clone(),
            op: match wrap.kind {
                WrapKind::Sort => PlanNode::Sort(input),
                WrapKind::HashAgg => PlanNode::HashAgg(input),
                WrapKind::StreamAgg => PlanNode::StreamAgg(input),
            },
        };
    }
    PhysicalPlan::finish(root, &order_req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SystemProfile;
    use cophy_catalog::{ColumnId, Index, TableId, TpchGen};
    use cophy_workload::{HetGen, HomGen, Predicate, UpdateGen};

    fn setup() -> (Schema, CostModel) {
        (TpchGen::default().schema(), CostModel::profile(SystemProfile::A))
    }

    /// The prune the front replaced, kept as its oracle: every candidate,
    /// stable-sorted on cost so equal costs keep their push order.
    fn prune_into(candidates: &mut [Cand], orders: &Orders, arena: &mut Vec<Cand>) -> Range<usize> {
        candidates.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let start = arena.len();
        for p in candidates.iter() {
            let order = &orders.get(p.order).0;
            let dominated = arena[start..]
                .iter()
                .any(|k| k.cost <= p.cost && orders.get(k.order).0.starts_with(order));
            if !dominated {
                arena.push(*p);
            }
        }
        start..arena.len()
    }

    /// SplitMix64: a seeded stream for the randomized oracles.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// 1–12 distinct orders over four columns, many of them prefixes of
    /// others: the empty order, random lists, and prefixes of those.
    fn random_orders(rng: &mut Rng) -> Orders {
        let col = |c: usize| ColumnRef::new(TableId(0), ColumnId(c as u32));
        let mut orders = Orders::new();
        let target = 1 + rng.below(12);
        while orders.0.len() < target {
            let cols: Vec<ColumnRef> = if orders.0.len() > 1 && rng.below(2) == 0 {
                let base = &orders.0[1 + rng.below(orders.0.len() - 1)].0;
                base[..rng.below(base.len() + 1)].to_vec()
            } else {
                (0..1 + rng.below(4)).map(|_| col(rng.below(4))).collect()
            };
            orders.intern(&cols);
        }
        orders
    }

    #[test]
    fn front_reproduces_the_stable_sort_prune_bit_for_bit() {
        // A few costs, so that ties are the common case; both zeros and +∞.
        const COSTS: [f64; 7] = [0.0, -0.0, 1.0, 2.5, 2.5e6, 7.0, f64::INFINITY];
        let mut rng = Rng(0x5eed);
        let mut front = Front::default();
        let (mut offered, mut kept, mut tied) = (0, 0, 0);
        for stream in 0..2_500 {
            let orders = random_orders(&mut rng);
            let n = if stream % 10 == 0 { rng.below(4) } else { rng.below(401) };
            let mut candidates: Vec<Cand> = (0..n)
                .map(|i| Cand {
                    cost: COSTS[rng.below(COSTS.len())],
                    rows: rng.below(1_000) as f64,
                    order: rng.below(orders.0.len()) as OrderId,
                    op: Op::Access { table: 0, path: i as u32 },
                })
                .collect();
            for &c in &candidates {
                front.offer(c);
            }
            // A non-empty arena, so that the returned ranges are offsets.
            let lead = Cand {
                cost: -1.0,
                rows: 0.0,
                order: Orders::NONE,
                op: Op::Access { table: 9, path: 9 },
            };
            let (mut want, mut got) = (vec![lead], vec![lead]);
            let want_range = prune_into(&mut candidates, &orders, &mut want);
            let got_range = front.drain_into(&orders, &mut got);
            assert_eq!(got_range, want_range, "stream {stream}");
            assert_eq!(got.len(), want.len(), "stream {stream}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "stream {stream}");
                assert_eq!(g.rows.to_bits(), w.rows.to_bits(), "stream {stream}");
                assert_eq!(g.order, w.order, "stream {stream}");
                assert_eq!(g.op, w.op, "stream {stream}");
            }
            offered += n;
            kept += want_range.len();
            tied += candidates
                .windows(2)
                .filter(|p| p[0].cost.to_bits() == p[1].cost.to_bits())
                .count();
        }
        assert!(offered > 400_000 && kept > 5_000 && tied > 300_000, "{offered} / {kept} / {tied}");
    }

    /// Every order one `optimize` call could intern for `q`: the useful
    /// prefix of each access path under each configuration, the merge
    /// orders of its join edges, and each requirement with its prefixes.
    fn query_orders(s: &Schema, cm: &CostModel, q: &Query, configs: &[&Configuration]) -> Orders {
        let (ec, reqs) = (EquivClasses::of_query(q), collect_requirements(q));
        let mut orders = Orders::new();
        for config in configs {
            for &t in &q.tables {
                for p in access::enumerate(s, cm, q, t, config) {
                    orders.intern(&p.order.0[..useful_prefix(&p.order, &reqs, &ec)]);
                }
            }
        }
        for r in &reqs {
            for len in 0..=r.0.len() {
                orders.intern(&r.0[..len]);
            }
        }
        orders
    }

    #[test]
    fn satisfies_table_matches_the_equivalence_classes() {
        let (s, cm) = setup();
        let (empty, baseline) = (Configuration::empty(), Configuration::baseline(&s));
        let (mut statements, mut pairs) = (0, 0);
        for seed in [3, 17] {
            let workloads = [
                HomGen::new(seed).generate(&s, 45),
                HetGen::new(seed).generate(&s, 60),
                UpdateGen::new(seed).generate(&s, 30),
            ];
            for w in &workloads {
                for (_, stmt, _) in w.iter() {
                    let q = stmt.read_shell();
                    let ec = EquivClasses::of_query(q);
                    let orders = query_orders(&s, &cm, q, &[&empty, &baseline]);
                    let mut sat = Satisfies::new(&ec, &orders);
                    let n = orders.0.len() as OrderId;
                    // Twice: the second pass reads filled cells.
                    for _ in 0..2 {
                        for d in 0..n {
                            for r in 0..n {
                                let want = ec.satisfies(orders.get(d), orders.get(r));
                                assert_eq!(sat.get(d, r), want, "{q:?}: {d} / {r}");
                            }
                        }
                    }
                    statements += 1;
                    pairs += n * n;
                }
            }
        }
        assert!(statements == 270 && pairs > 5_000, "{statements} statements, {pairs} pairs");
    }

    #[test]
    fn single_table_scan_plan() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap().id;
        let plan = optimize(&s, &cm, &Query::scan(li), &Configuration::empty());
        assert_eq!(plan.leaves.len(), 1);
        assert!(plan.total_cost() > 0.0);
        assert!(plan.internal_cost() < 1e-9, "bare scan has no internal cost");
    }

    #[test]
    fn index_reduces_plan_cost() {
        let (s, cm) = setup();
        let ord = s.table_by_name("orders").unwrap();
        let ck = s.resolve("orders.o_custkey").unwrap();
        let mut q = Query::scan(ord.id);
        q.predicates.push(Predicate::eq(ck, 5.0));
        let base = optimize(&s, &cm, &q, &Configuration::empty());
        let mut cfg = Configuration::empty();
        cfg.insert(Index::secondary(ord.id, vec![ck.column]));
        let with_ix = optimize(&s, &cm, &q, &cfg);
        assert!(with_ix.total_cost() < base.total_cost());
    }

    #[test]
    fn what_if_monotonicity_on_workload() {
        // Adding indexes never increases the optimal plan cost.
        let (s, cm) = setup();
        let w = HomGen::new(3).generate(&s, 30);
        let empty = Configuration::empty();
        let mut cfg = Configuration::empty();
        let li = s.table_by_name("lineitem").unwrap().id;
        cfg.insert(Index::secondary(li, vec![s.resolve("lineitem.l_shipdate").unwrap().column]));
        cfg.insert(Index::secondary(
            s.table_by_name("orders").unwrap().id,
            vec![s.resolve("orders.o_orderdate").unwrap().column],
        ));
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let c0 = optimize(&s, &cm, q, &empty).total_cost();
            let c1 = optimize(&s, &cm, q, &cfg).total_cost();
            assert!(c1 <= c0 * (1.0 + 1e-9), "index made a plan worse: {c1} > {c0}\n{q:?}");
        }
    }

    #[test]
    fn order_by_index_avoids_sort() {
        let (s, cm) = setup();
        let ord = s.table_by_name("orders").unwrap();
        let od = s.resolve("orders.o_orderdate").unwrap();
        let tp = s.resolve("orders.o_totalprice").unwrap();
        let q = Query {
            tables: vec![ord.id],
            projections: vec![od, tp],
            order_by: vec![od],
            ..Default::default()
        };
        let base = optimize(&s, &cm, &q, &Configuration::empty());
        assert!(base.render().contains("Sort"), "{}", base.render());
        let mut cfg = Configuration::empty();
        cfg.insert(Index::covering(ord.id, vec![od.column], vec![tp.column]));
        let with_ix = optimize(&s, &cm, &q, &cfg);
        assert!(!with_ix.render().contains("Sort"), "{}", with_ix.render());
        assert!(with_ix.total_cost() < base.total_cost());
        // The leaf must carry the order requirement.
        let leaf = with_ix.leaf(ord.id).unwrap();
        assert_eq!(leaf.required.0, vec![od]);
    }

    #[test]
    fn join_plans_cover_all_tables() {
        let (s, cm) = setup();
        let w = HomGen::new(5).generate(&s, 45);
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let plan = optimize(&s, &cm, q, &Configuration::empty());
            assert_eq!(plan.leaves.len(), q.tables.len(), "{q:?}");
            // every referenced table appears exactly once among leaves
            for t in &q.tables {
                assert_eq!(plan.leaves.iter().filter(|l| l.table == *t).count(), 1);
            }
        }
    }

    #[test]
    fn het_workload_optimizes_without_panic() {
        let (s, cm) = setup();
        let w = HetGen::new(8).generate(&s, 60);
        for (_, stmt, _) in w.iter() {
            let plan = optimize(&s, &cm, stmt.read_shell(), &Configuration::empty());
            assert!(plan.total_cost().is_finite() && plan.total_cost() > 0.0);
        }
    }

    #[test]
    fn merge_join_exploits_sorted_indexes() {
        let (s, cm) = setup();
        let ord = s.table_by_name("orders").unwrap().id;
        let li = s.table_by_name("lineitem").unwrap().id;
        let ok = s.resolve("orders.o_orderkey").unwrap();
        let lk = s.resolve("lineitem.l_orderkey").unwrap();
        let q = Query {
            tables: vec![ord, li],
            projections: vec![ok, lk],
            joins: vec![cophy_workload::Join::new(ok, lk)],
            ..Default::default()
        };
        // Covering indexes sorted on the join keys on both sides.
        let mut cfg = Configuration::empty();
        cfg.insert(Index::secondary(ord, vec![ok.column]));
        cfg.insert(Index::secondary(li, vec![lk.column]));
        let plan = optimize(&s, &cm, &q, &cfg);
        // Whatever wins must be no worse than the no-index plan.
        let base = optimize(&s, &cm, &q, &Configuration::empty());
        assert!(plan.total_cost() <= base.total_cost());
    }

    #[test]
    fn profile_b_differs_from_a() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(9).generate(&s, 20);
        let a = CostModel::profile(SystemProfile::A);
        let b = CostModel::profile(SystemProfile::B);
        let mut differs = false;
        for (_, stmt, _) in w.iter() {
            let q = stmt.read_shell();
            let ca = optimize(&s, &a, q, &Configuration::empty()).total_cost();
            let cb = optimize(&s, &b, q, &Configuration::empty()).total_cost();
            differs |= (ca - cb).abs() > 1e-6;
        }
        assert!(differs, "profiles must yield different costings");
    }

    #[test]
    fn group_by_index_enables_stream_agg() {
        let (s, cm) = setup();
        let li = s.table_by_name("lineitem").unwrap();
        let rf = s.resolve("lineitem.l_returnflag").unwrap();
        let qty = s.resolve("lineitem.l_quantity").unwrap();
        let q = Query {
            tables: vec![li.id],
            group_by: vec![rf],
            aggregates: vec![cophy_workload::Aggregate {
                func: cophy_workload::AggFunc::Sum,
                column: Some(qty),
            }],
            ..Default::default()
        };
        let mut cfg = Configuration::empty();
        cfg.insert(Index::covering(li.id, vec![rf.column], vec![qty.column]));
        let plan = optimize(&s, &cm, &q, &cfg);
        let base = optimize(&s, &cm, &q, &Configuration::empty());
        assert!(plan.total_cost() <= base.total_cost());
    }
}
