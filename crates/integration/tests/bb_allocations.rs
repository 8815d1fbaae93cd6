//! Heap traffic of one branch-and-bound solve, in blocks.
//!
//! The search builds its LP workspace once: the standard form of the rows is
//! one flat CSC per solve, and a node, probe or dive LP allocates some fifteen
//! vectors over it instead of one `Vec` per column; the repair heuristic
//! borrows one column index per solve and stops at a repeated state.  At
//! commit 8a9c42c (PR 18) the solve below asked the allocator for 11 911 950
//! blocks — the heuristic's per-row candidate lists, ≈ 1 990 passes a call —
//! and still for 789 667 with the heuristic cut short but every LP
//! rebuilding its ≈ 3 100 columns from the constraint list.  This test keeps
//! either from coming back, by counting instead of timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cophy::{BipGen, CGen, Cmp, Constraint, ConstraintSet, IndexFilter};
use cophy_bip::{BranchBound, SolveBudget, SolveOptions};
use cophy_catalog::TpchGen;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

thread_local! {
    /// Blocks requested by this thread (the harness's own threads do not
    /// disturb the count).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it from
// inside the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 20 % above the 216 088 blocks this solve measures (debug and release
/// alike; the solve is deterministic) — 241 464 before each eta vector was
/// allocated once at its final size and the dual ratio test stopped sorting
/// every breakpoint into a merge buffer.  Per-LP columns alone would add
/// ≈ 550 000.
const CEILING: u64 = 260_000;

#[test]
fn a_hundred_node_solve_allocates_its_lp_workspace_once() {
    // `perf`'s `rich_bb` size: 20 `HomGen` statements, storage 0.5 × data
    // plus `IndexCount(lineitem) ≤ 2`, an exact gap ended by a 100-node cap.
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let (schema, cm) = (o.schema(), o.cost_model());
    let w = HomGen::new(0xC0FFEE).generate(schema, 20);
    let lineitem = schema.table_by_name("lineitem").expect("TPC-H lineitem").id;
    let rich = ConstraintSet::storage_fraction(schema, 0.5).with(Constraint::IndexCount {
        filter: IndexFilter::on_table(lineitem),
        cmp: Cmp::Le,
        value: 2,
    });
    let prepared = Inum::new(&o).prepare_workload(&w);
    let candidates = CGen::default().generate(schema, &w);
    let (model, _) = BipGen::default().model(schema, cm, &prepared, &candidates, &rich);
    let opts = SolveOptions { budget: SolveBudget::exact().with_nodes(100), ..Default::default() };

    let before = BLOCKS.with(Cell::get);
    let r = BranchBound::new().solve(&model, &opts);
    let blocks = BLOCKS.with(Cell::get) - before;

    assert_eq!(r.nodes, 100, "the node cap ends the solve");
    assert!(blocks <= CEILING, "the solve allocated {blocks} blocks, ceiling {CEILING}");
}
