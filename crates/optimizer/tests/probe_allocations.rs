//! Heap traffic of one what-if probe.
//!
//! The DP prices join candidates as `Copy` records and builds one plan tree
//! at the end, so a probe's allocation count is set by its tables and access
//! paths, not by the thousands of candidates it prices.  A kernel that
//! cloned both child trees into every candidate made over 50 000 allocations
//! on the six-table `HomGen` template; this test keeps that from coming back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cophy_catalog::{Configuration, Index, TpchGen};
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HomGen, Query};

thread_local! {
    /// Allocations made by this thread (the harness's own threads do not
    /// disturb the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it from
// inside the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// An ideal configuration in INUM's sense: per table one covering index
/// that binds the equality predicates and then delivers the table's first
/// interesting order.
fn ideal_configuration(q: &Query) -> Configuration {
    q.tables
        .iter()
        .map(|&t| {
            let eq = q.eq_columns_on(t);
            let order = q.interesting_orders_on(t).into_iter().next().unwrap_or_default();
            let mut key = eq.clone();
            key.extend(order.into_iter().filter(|c| !eq.contains(c)));
            let used = q.columns_used_on(t);
            if key.is_empty() {
                key.push(used[0]);
            }
            let include = used.into_iter().filter(|c| !key.contains(c)).collect();
            Index::covering(t, key, include)
        })
        .collect()
}

#[test]
fn six_table_probe_allocates_by_tables_not_by_candidates() {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = HomGen::new(7).generate(o.schema(), 60);
    let widest = w
        .iter()
        .map(|(_, stmt, _)| stmt.read_shell())
        .max_by_key(|q| q.tables.len())
        .expect("non-empty workload");
    assert_eq!(widest.tables.len(), 6, "HomGen's widest template joins six tables");
    let ideal = ideal_configuration(widest);
    assert_eq!(ideal.len(), 6);

    let plan = o.optimize(widest, &ideal);
    assert!(plan.render().contains("Index"), "the ideal indexes must be used:\n{}", plan.render());

    let n = allocations_of(|| drop(o.optimize(widest, &ideal)));
    assert!(n < 5_000, "{n} allocations for one six-table probe");
    let bare = allocations_of(|| drop(o.optimize(widest, &Configuration::empty())));
    assert!(bare < 5_000, "{bare} allocations for one six-table probe without indexes");
}
