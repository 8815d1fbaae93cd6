//! Heap traffic of ingestion, per statement.
//!
//! Ingestion is linear in the stream: a chunk's rollback state is an undo
//! journal of the chunk's size, so the bytes a statement costs do not depend
//! on how many came before it.  A session that deep-copied its clustering
//! before every chunk allocated several times more per statement at 10⁵
//! statements than at 2·10⁴; this test keeps that from coming back, by
//! counting instead of timing — through the streamed door and through the
//! materialized one, which keeps no per-statement state either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cophy::{CoPhy, CoPhyOptions, CompressionPolicy, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

thread_local! {
    /// Bytes requested by this thread (the harness's own threads do not
    /// disturb the count).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it from
// inside the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated per statement while a session ingests `n` `HomGen`
/// statements under default-ε compression — streamed from the generator, or
/// materialized first (outside the count) and handed to `try_session`.
fn ingest_bytes_per_statement(n: usize, materialized: bool) -> f64 {
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let opts =
        CoPhyOptions { compression: CompressionPolicy::default_epsilon(), ..Default::default() };
    let cophy = CoPhy::new(&o, opts);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let gen = HomGen::new(0x5CA1E);
    let w = materialized.then(|| gen.generate(o.schema(), n));
    let before = BYTES.with(Cell::get);
    let session = match &w {
        Some(w) => cophy.try_session(w, constraints),
        None => cophy.try_session_streaming(&mut gen.stream(o.schema(), n), constraints),
    }
    .unwrap();
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(session.n_statements(), n);
    bytes as f64 / n as f64
}

#[test]
fn ingestion_allocates_linearly_in_the_stream() {
    for (door, materialized) in [("try_session_streaming", false), ("try_session", true)] {
        let small = ingest_bytes_per_statement(20_000, materialized);
        let large = ingest_bytes_per_statement(100_000, materialized);
        // Hash-map doubling alone moves the ratio by tens of percent; a cost
        // that grows with the statements absorbed so far moves it several-fold.
        assert!(
            large <= 1.5 * small,
            "{door}: bytes per statement grew from {small:.0} at 2·10⁴ to {large:.0} at 10⁵"
        );
    }
}
