//! Heap traffic of ingestion, per statement.
//!
//! Ingestion is linear in the stream: a chunk's rollback state is an undo
//! journal of the chunk's size, so the bytes a statement costs do not depend
//! on how many came before it.  A session that deep-copied its clustering
//! before every chunk allocated several times more per statement at 10⁵
//! statements than at 2·10⁴; this test keeps that from coming back, by
//! counting instead of timing — through the streamed door and through the
//! materialized one, which keeps no per-statement state either.
//!
//! What does stay per statement is the clustering's exact-shell index, one
//! entry per distinct shell absorbed.  Its resident bytes per absorbed
//! statement are bounded here too, and so is the gap between them and what
//! `approx_state_bytes` — the daemon's eviction metric — charges for them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cophy::{
    CoPhy, CoPhyOptions, CompressedWorkload, CompressionPolicy, ConstraintSet, WorkloadSource,
    DEFAULT_CHUNK,
};
use cophy_catalog::{Index, TpchGen};
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

thread_local! {
    /// Bytes requested by this thread (the harness's own threads do not
    /// disturb the count).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread handed back: `BYTES − FREED` is its live heap.
    static FREED: Cell<u64> = const { Cell::new(0) };
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
        FREED.with(|c| c.set(c.get() + layout.size() as u64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        FREED.with(|c| c.set(c.get() + layout.size() as u64));
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

/// This thread's live heap: bytes allocated and not yet freed.
fn live_bytes() -> u64 {
    BYTES.with(Cell::get) - FREED.with(Cell::get)
}

#[test]
fn the_clustering_keeps_few_bytes_per_absorbed_statement() {
    const N: usize = 100_000;
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let (schema, policy) = (o.schema(), CompressionPolicy::default_epsilon());
    let gen = HomGen::new(0x5CA1E);

    // The clustering alone, fed as a session feeds it: journaled chunks.
    let mut source = gen.stream(schema, N);
    let mut buf = Vec::new();
    let before = live_bytes();
    let mut cw = CompressedWorkload::streaming(policy);
    while {
        buf.clear();
        source.next_chunk(DEFAULT_CHUNK, &mut buf) > 0
    } {
        cw.begin_chunk();
        cw.absorb_chunk(schema, &buf);
        cw.commit_chunk();
    }
    drop(buf);
    let resident = (live_bytes() - before) as f64 / N as f64;
    assert_eq!(cw.n_original(), N);
    // A key of the whole shell per entry held ≈ 300 B per statement.
    assert!(resident <= 120.0, "{resident:.0} B resident per absorbed statement");

    // What the daemon's LRU charges for the same clustering, kept by a
    // session: its state before the first solve, less the candidates.
    let opts = CoPhyOptions { compression: policy, ..Default::default() };
    let cophy = CoPhy::new(&o, opts);
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let session = cophy.try_session_streaming(&mut gen.stream(schema, N), constraints).unwrap();
    let candidates = session.candidates().len() * (std::mem::size_of::<Index>() + 16);
    let charged = (session.approx_state_bytes() - candidates) as f64 / N as f64;
    assert!(
        (0.5 * resident..=1.5 * resident).contains(&charged),
        "approx_state_bytes charges {charged:.0} B per statement for {resident:.0} B resident"
    );
}
