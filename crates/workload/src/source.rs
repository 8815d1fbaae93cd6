//! Streaming workload ingestion: the [`WorkloadSource`] trait and adapters.
//!
//! CoPhy's scalability story (§5) treats the workload as a *stream*, not a
//! batch: statements arrive in chunks, compression absorbs each chunk into a
//! bounded set of representatives, and only the representatives are ever
//! prepared by the what-if layer.  `WorkloadSource` is the seam that makes
//! this possible without holding `|W|` statements in memory.
//!
//! Three kinds of sources exist:
//!
//! * [`WorkloadCursor`] — a cursor over an in-memory [`Workload`]
//!   (via [`Workload::source`]); this is how the legacy batch entry points
//!   are expressed as one-chunk streams.
//! * Generator streams — [`crate::gen_hom::HomStream`],
//!   [`crate::gen_het::HetStream`], [`crate::gen_update::UpdateStream`] —
//!   which produce statements lazily from a seeded RNG, bit-identical to the
//!   corresponding `generate(schema, n)` call (the batch generators are now
//!   thin drains over these streams).
//! * Anything downstream crates implement: the trait is object-safe, so
//!   `&mut dyn WorkloadSource` travels through `TuningSession::try_add_source`
//!   and `CoPhy::try_tune_source` without generics.

use crate::query::Statement;
use crate::workload::Workload;

/// Default number of statements pulled per chunk by streaming consumers.
///
/// Large enough to amortize per-chunk bookkeeping (cache write locks, the
/// rollback journal), small enough that resident statements stay bounded by
/// `reps + DEFAULT_CHUNK` rather than `|W|`.
pub const DEFAULT_CHUNK: usize = 256;

/// A pull-based stream of weighted statements.
///
/// Consumers repeatedly call [`next_chunk`](WorkloadSource::next_chunk) with a
/// scratch buffer; a return of `0` means the source is exhausted.  Sources are
/// single-pass: once drained they stay empty.
pub trait WorkloadSource {
    /// Append up to `max` `(statement, weight)` pairs to `out` and return how
    /// many were appended.  `out` is *not* cleared — the caller owns buffer
    /// reuse.  Returning `0` signals exhaustion.
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize;

    /// Number of statements left to produce, when the source knows it.
    fn remaining(&self) -> Option<usize>;
}

/// Cursor adapter turning an in-memory [`Workload`] into a [`WorkloadSource`].
///
/// Statements are cloned out in id order with their weights, so draining the
/// cursor reproduces the workload exactly.
#[derive(Debug)]
pub struct WorkloadCursor<'a> {
    workload: &'a Workload,
    pos: usize,
}

impl<'a> WorkloadCursor<'a> {
    pub fn new(workload: &'a Workload) -> Self {
        WorkloadCursor { workload, pos: 0 }
    }
}

impl WorkloadSource for WorkloadCursor<'_> {
    fn next_chunk(&mut self, max: usize, out: &mut Vec<(Statement, f64)>) -> usize {
        let end = (self.pos + max).min(self.workload.len());
        let produced = end - self.pos;
        for i in self.pos..end {
            let id = crate::workload::QueryId(i as u32);
            out.push((self.workload.statement(id).clone(), self.workload.weight(id)));
        }
        self.pos = end;
        produced
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.workload.len() - self.pos)
    }
}

/// Drain `source` completely into a fresh [`Workload`].
///
/// This is the bridge back from the streaming world to the batch world; it is
/// what the legacy `generate(schema, n)` entry points use, which is why a
/// stream and its batch twin are bit-identical by construction.
pub fn drain_to_workload(source: &mut dyn WorkloadSource) -> Workload {
    let mut w = Workload::new();
    let mut buf: Vec<(Statement, f64)> = Vec::new();
    loop {
        buf.clear();
        if source.next_chunk(DEFAULT_CHUNK, &mut buf) == 0 {
            break;
        }
        for (stmt, weight) in buf.drain(..) {
            w.push_weighted(stmt, weight);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_hom::HomGen;
    use cophy_catalog::TpchGen;

    #[test]
    fn cursor_roundtrips_workload() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(9).generate(&s, 37);
        let mut cur = WorkloadCursor::new(&w);
        assert_eq!(cur.remaining(), Some(37));
        let drained = drain_to_workload(&mut cur);
        assert_eq!(drained.len(), w.len());
        for (id, stmt, weight) in w.iter() {
            assert_eq!(stmt, drained.statement(id));
            assert_eq!(weight, drained.weight(id));
        }
        assert_eq!(cur.remaining(), Some(0));
        let mut buf = Vec::new();
        assert_eq!(cur.next_chunk(8, &mut buf), 0);
    }

    #[test]
    fn cursor_respects_chunk_size() {
        let s = TpchGen::default().schema();
        let w = HomGen::new(9).generate(&s, 10);
        let mut cur = w.source();
        let mut buf = Vec::new();
        assert_eq!(cur.next_chunk(4, &mut buf), 4);
        assert_eq!(cur.next_chunk(4, &mut buf), 4);
        assert_eq!(cur.next_chunk(4, &mut buf), 2);
        assert_eq!(buf.len(), 10, "next_chunk appends, never clears");
    }
}
