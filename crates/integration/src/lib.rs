//! Test-only crate: see `tests/`.  The library is the byte log the digest
//! tests (`*_digest.rs`) fold their layer's output into.

use cophy_catalog::{Configuration, Index};
use cophy_optimizer::fnv1a;

/// An append-only byte log, read as one FNV-1a digest.  What is appended,
/// and in which order, is each digest test's contract; how a value becomes
/// bytes is this type's, and no recorded constant survives a change to it.
#[derive(Debug, Default)]
pub struct Fold(Vec<u8>);

impl Fold {
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `None` folds as a bit pattern no cost takes.
    pub fn opt(&mut self, v: Option<f64>) {
        self.f64(v.unwrap_or(f64::NEG_INFINITY));
    }

    pub fn index(&mut self, ix: &Index) {
        self.bytes(format!("{ix:?}").as_bytes());
    }

    pub fn configuration(&mut self, c: &Configuration) {
        self.u64(c.len() as u64);
        for ix in c.indexes() {
            self.index(ix);
        }
    }

    pub fn digest(&self) -> u64 {
        fnv1a(&self.0)
    }
}
