//! Spans recorded from the benchmark's own code, around the calls into each
//! layer's public functions (tracing inside the program is a later change).
//!
//! A span is `{name, parent, start_ns, end_ns}`; its name is
//! `<layer>.<operation>`.  Spans stay in memory and are written as JSON
//! lines when the run ends.  A span's *self time* is its duration minus the
//! part of it its direct children cover.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The repetition of the timed unit this span belongs to.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
    rep: u32,
}

/// The span recorder.  `Sync`, because the what-if backend wrapper that
/// records `optimizer.probe` spans must be (`WhatIfBackend: Send + Sync`);
/// nesting is tracked for the one thread that drives the layers.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a panic while recording a span is a bug in the benchmark")
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn set_rep(&self, rep: u32) {
        self.lock().rep = rep;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let start_ns = self.now_ns();
            let mut inner = self.lock();
            let id = inner.spans.len();
            let (parent, rep) = (inner.stack.last().copied(), inner.rep);
            inner.spans.push(Span { name, parent, rep, start_ns, end_ns: start_ns });
            inner.stack.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[id].end_ns = end_ns;
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        out
    }

    /// Record an already-measured span under the innermost open span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut inner = self.lock();
        let (parent, rep) = (inner.stack.last().copied(), inner.rep);
        inner.spans.push(Span { name, parent, rep, start_ns, end_ns });
    }

    pub fn finish(self) -> Spans {
        Spans::new(self.inner.into_inner().expect("no thread panicked while recording").spans)
    }
}

/// The recorded spans of one run, with each span's self time.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    /// Self time of every span, in seconds, by span index.
    own: Vec<f64>,
}

impl Spans {
    pub fn new(spans: Vec<Span>) -> Spans {
        let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
        for span in &spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        Spans { spans, own }
    }

    /// Ids of the spans named `name` in repetition `rep`.
    fn named<'a>(&'a self, name: &'a str, rep: u32) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && s.rep == rep)
            .map(|(i, _)| i)
    }

    /// Durations (seconds) of the spans named `name` in repetition `rep`.
    pub fn durations(&self, name: &str, rep: u32) -> Vec<f64> {
        self.named(name, rep).map(|i| self.spans[i].seconds()).collect()
    }

    /// Summed duration of the spans named `name` in repetition `rep`.
    /// (Folded from `0.0`: the sum of no `f64`s is `-0.0`, which would print.)
    pub fn total(&self, name: &str, rep: u32) -> f64 {
        self.named(name, rep).fold(0.0, |sum, i| sum + self.spans[i].seconds())
    }

    /// Summed self time of the spans named `name` in repetition `rep`.
    pub fn total_self(&self, name: &str, rep: u32) -> f64 {
        self.named(name, rep).fold(0.0, |sum, i| sum + self.own[i])
    }

    pub fn count(&self, name: &str, rep: u32) -> usize {
        self.named(name, rep).count()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::Str(workload.into())),
                ("rep", Json::Num(f64::from(s.rep))),
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.into())),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, rep: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // tune [0, 100 s) ── inum.prepare [10, 70) ── optimizer.probe [20, 30), [40, 55)
        //                 └─ lagrangian.solve [70, 90)
        let s = 1_000_000_000;
        let spans = Spans::new(vec![
            span("tune", None, 0, 100 * s),
            span("inum.prepare", Some(0), 10 * s, 70 * s),
            span("optimizer.probe", Some(1), 20 * s, 30 * s),
            span("optimizer.probe", Some(1), 40 * s, 55 * s),
            span("lagrangian.solve", Some(0), 70 * s, 90 * s),
        ]);
        assert_eq!(spans.own, vec![20.0, 35.0, 10.0, 15.0, 20.0]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(spans.own.iter().sum::<f64>(), 100.0);
        assert_eq!(spans.durations("optimizer.probe", 0), vec![10.0, 15.0]);
        assert_eq!(spans.total("optimizer.probe", 0), 25.0);
        assert_eq!(spans.total_self("inum.prepare", 0), 35.0);
        assert_eq!(spans.count("optimizer.probe", 0), 2);
        assert_eq!(spans.total("optimizer.probe", 1), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_records_leaves_under_the_open_span() {
        let tr = Tracer::new();
        tr.set_rep(3);
        let out = tr.span("tune", || {
            tr.span("inum.prepare", || {
                let t = tr.now_ns();
                tr.record("optimizer.probe", t, t + 5);
            });
            tr.span("bipgen.build", || 7)
        });
        assert_eq!(out, 7);
        tr.record("lp.root", 1, 2);
        let spans = tr.finish();
        let parents: Vec<_> = spans.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("tune", None),
                ("inum.prepare", Some(0)),
                ("optimizer.probe", Some(1)),
                ("bipgen.build", Some(0)),
                ("lp.root", None),
            ]
        );
        assert!(spans.spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(
            spans.spans[1].start_ns >= spans.spans[0].start_ns
                && spans.spans[1].end_ns <= spans.spans[0].end_ns
        );
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let spans =
            Spans::new(vec![span("tune", None, 5, 50), span("cgen.generate", Some(0), 6, 9)]);
        let dir = crate::workloads::out_dir().join(format!("test-{}", std::process::id()));
        let path = dir.join("trace-test.jsonl");
        spans.write_jsonl(&path, "hom_storage").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("cgen.generate"));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[0].get("end_ns").unwrap().as_f64(), Some(50.0));
    }
}
