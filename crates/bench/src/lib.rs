//! Experiment harness for the CoPhy reproduction: one binary over one table.
//!
//! ```sh
//! cargo run --release -p cophy-bench -- <name>… | all | gates
//! ```
//!
//! [`EXPERIMENTS`] lists every table and figure of the paper's §5 +
//! Appendix C (`all`) and the six CI studies (`gates`).  An experiment only
//! *measures*: it returns an [`Outcome`] — [`Table`]s of typed [`Cell`]s
//! plus the gate [`Claim`]s it checked.  [`run`] is the one place that
//! renders the tables as aligned text, writes `BENCH_<name>.json` through
//! the crate's one JSON renderer and only then reports the violated claims,
//! so a failing gate always leaves its report and artifact behind.
//!
//! ## Scale
//!
//! `COPHY_SCALE` picks the three workload sizes ([`Scale::sizes`]); the
//! paper's are 250/500/1000:
//!
//! * `COPHY_SCALE=full`  → 250/500/1000 (paper-exact sizes),
//! * `COPHY_SCALE=std`   → 100/200/400,
//! * unset               → 50/100/200 (local default),
//! * `COPHY_SCALE=smoke` → 6/12/24 (CI smoke: exercises every code path of
//!   an experiment end-to-end in seconds; the numbers mean nothing).
//!
//! Any other value is an error, not a silent default.
//!
//! Absolute wall-clock numbers differ from the paper (different hardware,
//! solver, DBMS); the claims under test are the *shapes*: who wins, by
//! roughly what factor, and how times scale.

mod chaos_study;
mod compress_study;
mod interactive_study;
mod paper;
mod scale_study;
mod server_study;
mod solver_study;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cophy::{CandidateSet, CoPhy, CoPhyOptions, ConstraintSet, SolveStats};
use cophy_catalog::{Skew, TpchGen};
use cophy_inum::{Inum, PreparedWorkload};
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{HetGen, HomGen, Workload};

use chaos_study::chaos;
use compress_study::compress;
use interactive_study::interactive;
use paper::{fig10, fig4, fig5, fig6a, fig6b, fig6c, fig7, fig8, fig9, skew, table1};
use scale_study::scale;
use server_study::server;
use solver_study::solver;

// ---------------------------------------------------------------------------
// Outcome of an experiment: tables + claims
// ---------------------------------------------------------------------------

/// One typed cell of a [`Table`].  The type decides both renderings: how the
/// value reads in the text report and what it is in the JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(u64),
    /// A plain number; non-finite values are `null` in the artifact.
    Num(f64),
    /// A wall-clock span: `1.23s` in text, seconds in the artifact.
    Secs(Duration),
    /// A fraction shown as a percentage: `12.30%` in text, the raw fraction
    /// in the artifact.
    Pct(f64),
    Text(String),
    Bool(bool),
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
            Cell::Num(v) => format!("{v:.2}"),
            Cell::Secs(d) => format!("{:.2}s", d.as_secs_f64()),
            Cell::Pct(v) => format!("{:.2}%", v * 100.0),
            Cell::Text(s) => s.clone(),
            Cell::Bool(b) => b.to_string(),
        }
    }

    fn json(&self) -> String {
        let num = |v: f64| if v.is_finite() { v.to_string() } else { "null".into() };
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) | Cell::Pct(v) => num(*v),
            Cell::Secs(d) => num(d.as_secs_f64()),
            Cell::Text(s) => json_str(s),
            Cell::Bool(b) => b.to_string(),
        }
    }
}

/// Rows of [`Cell`]s under named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub title: String,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: &[&'static str]) -> Table {
        Table { title: title.into(), columns: columns.to_vec(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width of table `{}`", self.title);
        self.rows.push(cells);
    }

    /// A table of one row, written as `(column, cell)` pairs.
    pub fn record(title: impl Into<String>, fields: Vec<(&'static str, Cell)>) -> Table {
        let (columns, row) = fields.into_iter().unzip();
        Table { title: title.into(), columns, rows: vec![row] }
    }
}

/// One gate condition an experiment checked, with the measured values in
/// its text.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub text: String,
    pub holds: bool,
}

/// Everything an experiment produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub tables: Vec<Table>,
    pub claims: Vec<Claim>,
}

impl Outcome {
    pub fn new(tables: Vec<Table>) -> Outcome {
        Outcome { tables, claims: Vec::new() }
    }

    pub fn claim(&mut self, holds: bool, text: impl Into<String>) {
        self.claims.push(Claim { text: text.into(), holds });
    }
}

// ---------------------------------------------------------------------------
// The experiment table
// ---------------------------------------------------------------------------

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    /// What the command line and the artifact file name call it.
    pub name: &'static str,
    pub title: &'static str,
    pub run: fn(&Knobs) -> Outcome,
}

/// Every experiment of the crate: the paper's tables and figures first,
/// then the six gated CI studies.
pub const EXPERIMENTS: [Experiment; 17] = [
    entry("table1", "Table 1: CoPhy vs the commercial advisors across skew and diversity", table1),
    entry("fig4", "Figure 4: advisor execution time vs workload size (W_hom, z=0, M=1)", fig4),
    entry("fig5", "Figure 5: CoPhy vs ILP time split vs candidate-set size", fig5),
    entry("fig6a", "Figure 6a: estimated distance from optimal over solver time", fig6a),
    entry("fig6b", "Figure 6b: warm re-solve time after candidate deltas", fig6b),
    entry("fig6c", "Figure 6c: time per Pareto point of a soft storage constraint", fig6c),
    entry("fig7", "Figure 7: quality (% speedup) vs workload size (W_hom, z=0, M=1)", fig7),
    entry("fig8", "Figure 8: speedup ratios vs storage budget M", fig8),
    entry("fig9", "Figure 9: quality (% speedup) on W_het, System-B, M=1", fig9),
    entry("fig10", "Figure 10: CoPhy vs ILP time split vs workload size (S_ALL each)", fig10),
    entry("skew", "Appendix C: quality under data skew z=1 (W_hom)", skew),
    entry("compress", "Workload compression: default-ε clustering vs the full tune", compress),
    entry("solver", "Solve engine: anytime trajectories + warm-start study", solver),
    entry("interactive", "Interactive budget sweep: one warm chain vs cold solves", interactive),
    entry("server", "Advisor as a service: concurrent sessions over one shared INUM cache", server),
    entry("chaos", "Fault injection: zero-fault transparency + bounded chaos degradation", chaos),
    entry("scale", "Streamed large-workload tuning: residency, ingest rate, decomposition", scale),
];

const fn entry(name: &'static str, title: &'static str, run: fn(&Knobs) -> Outcome) -> Experiment {
    Experiment { name, title, run }
}

/// How many leading entries of [`EXPERIMENTS`] reproduce the paper; the
/// rest are the gated studies.
const PAPER: usize = 11;

/// The experiments a command-line word names: one by its name, `all` for
/// the paper's transcript, `gates` for the CI studies.
pub fn select(word: &str) -> Option<&'static [Experiment]> {
    match word {
        "all" => Some(&EXPERIMENTS[..PAPER]),
        "gates" => Some(&EXPERIMENTS[PAPER..]),
        name => EXPERIMENTS.iter().find(|e| e.name == name).map(std::slice::from_ref),
    }
}

// ---------------------------------------------------------------------------
// The sequencer and the two renderers
// ---------------------------------------------------------------------------

/// What [`run`] hands back: by the time a caller sees `failures`, the text
/// report is rendered and the artifact is on disk.
pub struct Report {
    pub text: String,
    pub artifact: PathBuf,
    /// The violated claims (plus the I/O error if the artifact could not be
    /// written); empty means the experiment passed.
    pub failures: Vec<String>,
}

/// Run one experiment: measure, render the report, write
/// `<out_dir>/BENCH_<name>.json`, and *then* collect the violated claims.
pub fn run(exp: &Experiment, knobs: &Knobs, out_dir: &Path) -> Report {
    let outcome = (exp.run)(knobs);
    let text = render_text(exp, &outcome);
    let artifact = out_dir.join(format!("BENCH_{}.json", exp.name));
    let mut failures: Vec<String> =
        outcome.claims.iter().filter(|c| !c.holds).map(|c| c.text.clone()).collect();
    if let Err(e) = std::fs::write(&artifact, render_json(exp, knobs, &outcome)) {
        failures.push(format!("cannot write {}: {e}", artifact.display()));
    }
    Report { text, artifact, failures }
}

fn render_text(exp: &Experiment, outcome: &Outcome) -> String {
    let mut out = format!("## {} — {}\n", exp.name, exp.title);
    for t in &outcome.tables {
        let _ = writeln!(out, "\n{}", t.title);
        let cells: Vec<Vec<String>> =
            t.rows.iter().map(|r| r.iter().map(Cell::text).collect()).collect();
        // A single record reads better as a list than as one very wide row.
        if let [only] = cells.as_slice() {
            for (column, value) in t.columns.iter().zip(only) {
                let _ = writeln!(out, "  {column}: {value}");
            }
            continue;
        }
        let header: Vec<String> = t.columns.iter().map(|c| c.to_string()).collect();
        let lines: Vec<&Vec<String>> = std::iter::once(&header).chain(&cells).collect();
        let width =
            |j: usize| lines.iter().map(|l| l[j].chars().count()).max().expect("a header line");
        let widths: Vec<usize> = (0..header.len()).map(width).collect();
        for l in &lines {
            let padded: Vec<String> =
                l.iter().zip(&widths).map(|(v, w)| format!("{v:<w$}", w = *w)).collect();
            let _ = writeln!(out, "  {}", padded.join("  ").trim_end());
        }
    }
    if !outcome.claims.is_empty() {
        out.push('\n');
    }
    for c in &outcome.claims {
        let _ = writeln!(out, "[{}] {}", if c.holds { "ok" } else { "VIOLATED" }, c.text);
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one artifact schema: a header naming the experiment and the knobs it
/// ran under, then its tables (column names once, rows as arrays) and claims.
fn render_json(exp: &Experiment, knobs: &Knobs, outcome: &Outcome) -> String {
    fn list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
        format!("[{}]", items.iter().map(f).collect::<Vec<_>>().join(","))
    }
    let tables = list(&outcome.tables, |t| {
        format!(
            "{{\"title\":{},\"columns\":{},\"rows\":{}}}",
            json_str(&t.title),
            list(&t.columns, |c| json_str(c)),
            list(&t.rows, |r| list(r, Cell::json)),
        )
    });
    let claims = list(&outcome.claims, |c| {
        format!("{{\"text\":{},\"holds\":{}}}", json_str(&c.text), c.holds)
    });
    format!(
        "{{\"experiment\":{},\"title\":{},\"scale\":{},\"host_threads\":{},\
         \"tables\":{tables},\"claims\":{claims}}}\n",
        json_str(exp.name),
        json_str(exp.title),
        json_str(knobs.scale.name()),
        host_threads(),
    )
}

// ---------------------------------------------------------------------------
// Knobs: COPHY_SCALE
// ---------------------------------------------------------------------------

/// Workload scale of a run (`COPHY_SCALE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    /// `COPHY_SCALE` unset.
    Local,
    Std,
    Full,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Local => "local",
            Scale::Std => "std",
            Scale::Full => "full",
        }
    }

    /// The three workload sizes of the evaluation.
    pub fn sizes(self) -> [usize; 3] {
        match self {
            Scale::Full => [250, 500, 1000],
            Scale::Std => [100, 200, 400],
            Scale::Local => [50, 100, 200],
            Scale::Smoke => [6, 12, 24],
        }
    }

    /// Largest of [`Scale::sizes`] — the paper's default `W_1000`.
    pub fn default_size(self) -> usize {
        self.sizes()[2]
    }
}

/// The settings an experiment runs under, parsed once by the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    pub scale: Scale,
}

impl Knobs {
    /// Resolve the raw value of `COPHY_SCALE` (`None` = unset).  An
    /// unrecognised value is an error naming the accepted ones.
    pub fn parse(scale: Option<&str>) -> Result<Knobs, String> {
        let scale = match scale {
            None => Scale::Local,
            Some(v) => [Scale::Smoke, Scale::Std, Scale::Full]
                .into_iter()
                .find(|s| s.name() == v)
                .ok_or_else(|| format!("COPHY_SCALE={v:?}: expected smoke, std, full, or unset"))?,
        };
        Ok(Knobs { scale })
    }

    /// [`Knobs::parse`] of the process environment.
    pub fn from_env() -> Result<Knobs, String> {
        let var = |name: &str| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
        };
        Knobs::parse(var("COPHY_SCALE")?.as_deref())
    }
}

/// The host's reported parallelism (recorded in every artifact so multi-core
/// CI runs are distinguishable from 1-core container runs).
fn host_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Scenario helpers shared by the experiments
// ---------------------------------------------------------------------------

/// Workload family used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Hom,
    Het,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadKind::Hom => write!(f, "W_hom"),
            WorkloadKind::Het => write!(f, "W_het"),
        }
    }
}

/// Build the simulated DBMS for a given system profile and skew.
pub fn make_optimizer(profile: SystemProfile, z: f64) -> WhatIfOptimizer {
    WhatIfOptimizer::new(TpchGen::new(1.0, Skew(z)).schema(), profile)
}

/// Deterministic workload of the given kind and size.
pub fn make_workload(o: &WhatIfOptimizer, kind: WorkloadKind, n: usize) -> Workload {
    match kind {
        WorkloadKind::Hom => HomGen::new(0xC0FFEE).generate(o.schema(), n),
        WorkloadKind::Het => HetGen::new(0xC0FFEE).generate(o.schema(), n),
    }
}

/// INUM preparation for the studies that solve a [`PreparedWorkload`]
/// directly (the live optimizer never fails a probe).
pub fn prepare(o: &WhatIfOptimizer, w: &Workload) -> PreparedWorkload {
    Inum::new(o).prepare_workload(w)
}

/// Time a closure.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// A CoPhy run with its measurement.
struct CoPhyRun {
    /// Ground-truth quality metric `perf(X*, W)` (§5.1), computed against
    /// the what-if optimizer directly.
    perf: f64,
    /// The tune's own INUM / build / solve split.
    stats: SolveStats,
}

/// Run CoPhy end-to-end on a workload through the product's front door
/// (with `candidates`, the door that skips CGen).
fn run_cophy(
    o: &WhatIfOptimizer,
    w: &Workload,
    constraints: &ConstraintSet,
    candidates: Option<&CandidateSet>,
) -> CoPhyRun {
    let cophy = CoPhy::new(o, CoPhyOptions::default());
    let rec = match candidates {
        Some(c) => cophy.try_tune_with_candidates(w, c, constraints),
        None => cophy.try_tune(w, constraints),
    }
    .expect("feasible");
    CoPhyRun { perf: o.perf(w, &rec.configuration), stats: rec.stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_resolve() {
        for scale in [Scale::Smoke, Scale::Local, Scale::Std, Scale::Full] {
            let s = scale.sizes();
            assert!(s[0] < s[1] && s[1] < s[2]);
        }
    }

    #[test]
    fn run_cophy_measures_a_tune() {
        let o = make_optimizer(SystemProfile::A, 0.0);
        let w = make_workload(&o, WorkloadKind::Hom, 10);
        let c = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let run = run_cophy(&o, &w, &c, None);
        assert!(run.perf > 0.0);
        assert!(run.stats.what_if_calls > 0 && run.stats.inum_time > Duration::ZERO);
    }
}
