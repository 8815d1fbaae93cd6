//! The harness around the experiments: the knobs, the registry, the JSON
//! renderer and the report → artifact → verdict sequencer.  Everything here
//! runs on fake experiments; no advisor is invoked.

use std::path::PathBuf;
use std::time::Duration;

use cophy_bench::{run, select, Cell, Experiment, Knobs, Outcome, Scale, Table, EXPERIMENTS};

const KNOBS: Knobs = Knobs { scale: Scale::Smoke };

/// A fresh directory per test: tests run on parallel threads and must not
/// share files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cophy-bench-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// A JSON reader of this test's own (nothing shared with `perf/`)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.trim().chars().peekable();
        let value = Json::value(&mut chars);
        assert_eq!(chars.next(), None, "trailing input after the document");
        value
    }

    fn value(c: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        let literal = |c: &mut std::iter::Peekable<std::str::Chars<'_>>, word: &str, v: Json| {
            word.chars().for_each(|w| assert_eq!(c.next(), Some(w), "literal {word}"));
            v
        };
        match *c.peek().expect("a value") {
            'n' => literal(c, "null", Json::Null),
            't' => literal(c, "true", Json::Bool(true)),
            'f' => literal(c, "false", Json::Bool(false)),
            '"' => Json::Str(Json::string(c)),
            '[' => {
                c.next();
                let mut items = Vec::new();
                while c.peek() != Some(&']') {
                    items.push(Json::value(c));
                    if c.peek() == Some(&',') {
                        c.next();
                        assert_ne!(c.peek(), Some(&']'), "trailing comma");
                    }
                }
                c.next();
                Json::Arr(items)
            }
            '{' => {
                c.next();
                let mut fields = Vec::new();
                while c.peek() != Some(&'}') {
                    let key = Json::string(c);
                    assert_eq!(c.next(), Some(':'));
                    fields.push((key, Json::value(c)));
                    if c.peek() == Some(&',') {
                        c.next();
                        assert_ne!(c.peek(), Some(&'}'), "trailing comma");
                    }
                }
                c.next();
                Json::Obj(fields)
            }
            _ => {
                let mut number = String::new();
                while let Some(d) = c.next_if(|d| d.is_ascii_digit() || "+-.eE".contains(*d)) {
                    number.push(d);
                }
                Json::Num(number.parse().unwrap_or_else(|_| panic!("bad number {number:?}")))
            }
        }
    }

    fn string(c: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
        assert_eq!(c.next(), Some('"'));
        let mut out = String::new();
        loop {
            match c.next().expect("unterminated string") {
                '"' => return out,
                '\\' => match c.next().expect("escape") {
                    'n' => out.push('\n'),
                    'u' => {
                        let hex: String = c.take(4).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                    }
                    other => {
                        assert!("\"\\/".contains(other), "unknown escape \\{other}");
                        out.push(other);
                    }
                },
                raw => {
                    assert!(raw as u32 >= 0x20, "raw control character in a string");
                    out.push(raw);
                }
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// (a) the JSON renderer
// ---------------------------------------------------------------------------

const NASTY: &str = "quote \" backslash \\ newline \n tab \t bell \u{7} ε → é";

fn awkward(_: &Knobs) -> Outcome {
    let mut cells = Table::new(NASTY, &["int", "num", "secs", "pct", "text", "bool"]);
    cells.row(vec![
        Cell::Int(u64::MAX),
        Cell::Num(-1.5e-7),
        Cell::Secs(Duration::from_millis(1500)),
        Cell::Pct(0.25),
        Cell::Text(NASTY.into()),
        Cell::Bool(true),
    ]);
    cells.row(vec![
        Cell::Int(0),
        Cell::Num(f64::INFINITY),
        Cell::Secs(Duration::ZERO),
        Cell::Pct(f64::NAN),
        Cell::Text(String::new()),
        Cell::Bool(false),
    ]);
    let mut out = Outcome::new(vec![cells, Table::new("no rows", &["only"])]);
    out.claim(true, NASTY);
    out
}

#[test]
fn an_artifact_round_trips_through_an_independent_reader() {
    let dir = scratch_dir("round-trip");
    let exp = Experiment { name: "awkward", title: NASTY, run: awkward };
    let report = run(&exp, &KNOBS, &dir);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!(report.artifact, dir.join("BENCH_awkward.json"));

    let text = std::fs::read_to_string(&report.artifact).unwrap();
    assert!(text.ends_with("}\n") && text.lines().count() == 1, "one line, newline-terminated");
    let doc = Json::parse(&text);
    assert_eq!(doc.get("experiment"), &Json::Str("awkward".into()));
    assert_eq!(doc.get("title"), &Json::Str(NASTY.into()), "escapes decode to the original");
    assert_eq!(doc.get("scale"), &Json::Str("smoke".into()));
    assert!(matches!(doc.get("host_threads"), Json::Num(n) if *n >= 1.0));

    // Tables nest in the document, rows in tables, cells in rows.
    let tables = doc.get("tables").items();
    assert_eq!(tables.len(), 2);
    assert_eq!(tables[0].get("title"), &Json::Str(NASTY.into()));
    assert_eq!(tables[0].get("columns").items().len(), 6);
    let rows = tables[0].get("rows").items();
    assert_eq!(
        rows[0].items(),
        [
            Json::Num(u64::MAX as f64),
            Json::Num(-1.5e-7),
            Json::Num(1.5),
            Json::Num(0.25),
            Json::Str(NASTY.into()),
            Json::Bool(true),
        ]
    );
    // Non-finite floats have no JSON spelling: null, whatever the cell type.
    assert_eq!(
        rows[1].items(),
        [
            Json::Num(0.0),
            Json::Null,
            Json::Num(0.0),
            Json::Null,
            Json::Str(String::new()),
            Json::Bool(false),
        ]
    );
    assert_eq!(tables[1].get("columns").items(), [Json::Str("only".into())]);
    assert_eq!(tables[1].get("rows").items(), []);

    let claims = doc.get("claims").items();
    assert_eq!(claims.len(), 1);
    assert_eq!(claims[0].get("text"), &Json::Str(NASTY.into()));
    assert_eq!(claims[0].get("holds"), &Json::Bool(true));
    std::fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------------
// (b) the sequencer: report, then artifact, then the verdict
// ---------------------------------------------------------------------------

fn one_broken_gate(_: &Knobs) -> Outcome {
    let mut t = Table::new("measured", &["size", "cut"]);
    t.row(vec![Cell::Int(24), Cell::Num(2.25)]);
    t.row(vec![Cell::Int(200), Cell::Num(3.5)]);
    let mut out = Outcome::new(vec![t]);
    out.claim(true, "the study ran");
    out.claim(false, "cut ≥ 4× at |W| = 200: got 3.50×");
    out
}

#[test]
fn a_violated_claim_is_reported_after_its_report_and_artifact_are_out() {
    let dir = scratch_dir("violated");
    let exp = Experiment { name: "broken", title: "a gate that fails", run: one_broken_gate };
    let report = run(&exp, &KNOBS, &dir);

    // The text report is complete: header, aligned table, both verdicts.
    assert!(report.text.starts_with("## broken — a gate that fails\n"), "{}", report.text);
    assert!(report.text.contains("\nmeasured\n  size  cut\n  24    2.25\n  200   3.50\n"));
    assert!(report.text.contains("[ok] the study ran\n"));
    assert!(report.text.contains("[VIOLATED] cut ≥ 4× at |W| = 200: got 3.50×\n"));

    // The artifact is on disk, whole, and records the violated claim too.
    let doc = Json::parse(&std::fs::read_to_string(dir.join("BENCH_broken.json")).unwrap());
    assert_eq!(doc.get("tables").items()[0].get("rows").items().len(), 2);
    let holds: Vec<&Json> = doc.get("claims").items().iter().map(|c| c.get("holds")).collect();
    assert_eq!(holds, [&Json::Bool(true), &Json::Bool(false)]);

    // Only then the failing status: exactly the violated claim.
    assert_eq!(report.failures, ["cut ≥ 4× at |W| = 200: got 3.50×"]);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_unwritable_artifact_fails_the_run_but_keeps_the_report() {
    let missing = scratch_dir("unwritable").join("no").join("such").join("dir");
    let exp = Experiment { name: "awkward", title: "t", run: awkward };
    let report = run(&exp, &KNOBS, &missing);
    assert!(report.text.contains("no rows"));
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].starts_with("cannot write "), "{:?}", report.failures);
}

#[test]
fn a_single_record_table_reads_as_a_list() {
    fn summary(_: &Knobs) -> Outcome {
        let t = Table::record(
            "totals",
            vec![
                ("pivots", Cell::Int(472)),
                ("wall", Cell::Secs(Duration::from_millis(10))),
                ("share", Cell::Pct(0.875)),
            ],
        );
        Outcome::new(vec![t])
    }
    let dir = scratch_dir("record");
    let report = run(&Experiment { name: "summary", title: "t", run: summary }, &KNOBS, &dir);
    assert!(report.text.ends_with("\ntotals\n  pivots: 472\n  wall: 0.01s\n  share: 87.50%\n"));
    std::fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------------
// (c) the registry
// ---------------------------------------------------------------------------

#[test]
fn names_are_unique_and_all_plus_gates_cover_the_table() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "duplicate experiment name {name}");
        assert!(!["all", "gates"].contains(name), "{name} shadows a group");
        let selected = select(name).expect(name);
        assert_eq!((selected.len(), selected[0].name), (1, *name));
    }
    let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.name).collect();
    let gates: Vec<&str> = select("gates").unwrap().iter().map(|e| e.name).collect();
    assert_eq!(gates, ["compress", "solver", "interactive", "server", "chaos", "scale"]);
    assert!(all.iter().all(|n| !gates.contains(n)), "the groups are disjoint");
    assert_eq!([all, gates].concat(), names, "together they are the whole table, in order");
    assert!(select("fig_compress").is_none() && select("").is_none());
}

#[test]
fn every_invocation_the_docs_show_names_a_real_experiment() {
    let docs = [
        include_str!("../../../README.md"),
        include_str!("../../../.github/workflows/ci.yml"),
        include_str!("../../../.github/workflows/full-scale.yml"),
        include_str!("../src/lib.rs"),
    ];
    let mut shown = 0;
    for doc in docs {
        for (at, marker) in doc.match_indices("cophy-bench -- ") {
            let line = doc[at + marker.len()..].lines().next().unwrap_or("");
            // `<name>… | all | gates` is the usage line; elsewhere a `|` ends
            // the command.
            let usage = line.starts_with('<');
            for word in line.split(['#', '`']).next().unwrap_or("").split_whitespace() {
                match word {
                    "|" if usage => continue,
                    "|" => break,
                    placeholder if placeholder.starts_with('<') => continue,
                    name => assert!(select(name).is_some(), "the docs show `-- {name}`"),
                }
                shown += 1;
            }
        }
    }
    assert!(shown >= 17, "the docs show only {shown} invocations");
}

// ---------------------------------------------------------------------------
// (d) the knobs fail closed
// ---------------------------------------------------------------------------

#[test]
fn unknown_knob_values_are_rejected_with_the_accepted_ones() {
    assert_eq!(Knobs::parse(Some("smoke")), Ok(Knobs { scale: Scale::Smoke }));
    assert_eq!(Knobs::parse(Some("std")).map(|k| k.scale), Ok(Scale::Std));
    assert_eq!(Knobs::parse(Some("full")).map(|k| k.scale), Ok(Scale::Full));
    assert_eq!(Knobs::parse(None), Ok(Knobs { scale: Scale::Local }));

    for typo in ["smok", "SMOKE", "", "local", "full "] {
        let err = Knobs::parse(Some(typo)).unwrap_err();
        assert!(err.contains("COPHY_SCALE") && err.contains("smoke, std, full"), "{err}");
    }
}
