//! `perf` — one layered benchmark for the whole advisor.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! measures one workload in this process and prints, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  Without `--workload` (or with `--workload all`) it runs
//! every workload in a child process of its own, prints every metric by name
//! with its unit, writes the combined document to `target/perf/result.json`,
//! and with `--check <baseline.json>` compares it against a committed one.
//! See `README.md` beside this package.

mod adapter;
mod clock;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use workloads::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check: Option<String>,
}

const USAGE: &str = "usage: perf [--workload <name>|all] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--check <baseline.json>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        check: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => Some(workloads::find(name).ok_or_else(|| {
                        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name:?}; known: all, {}", known.join(", "))
                    })?),
                };
            }
            "--seed" => {
                let text = value()?;
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                args.seed = parsed.map_err(|e| format!("bad --seed {text:?}: {e}"))?;
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {text:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => args.quick = true,
            "--check" => args.check = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Measure one workload in this process.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let out = workloads::run(w, args.seed, args.seconds, args.trace, args.quick);
    for e in &out.errors {
        eprintln!("perf: {}: {e}", w.name);
    }
    println!("detail {}", report::detail_line(&out).render());
    println!("{}", report::result_line(&out).render());
    ExitCode::SUCCESS
}

/// One child run; returns its result line and its detail line.
fn spawn_run(w: &Workload, args: &Args, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawning {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or(""))?;
    let detail =
        lines.next().and_then(|l| l.strip_prefix("detail ")).map_or(Ok(Json::Null), Json::parse)?;
    Ok((result, detail))
}

/// Every workload, each in its own child process (so peak memory is the
/// workload's own): the untraced pass, then the traced pass if asked for.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    for w in WORKLOADS {
        eprintln!("perf: {} — {}", w.name, w.why);
        let (result, detail) = spawn_run(w, args, false)?;
        let mut all_correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        let mut metrics = Vec::new();
        report::merge_run(&mut metrics, &result, &detail);
        if args.trace {
            let (traced, traced_detail) = spawn_run(w, args, true)?;
            all_correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            report::merge_run(&mut metrics, &traced, &traced_detail);
        }
        let field = |k: &str| result.get(k).cloned().unwrap_or(Json::Null);
        runs.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(all_correct)),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("cycles", detail.get("cycles").cloned().unwrap_or(Json::Null)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::obj(runs)),
    ]);
    report::print_table(&doc);
    let path = workloads::out_dir().join("result.json");
    std::fs::create_dir_all(workloads::out_dir())
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perf: wrote {}", path.display());
    let incorrect = doc
        .get("workloads")
        .map_or(&[][..], Json::entries)
        .iter()
        .filter(|(_, run)| run.get("correct").and_then(Json::as_bool) != Some(true))
        .count();
    let mut regressed = 0;
    if let Some(baseline) = &args.check {
        let text = std::fs::read_to_string(baseline).map_err(|e| format!("{baseline}: {e}"))?;
        regressed = report::check(&Json::parse(&text)?, &doc);
        println!("{regressed} row(s) beyond their bound, {incorrect} workload(s) incorrect");
    }
    println!("{}", doc.render());
    Ok(if regressed + incorrect == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args).unwrap_or_else(|e| {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Kind;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&["--workload", "rich_bb", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.unwrap().name, "rich_bb");
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 10.0, true, false));
        let d = args(&[]).unwrap();
        assert!(d.workload.is_none() && !d.trace);
        assert_eq!((d.seed, d.seconds), (0xC0FFEE, f64::from(RUN_SECONDS)));
        assert_eq!(args(&["--seed", "0xC0FFEE"]).unwrap().seed, 0xC0FFEE);
        for bad in
            [&["--workload", "nope"][..], &["--trace", "2"], &["--seconds", "-1"], &["--seed"]]
        {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// `--quick` (sizes ÷ 10), every workload, both passes, twice: every
    /// count metric must be identical between the two sets, and every run
    /// correct.
    #[test]
    fn quick_mode_repeats_every_count_exactly() {
        let set = || -> Vec<(String, u64)> {
            let mut counts = Vec::new();
            for w in WORKLOADS {
                for trace in [false, true] {
                    let out = workloads::run(w, DEFAULT_SEED, 0.0, trace, true);
                    assert!(out.correct(), "{} trace={trace}: {:?}", w.name, out.errors);
                    assert!(out.attempted >= 1 && out.cycles >= 1);
                    let table = if trace { metrics::PER_LAYER } else { metrics::END_TO_END };
                    assert_eq!(out.metrics.len(), table.len());
                    for (m, value) in &out.metrics {
                        assert!(value.is_finite(), "{} {}", w.name, m.name);
                        if m.kind == Kind::Count {
                            counts.push((format!("{}/{}", w.name, m.name), value.to_bits()));
                        }
                    }
                    if !trace {
                        assert!(
                            out.metrics.iter().all(|(_, v)| *v != 0.0),
                            "{}: {:?}",
                            w.name,
                            out.metrics
                        );
                    }
                }
            }
            counts
        };
        let (first, second) = (set(), set());
        assert!(first.len() > 100, "only {} count metrics compared", first.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a, b, "{} = {} then {}", a.0, f64::from_bits(a.1), f64::from_bits(b.1));
        }
    }
}
