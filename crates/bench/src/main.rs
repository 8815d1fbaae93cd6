//! `cargo run --release -p cophy-bench -- <name>… | all | gates` — the one
//! binary over [`cophy_bench::EXPERIMENTS`].

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cophy_bench::{run, select, Experiment, Knobs, EXPERIMENTS};

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut unknown = false;
    for word in std::env::args().skip(1) {
        match select(&word) {
            Some(experiments) => selected.extend(experiments),
            None => {
                eprintln!("unknown experiment `{word}`");
                unknown = true;
            }
        }
    }
    if unknown || selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: cophy-bench <name>… | all | gates\nexperiments: {}", names.join(" "));
        return ExitCode::from(2);
    }
    let knobs = match Knobs::from_env() {
        Ok(knobs) => knobs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    for exp in selected {
        let t0 = Instant::now();
        let report = run(exp, &knobs, Path::new("."));
        println!("{}", report.text);
        println!("[{} took {:.1}s]\n", exp.name, t0.elapsed().as_secs_f64());
        eprintln!("wrote {}", report.artifact.display());
        failures.extend(report.failures.into_iter().map(|f| format!("{}: {f}", exp.name)));
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} violated claim(s):", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
