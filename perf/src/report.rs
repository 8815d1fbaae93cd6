//! What the command prints: the result line of one run, the table and the
//! combined document of a whole set, and the comparison against a baseline.

use crate::json::Json;
use crate::metrics::{self, Better, Kind, Metric};
use crate::workloads::Outcome;

/// The last line of a run's standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|(m, value)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::Str(m.unit.into()))]),
                )
            })),
        ),
    ])
}

/// The line before it, for people and for the parent of a whole set: the
/// cycles run, the spread of each timing across them, each variant's value
/// of every end-to-end metric, and any errors.
pub fn detail_line(out: &Outcome) -> Json {
    Json::obj([
        ("cycles", Json::Num(out.cycles as f64)),
        ("spread", Json::obj(out.spreads.iter().map(|(name, s)| (*name, Json::Num(*s))))),
        (
            "per_variant",
            Json::obj(out.per_variant.iter().map(|(name, values)| {
                (*name, Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()))
            })),
        ),
        ("errors", Json::Arr(out.errors.iter().map(|e| Json::Str(e.clone())).collect())),
    ])
}

/// One workload's share of the combined document.
pub fn merge_run(into: &mut Vec<(String, Json)>, result: &Json, detail: &Json) {
    let entries = |doc: &'_ Json, key: &str| doc.get(key).map_or(&[][..], Json::entries).to_vec();
    for (name, metric) in entries(result, "metrics") {
        into.push((name, metric));
    }
    for (name, spread) in &entries(detail, "spread") {
        if let Some((_, Json::Obj(fields))) = into.iter_mut().find(|(n, _)| n == name) {
            fields.push(("spread".into(), spread.clone()));
        }
    }
}

/// Value of `workload`/`metric` in a combined document.
fn lookup<'a>(doc: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)
}

fn fmt(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.2}")
    } else if a >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Every metric of every workload by name, with its unit.
pub fn print_table(doc: &Json) {
    let workloads = doc.get("workloads").map_or(&[][..], Json::entries);
    for (title, table) in [("end to end", metrics::END_TO_END), ("per layer", metrics::PER_LAYER)] {
        if !workloads.iter().any(|(w, _)| lookup(doc, w, table[0].name).is_some()) {
            continue;
        }
        println!("\n== {title} ==");
        print!("{:<32}{:>7}", "metric", "unit");
        for (w, _) in workloads {
            print!("{w:>17}");
        }
        println!();
        for m in table {
            print!("{:<32}{:>7}", m.name, m.unit);
            for (w, _) in workloads {
                let value =
                    lookup(doc, w, m.name).and_then(|v| v.get("value")).and_then(Json::as_f64);
                print!("{:>17}", value.map_or("-".into(), fmt));
            }
            println!();
        }
    }
    print_shares(doc);
    for (w, run) in workloads {
        let n = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{w}: correct={} attempted={} failed={} fail_share={}",
            run.get("correct").and_then(Json::as_bool).unwrap_or(false),
            n("attempted"),
            n("failed"),
            fmt(n("failed") / n("attempted").max(1.0)),
        );
    }
}

/// Where a traced tune's wall time went, layer by layer, as shares.
fn print_shares(doc: &Json) {
    const LAYERS: &[(&str, &[&str])] = &[
        ("workload", &["workload.gen_s"]),
        ("compress", &["compress.absorb_s"]),
        ("cgen", &["cgen.generate_s"]),
        ("inum", &["inum.self_s"]),
        ("optimizer", &["optimizer.probe_s"]),
        ("bipgen", &["bipgen.build_s"]),
        ("lagrangian", &["lagrangian.solve_s"]),
        ("bb", &["bb.solve_s"]),
        ("session", &["session.ingest_s"]),
        ("unattributed", &["trace.unattributed_s"]),
    ];
    let workloads = doc.get("workloads").map_or(&[][..], Json::entries);
    let value = |w: &str, m: &str| {
        lookup(doc, w, m).and_then(|v| v.get("value")).and_then(Json::as_f64).unwrap_or(0.0)
    };
    let traced: Vec<&str> = workloads
        .iter()
        .map(|(w, _)| w.as_str())
        // The wire workload's wall is two clients' scripts, not one tune.
        .filter(|w| value(w, "tune.wall_s") > 0.0 && value(w, "server.tune_samples") == 0.0)
        .collect();
    if traced.is_empty() {
        return;
    }
    println!("\n== share of the traced tune's wall time, % ==");
    print!("{:<32}{:>7}", "layer", "");
    for w in &traced {
        print!("{w:>17}");
    }
    println!();
    for (layer, parts) in LAYERS {
        print!("{layer:<32}{:>7}", "%");
        for w in &traced {
            // A batch workload is generated during set-up, outside the tune.
            let streamed = value(w, "compress.absorb_s") > 0.0;
            let seconds: f64 = if *layer == "workload" && !streamed {
                0.0
            } else {
                parts.iter().map(|m| value(w, m)).sum()
            };
            print!("{:>17.1}", 100.0 * seconds / value(w, "tune.wall_s"));
        }
        println!();
    }
}

/// How one row of the comparison reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The spread across repetitions exceeds the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
    /// Not in the baseline (or not measured now).
    Missing,
}

/// By how much `current` is worse than `baseline`, as a share of the
/// baseline (negative = better).
fn worsening(m: &Metric, baseline: f64, current: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => current - baseline,
        Better::Higher => baseline - current,
    };
    if baseline == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / baseline.abs()
    }
}

pub fn verdict(m: &Metric, baseline: f64, current: f64, spread: Option<f64>) -> Verdict {
    let Some(bound) = m.bound else { return Verdict::Unchanged };
    let worse = worsening(m, baseline, current);
    if worse > bound {
        Verdict::Regressed
    } else if matches!(m.kind, Kind::Time | Kind::Work) && spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Print one row per (workload, end-to-end metric) with baseline, current,
/// delta and bound; return how many rows regressed.
pub fn check(baseline: &Json, current: &Json) -> usize {
    println!(
        "\n{:<18}{:<18}{:>14}{:>14}{:>9}{:>8}{:>9}  verdict",
        "workload", "metric", "baseline", "current", "delta%", "bound%", "spread%"
    );
    let mut regressed = 0;
    for (w, _) in current.get("workloads").map_or(&[][..], Json::entries) {
        for m in metrics::END_TO_END {
            let field = |doc: &Json, key: &str| {
                lookup(doc, w, m.name).and_then(|v| v.get(key)).and_then(Json::as_f64)
            };
            let spread = field(current, "spread");
            let (row, v) = match (field(baseline, "value"), field(current, "value")) {
                (Some(b), Some(c)) => {
                    let v = verdict(m, b, c, spread);
                    let delta = if b == 0.0 { 0.0 } else { 100.0 * (c - b) / b.abs() };
                    (format!("{:>14}{:>14}{delta:>+9.2}", fmt(b), fmt(c)), v)
                }
                _ => (format!("{:>14}{:>14}{:>9}", "-", "-", "-"), Verdict::Missing),
            };
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{w:<18}{:<18}{row}{:>8.1}{:>9}  {v:?}",
                m.name,
                100.0 * m.bound.unwrap_or(0.0),
                spread.map_or("-".into(), |s| format!("{:.2}", 100.0 * s)),
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        metrics::find(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = metric("tune_s"); // lower is better, bound 25 %
        assert_eq!(verdict(wall, 2.0, 2.2, Some(0.01)), Verdict::Unchanged);
        assert_eq!(verdict(wall, 2.0, 2.6, Some(0.01)), Verdict::Regressed);
        assert_eq!(verdict(wall, 2.0, 1.4, Some(0.01)), Verdict::Better);
        // A spread wider than the bound: cannot call it unchanged.
        assert_eq!(verdict(wall, 2.0, 2.1, Some(0.3)), Verdict::Unresolved);
        assert_eq!(verdict(wall, 2.0, 2.6, Some(0.3)), Verdict::Regressed);
        let gain = metric("improvement_pct"); // higher is better
        assert_eq!(verdict(gain, 50.0, 35.0, None), Verdict::Regressed);
        assert_eq!(verdict(gain, 50.0, 65.0, None), Verdict::Better);
        // Exact counts are never unresolved, whatever spread is attached.
        assert_eq!(verdict(metric("probes_per_stmt"), 10.0, 10.0, Some(9.0)), Verdict::Unchanged);
        // Per-layer metrics carry no bound.
        assert_eq!(verdict(metric("bb.nodes"), 10.0, 99.0, None), Verdict::Unchanged);
    }

    #[test]
    fn check_counts_regressed_rows() {
        let doc = |wall: f64| {
            let metrics = Json::obj([(
                "tune_s",
                Json::obj([("value", Json::Num(wall)), ("unit", Json::Str("s".into()))]),
            )]);
            Json::obj([(
                "workloads",
                Json::obj([("hom_storage", Json::obj([("metrics", metrics)]))]),
            )])
        };
        assert_eq!(check(&doc(1.0), &doc(1.05)), 0);
        assert_eq!(check(&doc(1.0), &doc(1.5)), 1);
    }

    #[test]
    fn merged_runs_carry_value_unit_and_spread() {
        let result = Json::parse(
            r#"{"correct": true, "attempted": 3, "failed": 0,
                "metrics": {"tune_s": {"value": 1.5, "unit": "s"}}}"#,
        )
        .unwrap();
        let detail =
            Json::parse(r#"{"cycles": 3, "spread": {"tune_s": 0.02}, "errors": []}"#).unwrap();
        let mut merged = Vec::new();
        merge_run(&mut merged, &result, &detail);
        let doc = Json::Obj(merged);
        let m = doc.get("tune_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("spread").unwrap().as_f64(), Some(0.02));
    }
}
