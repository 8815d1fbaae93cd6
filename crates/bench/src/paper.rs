//! The paper's §5 + Appendix C: one function per table or figure, each
//! returning the rows or series the paper reports.

use std::time::Duration;

use cophy::{CGen, CandidateSet, ChordExplorer, CoPhy, CoPhyOptions, ConstraintSet};
use cophy_advisors::{Advisor, IlpAdvisor, ToolA, ToolB};
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::Workload;

use crate::Cell::{Int, Num, Pct, Secs, Text};
use crate::WorkloadKind::{Het, Hom};
use crate::{
    make_optimizer, make_workload, prepare, run_cophy, timed, CoPhyRun, Knobs, Outcome, Table,
    WorkloadKind,
};

/// One scenario of the evaluation: a system, a data skew, a workload and a
/// storage budget `M` (as a fraction of the data size).
struct Scenario {
    profile: SystemProfile,
    z: f64,
    kind: WorkloadKind,
    n: usize,
    m: f64,
}

/// CoPhy against the commercial advisor of the scenario's system.
struct FaceOff {
    cophy: CoPhyRun,
    tool_perf: f64,
    tool_time: Duration,
}

impl FaceOff {
    /// Ratio of `perf` improvements; > 1 means CoPhy wins.
    fn ratio(&self) -> f64 {
        if self.tool_perf.abs() < 1e-9 {
            f64::INFINITY
        } else {
            self.cophy.perf / self.tool_perf
        }
    }
}

fn face_off(s: Scenario) -> FaceOff {
    let o = make_optimizer(s.profile, s.z);
    let w = make_workload(&o, s.kind, s.n);
    let constraints = ConstraintSet::storage_fraction(o.schema(), s.m);
    let cophy = run_cophy(&o, &w, &constraints, None);
    let tool: Box<dyn Advisor> = match s.profile {
        SystemProfile::A => Box::new(ToolA),
        SystemProfile::B => Box::new(ToolB),
    };
    let (cfg, tool_time) = timed(|| tool.recommend(&o, &w, &constraints));
    FaceOff { cophy, tool_perf: o.perf(&w, &cfg), tool_time }
}

/// The same scenario on System-A (vs Tool-A) and System-B (vs Tool-B).
fn face_off_a_b(z: f64, kind: WorkloadKind, n: usize, m: f64) -> [FaceOff; 2] {
    [SystemProfile::A, SystemProfile::B]
        .map(|profile| face_off(Scenario { profile, z, kind, n, m }))
}

/// Table 1: CoPhy vs the commercial advisors across data skew and workload
/// diversity.
pub(crate) fn table1(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let mut t = Table::new(
        "perf(CoPhy)/perf(Tool) ratios, M=1",
        &["z", "workload", "CoPhyA/ToolA", "CoPhyB/ToolB"],
    );
    for z in [0.0, 2.0] {
        for kind in [Hom, Het] {
            let [a, b] = face_off_a_b(z, kind, n, 1.0);
            t.row(vec![Num(z), Text(format!("{kind}{n}")), Num(a.ratio()), Num(b.ratio())]);
        }
    }
    Outcome::new(vec![t])
}

/// Figure 4: advisor execution time vs workload size.
pub(crate) fn fig4(k: &Knobs) -> Outcome {
    let mut t = Table::new("execution time", &["size", "Tool-A", "CoPhy-A", "Tool-B", "CoPhy-B"]);
    for n in k.scale.sizes() {
        let [a, b] = face_off_a_b(0.0, Hom, n, 1.0);
        t.row(vec![
            Int(n as u64),
            Secs(a.tool_time),
            Secs(a.cophy.stats.total_time()),
            Secs(b.tool_time),
            Secs(b.cophy.stats.total_time()),
        ]);
    }
    Outcome::new(vec![t])
}

/// The INUM/build/solve time-split table of fig5 and fig10.
fn time_split_table(title: String, key: &'static str) -> Table {
    Table::new(title, &[key, "tool", "INUM", "build", "solve", "total"])
}

/// CoPhy and ILP on the same workload, candidates and constraints: two rows
/// of a [`time_split_table`].
fn time_split_rows(
    t: &mut Table,
    key: &str,
    o: &WhatIfOptimizer,
    w: &Workload,
    cands: &CandidateSet,
    constraints: &ConstraintSet,
) {
    let cophy = run_cophy(o, w, constraints, Some(cands)).stats;
    let (_, ilp) = IlpAdvisor::default().recommend_with_stats(o, w, cands, constraints);
    let ilp_total = ilp.inum_time + ilp.build_time + ilp.solve_time;
    for (tool, inum, build, solve, total) in [
        ("CoPhy", cophy.inum_time, cophy.build_time, cophy.solve_time, cophy.total_time()),
        ("ILP", ilp.inum_time, ilp.build_time, ilp.solve_time, ilp_total),
    ] {
        t.row(vec![
            Text(key.into()),
            Text(tool.into()),
            Secs(inum),
            Secs(build),
            Secs(solve),
            Secs(total),
        ]);
    }
}

/// Figure 5: CoPhy vs ILP, time split (INUM/build/solve) vs candidate count
/// (500 / 1000 / S_ALL / S_L) on the default workload.  `S_L` is the
/// paper's 10 000-candidate point; `pad_random` draws only one- and
/// two-column keys, so on a small schema it saturates well below that, and
/// every label states the count the set really ran with.
pub(crate) fn fig5(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, Hom, n);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
    let s_all = CGen::default().generate(o.schema(), &w);

    let mut sets: Vec<(String, CandidateSet)> = Vec::new();
    for cut in [500usize, 1000] {
        if s_all.len() > cut {
            sets.push((cut.to_string(), s_all.truncate(cut)));
        }
    }
    sets.push((format!("S_ALL({})", s_all.len()), s_all.clone()));
    let mut padded = s_all.clone();
    padded.pad_random(o.schema(), 10_000, 99);
    sets.push((format!("S_L({})", padded.len()), padded));

    let mut t = time_split_table(format!("time split vs candidate-set size, W_hom{n}"), "cands");
    for (label, cands) in &sets {
        time_split_rows(&mut t, label, &o, &w, cands, &constraints);
    }
    let mut out = Outcome::new(vec![t]);
    // A label is a bare count or `NAME(count)`: its digits are the count.
    let honest = sets.iter().all(|(label, cands)| {
        let digits: String = label.chars().filter(char::is_ascii_digit).collect();
        digits == cands.len().to_string()
    });
    let ran: Vec<String> =
        sets.iter().map(|(label, cands)| format!("{label} ran {}", cands.len())).collect();
    out.claim(
        honest,
        format!("every candidate set is labelled with the count it ran with: {}", ran.join(", ")),
    );
    out
}

/// Figure 6a: anytime optimality-gap feedback over time for three workload
/// sizes.
pub(crate) fn fig6a(k: &Knobs) -> Outcome {
    let mut t = Table::new("proven gap over solver time", &["size", "t_ms", "gap"]);
    for n in k.scale.sizes() {
        let o = make_optimizer(SystemProfile::A, 0.0);
        let w = make_workload(&o, Hom, n);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let cophy = CoPhy::new(
            &o,
            CoPhyOptions {
                budget: cophy::SolveBudget {
                    gap_limit: 1e-4,
                    node_limit: Some(400),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let prepared = prepare(&o, &w);
        let cands = CGen::default().generate(o.schema(), &w);
        let rec = cophy
            .try_tune_prepared(&prepared, &cands, &constraints, Duration::ZERO, 0, |_| {})
            .expect("feasible");
        for p in rec.trace.iter().filter(|p| p.gap.is_finite()) {
            t.row(vec![Int(n as u64), Num(p.at.as_secs_f64() * 1e3), Pct(p.gap)]);
        }
    }
    Outcome::new(vec![t])
}

/// Figure 6b: re-solve time after adding +10/+25/+50/+100 candidates to an
/// initial S_1000 (warm-started interactive session).
pub(crate) fn fig6b(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, Hom, n);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let mut session = cophy
        .try_session(&w, ConstraintSet::storage_fraction(o.schema(), 1.0))
        .expect("session opens");

    // Reserve some candidates to inject later.
    let s_all = CGen { max_key_columns: 3, max_include_columns: 6 }.generate(o.schema(), &w);
    let mut extra = s_all.clone();
    extra.pad_random(o.schema(), s_all.len() + 120, 7);
    let pool: Vec<_> = extra.iter().skip(s_all.len()).map(|(_, ix)| ix.clone()).collect();

    let mut t = Table::new(
        format!("re-solve time after candidate deltas, W_hom{n}"),
        &["step", "solve", "total"],
    );
    let (r0, t0) = timed(|| session.recommend());
    t.row(vec![
        Text(format!("initial (S={})", r0.stats.n_candidates)),
        Secs(r0.stats.solve_time),
        Secs(t0),
    ]);
    let mut taken = 0usize;
    for delta in [10usize, 25, 50, 100] {
        let add: Vec<_> = pool.iter().skip(taken).take(delta - taken).cloned().collect();
        taken = delta;
        session.add_candidates(add);
        let (r, total) = timed(|| session.recommend());
        t.row(vec![Text(format!("+{delta} candidates")), Secs(r.stats.solve_time), Secs(total)]);
    }
    Outcome::new(vec![t])
}

/// Figure 6c: time per Pareto point for a soft storage constraint (Chord
/// algorithm with warm starts vs naive cold re-solves).
pub(crate) fn fig6c(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, Hom, n);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let prepared = prepare(&o, &w);
    let cands = CGen::default().generate(o.schema(), &w);

    let explorer = ChordExplorer { max_points: 5 };
    let (points, total_warm) = timed(|| explorer.explore(&cophy, &prepared, &cands));

    let mut per_point = Table::new(
        format!("Pareto-point generation times, W_hom{n}"),
        &["lambda", "solve", "size_mb", "cost"],
    );
    for p in &points {
        per_point.row(vec![
            Num(p.lambda),
            Secs(p.solve_time),
            Num(p.size_bytes as f64 / 1e6),
            Num(p.workload_cost),
        ]);
    }
    // Naive: re-solve each λ cold.
    let (_, total_cold) = timed(|| {
        for _ in points.iter().filter(|p| p.lambda > 0.0) {
            // max_points=1 solves exactly the λ=1 extreme; emulate cold cost
            // by exploring a single point per λ via a fresh explorer run.
            let e = ChordExplorer { max_points: 1 };
            let _ = e.explore(&cophy, &prepared, &cands);
        }
    });
    let totals = Table::record(
        "chord + warm starts vs naive cold",
        vec![
            ("warm", Secs(total_warm)),
            ("cold", Secs(total_cold)),
            ("speedup", Num(total_cold.as_secs_f64() / total_warm.as_secs_f64().max(1e-9))),
        ],
    );
    Outcome::new(vec![per_point, totals])
}

/// Figure 7 (Appendix C): solution quality (% speedup) vs workload size.
pub(crate) fn fig7(k: &Knobs) -> Outcome {
    let mut t = Table::new("% speedup", &["size", "Tool-A", "CoPhy-A", "Tool-B", "CoPhy-B"]);
    for n in k.scale.sizes() {
        let [a, b] = face_off_a_b(0.0, Hom, n, 1.0);
        t.row(vec![
            Int(n as u64),
            Pct(a.tool_perf),
            Pct(a.cophy.perf),
            Pct(b.tool_perf),
            Pct(b.cophy.perf),
        ]);
    }
    Outcome::new(vec![t])
}

/// Figure 8 (Appendix C): quality ratios vs storage budget M ∈ {0.5, 1, 2}.
pub(crate) fn fig8(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let mut t = Table::new(
        format!("speedup ratios vs space budget, W_hom{n}"),
        &["M", "CoPhyA/ToolA", "CoPhyB/ToolB"],
    );
    for m in [0.5, 1.0, 2.0] {
        let [a, b] = face_off_a_b(0.0, Hom, n, m);
        t.row(vec![Num(m), Num(a.ratio()), Num(b.ratio())]);
    }
    Outcome::new(vec![t])
}

/// Figure 9 (Appendix C): heterogeneous workloads on System-B.
pub(crate) fn fig9(k: &Knobs) -> Outcome {
    let mut t = Table::new("% speedup", &["size", "Tool-B", "CoPhy-B"]);
    for n in k.scale.sizes() {
        let b = face_off(Scenario { profile: SystemProfile::B, z: 0.0, kind: Het, n, m: 1.0 });
        t.row(vec![Int(n as u64), Pct(b.tool_perf), Pct(b.cophy.perf)]);
    }
    Outcome::new(vec![t])
}

/// Figure 10 (Appendix C): CoPhy vs ILP time split vs workload size.
pub(crate) fn fig10(k: &Knobs) -> Outcome {
    let mut t = time_split_table("time split vs workload size".into(), "size");
    for n in k.scale.sizes() {
        let o = make_optimizer(SystemProfile::A, 0.0);
        let w = make_workload(&o, Hom, n);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
        let cands = CGen::default().generate(o.schema(), &w);
        time_split_rows(&mut t, &n.to_string(), &o, &w, &cands, &constraints);
    }
    Outcome::new(vec![t])
}

/// Appendix C data-skew study: z = 1 quality on W_hom.
pub(crate) fn skew(k: &Knobs) -> Outcome {
    let n = k.scale.default_size();
    let mut t = Table::new(format!("% speedup at z=1, W_hom{n}"), &["system", "Tool", "CoPhy"]);
    for (system, f) in ["System-A", "System-B"].into_iter().zip(face_off_a_b(1.0, Hom, n, 1.0)) {
        t.row(vec![Text(system.into()), Pct(f.tool_perf), Pct(f.cophy.perf)]);
    }
    Outcome::new(vec![t])
}
