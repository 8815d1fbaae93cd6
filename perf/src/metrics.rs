//! The metric tables.  `BENCHMARK.json` at the repository root lists the same
//! names, units and directions; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether repeated measurements of a metric are samples or one exact value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timing (or a ratio of timings): the median over the cycles and then
    /// over the variants is reported, and it differs from run to run.
    Time,
    /// A timing on the reference core's clock (`clock.rs`), which leaves
    /// little but the variants' inputs to differ: the median over the cycles
    /// and then the mean over the variants, which averages inputs best.
    Work,
    /// A count made by the program: it must repeat exactly across the cycles
    /// of a run and across runs of one seed, or the run fails.  The mean over
    /// the variants is reported.
    Count,
    /// Exact like a count, but so unevenly spread over inputs that a mean
    /// would follow its largest draw (`perf` over `HetGen` inputs was
    /// measured from 9 % to 52 %): the median over the variants is reported.
    Skewed,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> Metric {
    Metric { name, unit, better, kind, bound: Some(bound) }
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, kind: Kind::Time, bound: None }
}

/// A timing-derived number of which more is better.
const fn rate(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, kind: Kind::Time, bound: None }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, kind: Kind::Count, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the advisor sees, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, Kind::Time, 0.25),
    e2e("tune_s", "s", Lower, Kind::Work, 0.25),
    e2e("probes_per_stmt", "count", Lower, Kind::Count, 0.25),
    e2e("improvement_pct", "%", Higher, Kind::Skewed, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Kind::Time, 0.25),
];

/// Single-layer numbers, reported by every workload with `--trace 1` (zero
/// where the layer does not run).  Layer = crate or module name.
pub const PER_LAYER: &[Metric] = &[
    // The traced tune itself, and the quality numbers that are too
    // seed-dependent to carry a bound.
    time("tune.wall_s", "s"),
    rate("tune.cpu_share", "ratio"),
    rate("tune.core_speed", "ratio"),
    count("tune.final_gap", "ratio", Lower),
    count("tune.indexes", "count", Lower),
    count("tune.fail_share", "ratio", Lower),
    time("trace.overhead_pct", "%"),
    time("trace.unattributed_s", "s"),
    // workload: statement generation.
    time("workload.gen_s", "s"),
    count("workload.stmts", "count", Higher),
    time("workload.gen_us_per_stmt", "us"),
    // compress: online clustering of a stream.
    time("compress.absorb_s", "s"),
    time("compress.us_per_stmt", "us"),
    count("compress.reps", "count", Lower),
    count("compress.ratio", "ratio", Higher),
    time("compress.snapshot_ms", "ms"),
    // cgen: candidate generation.
    time("cgen.generate_s", "s"),
    count("cgen.candidates", "count", Lower),
    time("cgen.us_per_candidate", "us"),
    time("cgen.extend_s", "s"),
    // inum: template extraction around the optimizer probes.
    time("inum.prepare_s", "s"),
    time("inum.self_s", "s"),
    count("inum.probes", "count", Lower),
    count("inum.templates", "count", Lower),
    count("inum.templates_per_stmt", "count", Lower),
    count("inum.degraded", "count", Lower),
    time("inum.cost_eval_us", "us"),
    // optimizer: the what-if probes themselves.
    time("optimizer.probe_s", "s"),
    count("optimizer.probes", "count", Lower),
    time("optimizer.probe_us_p50", "us"),
    time("optimizer.probe_us_p95", "us"),
    // bipgen: building the block form or the Theorem-1 model.
    time("bipgen.build_s", "s"),
    count("bipgen.vars", "count", Lower),
    count("bipgen.rows", "count", Lower),
    count("bipgen.nnz", "count", Lower),
    // lagrangian: the block-decomposed solve.
    time("lagrangian.solve_s", "s"),
    count("lagrangian.iters", "count", Lower),
    time("lagrangian.us_per_block_iter", "us"),
    time("lagrangian.first_incumbent_ms", "ms"),
    // lp: the root relaxation, solved standalone.
    time("lp.root_s", "s"),
    count("lp.root_pivots", "count", Lower),
    count("lp.root_refactorizations", "count", Lower),
    // bb: branch-and-bound search.
    time("bb.solve_s", "s"),
    count("bb.nodes", "count", Lower),
    count("bb.pivots", "count", Lower),
    count("bb.pivots_per_node", "count", Lower),
    rate("bb.pivots_per_s", "1/s"),
    count("bb.refactorizations", "count", Lower),
    count("bb.factor_recoveries", "count", Lower),
    time("bb.first_incumbent_ms", "ms"),
    // session: the interactive surface, in process.
    time("session.ingest_s", "s"),
    time("session.open_s", "s"),
    time("session.recommend_ms", "ms"),
    time("session.resolve_ms", "ms"),
    time("session.sweep_point_ms", "ms"),
    time("session.add_ms", "ms"),
    time("session.what_if_us", "us"),
    count("session.state_bytes", "B", Lower),
    // server: the same surface over the wire.
    time("server.tune_p50_ms", "ms"),
    time("server.tune_tail_ms", "ms"),
    count("server.tune_tail_pct", "%", Higher),
    count("server.tune_samples", "count", Higher),
    time("server.sweep_point_p50_ms", "ms"),
    time("server.open_cold_ms", "ms"),
    time("server.open_hit_ms", "ms"),
    time("server.what_if_ms", "ms"),
    time("server.add_ms", "ms"),
    time("server.close_ms", "ms"),
    time("server.wire_overhead_ms", "ms"),
    count("server.cache_hit_rate", "ratio", Higher),
    count("server.busy_rejects", "count", Lower),
    count("server.progress_lines_per_tune", "count", Lower),
    time("server.parse_us", "us"),
    count("server.max_gap", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints.  They must name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).expect(key).items();
            assert_eq!(listed.len(), table.len(), "{key}: metric count");
            for (entry, metric) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("");
                assert_eq!(field("name"), metric.name);
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.as_str(), "{}", metric.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    metric.bound,
                    "{}",
                    metric.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(crate::workloads::RUN_SECONDS))
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
