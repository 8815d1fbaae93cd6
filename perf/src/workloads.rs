//! The six workloads and the two passes that measure them.
//!
//! A run measures one workload in one process (so peak memory is the
//! workload's own).  A workload is a distribution of inputs; a run draws a
//! fixed number of **variants** of it from sub-seeds of `--seed` and tunes
//! each in turn, cycle after cycle, until `--seconds` have passed.  With
//! tracing off every tune goes through the product's front door and the run
//! reports the end-to-end metrics; with tracing on every variant is tuned
//! through the front door and then again with the layers called one by one
//! inside spans — which must reach the bit-identical result — and the run
//! reports the per-layer metrics.
//!
//! A timing is the median over the variants of each variant's median over
//! the cycles (`tune_s`: the mean over the variants); a count is the mean over
//! the variants of each variant's one exact value (a count that differs
//! between two cycles of one variant fails the run).  One tune's cost depends
//! heavily on its input — a single `het_storage` input was measured at
//! 15–27 % improvement and ±10 % time from seed to seed — so the variants
//! are what makes two seeds comparable.  In-process timings are CPU time on
//! the reference core's clock (`clock.rs`); the wire workload waits, and
//! keeps the wall clock.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    self, Counts, Engine, Mix, Scenario, Solver, Tuned, WireRun, WireServer, COST_EVALS,
    SWEEP_POINTS,
};
use crate::clock::{cpu_seconds, Pacer};
use crate::metrics::{Kind, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartile_spread, tail_percentile};
use crate::trace::{Spans, Tracer};

/// How long one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;
pub const DEFAULT_SEED: u64 = 0xC0_FFEE;
/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Set-ups the wire workload times in a row, before each of its runs.
const SETUP_BURST: usize = 16;
/// Statements `improvement_pct` costs through the what-if backend.
const IMPROVEMENT_SAMPLE: usize = 300;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Batch {
        mix: Mix,
        statements: usize,
        solver: Solver,
    },
    Stream {
        hom: usize,
        het_every: usize,
        iters: usize,
    },
    /// Scripts per client thread per variant.
    Wire {
        scripts: usize,
    },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line; `README.md` has the long form.
    pub why: &'static str,
    /// Inputs drawn per run.
    variants: usize,
    shape: Shape,
}

/// Sizes are frozen here and in `BENCHMARK.json`: a size change is a new
/// baseline.  `variants × one tune` is sized so that one cycle takes 4 to 12
/// seconds of an 18-second run on the two-core reference box.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hom_storage",
        why: "Paper Fig. 4: 45 TPC-H-like statements, 3 per template, storage 0.5x; \
              INUM and optimizer probes are ~98% of the tune.",
        variants: 6,
        shape: Shape::Batch {
            mix: Mix::Hom,
            statements: 45,
            solver: Solver::Lagrangian { iters: 400 },
        },
    },
    Workload {
        name: "het_storage",
        why: "Same path, opposite balance: 200 diverse statements, ~1200 candidates; \
              CGen, BIPGen and the Lagrangian solve show here.",
        variants: 10,
        shape: Shape::Batch {
            mix: Mix::Het,
            statements: 200,
            solver: Solver::Lagrangian { iters: 400 },
        },
    },
    Workload {
        name: "het_update",
        why: "50% UPDATEs: update shells, maintenance terms on z and fixed costs; \
              a read-path gain that taxes writes shows as a loss here.",
        variants: 10,
        shape: Shape::Batch {
            mix: Mix::HetUpdate,
            statements: 200,
            solver: Solver::Lagrangian { iters: 400 },
        },
    },
    Workload {
        name: "rich_bb",
        why: "Rich constraints route to branch-and-bound, ended by a 100-node cap: \
              the only workload where LP pivots and search dominate.",
        variants: 8,
        shape: Shape::Batch {
            mix: Mix::Hom,
            statements: 20,
            solver: Solver::BranchBound { nodes: 100 },
        },
    },
    Workload {
        name: "stream_mix",
        why: "A never-materialized stream of 40k statements, compressed online: \
              ingestion and clustering do half the work, INUM sees only representatives.",
        variants: 8,
        shape: Shape::Stream { hom: 40_000, het_every: 4000, iters: 400 },
    },
    Workload {
        name: "wire_interactive",
        why: "The daemon over loopback, closed loop of 2 clients: shared-cache opens, \
              warm re-tunes, what-ifs, adds and sweeps over the real protocol.",
        variants: 5,
        shape: Shape::Wire { scripts: 4 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of variant `i` of a run (SplitMix64 of the pair).
fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// `--quick` draws two variants and divides every size by ten.
    fn variants(&self, quick: bool) -> usize {
        if quick {
            2
        } else {
            self.variants
        }
    }

    /// Build variant `i`'s tuning problem (in-process workloads).
    fn scenario(&self, engine: &Engine, seed: u64, i: usize, quick: bool) -> Scenario {
        let scale = |n: usize| if quick { (n / 10).max(4) } else { n };
        let seed = sub_seed(seed, i);
        match self.shape {
            Shape::Batch { mix, statements, solver } => {
                let solver = match solver {
                    Solver::BranchBound { nodes } => Solver::BranchBound { nodes: scale(nodes) },
                    lagrangian => lagrangian,
                };
                Scenario::batch(engine, mix, seed, scale(statements), solver)
            }
            Shape::Stream { hom, het_every, iters } => {
                Scenario::stream(engine, seed, scale(hom), het_every, iters)
            }
            Shape::Wire { .. } => unreachable!("the wire workload has no in-process scenario"),
        }
    }
}

/// What one run found: the contract's result line plus detail for people.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the pass, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Quartile spread across cycles of each timing measured in ≥ 2 cycles.
    pub spreads: Vec<(&'static str, f64)>,
    /// Per end-to-end metric, each variant's value.
    pub per_variant: Vec<(&'static str, Vec<f64>)>,
    pub cycles: usize,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Samples per metric and variant, reduced to one value per metric at the
/// end of a run.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>);

impl Samples {
    fn push(&mut self, variant: usize, name: &'static str, value: f64) {
        debug_assert!(crate::metrics::find(name).is_some(), "{name} is not a listed metric");
        self.0.entry(name).or_default().entry(variant).or_default().push(value);
    }

    fn push_counts(&mut self, variant: usize, counts: &Counts) {
        for (&name, &value) in counts {
            if crate::metrics::find(name).is_some() {
                self.push(variant, name, value);
            }
        }
    }

    /// Reduce to one value per metric of `table`.  A per-layer metric without
    /// a sample reads 0 (a layer that did not run); an end-to-end metric
    /// without one is an error.
    fn reduce(self, table: &'static [Metric], out: &mut Outcome) {
        for metric in table {
            let Some(by_variant) = self.0.get(metric.name) else {
                if metric.bound.is_some() {
                    out.errors.push(format!("{} has no sample", metric.name));
                }
                out.metrics.push((metric, 0.0));
                continue;
            };
            let mut values = Vec::new();
            for (variant, samples) in by_variant {
                if let Some(bad) = samples.iter().find(|v| !v.is_finite()) {
                    out.errors.push(format!("{} measured {bad}", metric.name));
                }
                match metric.kind {
                    Kind::Time | Kind::Work => values.push(median(samples)),
                    Kind::Count | Kind::Skewed => {
                        if samples.iter().any(|v| v.to_bits() != samples[0].to_bits()) {
                            out.errors.push(format!(
                                "{} of variant {variant} differs across cycles: {samples:?}",
                                metric.name
                            ));
                        }
                        values.push(samples[0]);
                    }
                }
            }
            if matches!(metric.kind, Kind::Time | Kind::Work) {
                // Cycle c's value: the median over the variants measured in it.
                let cycles = by_variant.values().map(Vec::len).min().unwrap_or(0);
                let per_cycle: Vec<f64> = (0..cycles)
                    .map(|c| median(&by_variant.values().map(|s| s[c]).collect::<Vec<_>>()))
                    .collect();
                if let Some(spread) = quartile_spread(&per_cycle) {
                    out.spreads.push((metric.name, spread));
                }
            }
            if metric.bound.is_some() {
                out.per_variant.push((metric.name, values.clone()));
            }
            let value = match metric.kind {
                Kind::Count | Kind::Work => values.iter().sum::<f64>() / values.len() as f64,
                Kind::Time | Kind::Skewed => median(&values),
            };
            out.metrics.push((metric, value));
        }
    }
}

/// Call `unit(cycle, variant)` for every variant in turn, cycle after cycle,
/// until `seconds` have passed and every variant has had a turn; the last
/// cycle may stop part-way, so a run ends within one unit of `seconds`.
/// Returns the complete cycles.
fn cycle_for(seconds: f64, variants: usize, mut unit: impl FnMut(u32, usize)) -> usize {
    let start = Instant::now();
    let mut cycle = 0;
    loop {
        for v in 0..variants {
            if cycle >= 1 && start.elapsed().as_secs_f64() >= seconds {
                return cycle as usize;
            }
            unit(cycle, v);
        }
        cycle += 1;
    }
}

/// Everything about a tune that must repeat exactly.
fn fingerprint(t: &Tuned) -> [u64; 9] {
    [
        t.objective.to_bits(),
        t.bound.to_bits(),
        t.gap.to_bits(),
        t.baseline.to_bits(),
        t.probes,
        t.statements as u64,
        t.candidates as u64,
        t.variables as u64,
        t.indexes() as u64,
    ]
}

/// Sample `peak_rss_mb`: `VmHWM` of this process, in MB.
fn push_peak_rss(samples: &mut Samples, out: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
        line.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
    });
    match kb {
        Some(kb) => samples.push(0, "peak_rss_mb", kb / 1024.0),
        None => out.errors.push("no VmHWM line in /proc/self/status".into()),
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let mut out = Outcome::default();
    let shape = match w.shape {
        Shape::Wire { .. } if quick => Shape::Wire { scripts: 2 },
        shape => shape,
    };
    match (shape, trace) {
        (Shape::Wire { scripts }, false) => {
            wire_end_to_end(w, scripts, seed, seconds, quick, &mut out)
        }
        (Shape::Wire { scripts }, true) => {
            wire_per_layer(w, scripts, seed, seconds, quick, &mut out)
        }
        (_, false) => end_to_end(w, seed, seconds, quick, &mut out),
        (_, true) => per_layer(w, seed, seconds, quick, &mut out),
    }
    out
}

// ---------------------------------------------------------------------------
// In-process workloads.
// ---------------------------------------------------------------------------

/// Set up `SETUP_REPS` times — schema, what-if optimizer, and the
/// materialized input of a batch variant — and keep one of each variant.
fn set_up(w: &Workload, seed: u64, quick: bool, samples: &mut Samples) -> (Engine, Vec<Scenario>) {
    let variants = w.variants(quick);
    let (mut kept, mut scenarios, mut took) = (None, Vec::new(), Vec::new());
    let mut pacer = Pacer::start();
    for i in 0..SETUP_REPS.max(variants) {
        let ((engine, scenario), cpu) = cpu_seconds(|| {
            let engine = Engine::new();
            let scenario = w.scenario(&engine, seed, i % variants, quick);
            (engine, scenario)
        });
        took.push(cpu);
        if scenarios.len() < variants {
            scenarios.push(scenario);
        }
        // Every engine is the same schema and optimizer: keep the first.
        kept.get_or_insert(engine);
    }
    // The whole burst takes a few dozen milliseconds: one pace serves it.
    let (_, speed) = pacer.scale(0.0);
    for (i, cpu) in took.into_iter().enumerate() {
        samples.push(i % variants, "setup_s", cpu * speed);
    }
    (kept.expect("SETUP_REPS > 0"), scenarios)
}

/// What one front-door tune took, in seconds, on both clocks.
#[derive(Debug, Clone, Copy)]
struct Took {
    wall: f64,
    /// CPU time of the process: what `tune_s` reports, once scaled to the
    /// reference core (see `clock.rs`).
    cpu: f64,
}

/// Tune through the front door, check the output, and check it against the
/// variant's earlier tunes.
fn checked_tune(
    scenario: &Scenario,
    engine: &Engine,
    reference: &mut Option<Tuned>,
    out: &mut Outcome,
) -> Option<(Tuned, Took)> {
    let t = Instant::now();
    let (tuned, cpu) = cpu_seconds(|| scenario.tune(engine));
    let took = Took { wall: t.elapsed().as_secs_f64(), cpu };
    out.attempted += 1;
    match tuned.and_then(|tuned| scenario.verify(engine, &tuned).map(|()| tuned)) {
        Ok(tuned) => {
            if reference.as_ref().is_some_and(|r| fingerprint(r) != fingerprint(&tuned)) {
                out.errors.push(format!("a tune differs from the cycle before: {tuned:?}"));
            }
            *reference = Some(tuned.clone());
            Some((tuned, took))
        }
        Err(e) => {
            out.failed += 1;
            out.errors.push(e);
            None
        }
    }
}

fn end_to_end(w: &Workload, seed: u64, seconds: f64, quick: bool, out: &mut Outcome) {
    let mut samples = Samples::default();
    let (engine, scenarios) = set_up(w, seed, quick, &mut samples);
    let mut references: Vec<Option<Tuned>> = vec![None; scenarios.len()];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut pacer = Pacer::start();
    out.cycles = cycle_for(seconds, scenarios.len(), |_, v| {
        let tuned = checked_tune(&scenarios[v], &engine, &mut references[v], out);
        let took = tuned.as_ref().map_or(0.0, |(_, took)| took.cpu);
        let (scaled, _) = pacer.scale(took);
        if let Some((tuned, took)) = tuned {
            samples.push(v, "tune_s", scaled);
            samples.push(v, "probes_per_stmt", tuned.probes as f64 / tuned.statements as f64);
            walls[v].push(took.wall);
        }
    });
    // For people: what the same tunes took on the wall clock.
    let walls = walls.iter().filter(|w| !w.is_empty()).map(|w| median(w)).collect();
    out.per_variant.push(("tune_wall_s", walls));
    for (v, (scenario, tuned)) in scenarios.iter().zip(&references).enumerate() {
        if let Some(tuned) = tuned {
            let improvement = scenario.improvement_pct(&engine, tuned, IMPROVEMENT_SAMPLE);
            samples.push(v, "improvement_pct", improvement);
        }
    }
    push_peak_rss(&mut samples, out);
    samples.reduce(END_TO_END, out);
}

fn per_layer(w: &Workload, seed: u64, seconds: f64, quick: bool, out: &mut Outcome) {
    let mut samples = Samples::default();
    let engine = Engine::new();
    let streamed = matches!(w.shape, Shape::Stream { .. });
    let scenarios: Vec<Scenario> = (0..w.variants(quick))
        .map(|v| {
            let t = Instant::now();
            let scenario = w.scenario(&engine, seed, v, quick);
            let statements = scenario.statements() as f64;
            samples.push(v, "workload.stmts", statements);
            if !streamed {
                // A batch input is generated during set-up, not during the tune.
                let seconds = t.elapsed().as_secs_f64();
                samples.push(v, "workload.gen_s", seconds);
                samples.push(v, "workload.gen_us_per_stmt", seconds * 1e6 / statements);
            }
            scenario
        })
        .collect();

    // Every cycle tunes every variant through the front door untraced and
    // then through the traced mirror, which must reach the front door's
    // result bit for bit; the difference of their walls is the tracing
    // overhead.  Span repetition `cycle * variants + v`.
    let tracer = Tracer::new();
    let mut rep_counts: Vec<(u32, usize, Counts)> = Vec::new();
    let mut references: Vec<Option<Tuned>> = vec![None; scenarios.len()];
    let mut last: Vec<Option<(Tuned, adapter::Prepared)>> =
        scenarios.iter().map(|_| None).collect();
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut clocks: Vec<(usize, f64, f64)> = Vec::new();
    out.cycles = cycle_for(seconds, scenarios.len(), |cycle, v| {
        let scenario = &scenarios[v];
        let rep = cycle * scenarios.len() as u32 + v as u32;
        tracer.set_rep(rep);
        let mut pacer = Pacer::start();
        let Some((reference, took)) = checked_tune(scenario, &engine, &mut references[v], out)
        else {
            return;
        };
        untraced[v].push(took.wall);
        clocks.push((v, took.cpu / took.wall, pacer.scale(took.cpu).1));
        let mut counts = Counts::new();
        out.attempted += 1;
        match scenario.tune_traced(&engine, &tracer, &mut counts) {
            Ok((tuned, layers)) => {
                if fingerprint(&tuned) != fingerprint(&reference) {
                    out.failed += 1;
                    out.errors.push(format!(
                        "traced tune {tuned:?} differs from the front door's {reference:?}"
                    ));
                }
                counts.insert("tune.final_gap", tuned.gap);
                counts.insert("tune.indexes", tuned.indexes() as f64);
                last[v] = Some((tuned, layers));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        rep_counts.push((rep, v, counts));
    });

    // Single-layer measurements, taken once per variant after the last cycle.
    let extras_base = (out.cycles as u32 + 1) * scenarios.len() as u32;
    let mut extras: Vec<(u32, usize, Counts)> = Vec::new();
    for (v, last) in last.iter().enumerate() {
        let Some((tuned, layers)) = last else { continue };
        let rep = extras_base + v as u32;
        tracer.set_rep(rep);
        let mut counts = Counts::new();
        scenarios[v].probe_layers(&engine, &tracer, &mut counts, tuned, layers);
        extras.push((rep, v, counts));
    }
    let spans = tracer.finish();

    // Per variant: what the stream's replays measured alone.
    let mut replayed = vec![0.0; scenarios.len()];
    for (rep, v, counts) in &extras {
        let (rep, v) = (*rep, *v);
        let x = |name: &str| spans.total(name, rep);
        let statements = scenarios[v].statements() as f64;
        samples.push_counts(v, counts);
        samples.push(v, "cgen.extend_s", x("cgen.extend"));
        samples.push(v, "inum.cost_eval_us", x("inum.cost_eval") * 1e6 / COST_EVALS as f64);
        samples.push(v, "lp.root_s", x("lp.root"));
        if streamed {
            let inum_self = spans.total_self("replay.inum", rep);
            samples.push(v, "workload.gen_s", x("replay.generate"));
            samples.push(v, "workload.gen_us_per_stmt", x("replay.generate") * 1e6 / statements);
            samples.push(v, "compress.absorb_s", x("compress.absorb"));
            samples.push(v, "compress.us_per_stmt", x("compress.absorb") * 1e6 / statements);
            samples.push(v, "compress.snapshot_ms", x("compress.snapshot") * 1e3);
            samples.push(v, "cgen.generate_s", x("replay.cgen"));
            samples.push(v, "inum.prepare_s", x("replay.inum"));
            samples.push(v, "inum.self_s", inum_self);
            replayed[v] = x("compress.absorb") + x("replay.cgen") + inum_self;
        }
    }

    // Per traced tune.
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    for (rep, v, counts) in &rep_counts {
        let (rep, v) = (*rep, *v);
        let t = |name: &str| spans.total(name, rep);
        let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        samples.push_counts(v, counts);
        traced[v].push(t("tune.front_door"));
        samples.push(v, "tune.wall_s", t("tune.front_door"));
        samples.push(v, "trace.unattributed_s", spans.total_self("tune.front_door", rep));
        let probes: Vec<f64> =
            spans.durations("optimizer.probe", rep).iter().map(|s| s * 1e6).collect();
        samples.push(v, "optimizer.probe_s", t("optimizer.probe"));
        samples.push(v, "optimizer.probes", probes.len() as f64);
        if !probes.is_empty() {
            samples.push(v, "optimizer.probe_us_p50", percentile(&probes, 50));
            samples.push(v, "optimizer.probe_us_p95", percentile(&probes, 95));
        }
        let generate = if streamed {
            // The ingest span holds generation and probes (its children),
            // clustering, INUM and CGen over the new representatives, and
            // the session's own work; the replays measured the middle three.
            let own = spans.total_self("session.ingest", rep) - replayed[v];
            samples.push(v, "session.ingest_s", own.max(0.0));
            spans.total("replay.cgen", extras_base + v as u32)
        } else {
            samples.push(v, "cgen.generate_s", t("cgen.generate"));
            samples.push(v, "inum.prepare_s", t("inum.prepare"));
            samples.push(v, "inum.self_s", spans.total_self("inum.prepare", rep));
            t("cgen.generate")
        };
        if count("cgen.candidates") > 0.0 {
            samples.push(v, "cgen.us_per_candidate", generate * 1e6 / count("cgen.candidates"));
        }
        samples.push(v, "bipgen.build_s", t("bipgen.build") + t("bipgen.seed_build"));
        let solve = t("lagrangian.solve");
        samples.push(v, "lagrangian.solve_s", solve + t("lagrangian.seed_solve"));
        let block_iters = count("lagrangian.iters") * count("lagrangian.blocks");
        if block_iters > 0.0 {
            samples.push(v, "lagrangian.us_per_block_iter", solve * 1e6 / block_iters);
        }
        let bb = t("bb.solve");
        samples.push(v, "bb.solve_s", bb);
        if count("bb.nodes") > 0.0 {
            samples.push(v, "bb.pivots_per_node", count("bb.pivots") / count("bb.nodes"));
            samples.push(v, "bb.pivots_per_s", count("bb.pivots") / bb);
        }
    }
    for (v, (traced, untraced)) in traced.iter().zip(&untraced).enumerate() {
        if !(traced.is_empty() || untraced.is_empty()) {
            let overhead = 100.0 * (median(traced) - median(untraced)) / median(untraced);
            samples.push(v, "trace.overhead_pct", overhead);
        }
    }
    for (v, cpu_share, core_speed) in clocks {
        samples.push(v, "tune.cpu_share", cpu_share);
        samples.push(v, "tune.core_speed", core_speed);
    }
    samples.push(0, "tune.fail_share", out.failed as f64 / out.attempted.max(1) as f64);
    write_trace(w, &spans, out);
    samples.reduce(PER_LAYER, out);
}

/// Where raw results and traces go: `$CARGO_TARGET_DIR/perf`, or
/// `target/perf` under the working directory.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("perf")
}

fn write_trace(w: &Workload, spans: &Spans, out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    if let Err(e) = spans.write_jsonl(&path, w.name) {
        out.errors.push(format!("writing {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// The interactive workload.
// ---------------------------------------------------------------------------

/// Counts of a wire run that must repeat exactly.
fn wire_fingerprint(run: &WireRun) -> [u64; 7] {
    [
        run.requests,
        run.probes,
        run.statements,
        run.cache_hits,
        run.cache_misses,
        run.progress_lines,
        run.max_gap.to_bits(),
    ]
}

/// Cycle over the variants for `seconds`; a variant is one closed-loop run
/// of the scripts against a fresh daemon (whose bind + spawn is the
/// workload's set-up) over specs drawn from the variant's sub-seed.  A
/// variant's first run is checked against the in-process advisor as soon as
/// it ends, inside the loop, so that the check is part of `seconds`.
/// Returns each variant's runs and the `improvement_pct` the check computed.
fn wire_cycles(
    variants: usize,
    engine: &Engine,
    scripts: usize,
    seed: u64,
    seconds: f64,
    samples: &mut Samples,
    out: &mut Outcome,
) -> (Vec<Vec<WireRun>>, Vec<(usize, f64)>) {
    // Set-up is the daemon's bind + spawn, timed like the in-process set-ups
    // (CPU time at the core's pace) in bursts spread over the run: a thread
    // spawn costs 25 to 75 µs depending on how warm the core is.
    let mut set_up_burst = |v: usize| {
        let mut pacer = Pacer::start();
        let took: Vec<f64> = (0..SETUP_BURST)
            .filter_map(|_| {
                let (server, cpu) = cpu_seconds(WireServer::start);
                server.ok()?.stop();
                Some(cpu)
            })
            .collect();
        let (_, speed) = pacer.scale(0.0);
        for cpu in took {
            samples.push(v, "setup_s", cpu * speed);
        }
    };
    let mut runs: Vec<Vec<WireRun>> = (0..variants).map(|_| Vec::new()).collect();
    let mut improvements = Vec::new();
    let mut bursts = 0;
    out.cycles = cycle_for(seconds, runs.len(), |_, v| {
        set_up_burst(v);
        bursts += 1;
        let server = match WireServer::start() {
            Ok(server) => server,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(format!("bind: {e}"));
                return;
            }
        };
        let mut run = adapter::wire_run(&server, sub_seed(seed, v), scripts);
        server.stop();
        out.attempted += run.requests;
        out.failed += run.failed;
        out.errors.append(&mut run.errors);
        match runs[v].first() {
            Some(first) if wire_fingerprint(first) != wire_fingerprint(&run) => {
                out.errors.push(format!(
                    "wire counts of variant {v} differ from the cycle before: {:?}",
                    wire_fingerprint(&run)
                ));
            }
            Some(_) => {}
            None => {
                out.attempted += 1;
                match adapter::wire_verify(engine, &run) {
                    Ok(improvement) => improvements.push((v, improvement)),
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(e);
                    }
                }
            }
        }
        runs[v].push(run);
    });
    for burst in bursts..SETUP_REPS.div_ceil(SETUP_BURST) {
        set_up_burst(burst % variants);
    }
    (runs, improvements)
}

fn wire_end_to_end(
    w: &Workload,
    scripts: usize,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: &mut Outcome,
) {
    let mut samples = Samples::default();
    let engine = Engine::new();
    let (runs, improvements) =
        wire_cycles(w.variants(quick), &engine, scripts, seed, seconds, &mut samples, out);
    for (v, improvement) in improvements {
        samples.push(v, "improvement_pct", improvement);
    }
    for (v, runs) in runs.iter().enumerate() {
        for run in runs {
            // On the wire the front door is the `tune` verb, and a tune is
            // mostly waiting: wall time, the median request of each run.
            if let Some(tunes) = run.samples.get("tune") {
                samples.push(v, "tune_s", median(tunes));
            }
            samples.push(v, "probes_per_stmt", run.probes as f64 / run.statements.max(1) as f64);
        }
    }
    push_peak_rss(&mut samples, out);
    samples.reduce(END_TO_END, out);
}

fn wire_per_layer(
    w: &Workload,
    scripts: usize,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: &mut Outcome,
) {
    let mut samples = Samples::default();
    // Most of the run goes to the wire, where the latencies are long.
    let engine = Engine::new();
    let (runs, _) = wire_cycles(
        w.variants(quick),
        &engine,
        scripts,
        seed,
        seconds * 0.7,
        &mut Samples::default(),
        out,
    );
    let mut tunes = Vec::new();
    for (v, runs) in runs.iter().enumerate() {
        for run in runs {
            let mut each = |metric: &'static str, name: &str, scale: f64| {
                for seconds in run.samples.get(name).into_iter().flatten() {
                    samples.push(v, metric, seconds * scale);
                }
            };
            each("server.tune_p50_ms", "tune", 1e3);
            each("server.sweep_point_p50_ms", "sweep_point", 1e3);
            each("server.open_cold_ms", "open_cold", 1e3);
            each("server.open_hit_ms", "open_hit", 1e3);
            each("server.what_if_ms", "what_if", 1e3);
            each("server.add_ms", "add", 1e3);
            each("server.close_ms", "close", 1e3);
            each("tune.wall_s", "script", 1.0);
            tunes.extend(run.samples.get("tune").into_iter().flatten().map(|s| s * 1e3));
        }
        if let Some(run) = runs.first() {
            let opens = (run.cache_hits + run.cache_misses).max(1);
            let tunes = run.samples.get("tune").map_or(1, Vec::len).max(1);
            samples.push(v, "server.cache_hit_rate", run.cache_hits as f64 / opens as f64);
            samples.push(v, "server.busy_rejects", run.busy_rejects as f64);
            samples.push(
                v,
                "server.progress_lines_per_tune",
                run.progress_lines as f64 / tunes as f64,
            );
            samples.push(v, "workload.stmts", run.statements as f64);
            samples.push(v, "server.max_gap", run.max_gap);
            samples.push(v, "tune.final_gap", run.max_gap);
        }
    }
    samples.push(0, "server.tune_samples", tunes.len() as f64);
    if let Some(p) = tail_percentile(tunes.len()) {
        samples.push(0, "server.tune_tail_ms", percentile(&tunes, p));
        samples.push(0, "server.tune_tail_pct", f64::from(p));
    }
    samples.push(0, "server.parse_us", adapter::protocol_round_trip_us());

    // The same scripts against `TuningSession`, in process, on one thread.
    let tracer = Tracer::new();
    let variants = runs.len();
    let mut rep_counts: Vec<(u32, usize, Counts)> = Vec::new();
    let session_cycles = cycle_for(seconds * 0.3, variants, |cycle, v| {
        let rep = cycle * variants as u32 + v as u32;
        tracer.set_rep(rep);
        let mut counts = Counts::new();
        out.attempted += 1;
        let script =
            adapter::session_script(&engine, &tracer, &mut counts, sub_seed(seed, v), scripts);
        if let Err(e) = script {
            out.failed += 1;
            out.errors.push(e);
        }
        rep_counts.push((rep, v, counts));
    });
    let spans = tracer.finish();
    let mut recommends = Vec::new();
    for (rep, v, counts) in &rep_counts {
        let (rep, v) = (*rep, *v);
        samples.push_counts(v, counts);
        let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        if count("bb.nodes") > 0.0 {
            samples.push(v, "bb.pivots_per_node", count("bb.pivots") / count("bb.nodes"));
            samples.push(v, "bb.pivots_per_s", count("bb.pivots") / count("bb.solve_s"));
        }
        samples.push(v, "lp.root_s", spans.total("lp.root", rep));
        samples.push(v, "optimizer.probe_s", spans.total("optimizer.probe", rep));
        samples.push(v, "optimizer.probes", spans.count("optimizer.probe", rep) as f64);
        samples.push(v, "inum.probes", spans.count("optimizer.probe", rep) as f64);
        let points = spans.count("session.sweep", rep) * SWEEP_POINTS;
        if points > 0 {
            let per_point = spans.total("session.sweep", rep) * 1e3 / points as f64;
            samples.push(v, "session.sweep_point_ms", per_point);
        }
        let mut each = |metric: &'static str, name: &str, scale: f64| {
            for seconds in spans.durations(name, rep) {
                samples.push(v, metric, seconds * scale);
            }
        };
        each("session.open_s", "session.open", 1.0);
        each("session.recommend_ms", "session.recommend", 1e3);
        each("session.resolve_ms", "session.resolve", 1e3);
        each("session.add_ms", "session.add", 1e3);
        each("session.what_if_us", "session.what_if", 1e6);
        each("optimizer.probe_us_p50", "optimizer.probe", 1e6);
        let probes = spans.durations("optimizer.probe", rep);
        if !probes.is_empty() {
            samples.push(v, "optimizer.probe_us_p95", percentile(&probes, 95) * 1e6);
        }
        recommends.extend(spans.durations("session.recommend", rep).iter().map(|s| s * 1e3));
    }
    if !(tunes.is_empty() || recommends.is_empty()) {
        samples.push(0, "server.wire_overhead_ms", median(&tunes) - median(&recommends));
    }
    // Both passes run the same client code: there is nothing to compare.
    samples.push(0, "trace.overhead_pct", 0.0);
    samples.push(0, "tune.fail_share", out.failed as f64 / out.attempted.max(1) as f64);
    out.cycles += session_cycles;
    write_trace(w, &spans, out);
    samples.reduce(PER_LAYER, out);
}
