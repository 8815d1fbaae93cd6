//! Criterion microbenchmarks for the components whose scaling drives the
//! paper's headline figures:
//!
//! * INUM preparation and cost evaluation (the "fast what-if" claim),
//! * BIP construction, CoPhy vs ILP (the Figure 5/10 build-time gap),
//! * the solver engines (simplex, branch & bound, Lagrangian),
//! * candidate generation,
//! * ablation: BIPGen with and without I∅-dominance pruning,
//! * online compression of a 40 k-statement stream.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cophy::{
    BipGen, CGen, CandidateSet, Cmp, CompressedWorkload, CompressionPolicy, Constraint,
    ConstraintSet, IndexFilter, DEFAULT_CHUNK,
};
use cophy_advisors::IlpAdvisor;
use cophy_bench::{make_optimizer, make_workload, prepare, WorkloadKind};
use cophy_bip::{
    bench_refactor, bench_repair, BranchBound, LagrangianSolver, LinExpr, Model, Sense,
    SimplexSolver, SolveBudget, SolveOptions,
};
use cophy_catalog::{ColumnId, Configuration, Schema};
use cophy_inum::{ideal_config, Inum, PreparedWorkload};
use cophy_optimizer::{
    BackendError, CostModel, ProbeAnswer, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{template_key, HetGen, HomGen, Query, Statement, UpdateGen, Workload};

fn bench_inum(c: &mut Criterion) {
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, WorkloadKind::Hom, 20);
    c.bench_function("inum/prepare_20_queries", |b| {
        b.iter(|| prepare(&o, &w));
    });

    let prepared = prepare(&o, &w);
    let cands = CGen::default().generate(o.schema(), &w);
    let cfg: Configuration = cands.iter().take(12).map(|(_, ix)| ix.clone()).collect();
    c.bench_function("inum/cost_eval_20_queries", |b| {
        b.iter(|| prepared.cost(o.schema(), o.cost_model(), &cfg));
    });
    c.bench_function("whatif/direct_cost_20_queries", |b| {
        b.iter(|| o.cost_workload(&w, &cfg));
    });

    // One statement per `HomGen` template, and every ideal configuration
    // INUM's probing loop asks the optimizer about for it.
    let mut seen = HashSet::new();
    let mut one_each = Workload::new();
    for (_, stmt, _) in make_workload(&o, WorkloadKind::Hom, 45).iter() {
        if seen.insert(template_key(stmt)) {
            one_each.push(stmt.clone());
        }
    }
    assert_eq!(one_each.len(), 15, "45 statements cover the 15 templates");
    let recorder = ProbeLog { inner: &o, probes: Mutex::default() };
    Inum::new(&recorder).prepare_workload(&one_each);
    let ideal: Vec<(Query, Configuration)> = recorder
        .probes
        .into_inner()
        .expect("single-threaded")
        .into_iter()
        .filter(|(_, cfg)| !cfg.is_empty())
        .collect();
    c.bench_function("whatif/probe_hom_ideal_configs", |b| {
        b.iter(|| ideal.iter().map(|(q, cfg)| o.cost_query(q, cfg)).sum::<f64>());
    });
}

/// A live optimizer that keeps every (query, configuration) it is asked.
#[derive(Debug)]
struct ProbeLog<'a> {
    inner: &'a WhatIfOptimizer,
    probes: Mutex<Vec<(Query, Configuration)>>,
}

impl WhatIfBackend for ProbeLog<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn profile(&self) -> SystemProfile {
        self.inner.profile()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        self.probes.lock().expect("single-threaded").push((q.clone(), config.clone()));
        self.inner.try_probe(q, config)
    }

    fn what_if_calls(&self) -> u64 {
        self.inner.what_if_calls()
    }

    fn reset_call_counter(&self) {
        self.inner.reset_call_counter()
    }
}

/// The `perf` harness's `het_storage` size: 200 diverse statements, every
/// CGen candidate, storage 0.5 × data.
fn het200(o: &WhatIfOptimizer) -> (PreparedWorkload, CandidateSet, ConstraintSet) {
    let w = make_workload(o, WorkloadKind::Het, 200);
    let half = ConstraintSet::storage_fraction(o.schema(), 0.5);
    (prepare(o, &w), CGen::default().generate(o.schema(), &w), half)
}

/// ... and its `het_update` size: the same 200 statements mixed 50 % with
/// UPDATEs, whose maintenance costs land on `z`.
fn het200_updates(o: &WhatIfOptimizer) -> (PreparedWorkload, CandidateSet, ConstraintSet) {
    let het = make_workload(o, WorkloadKind::Het, 200);
    let w = UpdateGen::new(0xC0FFEE ^ 0x5EED).mix_into(o.schema(), &het, 0.5);
    let half = ConstraintSet::storage_fraction(o.schema(), 0.5);
    (prepare(o, &w), CGen::default().generate(o.schema(), &w), half)
}

fn bench_build(c: &mut Criterion) {
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, WorkloadKind::Hom, 30);
    let prepared = prepare(&o, &w);
    let cands = CGen::default().generate(o.schema(), &w);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);

    let mut group = c.benchmark_group("build");
    group.bench_function("cophy_block_problem", |b| {
        b.iter(|| {
            BipGen::default().block_problem(
                o.schema(),
                o.cost_model(),
                &prepared,
                &cands,
                &constraints,
            )
        });
    });
    group.bench_function("cophy_block_problem_unpruned", |b| {
        let gen = BipGen { prune_dominated: false };
        b.iter(|| gen.block_problem(o.schema(), o.cost_model(), &prepared, &cands, &constraints));
    });
    group.bench_function("cgen_30_queries", |b| {
        b.iter(|| CGen::default().generate(o.schema(), &w));
    });
    // `bipgen.build_s` of `perf`'s `het_storage` and `het_update`, and the
    // literal model at `rich_bb`'s size (the branch-and-bound door's builder).
    let (prepared, cands, half) = het200(&o);
    group.bench_function("block_problem_het200", |b| {
        b.iter(|| {
            BipGen::default().block_problem(o.schema(), o.cost_model(), &prepared, &cands, &half)
        });
    });
    let (prepared, cands, half) = het200_updates(&o);
    group.bench_function("block_problem_het200_updates", |b| {
        b.iter(|| {
            BipGen::default().block_problem(o.schema(), o.cost_model(), &prepared, &cands, &half)
        });
    });
    let w = make_workload(&o, WorkloadKind::Hom, 20);
    let (prepared, cands) = (prepare(&o, &w), CGen::default().generate(o.schema(), &w));
    group.bench_function("model_hom20", |b| {
        b.iter(|| BipGen::default().model(o.schema(), o.cost_model(), &prepared, &cands, &half));
    });
    group.finish();

    // ILP build (enumeration + pruning) at matching scale — the Figure 5
    // asymmetry in microcosm.
    c.bench_function("build/ilp_block_problem", |b| {
        let ilp = IlpAdvisor::default();
        b.iter(|| {
            let (_, stats) = ilp.recommend_with_stats(&o, &w, &cands, &constraints);
            stats
        });
    });
}

fn bench_solvers(c: &mut Criterion) {
    // Simplex on a dense-ish random LP.
    let mut m = Model::new();
    let n = 60;
    let vars: Vec<_> =
        (0..n).map(|j| m.add_var(format!("v{j}"), ((j * 37) % 19) as f64 - 9.0)).collect();
    for i in 0..30 {
        let mut e = LinExpr::new();
        for (j, &v) in vars.iter().enumerate() {
            if (i + j) % 3 == 0 {
                e.add(v, ((i * j) % 7 + 1) as f64);
            }
        }
        m.add_constraint(e, Sense::Le, 25.0);
    }
    let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
    c.bench_function("solver/simplex_60v_30c", |b| {
        b.iter(|| SimplexSolver::new().solve(&m, &lo, &hi));
    });
    c.bench_function("solver/branch_bound_60v_30c_gap5", |b| {
        let opts = SolveOptions { budget: SolveBudget::within(0.05), ..Default::default() };
        b.iter(|| BranchBound::new().solve(&m, &opts));
    });

    // Lagrangian on a realistic tuning instance.
    let o = make_optimizer(SystemProfile::A, 0.0);
    let w = make_workload(&o, WorkloadKind::Hom, 40);
    let prepared = prepare(&o, &w);
    let cands = CGen::default().generate(o.schema(), &w);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 1.0);
    let tp = BipGen::default().block_problem(
        o.schema(),
        o.cost_model(),
        &prepared,
        &cands,
        &constraints,
    );
    c.bench_function("solver/lagrangian_40q_gap5", |b| {
        let solver = LagrangianSolver { budget: SolveBudget::within(0.05), ..Default::default() };
        b.iter(|| solver.solve(&tp.block));
    });

    // `lagrangian.solve_s` of `perf`'s `het_storage`: the solve runs out its
    // 400 iterations.
    let (prepared, cands, half) = het200(&o);
    let tp = BipGen::default().block_problem(o.schema(), o.cost_model(), &prepared, &cands, &half);
    c.bench_function("solver/lagrangian_het200_400it", |b| {
        let solver = LagrangianSolver {
            budget: SolveBudget::within(0.05).with_nodes(400),
            ..Default::default()
        };
        b.iter(|| solver.solve(&tp.block));
    });
    // ... and of `het_update`.
    let (prepared, cands, half) = het200_updates(&o);
    let tp = BipGen::default().block_problem(o.schema(), o.cost_model(), &prepared, &cands, &half);
    c.bench_function("solver/lagrangian_het200_updates_400it", |b| {
        let solver = LagrangianSolver {
            budget: SolveBudget::within(0.05).with_nodes(400),
            ..Default::default()
        };
        b.iter(|| solver.solve(&tp.block));
    });

    // `bb.solve_s` of `perf`'s `rich_bb` and the kernels inside it:
    // `build/model_hom20`'s model plus the `IndexCount(lineitem) ≤ 2` row,
    // searched to a 100-node cap; its cold root LP and one pair of warm
    // child LPs; and the two the public API cannot reach alone — the repair
    // heuristic on the root LP point (one of ≈ 100 calls a solve) and the
    // LU of the root basis (one per node LP).
    let w = make_workload(&o, WorkloadKind::Hom, 20);
    let lineitem = o.schema().table_by_name("lineitem").expect("TPC-H lineitem").id;
    let rich = half.with(Constraint::IndexCount {
        filter: IndexFilter::on_table(lineitem),
        cmp: Cmp::Le,
        value: 2,
    });
    let cands = CGen::default().generate(o.schema(), &w);
    let (model, _) =
        BipGen::default().model(o.schema(), o.cost_model(), &prepare(&o, &w), &cands, &rich);
    c.bench_function("solver/branch_bound_rich20_100nodes", |b| {
        let opts =
            SolveOptions { budget: SolveBudget::exact().with_nodes(100), ..Default::default() };
        b.iter(|| BranchBound::new().solve(&model, &opts));
    });
    // The cold two-phase root of that search (`lp.root_s`), what a solve
    // pays before its first node.
    let n = model.n_vars();
    let (lo, hi) = (vec![0.0; n], vec![1.0; n]);
    c.bench_function("solver/simplex_rich20_root_cold", |b| {
        b.iter(|| SimplexSolver::new().solve(&model, &lo, &hi));
    });
    let root = SimplexSolver::new().solve(&model, &lo, &hi);
    bench_repair(&model, |repair| {
        c.bench_function("solver/repair_rich20_root", |b| b.iter(|| repair(&root.x)));
    });
    let branch = root
        .x
        .iter()
        .position(|v| (v - v.round()).abs() > 1e-6)
        .expect("the rich-20 root LP has a fractional variable");
    let root_basis = root.basis.expect("the rich-20 root LP is feasible and bounded");
    // What a node costs after that: the two children of the root — its
    // first fractional variable pinched to 0, then to 1 — each re-solved by
    // the dual simplex from the root basis.
    c.bench_function("solver/dual_resolve_rich20_child", |b| {
        let (mut down, mut up) = (hi.clone(), lo.clone());
        (down[branch], up[branch]) = (0.0, 1.0);
        let dual = SimplexSolver::new();
        b.iter(|| {
            (
                dual.resolve(&model, &lo, &down, &root_basis),
                dual.resolve(&model, &up, &hi, &root_basis),
            )
        });
    });
    bench_refactor(&model, &root_basis, |refactor| {
        c.bench_function("solver/lu_factorize_rich20_root_basis", |b| {
            b.iter(|| assert!(refactor(), "the root basis factorizes"));
        });
    });
}

/// The what-if kernel by join width: one statement per distinct table count
/// of `W_hom` (1, 2, 3, 4, 6), probed under the clustered baseline and
/// under an INUM ideal configuration — the two shapes of probe a tune
/// issues, and the per-call number behind `optimizer.probe_us_p50/p95` of
/// the `perf` harness.  The `optimize*` names predate the probe answer and
/// stay so that their history stays comparable.
fn bench_optimizer(c: &mut Criterion) {
    let o = make_optimizer(SystemProfile::A, 0.0);
    let schema = o.schema();
    let w = make_workload(&o, WorkloadKind::Hom, 60);
    let mut by_width: BTreeMap<usize, &Query> = BTreeMap::new();
    for (_, stmt, _) in w.iter() {
        let q = stmt.read_shell();
        by_width.entry(q.tables.len()).or_insert(q);
    }
    let baseline = Configuration::baseline(schema);
    let mut group = c.benchmark_group("optimizer");
    for (n_tables, q) in by_width {
        group.bench_with_input(BenchmarkId::new("optimize", n_tables), q, |b, q| {
            b.iter(|| o.try_probe(q, &baseline));
        });
        // Every table's first interesting order at once.
        let orders: Vec<Vec<ColumnId>> = q
            .tables
            .iter()
            .map(|t| q.interesting_orders_on(*t).into_iter().next().unwrap_or_default())
            .collect();
        let orders: Vec<&[ColumnId]> = orders.iter().map(Vec::as_slice).collect();
        let ideal = ideal_config(schema, q, &orders);
        group.bench_with_input(BenchmarkId::new("optimize_ideal", n_tables), q, |b, q| {
            b.iter(|| o.try_probe(q, &ideal));
        });
    }
    group.finish();
}

/// `compress.absorb_s` of `perf`'s `stream_mix`, at its shape (the seeds
/// differ): 40 000 `W_hom` statements with one `W_het` statement after
/// every 4 000, absorbed at the default ε
/// in journaled `DEFAULT_CHUNK` chunks, as a streaming session absorbs them.
/// The input is generated once, outside the timing.
fn bench_compress(c: &mut Criterion) {
    let o = make_optimizer(SystemProfile::A, 0.0);
    let schema = o.schema();
    let het = HetGen::new(0xC0FFEE ^ 0x4E7).generate(schema, 10);
    let mut het = het.iter();
    let mut input: Vec<(Statement, f64)> = Vec::new();
    for (i, (_, stmt, weight)) in HomGen::new(0xC0FFEE).generate(schema, 40_000).iter().enumerate()
    {
        input.push((stmt.clone(), weight));
        if (i + 1) % 4000 == 0 {
            let (_, stmt, weight) = het.next().expect("one W_het statement per 4 000");
            input.push((stmt.clone(), weight));
        }
    }
    c.bench_function("compress/absorb_stream_40k", |b| {
        b.iter(|| {
            let mut cw = CompressedWorkload::streaming(CompressionPolicy::default_epsilon());
            for chunk in input.chunks(DEFAULT_CHUNK) {
                cw.begin_chunk();
                cw.absorb_chunk(schema, chunk);
                cw.commit_chunk();
            }
            cw
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_inum, bench_build, bench_solvers, bench_optimizer, bench_compress
);
criterion_main!(benches);
