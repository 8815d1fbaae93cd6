//! Face-off: CoPhy vs the three baselines of the paper's evaluation on the
//! same workload, same budget, same ground-truth metric.
//!
//! ```sh
//! cargo run --release -p cophy --example advisor_faceoff
//! ```

use std::time::Instant;

use cophy::{CGen, CoPhy, CoPhyOptions, ConstraintSet};
use cophy_advisors::{Advisor, IlpAdvisor, ToolA, ToolB};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::HetGen;

fn main() {
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = optimizer.schema();
    // A heterogeneous workload — the regime where formulation quality shows.
    let workload = HetGen::new(1234).generate(schema, 60);
    let constraints = ConstraintSet::storage_fraction(schema, 1.0);

    println!("60-statement heterogeneous workload, storage budget = data size\n");
    println!("advisor   perf(X*,W)   wall time   indexes");

    // CoPhy.
    let t = Instant::now();
    let rec = CoPhy::new(&optimizer, CoPhyOptions::default())
        .try_tune(&workload, &constraints)
        .expect("tune");
    let perf = optimizer.perf(&workload, &rec.configuration);
    println!(
        "CoPhy     {:>8.1}%   {:>9.2}s   {}",
        perf * 100.0,
        t.elapsed().as_secs_f64(),
        rec.configuration.len()
    );

    // ILP (same candidates, same solver, different formulation).
    let candidates = CGen::default().generate(schema, &workload);
    let ilp = IlpAdvisor::default();
    let t = Instant::now();
    let (cfg, stats) = ilp.recommend_with_stats(&optimizer, &workload, &candidates, &constraints);
    println!(
        "ILP       {:>8.1}%   {:>9.2}s   {}   (build {:.2}s: enumerated {} atomic configs)",
        optimizer.perf(&workload, &cfg) * 100.0,
        t.elapsed().as_secs_f64(),
        cfg.len(),
        stats.build_time.as_secs_f64(),
        stats.configs_enumerated
    );

    // Tool-A (relaxation-based, optimizer-in-the-loop).
    let tool_a = ToolA;
    let t = Instant::now();
    let cfg = tool_a.recommend(&optimizer, &workload, &constraints);
    println!(
        "Tool-A    {:>8.1}%   {:>9.2}s   {}",
        optimizer.perf(&workload, &cfg) * 100.0,
        t.elapsed().as_secs_f64(),
        cfg.len()
    );

    // Tool-B (greedy over a compressed workload).
    let tool_b = ToolB;
    let t = Instant::now();
    let cfg = tool_b.recommend(&optimizer, &workload, &constraints);
    println!(
        "Tool-B    {:>8.1}%   {:>9.2}s   {}",
        optimizer.perf(&workload, &cfg) * 100.0,
        t.elapsed().as_secs_f64(),
        cfg.len()
    );
}
