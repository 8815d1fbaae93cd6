//! Quickstart: tune a TPC-H workload with CoPhy in a dozen lines.
//!
//! ```sh
//! cargo run --release -p cophy --example quickstart
//! ```

use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{format_statement, HomGen};

fn main() {
    // 1. A database: the TPC-H schema at scale factor 1, uniform data.
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = optimizer.schema();

    // 2. A workload: 100 statements from the fifteen TPC-H-like templates.
    let workload = HomGen::new(42).generate(schema, 100);
    println!(
        "First workload statement:\n{}\n",
        format_statement(schema, workload.statement(cophy_workload::QueryId(0)))
    );

    // 3. Tune under a storage budget of half the database size.
    let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let rec = cophy.try_tune(&workload, &constraints).expect("tune");

    // 4. Inspect the recommendation.
    println!(
        "CoPhy examined {} candidates and recommends {} indexes \
         ({:.1} MB, {:.1}% estimated improvement, gap {:.1}%):",
        rec.stats.n_candidates,
        rec.configuration.len(),
        rec.configuration.size_bytes(schema) as f64 / 1e6,
        rec.estimated_improvement() * 100.0,
        rec.gap * 100.0
    );
    let mut names: Vec<String> = rec.configuration.iter().map(|ix| ix.describe(schema)).collect();
    names.sort();
    for n in names.iter().take(12) {
        println!("  CREATE INDEX {n}");
    }
    if names.len() > 12 {
        println!("  … and {} more", names.len() - 12);
    }

    // 5. Validate against the ground-truth optimizer (the §5.1 metric).
    let perf = optimizer.perf(&workload, &rec.configuration);
    println!("\nGround-truth perf(X*, W) = {:.1}% cost reduction", perf * 100.0);
    println!(
        "Timing: INUM {:?}  build {:?}  solve {:?}  ({} what-if calls)",
        rec.stats.inum_time, rec.stats.build_time, rec.stats.solve_time, rec.stats.what_if_calls
    );
}
