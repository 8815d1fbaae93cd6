//! Soft constraints: explore the storage/performance Pareto frontier with
//! the Chord algorithm (paper §4.1, Figure 6c).
//!
//! Instead of fixing a storage budget, the DBA asks "how much does each
//! megabyte of indexes buy me?" and receives a handful of Pareto-optimal
//! configurations to choose from.
//!
//! ```sh
//! cargo run --release -p cophy --example soft_constraints
//! ```

use cophy::{CGen, ChordExplorer, CoPhy, CoPhyOptions};
use cophy_catalog::TpchGen;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

fn main() {
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = optimizer.schema();
    let workload = HomGen::new(7).generate(schema, 60);

    let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
    let inum = Inum::new(&optimizer);
    let prepared = inum.prepare_workload(&workload);
    let candidates = CGen::default().generate(schema, &workload);

    println!("Exploring the cost/storage frontier over {} candidates…\n", candidates.len());
    // At most 7 solves; a point is kept when it lies more than 2 % of the
    // baseline cost from its chord (the explorer's fixed ε).
    let explorer = ChordExplorer { max_points: 7 };
    let points = explorer.explore(&cophy, &prepared, &candidates);

    println!("lambda   indexes   storage(MB)   workload cost   solve time");
    for p in &points {
        println!(
            "{:<8.2} {:<9} {:<13.1} {:<15.0} {:?}",
            p.lambda,
            p.configuration.len(),
            p.size_bytes as f64 / 1e6,
            p.workload_cost,
            p.solve_time
        );
    }

    // The frontier is monotone: more storage, less cost.
    let knee = points
        .windows(2)
        .max_by(|a, b| {
            let ga = gain_per_byte(&a[0], &a[1]);
            let gb = gain_per_byte(&b[0], &b[1]);
            ga.total_cmp(&gb)
        })
        .map(|w| w[1].lambda);
    if let Some(l) = knee {
        println!("\nSteepest gain-per-byte segment ends at λ = {l:.2} — a good default budget.");
    }
}

fn gain_per_byte(a: &cophy::ParetoPoint, b: &cophy::ParetoPoint) -> f64 {
    let dcost = a.workload_cost - b.workload_cost;
    let dsize = (b.size_bytes - a.size_bytes) as f64;
    if dsize <= 0.0 {
        0.0
    } else {
        dcost / dsize
    }
}
