//! The constraint language of Appendix E: storage budgets, per-table index
//! caps, wide-index limits, clustered-index generators and per-query cost
//! assertions — all translated to linear BIP rows.
//!
//! ```sh
//! cargo run --release -p cophy --example constraint_language
//! ```

use cophy::{Cmp, CoPhy, CoPhyOptions, Constraint, ConstraintSet, IndexFilter};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::HomGen;

fn main() {
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = optimizer.schema();
    // Rich (non-storage-only) constraint sets route to the generic
    // branch-and-bound backend.  Its anytime engine (LP-rounding incumbent
    // seeded from the Lagrangian storage projection, pseudo-cost branching,
    // default 60 s budget) delivers a bounded-gap answer even at real
    // workload sizes, so no miniature workaround workload is needed.
    let workload = HomGen::new(11).generate(schema, 24);
    let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
    let lineitem = schema.table_by_name("lineitem").unwrap().id;

    // Plain storage budget (the §3.2 running example).
    let budget_only = ConstraintSet::storage_fraction(schema, 0.5);
    let r = cophy.try_tune(&workload, &budget_only).expect("tune");
    report(schema, "storage ≤ 0.5×data", &r);

    // E.1-style: at most 2 indexes with more than 2 columns on lineitem.
    let wide_cap = ConstraintSet::storage_fraction(schema, 0.5).with(Constraint::IndexCount {
        filter: IndexFilter { table: Some(lineitem), min_columns: Some(3), ..Default::default() },
        cmp: Cmp::Le,
        value: 2,
    });
    let r = cophy.try_tune(&workload, &wide_cap).expect("tune");
    report(schema, "… + ≤2 wide lineitem indexes", &r);
    let wide = r.configuration.on_table(lineitem).filter(|ix| ix.n_columns() >= 3).count();
    println!("    (wide lineitem indexes in X*: {wide})");

    // E.3 generator: at most one clustered index per table (always on in real
    // systems; here it is an explicit linear row per table).
    let clustered = wide_cap.clone().with(Constraint::OneClusteredPerTable);
    let r = cophy.try_tune(&workload, &clustered).expect("tune");
    report(schema, "… + one clustered per table", &r);

    // E.2: every query within 80% of its baseline cost (a regression guard).
    let guarded = ConstraintSet::storage_fraction(schema, 0.5)
        .with(Constraint::AllQueryCosts { factor: 0.8 });
    match cophy.try_tune(&workload, &guarded) {
        Ok(r) => report(schema, "… + every query ≤0.8×baseline", &r),
        Err(e) => println!("  every-query bound not satisfiable as stated: {e}"),
    }

    // An infeasible set is *reported*, not silently mangled (Figure 3 line 2).
    let impossible = ConstraintSet::none()
        .with(Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Ge, value: 5 })
        .with(Constraint::IndexCount { filter: IndexFilter::all(), cmp: Cmp::Le, value: 2 });
    match cophy.try_tune(&workload, &impossible) {
        Ok(_) => unreachable!(),
        Err(e) => println!("  infeasible set correctly rejected: {e}"),
    }
}

fn report(schema: &cophy_catalog::Schema, label: &str, r: &cophy::Recommendation) {
    // The anytime contract: every tune terminates with a *finite* proven
    // optimality gap, storage-only and rich constraint sets alike.
    assert!(r.gap.is_finite(), "[{label}] solver returned an unbounded gap");
    println!(
        "  [{label}] {} indexes, {:.1} MB, est. improvement {:.1}%, proven gap {:.1}%",
        r.configuration.len(),
        r.configuration.size_bytes(schema) as f64 / 1e6,
        r.estimated_improvement() * 100.0,
        r.gap * 100.0
    );
}
