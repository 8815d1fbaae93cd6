//! Interactive tuning: the DBA loop of paper §4.2 / Figure 6b.
//!
//! A tuning session keeps the INUM cache and the solver's warm state, so
//! exploring "what if I add these hand-crafted indexes?", "what about a
//! smaller budget?", "and with next week's queries?" costs a fraction of the
//! initial run.
//!
//! ```sh
//! cargo run --release -p cophy --example interactive_tuning
//! ```

use std::time::Instant;

use cophy::{CGen, CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::{Index, TpchGen};
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HomGen, DEFAULT_CHUNK};

fn main() {
    let optimizer = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = optimizer.schema();
    let workload = HomGen::new(99).generate(schema, 80);

    let cophy = CoPhy::new(&optimizer, CoPhyOptions::default());
    let mut session = cophy
        .try_session(&workload, ConstraintSet::storage_fraction(schema, 1.0))
        .expect("session opens");

    // --- initial recommendation -------------------------------------------
    let t0 = Instant::now();
    let r1 = session.recommend();
    println!(
        "initial: {} indexes, est. improvement {:.1}%, took {:?} (solve {:?})",
        r1.configuration.len(),
        r1.estimated_improvement() * 100.0,
        t0.elapsed(),
        r1.stats.solve_time
    );

    // --- DBA hands in pet indexes (S_DBA) ----------------------------------
    let li = schema.table_by_name("lineitem").unwrap();
    let sd = li.column_by_name("l_shipdate").unwrap();
    let ok = li.column_by_name("l_orderkey").unwrap();
    session.add_candidates([
        Index::secondary(li.id, vec![sd, ok]),
        Index::secondary(li.id, vec![ok, sd]),
    ]);
    let t1 = Instant::now();
    let r2 = session.recommend();
    println!(
        "after +2 DBA candidates: {} indexes, est. {:.1}%, re-solve took {:?}",
        r2.configuration.len(),
        r2.estimated_improvement() * 100.0,
        t1.elapsed()
    );

    // --- tighten the budget -------------------------------------------------
    session
        .set_constraints(ConstraintSet::storage_fraction(schema, 0.25))
        .expect("storage-only, nothing pinned");
    let t2 = Instant::now();
    let r3 = session.recommend();
    println!(
        "after budget 1.0 → 0.25: {} indexes ({:.1} MB), est. {:.1}%, re-solve took {:?}",
        r3.configuration.len(),
        r3.configuration.size_bytes(schema) as f64 / 1e6,
        r3.estimated_improvement() * 100.0,
        t2.elapsed()
    );

    // --- next week's queries arrive -----------------------------------------
    let monday = HomGen::new(100).generate(schema, 20);
    session
        .try_add_source(&mut monday.source(), DEFAULT_CHUNK)
        .expect("the live optimizer answers");
    let t3 = Instant::now();
    let r4 = session.recommend();
    println!(
        "after +20 statements: {} statements total, est. {:.1}%, re-solve took {:?}",
        session.n_statements(),
        r4.estimated_improvement() * 100.0,
        t3.elapsed()
    );

    // --- the warm re-optimization surface -----------------------------------
    // Budget sweeps, pin/ban and what-if probes run on the session's
    // interactive BIP (branch-and-bound re-solving one DeltaModel), whose
    // dense LPs want a smaller workload and a lean candidate grammar so
    // every answer lands in interactive time.
    let small = HomGen::new(101).generate(schema, 12);
    let lab_cophy = CoPhy::new(
        &optimizer,
        CoPhyOptions {
            cgen: CGen { max_key_columns: 2, max_include_columns: 0 },
            ..Default::default()
        },
    );
    let mut lab = lab_cophy
        .try_session(&small, ConstraintSet::storage_fraction(schema, 1.0))
        .expect("session opens");

    // One warm chain answers a whole budget sweep (paper Fig. 10): each
    // point re-solves from the previous basis/incumbent/pseudo-costs.
    let total = schema.data_bytes();
    let budgets: Vec<u64> = [1.0, 0.4, 0.1].iter().map(|m| (total as f64 * m) as u64).collect();
    let t4 = Instant::now();
    let sweep = lab
        .try_sweep_storage_with_progress(&budgets, |_, _| {})
        .expect("no pins yet: every budget fits");
    println!("\nbudget sweep ({} points, one warm chain, {:?}):", sweep.len(), t4.elapsed());
    for p in &sweep {
        println!(
            "  M = {:>7.1} MB → {} indexes, cost {:.0} (gap {:.1}%, {} pivots, {:?})",
            p.budget_bytes as f64 / 1e6,
            p.configuration.len(),
            p.objective,
            p.gap * 100.0,
            p.pivots,
            p.solve_time
        );
    }

    // Pin a pet index in, ban a recommended one out; the fixings are bound
    // pinches, so the re-solves stay warm.
    let pet = Index::secondary(li.id, vec![ok, sd]);
    lab.pin_index(&pet).expect("one index fits the budget");
    if let Some(out) = sweep[0].configuration.indexes().first().cloned() {
        lab.ban_index(&out);
    }
    let t5 = Instant::now();
    let fixed = lab.recommend();
    println!(
        "with 1 pin + 1 ban: {} indexes, est. {:.1}%, re-solve took {:?}",
        fixed.configuration.len(),
        fixed.estimated_improvement() * 100.0,
        t5.elapsed()
    );

    // "What does this configuration cost?" — answered from the INUM cache,
    // zero optimizer calls.
    let probe = lab.what_if(&fixed.configuration);
    println!(
        "what-if probe: cost {:.0} vs baseline {:.0} ({:.1}% better), {:.1} MB, violations: {:?}",
        probe.cost,
        probe.baseline_cost,
        probe.improvement() * 100.0,
        probe.size_bytes as f64 / 1e6,
        probe.constraint_violation
    );
}
