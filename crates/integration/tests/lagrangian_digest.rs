//! BIPGen's block form and the Lagrangian solve, pinned as one number per
//! input.
//!
//! `probe_digest.rs` pins what the what-if kernel answers and
//! `front_door_digest.rs` what a whole tune returns; this test pins the two
//! layers between them at `perf`'s sizes.  For each input it folds into one
//! FNV-1a digest
//!
//! * every coefficient `BipGen::block_problem` emits, in order: per block
//!   and alternative the base, per slot the fallback and every `(item, γ)`,
//!   then `item_cost`, `item_size`, the budget and the fixed cost;
//! * a cold solve at gap 0.05 / 400 iterations: objective, bound and gap
//!   bits, the iteration count, the selection, every trace point's
//!   incumbent / bound / gap bits (not its timestamp) and the exported
//!   multipliers sorted by key;
//! * the warm re-solve from that state;
//! * a cold solve of the same problem with one item pinned and one banned
//!   through `BlockProblem::with_fixings`.
//!
//! The constants were recorded at commit 26c53e1 (PR 17), when the solve
//! walked the nested `Block`/`Alt`/`SlotChoices` vectors every iteration and
//! BIPGen priced one access path per (template, slot, candidate).  A rewrite
//! of either layer that keeps every float bit, every tie-break and every
//! iteration leaves them alone; anything else moves them.  They are not to
//! be regenerated; `front_door_digest.rs` has the re-record protocol.

use cophy::{BipGen, CGen, ConstraintSet};
use cophy_bip::{BlockProblem, LagrangeResult, LagrangianSolver, SolveBudget, WarmStart};
use cophy_catalog::{Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{HetGen, HomGen, UpdateGen, Workload};

/// `(input, digest)`.
const EXPECTED: [(&str, u64); 4] = [
    ("het200/seed7", 0xc91d_5125_8e2a_f154),
    ("het200/seed23", 0x1cb5_1775_7e6d_c50f),
    ("het200+updates", 0x5119_134d_8bed_fd7c),
    ("hom45", 0x4da1_f2e1_6fa0_5ca8),
];

fn fold_problem(fold: &mut Fold, p: &BlockProblem, fixed_cost: f64) {
    fold.u64(p.blocks.len() as u64);
    for block in &p.blocks {
        fold.u64(block.alts.len() as u64);
        for alt in &block.alts {
            fold.f64(alt.base);
            fold.u64(alt.slots.len() as u64);
            for slot in &alt.slots {
                fold.opt(slot.fallback);
                fold.u64(slot.choices.len() as u64);
                for &(item, gamma) in &slot.choices {
                    fold.u64(u64::from(item));
                    fold.f64(gamma);
                }
            }
        }
    }
    fold.u64(p.n_items as u64);
    for a in 0..p.n_items {
        fold.f64(p.item_cost[a]);
        fold.f64(p.item_size[a]);
    }
    fold.opt(p.budget);
    fold.f64(fixed_cost);
}

fn fold_solve(fold: &mut Fold, r: &LagrangeResult, warm: &WarmStart) {
    for v in [r.objective, r.bound, r.gap] {
        fold.f64(v);
    }
    fold.u64(r.iterations as u64);
    for selection in [&r.selected, &warm.selection] {
        fold.u64(selection.len() as u64);
        fold.bytes(&selection.iter().map(|&s| u8::from(s)).collect::<Vec<_>>());
    }
    fold.u64(r.trace.len() as u64);
    for pt in &r.trace {
        for v in [pt.incumbent, pt.bound, pt.gap] {
            fold.f64(v);
        }
    }
    let multipliers = &warm.multipliers;
    fold.u64(multipliers.len() as u64);
    for &((b, k, s, item), mu) in multipliers {
        for v in [b, k, s, item] {
            fold.u64(u64::from(v));
        }
        fold.f64(mu);
    }
}

/// No wall-clock limit: every solve ends by gap or by its iteration cap, so
/// the digests do not depend on the host.
fn solver() -> LagrangianSolver {
    LagrangianSolver { budget: SolveBudget::within(0.05).with_nodes(400), cancel: None }
}

fn digest(backend: &dyn WhatIfBackend, w: &Workload) -> u64 {
    let (schema, cm) = (backend.schema(), backend.cost_model());
    let prepared = Inum::new(backend).prepare_workload(w);
    let candidates = CGen::default().generate(schema, w);
    let constraints = ConstraintSet::storage_fraction(schema, 0.5);
    let tp = BipGen::default().block_problem(schema, cm, &prepared, &candidates, &constraints);
    let p = &tp.block;
    assert!(p.n_choices() > 0, "an input without a single choice pins nothing");

    let mut fold = Fold::default();
    fold_problem(&mut fold, p, tp.fixed_cost);

    let (cold, warm) = solver().solve_warm_with_progress(p, None, |_, _| {});
    fold_solve(&mut fold, &cold, &warm);
    let (rewarmed, warm2) = solver().solve_warm_with_progress(p, Some(&warm), |_, _| {});
    fold_solve(&mut fold, &rewarmed, &warm2);

    // Ban the first index the cold solve chose, pin the first one it left
    // out that fits the budget on its own.
    let budget = p.budget.expect("storage-constrained input");
    let banned = cold.selected.iter().position(|&s| s).expect("the solve selects an index");
    let pinned = (0..p.n_items)
        .find(|&a| !cold.selected[a] && p.item_size[a] > 0.0 && p.item_size[a] <= budget)
        .expect("an unselected index fits");
    let mut fixed = vec![None; p.n_items];
    fixed[banned] = Some(false);
    fixed[pinned] = Some(true);
    let fx = p.with_fixings(&fixed).expect("one pin fits the budget");
    fold.f64(fx.pinned_cost);
    let (fixed_solve, fixed_warm) = solver().solve_warm_with_progress(&fx.problem, None, |_, _| {});
    fold_solve(&mut fold, &fixed_solve, &fixed_warm);

    fold.digest()
}

fn inputs(schema: &Schema) -> [Workload; 4] {
    [
        HetGen::new(7).generate(schema, 200),
        HetGen::new(23).generate(schema, 200),
        UpdateGen::new(41).mix_into(schema, &HetGen::new(11).generate(schema, 200), 0.5),
        HomGen::new(5).generate(schema, 45),
    ]
}

#[test]
fn block_form_and_lagrangian_solves_fold_to_the_recorded_digests() {
    let backend = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let workloads = inputs(backend.schema());
    let got: Vec<(&str, u64)> = EXPECTED
        .iter()
        .zip(&workloads)
        .map(|((name, _), w)| (*name, digest(&backend, w)))
        .collect();
    assert!(got == EXPECTED, "digests drifted from the recorded layers; computed: {got:#018x?}");
}
