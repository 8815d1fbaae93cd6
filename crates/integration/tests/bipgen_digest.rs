//! The literal Theorem-1 program `BipGen::model` lays out, and the seed a
//! rich-constraint tune completes through it, pinned as one number per input.
//!
//! `lagrangian_digest.rs` pins the block form BIPGen's walk produces; this
//! test pins the layout of the model and its mapping.  For each input it
//! folds into one FNV-1a digest
//!
//! * the variable count, then each variable's name and objective bits, in
//!   column order;
//! * the row count, then per row its `(variable, coefficient bits)` terms,
//!   its sense and its rhs bits, in row order;
//! * the storage row's id and the fixed update-base cost;
//! * `BipMapping::completion` of two selections: the one the Lagrangian solve
//!   of the mapping's block form returns (the storage-only projection a rich
//!   tune relaxes to seed branch-and-bound) and every other candidate.
//!
//! Inputs: 24 statements of `HomGen`, of `HetGen`, and of `HetGen` with half
//! of them turned into UPDATEs, each under storage 0.5 × data alone and under
//! storage plus index-count, index-size and one-clustered-per-table rows, each
//! with `prune_dominated` on and off.  Query-cost rows are left out.
//!
//! A rewrite of BIPGen that keeps every column, every row and every float bit
//! leaves the constants alone; anything else moves them.  They are not to be
//! regenerated; `front_door_digest.rs` has the re-record protocol.

use cophy::{BipGen, CGen, CandidateSet, Cmp, Constraint, ConstraintSet, IndexFilter};
use cophy_bip::{LagrangianSolver, Model, Sense, SolveBudget, VarId};
use cophy_catalog::{Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::{Inum, PreparedWorkload};
use cophy_optimizer::{SystemProfile, WhatIfBackend, WhatIfOptimizer};
use cophy_workload::{HetGen, HomGen, UpdateGen, Workload};

const STATEMENTS: usize = 24;

/// `(input, digest)`, in the order `inputs` × `constraint_sets` × pruning on
/// / off.
const EXPECTED: [(&str, u64); 12] = [
    ("hom/storage/pruned", 0x5ea5_d6b4_22e5_66e8),
    ("hom/storage/full", 0x626a_5c4e_30a7_285a),
    ("hom/rich/pruned", 0x94be_c6b2_e5ca_2bff),
    ("hom/rich/full", 0xff58_6960_67e7_b75d),
    ("het/storage/pruned", 0x507f_54b8_0cfc_12fb),
    ("het/storage/full", 0x66e1_310e_210d_d304),
    ("het/rich/pruned", 0x85e2_5547_f4d2_95f4),
    ("het/rich/full", 0xe3ef_699e_ffb5_2f2b),
    ("het+updates/storage/pruned", 0xb97c_5b27_b5fc_1fee),
    ("het+updates/storage/full", 0x7c6b_5c7e_901d_550b),
    ("het+updates/rich/pruned", 0x6ce0_26b4_c52d_d5aa),
    ("het+updates/rich/full", 0xd61b_976d_5195_a8af),
];

fn fold_model(fold: &mut Fold, m: &Model) {
    fold.u64(m.n_vars() as u64);
    for (j, &c) in m.objective().iter().enumerate() {
        fold.bytes(m.var_name(VarId(j as u32)).as_bytes());
        fold.f64(c);
    }
    fold.u64(m.n_constraints() as u64);
    for row in m.constraints() {
        fold.u64(row.expr.terms.len() as u64);
        for &(v, c) in &row.expr.terms {
            fold.u32(v.0);
            fold.f64(c);
        }
        fold.u32(match row.sense {
            Sense::Le => 0,
            Sense::Ge => 1,
            Sense::Eq => 2,
        });
        fold.f64(row.rhs);
    }
}

fn digest(
    backend: &dyn WhatIfBackend,
    prepared: &PreparedWorkload,
    candidates: &CandidateSet,
    constraints: &ConstraintSet,
    prune_dominated: bool,
) -> u64 {
    let (schema, cm) = (backend.schema(), backend.cost_model());
    let bipgen = BipGen { prune_dominated };
    let (model, mapping) = bipgen.model(schema, cm, prepared, candidates, constraints);

    let mut fold = Fold::default();
    fold_model(&mut fold, &model);
    fold.u64(mapping.storage_row.map_or(u64::MAX, |r| u64::from(r.0)));
    fold.f64(mapping.problem.fixed_cost);

    // The seed of a rich tune: the mapping's block form (the storage-only
    // projection) relaxed on the seed budget, with no wall clock so nothing
    // depends on the host.
    let seed = LagrangianSolver { budget: SolveBudget::within(0.05).with_nodes(200), cancel: None }
        .solve(&mapping.problem.block);
    let every_other: Vec<bool> = (0..candidates.len()).map(|a| a % 2 == 0).collect();
    for selected in [&seed.selected, &every_other] {
        let x = mapping.completion(selected, model.n_vars());
        fold.u64(x.len() as u64);
        for v in x {
            fold.f64(v);
        }
    }
    fold.digest()
}

fn inputs(schema: &Schema) -> [Workload; 3] {
    [
        HomGen::new(3).generate(schema, STATEMENTS),
        HetGen::new(5).generate(schema, STATEMENTS),
        UpdateGen::new(13).mix_into(schema, &HetGen::new(9).generate(schema, STATEMENTS), 0.5),
    ]
}

fn constraint_sets(schema: &Schema) -> [ConstraintSet; 2] {
    let storage = ConstraintSet::storage_fraction(schema, 0.5);
    let lineitem = schema.table_by_name("lineitem").expect("TPC-H lineitem").id;
    let rich = storage
        .clone()
        .with(Constraint::IndexCount {
            filter: IndexFilter::on_table(lineitem),
            cmp: Cmp::Le,
            value: 2,
        })
        .with(Constraint::IndexSize {
            filter: IndexFilter::all(),
            cmp: Cmp::Le,
            value: schema.data_bytes() / 4,
        })
        .with(Constraint::OneClusteredPerTable);
    [storage, rich]
}

#[test]
fn model_layouts_and_seed_completions_fold_to_the_recorded_digests() {
    let backend = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let schema = backend.schema();
    let sets = constraint_sets(schema);
    let mut got = Vec::with_capacity(EXPECTED.len());
    for w in &inputs(schema) {
        let prepared = Inum::new(&backend).prepare_workload(w);
        let candidates = CGen::default().generate(schema, w);
        for constraints in &sets {
            for prune_dominated in [true, false] {
                got.push(digest(&backend, &prepared, &candidates, constraints, prune_dominated));
            }
        }
    }
    let got: Vec<(&str, u64)> = EXPECTED.iter().map(|(name, _)| *name).zip(got).collect();
    assert!(got == EXPECTED, "digests drifted from the recorded layout; computed: {got:#018x?}");
}
