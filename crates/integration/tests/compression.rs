//! Cross-stack invariants of the workload-compression subsystem
//! (ISSUE 3): weight conservation under every policy, `Epsilon(0.0)` ≡
//! `Lossless`, bounded quality loss of compressed tunes, bit-identical `Off`
//! behavior, and the clustering itself as recorded digests.

use proptest::prelude::*;

use cophy::{CoPhy, CoPhyOptions, CompressedWorkload, CompressionPolicy, ConstraintSet};
use cophy_catalog::{Schema, TpchGen};
use cophy_integration::Fold;
use cophy_inum::Inum;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_workload::{HetGen, HomGen, Predicate, Query, Statement, UpdateGen, Workload};

fn optimizer() -> WhatIfOptimizer {
    WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
}

/// A mixed read/update workload of `n` statements.
fn mixed(o: &WhatIfOptimizer, seed: u64, n: usize) -> Workload {
    let base = HomGen::new(seed).generate(o.schema(), n);
    UpdateGen::new(seed ^ 0x5A).mix_into(o.schema(), &base, 0.15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Total workload weight is conserved by compression under any policy —
    /// and therefore the compressed INUM cost of the empty configuration
    /// under `Lossless` equals the full-workload cost exactly.
    #[test]
    fn weights_conserved_under_any_policy(
        seed in any::<u64>(),
        n in 1usize..40,
        psel in any::<u8>(),
        eps in 0.0f64..0.9,
    ) {
        let o = optimizer();
        let w = match psel % 3 {
            0 => HomGen::new(seed).generate(o.schema(), n),
            1 => HetGen::new(seed).generate(o.schema(), n),
            _ => mixed(&o, seed, n),
        };
        let policy = match psel % 4 {
            0 => CompressionPolicy::Off,
            1 => CompressionPolicy::Lossless,
            2 => CompressionPolicy::Epsilon(eps),
            _ => CompressionPolicy::default_epsilon(),
        };
        let cw = CompressedWorkload::compress(o.schema(), &w, policy);
        prop_assert!(cw.validate().is_ok(), "{:?}", cw.validate());
        prop_assert!((cw.total_weight() - w.total_weight()).abs() < 1e-9);
        prop_assert!(
            (cw.representatives().total_weight() - w.total_weight()).abs() < 1e-9
        );
    }

    /// `Epsilon(0.0)` clusters exactly like `Lossless` on every family.
    #[test]
    fn epsilon_zero_equals_lossless(seed in any::<u64>(), n in 1usize..40) {
        let o = optimizer();
        let w = mixed(&o, seed, n);
        let mut a = CompressedWorkload::streaming(CompressionPolicy::Lossless);
        let mut b = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.0));
        for (_, stmt, weight) in w.iter() {
            prop_assert_eq!(a.absorb(o.schema(), stmt, weight), b.absorb(o.schema(), stmt, weight));
        }
        prop_assert_eq!(a.n_representatives(), b.n_representatives());
    }
}

/// `Off` produces byte-identical recommendations to the pre-subsystem
/// pipeline: same configuration, bit-equal objective/baseline/bound, and no
/// compression summary attached.
#[test]
fn off_is_byte_identical_to_the_plain_pipeline() {
    let o = optimizer();
    let w = HomGen::new(301).generate(o.schema(), 18);
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);

    // Today's pipeline, spelled out by hand.
    let options = CoPhyOptions::default();
    assert!(options.compression.is_off(), "Off must be the default policy");
    let candidates = options.cgen.generate(o.schema(), &w);
    let prepared = Inum::new(&o).prepare_workload(&w);
    let cophy = CoPhy::new(&o, options);
    let manual = cophy
        .try_tune_prepared(
            &prepared,
            &candidates,
            &constraints,
            std::time::Duration::ZERO,
            0,
            |_| {},
        )
        .expect("feasible");

    // The advisor facade with compression explicitly Off.
    let rec =
        CoPhy::new(&o, CoPhyOptions { compression: CompressionPolicy::Off, ..Default::default() })
            .try_tune(&w, &constraints)
            .unwrap();

    assert!(rec.compression.is_none());
    assert_eq!(rec.objective.to_bits(), manual.objective.to_bits());
    assert_eq!(rec.baseline_cost.to_bits(), manual.baseline_cost.to_bits());
    assert_eq!(rec.bound.to_bits(), manual.bound.to_bits());
    let a: Vec<_> = rec.configuration.iter().collect();
    let b: Vec<_> = manual.configuration.iter().collect();
    assert_eq!(a, b, "identical index sets");
}

/// Compressed-tune quality bound: on small workloads the recommendation
/// found from the compressed problem, *measured on the full workload*, stays
/// within (1 + ε) of the uncompressed tune (plus the solver's own gap
/// slack).
#[test]
fn compressed_tune_cost_is_epsilon_bounded() {
    let o = optimizer();
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let eps = CompressionPolicy::DEFAULT_EPSILON;
    for seed in [11u64, 12, 13] {
        let w = mixed(&o, seed, 24);
        let full = Inum::new(&o).prepare_workload(&w);

        let plain = CoPhy::new(&o, CoPhyOptions::default()).try_tune(&w, &constraints).unwrap();
        let comp = CoPhy::new(
            &o,
            CoPhyOptions { compression: CompressionPolicy::Epsilon(eps), ..Default::default() },
        )
        .try_tune(&w, &constraints)
        .unwrap();

        let cm = o.cost_model();
        let cost_plain = full.cost(o.schema(), cm, &plain.configuration);
        let cost_comp = full.cost(o.schema(), cm, &comp.configuration);
        // Both tunes stop at the configured 5% gap; fold that into the bound.
        let slack = 1.0 + eps + 0.05;
        assert!(
            cost_comp <= cost_plain * slack + 1e-6,
            "seed {seed}: compressed-tune cost {cost_comp} exceeds (1+ε)·{cost_plain}"
        );
        // And the expansion the advisor reports is a sane estimate of the
        // true full-workload cost of its own recommendation.
        assert!(
            (comp.objective - cost_comp).abs() / cost_comp <= eps + 0.05,
            "seed {seed}: expanded objective {} vs true cost {cost_comp}",
            comp.objective
        );
    }
}

/// The lossless fast path commutes with INUM: dedup-then-prepare and
/// prepare-the-duplicates give the same weighted workload cost.
#[test]
fn lossless_dedup_commutes_with_inum_costs() {
    let o = optimizer();
    let base = HomGen::new(77).generate(o.schema(), 12);
    let mut w = Workload::new();
    for (_, stmt, weight) in base.iter().chain(base.iter()).chain(base.iter()) {
        w.push_weighted(stmt.clone(), weight);
    }
    let merged = w.dedup_by_shell();
    assert_eq!(merged.len(), base.dedup_by_shell().len());

    let inum = Inum::new(&o);
    let full = inum.prepare_workload(&w);
    let comp = inum.prepare_workload(&merged);
    let cfg = cophy_catalog::Configuration::baseline(o.schema());
    let a = full.cost(o.schema(), o.cost_model(), &cfg);
    let b = comp.cost(o.schema(), o.cost_model(), &cfg);
    assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
}

/// What the ε-agglomeration decides, one digest per ε of each row's list.
/// Recorded at commit 39883ee (PR 22), when a template past 16
/// representatives was searched through a feature-quantile bucket grid — the
/// `shipdate` rows reached it.  Re-record protocol: `front_door_digest.rs`.
const EXPECTED_CLUSTERING: [(&str, &[u64]); 9] = [
    ("shipdate_linear", &[0x1b202536282fc7e7, 0x126537aff53b4ac5, 0x6e00c1cc848aec02]),
    ("shipdate_wrapped", &[0x1872093b29bf0a75]),
    ("mixed9", &[0xc9b78a2c5871aa47, 0x4fea69c1f4485889, 0xf8e5363a824c75d0, 0xf8e5363a824c75d0]),
    ("het9", &[0xd602bab5c8a64cab, 0xd602bab5c8a64cab, 0xd602bab5c8a64cab, 0xd602bab5c8a64cab]),
    ("mixed10", &[0xaef9cde671a9495e, 0xc5f90583882a77a3, 0x5e57088180061ed1, 0xe44b035212680980]),
    ("het10", &[0xf0998602db667f40, 0xf0998602db667f40, 0xf0998602db667f40, 0xf0998602db667f40]),
    ("mixed11", &[0xe9d2d2461593b552, 0xca326c34c128e1a6, 0x309d45db9a70726a, 0x309d45db9a70726a]),
    ("het11", &[0x55a938b81d4848f9, 0x55a938b81d4848f9, 0x55a938b81d4848f9, 0x55a938b81d4848f9]),
    ("shipdate_wrapped/rolled_back", &[0x74158a9ad010c877]),
];

/// Per statement the representative it lands on, then every representative's
/// weight and feature point as bits — after the first half and at the end.
/// `roll_back` absorbs the second half twice, rolled back and then committed
/// (its merges carry centroids across multiples of ε, the grid's cell edges).
fn clustering_digest(schema: &Schema, w: &Workload, eps: f64, roll_back: bool) -> u64 {
    let mut fold = Fold::default();
    let mut absorb = |cw: &mut CompressedWorkload, part: std::ops::Range<usize>| {
        for (_, stmt, weight) in w.iter().skip(part.start).take(part.len()) {
            fold.u32(cw.absorb(schema, stmt, weight).representative().0);
        }
        for id in cw.representatives().ids() {
            let f = cw.representative_features(id).expect("compression is on");
            fold.f64(cw.representatives().weight(id));
            f.selectivities.iter().for_each(|&sel| fold.f64(sel));
            fold.f64(f.update_rows);
        }
    };
    let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(eps));
    let half = w.len() / 2;
    absorb(&mut cw, 0..half);
    if roll_back {
        let before = cw.clone();
        cw.begin_chunk();
        absorb(&mut cw, half..w.len());
        cw.rollback_chunk();
        assert_eq!(cw, before, "a rolled-back chunk leaves no trace");
        cw.begin_chunk();
    }
    absorb(&mut cw, half..w.len());
    cw.commit_chunk();
    cw.validate().expect("invariants hold");
    fold.digest()
}

#[test]
fn clusterings_fold_to_their_recorded_digests() {
    let o = optimizer();
    let schema = o.schema();
    let li = schema.table_by_name("lineitem").expect("TPC-H").id;
    let sd = schema.resolve("lineitem.l_shipdate").expect("TPC-H");
    let shipdate = |value: fn(f64) -> f64| {
        let mut w = Workload::new();
        for i in 0..400 {
            let mut q = Query::scan(li);
            q.predicates.push(Predicate::lt(sd, value(f64::from(i))));
            w.push(Statement::Select(q));
        }
        w
    };
    let mut got: Vec<(String, Vec<u64>)> = Vec::new();
    let mut record = |label: String, w: &Workload, epsilons: &[f64], roll_back: bool| {
        let digests = epsilons.iter().map(|&eps| clustering_digest(schema, w, eps, roll_back));
        got.push((label, digests.collect()));
    };
    let wrapped = shipdate(|i| 1.0 + (i * 37.0) % 2400.0);
    record("shipdate_linear".into(), &shipdate(|i| 1.0 + i * 6.1), &[0.002, 0.01, 0.08], false);
    record("shipdate_wrapped".into(), &wrapped, &[0.01], false);
    for seed in [9, 10, 11] {
        let het = HetGen::new(seed).generate(schema, 150);
        record(format!("mixed{seed}"), &mixed(&o, seed, 150), &[0.05, 0.25, 0.6, 1.5], false);
        record(format!("het{seed}"), &het, &[0.05, 0.25, 0.6, 1.5], false);
    }
    record("shipdate_wrapped/rolled_back".into(), &wrapped, &[0.01], true);
    let row = |(label, d): &(String, Vec<u64>)| {
        let cells: Vec<String> = d.iter().map(|d| format!("{d:#018x}")).collect();
        format!("    ({label:?}, &[{}]),\n", cells.join(", "))
    };
    let table: String = got.iter().map(row).collect();
    let matches =
        got.iter().map(|(label, d)| (label.as_str(), d.as_slice())).eq(EXPECTED_CLUSTERING);
    assert!(matches, "clustering digests drifted from the recorded ones; computed:\n{table}");
}
