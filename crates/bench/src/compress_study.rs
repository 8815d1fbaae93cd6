//! Workload-compression study: what-if calls, prepare/solve time and
//! recommendation-cost delta of `Epsilon(default)` compression vs the
//! uncompressed pipeline on `W_hom`.

use cophy::{CGen, CoPhy, CoPhyOptions, CompressedWorkload, CompressionPolicy, ConstraintSet};
use cophy_optimizer::SystemProfile;

use crate::Cell::{Int, Num, Pct, Secs};
use crate::{make_optimizer, make_workload, prepare, timed, Knobs, Outcome, Table, WorkloadKind};

/// Workload sizes of the study.  Fixed (not `COPHY_SCALE`-scaled): the claim
/// under test is the compression behavior at a given `|W|`, and the gate
/// lives at the last one, `|W| = 200`.
const SIZES: [usize; 3] = [24, 96, 200];

/// Uncompressed vs compressed CoPhy on the same workload and constraints,
/// one row per size; gated at `|W| = 200` on a ≥ 4× what-if cut within 5% of
/// the uncompressed tune's cost.
pub(crate) fn compress(_: &Knobs) -> Outcome {
    let policy = CompressionPolicy::default_epsilon();
    let mut t = Table::new(
        format!("W_hom, ε = {} (default), M = 0.5", CompressionPolicy::DEFAULT_EPSILON),
        &[
            "size",
            "reps",
            "what_if_full",
            "what_if_comp",
            "call_cut",
            "prep_full",
            "prep_comp",
            "solve_full",
            "solve_comp",
            "cluster_ms",
            "cost_full",
            "cost_comp",
            "cost_delta",
        ],
    );
    let mut out = Outcome::default();
    for n in SIZES {
        let o = make_optimizer(SystemProfile::A, 0.0);
        let w = make_workload(&o, WorkloadKind::Hom, n);
        let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);

        // Uncompressed tune, from a full INUM cache (also the ground-truth
        // cost oracle for both recommendations below).
        let before = o.what_if_calls();
        let (prepared_full, prep_full) = timed(|| prepare(&o, &w));
        let calls_full = o.what_if_calls() - before;
        let cands = CGen::default().generate(o.schema(), &w);
        let rec_full = CoPhy::new(&o, CoPhyOptions::default())
            .try_tune_prepared(&prepared_full, &cands, &constraints, prep_full, calls_full, |_| {})
            .expect("uncompressed tune feasible");

        // Compressed tune: cluster → CGen + INUM on representatives only.
        let opts = CoPhyOptions { compression: policy, ..Default::default() };
        let rec_comp = CoPhy::new(&o, opts).try_tune(&w, &constraints).expect("feasible");
        let summary = rec_comp.compression.expect("compressed tune carries a summary");

        // Clustering alone, outside the tune.
        let (_, cluster) = timed(|| CompressedWorkload::compress(o.schema(), &w, policy));

        // Ground-truth expansion: both configurations are costed against
        // every original statement, not just the representatives.
        let cm = o.cost_model();
        let cost_full = prepared_full.cost(o.schema(), cm, &rec_full.configuration);
        let cost_comp = prepared_full.cost(o.schema(), cm, &rec_comp.configuration);
        let calls_comp = rec_comp.stats.what_if_calls;
        let call_cut = calls_full as f64 / calls_comp.max(1) as f64;
        let cost_delta = cost_comp / cost_full - 1.0;
        t.row(vec![
            Int(n as u64),
            Int(summary.n_representatives as u64),
            Int(calls_full),
            Int(calls_comp),
            Num(call_cut),
            Secs(prep_full),
            Secs(rec_comp.stats.inum_time),
            Secs(rec_full.stats.solve_time),
            Secs(rec_comp.stats.solve_time),
            Num(cluster.as_secs_f64() * 1e3),
            Num(cost_full),
            Num(cost_comp),
            Pct(cost_delta),
        ]);
        if n == 200 {
            out.claim(
                call_cut >= 4.0,
                format!(
                    "compression cuts what-if calls ≥ 4× at |W| = 200: {call_cut:.2}× \
                     ({calls_full} → {calls_comp})"
                ),
            );
            out.claim(
                cost_delta <= 0.05,
                format!(
                    "the compressed recommendation stays within 5% of the uncompressed tune \
                     at |W| = 200: {:+.2}%",
                    cost_delta * 100.0
                ),
            );
        }
    }
    out.tables.push(t);
    out
}
