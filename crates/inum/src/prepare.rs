//! INUM preparation: the few what-if calls that build the template cache.
//!
//! For each query we probe the optimizer with *ideal configurations* (see
//! [`crate::ideal`]) — one per *distinct* configuration the combinations of
//! exploited interesting orders build — plus one probe under the empty
//! configuration, whose plan sorts/hashes everything and therefore yields a
//! template with *no* slot requirements (guaranteeing `cost(q, X) < ∞` for
//! every `X`, including `X = ∅`).
//!
//! Combinations are enumerated in increasing complexity (none, singles,
//! pairs) and capped: template counts `K_q` stay small — the paper observes
//! `Σ_q K_q` grows roughly linearly with the workload — while still covering
//! the merge-join templates that need orders on *two* tables at once.  An
//! order whose ideal index is the order-free one (its column already follows
//! the equality prefix) rebuilds the configuration of the combination
//! without it; a configuration the statement was already answered for is
//! not asked again, since its answer would repeat a template already kept.

use cophy_catalog::{ColumnId, Configuration, Schema};
use cophy_optimizer::{
    access_rows, config_fingerprint, probe_with_retry, query_fingerprint, BackendError,
    ProbeAnswer, RetryPolicy, WhatIfBackend,
};
use cophy_workload::{Query, QueryId, Statement, UpdateStatement, Workload};

use crate::ideal::ideal_config;
use crate::template::{Slot, TemplatePlan};

/// Cap on the ideal-configuration combinations enumerated per query (the
/// all-none combination, singles, then pairs up to this), not on calls: a
/// query is asked once per distinct configuration among them, plus once
/// under the empty configuration.
pub(crate) const MAX_PROBES_PER_QUERY: usize = 48;

/// The INUM layer wrapping any what-if backend.
#[derive(Debug)]
pub struct Inum<'o> {
    opt: &'o dyn WhatIfBackend,
    /// How every preparation probe is retried; [`RetryPolicy::none`]
    /// (what [`Inum::new`] sets) never retries.
    retry: RetryPolicy,
}

/// A query with its cached template plans — the unit CoPhy's BIP generator
/// and the fast cost function consume.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub qid: QueryId,
    pub weight: f64,
    /// The read shell (SELECT body or UPDATE query shell).
    pub query: Query,
    /// `TPlans(q)`: deduplicated template plans, cheapest-β first.
    pub templates: Vec<TemplatePlan>,
    /// For UPDATE statements: the statement and the rows it modifies.
    pub update: Option<(UpdateStatement, f64)>,
    /// The fixed `c_q` base-table update cost (0 for SELECTs).
    pub fixed_update_cost: f64,
    /// `cost(q, ∅)`, computed once from the final templates.
    pub empty_cost: f64,
}

/// A fully prepared workload.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    pub queries: Vec<PreparedQuery>,
    /// Number of what-if optimizer calls spent preparing.
    pub what_if_calls: u64,
}

/// The fault account of one resilient preparation: what was retried, what
/// was lost, and which statements the losses degraded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrepFaultReport {
    /// Retries spent across all probes.
    pub retries: u64,
    /// Probes that failed at least once but recovered via retry.
    pub probes_recovered: u64,
    /// Probes that exhausted their retries (or failed hard).
    pub probes_exhausted: u64,
    /// Statements with at least one lost probe, in preparation order.  A
    /// lost ideal-configuration probe skips that template (sound but lossy:
    /// the empty-configuration template instantiates under every `X`, so a
    /// missing template can only *overestimate* costs); a lost
    /// empty-configuration probe substitutes the statement's templates.
    pub degraded: Vec<QueryId>,
}

impl PrepFaultReport {
    /// True when nothing failed and nothing was degraded — the prepared
    /// workload is bit-identical to a fault-free preparation.
    pub fn is_clean(&self) -> bool {
        self.probes_recovered == 0 && self.probes_exhausted == 0 && self.degraded.is_empty()
    }
}

impl<'o> Inum<'o> {
    /// An INUM layer that never retries: one failed probe is one lost probe.
    pub fn new(opt: &'o dyn WhatIfBackend) -> Self {
        Inum { opt, retry: RetryPolicy::none() }
    }

    /// An INUM layer that retries transient probe failures per `retry`.
    pub fn with_retry(opt: &'o dyn WhatIfBackend, retry: RetryPolicy) -> Self {
        Inum { opt, retry }
    }

    pub fn optimizer(&self) -> &'o dyn WhatIfBackend {
        self.opt
    }

    /// Prepare one statement — the unit every preparation is made of.
    /// Transient probe failures are retried per the policy this layer was
    /// built with; a probe that exhausts its retries *degrades* the
    /// statement into `report` instead of failing it — a lost
    /// ideal-configuration probe skips that template (costs only
    /// overestimated), a lost empty-configuration probe substitutes the
    /// statement's templates from `fallback` (a previously prepared
    /// workload, e.g. a shared-cache snapshot) or, failing that, the
    /// analytic atomic-configuration template.  Non-retryable errors (replay
    /// misses, spent quotas, an answer that does not describe the statement:
    /// [`BackendError::MalformedAnswer`]) abort: retrying or degrading would
    /// mask a configuration problem.
    pub fn try_prepare_statement(
        &self,
        qid: QueryId,
        stmt: &Statement,
        weight: f64,
        fallback: Option<&PreparedWorkload>,
        report: &mut PrepFaultReport,
    ) -> Result<PreparedQuery, BackendError> {
        let q = stmt.read_shell().clone();
        let exhausted = report.probes_exhausted;
        let templates = self.extract_templates(&q, fallback, report)?;
        // A hard failure returned above, so every probe lost here degraded.
        if report.probes_exhausted > exhausted {
            report.degraded.push(qid);
        }
        let update = match stmt {
            Statement::Select(_) => None,
            Statement::Update(u) => {
                Some((u.clone(), access_rows(self.opt.schema(), &u.shell, u.table())))
            }
        };
        let fixed = update.as_ref().map_or(0.0, |(_, rows)| self.opt.cost_model().rewrite(*rows));
        let mut pq = PreparedQuery {
            qid,
            weight,
            query: q,
            templates,
            update,
            fixed_update_cost: fixed,
            empty_cost: 0.0,
        };
        pq.empty_cost = pq.cost(self.opt.schema(), self.opt.cost_model(), &Configuration::empty());
        Ok(pq)
    }

    /// Prepare every statement of `w`, or only the *representatives* of a
    /// compressed workload (`cw.representatives()`: the cluster weights ride
    /// along as [`PreparedQuery::weight`], so every cached plan cost
    /// downstream stands in for the whole cluster).  Panics on a
    /// non-retryable [`BackendError`]; lost probes degrade silently.
    pub fn prepare_workload(&self, w: &Workload) -> PreparedWorkload {
        match self.try_prepare_workload_resilient(w, None) {
            Ok((prepared, _)) => prepared,
            Err(e) => panic!("what-if backend error: {e}"),
        }
    }

    /// [`Inum::try_prepare_statement`] over a workload in statement order,
    /// with the typed account of what was retried and what was lost.
    pub fn try_prepare_workload_resilient(
        &self,
        w: &Workload,
        fallback: Option<&PreparedWorkload>,
    ) -> Result<(PreparedWorkload, PrepFaultReport), BackendError> {
        let before = self.opt.what_if_calls();
        let mut report = PrepFaultReport::default();
        let mut queries = Vec::with_capacity(w.len());
        for (qid, stmt, weight) in w.iter() {
            queries.push(self.try_prepare_statement(qid, stmt, weight, fallback, &mut report)?);
        }
        let pw = PreparedWorkload { queries, what_if_calls: self.opt.what_if_calls() - before };
        Ok((pw, report))
    }

    /// The probing loop — the only place a preparation probe is issued,
    /// counted into `report`, retried and degraded: the empty configuration
    /// (the all-sort/hash template, whose slots never carry requirements),
    /// then the ideal configuration of each combination of interesting
    /// orders, unless the statement was already answered for it.  An answer
    /// is checked against `q` before any of it is read.
    fn extract_templates(
        &self,
        q: &Query,
        fallback: Option<&PreparedWorkload>,
        report: &mut PrepFaultReport,
    ) -> Result<Vec<TemplatePlan>, BackendError> {
        let schema = self.opt.schema();
        let cm = self.opt.cost_model();
        let mut probe = |cfg: &Configuration| {
            let probe = probe_with_retry(self.opt, &self.retry, q, cfg);
            report.retries += u64::from(probe.retries);
            match &probe.result {
                Ok(_) if probe.retries == 0 => {}
                Ok(_) => report.probes_recovered += 1,
                Err(_) => report.probes_exhausted += 1,
            }
            match probe.result {
                Ok(ans) if !describes(schema, q, &ans) => Err(BackendError::MalformedAnswer {
                    query: query_fingerprint(q),
                    config: config_fingerprint(cfg),
                }),
                result => result,
            }
        };
        let mut templates: Vec<TemplatePlan> = Vec::new();

        match probe(&Configuration::empty()) {
            Ok(base) => push_template(&mut templates, extract(schema, cm, q, &base)),
            Err(e) if e.is_retryable() => {
                let qfp = query_fingerprint(q);
                if let Some(prev) = fallback
                    .and_then(|pw| pw.queries.iter().find(|pq| query_fingerprint(&pq.query) == qfp))
                {
                    // A previously prepared twin: reuse its whole template
                    // set, skip every further probe of this statement.
                    return Ok(prev.templates.clone());
                }
                push_template(&mut templates, atomic_fallback_template(schema, cm, q));
            }
            Err(e) => return Err(e),
        }

        // The ideal configurations this statement was answered for.  Asked
        // again, one would answer alike (fault fates and corruption are per
        // pair) and its template would leave `templates` as it is; a lost
        // one is asked again.
        let mut answered: Vec<Configuration> = Vec::new();
        for combo in ideal_combos(q) {
            let refs: Vec<&[ColumnId]> = combo.iter().map(Vec::as_slice).collect();
            let cfg = ideal_config(schema, q, &refs);
            if answered.contains(&cfg) {
                continue;
            }
            match probe(&cfg) {
                Ok(ans) => {
                    push_template(&mut templates, extract(schema, cm, q, &ans));
                    answered.push(cfg);
                }
                Err(e) if e.is_retryable() => {}
                Err(e) => return Err(e),
            }
        }

        templates.sort_by(|a, b| a.internal_cost.total_cmp(&b.internal_cost));
        Ok(templates)
    }
}

/// The ideal-configuration combination stream of one query: all-none,
/// singles, pairs of per-table interesting orders (capped at
/// [`MAX_PROBES_PER_QUERY`]).
fn ideal_combos(q: &Query) -> Vec<Vec<Vec<ColumnId>>> {
    let per_table: Vec<Vec<Vec<ColumnId>>> =
        q.tables.iter().map(|t| q.interesting_orders_on(*t)).collect();
    let n = q.tables.len();
    let mut combos: Vec<Vec<Vec<ColumnId>>> = Vec::new();
    combos.push(vec![Vec::new(); n]);
    for i in 0..n {
        for o in &per_table[i] {
            let mut c = vec![Vec::new(); n];
            c[i] = o.clone();
            combos.push(c);
        }
    }
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            for oi in &per_table[i] {
                for oj in &per_table[j] {
                    if combos.len() >= MAX_PROBES_PER_QUERY {
                        break 'outer;
                    }
                    let mut c = vec![Vec::new(); n];
                    c[i] = oi.clone();
                    c[j] = oj.clone();
                    combos.push(c);
                }
            }
        }
    }
    combos
}

/// The analytic atomic-configuration template substituted when even the
/// empty-configuration probe is lost: every slot takes the heap path (no
/// order requirements, so it instantiates under every `X`) and the internal
/// cost is zero — the statement is costed by its leaf accesses alone.  The
/// substitution keeps the BIP finite and feasible; its weighted share is
/// what a degraded statement reports upward as cost-bound inflation.
fn atomic_fallback_template(
    schema: &Schema,
    cm: &cophy_optimizer::CostModel,
    q: &Query,
) -> TemplatePlan {
    let slots = q
        .tables
        .iter()
        .map(|&t| Slot {
            table: t,
            required: Vec::new(),
            heap_cost: Some(cophy_optimizer::heap_path(schema, cm, q, t, None).cost),
        })
        .collect();
    TemplatePlan { internal_cost: 0.0, slots }
}

/// Whether `ans` can be an answer for `q`: a finite, non-negative internal
/// cost, and one leaf per referenced table, in `q.tables` order, each
/// requiring only columns of its own table.  A template is built by indexing
/// the schema with these ids and priced from that cost, so an answer that
/// fails this must never reach [`extract`].
fn describes(schema: &Schema, q: &Query, ans: &ProbeAnswer) -> bool {
    ans.internal_cost.is_finite()
        && ans.internal_cost >= 0.0
        && ans.leaves.len() == q.tables.len()
        && ans.leaves.iter().zip(&q.tables).all(|(leaf, &t)| {
            let n_columns = schema.table(t).columns.len();
            leaf.table == t && leaf.required.iter().all(|c| (c.0 as usize) < n_columns)
        })
}

/// Turn a probe answer into a template: β = internal cost, slots carry the
/// order requirements the plan imposes on its leaves (§3 / Appendix A).
/// The heap fallback `γ` is analytic — no backend involvement.
fn extract(
    schema: &Schema,
    cm: &cophy_optimizer::CostModel,
    q: &Query,
    ans: &ProbeAnswer,
) -> TemplatePlan {
    let mut slots = Vec::with_capacity(q.tables.len());
    for leaf in &ans.leaves {
        let heap_cost = if leaf.required.is_empty() {
            Some(cophy_optimizer::heap_path(schema, cm, q, leaf.table, None).cost)
        } else {
            None
        };
        slots.push(Slot { table: leaf.table, required: leaf.required.clone(), heap_cost });
    }
    TemplatePlan { internal_cost: ans.internal_cost, slots }
}

/// Deduplicate by slot signature, keeping the cheaper internal cost.
fn push_template(templates: &mut Vec<TemplatePlan>, tpl: TemplatePlan) {
    if let Some(existing) = templates.iter_mut().find(|t| t.signature() == tpl.signature()) {
        if tpl.internal_cost < existing.internal_cost {
            existing.internal_cost = tpl.internal_cost;
            existing.slots = tpl.slots;
        }
    } else {
        templates.push(tpl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
    use cophy_workload::{HetGen, HomGen};

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    #[test]
    fn every_query_has_an_unconstrained_template() {
        let o = opt();
        let inum = Inum::new(&o);
        let w = HomGen::new(2).generate(o.schema(), 30);
        let pw = inum.prepare_workload(&w);
        for pq in &pw.queries {
            assert!(
                pq.templates.iter().any(|t| t.slots.iter().all(|s| s.required.is_empty())),
                "query {:?} lacks an I∅-instantiable template",
                pq.qid
            );
            assert!(!pq.templates.is_empty());
        }
    }

    /// A backend that logs every ask — the pair and whether it answered.
    #[derive(Debug)]
    struct CountingBackend<B> {
        inner: B,
        asks: std::sync::Mutex<Vec<(Query, Configuration, bool)>>,
    }

    impl<B: WhatIfBackend> CountingBackend<B> {
        fn new(inner: B) -> Self {
            CountingBackend { inner, asks: std::sync::Mutex::default() }
        }

        fn take_asks(&self) -> Vec<(Query, Configuration, bool)> {
            std::mem::take(&mut *self.asks.lock().unwrap())
        }
    }

    impl<B: WhatIfBackend> WhatIfBackend for CountingBackend<B> {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn profile(&self) -> cophy_optimizer::SystemProfile {
            self.inner.profile()
        }

        fn cost_model(&self) -> &cophy_optimizer::CostModel {
            self.inner.cost_model()
        }

        fn try_probe(&self, q: &Query, cfg: &Configuration) -> Result<ProbeAnswer, BackendError> {
            let result = self.inner.try_probe(q, cfg);
            self.asks.lock().unwrap().push((q.clone(), cfg.clone(), result.is_ok()));
            result
        }

        fn what_if_calls(&self) -> u64 {
            self.inner.what_if_calls()
        }

        fn reset_call_counter(&self) {
            self.inner.reset_call_counter()
        }
    }

    #[test]
    fn probe_counts_are_bounded() {
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan};
        let w = HomGen::new(2).generate(opt().schema(), 20);
        for plan in [FaultPlan::none(1), FaultPlan::chaos(5)] {
            let backend = CountingBackend::new(FaultInjectingBackend::new(Box::new(opt()), plan));
            let inum = Inum::with_retry(&backend, fast_retry(3));
            let mut report = PrepFaultReport::default();
            for (qid, stmt, weight) in w.iter() {
                let calls = backend.what_if_calls();
                inum.try_prepare_statement(qid, stmt, weight, None, &mut report).unwrap();
                let calls = backend.what_if_calls() - calls;
                assert!(
                    calls <= (MAX_PROBES_PER_QUERY + 1) as u64,
                    "too many probes for {qid:?}: {calls}"
                );
                // No pair this statement was answered for is asked again.
                let asks = backend.take_asks();
                for (i, (q, cfg, ok)) in asks.iter().enumerate() {
                    let again = asks[i + 1..].iter().any(|(q2, cfg2, _)| q2 == q && cfg2 == cfg);
                    assert!(!(*ok && again), "{qid:?} re-asked an answered pair: {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn templates_deduplicated() {
        let o = opt();
        let inum = Inum::new(&o);
        let w = HetGen::new(6).generate(o.schema(), 25);
        let pw = inum.prepare_workload(&w);
        for pq in &pw.queries {
            let mut sigs: Vec<_> = pq.templates.iter().map(|t| t.signature()).collect();
            let before = sigs.len();
            sigs.sort();
            sigs.dedup();
            assert_eq!(before, sigs.len(), "duplicate template signatures");
        }
    }

    #[test]
    fn compressed_prepare_probes_only_representatives() {
        let o = opt();
        let inum = Inum::new(&o);
        let s = o.schema();
        // Duplicate every statement: compression must halve the probe bill.
        let base = HomGen::new(13).generate(s, 10);
        let mut w = cophy_workload::Workload::new();
        for (_, stmt, weight) in base.iter().chain(base.iter()) {
            w.push_weighted(stmt.clone(), weight);
        }
        let cw = cophy_compress::CompressedWorkload::compress(
            s,
            &w,
            cophy_compress::CompressionPolicy::Lossless,
        );
        let full = inum.prepare_workload(&w);
        let comp = inum.prepare_workload(cw.representatives());
        assert_eq!(comp.queries.len(), cw.n_representatives());
        assert!(comp.queries.len() < w.len());
        assert!(
            comp.what_if_calls <= full.what_if_calls / 2 + 1,
            "representative prepare must cut the what-if bill: {} vs {}",
            comp.what_if_calls,
            full.what_if_calls
        );
        // Cluster weights stand in for the merged duplicates: identical
        // total workload cost under any configuration.
        let cfg = Configuration::empty();
        let a = comp.cost(s, o.cost_model(), &cfg);
        let b = full.cost(s, o.cost_model(), &cfg);
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
    }

    fn fast_retry(max_attempts: u32) -> cophy_optimizer::RetryPolicy {
        cophy_optimizer::RetryPolicy {
            max_attempts,
            base_backoff: std::time::Duration::from_micros(10),
            max_backoff: std::time::Duration::from_micros(50),
            ..Default::default()
        }
    }

    impl Inum<'_> {
        /// The probing loop as it was before a configuration the statement
        /// was answered for stopped being asked again: every combination is
        /// probed, duplicates included.
        fn extract_templates_every_combination(
            &self,
            q: &Query,
            fallback: Option<&PreparedWorkload>,
            report: &mut PrepFaultReport,
        ) -> Result<Vec<TemplatePlan>, BackendError> {
            let schema = self.opt.schema();
            let cm = self.opt.cost_model();
            let mut probe = |cfg: &Configuration| {
                let probe = probe_with_retry(self.opt, &self.retry, q, cfg);
                report.retries += u64::from(probe.retries);
                match &probe.result {
                    Ok(_) if probe.retries == 0 => {}
                    Ok(_) => report.probes_recovered += 1,
                    Err(_) => report.probes_exhausted += 1,
                }
                probe.result
            };
            let mut templates: Vec<TemplatePlan> = Vec::new();

            match probe(&Configuration::empty()) {
                Ok(base) => push_template(&mut templates, extract(schema, cm, q, &base)),
                Err(e) if e.is_retryable() => {
                    let qfp = query_fingerprint(q);
                    if let Some(prev) = fallback.and_then(|pw| {
                        pw.queries.iter().find(|pq| query_fingerprint(&pq.query) == qfp)
                    }) {
                        // A previously prepared twin: reuse its whole template
                        // set, skip every further probe of this statement.
                        return Ok(prev.templates.clone());
                    }
                    push_template(&mut templates, atomic_fallback_template(schema, cm, q));
                }
                Err(e) => return Err(e),
            }

            for combo in ideal_combos(q) {
                let refs: Vec<&[ColumnId]> = combo.iter().map(Vec::as_slice).collect();
                match probe(&ideal_config(schema, q, &refs)) {
                    Ok(ans) => push_template(&mut templates, extract(schema, cm, q, &ans)),
                    Err(e) if e.is_retryable() => {}
                    Err(e) => return Err(e),
                }
            }

            templates.sort_by(|a, b| a.internal_cost.total_cmp(&b.internal_cost));
            Ok(templates)
        }
    }

    /// `try_prepare_workload_resilient` over the loop that probes every
    /// combination: each statement's templates, the fault account and the
    /// calls spent.
    fn prepare_every_combination(
        inum: &Inum<'_>,
        w: &Workload,
    ) -> (Vec<Vec<TemplatePlan>>, PrepFaultReport, u64) {
        let before = inum.opt.what_if_calls();
        let mut report = PrepFaultReport::default();
        let mut templates = Vec::with_capacity(w.len());
        for (qid, stmt, _) in w.iter() {
            let exhausted = report.probes_exhausted;
            templates.push(
                inum.extract_templates_every_combination(stmt.read_shell(), None, &mut report)
                    .unwrap(),
            );
            if report.probes_exhausted > exhausted {
                report.degraded.push(qid);
            }
        }
        (templates, report, inum.opt.what_if_calls() - before)
    }

    /// Skipping the configurations a statement was already answered for
    /// changes nothing but the call count: over three generators at three
    /// seeds and four fault plans, every template (β bits, signature, slots)
    /// and the whole fault account equal those of the loop that probes every
    /// combination, at no more calls — strictly fewer on HomGen.
    #[test]
    fn answered_configurations_are_not_asked_again_and_nothing_else_moves() {
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan};
        let schema = opt().schema().clone();
        let permanent = FaultPlan { permanent_rate: 0.3, ..FaultPlan::none(13) };
        let plans = [
            FaultPlan::none(1),
            FaultPlan::transient_only(21, 0.8, 3),
            FaultPlan::chaos(5),
            permanent,
        ];
        for seed in [3, 17, 101] {
            let workloads = [
                ("hom", HomGen::new(seed).generate(&schema, 16)),
                ("het", HetGen::new(seed).generate(&schema, 16)),
                ("update", cophy_workload::UpdateGen::new(seed).generate(&schema, 10)),
            ];
            for (name, w) in &workloads {
                for plan in &plans {
                    let label = format!("{name} seed {seed} {plan:?}");
                    let backend = || FaultInjectingBackend::new(Box::new(opt()), plan.clone());
                    let (every_backend, shipped_backend) = (backend(), backend());
                    let retry = RetryPolicy { probe_deadline: None, ..fast_retry(3) };
                    let (want, want_report, want_calls) = prepare_every_combination(
                        &Inum::with_retry(&every_backend, retry.clone()),
                        w,
                    );
                    let (got, report) = Inum::with_retry(&shipped_backend, retry)
                        .try_prepare_workload_resilient(w, None)
                        .unwrap();
                    assert_eq!(report, want_report, "{label}");
                    assert_eq!(got.queries.len(), want.len(), "{label}");
                    for (pq, want) in got.queries.iter().zip(&want) {
                        assert_eq!(pq.templates.len(), want.len(), "{label} {:?}", pq.qid);
                        for (a, b) in pq.templates.iter().zip(want) {
                            assert_eq!(a.internal_cost.to_bits(), b.internal_cost.to_bits());
                            assert_eq!(a.signature(), b.signature(), "{label} {:?}", pq.qid);
                            assert_eq!(a.slots.len(), b.slots.len());
                            for (sa, sb) in a.slots.iter().zip(&b.slots) {
                                assert_eq!((sa.table, &sa.required), (sb.table, &sb.required));
                                assert_eq!(
                                    sa.heap_cost.map(f64::to_bits),
                                    sb.heap_cost.map(f64::to_bits)
                                );
                            }
                        }
                    }
                    assert!(
                        got.what_if_calls <= want_calls,
                        "{label}: {} > {want_calls}",
                        got.what_if_calls
                    );
                    if *name == "hom" {
                        assert!(
                            got.what_if_calls < want_calls,
                            "{label}: {} ≥ {want_calls}",
                            got.what_if_calls
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resilient_prepare_recovers_all_transient_schedules_bit_identically() {
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan};
        let clean = opt();
        let w = HetGen::new(8).generate(clean.schema(), 12);
        let want = Inum::new(&clean).prepare_workload(&w);

        let faulty =
            FaultInjectingBackend::new(Box::new(opt()), FaultPlan::transient_only(21, 0.8, 3));
        let inum = Inum::with_retry(&faulty, fast_retry(4));
        let (got, report) = inum.try_prepare_workload_resilient(&w, None).unwrap();
        assert!(report.degraded.is_empty(), "all-transient schedule must fully recover");
        assert!(report.probes_recovered > 0, "the schedule must actually have injected");
        assert_eq!(got.what_if_calls, want.what_if_calls, "faulted attempts spend no calls");
        for (a, b) in got.queries.iter().zip(want.queries.iter()) {
            assert_eq!(a.qid, b.qid);
            assert_eq!(a.templates.len(), b.templates.len());
            for (ta, tb) in a.templates.iter().zip(b.templates.iter()) {
                assert_eq!(ta.internal_cost.to_bits(), tb.internal_cost.to_bits());
                assert_eq!(ta.signature(), tb.signature());
            }
        }
    }

    #[test]
    fn permanent_faults_degrade_instead_of_aborting() {
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan};
        let clean = opt();
        let w = HomGen::new(3).generate(clean.schema(), 10);
        let want = Inum::new(&clean).prepare_workload(&w);
        let mut plan = FaultPlan::none(5);
        plan.permanent_rate = 0.3;
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan.clone());
        let inum = Inum::with_retry(&faulty, fast_retry(2));
        let (pw, report) = inum.try_prepare_workload_resilient(&w, None).unwrap();
        assert_eq!(pw.queries.len(), w.len(), "every statement must still be prepared");
        assert!(!report.is_clean(), "a 30% permanent schedule must degrade something");
        assert!(report.probes_exhausted > 0);
        assert!(!report.degraded.is_empty() && report.degraded.len() < w.len());
        for (pq, clean_pq) in pw.queries.iter().zip(&want.queries) {
            assert!(
                pq.templates.iter().any(|t| t.slots.iter().all(|s| s.required.is_empty())),
                "degraded statement {:?} lost its I∅-instantiable template",
                pq.qid
            );
            // A statement that lost no probe is prepared exactly as without
            // the fault layer.
            if !report.degraded.contains(&pq.qid) {
                assert_eq!(pq.templates.len(), clean_pq.templates.len(), "{:?}", pq.qid);
                for (ta, tb) in pq.templates.iter().zip(&clean_pq.templates) {
                    assert_eq!(ta.internal_cost.to_bits(), tb.internal_cost.to_bits());
                    assert_eq!(ta.signature(), tb.signature());
                }
            }
        }

        // With every probe lost and no fallback, every statement is degraded
        // and holds exactly the analytic atomic template (β = 0).
        plan.permanent_rate = 1.0;
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let inum = Inum::with_retry(&faulty, fast_retry(2));
        let (pw, report) = inum.try_prepare_workload_resilient(&w, None).unwrap();
        assert_eq!(report.degraded, pw.queries.iter().map(|pq| pq.qid).collect::<Vec<_>>());
        for pq in &pw.queries {
            let atomic = atomic_fallback_template(clean.schema(), clean.cost_model(), &pq.query);
            assert_eq!(atomic.internal_cost, 0.0);
            assert_eq!(pq.templates, vec![atomic], "{:?}", pq.qid);
        }
    }

    #[test]
    fn cache_fallback_substitutes_previously_prepared_templates() {
        use cophy_optimizer::{FaultInjectingBackend, FaultPlan};
        let clean = opt();
        let w = HomGen::new(17).generate(clean.schema(), 8);
        let prior = Inum::new(&clean).prepare_workload(&w);

        let mut plan = FaultPlan::none(2);
        plan.permanent_rate = 1.0; // every probe fails: everything substitutes
        let faulty = FaultInjectingBackend::new(Box::new(opt()), plan);
        let inum = Inum::with_retry(&faulty, fast_retry(2));
        let (pw, report) = inum.try_prepare_workload_resilient(&w, Some(&prior)).unwrap();
        assert_eq!(report.degraded.len(), w.len());
        for (a, b) in pw.queries.iter().zip(prior.queries.iter()) {
            assert_eq!(a.templates.len(), b.templates.len(), "cache substitution must be whole");
            for (ta, tb) in a.templates.iter().zip(b.templates.iter()) {
                assert_eq!(ta.internal_cost.to_bits(), tb.internal_cost.to_bits());
            }
        }
        assert_eq!(pw.what_if_calls, 0, "an all-substituted prepare spends no live calls");
    }

    #[test]
    fn retry_policy_is_invisible_without_faults() {
        let o = opt();
        let w = HetGen::new(4).generate(o.schema(), 9);
        let plain = Inum::new(&o).prepare_workload(&w);
        let inum = Inum::with_retry(&o, fast_retry(4));
        let (res, report) = inum.try_prepare_workload_resilient(&w, None).unwrap();
        assert!(report.is_clean());
        assert_eq!(res.what_if_calls, plain.what_if_calls, "retry layer must add zero probes");
        for (a, b) in res.queries.iter().zip(plain.queries.iter()) {
            assert_eq!(a.templates.len(), b.templates.len());
            for (ta, tb) in a.templates.iter().zip(b.templates.iter()) {
                assert_eq!(ta.internal_cost.to_bits(), tb.internal_cost.to_bits());
                assert_eq!(ta.signature(), tb.signature());
            }
        }
    }

    #[test]
    fn update_statements_carry_ucost_data() {
        let o = opt();
        let inum = Inum::new(&o);
        let w = cophy_workload::UpdateGen::new(1).generate(o.schema(), 5);
        let pw = inum.prepare_workload(&w);
        for pq in &pw.queries {
            let (u, rows) = pq.update.as_ref().expect("update info");
            assert!(*rows >= 1.0);
            assert!(pq.fixed_update_cost > 0.0);
            assert_eq!(u.shell.tables, pq.query.tables);
        }
    }
}
