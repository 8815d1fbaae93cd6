//! # cophy-compress
//!
//! Workload compression: cluster a large workload and tune a *weighted
//! representative set* instead of every statement, with bounded quality
//! loss.
//!
//! CoPhy's pipeline pays one INUM preparation (a handful of what-if
//! optimizer calls) and one BIP block per statement, so what-if budget and
//! model size grow linearly with `|W|`.  Production workloads, however, are
//! dominated by statements that differ only in their constants; compressing
//! them first is the standard scalability lever of every production tuner.
//! This crate implements that stage:
//!
//! 1. **Exact dedup by shell** — statements with identical shells (constants
//!    included) merge losslessly, summing weights.
//! 2. **Greedy ε-bounded agglomeration** — statements whose structural
//!    template matches an existing representative and whose
//!    [`StatementFeatures::distance`] (largest selectivity deviation /
//!    relative update-footprint deviation) is within `ε` merge onto the
//!    nearest representative, found by one scan of the template's own
//!    representatives, oldest first.  The scan is short: counted at the
//!    default ε, a statement that misses the exact-shell index meets at
//!    most 5 of them on every generator; where ε = 0.01 leaves a template
//!    some 140, a feature-bucket grid over them measured slower.
//!
//! Both steps start from one lookup of the statement's [`TemplateKey`].
//! Each template's entry holds its representatives, oldest first, and its
//! exact-shell index: every [`ShellKey`] absorbed under the template — the
//! statement's constants, which with the template are its shell — mapped to
//! its representative.  The index keeps one entry per distinct shell ever
//! absorbed (≈ 0.93 per statement on a 40 k-statement `W_hom` stream at the
//! default ε), so it is the one part of the resident state that follows the
//! stream rather than the representatives: a few constants and a hash slot,
//! ≈ 60–70 bytes of live heap per absorbed statement (`ingest_allocations.rs`
//! bounds it).
//!
//! The result is a [`CompressedWorkload`]: a weighted representative
//! [`Workload`] and nothing per absorbed statement
//! ([`CompressedWorkload::absorb`] returns each statement's representative).
//! Cluster weights **conserve total workload weight**, so a cost computed
//! over the representatives (`Σ_r w_r · cost(rep_r, X)`) *is* the expansion
//! of the estimated full-workload cost — each original statement is
//! approximated by its representative at its own weight.  Every merge
//! re-centers the representative's feature point to the weighted running mean
//! of its members; the representative *statement* stays the first member.
//!
//! [`CompressedWorkload::absorb`] routes statement deltas through
//! *incremental re-clustering*: a nudged workload usually lands its new
//! statements in existing clusters (a weight bump, zero new what-if calls)
//! instead of forcing a new representative per nudge.
//!
//! A caller that must be able to take a group of absorptions back (a
//! session whose what-if probe fails mid-chunk) brackets them with
//! [`CompressedWorkload::begin_chunk`] and
//! [`CompressedWorkload::commit_chunk`] /
//! [`CompressedWorkload::rollback_chunk`]: in between, every `absorb` logs
//! what it overwrote in an undo journal whose size is proportional to the
//! chunk, not to the clustering.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cophy_catalog::Schema;
use cophy_workload::{
    PredOp, QueryId, ShellKey, Statement, StatementFeatures, TemplateKey, Workload,
};

/// How aggressively to compress a workload before INUM preparation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompressionPolicy {
    /// No compression: every statement is its own representative and the
    /// pipeline behaves bit-for-bit as if this subsystem did not exist.
    Off,
    /// Merge exact duplicates only (identical shells, constants included).
    /// The compressed tune is *exactly* equivalent to the full tune.
    Lossless,
    /// Lossless merging plus greedy ε-bounded agglomeration: statements of
    /// the same structural template whose feature distance is at most `ε`
    /// share a representative.  `Epsilon(0.0)` is equivalent to `Lossless`.
    Epsilon(f64),
}

impl CompressionPolicy {
    /// The default agglomeration threshold: the largest selectivity
    /// deviation tolerated inside one cluster.  Chosen so that `W_hom`-style
    /// template workloads compress by well over the 4× acceptance floor
    /// while recommendations stay within a few percent of the uncompressed
    /// tune (see the `fig_compress` experiment).
    pub const DEFAULT_EPSILON: f64 = 0.25;

    /// `Epsilon` at the default threshold.
    pub fn default_epsilon() -> CompressionPolicy {
        CompressionPolicy::Epsilon(Self::DEFAULT_EPSILON)
    }

    pub fn is_off(&self) -> bool {
        matches!(self, CompressionPolicy::Off)
    }

    /// Check an `Epsilon` threshold for validity.  `Result`-returning
    /// callers (e.g. `CoPhy::try_tune`) surface this as an error before any
    /// clustering runs; [`CompressedWorkload::compress`] panics on it.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            CompressionPolicy::Epsilon(e) if !(e.is_finite() && e >= 0.0) => {
                Err(format!("invalid compression ε {e}: must be a finite, non-negative number"))
            }
            _ => Ok(()),
        }
    }

    /// The merge threshold, or `None` when compression is off.
    ///
    /// Panics on an invalid `Epsilon` threshold (validate with
    /// [`CompressionPolicy::validate`] first to handle it gracefully).
    pub(crate) fn merge_threshold(&self) -> Option<f64> {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        match *self {
            CompressionPolicy::Off => None,
            CompressionPolicy::Lossless => Some(0.0),
            CompressionPolicy::Epsilon(e) => Some(e),
        }
    }
}

impl std::fmt::Display for CompressionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressionPolicy::Off => write!(f, "off"),
            CompressionPolicy::Lossless => write!(f, "lossless"),
            CompressionPolicy::Epsilon(e) => write!(f, "epsilon({e})"),
        }
    }
}

/// What happened to one absorbed statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorption {
    /// The statement merged onto an existing representative (weight bump —
    /// no new INUM preparation needed).
    Merged(QueryId),
    /// The statement opened a new cluster and is its representative.
    NewRepresentative(QueryId),
}

impl Absorption {
    /// The representative the statement was assigned to.
    pub fn representative(&self) -> QueryId {
        match *self {
            Absorption::Merged(id) | Absorption::NewRepresentative(id) => id,
        }
    }
}

/// Summary statistics of a compression, attached to recommendations so the
/// expansion back to the full workload stays auditable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionSummary {
    pub policy: CompressionPolicy,
    pub n_original: usize,
    pub n_representatives: usize,
    /// Conserved total workload weight `Σ_q f_q`.
    pub total_weight: f64,
}

impl CompressionSummary {
    /// Compression ratio `|W| / |representatives|` (≥ 1).
    pub fn ratio(&self) -> f64 {
        self.n_original as f64 / self.n_representatives.max(1) as f64
    }
}

/// One template's part of the clustering.
#[derive(Debug, Clone, Default, PartialEq)]
struct TemplateEntry {
    /// The template's representatives, oldest first: what the
    /// ε-agglomeration scans.
    reps: Vec<QueryId>,
    /// Exact-shell index: the constants of every shell ever absorbed under
    /// the template → its representative.
    shells: HashMap<ShellKey, QueryId>,
}

/// What one `absorb` overwrote, logged while a chunk is open.
#[derive(Debug, Clone, PartialEq)]
enum Undo {
    /// A merge onto `rep`; the representative's previous feature point sits
    /// on [`Journal::points`].
    Merged {
        rep: QueryId,
        /// The representative's weight before the merge.
        weight: f64,
        /// The shell an ε-merge added to the representative's template's
        /// exact-shell index.
        shell: Option<ShellKey>,
    },
    /// A cluster was opened: the last representative, with its feature row
    /// and its entries in its template's index, is new.
    Opened,
}

/// Undo journal of one chunk: one record per absorbed statement, so its
/// size follows the chunk and not the clustering.  Rolling back replays the
/// records backwards and puts saved values back — it never inverts float
/// arithmetic — and every index entry it removes is the newest of its list,
/// so the restored state equals the pre-chunk state field for field.
#[derive(Debug, Clone, PartialEq)]
struct Journal {
    /// `original_weight` and `n_absorbed` when the chunk began.
    original_weight: f64,
    n_absorbed: usize,
    records: Vec<Undo>,
    /// Stack of previous feature points (selectivities, then update rows),
    /// one per merge.
    points: Vec<f64>,
}

/// A compressed workload: weighted representatives whose resident state
/// follows their number, not the number of statements absorbed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedWorkload {
    representatives: Workload,
    rep_features: Vec<StatementFeatures>,
    /// Each template's representatives and exact-shell index.
    by_template: HashMap<TemplateKey, TemplateEntry>,
    /// Count of absorbed statements.
    n_absorbed: usize,
    original_weight: f64,
    policy: CompressionPolicy,
    /// `policy`'s merge threshold, resolved (and validated) once.
    eps: Option<f64>,
    /// The open chunk's undo journal (see [`CompressedWorkload::begin_chunk`]).
    journal: Option<Journal>,
}

impl CompressedWorkload {
    /// Compress `w` under `policy`: [`CompressedWorkload::streaming`] with
    /// every statement absorbed in order.  Statement order is preserved
    /// among representatives (each cluster's statement is its first member),
    /// and cluster weights sum to the original total workload weight.
    pub fn compress(
        schema: &Schema,
        w: &Workload,
        policy: CompressionPolicy,
    ) -> CompressedWorkload {
        let mut cw = CompressedWorkload::streaming(policy);
        for (_, stmt, weight) in w.iter() {
            cw.absorb(schema, stmt, weight);
        }
        cw
    }

    /// An empty compressed workload, for chunked ingestion of workloads too
    /// large to materialize.  Panics on an invalid ε
    /// (`CompressionPolicy::merge_threshold`).
    pub fn streaming(policy: CompressionPolicy) -> CompressedWorkload {
        CompressedWorkload {
            representatives: Workload::new(),
            rep_features: Vec::new(),
            by_template: HashMap::new(),
            n_absorbed: 0,
            original_weight: 0.0,
            policy,
            eps: policy.merge_threshold(),
            journal: None,
        }
    }

    /// The weighted representative workload INUM should prepare.
    pub fn representatives(&self) -> &Workload {
        &self.representatives
    }

    pub fn policy(&self) -> CompressionPolicy {
        self.policy
    }

    /// The current (possibly re-centered) feature point of a representative,
    /// when features were extracted for it (`Epsilon`/`Lossless` policies).
    pub fn representative_features(&self, rep: QueryId) -> Option<&StatementFeatures> {
        self.rep_features.get(rep.0 as usize)
    }

    pub fn n_original(&self) -> usize {
        self.n_absorbed
    }

    pub fn n_representatives(&self) -> usize {
        self.representatives.len()
    }

    /// Conserved total weight `Σ_q f_q` of the original workload.
    pub fn total_weight(&self) -> f64 {
        self.original_weight
    }

    pub fn summary(&self) -> CompressionSummary {
        CompressionSummary {
            policy: self.policy,
            n_original: self.n_original(),
            n_representatives: self.n_representatives(),
            total_weight: self.original_weight,
        }
    }

    /// Rough bytes of resident clustering state: the representatives with
    /// their feature rows, and each template's entry — whose exact-shell
    /// index follows the distinct shells absorbed, not the representatives.
    /// An index entry is charged its hash slot and its constants' words.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // A template key, at the 24 words the encoder reserves.
        let template = size_of::<TemplateKey>() + 24 * size_of::<u64>();
        let word = size_of::<u64>();
        let constants = |rep: QueryId| constant_words(self.representatives.statement(rep));
        let mut bytes = self.representatives.len() * size_of::<Statement>();
        for (rep, f) in self.representatives.ids().zip(&self.rep_features) {
            bytes += size_of::<StatementFeatures>() + template;
            bytes += (constants(rep) + f.selectivities.len()) * word;
        }
        for entry in self.by_template.values() {
            // Every shell of a template holds as many constants.
            let words = constants(entry.reps[0]);
            bytes += template + size_of::<TemplateEntry>();
            bytes += entry.reps.capacity() * size_of::<QueryId>();
            bytes += entry.shells.capacity() * (size_of::<(ShellKey, QueryId)>() + 1);
            bytes += entry.shells.len() * words * word;
        }
        bytes
    }

    /// Absorb one statement: exact-shell dedup first, then (for `Epsilon`)
    /// the greedy scan over same-template representatives, else a new
    /// cluster.  This is the incremental re-clustering entry point used by
    /// interactive sessions — a `Merged` outcome costs zero what-if calls.
    pub fn absorb(&mut self, schema: &Schema, stmt: &Statement, weight: f64) -> Absorption {
        self.original_weight += weight;
        self.n_absorbed += 1;
        let Some(eps) = self.eps else {
            return self.open_cluster(stmt, weight, None);
        };
        let f = StatementFeatures::extract(schema, stmt);
        let Some(entry) = self.by_template.get_mut(&f.template) else {
            return self.open_cluster(stmt, weight, Some(f));
        };
        if let Some(&rep) = entry.shells.get(&f.shell) {
            return self.merge_into(rep, weight, &f.selectivities, f.update_rows, None);
        }
        if eps > 0.0 {
            if let Some(rep) = nearest_within(&entry.reps, &self.rep_features, &f, eps) {
                // A novel shell: indexed so that later exact duplicates of it
                // take the O(1) path onto the same representative.
                let journaled = self.journal.as_ref().map(|_| f.shell.clone());
                entry.shells.insert(f.shell, rep);
                return self.merge_into(rep, weight, &f.selectivities, f.update_rows, journaled);
            }
        }
        self.open_cluster(stmt, weight, Some(f))
    }

    /// Absorb one chunk of a stream; returns how many opened new clusters.
    pub fn absorb_chunk(&mut self, schema: &Schema, chunk: &[(Statement, f64)]) -> usize {
        chunk
            .iter()
            .filter(|(stmt, weight)| {
                matches!(self.absorb(schema, stmt, *weight), Absorption::NewRepresentative(_))
            })
            .count()
    }

    /// Open a chunk: until [`CompressedWorkload::commit_chunk`] or
    /// [`CompressedWorkload::rollback_chunk`], every `absorb` logs what it
    /// overwrote, in space proportional to the statements absorbed.
    ///
    /// Panics if a chunk is already open.
    pub fn begin_chunk(&mut self) {
        assert!(self.journal.is_none(), "a chunk is already open");
        self.journal = Some(Journal {
            original_weight: self.original_weight,
            n_absorbed: self.n_absorbed,
            records: Vec::new(),
            points: Vec::new(),
        });
    }

    /// Keep everything absorbed since [`CompressedWorkload::begin_chunk`].
    pub fn commit_chunk(&mut self) {
        self.journal = None;
    }

    /// Take back everything absorbed since
    /// [`CompressedWorkload::begin_chunk`]: afterwards the clustering equals
    /// its state at that call field for field (a no-op when no chunk is
    /// open).
    pub fn rollback_chunk(&mut self) {
        let Some(mut journal) = self.journal.take() else { return };
        while let Some(undo) = journal.records.pop() {
            match undo {
                Undo::Merged { rep, weight, shell } => {
                    let rf = &mut self.rep_features[rep.0 as usize];
                    if let Some(shell) = shell {
                        let entry = self.by_template.get_mut(&rf.template);
                        entry.expect("template is indexed").shells.remove(&shell);
                    }
                    rf.update_rows = journal.points.pop().expect("one point per merge");
                    let at = journal.points.len() - rf.selectivities.len();
                    rf.selectivities.copy_from_slice(&journal.points[at..]);
                    journal.points.truncate(at);
                    self.representatives.set_weight(rep, weight);
                }
                Undo::Opened => {
                    self.representatives.pop();
                    if self.policy.is_off() {
                        continue; // no features, no indexes
                    }
                    let f = self.rep_features.pop().expect("one feature row per representative");
                    let entry = self.by_template.get_mut(&f.template).expect("template is indexed");
                    entry.shells.remove(&f.shell);
                    entry.reps.pop();
                    if entry.reps.is_empty() {
                        self.by_template.remove(&f.template);
                    }
                }
            }
        }
        self.original_weight = journal.original_weight;
        self.n_absorbed = journal.n_absorbed;
    }

    /// Merge a statement with feature point (`selectivities`, `update_rows`)
    /// onto `rep`.  `shell` is the journal's copy of the shell an ε-merge
    /// indexed, if any.
    fn merge_into(
        &mut self,
        rep: QueryId,
        weight: f64,
        selectivities: &[f64],
        update_rows: f64,
        shell: Option<ShellKey>,
    ) -> Absorption {
        let weight_before = self.representatives.weight(rep);
        self.representatives.add_weight(rep, weight);
        self.recenter(rep, weight, selectivities, update_rows);
        if let Some(journal) = &mut self.journal {
            journal.records.push(Undo::Merged { rep, weight: weight_before, shell });
        }
        Absorption::Merged(rep)
    }

    /// Online re-centering: shift the representative's stored feature point
    /// toward the weighted running mean of its members,
    /// `c ← c + (w / W) · (x − c)` with `W` the cluster's cumulative weight.
    /// The representative *statement* stays the first member — only the
    /// feature point [`nearest_within`] measures against moves.
    fn recenter(&mut self, rep: QueryId, weight: f64, selectivities: &[f64], update_rows: f64) {
        let total = self.representatives.weight(rep);
        let rf = &mut self.rep_features[rep.0 as usize];
        if let Some(journal) = &mut self.journal {
            journal.points.extend_from_slice(&rf.selectivities);
            journal.points.push(rf.update_rows);
        }
        if !total.is_finite() || total <= 0.0 || selectivities.len() != rf.selectivities.len() {
            return;
        }
        let alpha = weight / total;
        for (c, &x) in rf.selectivities.iter_mut().zip(selectivities) {
            *c += alpha * (x - *c);
        }
        rf.update_rows += alpha * (update_rows - rf.update_rows);
    }

    fn open_cluster(
        &mut self,
        stmt: &Statement,
        weight: f64,
        features: Option<StatementFeatures>,
    ) -> Absorption {
        let rep = self.representatives.push_weighted(stmt.clone(), weight);
        if let Some(f) = features {
            let entry = self.by_template.entry(f.template.clone()).or_default();
            entry.shells.insert(f.shell.clone(), rep);
            entry.reps.push(rep);
            self.rep_features.push(f);
        }
        if let Some(journal) = &mut self.journal {
            journal.records.push(Undo::Opened);
        }
        Absorption::NewRepresentative(rep)
    }

    /// Check the subsystem invariants: weight conservation, no more
    /// representatives than statements, and positive cluster weights.
    pub fn validate(&self) -> Result<(), String> {
        let rep_weight = self.representatives.total_weight();
        if (rep_weight - self.original_weight).abs() > 1e-6 * self.original_weight.max(1.0) {
            return Err(format!(
                "weight not conserved: representatives carry {rep_weight}, original {}",
                self.original_weight
            ));
        }
        if self.n_absorbed < self.representatives.len() {
            return Err(format!(
                "absorbed {} statements but hold {} representatives",
                self.n_absorbed,
                self.representatives.len()
            ));
        }
        for id in self.representatives.ids() {
            if self.representatives.weight(id) <= 0.0 {
                return Err(format!("representative {id:?} has non-positive weight"));
            }
        }
        self.representatives.validate()
    }
}

/// The nearest of a template's representatives `reps` within `eps` of `f`,
/// ties broken toward the oldest representative: the list is oldest first,
/// and only a strictly nearer one displaces the best so far.
fn nearest_within(
    reps: &[QueryId],
    rep_features: &[StatementFeatures],
    f: &StatementFeatures,
    eps: f64,
) -> Option<QueryId> {
    let mut best: Option<(f64, QueryId)> = None;
    for &rep in reps {
        let d = f.distance(&rep_features[rep.0 as usize]);
        if d <= eps && best.is_none_or(|(nearest, _)| d < nearest) {
            best = Some((d, rep));
        }
    }
    best.map(|(_, rep)| rep)
}

/// Words in `stmt`'s [`ShellKey`]: the encoder writes one constant per
/// comparison and two per `BETWEEN`, into a stream of exactly that length.
fn constant_words(stmt: &Statement) -> usize {
    let predicates = &stmt.read_shell().predicates;
    predicates.iter().map(|p| if matches!(p.op, PredOp::Between(..)) { 2 } else { 1 }).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_workload::{HetGen, HomGen, Predicate, Query, UpdateGen};

    fn schema() -> Schema {
        TpchGen::default().schema()
    }

    impl CompressedWorkload {
        /// Whether the exact-shell index holds `f`'s shell.
        fn has_shell(&self, f: &StatementFeatures) -> bool {
            self.by_template.get(&f.template).is_some_and(|e| e.shells.contains_key(&f.shell))
        }
    }

    fn mixed(seed: u64, n: usize) -> Workload {
        let s = schema();
        let base = HomGen::new(seed).generate(&s, n);
        UpdateGen::new(seed ^ 0xA5).mix_into(&s, &base, 0.2)
    }

    /// `w` clustered under `policy`, with the representative each statement
    /// was assigned to, in order — which the clustering itself does not keep.
    fn clustered(
        s: &Schema,
        w: &Workload,
        policy: CompressionPolicy,
    ) -> (CompressedWorkload, Vec<QueryId>) {
        let mut cw = CompressedWorkload::streaming(policy);
        let assign = |(_, stmt, weight)| cw.absorb(s, stmt, weight).representative();
        let assignment = w.iter().map(assign).collect();
        (cw, assignment)
    }

    #[test]
    fn off_is_the_identity() {
        let s = schema();
        let w = mixed(1, 30);
        let (cw, assignment) = clustered(&s, &w, CompressionPolicy::Off);
        assert_eq!(cw.n_representatives(), w.len());
        assert_eq!(cw.n_original(), w.len());
        for (i, (id, stmt, weight)) in w.iter().enumerate() {
            assert_eq!(assignment[i], id);
            assert_eq!(cw.representatives().statement(id), stmt);
            assert_eq!(cw.representatives().weight(id), weight);
        }
        cw.validate().unwrap();
    }

    #[test]
    fn lossless_merges_exact_duplicates_only() {
        let s = schema();
        let w = HomGen::new(2).generate(&s, 20);
        let mut twice = Workload::new();
        for (_, stmt, weight) in w.iter() {
            twice.push_weighted(stmt.clone(), weight);
        }
        for (_, stmt, weight) in w.iter() {
            twice.push_weighted(stmt.clone(), weight);
        }
        let (cw, assignment) = clustered(&s, &twice, CompressionPolicy::Lossless);
        assert_eq!(cw.n_representatives(), w.dedup_by_shell().len());
        assert_eq!(cw.n_original(), 2 * w.len());
        // Second copy maps onto the first copy's representatives.
        assert_eq!(assignment[..w.len()], assignment[w.len()..]);
        cw.validate().unwrap();
    }

    #[test]
    fn epsilon_zero_equals_lossless() {
        let s = schema();
        for w in [mixed(3, 60), HetGen::new(4).generate(&s, 60)] {
            let (a, a_assignment) = clustered(&s, &w, CompressionPolicy::Lossless);
            let (b, b_assignment) = clustered(&s, &w, CompressionPolicy::Epsilon(0.0));
            assert_eq!(a_assignment, b_assignment);
            assert_eq!(a.n_representatives(), b.n_representatives());
            for id in a.representatives().ids() {
                assert_eq!(a.representatives().weight(id), b.representatives().weight(id));
                assert_eq!(a.representatives().statement(id), b.representatives().statement(id));
            }
        }
    }

    #[test]
    fn epsilon_compresses_template_workloads_hard() {
        let s = schema();
        let w = HomGen::new(0xC0FFEE).generate(&s, 200);
        let cw = CompressedWorkload::compress(&s, &w, CompressionPolicy::default_epsilon());
        assert!(
            cw.summary().ratio() >= 4.0,
            "W_hom200 must compress ≥ 4× at the default ε: {} reps",
            cw.n_representatives()
        );
        cw.validate().unwrap();
        // Larger ε never yields more representatives... not guaranteed
        // point-wise by greedy clustering, but the extremes must order.
        let lossless = CompressedWorkload::compress(&s, &w, CompressionPolicy::Lossless);
        assert!(cw.n_representatives() <= lossless.n_representatives());
        let coarse = CompressedWorkload::compress(&s, &w, CompressionPolicy::Epsilon(1.0));
        // At ε = 1 every same-template statement merges: 15 templates.
        assert_eq!(coarse.n_representatives(), HomGen::TEMPLATES);
    }

    #[test]
    fn members_stay_within_epsilon_of_their_representative() {
        // The bound holds where the merge is decided: against the
        // representative's feature point as the member arrives.  (A repeat
        // of a shell seen before follows that shell, wherever the point has
        // moved since.)
        let s = schema();
        let eps = 0.2;
        let w = mixed(5, 120);
        let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(eps));
        let mut epsilon_merges = 0;
        for (i, (_, stmt, weight)) in w.iter().enumerate() {
            let f = StatementFeatures::extract(&s, stmt);
            let before = cw.clone();
            let Absorption::Merged(rep) = cw.absorb(&s, stmt, weight) else { continue };
            if before.has_shell(&f) {
                continue;
            }
            let d = f.distance(before.representative_features(rep).unwrap());
            assert!(d <= eps, "member {i} at distance {d} > ε from its representative");
            epsilon_merges += 1;
        }
        assert!(epsilon_merges > 0, "the workload must exercise ε-merges");
    }

    #[test]
    fn absorb_is_incremental_and_consistent_with_batch() {
        // Absorbing into a clustering continues it: a head compressed in one
        // shot and a tail absorbed later equal the one-shot whole, statement
        // by statement and field by field.
        let s = schema();
        let w = mixed(6, 80);
        let policy = CompressionPolicy::default_epsilon();
        let (batch, assignment) = clustered(&s, &w, policy);
        let mut inc = CompressedWorkload::compress(&s, &w.truncate(50), policy);
        let tail = w.iter().skip(50);
        let later: Vec<QueryId> =
            tail.map(|(_, stmt, weight)| inc.absorb(&s, stmt, weight).representative()).collect();
        assert_eq!(later, assignment[50..]);
        assert_eq!(inc, batch);
        assert_eq!(float_bits(&inc), float_bits(&batch));
        inc.validate().unwrap();
    }

    #[test]
    fn absorb_duplicate_merges_novel_opens() {
        let s = schema();
        let w = HomGen::new(7).generate(&s, 40);
        let mut cw = CompressedWorkload::compress(&s, &w, CompressionPolicy::Lossless);
        let reps_before = cw.n_representatives();
        // A statement already in the workload merges…
        let (_, dup, _) = w.iter().next().unwrap();
        let a = cw.absorb(&s, dup, 3.0);
        assert!(matches!(a, Absorption::Merged(_)));
        assert_eq!(cw.n_representatives(), reps_before);
        // …while a brand-new shape opens a cluster.
        let li = s.table_by_name("lineitem").unwrap().id;
        let tax = s.resolve("lineitem.l_tax").unwrap();
        let mut q = Query::scan(li);
        q.predicates.push(Predicate::gt(tax, 0.07));
        let b = cw.absorb(&s, &cophy_workload::Statement::Select(q), 1.0);
        assert!(matches!(b, Absorption::NewRepresentative(_)));
        assert_eq!(cw.n_representatives(), reps_before + 1);
        cw.validate().unwrap();
    }

    #[test]
    fn equal_constants_under_two_templates_stay_apart() {
        // The exact-shell index keys constants under a template: the same
        // constant on another column is another shell, under every policy.
        let s = schema();
        let lt = |column: &str, v: f64| {
            let c = s.resolve(column).unwrap();
            let mut q = Query::scan(c.table);
            q.predicates.push(Predicate::lt(c, v));
            Statement::Select(q)
        };
        let (ship, order) = (lt("lineitem.l_shipdate", 10.0), lt("orders.o_orderdate", 10.0));
        for policy in [CompressionPolicy::Lossless, CompressionPolicy::Epsilon(1.0)] {
            let mut cw = CompressedWorkload::streaming(policy);
            let a = cw.absorb(&s, &ship, 1.0);
            let b = cw.absorb(&s, &order, 1.0);
            assert!(matches!(b, Absorption::NewRepresentative(_)), "{policy}: {b:?}");
            assert_eq!(cw.absorb(&s, &ship, 1.0), Absorption::Merged(a.representative()));
            assert_eq!(cw.absorb(&s, &order, 1.0), Absorption::Merged(b.representative()));
            cw.validate().unwrap();
        }
    }

    #[test]
    fn chunked_absorb_matches_batch() {
        // Chunked ingestion from a source — any chunk size, journaled or not
        // — lands where the one-shot compression does.
        let s = schema();
        let w = mixed(12, 100);
        for policy in [CompressionPolicy::Lossless, CompressionPolicy::default_epsilon()] {
            let batch = CompressedWorkload::compress(&s, &w, policy);
            let mut stream = CompressedWorkload::streaming(policy);
            let mut src = w.source();
            let mut buf = Vec::new();
            while {
                buf.clear();
                cophy_workload::WorkloadSource::next_chunk(&mut src, 17, &mut buf) > 0
            } {
                stream.begin_chunk();
                stream.absorb_chunk(&s, &buf);
                stream.commit_chunk();
            }
            assert_eq!(stream.n_original(), w.len());
            assert_eq!(stream, batch, "{policy}");
            assert_eq!(float_bits(&stream), float_bits(&batch));
            stream.validate().unwrap();
        }
    }

    #[test]
    fn streaming_recenters_toward_member_mean() {
        // Two same-template points within ε: the second merges and must pull
        // the representative's feature point toward the weighted mean.
        let s = schema();
        let li = s.table_by_name("lineitem").unwrap().id;
        let sd = s.resolve("lineitem.l_shipdate").unwrap();
        let probe = |v: f64| {
            let mut q = Query::scan(li);
            q.predicates.push(Predicate::lt(sd, v));
            cophy_workload::Statement::Select(q)
        };
        let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.5));
        let a = cw.absorb(&s, &probe(500.0), 1.0);
        let rep = a.representative();
        let sel0 = cw.representative_features(rep).unwrap().selectivities[0];
        let b = cw.absorb(&s, &probe(1500.0), 1.0);
        assert!(matches!(b, Absorption::Merged(_)), "points within ε must merge: {b:?}");
        let sel1 = cw.representative_features(rep).unwrap().selectivities[0];
        let member = StatementFeatures::extract(&s, &probe(1500.0)).selectivities[0];
        let mean = (sel0 + member) / 2.0;
        assert!((sel1 - mean).abs() < 1e-12, "centroid {sel1} != member mean {mean}");
        // The representative *statement* stays the first member.
        assert_eq!(cw.representatives().statement(rep), &probe(500.0));
        cw.validate().unwrap();
    }

    /// `l_shipdate < v` over lineitem: one template, the constant sets the
    /// selectivity.
    fn shipdate_probe(s: &Schema, v: f64) -> Statement {
        let mut q = Query::scan(s.table_by_name("lineitem").unwrap().id);
        q.predicates.push(Predicate::lt(s.resolve("lineitem.l_shipdate").unwrap(), v));
        Statement::Select(q)
    }

    /// Every float of the clustering, as bits (`==` alone would let `-0.0`
    /// pass for `0.0`).
    fn float_bits(cw: &CompressedWorkload) -> Vec<u64> {
        let mut bits = vec![cw.total_weight().to_bits()];
        for id in cw.representatives().ids() {
            bits.push(cw.representatives().weight(id).to_bits());
            if let Some(f) = cw.representative_features(id) {
                bits.extend(f.selectivities.iter().map(|s| s.to_bits()));
                bits.push(f.update_rows.to_bits());
            }
        }
        bits
    }

    /// Absorb `chunk` inside an open chunk, check that the journal's records
    /// satisfy `expect`, roll back, and require the pre-chunk state field
    /// for field.
    fn absorb_and_roll_back(
        s: &Schema,
        cw: &mut CompressedWorkload,
        chunk: &[Statement],
        expect: impl Fn(&[Undo]) -> bool,
    ) {
        let before = cw.clone();
        cw.begin_chunk();
        for stmt in chunk {
            cw.absorb(s, stmt, 1.5);
        }
        let journal = cw.journal.as_ref().unwrap();
        assert_eq!(journal.records.len(), chunk.len(), "one record per statement");
        assert!(expect(&journal.records), "unexpected records: {:?}", journal.records);
        assert_ne!(*cw, before, "the chunk must have changed the clustering");
        cw.rollback_chunk();
        assert_eq!(*cw, before);
        assert_eq!(float_bits(cw), float_bits(&before));
        cw.validate().unwrap();
    }

    #[test]
    fn rollback_undoes_an_exact_duplicate_merge() {
        let s = schema();
        let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.5));
        cw.absorb(&s, &shipdate_probe(&s, 500.0), 1.0);
        // An exact duplicate: no new shell, and the centroid does not move.
        absorb_and_roll_back(&s, &mut cw, &[shipdate_probe(&s, 500.0)], |r| {
            matches!(r, [Undo::Merged { shell: None, .. }])
        });
    }

    #[test]
    fn rollback_undoes_an_epsilon_merge_and_its_shell() {
        let s = schema();
        let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.5));
        cw.absorb(&s, &shipdate_probe(&s, 500.0), 1.0);
        let novel = shipdate_probe(&s, 1500.0);
        absorb_and_roll_back(&s, &mut cw, std::slice::from_ref(&novel), |r| {
            matches!(r, [Undo::Merged { shell: Some(_), .. }])
        });
        assert!(!cw.has_shell(&StatementFeatures::extract(&s, &novel)));
    }

    #[test]
    fn rollback_undoes_opened_clusters() {
        let s = schema();
        let mut cw = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.01));
        cw.absorb(&s, &shipdate_probe(&s, 500.0), 1.0);
        // Same template, farther than ε: a second cluster in the template.
        absorb_and_roll_back(&s, &mut cw, &[shipdate_probe(&s, 1500.0)], |r| {
            matches!(r, [Undo::Opened])
        });
        assert_eq!(cw.by_template.len(), 1);
        // A template the clustering has not seen: its index entry goes too.
        let mut q = Query::scan(s.table_by_name("lineitem").unwrap().id);
        q.predicates.push(Predicate::gt(s.resolve("lineitem.l_tax").unwrap(), 0.07));
        absorb_and_roll_back(&s, &mut cw, &[Statement::Select(q)], |r| matches!(r, [Undo::Opened]));
        assert_eq!(cw.by_template.len(), 1);
        assert_eq!(cw.n_representatives(), 1);
    }

    #[test]
    fn rolled_back_and_committed_chunks_leave_no_trace() {
        let s = schema();
        let w = mixed(15, 180);
        let stmts: Vec<(Statement, f64)> = w.iter().map(|(_, st, wt)| (st.clone(), wt)).collect();
        let (head, tail) = stmts.split_at(100);
        for policy in [
            CompressionPolicy::Off,
            CompressionPolicy::Lossless,
            CompressionPolicy::Epsilon(0.02),
            CompressionPolicy::default_epsilon(),
        ] {
            let mut cw = CompressedWorkload::streaming(policy);
            cw.absorb_chunk(&s, head);
            let before = cw.clone();
            cw.begin_chunk();
            cw.absorb_chunk(&s, tail);
            cw.rollback_chunk();
            assert_eq!(cw, before, "{policy}");
            assert_eq!(float_bits(&cw), float_bits(&before));
            // Absorbing the tail again, journaled and committed, lands
            // where a clustering that never journaled does.
            cw.begin_chunk();
            cw.absorb_chunk(&s, tail);
            cw.commit_chunk();
            let mut straight = CompressedWorkload::streaming(policy);
            straight.absorb_chunk(&s, &stmts);
            assert_eq!(cw, straight, "{policy}");
            assert_eq!(float_bits(&cw), float_bits(&straight));
            cw.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "invalid compression ε")]
    fn negative_epsilon_rejected() {
        // Before any statement is absorbed: `compress` starts here too.
        let _ = CompressedWorkload::streaming(CompressionPolicy::Epsilon(-0.1));
    }

    #[test]
    #[should_panic(expected = "invalid compression ε")]
    fn nan_epsilon_rejected() {
        let _ = CompressedWorkload::streaming(CompressionPolicy::Epsilon(f64::NAN));
    }

    #[test]
    fn policy_validation() {
        assert!(CompressionPolicy::Off.validate().is_ok());
        assert!(CompressionPolicy::Lossless.validate().is_ok());
        assert!(CompressionPolicy::Epsilon(0.0).validate().is_ok());
        assert!(CompressionPolicy::default_epsilon().validate().is_ok());
        assert!(CompressionPolicy::Epsilon(-0.1).validate().is_err());
        assert!(CompressionPolicy::Epsilon(f64::NAN).validate().is_err());
        assert!(CompressionPolicy::Epsilon(f64::INFINITY).validate().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cophy_catalog::TpchGen;
    use cophy_workload::{HetGen, HomGen, UpdateGen};
    use proptest::prelude::*;

    fn policy_from(sel: u8, eps: f64) -> CompressionPolicy {
        match sel % 4 {
            0 => CompressionPolicy::Off,
            1 => CompressionPolicy::Lossless,
            2 => CompressionPolicy::Epsilon(0.0),
            _ => CompressionPolicy::Epsilon(eps),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Total workload weight is conserved under every policy, on every
        /// generator family, and every statement is counted.
        #[test]
        fn weights_conserved_under_any_policy(
            seed in any::<u64>(),
            n in 1usize..60,
            sel in any::<u8>(),
            eps in 0.0f64..0.8,
        ) {
            let s = TpchGen::default().schema();
            let policy = policy_from(sel, eps);
            for w in [
                HomGen::new(seed).generate(&s, n),
                HetGen::new(seed).generate(&s, n),
                UpdateGen::new(seed).generate(&s, n),
            ] {
                let cw = CompressedWorkload::compress(&s, &w, policy);
                prop_assert!(cw.validate().is_ok(), "{:?}", cw.validate());
                prop_assert_eq!(cw.n_original(), w.len());
                prop_assert!((cw.total_weight() - w.total_weight()).abs() < 1e-9);
                prop_assert!(cw.n_representatives() <= w.len());
            }
        }

        /// `Epsilon(0.0)` and `Lossless` produce identical clusterings.
        #[test]
        fn epsilon_zero_is_lossless(seed in any::<u64>(), n in 1usize..50) {
            let s = TpchGen::default().schema();
            let w = UpdateGen::new(seed).mix_into(&s, &HomGen::new(seed).generate(&s, n), 0.25);
            let mut a = CompressedWorkload::streaming(CompressionPolicy::Lossless);
            let mut b = CompressedWorkload::streaming(CompressionPolicy::Epsilon(0.0));
            for (_, stmt, weight) in w.iter() {
                prop_assert_eq!(a.absorb(&s, stmt, weight), b.absorb(&s, stmt, weight));
            }
        }
    }
}
