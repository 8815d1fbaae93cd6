//! Record/replay what-if backend.
//!
//! A tuning run only ever sees a backend through its probe answers, so a run
//! can be *recorded* — every `(query, configuration) → ProbeAnswer` pair
//! serialized to text — and later *replayed* with zero optimizer work: the
//! replay backend is a hash-map lookup.  This is the trait-seam analogue of
//! the paper's portability argument (any DBMS behind the interface), and it
//! gives CI a fixture that exercises the whole advisor stack without a live
//! optimizer.
//!
//! The format is a line-oriented text file (the vendored `serde` is a derive
//! stand-in with no runtime, so serialization is hand-rolled).  Costs are
//! stored as IEEE-754 bit patterns in hex, so a replayed tune is
//! **bit-identical** to the recorded one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;

use cophy_catalog::{ColumnId, Configuration, Index, IndexKind, Schema, TableId};
use cophy_workload::Query;

use crate::backend::{
    config_fingerprint, fnv1a, query_fingerprint, BackendError, ProbeAnswer, ProbeLeaf,
    WhatIfBackend,
};
use crate::cost::{CostModel, SystemProfile};

const MAGIC: &str = "COPHY-TRACE v1";

/// Fingerprint of a schema, stored in the trace header so a replay against
/// the wrong schema fails fast instead of producing nonsense costs.
pub(crate) fn schema_fingerprint(schema: &Schema) -> u64 {
    fnv1a(format!("{schema:?}").as_bytes())
}

/// Record mode: wraps any inner backend and logs every probe answer.
///
/// Accounting is delegated to the inner backend, so a recorded tune reports
/// exactly the call counts the live backend would.
#[derive(Debug)]
pub struct TraceRecorder<'a> {
    inner: &'a dyn WhatIfBackend,
    probes: Mutex<HashMap<(u64, u64), ProbeAnswer>>,
}

impl<'a> TraceRecorder<'a> {
    pub fn new(inner: &'a dyn WhatIfBackend) -> Self {
        TraceRecorder { inner, probes: Mutex::default() }
    }

    /// Serialize everything recorded so far.  Entries are sorted by
    /// fingerprint, so the trace text is deterministic even when probes were
    /// recorded from multiple threads.
    pub fn serialize(&self) -> String {
        let probes = self.probes.lock().expect("trace log");
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("profile {:?}\n", self.inner.profile()));
        out.push_str(&format!("schema {:016x}\n", schema_fingerprint(self.inner.schema())));
        let mut probes: Vec<_> = probes.iter().collect();
        probes.sort_by_key(|(k, _)| **k);
        for (&(qfp, cfp), ans) in probes {
            out.push_str(&format!(
                "probe {qfp:016x} {cfp:016x} {:016x} {:016x}",
                ans.total_cost.to_bits(),
                ans.internal_cost.to_bits()
            ));
            for leaf in &ans.leaves {
                out.push_str(&format!(" {}:{}", leaf.table.0, fmt_cols(&leaf.required)));
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }
}

impl WhatIfBackend for TraceRecorder<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn profile(&self) -> SystemProfile {
        self.inner.profile()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        let ans = self.inner.try_probe(q, config)?;
        let key = (query_fingerprint(q), config_fingerprint(config));
        self.probes.lock().expect("trace log").insert(key, ans.clone());
        Ok(ans)
    }

    fn what_if_calls(&self) -> u64 {
        self.inner.what_if_calls()
    }

    fn reset_call_counter(&self) {
        self.inner.reset_call_counter()
    }
}

/// Replay mode: answers probes from a recorded trace with **zero** optimizer
/// work — a probe is a hash-map lookup.  Probes outside the trace return
/// [`BackendError::UnrecordedProbe`] through `try_probe` (a replay that
/// silently invented costs would defeat the point, and a replay that
/// *panicked* — as this backend once did — would take down unrelated
/// sessions in a multi-tenant daemon).  The provided evaluators
/// (`cost_statement`, …) still panic, preserving fail-fast behavior for
/// single-tenant callers.
///
/// The schema is supplied by the caller (generators are deterministic, so
/// checking its fingerprint against the header suffices); the cost model is
/// rebuilt from the recorded profile, keeping the analytic update pricing
/// identical to the recording backend's.
#[derive(Debug)]
pub struct TraceReplay {
    schema: Schema,
    cm: CostModel,
    profile: SystemProfile,
    probes: HashMap<(u64, u64), ProbeAnswer>,
    calls: AtomicU64,
}

impl TraceReplay {
    /// Parse a trace recorded by [`TraceRecorder::serialize`].  Like the
    /// recorder's output, the trace must hold exactly one `profile` and one
    /// `schema` record, each `(query, configuration)` key at most once, and
    /// one `end` record as its last line: a trace without its schema record
    /// would replay against any schema, a repeated record would silently
    /// replace the first, and a truncated trace would fail in mid-tune.
    pub fn parse(schema: Schema, text: &str) -> Result<TraceReplay, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("not a {MAGIC} file"));
        }
        if lines.next_back() != Some("end") {
            return Err("trace does not end with its end record (truncated?)".to_string());
        }
        let (mut profile, mut schema_checked) = (None, false);
        let mut probes = HashMap::new();
        for line in lines {
            let mut f = line.split_ascii_whitespace();
            match f.next() {
                Some("profile") if profile.is_some() => {
                    return Err("trace has more than one profile record".to_string());
                }
                Some("schema") if schema_checked => {
                    return Err("trace has more than one schema record".to_string());
                }
                Some("profile") => {
                    profile = Some(match f.next() {
                        Some("A") => SystemProfile::A,
                        Some("B") => SystemProfile::B,
                        other => return Err(format!("unknown profile {other:?}")),
                    });
                }
                Some("schema") => {
                    let want = parse_hex(f.next().ok_or("missing schema fingerprint")?)?;
                    let got = schema_fingerprint(&schema);
                    if want != got {
                        return Err(format!(
                            "schema fingerprint mismatch: trace {want:016x}, supplied {got:016x}"
                        ));
                    }
                    schema_checked = true;
                }
                Some("probe") => {
                    let qfp = parse_hex(f.next().ok_or("truncated probe line")?)?;
                    let cfp = parse_hex(f.next().ok_or("truncated probe line")?)?;
                    let total = f64::from_bits(parse_hex(f.next().ok_or("truncated probe line")?)?);
                    let internal =
                        f64::from_bits(parse_hex(f.next().ok_or("truncated probe line")?)?);
                    let leaves = f.map(parse_leaf).collect::<Result<Vec<_>, _>>()?;
                    let ans = ProbeAnswer { total_cost: total, internal_cost: internal, leaves };
                    if probes.insert((qfp, cfp), ans).is_some() {
                        return Err(format!("trace records probe {qfp:016x} {cfp:016x} twice"));
                    }
                }
                Some("end") => return Err("trace has more than one end record".to_string()),
                None => {}
                Some(other) => return Err(format!("unknown trace record {other:?}")),
            }
        }
        let profile = profile.ok_or("trace has no profile header")?;
        if !schema_checked {
            return Err("trace has no schema header".to_string());
        }
        Ok(TraceReplay {
            schema,
            cm: CostModel::profile(profile),
            profile,
            probes,
            calls: AtomicU64::new(0),
        })
    }
}

impl WhatIfBackend for TraceReplay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn profile(&self) -> SystemProfile {
        self.profile
    }

    fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    fn try_probe(&self, q: &Query, config: &Configuration) -> Result<ProbeAnswer, BackendError> {
        self.calls.fetch_add(1, AtomicOrdering::Relaxed);
        let key = (query_fingerprint(q), config_fingerprint(config));
        self.probes.get(&key).cloned().ok_or(BackendError::UnrecordedProbe {
            query: key.0,
            config: key.1,
            recorded: self.probes.len(),
        })
    }

    fn what_if_calls(&self) -> u64 {
        self.calls.load(AtomicOrdering::Relaxed)
    }

    fn reset_call_counter(&self) {
        self.calls.store(0, AtomicOrdering::Relaxed);
    }
}

fn fmt_cols(cols: &[ColumnId]) -> String {
    if cols.is_empty() {
        "-".to_string()
    } else {
        cols.iter().map(|c| c.0.to_string()).collect::<Vec<_>>().join(",")
    }
}

fn parse_cols(s: &str) -> Result<Vec<ColumnId>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|c| c.parse::<u32>().map(ColumnId).map_err(|e| format!("bad column id {c:?}: {e}")))
        .collect()
}

/// `table:req` — one probe-leaf field.
fn parse_leaf(s: &str) -> Result<ProbeLeaf, String> {
    let (t, req) = s.split_once(':').ok_or_else(|| format!("bad leaf field {s:?}"))?;
    Ok(ProbeLeaf {
        table: TableId(t.parse::<u32>().map_err(|e| format!("bad table id {t:?}: {e}"))?),
        required: parse_cols(req)?,
    })
}

/// `table/kind/unique/key/include` — the canonical single-token wire
/// rendering of an index, used by the `cophy-server` protocol.  It shares
/// the column-list syntax of the trace's probe leaves.
pub fn fmt_index(ix: &Index) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        ix.table.0,
        if ix.is_clustered() { "C" } else { "S" },
        u8::from(ix.unique),
        fmt_cols(&ix.key),
        fmt_cols(&ix.include)
    )
}

/// Parse the [`fmt_index`] rendering back into an [`Index`].
pub fn parse_index(s: &str) -> Result<Index, String> {
    let parts: Vec<&str> = s.split('/').collect();
    let [t, kind, unique, key, include] = parts[..] else {
        return Err(format!("bad index field {s:?}"));
    };
    Ok(Index {
        table: TableId(t.parse::<u32>().map_err(|e| format!("bad table id {t:?}: {e}"))?),
        key: parse_cols(key)?,
        include: parse_cols(include)?,
        kind: match kind {
            "C" => IndexKind::Clustered,
            "S" => IndexKind::Secondary,
            other => return Err(format!("bad index kind {other:?}")),
        },
        unique: match unique {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad unique flag {other:?}")),
        },
    })
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex field {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WhatIfOptimizer;
    use cophy_catalog::TpchGen;
    use cophy_workload::HomGen;

    fn opt() -> WhatIfOptimizer {
        WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A)
    }

    #[test]
    fn record_then_replay_is_bit_identical() {
        let o = opt();
        let w = HomGen::new(5).generate(o.schema(), 4);
        let rec = TraceRecorder::new(&o);
        let mut answers = Vec::new();
        for (_, stmt, _) in w.iter() {
            answers.push(rec.try_probe(stmt.read_shell(), &Configuration::empty()).unwrap());
        }
        let text = rec.serialize();
        let replay = TraceReplay::parse(TpchGen::default().schema(), &text).unwrap();
        assert_eq!(replay.probes.len(), answers.len());
        for ((_, stmt, _), want) in w.iter().zip(&answers) {
            let got = replay.try_probe(stmt.read_shell(), &Configuration::empty()).unwrap();
            assert_eq!(got.total_cost.to_bits(), want.total_cost.to_bits());
            assert_eq!(got.internal_cost.to_bits(), want.internal_cost.to_bits());
            assert_eq!(got.leaves, want.leaves);
        }
        assert_eq!(replay.what_if_calls(), w.len() as u64);
    }

    #[test]
    fn replay_counts_calls_without_optimizer_work() {
        let o = opt();
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let rec = TraceRecorder::new(&o);
        rec.try_probe(&q, &Configuration::empty()).unwrap();
        let text = rec.serialize();
        let replay = TraceReplay::parse(TpchGen::default().schema(), &text).unwrap();
        assert_eq!(replay.what_if_calls(), 0);
        replay.try_probe(&q, &Configuration::empty()).unwrap();
        replay.try_probe(&q, &Configuration::empty()).unwrap();
        assert_eq!(replay.what_if_calls(), 2);
        replay.reset_call_counter();
        assert_eq!(replay.what_if_calls(), 0);
    }

    #[test]
    fn replay_rejects_wrong_schema() {
        let o = opt();
        let rec = TraceRecorder::new(&o);
        let text = rec.serialize();
        let other = TpchGen { scale: 2.0, ..TpchGen::default() }.schema();
        assert!(TraceReplay::parse(other, &text).is_err());
    }

    /// A one-probe trace of the lineitem scan, and the schema it checks.
    fn one_probe_trace() -> (Schema, String) {
        let o = opt();
        let rec = TraceRecorder::new(&o);
        let li = o.schema().table_by_name("lineitem").unwrap().id;
        rec.try_probe(&Query::scan(li), &Configuration::empty()).unwrap();
        let text = rec.serialize();
        assert!(TraceReplay::parse(o.schema().clone(), &text).is_ok());
        (o.schema().clone(), text)
    }

    /// `text` with its line starting with `record ` written twice.
    fn repeat(text: &str, record: &str) -> String {
        let line = text.lines().find(|l| l.starts_with(record)).expect("the record");
        text.replacen(line, &format!("{line}\n{line}"), 1)
    }

    /// `text` without its line starting with `record `.
    fn drop_record(text: &str, record: &str) -> String {
        text.lines().filter(|l| !l.starts_with(record)).map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn replay_refuses_a_trace_without_a_schema_record() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema, &drop_record(&text, "schema ")).unwrap_err();
        assert_eq!(err, "trace has no schema header");
        // Nor does the trace replay against another schema that way.
        let other = TpchGen { scale: 2.0, ..TpchGen::default() }.schema();
        assert!(TraceReplay::parse(other, &drop_record(&text, "schema ")).is_err());
    }

    #[test]
    fn replay_refuses_a_trace_without_a_profile_record() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema, &drop_record(&text, "profile ")).unwrap_err();
        assert_eq!(err, "trace has no profile header");
    }

    #[test]
    fn replay_refuses_a_repeated_profile_record() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema, &repeat(&text, "profile ")).unwrap_err();
        assert_eq!(err, "trace has more than one profile record");
    }

    #[test]
    fn replay_refuses_a_repeated_schema_record() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema, &repeat(&text, "schema ")).unwrap_err();
        assert_eq!(err, "trace has more than one schema record");
    }

    #[test]
    fn replay_refuses_a_repeated_probe_key() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema.clone(), &repeat(&text, "probe ")).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        // The same key with another answer is refused too, not replaced.
        let line = text.lines().find(|l| l.starts_with("probe ")).unwrap();
        let mut fields: Vec<&str> = line.split(' ').collect();
        let other_cost = format!("{:016x}", 1.5f64.to_bits());
        fields[3] = &other_cost;
        let text = text.replacen(line, &format!("{line}\n{}", fields.join(" ")), 1);
        let err = TraceReplay::parse(schema, &text).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn replay_refuses_a_trace_without_its_end_record() {
        let (schema, text) = one_probe_trace();
        let err = TraceReplay::parse(schema.clone(), &drop_record(&text, "end")).unwrap_err();
        assert_eq!(err, "trace does not end with its end record (truncated?)");
        // Cut mid-file, after the first probe of a longer trace.
        let o = opt();
        let rec = TraceRecorder::new(&o);
        for (_, stmt, _) in HomGen::new(5).generate(o.schema(), 4).iter() {
            rec.try_probe(stmt.read_shell(), &Configuration::empty()).unwrap();
        }
        let full = rec.serialize();
        assert!(full.lines().filter(|l| l.starts_with("probe ")).count() > 1);
        let cut = full.find("probe ").and_then(|at| full[at..].find('\n').map(|n| at + n + 1));
        let err = TraceReplay::parse(schema, &full[..cut.unwrap()]).unwrap_err();
        assert_eq!(err, "trace does not end with its end record (truncated?)");
    }

    #[test]
    fn replay_refuses_a_record_after_the_end_record() {
        let (schema, text) = one_probe_trace();
        let probe = text.lines().find(|l| l.starts_with("probe ")).unwrap();
        let moved = format!("{}{probe}\n", drop_record(&text, "probe "));
        let err = TraceReplay::parse(schema.clone(), &moved).unwrap_err();
        assert_eq!(err, "trace does not end with its end record (truncated?)");
        // Nor may a blank line follow the end, or a second end record.
        let err = TraceReplay::parse(schema.clone(), &format!("{text}\n")).unwrap_err();
        assert_eq!(err, "trace does not end with its end record (truncated?)");
        let err = TraceReplay::parse(schema, &format!("{text}end\n")).unwrap_err();
        assert_eq!(err, "trace has more than one end record");
    }

    #[test]
    fn replay_returns_typed_err_on_unrecorded_probe() {
        let o = opt();
        let rec = TraceRecorder::new(&o);
        let text = rec.serialize();
        let replay = TraceReplay::parse(TpchGen::default().schema(), &text).unwrap();
        let li = replay.schema().table_by_name("lineitem").unwrap().id;
        let q = Query::scan(li);
        let err = replay.try_probe(&q, &Configuration::empty()).unwrap_err();
        assert_eq!(
            err,
            BackendError::UnrecordedProbe {
                query: query_fingerprint(&q),
                config: config_fingerprint(&Configuration::empty()),
                recorded: 0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "unrecorded probe")]
    fn infallible_probe_still_panics_on_unrecorded_probe() {
        let o = opt();
        let rec = TraceRecorder::new(&o);
        let text = rec.serialize();
        let replay = TraceReplay::parse(TpchGen::default().schema(), &text).unwrap();
        let li = replay.schema().table_by_name("lineitem").unwrap().id;
        let stmt = cophy_workload::Statement::Select(Query::scan(li));
        let _ = replay.cost_statement(&stmt, &Configuration::empty());
    }

    #[test]
    fn replay_rejects_a_relevant_record_as_unknown() {
        let o = opt();
        let text = TraceRecorder::new(&o).serialize();
        let schema = TpchGen::default().schema();
        assert!(TraceReplay::parse(schema.clone(), &text).is_ok());
        let text = text.replace("end\n", "relevant 0000000000000001 7/S/0/1/-\nend\n");
        let err = TraceReplay::parse(schema, &text).unwrap_err();
        assert_eq!(err, "unknown trace record \"relevant\"");
    }

    #[test]
    fn index_wire_format_round_trips() {
        let schema = TpchGen::default().schema();
        let li = schema.table_by_name("lineitem").unwrap().id;
        let ix = Index::secondary(li, vec![ColumnId(3), ColumnId(1)]);
        assert_eq!(parse_index(&fmt_index(&ix)).unwrap(), ix);
        let scan = Index::secondary(li, Vec::new());
        assert_eq!(parse_index(&fmt_index(&scan)).unwrap(), scan);
    }

    #[test]
    fn index_wire_format_rejects_a_bad_unique_flag() {
        assert!(parse_index("7/S/0/1/-").is_ok());
        for flag in ["yes", "2", "", "true"] {
            let err = parse_index(&format!("7/S/{flag}/1/-")).unwrap_err();
            assert!(err.contains("bad unique flag"), "{flag:?}: {err}");
        }
    }
}
