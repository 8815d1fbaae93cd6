//! The line-delimited advisor protocol.
//!
//! One request per line, space-delimited tokens; every response is one or
//! more lines, and multi-line responses end with a `done` line so clients
//! never guess at framing.  Indexes travel in the trace wire format
//! (`{table}/{C|S}/{0|1}/{key-csv|-}/{include-csv|-}`, see
//! [`cophy_optimizer::trace::fmt_index`]), which contains no whitespace, and
//! floats travel through Rust's shortest-roundtrip `{}` formatting, so a
//! parsed reply is **bit-identical** to the server-side value — the
//! `server_smoke` gate compares streamed solver events against an in-process
//! run event for event.
//!
//! ```text
//! request  := open <sid> <spec> <budget>      ; spec = (hom|het|upd):SEED:N
//!           | add <sid> <spec>                ; budget = bytes or fraction<1
//!           | tune <sid>
//!           | sweep <sid> <b1,b2,...>
//!           | pin <sid> <index> | ban <sid> <index> | unfix <sid> <index>
//!           | what_if <sid> <index[+index...]|->  ; '+'-joined (indexes
//!                                                 ; contain commas)
//!           | export_mps <sid>
//!           | evict <sid> | close <sid> | stats | quit
//! response := ok ...                          ; single-line acknowledgements
//!           | progress <pt> <at_us> <inc> <bnd> <gap> <ticks> <pivots>
//!                      [blocks=<done>/<total> outer=<iter>]
//!                                             ; trailing tokens: Lagrangian
//!                                             ; block-decomposition progress
//!           | rec objective=<f> bound=<f> gap=<f> baseline=<f> calls=<n>
//!           | point budget=<n> objective=<f> bound=<f> gap=<f>
//!           | index <wire>                    ; one per selected index
//!           | mps <n-lines>                   ; followed by n raw lines
//!           | done                            ; terminates tune/sweep/mps
//!           | hb                              ; liveness tick, ignore
//!           | degraded coverage=<f> inflation=<f> failed=<n> recovered=<n>
//!                      substituted=<n> statements=<n>/<n>
//!                                             ; precedes ok open / rec when
//!                                             ; INUM prep lost probes
//!           | err <code> <message...>         ; busy|quota|no-session|
//!                                             ; bad-request|backend|internal
//! ```
//!
//! `err busy` replies may carry a `retry_after_ms=<n>` hint in the message
//! (solver-pool saturation, tripped circuit breaker); [`Client`]s honor it
//! as their backoff ([`WireError::retry_after`]).
//!
//! [`Client`]: crate::Client

use cophy::CoPhyError;
use cophy_bip::{DecompositionProgress, SolveProgress};
use cophy_catalog::Index;
use cophy_optimizer::trace::{fmt_index, parse_index};
use cophy_optimizer::BackendError;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `open <sid> <spec> <budget>` — open a session named `sid` over the
    /// workload `spec`, with a storage budget in bytes (or, below 1, as a
    /// fraction of the base data size).
    Open { sid: String, spec: String, budget: f64 },
    /// `add <sid> <spec>` — absorb more statements into the session (and the
    /// shared cache behind it).
    Add { sid: String, spec: String },
    /// `tune <sid>` — recommend, streaming `progress` events.
    Tune { sid: String },
    /// `sweep <sid> <b1,b2,...>` — warm storage-budget sweep.
    Sweep { sid: String, budgets: Vec<u64> },
    /// `pin <sid> <index>`.
    Pin { sid: String, index: Index },
    /// `ban <sid> <index>`.
    Ban { sid: String, index: Index },
    /// `unfix <sid> <index>`.
    Unfix { sid: String, index: Index },
    /// `what_if <sid> <index[+index...]|->` — cost an explicit
    /// configuration from the session cache (zero optimizer probes).
    WhatIf { sid: String, indexes: Vec<Index> },
    /// `export_mps <sid>` — the session's Theorem-1 BIP as MPS text.
    ExportMps { sid: String },
    /// `evict <sid>` — demote the session to its compact evicted form now
    /// (deterministic trigger for what the LRU cap does under pressure).
    Evict { sid: String },
    /// `close <sid>` — drop the session entirely.
    Close { sid: String },
    /// `stats` — server-wide counters.
    Stats,
    /// `quit` — end this connection (sessions persist).
    Quit,
}

/// Typed error codes carried on `err` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Solver pool saturated (admission control) or connection limit hit.
    Busy,
    /// The tenant's what-if probe quota is exhausted.
    Quota,
    /// No live or evicted session under that id.
    NoSession,
    /// Malformed request line or invalid argument.
    BadRequest,
    /// The what-if backend failed (replay miss, …).
    Backend,
    /// A request handler panicked; the session may have been dropped.
    Internal,
}

impl ErrCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Busy => "busy",
            ErrCode::Quota => "quota",
            ErrCode::NoSession => "no-session",
            ErrCode::BadRequest => "bad-request",
            ErrCode::Backend => "backend",
            ErrCode::Internal => "internal",
        }
    }

    pub fn parse(s: &str) -> Option<ErrCode> {
        Some(match s {
            "busy" => ErrCode::Busy,
            "quota" => ErrCode::Quota,
            "no-session" => ErrCode::NoSession,
            "bad-request" => ErrCode::BadRequest,
            "backend" => ErrCode::Backend,
            "internal" => ErrCode::Internal,
            _ => return None,
        })
    }
}

/// A protocol-level error: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    pub code: ErrCode,
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "err {} {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    pub fn new(code: ErrCode, message: impl Into<String>) -> WireError {
        WireError { code, message: message.into() }
    }

    /// The server's backoff hint, when the message carries one
    /// (`retry_after_ms=<n>`); `err busy` replies from the solver pool and
    /// the circuit breaker do.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        let ms: u64 = field(&self.message, "retry_after_ms").ok()?.parse().ok()?;
        Some(std::time::Duration::from_millis(ms))
    }
}

/// The one place advisor errors become wire codes: a spent quota is the
/// tenant's to fix (`quota`), any other probe failure and a breached
/// coverage floor are the backend's (`backend`, which trips the circuit
/// breaker), and everything else is the request's (`bad-request`).
impl From<CoPhyError> for WireError {
    fn from(e: CoPhyError) -> WireError {
        let code = match &e {
            CoPhyError::Backend(BackendError::QuotaExceeded { .. }) => ErrCode::Quota,
            CoPhyError::Backend(_) | CoPhyError::Coverage { .. } => ErrCode::Backend,
            CoPhyError::Infeasible(_) | CoPhyError::Invalid(_) | CoPhyError::NoIncumbent(_) => {
                ErrCode::BadRequest
            }
        };
        WireError::new(code, e.to_string())
    }
}

fn sid_ok(sid: &str) -> bool {
    !sid.is_empty() && sid.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c))
}

fn bad(msg: impl Into<String>) -> WireError {
    WireError::new(ErrCode::BadRequest, msg)
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let mut it = line.split_ascii_whitespace();
        let verb = it.next().ok_or_else(|| bad("empty request"))?;
        let toks: Vec<&str> = it.collect();
        let sid = |i: usize| -> Result<String, WireError> {
            let s = *toks.get(i).ok_or_else(|| bad(format!("{verb}: missing session id")))?;
            if sid_ok(s) {
                Ok(s.to_string())
            } else {
                Err(bad(format!("{verb}: bad session id {s:?}")))
            }
        };
        let index = |i: usize| -> Result<Index, WireError> {
            let s = *toks.get(i).ok_or_else(|| bad(format!("{verb}: missing index")))?;
            parse_index(s).map_err(|e| bad(format!("{verb}: {e}")))
        };
        let req = match verb {
            "open" => {
                let budget = toks
                    .get(2)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|b| b.is_finite() && *b > 0.0)
                    .ok_or_else(|| bad("open: budget must be a positive number"))?;
                Request::Open {
                    sid: sid(0)?,
                    spec: toks.get(1).ok_or_else(|| bad("open: missing spec"))?.to_string(),
                    budget,
                }
            }
            "add" => Request::Add {
                sid: sid(0)?,
                spec: toks.get(1).ok_or_else(|| bad("add: missing spec"))?.to_string(),
            },
            "tune" => Request::Tune { sid: sid(0)? },
            "sweep" => {
                let list = *toks.get(1).ok_or_else(|| bad("sweep: missing budget list"))?;
                let budgets = list
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|e| bad(format!("sweep: {s:?}: {e}"))))
                    .collect::<Result<Vec<u64>, WireError>>()?;
                if budgets.is_empty() {
                    return Err(bad("sweep: empty budget list"));
                }
                Request::Sweep { sid: sid(0)?, budgets }
            }
            "pin" => Request::Pin { sid: sid(0)?, index: index(1)? },
            "ban" => Request::Ban { sid: sid(0)?, index: index(1)? },
            "unfix" => Request::Unfix { sid: sid(0)?, index: index(1)? },
            "what_if" => {
                let list = *toks.get(1).ok_or_else(|| bad("what_if: missing index list"))?;
                let indexes = if list == "-" {
                    Vec::new()
                } else {
                    list.split('+')
                        .map(|s| parse_index(s).map_err(|e| bad(format!("what_if: {e}"))))
                        .collect::<Result<Vec<Index>, WireError>>()?
                };
                Request::WhatIf { sid: sid(0)?, indexes }
            }
            "export_mps" => Request::ExportMps { sid: sid(0)? },
            "evict" => Request::Evict { sid: sid(0)? },
            "close" => Request::Close { sid: sid(0)? },
            "stats" => Request::Stats,
            "quit" => Request::Quit,
            _ => return Err(bad(format!("unknown verb {verb:?}"))),
        };
        Ok(req)
    }

    /// Format the request as its wire line (inverse of [`Request::parse`]).
    pub fn to_line(&self) -> String {
        match self {
            Request::Open { sid, spec, budget } => format!("open {sid} {spec} {budget}"),
            Request::Add { sid, spec } => format!("add {sid} {spec}"),
            Request::Tune { sid } => format!("tune {sid}"),
            Request::Sweep { sid, budgets } => {
                let list: Vec<String> = budgets.iter().map(u64::to_string).collect();
                format!("sweep {sid} {}", list.join(","))
            }
            Request::Pin { sid, index } => format!("pin {sid} {}", fmt_index(index)),
            Request::Ban { sid, index } => format!("ban {sid} {}", fmt_index(index)),
            Request::Unfix { sid, index } => format!("unfix {sid} {}", fmt_index(index)),
            Request::WhatIf { sid, indexes } => {
                if indexes.is_empty() {
                    format!("what_if {sid} -")
                } else {
                    let list: Vec<String> = indexes.iter().map(fmt_index).collect();
                    format!("what_if {sid} {}", list.join("+"))
                }
            }
            Request::ExportMps { sid } => format!("export_mps {sid}"),
            Request::Evict { sid } => format!("evict {sid}"),
            Request::Close { sid } => format!("close {sid}"),
            Request::Stats => "stats".into(),
            Request::Quit => "quit".into(),
        }
    }
}

/// One streamed solver event: the sweep-point ordinal (0 for `tune`) plus
/// the anytime [`SolveProgress`] fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressLine {
    pub point: usize,
    pub at_us: u128,
    pub incumbent: f64,
    pub bound: f64,
    pub gap: f64,
    pub ticks: usize,
    pub pivots: usize,
    /// Block-decomposition progress of the Lagrangian backend, when the
    /// event carries it: travels as trailing `blocks=<done>/<total>
    /// outer=<iter>` tokens, absent on B&B events and the pre-decomposition
    /// greedy incumbent.  Unknown trailing `key=value` tokens are ignored on
    /// parse, so older clients read new servers (and vice versa).
    pub decomposition: Option<DecompositionProgress>,
}

impl ProgressLine {
    pub fn from_event(point: usize, p: &SolveProgress) -> ProgressLine {
        ProgressLine {
            point,
            at_us: p.at.as_micros(),
            incumbent: p.incumbent,
            bound: p.bound,
            gap: p.gap,
            ticks: p.ticks,
            pivots: p.pivots,
            decomposition: p.decomposition,
        }
    }

    /// The solver-state portion (everything except the wall-clock stamp):
    /// what the `server_smoke` gate compares event for event, bit for bit.
    /// Decomposition progress is deliberately excluded — it is derived from
    /// `ticks` on the Lagrangian backend, and keeping the key shape stable
    /// lets recorded gate baselines survive protocol extensions.
    pub fn state_key(&self) -> (usize, u64, u64, u64, usize, usize) {
        (
            self.point,
            self.incumbent.to_bits(),
            self.bound.to_bits(),
            self.gap.to_bits(),
            self.ticks,
            self.pivots,
        )
    }

    pub fn to_line(&self) -> String {
        let mut line = format!(
            "progress {} {} {} {} {} {} {}",
            self.point, self.at_us, self.incumbent, self.bound, self.gap, self.ticks, self.pivots
        );
        if let Some(d) = self.decomposition {
            line.push_str(&format!(
                " blocks={}/{} outer={}",
                d.blocks_done, d.blocks_total, d.outer_iter
            ));
        }
        line
    }

    pub fn parse(line: &str) -> Result<ProgressLine, WireError> {
        let t: Vec<&str> = line.split_ascii_whitespace().collect();
        if t.len() < 8 {
            return Err(bad(format!("bad progress line {line:?}")));
        }
        let [_, point, at_us, incumbent, bound, gap, ticks, pivots] = t[..8] else {
            return Err(bad(format!("bad progress line {line:?}")));
        };
        let e = |what: &str| bad(format!("bad progress field {what}"));
        let mut blocks: Option<(usize, usize)> = None;
        let mut outer: Option<usize> = None;
        for tok in &t[8..] {
            if let Some(v) = tok.strip_prefix("blocks=") {
                let (done, total) = v.split_once('/').ok_or_else(|| e("blocks"))?;
                blocks = Some((
                    done.parse().map_err(|_| e("blocks"))?,
                    total.parse().map_err(|_| e("blocks"))?,
                ));
            } else if let Some(v) = tok.strip_prefix("outer=") {
                outer = Some(v.parse().map_err(|_| e("outer"))?);
            }
            // other trailing key=value tokens: forward-compatible, ignored
        }
        let decomposition = match (blocks, outer) {
            (Some((blocks_done, blocks_total)), Some(outer_iter)) => {
                Some(DecompositionProgress { blocks_done, blocks_total, outer_iter })
            }
            _ => None,
        };
        Ok(ProgressLine {
            point: point.parse().map_err(|_| e("point"))?,
            at_us: at_us.parse().map_err(|_| e("at_us"))?,
            incumbent: incumbent.parse().map_err(|_| e("incumbent"))?,
            bound: bound.parse().map_err(|_| e("bound"))?,
            gap: gap.parse().map_err(|_| e("gap"))?,
            ticks: ticks.parse().map_err(|_| e("ticks"))?,
            pivots: pivots.parse().map_err(|_| e("pivots"))?,
            decomposition,
        })
    }
}

/// The wire form of a [`cophy::DegradationReport`]: emitted before the
/// `ok open` / `rec` line whenever the session's INUM preparation lost
/// what-if probes to exhausted retries, so clients can see how much of the
/// workload was degraded and by how much the reported cost bound may be
/// inflated.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedLine {
    /// Weighted fraction of the workload prepared fully (1.0 = nothing lost).
    pub coverage: f64,
    /// Worst-case relative inflation of the reported cost bound.
    pub inflation: f64,
    /// Probes that failed at least once.
    pub failed: u64,
    /// Probes recovered by a retry (their answers are exact).
    pub recovered: u64,
    /// Probes lost for good (templates skipped or substituted).
    pub substituted: u64,
    /// Statements with at least one lost probe.
    pub degraded_statements: u64,
    /// Statements prepared in total.
    pub total_statements: u64,
}

impl DegradedLine {
    pub(crate) fn from_report(d: &cophy::DegradationReport) -> DegradedLine {
        DegradedLine {
            coverage: d.coverage,
            inflation: d.worst_case_inflation,
            failed: d.probes_failed,
            recovered: d.probes_recovered,
            substituted: d.probes_substituted,
            degraded_statements: d.statements_degraded as u64,
            total_statements: d.statements_total as u64,
        }
    }

    pub fn to_line(&self) -> String {
        format!(
            "degraded coverage={} inflation={} failed={} recovered={} substituted={} \
             statements={}/{}",
            self.coverage,
            self.inflation,
            self.failed,
            self.recovered,
            self.substituted,
            self.degraded_statements,
            self.total_statements
        )
    }

    pub fn parse(line: &str) -> Result<DegradedLine, WireError> {
        let stmts = field(line, "statements")?;
        let (deg, total) = stmts
            .split_once('/')
            .ok_or_else(|| bad(format!("bad statements field in {line:?}")))?;
        let count = |s: &str| -> Result<u64, WireError> {
            s.parse().map_err(|_| bad(format!("bad statements field in {line:?}")))
        };
        Ok(DegradedLine {
            coverage: field_f64(line, "coverage")?,
            inflation: field_f64(line, "inflation")?,
            failed: field_u64(line, "failed")?,
            recovered: field_u64(line, "recovered")?,
            substituted: field_u64(line, "substituted")?,
            degraded_statements: count(deg)?,
            total_statements: count(total)?,
        })
    }
}

/// Extract `key=value` fields from a response line.
pub(crate) fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, WireError> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| bad(format!("missing field {key}= in {line:?}")))
}

pub(crate) fn field_f64(line: &str, key: &str) -> Result<f64, WireError> {
    field(line, key)?.parse().map_err(|_| bad(format!("bad float field {key}= in {line:?}")))
}

pub(crate) fn field_u64(line: &str, key: &str) -> Result<u64, WireError> {
    field(line, key)?.parse().map_err(|_| bad(format!("bad int field {key}= in {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::{ColumnId, TableId};

    /// One request of each verb, both `what_if` forms.
    fn valid_requests() -> Vec<Request> {
        let ix = Index::secondary(TableId(3), vec![ColumnId(1), ColumnId(4)]);
        vec![
            Request::Open { sid: "s1".into(), spec: "hom:7:24".into(), budget: 0.5 },
            Request::Add { sid: "s1".into(), spec: "upd:9:4".into() },
            Request::Tune { sid: "s1".into() },
            Request::Sweep { sid: "s1".into(), budgets: vec![1000, 2000] },
            Request::Pin { sid: "s1".into(), index: ix.clone() },
            Request::Ban { sid: "s1".into(), index: ix.clone() },
            Request::Unfix { sid: "s1".into(), index: ix.clone() },
            Request::WhatIf { sid: "s1".into(), indexes: vec![ix.clone(), ix] },
            Request::WhatIf { sid: "s1".into(), indexes: vec![] },
            Request::ExportMps { sid: "s1".into() },
            Request::Evict { sid: "s1".into() },
            Request::Close { sid: "s1".into() },
            Request::Stats,
            Request::Quit,
        ]
    }

    #[test]
    fn request_lines_round_trip() {
        for r in valid_requests() {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r, "line {:?}", r.to_line());
        }
    }

    #[test]
    fn malformed_requests_are_bad_request() {
        for line in [
            "",
            "frobnicate s1",
            "open s1",
            "open s!d hom:1:2 0.5",
            "sweep s1 1,x",
            "pin s1 zz",
            "pin s1 0/S/yes/1/-",
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrCode::BadRequest, "line {line:?} -> {err}");
        }
    }

    /// Neither `Request::parse` nor the workload-spec parser behind `open`
    /// and `add` panics: 6 000 seeded mutations of the valid lines above
    /// (truncated, spliced from two lines, bytes flipped) each parse, or
    /// fail as `bad-request`.
    #[test]
    fn mutated_request_lines_never_panic() {
        let schema = cophy_catalog::TpchGen::default().schema();
        let valid: Vec<Vec<u8>> =
            valid_requests().iter().map(|r| r.to_line().into_bytes()).collect();
        // SplitMix64: the crate has no random-number dependency.
        let mut state = 0x7c0f_fee5_u64;
        let mut next = |bound: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for case in 0..6000 {
            let mut bytes = valid[next(valid.len())].clone();
            match case % 3 {
                0 => bytes.truncate(next(bytes.len() + 1)),
                1 => {
                    let other = &valid[next(valid.len())];
                    bytes.truncate(next(bytes.len() + 1));
                    bytes.extend_from_slice(&other[next(other.len() + 1)..]);
                }
                _ => {
                    for _ in 0..1 + next(3) {
                        let at = next(bytes.len());
                        bytes[at] ^= 1 << next(8);
                    }
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| match Request::parse(&line) {
                Ok(Request::Open { spec, .. } | Request::Add { spec, .. }) => {
                    crate::parse_spec_source(&spec, &schema).err()
                }
                Ok(_) => None,
                Err(e) => Some(e),
            });
            match outcome {
                Ok(None) => {}
                Ok(Some(e)) => assert_eq!(e.code, ErrCode::BadRequest, "{line:?} -> {e}"),
                Err(_) => panic!("case {case}: {line:?} panicked"),
            }
        }
    }

    #[test]
    fn progress_lines_round_trip_bit_exact() {
        let p = ProgressLine {
            point: 2,
            at_us: 12345,
            incumbent: 1.0 / 3.0,
            bound: f64::NEG_INFINITY,
            gap: f64::INFINITY,
            ticks: 7,
            pivots: 99,
            decomposition: None,
        };
        let back = ProgressLine::parse(&p.to_line()).unwrap();
        assert_eq!(back.state_key(), p.state_key());
        assert_eq!(back, p);
    }

    #[test]
    fn progress_lines_carry_typed_decomposition_fields() {
        let p = ProgressLine {
            point: 0,
            at_us: 77,
            incumbent: 10.5,
            bound: 9.25,
            gap: 0.125,
            ticks: 12,
            pivots: 0,
            decomposition: Some(DecompositionProgress {
                blocks_done: 36,
                blocks_total: 3,
                outer_iter: 12,
            }),
        };
        let line = p.to_line();
        assert!(line.ends_with("blocks=36/3 outer=12"), "{line}");
        let back = ProgressLine::parse(&line).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.state_key(), p.state_key());
        // Forward compatibility: unknown trailing key=value tokens are
        // ignored; partial decomposition tokens degrade to None.
        let extended = ProgressLine::parse(&format!("{line} shard=4/8")).unwrap();
        assert_eq!(extended, p);
        let partial = ProgressLine::parse("progress 0 77 10.5 9.25 0.125 12 0 outer=3").unwrap();
        assert_eq!(partial.decomposition, None);
        assert!(ProgressLine::parse("progress 0 77 10.5 9.25 0.125 12 0 blocks=4").is_err());
    }

    #[test]
    fn degraded_lines_round_trip_bit_exact() {
        let d = DegradedLine {
            coverage: 11.0 / 13.0,
            inflation: 1.0 / 7.0,
            failed: 9,
            recovered: 6,
            substituted: 3,
            degraded_statements: 2,
            total_statements: 24,
        };
        let back = DegradedLine::parse(&d.to_line()).unwrap();
        assert_eq!(back.coverage.to_bits(), d.coverage.to_bits());
        assert_eq!(back.inflation.to_bits(), d.inflation.to_bits());
        assert_eq!(back, d);
        assert!(DegradedLine::parse("degraded coverage=0.5").is_err());

        // A fully recovered preparation: nothing lost, so nothing inflated —
        // and the wire says `0`, not the `-0` of an empty float sum.
        let recovered = DegradedLine::from_report(&cophy::DegradationReport {
            probes_failed: 6,
            retries: 8,
            probes_recovered: 6,
            probes_substituted: 0,
            statements_degraded: 0,
            statements_total: 24,
            coverage: 1.0,
            worst_case_inflation: 0.0,
        });
        let line = recovered.to_line();
        assert!(line.starts_with("degraded coverage=1 inflation=0 failed=6"), "{line}");
        assert_eq!(DegradedLine::parse(&line).unwrap(), recovered);
    }

    #[test]
    fn busy_errors_carry_a_parsable_retry_after_hint() {
        let e = WireError::new(ErrCode::Busy, "solver pool saturated retry_after_ms=250");
        assert_eq!(e.retry_after(), Some(std::time::Duration::from_millis(250)));
        let plain = WireError::new(ErrCode::Busy, "solver pool saturated");
        assert_eq!(plain.retry_after(), None);
    }

    #[test]
    fn err_codes_round_trip() {
        for c in [
            ErrCode::Busy,
            ErrCode::Quota,
            ErrCode::NoSession,
            ErrCode::BadRequest,
            ErrCode::Backend,
            ErrCode::Internal,
        ] {
            assert_eq!(ErrCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(ErrCode::parse("nope"), None);
    }
}
