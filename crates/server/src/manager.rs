//! Concurrent session management: the daemon's state machine.
//!
//! The [`SessionManager`] owns every tuning session the daemon serves and
//! enforces the three resource disciplines of the service:
//!
//! * **Shared INUM caches.**  Workloads are named by canonical specs
//!   (`hom:SEED:N`), and the first `open` of a spec pays CGen + INUM once;
//!   every later session over the same spec shares the [`InumCache`] `Arc`
//!   and a clone of the candidate set — zero further optimizer probes
//!   (`cache=hit`), exactly the in-process
//!   [`cophy::CoPhy::try_session_shared`] pattern lifted behind TCP.
//! * **Admission control.**  Solver work (`tune`, `sweep`) must win a slot
//!   from a bounded [`SolverPool`]; when every slot is busy past
//!   [`SOLVER_WAIT`], the request is rejected with `err busy` instead of
//!   queueing unboundedly.
//! * **Memory-capped LRU.**  Each session's private solve state is metered
//!   by [`cophy::TuningSession::approx_state_bytes`]; when the sum passes
//!   the cap, the least-recently-touched sessions shed their solve state in
//!   place ([`cophy::TuningSession::shed_solve_state`]) and leave the cap's
//!   account until their next touch.  A shed session keeps its cache,
//!   candidates, constraints, fixings and degradation account, so its next
//!   answer costs zero probes and — the solves being deterministic — equals
//!   the cold answer an un-evicted twin would give.
//!
//! Lock order is `manager state → session`, never the reverse, and session
//! mutexes are only held by one request at a time (per-session
//! serialization); solves run with the manager lock *released*, which is
//! what lets eight clients stream eight solves concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cophy::{CoPhy, CoPhyOptions, ConstraintSet, TuningSession};
use cophy_bip::{CancelToken, SolveBudget};
use cophy_catalog::{Configuration, Index, Schema, TpchGen};
use cophy_inum::InumCache;
use cophy_optimizer::trace::fmt_index;
use cophy_optimizer::{
    FaultInjectingBackend, FaultPlan, RetryPolicy, SystemProfile, WhatIfBackend, WhatIfOptimizer,
};
use cophy_workload::{
    drain_to_workload, HetGen, HomGen, UpdateGen, Workload, WorkloadSource, DEFAULT_CHUNK,
};

use crate::breaker::CircuitBreaker;
use crate::protocol::{DegradedLine, ErrCode, ProgressLine, WireError};
use crate::quota::MeteredBackend;

/// The settings a deployment chooses.  The daemon's other limits are fixed:
/// 64 tenants, system profile A, a 10 s solver-slot wait, a breaker at 5
/// faults / 500 ms, and a 300 s request deadline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-tenant what-if probe quota (`u64::MAX` = unmetered).
    pub quota: u64,
    /// Concurrent solver slots (admission control for `tune`/`sweep`).
    pub solver_slots: usize,
    /// Cap on the summed private session state before LRU eviction.
    pub mem_cap_bytes: usize,
    /// Solve budget applied to every session solve.
    pub budget: SolveBudget,
    /// Retry/backoff policy for what-if probes during INUM preparation.  The
    /// default retries transient backend faults; against a fault-free
    /// backend the retry path is bit-identical to the plain one and spends
    /// zero extra probes.
    pub retry: RetryPolicy,
    /// Chaos mode: wrap every tenant's backend in a
    /// [`FaultInjectingBackend`] with this plan (`None` = faults off).  The
    /// CI daemon smoke uses it to prove `degraded`/`err` replies end to end.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            quota: u64::MAX,
            solver_slots: 8,
            mem_cap_bytes: 64 << 20,
            budget: SolveBudget::within(0.05).with_time(Duration::from_secs(60)),
            retry: RetryPolicy::default(),
            fault_plan: None,
        }
    }
}

/// Distinct tenants; each tenant's backend lives as long as the daemon.
const MAX_TENANTS: usize = 64;

/// How long a solver request waits for a slot before `err busy`.
const SOLVER_WAIT: Duration = Duration::from_secs(10);

/// Consecutive backend faults before a tenant's circuit breaker trips.
const BREAKER_THRESHOLD: u32 = 5;

/// How long a tripped breaker rejects before half-opening one trial.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// A counting semaphore over solver slots (std-only: Mutex + Condvar).
#[derive(Debug)]
pub(crate) struct SolverPool {
    free: Mutex<usize>,
    cv: Condvar,
}

impl SolverPool {
    fn new(slots: usize) -> SolverPool {
        SolverPool { free: Mutex::new(slots.max(1)), cv: Condvar::new() }
    }

    /// Wait up to [`SOLVER_WAIT`] for a slot; `err busy` past it, with a
    /// `retry_after_ms` hint the client backoff honors.
    fn acquire(&self) -> Result<PoolGuard<'_>, WireError> {
        let saturated = || busy_with_hint("solver pool saturated", SOLVER_WAIT);
        let mut free = lock(&self.free);
        let deadline = std::time::Instant::now() + SOLVER_WAIT;
        while *free == 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(saturated());
            }
            let (g, timeout) =
                self.cv.wait_timeout(free, left).unwrap_or_else(PoisonError::into_inner);
            free = g;
            if timeout.timed_out() && *free == 0 {
                return Err(saturated());
            }
        }
        *free -= 1;
        Ok(PoolGuard(self))
    }
}

struct PoolGuard<'a>(&'a SolverPool);

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.cv.notify_one();
    }
}

/// Poison-tolerant locking: a panicked request must not brick the daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An `err busy` with the backoff hint clients parse
/// ([`WireError::retry_after`]).
fn busy_with_hint(msg: &str, wait: Duration) -> WireError {
    WireError::new(ErrCode::Busy, format!("{msg} retry_after_ms={}", wait.as_millis().max(1)))
}

/// One tenant: a leaked quota-metered backend plus the advisor over it and
/// the tenant's circuit breaker.  Leaking keeps
/// `TuningSession<'static, 'static>` storable in the daemon's maps; the
/// footprint is bounded by [`MAX_TENANTS`].
#[derive(Clone, Copy)]
struct Tenant {
    backend: &'static MeteredBackend,
    cophy: &'static CoPhy<'static>,
    breaker: &'static CircuitBreaker,
}

/// The prepared artifacts of one workload spec, shared by all its sessions.
struct CacheEntry {
    cache: Arc<InumCache>,
    candidates: cophy::CandidateSet,
}

/// A session plus its LRU/footprint bookkeeping (readable without taking
/// the session's own mutex, which a long solve may hold).
struct SessionMeta {
    session: Mutex<TuningSession<'static, 'static>>,
    last_touch: AtomicU64,
    state_bytes: AtomicUsize,
    /// Evicted: the solve state is shed and the session is out of the cap's
    /// account until its next touch.  Written under the session mutex.
    shed: AtomicBool,
}

#[derive(Default)]
struct ManagerState {
    tenants: HashMap<String, Tenant>,
    caches: HashMap<String, CacheEntry>,
    /// Specs whose first session is preparing right now: concurrent opens
    /// of the same spec wait for the build instead of duplicating the INUM
    /// probes (cold-stampede guard; see [`SessionManager::open`]).
    building: std::collections::HashSet<String>,
    sessions: HashMap<String, Arc<SessionMeta>>,
}

/// Server-wide counters surfaced by the `stats` verb.
#[derive(Debug, Default)]
struct Counters {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evictions: AtomicU64,
    /// Shed sessions touched again (each re-enters the cap's account).
    rebuilds: AtomicU64,
}

/// Reply payload of `open`/`add`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenReply {
    pub sid: String,
    pub statements: usize,
    pub candidates: usize,
    pub cache_hit: bool,
    pub probes: u64,
    /// Present when the opening INUM preparation lost probes to exhausted
    /// retries (streamed as a `degraded` line before `ok open`).
    pub degraded: Option<DegradedLine>,
}

/// Reply payload of `tune`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReply {
    pub objective: f64,
    pub bound: f64,
    pub gap: f64,
    pub baseline: f64,
    pub what_if_calls: u64,
    pub indexes: Vec<Index>,
    /// Present when the session's preparation was degraded (streamed as a
    /// `degraded` line before `rec`).
    pub degraded: Option<DegradedLine>,
}

/// Reply payload of one `sweep` point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReply {
    pub budget_bytes: u64,
    pub objective: f64,
    pub bound: f64,
    pub gap: f64,
    pub indexes: Vec<Index>,
}

/// Reply payload of `what_if`.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReply {
    pub cost: f64,
    pub baseline: f64,
    pub improvement: f64,
    pub size_bytes: u64,
    pub violation: Option<String>,
}

/// Reply payload of `stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    pub live: usize,
    pub evicted: usize,
    pub cache_entries: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub rebuilds: u64,
    pub probes: u64,
    pub state_bytes: usize,
}

/// The daemon's state machine; all methods are `&self` and thread-safe.
pub struct SessionManager {
    config: ServerConfig,
    schema: Schema,
    state: Mutex<ManagerState>,
    /// Signals completion of an in-flight cold-spec build (`building`).
    build_cv: Condvar,
    pool: SolverPool,
    clock: AtomicU64,
    counters: Counters,
}

/// Parse a canonical workload spec `(hom|het|upd):SEED:N` into a
/// **streaming** source: statements are generated on demand, chunk by
/// chunk, so ingestion never materializes the workload (a cold `open` and
/// `add` both route every chunk through
/// [`cophy::TuningSession::try_add_source`]).
pub fn parse_spec_source<'a>(
    spec: &str,
    schema: &'a Schema,
) -> Result<Box<dyn WorkloadSource + 'a>, WireError> {
    let bad = |m: String| WireError::new(ErrCode::BadRequest, m);
    let parts: Vec<&str> = spec.split(':').collect();
    let [kind, seed, n] = parts[..] else {
        return Err(bad(format!("bad workload spec {spec:?} (want kind:seed:n)")));
    };
    let seed: u64 = seed.parse().map_err(|e| bad(format!("bad seed in {spec:?}: {e}")))?;
    let n: usize = n.parse().map_err(|e| bad(format!("bad size in {spec:?}: {e}")))?;
    if n == 0 || n > 10_000 {
        return Err(bad(format!("workload size {n} out of range 1..=10000")));
    }
    Ok(match kind {
        "hom" => Box::new(HomGen::new(seed).stream(schema, n)),
        "het" => Box::new(HetGen::new(seed).stream(schema, n)),
        "upd" => Box::new(UpdateGen::new(seed).stream(schema, n)),
        other => return Err(bad(format!("unknown workload kind {other:?}"))),
    })
}

/// Parse a canonical workload spec `(hom|het|upd):SEED:N` into a
/// materialized [`Workload`], for callers that want the statements
/// themselves (the daemon ingests [`parse_spec_source`] directly).
/// Bit-identical to draining [`parse_spec_source`]: the batch generators are
/// defined as drains of their streams.
pub fn parse_spec(spec: &str, schema: &Schema) -> Result<Workload, WireError> {
    Ok(drain_to_workload(&mut *parse_spec_source(spec, schema)?))
}

impl SessionManager {
    pub fn new(config: ServerConfig) -> Arc<SessionManager> {
        let schema = TpchGen::default().schema();
        Arc::new(SessionManager {
            pool: SolverPool::new(config.solver_slots),
            config,
            schema,
            state: Mutex::new(ManagerState::default()),
            build_cv: Condvar::new(),
            clock: AtomicU64::new(1),
            counters: Counters::default(),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn tenant(&self, st: &mut ManagerState, sid: &str) -> Result<Tenant, WireError> {
        if let Some(t) = st.tenants.get(sid) {
            return Ok(*t);
        }
        if st.tenants.len() >= MAX_TENANTS {
            return Err(WireError::new(
                ErrCode::Busy,
                format!("tenant limit {MAX_TENANTS} reached"),
            ));
        }
        let live = WhatIfOptimizer::new(self.schema.clone(), SystemProfile::A);
        // Chaos mode: the fault layer sits *inside* the meter, so injected
        // faults never consume quota (they perform no real probe).
        let inner: Box<dyn WhatIfBackend> = match &self.config.fault_plan {
            Some(plan) => Box::new(FaultInjectingBackend::new(Box::new(live), plan.clone())),
            None => Box::new(live),
        };
        let backend: &'static MeteredBackend =
            Box::leak(Box::new(MeteredBackend::new(inner, self.config.quota)));
        let options = CoPhyOptions {
            budget: self.config.budget,
            retry: self.config.retry.clone(),
            ..Default::default()
        };
        let cophy: &'static CoPhy<'static> = Box::leak(Box::new(CoPhy::new(backend, options)));
        let breaker: &'static CircuitBreaker =
            Box::leak(Box::new(CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN)));
        let t = Tenant { backend, cophy, breaker };
        st.tenants.insert(sid.to_string(), t);
        Ok(t)
    }

    /// `open`: build or share the spec's prepared cache, register the
    /// session, and report how it was satisfied.
    pub fn open(&self, sid: &str, spec: &str, budget: f64) -> Result<OpenReply, WireError> {
        let constraints = if budget < 1.0 {
            ConstraintSet::storage_fraction(&self.schema, budget)
        } else {
            ConstraintSet::none().with(cophy::Constraint::Storage { budget_bytes: budget as u64 })
        };
        // Before the tenant: a spec that does not parse costs no slot.
        let mut source = parse_spec_source(spec, &self.schema)?;

        let mut st = lock(&self.state);
        if st.sessions.contains_key(sid) {
            return Err(WireError::new(ErrCode::BadRequest, format!("session {sid} exists")));
        }
        let tenant = self.tenant(&mut st, sid)?;
        // Cold-stampede guard: if another open is preparing this spec right
        // now, wait for its build instead of probing the optimizer twice.
        while st.building.contains(spec) {
            st = self.build_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let (session, cache_hit, probes) = match st.caches.get(spec) {
            Some(entry) => {
                let (cache, candidates) = (entry.cache.clone(), entry.candidates.clone());
                let session = tenant.cophy.try_session_shared(cache, candidates, constraints)?;
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                (session, true, 0)
            }
            None => {
                // Cold spec: pay CGen + INUM once, with the manager lock
                // *released* (preparation probes the optimizer many times).
                // Probe-spending work is what the tenant's breaker guards.
                if let Err(wait) = tenant.breaker.admit() {
                    return Err(busy_with_hint("backend circuit open", wait));
                }
                st.building.insert(spec.to_string());
                drop(st);
                let before = tenant.backend.spent();
                let built = tenant.cophy.try_session_streaming(&mut *source, constraints);
                st = lock(&self.state);
                st.building.remove(spec);
                self.build_cv.notify_all();
                let session = match built {
                    Ok(s) => {
                        tenant.breaker.record_success();
                        s
                    }
                    Err(e) => {
                        let e = WireError::from(e);
                        if e.code == ErrCode::Backend {
                            tenant.breaker.record_failure();
                        }
                        return Err(e);
                    }
                };
                st.caches.entry(spec.to_string()).or_insert_with(|| CacheEntry {
                    cache: session.cache(),
                    candidates: session.candidates().clone(),
                });
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                (session, false, tenant.backend.spent() - before)
            }
        };
        let reply = OpenReply {
            sid: sid.to_string(),
            statements: session.n_statements(),
            candidates: session.candidates().len(),
            cache_hit,
            probes,
            degraded: session.degradation().map(DegradedLine::from_report),
        };
        let meta = SessionMeta {
            state_bytes: AtomicUsize::new(session.approx_state_bytes()),
            session: Mutex::new(session),
            last_touch: AtomicU64::new(self.now()),
            shed: AtomicBool::new(false),
        };
        st.sessions.insert(sid.to_string(), Arc::new(meta));
        drop(st);
        self.enforce_cap(sid);
        Ok(reply)
    }

    /// Run `f` under the session's mutex, then refresh its LRU/footprint
    /// bookkeeping and enforce the memory cap.  A shed session re-enters
    /// the cap's account here.
    fn with_session<R>(
        &self,
        sid: &str,
        f: impl FnOnce(&mut TuningSession<'static, 'static>) -> Result<R, WireError>,
    ) -> Result<R, WireError> {
        let meta = {
            let st = lock(&self.state);
            let Some(meta) = st.sessions.get(sid) else {
                return Err(WireError::new(ErrCode::NoSession, format!("no session {sid}")));
            };
            meta.last_touch.store(self.now(), Ordering::Relaxed);
            meta.clone()
        };
        let out = {
            let mut session = lock(&meta.session);
            if meta.shed.swap(false, Ordering::Relaxed) {
                self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
            }
            let out = f(&mut session)?;
            meta.state_bytes.store(session.approx_state_bytes(), Ordering::Relaxed);
            out
        };
        meta.last_touch.store(self.now(), Ordering::Relaxed);
        self.enforce_cap(sid);
        Ok(out)
    }

    /// `add`: absorb more statements via the chunked streaming-ingestion
    /// path — the spec's generator feeds the session chunk by chunk, so the
    /// delta is never materialized (quota-charged; chunk-granular rollback
    /// on failure keeps the shared cache consistent, with fully-ingested
    /// chunks committed).
    pub fn add(&self, sid: &str, spec: &str) -> Result<OpenReply, WireError> {
        let mut source = parse_spec_source(spec, &self.schema)?;
        let tenant = *lock(&self.state)
            .tenants
            .get(sid)
            .ok_or_else(|| WireError::new(ErrCode::NoSession, format!("no session {sid}")))?;
        if let Err(wait) = tenant.breaker.admit() {
            return Err(busy_with_hint("backend circuit open", wait));
        }
        let out = self.with_session(sid, |session| {
            let before = tenant.backend.spent();
            session.try_add_source(source.as_mut(), DEFAULT_CHUNK)?;
            Ok(OpenReply {
                sid: sid.to_string(),
                statements: session.n_statements(),
                candidates: session.candidates().len(),
                cache_hit: false,
                probes: tenant.backend.spent() - before,
                degraded: None,
            })
        });
        match &out {
            Ok(_) => tenant.breaker.record_success(),
            Err(e) if e.code == ErrCode::Backend => tenant.breaker.record_failure(),
            Err(_) => {}
        }
        out
    }

    /// `tune`: a solver-pool slot, cooperative cancellation, and the anytime
    /// event stream surfaced through `on_progress`.
    pub fn tune(
        &self,
        sid: &str,
        cancel: Option<CancelToken>,
        mut on_progress: impl FnMut(ProgressLine),
    ) -> Result<TuneReply, WireError> {
        self.with_session(sid, |session| {
            let _slot = self.pool.acquire()?;
            session.set_cancel(cancel);
            let rec =
                session.recommend_with_progress(|p| on_progress(ProgressLine::from_event(0, p)));
            session.set_cancel(None);
            Ok(TuneReply {
                objective: rec.objective,
                bound: rec.bound,
                gap: rec.gap,
                baseline: rec.baseline_cost,
                what_if_calls: rec.stats.what_if_calls,
                indexes: sorted_indexes(&rec.configuration),
                degraded: rec.degradation.as_ref().map(DegradedLine::from_report),
            })
        })
    }

    /// `sweep`: the warm budget-sweep chain, one slot for the whole chain.
    pub fn sweep(
        &self,
        sid: &str,
        budgets: &[u64],
        cancel: Option<CancelToken>,
        mut on_progress: impl FnMut(ProgressLine),
    ) -> Result<Vec<PointReply>, WireError> {
        self.with_session(sid, |session| {
            let _slot = self.pool.acquire()?;
            session.set_cancel(cancel);
            let points = session.try_sweep_storage_with_progress(budgets, |i, p| {
                on_progress(ProgressLine::from_event(i, p))
            });
            session.set_cancel(None);
            Ok(points?
                .iter()
                .map(|pt| PointReply {
                    budget_bytes: pt.budget_bytes,
                    objective: pt.objective,
                    bound: pt.bound,
                    gap: pt.gap,
                    indexes: sorted_indexes(&pt.configuration),
                })
                .collect())
        })
    }

    /// Where a wire index enters the manager: the protocol parser accepts
    /// any ids, and the catalog indexes its tables and columns unchecked, so
    /// an index the schema cannot hold is refused here, before it reaches a
    /// session.
    fn check_index(&self, ix: &Index) -> Result<(), WireError> {
        let bad = |why: String| {
            WireError::new(ErrCode::BadRequest, format!("index {}: {why}", fmt_index(ix)))
        };
        let Some(table) = self.schema.tables().get(ix.table.0 as usize) else {
            return Err(bad(format!("no table {}", ix.table.0)));
        };
        if ix.key.is_empty() {
            return Err(bad("empty key".into()));
        }
        match ix.key.iter().chain(&ix.include).find(|c| c.0 as usize >= table.columns.len()) {
            Some(c) => Err(bad(format!("table {} has no column {}", table.name, c.0))),
            None => Ok(()),
        }
    }

    pub fn pin(&self, sid: &str, ix: &Index) -> Result<(), WireError> {
        self.check_index(ix)?;
        self.with_session(sid, |s| Ok(s.pin_index(ix)?))
    }

    pub fn ban(&self, sid: &str, ix: &Index) -> Result<(), WireError> {
        self.check_index(ix)?;
        self.with_session(sid, |s| {
            s.ban_index(ix);
            Ok(())
        })
    }

    pub fn unfix(&self, sid: &str, ix: &Index) -> Result<(), WireError> {
        self.check_index(ix)?;
        self.with_session(sid, |s| {
            s.unfix_index(ix);
            Ok(())
        })
    }

    /// `what_if`: memo-lookup costing of an explicit configuration — no
    /// probes, no solver slot.
    pub fn what_if(&self, sid: &str, indexes: &[Index]) -> Result<WhatIfReply, WireError> {
        indexes.iter().try_for_each(|ix| self.check_index(ix))?;
        let cfg = Configuration::from_indexes(indexes.iter().cloned());
        self.with_session(sid, |s| {
            let a = s.what_if(&cfg);
            Ok(WhatIfReply {
                cost: a.cost,
                baseline: a.baseline_cost,
                improvement: a.improvement(),
                size_bytes: a.size_bytes,
                violation: a.constraint_violation.clone(),
            })
        })
    }

    pub fn export_mps(&self, sid: &str) -> Result<String, WireError> {
        self.with_session(sid, |s| Ok(s.export_mps()))
    }

    /// `evict`: shed the session's solve state now (the deterministic handle
    /// on the LRU machinery); returns the private bytes it was charged.
    pub fn evict(&self, sid: &str) -> Result<usize, WireError> {
        let meta = lock(&self.state).sessions.get(sid).cloned();
        meta.and_then(|meta| self.shed(&meta))
            .ok_or_else(|| WireError::new(ErrCode::NoSession, format!("no live session {sid}")))
    }

    /// Shed one session's solve state and take it out of the cap's account;
    /// returns the bytes it was charged, or `None` when it was shed already.
    /// Called with the manager lock *not* held: shedding waits for any
    /// in-flight request on the session to finish.
    fn shed(&self, meta: &SessionMeta) -> Option<usize> {
        let mut session = lock(&meta.session);
        if meta.shed.swap(true, Ordering::Relaxed) {
            return None;
        }
        session.shed_solve_state();
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        Some(meta.state_bytes.swap(session.approx_state_bytes(), Ordering::Relaxed))
    }

    /// LRU-evict cold sessions (never `current`) until the summed private
    /// state of the unshed ones fits the cap.
    fn enforce_cap(&self, current: &str) {
        loop {
            let victim = {
                let st = lock(&self.state);
                let live = || st.sessions.iter().filter(|(_, m)| !m.shed.load(Ordering::Relaxed));
                let total: usize = live().map(|(_, m)| m.state_bytes.load(Ordering::Relaxed)).sum();
                if total <= self.config.mem_cap_bytes || live().count() <= 1 {
                    return;
                }
                let Some(meta) = live()
                    .filter(|(sid, _)| sid.as_str() != current)
                    .min_by_key(|(_, m)| m.last_touch.load(Ordering::Relaxed))
                    .map(|(_, m)| m.clone())
                else {
                    return;
                };
                meta
            };
            self.shed(&victim);
        }
    }

    /// `close`: drop the session (the tenant's quota ledger survives on
    /// purpose).
    pub fn close(&self, sid: &str) -> Result<(), WireError> {
        match lock(&self.state).sessions.remove(sid) {
            Some(_) => Ok(()),
            None => Err(WireError::new(ErrCode::NoSession, format!("no session {sid}"))),
        }
    }

    /// Drop a session whose request handler panicked (its state may be
    /// arbitrarily torn); the client sees `err internal`.
    pub(crate) fn drop_session(&self, sid: &str) {
        lock(&self.state).sessions.remove(sid);
    }

    pub fn stats(&self) -> StatsReply {
        let st = lock(&self.state);
        let (mut live, mut evicted, mut state_bytes) = (0, 0, 0);
        for m in st.sessions.values() {
            if m.shed.load(Ordering::Relaxed) {
                evicted += 1;
            } else {
                live += 1;
                state_bytes += m.state_bytes.load(Ordering::Relaxed);
            }
        }
        StatsReply {
            live,
            evicted,
            cache_entries: st.caches.len(),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            rebuilds: self.counters.rebuilds.load(Ordering::Relaxed),
            probes: st.tenants.values().map(|t| t.backend.spent()).sum(),
            state_bytes,
        }
    }
}

/// Deterministic wire order for a configuration's indexes (by their wire
/// encoding — `Index` itself is not `Ord`).
fn sorted_indexes(cfg: &Configuration) -> Vec<Index> {
    let mut out: Vec<Index> = cfg.iter().cloned().collect();
    out.sort_by_cached_key(cophy_optimizer::trace::fmt_index);
    out
}
