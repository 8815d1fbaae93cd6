//! Advisor-as-a-service study (the `server` CI gate).
//!
//! Boots a real `cophy-server` on loopback, drives **eight concurrent
//! client sessions over one shared INUM cache**, and claims the service
//! keeps the in-process engine's guarantees across the wire:
//!
//! * the streamed `progress` lines of every session match an in-process
//!   `recommend_with_progress` run **event for event, bit for bit** (wall
//!   clock excluded — only solver state is compared);
//! * eight sessions cost exactly one session's optimizer probes (the
//!   shared-cache economy the daemon exists for);
//! * an evicted-then-retouched session reproduces its pre-eviction
//!   recommendation bit-identically;
//! * the per-tenant probe quota rejects a starved open with `err quota`;
//! * every proven gap is finite.
//!
//! The table records sessions, cache hit rate, probes saved vs unshared,
//! stream stats and p50/p95 request latency.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cophy::{CoPhy, CoPhyOptions, ConstraintSet};
use cophy_catalog::TpchGen;
use cophy_optimizer::{SystemProfile, WhatIfOptimizer};
use cophy_server::{Client, ClientError, ErrCode, ProgressLine, Server, ServerConfig};

use crate::Cell::{Bool, Int, Num, Pct, Secs};
use crate::{Knobs, Outcome, Table};

const N_SESSIONS: usize = 8;

/// The solver-state fingerprint of one streamed event.
type EventKey = (usize, u64, u64, u64, usize, usize);

/// The bit-level fingerprint of a recommendation on the wire.
type RecKey = (u64, u64, u64, Vec<String>);

fn rec_key(objective: f64, bound: f64, gap: f64, indexes: &[cophy_catalog::Index]) -> RecKey {
    (
        objective.to_bits(),
        bound.to_bits(),
        gap.to_bits(),
        indexes.iter().map(cophy_optimizer::trace::fmt_index).collect(),
    )
}

/// Run the whole study on the workload spec `hom:7:n`, `n` the scale's
/// middle size.
pub(crate) fn server(k: &Knobs) -> Outcome {
    let n = k.scale.sizes()[1];
    let spec = format!("hom:7:{n}");
    let t0 = Instant::now();

    // ------------------------------------------------------------------
    // In-process reference: the exact solve the server performs, captured
    // event for event.  Construction mirrors the daemon's tenant setup.
    // ------------------------------------------------------------------
    let o = WhatIfOptimizer::new(TpchGen::default().schema(), SystemProfile::A);
    let w = cophy_workload::HomGen::new(7).generate(o.schema(), n);
    let cophy = CoPhy::new(&o, CoPhyOptions::default());
    let constraints = ConstraintSet::storage_fraction(o.schema(), 0.5);
    let mut reference = cophy.try_session(&w, constraints).expect("reference session opens");
    let probes_single = o.what_if_calls();
    let mut ref_events: Vec<EventKey> = Vec::new();
    let rec = reference
        .recommend_with_progress(|p| ref_events.push(ProgressLine::from_event(0, p).state_key()));
    let mut sel: Vec<cophy_catalog::Index> = rec.configuration.iter().cloned().collect();
    sel.sort_by_cached_key(cophy_optimizer::trace::fmt_index);
    let ref_rec = rec_key(rec.objective, rec.bound, rec.gap, &sel);

    // ------------------------------------------------------------------
    // The service: one daemon, eight concurrent sessions over one cache.
    // ------------------------------------------------------------------
    let handle =
        Server::bind("127.0.0.1:0", ServerConfig::default(), None).expect("bind loopback").spawn();
    let addr = handle.addr();
    let latencies = Mutex::new(Vec::new());
    fn timed(lat: &Mutex<Vec<Duration>>, f: &mut dyn FnMut()) {
        let t = Instant::now();
        f();
        lat.lock().unwrap().push(t.elapsed());
    }

    let per_session: Vec<(bool, Vec<EventKey>, RecKey)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N_SESSIONS)
            .map(|i| {
                let (spec, latencies) = (spec.clone(), &latencies);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("client connects");
                    let sid = format!("s{i}");
                    let mut hit = false;
                    timed(latencies, &mut || {
                        hit = c.open(&sid, &spec, 0.5).expect("open").cache_hit;
                    });
                    let mut events: Vec<EventKey> = Vec::new();
                    let mut rec = None;
                    timed(latencies, &mut || {
                        rec = Some(c.tune(&sid, |p| events.push(p.state_key())).expect("tune"));
                    });
                    let rec = rec.unwrap();
                    timed(latencies, &mut || {
                        c.what_if(&sid, &rec.indexes).expect("what_if");
                    });
                    timed(latencies, &mut || {
                        c.close(&sid).expect("close");
                    });
                    (hit, events, rec_key(rec.objective, rec.bound, rec.gap, &rec.indexes))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });

    let stream_match = per_session.iter().all(|(_, ev, _)| *ev == ref_events);
    let rec_match = per_session.iter().all(|(_, _, rk)| *rk == ref_rec);
    let stream_events = ref_events.len();

    // Stats of the 8-session phase alone (the eviction phase below opens
    // one more shared session and would shift the hit counters).
    let stats = {
        let mut c = Client::connect(addr).expect("client connects");
        c.stats().expect("stats")
    };

    // ------------------------------------------------------------------
    // Eviction reproduction: pin, tune, evict, retouch — bit-identical.
    // ------------------------------------------------------------------
    let eviction_reproduced = {
        let mut c = Client::connect(addr).expect("client connects");
        c.open("evictee", &spec, 0.5).expect("open evictee");
        let pin = {
            // Pin the reference's first recommended index.
            sel.first().cloned().expect("reference recommends at least one index")
        };
        c.pin("evictee", &pin).expect("pin");
        let before = c.tune("evictee", |_| {}).expect("pre-eviction tune");
        c.evict("evictee").expect("evict");
        let after = c.tune("evictee", |_| {}).expect("post-rebuild tune");
        c.close("evictee").expect("close evictee");
        rec_key(before.objective, before.bound, before.gap, &before.indexes)
            == rec_key(after.objective, after.bound, after.gap, &after.indexes)
    };

    handle.stop();

    // ------------------------------------------------------------------
    // Quota enforcement: a starved daemon rejects the cold open typed.
    // ------------------------------------------------------------------
    let quota_enforced = {
        let starved =
            Server::bind("127.0.0.1:0", ServerConfig { quota: 3, ..Default::default() }, None)
                .expect("bind starved daemon")
                .spawn();
        let mut c = Client::connect(starved.addr()).expect("client connects");
        let outcome = matches!(
            c.open("starved", &spec, 0.5),
            Err(ClientError::Server(e)) if e.code == ErrCode::Quota
        );
        let _ = c.quit();
        starved.stop();
        outcome
    };

    let (hits, misses, probes_total) = (stats.cache_hits, stats.cache_misses, stats.probes);
    let mut latencies = latencies.into_inner().expect("session threads joined cleanly");
    latencies.sort();
    let latency_ms = |q: f64| {
        let i = ((latencies.len() - 1) as f64 * q).round() as usize;
        Num(latencies[i].as_secs_f64() * 1e3)
    };
    let unshared = probes_single * N_SESSIONS as u64;
    let t = Table::record(
        format!("workload {spec}, {N_SESSIONS} concurrent sessions over one shared INUM cache"),
        vec![
            ("cache_hits", Int(hits)),
            ("cache_misses", Int(misses)),
            ("hit_rate", Pct(hits as f64 / (hits + misses).max(1) as f64)),
            ("probes_single", Int(probes_single)),
            ("probes_total", Int(probes_total)),
            ("probes_saved_vs_unshared", Pct(1.0 - probes_total as f64 / unshared.max(1) as f64)),
            ("stream_events", Int(stream_events as u64)),
            ("stream_match", Bool(stream_match)),
            ("rec_match", Bool(rec_match)),
            ("eviction_reproduced", Bool(eviction_reproduced)),
            ("quota_enforced", Bool(quota_enforced)),
            ("gap", Pct(rec.gap)),
            ("p50_ms", latency_ms(0.50)),
            ("p95_ms", latency_ms(0.95)),
            ("wall", Secs(t0.elapsed())),
        ],
    );

    let mut out = Outcome::new(vec![t]);
    out.claim(N_SESSIONS >= 8, format!("≥ 8 concurrent sessions ran: {N_SESSIONS}"));
    out.claim(
        misses == 1,
        format!("exactly one cold build (cold-stampede guard): {misses} cache misses"),
    );
    out.claim(
        hits as usize == N_SESSIONS - 1,
        format!("all other opens share the cache: {hits} hits of {}", N_SESSIONS - 1),
    );
    out.claim(
        probes_total == probes_single,
        format!("N sessions cost one session's probes: {probes_total} vs {probes_single}"),
    );
    out.claim(
        stream_events > 0,
        format!("the solve streams anytime events: {stream_events} per session"),
    );
    out.claim(stream_match, "the wire stream equals the in-process stream event for event");
    out.claim(rec_match, "the wire recommendations equal the in-process one");
    out.claim(eviction_reproduced, "an evicted session reproduces its recommendation");
    out.claim(quota_enforced, "a starved tenant is rejected with `err quota`");
    out.claim(rec.gap.is_finite(), format!("the proven gap is finite: {:.2}%", rec.gap * 100.0));
    out
}
