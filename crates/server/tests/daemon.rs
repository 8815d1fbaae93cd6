//! End-to-end daemon tests: the full TCP round trip, shared-cache probe
//! accounting, quota rejection, the evict-then-rebuild reproduction
//! guarantee, and the robustness surface (degraded replies, circuit
//! breaker, busy retry-after hints).

use std::time::Duration;

use cophy_bip::SolveBudget;
use cophy_optimizer::{FaultPlan, RetryPolicy};
use cophy_server::{Client, ClientError, ErrCode, Server, ServerConfig, SessionManager};

fn smoke_config() -> ServerConfig {
    ServerConfig {
        budget: SolveBudget::within(0.05).with_time(Duration::from_secs(20)),
        ..Default::default()
    }
}

#[test]
fn tcp_round_trip_open_tune_pin_retune_whatif_close() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    let open = c.open("s1", "hom:7:24", 0.5).unwrap();
    assert!(!open.cache_hit);
    assert_eq!(open.statements, 24);
    assert!(open.probes > 0, "cold open pays INUM probes");
    assert!(open.candidates > 0);

    let mut events = Vec::new();
    let cold = c.tune("s1", |p| events.push(p.state_key())).unwrap();
    assert!(cold.gap.is_finite());
    assert!(!cold.indexes.is_empty());
    assert!(!events.is_empty(), "tune streams anytime events");
    assert!(cold.objective <= cold.baseline);

    // Pin the top index: the warm re-tune keeps it and stays finite.
    let pinned = cold.indexes[0].clone();
    c.pin("s1", &pinned).unwrap();
    let warm = c.tune("s1", |_| {}).unwrap();
    assert!(warm.indexes.contains(&pinned));
    assert!(warm.gap.is_finite());

    // what_if of the warm answer costs it from the cache (no probes).
    let before = c.stats().unwrap().probes;
    let wi = c.what_if("s1", &warm.indexes).unwrap();
    assert!(wi.cost.is_finite() && wi.cost > 0.0);
    assert!(wi.improvement > 0.0);
    assert_eq!(c.stats().unwrap().probes, before, "what_if is memo-lookup only");

    // The exported model is lintable MPS.
    let mps = c.export_mps("s1").unwrap();
    cophy_bip::lint_mps(&mps).expect("exported MPS lints");

    c.close("s1").unwrap();
    let err = c.tune("s1", |_| {}).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrCode::NoSession),
        other => panic!("expected no-session, got {other}"),
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn tune_streams_typed_decomposition_progress_to_the_client() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    let open = c.open("s1", "hom:11:12", 0.5).unwrap();
    assert_eq!(open.statements, 12);

    // `add` routes through the chunked streaming-ingestion path.
    let added = c.add("s1", "upd:3:6").unwrap();
    assert_eq!(added.statements, 18);

    let mut events = Vec::new();
    c.tune("s1", |p| events.push(p.clone())).unwrap();
    // The Lagrangian backend decomposes per statement block: the client
    // sees the typed fields parsed back off the wire.
    let decomposed: Vec<_> = events.iter().filter_map(|p| p.decomposition).collect();
    assert!(!decomposed.is_empty(), "tune events must carry decomposition progress");
    for d in &decomposed {
        assert_eq!(d.blocks_total, 18, "one block per statement");
        assert_eq!(d.blocks_done, d.outer_iter * d.blocks_total, "cumulative block count");
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn sessions_over_one_spec_share_the_cache() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    let first = c.open("a", "hom:9:16", 0.5).unwrap();
    assert!(!first.cache_hit);
    let probes_single = c.stats().unwrap().probes;
    assert_eq!(probes_single, first.probes);

    for sid in ["b", "c", "d"] {
        let r = c.open(sid, "hom:9:16", 0.5).unwrap();
        assert!(r.cache_hit, "session {sid} should share the prepared cache");
        assert_eq!(r.probes, 0);
        assert_eq!(r.candidates, first.candidates);
    }
    // Sharing: four sessions, still exactly one session's worth of probes.
    let stats = c.stats().unwrap();
    assert_eq!(stats.probes, probes_single);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.live, 4);

    // Shared cache ⇒ identical answers: all four agree bit-for-bit.
    let r_a = c.tune("a", |_| {}).unwrap();
    for sid in ["b", "c", "d"] {
        let r = c.tune(sid, |_| {}).unwrap();
        assert_eq!(r.indexes, r_a.indexes);
        assert_eq!(r.objective.to_bits(), r_a.objective.to_bits());
        assert_eq!(r.bound.to_bits(), r_a.bound.to_bits());
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn quota_rejects_the_cold_open_with_a_typed_error() {
    let config = ServerConfig { quota: 3, ..smoke_config() };
    let handle = Server::bind("127.0.0.1:0", config, None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    match c.open("starved", "hom:5:16", 0.5).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrCode::Quota, "message: {}", e.message);
            assert!(e.message.contains("quota exceeded"));
        }
        other => panic!("expected quota error, got {other}"),
    }
    // The failed open left nothing behind.
    let stats = c.stats().unwrap();
    assert_eq!(stats.live, 0);
    assert_eq!(stats.cache_entries, 0);
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn evicted_session_rebuilds_and_reproduces_its_recommendation() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    // Builder session pays the probes; the test subject shares the cache.
    c.open("builder", "hom:11:16", 0.5).unwrap();
    let open = c.open("subject", "hom:11:16", 0.5).unwrap();
    assert!(open.cache_hit);

    // Fix intent, then take the pre-eviction recommendation (cold solve
    // under the fixings).
    let probe = c.tune("builder", |_| {}).unwrap();
    let pin = probe.indexes[0].clone();
    let ban = probe.indexes[probe.indexes.len() - 1].clone();
    c.pin("subject", &pin).unwrap();
    if ban != pin {
        c.ban("subject", &ban).unwrap();
    }
    let before = c.tune("subject", |_| {}).unwrap();
    assert!(before.indexes.contains(&pin));
    assert!(ban == pin || !before.indexes.contains(&ban));

    // Evict: private state drops, shared cache and fixings are retained.
    let released = c.evict("subject").unwrap();
    assert!(released > 0, "evicting a solved session releases state bytes");
    let stats = c.stats().unwrap();
    assert_eq!(stats.evicted, 1);

    // Retouch: rebuilt over the retained cache with zero probes, and the
    // recommendation reproduces bit-for-bit.
    let probes_before = c.stats().unwrap().probes;
    let after = c.tune("subject", |_| {}).unwrap();
    assert_eq!(c.stats().unwrap().probes, probes_before, "rebuild costs no probes");
    assert_eq!(after.indexes, before.indexes);
    assert_eq!(after.objective.to_bits(), before.objective.to_bits());
    assert_eq!(after.bound.to_bits(), before.bound.to_bits());
    assert_eq!(after.gap.to_bits(), before.gap.to_bits());
    assert_eq!(c.stats().unwrap().rebuilds, 1);

    c.quit().unwrap();
    handle.stop();
}

#[test]
fn sweep_streams_point_tagged_events() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.open("s", "hom:13:12", 0.8).unwrap();

    let schema_bytes = handle.manager().schema().data_bytes();
    let budgets = [schema_bytes, schema_bytes / 2, schema_bytes / 4];
    let mps_before = c.export_mps("s").unwrap();
    let mut seen_points = Vec::new();
    let points = c.sweep("s", &budgets, |p| seen_points.push(p.point)).unwrap();
    assert_eq!(points.len(), 3);
    // The sweep's budgets are its own: `mps` still exports the session's.
    assert_eq!(c.export_mps("s").unwrap(), mps_before);
    for (pt, budget) in points.iter().zip(budgets) {
        assert_eq!(pt.budget_bytes, budget);
        assert!(pt.gap.is_finite());
    }
    // Tighter budgets can only raise the optimum (monotone chain).
    assert!(points[1].objective + 1e-9 >= points[0].objective);
    assert!(points[2].objective + 1e-9 >= points[1].objective);
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn malformed_and_unknown_session_requests_are_typed_errors() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    match c.tune("ghost", |_| {}).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, ErrCode::NoSession),
        other => panic!("expected no-session, got {other}"),
    }
    match c.open("s", "bogus:1:1", 0.5).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, ErrCode::BadRequest),
        other => panic!("expected bad-request, got {other}"),
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn out_of_schema_indexes_are_bad_requests_not_dropped_sessions() {
    use cophy_catalog::{ColumnId, Index, TableId};
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.open("s1", "hom:7:12", 0.5).unwrap();
    let before = c.tune("s1", |_| {}).unwrap();

    // `99/S/0/0/`, column 500 of table 0, and a key-less index: the wire
    // parser takes them all, the catalog would index out of bounds.
    let no_table = Index::secondary(TableId(99), vec![ColumnId(0)]);
    let no_column = Index::secondary(TableId(0), vec![ColumnId(500)]);
    let no_include = Index::covering(TableId(0), vec![ColumnId(0)], vec![ColumnId(500)]);
    let no_key = Index::secondary(TableId(0), Vec::new());
    let replies = [
        c.what_if("s1", std::slice::from_ref(&no_table)).err(),
        c.pin("s1", &no_table).err(),
        c.what_if("s1", std::slice::from_ref(&no_column)).err(),
        c.ban("s1", &no_column).err(),
        c.pin("s1", &no_include).err(),
        c.unfix("s1", &no_key).err(),
    ];
    for reply in replies {
        match reply {
            Some(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::BadRequest, "{e:?}"),
            other => panic!("expected bad-request, got {other:?}"),
        }
    }

    // Same connection, same session, no fixing left behind.
    let after = c.tune("s1", |_| {}).unwrap();
    assert_eq!(after.indexes, before.indexes);
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn serve_exits_2_on_a_flag_value_it_cannot_parse() {
    use std::process::{Command, Stdio};
    for (args, flag) in [
        (&["--quota", "abc"][..], "--quota"),
        (&["--pool", "x"], "--pool"),
        (&["--time-limit", "1.5"], "--time-limit"),
        (&["--chaos", "-3"], "--chaos"),
        (&["--quota", "10", "--mem-cap"], "--mem-cap"),
    ] {
        let mut serve = Command::new(env!("CARGO_BIN_EXE_cophy-serve"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // A daemon that ignores the flag would serve forever: bound the wait.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while serve.try_wait().unwrap().is_none() {
            if std::time::Instant::now() > deadline {
                serve.kill().unwrap();
                serve.wait().unwrap();
                panic!("{args:?}: serve started a daemon instead of rejecting the flag");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = serve.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains("expected"), "{args:?}: {stderr}");
    }
}

fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(50),
        ..Default::default()
    }
}

#[test]
fn transient_chaos_daemon_reports_degraded_and_matches_the_clean_daemon() {
    let clean = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let chaotic_config = ServerConfig {
        fault_plan: Some(FaultPlan::transient_only(0xC0FFEE, 0.35, 2)),
        retry: fast_retry(4),
        ..smoke_config()
    };
    let chaotic = Server::bind("127.0.0.1:0", chaotic_config, None).unwrap().spawn();

    let mut cc = Client::connect(clean.addr()).unwrap();
    let mut cf = Client::connect(chaotic.addr()).unwrap();
    let clean_open = cc.open("s", "hom:21:12", 0.5).unwrap();
    let chaos_open = cf.open("s", "hom:21:12", 0.5).unwrap();

    assert!(clean_open.degraded.is_none(), "fault-free daemon must not report degradation");
    let d = chaos_open.degraded.as_ref().expect("chaos daemon must stream a degraded line");
    assert!(d.recovered > 0, "the transient schedule must have fired");
    assert_eq!(d.substituted, 0, "all-transient faults recover fully under retries");
    assert_eq!(d.coverage, 1.0);
    assert_eq!(d.inflation, 0.0);
    // Injected faults never consume a real probe: same bill as the clean
    // daemon.
    assert_eq!(chaos_open.probes, clean_open.probes);

    // Recovered prep ⇒ the recommendation is bit-identical.
    let clean_rec = cc.tune("s", |_| {}).unwrap();
    let chaos_rec = cf.tune("s", |_| {}).unwrap();
    assert_eq!(chaos_rec.objective.to_bits(), clean_rec.objective.to_bits());
    assert_eq!(chaos_rec.bound.to_bits(), clean_rec.bound.to_bits());
    assert_eq!(chaos_rec.indexes, clean_rec.indexes);
    assert!(chaos_rec.degraded.is_some(), "tune must carry the session's degradation");

    // The `add` verb probes under the same retry policy as `open`: the
    // transient faults on its new statements recover, at the clean
    // daemon's probe bill, into a bit-identical re-tune.
    let clean_add = cc.add("s", "het:8:6").unwrap();
    let chaos_add = cf.add("s", "het:8:6").unwrap();
    assert!(clean_add.probes > 0, "diverse statements must probe");
    assert_eq!(chaos_add.probes, clean_add.probes);
    assert_eq!(chaos_add.statements, clean_add.statements);
    let clean_rec = cc.tune("s", |_| {}).unwrap();
    let chaos_rec = cf.tune("s", |_| {}).unwrap();
    assert_eq!(chaos_rec.objective.to_bits(), clean_rec.objective.to_bits());
    assert_eq!(chaos_rec.bound.to_bits(), clean_rec.bound.to_bits());
    assert_eq!(chaos_rec.indexes, clean_rec.indexes);
    let after_add = chaos_rec.degraded.expect("the add's recovered probes are on the account");
    assert!(after_add.recovered > d.recovered, "the schedule must have fired on the add");
    assert_eq!(after_add.substituted, 0);

    cc.quit().unwrap();
    cf.quit().unwrap();
    clean.stop();
    chaotic.stop();
}

#[test]
fn breaker_trips_on_repeated_backend_faults_rejects_fast_and_half_opens() {
    // Every pair fails permanently: each cold open burns its retries, loses
    // every probe, and dies on the coverage floor — a backend-classified
    // error that feeds the tenant's breaker.
    let config = ServerConfig {
        fault_plan: Some(FaultPlan { permanent_rate: 1.0, ..FaultPlan::transient_only(7, 0.0, 1) }),
        retry: fast_retry(2),
        ..smoke_config()
    };
    let handle = Server::bind("127.0.0.1:0", config, None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    for attempt in 0..5 {
        match c.open("t", "hom:5:8", 0.5).unwrap_err() {
            ClientError::Server(e) => {
                assert_eq!(e.code, ErrCode::Backend, "attempt {attempt}: {}", e.message);
                assert!(e.message.contains("coverage"), "attempt {attempt}: {}", e.message);
            }
            other => panic!("expected backend error, got {other}"),
        }
    }
    // Five consecutive backend faults: the breaker is open and rejects
    // fast, with a parsable backoff hint within its 500 ms cooldown.
    match c.open("t", "hom:5:8", 0.5).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrCode::Busy, "{}", e.message);
            let hint = e.retry_after().expect("busy from the breaker carries retry_after_ms");
            assert!(hint <= Duration::from_millis(500));
        }
        other => panic!("expected busy, got {other}"),
    }
    // After the cooldown the breaker half-opens: the trial request reaches
    // the backend again (and fails on the backend, not on the breaker).
    std::thread::sleep(Duration::from_millis(510));
    match c.open("t", "hom:5:8", 0.5).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, ErrCode::Backend, "{}", e.message),
        other => panic!("expected backend error, got {other}"),
    }
    // The failed trial re-opened the breaker; other tenants are unaffected.
    match c.open("t", "hom:5:8", 0.5).unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, ErrCode::Busy, "{}", e.message),
        other => panic!("expected busy, got {other}"),
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn client_retry_busy_honors_the_hint_and_recovers() {
    // Same doomed backend, but a breaker that recovers nothing: retry_busy
    // itself must ride the open/half-open cycle and surface the final
    // backend error (not busy) once a trial is admitted.
    let config = ServerConfig {
        fault_plan: Some(FaultPlan { permanent_rate: 1.0, ..FaultPlan::transient_only(7, 0.0, 1) }),
        retry: fast_retry(2),
        ..smoke_config()
    };
    let handle = Server::bind("127.0.0.1:0", config, None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();

    // Trip the breaker: five consecutive backend faults.
    for _ in 0..5 {
        assert!(c.open("t", "hom:5:8", 0.5).is_err());
    }
    // retry_busy sleeps through the busy rejection (honoring the hint) and
    // reaches the backend on the half-open trial.
    match c.retry_busy(3, |c| c.open("t", "hom:5:8", 0.5)).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrCode::Backend, "retry_busy must outlast busy: {}", e.message);
        }
        other => panic!("expected backend error, got {other}"),
    }
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn infeasible_sweep_is_a_typed_error_not_a_dropped_session() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.open("s", "hom:13:12", 0.8).unwrap();
    let rec = c.tune("s", |_| {}).unwrap();
    // Pin the whole recommendation, then sweep to a budget it cannot fit.
    for ix in &rec.indexes {
        c.pin("s", ix).unwrap();
    }
    match c.sweep("s", &[1], |_| {}).unwrap_err() {
        ClientError::Server(e) => {
            assert!(e.message.contains("infeasible"), "{}", e.message);
        }
        other => panic!("expected server error, got {other}"),
    }
    // The session survived the infeasible sweep: it still answers, and the
    // pinned recommendation stays feasible (warm incumbent carried over).
    let again = c.tune("s", |_| {}).unwrap();
    assert!(again.gap.is_finite());
    assert!(again.objective <= rec.objective + 1e-6);
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn over_pinned_session_is_a_typed_error_not_a_dropped_session() {
    let handle = Server::bind("127.0.0.1:0", smoke_config(), None).unwrap().spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    // What a roomy session recommends cannot fit a 4 KiB budget.
    c.open("roomy", "hom:13:12", 0.8).unwrap();
    let rec = c.tune("roomy", |_| {}).unwrap();
    assert!(!rec.indexes.is_empty());
    c.open("s", "hom:13:12", 4096.0).unwrap();
    let refused: Vec<_> = rec.indexes.iter().filter_map(|ix| c.pin("s", ix).err()).collect();
    assert!(!refused.is_empty(), "the pins cannot all fit 4096 bytes");
    for e in refused {
        match e {
            ClientError::Server(e) => {
                assert_eq!(e.code, ErrCode::BadRequest, "{}", e.message);
                assert!(e.message.contains("infeasible"), "{}", e.message);
            }
            other => panic!("expected server error, got {other}"),
        }
    }
    // The session survived, holds no pin it cannot honor, and still answers.
    let tuned = c.tune("s", |_| {}).unwrap();
    assert!(tuned.gap.is_finite());
    c.quit().unwrap();
    handle.stop();
}

#[test]
fn manager_lru_cap_evicts_cold_sessions() {
    // A cap small enough that two solved sessions cannot both stay live.
    let config = ServerConfig { mem_cap_bytes: 1, ..smoke_config() };
    let manager = SessionManager::new(config);
    manager.open("hot", "hom:17:8", 0.5).unwrap();
    manager.open("cold", "hom:17:8", 0.5).unwrap();
    manager.tune("cold", None, |_| {}).unwrap();
    // Touching `hot` makes `cold` the LRU victim once the cap bites.
    manager.tune("hot", None, |_| {}).unwrap();
    let stats = manager.stats();
    assert!(stats.evictions >= 1, "cap of 1 byte must evict, stats: {stats:?}");
    // Both sessions still answer — eviction is transparent.
    manager.tune("cold", None, |_| {}).unwrap();
    manager.tune("hot", None, |_| {}).unwrap();
}
