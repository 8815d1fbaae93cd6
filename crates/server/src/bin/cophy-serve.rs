//! `cophy-serve` — run the advisor daemon, or drive a scripted session
//! against one (the CI smoke client).
//!
//! ```text
//! cophy-serve serve  --addr 127.0.0.1:7171 [--log FILE] [--quota N]
//!                    [--pool N] [--mem-cap BYTES] [--time-limit SECS]
//!                    [--chaos SEED]
//! cophy-serve script --addr 127.0.0.1:7171 [--expect-degraded]
//! ```
//!
//! `serve` blocks forever; a flag without a value, or with one that does not
//! parse, names the flag and the accepted form and exits 2.  `--chaos SEED`
//! wraps every tenant's backend in a seeded [`FaultPlan::chaos`] fault
//! injector — the CI robustness smoke runs a daemon in this mode to prove
//! `degraded`/`err` replies end to end.
//! `script` runs the canonical round trip — open, streamed tune, evict,
//! re-tune, pin, warm re-tune, what-if, close — asserting a finite proven
//! gap, and exits non-zero on any protocol or acceptance failure; with
//! `--expect-degraded` it additionally requires the open and the tune after
//! the eviction to report degradation.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use cophy_optimizer::FaultPlan;
use cophy_server::{Client, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("serve") => serve(&args),
        Some("script") => script(&args),
        _ => {
            eprintln!("usage: cophy-serve serve|script --addr HOST:PORT [options]");
            return ExitCode::FAILURE;
        }
    };
    // A bad flag exits 2, the way an unknown `COPHY_SCALE` does.
    run.unwrap_or_else(|e| {
        eprintln!("cophy-serve: {e}");
        ExitCode::from(2)
    })
}

/// The value of flag `name`, parsed: `Ok(None)` when the flag is absent.  A
/// flag without a value, or with one that is not `form`, is an error — a
/// mistyped `--quota` must not start an unmetered daemon.
fn flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    form: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    let Some(value) = args.get(i + 1) else {
        return Err(format!("{name}: missing value, expected {form}"));
    };
    value.parse().map(Some).map_err(|_| format!("{name} {value:?}: expected {form}"))
}

/// `--addr`, defaulting to the loopback port both subcommands share.
fn addr_flag(args: &[String]) -> Result<String, String> {
    Ok(flag(args, "--addr", "HOST:PORT")?.unwrap_or_else(|| "127.0.0.1:7171".to_string()))
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut config = ServerConfig::default();
    if let Some(q) = flag(args, "--quota", "a probe count")? {
        config.quota = q;
    }
    if let Some(p) = flag(args, "--pool", "a solver-slot count")? {
        config.solver_slots = p;
    }
    if let Some(m) = flag(args, "--mem-cap", "a byte count")? {
        config.mem_cap_bytes = m;
    }
    if let Some(t) = flag(args, "--time-limit", "whole seconds")? {
        config.budget = config.budget.with_time(Duration::from_secs(t));
    }
    if let Some(seed) = flag(args, "--chaos", "an unsigned integer seed")? {
        config.fault_plan = Some(FaultPlan::chaos(seed));
    }
    let addr = addr_flag(args)?;
    let log: Option<std::path::PathBuf> = flag(args, "--log", "a file path")?;
    let server = match Server::bind(&addr, config, log) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cophy-serve: bind {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("cophy-serve: listening on {}", server.local_addr());
    server.run(Arc::new(AtomicBool::new(false)));
    Ok(ExitCode::SUCCESS)
}

fn script(args: &[String]) -> Result<ExitCode, String> {
    let addr = addr_flag(args)?;
    let expect_degraded = args.iter().any(|a| a == "--expect-degraded");
    Ok(match run_script(&addr, expect_degraded) {
        Ok(()) => {
            println!("script: PASS");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("script: FAIL: {e}");
            ExitCode::FAILURE
        }
    })
}

/// The canonical smoke session; every step's reply is checked.
fn run_script(addr: &str, expect_degraded: bool) -> Result<(), Box<dyn std::error::Error>> {
    let mut c = Client::connect(addr)?;
    let sid = "ci-smoke";
    let spec = "hom:7:24";

    // `retry_busy` honors the server's retry_after_ms hints, so the script
    // survives a saturated pool or a half-open circuit breaker.
    let open = c.retry_busy(5, |c| c.open(sid, spec, 0.5))?;
    println!(
        "open: statements={} candidates={} probes={}",
        open.statements, open.candidates, open.probes
    );
    if open.statements != 24 {
        return Err(format!("expected 24 statements, got {}", open.statements).into());
    }
    if let Some(d) = &open.degraded {
        println!(
            "degraded: coverage={} inflation={} failed={} recovered={} substituted={}",
            d.coverage, d.inflation, d.failed, d.recovered, d.substituted
        );
    }
    if expect_degraded && open.degraded.is_none() {
        return Err("expected a degraded line on open (chaos daemon), got none".into());
    }

    let mut events = 0usize;
    let cold = c.retry_busy(5, |c| c.tune(sid, |_| events += 1))?;
    println!(
        "tune: objective={} bound={} gap={} events={} indexes={}",
        cold.objective,
        cold.bound,
        cold.gap,
        events,
        cold.indexes.len()
    );
    if !cold.gap.is_finite() {
        return Err("cold tune did not prove a finite gap".into());
    }
    if events == 0 {
        return Err("cold tune streamed no progress events".into());
    }
    if cold.indexes.is_empty() {
        return Err("cold tune recommended no indexes".into());
    }

    // Evict, then re-tune: the session sheds its solve state, not what it
    // knows about its own degradation.
    let bytes = c.evict(sid)?;
    let shed = c.retry_busy(5, |c| c.tune(sid, |_| {}))?;
    println!("evict: bytes={bytes}; re-tune: objective={} gap={}", shed.objective, shed.gap);
    if expect_degraded && shed.degraded.is_none() {
        return Err("expected a degraded line on the tune after evict, got none".into());
    }

    // Pin the first recommended index; the warm re-tune must keep it.
    let pinned = cold.indexes[0].clone();
    c.pin(sid, &pinned)?;
    let warm = c.tune(sid, |_| {})?;
    println!("warm tune: objective={} gap={}", warm.objective, warm.gap);
    if !warm.gap.is_finite() {
        return Err("warm tune did not prove a finite gap".into());
    }
    if !warm.indexes.contains(&pinned) {
        return Err("warm tune dropped the pinned index".into());
    }

    // What-if the warm recommendation: memo-lookup, must match objective.
    let wi = c.what_if(sid, &warm.indexes)?;
    println!("what_if: cost={} improvement={}", wi.cost, wi.improvement);
    if !(wi.cost.is_finite() && wi.cost > 0.0) {
        return Err("what_if returned a non-finite cost".into());
    }

    let stats = c.stats()?;
    println!(
        "stats: live={} probes={} cache_entries={}",
        stats.live, stats.probes, stats.cache_entries
    );
    c.close(sid)?;
    c.quit()?;
    Ok(())
}
