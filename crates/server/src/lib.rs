//! # cophy-server — the advisor as a service
//!
//! CoPhy's §4.2 pitch is an *interactive* advisor: open a session once, pay
//! CGen + INUM once, then answer every refinement — re-tunes, budget
//! sweeps, pins/bans, what-if probes — at solver speed.  This crate lifts
//! that surface behind a daemon so many DBAs (or bots) share one advisor
//! process:
//!
//! * **Transport** — `std::net::TcpListener` + OS threads, line-delimited
//!   text ([`Request`]); no async runtime, nothing outside the workspace.
//! * **Sharing** — sessions opened over the same workload spec share one
//!   [`cophy_inum::InumCache`] `Arc`: N concurrent sessions cost the probes
//!   of one ([`SessionManager`]).
//! * **Isolation** — per-tenant probe quotas ([`ServerConfig::quota`]), a
//!   bounded solver pool (`err busy` after a 10 s wait instead of collapse),
//!   a per-tenant circuit breaker (5 faults, 500 ms cooldown), cooperative
//!   cancellation when a client disconnects mid-solve or a solve passes its
//!   300 s deadline ([`Server`]), and a memory-capped LRU that demotes cold
//!   sessions to a compact form they rebuild from bit-identically.
//! * **Streaming** — `tune`/`sweep` forward every anytime
//!   [`cophy_bip::SolveProgress`] event as a `progress` line the moment the
//!   solver emits it; the `server_smoke` gate checks the wire stream equals
//!   an in-process run event for event.
//!
//! Quick start (the README "Advisor as a service" snippet):
//!
//! ```no_run
//! use cophy_server::{Client, Server, ServerConfig};
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default(), None).unwrap().spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.open("s1", "hom:7:24", 0.5).unwrap(); // budget = 0.5 x data size
//! let rec = client.tune("s1", |p| println!("gap {:.1}%", p.gap * 100.0)).unwrap();
//! println!("{} indexes, objective {}", rec.indexes.len(), rec.objective);
//! client.close("s1").unwrap();
//! handle.stop();
//! ```

mod breaker;
mod client;
mod manager;
mod protocol;
mod quota;
mod server;

pub use client::{Client, ClientError};
pub use manager::{
    parse_spec, parse_spec_source, OpenReply, PointReply, ServerConfig, SessionManager, StatsReply,
    TuneReply, WhatIfReply,
};
pub use protocol::{DegradedLine, ErrCode, ProgressLine, Request, WireError};
pub use server::{Server, ServerHandle};
