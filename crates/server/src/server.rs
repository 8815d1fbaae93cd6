//! The TCP face of the daemon: `std::net` + OS threads, no async runtime.
//!
//! One thread per connection reads line-delimited requests and answers
//! through a shared, mutex-guarded writer.  Long-running solves stream
//! their anytime events through that writer as they happen, and a
//! **heartbeat watchdog** thread writes `hb` ticks while a solve is in
//! flight: the moment a write fails (client gone), the watchdog fires the
//! solve's [`CancelToken`], which the solver observes between iterations
//! and stops with time-limit semantics — cooperative cancellation wired
//! through the solve budget's deadline, no thread killing.
//!
//! Latency: connections run with `TCP_NODELAY`, `hb` and `progress` lines
//! are flushed one by one (they are the anytime stream), and the lines that
//! end a reply leave under one lock with one flush.  Memory: a request line
//! is read into a buffer capped at `MAX_REQUEST_LINE`.
//!
//! Every request is wrapped in `catch_unwind`: a panicking handler drops
//! the (possibly torn) session, answers `err internal`, and the daemon
//! keeps serving every other connection.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use cophy_bip::CancelToken;

use crate::manager::{PointReply, ServerConfig, SessionManager, StatsReply, TuneReply};
use crate::protocol::{ErrCode, Request, WireError};

/// How often the watchdog proves connection liveness during a solve.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(50);

/// Deadline of a `tune` or `sweep`: past it the watchdog cancels the solve,
/// which returns its best incumbent (time-limit semantics).
const REQUEST_DEADLINE: Duration = Duration::from_secs(300);

/// Longest request line accepted, newline included — about 100× the longest
/// `what_if` the scripts send.  A client that withholds `\n` past it gets
/// one `err bad-request` and a closed connection, not an ever-growing buffer.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A bound listener plus the manager it serves.
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    log: Option<Arc<Mutex<std::fs::File>>>,
}

/// Handle to a spawned server: address, stop switch, join.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
    manager: Arc<SessionManager>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Stop accepting and join the accept loop (live connections finish
    /// their current request and then see closed sockets).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// Write protocol lines under one lock with one flush, so a reply's
/// terminal burst leaves as one write instead of a train of tiny segments;
/// `false` means the client is gone.
fn send_burst<S: AsRef<str>>(w: &SharedWriter, lines: impl IntoIterator<Item = S>) -> bool {
    let mut w = lock(w);
    for line in lines {
        if w.write_all(line.as_ref().as_bytes()).and_then(|()| w.write_all(b"\n")).is_err() {
            return false;
        }
    }
    w.flush().is_ok()
}

/// Write one protocol line and flush it; `false` means the client is gone.
fn send(w: &SharedWriter, line: &str) -> bool {
    send_burst(w, [line])
}

/// The two halves of an accepted connection.  Nagle is switched off: a
/// reply is a few small writes, and with it on each would wait out the
/// client's delayed ACK (40 ms) before the next could leave.
fn split(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, SharedWriter)> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), Arc::new(Mutex::new(BufWriter::new(stream)))))
}

/// One attempt to read a request line.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// The peer closed the connection.
    Closed,
    /// `line` holds the next request, newline included unless EOF cut it.
    Line,
    /// No newline within [`MAX_REQUEST_LINE`] bytes.
    TooLong,
}

/// Read the next request line into `line`, never buffering more than
/// [`MAX_REQUEST_LINE`] bytes of it.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> LineRead {
    line.clear();
    match reader.take(MAX_REQUEST_LINE as u64).read_until(b'\n', line) {
        Ok(0) | Err(_) => LineRead::Closed,
        Ok(n) if n == MAX_REQUEST_LINE && !line.ends_with(b"\n") => LineRead::TooLong,
        Ok(_) => LineRead::Line,
    }
}

fn index_line(ix: &cophy_catalog::Index) -> String {
    format!("index {}", cophy_optimizer::trace::fmt_index(ix))
}

/// The terminal burst of a `tune` reply: `degraded`?, `rec`, `index`*, `done`.
fn tune_burst(r: &TuneReply) -> Vec<String> {
    let mut lines: Vec<String> = r.degraded.iter().map(|d| d.to_line()).collect();
    lines.push(format!(
        "rec objective={} bound={} gap={} baseline={} calls={}",
        r.objective, r.bound, r.gap, r.baseline, r.what_if_calls
    ));
    lines.extend(r.indexes.iter().map(index_line));
    lines.push("done".into());
    lines
}

/// The terminal burst of a `sweep` reply: (`point`, `index`*)*, `done`.
fn sweep_burst(points: &[PointReply]) -> Vec<String> {
    let mut lines = Vec::new();
    for pt in points {
        lines.push(format!(
            "point budget={} objective={} bound={} gap={}",
            pt.budget_bytes, pt.objective, pt.bound, pt.gap
        ));
        lines.extend(pt.indexes.iter().map(index_line));
    }
    lines.push("done".into());
    lines
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        log_path: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let log = match log_path {
            Some(p) => Some(Arc::new(Mutex::new(
                std::fs::OpenOptions::new().create(true).append(true).open(p)?,
            ))),
            None => None,
        };
        Ok(Server { listener, manager: SessionManager::new(config), log })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    fn log(&self, line: &str) {
        if let Some(f) = &self.log {
            let mut f = lock(f);
            let _ = writeln!(f, "{line}");
        }
    }

    /// Accept loop on the calling thread until `stop` flips.
    pub fn run(self, stop: Arc<AtomicBool>) {
        let me = Arc::new(self);
        for conn in me.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let me = me.clone();
            thread::spawn(move || me.serve_connection(stream));
        }
    }

    /// Spawn the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let manager = self.manager.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = thread::spawn(move || self.run(flag));
        ServerHandle { addr, stop, join: Some(join), manager }
    }

    fn serve_connection(&self, stream: TcpStream) {
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let Ok((mut reader, writer)) = split(stream) else { return };
        let mut line = Vec::new();
        loop {
            match read_request_line(&mut reader, &mut line) {
                LineRead::Closed => return,
                LineRead::Line => {}
                LineRead::TooLong => {
                    let e = WireError::new(
                        ErrCode::BadRequest,
                        format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    );
                    self.log(&format!("{peer} -> {e}"));
                    let _ = send(&writer, &e.to_string());
                    return;
                }
            }
            let Ok(text) = std::str::from_utf8(&line) else { return };
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            self.log(&format!("{peer} <- {trimmed}"));
            let req = match Request::parse(trimmed) {
                Ok(req) => req,
                Err(e) => {
                    self.log(&format!("{peer} -> {e}"));
                    if !send(&writer, &e.to_string()) {
                        return;
                    }
                    continue;
                }
            };
            if req == Request::Quit {
                let _ = send(&writer, "ok bye");
                return;
            }
            let sid = request_sid(&req).map(str::to_string);
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(&req, &writer)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    self.log(&format!("{peer} -> {e}"));
                    if !send(&writer, &e.to_string()) {
                        return;
                    }
                }
                Err(_) => {
                    // The handler panicked: the session state may be torn —
                    // drop it so no later request sees it half-mutated.
                    if let Some(sid) = &sid {
                        self.manager.drop_session(sid);
                    }
                    let e = WireError::new(
                        ErrCode::Internal,
                        "request handler panicked; session dropped",
                    );
                    self.log(&format!("{peer} -> {e}"));
                    if !send(&writer, &e.to_string()) {
                        return;
                    }
                }
            }
        }
    }

    /// Handle one request, writing its reply lines; `Err` becomes one `err`
    /// line upstream.
    fn dispatch(&self, req: &Request, writer: &SharedWriter) -> Result<(), WireError> {
        let gone = || WireError::new(ErrCode::Internal, "client disconnected");
        let m = &self.manager;
        match req {
            Request::Open { sid, spec, budget } => {
                let r = m.open(sid, spec, *budget)?;
                let hit = if r.cache_hit { "hit" } else { "miss" };
                let mut ok = true;
                if let Some(d) = &r.degraded {
                    ok = send(writer, &d.to_line());
                }
                let line = format!(
                    "ok open {} statements={} candidates={} cache={} probes={}",
                    r.sid, r.statements, r.candidates, hit, r.probes
                );
                (ok && send(writer, &line)).then_some(()).ok_or_else(gone)
            }
            Request::Add { sid, spec } => {
                let r = m.add(sid, spec)?;
                let line = format!(
                    "ok add {} statements={} candidates={} probes={}",
                    r.sid, r.statements, r.candidates, r.probes
                );
                send(writer, &line).then_some(()).ok_or_else(gone)
            }
            Request::Tune { sid } => {
                let (cancel, watchdog) = Watchdog::arm(writer.clone(), REQUEST_DEADLINE);
                let r = m.tune(sid, Some(cancel), |p| {
                    let _ = send(writer, &p.to_line());
                });
                watchdog.disarm();
                send_burst(writer, tune_burst(&r?)).then_some(()).ok_or_else(gone)
            }
            Request::Sweep { sid, budgets } => {
                let (cancel, watchdog) = Watchdog::arm(writer.clone(), REQUEST_DEADLINE);
                let r = m.sweep(sid, budgets, Some(cancel), |p| {
                    let _ = send(writer, &p.to_line());
                });
                watchdog.disarm();
                send_burst(writer, sweep_burst(&r?)).then_some(()).ok_or_else(gone)
            }
            Request::Pin { sid, index } => {
                m.pin(sid, index)?;
                send(writer, &format!("ok pin {sid}")).then_some(()).ok_or_else(gone)
            }
            Request::Ban { sid, index } => {
                m.ban(sid, index)?;
                send(writer, &format!("ok ban {sid}")).then_some(()).ok_or_else(gone)
            }
            Request::Unfix { sid, index } => {
                m.unfix(sid, index)?;
                send(writer, &format!("ok unfix {sid}")).then_some(()).ok_or_else(gone)
            }
            Request::WhatIf { sid, indexes } => {
                let r = m.what_if(sid, indexes)?;
                let violation =
                    r.violation.as_deref().map_or_else(|| "-".to_string(), |v| v.replace(' ', "_"));
                let line = format!(
                    "ok what_if cost={} baseline={} improvement={} size={} violation={}",
                    r.cost, r.baseline, r.improvement, r.size_bytes, violation
                );
                send(writer, &line).then_some(()).ok_or_else(gone)
            }
            Request::ExportMps { sid } => {
                let mps = m.export_mps(sid)?;
                let header = format!("mps {}", mps.lines().count());
                let lines = [header.as_str()].into_iter().chain(mps.lines()).chain(["done"]);
                send_burst(writer, lines).then_some(()).ok_or_else(gone)
            }
            Request::Evict { sid } => {
                let bytes = m.evict(sid)?;
                send(writer, &format!("ok evict {sid} bytes={bytes}"))
                    .then_some(())
                    .ok_or_else(gone)
            }
            Request::Close { sid } => {
                m.close(sid)?;
                send(writer, &format!("ok close {sid}")).then_some(()).ok_or_else(gone)
            }
            Request::Stats => {
                let StatsReply {
                    live,
                    evicted,
                    cache_entries,
                    cache_hits,
                    cache_misses,
                    evictions,
                    rebuilds,
                    probes,
                    state_bytes,
                } = m.stats();
                let line = format!(
                    "ok stats live={live} evicted={evicted} cache_entries={cache_entries} \
                     cache_hits={cache_hits} cache_misses={cache_misses} evictions={evictions} \
                     rebuilds={rebuilds} probes={probes} state_bytes={state_bytes}"
                );
                send(writer, &line).then_some(()).ok_or_else(gone)
            }
            Request::Quit => Ok(()),
        }
    }
}

/// The per-solve liveness prober: writes `hb` ticks while armed, fires the
/// solve's [`CancelToken`] the moment a tick cannot be delivered (client
/// gone), and again when [`REQUEST_DEADLINE`] passes — the solve then
/// completes with its best incumbent under time-limit semantics instead of
/// holding a connection and a solver slot indefinitely.
struct Watchdog {
    done: Arc<AtomicBool>,
    join: thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(writer: SharedWriter, deadline: Duration) -> (CancelToken, Watchdog) {
        let token = CancelToken::new();
        let done = Arc::new(AtomicBool::new(false));
        let (t, d) = (token.clone(), done.clone());
        let join = thread::spawn(move || {
            let started = std::time::Instant::now();
            while !d.load(Ordering::SeqCst) {
                if !send(&writer, "hb") || started.elapsed() >= deadline {
                    t.cancel();
                    return;
                }
                thread::park_timeout(HEARTBEAT_EVERY);
            }
        });
        (token, Watchdog { done, join })
    }

    fn disarm(self) {
        self.done.store(true, Ordering::SeqCst);
        self.join.thread().unpark();
        let _ = self.join.join();
    }
}

fn request_sid(req: &Request) -> Option<&str> {
    match req {
        Request::Open { sid, .. }
        | Request::Add { sid, .. }
        | Request::Tune { sid }
        | Request::Sweep { sid, .. }
        | Request::Pin { sid, .. }
        | Request::Ban { sid, .. }
        | Request::Unfix { sid, .. }
        | Request::WhatIf { sid, .. }
        | Request::ExportMps { sid }
        | Request::Evict { sid }
        | Request::Close { sid } => Some(sid),
        Request::Stats | Request::Quit => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cophy_catalog::{ColumnId, Index, TableId};
    use std::io::Cursor;

    #[test]
    fn request_lines_are_read_up_to_the_cap() {
        let read = |bytes: Vec<u8>| {
            let mut line = Vec::new();
            let outcome = read_request_line(&mut Cursor::new(bytes), &mut line);
            (outcome, line)
        };
        assert_eq!(read(b"stats\nquit\n".to_vec()), (LineRead::Line, b"stats\n".to_vec()));
        assert_eq!(read(b"stats".to_vec()), (LineRead::Line, b"stats".to_vec()));
        assert_eq!(read(Vec::new()).0, LineRead::Closed);
        // The longest line that passes: the cap, newline included.
        let mut longest = vec![b'a'; MAX_REQUEST_LINE - 1];
        longest.push(b'\n');
        assert_eq!(read(longest.clone()).0, LineRead::Line);
        longest.insert(0, b'a');
        assert_eq!(read(longest).0, LineRead::TooLong);
        // However much a client sends without a newline, the buffer stops
        // at the cap (a `Vec` may round its capacity up, to less than 2x).
        let (outcome, line) = read(vec![b'a'; 1 << 20]);
        assert_eq!(outcome, LineRead::TooLong);
        assert_eq!(line.len(), MAX_REQUEST_LINE);
        assert!(line.capacity() < 2 * MAX_REQUEST_LINE, "capacity {}", line.capacity());
    }

    #[test]
    fn newline_free_flood_gets_one_error_and_a_closed_connection() {
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default(), None).unwrap().spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // The server hangs up after the first 64 KiB, so the tail of the
        // write may fail; the reply is what matters.
        let _ = stream.write_all(&vec![b'a'; 1 << 20]);
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            reply.trim_end(),
            format!("err bad-request request line exceeds {MAX_REQUEST_LINE} bytes")
        );
        let mut rest = Vec::new();
        assert!(matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)), "connection stays open");
        assert!(rest.is_empty(), "exactly one reply line: {rest:?}");
        handle.stop();
    }

    #[test]
    fn accepted_connections_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, writer) = split(listener.accept().unwrap().0).unwrap();
        assert!(reader.get_ref().nodelay().unwrap());
        assert!(lock(&writer).get_ref().nodelay().unwrap());
    }

    /// Whether the watchdog's thread ends within `limit`.  It returns only
    /// after firing its cancel token, so finishing is the cancel.
    fn fires_within(watchdog: &Watchdog, limit: Duration) -> bool {
        let started = std::time::Instant::now();
        while !watchdog.join.is_finished() {
            if started.elapsed() >= limit {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn the_watchdog_cancels_at_the_deadline_and_when_the_peer_is_gone() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_, writer) = split(listener.accept().unwrap().0).unwrap();
        let (_cancel, watchdog) = Watchdog::arm(writer, Duration::from_millis(100));
        assert!(fires_within(&watchdog, Duration::from_secs(1)), "the deadline must cancel");
        let mut first = String::new();
        BufReader::new(peer).read_line(&mut first).unwrap();
        assert_eq!(first, "hb\n", "heartbeats flow until the deadline");
        watchdog.disarm();

        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_, writer) = split(listener.accept().unwrap().0).unwrap();
        drop(peer);
        let (_cancel, watchdog) = Watchdog::arm(writer, Duration::from_secs(60));
        assert!(fires_within(&watchdog, Duration::from_secs(2)), "a gone peer must cancel");
        watchdog.disarm();
    }

    #[test]
    fn terminal_bursts_render_the_reply_lines_in_protocol_order() {
        let ix = |cols: &[u32]| {
            Index::secondary(TableId(1), cols.iter().map(|&c| ColumnId(c)).collect())
        };
        let (a, b) = (ix(&[2, 0]), ix(&[5]));
        let tune = TuneReply {
            objective: 12.5,
            bound: 12.0,
            gap: 0.04,
            baseline: 20.0,
            what_if_calls: 7,
            indexes: vec![a.clone(), b.clone()],
            degraded: None,
        };
        assert_eq!(
            tune_burst(&tune),
            [
                "rec objective=12.5 bound=12 gap=0.04 baseline=20 calls=7".to_string(),
                index_line(&a),
                index_line(&b),
                "done".to_string()
            ]
        );
        let points = [
            PointReply {
                budget_bytes: 100,
                objective: 3.0,
                bound: 2.5,
                gap: 0.2,
                indexes: vec![b.clone()],
            },
            PointReply { budget_bytes: 10, objective: 4.0, bound: 4.0, gap: 0.0, indexes: vec![] },
        ];
        assert_eq!(
            sweep_burst(&points),
            [
                "point budget=100 objective=3 bound=2.5 gap=0.2".to_string(),
                index_line(&b),
                "point budget=10 objective=4 bound=4 gap=0".to_string(),
                "done".to_string()
            ]
        );
    }

    /// One request over a raw socket: its reply lines up to `last`,
    /// heartbeats dropped.
    fn raw_reply(reader: &mut BufReader<TcpStream>, request: &str, last: &str) -> Vec<String> {
        reader.get_mut().write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "closed after {lines:?}");
            let line = line.trim_end().to_string();
            let end = line.starts_with(last);
            if line != "hb" {
                lines.push(line);
            }
            if end {
                return lines;
            }
        }
    }

    #[test]
    fn streamed_replies_keep_their_line_order_on_the_wire() {
        let config = ServerConfig {
            budget: cophy_bip::SolveBudget::within(0.05).with_time(Duration::from_secs(20)),
            ..Default::default()
        };
        let handle = Server::bind("127.0.0.1:0", config, None).unwrap().spawn();
        let mut reader = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
        let verbs = |lines: &[String]| -> Vec<String> {
            lines.iter().map(|l| l.split(' ').next().unwrap_or_default().to_string()).collect()
        };
        assert_eq!(verbs(&raw_reply(&mut reader, "open s hom:7:12 0.5", "ok open")), ["ok"]);

        // tune: progress* rec index+ done
        let tune = verbs(&raw_reply(&mut reader, "tune s", "done"));
        let rec = tune.iter().position(|v| v == "rec").expect("a rec line");
        assert!(rec > 0 && tune[..rec].iter().all(|v| v == "progress"), "{tune:?}");
        let indexes = &tune[rec + 1..tune.len() - 1];
        assert!(!indexes.is_empty() && indexes.iter().all(|v| v == "index"), "{tune:?}");

        // sweep: progress* (point index*){2} done
        let total = handle.manager().schema().data_bytes();
        let request = format!("sweep s {},{}", total / 2, total / 4);
        let sweep = verbs(&raw_reply(&mut reader, &request, "done"));
        let point = sweep.iter().position(|v| v == "point").expect("a point line");
        assert!(sweep[..point].iter().all(|v| v == "progress"), "{sweep:?}");
        let burst = &sweep[point..sweep.len() - 1];
        assert!(burst.iter().all(|v| v == "point" || v == "index"), "{sweep:?}");
        assert_eq!(burst.iter().filter(|v| *v == "point").count(), 2, "{sweep:?}");

        // export_mps: mps <n>, n body lines, done
        let mps = raw_reply(&mut reader, "export_mps s", "done");
        let body: usize = mps[0].strip_prefix("mps ").unwrap().parse().unwrap();
        assert_eq!(mps.len(), body + 2, "header, {body} body lines, done");
        cophy_bip::lint_mps(&mps[1..=body].join("\n")).expect("the body is the exported model");
        handle.stop();
    }
}
