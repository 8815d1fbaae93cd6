//! Blocking client for the advisor protocol.
//!
//! A thin typed veneer over one TCP connection: every method writes one
//! request line and parses the reply frames back into the same structs the
//! server side produces, so round-tripped floats compare bit-for-bit.
//! Heartbeat (`hb`) ticks are consumed transparently.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use cophy_catalog::Index;
use cophy_optimizer::trace::parse_index;

use crate::manager::{OpenReply, PointReply, StatsReply, TuneReply, WhatIfReply};
use crate::protocol::{
    field, field_f64, field_u64, DegradedLine, ErrCode, ProgressLine, Request, WireError,
};

/// Client-side failure: transport, a server `err` reply, or a reply the
/// client could not parse.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered `err <code> <message>`.
    Server(WireError),
    /// The reply violated the protocol grammar.
    Parse(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Parse(e) => write!(f, "bad reply: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> ClientError {
    ClientError::Parse(WireError::new(ErrCode::BadRequest, msg))
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write; see the server's `split` for why
        // Nagle must not hold it back.
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(read_half), writer: BufWriter::new(stream) })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.writer.write_all(req.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Next protocol line, heartbeats skipped; `err` lines become errors.
    fn next_line(&mut self) -> Result<String, ClientError> {
        loop {
            let line = self.raw_line()?;
            if line == "hb" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("err ") {
                let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
                let code = ErrCode::parse(code)
                    .ok_or_else(|| parse_err(format!("unknown err code in {line:?}")))?;
                return Err(ClientError::Server(WireError::new(code, msg)));
            }
            return Ok(line);
        }
    }

    fn raw_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(line.trim_end().to_string())
    }

    pub fn open(&mut self, sid: &str, spec: &str, budget: f64) -> Result<OpenReply, ClientError> {
        self.send(&Request::Open { sid: sid.into(), spec: spec.into(), budget })?;
        let mut degraded = None;
        let line = loop {
            let line = self.next_line()?;
            if line.starts_with("degraded ") {
                degraded = Some(DegradedLine::parse(&line).map_err(ClientError::Parse)?);
            } else {
                break line;
            }
        };
        if !line.starts_with("ok open ") {
            return Err(parse_err(format!("expected ok open, got {line:?}")));
        }
        Ok(OpenReply {
            sid: sid.to_string(),
            statements: field_u64(&line, "statements").map_err(ClientError::Parse)? as usize,
            candidates: field_u64(&line, "candidates").map_err(ClientError::Parse)? as usize,
            cache_hit: field(&line, "cache").map_err(ClientError::Parse)? == "hit",
            probes: field_u64(&line, "probes").map_err(ClientError::Parse)?,
            degraded,
        })
    }

    pub fn add(&mut self, sid: &str, spec: &str) -> Result<OpenReply, ClientError> {
        self.send(&Request::Add { sid: sid.into(), spec: spec.into() })?;
        let line = self.next_line()?;
        if !line.starts_with("ok add ") {
            return Err(parse_err(format!("expected ok add, got {line:?}")));
        }
        Ok(OpenReply {
            sid: sid.to_string(),
            statements: field_u64(&line, "statements").map_err(ClientError::Parse)? as usize,
            candidates: field_u64(&line, "candidates").map_err(ClientError::Parse)? as usize,
            cache_hit: false,
            probes: field_u64(&line, "probes").map_err(ClientError::Parse)?,
            degraded: None,
        })
    }

    /// `tune`, streaming every solver event into `on_progress` as it
    /// arrives over the wire.
    pub fn tune(
        &mut self,
        sid: &str,
        mut on_progress: impl FnMut(&ProgressLine),
    ) -> Result<TuneReply, ClientError> {
        self.send(&Request::Tune { sid: sid.into() })?;
        let mut degraded = None;
        let header = loop {
            let line = self.next_line()?;
            if line.starts_with("progress ") {
                on_progress(&ProgressLine::parse(&line).map_err(ClientError::Parse)?);
            } else if line.starts_with("degraded ") {
                degraded = Some(DegradedLine::parse(&line).map_err(ClientError::Parse)?);
            } else if line.starts_with("rec ") {
                break line;
            } else {
                return Err(parse_err(format!("expected progress/rec, got {line:?}")));
            }
        };
        let mut reply = TuneReply {
            objective: field_f64(&header, "objective").map_err(ClientError::Parse)?,
            bound: field_f64(&header, "bound").map_err(ClientError::Parse)?,
            gap: field_f64(&header, "gap").map_err(ClientError::Parse)?,
            baseline: field_f64(&header, "baseline").map_err(ClientError::Parse)?,
            what_if_calls: field_u64(&header, "calls").map_err(ClientError::Parse)?,
            indexes: Vec::new(),
            degraded,
        };
        loop {
            let line = self.next_line()?;
            if line == "done" {
                return Ok(reply);
            }
            let wire = line
                .strip_prefix("index ")
                .ok_or_else(|| parse_err(format!("expected index/done, got {line:?}")))?;
            reply.indexes.push(parse_index(wire).map_err(parse_err)?);
        }
    }

    /// `sweep`, streaming `(point, event)` pairs.
    pub fn sweep(
        &mut self,
        sid: &str,
        budgets: &[u64],
        mut on_progress: impl FnMut(&ProgressLine),
    ) -> Result<Vec<PointReply>, ClientError> {
        self.send(&Request::Sweep { sid: sid.into(), budgets: budgets.to_vec() })?;
        let mut points: Vec<PointReply> = Vec::new();
        loop {
            let line = self.next_line()?;
            if line == "done" {
                return Ok(points);
            } else if line.starts_with("progress ") {
                on_progress(&ProgressLine::parse(&line).map_err(ClientError::Parse)?);
            } else if line.starts_with("point ") {
                points.push(PointReply {
                    budget_bytes: field_u64(&line, "budget").map_err(ClientError::Parse)?,
                    objective: field_f64(&line, "objective").map_err(ClientError::Parse)?,
                    bound: field_f64(&line, "bound").map_err(ClientError::Parse)?,
                    gap: field_f64(&line, "gap").map_err(ClientError::Parse)?,
                    indexes: Vec::new(),
                });
            } else if let Some(wire) = line.strip_prefix("index ") {
                let pt = points
                    .last_mut()
                    .ok_or_else(|| parse_err("index line before any point line"))?;
                pt.indexes.push(parse_index(wire).map_err(parse_err)?);
            } else {
                return Err(parse_err(format!("unexpected sweep line {line:?}")));
            }
        }
    }

    pub fn pin(&mut self, sid: &str, ix: &Index) -> Result<(), ClientError> {
        self.simple_ok(&Request::Pin { sid: sid.into(), index: ix.clone() }, "ok pin")
    }

    pub fn ban(&mut self, sid: &str, ix: &Index) -> Result<(), ClientError> {
        self.simple_ok(&Request::Ban { sid: sid.into(), index: ix.clone() }, "ok ban")
    }

    pub fn unfix(&mut self, sid: &str, ix: &Index) -> Result<(), ClientError> {
        self.simple_ok(&Request::Unfix { sid: sid.into(), index: ix.clone() }, "ok unfix")
    }

    pub fn what_if(&mut self, sid: &str, indexes: &[Index]) -> Result<WhatIfReply, ClientError> {
        self.send(&Request::WhatIf { sid: sid.into(), indexes: indexes.to_vec() })?;
        let line = self.next_line()?;
        if !line.starts_with("ok what_if ") {
            return Err(parse_err(format!("expected ok what_if, got {line:?}")));
        }
        let violation = field(&line, "violation").map_err(ClientError::Parse)?;
        Ok(WhatIfReply {
            cost: field_f64(&line, "cost").map_err(ClientError::Parse)?,
            baseline: field_f64(&line, "baseline").map_err(ClientError::Parse)?,
            improvement: field_f64(&line, "improvement").map_err(ClientError::Parse)?,
            size_bytes: field_u64(&line, "size").map_err(ClientError::Parse)?,
            violation: (violation != "-").then(|| violation.replace('_', " ")),
        })
    }

    pub fn export_mps(&mut self, sid: &str) -> Result<String, ClientError> {
        self.send(&Request::ExportMps { sid: sid.into() })?;
        let header = self.next_line()?;
        let n: usize = header
            .strip_prefix("mps ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| parse_err(format!("expected mps <n>, got {header:?}")))?;
        let mut out = String::new();
        for _ in 0..n {
            // Raw body lines: no hb/err framing inside an MPS payload.
            out.push_str(&self.raw_line()?);
            out.push('\n');
        }
        let tail = self.next_line()?;
        if tail != "done" {
            return Err(parse_err(format!("expected done after mps body, got {tail:?}")));
        }
        Ok(out)
    }

    pub fn evict(&mut self, sid: &str) -> Result<u64, ClientError> {
        self.send(&Request::Evict { sid: sid.into() })?;
        let line = self.next_line()?;
        if !line.starts_with("ok evict ") {
            return Err(parse_err(format!("expected ok evict, got {line:?}")));
        }
        field_u64(&line, "bytes").map_err(ClientError::Parse)
    }

    pub fn close(&mut self, sid: &str) -> Result<(), ClientError> {
        self.simple_ok(&Request::Close { sid: sid.into() }, "ok close")
    }

    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.send(&Request::Stats)?;
        let line = self.next_line()?;
        if !line.starts_with("ok stats ") {
            return Err(parse_err(format!("expected ok stats, got {line:?}")));
        }
        let u = |k: &str| field_u64(&line, k).map_err(ClientError::Parse);
        Ok(StatsReply {
            live: u("live")? as usize,
            evicted: u("evicted")? as usize,
            cache_entries: u("cache_entries")? as usize,
            cache_hits: u("cache_hits")?,
            cache_misses: u("cache_misses")?,
            evictions: u("evictions")?,
            rebuilds: u("rebuilds")?,
            probes: u("probes")?,
            state_bytes: u("state_bytes")? as usize,
        })
    }

    pub fn quit(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Quit)?;
        let line = self.next_line()?;
        if line != "ok bye" {
            return Err(parse_err(format!("expected ok bye, got {line:?}")));
        }
        Ok(())
    }

    /// Run `f` with up to `attempts` tries, backing off on `err busy`
    /// replies.  The sleep honors the server's `retry_after_ms` hint when
    /// the reply carries one (solver-pool saturation, tripped circuit
    /// breaker), falling back to a doubling backoff from 25ms otherwise.
    /// Every other error — and busy on the final attempt — passes through.
    pub fn retry_busy<R>(
        &mut self,
        attempts: u32,
        mut f: impl FnMut(&mut Self) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        let mut fallback = std::time::Duration::from_millis(25);
        for attempt in 1.. {
            match f(self) {
                Err(ClientError::Server(e)) if e.code == ErrCode::Busy && attempt < attempts => {
                    std::thread::sleep(e.retry_after().unwrap_or(fallback));
                    fallback = (fallback * 2).min(std::time::Duration::from_secs(2));
                }
                out => return out,
            }
        }
        unreachable!("the loop returns on success, non-busy errors, or the final attempt")
    }

    fn simple_ok(&mut self, req: &Request, prefix: &str) -> Result<(), ClientError> {
        self.send(req)?;
        let line = self.next_line()?;
        if line.starts_with(prefix) {
            Ok(())
        } else {
            Err(parse_err(format!("expected {prefix}, got {line:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_sockets_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.get_ref().nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }
}
