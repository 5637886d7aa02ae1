//! The load generator: one thread drives every data connection through
//! `ppoll(2)`, writing pre-generated wire bytes in chunks and reading
//! replies as they arrive.
//!
//! Each chunk has a *due* time: its schedule slot in an open loop, or
//! the moment the previous chunk was accepted in a closed loop. Match
//! latency runs from the due time of the chunk holding the sample a
//! match was reported at, so a stalled generator or a backed-up socket
//! counts against the server rather than hiding; generator lag is how
//! long after its due time each chunk was fully handed to the kernel.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::oracle::attach_line;
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::workload::{query_add_line, Inputs, Mode, Workload};

/// How long the server may take to finish every stream after the last
/// send before the missing `done` lines count as failures.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Client send buffer per connection. Pinned: an autotuned buffer grows
/// to megabytes in a closed loop, and samples queued there would turn
/// match latency into a measure of the kernel's buffer sizing.
const SEND_BUFFER: usize = 64 * 1024;
/// Chunks a connection may write per loop turn before reads get a look.
const WRITES_PER_TURN: usize = 16;

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One connection's side of a run.
#[derive(Debug)]
pub struct ConnRun {
    sock: TcpStream,
    /// Server-side stream id (connections are accepted in order).
    pub stream: u32,
    /// Offset added to the extra queries' ids.
    pub query_base: u32,
    /// Every line received, set-up replies first.
    pub lines: Vec<String>,
    /// Arrival time of each line, ns since the run's epoch.
    pub arrivals: Vec<u64>,
    /// Stream samples sent so far (set-up sample included).
    pub sent: u64,
    /// Bytes written so far (set-up verbs included).
    pub bytes_sent: u64,
    /// First stream sample of each chunk, ascending.
    pub chunk_first: Vec<u64>,
    /// Due time of each chunk, ns since the epoch.
    pub chunk_due: Vec<u64>,
    /// Per streamed chunk: due time and ns from due to fully written.
    pub lag: Vec<(u64, u64)>,
    /// The server closed the connection.
    pub eof: bool,
    rx: Vec<u8>,
    cur: Option<Chunk>,
    write_closed: bool,
    last_done_write: u64,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    first: u64,
    end: u64,
    written: usize,
    due: u64,
}

impl ConnRun {
    fn take_lines(&mut self, now: u64) {
        while let Some(nl) = self.rx.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rx.drain(..=nl).collect();
            self.lines
                .push(String::from_utf8_lossy(&line[..nl]).trim_end().to_string());
            self.arrivals.push(now);
        }
    }

    /// Reads whatever is available; sets `eof` once the peer closed.
    fn read_some(&mut self, epoch: Instant) -> io::Result<()> {
        let mut buf = [0u8; 65536];
        for _ in 0..8 {
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.rx.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    self.eof = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        self.take_lines(ns_since(epoch));
        Ok(())
    }
}

/// Opens every data connection and runs the workload's set-up: `fleet`
/// sends one sample, then registers (under ids offset by `query_base`)
/// and attaches its extra queries, and waits for every reply before the
/// next connection opens. The server numbers streams in accept order,
/// so these connections are streams `first_stream`, `first_stream + 1`,
/// ….
pub fn connect(
    addr: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    epoch: Instant,
    first_stream: u32,
    query_base: u32,
) -> io::Result<Vec<ConnRun>> {
    let mut conns = Vec::new();
    for (c, input) in inputs.conns.iter().enumerate() {
        let sock = TcpStream::connect(addr)?;
        // Without it, client-side Nagle holds small open-loop chunks
        // back for the peer's delayed ACK.
        sock.set_nodelay(true)?;
        sys::set_send_buffer(sock.as_raw_fd(), SEND_BUFFER)?;
        let stream = first_stream + c as u32;
        let mut conn = ConnRun {
            sock,
            stream,
            query_base,
            lines: Vec::new(),
            arrivals: Vec::new(),
            sent: 0,
            bytes_sent: 0,
            chunk_first: Vec::new(),
            chunk_due: Vec::new(),
            lag: Vec::new(),
            eof: false,
            rx: Vec::new(),
            cur: None,
            write_closed: false,
            last_done_write: 0,
        };
        let pre = w.pre_samples();
        if pre > 0 {
            let mut msg = input.bytes(0, pre).to_vec();
            for e in &input.extras {
                msg.extend_from_slice(query_add_line(query_base + e.id, &e.values).as_bytes());
                msg.push(b'\n');
            }
            for e in &input.extras {
                let line = attach_line(stream, query_base + e.id, e.values.len());
                msg.extend_from_slice(line.as_bytes());
                msg.push(b'\n');
            }
            conn.chunk_first.push(0);
            conn.chunk_due.push(ns_since(epoch));
            conn.sock.write_all(&msg)?;
            conn.sent = pre as u64;
            conn.bytes_sent = msg.len() as u64;
            let replies = 2 * input.extras.len();
            conn.sock.set_read_timeout(Some(Duration::from_secs(30)))?;
            let mut buf = [0u8; 4096];
            while conn.lines.len() < replies {
                let n = conn.sock.read(&mut buf)?;
                if n == 0 {
                    conn.eof = true;
                    break;
                }
                conn.rx.extend_from_slice(&buf[..n]);
                conn.take_lines(ns_since(epoch));
            }
            conn.sock.set_read_timeout(None)?;
        }
        conns.push(conn);
    }
    Ok(conns)
}

/// A reading taken at a window boundary of the streaming phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// When, ns since the epoch.
    pub t: u64,
    /// Stream samples fully written by then, over every connection.
    pub sent: u64,
    /// The probe's readings.
    pub probe: [f64; 3],
}

/// Timing of the streaming phase.
#[derive(Debug, Clone)]
pub struct StreamTimes {
    /// First streamed byte, ns since the epoch.
    pub first_byte: u64,
    /// Arrival of the last `done` line (or the give-up time), ns since
    /// the epoch.
    pub last_done: u64,
    /// Every connection delivered its `done` line and closed in time.
    pub completed: bool,
    /// Readings at the start and at the end of each of the equal
    /// windows the sending time is cut into.
    pub marks: Vec<Mark>,
}

/// Streams in `mode` for `seconds`, then half-closes every connection
/// and reads until the server has closed them all (or [`DRAIN_LIMIT`]
/// passes). The sending time is cut into `windows` equal windows, with
/// `probe` read at each boundary.
pub fn stream(
    conns: &mut [ConnRun],
    mode: Mode,
    inputs: &Inputs,
    seconds: f64,
    epoch: Instant,
    windows: usize,
    probe: &mut dyn FnMut() -> [f64; 3],
) -> io::Result<StreamTimes> {
    for c in conns.iter_mut() {
        c.sock.set_nonblocking(true)?;
    }
    let start = ns_since(epoch);
    let deadline = start + (seconds * 1e9) as u64;
    let windows = windows.max(1) as u64;
    let boundary = |k: u64| start + (deadline - start) * k / windows;
    let mut marks = vec![Mark {
        t: start,
        sent: conns.iter().map(|c| c.sent).sum(),
        probe: probe(),
    }];
    let (chunk, period, total_chunks) = match mode {
        Mode::Open {
            rate_per_conn,
            chunk,
        } => {
            let period = (chunk as f64 / rate_per_conn * 1e9) as u64;
            (
                chunk,
                period,
                (seconds * rate_per_conn / chunk as f64) as u64,
            )
        }
        Mode::Closed { chunk } => (chunk, 0, u64::MAX),
    };
    let closed = matches!(mode, Mode::Closed { .. });
    for c in conns.iter_mut() {
        c.last_done_write = start;
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.sock.as_raw_fd(),
            events: 0,
            revents: 0,
        })
        .collect();
    let mut started = vec![0u64; conns.len()];
    loop {
        let now = ns_since(epoch);
        let mut wake_at = u64::MAX;
        for (i, c) in conns.iter_mut().enumerate() {
            // Open-loop slots are staggered by half a period between
            // the connections.
            let slot = |k: u64| start + k * period + i as u64 * period / 2;
            for _ in 0..WRITES_PER_TURN {
                if c.write_closed {
                    break;
                }
                if c.cur.is_none() {
                    let due = match mode {
                        Mode::Closed { .. } if now < deadline => Some(c.last_done_write),
                        Mode::Open { .. } if started[i] < total_chunks => {
                            let due = slot(started[i]);
                            if due > now {
                                wake_at = wake_at.min(due);
                                break;
                            }
                            Some(due)
                        }
                        _ => None,
                    };
                    let Some(due) = due else {
                        c.sock.shutdown(Shutdown::Write)?;
                        c.write_closed = true;
                        break;
                    };
                    let n = inputs.conns[i].samples.len() as u64;
                    let first = c.sent;
                    // A chunk never wraps around the generated samples.
                    let end = (first + chunk as u64).min((first / n + 1) * n);
                    c.cur = Some(Chunk {
                        first,
                        end,
                        written: 0,
                        due,
                    });
                    c.chunk_first.push(first);
                    c.chunk_due.push(due);
                    started[i] += 1;
                }
                let mut ch = c.cur.expect("a chunk is in flight");
                let n = inputs.conns[i].samples.len() as u64;
                let (a, b) = ((ch.first % n) as usize, ((ch.end - 1) % n + 1) as usize);
                let bytes = &inputs.conns[i].bytes(a, b)[ch.written..];
                match c.sock.write(bytes) {
                    Ok(k) => {
                        ch.written += k;
                        c.bytes_sent += k as u64;
                        if k == bytes.len() {
                            let t = ns_since(epoch);
                            c.lag.push((ch.due, t.saturating_sub(ch.due)));
                            c.sent = ch.end;
                            c.last_done_write = t;
                            c.cur = None;
                        } else {
                            c.cur = Some(ch);
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        for (fd, c) in fds.iter_mut().zip(conns.iter()) {
            fd.events = if c.eof { 0 } else { POLLIN };
            if !c.write_closed && (c.cur.is_some() || closed) {
                fd.events |= POLLOUT;
            }
            fd.revents = 0;
        }
        if conns.iter().all(|c| c.eof) {
            break;
        }
        let now = ns_since(epoch);
        if (marks.len() as u64) <= windows {
            let next = boundary(marks.len() as u64);
            if now >= next {
                marks.push(Mark {
                    t: now,
                    sent: conns.iter().map(|c| c.sent).sum(),
                    probe: probe(),
                });
                continue;
            }
            wake_at = wake_at.min(next);
        }
        let give_up = deadline + DRAIN_LIMIT.as_nanos() as u64;
        if now >= give_up {
            break;
        }
        if closed && now < deadline {
            wake_at = wake_at.min(deadline);
        }
        let timeout = wake_at.min(give_up).saturating_sub(now);
        sys::poll_fds(&mut fds, timeout)?;
        for (fd, c) in fds.iter().zip(conns.iter_mut()) {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 && !c.eof {
                c.read_some(epoch)?;
            }
        }
    }
    let last_done = conns
        .iter()
        .filter_map(|c| {
            c.lines
                .iter()
                .rposition(|l| l.starts_with("done "))
                .map(|i| c.arrivals[i])
        })
        .max()
        .unwrap_or_else(|| ns_since(epoch));
    let completed = conns
        .iter()
        .all(|c| c.eof && c.lines.iter().any(|l| l.starts_with("done ")));
    Ok(StreamTimes {
        first_byte: start,
        last_done,
        completed,
        marks,
    })
}

/// Match latencies as (due time ns, latency ms): from the due time of
/// the chunk holding the sample each match was reported at to the
/// arrival of its line.
/// Stream-end flushes (`(stream end)`) are not reported at a sample and
/// are left out. `chunk_first` (ascending) and `chunk_due` describe the
/// chunks sent; `lines` and `arrivals` what came back.
pub fn latencies_ms(
    lines: &[String],
    arrivals: &[u64],
    chunk_first: &[u64],
    chunk_due: &[u64],
) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for (line, &at) in lines.iter().zip(arrivals) {
        if !line.starts_with("match ticks ") || line.ends_with("(stream end)") {
            continue;
        }
        let Some(tick) = line
            .rsplit_once("reported_at ")
            .and_then(|(_, t)| t.trim().parse::<u64>().ok())
        else {
            continue;
        };
        // Ticks are 1-based and the streams have no leading dropouts,
        // so tick t is stream sample t - 1.
        let sample = tick.saturating_sub(1);
        let k = chunk_first.partition_point(|&f| f <= sample);
        if k == 0 {
            continue;
        }
        let due = chunk_due[k - 1];
        out.push((due, at.saturating_sub(due) as f64 / 1e6));
    }
    out
}

impl ConnRun {
    /// This connection's match latencies (see [`latencies_ms`]).
    pub fn latencies_ms(&self) -> Vec<(u64, f64)> {
        latencies_ms(
            &self.lines,
            &self.arrivals,
            &self.chunk_first,
            &self.chunk_due,
        )
    }
}
