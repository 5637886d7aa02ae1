//! One live run against the `spring serve` binary: repeated set-up,
//! streaming, `/proc` readings, the `/metrics` scrape, and the oracle
//! check of everything that came back.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::client::{self, ConnRun, StreamTimes};
use crate::oracle::{self, Tally};
use crate::server::{self, Server};
use crate::workload::{Inputs, Mode, Workload, SHARDS};

/// One phase of a live run: its connections and timing.
#[derive(Debug)]
pub struct PhaseRun {
    /// Pacing of the phase.
    pub mode: Mode,
    /// The phase's data connections.
    pub conns: Vec<ConnRun>,
    /// Streaming timing and window readings (probe = server CPU s, host
    /// steal ticks, host total ticks).
    pub times: StreamTimes,
}

/// One window of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Samples sent per second.
    pub rate: f64,
    /// Server CPU µs per sample sent.
    pub cpu_us: f64,
    /// Share of the host's CPU time the hypervisor stole.
    pub steal: f64,
}

impl PhaseRun {
    /// The phase's windows, in order.
    pub fn windows(&self) -> Vec<Window> {
        self.times
            .marks
            .windows(2)
            .map(|m| {
                let d = |i: usize| m[1].probe[i] - m[0].probe[i];
                let samples = (m[1].sent - m[0].sent) as f64;
                Window {
                    rate: samples / ((m[1].t - m[0].t) as f64 / 1e9),
                    cpu_us: d(0) * 1e6 / samples,
                    steal: d(1) / d(2).max(1.0),
                }
            })
            .collect()
    }
}

/// What a live run measured.
#[derive(Debug)]
pub struct Live {
    /// Seconds from spawning the server until every connection was up
    /// and every set-up verb acked, once per set-up.
    pub setup_s: Vec<f64>,
    /// The phases, in order.
    pub phases: Vec<PhaseRun>,
    /// Server `VmHWM` after streaming, MiB.
    pub peak_rss_mb: f64,
    /// `GET /metrics` after the data connections closed.
    pub scrape: String,
    /// Share of the host's CPU time the hypervisor stole while the
    /// phases streamed (`steal` in `/proc/stat`).
    pub steal_frac: f64,
}

impl Live {
    /// Every data connection of every phase.
    pub fn conns(&self) -> impl Iterator<Item = &ConnRun> {
        self.phases.iter().flat_map(|p| p.conns.iter())
    }
}

/// The `serve` flags of `w` (the listening port is added on spawn).
pub fn server_args(w: &Workload, query_file: &Path) -> Vec<String> {
    vec![
        "--query".into(),
        query_file.display().to_string(),
        "--epsilon".into(),
        Workload::epsilon(w.default_m).to_string(),
        "--shards".into(),
        SHARDS.to_string(),
        "--batch".into(),
        w.batch.to_string(),
    ]
}

/// Offset between the extra-query ids of consecutive phases.
const PHASE_QUERY_IDS: u32 = 1000;

/// Sets the server up `setups` times (keeping the last), then runs each
/// of the workload's phases for an equal share of `seconds`, each on
/// fresh connections, reading server CPU at `windows` window boundaries.
pub fn run(
    bin: &Path,
    w: &Workload,
    inputs: &Inputs,
    query_file: &Path,
    seconds: f64,
    setups: usize,
    windows: usize,
) -> io::Result<Live> {
    let args = server_args(w, query_file);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..setups.max(1) {
        let epoch = Instant::now();
        let srv = Server::spawn(bin, &args)?;
        let conns = client::connect(srv.addr, w, inputs, epoch, 0, 0)?;
        setup_s.push(epoch.elapsed().as_secs_f64());
        if i + 1 == setups.max(1) {
            kept = Some((srv, conns, epoch));
        }
        // Earlier set-ups: connections close, the server is killed.
    }
    let (srv, mut conns, epoch) = kept.expect("at least one set-up");
    let share = seconds / w.phases.len() as f64;
    let cpu0 = host_cpu_times()?;
    let mut phases = Vec::new();
    for (p, &mode) in w.phases.iter().enumerate() {
        if p > 0 {
            let first = (p * inputs.conns.len()) as u32;
            conns = client::connect(
                srv.addr,
                w,
                inputs,
                epoch,
                first,
                p as u32 * PHASE_QUERY_IDS,
            )?;
        }
        let mut probe_error = None;
        let mut probe = || match (srv.cpu_s(), host_cpu_times()) {
            (Ok(cpu), Ok(host)) => [
                cpu,
                host.get(7).copied().unwrap_or(0) as f64,
                host.iter().sum::<u64>() as f64,
            ],
            (Err(e), _) | (_, Err(e)) => {
                probe_error.get_or_insert(e);
                [f64::NAN; 3]
            }
        };
        let times = client::stream(&mut conns, mode, inputs, share, epoch, windows, &mut probe)?;
        if let Some(e) = probe_error {
            return Err(e);
        }
        phases.push(PhaseRun {
            mode,
            conns: std::mem::take(&mut conns),
            times,
        });
    }
    let cpu1 = host_cpu_times()?;
    let delta: Vec<u64> = cpu1.iter().zip(&cpu0).map(|(b, a)| b - a).collect();
    let peak_rss_mb = srv.peak_rss_mb()?;
    let scrape = srv.scrape()?;
    drop(srv);
    Ok(Live {
        setup_s,
        phases,
        peak_rss_mb,
        scrape,
        steal_frac: delta.get(7).copied().unwrap_or(0) as f64
            / delta.iter().sum::<u64>().max(1) as f64,
    })
}

/// The host-wide CPU time counters of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal, …), in clock ticks.
fn host_cpu_times() -> io::Result<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line in /proc/stat"))?;
    Ok(line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect())
}

/// Exact counts scraped from `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Samples the shards processed (Σ `spring_shard_ticks_total`).
    pub ticks_total: f64,
    /// Bytes read from clients (`spring_conn_read_bytes_total`).
    pub read_bytes: f64,
    /// Matches confirmed (`spring_matches_total`).
    pub matches_total: f64,
    /// Connections dropped (`spring_conn_dropped_total`).
    pub dropped_conns: f64,
    /// Protocol errors (`spring_conn_parse_errors_total`).
    pub parse_errors: f64,
    /// Worker restarts (`spring_worker_restarts_total`).
    pub worker_restarts: f64,
    /// Workers lost (`spring_worker_lost_total`).
    pub worker_lost: f64,
}

/// Reads the [`Counters`] out of a scrape; a missing family is an error.
pub fn counters(scrape: &str) -> io::Result<Counters> {
    let get = |family: &str| {
        server::prom_sum(scrape, family)
            .ok_or_else(|| io::Error::other(format!("scrape lacks {family}")))
    };
    Ok(Counters {
        ticks_total: get("spring_shard_ticks_total")?,
        read_bytes: get("spring_conn_read_bytes_total")?,
        matches_total: get("spring_matches_total")?,
        dropped_conns: get("spring_conn_dropped_total")?,
        parse_errors: get("spring_conn_parse_errors_total")?,
        worker_restarts: get("spring_worker_restarts_total")?,
        worker_lost: get("spring_worker_lost_total")?,
    })
}

/// Compares every transcript with the oracle (two connections at a
/// time, one thread each) and cross-checks the scraped counters: ticks and matches
/// equal the oracle's, bytes read equal bytes sent, and drops, parse
/// errors, restarts and lost workers are zero. Each check is attempted
/// once and fails once per unit off.
pub fn check(w: &Workload, inputs: &Inputs, conns: &[&ConnRun], c: &Counters) -> Tally {
    let mut expected: Vec<oracle::Expected> = Vec::new();
    for pair in conns.chunks(2) {
        std::thread::scope(|s| {
            let handles: Vec<_> = pair
                .iter()
                .map(|conn| {
                    let input = &inputs.conns[conn.stream as usize % inputs.conns.len()];
                    s.spawn(move || {
                        oracle::expected(
                            w,
                            &inputs.default_query,
                            input,
                            conn.stream,
                            conn.query_base,
                            conn.sent,
                        )
                    })
                })
                .collect();
            for h in handles {
                expected.push(h.join().expect("oracle thread"));
            }
        });
    }
    let mut tally = Tally::default();
    for (exp, conn) in expected.iter().zip(conns) {
        let lines: Vec<&str> = conn.lines.iter().map(String::as_str).collect();
        tally = tally + oracle::compare(exp, &lines);
    }
    let ticks: u64 = expected.iter().map(|e| e.ticks).sum();
    let matches: usize = expected.iter().map(|e| e.match_lines()).sum();
    let bytes: u64 =
        conns.iter().map(|c| c.bytes_sent).sum::<u64>() + server::SCRAPE_REQUEST.len() as u64;
    let off = |got: f64, want: f64| u64::from(got != want);
    let failed = off(c.ticks_total, ticks as f64)
        + off(c.matches_total, matches as f64)
        + off(c.read_bytes, bytes as f64)
        + c.dropped_conns as u64
        + c.parse_errors as u64
        + c.worker_restarts as u64
        + c.worker_lost as u64;
    tally
        + Tally {
            attempted: 7,
            failed,
        }
}
