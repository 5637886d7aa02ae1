//! Expected transcripts, computed in-process from the generated inputs
//! with the same building blocks the server uses (`MonitorSpec::build`,
//! `proto::CarryForward`, `proto::format_match`), and the failure
//! accounting that compares them with what came back.

use std::collections::BTreeMap;

use spring_cli::proto::{format_match, CarryForward};
use spring_core::{Match, Monitor, MonitorSpec, ScalarMonitor};
use spring_dtw::Kernel;

use crate::workload::{ConnInputs, Workload};

/// What one connection should receive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    /// `ok …` replies to the set-up verbs.
    pub acks: Vec<String>,
    /// Match lines of the default attachment, in order.
    pub default_lines: Vec<String>,
    /// Match lines of the extra attachments (compared as a multiset:
    /// they interleave with the default's).
    pub extra_lines: Vec<String>,
    /// The closing `done …` line.
    pub done: String,
    /// Ticks the server counts (samples after carry-forward).
    pub ticks: u64,
}

impl Expected {
    /// Match lines of every attachment.
    pub fn match_lines(&self) -> usize {
        self.default_lines.len() + self.extra_lines.len()
    }
}

/// One monitor of the oracle and the lines it has produced.
struct Tracked {
    monitor: ScalarMonitor,
    found: Vec<Match>,
}

impl Tracked {
    fn new(query: &[f64]) -> Tracked {
        let epsilon = Workload::epsilon(query.len());
        Tracked {
            monitor: MonitorSpec::Spring { epsilon }
                .build(query, Kernel::Squared)
                .expect("generated queries are valid"),
            found: Vec::new(),
        }
    }

    fn step(&mut self, values: &[f64]) {
        self.monitor
            .step_batch(values, &mut self.found)
            .expect("carry-forward leaves only finite samples");
    }

    /// Every line, the stream-end flush included.
    fn lines(mut self) -> Vec<String> {
        let mut lines: Vec<String> = self.found.iter().map(|m| format_match(m, false)).collect();
        if let Some(m) = self.monitor.finish() {
            lines.push(format_match(&m, true));
        }
        lines
    }
}

/// The transcript connection `conn` (stream id `stream`, extra query
/// ids offset by `query_base`) should get after sending its first
/// `sent` stream samples.
///
/// Extra attachments mirror attach-time semantics: `attach` lands
/// behind whatever the server has already framed for the stream, so an
/// extra sees the stream from the last full frame boundary at or before
/// the pre-streaming samples, with its own tick count starting there.
pub fn expected(
    w: &Workload,
    default_query: &[f64],
    conn: &ConnInputs,
    stream: u32,
    query_base: u32,
    sent: u64,
) -> Expected {
    let pre = w.pre_samples() as u64;
    let attached = pre / w.batch as u64 * w.batch as u64;
    let mut default = Tracked::new(default_query);
    let mut extras: Vec<Tracked> = conn
        .extras
        .iter()
        .map(|e| Tracked::new(&e.values))
        .collect();
    let mut carry = CarryForward::default();
    let mut ticks = 0u64;
    let mut buf = Vec::with_capacity(4096);
    // Samples `[a, b)` go to the default query and, from `attached`
    // on, to the extras.
    let mut a = 0;
    while a < sent {
        let b = if a < attached {
            attached.min(sent)
        } else {
            (a + 4096).min(sent)
        };
        buf.clear();
        buf.extend((a..b).filter_map(|i| carry.resolve(conn.sample(i))));
        ticks += buf.len() as u64;
        default.step(&buf);
        if a >= attached {
            extras.iter_mut().for_each(|e| e.step(&buf));
        }
        a = b;
    }
    let mut acks = Vec::new();
    for e in &conn.extras {
        let id = query_base + e.id;
        acks.push(format!("ok query {id} added (m={})", e.values.len()));
    }
    for e in &conn.extras {
        let id = query_base + e.id;
        acks.push(format!("ok attach stream {stream} query {id}"));
    }
    let default_lines = default.lines();
    let extra_lines: Vec<String> = extras.into_iter().flat_map(Tracked::lines).collect();
    let n = default_lines.len() + extra_lines.len();
    Expected {
        acks,
        done: format!("done {n} match(es) over {ticks} ticks"),
        ticks,
        default_lines,
        extra_lines,
    }
}

/// The `attach` verb connection `stream` sends for an extra query.
pub fn attach_line(stream: u32, id: u32, m: usize) -> String {
    format!("attach {stream} {id} {}", Workload::epsilon(m))
}

/// Outcome of comparing one connection's transcript with its oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Expected match lines, the connection itself, and each set-up verb.
    pub attempted: u64,
    /// Missing, wrong or extra lines, `error:` lines, a missing or wrong
    /// `done` line, and unacked verbs.
    pub failed: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;

    fn add(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

impl Tally {
    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Lines wrong against a multiset of expected ones: a missing line, an
/// unexpected one, or one in place of another each count once.
fn wrong_lines(expected: &[String], actual: &[&str]) -> u64 {
    let mut bag: BTreeMap<&str, i64> = BTreeMap::new();
    for l in expected {
        *bag.entry(l.as_str()).or_default() += 1;
    }
    for l in actual {
        *bag.entry(l).or_default() -= 1;
    }
    let missing: i64 = bag.values().filter(|&&c| c > 0).sum();
    let extra: i64 = -bag.values().filter(|&&c| c < 0).sum::<i64>();
    missing.max(extra) as u64
}

/// Compares every line a connection received (set-up replies first)
/// with its oracle.
pub fn compare(exp: &Expected, lines: &[&str]) -> Tally {
    let mut failed = 0u64;
    let mut acks = Vec::new();
    let mut matches = Vec::new();
    let mut dones = Vec::new();
    for &l in lines {
        if l.starts_with("ok ") {
            acks.push(l);
        } else if l.starts_with("match ticks ") {
            matches.push(l);
        } else if l.starts_with("done ") {
            dones.push(l);
        } else {
            // `error: …` lines and anything unrecognised.
            failed += 1;
        }
    }
    // Verbs: each must get its reply.
    failed += wrong_lines(&exp.acks, &acks);
    // Matches: the union must agree as a multiset…
    let all: Vec<String> = exp
        .default_lines
        .iter()
        .chain(&exp.extra_lines)
        .cloned()
        .collect();
    let diff = wrong_lines(&all, &matches);
    failed += diff;
    if diff == 0 {
        // …and the default attachment's lines must come in order.
        let mut want = exp.default_lines.iter().peekable();
        for &l in &matches {
            if want.peek().is_some_and(|w| w.as_str() == l) {
                want.next();
            }
        }
        failed += want.count() as u64;
    }
    // Exactly one `done` line, last, with the right counts.
    match dones.as_slice() {
        [d] if *d == exp.done && lines.last() == Some(d) => {}
        [] => failed += 1,
        more => failed += more.len() as u64,
    }
    Tally {
        attempted: (exp.match_lines() + exp.acks.len() + 1) as u64,
        failed,
    }
}
