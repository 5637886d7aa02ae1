//! Tests of the benchmark's own logic: latency attribution, the
//! percentile rule, failure accounting, and the oracle against a tiny
//! live run of the real serve loop.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use perfbench::client::{self, latencies_ms};
use perfbench::oracle::{self, Expected};
use perfbench::stats::{grouped_percentile, median, min_samples_for, percentile};
use perfbench::workload::{self, Mode, Workload};
use perfbench::{live, server};
use spring_cli::serve::{serve_listener, ServeOptions};
use spring_core::MonitorSpec;
use spring_dtw::Kernel;

/// A few-thousand-sample `fleet`-shaped workload: frames of 64, two
/// extra queries per connection, open loop.
const TINY: Workload = Workload {
    name: "tiny",
    batch: 64,
    default_m: 8,
    extras_per_conn: 2,
    extra_m: 24,
    planted_extras: 1,
    extra_plant_share: 0.3,
    gap: (30, 60),
    phases: &[
        Mode::Open {
            rate_per_conn: 20_000.0,
            chunk: 20,
        },
        Mode::Closed { chunk: 64 },
    ],
    generated: 4_000,
    replay: 1_000,
};

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|l| l.to_string()).collect()
}

#[test]
fn latency_runs_from_the_due_time_of_the_reporting_sample() {
    // Chunks: samples 0..10 due at 1 ms, 10..20 due at 2 ms.
    let first = [0, 10];
    let due = [1_000_000, 2_000_000];
    let lines = s(&[
        "ok attach stream 0 query 1",
        // Tick 10 is sample 9: first chunk.
        "match ticks 3..=7 len 5 distance 0.500000 reported_at 10",
        // Tick 11 is sample 10: second chunk.
        "match ticks 4..=9 len 6 distance 0.250000 reported_at 11",
        // Flushed at stream end: not reported at a sample.
        "match ticks 15..=20 len 6 distance 0.100000 reported_at 20 (stream end)",
        "done 3 match(es) over 20 ticks",
    ]);
    let arrivals = [0, 4_000_000, 5_500_000, 9_000_000, 9_000_000];
    assert_eq!(
        latencies_ms(&lines, &arrivals, &first, &due),
        vec![(1_000_000, 3.0), (2_000_000, 3.5)]
    );
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v[..999], 0.99), None);
    assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&v[..19], 0.5), None);
    assert_eq!(min_samples_for(0.99), 1000);
    assert_eq!(min_samples_for(0.5), 20);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    // Grouped: the median of per-group p99s, so one bad stretch of the
    // run moves one group only.
    let mut runs: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
    runs[1000..2000].iter_mut().for_each(|v| *v += 1000.0);
    assert_eq!(grouped_percentile(&runs, 0.99, 3), Some(98.0));
    assert_eq!(grouped_percentile(&runs[..999], 0.99, 3), None);
}

fn tiny_expected() -> (workload::Inputs, Expected) {
    let inputs = workload::generate(&TINY, 5);
    let exp = oracle::expected(&TINY, &inputs.default_query, &inputs.conns[0], 0, 0, 3_000);
    assert!(exp.match_lines() >= 10, "{exp:?}");
    assert!(!exp.extra_lines.is_empty());
    (inputs, exp)
}

/// The transcript a correct server sends: replies, the default and
/// extra lines interleaved, then `done`.
fn transcript(exp: &Expected) -> Vec<String> {
    let mut lines = exp.acks.clone();
    let mut extras = exp.extra_lines.iter();
    for l in &exp.default_lines {
        lines.push(l.clone());
        lines.extend(extras.next().cloned());
    }
    lines.extend(extras.cloned());
    lines.push(exp.done.clone());
    lines
}

fn tally(exp: &Expected, lines: &[String]) -> oracle::Tally {
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    oracle::compare(exp, &refs)
}

#[test]
fn one_bad_line_counts_as_one_failure() {
    let (_, exp) = tiny_expected();
    let good = transcript(&exp);
    let ok = tally(&exp, &good);
    assert_eq!(ok.failed, 0);
    assert_eq!(
        ok.attempted as usize,
        exp.match_lines() + exp.acks.len() + 1
    );
    assert_eq!(ok.failed_frac(), 0.0);

    // A wrong match line.
    let mut bad = good.clone();
    let i = bad.iter().position(|l| l.starts_with("match")).unwrap();
    bad[i] = bad[i].replace("distance", "distance 9");
    let t = tally(&exp, &bad);
    assert_eq!(t.failed, 1);
    assert_eq!(t.failed_frac(), 1.0 / ok.attempted as f64);

    // An `error:` line, a lost reply, a missing `done`, a dropped line,
    // a default line out of order: one failure each.
    let mut bad = good.clone();
    bad.insert(3, "error: `x` is not a number".into());
    assert_eq!(tally(&exp, &bad).failed, 1);
    let mut bad = good.clone();
    bad.remove(0);
    assert_eq!(tally(&exp, &bad).failed, 1);
    let mut bad = good.clone();
    bad.pop();
    assert_eq!(tally(&exp, &bad).failed, 1);
    let mut bad = good.clone();
    let last_match = bad.iter().rposition(|l| l.starts_with("match")).unwrap();
    bad.remove(last_match);
    assert_eq!(tally(&exp, &bad).failed, 1);
    let mut bad = good;
    let a = bad.iter().position(|l| l.starts_with("match")).unwrap();
    let b = bad
        .iter()
        .rposition(|l| exp.default_lines.contains(l))
        .unwrap();
    bad.swap(a, b);
    assert!(tally(&exp, &bad).failed >= 1);
}

#[test]
fn oracle_agrees_with_a_tiny_live_run() {
    let inputs = workload::generate(&TINY, 9);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        query: inputs.default_query.clone(),
        spec: MonitorSpec::Spring {
            epsilon: Workload::epsilon(TINY.default_m),
        },
        kernel: Kernel::Squared,
        once: false,
        batch: TINY.batch,
        shards: workload::SHARDS,
        linger: None,
        max_conns: 16,
        // Two data connections and the scrape.
        accept_limit: Some(3),
        trace_dir: None,
    };
    let srv = std::thread::spawn(move || serve_listener(listener, opts, &mut Vec::new()));
    let epoch = Instant::now();
    let mut conns = client::connect(addr, &TINY, &inputs, epoch, 0, 0).unwrap();
    let times = client::stream(
        &mut conns,
        TINY.phases[0],
        &inputs,
        0.2,
        epoch,
        2,
        &mut || [0.0; 3],
    )
    .unwrap();
    assert!(times.completed);
    let mut scrape = String::new();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(server::SCRAPE_REQUEST).unwrap();
    s.read_to_string(&mut scrape).unwrap();
    srv.join().unwrap().unwrap();

    let counters = live::counters(&scrape).unwrap();
    let refs: Vec<_> = conns.iter().collect();
    let t = live::check(&TINY, &inputs, &refs, &counters);
    assert_eq!(t.failed, 0, "{t:?}\n{scrape}");
    assert!(t.attempted > 20);
    // About 0.2 s at 20k samples/s per connection.
    assert!(counters.ticks_total > 7_000.0, "{counters:?}");
    assert!(conns.iter().all(|c| !c.latencies_ms().is_empty()));
}
