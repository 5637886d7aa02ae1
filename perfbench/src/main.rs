//! `perfbench --workload <ingest|fleet|alerts> --seed N --seconds S --trace <0|1>`
//!
//! With `--trace 0`, measures `spring serve` end to end; with
//! `--trace 1`, runs a shorter live run for the server's CPU and
//! counters, then the traced in-process replay that splits that CPU
//! per layer. Either way every transcript is checked against the
//! oracle, human-readable lines go first, and the last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `run.sh` builds the server and this binary and passes `--server`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::layers::{self, Recorder};
use perfbench::stats::{grouped_percentile, median, min_samples_for, percentile};
use perfbench::workload::{self, Mode, Workload};
use perfbench::{live, server};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Share of `--seconds` the traced run streams live; the replay takes
/// about the rest.
const TRACE_LIVE_SHARE: f64 = 0.4;
/// Windows each phase's sending time is cut into. Rates and CPU per
/// sample are medians over the windows after the first (which fills
/// the server's queues), percentiles medians over up to this many groups
/// of consecutive samples: a host stall that hits one stretch of a run
/// moves one window's figure, not the result.
const WINDOWS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    default_seed: Option<u64>,
    held_out_seed: Option<u64>,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let num = |flag: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|v| {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not an integer"))
        })
        .transpose()
    };
    let default_seed = num("--default-seed", get("--default-seed"))?;
    let seed = num("--seed", get("--seed"))?
        .or(default_seed)
        .ok_or("--seed is required")?;
    let seconds = num("--seconds", get("--seconds"))?.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: `{v}` is not 0 or 1")),
    };
    Ok(Args {
        workload: get("--workload").ok_or("--workload is required")?,
        seed,
        seconds: seconds as f64,
        trace,
        default_seed,
        held_out_seed: num("--held-out-seed", get("--held-out-seed"))?,
        server: get("--server").ok_or("--server is required")?.into(),
        out: get("--out")
            .unwrap_or_else(|| "perfbench-out".into())
            .into(),
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Host and build identity, stamped into every result.
fn stamp(a: &Args, features: &str) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let seed_role = if Some(a.seed) == a.held_out_seed {
        "held-out"
    } else if Some(a.seed) == a.default_seed {
        "default"
    } else {
        "other"
    };
    vec![
        ("workload", a.workload.clone()),
        ("seed", a.seed.to_string()),
        ("seed_role", seed_role.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("commit", env("PERFBENCH_COMMIT")),
        ("build", env("PERFBENCH_BUILD")),
        ("features", features.to_string()),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    let w: &Workload = workload::by_name(&a.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected ingest, fleet or alerts)",
            a.workload
        )
    })?;
    if !a.server.is_file() {
        return Err(format!("server binary {} not found", a.server.display()));
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let inputs = workload::generate(w, a.seed);
    let query_file = a.out.join(format!("query-{}.csv", w.name));
    let query: String = inputs
        .default_query
        .iter()
        .map(|v| format!("{v:.3}\n"))
        .collect();
    std::fs::write(&query_file, query).map_err(|e| format!("{}: {e}", query_file.display()))?;

    let (seconds, setups) = if a.trace {
        (a.seconds * TRACE_LIVE_SHARE, 1)
    } else {
        (a.seconds, SETUPS)
    };
    let run = live::run(&a.server, w, &inputs, &query_file, seconds, setups, WINDOWS)
        .map_err(|e| format!("live run: {e}"))?;
    let features = server::build_features(&run.scrape).unwrap_or_default();
    let want = std::env::var("PERFBENCH_FEATURES").unwrap_or_default();
    if features != want {
        return Err(format!(
            "server reports features `{features}`, the pinned build gives `{want}`"
        ));
    }
    let counters = live::counters(&run.scrape).map_err(|e| e.to_string())?;
    let conns: Vec<_> = run.conns().collect();
    let tally = live::check(w, &inputs, &conns, &counters);

    // Rate from the first phase, CPU from the closed loop, latency and
    // generator lag from the open loop; window 1 fills the queues.
    let is_closed = |p: &live::PhaseRun| matches!(p.mode, Mode::Closed { .. });
    let phase = |closed: bool| {
        run.phases
            .iter()
            .find(|p| is_closed(p) == closed)
            .expect("every workload has a closed and an open phase")
    };
    let steady = |p: &live::PhaseRun| p.windows().get(1..).unwrap_or_default().to_vec();
    // A closed loop runs as fast as the CPU the guest gets: its rate is
    // taken per unit of CPU time the hypervisor left the host, or it
    // would swing with other tenants' load. An open loop's rate is the
    // offered one and needs no such step.
    let first = &run.phases[0];
    let rates: Vec<f64> = steady(first)
        .iter()
        .map(|w| {
            if is_closed(first) {
                w.rate / (1.0 - w.steal)
            } else {
                w.rate
            }
        })
        .collect();
    let cpus: Vec<f64> = steady(phase(true)).iter().map(|w| w.cpu_us).collect();
    let last = phase(false);
    let in_time_order = |mut v: Vec<(u64, f64)>| -> Vec<f64> {
        v.sort_by_key(|p| p.0);
        v.into_iter().map(|p| p.1).collect()
    };
    let lat = in_time_order(last.conns.iter().flat_map(|c| c.latencies_ms()).collect());
    let lag = in_time_order(
        last.conns
            .iter()
            .flat_map(|c| c.lag.iter().map(|&(due, ns)| (due, ns as f64 / 1e6)))
            .collect(),
    );
    let need = |what: &str, q: f64, v: &[f64]| {
        grouped_percentile(v, q, WINDOWS).ok_or_else(|| {
            format!(
                "{what}: {} samples cannot support p{} (needs {})",
                v.len(),
                q * 100.0,
                min_samples_for(q)
            )
        })
    };
    let cpu_us = median(&cpus).unwrap_or(f64::NAN);
    let e2e = vec![
        metric("setup_s", median(&run.setup_s).unwrap_or(f64::NAN), "s"),
        metric("samples_per_s", median(&rates).unwrap_or(f64::NAN), "1/s"),
        metric("server_cpu_us_per_sample", cpu_us, "us"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
    ];
    // Latency figures: printed on every run, bounded by none. On a shared
    // host they track the hypervisor's scheduling more than the server.
    let latency = vec![
        metric("match_latency_p50_ms", need("latency", 0.5, &lat)?, "ms"),
        metric("match_latency_p99_ms", need("latency", 0.99, &lat)?, "ms"),
        metric("gen_lag_p99_ms", need("generator lag", 0.99, &lag)?, "ms"),
    ];
    let stamp = stamp(&a, &features);
    let mut out = String::new();
    for (k, v) in &stamp {
        let _ = writeln!(out, "# {k}: {v}");
    }
    let _ = writeln!(
        out,
        "# host: {:.2}% of CPU time stolen by the hypervisor while streaming",
        run.steal_frac * 100.0
    );
    for (i, p) in run.phases.iter().enumerate() {
        let sent: u64 = p.conns.iter().map(|c| c.sent).sum();
        let wall = (p.times.last_done - p.times.first_byte) as f64 / 1e9;
        let per_window: Vec<String> = p
            .windows()
            .iter()
            .map(|w| {
                format!(
                    "{:.0}/s {:.3}us steal {:.1}%",
                    w.rate,
                    w.cpu_us,
                    w.steal * 100.0
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "# phase {i} {:?}: {sent} samples, first byte to last done {wall:.3} s, \
             completed {}; windows: {}",
            p.mode,
            p.times.completed,
            per_window.join(", ")
        );
    }
    for (what, v) in [("match latency", &lat), ("generator lag", &lag)] {
        let q = |p: f64| percentile(v, p).map_or("-".to_string(), |x| format!("{x:.3}"));
        let _ = writeln!(
            out,
            "# {what} ms (n={}): p50 {} p90 {} p99 {} p99.9 {} max {:.3}",
            v.len(),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            v.iter().copied().fold(0.0, f64::max),
        );
    }
    let _ = writeln!(
        out,
        "# oracle: {} attempted, {} failed (failed_frac {})",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );
    let metrics = if a.trace {
        for m in &e2e {
            let _ = writeln!(out, "# live {} = {} {}", m.name, m.value, m.unit);
        }
        let mut metrics = latency;
        let mut rec = Recorder::new();
        let r = layers::run(w, &inputs, &mut rec);
        let spans = a.out.join(format!("spans-{}.csv", w.name));
        rec.write_csv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let _ = writeln!(
            out,
            "# spans: {} written to {}",
            rec.spans().len(),
            spans.display()
        );
        let serve_ns = cpu_us * 1e3;
        metrics.extend([
            metric("proto.parse_ns", r.proto_parse_ns, "ns"),
            metric("proto.wire_bytes", r.proto_wire_bytes, "bytes"),
            metric("sharded.push_ns", r.sharded_push_ns, "ns"),
            metric("sharded.drain_ns", r.sharded_drain_ns, "ns"),
            metric("sharded.cpu_ns", r.sharded_cpu_ns, "ns"),
            metric("engine.push_ns", r.engine_push_ns, "ns"),
            metric("engine.events", r.engine_events, "count"),
            metric("kernel.step_ns", r.kernel_step_ns, "ns"),
            metric("kernel.batch_step_ns", r.kernel_batch_step_ns, "ns"),
            metric("kernel.cells_per_s", r.kernel_cells_per_s, "cells/s"),
            metric(
                "kernel.server_cpu_share",
                r.kernel_step_ns / serve_ns,
                "fraction",
            ),
            metric("metrics.overhead_frac", r.metrics_overhead_frac, "fraction"),
            metric("engine.self_ns", r.engine_push_ns - r.kernel_step_ns, "ns"),
            metric("runner.self_ns", r.sharded_cpu_ns - r.engine_push_ns, "ns"),
            metric("serve.cpu_ns", serve_ns, "ns"),
            metric(
                "serve.self_ns",
                serve_ns - r.proto_parse_ns - r.sharded_cpu_ns,
                "ns",
            ),
            metric("serve.ticks_total", counters.ticks_total, "count"),
            metric("serve.read_bytes", counters.read_bytes, "bytes"),
            metric("serve.matches_total", counters.matches_total, "count"),
            metric("serve.dropped_conns", counters.dropped_conns, "count"),
            metric("serve.parse_errors", counters.parse_errors, "count"),
            metric("serve.worker_restarts", counters.worker_restarts, "count"),
            metric(
                "bench.trace_overhead_frac",
                r.trace_overhead_frac,
                "fraction",
            ),
            metric("failed_frac", tally.failed_frac(), "fraction"),
        ]);
        metrics
    } else {
        for m in &latency {
            let _ = writeln!(out, "# {} = {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "# failed_frac = {} fraction", tally.failed_frac());
        e2e
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", m.name, m.value));
    }
    for m in &metrics {
        let _ = writeln!(out, "{} = {} {}", m.name, m.value, m.unit);
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    let stamp_json: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = a.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name,
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(
        &record,
        format!(
            "{{\"stamp\": {{{}}}, \"result\": {result}}}\n",
            stamp_json.join(", ")
        ),
    )
    .map_err(|e| format!("{}: {e}", record.display()))?;
    print!("{out}");
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
