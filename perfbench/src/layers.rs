//! The traced run: replays a workload's generated inputs in-process
//! through each layer's public entry point, recording spans (name,
//! start, end, parent) around those calls in memory.
//!
//! The replay mirrors what `spring serve` does with the same bytes:
//! `proto` parses the exact wire bytes in 4 KiB reads, `sharded`
//! receives one `push` per sample as the serve loop issues them,
//! `engine` runs the workload's attachments at its frame size with a
//! `Metrics` registry, and `kernel` steps the same monitors directly.
//! Each layer runs in alternating traced/untraced passes, so the cost
//! of the spans themselves is measured too.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spring_cli::proto::{CarryForward, ProtoEvent, ProtoParser};
use spring_core::{Match, Monitor, MonitorSpec, ScalarMonitor};
use spring_dtw::Kernel;
use spring_monitor::{
    CountingSink, Event, GapPolicy, MatchSink, Metrics, MixedEngine, QueryId, RestartPolicy,
    RunnerAttachment, ShardedRunner, StreamId,
};

use crate::stats::median;
use crate::sys::{process_cpu_ns, thread_cpu_ns};
use crate::workload::{Inputs, Workload, SHARDS};

/// Bytes per parser feed, as the serve loop reads them.
const READ_CHUNK: usize = 4096;
/// Samples pushed per `sharded.push` span.
const PUSH_RUN: usize = 512;
/// Rounds of the replay; each runs every layer once traced, once not.
pub const PASSES: usize = 5;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`engine.push_batch`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, `None` at the root.
    pub parent: Option<u32>,
}

/// In-memory span recorder. When off, `begin` returns `None` and
/// nothing is stored.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start time for a span, or `None` while recording is off.
    #[inline]
    pub fn begin(&self) -> Option<u64> {
        self.on.then(|| self.now())
    }

    /// Records a span begun at `start` (no-op when `start` is `None`).
    #[inline]
    pub fn end(&mut self, name: &'static str, start: Option<u64>, parent: Option<u32>) {
        if let Some(start) = start {
            let end = self.now();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
            });
        }
    }

    /// Opens a parent span whose end is filled in by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        let start = self.begin()?;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    /// Total duration of the children of `parent` named `name`, ns.
    pub fn child_ns(&self, parent: Option<u32>, name: &str) -> u64 {
        let Some(p) = parent else { return 0 };
        self.spans[p as usize..]
            .iter()
            .filter(|s| s.parent == Some(p) && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV: `id,name,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{i},{},{},{},{parent}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// One connection's replay input: the wire bytes of its first samples,
/// the values the server monitors after carry-forward, and its queries.
#[derive(Debug, Clone)]
struct Replay {
    wire: Vec<u8>,
    values: Vec<f64>,
    queries: Vec<(u32, Vec<f64>)>,
}

fn replays(w: &Workload, inputs: &Inputs) -> Vec<Replay> {
    inputs
        .conns
        .iter()
        .map(|c| {
            let n = w.replay.min(c.samples.len());
            let mut carry = CarryForward::default();
            let values = c.samples[..n]
                .iter()
                .filter_map(|&v| carry.resolve(v))
                .collect();
            let mut queries = vec![(0, inputs.default_query.clone())];
            queries.extend(c.extras.iter().map(|e| (e.id, e.values.clone())));
            Replay {
                wire: c.bytes(0, n).to_vec(),
                values,
                queries,
            }
        })
        .collect()
}

fn build(q: &[f64]) -> ScalarMonitor {
    MonitorSpec::Spring {
        epsilon: Workload::epsilon(q.len()),
    }
    .build(q, Kernel::Squared)
    .expect("generated queries are valid")
}

/// Per-layer results of the traced run (per-sample times in ns).
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// `ProtoParser::feed` + `CarryForward::resolve`, ns/sample.
    pub proto_parse_ns: f64,
    /// Wire bytes per sample.
    pub proto_wire_bytes: f64,
    /// Inside `ShardedRunner::push`, ns/sample.
    pub sharded_push_ns: f64,
    /// First push to last `sync` return, wall ns/sample.
    pub sharded_drain_ns: f64,
    /// Process CPU over the same interval, ns/sample.
    pub sharded_cpu_ns: f64,
    /// `Engine::push_batch` with a registry, ns/sample.
    pub engine_push_ns: f64,
    /// Events one engine pass emits.
    pub engine_events: f64,
    /// `Monitor::step` over the same monitors, ns/sample.
    pub kernel_step_ns: f64,
    /// `Monitor::step_batch` over the same monitors and frames, ns/sample.
    pub kernel_batch_step_ns: f64,
    /// DP cells per second under `Monitor::step`.
    pub kernel_cells_per_s: f64,
    /// Engine time with the registry over without, minus one.
    pub metrics_overhead_frac: f64,
    /// Traced pass time over untraced pass time, minus one.
    pub trace_overhead_frac: f64,
}

/// Wall time of traced and untraced passes, for the tracing overhead.
#[derive(Debug, Default)]
struct PassClock {
    traced_ns: u64,
    untraced_ns: u64,
}

/// Runs every layer over `w`'s replay inputs, in [`PASSES`] rounds that
/// visit every layer once each, so a slow stretch of the host hits all
/// layers alike rather than one.
pub fn run(w: &Workload, inputs: &Inputs, rec: &mut Recorder) -> LayerReport {
    let reps = replays(w, inputs);
    let samples: usize = reps.iter().map(|r| r.values.len()).sum();
    let per = |ns: u64| ns as f64 / samples as f64;
    let mut clock = PassClock::default();
    let root = rec.open("replay", None);
    let (mut proto, mut kernel, mut batch, mut engine, mut ratio) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut push, mut drain, mut cpu) = (vec![], vec![], vec![]);
    let mut events = 0;
    for _ in 0..PASSES {
        proto.push(alternate_once(
            rec,
            &mut clock,
            "proto",
            root,
            true,
            |rec, s| per(proto_pass(&reps, rec, s)),
        ));
        kernel.push(alternate_once(
            rec,
            &mut clock,
            "kernel",
            root,
            true,
            |rec, s| per(kernel_pass(w, &reps, rec, s, false)),
        ));
        batch.push(alternate_once(
            rec,
            &mut clock,
            "kernel_batch",
            root,
            true,
            |rec, s| per(kernel_pass(w, &reps, rec, s, true)),
        ));
        let with = alternate_once(rec, &mut clock, "engine", root, true, |rec, s| {
            per(engine_pass(w, &reps, rec, s, true, &mut events))
        });
        let without = alternate_once(
            rec,
            &mut clock,
            "engine_no_metrics",
            root,
            true,
            |rec, s| per(engine_pass(w, &reps, rec, s, false, &mut events)),
        );
        engine.push(with);
        ratio.push(with / without - 1.0);
        push.push(alternate_once(
            rec,
            &mut clock,
            "sharded",
            root,
            false,
            |rec, s| {
                let (d, c, p) = sharded_pass(w, &reps, rec, s);
                if rec.on {
                    drain.push(per(d));
                    cpu.push(per(c));
                }
                per(p)
            },
        ));
    }
    rec.close(root);
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let cells: usize = reps
        .iter()
        .map(|rp| rp.values.len() * rp.queries.iter().map(|(_, q)| q.len()).sum::<usize>())
        .sum();
    LayerReport {
        proto_parse_ns: med(&proto),
        proto_wire_bytes: reps.iter().map(|r| r.wire.len()).sum::<usize>() as f64 / samples as f64,
        sharded_push_ns: med(&push),
        sharded_drain_ns: med(&drain),
        sharded_cpu_ns: med(&cpu),
        engine_push_ns: med(&engine),
        engine_events: events as f64,
        kernel_step_ns: med(&kernel),
        kernel_batch_step_ns: med(&batch),
        kernel_cells_per_s: cells as f64 / (med(&kernel) * samples as f64) * 1e9,
        metrics_overhead_frac: med(&ratio),
        trace_overhead_frac: clock.traced_ns as f64 / clock.untraced_ns.max(1) as f64 - 1.0,
    }
}

/// `proto`: the exact wire bytes, 4 KiB per feed, then carry-forward.
/// Returns ns inside the feed spans.
fn proto_pass(reps: &[Replay], rec: &mut Recorder, span: Option<u32>) -> u64 {
    let mut events = VecDeque::new();
    for rp in reps {
        let mut parser = ProtoParser::new();
        let mut carry = CarryForward::default();
        for chunk in rp.wire.chunks(READ_CHUNK) {
            let t = rec.begin();
            parser.feed(chunk, &mut events);
            for ev in events.drain(..) {
                if let ProtoEvent::Sample(x) = ev {
                    black_box(carry.resolve(x));
                }
            }
            rec.end("proto.feed", t, span);
        }
    }
    rec.child_ns(span, "proto.feed")
}

/// `kernel`: fresh monitors of every attachment, driven per frame of
/// the workload's batch — `step` per sample, sample-major, as an
/// attachment set is driven, or `step_batch` per frame. Returns ns
/// inside the frame spans.
fn kernel_pass(
    w: &Workload,
    reps: &[Replay],
    rec: &mut Recorder,
    span: Option<u32>,
    batched: bool,
) -> u64 {
    let mut mons: Vec<Vec<ScalarMonitor>> = reps
        .iter()
        .map(|rp| rp.queries.iter().map(|(_, q)| build(q)).collect())
        .collect();
    let name = if batched {
        "kernel.step_batch"
    } else {
        "kernel.step"
    };
    let mut out: Vec<Match> = Vec::new();
    for_frames(reps, w.batch, |c, frame| {
        let t = rec.begin();
        if batched {
            for m in mons[c].iter_mut() {
                m.step_batch(frame, &mut out).expect("finite samples");
            }
        } else {
            for x in frame {
                for m in mons[c].iter_mut() {
                    black_box(m.step(x).expect("finite sample"));
                }
            }
        }
        rec.end(name, t, span);
        out.clear();
    });
    rec.child_ns(span, name)
}

/// `engine`: the same attachments behind `Engine::push_batch`, with or
/// without a metrics registry. Returns ns inside the push spans and
/// stores the events emitted in `events`.
fn engine_pass(
    w: &Workload,
    reps: &[Replay],
    rec: &mut Recorder,
    span: Option<u32>,
    metrics: bool,
    events: &mut usize,
) -> u64 {
    let mut engine = MixedEngine::new();
    if metrics {
        engine.set_metrics(Arc::new(Metrics::new()));
    }
    let streams: Vec<StreamId> = reps
        .iter()
        .enumerate()
        .map(|(c, rp)| {
            let s = engine.add_stream(format!("conn{c}"));
            for (_, q) in &rp.queries {
                let qid = engine.add_query("q", q.clone()).expect("valid query");
                engine
                    .attach_monitor(s, qid, GapPolicy::Skip, |q| Ok(build(q)))
                    .expect("valid attachment");
            }
            s
        })
        .collect();
    let mut out: Vec<Event> = Vec::new();
    *events = 0;
    for_frames(reps, w.batch, |c, frame| {
        let t = rec.begin();
        engine
            .push_batch(streams[c], frame, &mut out)
            .expect("finite samples");
        rec.end("engine.push_batch", t, span);
        *events += out.len();
        out.clear();
    });
    rec.child_ns(span, "engine.push_batch")
}

/// One traced and one untraced pass; returns the traced pass's value.
///
/// With `on_cpu`, the value (span time) is converted to this thread's
/// CPU time at the pass's CPU-to-wall ratio: on a shared host the wall
/// clock also runs while the hypervisor has the vCPU, the server's
/// CPU-time figures do not, and the two must add up. Passes that block
/// (`sharded`) keep wall time.
fn alternate_once(
    rec: &mut Recorder,
    clock: &mut PassClock,
    layer: &'static str,
    root: Option<u32>,
    on_cpu: bool,
    mut pass: impl FnMut(&mut Recorder, Option<u32>) -> f64,
) -> f64 {
    let mut traced = 0.0;
    for on in [true, false] {
        rec.on = on;
        let t0 = Instant::now();
        let cpu0 = thread_cpu_ns();
        let span = rec.open(layer, root);
        let v = pass(rec, span);
        rec.close(span);
        let dt = t0.elapsed().as_nanos() as u64;
        let cpu = thread_cpu_ns() - cpu0;
        if on {
            clock.traced_ns += dt;
            traced = if on_cpu {
                v * cpu as f64 / dt.max(1) as f64
            } else {
                v
            };
        } else {
            clock.untraced_ns += dt;
        }
    }
    rec.on = true;
    traced
}

/// Calls `f(conn, frame)` for every `batch`-sample frame, alternating
/// between the connections frame by frame.
fn for_frames(reps: &[Replay], batch: usize, mut f: impl FnMut(usize, &[f64])) {
    let longest = reps.iter().map(|r| r.values.len()).max().unwrap_or(0);
    let mut at = 0;
    while at < longest {
        for (c, rp) in reps.iter().enumerate() {
            if at < rp.values.len() {
                f(c, &rp.values[at..(at + batch).min(rp.values.len())]);
            }
        }
        at += batch;
    }
}

/// One pass through a fresh `ShardedRunner` set up as serve sets it up.
/// Returns (wall ns first push → last sync, process CPU ns over the same
/// interval, ns inside `push`).
fn sharded_pass(
    w: &Workload,
    reps: &[Replay],
    rec: &mut Recorder,
    span: Option<u32>,
) -> (u64, u64, u64) {
    let sink: Arc<dyn MatchSink> = Arc::new(CountingSink::new(0));
    let mut runner = ShardedRunner::spawn_with_observability(
        Vec::new(),
        SHARDS,
        1,
        sink,
        Some(Arc::new(Metrics::new())),
        RestartPolicy::default(),
        None,
    )
    .expect("two shards spawn");
    runner.set_max_batch(w.batch);
    for (c, rp) in reps.iter().enumerate() {
        for (id, q) in &rp.queries {
            let spec =
                RunnerAttachment::new(StreamId(c as u32), QueryId(*id), build(q), GapPolicy::Skip)
                    .with_builder(|q| Ok(build(q)));
            runner.attach(spec).expect("attach");
        }
    }
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let longest = reps.iter().map(|r| r.values.len()).max().unwrap_or(0);
    let mut at = 0;
    while at < longest {
        for (c, rp) in reps.iter().enumerate() {
            let end = (at + PUSH_RUN).min(rp.values.len());
            if at >= end {
                continue;
            }
            let t = rec.begin();
            for x in &rp.values[at..end] {
                runner.push(StreamId(c as u32), x).expect("push");
            }
            rec.end("sharded.push", t, span);
        }
        at += PUSH_RUN;
    }
    for c in 0..reps.len() {
        runner.flush(StreamId(c as u32)).expect("flush");
    }
    for c in 0..reps.len() {
        runner.sync(StreamId(c as u32)).expect("sync");
    }
    let wall = t0.elapsed().as_nanos() as u64;
    let cpu = process_cpu_ns() - cpu0;
    let push = rec.child_ns(span, "sharded.push");
    runner.shutdown().expect("clean shutdown");
    (wall, cpu, push)
}
