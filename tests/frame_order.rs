//! Framed ingestion is stepped attachment-major (every attachment runs
//! over the whole frame) and merged back into sample-major order. These
//! tests compare the *unsorted* event vectors of `Engine::push`,
//! `Engine::push_batch` and the threaded `Runner`, so an ordering slip
//! in the merge — not just a missing or extra match — fails them.
//!
//! The workload puts every kind of attachment on one stream, with Skip
//! and CarryForward gaps mixed, and quiet runs between planted patterns
//! so that reports land at every offset inside a frame. Frame sizes
//! straddle the wavefront width (8) on both sides.

use std::sync::Arc;

use spring::core::MonitorSpec;
use spring::monitor::{
    Event, GapPolicy, MixedEngine, MonitorError, QueryId, Runner, RunnerAttachment, StreamId,
    VecSink,
};
use spring::Kernel;

const FRAMES: [usize; 6] = [1, 3, 7, 8, 9, 64];
const WORKERS: [usize; 2] = [1, 2];

/// Quiet stretches of growing length between spikes and dips, with
/// missing samples inside patterns and inside quiet runs.
fn stream() -> Vec<f64> {
    let mut v = Vec::new();
    for gap in 1..=24usize {
        v.extend(std::iter::repeat_n(50.0, gap));
        if gap % 2 == 0 {
            v.extend([0.0, 10.0, 0.0]);
        } else {
            v.extend([50.0, 45.0, 45.0, 50.0]);
        }
        if gap % 5 == 0 {
            v.push(f64::NAN);
        }
        if gap % 7 == 3 {
            let at = v.len() - 2;
            v[at] = f64::NAN;
        }
    }
    v.extend(std::iter::repeat_n(50.0, 5));
    v
}

/// One attachment per monitor variant, alternating Skip and
/// CarryForward: (query index, spec, gap policy).
fn attachments() -> Vec<(usize, MonitorSpec, GapPolicy)> {
    vec![
        (0, MonitorSpec::Spring { epsilon: 2.0 }, GapPolicy::Skip),
        (
            0,
            MonitorSpec::Spring { epsilon: 2.0 },
            GapPolicy::CarryForward,
        ),
        (1, MonitorSpec::Spring { epsilon: 30.0 }, GapPolicy::Skip),
        (
            0,
            MonitorSpec::Path { epsilon: 2.0 },
            GapPolicy::CarryForward,
        ),
        (
            1,
            MonitorSpec::Bounded {
                epsilon: 30.0,
                min_len: 2,
                max_len: 6,
            },
            GapPolicy::Skip,
        ),
        (
            0,
            MonitorSpec::Normalized {
                epsilon: 4.0,
                window: 6,
            },
            GapPolicy::CarryForward,
        ),
        (
            1,
            MonitorSpec::SlopeLimited {
                epsilon: 30.0,
                max_run: 2,
            },
            GapPolicy::Skip,
        ),
        (0, MonitorSpec::Best, GapPolicy::CarryForward),
    ]
}

fn queries() -> [Vec<f64>; 2] {
    [vec![0.0, 10.0, 0.0], vec![50.0, 45.0, 50.0]]
}

/// A fresh engine with the given attachments on stream 0. Attachment
/// ids follow list order, matching the runner's spawn-order ids.
fn engine(atts: &[(usize, MonitorSpec, GapPolicy)]) -> (MixedEngine, StreamId) {
    let mut e = MixedEngine::new();
    let s = e.add_stream("s");
    let qs: Vec<QueryId> = queries()
        .into_iter()
        .enumerate()
        .map(|(k, q)| e.add_query(format!("q{k}"), q).unwrap())
        .collect();
    for &(q, spec, gap) in atts {
        e.attach_spec(s, qs[q], spec, gap).unwrap();
    }
    (e, s)
}

/// Runs `values` through a runner in frames of `frame`; returns the
/// sink's events (arrival order) and the shutdown result.
fn run_runner(
    atts: &[(usize, MonitorSpec, GapPolicy)],
    values: &[f64],
    workers: usize,
    frame: usize,
) -> (Vec<Event>, Result<(), MonitorError>) {
    let qs = queries();
    let specs = atts
        .iter()
        .map(|&(q, spec, gap)| {
            let monitor = spec.build(&qs[q], Kernel::Squared).unwrap();
            RunnerAttachment::new(StreamId(0), QueryId(q as u32), monitor, gap)
        })
        .collect();
    let sink = Arc::new(VecSink::new());
    let mut runner = Runner::spawn(specs, workers, sink.clone()).unwrap();
    runner.set_max_batch(frame);
    for x in values {
        if runner.push(StreamId(0), x).is_err() {
            break; // the worker stopped on an ingestion error
        }
    }
    let _ = runner.finish_stream(StreamId(0));
    let result = runner.shutdown();
    (sink.events(), result)
}

/// The events one runner worker owns: attachments are dealt to workers
/// round-robin, and only events of one worker have a defined order.
fn on_worker(events: &[Event], worker: usize, workers: usize) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.attachment.0 as usize % workers == worker)
        .copied()
        .collect()
}

#[test]
fn push_batch_and_runner_emit_the_per_sample_event_order() {
    let values = stream();
    let atts = attachments();
    let (mut e, s) = engine(&atts);
    let mut expect = Vec::new();
    for x in &values {
        expect.extend(e.push(s, x).unwrap());
    }
    expect.extend(e.finish_stream(s).unwrap());
    // The workload must exercise the merge: several attachments report,
    // and some tick confirms matches on two attachments at once.
    let reporting: std::collections::HashSet<u32> =
        expect.iter().map(|ev| ev.attachment.0).collect();
    assert!(reporting.len() >= 5, "attachments reporting: {reporting:?}");
    assert!(
        expect
            .windows(2)
            .any(|w| w[0].m.reported_at == w[1].m.reported_at && w[0].m.end == w[1].m.end),
        "some tick must confirm on two attachments at once"
    );

    for frame in FRAMES {
        let (mut b, sb) = engine(&atts);
        let mut got = Vec::new();
        for chunk in values.chunks(frame) {
            b.push_batch(sb, chunk, &mut got).unwrap();
        }
        got.extend(b.finish_stream(sb).unwrap());
        assert_eq!(got, expect, "push_batch, frame={frame}");
        assert_eq!(b.stream_ticks(sb), e.stream_ticks(s), "frame={frame}");

        for workers in WORKERS {
            let (events, result) = run_runner(&atts, &values, workers, frame);
            result.unwrap();
            for w in 0..workers {
                assert_eq!(
                    on_worker(&events, w, workers),
                    on_worker(&expect, w, workers),
                    "runner, frame={frame} workers={workers} worker={w}"
                );
            }
        }
    }
}

#[test]
fn a_fail_attachment_stops_the_frame_exactly_where_push_does() {
    // The first attachment (CarryForward) confirms a spike on the very
    // tick that is missing; the second (Fail) rejects that tick. A
    // per-sample loop drops the first attachment's same-tick event from
    // the engine's output and counts the failing tick.
    let mut values: Vec<f64> = Vec::new();
    for gap in [4usize, 9, 2] {
        values.extend(std::iter::repeat_n(50.0, gap));
        values.extend([0.0, 10.0, 0.0]);
    }
    values.push(f64::NAN);
    let fail_tick = values.len() as u64;
    values.extend([50.0, 0.0, 10.0, 0.0, 50.0, 50.0]);
    let atts = vec![
        (
            0,
            MonitorSpec::Spring { epsilon: 2.0 },
            GapPolicy::CarryForward,
        ),
        (0, MonitorSpec::Spring { epsilon: 2.0 }, GapPolicy::Fail),
    ];

    // What the CarryForward attachment alone reports on the failing
    // tick: the event a per-sample loop must drop.
    let (mut alone, s) = engine(&atts[..1]);
    let mut dropped = Vec::new();
    for x in &values[..fail_tick as usize] {
        dropped = alone.push(s, x).unwrap();
    }
    assert_eq!(dropped.len(), 1, "a report must land on the failing tick");

    let (mut e, s) = engine(&atts);
    let mut expect = Vec::new();
    let mut expect_err = None;
    for x in &values {
        match e.push(s, x) {
            Ok(events) => expect.extend(events),
            Err(err) => {
                expect_err = Some(err);
                break;
            }
        }
    }
    let expect_err = expect_err.expect("the missing sample must fail");
    assert_eq!(
        expect_err,
        MonitorError::MissingSample {
            stream: s,
            tick: fail_tick
        }
    );
    assert_eq!(e.stream_ticks(s), Some(fail_tick));
    assert!(expect.len() >= 4, "reports before the failing tick");

    for frame in FRAMES {
        let (mut b, sb) = engine(&atts);
        let mut got = Vec::new();
        let mut err = None;
        for chunk in values.chunks(frame) {
            if let Err(e) = b.push_batch(sb, chunk, &mut got) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(got, expect, "push_batch, frame={frame}");
        assert_eq!(err.as_ref(), Some(&expect_err), "frame={frame}");
        assert_eq!(b.stream_ticks(sb), Some(fail_tick), "frame={frame}");

        // The runner hands events to the sink as they are confirmed, so
        // the first attachment's same-tick event is delivered before
        // the second one fails.
        let mut delivered = expect.clone();
        delivered.extend(dropped.iter().copied());
        for workers in WORKERS {
            let (events, result) = run_runner(&atts, &values, workers, frame);
            assert_eq!(
                result,
                Err(expect_err.clone()),
                "frame={frame} workers={workers}"
            );
            for w in 0..workers {
                let got = on_worker(&events, w, workers);
                let want = on_worker(&delivered, w, workers);
                // With two workers the CarryForward attachment's worker
                // does not stop with the failing one and may ingest
                // samples past the failing tick before the runner
                // refuses pushes: only its prefix is defined.
                let fails_here = atts[w % atts.len()].2 == GapPolicy::Fail || workers == 1;
                if fails_here {
                    assert_eq!(
                        got, want,
                        "runner, frame={frame} workers={workers} worker={w}"
                    );
                } else {
                    assert!(
                        got.starts_with(&want),
                        "runner, frame={frame} workers={workers} worker={w}: {got:?}"
                    );
                }
            }
        }
    }
}
