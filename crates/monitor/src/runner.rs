//! Threaded monitoring runner, generic over any [`Monitor`].
//!
//! Shards attachments across worker threads: each worker owns the
//! monitor states of its shard (no locking on the hot path) and receives
//! the samples of the streams it watches over a bounded channel. Matches
//! go to a shared [`MatchSink`]. Each worker drives the same
//! `Attachment` gap-policy/tick code path as the single-threaded
//! [`crate::Engine`], so the two deployments report identical events.
//!
//! Scaling model: with `A` attachments of query length `m` spread over
//! `w` workers, each incoming sample costs `O(A·m / w)` on the critical
//! path — the `monitor_scaling` bench measures exactly this. To scale
//! across *streams* (separate pending buffers, routes, checkpoints, and
//! backpressure per group of streams), stack a [`crate::ShardedRunner`]
//! on top: it hashes stream ids over several independent `Runner`s.
//!
//! # Framed channels
//!
//! Worker channels carry *frames* — `Frame { stream, samples }`
//! messages of up to [`Runner::max_batch`] samples (default
//! [`DEFAULT_MAX_BATCH`]) — so the channel/locking cost is paid per
//! batch instead of per tick. [`Runner::push`] appends to a per-stream
//! pending buffer and sends a frame when it fills;
//! [`Runner::push_batch`] hands over whole slices. Flushing is
//! **linger-free by default**: no timer holds samples back — a partial
//! frame is flushed by [`Runner::finish_stream`] and
//! [`Runner::shutdown`] (and can be forced any time with
//! [`Runner::flush`]), so `max_batch = 1` reproduces the old per-sample
//! messaging exactly. [`Runner::set_linger`] opts into a deadline: a
//! janitor thread flushes partial frames older than the configured
//! linger, bounding match latency on slow streams. Checkpoints, the
//! replay log, and at-least-once redelivery all operate at frame
//! granularity. A worker steps each frame attachment-major, exactly as
//! [`crate::Engine::push_batch`] does, so the sink sees the events of
//! one worker in per-sample order.
//!
//! # Dynamic attachments
//!
//! [`Runner::attach`] and [`Runner::detach`] add and remove
//! (stream, query) attachments while the runner is live, from `&self` —
//! long-lived deployments (`spring serve`) attach one monitor per
//! connection. Attach/detach travel through the same logged, replayed
//! message path as frames, so a worker restart reconstructs them.
//! [`Runner::sync`] is a barrier: it returns once every worker watching
//! a stream has drained the messages enqueued before the call, which is
//! how a caller knows all matches for its pushed samples have reached
//! the sink.
//!
//! # Failure handling and supervision
//!
//! A worker can stop for two reasons, and the runner treats them very
//! differently:
//!
//! * **Ingestion errors** (e.g. [`GapPolicy::Fail`] on a missing value)
//!   are deliberate: the lowest-ranked one (see below) is recorded and
//!   returned by [`Runner::shutdown`]; the worker is *not* restarted,
//!   and pushes to its streams report [`MonitorError::WorkerLost`].
//! * **Panics** (a crashing sink, an injected fault) are infrastructure
//!   failures: a built-in supervisor restarts the worker with capped
//!   exponential backoff ([`RestartPolicy`]), restores its shard from
//!   the last in-memory checkpoint (each worker forks its attachment
//!   states every [`CHECKPOINT_EVERY`] messages), and replays the
//!   logged message tail so **no sample — and therefore no match — is
//!   dropped** (paper Theorem 2's "no false dismissal" guarantee
//!   survives worker crashes). Delivery to the sink is *at least once*:
//!   a match confirmed between the checkpoint and the crash is emitted
//!   again on replay. Restarts are observable as
//!   `spring_worker_restarts_total`; once a worker exhausts
//!   [`RestartPolicy::max_restarts`] it is permanently lost and
//!   [`Runner::shutdown`] reports [`MonitorError::WorkerLost`].
//!
//! [`Runner::shutdown`] drains every queue before joining: pending
//! partial frames are flushed in ascending `StreamId` order (HashMap
//! iteration order would make the surfaced error run-dependent when
//! several streams hold failing samples), dead workers are healed
//! (restart + replay) first so samples queued at crash time are still
//! processed, and when several workers record errors the *lowest
//! ranked* one is returned deterministically: `MissingSample` ordered
//! by (stream, tick) before other ingestion errors before
//! [`MonitorError::WorkerLost`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spring_core::monitor::Monitor;

use crate::engine::{
    drain_in_tick_order, frame_prefix, validate_query_samples, Attachment, AttachmentBuilder,
    AttachmentId, GapPolicy, MonitorError, Owned, QueryId, StreamId,
};
use crate::metrics::{Metrics, ShardMetrics, WorkerMetrics};
use crate::sink::MatchSink;
use crate::trace::{EventKind as TraceKind, TraceHandle, Tracer};

/// Queue depth per worker (messages, i.e. frames); bounds memory under
/// bursty producers.
const QUEUE_DEPTH: usize = 1024;

/// A worker forks its shard into the supervisor checkpoint every this
/// many processed messages (frames), bounding both the replay tail and
/// the supervisor log to `O(CHECKPOINT_EVERY + QUEUE_DEPTH)` entries.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Default frame size for [`Runner::push`] batching: samples buffered
/// per stream before a frame is enqueued. See [`Runner::set_max_batch`].
pub const DEFAULT_MAX_BATCH: usize = 64;

/// How a [`Runner`] treats a worker thread lost to a panic.
///
/// Ingestion errors (a sample rejected under [`GapPolicy::Fail`]) are
/// never restarted — they are the stream's fault, not the worker's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restart attempts per worker before it is declared permanently
    /// lost. `0` disables supervision entirely.
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Upper bound on the per-attempt backoff.
    pub max_backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RestartPolicy {
    /// Supervision disabled: any lost worker is permanently lost.
    pub fn none() -> Self {
        RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        }
    }

    /// Capped exponential backoff for the `attempt`-th restart (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// One attachment specification for a [`Runner`]: a pre-built monitor
/// plus its routing and gap handling.
#[derive(Clone)]
pub struct RunnerAttachment<M: Monitor> {
    /// Stream to watch.
    pub stream: StreamId,
    /// Query id reported in events.
    pub query_id: QueryId,
    /// The monitor to drive (any [`Monitor`] variant).
    pub monitor: M,
    /// Missing-sample policy.
    pub gap_policy: GapPolicy,
    /// Recipe to rebuild the monitor on a [`Runner::swap_query`]
    /// (`None` for pre-built monitors, which cannot be swapped).
    builder: Option<AttachmentBuilder<M>>,
}

impl<M: Monitor + std::fmt::Debug> std::fmt::Debug for RunnerAttachment<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerAttachment")
            .field("stream", &self.stream)
            .field("query_id", &self.query_id)
            .field("monitor", &self.monitor)
            .field("gap_policy", &self.gap_policy)
            .field("swappable", &self.builder.is_some())
            .finish()
    }
}

impl<M: Monitor> RunnerAttachment<M> {
    /// An attachment watching `stream` with `monitor`.
    pub fn new(stream: StreamId, query_id: QueryId, monitor: M, gap_policy: GapPolicy) -> Self {
        RunnerAttachment {
            stream,
            query_id,
            monitor,
            gap_policy,
            builder: None,
        }
    }

    /// Stores the recipe `monitor` was built from, making the
    /// attachment eligible for [`Runner::swap_query`]: on a swap the
    /// worker calls `build` again with the query's new samples,
    /// preserving this attachment's own ε / variant / kernel choices.
    /// [`RunnerAttachment::spring`] stores one automatically.
    pub fn with_builder(
        mut self,
        build: impl Fn(&[Owned<M>]) -> Result<M, spring_core::SpringError> + Send + Sync + 'static,
    ) -> Self {
        self.builder = Some(Arc::new(build));
        self
    }

    /// Whether this attachment carries a rebuild recipe (and can
    /// therefore survive a [`Runner::swap_query`]).
    pub fn swappable(&self) -> bool {
        self.builder.is_some()
    }
}

impl RunnerAttachment<spring_core::Spring<spring_dtw::Kernel>> {
    /// Convenience: a plain SPRING attachment (squared kernel) built
    /// from query values and a threshold. The recipe is stored, so the
    /// attachment follows [`Runner::swap_query`] rebuilds.
    pub fn spring(
        stream: StreamId,
        query_id: QueryId,
        query: &[f64],
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<Self, MonitorError> {
        let build = move |q: &[f64]| {
            spring_core::Spring::with_kernel(
                q,
                spring_core::SpringConfig::new(epsilon),
                spring_dtw::Kernel::Squared,
            )
        };
        let monitor = build(query)?;
        Ok(RunnerAttachment::new(stream, query_id, monitor, gap_policy).with_builder(build))
    }
}

/// A barrier one [`Runner::sync`] call shares with the workers it
/// waits on: each worker arrives when it dequeues its `Sync` message.
///
/// Arrival is saturating (a restart replays the logged `Sync`, so a
/// worker may arrive twice) — the barrier is exact in fault-free runs
/// and never blocks forever under the at-least-once replay.
struct SyncPoint {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl SyncPoint {
    fn new(workers: usize) -> Self {
        SyncPoint {
            remaining: Mutex::new(workers),
            cv: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut r = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *r = r.saturating_sub(1);
        self.cv.notify_all();
    }

    /// Waits up to `timeout`; `true` once every worker has arrived.
    fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut r = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *r > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (g, _) = self
                .cv
                .wait_timeout(r, left)
                .unwrap_or_else(PoisonError::into_inner);
            r = g;
        }
        true
    }
}

enum Msg<M: Monitor> {
    /// A batch of consecutive samples of one stream (the unit of
    /// channel traffic, checkpointing, and replay).
    Frame {
        stream: StreamId,
        samples: Vec<Owned<M>>,
    },
    FinishStream(StreamId),
    /// Add an attachment to the receiving worker's shard (logged and
    /// replayed like a frame, so restarts reconstruct it).
    Attach(Box<Attachment<M>>),
    /// Remove an attachment from the receiving worker's shard.
    Detach(AttachmentId),
    /// Re-point every attachment of `query` at new pattern samples
    /// (logged and replayed like a frame, so restarts re-apply the
    /// swap at the same position in the message order).
    Swap {
        query: QueryId,
        samples: Vec<Owned<M>>,
        generation: u64,
    },
    /// Arrive at the barrier (see [`Runner::sync`]).
    Sync(Arc<SyncPoint>),
    Shutdown,
}

impl<M: Monitor + Clone> Clone for Msg<M>
where
    Owned<M>: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Msg::Frame { stream, samples } => Msg::Frame {
                stream: *stream,
                samples: samples.clone(),
            },
            Msg::FinishStream(stream) => Msg::FinishStream(*stream),
            Msg::Attach(att) => Msg::Attach(Box::new(att.fork())),
            Msg::Detach(id) => Msg::Detach(*id),
            Msg::Swap {
                query,
                samples,
                generation,
            } => Msg::Swap {
                query: *query,
                samples: samples.clone(),
                generation: *generation,
            },
            Msg::Sync(point) => Msg::Sync(Arc::clone(point)),
            Msg::Shutdown => Msg::Shutdown,
        }
    }
}

/// State a worker thread shares with its supervisor.
struct WorkerShared<M: Monitor> {
    /// Set when the worker stopped on an ingestion error (deliberate:
    /// the supervisor must not restart it).
    failed: AtomicBool,
    /// Messages whose effects are contained in `checkpoint`.
    applied: AtomicU64,
    /// The worker's forked shard as of `applied` messages.
    checkpoint: Mutex<Vec<Attachment<M>>>,
}

/// Supervisor-side state of one worker (behind a mutex so `push` can
/// heal from `&self`).
struct WorkerSlot<M: Monitor> {
    sender: SyncSender<Msg<M>>,
    handle: Option<JoinHandle<()>>,
    /// Messages sent since the last checkpoint, with absolute sequence
    /// numbers — the replay tail for a restart.
    log: VecDeque<(u64, Msg<M>)>,
    /// Total routed (non-`Shutdown`) messages; the next sequence number.
    sent: u64,
    /// Restarts consumed so far.
    restarts: u32,
    /// Permanently lost (ingestion error or restart budget exhausted).
    dead: bool,
    shared: Arc<WorkerShared<M>>,
}

/// Everything a worker thread needs besides its shard and channel —
/// bundled so spawning and healing share one construction site.
struct WorkerCtx<M: Monitor> {
    sink: Arc<dyn MatchSink>,
    error: Arc<Mutex<Option<MonitorError>>>,
    wm: Option<Arc<WorkerMetrics>>,
    /// Shard-level mirror of the worker gauges (set when this runner is
    /// one shard of a [`crate::ShardedRunner`]).
    sm: Option<Arc<ShardMetrics>>,
    metrics: Option<Arc<Metrics>>,
    shared: Arc<WorkerShared<M>>,
    /// This incarnation's flight-recorder ring (each restart registers
    /// a fresh ring under the same label, so the dead incarnation's
    /// final events survive for the postmortem dump).
    trace: TraceHandle,
}

/// The runner state shared between the [`Runner`] handle, its workers'
/// supervisor paths, and the optional linger janitor thread.
struct Core<M: Monitor> {
    slots: Vec<Mutex<WorkerSlot<M>>>,
    /// Worker indices interested in each stream (write-locked only by
    /// attach/detach; routing takes the read lock).
    routes: RwLock<HashMap<StreamId, Vec<usize>>>,
    /// Owning worker, stream, and query of every live attachment — the
    /// attach/detach bookkeeping from which routes are recomputed and
    /// swap targets are found.
    homes: Mutex<HashMap<AttachmentId, (usize, StreamId, QueryId)>>,
    /// Current hot-swap generation per query id (`0` until the first
    /// [`Runner::swap_query`]).
    generations: Mutex<HashMap<QueryId, u64>>,
    /// Per-stream sample buffers awaiting a full frame (flushed at
    /// `max_batch`, on `finish_stream`, `flush`, `shutdown`, and — when
    /// a linger is configured — by the janitor on deadline).
    pending: Mutex<HashMap<StreamId, PendingBuf<M>>>,
    /// Samples per frame before a buffer is flushed (≥ 1).
    max_batch: AtomicUsize,
    /// Linger deadline for partial frames, nanoseconds; `0` = off.
    linger: AtomicU64,
    /// Next id handed out by [`Runner::attach`].
    next_attachment: AtomicU32,
    /// Lowest-ranked ingestion error recorded by any worker.
    error: Arc<Mutex<Option<MonitorError>>>,
    /// Per-worker observability handles (aligned with `slots`; reused
    /// across restarts so worker indices stay stable).
    worker_metrics: Vec<Option<Arc<WorkerMetrics>>>,
    /// Shard-level aggregate gauges (sharded deployments only).
    shard_metrics: Option<Arc<ShardMetrics>>,
    metrics: Option<Arc<Metrics>>,
    sink: Arc<dyn MatchSink>,
    restart: RestartPolicy,
    /// Flight recorder shared across the deployment (`None` = no
    /// tracing). Also the source of postmortem dumps on worker loss.
    tracer: Option<Tracer>,
    /// Label prefix for this runner's rings (a [`crate::ShardedRunner`]
    /// passes `shardN-` so tracks stay distinguishable fleet-wide).
    trace_prefix: String,
    /// Per-worker supervisor rings (aligned with `slots`; written only
    /// with the matching slot lock held, preserving the single-writer
    /// ring contract across concurrent healers).
    sup_trace: Vec<TraceHandle>,
}

/// One stream's samples awaiting a full frame.
struct PendingBuf<M: Monitor> {
    samples: Vec<Owned<M>>,
    /// When the oldest buffered sample arrived (stamped only while a
    /// linger deadline is configured — the linger-free hot path takes
    /// no clock reads).
    since: Option<Instant>,
}

impl<M: Monitor> Default for PendingBuf<M> {
    fn default() -> Self {
        PendingBuf {
            samples: Vec::new(),
            since: None,
        }
    }
}

impl<M: Monitor> PendingBuf<M> {
    fn take(&mut self) -> Vec<Owned<M>> {
        self.since = None;
        std::mem::take(&mut self.samples)
    }
}

/// The linger janitor: a thread flushing overdue partial frames.
struct Janitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<()>,
}

/// A running pool of monitor workers.
///
/// Samples are pushed from any thread via [`Runner::push`]; matches
/// arrive at the sink from worker threads. Attachments can be added and
/// removed at runtime ([`Runner::attach`] / [`Runner::detach`]). Call
/// [`Runner::shutdown`] to flush, join, and learn about any worker
/// failure. Workers lost to panics are restarted from their last
/// checkpoint per the configured [`RestartPolicy`].
pub struct Runner<M: Monitor> {
    core: Arc<Core<M>>,
    janitor: Option<Janitor>,
}

impl<M: Monitor> Drop for Runner<M> {
    fn drop(&mut self) {
        if let Some(j) = self.janitor.take() {
            *j.stop.0.lock().unwrap_or_else(PoisonError::into_inner) = true;
            j.stop.1.notify_all();
            let _ = j.handle.join();
        }
    }
}

/// Increments `spring_worker_lost_total` when the worker thread exits
/// abnormally: either after recording an ingestion error (`lost` set) or
/// while unwinding from a panic (e.g. a panicking sink).
struct WorkerLostGuard {
    metrics: Option<Arc<Metrics>>,
    lost: bool,
}

impl Drop for WorkerLostGuard {
    fn drop(&mut self) {
        if self.lost || thread::panicking() {
            if let Some(m) = &self.metrics {
                m.worker_lost.inc();
            }
        }
    }
}

/// The worker thread body: drains its channel, drives the shard, and
/// forks a checkpoint every [`CHECKPOINT_EVERY`] messages.
fn spawn_worker<M>(
    mut shard: Vec<Attachment<M>>,
    rx: Receiver<Msg<M>>,
    ctx: WorkerCtx<M>,
) -> JoinHandle<()>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send,
{
    thread::spawn(move || {
        // Constructed inside the thread so its `Drop` runs here: a
        // panicking sink (or a recorded ingestion error) bumps
        // `spring_worker_lost_total` exactly once per lost worker.
        let mut guard = WorkerLostGuard {
            metrics: ctx.metrics.clone(),
            lost: false,
        };
        // Messages applied by this incarnation, continuing the absolute
        // count from the checkpoint the shard was forked at.
        let mut applied = ctx.shared.applied.load(Ordering::Acquire);
        // Frame scratch (see `Attachment::ingest_frame`), reused across
        // frames so the steady state allocates nothing.
        let mut hits = Vec::new();
        let mut frame_events = Vec::new();
        'recv: for msg in rx {
            crate::fail_point!("runner::worker::recv");
            // Shutdown messages are not routed (and not counted into the
            // depth gauges), so only routed messages decrement them.
            if !matches!(msg, Msg::Shutdown) {
                if let Some(wm) = &ctx.wm {
                    wm.queue_depth.add(-1);
                }
                if let Some(sm) = &ctx.sm {
                    sm.queue_depth.add(-1);
                }
            }
            match msg {
                Msg::Frame { stream, samples } => {
                    crate::fail_point!("runner::worker::frame");
                    let frame_span = ctx.trace.now();
                    let mut processed = 0u64;
                    let mut failed = false;
                    // Attachment-major, like `Engine::push_batch`: every
                    // attachment of the stream ingests the clean prefix
                    // of the frame (runs of present samples through one
                    // `step_batch`), then the events are merged back into
                    // sample-major order before the sink sees them. A
                    // tick some attachment rejects (and a lone sample)
                    // runs sample-major through `ingest`, exactly as a
                    // per-sample loop.
                    let mut rest = &samples[..];
                    'frame: while !rest.is_empty() {
                        let mine = shard.iter().filter(|a| a.stream == stream);
                        let (clean, tail) = rest.split_at(frame_prefix(rest, mine, None));
                        if !clean.is_empty() {
                            frame_events.clear();
                            let mine = shard.iter_mut().filter(|a| a.stream == stream);
                            for (order, att) in mine.enumerate() {
                                if let Err(e) =
                                    att.ingest_frame(clean, order, &mut hits, &mut frame_events)
                                {
                                    record_error(&ctx.error, e);
                                    ctx.shared.failed.store(true, Ordering::Release);
                                    failed = true;
                                    break 'frame;
                                }
                            }
                            processed += clean.len() as u64;
                            for event in drain_in_tick_order(&mut frame_events) {
                                crate::fail_point!("runner::sink");
                                ctx.trace.instant(TraceKind::Match, event.m.end);
                                ctx.sink.on_match(&event);
                            }
                        }
                        let Some((value, after)) = tail.split_first() else {
                            break;
                        };
                        processed += 1;
                        for att in shard.iter_mut().filter(|a| a.stream == stream) {
                            match att.ingest(std::borrow::Borrow::borrow(value)) {
                                Ok(Some(event)) => {
                                    crate::fail_point!("runner::sink");
                                    ctx.trace.instant(TraceKind::Match, event.m.end);
                                    ctx.sink.on_match(&event);
                                }
                                Ok(None) => {}
                                Err(e) => {
                                    record_error(&ctx.error, e);
                                    // Deliberate stop: tell the
                                    // supervisor not to restart; the
                                    // frame tail is dropped with the
                                    // rest of the stream.
                                    ctx.shared.failed.store(true, Ordering::Release);
                                    failed = true;
                                    break 'frame;
                                }
                            }
                        }
                        rest = after;
                    }
                    ctx.trace.span(frame_span, TraceKind::Frame, processed);
                    if let Some(wm) = &ctx.wm {
                        wm.ticks.add(processed);
                    }
                    if let Some(sm) = &ctx.sm {
                        sm.ticks.add(processed);
                    }
                    if failed {
                        // Drop the receiver so later pushes fail fast.
                        guard.lost = true;
                        break 'recv;
                    }
                }
                Msg::FinishStream(stream) => {
                    let flush_span = ctx.trace.now();
                    for att in shard.iter_mut().filter(|a| a.stream == stream) {
                        if let Some(event) = att.flush() {
                            crate::fail_point!("runner::sink");
                            ctx.trace.instant(TraceKind::Match, event.m.end);
                            ctx.sink.on_match(&event);
                        }
                    }
                    ctx.trace
                        .span(flush_span, TraceKind::Flush, u64::from(stream.0));
                }
                Msg::Attach(att) => {
                    // Replays are pruned against the checkpoint, so a
                    // duplicate can't normally arrive — the guard keeps
                    // a duplicated Attach from double-counting anyway.
                    if !shard.iter().any(|a| a.id == att.id) {
                        shard.push(*att);
                    }
                }
                Msg::Detach(id) => shard.retain(|a| a.id != id),
                Msg::Swap {
                    query,
                    samples,
                    generation,
                } => {
                    let mut failed = false;
                    for att in shard.iter_mut().filter(|a| a.query == query) {
                        if let Err(e) = att.apply_swap(&samples, generation) {
                            // A rebuild that fails (no stored recipe, or
                            // the builder rejects the new pattern) is an
                            // ingestion-class error: deliberate stop, no
                            // restart, surfaced at shutdown.
                            record_error(&ctx.error, e);
                            ctx.shared.failed.store(true, Ordering::Release);
                            failed = true;
                            break;
                        }
                    }
                    if failed {
                        guard.lost = true;
                        break 'recv;
                    }
                    ctx.trace.instant(TraceKind::QuerySwap, generation);
                }
                Msg::Sync(point) => {
                    let sync_span = ctx.trace.now();
                    point.arrive();
                    ctx.trace.span(sync_span, TraceKind::Flush, 0);
                }
                Msg::Shutdown => break,
            }
            applied += 1;
            let behind = applied - ctx.shared.applied.load(Ordering::Relaxed);
            if behind >= CHECKPOINT_EVERY {
                let cp_span = ctx.trace.now();
                let fork: Vec<Attachment<M>> = shard.iter().map(Attachment::fork).collect();
                *ctx.shared
                    .checkpoint
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = fork;
                ctx.shared.applied.store(applied, Ordering::Release);
                ctx.trace.span(cp_span, TraceKind::Checkpoint, behind);
            }
        }
    })
}

impl<M> Runner<M>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send,
{
    /// Spawns `workers` threads sharing out `attachments` round-robin,
    /// with the default [`RestartPolicy`].
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
    ) -> Result<Self, MonitorError> {
        Runner::spawn_with_policy(attachments, workers, sink, None, RestartPolicy::default())
    }

    /// [`Runner::spawn`] with an observability registry: every worker
    /// registers a [`WorkerMetrics`] (per-worker tick counter + queue
    /// depth gauge), each attachment records ticks/matches/latency/
    /// memory, abnormal worker exits bump `spring_worker_lost_total`,
    /// and supervisor restarts bump `spring_worker_restarts_total`.
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn_with_metrics(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
    ) -> Result<Self, MonitorError> {
        Runner::spawn_with_policy(
            attachments,
            workers,
            sink,
            metrics,
            RestartPolicy::default(),
        )
    }

    /// Fully explicit constructor: metrics registry and worker
    /// [`RestartPolicy`] ([`RestartPolicy::none`] restores the
    /// unsupervised fail-fast behavior).
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn_with_policy(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
        restart: RestartPolicy,
    ) -> Result<Self, MonitorError> {
        Runner::spawn_with_observability(attachments, workers, sink, metrics, restart, None)
    }

    /// [`Runner::spawn_with_policy`] plus a flight recorder: each worker
    /// incarnation records frame/checkpoint/flush spans and match
    /// instants into its own `worker-N` ring, and the supervisor records
    /// restart instants and replay spans into `supervisor-N` — dumped to
    /// the tracer's postmortem directory whenever a worker is lost.
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn spawn_with_observability(
        attachments: Vec<RunnerAttachment<M>>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
        restart: RestartPolicy,
        tracer: Option<Tracer>,
    ) -> Result<Self, MonitorError> {
        let prepared = attachments
            .into_iter()
            .enumerate()
            .map(|(i, a)| (AttachmentId(i as u32), a))
            .collect();
        Runner::spawn_prepared(prepared, workers, sink, metrics, restart, None, tracer, "")
    }

    /// The innermost constructor: attachment ids are caller-assigned
    /// (a [`crate::ShardedRunner`] keeps ids globally unique across its
    /// shards) and an optional [`ShardMetrics`] mirror aggregates this
    /// runner's worker gauges at shard granularity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn_prepared(
        attachments: Vec<(AttachmentId, RunnerAttachment<M>)>,
        workers: usize,
        sink: Arc<dyn MatchSink>,
        metrics: Option<Arc<Metrics>>,
        restart: RestartPolicy,
        shard_metrics: Option<Arc<ShardMetrics>>,
        tracer: Option<Tracer>,
        trace_prefix: &str,
    ) -> Result<Self, MonitorError> {
        if workers == 0 {
            return Err(MonitorError::Spring(
                spring_core::SpringError::InvalidQuery("runner needs at least one worker".into()),
            ));
        }
        let mut shards: Vec<Vec<Attachment<M>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut routes: HashMap<StreamId, Vec<usize>> = HashMap::new();
        let mut homes: HashMap<AttachmentId, (usize, StreamId, QueryId)> = HashMap::new();
        let mut next_id: u32 = 0;
        for (i, (id, spec)) in attachments.into_iter().enumerate() {
            let worker = i % workers;
            next_id = next_id.max(id.0.saturating_add(1));
            let mut attachment = Attachment::new(
                id,
                spec.stream,
                spec.query_id,
                spec.monitor,
                spec.gap_policy,
            );
            if let Some(build) = spec.builder {
                attachment = attachment.with_builder(build);
            }
            if let Some(metrics) = &metrics {
                attachment.set_metrics(metrics);
            }
            homes.insert(id, (worker, spec.stream, spec.query_id));
            shards[worker].push(attachment);
            let entry = routes.entry(spec.stream).or_default();
            if !entry.contains(&worker) {
                entry.push(worker);
            }
        }
        let error = Arc::new(Mutex::new(None));
        let mut slots = Vec::with_capacity(workers);
        let mut worker_metrics = Vec::with_capacity(workers);
        let mut sup_trace = Vec::with_capacity(workers);
        for (w, shard) in shards.into_iter().enumerate() {
            let wm = metrics.as_ref().map(|m| m.register_worker());
            worker_metrics.push(wm.clone());
            sup_trace.push(match &tracer {
                Some(t) => t.register(&format!("{trace_prefix}supervisor-{w}")),
                None => TraceHandle::off(),
            });
            // Checkpoint 0: the shard's initial state, so a crash before
            // the first periodic checkpoint can still replay from tick 0.
            let shared = Arc::new(WorkerShared {
                failed: AtomicBool::new(false),
                applied: AtomicU64::new(0),
                checkpoint: Mutex::new(shard.iter().map(Attachment::fork).collect()),
            });
            let (tx, rx) = sync_channel::<Msg<M>>(QUEUE_DEPTH);
            let ctx = WorkerCtx {
                sink: Arc::clone(&sink),
                error: Arc::clone(&error),
                wm,
                sm: shard_metrics.clone(),
                metrics: metrics.clone(),
                shared: Arc::clone(&shared),
                trace: match &tracer {
                    Some(t) => t.register(&format!("{trace_prefix}worker-{w}")),
                    None => TraceHandle::off(),
                },
            };
            let handle = spawn_worker(shard, rx, ctx);
            slots.push(Mutex::new(WorkerSlot {
                sender: tx,
                handle: Some(handle),
                log: VecDeque::new(),
                sent: 0,
                restarts: 0,
                dead: false,
                shared,
            }));
        }
        Ok(Runner {
            core: Arc::new(Core {
                slots,
                routes: RwLock::new(routes),
                homes: Mutex::new(homes),
                generations: Mutex::new(HashMap::new()),
                pending: Mutex::new(HashMap::new()),
                max_batch: AtomicUsize::new(DEFAULT_MAX_BATCH),
                linger: AtomicU64::new(0),
                next_attachment: AtomicU32::new(next_id),
                error,
                worker_metrics,
                shard_metrics,
                metrics,
                sink,
                restart,
                tracer,
                trace_prefix: trace_prefix.to_string(),
                sup_trace,
            }),
            janitor: None,
        })
    }

    /// Sets the frame size: [`Runner::push`] buffers this many samples
    /// per stream before enqueuing a frame (clamped to ≥ 1;
    /// `1` reproduces per-sample messaging exactly). Call before
    /// pushing; changing it mid-stream only affects future frames.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.core
            .max_batch
            .store(max_batch.max(1), Ordering::Relaxed);
    }

    /// The configured frame size (default [`DEFAULT_MAX_BATCH`]).
    pub fn max_batch(&self) -> usize {
        self.core.max_batch.load(Ordering::Relaxed)
    }

    /// Sets the linger deadline for partial frames: a janitor thread
    /// flushes any stream whose pending buffer has been non-empty for
    /// at least `linger`, bounding match latency on slow streams.
    /// `Duration::ZERO` (the default) disables lingering — partial
    /// frames then wait for [`Runner::flush`]/[`Runner::finish_stream`]/
    /// [`Runner::shutdown`] exactly as before, so at `max_batch = 1`
    /// (where no partial frame ever exists) a configured linger changes
    /// nothing about the transcript.
    pub fn set_linger(&mut self, linger: Duration) {
        let nanos = u64::try_from(linger.as_nanos()).unwrap_or(u64::MAX);
        self.core.linger.store(nanos, Ordering::Relaxed);
        if nanos > 0 && self.janitor.is_none() {
            let core = Arc::clone(&self.core);
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let stop2 = Arc::clone(&stop);
            let handle = thread::spawn(move || {
                let (lock, cv) = &*stop2;
                let mut stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !*stopped {
                    let nanos = core.linger.load(Ordering::Relaxed);
                    // Wake about twice per linger so a frame overstays
                    // its deadline by at most ~50%.
                    let interval = if nanos == 0 {
                        Duration::from_millis(50)
                    } else {
                        Duration::from_nanos(nanos / 2)
                            .clamp(Duration::from_millis(1), Duration::from_millis(50))
                    };
                    let (g, _) = cv
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = g;
                    if *stopped {
                        break;
                    }
                    let nanos = core.linger.load(Ordering::Relaxed);
                    if nanos > 0 {
                        core.flush_lingering(Duration::from_nanos(nanos));
                    }
                }
            });
            self.janitor = Some(Janitor { stop, handle });
        }
    }

    /// The configured linger deadline (`Duration::ZERO` = off).
    pub fn linger(&self) -> Duration {
        Duration::from_nanos(self.core.linger.load(Ordering::Relaxed))
    }

    /// Adds an attachment while the runner is live, on the least-loaded
    /// worker (fewest attachments), and returns its id. The attachment
    /// sees every sample pushed to its stream *after* this call returns.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when the chosen worker is
    /// permanently lost.
    pub fn attach(&self, spec: RunnerAttachment<M>) -> Result<AttachmentId, MonitorError> {
        let id = AttachmentId(self.core.next_attachment.fetch_add(1, Ordering::Relaxed));
        self.core.attach_with_id(id, spec)?;
        Ok(id)
    }

    /// [`Runner::attach`] with a caller-assigned id (the
    /// [`crate::ShardedRunner`] allocates ids globally).
    pub(crate) fn attach_with_id(
        &self,
        id: AttachmentId,
        spec: RunnerAttachment<M>,
    ) -> Result<(), MonitorError> {
        self.core.attach_with_id(id, spec)
    }

    /// Removes a live attachment: flushes its stream's pending partial
    /// frame (so buffered samples are still monitored), detaches the
    /// monitor, and drops the route if it was the stream's last watcher.
    ///
    /// # Errors
    /// [`MonitorError::UnknownAttachment`] for an id never attached (or
    /// already detached); [`MonitorError::WorkerLost`] when the owning
    /// worker is permanently lost.
    pub fn detach(&self, id: AttachmentId) -> Result<(), MonitorError> {
        self.core.detach(id)
    }

    /// Atomically re-points every attachment of `query` at a new
    /// pattern, returning the query's new generation.
    ///
    /// The swap lands on a **frame boundary**: affected streams'
    /// pending partial frames are flushed first (those samples are
    /// monitored under the old pattern), then a swap control message is
    /// enqueued to every owning worker through the same logged,
    /// replayed path as frames — so per worker the swap point in the
    /// sample order is exact, checkpoints capture post-swap monitors,
    /// and a worker restart re-applies the swap at the same position.
    /// Each attachment is rebuilt from its stored recipe
    /// ([`RunnerAttachment::with_builder`] /
    /// [`RunnerAttachment::spring`]) with fresh DP state — exactly as
    /// if it had been detached and re-attached with the new pattern.
    ///
    /// # Errors
    /// Invalid patterns (empty, non-finite, ragged channels) are
    /// rejected up front with no state change.
    /// [`MonitorError::WorkerLost`] when an owning worker is
    /// permanently lost; an attachment without a stored recipe fails
    /// worker-side and surfaces at [`Runner::shutdown`].
    pub fn swap_query(&self, query: QueryId, samples: &[Owned<M>]) -> Result<u64, MonitorError> {
        self.core.swap_query(query, samples, true)
    }

    /// [`Runner::swap_query`] with the metric bump made optional: a
    /// [`crate::ShardedRunner`] broadcasts one logical swap to every
    /// shard but must count it once.
    pub(crate) fn swap_query_recorded(
        &self,
        query: QueryId,
        samples: &[Owned<M>],
        record_metrics: bool,
    ) -> Result<u64, MonitorError> {
        self.core.swap_query(query, samples, record_metrics)
    }

    /// The current hot-swap generation of `query` (`0` until its first
    /// [`Runner::swap_query`]).
    pub fn query_generation(&self, query: QueryId) -> u64 {
        self.core.query_generation(query)
    }

    /// Barrier: returns once every worker watching `stream` has drained
    /// all messages enqueued for it before this call — at which point
    /// every match implied by previously pushed (and flushed) samples
    /// has reached the sink. Samples still in the pending buffer are
    /// *not* flushed; call [`Runner::flush`] first when that matters.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when a watching worker is
    /// permanently lost before arriving.
    pub fn sync(&self, stream: StreamId) -> Result<(), MonitorError> {
        self.core.sync(stream)
    }

    /// Pushes one sample to `stream`: the sample joins the stream's
    /// pending buffer, and a frame is enqueued to every watching worker
    /// once [`Runner::max_batch`] samples have accumulated.
    ///
    /// Blocks briefly when a worker's queue is full (backpressure).
    /// With `max_batch > 1` a reported error may concern a sample from
    /// an *earlier* push of the same stream (the frame that just
    /// flushed); [`Runner::shutdown`] still surfaces the recorded
    /// ingestion error either way.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when a watching worker is
    /// permanently lost (recorded ingestion error, or a panic loop that
    /// exhausted the restart budget).
    pub fn push(&self, stream: StreamId, sample: &M::Sample) -> Result<(), MonitorError> {
        self.core.push(stream, sample)
    }

    /// Pushes a whole slice of samples to `stream` (batch form of
    /// [`Runner::push`]): samples join the pending buffer and full
    /// frames are enqueued as it fills.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] — see [`Runner::push`].
    pub fn push_batch(&self, stream: StreamId, samples: &[Owned<M>]) -> Result<(), MonitorError> {
        self.core.push_batch(stream, samples)
    }

    /// Enqueues the stream's pending partial frame immediately (a no-op
    /// when nothing is buffered). [`Runner::finish_stream`] and
    /// [`Runner::shutdown`] call this implicitly.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] — see [`Runner::push`].
    pub fn flush(&self, stream: StreamId) -> Result<(), MonitorError> {
        self.core.flush(stream)
    }

    /// Flushes the stream's pending frame, then its attachments' pending
    /// group optima.
    ///
    /// # Errors
    /// [`MonitorError::WorkerLost`] when a watching worker is
    /// permanently lost.
    pub fn finish_stream(&self, stream: StreamId) -> Result<(), MonitorError> {
        self.core.finish_stream(stream)
    }

    /// Drains all queues, stops the workers, and joins them.
    ///
    /// Pending partial frames are flushed first, in ascending
    /// `StreamId` order (deterministic error precedence). Dead workers
    /// are healed (restarted from checkpoint + replayed) before the
    /// drain, so every queued sample is processed unless a worker is
    /// permanently lost — in which case the error below is returned and
    /// some samples may not have been monitored.
    ///
    /// # Errors
    /// The lowest-ranked ingestion error recorded by any worker
    /// ([`MonitorError::MissingSample`] ordered by (stream, tick) first),
    /// or [`MonitorError::WorkerLost`] when a worker was permanently
    /// lost (panic with supervision off, or restart budget exhausted).
    pub fn shutdown(self) -> Result<(), MonitorError> {
        // Dropping the handle joins the janitor first, so no flush races
        // the drain; the workers keep running — the core keeps them
        // alive until it finishes the drain below.
        let core = Arc::clone(&self.core);
        drop(self);
        core.shutdown()
    }
}

impl<M> Core<M>
where
    M: Monitor + Clone + Send + 'static,
    Owned<M>: Clone + Send,
{
    fn push(&self, stream: StreamId, sample: &M::Sample) -> Result<(), MonitorError> {
        let max_batch = self.max_batch.load(Ordering::Relaxed);
        let mut pending = self.lock_pending();
        let buf = pending.entry(stream).or_default();
        if buf.samples.is_empty() && self.linger.load(Ordering::Relaxed) > 0 {
            buf.since = Some(Instant::now());
        }
        buf.samples.push(sample.to_owned());
        if buf.samples.len() >= max_batch {
            let frame = buf.take();
            return self.send_frame(stream, frame);
        }
        Ok(())
    }

    fn push_batch(&self, stream: StreamId, samples: &[Owned<M>]) -> Result<(), MonitorError> {
        if samples.is_empty() {
            return Ok(());
        }
        let max_batch = self.max_batch.load(Ordering::Relaxed);
        let mut pending = self.lock_pending();
        let buf = pending.entry(stream).or_default();
        if buf.samples.is_empty() && self.linger.load(Ordering::Relaxed) > 0 {
            buf.since = Some(Instant::now());
        }
        buf.samples.extend(samples.iter().cloned());
        while buf.samples.len() >= max_batch {
            let frame: Vec<Owned<M>> = buf.samples.drain(..max_batch).collect();
            self.send_frame(stream, frame)?;
        }
        if buf.samples.is_empty() {
            buf.since = None;
        }
        Ok(())
    }

    fn flush(&self, stream: StreamId) -> Result<(), MonitorError> {
        let mut pending = self.lock_pending();
        self.flush_locked(&mut pending, stream)
    }

    /// Flushes `stream`'s pending frame with the buffer lock held (so
    /// frame order per stream is total even across pusher threads).
    fn flush_locked(
        &self,
        pending: &mut HashMap<StreamId, PendingBuf<M>>,
        stream: StreamId,
    ) -> Result<(), MonitorError> {
        match pending.get_mut(&stream) {
            Some(buf) if !buf.samples.is_empty() => {
                let frame = buf.take();
                self.send_frame(stream, frame)
            }
            _ => Ok(()),
        }
    }

    /// Janitor body: flushes every stream whose partial frame is older
    /// than `linger`, in `StreamId` order. A lost worker is left for the
    /// pusher to discover — the janitor only bounds latency.
    fn flush_lingering(&self, linger: Duration) {
        let mut pending = self.lock_pending();
        let mut due: Vec<StreamId> = pending
            .iter()
            .filter(|(_, buf)| {
                !buf.samples.is_empty() && buf.since.is_some_and(|t| t.elapsed() >= linger)
            })
            .map(|(&s, _)| s)
            .collect();
        due.sort_unstable();
        for s in due {
            let _ = self.flush_locked(&mut pending, s);
        }
    }

    /// Enqueues one frame to every worker watching `stream`.
    fn send_frame(&self, stream: StreamId, samples: Vec<Owned<M>>) -> Result<(), MonitorError> {
        if let Some(m) = &self.metrics {
            m.record_batch(samples.len());
        }
        self.route(stream, |s| Msg::Frame {
            stream: s,
            samples: samples.clone(),
        })
    }

    fn finish_stream(&self, stream: StreamId) -> Result<(), MonitorError> {
        let mut pending = self.lock_pending();
        self.flush_locked(&mut pending, stream)?;
        self.route(stream, Msg::FinishStream)
    }

    fn lock_slot(&self, w: usize) -> MutexGuard<'_, WorkerSlot<M>> {
        self.slots[w].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_pending(&self) -> MutexGuard<'_, HashMap<StreamId, PendingBuf<M>>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_homes(&self) -> MutexGuard<'_, HashMap<AttachmentId, (usize, StreamId, QueryId)>> {
        self.homes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Workers currently routed for `stream`.
    fn watchers(&self, stream: StreamId) -> Vec<usize> {
        self.routes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&stream)
            .cloned()
            .unwrap_or_default()
    }

    /// Enqueues one message to worker `w` with its slot locked: logs it,
    /// bumps the depth gauges, sends, and heals on a dead channel.
    /// `false` when the worker is (or became) permanently lost.
    fn enqueue(&self, w: usize, slot: &mut WorkerSlot<M>, m: Msg<M>) -> bool {
        // Drop log entries already covered by a checkpoint.
        prune_log(slot);
        slot.sent += 1;
        let seq = slot.sent;
        slot.log.push_back((seq, m.clone()));
        // Depth is incremented *before* the send so the worker's
        // decrement (which can only happen after the send) never
        // transiently underflows the gauges.
        if let Some(wm) = &self.worker_metrics[w] {
            wm.queue_depth.add(1);
        }
        if let Some(sm) = &self.shard_metrics {
            sm.queue_depth.add(1);
        }
        // A worker only stops receiving after Shutdown, a recorded
        // error, or a panic — a failed send means it is gone: try to
        // heal it (the message is already in the log, so a successful
        // heal replays it).
        !(slot.sender.send(m).is_err() && self.heal(w, slot).is_err())
    }

    fn route(
        &self,
        stream: StreamId,
        mut msg: impl FnMut(StreamId) -> Msg<M>,
    ) -> Result<(), MonitorError> {
        let mut lost = false;
        for w in self.watchers(stream) {
            let mut slot = self.lock_slot(w);
            if slot.dead {
                lost = true;
                continue;
            }
            if !self.enqueue(w, &mut slot, msg(stream)) {
                lost = true;
            }
        }
        if lost {
            Err(MonitorError::WorkerLost)
        } else {
            Ok(())
        }
    }

    fn attach_with_id(
        &self,
        id: AttachmentId,
        spec: RunnerAttachment<M>,
    ) -> Result<(), MonitorError> {
        let stream = spec.stream;
        // Least-loaded worker, lowest index on ties.
        let w = {
            let homes = self.lock_homes();
            let mut counts = vec![0usize; self.slots.len()];
            for &(wk, _, _) in homes.values() {
                counts[wk] += 1;
            }
            counts
                .iter()
                .enumerate()
                .min_by_key(|&(i, c)| (*c, i))
                .map(|(i, _)| i)
                .expect("runner has at least one worker")
        };
        let query_id = spec.query_id;
        let mut attachment = Attachment::new(id, stream, query_id, spec.monitor, spec.gap_policy);
        if let Some(build) = spec.builder {
            attachment = attachment.with_builder(build);
        }
        if let Some(m) = &self.metrics {
            attachment.set_metrics(m);
        }
        {
            let mut slot = self.lock_slot(w);
            if slot.dead || !self.enqueue(w, &mut slot, Msg::Attach(Box::new(attachment))) {
                return Err(MonitorError::WorkerLost);
            }
        }
        self.lock_homes().insert(id, (w, stream, query_id));
        // Route added *after* the Attach is enqueued: the channel is
        // FIFO, so any frame routed from here on reaches the worker
        // after the attachment exists.
        let mut routes = self.routes.write().unwrap_or_else(PoisonError::into_inner);
        let entry = routes.entry(stream).or_default();
        if !entry.contains(&w) {
            entry.push(w);
        }
        Ok(())
    }

    fn detach(&self, id: AttachmentId) -> Result<(), MonitorError> {
        let (w, stream, _) = self
            .lock_homes()
            .remove(&id)
            .ok_or(MonitorError::UnknownAttachment(id))?;
        // Buffered samples still belong to the attachment: flush before
        // it leaves. A lost worker surfaces below either way.
        let _ = self.flush(stream);
        let sent = {
            let mut slot = self.lock_slot(w);
            !slot.dead && self.enqueue(w, &mut slot, Msg::Detach(id))
        };
        // Recompute the stream's route from the remaining attachments.
        let workers: Vec<usize> = {
            let homes = self.lock_homes();
            let mut ws: Vec<usize> = homes
                .values()
                .filter(|&&(_, s, _)| s == stream)
                .map(|&(wk, _, _)| wk)
                .collect();
            ws.sort_unstable();
            ws.dedup();
            ws
        };
        let mut routes = self.routes.write().unwrap_or_else(PoisonError::into_inner);
        if workers.is_empty() {
            routes.remove(&stream);
        } else {
            routes.insert(stream, workers);
        }
        drop(routes);
        if sent {
            Ok(())
        } else {
            Err(MonitorError::WorkerLost)
        }
    }

    fn swap_query(
        &self,
        query: QueryId,
        samples: &[Owned<M>],
        record_metrics: bool,
    ) -> Result<u64, MonitorError> {
        validate_query_samples::<M>(samples)?;
        // Affected streams and owning workers, from the registry.
        let (streams, workers) = {
            let homes = self.lock_homes();
            let mut streams: Vec<StreamId> = Vec::new();
            let mut workers: Vec<usize> = Vec::new();
            for &(wk, s, q) in homes.values() {
                if q == query {
                    streams.push(s);
                    workers.push(wk);
                }
            }
            streams.sort_unstable();
            streams.dedup();
            workers.sort_unstable();
            workers.dedup();
            (streams, workers)
        };
        // Frame boundary: buffered samples were pushed before the swap,
        // so they are monitored under the old pattern. A lost worker
        // surfaces below either way.
        for &s in &streams {
            let _ = self.flush(s);
        }
        let generation = {
            let mut gens = self
                .generations
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let g = gens.entry(query).or_insert(0);
            *g += 1;
            *g
        };
        let mut lost = false;
        for w in workers {
            let mut slot = self.lock_slot(w);
            if slot.dead {
                lost = true;
                continue;
            }
            let msg = Msg::Swap {
                query,
                samples: samples.to_vec(),
                generation,
            };
            if !self.enqueue(w, &mut slot, msg) {
                lost = true;
            }
        }
        if record_metrics {
            if let Some(m) = &self.metrics {
                m.query_swaps.inc();
                m.query_generation.set(generation);
            }
        }
        if lost {
            Err(MonitorError::WorkerLost)
        } else {
            Ok(generation)
        }
    }

    fn query_generation(&self, query: QueryId) -> u64 {
        *self
            .generations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&query)
            .unwrap_or(&0)
    }

    fn sync(&self, stream: StreamId) -> Result<(), MonitorError> {
        let workers = self.watchers(stream);
        if workers.is_empty() {
            return Ok(());
        }
        let point = Arc::new(SyncPoint::new(workers.len()));
        self.route(stream, |_| Msg::Sync(Arc::clone(&point)))?;
        loop {
            if point.wait_for(Duration::from_millis(50)) {
                return Ok(());
            }
            // Not everyone arrived within the poll interval: make sure
            // the stragglers are still alive (a healed worker re-arrives
            // via the replayed Sync in its log).
            for &w in &workers {
                let mut slot = self.lock_slot(w);
                if slot.dead {
                    return Err(MonitorError::WorkerLost);
                }
                if slot.handle.as_ref().is_none_or(|h| h.is_finished())
                    && self.heal(w, &mut slot).is_err()
                {
                    return Err(MonitorError::WorkerLost);
                }
            }
        }
    }

    /// Restarts a dead worker from its last checkpoint and replays the
    /// log tail. Called with the slot lock held; on `Err` the worker is
    /// permanently lost (`slot.dead`).
    fn heal(&self, w: usize, slot: &mut WorkerSlot<M>) -> Result<(), MonitorError> {
        'attempt: loop {
            // Collect the dead thread (its panic payload is dropped; the
            // in-thread guard already counted the loss).
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
            if slot.shared.failed.load(Ordering::Acquire) {
                // Ingestion error: deliberate stop, never restarted; the
                // recorded error surfaces at shutdown.
                slot.dead = true;
                self.postmortem(w, "ingest-error");
                return Err(MonitorError::WorkerLost);
            }
            if slot.restarts >= self.restart.max_restarts {
                slot.dead = true;
                self.postmortem(w, "restarts-exhausted");
                return Err(MonitorError::WorkerLost);
            }
            slot.restarts += 1;
            self.sup_trace[w].instant(TraceKind::WorkerRestart, w as u64);
            if let Some(m) = &self.metrics {
                m.worker_restarts.inc();
            }
            if let Some(sm) = &self.shard_metrics {
                sm.restarts.inc();
            }
            thread::sleep(self.restart.backoff(slot.restarts));
            // The worker is dead and we hold its slot lock, so nothing
            // races the gauges: reset the worker's (messages queued at
            // crash time were incremented but never dequeued) and give
            // the same amount back to the shard mirror; the replay below
            // re-increments per message it resends.
            if let Some(wm) = &self.worker_metrics[w] {
                let stale = wm.queue_depth.get();
                wm.queue_depth.set(0);
                if let Some(sm) = &self.shard_metrics {
                    sm.queue_depth.add(-(stale as i64));
                }
            }
            prune_log(slot);
            // Respawn from the checkpointed shard …
            let shard: Vec<Attachment<M>> = {
                let cp = slot
                    .shared
                    .checkpoint
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                cp.iter().map(Attachment::fork).collect()
            };
            let (tx, rx) = sync_channel::<Msg<M>>(QUEUE_DEPTH);
            let ctx = WorkerCtx {
                sink: Arc::clone(&self.sink),
                error: Arc::clone(&self.error),
                wm: self.worker_metrics[w].clone(),
                sm: self.shard_metrics.clone(),
                metrics: self.metrics.clone(),
                shared: Arc::clone(&slot.shared),
                trace: match &self.tracer {
                    Some(t) => t.register(&format!("{}worker-{w}", self.trace_prefix)),
                    None => TraceHandle::off(),
                },
            };
            let handle = spawn_worker(shard, rx, ctx);
            slot.sender = tx;
            slot.handle = Some(handle);
            // … and replay the uncheckpointed tail. Delivery is at least
            // once: a match confirmed between the checkpoint and the
            // crash is emitted to the sink again here.
            let replay_span = self.sup_trace[w].now();
            let replayed = slot.log.len() as u64;
            for (_, m) in &slot.log {
                if let Some(wm) = &self.worker_metrics[w] {
                    wm.queue_depth.add(1);
                }
                if let Some(sm) = &self.shard_metrics {
                    sm.queue_depth.add(1);
                }
                if slot.sender.send(m.clone()).is_err() {
                    // Died again mid-replay; spend another restart.
                    continue 'attempt;
                }
            }
            self.sup_trace[w].span(replay_span, TraceKind::Replay, replayed);
            // The healed timeline — the dead incarnation's final events,
            // the restart instant, the replay — is exactly what a
            // postmortem should hold; dump it while it is fresh.
            self.postmortem(w, "worker-restarted");
            return Ok(());
        }
    }

    /// Dumps the flight recorder after worker `w` was lost (best
    /// effort; a no-op without a tracer or a postmortem directory).
    fn postmortem(&self, w: usize, reason: &str) {
        if let Some(t) = &self.tracer {
            let _ = t.postmortem_dump(&format!("{}{reason}-worker-{w}", self.trace_prefix));
        }
    }

    fn shutdown(&self) -> Result<(), MonitorError> {
        // Flush every stream's pending partial frame first — nothing
        // buffered at the pusher may be dropped. Ascending StreamId
        // order: HashMap iteration order varies per process, and the
        // first frame to reach a failing worker decides which error
        // surfaces.
        let mut flush_err = None;
        {
            let mut pending = self.lock_pending();
            let mut streams: Vec<StreamId> = pending.keys().copied().collect();
            streams.sort_unstable();
            for s in streams {
                if let Err(e) = self.flush_locked(&mut pending, s) {
                    flush_err.get_or_insert(e);
                }
            }
        }
        let mut permanent = false;
        for (w, slot) in self.slots.iter().enumerate() {
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if slot.dead {
                    permanent = true;
                    break;
                }
                let finished = slot.handle.as_ref().is_none_or(|h| h.is_finished());
                // A thread gone before Shutdown died abnormally: heal it
                // so its queued/unreplayed samples are still processed.
                if finished || slot.sender.send(Msg::Shutdown).is_err() {
                    if self.heal(w, &mut slot).is_err() {
                        permanent = true;
                        break;
                    }
                    continue; // healed: re-attempt the Shutdown send
                }
                let handle = slot.handle.take().expect("live worker has a join handle");
                match handle.join() {
                    Ok(()) => break, // drained cleanly
                    Err(_) => {
                        // Panicked while draining; heal and re-drain.
                        if self.heal(w, &mut slot).is_err() {
                            permanent = true;
                            break;
                        }
                    }
                }
            }
        }
        let recorded = self
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match recorded {
            Some(e) => Err(e),
            None if permanent => Err(MonitorError::WorkerLost),
            None => match flush_err {
                Some(e) => Err(e),
                None => Ok(()),
            },
        }
    }
}

/// Drops log entries whose effects are contained in the checkpoint.
fn prune_log<M: Monitor>(slot: &mut WorkerSlot<M>) {
    let applied = slot.shared.applied.load(Ordering::Acquire);
    while slot.log.front().is_some_and(|&(seq, _)| seq <= applied) {
        slot.log.pop_front();
    }
}

/// Total order over ingestion errors, so concurrent workers surface the
/// same error regardless of scheduling: missing samples (ordered by
/// stream, then tick) rank before other ingestion errors, which rank
/// before [`MonitorError::WorkerLost`].
pub(crate) fn error_rank(e: &MonitorError) -> (u8, u64, u64) {
    match e {
        MonitorError::MissingSample { stream, tick } => (0, u64::from(stream.0), *tick),
        MonitorError::WorkerLost => (2, 0, 0),
        _ => (1, 0, 0),
    }
}

fn record_error(slot: &Mutex<Option<MonitorError>>, e: MonitorError) {
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if guard
        .as_ref()
        .is_none_or(|cur| error_rank(&e) < error_rank(cur))
    {
        *guard = Some(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Event;
    use crate::sink::{FnSink, VecSink};
    use spring_core::{Spring, VectorSpring};
    use spring_dtw::Kernel;

    type SpringRunner = Runner<Spring<Kernel>>;

    fn spike_stream(spike_at: &[usize], len: usize) -> Vec<f64> {
        let mut v = vec![50.0; len];
        for &s in spike_at {
            v[s] = 0.0;
            v[s + 1] = 10.0;
            v[s + 2] = 0.0;
        }
        v
    }

    fn spike_attachment(stream: StreamId, qid: u32) -> RunnerAttachment<Spring<Kernel>> {
        RunnerAttachment::spring(
            stream,
            QueryId(qid),
            &[0.0, 10.0, 0.0],
            1.0,
            GapPolicy::Skip,
        )
        .unwrap()
    }

    #[test]
    fn single_worker_end_to_end() {
        let sink = Arc::new(VecSink::new());
        let runner =
            SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink.clone()).unwrap();
        for x in spike_stream(&[4, 15], 25) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].m.start, 5);
        assert_eq!(events[1].m.start, 16);
    }

    #[test]
    fn many_workers_many_streams() {
        let sink = Arc::new(VecSink::new());
        let n_streams = 6;
        let attachments: Vec<_> = (0..n_streams)
            .map(|s| spike_attachment(StreamId(s), s))
            .collect();
        let runner = SpringRunner::spawn(attachments, 3, sink.clone()).unwrap();
        for s in 0..n_streams {
            for x in spike_stream(&[3 + s as usize], 20) {
                runner.push(StreamId(s), &x).unwrap();
            }
            runner.finish_stream(StreamId(s)).unwrap();
        }
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), n_streams as usize);
        for s in 0..n_streams {
            let ev = events.iter().find(|e| e.stream == StreamId(s)).unwrap();
            assert_eq!(ev.m.start, 4 + s as u64);
        }
    }

    #[test]
    fn per_stream_event_order_is_preserved() {
        let sink = Arc::new(VecSink::new());
        let runner =
            SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink.clone()).unwrap();
        for x in spike_stream(&[3, 10, 17, 24], 32) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![4, 11, 18, 25]);
    }

    #[test]
    fn zero_workers_rejected() {
        let sink = Arc::new(VecSink::new());
        assert!(SpringRunner::spawn(vec![], 0, sink).is_err());
    }

    #[test]
    fn shutdown_with_no_traffic_joins_cleanly() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 4, sink).unwrap();
        runner.shutdown().unwrap();
    }

    #[test]
    fn fail_policy_error_is_recorded_and_surfaced_at_shutdown() {
        let sink = Arc::new(VecSink::new());
        let att = RunnerAttachment::spring(
            StreamId(0),
            QueryId(0),
            &[0.0, 10.0, 0.0],
            1.0,
            GapPolicy::Fail,
        )
        .unwrap();
        let runner = SpringRunner::spawn(vec![att], 1, sink).unwrap();
        runner.push(StreamId(0), &1.0).unwrap();
        // The worker records the error and stops; the push itself may
        // still succeed (the queue accepts it before processing).
        let _ = runner.push(StreamId(0), &f64::NAN);
        assert_eq!(
            runner.shutdown(),
            Err(MonitorError::MissingSample {
                stream: StreamId(0),
                tick: 2
            })
        );
    }

    #[test]
    fn shutdown_surfaces_the_lowest_stream_error_deterministically() {
        // Regression: two Fail-policy attachments on streams 5 and 1
        // share one worker, and both buffers hold a NaN at shutdown.
        // Whichever frame the drain sends first decides the surfaced
        // error — so the drain must flush in StreamId order, not the
        // run-dependent HashMap iteration order.
        for _ in 0..8 {
            let sink = Arc::new(VecSink::new());
            let atts = vec![
                RunnerAttachment::spring(
                    StreamId(5),
                    QueryId(0),
                    &[0.0, 10.0, 0.0],
                    1.0,
                    GapPolicy::Fail,
                )
                .unwrap(),
                RunnerAttachment::spring(
                    StreamId(1),
                    QueryId(1),
                    &[0.0, 10.0, 0.0],
                    1.0,
                    GapPolicy::Fail,
                )
                .unwrap(),
            ];
            let runner = SpringRunner::spawn(atts, 1, sink).unwrap();
            runner.push(StreamId(5), &f64::NAN).unwrap();
            runner.push(StreamId(1), &f64::NAN).unwrap();
            assert_eq!(
                runner.shutdown(),
                Err(MonitorError::MissingSample {
                    stream: StreamId(1),
                    tick: 1
                })
            );
        }
    }

    #[test]
    fn pushes_after_a_worker_dies_report_worker_lost() {
        let sink = Arc::new(VecSink::new());
        let att = RunnerAttachment::spring(
            StreamId(0),
            QueryId(0),
            &[0.0, 10.0, 0.0],
            1.0,
            GapPolicy::Fail,
        )
        .unwrap();
        let runner = SpringRunner::spawn(vec![att], 1, sink).unwrap();
        let _ = runner.push(StreamId(0), &f64::NAN);
        // The worker drops its receiver once the error is recorded, so a
        // later push fails fast instead of deadlocking on a full queue —
        // and the supervisor refuses to restart after ingestion errors.
        let mut lost = false;
        for _ in 0..100_000 {
            if runner.push(StreamId(0), &1.0).is_err() {
                lost = true;
                break;
            }
            thread::yield_now();
        }
        assert!(lost, "push kept succeeding after the worker died");
        assert!(runner.shutdown().is_err());
    }

    #[test]
    fn panicking_sink_surfaces_worker_lost_on_shutdown() {
        let sink = Arc::new(FnSink(|_: &crate::engine::Event| {
            panic!("sink exploded");
        }));
        let runner = SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink).unwrap();
        for x in spike_stream(&[2], 8) {
            let _ = runner.push(StreamId(0), &x);
        }
        // The supervisor retries (replay re-panics each time) until the
        // restart budget is exhausted, then reports the permanent loss.
        assert_eq!(runner.shutdown(), Err(MonitorError::WorkerLost));
    }

    #[test]
    fn vector_attachments_run_through_the_same_worker_loop() {
        let sink = Arc::new(VecSink::new());
        let rows = [vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]];
        let monitor = VectorSpring::with_kernel(&rows, 1.0, Kernel::Squared).unwrap();
        let att = RunnerAttachment::new(StreamId(0), QueryId(0), monitor, GapPolicy::Skip);
        let runner = Runner::spawn(vec![att], 2, sink.clone()).unwrap();
        for _ in 0..3 {
            runner.push(StreamId(0), &[40.0, 40.0][..]).unwrap();
        }
        for row in &rows {
            runner.push(StreamId(0), row.as_slice()).unwrap();
        }
        for _ in 0..3 {
            runner.push(StreamId(0), &[40.0, 40.0][..]).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (4, 6));
        assert_eq!(events[0].variant, spring_core::MonitorVariant::Vector);
    }

    // ---- dynamic attachments / sync ------------------------------------

    #[test]
    fn attach_detach_and_sync_at_runtime() {
        let sink = Arc::new(VecSink::new());
        let mut runner = SpringRunner::spawn(Vec::new(), 2, sink.clone()).unwrap();
        runner.set_max_batch(1);
        let id = runner.attach(spike_attachment(StreamId(7), 3)).unwrap();
        for x in spike_stream(&[4], 12) {
            runner.push(StreamId(7), &x).unwrap();
        }
        // The barrier guarantees the match has reached the sink.
        runner.sync(StreamId(7)).unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attachment, id);
        assert_eq!(events[0].query, QueryId(3));
        assert_eq!(events[0].m.start, 5);
        runner.detach(id).unwrap();
        // Detached: pushes to the stream are silently unrouted, and the
        // id cannot be detached twice.
        runner.push(StreamId(7), &1.0).unwrap();
        assert_eq!(runner.detach(id), Err(MonitorError::UnknownAttachment(id)));
        runner.shutdown().unwrap();
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn sync_on_an_unwatched_stream_returns_immediately() {
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn(Vec::new(), 1, sink).unwrap();
        runner.sync(StreamId(42)).unwrap();
        runner.shutdown().unwrap();
    }

    #[test]
    fn attachments_added_at_runtime_survive_a_worker_restart() {
        // The Attach message is logged and replayed like a frame: a
        // worker killed by a flaky sink must reconstruct an attachment
        // it gained after its last checkpoint.
        let sink = Arc::new(FlakySink::new(1));
        let mut runner = SpringRunner::spawn(Vec::new(), 1, sink.clone()).unwrap();
        runner.set_max_batch(1);
        runner.attach(spike_attachment(StreamId(0), 0)).unwrap();
        for x in spike_stream(&[4, 15], 25) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.inner.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![5, 16]);
    }

    // ---- linger --------------------------------------------------------

    #[test]
    fn linger_flushes_partial_frames_without_an_explicit_flush() {
        let sink = Arc::new(VecSink::new());
        let mut runner =
            SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink.clone()).unwrap();
        runner.set_linger(Duration::from_millis(5));
        assert_eq!(runner.linger(), Duration::from_millis(5));
        // 7 samples ≪ DEFAULT_MAX_BATCH: without a linger these would
        // sit in the pending buffer until finish/shutdown.
        for x in spike_stream(&[2], 7) {
            runner.push(StreamId(0), &x).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.events().is_empty() {
            assert!(Instant::now() < deadline, "linger janitor never flushed");
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(sink.events()[0].m.start, 3);
        runner.shutdown().unwrap();
    }

    #[test]
    fn linger_transcript_matches_linger_free_at_batch_one() {
        // At max_batch = 1 no partial frame ever exists, so a configured
        // linger must not change the transcript in any way.
        let stream = spike_stream(&[3, 10, 17], 26);
        let run = |linger: Option<Duration>| {
            let sink = Arc::new(VecSink::new());
            let mut runner =
                SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink.clone())
                    .unwrap();
            runner.set_max_batch(1);
            if let Some(d) = linger {
                runner.set_linger(d);
            }
            for x in &stream {
                runner.push(StreamId(0), x).unwrap();
            }
            runner.finish_stream(StreamId(0)).unwrap();
            runner.shutdown().unwrap();
            sink.events()
                .iter()
                .map(|e| (e.m.start, e.m.end, e.m.distance.to_bits()))
                .collect::<Vec<_>>()
        };
        let free = run(None);
        assert!(!free.is_empty());
        assert_eq!(free, run(Some(Duration::from_millis(1))));
    }

    // ---- supervision ---------------------------------------------------

    /// A sink that panics on the first `panics` deliveries, then records
    /// into an inner [`VecSink`].
    struct FlakySink {
        remaining: AtomicU64,
        inner: VecSink,
    }

    impl FlakySink {
        fn new(panics: u64) -> Self {
            FlakySink {
                remaining: AtomicU64::new(panics),
                inner: VecSink::new(),
            }
        }
    }

    impl MatchSink for FlakySink {
        fn on_match(&self, event: &Event) {
            let left = self.remaining.load(Ordering::Relaxed);
            if left > 0 {
                self.remaining.store(left - 1, Ordering::Relaxed);
                panic!("flaky sink: injected panic ({left} left)");
            }
            self.inner.on_match(event);
        }
    }

    #[test]
    fn supervisor_restarts_a_worker_killed_by_a_flaky_sink() {
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(FlakySink::new(1));
        let runner = SpringRunner::spawn_with_policy(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
            RestartPolicy::default(),
        )
        .unwrap();
        // Two spikes: the first match panics the sink and kills the
        // worker; the supervisor must restart + replay so both matches
        // are delivered anyway.
        for x in spike_stream(&[4, 15], 25) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.inner.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![5, 16], "no match may be dropped");
        let snap = metrics.snapshot();
        assert_eq!(snap.worker_lost_total, 1);
        assert_eq!(snap.worker_restarts_total, 1);
        assert_eq!(snap.runner_queue_depth(), 0, "gauge must recover to 0");
    }

    #[test]
    fn supervision_off_keeps_the_fail_fast_behavior() {
        let sink = Arc::new(FlakySink::new(1));
        let runner = SpringRunner::spawn_with_policy(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            None,
            RestartPolicy::none(),
        )
        .unwrap();
        for x in spike_stream(&[4], 12) {
            let _ = runner.push(StreamId(0), &x);
        }
        assert_eq!(runner.shutdown(), Err(MonitorError::WorkerLost));
        assert!(sink.inner.events().is_empty());
    }

    #[test]
    fn restart_replays_from_a_late_checkpoint() {
        // Long quiet stream first so several checkpoints are taken, then
        // a crash right at the match: the replay tail must still contain
        // the spike (no false dismissal after recovery).
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(FlakySink::new(1));
        let runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        let len = (CHECKPOINT_EVERY * 5 + 17) as usize;
        let spike_at = len - 6;
        for x in spike_stream(&[spike_at], len) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.inner.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![spike_at as u64 + 1]);
        assert_eq!(metrics.snapshot().worker_restarts_total, 1);
    }

    #[test]
    fn worker_restart_mid_frame_drops_and_duplicates_nothing() {
        // Regression (frame-granular recovery): two matches land inside
        // ONE frame, and the sink panics on the first delivery — i.e.
        // the worker dies *mid-frame*. The supervisor must restart from
        // the pre-frame checkpoint and replay the whole frame, so the
        // final match set is exactly {first, second}: the first match is
        // not dropped (its delivery panicked before being recorded) and
        // neither match is duplicated (replay re-runs the frame once
        // against the pre-frame state).
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(FlakySink::new(1));
        let mut runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        runner.set_max_batch(32);
        // 25 samples with spikes at 4 and 15: both matches sit inside a
        // single 25-sample frame (flushed by finish_stream).
        for x in spike_stream(&[4, 15], 25) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.inner.events().iter().map(|e| e.m.start).collect();
        assert_eq!(
            starts,
            vec![5, 16],
            "mid-frame restart must neither drop nor duplicate matches"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.worker_restarts_total, 1);
        assert_eq!(snap.runner_queue_depth(), 0);
        // Replay re-processed the frame, so worker tick totals may
        // exceed the stream length — but never undercount it.
        let worker_ticks: u64 = snap.workers.iter().map(|w| w.ticks).sum();
        assert!(worker_ticks >= 25);
    }

    #[test]
    fn max_batch_one_reproduces_per_sample_messaging() {
        // `--batch 1` compatibility: every push flushes immediately, so
        // nothing sits in the pending buffer and the event sequence is
        // identical to the historical per-sample channel protocol.
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(VecSink::new());
        let mut runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        runner.set_max_batch(1);
        for x in spike_stream(&[3, 10], 20) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![4, 11]);
        let snap = metrics.snapshot();
        // 20 one-sample frames were recorded.
        assert_eq!(snap.batch_len.count, 20);
        assert_eq!(snap.batch_len.sum, 20.0);
    }

    #[test]
    fn explicit_flush_enqueues_a_partial_frame() {
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        // 7 samples < DEFAULT_MAX_BATCH: buffered until the explicit
        // flush, which sends one 7-sample frame.
        for x in spike_stream(&[2], 7) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.flush(StreamId(0)).unwrap();
        // Flushing an empty buffer is a no-op.
        runner.flush(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        assert_eq!(sink.events().len(), 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.batch_len.count, 1);
        assert_eq!(snap.batch_len.sum, 7.0);
    }

    #[test]
    fn push_batch_fills_and_flushes_full_frames() {
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(VecSink::new());
        let mut runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        runner.set_max_batch(8);
        let stream = spike_stream(&[3, 12], 20);
        runner.push_batch(StreamId(0), &stream).unwrap();
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![4, 13]);
        let snap = metrics.snapshot();
        // 20 samples at max_batch 8 ⇒ frames of 8, 8, then 4 (flushed
        // by finish_stream).
        assert_eq!(snap.batch_len.count, 3);
        assert_eq!(snap.batch_len.sum, 20.0);
        let worker_ticks: u64 = snap.workers.iter().map(|w| w.ticks).sum();
        assert_eq!(worker_ticks, 20);
    }

    #[test]
    fn shutdown_drains_queued_samples_before_joining() {
        // Regression: push a burst and shut down immediately — every
        // queued tick must still be processed (drain-before-join).
        let n = 600u64;
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        for i in 0..n {
            let x = if i == n - 3 {
                0.0
            } else if i == n - 2 {
                10.0
            } else if i == n - 1 {
                0.0
            } else {
                50.0
            };
            runner.push(StreamId(0), &x).unwrap();
        }
        // The finish marker is queued like any other message — nothing
        // below waits for the worker to reach it.
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        let worker_ticks: u64 = snap.workers.iter().map(|w| w.ticks).sum();
        assert_eq!(worker_ticks, n, "all queued samples must be drained");
        assert_eq!(snap.runner_queue_depth(), 0);
        // The spike at the stream tail was only queued, never explicitly
        // awaited — the drain must still confirm it.
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].m.start, n - 2);
    }

    #[test]
    fn shutdown_drains_even_across_a_mid_drain_panic() {
        let n = 40u64;
        let metrics = Arc::new(Metrics::new());
        // Panic on the first delivery: it happens *during* the drain
        // (shutdown already sent), so the heal-and-redrain path runs.
        let sink = Arc::new(FlakySink::new(1));
        let runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        let mut stream = vec![50.0; n as usize];
        stream[5] = 0.0;
        stream[6] = 10.0;
        stream[7] = 0.0;
        for x in &stream {
            runner.push(StreamId(0), x).unwrap();
        }
        runner.shutdown().unwrap();
        let starts: Vec<u64> = sink.inner.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![6]);
        let snap = metrics.snapshot();
        assert!(snap.worker_restarts_total >= 1);
        assert_eq!(snap.runner_queue_depth(), 0);
    }

    // ---- query hot-swap ------------------------------------------------

    const OLD_PATTERN: [f64; 3] = [0.0, 10.0, 0.0];
    const NEW_PATTERN: [f64; 3] = [5.0, -5.0, 5.0];

    /// Runs 4 streams under `OLD_PATTERN`, re-points query 0 at
    /// `NEW_PATTERN` mid-stream — via `swap_query` or via
    /// detach-all/re-attach-all — then runs a suffix matching the new
    /// pattern. Returns the (stream, query, start, end, distance-bits)
    /// transcript, sorted.
    fn swap_transcript(via_detach: bool) -> Vec<(u32, u32, u64, u64, u64)> {
        let sink = Arc::new(VecSink::new());
        let mut runner = SpringRunner::spawn(Vec::new(), 2, sink.clone()).unwrap();
        runner.set_max_batch(1);
        let mut ids = Vec::new();
        for s in 0..4u32 {
            let att = RunnerAttachment::spring(
                StreamId(s),
                QueryId(0),
                &OLD_PATTERN,
                1.0,
                GapPolicy::Skip,
            )
            .unwrap();
            ids.push(runner.attach(att).unwrap());
        }
        for s in 0..4u32 {
            for x in spike_stream(&[3], 10) {
                runner.push(StreamId(s), &x).unwrap();
            }
        }
        for s in 0..4u32 {
            runner.sync(StreamId(s)).unwrap();
        }
        if via_detach {
            for (s, id) in ids.into_iter().enumerate() {
                runner.detach(id).unwrap();
                let att = RunnerAttachment::spring(
                    StreamId(s as u32),
                    QueryId(0),
                    &NEW_PATTERN,
                    1.0,
                    GapPolicy::Skip,
                )
                .unwrap();
                runner.attach(att).unwrap();
            }
        } else {
            assert_eq!(runner.swap_query(QueryId(0), &NEW_PATTERN).unwrap(), 1);
        }
        for s in 0..4u32 {
            let mut suffix = vec![50.0; 10];
            suffix[4..7].copy_from_slice(&NEW_PATTERN);
            for x in suffix {
                runner.push(StreamId(s), &x).unwrap();
            }
            runner.finish_stream(StreamId(s)).unwrap();
        }
        runner.shutdown().unwrap();
        let mut transcript: Vec<(u32, u32, u64, u64, u64)> = sink
            .events()
            .iter()
            .map(|e| {
                (
                    e.stream.0,
                    e.query.0,
                    e.m.start,
                    e.m.end,
                    e.m.distance.to_bits(),
                )
            })
            .collect();
        transcript.sort_unstable();
        transcript
    }

    #[test]
    fn swap_query_transcript_matches_detach_all_reattach_all() {
        let swapped = swap_transcript(false);
        // One old-pattern match and one new-pattern match per stream.
        assert_eq!(swapped.len(), 8);
        assert_eq!(swapped, swap_transcript(true));
    }

    #[test]
    fn swap_query_flushes_buffered_samples_under_the_old_pattern() {
        let sink = Arc::new(VecSink::new());
        let runner =
            SpringRunner::spawn(vec![spike_attachment(StreamId(0), 0)], 1, sink.clone()).unwrap();
        // Default max_batch (64): this spike sits in the pending buffer.
        for x in spike_stream(&[2], 8) {
            runner.push(StreamId(0), &x).unwrap();
        }
        runner.swap_query(QueryId(0), &[7.0, -7.0]).unwrap();
        runner.sync(StreamId(0)).unwrap();
        // The swap flushed the partial frame first, so the buffered
        // spike was monitored under the old pattern.
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].m.start, 3);
        // From here on the new pattern is live, with fresh DP state.
        runner
            .push_batch(StreamId(0), &[50.0, 7.0, -7.0, 50.0])
            .unwrap();
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[1].m.start, events[1].m.end), (2, 3));
    }

    #[test]
    fn swap_is_replayed_across_a_worker_restart() {
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(FlakySink::new(1));
        let mut runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink.clone(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        runner.set_max_batch(1);
        for _ in 0..5 {
            runner.push(StreamId(0), &50.0).unwrap();
        }
        runner.swap_query(QueryId(0), &[7.0, -7.0]).unwrap();
        // The first delivered match panics the sink, killing the worker
        // *after* the swap was applied but with the last checkpoint
        // predating it: the restart must re-apply the logged Swap so the
        // rebuilt shard still matches the new pattern.
        runner
            .push_batch(StreamId(0), &[50.0, 7.0, -7.0, 50.0])
            .unwrap();
        runner.finish_stream(StreamId(0)).unwrap();
        runner.shutdown().unwrap();
        let events = sink.inner.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 3));
        assert_eq!(metrics.snapshot().worker_restarts_total, 1);
    }

    #[test]
    fn swap_on_a_prebuilt_monitor_surfaces_an_error_at_shutdown() {
        let sink = Arc::new(VecSink::new());
        let monitor = Spring::with_kernel(
            &OLD_PATTERN,
            spring_core::SpringConfig::new(1.0),
            Kernel::Squared,
        )
        .unwrap();
        let att = RunnerAttachment::new(StreamId(0), QueryId(0), monitor, GapPolicy::Skip);
        assert!(!att.swappable());
        let runner = SpringRunner::spawn(vec![att], 1, sink).unwrap();
        // The swap enqueues fine; the rebuild fails worker-side (no
        // stored recipe) and surfaces as the recorded ingestion error.
        runner.swap_query(QueryId(0), &[1.0, 2.0]).unwrap();
        assert!(matches!(runner.shutdown(), Err(MonitorError::Spring(_))));
    }

    #[test]
    fn swap_query_validates_patterns_and_tracks_generations() {
        let metrics = Arc::new(Metrics::new());
        let sink = Arc::new(VecSink::new());
        let runner = SpringRunner::spawn_with_metrics(
            vec![spike_attachment(StreamId(0), 0)],
            1,
            sink,
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        assert_eq!(runner.query_generation(QueryId(0)), 0);
        assert!(runner.swap_query(QueryId(0), &[]).is_err());
        assert!(runner.swap_query(QueryId(0), &[f64::NAN]).is_err());
        assert_eq!(
            runner.query_generation(QueryId(0)),
            0,
            "rejected swaps must not allocate a generation"
        );
        assert_eq!(runner.swap_query(QueryId(0), &[1.0, 2.0]).unwrap(), 1);
        assert_eq!(runner.swap_query(QueryId(0), &[3.0, 4.0]).unwrap(), 2);
        assert_eq!(runner.query_generation(QueryId(0)), 2);
        // A query with no attachments still versions cleanly.
        assert_eq!(runner.swap_query(QueryId(9), &[1.0]).unwrap(), 1);
        runner.shutdown().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.query_swaps_total, 3);
        assert_eq!(snap.query_generation, 1);
    }
}
