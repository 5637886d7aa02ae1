//! The single-threaded monitoring engine, generic over any [`Monitor`].
//!
//! One [`Engine`] instance watches any number of streams against any
//! number of query patterns; each (stream, query) attachment owns an
//! independent monitor of type `M`. Instantiations:
//!
//! * [`SpringEngine`] (`Engine<Spring<Kernel>>`) — the paper's plain
//!   disjoint query on scalar streams.
//! * [`MixedEngine`] (`Engine<ScalarMonitor>`) — mixed-variant
//!   deployments: raw, z-normalized, bounded, … attachments side by side
//!   on the same streams, built from [`MonitorSpec`]s.
//! * [`VectorEngine`] (`Engine<VectorSpring<Kernel>>`) — `k`-dimensional
//!   vector streams (paper Sec. 5.3).
//!
//! Missing samples (any sample `M::is_missing` reports true, e.g. NaN)
//! are handled per attachment via a [`GapPolicy`]. The gap handling and
//! tick bookkeeping live in two shared code paths used by both this
//! engine and the threaded [`crate::Runner`]: `Attachment::ingest` for
//! one sample and `Attachment::ingest_frame` for a whole frame, which
//! runs each run of present samples through one
//! [`Monitor::step_batch`] call. Frames are stepped attachment-major
//! and the events merged back into sample-major order (see
//! [`Engine::push_batch`]).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use spring_core::monitor::{Monitor, MonitorVariant};
use spring_core::{
    Match, MonitorSpec, QueryArena, ScalarMonitor, Spring, SpringConfig, SpringError, VectorSpring,
};
use spring_dtw::Kernel;

use crate::metrics::{Metrics, TickRecorder};
use crate::trace::{EventKind as TraceKind, TraceHandle, Tracer};

/// Identifier of a registered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Identifier of a registered query pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// Identifier of a (stream, query) attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttachmentId(pub u32);

/// How an attachment treats a missing (NaN / non-finite) sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapPolicy {
    /// Skip the tick: the monitor does not advance (DTW tolerates the
    /// resulting time-axis compression by design). The default.
    #[default]
    Skip,
    /// Repeat the last observed value; before any observation, skip.
    CarryForward,
    /// Treat a missing sample as an error.
    Fail,
}

/// A confirmed match on one attachment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Stream the match occurred on.
    pub stream: StreamId,
    /// Query that matched.
    pub query: QueryId,
    /// Attachment that produced the event.
    pub attachment: AttachmentId,
    /// Which monitor variant confirmed the match (distinguishes events
    /// in mixed-variant deployments).
    pub variant: MonitorVariant,
    /// The match itself (ticks are per-stream, 1-based).
    pub m: Match,
}

/// Errors from engine/runner configuration and ingestion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MonitorError {
    /// Referenced stream id was never registered.
    UnknownStream(StreamId),
    /// Referenced query id was never registered.
    UnknownQuery(QueryId),
    /// Underlying SPRING error (invalid query / epsilon / input).
    Spring(SpringError),
    /// A missing sample arrived on an attachment with [`GapPolicy::Fail`].
    MissingSample {
        /// Stream the sample arrived on.
        stream: StreamId,
        /// 1-based tick of the offending sample.
        tick: u64,
    },
    /// Referenced attachment id was never registered (or already
    /// detached).
    UnknownAttachment(AttachmentId),
    /// A [`crate::Runner`] worker thread died (panicked or stopped after
    /// an ingestion error) and could not be restarted, so at least one
    /// shard is no longer monitored.
    WorkerLost,
    /// A fault injected through the `failpoints` testing feature.
    #[cfg(feature = "failpoints")]
    Injected(&'static str),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            MonitorError::UnknownQuery(id) => write!(f, "unknown query {}", id.0),
            MonitorError::Spring(e) => write!(f, "{e}"),
            MonitorError::MissingSample { stream, tick } => {
                write!(f, "missing sample on stream {} at tick {tick}", stream.0)
            }
            MonitorError::UnknownAttachment(id) => write!(f, "unknown attachment {}", id.0),
            MonitorError::WorkerLost => write!(f, "a monitor worker thread was lost"),
            #[cfg(feature = "failpoints")]
            MonitorError::Injected(site) => write!(f, "injected fault at failpoint `{site}`"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<SpringError> for MonitorError {
    fn from(e: SpringError) -> Self {
        MonitorError::Spring(e)
    }
}

/// The owned form of a monitor's sample (`f64` / `Vec<f64>`).
pub type Owned<M> = <<M as Monitor>::Sample as ToOwned>::Owned;

#[derive(Debug)]
struct StreamState {
    name: String,
    /// Ticks pushed so far (including skipped/missing ones).
    ticks: u64,
    /// Channels per sample; `None` until pinned by a vector attachment.
    channels: Option<usize>,
}

struct QueryDef<M: Monitor> {
    name: String,
    samples: Vec<Owned<M>>,
    /// Bumped by every [`Engine::swap_query`]; recorded into the
    /// rebuilt monitors (and from there into checkpoints/snapshots).
    generation: u64,
}

/// The stored recipe an attachment was built from: called again with
/// the query's new samples to rebuild the monitor on a hot-swap,
/// preserving the attachment's own ε / variant / kernel choices.
pub type AttachmentBuilder<M> = Arc<dyn Fn(&[Owned<M>]) -> Result<M, SpringError> + Send + Sync>;

/// The registration-time sample validation shared by
/// [`Engine::add_query`], [`Engine::swap_query`], and
/// [`crate::Runner::swap_query`]: non-empty, no missing samples, and a
/// consistent channel count.
pub(crate) fn validate_query_samples<M: Monitor>(samples: &[Owned<M>]) -> Result<(), MonitorError> {
    if samples.is_empty() {
        return Err(MonitorError::Spring(SpringError::EmptyQuery));
    }
    let dim = M::sample_dim(samples[0].borrow());
    for (index, s) in samples.iter().enumerate() {
        let s: &M::Sample = s.borrow();
        if M::is_missing(s) {
            return Err(MonitorError::Spring(SpringError::NonFiniteQuery { index }));
        }
        if M::sample_dim(s) != dim {
            return Err(MonitorError::Spring(SpringError::InvalidQuery(format!(
                "query row {index} has {} channels, expected {dim}",
                M::sample_dim(s)
            ))));
        }
    }
    Ok(())
}

/// Length of the prefix of a frame to step attachment-major: every
/// sample before the first one some attachment would reject
/// ([`Attachment::rejects`]) or whose width differs from the stream's
/// pinned `channels`. The rejected tick itself must go through the
/// per-sample path so the error, its tick and its dropped events stay
/// exact. A one-sample prefix is returned as 0: a lone sample gains
/// nothing from the frame path (its run of one takes the column kernel
/// either way) and the per-sample path is cheaper.
pub(crate) fn frame_prefix<'a, M: Monitor + 'a>(
    samples: &[Owned<M>],
    attachments: impl Iterator<Item = &'a Attachment<M>> + Clone,
    channels: Option<usize>,
) -> usize {
    let can_reject = attachments.clone().any(Attachment::can_reject);
    let clean = if !can_reject && channels.is_none() {
        samples.len()
    } else {
        samples
            .iter()
            .position(|s| {
                let s: &M::Sample = s.borrow();
                channels.is_some_and(|c| M::sample_dim(s) != c)
                    || (can_reject && attachments.clone().any(|a| a.rejects(s)))
            })
            .unwrap_or(samples.len())
    };
    if clean > 1 {
        clean
    } else {
        0
    }
}

/// Restores sample-major order over the events every attachment of a
/// stream produced for one frame ([`Attachment::ingest_frame`] keys)
/// and drains them. Unstable sorting is exact: no two events share a
/// key, since a monitor confirms at most one match per tick.
pub(crate) fn drain_in_tick_order(
    events: &mut Vec<(u64, Event)>,
) -> impl Iterator<Item = Event> + '_ {
    events.sort_unstable_by_key(|&(key, _)| key);
    events.drain(..).map(|(_, event)| event)
}

/// One (stream, query) attachment: a monitor plus its gap handling.
///
/// This is the code path shared by [`Engine::push`] and the
/// [`crate::Runner`] worker loop, so single- and multi-threaded
/// deployments behave identically tick for tick.
pub(crate) struct Attachment<M: Monitor> {
    pub(crate) id: AttachmentId,
    pub(crate) stream: StreamId,
    pub(crate) query: QueryId,
    pub(crate) monitor: M,
    pub(crate) gap_policy: GapPolicy,
    /// The recipe this monitor was built from ([`AttachmentBuilder`]);
    /// `None` for monitors handed in pre-built, which cannot be rebuilt
    /// on a query hot-swap.
    pub(crate) builder: Option<AttachmentBuilder<M>>,
    /// Last present sample (kept only under [`GapPolicy::CarryForward`]).
    last_observed: Option<Owned<M>>,
    /// Samples seen by this attachment (including missing ones).
    ticks: u64,
    /// Observability hook (`None` keeps the hot path metric-free).
    recorder: Option<TickRecorder>,
}

impl<M: Monitor> Attachment<M> {
    pub(crate) fn new(
        id: AttachmentId,
        stream: StreamId,
        query: QueryId,
        monitor: M,
        gap_policy: GapPolicy,
    ) -> Self {
        Attachment {
            id,
            stream,
            query,
            monitor,
            gap_policy,
            builder: None,
            last_observed: None,
            ticks: 0,
            recorder: None,
        }
    }

    /// Stores the recipe this monitor was built from, enabling query
    /// hot-swap rebuilds.
    pub(crate) fn with_builder(mut self, builder: AttachmentBuilder<M>) -> Self {
        self.builder = Some(builder);
        self
    }

    /// Attaches this monitor to a metrics registry. The first sampled
    /// tick initializes its share of the live memory gauges; dropping
    /// the attachment releases it. Monitors borrowing a shared arena
    /// query also take one fleet-wide reference on its resident cells.
    pub(crate) fn set_metrics(&mut self, metrics: &Arc<Metrics>) {
        self.recorder = Some(Self::make_recorder(metrics, &self.monitor));
    }

    fn make_recorder(metrics: &Arc<Metrics>, monitor: &M) -> TickRecorder {
        let mut rec = TickRecorder::new(Arc::clone(metrics));
        if let Some(fp) = monitor.query_fingerprint() {
            rec.retain_shared(fp, monitor.shared_memory_cells());
        }
        rec
    }

    fn event(&self, m: Match) -> Event {
        Event {
            stream: self.stream,
            query: self.query,
            attachment: self.id,
            variant: self.monitor.variant(),
            m,
        }
    }

    /// Consumes one raw sample: resolves the gap policy, steps the
    /// monitor, wraps a confirmed match into an [`Event`].
    pub(crate) fn ingest(&mut self, sample: &M::Sample) -> Result<Option<Event>, MonitorError> {
        crate::fail_point!(
            "attachment::ingest",
            MonitorError::Injected("attachment::ingest")
        );
        self.ticks += 1;
        let started = self.recorder.as_mut().and_then(TickRecorder::begin_tick);
        let missing = M::is_missing(sample);
        let resolved: Option<&M::Sample> = if missing {
            match self.gap_policy {
                GapPolicy::Skip => None,
                GapPolicy::CarryForward => self.last_observed.as_ref().map(Borrow::borrow),
                GapPolicy::Fail => {
                    let monitor = &self.monitor;
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.end_tick(started, None, true, || {
                            (monitor.memory_use(), monitor.memory_cells())
                        });
                    }
                    return Err(MonitorError::MissingSample {
                        stream: self.stream,
                        tick: self.ticks,
                    });
                }
            }
        } else {
            if matches!(self.gap_policy, GapPolicy::CarryForward) {
                self.last_observed = Some(sample.to_owned());
            }
            Some(sample)
        };
        let hit = match resolved {
            Some(x) => self.monitor.step(x)?,
            None => None,
        };
        let event = hit.map(|m| self.event(m));
        let monitor = &self.monitor;
        if let Some(rec) = self.recorder.as_mut() {
            rec.end_tick(started, event.as_ref().map(|e| &e.m), missing, || {
                (monitor.memory_use(), monitor.memory_cells())
            });
        }
        Ok(event)
    }

    /// Whether [`Attachment::ingest`] can fail on some sample: a
    /// [`GapPolicy::Fail`] attachment, or a monitor that checks the
    /// sample width. Lets frame callers skip the pre-scan entirely.
    pub(crate) fn can_reject(&self) -> bool {
        self.gap_policy == GapPolicy::Fail || self.monitor.channels().is_some()
    }

    /// Whether [`Attachment::ingest`] would fail on `sample`: a missing
    /// sample under [`GapPolicy::Fail`], or a present sample of the
    /// wrong width. These are the only sample-dependent errors of the
    /// monitors, so a frame prefix no attachment rejects is safe to
    /// step attachment-major.
    pub(crate) fn rejects(&self, sample: &M::Sample) -> bool {
        if M::is_missing(sample) {
            self.gap_policy == GapPolicy::Fail
        } else {
            self.monitor
                .channels()
                .is_some_and(|c| M::sample_dim(sample) != c)
        }
    }

    /// Consumes a whole frame: [`Attachment::ingest`] on every sample,
    /// but each maximal run of present samples goes through one
    /// [`Monitor::step_batch`] call, and the frame feeds the metrics
    /// recorder once ([`TickRecorder::record_frame`]).
    ///
    /// Each event lands in `events` keyed by its sample-major position:
    /// its offset in the frame in the high 32 bits, `order` (this
    /// attachment's position on the stream) in the low 32. Sorting the
    /// keys of every attachment's events restores the order a
    /// per-sample loop emits. `hits` is caller-owned match scratch.
    ///
    /// Callers cut frames at samples this attachment
    /// [`rejects`](Attachment::rejects) and feed those ticks through
    /// [`Attachment::ingest`], which keeps per-sample error semantics.
    pub(crate) fn ingest_frame(
        &mut self,
        samples: &[Owned<M>],
        order: usize,
        hits: &mut Vec<Match>,
        events: &mut Vec<(u64, Event)>,
    ) -> Result<(), MonitorError> {
        crate::fail_point!(
            "attachment::ingest",
            MonitorError::Injected("attachment::ingest")
        );
        let key = |offset: usize| ((offset as u64) << 32) | order as u64;
        let started = self
            .recorder
            .as_mut()
            .and_then(|rec| rec.begin_frame(samples.len()));
        hits.clear();
        let mut missing = 0u64;
        let mut failed_at = None;
        let mut at = 0;
        while at < samples.len() {
            let sample: &M::Sample = samples[at].borrow();
            if M::is_missing(sample) {
                missing += 1;
                match self.gap_policy {
                    GapPolicy::Skip => {}
                    GapPolicy::CarryForward => {
                        if let Some(last) = &self.last_observed {
                            if let Some(m) = self.monitor.step(last.borrow())? {
                                hits.push(m);
                                events.push((key(at), self.event(m)));
                            }
                        }
                    }
                    GapPolicy::Fail => {
                        failed_at = Some(at);
                        break;
                    }
                }
                at += 1;
                continue;
            }
            let len = samples[at..]
                .iter()
                .position(|s| M::is_missing(s.borrow()))
                .unwrap_or(samples.len() - at);
            let run = &samples[at..at + len];
            // Monitor ticks only count stepped samples (a skipped gap
            // does not advance them), so an event's offset in the frame
            // comes from how far into the run the monitor reported.
            let tick_before = self.monitor.tick();
            let first = hits.len();
            self.monitor.step_batch(run, hits)?;
            for &m in &hits[first..] {
                debug_assert!(m.reported_at > tick_before);
                let offset = at + (m.reported_at - tick_before) as usize - 1;
                events.push((key(offset), self.event(m)));
            }
            if self.gap_policy == GapPolicy::CarryForward {
                let last: &M::Sample = run[len - 1].borrow();
                match &mut self.last_observed {
                    Some(kept) => last.clone_into(kept),
                    None => self.last_observed = Some(last.to_owned()),
                }
            }
            at += len;
        }
        let consumed = failed_at.map_or(samples.len(), |at| at + 1) as u64;
        self.ticks += consumed;
        let monitor = &self.monitor;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record_frame(started, consumed, missing, hits, || {
                (monitor.memory_use(), monitor.memory_cells())
            });
        }
        match failed_at {
            Some(_) => Err(MonitorError::MissingSample {
                stream: self.stream,
                tick: self.ticks,
            }),
            None => Ok(()),
        }
    }

    /// An independent copy of this attachment's monitoring state: same
    /// monitor, gap state, and tick counter, but a *fresh* metrics
    /// recorder (so live-memory gauge shares are not double-released).
    ///
    /// This is the [`crate::Runner`] supervisor's in-memory checkpoint:
    /// a worker periodically forks its shard so a restarted worker can
    /// resume from the last consistent state and replay the tail.
    pub(crate) fn fork(&self) -> Attachment<M>
    where
        M: Clone,
        Owned<M>: Clone,
    {
        Attachment {
            id: self.id,
            stream: self.stream,
            query: self.query,
            monitor: self.monitor.clone(),
            gap_policy: self.gap_policy,
            builder: self.builder.clone(),
            last_observed: self.last_observed.clone(),
            ticks: self.ticks,
            recorder: self
                .recorder
                .as_ref()
                .map(|r| Self::make_recorder(r.metrics(), &self.monitor)),
        }
    }

    /// Rebuilds this attachment's monitor from its stored recipe
    /// against `samples` — the hot-swap path. Fresh DP state, gap state
    /// and tick counter (detach-and-reattach semantics); the new
    /// monitor is stamped with `generation` and the shared-cell metrics
    /// reference is re-pointed at the new query entry.
    ///
    /// # Errors
    /// Fails when no recipe was stored (pre-built monitor) or the
    /// builder rejects the new samples.
    pub(crate) fn apply_swap(
        &mut self,
        samples: &[Owned<M>],
        generation: u64,
    ) -> Result<(), MonitorError> {
        let builder = self.builder.as_ref().ok_or_else(|| {
            MonitorError::Spring(SpringError::InvalidQuery(
                "attachment was built from a pre-constructed monitor; \
                 it has no stored recipe to rebuild on a query swap"
                    .into(),
            ))
        })?;
        let mut monitor = builder(samples)?;
        monitor.set_generation(generation);
        self.monitor = monitor;
        self.last_observed = None;
        self.ticks = 0;
        if let Some(rec) = &self.recorder {
            let metrics = Arc::clone(rec.metrics());
            self.set_metrics(&metrics);
        }
        Ok(())
    }

    /// Declares end-of-stream on this attachment, flushing a pending
    /// group optimum.
    pub(crate) fn flush(&mut self) -> Option<Event> {
        let event = self.monitor.finish().map(|m| self.event(m));
        if let (Some(rec), Some(ev)) = (&self.recorder, &event) {
            rec.metrics().record_match(&ev.m);
        }
        event
    }
}

/// Monitors any number of streams against any number of query patterns,
/// each attachment an independent monitor of type `M`.
///
/// # Examples
/// ```
/// use spring_monitor::{GapPolicy, SpringEngine};
///
/// let mut engine = SpringEngine::new();
/// let sensor = engine.add_stream("sensor-1");
/// let spike = engine.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
/// engine.attach(sensor, spike, 1.0, GapPolicy::Skip).unwrap();
///
/// let mut events = Vec::new();
/// for x in [50.0, 50.0, 0.0, 10.0, 0.0, 50.0, 50.0] {
///     events.extend(engine.push(sensor, &x).unwrap());
/// }
/// events.extend(engine.finish_stream(sensor).unwrap());
/// assert_eq!(events.len(), 1);
/// assert_eq!((events[0].m.start, events[0].m.end), (3, 5));
/// ```
pub struct Engine<M: Monitor> {
    streams: Vec<StreamState>,
    queries: Vec<QueryDef<M>>,
    attachments: Vec<Attachment<M>>,
    /// Attachment indices per stream, for O(per-stream) dispatch.
    by_stream: HashMap<StreamId, Vec<usize>>,
    /// Shared immutable query storage: the typed attachers intern
    /// patterns here, so attaching one query to many streams allocates
    /// its samples and derived caches exactly once.
    arena: Arc<QueryArena>,
    /// Observability registry shared by all attachments (see
    /// [`Engine::set_metrics`]); `None` keeps ingestion metric-free.
    metrics: Option<Arc<Metrics>>,
    /// Flight-recorder hook (see [`Engine::set_tracer`]); the default
    /// [`TraceHandle::off`] keeps ingestion trace-free.
    trace: TraceHandle,
    /// [`Engine::push_batch`] scratch: one attachment's matches in a
    /// frame, and the frame's events awaiting the sample-major merge.
    /// Reused across frames, so the steady state allocates nothing.
    frame_hits: Vec<Match>,
    frame_events: Vec<(u64, Event)>,
}

/// Engine over the paper's plain disjoint-query monitor.
pub type SpringEngine = Engine<Spring<Kernel>>;

/// Engine over [`ScalarMonitor`] attachments: any mix of variants
/// (raw, z-normalized, bounded, …) on the same streams.
pub type MixedEngine = Engine<ScalarMonitor>;

/// Engine over `k`-dimensional vector streams (paper Sec. 5.3).
pub type VectorEngine = Engine<VectorSpring<Kernel>>;

/// A confirmed match on a vector-stream attachment (kept as an alias:
/// scalar and vector engines now share one [`Event`] type).
pub type VectorEvent = Event;

impl<M: Monitor> Default for Engine<M> {
    fn default() -> Self {
        Engine {
            streams: Vec::new(),
            queries: Vec::new(),
            attachments: Vec::new(),
            by_stream: HashMap::new(),
            arena: Arc::new(QueryArena::new()),
            metrics: None,
            trace: TraceHandle::off(),
            frame_hits: Vec::new(),
            frame_events: Vec::new(),
        }
    }
}

impl<M: Monitor> Engine<M> {
    /// An empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Connects the engine to an observability registry: existing and
    /// future attachments record ticks, matches, detection delay,
    /// sampled tick latency, and their live-memory share into it. Read
    /// it back any time via [`Engine::metrics`] /
    /// [`Metrics::snapshot`].
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        for att in &mut self.attachments {
            att.set_metrics(&metrics);
        }
        self.metrics = Some(metrics);
    }

    /// The registry installed by [`Engine::set_metrics`], if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Connects the engine to a flight recorder: registers a ring under
    /// `label` and records sampled per-tick ingest spans, frame-fill
    /// spans, match instants, query-swap instants, and flush spans into
    /// it. The engine is the ring's single writer. With tracing
    /// disabled every hook is one branch on a relaxed atomic.
    pub fn set_tracer(&mut self, tracer: &Tracer, label: &str) {
        self.trace = tracer.register(label);
    }

    /// Registers a stream and returns its id.
    pub fn add_stream(&mut self, name: impl Into<String>) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState {
            name: name.into(),
            ticks: 0,
            channels: None,
        });
        self.by_stream.entry(id).or_default();
        id
    }

    /// Registers a stream carrying `channels` values per tick. Vector
    /// attachments and pushed rows are validated against this count.
    pub fn add_channel_stream(&mut self, name: impl Into<String>, channels: usize) -> StreamId {
        let id = self.add_stream(name);
        self.streams[id.0 as usize].channels = Some(channels);
        id
    }

    /// Registers a query pattern (one sample per tick) and returns its
    /// id.
    ///
    /// # Errors
    /// Fails when the pattern is empty, contains a missing sample, or
    /// (vector queries) has ragged rows.
    pub fn add_query(
        &mut self,
        name: impl Into<String>,
        samples: Vec<Owned<M>>,
    ) -> Result<QueryId, MonitorError> {
        Self::check_query_samples(&samples)?;
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(QueryDef {
            name: name.into(),
            samples,
            generation: 0,
        });
        Ok(id)
    }

    /// The registration-time validation shared by [`Engine::add_query`]
    /// and [`Engine::swap_query`].
    fn check_query_samples(samples: &[Owned<M>]) -> Result<(), MonitorError> {
        validate_query_samples::<M>(samples)
    }

    /// Atomically replaces the pattern behind a registered query and
    /// rebuilds every attachment that watches it (fresh DP state, same
    /// ε / variant / kernel — detach-and-reattach semantics, applied
    /// fleet-wide in one call). Returns the query's new generation,
    /// which is also stamped into each rebuilt monitor (and from there
    /// into checkpoints) and published to the
    /// `spring_query_generation` gauge; `spring_query_swaps_total`
    /// counts the swap.
    ///
    /// The new pattern is validated and every replacement monitor is
    /// built *before* anything is mutated, so a failing swap leaves the
    /// engine untouched.
    ///
    /// # Errors
    /// Fails on an unknown query id, invalid samples, builder
    /// validation, a channel-count mismatch with an attached stream, or
    /// an attachment whose monitor was handed in pre-built (no stored
    /// recipe to rebuild from).
    pub fn swap_query(
        &mut self,
        query: QueryId,
        samples: Vec<Owned<M>>,
    ) -> Result<u64, MonitorError> {
        Self::check_query_samples(&samples)?;
        let def = self
            .queries
            .get(query.0 as usize)
            .ok_or(MonitorError::UnknownQuery(query))?;
        let generation = def.generation + 1;
        // Phase 1: rebuild into a side buffer; nothing is committed yet.
        let mut rebuilt: Vec<(usize, M)> = Vec::new();
        for (idx, att) in self.attachments.iter().enumerate() {
            if att.query != query {
                continue;
            }
            let builder = att.builder.as_ref().ok_or_else(|| {
                MonitorError::Spring(SpringError::InvalidQuery(
                    "attachment was built from a pre-constructed monitor; \
                     it has no stored recipe to rebuild on a query swap"
                        .into(),
                ))
            })?;
            let mut monitor = builder(&samples)?;
            if let Some(found) = monitor.channels() {
                if let Some(expected) = self.streams[att.stream.0 as usize].channels {
                    if found != expected {
                        return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                            expected,
                            found,
                        }));
                    }
                }
            }
            monitor.set_generation(generation);
            rebuilt.push((idx, monitor));
        }
        // Phase 2: commit — republish the definition and flip every
        // affected attachment to its rebuilt monitor.
        let def = &mut self.queries[query.0 as usize];
        def.samples = samples;
        def.generation = generation;
        for (idx, monitor) in rebuilt {
            let att = &mut self.attachments[idx];
            att.monitor = monitor;
            att.last_observed = None;
            att.ticks = 0;
            if let Some(metrics) = &self.metrics {
                att.set_metrics(metrics); // re-point the shared-cell ref
            }
        }
        // Entries for the old pattern may now be unreferenced.
        self.arena.gc();
        if let Some(metrics) = &self.metrics {
            metrics.query_swaps.inc();
            metrics.query_generation.set(generation);
        }
        self.trace.instant(TraceKind::QuerySwap, generation);
        Ok(generation)
    }

    /// Current generation of a registered query (0 until the first
    /// [`Engine::swap_query`]).
    pub fn query_generation(&self, id: QueryId) -> Option<u64> {
        self.queries.get(id.0 as usize).map(|q| q.generation)
    }

    /// The shared query arena backing this engine's typed attachers.
    pub fn arena(&self) -> &Arc<QueryArena> {
        &self.arena
    }

    /// Attaches a monitor built by `build` from the registered query's
    /// samples. This is the one generic attachment path; the typed
    /// engines add conveniences ([`SpringEngine::attach`],
    /// [`MixedEngine::attach_spec`], [`VectorEngine::attach`]) on top.
    ///
    /// The builder is *stored* with the attachment: a later
    /// [`Engine::swap_query`] calls it again with the replacement
    /// pattern, so it must capture everything the monitor needs besides
    /// the samples (ε, kernel, spec, …) by value.
    ///
    /// # Errors
    /// Fails on unknown ids, on builder (query/epsilon) validation, and
    /// on a channel-count mismatch with the stream.
    pub fn attach_monitor(
        &mut self,
        stream: StreamId,
        query: QueryId,
        gap_policy: GapPolicy,
        build: impl Fn(&[Owned<M>]) -> Result<M, SpringError> + Send + Sync + 'static,
    ) -> Result<AttachmentId, MonitorError> {
        if stream.0 as usize >= self.streams.len() {
            return Err(MonitorError::UnknownStream(stream));
        }
        let def = self
            .queries
            .get(query.0 as usize)
            .ok_or(MonitorError::UnknownQuery(query))?;
        let mut monitor = build(&def.samples)?;
        // Late attachments join the query at its current generation.
        monitor.set_generation(def.generation);
        if let Some(expected) = monitor.channels() {
            let state = &mut self.streams[stream.0 as usize];
            match state.channels {
                Some(c) if c != expected => {
                    return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                        expected: c,
                        found: expected,
                    }));
                }
                // First vector attachment pins the stream's width.
                None => state.channels = Some(expected),
                _ => {}
            }
        }
        let id = AttachmentId(self.attachments.len() as u32);
        let idx = self.attachments.len();
        let mut attachment =
            Attachment::new(id, stream, query, monitor, gap_policy).with_builder(Arc::new(build));
        if let Some(metrics) = &self.metrics {
            attachment.set_metrics(metrics);
        }
        self.attachments.push(attachment);
        self.by_stream.entry(stream).or_default().push(idx);
        Ok(id)
    }

    /// Name of a registered stream.
    pub fn stream_name(&self, id: StreamId) -> Option<&str> {
        self.streams.get(id.0 as usize).map(|s| s.name.as_str())
    }

    /// Name of a registered query.
    pub fn query_name(&self, id: QueryId) -> Option<&str> {
        self.queries.get(id.0 as usize).map(|q| q.name.as_str())
    }

    /// Samples of a registered query.
    pub fn query_samples(&self, id: QueryId) -> Option<&[Owned<M>]> {
        self.queries
            .get(id.0 as usize)
            .map(|q| q.samples.as_slice())
    }

    /// Channel count of a registered stream (`None` until declared or
    /// pinned by a vector attachment).
    pub fn stream_channels(&self, id: StreamId) -> Option<usize> {
        self.streams.get(id.0 as usize).and_then(|s| s.channels)
    }

    /// Number of attachments.
    pub fn attachment_count(&self) -> usize {
        self.attachments.len()
    }

    /// The (stream, query) pair of an attachment.
    pub fn attachment_info(&self, id: AttachmentId) -> Option<(StreamId, QueryId)> {
        self.attachments
            .get(id.0 as usize)
            .map(|a| (a.stream, a.query))
    }

    /// The monitor variant of an attachment.
    pub fn attachment_variant(&self, id: AttachmentId) -> Option<MonitorVariant> {
        self.attachments
            .get(id.0 as usize)
            .map(|a| a.monitor.variant())
    }

    /// Ticks pushed so far on a stream.
    pub fn stream_ticks(&self, id: StreamId) -> Option<u64> {
        self.streams.get(id.0 as usize).map(|s| s.ticks)
    }

    /// Pushes one sample (missing = NaN component) to a stream; returns
    /// the events confirmed at this tick across the stream's
    /// attachments.
    ///
    /// In the steady (no-match) state this performs **no heap
    /// allocation**: the stream's attachment indices are borrowed, not
    /// cloned, and the returned `Vec` only allocates when an event is
    /// actually confirmed. High-throughput callers should prefer
    /// [`Engine::push_batch`], which amortizes the per-call overhead
    /// over a whole frame.
    pub fn push(
        &mut self,
        stream: StreamId,
        sample: &M::Sample,
    ) -> Result<Vec<Event>, MonitorError> {
        // Split borrow: indices stay borrowed from `by_stream` while the
        // attachments are stepped (no per-tick clone of the index vec).
        let Engine {
            streams,
            attachments,
            by_stream,
            trace,
            ..
        } = self;
        let state = streams
            .get_mut(stream.0 as usize)
            .ok_or(MonitorError::UnknownStream(stream))?;
        if let Some(expected) = state.channels {
            let found = M::sample_dim(sample);
            if found != expected {
                return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                    expected,
                    found,
                }));
            }
        }
        state.ticks += 1;
        let span = trace.sampled_now();
        let mut events = Vec::new(); // allocation-free until a match lands
        if let Some(indices) = by_stream.get(&stream) {
            for &idx in indices {
                events.extend(attachments[idx].ingest(sample)?);
            }
            trace.span(span, TraceKind::Ingest, indices.len() as u64);
        }
        for ev in &events {
            trace.instant(TraceKind::Match, ev.m.end);
        }
        Ok(events)
    }

    /// Pushes a whole frame of samples to a stream, appending every
    /// confirmed event to the caller-owned `out` in tick order.
    ///
    /// Semantically identical to calling [`Engine::push`] once per
    /// sample — same events in the same order — but stepped
    /// *attachment-major*: each attachment ingests the whole frame
    /// ([`Monitor::step_batch`] per run of present samples, so the
    /// wavefront kernel does the work), and the events are merged back
    /// into sample-major order (frame offset, then attachment order)
    /// before trace instants and `out` see them. The steady state
    /// performs zero heap allocations.
    ///
    /// # Errors
    /// On the first failing sample the error is returned immediately.
    /// Earlier samples of the frame are fully consumed (their events are
    /// in `out`); events from the failing tick itself are discarded —
    /// exactly the state a per-sample `push` loop would leave behind. A
    /// pre-scan finds that tick (a wrong-width sample, or a missing one
    /// on a [`GapPolicy::Fail`] attachment); only the prefix before it
    /// is stepped attachment-major, and the tick itself runs through
    /// the per-sample path — as does a frame (or prefix) of a single
    /// sample, which the frame path cannot speed up.
    pub fn push_batch(
        &mut self,
        stream: StreamId,
        samples: &[Owned<M>],
        out: &mut Vec<Event>,
    ) -> Result<(), MonitorError> {
        let Engine {
            streams,
            attachments,
            by_stream,
            metrics,
            trace,
            frame_hits,
            frame_events,
            ..
        } = self;
        let state = streams
            .get_mut(stream.0 as usize)
            .ok_or(MonitorError::UnknownStream(stream))?;
        if let Some(metrics) = metrics {
            metrics.record_batch(samples.len());
        }
        // Frame-granular span (one per batch, not per tick): recorded
        // whenever tracing is enabled.
        let frame = trace.now();
        let indices: &[usize] = by_stream.get(&stream).map_or(&[], Vec::as_slice);
        let expected = state.channels;
        let mut rest = samples;
        while !rest.is_empty() {
            let stop = frame_prefix(rest, indices.iter().map(|&i| &attachments[i]), expected);
            let (clean, tail) = rest.split_at(stop);
            if !clean.is_empty() {
                state.ticks += clean.len() as u64;
                frame_events.clear();
                for (order, &idx) in indices.iter().enumerate() {
                    attachments[idx].ingest_frame(clean, order, frame_hits, frame_events)?;
                }
                for ev in drain_in_tick_order(frame_events) {
                    trace.instant(TraceKind::Match, ev.m.end);
                    out.push(ev);
                }
            }
            let Some((sample, after)) = tail.split_first() else {
                break;
            };
            let sample: &M::Sample = sample.borrow();
            if let Some(expected) = expected {
                let found = M::sample_dim(sample);
                if found != expected {
                    return Err(MonitorError::Spring(SpringError::DimensionMismatch {
                        expected,
                        found,
                    }));
                }
            }
            state.ticks += 1;
            let tick_mark = out.len();
            for &idx in indices {
                match attachments[idx].ingest(sample) {
                    Ok(Some(ev)) => {
                        trace.instant(TraceKind::Match, ev.m.end);
                        out.push(ev);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        // Per-sample `push` drops same-tick events from
                        // earlier attachments on error; mirror that.
                        out.truncate(tick_mark);
                        return Err(e);
                    }
                }
            }
            rest = after;
        }
        trace.span(frame, TraceKind::Frame, samples.len() as u64);
        Ok(())
    }

    /// Declares a stream finished, flushing pending group optima on all
    /// of its attachments.
    pub fn finish_stream(&mut self, stream: StreamId) -> Result<Vec<Event>, MonitorError> {
        if stream.0 as usize >= self.streams.len() {
            return Err(MonitorError::UnknownStream(stream));
        }
        let Engine {
            attachments,
            by_stream,
            trace,
            ..
        } = self;
        let span = trace.now();
        let mut events = Vec::new();
        if let Some(indices) = by_stream.get(&stream) {
            for &idx in indices {
                events.extend(attachments[idx].flush());
            }
        }
        trace.span(span, TraceKind::Flush, u64::from(stream.0));
        Ok(events)
    }

    /// Total bytes of live monitoring state across all attachments
    /// (constant per attachment — Lemma 4 per pair).
    pub fn bytes_used(&self) -> usize {
        self.attachments
            .iter()
            .map(|a| a.monitor.memory_use())
            .sum()
    }

    /// Total live DTW cells across the fleet, counting each shared
    /// arena query once no matter how many attachments borrow it: the
    /// `O(queries·m + attachments·m_cols)` bound the arena establishes.
    pub fn memory_cells(&self) -> usize {
        let mut shared: HashMap<u64, usize> = HashMap::new();
        let mut per_attachment = 0;
        for a in &self.attachments {
            per_attachment += a.monitor.memory_cells();
            if let Some(fp) = a.monitor.query_fingerprint() {
                shared.insert(fp, a.monitor.shared_memory_cells());
            }
        }
        per_attachment + shared.values().sum::<usize>()
    }
}

impl SpringEngine {
    /// Attaches `query` to `stream` with threshold `epsilon` (squared
    /// kernel) and the given gap policy. One query may be attached to
    /// many streams and vice versa; each attachment is independent.
    pub fn attach(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        self.attach_with_kernel(stream, query, epsilon, gap_policy, Kernel::Squared)
    }

    /// [`SpringEngine::attach`] with an explicit kernel.
    ///
    /// The pattern is interned into the engine's [`QueryArena`], so the
    /// monitor borrows one shared copy of the samples and derived
    /// caches instead of allocating its own.
    pub fn attach_with_kernel(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
        kernel: Kernel,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |q| {
            Spring::with_query_ref(arena.intern(q)?, SpringConfig::new(epsilon), kernel)
        })
    }
}

impl MixedEngine {
    /// Attaches a monitor described by `spec` (squared kernel). Specs of
    /// different variants may share streams and queries freely; events
    /// carry the variant tag.
    pub fn attach_spec(
        &mut self,
        stream: StreamId,
        query: QueryId,
        spec: MonitorSpec,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        self.attach_spec_with_kernel(stream, query, spec, gap_policy, Kernel::Squared)
    }

    /// [`MixedEngine::attach_spec`] with an explicit kernel.
    ///
    /// The pattern is interned into the engine's [`QueryArena`];
    /// variants with a shared constructor borrow the interned entry,
    /// the rest keep a bit-identical private copy
    /// ([`MonitorSpec::build_shared`]).
    pub fn attach_spec_with_kernel(
        &mut self,
        stream: StreamId,
        query: QueryId,
        spec: MonitorSpec,
        gap_policy: GapPolicy,
        kernel: Kernel,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |q| {
            spec.build_shared(&arena.intern(q)?, kernel)
        })
    }
}

impl VectorEngine {
    /// Attaches vector `query` to `stream` with threshold `epsilon`
    /// (squared kernel). The channel counts must agree.
    pub fn attach(
        &mut self,
        stream: StreamId,
        query: QueryId,
        epsilon: f64,
        gap_policy: GapPolicy,
    ) -> Result<AttachmentId, MonitorError> {
        let arena = Arc::clone(&self.arena);
        self.attach_monitor(stream, query, gap_policy, move |rows| {
            VectorSpring::with_query_ref(arena.intern_vector(rows)?, epsilon, Kernel::Squared)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike_stream(spike_at: &[usize], len: usize) -> Vec<f64> {
        let mut v = vec![50.0; len];
        for &s in spike_at {
            v[s] = 0.0;
            v[s + 1] = 10.0;
            v[s + 2] = 0.0;
        }
        v
    }

    #[test]
    fn single_stream_single_query_end_to_end() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for x in spike_stream(&[5, 20], 30) {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].m.start, events[0].m.end), (6, 8));
        assert_eq!((events[1].m.start, events[1].m.end), (21, 23));
        assert!(events.iter().all(|ev| ev.variant == MonitorVariant::Spring));
    }

    #[test]
    fn many_queries_on_one_stream_fire_independently() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let spike = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        let dip = e.add_query("dip", vec![50.0, 45.0, 50.0]).unwrap();
        e.attach(s, spike, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s, dip, 1.0, GapPolicy::Skip).unwrap();
        let mut stream = spike_stream(&[5], 30);
        stream[15] = 45.0; // a dip
        let mut events = Vec::new();
        for x in stream {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        let spikes: Vec<_> = events.iter().filter(|ev| ev.query == spike).collect();
        let dips: Vec<_> = events.iter().filter(|ev| ev.query == dip).collect();
        assert_eq!(spikes.len(), 1);
        assert_eq!(dips.len(), 1);
        assert_eq!((dips[0].m.start, dips[0].m.end), (15, 17));
    }

    #[test]
    fn one_query_on_many_streams_has_independent_tick_counters() {
        let mut e = SpringEngine::new();
        let s1 = e.add_stream("s1");
        let s2 = e.add_stream("s2");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s1, q, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s2, q, 1.0, GapPolicy::Skip).unwrap();
        // Interleave pushes: s2 lags s1 by an offset.
        let v1 = spike_stream(&[3], 12);
        let v2 = spike_stream(&[7], 12);
        let mut events = Vec::new();
        for i in 0..12 {
            events.extend(e.push(s1, &v1[i]).unwrap());
            events.extend(e.push(s2, &v2[i]).unwrap());
        }
        events.extend(e.finish_stream(s1).unwrap());
        events.extend(e.finish_stream(s2).unwrap());
        let on1: Vec<_> = events.iter().filter(|ev| ev.stream == s1).collect();
        let on2: Vec<_> = events.iter().filter(|ev| ev.stream == s2).collect();
        assert_eq!(on1.len(), 1);
        assert_eq!(on2.len(), 1);
        assert_eq!(on1[0].m.start, 4);
        assert_eq!(on2[0].m.start, 8);
    }

    #[test]
    fn gap_policy_skip_tolerates_dropouts_inside_a_match() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        // The pattern appears with a missing tick in the middle; Skip
        // compresses the time axis, which DTW absorbs.
        let stream = [50.0, 50.0, 0.0, 10.0, f64::NAN, 10.0, 0.0, 50.0, 50.0];
        let mut events = Vec::new();
        for x in stream {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0);
    }

    #[test]
    fn gap_policy_fail_surfaces_the_tick() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("q", vec![1.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Fail).unwrap();
        e.push(s, &1.0).unwrap();
        let err = e.push(s, &f64::NAN).unwrap_err();
        assert_eq!(err, MonitorError::MissingSample { stream: s, tick: 2 });
    }

    #[test]
    fn gap_policy_carry_forward_keeps_raw_tick_alignment() {
        // Under CarryForward the monitor advances on the missing tick
        // (repeating the last observation), so reported positions stay in
        // raw-stream coordinates: the match spans the gap tick.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("ramp", vec![1.0, 2.0, 3.0]).unwrap();
        e.attach(s, q, 0.1, GapPolicy::CarryForward).unwrap();
        let mut events = Vec::new();
        for x in [9.0, 1.0, 2.0, f64::NAN, 3.0, 9.0, 9.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0); // carried 2.0 warps onto y2
        assert_eq!((events[0].m.start, events[0].m.end), (2, 5));
    }

    #[test]
    fn gap_policy_skip_compresses_tick_space() {
        // Under Skip the monitor does not advance on missing ticks, so
        // positions are in observed-sample coordinates.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("ramp", vec![1.0, 2.0, 3.0]).unwrap();
        e.attach(s, q, 0.1, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for x in [9.0, 1.0, 2.0, f64::NAN, 3.0, 9.0, 9.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].m.distance, 0.0);
        // Observed samples: 9, 1, 2, 3, 9, 9 -> match at observed 2..=4.
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("q", vec![1.0]).unwrap();
        assert!(matches!(
            e.attach(StreamId(9), q, 1.0, GapPolicy::Skip),
            Err(MonitorError::UnknownStream(_))
        ));
        assert!(matches!(
            e.attach(s, QueryId(9), 1.0, GapPolicy::Skip),
            Err(MonitorError::UnknownQuery(_))
        ));
        assert!(matches!(
            e.push(StreamId(9), &1.0),
            Err(MonitorError::UnknownStream(_))
        ));
        assert!(matches!(
            e.finish_stream(StreamId(9)),
            Err(MonitorError::UnknownStream(_))
        ));
    }

    #[test]
    fn invalid_queries_and_epsilons_are_rejected_at_registration() {
        let mut e = SpringEngine::new();
        assert!(e.add_query("empty", vec![]).is_err());
        assert!(e.add_query("nan", vec![f64::NAN]).is_err());
        let s = e.add_stream("s");
        let q = e.add_query("ok", vec![1.0]).unwrap();
        assert!(e.attach(s, q, -1.0, GapPolicy::Skip).is_err());
    }

    #[test]
    fn names_and_counters_are_queryable() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("sensor-7");
        let q = e.add_query("pattern-x", vec![1.0, 2.0]).unwrap();
        let a = e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        assert_eq!(e.stream_name(s), Some("sensor-7"));
        assert_eq!(e.query_name(q), Some("pattern-x"));
        assert_eq!(e.query_samples(q), Some(&[1.0, 2.0][..]));
        assert_eq!(e.attachment_count(), 1);
        assert_eq!(e.attachment_variant(a), Some(MonitorVariant::Spring));
        e.push(s, &1.0).unwrap();
        assert_eq!(e.stream_ticks(s), Some(1));
        assert!(e.bytes_used() > 0);
    }

    #[test]
    fn memory_is_constant_per_attachment_over_time() {
        // Per-sample and framed ingestion hold the same state: the
        // wavefront frame `push_batch` steps through is per thread, not
        // per attachment, so frames of 64 must not grow any monitor.
        let build = || {
            let mut e = SpringEngine::new();
            let s = e.add_stream("s");
            let q = e.add_query("q", vec![0.5; 64]).unwrap();
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
            e.attach(s, q, 1.0, GapPolicy::CarryForward).unwrap();
            (e, s)
        };
        let stream: Vec<f64> = (0..10_000).map(|t| (t as f64 * 0.1).sin()).collect();
        let (mut per_sample, s) = build();
        per_sample.push(s, &0.0).unwrap();
        let before = per_sample.bytes_used();
        for x in &stream {
            per_sample.push(s, x).unwrap();
        }
        assert_eq!(per_sample.bytes_used(), before);
        let (mut framed, s) = build();
        let mut out = Vec::new();
        framed.push_batch(s, &[0.0], &mut out).unwrap();
        assert_eq!(framed.bytes_used(), before);
        for frame in stream.chunks(64) {
            framed.push_batch(s, frame, &mut out).unwrap();
        }
        assert_eq!(framed.bytes_used(), before);
        assert_eq!(framed.stream_ticks(s), per_sample.stream_ticks(s));
    }

    // ---- batched ingestion ---------------------------------------------

    fn gappy_stream() -> Vec<f64> {
        let mut v = spike_stream(&[5, 20], 40);
        v[11] = f64::NAN;
        v[24] = f64::NAN;
        v
    }

    fn build_engine(policy: GapPolicy) -> (SpringEngine, StreamId) {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let spike = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        let dip = e.add_query("dip", vec![50.0, 45.0, 50.0]).unwrap();
        e.attach(s, spike, 1.0, policy).unwrap();
        e.attach(s, dip, 1.0, policy).unwrap();
        (e, s)
    }

    #[test]
    fn push_batch_agrees_with_push_for_every_gap_policy_and_batch_size() {
        let stream = gappy_stream();
        for policy in [GapPolicy::Skip, GapPolicy::CarryForward] {
            let (mut per_sample, s) = build_engine(policy);
            let mut expect = Vec::new();
            for x in &stream {
                expect.extend(per_sample.push(s, x).unwrap());
            }
            expect.extend(per_sample.finish_stream(s).unwrap());
            for batch in [1usize, 3, 64, stream.len()] {
                let (mut batched, sb) = build_engine(policy);
                let mut got = Vec::new();
                for chunk in stream.chunks(batch) {
                    batched.push_batch(sb, chunk, &mut got).unwrap();
                }
                got.extend(batched.finish_stream(sb).unwrap());
                assert_eq!(got, expect, "policy={policy:?} batch={batch}");
                assert_eq!(batched.stream_ticks(sb), per_sample.stream_ticks(s));
            }
        }
    }

    #[test]
    fn push_batch_error_keeps_prior_tick_events_and_drops_the_failing_tick() {
        // Fail policy: the NaN errors out mid-batch. Events confirmed on
        // earlier ticks of the same batch must survive in `out`.
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Fail).unwrap();
        let batch = [50.0, 0.0, 10.0, 0.0, 50.0, f64::NAN, 0.0];
        let mut out = Vec::new();
        let err = e.push_batch(s, &batch, &mut out).unwrap_err();
        assert_eq!(err, MonitorError::MissingSample { stream: s, tick: 6 });
        // The spike confirmed at tick 5 (one quiet tick after the
        // pattern) is already in `out`.
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].m.start, out[0].m.end), (2, 4));
        // The failing tick was counted (same as per-sample push) but the
        // trailing samples were not consumed.
        assert_eq!(e.stream_ticks(s), Some(6));
    }

    #[test]
    fn push_batch_records_frame_sizes_without_disturbing_tick_counters() {
        let mut e = SpringEngine::new();
        let metrics = Arc::new(Metrics::new());
        e.set_metrics(Arc::clone(&metrics));
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let stream = spike_stream(&[5], 20);
        let mut out = Vec::new();
        for chunk in stream.chunks(8) {
            e.push_batch(s, chunk, &mut out).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.ticks_total, 20, "per-tick counters stay exact");
        assert_eq!(snap.matches_total, 1);
        assert_eq!(snap.batch_len.count, 3, "one observation per frame");
        assert_eq!(snap.batch_len.sum, 20.0);
    }

    #[test]
    fn push_batch_on_vector_streams_validates_per_sample() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut frames: Vec<Vec<f64>> = vec![quiet_row(); 3];
        frames.extend(vquery_rows());
        frames.push(quiet_row());
        let mut out = Vec::new();
        e.push_batch(s, &frames, &mut out).unwrap();
        out.extend(e.finish_stream(s).unwrap());
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].m.start, out[0].m.end), (4, 6));
        // Wrong-width row mid-batch: consumed prefix keeps its ticks, the
        // bad row consumes nothing.
        let bad = vec![quiet_row(), vec![1.0]];
        let mut out2 = Vec::new();
        assert!(matches!(
            e.push_batch(s, &bad, &mut out2),
            Err(MonitorError::Spring(SpringError::DimensionMismatch {
                expected: 2,
                found: 1
            }))
        ));
        assert_eq!(e.stream_ticks(s), Some(8));
    }

    #[test]
    fn push_batch_unknown_stream_is_rejected() {
        let mut e = SpringEngine::new();
        let mut out = Vec::new();
        assert!(matches!(
            e.push_batch(StreamId(3), &[1.0], &mut out),
            Err(MonitorError::UnknownStream(_))
        ));
    }

    // ---- mixed-variant deployments -------------------------------------

    #[test]
    fn mixed_variants_share_one_stream_and_tag_their_events() {
        let mut e = MixedEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach_spec(s, q, MonitorSpec::Spring { epsilon: 1.0 }, GapPolicy::Skip)
            .unwrap();
        e.attach_spec(
            s,
            q,
            MonitorSpec::Bounded {
                epsilon: 1.0,
                min_len: 3,
                max_len: 3,
            },
            GapPolicy::Skip,
        )
        .unwrap();
        e.attach_spec(s, q, MonitorSpec::Best, GapPolicy::Skip)
            .unwrap();
        let mut events = Vec::new();
        for x in spike_stream(&[5], 20) {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        let variants: Vec<MonitorVariant> = events.iter().map(|ev| ev.variant).collect();
        assert!(variants.contains(&MonitorVariant::Spring));
        assert!(variants.contains(&MonitorVariant::Bounded));
        assert!(variants.contains(&MonitorVariant::Best));
        // All three agree on the planted occurrence.
        for ev in &events {
            assert_eq!((ev.m.start, ev.m.end), (6, 8), "{ev:?}");
        }
    }

    #[test]
    fn mixed_engine_events_match_plain_spring_for_spring_specs() {
        let stream = spike_stream(&[4, 15], 28);
        let mut mixed = MixedEngine::new();
        let s = mixed.add_stream("s");
        let q = mixed.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        mixed
            .attach_spec(s, q, MonitorSpec::Spring { epsilon: 1.0 }, GapPolicy::Skip)
            .unwrap();
        let mut plain = SpringEngine::new();
        let s2 = plain.add_stream("s");
        let q2 = plain.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        plain.attach(s2, q2, 1.0, GapPolicy::Skip).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for x in &stream {
            a.extend(mixed.push(s, x).unwrap());
            b.extend(plain.push(s2, x).unwrap());
        }
        a.extend(mixed.finish_stream(s).unwrap());
        b.extend(plain.finish_stream(s2).unwrap());
        let ms_a: Vec<Match> = a.iter().map(|ev| ev.m).collect();
        let ms_b: Vec<Match> = b.iter().map(|ev| ev.m).collect();
        assert_eq!(ms_a, ms_b);
    }

    // ---- vector streams ------------------------------------------------

    fn vquery_rows() -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.0], vec![5.0, -5.0], vec![0.0, 0.0]]
    }

    fn quiet_row() -> Vec<f64> {
        vec![40.0, 40.0]
    }

    #[test]
    fn finds_a_planted_vector_pattern() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        for _ in 0..4 {
            events.extend(e.push(s, &quiet_row()).unwrap());
        }
        for row in vquery_rows() {
            events.extend(e.push(s, &row).unwrap());
        }
        for _ in 0..4 {
            events.extend(e.push(s, &quiet_row()).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].m.start, events[0].m.end, events[0].m.distance),
            (5, 7, 0.0)
        );
        assert_eq!(events[0].variant, MonitorVariant::Vector);
    }

    #[test]
    fn vector_channel_mismatches_are_rejected_at_attach_and_push() {
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 3);
        let q = e.add_query("2d", vquery_rows()).unwrap(); // 2 channels
        assert!(matches!(
            e.attach(s, q, 1.0, GapPolicy::Skip),
            Err(MonitorError::Spring(SpringError::DimensionMismatch {
                expected: 3,
                found: 2
            }))
        ));
        assert!(e.push(s, &[1.0, 2.0][..]).is_err());
        assert!(e.push(s, &[1.0, 2.0, 3.0][..]).unwrap().is_empty());
    }

    #[test]
    fn first_vector_attachment_pins_undeclared_stream_width() {
        let mut e = VectorEngine::new();
        let s = e.add_stream("feed"); // width not declared
        assert_eq!(e.stream_channels(s), None);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        assert_eq!(e.stream_channels(s), Some(2));
        assert!(e.push(s, &[1.0][..]).is_err());
    }

    #[test]
    fn vector_gap_policies_handle_missing_rows() {
        // A NaN component marks the whole row missing.
        let mut e = VectorEngine::new();
        let s = e.add_channel_stream("feed", 2);
        let q = e.add_query("blip", vquery_rows()).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        let mut events = Vec::new();
        events.extend(e.push(s, &quiet_row()).unwrap());
        events.extend(e.push(s, &[f64::NAN, 1.0][..]).unwrap());
        for row in vquery_rows() {
            events.extend(e.push(s, &row).unwrap());
        }
        events.extend(e.push(s, &quiet_row()).unwrap());
        events.extend(e.finish_stream(s).unwrap());
        // Skip compresses: match sits at observed ticks 2..=4.
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));

        let mut f = VectorEngine::new();
        let sf = f.add_channel_stream("feed", 2);
        let qf = f.add_query("blip", vquery_rows()).unwrap();
        f.attach(sf, qf, 1.0, GapPolicy::Fail).unwrap();
        f.push(sf, &quiet_row()).unwrap();
        assert_eq!(
            f.push(sf, &[f64::NAN, 1.0][..]).unwrap_err(),
            MonitorError::MissingSample {
                stream: sf,
                tick: 2
            }
        );
    }

    // ---- shared query arena + hot swap ---------------------------------

    #[test]
    fn attachments_share_one_arena_entry_per_query() {
        let mut e = SpringEngine::new();
        let q = e.add_query("spike", vec![0.0, 10.0, 0.0]).unwrap();
        for i in 0..8 {
            let s = e.add_stream(format!("s{i}"));
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        }
        // Eight attachments, one interned entry: pattern + reversed
        // cache resident exactly once.
        assert_eq!(e.arena().len(), 1);
        assert_eq!(e.arena().resident_cells(), 6);
    }

    #[test]
    fn fleet_memory_is_queries_m_plus_attachments_columns() {
        // The regression pin for the arena refactor: total cells must be
        // O(queries·m + attachments·m_cols), i.e. the shared pattern
        // (m) + reversed cache (m) are charged once per query, and only
        // the DP columns scale with the attachment count.
        let m = 256usize;
        let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.1).sin()).collect();
        let build = |streams: usize| {
            let mut e = SpringEngine::new();
            let q = e.add_query("q", query.clone()).unwrap();
            for i in 0..streams {
                let s = e.add_stream(format!("s{i}"));
                e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
            }
            e
        };
        let one = build(1).memory_cells();
        let many = build(64).memory_cells();
        // Exactly the shared 2m cells are *not* replicated per
        // attachment: many = 2m + 64·(one − 2m).
        assert_eq!(many - one, 63 * (one - 2 * m), "one={one} many={many}");
        assert!(many < 64 * one, "no sharing gain: one={one} many={many}");
    }

    #[test]
    fn swap_query_rebuilds_every_attachment_like_a_fresh_attach() {
        let old = vec![0.0, 10.0, 0.0];
        let new = vec![50.0, 45.0, 50.0];
        let mut e = SpringEngine::new();
        let s1 = e.add_stream("s1");
        let s2 = e.add_stream("s2");
        let q = e.add_query("p", old).unwrap();
        e.attach(s1, q, 1.0, GapPolicy::Skip).unwrap();
        e.attach(s2, q, 1.0, GapPolicy::Skip).unwrap();
        // Warm both attachments with pre-swap traffic.
        for x in spike_stream(&[3], 10) {
            e.push(s1, &x).unwrap();
            e.push(s2, &x).unwrap();
        }
        assert_eq!(e.query_generation(q), Some(0));
        let generation = e.swap_query(q, new.clone()).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(e.query_generation(q), Some(1));
        assert_eq!(e.query_samples(q), Some(new.as_slice()));
        // Post-swap, the fleet behaves exactly like a fresh engine
        // attached to the new pattern (detach-and-reattach semantics).
        let mut fresh = SpringEngine::new();
        let f1 = fresh.add_stream("s1");
        let qf = fresh.add_query("p", new).unwrap();
        fresh.attach(f1, qf, 1.0, GapPolicy::Skip).unwrap();
        let mut dip_stream = spike_stream(&[], 12);
        dip_stream[6] = 45.0;
        let mut got = Vec::new();
        let mut expect = Vec::new();
        for x in dip_stream {
            got.extend(e.push(s1, &x).unwrap());
            expect.extend(fresh.push(f1, &x).unwrap());
        }
        got.extend(e.finish_stream(s1).unwrap());
        expect.extend(fresh.finish_stream(f1).unwrap());
        let got: Vec<Match> = got.iter().map(|ev| ev.m).collect();
        let expect: Vec<Match> = expect.iter().map(|ev| ev.m).collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty(), "the swapped-in dip pattern must fire");
    }

    #[test]
    fn swap_query_is_atomic_on_invalid_patterns() {
        let mut e = SpringEngine::new();
        let s = e.add_stream("s");
        let q = e.add_query("p", vec![0.0, 10.0, 0.0]).unwrap();
        e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        for x in [50.0, 0.0] {
            e.push(s, &x).unwrap();
        }
        assert!(e.swap_query(q, vec![]).is_err());
        assert!(e.swap_query(q, vec![f64::NAN]).is_err());
        assert!(e.swap_query(QueryId(9), vec![1.0]).is_err());
        // The failed swaps left pattern, generation, and DP state alone:
        // the in-flight match still completes.
        assert_eq!(e.query_generation(q), Some(0));
        let mut events = Vec::new();
        for x in [10.0, 0.0, 50.0, 50.0] {
            events.extend(e.push(s, &x).unwrap());
        }
        events.extend(e.finish_stream(s).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].m.start, events[0].m.end), (2, 4));
    }

    #[test]
    fn swap_query_updates_swap_metrics_and_shared_cells() {
        let metrics = Arc::new(Metrics::new());
        let mut e = SpringEngine::new();
        e.set_metrics(Arc::clone(&metrics));
        let q = e.add_query("p", vec![0.0, 10.0, 0.0]).unwrap();
        for i in 0..4 {
            let s = e.add_stream(format!("s{i}"));
            e.attach(s, q, 1.0, GapPolicy::Skip).unwrap();
        }
        assert_eq!(metrics.snapshot().query_swaps_total, 0);
        e.swap_query(q, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        e.swap_query(q, vec![5.0, 6.0]).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.query_swaps_total, 2);
        assert_eq!(snap.query_generation, 2);
        // The old entries were released: one live query of length 2,
        // charged once (2m = 4 cells), not once per attachment.
        assert_eq!(e.arena().len(), 1);
        assert_eq!(e.arena().resident_cells(), 4);
    }

    #[test]
    fn ragged_vector_queries_are_rejected() {
        let mut e = VectorEngine::new();
        assert!(e
            .add_query("ragged", vec![vec![1.0, 2.0], vec![1.0]])
            .is_err());
        assert!(e.add_query("empty", vec![]).is_err());
        assert!(e.add_query("nan", vec![vec![f64::NAN, 1.0]]).is_err());
    }
}
