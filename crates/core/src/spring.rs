//! The SPRING disjoint-query monitor (paper Fig. 4).
//!
//! For each incoming value the monitor updates the STWM column, then:
//!
//! 1. If a captured candidate exists (`dmin ≤ ε`) and no in-flight warping
//!    path can still improve or overlap it
//!    (`∀i: d_i ≥ dmin ∨ s_i > te`, Equation 9), the candidate is
//!    **reported** and the in-group cells are invalidated.
//! 2. If the best subsequence ending *now* qualifies (`d_m ≤ ε`) and beats
//!    the captured candidate (`d_m < dmin`), it becomes the new candidate.
//!
//! This reports exactly the local optimum of each group of overlapping
//! qualifying subsequences — no false dismissals (paper Lemma 2) — as
//! early as the stream permits.

use spring_dtw::kernels::{DistanceKernel, Squared};

use crate::error::{check_epsilon, SpringError};
use crate::kernel::{self, Frame};
use crate::mem::MemoryUse;
use crate::policy::{ColumnOps, DisjointPolicy};
use crate::stwm::Stwm;
use crate::types::Match;

/// [`ColumnOps`] over an STWM column.
pub(crate) struct StwmOps<'a, K: DistanceKernel>(pub &'a mut Stwm<K>);

impl<K: DistanceKernel> ColumnOps for StwmOps<'_, K> {
    fn confirmed(&self, dmin: f64, te: u64) -> bool {
        let m = self.0.query_len();
        let d = self.0.distances();
        let s = self.0.starts();
        (1..=m).all(|i| d[i] >= dmin || s[i] > te)
    }

    fn invalidate(&mut self, te: u64) {
        // Invalidate cells still belonging to the reported group; paths
        // starting after te may seed the next group.
        let m = self.0.query_len();
        for i in 1..=m {
            if self.0.starts()[i] <= te {
                self.0.invalidate(i);
            }
        }
    }

    fn current(&self) -> (f64, u64) {
        (self.0.current_distance(), self.0.current_start())
    }
}

/// [`ColumnOps`] over one stored column of a wavefront [`Frame`] —
/// lets the reporting policy walk a batch's columns tick by tick
/// without committing each one to the rolling matrix first.
struct FrameOps<'a> {
    frame: &'a mut Frame,
    j: usize,
}

impl ColumnOps for FrameOps<'_> {
    fn confirmed(&self, dmin: f64, te: u64) -> bool {
        self.frame.confirmed(self.j, dmin, te)
    }

    fn invalidate(&mut self, te: u64) {
        self.frame.invalidate(self.j, te);
    }

    fn current(&self) -> (f64, u64) {
        self.frame.current(self.j)
    }
}

/// Configuration for a [`Spring`] monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpringConfig {
    /// Distance threshold `ε` of the disjoint query (Problem 2).
    pub epsilon: f64,
}

impl SpringConfig {
    /// Configuration with threshold `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        SpringConfig { epsilon }
    }
}

/// Streaming disjoint-query monitor: one fixed query over one stream.
///
/// See the crate-level docs for a worked example. Requires `O(m)` space
/// and `O(m)` time per tick regardless of how long the stream has been
/// running (paper Lemma 4).
#[derive(Debug, Clone)]
pub struct Spring<K: DistanceKernel = Squared> {
    stwm: Stwm<K>,
    policy: DisjointPolicy,
    /// Total matches reported (monitoring statistic).
    reported: u64,
    /// Query generation this monitor was built against (bumped by the
    /// fleet-wide hot-swap path; recorded in checkpoints so replay can
    /// tell pre- from post-swap state).
    generation: u64,
}

impl Spring<Squared> {
    /// Monitor with the paper's default squared kernel.
    pub fn new(query: &[f64], config: SpringConfig) -> Result<Self, SpringError> {
        Self::with_kernel(query, config, Squared)
    }
}

impl<K: DistanceKernel> Spring<K> {
    /// Monitor with an explicit distance kernel.
    pub fn with_kernel(
        query: &[f64],
        config: SpringConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(config.epsilon)?;
        Ok(Spring {
            stwm: Stwm::with_kernel(query, kernel)?,
            policy: DisjointPolicy::new(config.epsilon),
            reported: 0,
            generation: 0,
        })
    }

    /// Monitor over a shared arena entry ([`crate::QueryRef`]): borrows
    /// the pattern and reversed-query cache, allocating only the
    /// per-attachment DP columns. Bit-identical to the plain
    /// constructors on the same pattern.
    ///
    /// # Errors
    /// Rejects an invalid ε or a multivariate entry.
    pub fn with_query_ref(
        query: std::sync::Arc<crate::QueryRef>,
        config: SpringConfig,
        kernel: K,
    ) -> Result<Self, SpringError> {
        check_epsilon(config.epsilon)?;
        Ok(Spring {
            stwm: Stwm::with_query_ref(query, kernel)?,
            policy: DisjointPolicy::new(config.epsilon),
            reported: 0,
            generation: 0,
        })
    }

    /// The shared arena entry backing this monitor.
    pub fn query_ref(&self) -> &std::sync::Arc<crate::QueryRef> {
        self.stwm.query_ref()
    }

    /// Query generation this monitor reflects (0 until a hot-swap).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tags the monitor with a query generation (hot-swap bookkeeping;
    /// does not touch the matrix).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The threshold `ε`.
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon
    }

    /// Query length `m`.
    pub fn query_len(&self) -> usize {
        self.stwm.query_len()
    }

    /// Current 1-based tick.
    pub fn tick(&self) -> u64 {
        self.stwm.tick()
    }

    /// Number of matches reported so far.
    pub fn reported_count(&self) -> u64 {
        self.reported
    }

    /// The captured-but-unconfirmed candidate, if any:
    /// `(distance, start, end)`.
    pub fn pending(&self) -> Option<(f64, u64, u64)> {
        self.policy.pending()
    }

    /// Read access to the underlying STWM (current column, tick, query).
    pub fn stwm(&self) -> &Stwm<K> {
        &self.stwm
    }

    /// Policy bookkeeping for [`crate::snapshot::SpringSnapshot`].
    pub(crate) fn policy_state(&self) -> (f64, u64, u64, u64, u64) {
        self.policy.state()
    }

    /// Restores checkpointed state (column + policy + counters); the
    /// monitor must have been constructed with the snapshot's query and
    /// epsilon.
    pub(crate) fn load_state(&mut self, snap: &crate::snapshot::SpringSnapshot) {
        self.stwm
            .load_column(snap.tick, &snap.distances, &snap.starts);
        let c = snap.candidate;
        self.policy
            .set_state((c.dmin, c.ts, c.te, c.group_start, c.group_end));
        self.reported = snap.reported;
        self.generation = snap.generation;
    }

    /// Mutable STWM access for [`crate::PathSpring`], which needs the
    /// traced step; callers must invoke `after_column` exactly once per
    /// column filled.
    pub(crate) fn stwm_mut(&mut self) -> &mut Stwm<K> {
        &mut self.stwm
    }

    /// Consumes the next stream value; returns a match if one group's
    /// optimum was confirmed at this tick.
    ///
    /// In release builds non-finite inputs corrupt the matrix silently;
    /// use [`Spring::step_checked`] on untrusted input.
    pub fn step(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        self.stwm.step(x);
        self.after_column()
    }

    /// Like [`Spring::step`], but fills the column with the branchy
    /// scalar reference loop instead of the SoA kernel. The two paths
    /// are bit-identical (same matches, same `f64::to_bits` distances);
    /// the differential suite and the `kernel_throughput` bench use this
    /// as the executable spec / speedup baseline.
    pub fn step_reference(&mut self, x: f64) -> Option<Match> {
        debug_assert!(x.is_finite(), "stream value must be finite");
        self.stwm.step_reference(x);
        self.after_column()
    }

    /// Validating variant of [`Spring::step`].
    pub fn step_checked(&mut self, x: f64) -> Result<Option<Match>, SpringError> {
        if !x.is_finite() {
            return Err(SpringError::NonFiniteInput {
                tick: self.stwm.tick() + 1,
            });
        }
        Ok(self.step(x))
    }

    /// The report/capture logic shared by `step` and [`crate::PathSpring`].
    pub(crate) fn after_column(&mut self) -> Option<Match> {
        let t = self.stwm.tick();
        let report = self.policy.step(t, &mut StwmOps(&mut self.stwm));
        self.reported += u64::from(report.is_some());
        report
    }

    /// Ingests one frame of finite samples (`1 ..= FRAME_COLS`): fills
    /// all columns of this thread's wavefront frame, then replays the
    /// capture/confirm policy over the stored columns in tick order. A
    /// report invalidates its column, so the (rare) tail after a report
    /// is recomputed with the per-column kernel before the walk
    /// continues. Bit-identical to calling [`Spring::step`] per sample.
    fn step_frame(&mut self, xs: &[f64], out: &mut Vec<Match>) {
        kernel::with_frame(|frame| {
            let t0 = self.stwm.tick();
            self.stwm.fill_frame(xs, frame);
            let w = xs.len();
            for j in 1..=w {
                let t = t0 + j as u64;
                let report = self.policy.step(t, &mut FrameOps { frame, j });
                if let Some(m) = report {
                    self.reported += 1;
                    out.push(m);
                    if j < w {
                        self.stwm.refill_frame_tail(xs, frame, j + 1);
                    }
                }
            }
            self.stwm.commit_frame(frame);
        });
    }

    /// Declares the end of the stream: reports the still-pending group
    /// optimum, if any. Idempotent.
    pub fn finish(&mut self) -> Option<Match> {
        let report = self.policy.finish(self.stwm.tick());
        self.reported += u64::from(report.is_some());
        report
    }
}

impl<K: DistanceKernel> MemoryUse for Spring<K> {
    fn bytes_used(&self) -> usize {
        self.stwm.bytes_used()
    }
}

impl<K: DistanceKernel> crate::monitor::Monitor for Spring<K> {
    type Sample = f64;

    fn variant(&self) -> crate::monitor::MonitorVariant {
        crate::monitor::MonitorVariant::Spring
    }

    fn step(&mut self, sample: &f64) -> Result<Option<Match>, SpringError> {
        self.step_checked(*sample)
    }

    /// Optimized batch path: ingests the samples in frames of
    /// `kernel::FRAME_COLS` (8) columns via the anti-diagonal wavefront
    /// kernel, which pipelines up to a frame's worth of independent
    /// min/add chains instead of serializing on one column's — see
    /// `crate::kernel::Frame`. Chunks narrower than
    /// `kernel::WAVEFRONT_MIN_COLS` cannot amortize the frame's fixed
    /// cost and take the per-column kernel instead. Bit-identical to
    /// per-sample stepping (same matches, same column bits). Matches
    /// append to the caller-owned `out`; after the first batch the
    /// steady state allocates nothing.
    fn step_batch(&mut self, samples: &[f64], out: &mut Vec<Match>) -> Result<(), SpringError> {
        for chunk in samples.chunks(kernel::FRAME_COLS) {
            // The error contract consumes every sample before the first
            // non-finite one, so a poisoned chunk still ingests its
            // valid prefix.
            let bad = chunk.iter().position(|x| !x.is_finite());
            let valid = &chunk[..bad.unwrap_or(chunk.len())];
            if valid.len() >= kernel::WAVEFRONT_MIN_COLS {
                self.step_frame(valid, out);
            } else {
                for &x in valid {
                    out.extend(Spring::step(self, x));
                }
            }
            if bad.is_some() {
                return Err(SpringError::NonFiniteInput {
                    tick: self.stwm.tick() + 1,
                });
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Option<Match> {
        Spring::finish(self)
    }

    fn query_len(&self) -> usize {
        Spring::query_len(self)
    }

    fn epsilon(&self) -> Option<f64> {
        Some(Spring::epsilon(self))
    }

    fn tick(&self) -> u64 {
        Spring::tick(self)
    }

    fn memory_use(&self) -> usize {
        self.bytes_used()
    }

    fn memory_cells(&self) -> usize {
        // Per-attachment cells only: DP columns + scratch (the wavefront
        // frame is per thread, not per monitor). The shared pattern is
        // reported once per query through `shared_memory_cells`, not
        // once per attachment.
        self.stwm.attachment_cells()
    }

    fn shared_memory_cells(&self) -> usize {
        self.stwm.query_ref().cells()
    }

    fn query_fingerprint(&self) -> Option<u64> {
        Some(self.stwm.query_ref().fingerprint())
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    fn reset(&mut self) {
        self.stwm.reset();
        self.policy = DisjointPolicy::new(self.policy.epsilon);
        self.reported = 0;
    }

    fn is_missing(sample: &f64) -> bool {
        !sample.is_finite()
    }

    fn sample_dim(_sample: &f64) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(query: &[f64], stream: &[f64], eps: f64) -> Vec<Match> {
        let mut spring = Spring::new(query, SpringConfig::new(eps)).unwrap();
        let mut out: Vec<Match> = stream.iter().filter_map(|&x| spring.step(x)).collect();
        out.extend(spring.finish());
        out
    }

    #[test]
    fn example1_reproduces_the_paper_exactly() {
        // ε = 15, X = (5,12,6,10,6,5,13), Y = (11,6,9,4): the optimal
        // subsequence X[2:5] (distance 6) is reported at t = 7.
        let out = run(
            &[11.0, 6.0, 9.0, 4.0],
            &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0],
            15.0,
        );
        assert_eq!(out.len(), 1);
        let m = out[0];
        assert_eq!((m.start, m.end, m.distance, m.reported_at), (2, 5, 6.0, 7));
    }

    #[test]
    fn example1_candidate_timeline() {
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut spring = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        let mut pendings = Vec::new();
        for &x in &stream {
            let r = spring.step(x);
            pendings.push((spring.tick(), spring.pending(), r.is_some()));
        }
        // t = 3: candidate X[2:3] at distance 14 captured, not reported.
        assert_eq!(pendings[2], (3, Some((14.0, 2, 3)), false));
        // t = 4: still held (d(4,3) = 2 could grow into a better match).
        assert_eq!(pendings[3], (4, Some((14.0, 2, 3)), false));
        // t = 5: replaced by X[2:5] at distance 6.
        assert_eq!(pendings[4], (5, Some((6.0, 2, 5)), false));
        // t = 7: reported; pending cleared.
        assert_eq!(pendings[6].1, None);
        assert!(pendings[6].2);
    }

    #[test]
    fn example1_keeps_cell_of_next_group_alive() {
        // After the report at t = 7, d(7, 1) (start 7 > te = 5) must
        // survive the reset: "we do not initialize d(7, 1)".
        let query = [11.0, 6.0, 9.0, 4.0];
        let stream = [5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0];
        let mut spring = Spring::new(&query, SpringConfig::new(15.0)).unwrap();
        for &x in &stream {
            spring.step(x);
        }
        let d = spring.stwm().distances();
        assert_eq!(d[1], 4.0); // (13 − 11)², intact
        assert!(d[2].is_infinite() && d[3].is_infinite() && d[4].is_infinite());
    }

    #[test]
    fn no_match_when_epsilon_too_small() {
        let out = run(
            &[11.0, 6.0, 9.0, 4.0],
            &[5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0],
            5.0,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn finish_flushes_trailing_group() {
        // The stream ends while the candidate is still improving; only
        // finish() can report it.
        let query = [1.0, 2.0, 3.0];
        let stream = [9.0, 9.0, 1.0, 2.0, 3.0];
        let mut spring = Spring::new(&query, SpringConfig::new(0.5)).unwrap();
        let mut inline = Vec::new();
        for &x in &stream {
            inline.extend(spring.step(x));
        }
        assert!(inline.is_empty());
        let tail = spring.finish().expect("pending match flushed");
        assert_eq!((tail.start, tail.end, tail.distance), (3, 5, 0.0));
        assert_eq!(spring.finish(), None, "finish is idempotent");
    }

    #[test]
    fn two_disjoint_occurrences_yield_two_reports() {
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 5];
        stream.extend([0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 5]);
        stream.extend([0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 5]);
        let out = run(&query, &stream, 1.0);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].start, out[0].end), (6, 8));
        assert_eq!((out[1].start, out[1].end), (14, 16));
        assert!(!out[0].overlaps(&out[1]));
        assert_eq!(out[0].distance, 0.0);
    }

    #[test]
    fn overlapping_candidates_report_only_the_local_minimum() {
        // A slightly-off occurrence immediately followed by a perfect one:
        // both qualify and overlap; only the better one may be reported.
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 3];
        stream.extend([0.5, 10.5, 0.0, 10.0, 0.0]); // overlapping matches
        stream.extend(vec![50.0; 3]);
        let out = run(&query, &stream, 2.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].distance, 0.0);
        assert_eq!((out[0].start, out[0].end), (6, 8));
    }

    #[test]
    fn group_extent_covers_all_overlapping_candidates() {
        let query = [0.0, 10.0, 0.0];
        let mut stream = vec![50.0; 3];
        stream.extend([0.5, 10.5, 0.0, 10.0, 0.0]);
        stream.extend(vec![50.0; 3]);
        let out = run(&query, &stream, 2.0);
        assert_eq!(out.len(), 1);
        // The qualifying group includes the earlier, worse candidate.
        assert!(out[0].group_start <= 4);
        assert!(out[0].group_end >= out[0].end);
    }

    #[test]
    fn report_delay_is_zero_or_more_and_bounded_by_disjointness() {
        let query = [0.0, 5.0, 0.0];
        let mut stream = Vec::new();
        for _ in 0..4 {
            stream.extend(vec![99.0; 6]);
            stream.extend([0.0, 5.0, 0.0]);
        }
        stream.extend(vec![99.0; 6]);
        let out = run(&query, &stream, 0.5);
        assert_eq!(out.len(), 4);
        for m in &out {
            assert!(m.reported_at >= m.end);
        }
    }

    #[test]
    fn reported_distances_match_exact_subsequence_dtw() {
        let query = [1.0, 4.0, 2.0, 8.0];
        let stream: Vec<f64> = (0..60)
            .map(|i| ((i as f64) * 0.7).sin() * 4.0 + 3.0)
            .collect();
        let out = run(&query, &stream, 8.0);
        for m in &out {
            let sub = &stream[m.range0()];
            let exact = spring_dtw::dtw_distance(sub, &query).unwrap();
            assert!(
                (m.distance - exact).abs() < 1e-9,
                "reported {} != exact {} for {:?}",
                m.distance,
                exact,
                (m.start, m.end)
            );
        }
    }

    #[test]
    fn epsilon_zero_only_reports_exact_occurrences() {
        let query = [2.0, 7.0];
        let mut stream = vec![1.0; 4];
        stream.extend([2.0, 7.0]);
        stream.extend(vec![1.0; 4]);
        let out = run(&query, &stream, 0.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].distance, 0.0);
    }

    #[test]
    fn batched_ingestion_with_frequent_reports_matches_per_sample() {
        // Dense, repeating occurrences force reports (and therefore
        // column invalidation + frame-tail recomputation) to land on
        // every in-frame offset across the run. The batched monitor must
        // report identical matches and leave bit-identical columns.
        use crate::monitor::Monitor as _;
        let query = [0.0, 6.0, 0.0];
        let mut stream = Vec::new();
        for gap in 1..=12usize {
            for _ in 0..3 {
                stream.extend([0.0, 6.0, 0.0]);
                stream.extend(std::iter::repeat_n(40.0, gap));
            }
        }
        for batch in [1usize, 2, 3, 5, 8, 13, 64] {
            let mut a = Spring::new(&query, SpringConfig::new(2.0)).unwrap();
            let mut b = Spring::new(&query, SpringConfig::new(2.0)).unwrap();
            let mut expect = Vec::new();
            for &x in &stream {
                expect.extend(a.step(x));
            }
            let mut got = Vec::new();
            for chunk in stream.chunks(batch) {
                b.step_batch(chunk, &mut got).unwrap();
            }
            assert_eq!(got, expect, "batch={batch}");
            assert_eq!(a.pending(), b.pending(), "batch={batch}");
            assert_eq!(
                a.stwm()
                    .distances()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
                b.stwm()
                    .distances()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
                "batch={batch}: final distance column diverges"
            );
            assert_eq!(a.stwm().starts(), b.stwm().starts(), "batch={batch}");
        }
    }

    #[test]
    fn monitors_of_different_lengths_share_one_thread_frame_bit_exactly() {
        // Interleave batches of a long, a short and a mid-length query
        // on one thread: each fill reuses the frame the previous monitor
        // left behind (larger or smaller), which must not leak into any
        // result. Widths cover the column route (< WAVEFRONT_MIN_COLS),
        // full frames and ragged tails.
        use crate::monitor::Monitor as _;
        let stream: Vec<f64> = (0..600)
            .map(|t| (t as f64 * 0.37).sin() * 4.0 + if t % 50 < 3 { 6.0 } else { 0.0 })
            .collect();
        let queries: Vec<Vec<f64>> = [40usize, 3, 17]
            .iter()
            .map(|&m| (0..m).map(|i| (i as f64 * 0.37).sin() * 4.0).collect())
            .collect();
        for batch in [1usize, 3, 4, 7, 8, 9, 64] {
            let mut per_sample: Vec<Spring> = queries
                .iter()
                .map(|q| Spring::new(q, SpringConfig::new(3.0)).unwrap())
                .collect();
            let mut batched = per_sample.clone();
            let mut expect = vec![Vec::new(); queries.len()];
            let mut got = vec![Vec::new(); queries.len()];
            for chunk in stream.chunks(batch) {
                for (k, (a, b)) in per_sample.iter_mut().zip(&mut batched).enumerate() {
                    for &x in chunk {
                        expect[k].extend(a.step(x));
                    }
                    b.step_batch(chunk, &mut got[k]).unwrap();
                }
            }
            for (k, (a, b)) in per_sample.iter().zip(&batched).enumerate() {
                assert!(expect[k].len() > 1, "query {k} reports mid-stream");
                assert_eq!(got[k], expect[k], "batch={batch} query={k}");
                let bits = |s: &Spring| -> Vec<u64> {
                    s.stwm().distances().iter().map(|d| d.to_bits()).collect()
                };
                assert_eq!(bits(a), bits(b), "batch={batch} query={k}");
                assert_eq!(a.stwm().starts(), b.stwm().starts(), "batch={batch}");
            }
        }
    }

    #[test]
    fn step_checked_rejects_non_finite() {
        let mut spring = Spring::new(&[1.0], SpringConfig::new(1.0)).unwrap();
        assert!(matches!(
            spring.step_checked(f64::NAN),
            Err(SpringError::NonFiniteInput { tick: 1 })
        ));
        assert!(spring.step_checked(1.0).is_ok());
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Spring::new(&[1.0], SpringConfig::new(-1.0)).is_err());
        assert!(Spring::new(&[], SpringConfig::new(1.0)).is_err());
    }

    #[test]
    fn constant_memory_over_long_streams() {
        use crate::mem::MemoryUse;
        let mut spring = Spring::new(&vec![0.0; 128], SpringConfig::new(10.0)).unwrap();
        let before = spring.bytes_used();
        for t in 0..50_000 {
            spring.step((t as f64 * 0.01).sin());
        }
        assert_eq!(spring.bytes_used(), before);
    }
}
