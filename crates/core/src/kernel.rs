//! Lane-level column kernels for the STWM recurrence (Eq. 6–8).
//!
//! The per-tick DP update
//!
//! ```text
//! d(t, i) = ‖x_t − y_i‖ + min(d(t, i−1), d(t−1, i), d(t−1, i−1))
//! ```
//!
//! looks inherently sequential: `d(t, i)` reads `d(t, i−1)` from the
//! *same* column. The kernel splits it into two phases so everything
//! except that single carried value is data-parallel over the
//! structure-of-arrays lanes (`Vec<f64>` distances, `Vec<u64>` starts):
//!
//! 1. **Lane phase** (no loop-carried dependency, chunked [`LANES`]
//!    wide): per row `i`, the base distance `base[i] = ‖x − y_i‖` and
//!    the merged prev-column predecessor
//!    `dd[i] = min⁻(d(t−1, i), d(t−1, i−1))`, with the start lane
//!    `sd[i]` following the same selection mask. `min⁻` prefers the
//!    *down* cell on ties — the Eq. (8) tie order with the in-column
//!    *left* cell peeled off.
//! 2. **Carry phase** (sequential but branchless): per row `i`, compare
//!    the freshly computed left neighbour `d(t, i−1)` against `dd[i]`
//!    and finish `d(t, i) = base[i] + min(left, dd[i])`, the start lane
//!    again following the mask.
//!
//! ## Reduction-order contract (bit-exactness)
//!
//! The split preserves Eq. (8)'s tie order *exactly*: the scalar
//! reference picks `left` iff `left ≤ down ∧ left ≤ diag`, and the
//! two-phase kernel picks `left` iff `left ≤ dd` where
//! `dd = (down ≤ diag ? down : diag)`. Over the monitors' validated
//! state space (column values in `[0, +∞]`, never NaN — non-finite
//! inputs are rejected before the column fill) the two predicates are
//! equivalent by transitivity, every select is an element-wise IEEE
//! comparison, and the single f64 addition `base + dbest` happens in
//! the same order in both forms — so scalar reference, portable chunked
//! kernel, and the explicit SIMD paths produce bit-identical columns
//! (`f64::to_bits`), which the differential suite pins
//! (`crates/testkit/tests/kernel_differential.rs`). See DESIGN.md §6g.
//!
//! ## SIMD
//!
//! With the `simd` cargo feature on `x86_64`, the lane-phase min-select
//! runs on `core::arch` intrinsics (AVX2 when the CPU has it, SSE2
//! otherwise) — that is the one place autovectorizers struggle, because
//! the `u64` start lane must be blended under the `f64` comparison
//! mask. The base-distance fill and the carry phase stay in portable
//! Rust (the former autovectorizes, the latter is a serial chain). The
//! `simd` module is the only `unsafe` code in the crate and is gated by
//! `#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]`; the
//! hosted `miri` CI job runs the kernel tests under Miri to keep it
//! UB-clean.

use std::cell::RefCell;

use spring_dtw::kernels::DistanceKernel;

use crate::stwm::Step;

/// Portable chunk width of the lane phase: wide enough for one AVX-512
/// or two AVX2 vectors of `f64`, and a multiple of every narrower lane
/// count, so the autovectorizer can pick whatever the target offers.
const LANES: usize = 8;

/// Reusable scratch lanes for the two-phase column fill, sized `m + 1`
/// to share the column indexing (index 0 is unused padding for the star
/// row). Owned by the matrix so `step_batch` amortizes the setup across
/// a whole frame and the steady state stays allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// `base[i] = ‖x − y_i‖` for `i = 1 ..= m`.
    base: Vec<f64>,
    /// `dd[i] = min⁻(d(t−1, i), d(t−1, i−1))` (down preferred on ties).
    dd: Vec<f64>,
    /// Start-lane values tracking `dd`'s selection.
    sd: Vec<u64>,
}

impl Scratch {
    /// Scratch for a query of length `m`.
    pub(crate) fn new(m: usize) -> Self {
        Scratch {
            base: vec![0.0; m + 1],
            dd: vec![0.0; m + 1],
            sd: vec![0; m + 1],
        }
    }

    /// Heap bytes held by the scratch lanes (for `MemoryUse`).
    pub(crate) fn bytes(&self) -> usize {
        (self.base.capacity() + self.dd.capacity()) * std::mem::size_of::<f64>()
            + self.sd.capacity() * std::mem::size_of::<u64>()
    }
}

/// Fills `base[i] = kernel.dist(x, query[i - 1])` for `i = 1 ..= m`.
/// A straight lane loop: both built-in kernels inline to 2–3 arithmetic
/// ops, so this autovectorizes without explicit intrinsics.
#[inline]
fn fill_base<K: DistanceKernel>(kernel: K, query: &[f64], x: f64, base: &mut [f64]) {
    for (b, &q) in base[1..].iter_mut().zip(query) {
        *b = kernel.dist(x, q);
    }
}

/// Lane-phase min-select over a full previous column (`len m + 1`):
/// for `i = 1 ..= m`, `dd[i] = min⁻(d_prev[i], d_prev[i−1])` with
/// `sd[i]` following the mask. Dispatches to the SIMD path when built
/// with `--features simd` on x86_64.
#[inline]
pub(crate) fn min_select(d_prev: &[f64], s_prev: &[u64], dd: &mut [f64], sd: &mut [u64]) {
    let m = d_prev.len() - 1;
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::min_select(
            &d_prev[1..],
            &d_prev[..m],
            &s_prev[1..],
            &s_prev[..m],
            &mut dd[1..m + 1],
            &mut sd[1..m + 1],
        );
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        min_select_portable(
            &d_prev[1..],
            &d_prev[..m],
            &s_prev[1..],
            &s_prev[..m],
            &mut dd[1..m + 1],
            &mut sd[1..m + 1],
        );
    }
}

/// Portable chunked min-select: `dd[i] = down[i]` if `down[i] ≤ diag[i]`
/// else `diag[i]`, the start lane blended under the same mask. The
/// fixed-width inner loop has no carried dependency, so LLVM unrolls
/// and vectorizes it at whatever width the target supports.
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), allow(dead_code))]
fn min_select_portable(
    down: &[f64],
    diag: &[f64],
    sdown: &[u64],
    sdiag: &[u64],
    dd: &mut [f64],
    sd: &mut [u64],
) {
    let n = dd.len();
    let mut i = 0;
    while i + LANES <= n {
        for k in 0..LANES {
            let j = i + k;
            let take_down = down[j] <= diag[j];
            dd[j] = if take_down { down[j] } else { diag[j] };
            sd[j] = if take_down { sdown[j] } else { sdiag[j] };
        }
        i += LANES;
    }
    while i < n {
        let take_down = down[i] <= diag[i];
        dd[i] = if take_down { down[i] } else { diag[i] };
        sd[i] = if take_down { sdown[i] } else { sdiag[i] };
        i += 1;
    }
}

/// Carry phase: finishes the column with the in-column *left*
/// dependency, branchlessly. `d_cur[0]`/`s_cur[0]` must already hold
/// the star cell `(0, t)`; `base`/`dd`/`sd` are the `m + 1`-sized
/// scratch lanes. Picking `left` iff `left ≤ dd[i]` reproduces the
/// Eq. (8) tie order exactly (see the module docs).
#[inline]
pub(crate) fn carry(base: &[f64], dd: &[f64], sd: &[u64], d_cur: &mut [f64], s_cur: &mut [u64]) {
    let m = base.len() - 1;
    let mut left = d_cur[0];
    let mut sleft = s_cur[0];
    for i in 1..=m {
        let take_left = left <= dd[i];
        let dbest = if take_left { left } else { dd[i] };
        let s = if take_left { sleft } else { sd[i] };
        left = base[i] + dbest;
        sleft = s;
        d_cur[i] = left;
        s_cur[i] = s;
    }
}

/// Fills one STWM column with the two-phase SoA kernel. Star cells of
/// both columns are (re)set to `(0, t)` first, exactly as the scalar
/// reference does. Bit-exact with [`fill_column_reference`].
#[allow(clippy::too_many_arguments)] // the five lanes ARE the layout
pub(crate) fn fill_column<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    x: f64,
    t: u64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    scratch: &mut Scratch,
) {
    fill_column_with(
        |base| fill_base(kernel, query, x, base),
        t,
        d_prev,
        s_prev,
        d_cur,
        s_cur,
        scratch,
    );
}

/// [`fill_column`] generalized over the base-distance row: `fill_base`
/// receives the full `m + 1` base lane (index 0 unused) and must fill
/// `base[i] = ‖x − y_i‖` for `i = 1 ..= m`. This is how the
/// multivariate STWM (`crate::vector`), whose element distance sums
/// over channels, shares the min-select and carry phases.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_column_with(
    fill_base: impl FnOnce(&mut [f64]),
    t: u64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    scratch: &mut Scratch,
) {
    // Star row: distance 0; a path entering from (t, 0) or diagonally
    // from (t−1, 0) starts its first real element at tick t.
    d_prev[0] = 0.0;
    s_prev[0] = t;
    d_cur[0] = 0.0;
    s_cur[0] = t;
    fill_base(&mut scratch.base);
    min_select(d_prev, s_prev, &mut scratch.dd, &mut scratch.sd);
    carry(&scratch.base, &scratch.dd, &scratch.sd, d_cur, s_cur);
}

/// Number of stream samples one [`Frame`] ingests at a time: the lane
/// width of the anti-diagonal wavefront (one AVX-512 vector of `f64`,
/// four AVX2 vectors, and enough independent work to hide the min/add
/// latency chain even in scalar code).
pub(crate) const FRAME_COLS: usize = 8;

/// Narrowest chunk the wavefront pays off on. A frame of `w` columns
/// pays a fixed cost — loading the incoming column into lane 0, the
/// `2(w−1)` ramp diagonals, committing the last column back — that only
/// enough columns amortize, so `step_batch` sends chunks narrower than
/// this through the per-column kernel instead. Measured per width at
/// m ∈ {16, 64, 256}: widths 1–3 lose to the column kernel at 8 of the
/// 9 points (up to 2.0× per sample), width 4 breaks even at m ≥ 64
/// (table in DESIGN.md §6g).
pub(crate) const WAVEFRONT_MIN_COLS: usize = 4;

/// Lane stride of one diagonal block: lane 0 carries the incoming
/// previous column, lanes `1 ..= FRAME_COLS` the frame's sample columns.
const DIAG_STRIDE: usize = FRAME_COLS + 1;

thread_local! {
    /// This thread's wavefront frame. A frame only holds data during
    /// one `step_batch` chunk — [`crate::stwm::Stwm::commit_frame`]
    /// copies its last column back into the monitor's rolling matrix —
    /// so every monitor a thread steps shares one frame, sized to the
    /// largest query that thread has seen, instead of each monitor
    /// carrying (and every checkpoint fork copying) its own `O(m)` block.
    static FRAME: RefCell<Frame> = const { RefCell::new(Frame::EMPTY) };
}

/// Runs `f` on this thread's shared wavefront frame (see [`FRAME`]).
/// Frame users never call back into another monitor, so the borrow is
/// never re-entered.
pub(crate) fn with_frame<R>(f: impl FnOnce(&mut Frame) -> R) -> R {
    FRAME.with(|frame| f(&mut frame.borrow_mut()))
}

/// A block of [`FRAME_COLS`] STWM columns filled as one unit.
///
/// The per-column kernel is latency-bound: `d(t, i)` needs `d(t, i−1)`
/// through a float min + add chain (~8 cycles/cell on current x86), and
/// no lane-parallelism inside one column can hide it. Across a block of
/// consecutive samples, though, the recurrence has a classic wavefront
/// structure: cells on one anti-diagonal (`column + row = const`)
/// depend only on the previous two anti-diagonals, so every
/// anti-diagonal is an *elementwise* lane operation with no carried
/// dependency at all.
///
/// Storage is therefore **diagonal-major**: the cell at column `j`
/// (0 = the incoming previous column, `1 ..= w` = one per ingested
/// sample) and row `i` lives at flat index
/// `(j + i) · DIAG_STRIDE + j`. All three predecessors of the cells on
/// diagonal `k` — left `(j, i−1)`, down `(j−1, i)`, diag `(j−1, i−1)` —
/// are then *contiguous windows* of the two previous diagonal blocks,
/// shifted by at most one lane:
///
/// ```text
///   diag k−2:  [ ·  dg dg dg dg ·  ]      (lanes j_lo−1 .. j_hi−1)
///   diag k−1:  [ dn ln ln ln ln ln ]      (down: j−1, left: j)
///   diag k:    [ ·  ◆  ◆  ◆  ◆  ◆  ]  ←  base[j] + min⁻(left, down, diag)
/// ```
///
/// so the inner loop is a pure SoA lane loop over exact-length slices —
/// no gathers, no bounds checks, and the query is read through a
/// reversed cache (`qrev`) that makes its diagonal access contiguous
/// too. `Monitor::step_batch` ingests each frame with
/// [`crate::stwm::Stwm::fill_frame`], runs the reporting policy over
/// the stored columns (strided, early-exit scans), and commits the last
/// column back to the rolling matrix.
///
/// Every cell is computed by the same expression in the same order as
/// the scalar reference (`base + min⁻(left, down, diag)` with Eq. (8)
/// tie-breaking), just in a different *schedule* — cell values depend
/// only on predecessor cells, so the result is bit-identical.
#[derive(Debug)]
pub(crate) struct Frame {
    d: Vec<f64>,
    s: Vec<u64>,
    /// Query length this frame is sized for.
    m: usize,
    /// Live sample columns this frame (`1 ..= w` are valid).
    w: usize,
    /// Cold-path column buffers for [`refill_frame_tail`] (previous and
    /// current column of the per-column kernel).
    tmp_pd: Vec<f64>,
    tmp_ps: Vec<u64>,
    tmp_cd: Vec<f64>,
    tmp_cs: Vec<u64>,
}

impl Frame {
    /// A frame with no storage; [`fill_frame`] sizes it on first use.
    const EMPTY: Frame = Frame {
        d: Vec::new(),
        s: Vec::new(),
        m: 0,
        w: 0,
        tmp_pd: Vec::new(),
        tmp_ps: Vec::new(),
        tmp_cd: Vec::new(),
        tmp_cs: Vec::new(),
    };

    /// Flat index of (column `j`, row `i`).
    #[inline]
    fn at(&self, j: usize, i: usize) -> usize {
        (j + i) * DIAG_STRIDE + j
    }

    /// Sizes storage for query length `m` and marks `w` live columns.
    /// Diagonal storage only grows: a frame shared by monitors of
    /// different `m` keeps the largest block. Live cells (rows `≤ m`)
    /// only read live cells written earlier in the same fill, so what a
    /// longer query left past row `m` never reaches a result. Capacity
    /// covers [`FRAME_COLS`] columns regardless of `w`, so ragged final
    /// chunks never reallocate. The row-order temps must be exactly
    /// `m + 1` long; resizing them within their capacity does not
    /// allocate.
    fn ensure(&mut self, m: usize, w: usize) {
        debug_assert!((1..=FRAME_COLS).contains(&w));
        let need = (m + FRAME_COLS + 1) * DIAG_STRIDE;
        if self.d.len() < need {
            self.d.resize(need, f64::INFINITY);
            self.s.resize(need, 0);
        }
        if self.tmp_pd.len() != m + 1 {
            self.tmp_pd.resize(m + 1, f64::INFINITY);
            self.tmp_ps.resize(m + 1, 0);
            self.tmp_cd.resize(m + 1, f64::INFINITY);
            self.tmp_cs.resize(m + 1, 0);
        }
        self.m = m;
        self.w = w;
    }

    /// Live sample columns (`1 ..= width()`).
    pub(crate) fn width(&self) -> usize {
        self.w
    }

    /// Equation (9) over column `j`: every live cell has `d ≥ dmin` or
    /// starts after `te`. Strided walk with the same early exit as the
    /// rolling-column scan — unconfirmed columns (the common case while
    /// a candidate is pending) trip within a few cells; the full-length
    /// scan only happens on the tick that actually confirms a report.
    pub(crate) fn confirmed(&self, j: usize, dmin: f64, te: u64) -> bool {
        let mut idx = self.at(j, 1);
        for _ in 1..=self.m {
            if self.d[idx] < dmin && self.s[idx] <= te {
                return false;
            }
            idx += DIAG_STRIDE;
        }
        true
    }

    /// `(d_m, s_m)` of column `j`.
    pub(crate) fn current(&self, j: usize) -> (f64, u64) {
        let idx = self.at(j, self.m);
        (self.d[idx], self.s[idx])
    }

    /// Disjoint-query reset on column `j`: cells whose path starts at or
    /// before `te` become `+∞`.
    pub(crate) fn invalidate(&mut self, j: usize, te: u64) {
        let mut idx = self.at(j, 1);
        for _ in 1..=self.m {
            if self.s[idx] <= te {
                self.d[idx] = f64::INFINITY;
            }
            idx += DIAG_STRIDE;
        }
    }

    /// Materializes column `j` into `m + 1`-length row-order buffers
    /// (star cell first) — the commit and cold-refill paths.
    pub(crate) fn copy_col(&self, j: usize, d_out: &mut [f64], s_out: &mut [u64]) {
        let mut idx = self.at(j, 0);
        for i in 0..=self.m {
            d_out[i] = self.d[idx];
            s_out[i] = self.s[idx];
            idx += DIAG_STRIDE;
        }
    }

    /// Writes a row-order column back into diagonal storage (cold
    /// refill after invalidation).
    fn scatter_col(&mut self, j: usize, d_in: &[f64], s_in: &[u64]) {
        let mut idx = self.at(j, 0);
        for i in 0..=self.m {
            self.d[idx] = d_in[i];
            self.s[idx] = s_in[i];
            idx += DIAG_STRIDE;
        }
    }

    /// Column `j` as freshly-allocated row-order vectors (test helper).
    #[cfg(test)]
    fn col_vec(&self, j: usize) -> (Vec<f64>, Vec<u64>) {
        let mut d = vec![0.0; self.m + 1];
        let mut s = vec![0u64; self.m + 1];
        self.copy_col(j, &mut d, &mut s);
        (d, s)
    }
}

/// Fills a frame of `w = xs.len()` columns by anti-diagonal wavefront.
/// `d_prev`/`s_prev` is the incoming rolling column for tick `t0`
/// (loaded into frame lane 0); the caller's tick is NOT advanced —
/// commit happens after the reporting policy has walked the columns.
#[allow(clippy::too_many_arguments)] // query + qrev arrive as arena borrows
pub(crate) fn fill_frame<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    qrev: &[f64],
    xs: &[f64],
    t0: u64,
    d_prev: &[f64],
    s_prev: &[u64],
    frame: &mut Frame,
) {
    let m = query.len();
    let w = xs.len();
    frame.ensure(m, w);
    // The reversed-query cache lives in the shared `QueryRef` (one copy
    // per query, not per monitor); the caller hands both orientations in.
    debug_assert_eq!(qrev.len(), m, "qrev must mirror the query");
    // Lane 0: the incoming previous column, spread along the diagonals.
    for i in 0..=m {
        frame.d[i * DIAG_STRIDE] = d_prev[i];
        frame.s[i * DIAG_STRIDE] = s_prev[i];
    }
    // Star cells + row 1. Row 1's own predecessors are star cells
    // (left = diag = 0 with start t), so Eq. (8) reduces to: take the
    // star (0, t) unless `down` is strictly below zero — impossible for
    // real distances, but kept for bit-parity with the reference on any
    // kernel. Sequential in j; only w cells.
    for j in 1..=w {
        let t = t0 + j as u64;
        let star = frame.at(j, 0);
        frame.d[star] = 0.0;
        frame.s[star] = t;
        let base = kernel.dist(xs[j - 1], query[0]);
        let dn = frame.at(j - 1, 1);
        let down = frame.d[dn];
        let (dbest, s) = if 0.0 <= down {
            (0.0, t)
        } else if down <= 0.0 {
            (down, frame.s[dn])
        } else {
            (0.0, t)
        };
        let r1 = frame.at(j, 1);
        frame.d[r1] = base + dbest;
        frame.s[r1] = s;
    }
    // Rows 2..=m, one anti-diagonal k = j + i at a time. Split the flat
    // storage at diagonal k: everything the lane loop reads lives in
    // the previous two diagonal blocks, everything it writes in the
    // current one, and all of it as exact-length contiguous windows —
    // the loop is branch-free, gather-free elementwise SoA code.
    let mut xw = [0.0f64; DIAG_STRIDE];
    xw[1..=w].copy_from_slice(xs);
    // Resolve the CPU-feature dispatch once per frame, not per diagonal.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let level = simd::level();
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let level = 0u8;
    for k in 3..=(w + m) {
        let j_lo = if k > m { k - m } else { 1 };
        let j_hi = (k - 2).min(w);
        if j_lo > j_hi {
            continue;
        }
        let (head_d, tail_d) = frame.d.split_at_mut(k * DIAG_STRIDE);
        let (head_s, tail_s) = frame.s.split_at_mut(k * DIAG_STRIDE);
        let p1_d = &head_d[(k - 1) * DIAG_STRIDE..];
        let p1_s = &head_s[(k - 1) * DIAG_STRIDE..];
        let p2_d = &head_d[(k - 2) * DIAG_STRIDE..(k - 1) * DIAG_STRIDE];
        let p2_s = &head_s[(k - 2) * DIAG_STRIDE..(k - 1) * DIAG_STRIDE];
        // Lane j handles row i = k − j, i.e. query[k − j − 1], which is
        // qrev[m − k + j]: a forward window of the reversed query.
        let q0 = m + j_lo - k;
        if j_hi == FRAME_COLS {
            // Full-width diagonal — the bulk of every full frame. On the
            // down-ramp (k > m + 1) lanes below `j_lo` map to rows past
            // `m`: real storage that is never read back, so computing
            // them on whatever (finite) values sit in the predecessor
            // lanes beats narrowing the windows. Fixed-size windows:
            // no bounds checks, full unroll, SIMD-dispatched.
            let mut qa = [0.0f64; FRAME_COLS];
            let q: &[f64; FRAME_COLS] = if k <= m + 1 {
                // All lanes live: the q window is a plain zero-copy ref.
                (&qrev[m + 1 - k..m + 1 + FRAME_COLS - k])
                    .try_into()
                    .unwrap()
            } else {
                // Down-ramp: shift the surviving q values up past the
                // dead lanes (cold: at most FRAME_COLS−1 diagonals/frame).
                let dead = k - m - 1;
                qa[dead..].copy_from_slice(&qrev[..FRAME_COLS - dead]);
                &qa
            };
            wave_full(
                kernel,
                level,
                (&xw[1..]).try_into().unwrap(),
                q,
                (&p1_d[..DIAG_STRIDE]).try_into().unwrap(),
                (&p1_s[..DIAG_STRIDE]).try_into().unwrap(),
                (&p2_d[..FRAME_COLS]).try_into().unwrap(),
                (&p2_s[..FRAME_COLS]).try_into().unwrap(),
                (&mut tail_d[1..DIAG_STRIDE]).try_into().unwrap(),
                (&mut tail_s[1..DIAG_STRIDE]).try_into().unwrap(),
            );
        } else {
            // Ramp-up/ramp-down diagonals: a handful of cells at the
            // frame's corners, shared by every width `w`.
            let lanes = j_hi - j_lo + 1;
            let left_d = &p1_d[j_lo..j_lo + lanes];
            let left_s = &p1_s[j_lo..j_lo + lanes];
            let down_d = &p1_d[j_lo - 1..j_lo - 1 + lanes];
            let down_s = &p1_s[j_lo - 1..j_lo - 1 + lanes];
            let diag_d = &p2_d[j_lo - 1..j_lo - 1 + lanes];
            let diag_s = &p2_s[j_lo - 1..j_lo - 1 + lanes];
            let cur_d = &mut tail_d[j_lo..j_lo + lanes];
            let cur_s = &mut tail_s[j_lo..j_lo + lanes];
            let q = &qrev[q0..q0 + lanes];
            let x = &xw[j_lo..j_lo + lanes];
            for idx in 0..lanes {
                let base = kernel.dist(x[idx], q[idx]);
                let left = left_d[idx];
                let down = down_d[idx];
                let diag = diag_d[idx];
                // Eq. (8) split exactly as in `carry`: down-vs-diag
                // first (down preferred on ties), then left (preferred
                // on ties).
                let take_down = down <= diag;
                let dd = if take_down { down } else { diag };
                let sd = if take_down { down_s[idx] } else { diag_s[idx] };
                let take_left = left <= dd;
                cur_d[idx] = base + if take_left { left } else { dd };
                cur_s[idx] = if take_left { left_s[idx] } else { sd };
            }
        }
    }
}

/// One full-width anti-diagonal: lanes `1 ..= FRAME_COLS` of diagonal
/// `k`, with `p1`/`p2` windows of diagonals `k−1`/`k−2`. Array index
/// `j` is frame column `j + 1`: `left = p1_d[j+1]`, `down = p1_d[j]`,
/// `diag = p2_d[j]`. The base distances are a straight elementwise loop
/// (autovectorizes); the Eq. (8) select — a `u64` lane blended under an
/// `f64` comparison mask — dispatches to the explicit SIMD path when
/// built with `--features simd`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn wave_full<K: DistanceKernel>(
    kernel: K,
    level: u8,
    x: &[f64; FRAME_COLS],
    q: &[f64; FRAME_COLS],
    p1_d: &[f64; DIAG_STRIDE],
    p1_s: &[u64; DIAG_STRIDE],
    p2_d: &[f64; FRAME_COLS],
    p2_s: &[u64; FRAME_COLS],
    cur_d: &mut [f64; FRAME_COLS],
    cur_s: &mut [u64; FRAME_COLS],
) {
    let mut base = [0.0f64; FRAME_COLS];
    for j in 0..FRAME_COLS {
        base[j] = kernel.dist(x[j], q[j]);
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd::diag_select(level, &base, p1_d, p1_s, p2_d, p2_s, cur_d, cur_s);
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = level;
        for j in 0..FRAME_COLS {
            let left = p1_d[j + 1];
            let down = p1_d[j];
            let diag = p2_d[j];
            let take_down = down <= diag;
            let dd = if take_down { down } else { diag };
            let sd = if take_down { p1_s[j] } else { p2_s[j] };
            let take_left = left <= dd;
            cur_d[j] = base[j] + if take_left { left } else { dd };
            cur_s[j] = if take_left { p1_s[j + 1] } else { sd };
        }
    }
}

/// Recomputes frame columns `from ..= w` with the per-column kernel
/// after a disjoint-query reset invalidated column `from − 1` (reports
/// are rare; correctness over speed here). Works in the frame's
/// row-order temp buffers and scatters each rebuilt column back into
/// diagonal storage.
pub(crate) fn refill_frame_tail<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    xs: &[f64],
    t0: u64,
    frame: &mut Frame,
    from: usize,
    scratch: &mut Scratch,
) {
    let mut pd = std::mem::take(&mut frame.tmp_pd);
    let mut ps = std::mem::take(&mut frame.tmp_ps);
    let mut cd = std::mem::take(&mut frame.tmp_cd);
    let mut cs = std::mem::take(&mut frame.tmp_cs);
    frame.copy_col(from - 1, &mut pd, &mut ps);
    for j in from..=frame.w {
        fill_column(
            kernel,
            query,
            xs[j - 1],
            t0 + j as u64,
            &mut pd,
            &mut ps,
            &mut cd,
            &mut cs,
            scratch,
        );
        frame.scatter_col(j, &cd, &cs);
        std::mem::swap(&mut pd, &mut cd);
        std::mem::swap(&mut ps, &mut cs);
    }
    frame.tmp_pd = pd;
    frame.tmp_ps = ps;
    frame.tmp_cd = cd;
    frame.tmp_cs = cs;
}

/// The scalar reference column fill: the Eq. (7)/(8) recurrence as one
/// branchy loop, with a per-row trace hook for
/// [`crate::PathSpring`]'s back-pointers. The SoA kernel is pinned
/// bit-exact against this by unit tests and the differential fuzzer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_column_reference<K: DistanceKernel>(
    kernel: K,
    query: &[f64],
    x: f64,
    t: u64,
    d_prev: &mut [f64],
    s_prev: &mut [u64],
    d_cur: &mut [f64],
    s_cur: &mut [u64],
    mut trace: impl FnMut(usize, Step),
) {
    let m = query.len();
    d_cur[0] = 0.0;
    s_cur[0] = t;
    d_prev[0] = 0.0;
    s_prev[0] = t;
    for i in 1..=m {
        let base = kernel.dist(x, query[i - 1]);
        let left = d_cur[i - 1]; //  d(t,   i−1)
        let down = d_prev[i]; //     d(t−1, i)
        let diag = d_prev[i - 1]; // d(t−1, i−1)
                                  // Tie-break in the order of Equation (8).
        let (dbest, s, step) = if left <= down && left <= diag {
            (left, s_cur[i - 1], Step::Left)
        } else if down <= diag {
            (down, s_prev[i], Step::Down)
        } else {
            (diag, s_prev[i - 1], Step::Diag)
        };
        d_cur[i] = base + dbest;
        s_cur[i] = s;
        trace(i, step);
    }
}

/// Explicit x86-64 SIMD min-select: the only `unsafe` in the crate,
/// compiled only with `--features simd`. AVX2 (4 × f64) when the CPU
/// reports it, SSE2 (2 × f64, part of the x86-64 baseline) otherwise.
/// Every operation is an element-wise IEEE compare/blend, so results
/// are bit-identical to the portable path at any width.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    /// Dispatches on runtime CPU features (cached by `std_detect`).
    #[inline]
    pub(super) fn min_select(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) {
        // SAFETY: sse2 is unconditionally part of the x86-64 baseline;
        // the avx2 path is only entered when the CPU reports avx2.
        unsafe {
            if is_x86_feature_detected!("avx2") {
                min_select_avx2(down, diag, sdown, sdiag, dd, sd);
            } else {
                min_select_sse2(down, diag, sdown, sdiag, dd, sd);
            }
        }
    }

    /// # Safety
    /// Requires AVX2. All slices must hold at least `dd.len()` elements
    /// (guaranteed by the caller's subslicing of `m + 1` columns).
    #[target_feature(enable = "avx2")]
    unsafe fn min_select_avx2(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) {
        let n = dd.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(down.as_ptr().add(i));
            let g = _mm256_loadu_pd(diag.as_ptr().add(i));
            // All-ones lanes where down ≤ diag (false for NaN, exactly
            // like the scalar `<=`).
            let mask = _mm256_cmp_pd::<_CMP_LE_OQ>(d, g);
            let best = _mm256_blendv_pd(g, d, mask);
            _mm256_storeu_pd(dd.as_mut_ptr().add(i), best);
            // Blend the u64 start lane under the same mask: the mask
            // lanes are all-ones/all-zeros, so a byte blend is exact.
            let sm = _mm256_castpd_si256(mask);
            let sdn = _mm256_loadu_si256(sdown.as_ptr().add(i) as *const __m256i);
            let sdg = _mm256_loadu_si256(sdiag.as_ptr().add(i) as *const __m256i);
            let sbest = _mm256_blendv_epi8(sdg, sdn, sm);
            _mm256_storeu_si256(sd.as_mut_ptr().add(i) as *mut __m256i, sbest);
            i += 4;
        }
        tail(down, diag, sdown, sdiag, dd, sd, i);
    }

    /// # Safety
    /// SSE2 is part of the x86-64 baseline; slice bounds as above.
    #[target_feature(enable = "sse2")]
    unsafe fn min_select_sse2(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
    ) {
        let n = dd.len();
        let mut i = 0;
        while i + 2 <= n {
            let d = _mm_loadu_pd(down.as_ptr().add(i));
            let g = _mm_loadu_pd(diag.as_ptr().add(i));
            let mask = _mm_cmple_pd(d, g);
            let best = _mm_or_pd(_mm_and_pd(mask, d), _mm_andnot_pd(mask, g));
            _mm_storeu_pd(dd.as_mut_ptr().add(i), best);
            let sm = _mm_castpd_si128(mask);
            let sdn = _mm_loadu_si128(sdown.as_ptr().add(i) as *const __m128i);
            let sdg = _mm_loadu_si128(sdiag.as_ptr().add(i) as *const __m128i);
            let sbest = _mm_or_si128(_mm_and_si128(sm, sdn), _mm_andnot_si128(sm, sdg));
            _mm_storeu_si128(sd.as_mut_ptr().add(i) as *mut __m128i, sbest);
            i += 2;
        }
        tail(down, diag, sdown, sdiag, dd, sd, i);
    }

    use super::{DIAG_STRIDE, FRAME_COLS};

    /// Widest usable lane width, probed once per frame by `fill_frame`
    /// (the detection macro's atomic load is measurable at small `m`).
    /// 2 = AVX-512F (one 8 × f64 op per diagonal), 1 = AVX2, 0 = SSE2.
    #[inline]
    pub(super) fn level() -> u8 {
        if is_x86_feature_detected!("avx512f") {
            2
        } else if is_x86_feature_detected!("avx2") {
            1
        } else {
            0
        }
    }

    /// The full Eq. (8) select for one full-width anti-diagonal: array
    /// index `j` reads `left = p1_d[j+1]`, `down = p1_d[j]`,
    /// `diag = p2_d[j]`, picks down-vs-diag first (down on ties) then
    /// left (left on ties), and stores `base + dbest` plus the winning
    /// start. Same compare/blend identities as `min_select`, so lanes
    /// are bit-identical to the portable loop.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn diag_select(
        level: u8,
        base: &[f64; FRAME_COLS],
        p1_d: &[f64; DIAG_STRIDE],
        p1_s: &[u64; DIAG_STRIDE],
        p2_d: &[f64; FRAME_COLS],
        p2_s: &[u64; FRAME_COLS],
        cur_d: &mut [f64; FRAME_COLS],
        cur_s: &mut [u64; FRAME_COLS],
    ) {
        // SAFETY: sse2 is unconditionally part of the x86-64 baseline;
        // the avx2/avx512f paths are only entered when the caller's
        // `level` probe reported the matching CPU feature.
        unsafe {
            match level {
                2 => diag_select_avx512(base, p1_d, p1_s, p2_d, p2_s, cur_d, cur_s),
                1 => diag_select_avx2(base, p1_d, p1_s, p2_d, p2_s, cur_d, cur_s),
                _ => diag_select_sse2(base, p1_d, p1_s, p2_d, p2_s, cur_d, cur_s),
            }
        }
    }

    /// # Safety
    /// Requires AVX-512F. One full diagonal per op: the f64 compares
    /// produce `__mmask8` predicates, and `mask_blend_pd` /
    /// `mask_blend_epi64` apply the same lane selection to the distance
    /// and start planes — bit-identical to the scalar select.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn diag_select_avx512(
        base: &[f64; FRAME_COLS],
        p1_d: &[f64; DIAG_STRIDE],
        p1_s: &[u64; DIAG_STRIDE],
        p2_d: &[f64; FRAME_COLS],
        p2_s: &[u64; FRAME_COLS],
        cur_d: &mut [f64; FRAME_COLS],
        cur_s: &mut [u64; FRAME_COLS],
    ) {
        let left = _mm512_loadu_pd(p1_d.as_ptr().add(1));
        let down = _mm512_loadu_pd(p1_d.as_ptr());
        let diag = _mm512_loadu_pd(p2_d.as_ptr());
        let td = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(down, diag);
        let dd = _mm512_mask_blend_pd(td, diag, down);
        let sdn = _mm512_loadu_si512(p1_s.as_ptr() as *const __m512i);
        let sdg = _mm512_loadu_si512(p2_s.as_ptr() as *const __m512i);
        let sd = _mm512_mask_blend_epi64(td, sdg, sdn);
        let tl = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(left, dd);
        let dbest = _mm512_mask_blend_pd(tl, dd, left);
        let sl = _mm512_loadu_si512(p1_s.as_ptr().add(1) as *const __m512i);
        let sbest = _mm512_mask_blend_epi64(tl, sd, sl);
        let b = _mm512_loadu_pd(base.as_ptr());
        _mm512_storeu_pd(cur_d.as_mut_ptr(), _mm512_add_pd(b, dbest));
        _mm512_storeu_si512(cur_s.as_mut_ptr() as *mut __m512i, sbest);
    }

    /// # Safety
    /// Requires AVX2. Fixed-size array refs make every `add(o)` below
    /// in-bounds by construction (`o + 4 ≤ 8`, `o + 1 + 4 ≤ 9`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn diag_select_avx2(
        base: &[f64; FRAME_COLS],
        p1_d: &[f64; DIAG_STRIDE],
        p1_s: &[u64; DIAG_STRIDE],
        p2_d: &[f64; FRAME_COLS],
        p2_s: &[u64; FRAME_COLS],
        cur_d: &mut [f64; FRAME_COLS],
        cur_s: &mut [u64; FRAME_COLS],
    ) {
        for o in [0usize, 4] {
            let left = _mm256_loadu_pd(p1_d.as_ptr().add(o + 1));
            let down = _mm256_loadu_pd(p1_d.as_ptr().add(o));
            let diag = _mm256_loadu_pd(p2_d.as_ptr().add(o));
            let td = _mm256_cmp_pd::<_CMP_LE_OQ>(down, diag);
            let dd = _mm256_blendv_pd(diag, down, td);
            let sdn = _mm256_loadu_si256(p1_s.as_ptr().add(o) as *const __m256i);
            let sdg = _mm256_loadu_si256(p2_s.as_ptr().add(o) as *const __m256i);
            let sd = _mm256_blendv_epi8(sdg, sdn, _mm256_castpd_si256(td));
            let tl = _mm256_cmp_pd::<_CMP_LE_OQ>(left, dd);
            let dbest = _mm256_blendv_pd(dd, left, tl);
            let sl = _mm256_loadu_si256(p1_s.as_ptr().add(o + 1) as *const __m256i);
            let sbest = _mm256_blendv_epi8(sd, sl, _mm256_castpd_si256(tl));
            let b = _mm256_loadu_pd(base.as_ptr().add(o));
            _mm256_storeu_pd(cur_d.as_mut_ptr().add(o), _mm256_add_pd(b, dbest));
            _mm256_storeu_si256(cur_s.as_mut_ptr().add(o) as *mut __m256i, sbest);
        }
    }

    /// # Safety
    /// SSE2 is part of the x86-64 baseline; bounds as above (`o + 2 ≤ 8`).
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn diag_select_sse2(
        base: &[f64; FRAME_COLS],
        p1_d: &[f64; DIAG_STRIDE],
        p1_s: &[u64; DIAG_STRIDE],
        p2_d: &[f64; FRAME_COLS],
        p2_s: &[u64; FRAME_COLS],
        cur_d: &mut [f64; FRAME_COLS],
        cur_s: &mut [u64; FRAME_COLS],
    ) {
        for o in [0usize, 2, 4, 6] {
            let left = _mm_loadu_pd(p1_d.as_ptr().add(o + 1));
            let down = _mm_loadu_pd(p1_d.as_ptr().add(o));
            let diag = _mm_loadu_pd(p2_d.as_ptr().add(o));
            let td = _mm_cmple_pd(down, diag);
            let dd = _mm_or_pd(_mm_and_pd(td, down), _mm_andnot_pd(td, diag));
            let tdi = _mm_castpd_si128(td);
            let sdn = _mm_loadu_si128(p1_s.as_ptr().add(o) as *const __m128i);
            let sdg = _mm_loadu_si128(p2_s.as_ptr().add(o) as *const __m128i);
            let sd = _mm_or_si128(_mm_and_si128(tdi, sdn), _mm_andnot_si128(tdi, sdg));
            let tl = _mm_cmple_pd(left, dd);
            let dbest = _mm_or_pd(_mm_and_pd(tl, left), _mm_andnot_pd(tl, dd));
            let tli = _mm_castpd_si128(tl);
            let sl = _mm_loadu_si128(p1_s.as_ptr().add(o + 1) as *const __m128i);
            let sbest = _mm_or_si128(_mm_and_si128(tli, sl), _mm_andnot_si128(tli, sd));
            let b = _mm_loadu_pd(base.as_ptr().add(o));
            _mm_storeu_pd(cur_d.as_mut_ptr().add(o), _mm_add_pd(b, dbest));
            _mm_storeu_si128(cur_s.as_mut_ptr().add(o) as *mut __m128i, sbest);
        }
    }

    /// Scalar remainder shared by both widths.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn tail(
        down: &[f64],
        diag: &[f64],
        sdown: &[u64],
        sdiag: &[u64],
        dd: &mut [f64],
        sd: &mut [u64],
        mut i: usize,
    ) {
        while i < dd.len() {
            let take_down = down[i] <= diag[i];
            dd[i] = if take_down { down[i] } else { diag[i] };
            sd[i] = if take_down { sdown[i] } else { sdiag[i] };
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_dtw::kernels::{Absolute, Squared};
    use spring_util::Rng;

    /// Drives a reference column and a kernel column side by side over
    /// the same inputs and demands bit-identical lanes after every tick.
    fn assert_bit_exact(query: &[f64], stream: &[f64], invalidate_every: Option<usize>) {
        let m = query.len();
        let mut rd_prev = vec![f64::INFINITY; m + 1];
        let mut rd_cur = vec![f64::INFINITY; m + 1];
        let mut rs_prev = vec![0u64; m + 1];
        let mut rs_cur = vec![0u64; m + 1];
        let mut kd_prev = rd_prev.clone();
        let mut kd_cur = rd_cur.clone();
        let mut ks_prev = rs_prev.clone();
        let mut ks_cur = rs_cur.clone();
        let mut scratch = Scratch::new(m);
        for (tick, &x) in stream.iter().enumerate() {
            let t = tick as u64 + 1;
            fill_column_reference(
                Squared,
                query,
                x,
                t,
                &mut rd_prev,
                &mut rs_prev,
                &mut rd_cur,
                &mut rs_cur,
                |_, _| {},
            );
            fill_column(
                Squared,
                query,
                x,
                t,
                &mut kd_prev,
                &mut ks_prev,
                &mut kd_cur,
                &mut ks_cur,
                &mut scratch,
            );
            let rbits: Vec<u64> = rd_cur.iter().map(|d| d.to_bits()).collect();
            let kbits: Vec<u64> = kd_cur.iter().map(|d| d.to_bits()).collect();
            assert_eq!(rbits, kbits, "distance lanes diverge at t = {t}");
            assert_eq!(rs_cur, ks_cur, "start lanes diverge at t = {t}");
            std::mem::swap(&mut rd_cur, &mut rd_prev);
            std::mem::swap(&mut rs_cur, &mut rs_prev);
            std::mem::swap(&mut kd_cur, &mut kd_prev);
            std::mem::swap(&mut ks_cur, &mut ks_prev);
            // Mimic the disjoint reset: knock identical cells to +∞ on
            // both sides so the kernel is exercised on post-reset
            // columns full of infinities.
            if let Some(every) = invalidate_every {
                if tick % every == every - 1 {
                    for i in (1..=m).step_by(2) {
                        rd_prev[i] = f64::INFINITY;
                        kd_prev[i] = f64::INFINITY;
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit_on_random_streams() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for m in [1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 129] {
            let query: Vec<f64> = (0..m).map(|_| rng.f64_range(-5.0, 5.0)).collect();
            let stream: Vec<f64> = (0..200).map(|_| rng.f64_range(-5.0, 5.0)).collect();
            assert_bit_exact(&query, &stream, None);
        }
    }

    #[test]
    fn kernel_matches_reference_on_plateaus_and_coarse_ties() {
        // Integer grids force exact ties at every predecessor, the worst
        // case for tie-order bugs; plateaus stress equal-cost expansion.
        let mut rng = Rng::seed_from_u64(7);
        for m in [3usize, 8, 33] {
            let query: Vec<f64> = (0..m).map(|_| rng.u64_below(5) as f64).collect();
            let mut stream = Vec::new();
            for _ in 0..120 {
                let v = rng.u64_below(5) as f64;
                for _ in 0..=rng.u64_below(3) {
                    stream.push(v);
                }
            }
            assert_bit_exact(&query, &stream, Some(9));
        }
    }

    #[test]
    fn kernel_matches_reference_through_invalidated_columns() {
        let query = [1.0, 4.0, 2.0, 8.0, 3.0];
        let stream: Vec<f64> = (0..300).map(|i| ((i * 13) % 29) as f64 * 0.3).collect();
        assert_bit_exact(&query, &stream, Some(5));
    }

    #[test]
    fn min_select_prefers_down_on_ties() {
        // dd must take the *down* cell on exact ties (Eq. 8 order with
        // `left` peeled off) — the start lane makes the choice visible.
        let d_prev = [0.0, 2.0, 2.0, f64::INFINITY, f64::INFINITY];
        let s_prev = [9u64, 10, 11, 12, 13];
        let mut dd = [0.0; 5];
        let mut sd = [0u64; 5];
        min_select(&d_prev, &s_prev, &mut dd, &mut sd);
        // i = 1: down = 2.0 (s 10), diag = 0.0 (s 9) -> diag.
        assert_eq!((dd[1], sd[1]), (0.0, 9));
        // i = 2: down = 2.0 (s 11) ties diag = 2.0 (s 10) -> down.
        assert_eq!((dd[2], sd[2]), (2.0, 11));
        // i = 3: down = ∞ (s 12), diag = 2.0 (s 11) -> diag.
        assert_eq!((dd[3], sd[3]), (2.0, 11));
        // i = 4: both ∞, tie -> down (s 13).
        assert_eq!((dd[4], sd[4]), (f64::INFINITY, 13));
    }

    #[test]
    fn frame_matches_reference_bit_for_bit_for_every_width_and_m() {
        // The wavefront schedule must reproduce the reference columns
        // exactly — including frames wider than the query (m < w), the
        // single-column frame (w = 1), and ragged final chunks.
        let mut rng = Rng::seed_from_u64(0xF7A3E);
        for m in [1usize, 2, 3, 5, 7, 8, 9, 16, 33, 64] {
            for w in 1..=FRAME_COLS {
                let query: Vec<f64> = (0..m).map(|_| rng.f64_range(-5.0, 5.0)).collect();
                let stream: Vec<f64> = (0..97).map(|_| rng.f64_range(-5.0, 5.0)).collect();
                let mut rd_prev = vec![f64::INFINITY; m + 1];
                let mut rd_cur = vec![f64::INFINITY; m + 1];
                let mut rs_prev = vec![0u64; m + 1];
                let mut rs_cur = vec![0u64; m + 1];
                let mut fd_prev = rd_prev.clone();
                let mut fs_prev = rs_prev.clone();
                let mut frame = Frame::EMPTY;
                let mut t0 = 0u64;
                for chunk in stream.chunks(w) {
                    let qrev: Vec<f64> = query.iter().rev().copied().collect();
                    fill_frame(
                        Squared, &query, &qrev, chunk, t0, &fd_prev, &fs_prev, &mut frame,
                    );
                    for (j, &x) in chunk.iter().enumerate() {
                        let t = t0 + j as u64 + 1;
                        fill_column_reference(
                            Squared,
                            &query,
                            x,
                            t,
                            &mut rd_prev,
                            &mut rs_prev,
                            &mut rd_cur,
                            &mut rs_cur,
                            |_, _| {},
                        );
                        let (fd, fs) = frame.col_vec(j + 1);
                        assert_eq!(
                            rd_cur.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                            fd.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                            "m={m} w={w}: distance column diverges at t = {t}"
                        );
                        assert_eq!(rs_cur, fs, "m={m} w={w}: start column diverges at t = {t}");
                        std::mem::swap(&mut rd_cur, &mut rd_prev);
                        std::mem::swap(&mut rs_cur, &mut rs_prev);
                    }
                    frame.copy_col(frame.width(), &mut fd_prev, &mut fs_prev);
                    t0 += chunk.len() as u64;
                }
            }
        }
    }

    #[test]
    fn refill_frame_tail_rebuilds_columns_after_invalidation() {
        // Invalidate a mid-frame column the way the disjoint reset does,
        // then demand the recomputed tail match a reference run that saw
        // the same invalidation.
        let query = [2.0, 5.0, 1.0, 4.0];
        let m = query.len();
        let xs = [1.9, 5.1, 0.8, 4.2, 3.3, 2.1];
        let d_prev = vec![f64::INFINITY; m + 1];
        let s_prev = vec![0u64; m + 1];
        let mut frame = Frame::EMPTY;
        let qrev: Vec<f64> = query.iter().rev().copied().collect();
        fill_frame(Squared, &query, &qrev, &xs, 0, &d_prev, &s_prev, &mut frame);
        let cut = 3;
        let te = 2;
        frame.invalidate(cut, te);
        let mut scratch = Scratch::new(m);
        refill_frame_tail(Squared, &query, &xs, 0, &mut frame, cut + 1, &mut scratch);
        // Reference: per-column loop with the same surgery after col 3.
        let (mut rd_prev, mut rs_prev) = (d_prev.clone(), s_prev.clone());
        let mut rd_cur = vec![f64::INFINITY; m + 1];
        let mut rs_cur = vec![0u64; m + 1];
        for (j, &x) in xs.iter().enumerate() {
            let t = j as u64 + 1;
            fill_column_reference(
                Squared,
                &query,
                x,
                t,
                &mut rd_prev,
                &mut rs_prev,
                &mut rd_cur,
                &mut rs_cur,
                |_, _| {},
            );
            std::mem::swap(&mut rd_cur, &mut rd_prev);
            std::mem::swap(&mut rs_cur, &mut rs_prev);
            if j + 1 == cut {
                for i in 1..=m {
                    if rs_prev[i] <= te {
                        rd_prev[i] = f64::INFINITY;
                    }
                }
            }
            if j + 1 >= cut {
                let (fd, fs) = frame.col_vec(j + 1);
                assert_eq!(
                    rd_prev.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    fd.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "column {} after refill",
                    j + 1
                );
                assert_eq!(rs_prev, fs, "starts of column {} after refill", j + 1);
            }
        }
    }

    #[test]
    fn frame_confirmed_and_current_match_the_column_scan() {
        let query = [1.0, 3.0];
        let xs = [0.9, 3.2, 1.1, 2.8];
        let d_prev = vec![f64::INFINITY; 3];
        let s_prev = vec![0u64; 3];
        let mut frame = Frame::EMPTY;
        let qrev: Vec<f64> = query.iter().rev().copied().collect();
        fill_frame(Squared, &query, &qrev, &xs, 0, &d_prev, &s_prev, &mut frame);
        for j in 1..=4 {
            let (d, s) = frame.col_vec(j);
            assert_eq!(frame.current(j), (d[2], s[2]));
            for (dmin, te) in [(0.5, 1u64), (10.0, 3), (f64::INFINITY, 100)] {
                let expect = (1..=2).all(|i| d[i] >= dmin || s[i] > te);
                assert_eq!(frame.confirmed(j, dmin, te), expect, "j={j} dmin={dmin}");
            }
        }
    }

    #[test]
    fn absolute_kernel_is_also_bit_exact() {
        let query = [0.5, -1.25, 3.0];
        let stream: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() * 4.0).collect();
        let m = query.len();
        let mut rd_prev = vec![f64::INFINITY; m + 1];
        let mut rd_cur = vec![f64::INFINITY; m + 1];
        let mut rs_prev = vec![0u64; m + 1];
        let mut rs_cur = vec![0u64; m + 1];
        let mut kd_prev = rd_prev.clone();
        let mut kd_cur = rd_cur.clone();
        let mut ks_prev = rs_prev.clone();
        let mut ks_cur = rs_cur.clone();
        let mut scratch = Scratch::new(m);
        for (tick, &x) in stream.iter().enumerate() {
            let t = tick as u64 + 1;
            fill_column_reference(
                Absolute,
                &query,
                x,
                t,
                &mut rd_prev,
                &mut rs_prev,
                &mut rd_cur,
                &mut rs_cur,
                |_, _| {},
            );
            fill_column(
                Absolute,
                &query,
                x,
                t,
                &mut kd_prev,
                &mut ks_prev,
                &mut kd_cur,
                &mut ks_cur,
                &mut scratch,
            );
            assert_eq!(
                rd_cur.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                kd_cur.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(rs_cur, ks_cur);
            std::mem::swap(&mut rd_cur, &mut rd_prev);
            std::mem::swap(&mut rs_cur, &mut rs_prev);
            std::mem::swap(&mut kd_cur, &mut kd_prev);
            std::mem::swap(&mut ks_cur, &mut ks_prev);
        }
    }
}
