//! Throughput of the STWM kernels at m ∈ {64, 256, 1024}, in query
//! cells per second over 64-sample frames:
//!
//! * `soa_batch64` — `Spring::step_batch`, the wavefront frame kernel
//!   (the production framed path);
//! * `column` — `Spring::step` once per sample, the two-phase SoA
//!   column kernel (the per-sample path);
//! * `soa_batch1` — `Spring::step_batch` on one-sample frames, which
//!   routes to the column kernel (narrow chunks cannot amortize a
//!   wavefront frame, see `kernel::WAVEFRONT_MIN_COLS`); it must track
//!   `column`, and the bench-compare gate keeps it there;
//! * `reference` — the branchy scalar reference loop
//!   (`Spring::step_reference`), the pre-SoA baseline.
//!
//! The summary lines report the wavefront's speedup over both.
//!
//! Build with `--features simd` to measure the explicit `core::arch`
//! min-select instead of the portable chunked lanes. All three paths
//! are bit-identical; only the time differs.

use std::hint::black_box;

use spring_bench::harness::{fmt_time, Bench};
use spring_core::{Spring, SpringConfig};
use spring_data::MaskedChirp;

const BATCH: usize = 64;

fn fixtures(m: usize) -> (Vec<f64>, Vec<f64>) {
    let mut cfg = MaskedChirp::small();
    cfg.query_len = m;
    cfg.stream_len = 4_096;
    let query = cfg.query().values;
    let values = cfg.generate().0.values;
    (query, values)
}

/// `step_batch` over 64-sample frames: the production hot path.
fn bench_step_batch(b: &Bench, m: usize) -> f64 {
    let (query, values) = fixtures(m);
    let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
    let mut out = Vec::new();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(
        &format!("soa_batch{BATCH}_m{m}"),
        (m * BATCH) as u64,
        || {
            use spring_core::Monitor as _;
            out.clear();
            spring
                .step_batch(black_box(frames[i % frames.len()]), &mut out)
                .unwrap();
            black_box(&out);
            i += 1;
        },
    )
}

/// `step_batch` over one-sample frames: the `--batch 1` path, which
/// takes the column kernel rather than a one-column wavefront.
fn bench_step_batch1(b: &Bench, m: usize) -> f64 {
    let (query, values) = fixtures(m);
    let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
    let mut out = Vec::new();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(&format!("soa_batch1_m{m}"), (m * BATCH) as u64, || {
        use spring_core::Monitor as _;
        out.clear();
        for x in black_box(frames[i % frames.len()]).chunks(1) {
            spring.step_batch(x, &mut out).unwrap();
        }
        black_box(&out);
        i += 1;
    })
}

/// `Spring::step` once per sample over the same frames: the column
/// kernel every per-sample caller runs.
fn bench_column(b: &Bench, m: usize) -> f64 {
    let (query, values) = fixtures(m);
    let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(&format!("column_m{m}"), (m * BATCH) as u64, || {
        for &x in black_box(frames[i % frames.len()]) {
            black_box(spring.step(x));
        }
        i += 1;
    })
}

/// The scalar reference loop over the same frames: the pre-SoA column.
fn bench_reference(b: &Bench, m: usize) -> f64 {
    let (query, values) = fixtures(m);
    let mut spring = Spring::new(&query, SpringConfig::new(100.0)).unwrap();
    let frames: Vec<&[f64]> = values.chunks_exact(BATCH).collect();
    let mut i = 0;
    b.bench_elems(
        &format!("reference_batch{BATCH}_m{m}"),
        (m * BATCH) as u64,
        || {
            for &x in black_box(frames[i % frames.len()]) {
                black_box(spring.step_reference(x));
            }
            i += 1;
        },
    )
}

fn main() {
    let b = Bench::new("kernel_throughput");
    let mut lines = Vec::new();
    for m in [64usize, 256, 1_024] {
        let soa = bench_step_batch(&b, m);
        let column = bench_column(&b, m);
        if m <= 256 {
            bench_step_batch1(&b, m);
        }
        let reference = bench_reference(&b, m);
        lines.push(format!(
            "kernel_throughput: m={m:<5} soa {:>10}/frame  column {:>10}/frame  \
             reference {:>10}/frame  speedup {:.2}x over column, {:.2}x over reference",
            fmt_time(soa),
            fmt_time(column),
            fmt_time(reference),
            column / soa,
            reference / soa
        ));
    }
    for line in &lines {
        println!("{line}");
    }
}
