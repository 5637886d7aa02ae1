//! The three workloads and their seeded inputs.
//!
//! Every connection streams background readings (level ~30) with rare
//! `nan` dropouts, into which near-copies of the queries (values in
//! 0..10, extra queries 12..22) are planted. The query/background gap
//! keeps the background from ever matching, so the match lines are the
//! plants; the oracle computes the exact transcript either way.

use crate::rng::Rng;

/// Data connections per run (the generator host has two cores).
pub const CONNS: usize = 2;
/// Shards the server runs with (`--shards`).
pub const SHARDS: usize = 2;

/// How the generator paces its sends in one phase of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Send the next chunk as soon as the socket accepts the previous
    /// one (TCP backpressure closes the loop).
    Closed {
        /// Samples per write attempt.
        chunk: usize,
    },
    /// Send a chunk on a fixed schedule, whether or not the server
    /// keeps up.
    Open {
        /// Samples per second per connection.
        rate_per_conn: f64,
        /// Samples per scheduled send.
        chunk: usize,
    },
}

/// One workload: server flags, query fleet, pacing, and input shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Server `--batch`.
    pub batch: usize,
    /// Length of the default query (`--query`, id 0).
    pub default_m: usize,
    /// Extra queries each connection registers and attaches.
    pub extras_per_conn: usize,
    /// Length of each extra query.
    pub extra_m: usize,
    /// How many of a connection's extras ever get planted.
    pub planted_extras: usize,
    /// Chance that a plant copies a planted extra rather than the
    /// default query.
    pub extra_plant_share: f64,
    /// Background samples between plants, `[lo, hi)`.
    pub gap: (usize, usize),
    /// The phases of a run, one closed and one open loop, each on fresh
    /// connections and half the run time. `samples_per_s` comes from the
    /// first, server CPU per sample from the closed loop (no idle
    /// wake-ups: the figure host contention disturbs least), match
    /// latency and generator lag from the open loop.
    pub phases: &'static [Mode],
    /// Samples pre-generated per connection; a run that sends more
    /// cycles through them again.
    pub generated: usize,
    /// Samples per connection the traced replay runs through each layer.
    pub replay: usize,
}

/// `ingest`: one m=16 query, frames of 64. About 16 DP cells per
/// sample, so parsing, shard hand-off and socket I/O dominate. Closed
/// loop for capacity, then open loop at about a fifth of it for latency.
pub const INGEST: Workload = Workload {
    name: "ingest",
    batch: 64,
    default_m: 16,
    extras_per_conn: 0,
    extra_m: 0,
    planted_extras: 0,
    extra_plant_share: 0.0,
    gap: (400, 1_200),
    phases: &[
        Mode::Closed { chunk: 512 },
        Mode::Open {
            rate_per_conn: 500_000.0,
            chunk: 500,
        },
    ],
    generated: 1 << 20,
    replay: 1 << 18,
};

/// `fleet`: 16 extra m=256 queries attached per connection, frames of
/// 64. About 4.1k DP cells per sample, so the kernel is nearly all of
/// the server's CPU; set-up exercises `query add` and `attach`. Closed
/// loop for capacity, then open loop at about half of it for latency.
pub const FLEET: Workload = Workload {
    name: "fleet",
    batch: 64,
    default_m: 16,
    extras_per_conn: 16,
    extra_m: 256,
    planted_extras: 3,
    extra_plant_share: 0.15,
    gap: (20, 60),
    phases: &[
        Mode::Closed { chunk: 64 },
        Mode::Open {
            rate_per_conn: 12_500.0,
            chunk: 25,
        },
    ],
    generated: 1 << 18,
    replay: 1 << 12,
};

/// `alerts`: one m=64 query, per-sample frames, a plant about every 200
/// samples. Per-sample runner messages and the match write-back path
/// dominate. Open loop first at 50k samples/s per connection (~500
/// match lines/s): the latency an operator feels, and the rate the
/// server sustains. Then a closed loop for the per-sample path's CPU.
pub const ALERTS: Workload = Workload {
    name: "alerts",
    batch: 1,
    default_m: 64,
    extras_per_conn: 0,
    extra_m: 0,
    planted_extras: 0,
    extra_plant_share: 0.0,
    gap: (100, 172),
    phases: &[
        Mode::Open {
            rate_per_conn: 50_000.0,
            chunk: 50,
        },
        Mode::Closed { chunk: 256 },
    ],
    generated: 1 << 19,
    replay: 1 << 13,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [&Workload; 3] = [&INGEST, &FLEET, &ALERTS];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// ε for a query of length `m`: generous for a noisy, slightly
    /// warped copy, far below any background alignment (≥ 400 per
    /// cell).
    pub fn epsilon(m: usize) -> f64 {
        2.0 * m as f64
    }

    /// Samples a connection sends before streaming starts: `fleet`
    /// sends one sample so its stream is live for `attach`.
    pub fn pre_samples(&self) -> usize {
        usize::from(self.extras_per_conn > 0)
    }
}

/// An extra query a connection registers (`query add`) and attaches to
/// its own stream.
#[derive(Debug, Clone)]
pub struct Extra {
    /// Query id, before the phase's offset.
    pub id: u32,
    /// Pattern values.
    pub values: Vec<f64>,
}

/// One connection's generated inputs.
#[derive(Debug, Clone)]
pub struct ConnInputs {
    /// Extra queries (empty outside `fleet`).
    pub extras: Vec<Extra>,
    /// Sample values exactly as the server parses them (`NaN` = dropout).
    pub samples: Vec<f64>,
    /// The wire bytes: one line per sample.
    pub wire: Vec<u8>,
    /// Byte offset of each sample's line in `wire`, plus the end.
    pub starts: Vec<usize>,
}

impl ConnInputs {
    /// Wire bytes of samples `[a, b)` (indices into the generated
    /// samples, not cycled).
    pub fn bytes(&self, a: usize, b: usize) -> &[u8] {
        &self.wire[self.starts[a]..self.starts[b]]
    }

    /// The value of stream sample `i`, cycling through the generated
    /// samples.
    pub fn sample(&self, i: u64) -> f64 {
        self.samples[(i % self.samples.len() as u64) as usize]
    }
}

/// A workload's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The default query (`--query`, id 0).
    pub default_query: Vec<f64>,
    /// Per-connection inputs.
    pub conns: Vec<ConnInputs>,
}

/// Rounds to the 3 decimals the wire carries, so generated values and
/// parsed values are the same `f64`.
fn round3(v: f64) -> f64 {
    format!("{v:.3}").parse().expect("a formatted f64 parses")
}

/// A smooth random pattern spanning `[lo, lo + 10]`: a sum of three
/// sines of 0.5–2 cycles over its length.
pub fn make_query(rng: &mut Rng, m: usize, lo: f64) -> Vec<f64> {
    let waves: Vec<(f64, f64, f64)> = (0..3)
        .map(|_| {
            (
                rng.range(0.5, 2.0),
                rng.range(0.0, std::f64::consts::TAU),
                rng.range(0.5, 1.0),
            )
        })
        .collect();
    let raw: Vec<f64> = (0..m)
        .map(|i| {
            let t = i as f64 / m.max(2).saturating_sub(1) as f64;
            waves
                .iter()
                .map(|&(f, p, a)| a * (std::f64::consts::TAU * f * t + p).sin())
                .sum()
        })
        .collect();
    let min = raw.iter().copied().fold(f64::INFINITY, f64::min);
    let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    raw.iter()
        .map(|v| round3(lo + 10.0 * (v - min) / span))
        .collect()
}

/// Appends a near-copy of `q`: small noise, and now and then a repeated
/// or skipped sample (time warping).
fn plant(rng: &mut Rng, q: &[f64], out: &mut Vec<f64>) {
    for &v in q {
        let u = rng.f64();
        if u < 0.04 {
            continue;
        }
        let reps = if u > 0.96 { 2 } else { 1 };
        for _ in 0..reps {
            out.push(round3(v + rng.range(-0.3, 0.3)));
        }
    }
}

/// Generates `w`'s inputs for `seed`. The server never sees the seed,
/// only these values.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let root = Rng::new(seed);
    let default_query = make_query(&mut root.fork(1), w.default_m, 0.0);
    let conns = (0..CONNS)
        .map(|c| {
            let mut rng = root.fork(100 + c as u64);
            let extras: Vec<Extra> = (0..w.extras_per_conn)
                .map(|k| Extra {
                    id: (1 + c * w.extras_per_conn + k) as u32,
                    // A value range of their own, so the default query
                    // never matches inside an extra's plant.
                    values: make_query(&mut rng, w.extra_m, 12.0),
                })
                .collect();
            let mut samples = Vec::with_capacity(w.generated + 512);
            while samples.len() < w.generated {
                let gap = rng.below(w.gap.0, w.gap.1);
                for i in 0..gap {
                    // Dropouts only mid-background, never first: the
                    // server drops leading gaps, and tick = index + 1
                    // relies on there being none.
                    if !samples.is_empty() && i > 0 && rng.f64() < 1.0 / 4000.0 {
                        samples.push(f64::NAN);
                    } else {
                        samples.push(round3(30.0 + rng.range(-1.0, 1.0)));
                    }
                }
                let q = if w.planted_extras > 0 && rng.f64() < w.extra_plant_share {
                    &extras[rng.below(0, w.planted_extras)].values
                } else {
                    &default_query
                };
                plant(&mut rng, q, &mut samples);
            }
            samples.truncate(w.generated);
            let mut wire = Vec::with_capacity(samples.len() * 8);
            let mut starts = Vec::with_capacity(samples.len() + 1);
            for &v in &samples {
                starts.push(wire.len());
                if v.is_nan() {
                    wire.extend_from_slice(b"nan\n");
                } else {
                    wire.extend_from_slice(format!("{v:.3}\n").as_bytes());
                }
            }
            starts.push(wire.len());
            ConnInputs {
                extras,
                samples,
                wire,
                starts,
            }
        })
        .collect();
    Inputs {
        default_query,
        conns,
    }
}

/// The `query add` verb registering `values` under `id`.
pub fn query_add_line(id: u32, values: &[f64]) -> String {
    let mut s = format!("query add {id}");
    for v in values {
        s.push_str(&format!(" {v:.3}"));
    }
    s
}
