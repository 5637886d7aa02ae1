//! `perfbench` — the repository benchmark: `spring serve` end to end on
//! three workloads (`ingest`, `fleet`, `alerts`), checked against an
//! in-process oracle, plus a traced in-process replay that splits the
//! server's cost per layer. See `README.md` in this directory.

pub mod client;
pub mod layers;
pub mod live;
pub mod oracle;
pub mod rng;
pub mod server;
pub mod stats;
pub mod sys;
pub mod workload;
