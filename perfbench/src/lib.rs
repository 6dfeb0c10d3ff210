//! # tdm-perfbench — the repository benchmark
//!
//! Runs one of three named workloads against the simulator's public API and
//! prints one JSON line: whether every modeled output checked out, how many
//! simulated regions were attempted and failed, and the metrics. An
//! untraced run reports end-to-end host throughput, set-up time and peak
//! memory; a traced run records the executed schedule and replays it
//! through each layer ([`replay`]) to report per-layer host time. See
//! `README.md` in this package for the workloads, the metric table and the
//! replay method.

#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod clock;
pub mod replay;
pub mod workload;
