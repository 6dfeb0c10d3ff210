//! Cross-backend conformance harness.
//!
//! For every benchmark × backend × scheduler combination, these tests replay
//! the workload through the selected dependence engine (the DMU for TDM and
//! Task Superscalar, the software tracker for Software and Carbon) and check
//! the executed schedule against the reference
//! [`TaskGraph`](tdm::runtime::tdg::TaskGraph) golden model:
//!
//! * **validity** — the finish order is a topological order of the graph
//!   ([`schedule`]): no task finishes before one of its predecessors;
//! * **completeness** — the schedule is a permutation of the workload: no
//!   task is lost or executed twice;
//! * **determinism** — repeated runs with the same [`ExecConfig`] seed
//!   produce identical cycle counts, phase breakdowns and schedules
//!   ([`determinism`]).
//!
//! The matrix covers the 4 backends, all 5 software scheduling policies and
//! 3 structured benchmarks (plus random workloads), scaled down so the whole
//! harness runs in seconds in debug builds.

#[path = "../common/mod.rs"]
mod common;

mod determinism;
mod faults;
mod grammar;
mod same_cycle;
mod schedule;
mod snapshot;
mod stats;
mod streaming;
mod sweep;
mod tat_cliff;
mod trace;

use tdm::prelude::*;

/// The backends of Section VI-C, all four organisations.
pub fn all_backends() -> Vec<Backend> {
    vec![
        Backend::Software,
        Backend::tdm_default(),
        Backend::Carbon,
        Backend::task_superscalar_default(),
    ]
}

/// The chip configuration used by the conformance matrix: 8 cores keeps
/// debug-build runtimes low while still exercising parallel scheduling.
/// Schedule tracing is opt-in ([`ExecConfig::trace_schedule`]) and these
/// tests are exactly the consumer it exists for: they replay the executed
/// schedule against the golden model.
pub fn conformance_config() -> ExecConfig {
    ExecConfig {
        chip: ChipConfig::with_cores(8),
        ..ExecConfig::default()
    }
    .with_trace_schedule()
}
