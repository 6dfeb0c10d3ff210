//! # tdm-runtime — task-based data-flow runtime system and execution driver
//!
//! This crate models the software side of the TDM reproduction: the
//! OpenMP-4.0-style task runtime that the paper's Nanos++ baseline
//! represents. It provides:
//!
//! * the program-level task and workload model ([`task`]),
//! * pull-based task sources for streaming (windowed) execution
//!   ([`stream`]), including a line-format trace front-end that replays
//!   dumped task graphs ([`trace`]),
//! * the reference Task Dependence Graph used both by the software runtime
//!   and as the golden model for the DMU ([`tdg`]),
//! * the cycle cost model of runtime operations ([`cost`]),
//! * the five software scheduling policies of Section VI ([`scheduler`]),
//! * the dependence-management backends — pure software, TDM's DMU, Carbon
//!   and Task Superscalar ([`engine`]),
//! * deterministic fault injection — seeded transient task failures with
//!   bounded retry, and sticky core faults with graceful degradation
//!   ([`fault`]),
//! * and the discrete-event execution driver that ties everything to the
//!   simulated 32-core chip and produces per-phase time breakdowns
//!   ([`exec`]). It runs either eagerly over a materialised [`Workload`]
//!   ([`simulate`]) or lazily over a task stream through the windowed
//!   master ([`simulate_stream`]), which keeps memory bounded by
//!   [`ExecConfig::window`](exec::ExecConfig::window) for million-task
//!   regions.
//!
//! # Example
//!
//! ```
//! use tdm_runtime::exec::{simulate, Backend, ExecConfig, RunReport};
//! use tdm_runtime::scheduler::SchedulerKind;
//! use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
//! use tdm_sim::clock::Cycle;
//!
//! // Two tasks: a producer and a consumer of the same block.
//! let workload = Workload::new(
//!     "tiny",
//!     vec![
//!         TaskSpec::new("produce", Cycle::new(200_000), vec![DependenceSpec::output(0xA000, 4096)]),
//!         TaskSpec::new("consume", Cycle::new(200_000), vec![DependenceSpec::input(0xA000, 4096)]),
//!     ],
//! );
//! let config = ExecConfig::default().with_cores(4);
//! let report: RunReport = simulate(&workload, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
//! assert_eq!(report.tasks, 2);
//! // The consumer serializes after the producer, so the region takes about
//! // two task bodies, not one (durations carry a small default jitter).
//! assert!(report.makespan() > Cycle::new(350_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod engine;
pub mod exec;
pub mod fault;
pub(crate) use tdm_sim::fast_map;
mod in_flight;
pub mod scheduler;
pub mod stream;
pub mod task;
pub mod tdg;
pub mod trace;

pub use cost::CostModel;
pub use engine::{DependenceEngine, HardwareEngine, HardwareFlavor, SoftwareEngine};
pub use exec::{
    simulate, simulate_stream, simulate_stream_outcome, Backend, ExecConfig, RunOutcome, RunReport,
    ScheduledTask,
};
pub use fault::{FaultConfig, FaultPlan, FaultState};
pub use scheduler::{ReadyEntry, ReadyPool, SchedulerKind};
pub use stream::{TaskSource, WorkloadSource};
pub use task::{DependenceSpec, TaskRef, TaskSpec, Workload};
pub use tdg::TaskGraph;
