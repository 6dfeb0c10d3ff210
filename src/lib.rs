//! # tdm — reproduction of *Architectural Support for Task Dependence
//! Management with Flexible Software Scheduling* (HPCA 2018)
//!
//! This facade crate re-exports the public API of the workspace so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`core`] — the Dependence Management Unit (DMU): alias
//!   tables, task/dependence tables, list arrays, ready queue and the four
//!   TDM ISA operations (the paper's contribution).
//! * [`sim`] — the discrete-event multicore timing substrate
//!   (cycle clock, chip configuration, phase accounting, locality and NoC
//!   models).
//! * [`runtime`] — the task-based data-flow runtime: task
//!   graphs, the five software schedulers, the software / TDM / Carbon /
//!   Task Superscalar backends, and the execution driver.
//! * [`workloads`] — generators for the nine evaluated
//!   benchmarks, calibrated to Table II.
//! * [`energy`] — CACTI/McPAT-style area, power and EDP models.
//!
//! # Quick start
//!
//! ```
//! use tdm::prelude::*;
//!
//! // Run the Cholesky benchmark on TDM with the locality-aware scheduler.
//! let workload = Benchmark::Cholesky.tdm_workload();
//! let report = simulate(
//!     &workload,
//!     &Backend::tdm_default(),
//!     SchedulerKind::Locality,
//!     &ExecConfig::default(),
//! );
//! assert_eq!(report.tasks, 5_984);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tdm_core as core;
pub use tdm_energy as energy;
pub use tdm_runtime as runtime;
pub use tdm_sim as sim;
pub use tdm_workloads as workloads;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use tdm_core::config::{DmuConfig, IndexPolicy};
    pub use tdm_core::dmu::Dmu;
    pub use tdm_core::ids::{DepAddr, DepDirection, DescriptorAddr};
    pub use tdm_energy::chip::ChipPowerModel;
    pub use tdm_energy::edp::evaluate as evaluate_energy;
    pub use tdm_runtime::exec::{
        simulate, simulate_stream_outcome, Backend, ExecConfig, RunOutcome, RunReport,
        ScheduledTask,
    };
    pub use tdm_runtime::fault::FaultConfig;
    pub use tdm_runtime::scheduler::SchedulerKind;
    pub use tdm_runtime::stream::WorkloadSource;
    pub use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
    pub use tdm_runtime::tdg::TaskGraph;
    pub use tdm_sim::clock::{Cycle, Frequency};
    pub use tdm_sim::config::ChipConfig;
    pub use tdm_sim::stats::Phase;
    pub use tdm_workloads::Benchmark;
}
