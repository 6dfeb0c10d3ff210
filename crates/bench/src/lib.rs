//! # tdm-bench — figure and table reproduction harnesses
//!
//! One binary per table/figure of the paper's evaluation (see `DESIGN.md` for
//! the full experiment index). Each binary prints a markdown table with the
//! same rows/series as the paper, so `EXPERIMENTS.md` can be regenerated by
//! running:
//!
//! ```text
//! cargo run --release -p tdm-bench --bin fig12_schedulers
//! ```
//!
//! This library holds the pieces the binaries share: the benchmark suite
//! iteration, the standard experiment configuration, the "best scheduler per
//! application" selection used by OptSW / OptTDM, and small formatting
//! helpers.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cli;
pub mod sweep;

use sweep::SweepResult;
use tdm_energy::chip::ChipPowerModel;
use tdm_energy::edp::{evaluate, EnergyReport};
use tdm_runtime::exec::{simulate, Backend, ExecConfig, RunReport};
use tdm_runtime::scheduler::SchedulerKind;
use tdm_runtime::task::Workload;
use tdm_sim::clock::Frequency;
pub use tdm_sim::stats::geometric_mean;
pub use tdm_workloads::Benchmark;

/// The standard experiment configuration: the 32-core chip of Table I with
/// default cost model and seed.
pub fn standard_config() -> ExecConfig {
    ExecConfig::default()
}

/// The chip clock frequency used for energy conversions.
pub fn frequency() -> Frequency {
    Frequency::ghz(2.0)
}

/// The chip power model used for EDP figures.
pub fn power_model() -> ChipPowerModel {
    ChipPowerModel::default()
}

/// Host parallelism for sweep harnesses, with a floor for when the
/// parallelism probe fails or reports fewer cores (CI runners).
pub fn default_threads(floor: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(floor)
}

/// Runs one simulation with the standard configuration.
pub fn run(workload: &Workload, backend: &Backend, scheduler: SchedulerKind) -> RunReport {
    simulate(workload, backend, scheduler, &standard_config())
}

/// Evaluates the energy of a sweep point's run on `backend`, pricing the
/// DMU with the backend's geometry ([`Backend::dmu_config`]).
pub fn energy_of(result: &SweepResult, backend: &Backend) -> EnergyReport {
    evaluate(
        &result.report,
        &power_model(),
        &backend.dmu_config(),
        frequency(),
    )
}

/// The best scheduler of one benchmark's sweep results — the OptSW /
/// OptTDM selection of Section VI-A: the first strict makespan minimum, so
/// ties go to the earlier policy in [`SchedulerKind::all`] order.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn best(results: &[SweepResult]) -> &SweepResult {
    let mut best = &results[0];
    for candidate in &results[1..] {
        if candidate.report.makespan() < best.report.makespan() {
            best = candidate;
        }
    }
    best
}

/// Formats a ratio as a percentage string (e.g. `0.123` → `"12.3%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup/normalized value with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Prints a markdown table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, BackendSpec, SweepGrid, WorkloadSpec};
    use tdm_runtime::task::{DependenceSpec, TaskSpec};
    use tdm_sim::clock::Cycle;
    use tdm_workloads::TaskStream;

    fn tiny_workload() -> Workload {
        let tasks = (0..40u64)
            .map(|i| {
                TaskSpec::new(
                    "t",
                    Cycle::new(50_000),
                    vec![DependenceSpec::inout(0x1000 + (i % 8) * 0x1000, 0x1000)],
                )
            })
            .collect();
        Workload::new("tiny", tasks)
    }

    #[test]
    fn best_scheduler_is_no_worse_than_fifo() {
        let w = tiny_workload();
        let backend = Backend::tdm_default();
        let grid = SweepGrid::new()
            .with_workloads(vec![WorkloadSpec::new("tiny", move || {
                TaskStream::new("tiny", w.len(), w.tasks.clone().into_iter())
            })])
            .with_backends(vec![BackendSpec::from(backend.clone())])
            .with_schedulers(SchedulerKind::all());
        let results = run_sweep(&grid, 1);
        let fifo = &results[0];
        assert_eq!(fifo.scheduler, SchedulerKind::Fifo.name());
        let best = best(&results);
        assert!(best.report.makespan() <= fifo.report.makespan());
        assert!(energy_of(best, &backend).edp > 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(ratio(1.04567), "1.046");
    }

    #[test]
    fn standard_config_is_32_cores() {
        assert_eq!(standard_config().chip.num_cores, 32);
        assert!((frequency().as_ghz() - 2.0).abs() < 1e-12);
    }
}
