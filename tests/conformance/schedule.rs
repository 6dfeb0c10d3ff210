//! Schedule validity: every executed schedule must be a topological order of
//! the reference task graph, with no lost or duplicated tasks, on every
//! benchmark × backend × scheduler combination.

use crate::common::{assert_is_permutation, drive, random_workload, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::core::config::DmuConfig;
use tdm::prelude::*;
use tdm::runtime::cost::CostModel;
use tdm::runtime::engine::{HardwareEngine, HardwareFlavor};

/// Checks one simulated run against the golden model and returns the report.
fn check_run(
    workload: &Workload,
    graph: &TaskGraph,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    let report = simulate(workload, backend, scheduler, config);
    let context = format!(
        "{} on {} with {}",
        workload.name,
        backend.name(),
        scheduler.name()
    );
    assert_eq!(report.tasks, workload.len() as u64, "{context}: task count");
    let order = report.finish_order();
    assert_is_permutation(&order, workload.len());
    if let Err((pred, task)) = graph.check_order(&order) {
        panic!("{context}: task {task} finished before its predecessor {pred}");
    }
    for entry in &report.schedule {
        assert!(
            entry.core < config.chip.num_cores,
            "{context}: task {} ran on nonexistent core {}",
            entry.task,
            entry.core
        );
        assert!(
            entry.finish <= report.makespan(),
            "{context}: finish after makespan"
        );
    }
    report
}

/// The full conformance matrix: 3 structured benchmarks × 4 backends × all
/// 5 software scheduling policies.
#[test]
fn full_matrix_respects_reference_graph() {
    let config = conformance_config();
    for workload in small_benchmarks() {
        let graph = TaskGraph::build(&workload);
        assert!(
            graph.critical_path_len() > 1,
            "{} is trivial",
            workload.name
        );
        for backend in all_backends() {
            for scheduler in SchedulerKind::all() {
                check_run(&workload, &graph, &backend, scheduler, &config);
            }
        }
    }
}

/// Random workloads (heavy RAW/WAR/WAW collisions) through the full backend
/// set; schedulers rotate per seed to keep the runtime bounded.
#[test]
fn random_workloads_respect_reference_graph() {
    let config = conformance_config();
    for seed in 0..16u64 {
        let workload = random_workload(seed);
        let graph = TaskGraph::build(&workload);
        let scheduler = SchedulerKind::all()[(seed % 5) as usize];
        for backend in all_backends() {
            check_run(&workload, &graph, &backend, scheduler, &config);
        }
    }
}

/// A DMU with 32-entry tables, small enough to stall on the small
/// benchmarks.
pub fn undersized_dmu() -> DmuConfig {
    DmuConfig {
        tat_entries: 32,
        tat_ways: 8,
        dat_entries: 32,
        dat_ways: 8,
        successor_la_entries: 32,
        dependence_la_entries: 32,
        reader_la_entries: 32,
        ..DmuConfig::default()
    }
}

/// An undersized DMU forces evictions, renaming pressure and list-array
/// overflow chaining; the schedule must still conform.
#[test]
fn undersized_dmu_still_conforms() {
    let dmu = undersized_dmu();
    let config = conformance_config();
    for workload in small_benchmarks() {
        let graph = TaskGraph::build(&workload);
        for backend in [
            Backend::Tdm(dmu.clone()),
            Backend::TaskSuperscalar(dmu.clone()),
        ] {
            let report = check_run(&workload, &graph, &backend, SchedulerKind::Fifo, &config);
            let hw = report.hardware.expect("hardware backend must report");
            assert!(
                hw.stats.stalls > 0,
                "{}: an undersized DMU should stall at least once",
                workload.name
            );
        }
    }
}

/// Engine-level replay: drive both hardware flavors directly through the DMU
/// (no simulated chip around them) and check the finish order against the
/// golden model.
#[test]
fn dmu_engine_replay_conforms_for_both_flavors() {
    for workload in small_benchmarks() {
        let graph = TaskGraph::build(&workload);
        for flavor in [HardwareFlavor::Tdm, HardwareFlavor::TaskSuperscalar] {
            let mut engine = HardwareEngine::new(
                flavor,
                DmuConfig::default(),
                CostModel::default(),
                Cycle::new(16),
            );
            let order = drive(&mut engine, &workload);
            assert_is_permutation(&order, workload.len());
            assert!(
                graph.check_order(&order).is_ok(),
                "{} with {flavor:?}",
                workload.name
            );
        }
    }
}
