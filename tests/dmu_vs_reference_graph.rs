//! Cross-crate property tests: the DMU (hardware dependence tracking) must
//! agree with the reference software Task Dependence Graph on every workload,
//! including randomly generated ones.
//!
//! The seed version of this file used `proptest`; the workspace builds
//! offline, so the random workloads are generated instead from the in-tree
//! deterministic [`SplitMix64`](tdm::sim::rng::SplitMix64) over a fixed set
//! of seeds (see [`common::random_workload`]). Failures therefore reproduce
//! exactly: the panic message names the offending seed.

mod common;

use common::{assert_is_permutation, drive, random_workload, small_benchmarks};
use tdm::core::config::DmuConfig;
use tdm::prelude::*;
use tdm::runtime::cost::CostModel;
use tdm::runtime::engine::{HardwareEngine, HardwareFlavor, SoftwareEngine};

/// Number of random workloads each property is checked against (the seed's
/// proptest configuration used 64 cases).
const CASES: u64 = 64;

fn tiny_dmu_config() -> DmuConfig {
    DmuConfig {
        tat_entries: 16,
        tat_ways: 8,
        dat_entries: 16,
        dat_ways: 8,
        successor_la_entries: 16,
        dependence_la_entries: 16,
        reader_la_entries: 16,
        ..DmuConfig::default()
    }
}

/// Any order the DMU permits respects the reference graph.
#[test]
fn dmu_execution_order_respects_reference_graph() {
    for seed in 0..CASES {
        let workload = random_workload(seed);
        let graph = TaskGraph::build(&workload);
        let mut engine = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let order = drive(&mut engine, &workload);
        assert_is_permutation(&order, workload.len());
        assert!(graph.check_order(&order).is_ok(), "seed {seed}");
    }
}

/// A severely undersized DMU still completes every workload (instructions
/// block and retry, they never lose tasks) and still respects the graph.
#[test]
fn tiny_dmu_completes_and_respects_graph() {
    for seed in 0..CASES {
        let workload = random_workload(seed);
        let graph = TaskGraph::build(&workload);
        let mut engine = HardwareEngine::new(
            HardwareFlavor::Tdm,
            tiny_dmu_config(),
            CostModel::default(),
            Cycle::new(16),
        );
        let order = drive(&mut engine, &workload);
        assert!(graph.check_order(&order).is_ok(), "seed {seed}");
    }
}

/// The software engine and the DMU agree on which tasks become ready after
/// each finish when driven identically.
#[test]
fn software_and_hardware_engines_agree() {
    for seed in 0..CASES {
        let workload = random_workload(seed);
        let mut sw = SoftwareEngine::new(CostModel::default());
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let sw_order = drive(&mut sw, &workload);
        let hw_order = drive(&mut hw, &workload);
        // Both engines execute with the same FIFO tie-breaking, so the finish
        // orders must be identical.
        assert_eq!(sw_order, hw_order, "seed {seed}");
    }
}

/// A full simulation executes every task exactly once under every backend
/// and scheduler combination.
#[test]
fn simulation_always_completes() {
    let config = ExecConfig {
        chip: ChipConfig::with_cores(4),
        ..ExecConfig::default()
    };
    for seed in 0..CASES {
        let workload = random_workload(seed);
        let scheduler = SchedulerKind::all()[(seed % 5) as usize];
        for backend in [Backend::Software, Backend::tdm_default()] {
            let report = simulate(&workload, &backend, scheduler, &config);
            assert_eq!(
                report.tasks,
                workload.len() as u64,
                "seed {seed} backend {} scheduler {}",
                backend.name(),
                scheduler.name()
            );
        }
    }
}

#[test]
fn benchmark_workloads_complete_on_all_backends_scaled_down() {
    // Scaled-down versions of the structured benchmarks exercise every
    // backend in a few seconds even in debug builds.
    let workloads = small_benchmarks();
    let config = ExecConfig {
        chip: ChipConfig::with_cores(8),
        ..ExecConfig::default()
    };
    for workload in &workloads {
        let graph = TaskGraph::build(workload);
        assert!(graph.critical_path_len() > 1);
        for backend in [
            Backend::Software,
            Backend::tdm_default(),
            Backend::Carbon,
            Backend::task_superscalar_default(),
        ] {
            let report = simulate(workload, &backend, SchedulerKind::Locality, &config);
            assert_eq!(
                report.tasks,
                workload.len() as u64,
                "{} on {}",
                workload.name,
                backend.name()
            );
        }
    }
}
