//! Eager-vs-streaming equivalence and windowed-master properties.
//!
//! The streaming path ([`simulate_stream`]) must be a faithful re-plumbing
//! of the eager driver, not a second simulator: with an unbounded window,
//! driving a benchmark's lazy [`TaskStream`] must produce **bit-identical**
//! makespans, per-core phase breakdowns, schedules and DMU access totals to
//! simulating the collected [`Workload`] — for every backend × scheduler
//! cell. With a finite window the master is additionally throttled; the
//! run must still respect the reference graph, execute every task exactly
//! once, and keep the resident spec count bounded by the window.
//!
//! (The same equivalence at full Table II sizes — all 36 benchmark ×
//! backend cells — is checked in release mode by
//! `bench_scale verify`, which CI runs; these tests keep the debug-build
//! matrix quick with the scaled-down benchmarks.)

use crate::common::{small_benchmark_streams, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::simulate_stream;
use tdm::runtime::stream::WorkloadSource;

/// Full scaled-down matrix: for every benchmark × backend × scheduler cell,
/// the streaming run over the lazy generator equals the eager run over the
/// collected workload, bit for bit.
#[test]
fn streaming_matches_eager_across_the_matrix() {
    let config = conformance_config();
    let workloads = small_benchmarks();
    for (w_idx, workload) in workloads.iter().enumerate() {
        for backend in all_backends() {
            for scheduler in SchedulerKind::all() {
                let context = format!(
                    "{} on {} with {}",
                    workload.name,
                    backend.name(),
                    scheduler.name()
                );
                let eager = simulate(workload, &backend, scheduler, &config);
                // A fresh lazy stream per cell (streams are consumed).
                let mut stream = small_benchmark_streams().swap_remove(w_idx);
                let streamed = simulate_stream(&mut stream, &backend, scheduler, &config);
                assert_eq!(eager.makespan(), streamed.makespan(), "{context}: makespan");
                assert_eq!(eager.stats, streamed.stats, "{context}: stats");
                assert_eq!(eager.schedule, streamed.schedule, "{context}: schedule");
                assert_eq!(eager.tasks, streamed.tasks, "{context}: task count");
                match (&eager.hardware, &streamed.hardware) {
                    (None, None) => {}
                    (Some(e), Some(s)) => {
                        assert_eq!(
                            e.stats.total_accesses, s.stats.total_accesses,
                            "{context}: DMU access totals"
                        );
                        assert_eq!(e.stats, s.stats, "{context}: DMU stats");
                        assert_eq!(e.peak, s.peak, "{context}: DMU peak occupancy");
                    }
                    _ => panic!("{context}: hardware report presence differs"),
                }
            }
        }
    }
}

/// Replaying a materialised workload through `WorkloadSource` is equivalent
/// too (the generic driver does not care where specs come from).
#[test]
fn workload_source_replay_matches_eager() {
    let config = conformance_config();
    for workload in small_benchmarks() {
        let eager = simulate(
            &workload,
            &Backend::tdm_default(),
            SchedulerKind::Locality,
            &config,
        );
        let mut source = WorkloadSource::new(&workload);
        let streamed = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Locality,
            &config,
        );
        assert_eq!(eager.makespan(), streamed.makespan(), "{}", workload.name);
        assert_eq!(eager.stats, streamed.stats, "{}", workload.name);
    }
}

/// Windowed streaming runs: every window size completes the full workload,
/// respects the reference graph, and keeps the resident spec count within
/// window + 1 (the one extra spec is the stream's prefetch slot).
#[test]
fn windowed_runs_conform_and_bound_residency() {
    for (w_idx, workload) in small_benchmarks().iter().enumerate() {
        let graph = TaskGraph::build(workload);
        for window in [1usize, 4, 33, 256] {
            let config = conformance_config().with_window(window);
            for backend in [Backend::tdm_default(), Backend::Software] {
                let context = format!("{} window {window} on {}", workload.name, backend.name());
                let mut stream = small_benchmark_streams().swap_remove(w_idx);
                let report = simulate_stream(&mut stream, &backend, SchedulerKind::Fifo, &config);
                assert_eq!(report.tasks, workload.len() as u64, "{context}: task count");
                assert!(
                    report.peak_resident_tasks <= window + 1,
                    "{context}: {} specs resident",
                    report.peak_resident_tasks
                );
                let order = report.finish_order();
                crate::common::assert_is_permutation(&order, workload.len());
                if let Err((pred, task)) = graph.check_order(&order) {
                    panic!("{context}: task {task} finished before its predecessor {pred}");
                }
            }
        }
    }
}

/// A window at least as large as the workload never binds, so the windowed
/// run is bit-identical to the unbounded one.
#[test]
fn non_binding_window_is_identical_to_unbounded() {
    let workloads = small_benchmarks();
    for (w_idx, workload) in workloads.iter().enumerate() {
        let unbounded = conformance_config();
        let exact = conformance_config().with_window(workload.len());
        let mut stream = small_benchmark_streams().swap_remove(w_idx);
        let a = simulate_stream(
            &mut stream,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &unbounded,
        );
        let mut stream = small_benchmark_streams().swap_remove(w_idx);
        let b = simulate_stream(
            &mut stream,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &exact,
        );
        assert_eq!(a.makespan(), b.makespan(), "{}", workload.name);
        assert_eq!(a.stats, b.stats, "{}", workload.name);
    }
}

/// Tight windows model backpressure: the master is forced to interleave
/// execution with creation, so the master core records execution time it
/// would not otherwise have (on a multi-worker chip where it normally only
/// creates).
#[test]
fn tight_window_throttles_the_master() {
    let config_wide = conformance_config();
    let config_tight = conformance_config().with_window(2);
    let workload = &small_benchmarks()[0];
    let mut stream = small_benchmark_streams().swap_remove(0);
    let wide = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config_wide,
    );
    let mut stream = small_benchmark_streams().swap_remove(0);
    let tight = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config_tight,
    );
    assert_eq!(tight.tasks, workload.len() as u64);
    // A 2-task window cannot be faster than an unbounded one.
    assert!(
        tight.makespan() >= wide.makespan(),
        "throttled {} vs unbounded {}",
        tight.makespan(),
        wide.makespan()
    );
    assert!(tight.peak_resident_tasks <= 3);
    assert!(wide.peak_resident_tasks >= workload.len() / 2);
}
