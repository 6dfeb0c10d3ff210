//! Fault-injection conformance: determinism, golden validity and
//! checkpoint/restart under injected failures.
//!
//! The fault layer must be a pure overlay on the deterministic driver:
//!
//! * **off means off** — a fault configuration with all rates zero is
//!   bit-identical to no fault configuration at all, across the full
//!   backend × scheduler matrix, on both the eager and streaming paths;
//! * **schedule validity survives faults** — a faulted run's executed
//!   schedule is still a topological order of the reference graph, with
//!   every task finishing exactly once (retries never lose or duplicate
//!   work), and eager and streaming drivers agree bit for bit on the same
//!   fault schedule;
//! * **abort is typed** — exhausting the retry budget yields
//!   [`RunOutcome::Aborted`] with a deterministic attempt count, not a
//!   panic;
//! * **retirement degrades gracefully** — with sticky core faults the
//!   survivors (ultimately the exempt master) still drain the workload;
//! * **resume is bit-exact through faults** — a run checkpointed between a
//!   failure and its retry resumes to the uninterrupted run's outcome;
//! * **fault state is bounded by the window** — a finished task's failure
//!   count is dropped, so checkpoints do not grow with the run.

use crate::common::{assert_is_permutation, small_benchmark_streams, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::{
    resume_stream_outcome, simulate_stream, simulate_stream_checkpointed_outcome,
};
use tdm::sim::snapshot::{section, Persist, Reader, Snapshot};

/// A fault schedule that exercises retries but can never abort: the
/// per-task cap stays below the retry budget, so every faulted task
/// eventually completes.
fn survivable_faults() -> FaultConfig {
    FaultConfig::default()
        .with_fault_rate(0.25)
        .with_max_faults_per_task(2)
        .with_retry_budget(8)
}

/// Golden-model check of a faulted (but completed) run: every task finishes
/// exactly once, in an order the reference graph allows.
fn assert_schedule_valid(report: &RunReport, workload: &Workload, context: &str) {
    assert_eq!(report.tasks, workload.len() as u64, "{context}: task count");
    let order = report.finish_order();
    assert_is_permutation(&order, workload.len());
    let graph = TaskGraph::build(workload);
    if let Err((pred, task)) = graph.check_order(&order) {
        panic!("{context}: task {task} finished before its predecessor {pred}");
    }
}

/// All-zero rates must be indistinguishable from no fault configuration:
/// identical reports (stats, schedules, counters) on every backend ×
/// scheduler cell, eager and streaming.
#[test]
fn zero_rate_faults_are_bit_identical_to_disabled_faults() {
    let workload = &small_benchmarks()[0];
    let plain_config = conformance_config();
    let zeroed_config = conformance_config().with_faults(FaultConfig::default());
    for backend in all_backends() {
        for scheduler in SchedulerKind::all() {
            let context = format!("{} with {}", backend.name(), scheduler.name());
            let plain = simulate(workload, &backend, scheduler, &plain_config);
            let zeroed = simulate(workload, &backend, scheduler, &zeroed_config);
            assert_eq!(plain, zeroed, "{context}: eager");
            assert_eq!(zeroed.faults_injected, 0, "{context}: fault counter");
            assert_eq!(zeroed.retries, 0, "{context}: retry counter");
            assert_eq!(zeroed.retired_cores, 0, "{context}: retirement counter");
        }
    }

    let mut stream = small_benchmark_streams().swap_remove(0);
    let plain = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &plain_config,
    );
    let mut stream = small_benchmark_streams().swap_remove(0);
    let zeroed = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &zeroed_config,
    );
    assert_eq!(plain, zeroed, "streaming");
}

/// The same seed must produce the same fault schedule on the eager and
/// streaming drivers — bit-identical reports — and the faulted schedule
/// must still conform to the reference graph on every backend.
#[test]
fn fault_schedules_agree_between_eager_and_streaming() {
    let config = conformance_config().with_faults(survivable_faults());
    let workloads = small_benchmarks();
    for (w_idx, workload) in workloads.iter().enumerate() {
        for backend in all_backends() {
            let context = format!("{} on {}", workload.name, backend.name());
            let eager = simulate(workload, &backend, SchedulerKind::Fifo, &config);
            assert!(eager.faults_injected > 0, "{context}: no faults injected");
            assert_eq!(
                eager.faults_injected, eager.retries,
                "{context}: every survivable failure must be retried"
            );
            assert_schedule_valid(&eager, workload, &context);

            let mut stream = small_benchmark_streams().swap_remove(w_idx);
            let streamed =
                simulate_stream_outcome(&mut stream, &backend, SchedulerKind::Fifo, &config);
            assert_eq!(
                RunOutcome::Completed(eager),
                streamed,
                "{context}: streaming diverged"
            );
        }
    }
}

/// A certain-failure schedule with a small retry budget must abort with a
/// typed outcome: the offending task, exactly `budget + 1` attempts, and a
/// deterministic partial report — identically on every run.
#[test]
fn retry_exhaustion_aborts_with_a_typed_outcome() {
    let workload = &small_benchmarks()[0];
    let config = conformance_config().with_faults(
        FaultConfig::default()
            .with_fault_rate(1.0)
            .with_max_faults_per_task(u32::MAX)
            .with_retry_budget(3),
    );
    let run = || {
        simulate_stream_outcome(
            &mut WorkloadSource::new(workload),
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        )
    };
    let outcome = run();
    let RunOutcome::Aborted {
        task,
        attempts,
        report,
    } = &outcome
    else {
        panic!("a certain-failure schedule must abort, got {outcome:?}");
    };
    assert_eq!(*attempts, 4, "budget 3 allows exactly 4 attempts");
    assert!(
        u64::from(*attempts) <= report.faults_injected,
        "the aborting task's failures are part of the fault counter"
    );
    assert_eq!(report.tasks, 0, "no task can ever finish");
    assert!(task.index() < workload.len());

    assert_eq!(outcome, run(), "abort must be deterministic");
}

/// Sticky core faults retire every worker at its first completion; the
/// exempt master must still drain the whole workload, and the degraded run
/// stays valid and deterministic.
#[test]
fn core_retirement_degrades_gracefully() {
    let workload = &small_benchmarks()[2];
    let config = conformance_config().with_faults(FaultConfig::default().with_core_fault_rate(1.0));
    let report = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    let context = "all-worker retirement".to_string();
    assert_schedule_valid(&report, workload, &context);
    assert!(
        report.retired_cores > 0,
        "a parallel run must retire at least one worker"
    );
    assert!(
        report.retired_cores < config.chip.num_cores as u64,
        "the master is exempt from retirement"
    );
    assert_eq!(report.faults_injected, 0, "no transient faults configured");

    let again = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    assert_eq!(report, again, "retirement must be deterministic");
}

/// Streams `workload` with checkpoint capture on, returning the run's
/// outcome and its snapshots.
fn checkpointed_run(
    workload: &Workload,
    backend: &Backend,
    config: &ExecConfig,
) -> (RunOutcome, Vec<Snapshot>) {
    let mut snaps: Vec<Snapshot> = Vec::new();
    let outcome = simulate_stream_checkpointed_outcome(
        &mut WorkloadSource::new(workload),
        backend,
        SchedulerKind::Fifo,
        config,
        &mut |snap| {
            snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
            true
        },
    )
    .expect("sink never halts");
    (outcome, snaps)
}

/// Checkpoint/restart through a fault schedule: snapshots taken while
/// failures and retries are in flight (including a populated retry queue)
/// must resume to the uninterrupted run's outcome, bit for bit, on every
/// backend.
#[test]
fn resume_through_faults_is_bit_exact() {
    let workload = &small_benchmarks()[0];
    for backend in all_backends() {
        let context = format!("{} under faults", backend.name());
        let base = conformance_config().with_faults(survivable_faults());
        let straight = simulate_stream_outcome(
            &mut WorkloadSource::new(workload),
            &backend,
            SchedulerKind::Fifo,
            &base,
        );
        let RunOutcome::Completed(report) = &straight else {
            panic!("{context}: a survivable schedule aborted: {straight:?}");
        };
        assert!(report.faults_injected > 0, "{context}: no faults injected");

        let interval = Cycle::new((report.makespan().raw() / 8).max(1));
        let config = base.with_checkpoint_every(interval);
        let (checkpointed, snaps) = checkpointed_run(workload, &backend, &config);
        assert_eq!(
            checkpointed, straight,
            "{context}: capture perturbed the run"
        );
        assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
        for (i, snap) in snaps.iter().enumerate() {
            let resumed = resume_stream_outcome(&mut WorkloadSource::new(workload), snap, &config)
                .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
            assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
        }
    }
}

/// Resume must refuse a fault configuration that differs from the one the
/// snapshot was taken under — including faults-off vs faults-on.
#[test]
fn resume_refuses_diverging_fault_configuration() {
    let workload = &small_benchmarks()[0];
    let base = conformance_config().with_faults(survivable_faults());
    let straight = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &base,
    );
    let interval = Cycle::new((straight.makespan().raw() / 4).max(1));
    let config = base.with_checkpoint_every(interval);
    let (_, snaps) = checkpointed_run(workload, &Backend::tdm_default(), &config);
    let refusal = |config: &ExecConfig| {
        resume_stream_outcome(&mut WorkloadSource::new(workload), &snaps[0], config).unwrap_err()
    };

    let mut no_faults = config.clone();
    no_faults.fault = None;
    let err = refusal(&no_faults);
    assert!(
        err.to_string().contains("fault configuration"),
        "wrong error: {err}"
    );

    let mut other_rate = config.clone();
    other_rate.fault = Some(survivable_faults().with_fault_rate(0.5));
    let err = refusal(&other_rate);
    assert!(
        err.to_string().contains("fault configuration"),
        "wrong error: {err}"
    );
}

/// Only tasks that failed and have not finished yet keep a failure count,
/// and those are in flight, so every checkpoint of a faulted stream lists
/// at most `window` counts in its FAULT section, however many tasks failed
/// before it.
#[test]
fn fault_failure_counts_stay_bounded_by_the_window() {
    let window = 64;
    let config = conformance_config()
        .with_window(window)
        .with_faults(FaultConfig::default().with_fault_rate(0.3))
        .with_checkpoint_every(Cycle::new(10_000_000));
    let mut stream = Benchmark::Cholesky.software_stream();
    let mut checkpoints = 0usize;
    let mut most_counts = 0usize;
    let outcome = simulate_stream_checkpointed_outcome(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &mut |snap| {
            let fault = snap
                .section(section::FAULT)
                .expect("FAULT is always written");
            let counts = Vec::<(u64, u32)>::load(&mut Reader::new(fault)).expect("failure counts");
            checkpoints += 1;
            most_counts = most_counts.max(counts.len());
            true
        },
    )
    .expect("sink never halts");
    let RunOutcome::Completed(report) = outcome else {
        panic!("one fault per task never exhausts the retry budget: {outcome:?}");
    };
    assert!(
        report.faults_injected > 4 * window as u64,
        "too few faults to test the bound: {}",
        report.faults_injected
    );
    assert!(checkpoints >= 4, "only {checkpoints} checkpoints captured");
    assert!(
        most_counts <= window,
        "a checkpoint listed {most_counts} failure counts for a window of {window}"
    );
}
