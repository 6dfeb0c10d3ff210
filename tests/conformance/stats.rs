//! Modeled-metric invariants of the optimised hot paths.
//!
//! The simulate loop and the DMU list arrays are performance-optimised
//! (reused ready buffers, idle-core bitmap, cached list tails, and batched
//! same-cycle event delivery), and the schedule trace became opt-in. None
//! of that may move a modeled number: these tests pin the invariants across
//! the benchmark × backend matrix. (The cached-tail list arrays are
//! additionally checked against a naive reference in lockstep:
//! `debug_assert`s on every walk during debug-build runs and the randomized
//! suites in `tdm-core`'s `list_array` module. The event queue's
//! `pop_batch` is checked against repeated `pop`s in `tdm-sim`'s `event`
//! module.)

use crate::common::small_benchmarks;
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::simulate_stream;
use tdm::runtime::stream::WorkloadSource;

/// Switching the schedule trace off must change nothing but the trace
/// itself: makespan, per-core phase breakdowns and all counters stay
/// bit-identical, and the schedule comes back empty.
#[test]
fn schedule_tracing_never_affects_modeled_time() {
    let traced_config = conformance_config();
    let untraced_config = ExecConfig {
        trace_schedule: false,
        ..traced_config.clone()
    };
    for workload in small_benchmarks() {
        for backend in all_backends() {
            let context = format!("{} on {}", workload.name, backend.name());
            let traced = simulate(&workload, &backend, SchedulerKind::Fifo, &traced_config);
            let untraced = simulate(&workload, &backend, SchedulerKind::Fifo, &untraced_config);
            assert_eq!(traced.schedule.len(), workload.len(), "{context}: trace on");
            assert!(untraced.schedule.is_empty(), "{context}: trace off");
            assert_eq!(
                traced.makespan(),
                untraced.makespan(),
                "{context}: makespan"
            );
            assert_eq!(traced.stats, untraced.stats, "{context}: stats");
            assert_eq!(traced.tasks, untraced.tasks, "{context}: task count");
        }
    }
}

/// The same trace-toggle invariance on the *streaming* path, pinning both
/// identities batched event delivery must preserve at once: trace-on/off
/// changes nothing modeled, and the streamed run agrees with the eager one
/// bit for bit (schedule included) while the batch-drained loop delivers
/// same-cycle events underneath.
#[test]
fn trace_toggle_and_streaming_identity_hold_together() {
    let traced_config = conformance_config();
    let untraced_config = ExecConfig {
        trace_schedule: false,
        ..traced_config.clone()
    };
    for workload in small_benchmarks() {
        for backend in all_backends() {
            let context = format!("{} on {}", workload.name, backend.name());
            let eager = simulate(&workload, &backend, SchedulerKind::Fifo, &traced_config);
            let mut source = WorkloadSource::new(&workload);
            let streamed_traced =
                simulate_stream(&mut source, &backend, SchedulerKind::Fifo, &traced_config);
            let mut source = WorkloadSource::new(&workload);
            let streamed_untraced =
                simulate_stream(&mut source, &backend, SchedulerKind::Fifo, &untraced_config);
            assert_eq!(eager.stats, streamed_traced.stats, "{context}: stats");
            assert_eq!(
                eager.schedule, streamed_traced.schedule,
                "{context}: schedule"
            );
            assert_eq!(
                streamed_traced.stats, streamed_untraced.stats,
                "{context}: trace toggle moved streaming stats"
            );
            assert!(
                streamed_untraced.schedule.is_empty(),
                "{context}: trace off"
            );
        }
    }
}

/// Per-core phase totals (DEPS + SCHED + EXEC + IDLE) must cover the
/// makespan exactly on every core, for every cell of the matrix — the
/// invariant Figure 2's breakdowns rest on.
#[test]
fn phase_totals_cover_makespan_across_the_matrix() {
    let config = conformance_config();
    for workload in small_benchmarks() {
        for backend in all_backends() {
            for scheduler in [SchedulerKind::Fifo, SchedulerKind::Age] {
                let report = simulate(&workload, &backend, scheduler, &config);
                for (core, breakdown) in report.stats.cores.iter().enumerate() {
                    assert_eq!(
                        breakdown.total(),
                        report.makespan(),
                        "{} on {} with {}: core {core} phase totals",
                        workload.name,
                        backend.name(),
                        scheduler.name()
                    );
                }
            }
        }
    }
}

/// The DMU's SRAM access totals — which embed every list-array walk count —
/// must be a pure function of the run: repeated runs agree bit-for-bit.
/// (Tdm and TaskSuperscalar totals are each deterministic but differ from
/// one another: scheduling home changes interleaving, hence walk lengths.)
#[test]
fn dmu_walk_totals_are_deterministic() {
    let config = conformance_config();
    for workload in small_benchmarks() {
        let a = simulate(
            &workload,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        );
        let b = simulate(
            &workload,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        );
        let hw_a = a.hardware.expect("TDM reports hardware stats");
        let hw_b = b.hardware.expect("TDM reports hardware stats");
        assert_eq!(
            hw_a.stats.total_accesses, hw_b.stats.total_accesses,
            "{}: access totals must be deterministic",
            workload.name
        );
        assert_eq!(hw_a.stats, hw_b.stats, "{}: full DMU stats", workload.name);
        assert!(
            hw_a.stats.total_accesses > 0,
            "{}: no accesses?",
            workload.name
        );
    }
}
