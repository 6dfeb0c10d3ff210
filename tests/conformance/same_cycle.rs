//! Same-cycle finishes: several cores finishing in one simulated cycle.
//!
//! At the default 2% duration jitter almost no two finishes of the small
//! benchmarks share a cycle, so the rest of the suite barely exercises the
//! order in which the driver handles one cycle's events: each event's
//! completion, the master's creation attempt between them, and the worker
//! picks that follow. With jitter switched off, equal-duration tasks started
//! together also finish together. Every cell here checks:
//!
//! * **golden validity** — the finish order is a permutation and a
//!   topological order of the reference graph, and every injected fault was
//!   retried;
//! * **eager ≡ streaming** — the two feeds produce the same report
//!   (`peak_resident_tasks` excepted — it measures driver memory, not the
//!   schedule);
//! * **pinned results** — makespan, DMU accesses and a hash of the finish
//!   order equal the values recorded below, so any change to how one
//!   cycle's events are processed shows up as a diff against them.

use crate::common::{assert_is_permutation, small_benchmark_streams};
use crate::schedule::undersized_dmu;
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::simulate_stream;
use tdm::runtime::task::TaskRef;
use tdm::workloads::stream::TaskStream;

/// `(makespan, DMU accesses, FNV-1a of the finish order)` per cell, in the
/// order [`same_cycle_finishes_conform_and_stay_pinned`] runs them:
/// workload, then backend, then configuration.
const PINNED: [(u64, u64, u64); 30] = [
    // cholesky on Software: unbounded, then window 16 with faults.
    (488950400, 0, 13946467496651011525),
    (561372600, 0, 2158058045854313573),
    // cholesky on TDM: unbounded, then window 16 with faults.
    (488905254, 5724, 9196828061527662821),
    (569851139, 5569, 3624037673470152805),
    // cholesky on Carbon: unbounded, then window 16 with faults.
    (488934520, 0, 13946467496651011525),
    (561356360, 0, 2158058045854313573),
    // cholesky on TaskSuperscalar: unbounded, then window 16 with faults.
    (488889534, 5724, 9196828061527662821),
    (569831339, 5569, 3624037673470152805),
    // cholesky on TDM, 32-entry DMU: unbounded, then window 16 with faults.
    (491526357, 5619, 3385175580882367109),
    (583164910, 5576, 12718976920980131205),
    // QR on Software: unbounded, then window 16 with faults.
    (506994400, 0, 17794273296778436261),
    (730155500, 0, 3316979317682203621),
    // QR on TDM: unbounded, then window 16 with faults.
    (506929533, 10736, 17794273296778436261),
    (714889031, 10677, 8282093172685005573),
    // QR on Carbon: unbounded, then window 16 with faults.
    (506972560, 0, 17794273296778436261),
    (730124860, 0, 3316979317682203621),
    // QR on TaskSuperscalar: unbounded, then window 16 with faults.
    (506907693, 10736, 6945902652561447845),
    (714858631, 10677, 8282093172685005573),
    // QR on TDM, 32-entry DMU: unbounded, then window 16 with faults.
    (589127470, 10883, 2088777911897013413),
    (727427498, 10718, 16949467682453543077),
    // histogram on Software: unbounded, then window 16 with faults.
    (476666500, 0, 9732306402803329349),
    (594294700, 0, 16558687725062238629),
    // histogram on TDM: unbounded, then window 16 with faults.
    (476101779, 2805, 3534836079485743397),
    (594304987, 2846, 17714013640858401285),
    // histogram on Carbon: unbounded, then window 16 with faults.
    (476659940, 0, 9732306402803329349),
    (594288100, 0, 16558687725062238629),
    // histogram on TaskSuperscalar: unbounded, then window 16 with faults.
    (476091099, 2805, 3534836079485743397),
    (594291987, 2846, 17714013640858401285),
    // histogram on TDM, 32-entry DMU: unbounded, then window 16 with faults.
    (476104739, 2841, 3534836079485743397),
    (594234718, 2864, 11140778736922054661),
];

/// FNV-1a over the finish order, each task index as eight little-endian
/// bytes.
fn finish_order_hash(order: &[TaskRef]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for task in order {
        for b in (task.index() as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The small benchmarks as streams with duration jitter switched off.
fn jitter_free_streams() -> Vec<TaskStream> {
    small_benchmark_streams()
        .into_iter()
        .map(|stream| stream.with_duration_jitter(0.0))
        .collect()
}

#[test]
fn same_cycle_finishes_conform_and_stay_pinned() {
    let configs = [
        ("unbounded", conformance_config()),
        (
            "window 16 with faults",
            conformance_config()
                .with_window(16)
                .with_faults(FaultConfig::default().with_fault_rate(0.2)),
        ),
    ];
    let mut backends: Vec<(String, Backend)> = all_backends()
        .into_iter()
        .map(|backend| (backend.name().to_string(), backend))
        .collect();
    backends.push((
        "TDM, 32-entry DMU".to_string(),
        Backend::Tdm(undersized_dmu()),
    ));

    let mut pinned = PINNED.iter();
    for (w_idx, stream) in jitter_free_streams().into_iter().enumerate() {
        let workload = stream.into_workload();
        let graph = TaskGraph::build(&workload);
        for (backend_label, backend) in &backends {
            for (label, config) in &configs {
                let context = format!("{} on {backend_label} ({label})", workload.name);
                let eager = simulate(&workload, backend, SchedulerKind::Fifo, config);

                assert_eq!(eager.tasks, workload.len() as u64, "{context}: task count");
                let order = eager.finish_order();
                assert_is_permutation(&order, workload.len());
                if let Err((pred, task)) = graph.check_order(&order) {
                    panic!("{context}: task {task} finished before its predecessor {pred}");
                }
                assert_eq!(
                    eager.faults_injected, eager.retries,
                    "{context}: every fault must be retried"
                );
                assert_eq!(
                    config.fault.is_some(),
                    eager.faults_injected > 0,
                    "{context}: faults injected only when a fault plan is set"
                );

                let mut stream = jitter_free_streams().swap_remove(w_idx);
                let mut streamed =
                    simulate_stream(&mut stream, backend, SchedulerKind::Fifo, config);
                streamed.peak_resident_tasks = eager.peak_resident_tasks;
                assert_eq!(eager, streamed, "{context}: streaming diverged");

                let accesses = eager.hardware.map_or(0, |hw| hw.stats.total_accesses);
                let got = (eager.makespan().raw(), accesses, finish_order_hash(&order));
                assert_eq!(pinned.next(), Some(&got), "{context}: pinned results");
            }
        }
    }
    assert_eq!(pinned.next(), None, "every pinned cell ran");
}
