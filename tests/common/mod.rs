//! Shared support for the facade's integration tests: deterministic random
//! workload generation (seeded with the workspace's own [`SplitMix64`], so no
//! external property-testing crate is needed offline) and a driver that runs
//! a [`DependenceEngine`] to completion recording the finish order.

#![allow(dead_code)] // each test crate uses a subset of these helpers

use std::collections::VecDeque;

use tdm::prelude::*;
use tdm::runtime::engine::DependenceEngine;
use tdm::runtime::task::TaskRef;
use tdm::sim::rng::SplitMix64;
use tdm::workloads::stream::TaskStream;
use tdm::workloads::{cholesky, histogram, qr};

/// Address pool the random workloads draw from: a small set of blocks so
/// RAW / WAR / WAW collisions are frequent.
const BLOCKS: u64 = 24;
const BLOCK_BASE: u64 = 0x9_0000;
const BLOCK_SIZE: u64 = 0x1000;

/// Generates a random workload from `seed`: 1–120 tasks with 0–4 dependences
/// each over a 24-block address pool. The same seed always yields the same
/// workload (bit-for-bit), replacing the proptest strategy the seed tests
/// used with an offline-friendly equivalent.
pub fn random_workload(seed: u64) -> Workload {
    let mut rng = SplitMix64::new(seed);
    let num_tasks = 1 + rng.next_below(119) as usize;
    let tasks = (0..num_tasks)
        .map(|_| {
            let num_deps = rng.next_below(5) as usize;
            let deps = (0..num_deps)
                .map(|_| {
                    let addr = BLOCK_BASE + rng.next_below(BLOCKS) * BLOCK_SIZE;
                    match rng.next_below(3) {
                        0 => DependenceSpec::input(addr, BLOCK_SIZE),
                        1 => DependenceSpec::output(addr, BLOCK_SIZE),
                        _ => DependenceSpec::inout(addr, BLOCK_SIZE),
                    }
                })
                .collect();
            TaskSpec::new("rand", Cycle::new(10_000), deps)
        })
        .collect();
    Workload::new(format!("random-{seed}"), tasks)
}

/// Scaled-down versions of three structured benchmarks (a tiled
/// factorization, a second factorization with a different dependence
/// pattern, and a reduction tree). Small enough that the full
/// backend × scheduler conformance matrix runs in seconds in debug builds.
pub fn small_benchmarks() -> Vec<Workload> {
    small_benchmark_streams()
        .into_iter()
        .map(TaskStream::into_workload)
        .collect()
}

/// The lazy-stream counterparts of [`small_benchmarks`], task-for-task
/// identical; the eager-vs-streaming conformance suite runs both sides.
pub fn small_benchmark_streams() -> Vec<TaskStream> {
    vec![
        cholesky::stream(cholesky::Params { blocks: 8 }),
        qr::stream(qr::Params { blocks: 8 }),
        histogram::stream(histogram::Params { stripes: 32 }),
    ]
}

/// Drives an engine over `workload` to completion, executing ready tasks in
/// FIFO order, and returns the finish order. Panics if the engine deadlocks
/// (a task neither completes creation nor becomes ready).
pub fn drive(engine: &mut dyn DependenceEngine, workload: &Workload) -> Vec<TaskRef> {
    let n = workload.len();
    let mut order = Vec::new();
    // Engines append newly ready tasks into `ready`; the `VecDeque` pool
    // pops the oldest in O(1) (this used to be a `Vec` with an O(n)
    // `remove(0)` per executed task).
    let mut ready = Vec::new();
    let mut pool: VecDeque<tdm::runtime::engine::ReadyInfo> = VecDeque::new();
    let (mut costs, mut spans) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    while order.len() < n {
        if next < n {
            ready.clear();
            let outcome = engine.create_task(
                Cycle::ZERO,
                TaskRef(next),
                workload.spec(TaskRef(next)),
                &mut ready,
            );
            pool.extend(ready.drain(..));
            if outcome.completed {
                next += 1;
                continue;
            }
        }
        let Some(info) = pool.pop_front() else {
            panic!("engine deadlocked with {} tasks left", n - order.len());
        };
        ready.clear();
        costs.clear();
        spans.clear();
        engine.finish_batch(
            Cycle::ZERO,
            &[(info.task, 0)],
            &mut costs,
            &mut ready,
            &mut spans,
        );
        pool.extend(ready.drain(..));
        order.push(info.task);
    }
    order
}

/// Asserts that `order` is a permutation of `0..n`: every task finished
/// exactly once — nothing lost, nothing duplicated.
pub fn assert_is_permutation(order: &[TaskRef], n: usize) {
    assert_eq!(order.len(), n, "finished {} of {n} tasks", order.len());
    let mut seen = vec![false; n];
    for task in order {
        assert!(!seen[task.index()], "task {task} finished twice");
        seen[task.index()] = true;
    }
}
