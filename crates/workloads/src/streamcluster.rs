//! Streamcluster (PARSECSs): online clustering in fork-join phases.
//!
//! Every phase evaluates candidate centers over all points in parallel (one
//! task per batch of points, all reading the shared centers structure) and
//! then a reduction task gathers the per-batch results and updates the
//! centers, acting as a barrier before the next phase. The optimal
//! granularity of Table II corresponds to 100 phases of 420 parallel batches
//! plus one reduction each (42,100 tasks, within 0.04 % of the reported
//! 42,115), with an average duration of ≈376 µs.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Parallel batch tasks per phase at the optimal granularity.
pub const OPTIMAL_BATCHES: usize = 420;
/// Number of fork-join phases.
pub const PHASES: usize = 100;

/// Duration of a batch-evaluation task, in microseconds.
const BATCH_US: f64 = 380.0;
/// Duration of a phase-reduction task, in microseconds.
const REDUCE_US: f64 = 100.0;

/// Address of the shared cluster-centers structure.
const CENTERS_ADDR: u64 = 0x9000_0000_0000;
/// Base address of the per-batch result buffers.
const RESULT_BASE: u64 = 0x9100_0000_0000;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Parallel batch tasks per phase (Figure 6 sweeps the points per task,
    /// i.e. the inverse of this).
    pub batches: usize,
    /// Number of phases.
    pub phases: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            batches: OPTIMAL_BATCHES,
            phases: PHASES,
        }
    }
}

/// Lazily generates the Streamcluster workload.
pub fn stream(params: Params) -> TaskStream {
    assert!(params.batches > 0 && params.phases > 0);
    let batches = params.batches;
    // Constant total work per phase.
    let batch_us = BATCH_US * OPTIMAL_BATCHES as f64 / batches as f64;
    let result_bytes = 16 * 1024;
    let iter = (0..params.phases).flat_map(move |_phase| {
        let evaluations = (0..batches).map(move |b| {
            TaskSpec::new(
                "evaluate_batch",
                micros(batch_us),
                vec![
                    DependenceSpec::input(CENTERS_ADDR, 64 * 1024),
                    DependenceSpec::output(RESULT_BASE + b as u64 * result_bytes, result_bytes),
                ],
            )
        });
        // The reduction gathers the per-batch results and updates the
        // centers. Ordering with the batches comes from the WAR hazard on
        // the centers structure (every batch reads it, the reduction writes
        // it), so the reduction does not need to name each result buffer —
        // mirroring the real code, where the gather walks a per-phase list.
        let reduce = std::iter::once(TaskSpec::new(
            "reduce_phase",
            micros(REDUCE_US),
            vec![DependenceSpec::inout(CENTERS_ADDR, 64 * 1024)],
        ));
        evaluations.chain(reduce)
    });
    TaskStream::new("streamcluster", params.phases * (params.batches + 1), iter)
}

/// A scaled-up Streamcluster stream with at least `target_tasks` tasks: a
/// longer point stream (more fork-join phases) at the optimal batching.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    stream(Params {
        batches: OPTIMAL_BATCHES,
        phases: target_tasks.div_ceil(OPTIMAL_BATCHES + 1).max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::task::TaskRef;
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_count_and_duration_match_table2() {
        let w = Benchmark::Streamcluster.software_workload();
        assert_eq!(w.len(), 42_100);
        check_calibration(&w, Benchmark::Streamcluster.table2_software(), 0.01, 0.02).unwrap();
    }

    #[test]
    fn phases_are_separated_by_reductions() {
        let w = stream(Params {
            batches: 4,
            phases: 3,
        })
        .into_workload();
        let graph = TaskGraph::build(&w);
        // The reduction of phase 0 (task 4) waits for all 4 batches (WAR on
        // the centers structure they all read).
        let reduce0 = TaskRef(4);
        assert_eq!(graph.predecessors(reduce0).len(), 4);
        // A batch of phase 1 (task 5) waits for the phase-0 reduction
        // (it reads the centers the reduction wrote) and, through the result
        // buffer it overwrites, for the phase-0 batch that wrote it.
        let batch_p1 = TaskRef(5);
        assert!(graph.predecessors(batch_p1).contains(&reduce0));
        // Critical path alternates batch → reduce per phase.
        assert_eq!(graph.critical_path_len(), 2 * 3);
    }

    #[test]
    fn batches_within_a_phase_are_parallel() {
        let w = stream(Params {
            batches: 6,
            phases: 1,
        })
        .into_workload();
        let graph = TaskGraph::build(&w);
        assert_eq!(graph.roots().len(), 6);
        for b in 0..6 {
            assert_eq!(graph.predecessor_count(TaskRef(b)), 0);
        }
    }

    #[test]
    fn granularity_sweep_preserves_work_per_phase() {
        let fine = stream(Params {
            batches: 1024,
            phases: 2,
        })
        .into_workload();
        let coarse = stream(Params {
            batches: 64,
            phases: 2,
        })
        .into_workload();
        let ratio = coarse.total_work().as_f64() / fine.total_work().as_f64();
        assert!((0.9..1.1).contains(&ratio), "work ratio {ratio}");
    }
}
