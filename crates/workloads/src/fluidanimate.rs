//! Fluidanimate (PARSECSs): smoothed-particle-hydrodynamics 3D stencil.
//!
//! The simulation volume is split into partitions; every timestep each
//! partition is updated by one task that reads its neighbouring partitions
//! and writes its own. Figure 6 sweeps the number of partitions (256 down to
//! 32); the optimal point of Table II is 256 partitions × 10 timesteps =
//! 2,560 tasks of ≈1,804 µs.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Partitions of the 3D volume at the optimal granularity.
pub const OPTIMAL_PARTITIONS: usize = 256;
/// Simulated timesteps.
pub const TIMESTEPS: usize = 10;

/// Task duration at the optimal granularity, in microseconds.
const TASK_US: f64 = 1_804.0;

/// Base address of the partition data.
const PARTITION_BASE: u64 = 0x7000_0000_0000;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of volume partitions (Figure 6 granularity knob).
    pub partitions: usize,
    /// Number of timesteps.
    pub timesteps: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            partitions: OPTIMAL_PARTITIONS,
            timesteps: TIMESTEPS,
        }
    }
}

/// Lazily generates the Fluidanimate workload: a 1D domain decomposition of
/// the 3D volume with double-buffered particle state. In each timestep a
/// task reads the previous-step buffers of its own partition and of both
/// neighbours and writes its partition's current-step buffer, so partitions
/// within a timestep update in parallel and timesteps chain through the
/// buffers.
pub fn stream(params: Params) -> TaskStream {
    assert!(params.partitions > 0, "need at least one partition");
    let partitions = params.partitions;
    // Total work is constant: fewer partitions means proportionally longer
    // tasks.
    let task_us = TASK_US * OPTIMAL_PARTITIONS as f64 / partitions as f64;
    let partition_bytes = 8 * 1024 * 1024 / partitions as u64;
    let duration = micros(task_us);
    // Two buffers per partition (ping-pong across timesteps).
    let addr =
        move |p: usize, buffer: usize| PARTITION_BASE + (p * 2 + buffer) as u64 * partition_bytes;

    let iter = (0..params.timesteps).flat_map(move |step| {
        let read_buf = step % 2;
        let write_buf = 1 - read_buf;
        (0..partitions).map(move |p| {
            let mut deps = vec![
                DependenceSpec::input(addr(p, read_buf), partition_bytes),
                DependenceSpec::output(addr(p, write_buf), partition_bytes),
            ];
            if p > 0 {
                deps.push(DependenceSpec::input(
                    addr(p - 1, read_buf),
                    partition_bytes,
                ));
            }
            if p + 1 < partitions {
                deps.push(DependenceSpec::input(
                    addr(p + 1, read_buf),
                    partition_bytes,
                ));
            }
            TaskSpec::new("advance_cell", duration, deps)
        })
    });
    TaskStream::new("fluidanimate", params.partitions * params.timesteps, iter)
        .with_locality_benefit(0.04)
}

/// A scaled-up Fluidanimate stream with at least `target_tasks` tasks: a
/// longer simulation (more timesteps) at the optimal partitioning.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    stream(Params {
        partitions: OPTIMAL_PARTITIONS,
        timesteps: target_tasks.div_ceil(OPTIMAL_PARTITIONS).max(1),
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
        let w = Benchmark::Fluidanimate.software_workload();
        assert_eq!(w.len(), 2_560);
        check_calibration(&w, Benchmark::Fluidanimate.table2_software(), 0.01, 0.01).unwrap();
    }

    #[test]
    fn stencil_reads_neighbours() {
        let w = stream(Params {
            partitions: 8,
            timesteps: 2,
        })
        .into_workload();
        let graph = TaskGraph::build(&w);
        // Partition 3 in timestep 1 (task 8 + 3) reads the timestep-0 output
        // of partitions 2, 3 and 4 and overwrites the buffer those tasks
        // read, so its predecessors are exactly the timestep-0 tasks of the
        // stencil neighbourhood.
        let t = TaskRef(8 + 3);
        let preds = graph.predecessors(t);
        assert!(preds.contains(&TaskRef(2)));
        assert!(preds.contains(&TaskRef(3)));
        assert!(preds.contains(&TaskRef(4)));
        // Tasks of the same timestep are not serialized against each other.
        assert!(!preds.contains(&TaskRef(10)));
    }

    #[test]
    fn first_timestep_has_wavefront_structure() {
        // Within the first timestep, the `in` on a neighbour that is written
        // (inout) by a later task in creation order does not create a
        // backward edge, so partition 0 is a root.
        let w = stream(Params {
            partitions: 8,
            timesteps: 1,
        })
        .into_workload();
        let graph = TaskGraph::build(&w);
        assert!(graph.roots().contains(&TaskRef(0)));
    }

    #[test]
    fn fewer_partitions_means_longer_tasks() {
        let fine = stream(Params {
            partitions: 256,
            timesteps: 2,
        })
        .into_workload();
        let coarse = stream(Params {
            partitions: 32,
            timesteps: 2,
        })
        .into_workload();
        assert!(coarse.len() < fine.len());
        assert!(coarse.average_duration() > fine.average_duration());
        let ratio = coarse.total_work().as_f64() / fine.total_work().as_f64();
        assert!((0.95..1.05).contains(&ratio));
    }

    #[test]
    fn timesteps_are_serialized_per_partition() {
        let w = stream(Params {
            partitions: 4,
            timesteps: 3,
        })
        .into_workload();
        let graph = TaskGraph::build(&w);
        assert!(graph.critical_path_len() >= 3);
    }
}
