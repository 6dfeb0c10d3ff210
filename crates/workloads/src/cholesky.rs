//! Tiled Cholesky factorization (Figure 1 of the paper).
//!
//! The task structure follows the paper's annotated source verbatim: for each
//! panel `j`, a wave of `sgemm` updates, a row of `ssyrk` updates into the
//! diagonal block, the `spotrf` factorization of the diagonal block and a
//! column of `strsm` solves. With the evaluated input (a dense 2048×2048
//! matrix tiled into 32×32 blocks of 64×64 elements) this produces exactly
//! the 5,984 tasks of Table II.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::dense::{scale_duration, BlockMatrix};
use crate::spec::micros;
use crate::stream::TaskStream;

/// Matrix dimension evaluated in the paper.
pub const MATRIX_DIM: usize = 2048;
/// Blocks per dimension at the optimal granularity (64×64-element tiles).
pub const OPTIMAL_BLOCKS: usize = 32;

/// Per-kernel durations (µs) calibrated at [`OPTIMAL_BLOCKS`] so the average
/// task duration matches Table II's 183 µs.
const GEMM_US: f64 = 190.0;
const SYRK_US: f64 = 150.0;
const TRSM_US: f64 = 160.0;
const POTRF_US: f64 = 130.0;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Blocks per dimension (the granularity knob swept in Figure 6: more
    /// blocks = smaller tasks).
    pub blocks: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            blocks: OPTIMAL_BLOCKS,
        }
    }
}

/// Number of tasks generated for a given block count (closed form, used by
/// tests and the granularity sweep).
pub fn task_count(blocks: usize) -> usize {
    let n = blocks;
    // spotrf: n, strsm: n(n-1)/2, ssyrk: n(n-1)/2, sgemm: n(n-1)(n-2)/6.
    n + n * (n - 1) / 2 + n * (n - 1) / 2 + n * (n - 1) * (n - 2) / 6
}

/// Per-kernel durations in cycles for a given granularity.
#[derive(Debug, Clone, Copy)]
struct Durations {
    gemm: tdm_sim::clock::Cycle,
    syrk: tdm_sim::clock::Cycle,
    trsm: tdm_sim::clock::Cycle,
    potrf: tdm_sim::clock::Cycle,
}

/// Lazily generates the tile-Cholesky task sequence over `matrix`.
///
/// Standard right-looking tile Cholesky: factorize the panel, solve the
/// column below it, then update the trailing submatrix. The kernel counts
/// are identical to the paper's listing (Figure 1); the right-looking order
/// is the one production runtimes execute and keeps the trailing updates of
/// one panel independent of each other.
fn stream_over(matrix: BlockMatrix, d: Durations) -> TaskStream {
    let blocks = matrix.blocks;
    let bytes = matrix.block_bytes();
    let iter = (0..blocks).flat_map(move |k| {
        let panel = std::iter::once(TaskSpec::new(
            "spotrf",
            d.potrf,
            vec![DependenceSpec::inout(matrix.block(k, k), bytes)],
        ));
        let solves = ((k + 1)..blocks).map(move |i| {
            TaskSpec::new(
                "strsm",
                d.trsm,
                vec![
                    DependenceSpec::input(matrix.block(k, k), bytes),
                    DependenceSpec::inout(matrix.block(i, k), bytes),
                ],
            )
        });
        let updates = ((k + 1)..blocks).flat_map(move |i| {
            std::iter::once(TaskSpec::new(
                "ssyrk",
                d.syrk,
                vec![
                    DependenceSpec::input(matrix.block(i, k), bytes),
                    DependenceSpec::inout(matrix.block(i, i), bytes),
                ],
            ))
            .chain(((k + 1)..i).map(move |j| {
                TaskSpec::new(
                    "sgemm",
                    d.gemm,
                    vec![
                        DependenceSpec::input(matrix.block(i, k), bytes),
                        DependenceSpec::input(matrix.block(j, k), bytes),
                        DependenceSpec::inout(matrix.block(i, j), bytes),
                    ],
                )
            }))
        });
        panel.chain(solves).chain(updates)
    });
    // Cholesky is memory intensive and benefits from locality-aware
    // scheduling (Section VI-A reports Local+TDM ≈ 4% over FIFO+TDM).
    TaskStream::new("cholesky", task_count(blocks), iter).with_locality_benefit(0.06)
}

/// Lazily generates the Cholesky workload for the given parameters, one task
/// at a time.
///
/// # Panics
///
/// Panics if `params.blocks` does not divide the matrix dimension.
pub fn stream(params: Params) -> TaskStream {
    let blocks = params.blocks;
    let matrix = BlockMatrix::new(0x1000_0000_0000, MATRIX_DIM, blocks, 4);
    stream_over(
        matrix,
        Durations {
            gemm: micros(scale_duration(GEMM_US, OPTIMAL_BLOCKS, blocks)),
            syrk: micros(scale_duration(SYRK_US, OPTIMAL_BLOCKS, blocks)),
            trsm: micros(scale_duration(TRSM_US, OPTIMAL_BLOCKS, blocks)),
            potrf: micros(scale_duration(POTRF_US, OPTIMAL_BLOCKS, blocks)),
        },
    )
}

/// A scaled-up Cholesky stream with **at least** `target_tasks` tasks: a
/// bigger matrix factorised at the Table II-optimal 64×64-element tile size
/// (so per-task durations stay calibrated and only the task count grows).
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    let mut blocks = OPTIMAL_BLOCKS;
    while task_count(blocks) < target_tasks {
        blocks += 1;
    }
    let tile = MATRIX_DIM / OPTIMAL_BLOCKS;
    let matrix = BlockMatrix::new(0x1000_0000_0000, blocks * tile, blocks, 4);
    stream_over(
        matrix,
        Durations {
            gemm: micros(GEMM_US),
            syrk: micros(SYRK_US),
            trsm: micros(TRSM_US),
            potrf: micros(POTRF_US),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_count_matches_table2() {
        assert_eq!(task_count(32), 5_984);
        let w = Benchmark::Cholesky.software_workload();
        assert_eq!(w.len(), 5_984);
        check_calibration(&w, Benchmark::Cholesky.table2_software(), 0.01, 0.03).unwrap();
    }

    #[test]
    fn panel_structure_is_a_dag_with_parallel_updates() {
        let w = stream(Params { blocks: 8 }).into_workload();
        assert_eq!(w.len(), task_count(8));
        let graph = TaskGraph::build(&w);
        // Only the first potrf is ready at creation.
        assert_eq!(graph.roots().len(), 1);
        // The critical path spans several panels but is far shorter than the
        // task count: the trailing updates of a panel run in parallel.
        assert!(graph.critical_path_len() >= 8);
        assert!(graph.critical_path_len() < w.len() / 2);
    }

    #[test]
    fn kernel_mix_matches_closed_form() {
        let w = stream(Params { blocks: 8 }).into_workload();
        let gemms = w.tasks.iter().filter(|t| t.kind == "sgemm").count();
        let syrks = w.tasks.iter().filter(|t| t.kind == "ssyrk").count();
        let trsms = w.tasks.iter().filter(|t| t.kind == "strsm").count();
        let potrfs = w.tasks.iter().filter(|t| t.kind == "spotrf").count();
        assert_eq!(gemms, 8 * 7 * 6 / 6);
        assert_eq!(syrks, 8 * 7 / 2);
        assert_eq!(trsms, 8 * 7 / 2);
        assert_eq!(potrfs, 8);
    }

    #[test]
    fn coarser_blocking_means_fewer_longer_tasks() {
        let fine = stream(Params { blocks: 32 }).into_workload();
        let coarse = stream(Params { blocks: 16 }).into_workload();
        assert!(coarse.len() < fine.len());
        assert!(coarse.average_duration() > fine.average_duration());
        // Total work stays in the same ballpark (±20%): fewer tasks, each
        // proportionally longer.
        let fine_work = fine.total_work().as_f64();
        let coarse_work = coarse.total_work().as_f64();
        assert!((coarse_work / fine_work - 1.0).abs() < 0.2);
    }

    #[test]
    fn dependences_use_block_sized_regions() {
        let w = Benchmark::Cholesky.software_workload();
        for task in &w.tasks {
            for dep in &task.deps {
                assert_eq!(dep.size, 64 * 64 * 4);
            }
        }
    }

    #[test]
    fn graph_is_creation_ordered_dag() {
        let w = stream(Params { blocks: 8 }).into_workload();
        let graph = TaskGraph::build(&w);
        // Every edge points from an earlier task to a later one.
        for (t, _) in w.iter() {
            for &succ in graph.successors(t) {
                assert!(succ.index() > t.index());
            }
        }
    }
}
