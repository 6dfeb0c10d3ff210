//! Tiled LU decomposition.
//!
//! The paper decomposes a sparse 2048×2048 matrix; we generate the dense-tile
//! task structure (the sparse version skips a handful of empty-tile updates),
//! which with 16×16 blocks of 128×128 elements yields 1,496 tasks versus the
//! 1,512 of Table II — within 1.1 %.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::dense::{scale_duration, BlockMatrix};
use crate::spec::micros;
use crate::stream::TaskStream;

/// Matrix dimension evaluated in the paper.
pub const MATRIX_DIM: usize = 2048;
/// Blocks per dimension at the optimal granularity (128×128-element tiles).
pub const OPTIMAL_BLOCKS: usize = 16;

/// Per-kernel durations (µs) calibrated so the average matches Table II's
/// 424 µs.
const BMOD_US: f64 = 435.0;
const FWD_US: f64 = 380.0;
const BDIV_US: f64 = 380.0;
const LU0_US: f64 = 300.0;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Blocks per dimension (Figure 6 granularity knob).
    pub blocks: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            blocks: OPTIMAL_BLOCKS,
        }
    }
}

/// Number of tasks for a given block count.
pub fn task_count(blocks: usize) -> usize {
    let n = blocks;
    // lu0: n, fwd: n(n-1)/2, bdiv: n(n-1)/2, bmod: sum_k (n-1-k)^2.
    let bmod: usize = (0..n).map(|k| (n - 1 - k) * (n - 1 - k)).sum();
    n + n * (n - 1) / 2 + n * (n - 1) / 2 + bmod
}

/// Per-kernel durations in cycles for a given granularity.
#[derive(Debug, Clone, Copy)]
struct Durations {
    bmod: tdm_sim::clock::Cycle,
    fwd: tdm_sim::clock::Cycle,
    bdiv: tdm_sim::clock::Cycle,
    lu0: tdm_sim::clock::Cycle,
}

/// Lazily generates the tiled-LU task sequence over `matrix`.
fn stream_over(matrix: BlockMatrix, d: Durations) -> TaskStream {
    let blocks = matrix.blocks;
    let bytes = matrix.block_bytes();
    let iter = (0..blocks).flat_map(move |k| {
        let panel = std::iter::once(TaskSpec::new(
            "lu0",
            d.lu0,
            vec![DependenceSpec::inout(matrix.block(k, k), bytes)],
        ));
        let fwds = ((k + 1)..blocks).map(move |j| {
            TaskSpec::new(
                "fwd",
                d.fwd,
                vec![
                    DependenceSpec::input(matrix.block(k, k), bytes),
                    DependenceSpec::inout(matrix.block(k, j), bytes),
                ],
            )
        });
        let bdivs = ((k + 1)..blocks).map(move |i| {
            TaskSpec::new(
                "bdiv",
                d.bdiv,
                vec![
                    DependenceSpec::input(matrix.block(k, k), bytes),
                    DependenceSpec::inout(matrix.block(i, k), bytes),
                ],
            )
        });
        let bmods = ((k + 1)..blocks).flat_map(move |i| {
            ((k + 1)..blocks).map(move |j| {
                TaskSpec::new(
                    "bmod",
                    d.bmod,
                    vec![
                        DependenceSpec::input(matrix.block(i, k), bytes),
                        DependenceSpec::input(matrix.block(k, j), bytes),
                        DependenceSpec::inout(matrix.block(i, j), bytes),
                    ],
                )
            })
        });
        panel.chain(fwds).chain(bdivs).chain(bmods)
    });
    TaskStream::new("LU", task_count(blocks), iter).with_locality_benefit(0.04)
}

/// Lazily generates the LU workload, one task at a time.
pub fn stream(params: Params) -> TaskStream {
    let blocks = params.blocks;
    let matrix = BlockMatrix::new(0x2000_0000_0000, MATRIX_DIM, blocks, 4);
    stream_over(
        matrix,
        Durations {
            bmod: micros(scale_duration(BMOD_US, OPTIMAL_BLOCKS, blocks)),
            fwd: micros(scale_duration(FWD_US, OPTIMAL_BLOCKS, blocks)),
            bdiv: micros(scale_duration(BDIV_US, OPTIMAL_BLOCKS, blocks)),
            lu0: micros(scale_duration(LU0_US, OPTIMAL_BLOCKS, blocks)),
        },
    )
}

/// A scaled-up LU stream with at least `target_tasks` tasks: a bigger matrix
/// decomposed at the Table II-optimal 128×128-element tile size.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    let mut blocks = OPTIMAL_BLOCKS;
    while task_count(blocks) < target_tasks {
        blocks += 1;
    }
    let tile = MATRIX_DIM / OPTIMAL_BLOCKS;
    let matrix = BlockMatrix::new(0x2000_0000_0000, blocks * tile, blocks, 4);
    stream_over(
        matrix,
        Durations {
            bmod: micros(BMOD_US),
            fwd: micros(FWD_US),
            bdiv: micros(BDIV_US),
            lu0: micros(LU0_US),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_count_close_to_table2() {
        assert_eq!(task_count(16), 1_496);
        let w = Benchmark::Lu.software_workload();
        // Table II reports 1,512 for the sparse input; the dense structure is
        // within ~1 %.
        check_calibration(&w, Benchmark::Lu.table2_software(), 0.02, 0.03).unwrap();
    }

    #[test]
    fn panel_factorization_is_on_the_critical_path() {
        let w = stream(Params { blocks: 4 }).into_workload();
        let graph = TaskGraph::build(&w);
        // Each panel's lu0 depends transitively on the previous panel's bmod
        // wave, so the critical path grows with the block count.
        assert!(graph.critical_path_len() >= 2 * 4 - 1);
    }

    #[test]
    fn kernel_mix_matches_closed_form() {
        let w = stream(Params { blocks: 8 }).into_workload();
        let count = |k: &str| w.tasks.iter().filter(|t| t.kind == k).count();
        assert_eq!(count("lu0"), 8);
        assert_eq!(count("fwd"), 28);
        assert_eq!(count("bdiv"), 28);
        assert_eq!(
            count("bmod"),
            (0..8).map(|k| (7 - k) * (7 - k)).sum::<usize>()
        );
    }

    #[test]
    fn block_size_is_64kb_at_optimal_granularity() {
        let w = Benchmark::Lu.software_workload();
        assert_eq!(w.tasks[0].deps[0].size, 128 * 128 * 4);
    }

    #[test]
    fn granularity_sweep_preserves_total_work() {
        let fine = stream(Params { blocks: 32 }).into_workload();
        let coarse = stream(Params { blocks: 8 }).into_workload();
        let ratio = coarse.total_work().as_f64() / fine.total_work().as_f64();
        assert!((0.7..1.4).contains(&ratio), "work ratio {ratio}");
    }
}
