//! Tiled QR factorization (communication-avoiding / tile Householder QR).
//!
//! QR is one of the two benchmarks where TDM's lower runtime overhead makes a
//! finer granularity profitable (Table II): the software runtime is fastest
//! with 16×16 blocks (1,496 tasks of ≈997 µs) while TDM is fastest with
//! 32×32 blocks (11,440 tasks of ≈96 µs).

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::dense::{scale_duration, BlockMatrix};
use crate::spec::micros;
use crate::stream::TaskStream;

/// Matrix dimension evaluated in the paper.
pub const MATRIX_DIM: usize = 1024;
/// Software-optimal blocks per dimension.
pub const SOFTWARE_BLOCKS: usize = 16;
/// TDM-optimal blocks per dimension.
pub const TDM_BLOCKS: usize = 32;

/// Per-kernel durations (µs) for the software-optimal granularity, chosen so
/// the average matches Table II's 997 µs.
const SW_TSMQR_US: f64 = 1_020.0;
const SW_UNMQR_US: f64 = 900.0;
const SW_TSQRT_US: f64 = 950.0;
const SW_GEQRT_US: f64 = 600.0;

/// Per-kernel durations (µs) for the TDM-optimal granularity, matching the
/// 96 µs average of Table II. (Scaling the software durations by the cubic
/// work ratio would give ≈126 µs; the paper's finer tiles run
/// disproportionally faster thanks to better cache behaviour, so the TDM
/// point is calibrated directly.)
const TDM_TSMQR_US: f64 = 98.0;
const TDM_UNMQR_US: f64 = 85.0;
const TDM_TSQRT_US: f64 = 90.0;
const TDM_GEQRT_US: f64 = 60.0;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Blocks per dimension (Figure 6 granularity knob).
    pub blocks: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            blocks: SOFTWARE_BLOCKS,
        }
    }
}

/// Number of tasks for a given block count.
pub fn task_count(blocks: usize) -> usize {
    let n = blocks;
    let tsmqr: usize = (0..n).map(|k| (n - 1 - k) * (n - 1 - k)).sum();
    n + n * (n - 1) / 2 + n * (n - 1) / 2 + tsmqr
}

fn kernel_durations(blocks: usize) -> (f64, f64, f64, f64) {
    match blocks {
        SOFTWARE_BLOCKS => (SW_TSMQR_US, SW_UNMQR_US, SW_TSQRT_US, SW_GEQRT_US),
        TDM_BLOCKS => (TDM_TSMQR_US, TDM_UNMQR_US, TDM_TSQRT_US, TDM_GEQRT_US),
        other => (
            scale_duration(SW_TSMQR_US, SOFTWARE_BLOCKS, other),
            scale_duration(SW_UNMQR_US, SOFTWARE_BLOCKS, other),
            scale_duration(SW_TSQRT_US, SOFTWARE_BLOCKS, other),
            scale_duration(SW_GEQRT_US, SOFTWARE_BLOCKS, other),
        ),
    }
}

/// Lazily generates the tile-QR task sequence over `matrix` with the given
/// per-kernel durations (µs).
fn stream_over(matrix: BlockMatrix, durations_us: (f64, f64, f64, f64)) -> TaskStream {
    let blocks = matrix.blocks;
    let bytes = matrix.block_bytes();
    let (tsmqr_us, unmqr_us, tsqrt_us, geqrt_us) = durations_us;
    let tsmqr = micros(tsmqr_us);
    let unmqr = micros(unmqr_us);
    let tsqrt = micros(tsqrt_us);
    let geqrt = micros(geqrt_us);

    let iter = (0..blocks).flat_map(move |k| {
        let panel = std::iter::once(TaskSpec::new(
            "geqrt",
            geqrt,
            vec![DependenceSpec::inout(matrix.block(k, k), bytes)],
        ));
        let row_updates = ((k + 1)..blocks).map(move |j| {
            TaskSpec::new(
                "unmqr",
                unmqr,
                vec![
                    DependenceSpec::input(matrix.block(k, k), bytes),
                    DependenceSpec::inout(matrix.block(k, j), bytes),
                ],
            )
        });
        let column = ((k + 1)..blocks).flat_map(move |i| {
            std::iter::once(TaskSpec::new(
                "tsqrt",
                tsqrt,
                vec![
                    DependenceSpec::inout(matrix.block(k, k), bytes),
                    DependenceSpec::inout(matrix.block(i, k), bytes),
                ],
            ))
            .chain(((k + 1)..blocks).map(move |j| {
                TaskSpec::new(
                    "tsmqr",
                    tsmqr,
                    vec![
                        DependenceSpec::input(matrix.block(i, k), bytes),
                        DependenceSpec::inout(matrix.block(k, j), bytes),
                        DependenceSpec::inout(matrix.block(i, j), bytes),
                    ],
                )
            }))
        });
        panel.chain(row_updates).chain(column)
    });
    TaskStream::new("QR", task_count(blocks), iter).with_locality_benefit(0.04)
}

/// Lazily generates the QR workload, one task at a time.
pub fn stream(params: Params) -> TaskStream {
    let blocks = params.blocks;
    let matrix = BlockMatrix::new(0x3000_0000_0000, MATRIX_DIM, blocks, 4);
    stream_over(matrix, kernel_durations(blocks))
}

/// A scaled-up QR stream with at least `target_tasks` tasks: a bigger matrix
/// factorised at the TDM-optimal 32×32-element tile size.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    let mut blocks = TDM_BLOCKS;
    while task_count(blocks) < target_tasks {
        blocks += 1;
    }
    let tile = MATRIX_DIM / TDM_BLOCKS;
    let matrix = BlockMatrix::new(0x3000_0000_0000, blocks * tile, blocks, 4);
    stream_over(
        matrix,
        (TDM_TSMQR_US, TDM_UNMQR_US, TDM_TSQRT_US, TDM_GEQRT_US),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_counts_match_table2_exactly() {
        assert_eq!(task_count(SOFTWARE_BLOCKS), 1_496);
        assert_eq!(task_count(TDM_BLOCKS), 11_440);
    }

    #[test]
    fn software_point_matches_calibration() {
        let w = Benchmark::Qr.software_workload();
        check_calibration(&w, Benchmark::Qr.table2_software(), 0.02, 0.03).unwrap();
    }

    #[test]
    fn tdm_point_matches_calibration() {
        let w = Benchmark::Qr.tdm_workload();
        check_calibration(&w, Benchmark::Qr.table2_tdm(), 0.02, 0.03).unwrap();
    }

    #[test]
    fn tsqrt_chain_serializes_the_panel() {
        let w = stream(Params { blocks: 4 }).into_workload();
        let graph = TaskGraph::build(&w);
        // Within a panel, every tsqrt touches the diagonal block (inout), so
        // the panel factorization is a chain; across panels the trailing
        // update connects them. The critical path is therefore at least the
        // number of tsqrt+geqrt tasks of the first panel plus one per later
        // panel.
        assert!(graph.critical_path_len() >= 4 + 3);
    }

    #[test]
    fn finer_granularity_means_more_shorter_tasks() {
        let sw = Benchmark::Qr.software_workload();
        let tdm = Benchmark::Qr.tdm_workload();
        assert!(tdm.len() > 7 * sw.len());
        assert!(tdm.average_duration() < sw.average_duration());
    }

    #[test]
    fn kernel_mix_matches_closed_form() {
        let w = stream(Params { blocks: 8 }).into_workload();
        let count = |k: &str| w.tasks.iter().filter(|t| t.kind == k).count();
        assert_eq!(count("geqrt"), 8);
        assert_eq!(count("unmqr"), 28);
        assert_eq!(count("tsqrt"), 28);
        assert_eq!(
            count("tsmqr"),
            (0..8).map(|k| (7 - k) * (7 - k)).sum::<usize>()
        );
        assert_eq!(w.len(), task_count(8));
    }
}
