//! Blackscholes (PARSECSs): option pricing over independent chains.
//!
//! The PARSECSs taskification processes batches of options; Section VI
//! describes the resulting structure as independent chains of dependent
//! tasks, which is what makes LIFO scheduling lose 29 % (a subset of chains
//! races ahead, leaving a load-imbalanced tail). Blackscholes is one of the
//! two benchmarks whose optimal granularity differs between the software
//! runtime (3,300 tasks of ≈1,770 µs) and TDM (6,500 tasks of ≈823 µs).

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Number of independent option-batch chains.
pub const CHAINS: usize = 50;
/// Chain length at the software-optimal granularity (4 KB option blocks).
pub const SOFTWARE_CHAIN_LEN: usize = 66;
/// Chain length at the TDM-optimal granularity (2 KB option blocks).
pub const TDM_CHAIN_LEN: usize = 130;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Number of independent chains.
    pub chains: usize,
    /// Tasks per chain.
    pub chain_len: usize,
    /// Duration of each task in microseconds.
    pub task_us: f64,
    /// Size of the option block each chain iterates over, in bytes.
    pub block_bytes: u64,
}

impl Params {
    /// Software-optimal granularity (Table II).
    pub fn software() -> Self {
        Params {
            chains: CHAINS,
            chain_len: SOFTWARE_CHAIN_LEN,
            task_us: 1_770.0,
            block_bytes: 4 * 1024,
        }
    }

    /// TDM-optimal granularity (Table II).
    pub fn tdm() -> Self {
        Params {
            chains: CHAINS,
            chain_len: TDM_CHAIN_LEN,
            task_us: 823.0,
            block_bytes: 2 * 1024,
        }
    }

    /// Granularity sweep point for Figure 6: block size in bytes. The chain
    /// length scales inversely with the block size (same total options), and
    /// the task duration proportionally.
    pub fn with_block_bytes(block_bytes: u64) -> Self {
        let sw = Params::software();
        let ratio = block_bytes as f64 / sw.block_bytes as f64;
        Params {
            chains: CHAINS,
            chain_len: ((sw.chain_len as f64 / ratio).round() as usize).max(1),
            task_us: sw.task_us * ratio,
            block_bytes,
        }
    }
}

/// Lazily generates the Blackscholes workload: `chains` chains, each a
/// sequence of tasks with an `inout` dependence on the chain's option block.
pub fn stream(params: Params) -> TaskStream {
    let duration = micros(params.task_us);
    let block_bytes = params.block_bytes;
    let chains = params.chains;
    // Tasks are created round-robin across chains (chain 0 step 0, chain 1
    // step 0, ..., chain 0 step 1, ...), matching a loop over option batches
    // with an outer iteration loop.
    let iter = (0..params.chain_len).flat_map(move |_step| {
        (0..chains).map(move |chain| {
            // Option batches are consecutive blocks of one large array, so
            // their addresses differ only above the log2(block size) bit —
            // the pattern the DAT's dynamic index-bit selection targets.
            let block = 0x4000_0000_0000 + chain as u64 * block_bytes;
            TaskSpec::new(
                "bs_batch",
                duration,
                vec![DependenceSpec::inout(block, block_bytes)],
            )
        })
    });
    TaskStream::new("blackscholes", params.chains * params.chain_len, iter)
}

/// A scaled-up Blackscholes stream with at least `target_tasks` tasks:
/// longer chains at the TDM-optimal granularity (more option-batch
/// iterations over the same [`CHAINS`] blocks).
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    let mut params = Params::tdm();
    params.chain_len = target_tasks.div_ceil(params.chains).max(1);
    stream(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::task::TaskRef;
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn software_point_matches_table2() {
        let w = Benchmark::Blackscholes.software_workload();
        assert_eq!(w.len(), 3_300);
        check_calibration(&w, Benchmark::Blackscholes.table2_software(), 0.01, 0.01).unwrap();
    }

    #[test]
    fn tdm_point_matches_table2() {
        let w = Benchmark::Blackscholes.tdm_workload();
        assert_eq!(w.len(), 6_500);
        check_calibration(&w, Benchmark::Blackscholes.table2_tdm(), 0.01, 0.01).unwrap();
    }

    #[test]
    fn chains_are_independent_and_serial() {
        let params = Params {
            chains: 4,
            chain_len: 5,
            task_us: 100.0,
            block_bytes: 1024,
        };
        let w = stream(params).into_workload();
        let graph = TaskGraph::build(&w);
        // Exactly `chains` roots (the first task of each chain).
        assert_eq!(graph.roots().len(), 4);
        // The critical path is the chain length.
        assert_eq!(graph.critical_path_len(), 5);
        // Total edges: (len-1) per chain.
        assert_eq!(graph.edge_count(), 4 * 4);
    }

    #[test]
    fn round_robin_creation_order() {
        let params = Params {
            chains: 3,
            chain_len: 2,
            task_us: 10.0,
            block_bytes: 512,
        };
        let w = stream(params).into_workload();
        let graph = TaskGraph::build(&w);
        // Task 3 (chain 0, step 1) depends on task 0 (chain 0, step 0).
        assert_eq!(graph.predecessors(TaskRef(3)), &[TaskRef(0)]);
    }

    #[test]
    fn granularity_sweep_preserves_total_work() {
        let a = stream(Params::with_block_bytes(1024)).into_workload();
        let b = stream(Params::with_block_bytes(8192)).into_workload();
        let ratio = a.total_work().as_f64() / b.total_work().as_f64();
        assert!((0.8..1.25).contains(&ratio), "work ratio {ratio}");
        assert!(a.len() > b.len());
    }
}
