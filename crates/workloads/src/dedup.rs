//! Dedup (PARSECSs): compression pipeline with serialized I/O.
//!
//! Each input chunk is compressed by an independent compute task and then
//! written to the output archive by an I/O task. The archive is written
//! strictly in order, so the I/O tasks form a chain (the paper models this
//! with control dependences); a final verification task reads every chunk's
//! completion flag. Because every I/O task has two successors (the next I/O
//! task and the verifier) while compute tasks have one, the Successor
//! scheduler prioritizes the I/O chain and overlaps it with the remaining
//! compression work — the 23 % improvement reported in Section VI-A. FIFO
//! instead drains the (earlier-ready) compute tasks first and serializes the
//! I/O chain after them.
//!
//! The task granularity of Dedup cannot be changed without restructuring the
//! application (Section IV-B), so there is a single generation point:
//! 244 tasks of ≈27.7 ms on average.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Number of input chunks (one compute + one I/O task each).
pub const CHUNKS: usize = 121;

/// Duration of a compression task in microseconds.
const COMPUTE_US: f64 = 50_000.0;
/// Duration of an I/O (archive write) task in microseconds.
const IO_US: f64 = 5_300.0;
/// Duration of the final verification task in microseconds.
const VERIFY_US: f64 = 40_000.0;

/// Base address of the compressed-chunk buffers.
const COMPRESSED_BASE: u64 = 0x5000_0000_0000;
/// Address representing the output archive file position (serializes I/O).
const ARCHIVE_ADDR: u64 = 0x5100_0000_0000;
/// Base address of the archive index records updated by the I/O tasks and
/// read by the verifier.
const INDEX_BASE: u64 = 0x5200_0000_0000;
/// Number of archive index records (chunk `i` updates record `i % 16`).
const INDEX_RECORDS: u64 = 16;
/// Base address of the (read-only) input chunks.
const INPUT_BASE: u64 = 0x5300_0000_0000;

/// Lazily generates a Dedup pipeline over `chunks` input chunks:
/// 2×`chunks` pipeline tasks, one leading scan task and one trailing
/// verification task.
pub fn stream_with_chunks(chunks: usize) -> TaskStream {
    let chunk_bytes = 2 * 1024 * 1024;

    // A leading scan task that partitions the input (reads nothing tracked,
    // writes the chunk boundaries the compute tasks read).
    let scan = std::iter::once(TaskSpec::new(
        "scan",
        micros(10_000.0),
        vec![DependenceSpec::output(INPUT_BASE, 4096)],
    ));

    let pipeline = (0..chunks).flat_map(move |chunk| {
        let compressed = COMPRESSED_BASE + chunk as u64 * chunk_bytes;
        let index = INDEX_BASE + (chunk as u64 % INDEX_RECORDS) * 64;
        [
            TaskSpec::new(
                "compress",
                micros(COMPUTE_US),
                vec![
                    DependenceSpec::input(INPUT_BASE, 4096),
                    DependenceSpec::output(compressed, chunk_bytes),
                ],
            ),
            TaskSpec::new(
                "write",
                micros(IO_US),
                vec![
                    DependenceSpec::input(compressed, chunk_bytes),
                    DependenceSpec::inout(ARCHIVE_ADDR, 4096),
                    DependenceSpec::inout(index, 64),
                ],
            ),
        ]
        .into_iter()
    });

    // Final verification reads the archive and every index record.
    let verify = std::iter::once_with(|| {
        let mut verify_deps = vec![DependenceSpec::input(ARCHIVE_ADDR, 4096)];
        verify_deps
            .extend((0..INDEX_RECORDS).map(|r| DependenceSpec::input(INDEX_BASE + r * 64, 64)));
        TaskSpec::new("verify", micros(VERIFY_US), verify_deps)
    });

    TaskStream::new("dedup", 2 * chunks + 2, scan.chain(pipeline).chain(verify))
}

/// Lazily generates the Table II Dedup workload ([`CHUNKS`] chunks).
pub fn stream() -> TaskStream {
    stream_with_chunks(CHUNKS)
}

/// A scaled-up Dedup stream with at least `target_tasks` tasks: a longer
/// input (more chunks through the same pipeline).
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    stream_with_chunks(target_tasks.saturating_sub(2).div_ceil(2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::task::TaskRef;
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_count_and_duration_match_table2() {
        let w = stream().into_workload();
        assert_eq!(w.len(), 244);
        check_calibration(&w, Benchmark::Dedup.table2_software(), 0.01, 0.03).unwrap();
    }

    #[test]
    fn io_tasks_form_a_chain() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        // write_i (index 2 + 2i + 1) depends on write_{i-1} through the
        // archive pointer and on compress_i through the compressed buffer.
        let write_1 = TaskRef(4); // scan, compress_0, write_0, compress_1, write_1
        let preds = graph.predecessors(write_1);
        assert!(preds.contains(&TaskRef(2)), "write_1 waits for write_0");
        assert!(preds.contains(&TaskRef(3)), "write_1 waits for compress_1");
    }

    #[test]
    fn io_tasks_have_two_successors_compute_tasks_one() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        // compress_5 is task index 1 + 2*5 = 11; write_5 is 12.
        let compress_5 = TaskRef(11);
        let write_5 = TaskRef(12);
        assert_eq!(graph.successor_count(compress_5), 1);
        assert_eq!(graph.successor_count(write_5), 2);
    }

    #[test]
    fn verifier_waits_for_the_last_writer_of_every_index_record() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        let verify = TaskRef(w.len() - 1);
        // One distinct predecessor per index record (the archive's last
        // writer is also one of them); every other write task is ordered
        // before those transitively through the archive chain.
        assert_eq!(graph.predecessors(verify).len(), INDEX_RECORDS as usize);
        // The verifier is the last task on the critical path.
        assert!(graph.successors(verify).is_empty());
    }

    #[test]
    fn compute_dominates_total_work() {
        let w = stream().into_workload();
        let compute: f64 = w
            .tasks
            .iter()
            .filter(|t| t.kind == "compress")
            .map(|t| t.duration.as_f64())
            .sum();
        let io: f64 = w
            .tasks
            .iter()
            .filter(|t| t.kind == "write")
            .map(|t| t.duration.as_f64())
            .sum();
        assert!(compute > 5.0 * io);
    }
}
