//! Ferret (PARSECSs): content-based similarity search pipeline.
//!
//! Each query image flows through six pipeline stages (load, segment,
//! extract, vector, rank, output). Stages of the same query are chained by
//! the per-query buffer; the final output stage appends to a shared results
//! file and is therefore serialized across queries. With 256 queries this
//! yields the 1,536 tasks of Table II.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Number of query images.
pub const QUERIES: usize = 256;
/// Pipeline stages per query.
pub const STAGES: usize = 6;

/// Stage names, in pipeline order.
pub const STAGE_NAMES: [&str; STAGES] = ["load", "segment", "extract", "vector", "rank", "output"];

/// Stage durations in microseconds. The vector/rank stages dominate and the
/// serialized output stage is short (it only appends a result record); the
/// average over all stages is Table II's ≈7,667 µs.
const STAGE_US: [f64; STAGES] = [2_000.0, 4_000.0, 6_000.0, 20_500.0, 13_000.0, 500.0];

/// Base address of the per-query, per-stage buffers.
const BUFFER_BASE: u64 = 0x6000_0000_0000;
/// Address of the shared results file position.
const RESULTS_ADDR: u64 = 0x6100_0000_0000;

/// Lazily generates a Ferret pipeline over `queries` query images.
pub fn stream_with_queries(queries: usize) -> TaskStream {
    let buffer_bytes = 256 * 1024;
    let iter = (0..queries).flat_map(move |query| {
        (0..STAGES).map(move |stage| {
            let out_buffer = BUFFER_BASE + (query * STAGES + stage) as u64 * buffer_bytes;
            let mut deps = Vec::new();
            if stage > 0 {
                let in_buffer = BUFFER_BASE + (query * STAGES + stage - 1) as u64 * buffer_bytes;
                deps.push(DependenceSpec::input(in_buffer, buffer_bytes));
            }
            if stage == STAGES - 1 {
                // The output stage appends to the shared results file.
                deps.push(DependenceSpec::inout(RESULTS_ADDR, 4096));
            } else {
                deps.push(DependenceSpec::output(out_buffer, buffer_bytes));
            }
            TaskSpec::new(STAGE_NAMES[stage], micros(STAGE_US[stage]), deps)
        })
    });
    TaskStream::new("ferret", queries * STAGES, iter)
}

/// Lazily generates the Table II Ferret workload ([`QUERIES`] queries).
pub fn stream() -> TaskStream {
    stream_with_queries(QUERIES)
}

/// A scaled-up Ferret stream with at least `target_tasks` tasks: more query
/// images through the same six-stage pipeline.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    stream_with_queries(target_tasks.div_ceil(STAGES).max(1))
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
        assert_eq!(w.len(), 1_536);
        check_calibration(&w, Benchmark::Ferret.table2_software(), 0.01, 0.03).unwrap();
    }

    #[test]
    fn stages_of_a_query_are_chained() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        // Stage 3 of query 10 depends on stage 2 of query 10.
        let stage3 = TaskRef(10 * STAGES + 3);
        let stage2 = TaskRef(10 * STAGES + 2);
        assert_eq!(graph.predecessors(stage3), &[stage2]);
    }

    #[test]
    fn output_stages_are_serialized_across_queries() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        let out_q1 = TaskRef(STAGES + STAGES - 1);
        let preds = graph.predecessors(out_q1);
        // Waits for its own rank stage and for the previous query's output.
        assert!(preds.contains(&TaskRef(STAGES + STAGES - 2)));
        assert!(preds.contains(&TaskRef(STAGES - 1)));
    }

    #[test]
    fn queries_are_otherwise_independent() {
        let w = stream().into_workload();
        let graph = TaskGraph::build(&w);
        // The load stages of all queries are roots.
        assert_eq!(graph.roots().len(), QUERIES);
        // Critical path: one query's six stages plus the serialized outputs
        // of the remaining queries.
        assert_eq!(graph.critical_path_len(), STAGES + QUERIES - 1);
    }

    #[test]
    fn rank_stage_dominates_durations() {
        let w = stream().into_workload();
        let rank: Vec<_> = w.tasks.iter().filter(|t| t.kind == "vector").collect();
        let load: Vec<_> = w.tasks.iter().filter(|t| t.kind == "load").collect();
        assert!(rank[0].duration > load[0].duration);
        assert_eq!(rank.len(), QUERIES);
    }
}
