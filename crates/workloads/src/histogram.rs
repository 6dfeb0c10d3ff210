//! Histogram: cumulative histogram of a 4096×4096 image.
//!
//! Each local task scans a stripe of the image and produces a private
//! histogram; a binary reduction tree merges the private histograms and a
//! final task computes the cumulative sums. At the optimal granularity of
//! Table II this is 256 local tasks + 255 merge tasks + 1 final task = 512
//! tasks of ≈3,824 µs on average.

use tdm_runtime::task::{DependenceSpec, TaskSpec};

use crate::spec::micros;
use crate::stream::TaskStream;

/// Local (per-stripe) tasks at the optimal granularity.
pub const OPTIMAL_STRIPES: usize = 256;

/// Duration of a local histogram task, in microseconds.
const LOCAL_US: f64 = 7_350.0;
/// Duration of a merge task, in microseconds.
const MERGE_US: f64 = 300.0;
/// Duration of the final cumulative pass, in microseconds.
const FINAL_US: f64 = 1_000.0;

/// Base address of the image stripes.
const IMAGE_BASE: u64 = 0x8000_0000_0000;
/// Base address of the private/merged histogram buffers.
const HIST_BASE: u64 = 0x8100_0000_0000;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of image stripes / local tasks (power of two; Figure 6
    /// granularity knob).
    pub stripes: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            stripes: OPTIMAL_STRIPES,
        }
    }
}

/// Lazily generates the Histogram workload.
///
/// # Panics
///
/// Panics if `stripes` is not a power of two greater than one.
pub fn stream(params: Params) -> TaskStream {
    let stripes = params.stripes;
    assert!(
        stripes.is_power_of_two() && stripes > 1,
        "stripes must be a power of two > 1, got {stripes}"
    );
    let image_bytes = 4096u64 * 4096 * 4;
    let stripe_bytes = image_bytes / stripes as u64;
    let hist_bytes = 4096u64;
    // Total scan work is constant across granularities.
    let local_us = LOCAL_US * OPTIMAL_STRIPES as f64 / stripes as f64;

    // Local histograms.
    let locals = (0..stripes).map(move |s| {
        TaskSpec::new(
            "local_hist",
            micros(local_us),
            vec![
                DependenceSpec::input(IMAGE_BASE + s as u64 * stripe_bytes, stripe_bytes),
                DependenceSpec::output(HIST_BASE + s as u64 * hist_bytes, hist_bytes),
            ],
        )
    });
    // Binary reduction tree: level by level, merge pairs into the
    // lower-indexed buffer. At level `l` (1-based) the live nodes are the
    // multiples of 2^l and each merges in its sibling at offset 2^(l-1) —
    // the closed form of the original level-by-level worklist.
    let levels = stripes.trailing_zeros();
    let merges = (1..=levels).flat_map(move |l| {
        let step = 1usize << l;
        (0..stripes / step).map(move |i| {
            let a = i * step;
            let b = a + step / 2;
            TaskSpec::new(
                "merge",
                micros(MERGE_US),
                vec![
                    DependenceSpec::inout(HIST_BASE + a as u64 * hist_bytes, hist_bytes),
                    DependenceSpec::input(HIST_BASE + b as u64 * hist_bytes, hist_bytes),
                ],
            )
        })
    });
    // Final cumulative pass over the root histogram.
    let cumulative = std::iter::once(TaskSpec::new(
        "cumulative",
        micros(FINAL_US),
        vec![DependenceSpec::inout(HIST_BASE, hist_bytes)],
    ));

    // stripes locals + (stripes - 1) merges + 1 final.
    TaskStream::new(
        "histogram",
        2 * stripes,
        locals.chain(merges).chain(cumulative),
    )
}

/// A scaled-up Histogram stream with at least `target_tasks` tasks: a larger
/// image split into more stripes (power of two), with the reduction tree
/// growing along.
pub fn stream_scaled(target_tasks: usize) -> TaskStream {
    let stripes = target_tasks.div_ceil(2).next_power_of_two().max(2);
    stream(Params { stripes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_calibration, Benchmark};
    use tdm_runtime::task::TaskRef;
    use tdm_runtime::tdg::TaskGraph;

    #[test]
    fn task_count_and_duration_match_table2() {
        let w = Benchmark::Histogram.software_workload();
        assert_eq!(w.len(), 512);
        check_calibration(&w, Benchmark::Histogram.table2_software(), 0.01, 0.03).unwrap();
    }

    #[test]
    fn reduction_tree_structure() {
        let w = stream(Params { stripes: 8 }).into_workload();
        // 8 locals + 7 merges + 1 final = 16 tasks.
        assert_eq!(w.len(), 16);
        let graph = TaskGraph::build(&w);
        // The locals are the only roots.
        assert_eq!(graph.roots().len(), 8);
        // Critical path: local → log2(8) merges → cumulative = 1 + 3 + 1.
        assert_eq!(graph.critical_path_len(), 5);
        // The final task depends on the last merge.
        let final_task = TaskRef(w.len() - 1);
        assert_eq!(graph.predecessors(final_task).len(), 1);
    }

    #[test]
    fn merges_wait_for_both_children() {
        let w = stream(Params { stripes: 4 }).into_workload();
        let graph = TaskGraph::build(&w);
        // First merge (task 4) merges histograms 0 and 1, so it waits for
        // local 0 and local 1.
        let merge0 = TaskRef(4);
        let preds = graph.predecessors(merge0);
        assert!(preds.contains(&TaskRef(0)));
        assert!(preds.contains(&TaskRef(1)));
    }

    #[test]
    fn coarser_stripes_are_longer() {
        let fine = stream(Params { stripes: 256 }).into_workload();
        let coarse = stream(Params { stripes: 32 }).into_workload();
        assert!(coarse.len() < fine.len());
        assert!(coarse.tasks[0].duration > fine.tasks[0].duration);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_stripes_panics() {
        let _ = stream(Params { stripes: 100 }).into_workload();
    }
}
