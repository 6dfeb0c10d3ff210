//! Parallel design-space sweeps: a declarative configuration grid executed
//! across host threads.
//!
//! The paper's headline results (Figures 7–13) are sweeps — alias-table
//! sizes, index-bit policies, schedulers, core counts — and every point of
//! such a sweep is an *independent, pure* simulation: a deterministic
//! function of its configuration and seed. That makes the grid
//! embarrassingly parallel on the host, and this module exploits it:
//!
//! * [`SweepGrid`] declares the axes — workloads ([`WorkloadSpec`]: a
//!   benchmark at some granularity or scale factor, or any custom
//!   [`TaskStream`] factory), backends ([`BackendSpec`]: any
//!   [`Backend`], so DMU geometries and index policies are one axis entry
//!   each), schedulers, master windows and core counts — plus the seeding
//!   policy.
//! * [`SweepGrid::points`] expands the cross product into an ordered list of
//!   [`SweepPoint`]s, each carrying **its own deterministic seed** (see
//!   [`point_seed`]).
//! * [`run_sweep`] executes the points with `std::thread::scope` over a
//!   shared atomic work queue. Each worker pulls the next unclaimed point,
//!   builds the stream *inside* the worker (streams are `Send` but need not
//!   be `Sync`), drives [`simulate_stream`] through the windowed master, and
//!   writes the result into the point's slot. Because every point is a pure
//!   function of the grid, the assembled result vector is **bit-identical
//!   regardless of thread count or scheduling order** — only the wall-clock
//!   measurements differ, and [`SweepResult::modeled_eq`] compares
//!   everything but those. `tests/conformance/sweep.rs` pins this, and
//!   `bench_sweep verify` re-checks it at full scale in CI.
//!
//! Results serialise to JSON/CSV through the same hand-rolled
//! [`crate::baseline::json`] module the perf baseline uses (the
//! workspace's `serde` is a no-op shim).
//!
//! # Example
//!
//! ```
//! use tdm_bench::sweep::{run_sweep, BackendSpec, SweepGrid, WorkloadSpec};
//! use tdm_core::config::DmuConfig;
//! use tdm_runtime::exec::Backend;
//!
//! let grid = SweepGrid::new()
//!     .with_workloads(vec![WorkloadSpec::scaled(tdm_bench::Benchmark::Histogram, 600)])
//!     .with_backends(vec![
//!         BackendSpec::labelled("tdm-small", Backend::Tdm(DmuConfig::default().with_alias_sizes(512, 512))),
//!         BackendSpec::from(Backend::tdm_default()),
//!     ])
//!     .with_windows(vec![64]);
//! assert_eq!(grid.len(), 2);
//! let results = run_sweep(&grid, 2);
//! assert!(results.iter().all(|r| r.report.tasks >= 600));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tdm_runtime::exec::{simulate_stream, Backend, ExecConfig, RunReport};
use tdm_runtime::scheduler::SchedulerKind;
use tdm_sim::rng::SplitMix64;
use tdm_workloads::{Benchmark, TaskStream};

use crate::baseline::json;
use crate::standard_config;

/// Schema version of the `bench_sweep` JSON output; bump when fields change.
/// Version 2 added the fault-injection counters (`faults_injected`,
/// `retries`, `retired_cores`) to every row.
pub const SCHEMA_VERSION: u64 = 2;

/// One workload axis entry: a label plus a factory producing a fresh
/// [`TaskStream`] for every simulation point that uses it.
///
/// The factory is `Fn` (not `FnOnce`) and `Send + Sync` because several
/// worker threads may build streams from the same spec concurrently; each
/// call must yield an identical, independent stream (the generators are
/// closed-form, so this is their natural behaviour).
pub struct WorkloadSpec {
    label: String,
    build: Box<dyn Fn() -> TaskStream + Send + Sync>,
}

impl WorkloadSpec {
    /// A custom workload from any stream factory.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn() -> TaskStream + Send + Sync + 'static,
    ) -> Self {
        WorkloadSpec {
            label: label.into(),
            build: Box::new(build),
        }
    }

    /// A Table II benchmark at the TDM-optimal granularity.
    pub fn tdm_granularity(bench: Benchmark) -> Self {
        WorkloadSpec::new(bench.name(), move || bench.tdm_stream())
    }

    /// A Table II benchmark at the software-optimal granularity.
    pub fn software_granularity(bench: Benchmark) -> Self {
        WorkloadSpec::new(format!("{}-sw", bench.name()), move || {
            bench.software_stream()
        })
    }

    /// A benchmark scaled to **at least** `target_tasks` tasks
    /// (see [`Benchmark::scaled_stream`]).
    pub fn scaled(bench: Benchmark, target_tasks: usize) -> Self {
        WorkloadSpec::new(format!("{}@{}", bench.name(), target_tasks), move || {
            bench.scaled_stream(target_tasks)
        })
    }

    /// The label identifying this workload in points and results.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds a fresh stream of this workload.
    pub fn stream(&self) -> TaskStream {
        (self.build)()
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// One backend axis entry: a [`Backend`] with a label that distinguishes
/// configurations sharing a backend name (e.g. several DMU geometries, which
/// all report as `"TDM"`).
#[derive(Debug, Clone)]
pub struct BackendSpec {
    label: String,
    backend: Backend,
}

impl BackendSpec {
    /// A backend labelled explicitly (use when sweeping several
    /// configurations of the same backend kind).
    pub fn labelled(label: impl Into<String>, backend: Backend) -> Self {
        BackendSpec {
            label: label.into(),
            backend,
        }
    }

    /// The label identifying this backend in points and results.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The backend configuration itself.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }
}

impl From<Backend> for BackendSpec {
    /// Labels the spec with the backend's display name.
    fn from(backend: Backend) -> Self {
        BackendSpec {
            label: backend.name().to_string(),
            backend,
        }
    }
}

/// A declarative design-space grid: the cross product of every axis, plus
/// the seeding policy.
///
/// Point order is deterministic and documented: workloads are the outermost
/// axis, then backends, schedulers, windows and core counts (innermost) —
/// the nesting order of the fields below.
#[derive(Debug)]
pub struct SweepGrid {
    /// Workload axis (outermost).
    pub workloads: Vec<WorkloadSpec>,
    /// Backend axis, DMU configurations included.
    pub backends: Vec<BackendSpec>,
    /// Scheduler axis (hardware-scheduled backends ignore it, as always).
    pub schedulers: Vec<SchedulerKind>,
    /// Master creation-window axis (`usize::MAX` = unbounded).
    pub windows: Vec<usize>,
    /// Core-count axis (innermost).
    pub core_counts: Vec<usize>,
    /// Base seed (see [`SweepGrid::with_per_point_seeds`]).
    pub seed: u64,
    /// When true, each point derives its own seed via [`point_seed`]; when
    /// false (default) every point uses `seed` directly, matching the fixed
    /// seed of [`standard_config`] so sweep results line up with the classic
    /// figure harnesses.
    pub per_point_seeds: bool,
}

impl SweepGrid {
    /// An empty grid with the standard defaults: FIFO scheduling, unbounded
    /// window, the Table I core count, and the standard fixed seed.
    pub fn new() -> Self {
        let config = standard_config();
        SweepGrid {
            workloads: Vec::new(),
            backends: Vec::new(),
            schedulers: vec![SchedulerKind::Fifo],
            windows: vec![usize::MAX],
            core_counts: vec![config.chip.num_cores],
            seed: config.seed,
            per_point_seeds: false,
        }
    }

    /// Replaces the workload axis.
    pub fn with_workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Replaces the backend axis.
    pub fn with_backends(mut self, backends: Vec<BackendSpec>) -> Self {
        self.backends = backends;
        self
    }

    /// Replaces the scheduler axis.
    pub fn with_schedulers(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.schedulers = schedulers;
        self
    }

    /// Replaces the window axis. Windows are clamped to at least 1 by the
    /// execution driver (0 behaves as 1, documented on
    /// [`ExecConfig::window`]).
    pub fn with_windows(mut self, windows: Vec<usize>) -> Self {
        self.windows = windows;
        self
    }

    /// Replaces the core-count axis.
    pub fn with_core_counts(mut self, core_counts: Vec<usize>) -> Self {
        self.core_counts = core_counts;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derives an independent seed per point ([`point_seed`]) instead of
    /// using the base seed everywhere. Duration jitter then decorrelates
    /// across points while staying a pure function of (base seed, point
    /// index) — bit-identical no matter how many threads execute the sweep.
    pub fn with_per_point_seeds(mut self) -> Self {
        self.per_point_seeds = true;
        self
    }

    /// Number of points in the grid (the product of all axis lengths).
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.backends.len()
            * self.schedulers.len()
            * self.windows.len()
            * self.core_counts.len()
    }

    /// True if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its ordered point list.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for (workload, spec) in self.workloads.iter().enumerate() {
            for backend in &self.backends {
                for &scheduler in &self.schedulers {
                    for &window in &self.windows {
                        for &cores in &self.core_counts {
                            let index = points.len();
                            let seed = if self.per_point_seeds {
                                point_seed(self.seed, index as u64)
                            } else {
                                self.seed
                            };
                            points.push(SweepPoint {
                                index,
                                workload,
                                workload_label: spec.label.clone(),
                                backend_label: backend.label.clone(),
                                backend: backend.backend.clone(),
                                scheduler,
                                window,
                                cores,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        points
    }
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::new()
    }
}

/// Deterministic per-point seed: one SplitMix64 output keyed by the base
/// seed and the point's index in the expanded grid. A pure function, so a
/// serial rerun of any single point reproduces the sweep's result exactly.
pub fn point_seed(base_seed: u64, point_index: u64) -> u64 {
    SplitMix64::new(base_seed ^ point_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One fully resolved simulation point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the expanded grid (also the result-vector position).
    pub index: usize,
    /// Index of the workload spec in [`SweepGrid::workloads`].
    pub workload: usize,
    /// Label of that workload spec.
    pub workload_label: String,
    /// Label of the backend spec.
    pub backend_label: String,
    /// The backend configuration to simulate.
    pub backend: Backend,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Master creation window.
    pub window: usize,
    /// Simulated core count.
    pub cores: usize,
    /// Seed for this point's run.
    pub seed: u64,
}

impl SweepPoint {
    /// The [`ExecConfig`] this point runs with: the standard configuration,
    /// re-cored if the point's core count differs, with the point's seed and
    /// window applied. Public so the conformance suite can replay any point
    /// serially and demand a bit-identical report.
    pub fn exec_config(&self) -> ExecConfig {
        let mut config = standard_config();
        if self.cores != config.chip.num_cores {
            config = config.with_cores(self.cores);
        }
        config.seed = self.seed;
        config.window = self.window;
        config
    }
}

/// The outcome of one sweep point: the point's identity, the full
/// [`RunReport`] and the host wall-clock time.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Workload label of the point.
    pub workload: String,
    /// Backend label of the point.
    pub backend: String,
    /// Scheduler actually applied (hardware backends force FIFO).
    pub scheduler: String,
    /// Master creation window of the point.
    pub window: usize,
    /// Simulated core count of the point.
    pub cores: usize,
    /// Seed the point ran with.
    pub seed: u64,
    /// The complete simulation report (modeled quantities only).
    pub report: RunReport,
    /// Host wall-clock time of the simulation, in milliseconds. The only
    /// field that varies between reruns; excluded from [`modeled_eq`].
    ///
    /// [`modeled_eq`]: SweepResult::modeled_eq
    pub wall_ms: f64,
}

impl SweepResult {
    /// True if every modeled quantity matches `other` bit-for-bit — the
    /// whole result except the host wall-clock measurement.
    pub fn modeled_eq(&self, other: &SweepResult) -> bool {
        self.workload == other.workload
            && self.backend == other.backend
            && self.scheduler == other.scheduler
            && self.window == other.window
            && self.cores == other.cores
            && self.seed == other.seed
            && self.report == other.report
    }

    /// Modeled makespan in cycles.
    pub fn makespan_cycles(&self) -> u64 {
        self.report.makespan().raw()
    }

    /// Total DMU SRAM accesses (0 for software dependence tracking).
    pub fn dmu_accesses(&self) -> u64 {
        self.report
            .hardware
            .as_ref()
            .map_or(0, |hw| hw.stats.total_accesses)
    }

    /// Number of DMU stalls (0 for software dependence tracking).
    pub fn dmu_stalls(&self) -> u64 {
        self.report
            .hardware
            .as_ref()
            .map_or(0, |hw| hw.stats.stalls)
    }

    /// Simulated tasks per second of host time.
    pub fn tasks_per_sec(&self) -> f64 {
        self.report.tasks as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// Runs one point: builds a fresh stream from its workload spec and drives
/// the windowed streaming simulator. Pure in everything but `wall_ms`.
pub fn run_point(grid: &SweepGrid, point: &SweepPoint) -> SweepResult {
    let mut stream = grid.workloads[point.workload].stream();
    let config = point.exec_config();
    let start = Instant::now();
    let report = simulate_stream(&mut stream, &point.backend, point.scheduler, &config);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    SweepResult {
        workload: point.workload_label.clone(),
        backend: point.backend_label.clone(),
        scheduler: report.scheduler.clone(),
        window: point.window,
        cores: point.cores,
        seed: point.seed,
        report,
        wall_ms,
    }
}

/// Executes every point of `grid` on `threads` host threads (clamped to
/// `1..=points`), returning results in grid order.
///
/// Threads share an atomic cursor over the point list: each worker claims
/// the next unclaimed point, runs it to completion and stores the result in
/// that point's dedicated slot, so no two workers ever touch the same slot
/// and the output order never depends on scheduling. Modeled results are
/// bit-identical for every `threads` value.
///
/// # Panics
///
/// Propagates a panic from any worker (a simulation deadlock is a bug, not
/// a result).
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> Vec<SweepResult> {
    let points = grid.points();
    let threads = threads.clamp(1, points.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepResult>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else {
                    break;
                };
                let result = run_point(grid, point);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every claimed point stored a result")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Serialises sweep results as JSON (via the baseline's hand-rolled JSON
/// module). Unbounded windows (`usize::MAX`) are emitted as `null` and
/// seeds as strings — both exceed the exact-integer range of JSON
/// numbers-as-f64, which the parser side stores.
pub fn results_to_json(results: &[SweepResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": {}, \"backend\": {}, \"scheduler\": {}, \
                 \"window\": {}, \"cores\": {}, \"seed\": {}, \"tasks\": {}, \
                 \"makespan_cycles\": {}, \"dmu_accesses\": {}, \"dmu_stalls\": {}, \
                 \"peak_resident_tasks\": {}, \"faults_injected\": {}, \
                 \"retries\": {}, \"retired_cores\": {}, \"wall_ms\": {:.3}}}",
                json::escape(&r.workload),
                json::escape(&r.backend),
                json::escape(&r.scheduler),
                window_json(r.window),
                r.cores,
                json::escape(&r.seed.to_string()),
                r.report.tasks,
                r.makespan_cycles(),
                r.dmu_accesses(),
                r.dmu_stalls(),
                r.report.peak_resident_tasks,
                r.report.faults_injected,
                r.report.retries,
                r.report.retired_cores,
                json::finite(r.wall_ms, "wall_ms"),
            )
        })
        .collect();
    json::document(
        &[("schema_version", SCHEMA_VERSION.to_string())],
        "results",
        &rows,
    )
}

fn window_json(window: usize) -> String {
    if window == usize::MAX {
        "null".to_string()
    } else {
        window.to_string()
    }
}

/// Serialises sweep results as CSV (header + one row per point). Unbounded
/// windows are written as `unbounded`.
pub fn results_to_csv(results: &[SweepResult]) -> String {
    let mut out = String::from(
        "workload,backend,scheduler,window,cores,seed,tasks,makespan_cycles,\
         dmu_accesses,dmu_stalls,peak_resident_tasks,faults_injected,retries,\
         retired_cores,wall_ms\n",
    );
    for r in results {
        let window = if r.window == usize::MAX {
            "unbounded".to_string()
        } else {
            r.window.to_string()
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3}\n",
            csv_field(&r.workload),
            csv_field(&r.backend),
            csv_field(&r.scheduler),
            window,
            r.cores,
            r.seed,
            r.report.tasks,
            r.makespan_cycles(),
            r.dmu_accesses(),
            r.dmu_stalls(),
            r.report.peak_resident_tasks,
            r.report.faults_injected,
            r.report.retries,
            r.report.retired_cores,
            r.wall_ms,
        ));
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote, newline or
/// carriage return (RFC 4180 quoting: the field is wrapped in double quotes
/// and embedded quotes are doubled).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_runtime::task::{DependenceSpec, TaskSpec};
    use tdm_sim::clock::Cycle;

    /// A tiny deterministic workload: `chains` chains of `len` tasks.
    fn tiny(chains: usize, len: usize) -> WorkloadSpec {
        WorkloadSpec::new(format!("tiny{chains}x{len}"), move || {
            TaskStream::new(
                format!("tiny{chains}x{len}"),
                chains * len,
                (0..chains).flat_map(move |c| {
                    (0..len).map(move |_| {
                        TaskSpec::new(
                            "link",
                            Cycle::new(200_000),
                            vec![DependenceSpec::inout(0x1000 + (c as u64) * 0x1000, 64)],
                        )
                    })
                }),
            )
        })
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .with_workloads(vec![tiny(4, 6), tiny(2, 9)])
            .with_backends(vec![
                BackendSpec::from(Backend::Software),
                BackendSpec::from(Backend::tdm_default()),
            ])
            .with_schedulers(vec![SchedulerKind::Fifo, SchedulerKind::Age])
            .with_windows(vec![usize::MAX, 4])
            .with_core_counts(vec![4])
    }

    #[test]
    fn grid_expands_in_documented_order() {
        let grid = small_grid();
        assert_eq!(grid.len(), 16);
        let points = grid.points();
        assert_eq!(points.len(), 16);
        // Workloads outermost: first half is tiny4x6.
        assert!(points[..8].iter().all(|p| p.workload_label == "tiny4x6"));
        // Innermost axis (here: windows, since cores has one entry)
        // alternates fastest.
        assert_eq!(points[0].window, usize::MAX);
        assert_eq!(points[1].window, 4);
        assert_eq!(points[0].backend_label, "Software");
        assert_eq!(points[4].backend_label, "TDM");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn fixed_seed_by_default_per_point_on_request() {
        let grid = small_grid();
        assert!(grid.points().iter().all(|p| p.seed == 42));
        let derived = small_grid().with_per_point_seeds();
        let points = derived.points();
        assert_eq!(points[3].seed, point_seed(42, 3));
        let distinct: std::collections::HashSet<u64> = points.iter().map(|p| p.seed).collect();
        assert_eq!(distinct.len(), points.len(), "derived seeds collide");
        // Pure function: re-expansion reproduces the same seeds.
        assert_eq!(
            derived.points().iter().map(|p| p.seed).collect::<Vec<_>>(),
            points.iter().map(|p| p.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let grid = small_grid();
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!(
                a.modeled_eq(b),
                "{} × {} × {} diverged across thread counts",
                a.workload,
                a.backend,
                a.scheduler
            );
        }
    }

    #[test]
    fn sweep_points_match_serial_simulate_stream() {
        let grid = small_grid().with_per_point_seeds();
        let results = run_sweep(&grid, 3);
        for (point, result) in grid.points().iter().zip(&results) {
            let mut stream = grid.workloads[point.workload].stream();
            let report = simulate_stream(
                &mut stream,
                &point.backend,
                point.scheduler,
                &point.exec_config(),
            );
            assert_eq!(report, result.report, "point {}", point.index);
        }
    }

    #[test]
    fn windowed_points_respect_residency_bound() {
        let grid = small_grid();
        for result in run_sweep(&grid, 2) {
            if result.window != usize::MAX {
                assert!(result.report.peak_resident_tasks <= result.window + 1);
            }
        }
    }

    #[test]
    fn json_output_round_trips_through_the_baseline_parser() {
        let grid = small_grid();
        let results = run_sweep(&grid, 2);
        let text = results_to_json(&results);
        let value = json::parse(&text).expect("bench_sweep JSON must parse");
        let obj = value.as_object("top").unwrap();
        assert_eq!(
            json::field(obj, "schema_version")
                .unwrap()
                .as_u64("schema_version")
                .unwrap(),
            SCHEMA_VERSION
        );
        let rows = json::field(obj, "results")
            .unwrap()
            .as_array("results")
            .unwrap();
        assert_eq!(rows.len(), results.len());
        let first = rows[0].as_object("results[0]").unwrap();
        assert_eq!(
            json::field(first, "makespan_cycles")
                .unwrap()
                .as_u64("makespan_cycles")
                .unwrap(),
            results[0].makespan_cycles()
        );
        // The fault counters ride along in every row (all zero without a
        // fault configuration on the grid's exec config).
        for counter in ["faults_injected", "retries", "retired_cores"] {
            assert_eq!(
                json::field(first, counter)
                    .unwrap()
                    .as_u64(counter)
                    .unwrap(),
                0,
                "{counter} must be present and zero in a fault-free sweep"
            );
        }
        // Unbounded window serialises as null, bounded as a number.
        assert!(matches!(
            json::field(first, "window").unwrap(),
            json::Value::Null
        ));
        // Seeds are strings: u64 values exceed JSON's f64-exact range.
        assert_eq!(
            json::field(first, "seed").unwrap().as_str("seed").unwrap(),
            results[0].seed.to_string()
        );
    }

    #[test]
    fn csv_output_has_one_row_per_point_plus_header() {
        let grid = small_grid();
        let results = run_sweep(&grid, 2);
        let csv = results_to_csv(&results);
        assert_eq!(csv.lines().count(), results.len() + 1);
        // Window axis alternates [unbounded, 4]: first data row unbounded,
        // second bounded.
        assert!(csv.lines().nth(1).unwrap().contains("unbounded"));
        assert!(!csv.lines().nth(2).unwrap().contains("unbounded"));
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn awkward_axis_labels_are_csv_quoted() {
        // Every delimiter-ish character triggers RFC 4180 quoting, and
        // embedded quotes are doubled.
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_field("carriage\rreturn"), "\"carriage\rreturn\"");
        assert_eq!(
            csv_field("all,of\"the\r\nabove"),
            "\"all,of\"\"the\r\nabove\""
        );

        // End to end: a workload label containing the full zoo of CSV
        // metacharacters must not change the row count or bleed into
        // neighbouring columns.
        let grid = SweepGrid::new()
            .with_workloads(vec![WorkloadSpec::new("evil,\"label\"\nx", move || {
                TaskStream::new(
                    "evil",
                    2,
                    (0..2).map(|_| {
                        TaskSpec::new(
                            "t",
                            Cycle::new(100_000),
                            vec![DependenceSpec::inout(0x1000, 64)],
                        )
                    }),
                )
            })])
            .with_backends(vec![BackendSpec::labelled(
                "geom,512",
                Backend::tdm_default(),
            )])
            .with_core_counts(vec![2]);
        let results = run_sweep(&grid, 1);
        let csv = results_to_csv(&results);
        // The embedded newline is inside quotes; a naive line count would
        // see an extra record, so split on the *unquoted* record boundary:
        // the header plus one data row means exactly two trailing-newline
        // separated records when quotes are respected.
        let data = csv.strip_prefix(
            "workload,backend,scheduler,window,cores,seed,tasks,makespan_cycles,\
             dmu_accesses,dmu_stalls,peak_resident_tasks,faults_injected,retries,\
             retired_cores,wall_ms\n",
        );
        let row = data.expect("header must be unquoted and exact");
        assert!(row.starts_with("\"evil,\"\"label\"\"\nx\",\"geom,512\","));
        // JSON side: the same labels must escape and round-trip.
        let text = results_to_json(&results);
        let value = json::parse(&text).expect("sweep JSON with awkward labels must parse");
        let obj = value.as_object("top").unwrap();
        let rows = json::field(obj, "results")
            .unwrap()
            .as_array("results")
            .unwrap();
        let first = rows[0].as_object("results[0]").unwrap();
        assert_eq!(
            json::field(first, "workload")
                .unwrap()
                .as_str("workload")
                .unwrap(),
            "evil,\"label\"\nx"
        );
        assert_eq!(
            json::field(first, "backend")
                .unwrap()
                .as_str("backend")
                .unwrap(),
            "geom,512"
        );
    }

    #[test]
    #[should_panic(expected = "wall_ms: cannot serialise non-finite value")]
    fn non_finite_wall_is_rejected_by_the_sweep_json_writer() {
        let grid = SweepGrid::new()
            .with_workloads(vec![tiny(1, 2)])
            .with_backends(vec![BackendSpec::from(Backend::Software)]);
        let mut results = run_sweep(&grid, 1);
        results[0].wall_ms = f64::NAN;
        let _ = results_to_json(&results);
    }

    #[test]
    fn thread_count_is_clamped_not_trusted() {
        let grid = SweepGrid::new()
            .with_workloads(vec![tiny(1, 3)])
            .with_backends(vec![BackendSpec::from(Backend::Software)]);
        assert_eq!(grid.len(), 1);
        // More threads than points, and zero threads, both still work.
        assert_eq!(run_sweep(&grid, 64).len(), 1);
        assert_eq!(run_sweep(&grid, 0).len(), 1);
    }
}
