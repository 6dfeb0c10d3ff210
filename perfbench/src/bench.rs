//! One benchmark run: the untraced run that yields the end-to-end metrics,
//! or the traced run that yields the per-layer ones.

use std::hint::black_box;

use tdm_runtime::exec::{resume_stream_outcome, simulate, ExecConfig, RunOutcome, RunReport};
use tdm_runtime::stream::TaskSource;
use tdm_runtime::task::TaskSpec;
use tdm_sim::snapshot::Snapshot;
use tdm_workloads::TaskStream;

use crate::check::{Expectations, Fingerprint};
use crate::clock::{clock_read_seconds, peak_rss_mb, timed, Stopwatch};
use crate::replay::{replay_fastest, LayerTotals, Recording};
use crate::workload::{
    run_stream, table2_cells, table2_config, Cell, CheckpointLog, StreamSpec, Table2Inputs,
    WorkloadKind, STREAM_TASKS,
};

/// Timed passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 2;
/// Tasks per timed segment of a streaming pass.
const SEGMENT_TASKS: usize = 50_000;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run: operations attempted and failed, the reasons for
/// failures, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated regions run (each resume check counts as one).
    pub attempted: u64,
    /// Regions that failed at least one check.
    pub failed: u64,
    /// Every failed check, in order.
    pub problems: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The host seconds of a pass run with the least interference from the
/// rest of the host: each part's (segment's or cell's) fastest time over
/// `passes`, summed. Every pass has the same parts.
fn fastest_pass(passes: &[Vec<f64>]) -> f64 {
    (0..passes[0].len())
        .map(|part| passes.iter().map(|p| p[part]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Runs workload `kind` on `seed` with timed passes for `seconds`:
/// untraced for the end-to-end metrics, or traced for the per-layer ones
/// (the passes are then the untraced reference the layers are compared
/// with). A traced run whose replay fails its self-checks returns the
/// error instead of numbers.
pub fn run(kind: WorkloadKind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let expect = Expectations::for_seed(seed)?;
    match kind.stream_spec(seed, STREAM_TASKS) {
        Some(spec) => run_stream_spec(&spec, &expect, seconds, traced),
        None if traced => table2_traced(seed, &expect, seconds),
        None => Ok(table2_untraced(seed, &expect, seconds)),
    }
}

/// Runs one streaming region like [`run`], checked against `expect`.
pub fn run_stream_spec(
    spec: &StreamSpec,
    expect: &Expectations,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    if traced {
        stream_traced(spec, expect, seconds)
    } else {
        Ok(stream_untraced(spec, expect, seconds))
    }
}

/// The fingerprints `fingerprints.txt` pins: both streams and every Table
/// II cell that `BENCH_baseline.json` does not cover, on `seed`.
pub fn fingerprints(seed: u64) -> Vec<(String, Fingerprint)> {
    let mut out = Vec::new();
    for kind in WorkloadKind::ALL {
        if let Some(spec) = kind.stream_spec(seed, STREAM_TASKS) {
            let pass = run_stream(&spec, &spec.config, &mut spec.stream(), None);
            out.push((spec.label.to_string(), Fingerprint::of(&pass.report)));
        }
    }
    let inputs = Table2Inputs::build();
    let config = table2_config(seed);
    for cell in table2_cells().iter().filter(|c| !c.in_baseline()) {
        let report = simulate(
            cell.workload(&inputs),
            &cell.backend,
            cell.scheduler,
            &config,
        );
        out.push((cell.label(), Fingerprint::of(&report)));
    }
    out
}

// ---------------------------------------------------------------------------
// Streaming workloads
// ---------------------------------------------------------------------------

/// Builds a fresh stream and counts the tasks it produces: the reference
/// the every-task-executed check compares against.
fn count_produced(spec: &StreamSpec) -> usize {
    let mut stream = spec.stream();
    let mut produced = 0;
    while let Some(task) = stream.next_task() {
        black_box(&task);
        produced += 1;
    }
    produced
}

/// Feeds a stream to the driver and notes the host time whenever another
/// [`SEGMENT_TASKS`] tasks have been pulled, splitting a pass into segments
/// of equal task counts. Every other call is forwarded untouched.
struct SegmentClock<'a> {
    stream: &'a mut TaskStream,
    watch: Stopwatch,
    pulled: usize,
    marks: Vec<f64>,
}

impl<'a> SegmentClock<'a> {
    fn start(stream: &'a mut TaskStream) -> Self {
        SegmentClock {
            stream,
            watch: Stopwatch::start(),
            pulled: 0,
            marks: Vec::new(),
        }
    }

    /// Ends the pass: the seconds of each segment, the last one running
    /// from the last mark to now.
    fn segments(mut self) -> Vec<f64> {
        self.marks.push(self.watch.seconds());
        let mut previous = 0.0;
        self.marks
            .into_iter()
            .map(|mark| {
                let segment = mark - previous;
                previous = mark;
                segment
            })
            .collect()
    }
}

impl TaskSource for SegmentClock<'_> {
    fn name(&self) -> &str {
        self.stream.name()
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let task = self.stream.next_task();
        if task.is_some() {
            self.pulled += 1;
            if self.pulled.is_multiple_of(SEGMENT_TASKS) {
                self.marks.push(self.watch.seconds());
            }
        }
        task
    }

    fn len_hint(&self) -> Option<usize> {
        self.stream.len_hint()
    }

    fn locality_benefit(&self) -> f64 {
        self.stream.locality_benefit()
    }

    fn duration_jitter(&self) -> f64 {
        self.stream.duration_jitter()
    }

    fn checkpoint_cursor(&self) -> Option<u64> {
        self.stream.checkpoint_cursor()
    }

    fn resume_at(&mut self, cursor: u64) {
        self.stream.resume_at(cursor);
    }
}

/// Host timings of the untraced passes of a stream workload.
struct StreamTiming {
    /// Per pass: seconds to build the pass's inputs.
    setups: Vec<f64>,
    /// Per pass: seconds of each segment of the timed region.
    segments: Vec<Vec<f64>>,
    /// Last pass's report (the straight-through reference for resume).
    report: RunReport,
    /// Last pass's checkpoint log; `kept` is the middle snapshot.
    checkpoints: CheckpointLog,
}

/// Runs set-up plus one untraced pass, checking the pass, until `seconds`
/// have passed and at least [`MIN_PASSES`] ran. From the second pass on,
/// the sink keeps the middle snapshot, numbered from the first pass's
/// count.
fn time_stream(
    spec: &StreamSpec,
    expect: &Expectations,
    seconds: f64,
    outcome: &mut Outcome,
) -> StreamTiming {
    let watch = Stopwatch::start();
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut keep = None;
    let mut first: Option<Fingerprint> = None;
    let mut kept = None;
    loop {
        let ((produced, mut stream), setup_s) = timed(|| (count_produced(spec), spec.stream()));
        let mut clock = SegmentClock::start(&mut stream);
        let mut pass = run_stream(spec, &spec.config, &mut clock, keep);
        segments.push(clock.segments());
        setups.push(setup_s);
        let mut problems = expect.check_stream(spec, produced, &pass.report, pass.aborted);
        let fingerprint = Fingerprint::of(&pass.report);
        match first {
            None => first = Some(fingerprint),
            Some(f) if f != fingerprint => problems.push(format!(
                "{}: fingerprint {} differs from the first pass's {}",
                spec.label,
                fingerprint.line(""),
                f.line("")
            )),
            Some(_) => {}
        }
        outcome.record(problems);
        if let Some(bytes) = pass.checkpoints.kept.take() {
            kept = Some(bytes);
        }
        keep = Some(pass.checkpoints.count / 2);
        if segments.len() >= MIN_PASSES && watch.seconds() >= seconds {
            pass.checkpoints.kept = kept;
            return StreamTiming {
                setups,
                segments,
                report: pass.report,
                checkpoints: pass.checkpoints,
            };
        }
    }
}

/// Host seconds of decoding the middle snapshot and resuming from it.
struct ResumeTiming {
    decode_s: f64,
    resume_s: f64,
}

/// Resumes the region from the kept snapshot and checks the result is
/// bit-identical to the straight-through report. Counts as one operation.
fn resume_check(
    spec: &StreamSpec,
    timing: &StreamTiming,
    outcome: &mut Outcome,
) -> Option<ResumeTiming> {
    let Some(bytes) = &timing.checkpoints.kept else {
        outcome.record(vec![format!(
            "{}: no snapshot to resume from ({} checkpoints per pass)",
            spec.label, timing.checkpoints.count
        )]);
        return None;
    };
    let (snapshot, decode_s) = timed(|| Snapshot::from_bytes(bytes));
    let snapshot = match snapshot {
        Ok(s) => s,
        Err(e) => {
            outcome.record(vec![format!("{}: snapshot decode failed: {e}", spec.label)]);
            return None;
        }
    };
    let mut stream = spec.stream();
    let (resumed, resume_s) = timed(|| resume_stream_outcome(&mut stream, &snapshot, &spec.config));
    let problem = match resumed {
        Err(e) => Some(format!("{}: resume failed: {e}", spec.label)),
        Ok(RunOutcome::Completed(report)) if report == timing.report => None,
        Ok(other) => Some(format!(
            "{}: resumed run (makespan {}, {} tasks) is not bit-identical to the \
             straight-through run (makespan {}, {} tasks)",
            spec.label,
            other.report().makespan(),
            other.report().tasks,
            timing.report.makespan(),
            timing.report.tasks
        )),
    };
    outcome.record(problem.into_iter().collect());
    Some(ResumeTiming { decode_s, resume_s })
}

fn stream_untraced(spec: &StreamSpec, expect: &Expectations, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let timing = time_stream(spec, expect, seconds, &mut outcome);
    let rss = peak_rss_mb();
    if spec.config.checkpoint_every.is_some() {
        resume_check(spec, &timing, &mut outcome);
    }
    let tasks = timing.report.tasks as f64;
    outcome.metric("tasks_per_s", tasks / fastest_pass(&timing.segments), "1/s");
    outcome.metric("setup_s", median(&timing.setups), "s");
    push_rss(&mut outcome, rss);
    outcome
}

fn push_rss(outcome: &mut Outcome, rss: Option<f64>) {
    match rss {
        Some(mb) => outcome.metric("peak_rss_mb", mb, "MB"),
        None => {
            outcome
                .problems
                .push("peak RSS unavailable: no /proc/self/status".to_string());
            outcome.metric("peak_rss_mb", 0.0, "MB");
        }
    }
}

fn stream_traced(
    spec: &StreamSpec,
    expect: &Expectations,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let clock_read_s = clock_read_seconds();
    let (specs, gen_s) = timed(|| {
        let mut stream = spec.stream();
        let mut specs: Vec<TaskSpec> = Vec::with_capacity(stream.len());
        while let Some(task) = stream.next_task() {
            specs.push(task);
        }
        specs
    });
    let timing = time_stream(spec, expect, seconds, &mut outcome);

    let config = spec.config.clone().with_trace_schedule();
    let mut stream = spec.stream();
    let (traced, traced_wall) = timed(|| run_stream(spec, &config, &mut stream, None));
    outcome.record(expect.check_stream(spec, specs.len(), &traced.report, traced.aborted));
    let layers = replay_fastest(
        &Recording {
            specs: &specs,
            report: &traced.report,
            backend: &spec.backend,
            scheduler: spec.scheduler,
            config: &config,
        },
        clock_read_s,
    )?;
    let resume = if spec.config.checkpoint_every.is_some() {
        resume_check(spec, &timing, &mut outcome)
    } else {
        None
    };

    let tasks = layers.tasks as f64;
    let untraced_wall = fastest_pass(&timing.segments);
    let checkpoints = &timing.checkpoints;
    let attributed_s = gen_s + layers.driver_seconds() + checkpoints.encode_s;
    push_layers(&mut outcome, &layers, gen_s, &[&traced.report]);
    push_checkpoints(&mut outcome, checkpoints, resume.as_ref());
    outcome.metric(
        "exec.unattributed_ns_per_task",
        (untraced_wall - attributed_s) / tasks * 1e9,
        "ns",
    );
    outcome.metric(
        "exec.peak_resident_tasks",
        traced.report.peak_resident_tasks as f64,
        "count",
    );
    outcome.metric(
        "trace.overhead_fraction",
        traced_wall / untraced_wall - 1.0,
        "fraction",
    );
    Ok(outcome)
}

fn push_checkpoints(outcome: &mut Outcome, log: &CheckpointLog, resume: Option<&ResumeTiming>) {
    let count = log.count as f64;
    let per = |total: f64| if log.count == 0 { 0.0 } else { total / count };
    outcome.metric("checkpoint.count", count, "count");
    outcome.metric("checkpoint.bytes", per(log.bytes as f64), "bytes");
    outcome.metric("checkpoint.encode_us", per(log.encode_s) * 1e6, "us");
    outcome.metric(
        "checkpoint.decode_us",
        resume.map_or(0.0, |r| r.decode_s * 1e6),
        "us",
    );
    outcome.metric(
        "checkpoint.resume_s",
        resume.map_or(0.0, |r| r.resume_s),
        "s",
    );
}

/// The per-layer metrics every workload shares, normalised by the tasks
/// replayed; DMU counters come from the traced runs' reports.
fn push_layers(outcome: &mut Outcome, layers: &LayerTotals, gen_s: f64, reports: &[&RunReport]) {
    let tasks = layers.tasks as f64;
    let ns = |seconds: f64| seconds / tasks * 1e9;
    let (accesses, stall_cycles) = reports
        .iter()
        .filter_map(|r| r.hardware.as_ref())
        .fold((0u64, 0u64), |(a, s), hw| {
            (a + hw.stats.total_accesses, s + hw.stall_cycles.raw())
        });
    let faults: u64 = reports.iter().map(|r| r.faults_injected).sum();
    let probed = layers.hit_bytes + layers.miss_bytes;

    outcome.metric("workloads.gen_ns_per_task", ns(gen_s), "ns");
    outcome.metric("task.sets_ns_per_task", ns(layers.sets_s), "ns");
    outcome.metric("engine.create_ns_per_task", ns(layers.create_s), "ns");
    outcome.metric("engine.finish_ns_per_task", ns(layers.finish_s), "ns");
    outcome.metric("dmu.accesses_per_task", accesses as f64 / tasks, "count");
    outcome.metric("dmu.stall_cycles", stall_cycles as f64, "cycles");
    outcome.metric("scheduler.ns_per_task", ns(layers.sched_s), "ns");
    outcome.metric(
        "scheduler.peak_pool_depth",
        layers.pool_peak as f64,
        "count",
    );
    outcome.metric("locality.probe_ns_per_task", ns(layers.probe_s), "ns");
    outcome.metric("locality.record_ns_per_task", ns(layers.record_s), "ns");
    outcome.metric(
        "locality.hit_fraction",
        if probed == 0 {
            1.0
        } else {
            layers.hit_bytes as f64 / probed as f64
        },
        "fraction",
    );
    outcome.metric(
        "locality.blocks_per_task",
        layers.blocks as f64 / tasks,
        "count",
    );
    outcome.metric(
        "wheel.ns_per_event",
        layers.wheel_s / layers.wheel_events.max(1) as f64 * 1e9,
        "ns",
    );
    outcome.metric(
        "wheel.events_per_task",
        layers.wheel_events as f64 / tasks,
        "count",
    );
    outcome.metric("fault.draw_ns_per_task", ns(layers.fault_s), "ns");
    outcome.metric("fault.faults_injected", faults as f64, "count");
    outcome.metric(
        "fault.useful_fraction",
        tasks / (tasks + faults as f64),
        "fraction",
    );
}

// ---------------------------------------------------------------------------
// Table II matrix
// ---------------------------------------------------------------------------

/// Simulates every cell once with `config`; returns the reports and each
/// cell's host seconds.
fn table2_pass(
    cells: &[Cell],
    inputs: &Table2Inputs,
    config: &ExecConfig,
) -> (Vec<RunReport>, Vec<f64>) {
    cells
        .iter()
        .map(|c| timed(|| simulate(c.workload(inputs), &c.backend, c.scheduler, config)))
        .unzip()
}

/// Checks one pass's reports, cell by cell, and against the first pass.
fn check_table2(
    cells: &[Cell],
    inputs: &Table2Inputs,
    reports: &[RunReport],
    expect: &Expectations,
    first: &mut Vec<Fingerprint>,
    outcome: &mut Outcome,
) {
    let fingerprints: Vec<Fingerprint> = reports.iter().map(Fingerprint::of).collect();
    for (i, (cell, report)) in cells.iter().zip(reports).enumerate() {
        let mut problems = expect.check_cell(cell, cell.workload(inputs).len(), report);
        if let Some(f) = first.get(i) {
            if *f != fingerprints[i] {
                problems.push(format!("{}: differs from the first pass", cell.label()));
            }
        }
        outcome.record(problems);
    }
    if first.is_empty() {
        *first = fingerprints;
    }
}

/// Host timings of the untraced passes over the matrix.
struct Table2Timing {
    /// Per pass: seconds to materialise the 18 workloads.
    setups: Vec<f64>,
    /// Per pass: seconds to simulate each of the 108 cells.
    cells: Vec<Vec<f64>>,
    /// Tasks one pass simulates.
    tasks: u64,
    /// The last pass's inputs.
    inputs: Table2Inputs,
}

/// Materialises the inputs and runs one untraced pass over the matrix,
/// checking it, until `seconds` have passed and at least [`MIN_PASSES`] ran.
fn time_table2(
    cells: &[Cell],
    config: &ExecConfig,
    expect: &Expectations,
    seconds: f64,
    outcome: &mut Outcome,
) -> Table2Timing {
    let watch = Stopwatch::start();
    let mut setups = Vec::new();
    let mut cell_seconds = Vec::new();
    let mut first = Vec::new();
    loop {
        let (inputs, setup_s) = timed(Table2Inputs::build);
        let (reports, seconds_per_cell) = table2_pass(cells, &inputs, config);
        check_table2(cells, &inputs, &reports, expect, &mut first, outcome);
        setups.push(setup_s);
        cell_seconds.push(seconds_per_cell);
        if cell_seconds.len() >= MIN_PASSES && watch.seconds() >= seconds {
            return Table2Timing {
                setups,
                cells: cell_seconds,
                tasks: reports.iter().map(|r| r.tasks).sum(),
                inputs,
            };
        }
    }
}

fn table2_untraced(seed: u64, expect: &Expectations, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let timing = time_table2(
        &table2_cells(),
        &table2_config(seed),
        expect,
        seconds,
        &mut outcome,
    );
    let rss = peak_rss_mb();
    let tasks = timing.tasks as f64;
    outcome.metric("tasks_per_s", tasks / fastest_pass(&timing.cells), "1/s");
    outcome.metric("setup_s", median(&timing.setups), "s");
    push_rss(&mut outcome, rss);
    outcome
}

fn table2_traced(seed: u64, expect: &Expectations, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let clock_read_s = clock_read_seconds();
    let cells = table2_cells();
    let config = table2_config(seed);
    let timing = time_table2(&cells, &config, expect, seconds, &mut outcome);
    let inputs = &timing.inputs;

    let traced = config.clone().with_trace_schedule();
    let (reports, traced_cells) = table2_pass(&cells, inputs, &traced);
    let traced_wall: f64 = traced_cells.iter().sum();
    check_table2(
        &cells,
        inputs,
        &reports,
        expect,
        &mut Vec::new(),
        &mut outcome,
    );
    let mut layers = LayerTotals::default();
    for (cell, report) in cells.iter().zip(&reports) {
        let totals = replay_fastest(
            &Recording {
                specs: &cell.workload(inputs).tasks,
                report,
                backend: &cell.backend,
                scheduler: cell.scheduler,
                config: &traced,
            },
            clock_read_s,
        )
        .map_err(|e| format!("{}: {e}", cell.label()))?;
        layers.add(&totals);
    }

    let untraced_wall = fastest_pass(&timing.cells);
    let gen_s = timing.setups.last().copied().unwrap_or_default();
    let report_refs: Vec<&RunReport> = reports.iter().collect();
    push_layers(&mut outcome, &layers, gen_s, &report_refs);
    push_checkpoints(&mut outcome, &CheckpointLog::default(), None);
    // The matrix is materialised before timing starts, so generation is
    // set-up here and not part of the driver's wall.
    outcome.metric(
        "exec.unattributed_ns_per_task",
        (untraced_wall - layers.driver_seconds()) / timing.tasks as f64 * 1e9,
        "ns",
    );
    outcome.metric(
        "exec.peak_resident_tasks",
        reports
            .iter()
            .map(|r| r.peak_resident_tasks)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    outcome.metric(
        "trace.overhead_fraction",
        traced_wall / untraced_wall - 1.0,
        "fraction",
    );
    Ok(outcome)
}
