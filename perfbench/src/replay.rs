//! Per-layer host time, measured by replaying one recorded run through each
//! layer's public API.
//!
//! A traced run records its executed schedule (`ExecConfig::trace_schedule`):
//! which task finished, on which core, at which cycle. Each pass below
//! rebuilds one layer from scratch and re-drives it from that log, timed
//! from outside as a whole pass, never per call: many calls take under
//! 100 ns, where clock reads would dominate. Where one pass interleaves two
//! kinds of call (engine creations and finishes, locality probes and
//! records), one clock read per switch splits it. The driver itself is not
//! touched, so what the passes leave out — its own bookkeeping, the feed's
//! spec map, checkpoint capture — shows up as the difference between the
//! untraced wall time and the sum of the passes.
//!
//! Limits: each pass runs alone, with colder caches than the interleaved
//! real run; tasks are probed and recorded in finish order rather than
//! start order; and creations happen lazily, just ahead of the finish that
//! needs them, so the engine holds fewer tasks in flight than the real run.

use std::hint::black_box;

use tdm_runtime::engine::{
    DependenceEngine, HardwareEngine, HardwareFlavor, ReadyInfo, SoftwareEngine,
};
use tdm_runtime::exec::{Backend, ExecConfig, RunReport, ScheduledTask};
use tdm_runtime::fault::FaultPlan;
use tdm_runtime::scheduler::{ReadyEntry, SchedulerKind};
use tdm_runtime::task::{TaskRef, TaskSpec};
use tdm_sim::cache::{BlockAddr, LocalityModel};
use tdm_sim::event::TimingWheel;
use tdm_sim::noc::NocModel;

use crate::clock::{timed, SplitTimer};

/// Replays per recorded region; each pass reports its fastest.
pub const REPLAY_REPS: usize = 3;
/// The driver's master core.
const MASTER: usize = 0;
/// Timing-wheel payload standing for a retry dispatch.
const RETRY_EVENT: usize = usize::MAX;
/// [`SplitTimer`] sides of the engine pass.
const CREATE: usize = 0;
const FINISH: usize = 1;
/// [`SplitTimer`] sides of the locality pass.
const PROBE: usize = 0;
const RECORD: usize = 1;

/// One recorded region, ready to replay.
#[derive(Debug, Clone, Copy)]
pub struct Recording<'a> {
    /// Every task's spec, indexed by task.
    pub specs: &'a [TaskSpec],
    /// The traced run's report; its schedule drives the replay.
    pub report: &'a RunReport,
    /// Backend the run used.
    pub backend: &'a Backend,
    /// Scheduling policy the run was asked for.
    pub scheduler: SchedulerKind,
    /// The run's configuration.
    pub config: &'a ExecConfig,
}

/// Host seconds and work counts of the layer passes, summed over regions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Tasks replayed.
    pub tasks: u64,
    /// `TaskSpec::working_set`/`read_set`/`write_set`.
    pub sets_s: f64,
    /// Engine `create_task`.
    pub create_s: f64,
    /// Engine `finish_batch`.
    pub finish_s: f64,
    /// Scheduler `push`/`pop`.
    pub sched_s: f64,
    /// Highest ready-pool depth during the scheduler pass.
    pub pool_peak: usize,
    /// `LocalityModel::probe`, with filling the task's set buffers.
    pub probe_s: f64,
    /// `LocalityModel::record_reads`/`record_writes`.
    pub record_s: f64,
    /// Working-set bytes resident on the probing core.
    pub hit_bytes: u64,
    /// Working-set bytes not resident.
    pub miss_bytes: u64,
    /// Blocks handed to the locality model (probe plus records).
    pub blocks: u64,
    /// `TimingWheel::schedule`/`pop_batch`.
    pub wheel_s: f64,
    /// Events scheduled on the wheel.
    pub wheel_events: u64,
    /// `FaultPlan::should_fail`/`should_retire`.
    pub fault_s: f64,
    /// Failures the fault plan decided.
    pub faults: u64,
}

impl LayerTotals {
    /// Adds another region's totals.
    pub fn add(&mut self, other: &LayerTotals) {
        self.tasks += other.tasks;
        self.sets_s += other.sets_s;
        self.create_s += other.create_s;
        self.finish_s += other.finish_s;
        self.sched_s += other.sched_s;
        self.pool_peak = self.pool_peak.max(other.pool_peak);
        self.probe_s += other.probe_s;
        self.record_s += other.record_s;
        self.hit_bytes += other.hit_bytes;
        self.miss_bytes += other.miss_bytes;
        self.blocks += other.blocks;
        self.wheel_s += other.wheel_s;
        self.wheel_events += other.wheel_events;
        self.fault_s += other.fault_s;
        self.faults += other.faults;
    }

    /// Keeps, for every pass, the faster of this and `other`'s time.
    fn keep_fastest(&mut self, other: &LayerTotals) {
        for (mine, theirs) in [
            (&mut self.sets_s, other.sets_s),
            (&mut self.create_s, other.create_s),
            (&mut self.finish_s, other.finish_s),
            (&mut self.sched_s, other.sched_s),
            (&mut self.probe_s, other.probe_s),
            (&mut self.record_s, other.record_s),
            (&mut self.wheel_s, other.wheel_s),
            (&mut self.fault_s, other.fault_s),
        ] {
            *mine = mine.min(theirs);
        }
    }

    /// Seconds of every pass that runs inside the driver's timed loop.
    pub fn driver_seconds(&self) -> f64 {
        self.sets_s
            + self.create_s
            + self.finish_s
            + self.sched_s
            + self.probe_s
            + self.record_s
            + self.wheel_s
            + self.fault_s
    }
}

/// Replays `rec` [`REPLAY_REPS`] times and keeps each pass's fastest time:
/// each pass is short, so one slow moment on a shared host
/// would otherwise decide a layer's number.
pub fn replay_fastest(rec: &Recording<'_>, clock_read_s: f64) -> Result<LayerTotals, String> {
    let mut best = replay(rec, clock_read_s)?;
    for _ in 1..REPLAY_REPS {
        best.keep_fastest(&replay(rec, clock_read_s)?);
    }
    Ok(best)
}

/// Replays `rec` through every layer. `clock_read_s` is the cost of one
/// clock read, taken out of the split passes' per-switch reads.
///
/// Fails — and reports no numbers — if the schedule does not finish every
/// task exactly once, if the engine stalls or readies a task other than
/// exactly once, if the scheduler pass pops fewer than `tasks` entries, or
/// if the fault plan disagrees with the run's fault count.
pub fn replay(rec: &Recording<'_>, clock_read_s: f64) -> Result<LayerTotals, String> {
    let schedule = &rec.report.schedule;
    check_schedule(schedule, rec.specs.len())?;
    let mut totals = LayerTotals {
        tasks: schedule.len() as u64,
        ..LayerTotals::default()
    };

    totals.sets_s = sets_pass(rec.specs, schedule);

    let log = engine_pass(rec, clock_read_s, &mut totals)?;

    let pool = if rec.backend.hardware_scheduling() {
        SchedulerKind::Fifo
    } else {
        rec.scheduler
    };
    let (popped, sched_s) = scheduler_pass(pool, &log, schedule);
    if popped != schedule.len() {
        return Err(format!(
            "scheduler replay popped {popped} of {} tasks",
            schedule.len()
        ));
    }
    totals.sched_s = sched_s;
    totals.pool_peak = log.peak_depth();

    locality_pass(rec, clock_read_s, &mut totals);

    let failures = fault_pass(rec, &mut totals);
    if totals.faults != rec.report.faults_injected {
        return Err(format!(
            "fault replay decided {} failures, the run injected {}",
            totals.faults, rec.report.faults_injected
        ));
    }

    let (events, wheel_s) = wheel_pass(rec, &failures);
    totals.wheel_events = events;
    totals.wheel_s = wheel_s;
    Ok(totals)
}

/// The schedule must finish each of the `tasks` tasks exactly once.
fn check_schedule(schedule: &[ScheduledTask], tasks: usize) -> Result<(), String> {
    let mut seen = vec![false; tasks];
    for entry in schedule {
        let index = entry.task.index();
        match seen.get_mut(index) {
            None => {
                return Err(format!(
                    "schedule names {}, past the {tasks} tasks",
                    entry.task
                ))
            }
            Some(true) => return Err(format!("schedule finishes {} twice", entry.task)),
            Some(flag) => *flag = true,
        }
    }
    if schedule.len() != tasks {
        return Err(format!(
            "schedule finishes {} of {tasks} tasks",
            schedule.len()
        ));
    }
    Ok(())
}

fn sets_pass(specs: &[TaskSpec], schedule: &[ScheduledTask]) -> f64 {
    let ((), seconds) = timed(|| {
        for entry in schedule {
            let spec = &specs[entry.task.index()];
            black_box(spec.working_set());
            black_box(spec.read_set());
            black_box(spec.write_set());
        }
    });
    seconds
}

/// The ready entries the engine pass produced, in push order, plus where
/// each recorded finish's pop falls among them.
#[derive(Debug, Default)]
struct ReadyLog {
    entries: Vec<ReadyEntry>,
    /// `marks[k]`: entries pushed before the pop of schedule entry `k`.
    marks: Vec<usize>,
}

impl ReadyLog {
    #[inline]
    fn push(&mut self, ready: &[ReadyInfo], at: tdm_sim::clock::Cycle, producer: Option<usize>) {
        self.entries.extend(ready.iter().map(|info| ReadyEntry {
            task: info.task,
            num_successors: info.num_successors,
            creation_seq: info.task.index(),
            ready_at: at,
            producer_core: producer,
        }));
    }

    /// Highest pool depth: entries pushed minus pops made, at each pop.
    fn peak_depth(&self) -> usize {
        self.marks
            .iter()
            .enumerate()
            .map(|(pops, &pushed)| pushed - pops)
            .max()
            .unwrap_or(0)
    }
}

fn build_engine(backend: &Backend, config: &ExecConfig) -> Box<dyn DependenceEngine> {
    let cost = config.cost.clone();
    let noc = NocModel::from_chip(&config.chip).average_round_trip();
    match backend {
        Backend::Software => Box::new(SoftwareEngine::new(cost)),
        Backend::Carbon => Box::new(SoftwareEngine::with_name("carbon", cost)),
        Backend::Tdm(dmu) => Box::new(HardwareEngine::new(
            HardwareFlavor::Tdm,
            dmu.clone(),
            cost,
            noc,
        )),
        Backend::TaskSuperscalar(dmu) => Box::new(HardwareEngine::new(
            HardwareFlavor::TaskSuperscalar,
            dmu.clone(),
            cost,
            noc,
        )),
    }
}

/// Creates and finishes every task in recorded finish order, creating each
/// task lazily just ahead of the first finish that needs it.
fn engine_pass(
    rec: &Recording<'_>,
    clock_read_s: f64,
    totals: &mut LayerTotals,
) -> Result<ReadyLog, String> {
    let schedule = &rec.report.schedule;
    let mut engine = build_engine(rec.backend, rec.config);
    let mut log = ReadyLog {
        entries: Vec::with_capacity(schedule.len()),
        marks: Vec::with_capacity(schedule.len()),
    };
    let mut ready: Vec<ReadyInfo> = Vec::new();
    let mut costs = Vec::new();
    let mut spans = Vec::new();
    let mut created = 0usize;
    let mut stalled = None;

    let mut timer = SplitTimer::start(FINISH);
    'replay: for entry in schedule {
        if entry.task.index() >= created {
            timer.switch(CREATE);
            while created <= entry.task.index() {
                ready.clear();
                let task = TaskRef(created);
                let outcome =
                    engine.create_task(entry.finish, task, &rec.specs[created], &mut ready);
                if !outcome.completed {
                    stalled = Some(task);
                    break 'replay;
                }
                log.push(&ready, entry.finish, None);
                created += 1;
            }
            timer.switch(FINISH);
        }
        log.marks.push(log.entries.len());
        ready.clear();
        costs.clear();
        spans.clear();
        engine.finish_batch(
            entry.finish,
            &[(entry.task, entry.core)],
            &mut costs,
            &mut ready,
            &mut spans,
        );
        log.push(&ready, entry.finish, Some(entry.core));
    }
    [totals.create_s, totals.finish_s] = timer.finish(clock_read_s);

    if let Some(task) = stalled {
        return Err(format!(
            "engine replay stalled creating {task} with no finish left to free the DMU"
        ));
    }
    check_readied(&log.entries, rec.specs.len())?;
    Ok(log)
}

/// Every one of `tasks` tasks must be readied exactly once.
fn check_readied(entries: &[ReadyEntry], tasks: usize) -> Result<(), String> {
    let mut readied = vec![0u32; tasks];
    for entry in entries {
        readied[entry.task.index()] += 1;
    }
    match readied.iter().position(|&n| n != 1) {
        None => Ok(()),
        Some(task) => Err(format!(
            "engine replay readied task#{task} {} times",
            readied[task]
        )),
    }
}

/// Pushes the engine pass's ready entries and pops once per recorded finish
/// on the recorded core; returns the pops that found a task.
fn scheduler_pass(kind: SchedulerKind, log: &ReadyLog, schedule: &[ScheduledTask]) -> (usize, f64) {
    let mut pool = kind.build();
    timed(|| {
        let mut pushed = 0;
        let mut popped = 0;
        for (entry, &mark) in schedule.iter().zip(&log.marks) {
            for ready in &log.entries[pushed..mark] {
                pool.push(*ready);
            }
            pushed = mark;
            popped += usize::from(pool.pop(entry.core).is_some());
        }
        popped
    })
}

/// Fills a task's working, read and write sets into reused buffers, so the
/// locality pass times the model rather than allocation.
fn fill_sets(
    spec: &TaskSpec,
    working: &mut Vec<(BlockAddr, u64)>,
    reads: &mut Vec<(BlockAddr, u64)>,
    writes: &mut Vec<(BlockAddr, u64)>,
) {
    working.clear();
    reads.clear();
    writes.clear();
    for dep in &spec.deps {
        working.push((dep.addr, dep.size));
        if dep.direction.reads() {
            reads.push((dep.addr, dep.size));
        }
        if dep.direction.writes() {
            writes.push((dep.addr, dep.size));
        }
    }
}

/// Probes and records every task on its recorded core, charging the two
/// kinds of call separately with one clock read per switch (the set
/// buffers are filled on the probe side).
fn locality_pass(rec: &Recording<'_>, clock_read_s: f64, totals: &mut LayerTotals) {
    let mut model = LocalityModel::new(
        rec.config.chip.num_cores,
        rec.config.locality_capacity_bytes.max(1),
    );
    let mut working = Vec::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut timer = SplitTimer::start(PROBE);
    for entry in &rec.report.schedule {
        timer.switch(PROBE);
        fill_sets(
            &rec.specs[entry.task.index()],
            &mut working,
            &mut reads,
            &mut writes,
        );
        let outcome = model.probe(entry.core, &working);
        totals.hit_bytes += outcome.hit_bytes;
        totals.miss_bytes += outcome.miss_bytes;
        totals.blocks += (working.len() + reads.len() + writes.len()) as u64;
        timer.switch(RECORD);
        model.record_reads(entry.core, &reads);
        model.record_writes(entry.core, &writes);
    }
    [totals.probe_s, totals.record_s] = timer.finish(clock_read_s);
}

/// Draws every completion boundary's failure and retirement decisions, in
/// finish order on the recorded cores; returns each task's failure count.
fn fault_pass(rec: &Recording<'_>, totals: &mut LayerTotals) -> Vec<u32> {
    let schedule = &rec.report.schedule;
    let mut failures = vec![0u32; rec.specs.len()];
    let Some(config) = &rec.config.fault else {
        return failures;
    };
    let plan = FaultPlan::new(rec.config.seed, config.clone());
    let mut completions = vec![0u64; rec.config.chip.num_cores];
    let ((), seconds) = timed(|| {
        for entry in schedule {
            let mut attempt = 0u32;
            loop {
                let completion = completions[entry.core];
                completions[entry.core] += 1;
                if entry.core != MASTER {
                    black_box(plan.should_retire(entry.core, completion));
                }
                if !plan.should_fail(entry.task, attempt) {
                    break;
                }
                attempt += 1;
            }
            failures[entry.task.index()] = attempt;
            totals.faults += u64::from(attempt);
        }
    });
    totals.fault_s = seconds;
    failures
}

/// Schedules, per task, the master's creation event, one retry event per
/// failure and the completion event on the recorded core at the recorded
/// finish cycle, draining the earliest cycle whenever more events are
/// pending than the chip has cores.
fn wheel_pass(rec: &Recording<'_>, failures: &[u32]) -> (u64, f64) {
    let schedule = &rec.report.schedule;
    let limit = rec.config.chip.num_cores + 1;
    let mut wheel: TimingWheel<usize> = TimingWheel::new();
    let mut batch = Vec::new();
    let mut created = 0usize;
    let mut events = 0u64;
    let ((), seconds) = timed(|| {
        for entry in schedule {
            let index = entry.task.index();
            while created <= index {
                wheel.schedule(entry.finish, MASTER);
                created += 1;
                events += 1;
            }
            for _ in 0..failures[index] {
                wheel.schedule(entry.finish, RETRY_EVENT);
                events += 1;
            }
            wheel.schedule(entry.finish, entry.core);
            events += 1;
            while wheel.len() > limit {
                wheel.pop_batch(&mut batch);
            }
        }
        while wheel.pop_batch(&mut batch).is_some() {}
    });
    (events, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::config::DmuConfig;
    use tdm_runtime::exec::simulate;
    use tdm_runtime::stream::TaskSource;
    use tdm_runtime::task::{DependenceSpec, Workload};
    use tdm_sim::clock::Cycle;

    use crate::workload::{run_stream, StreamSpec};

    struct Traced {
        specs: Vec<TaskSpec>,
        report: RunReport,
        backend: Backend,
        scheduler: SchedulerKind,
        config: ExecConfig,
    }

    impl Traced {
        fn of(spec: &StreamSpec) -> Self {
            let config = spec.config.clone().with_trace_schedule();
            let report = run_stream(spec, &config, &mut spec.stream(), None).report;
            let mut stream = spec.stream();
            let specs = std::iter::from_fn(|| stream.next_task()).collect();
            Traced {
                specs,
                report,
                backend: spec.backend.clone(),
                scheduler: spec.scheduler,
                config,
            }
        }

        fn replay(&self) -> Result<LayerTotals, String> {
            replay(
                &Recording {
                    specs: &self.specs,
                    report: &self.report,
                    backend: &self.backend,
                    scheduler: self.scheduler,
                    config: &self.config,
                },
                0.0,
            )
        }
    }

    /// A TDM and a software region, both small: QR's scaled generator
    /// never shrinks below its Table II size, so the TDM region runs a
    /// small Streamcluster stream instead.
    fn small() -> [Traced; 2] {
        let mut tdm = StreamSpec::qr_tdm(7, 600);
        tdm.bench = tdm_workloads::Benchmark::Streamcluster;
        [
            Traced::of(&tdm),
            Traced::of(&StreamSpec::streamcluster_sw_faults(7, 600)),
        ]
    }

    #[test]
    fn both_engines_replay_every_task_without_a_stall() {
        for traced in small() {
            let totals = traced.replay().unwrap();
            let tasks = traced.report.tasks;
            assert_eq!(totals.tasks, tasks);
            assert_eq!(totals.faults, traced.report.faults_injected);
            assert_eq!(totals.wheel_events, 2 * tasks + totals.faults);
            assert!(totals.hit_bytes + totals.miss_bytes > 0);
            assert!(totals.pool_peak >= 1);
        }
        assert!(small()[1].report.faults_injected > 0);
    }

    #[test]
    fn a_schedule_that_skips_or_repeats_a_task_is_rejected() {
        let [mut traced, _] = small();
        let last = traced.report.schedule.pop().unwrap();
        assert!(traced.replay().unwrap_err().contains("finishes"));
        let first = traced.report.schedule[0];
        traced.report.schedule.push(first);
        assert!(traced.replay().unwrap_err().contains("twice"));
        traced.report.schedule.pop();
        traced.report.schedule.push(last);
        assert!(traced.replay().is_ok());
    }

    #[test]
    fn a_fault_count_the_plan_does_not_reproduce_is_rejected() {
        let [_, mut traced] = small();
        traced.report.faults_injected += 1;
        assert!(traced.replay().unwrap_err().contains("fault replay"));
    }

    #[test]
    fn an_engine_stall_is_rejected() {
        // Independent tasks may finish in any order, but finishing the last
        // one first forces every creation ahead of it into an 8-entry DMU.
        let tasks = (0..40)
            .map(|i| {
                TaskSpec::new(
                    "t",
                    Cycle::new(10_000),
                    vec![DependenceSpec::output(0x10_0000 + i * 4096, 4096)],
                )
            })
            .collect();
        let workload = Workload::new("independent", tasks);
        let tiny = DmuConfig {
            tat_entries: 8,
            tat_ways: 8,
            dat_entries: 8,
            dat_ways: 8,
            ..DmuConfig::default()
        };
        let backend = Backend::Tdm(tiny);
        let config = ExecConfig::default().with_trace_schedule();
        let mut report = simulate(&workload, &backend, SchedulerKind::Fifo, &config);
        let mut traced = Traced {
            specs: workload.tasks,
            report: report.clone(),
            backend,
            scheduler: SchedulerKind::Fifo,
            config,
        };
        assert!(traced.replay().is_ok());
        report.schedule.sort_by_key(|s| std::cmp::Reverse(s.task));
        traced.report = report;
        assert!(traced.replay().unwrap_err().contains("stalled"));
    }

    #[test]
    fn a_task_readied_other_than_once_is_rejected() {
        let entry = |task| ReadyEntry {
            task: TaskRef(task),
            num_successors: 0,
            creation_seq: task,
            ready_at: Cycle::ZERO,
            producer_core: None,
        };
        assert!(check_readied(&[entry(0), entry(1)], 2).is_ok());
        assert!(check_readied(&[entry(0), entry(0), entry(1)], 2).is_err());
        assert!(check_readied(&[entry(1)], 2).is_err());
    }

    #[test]
    fn the_scheduler_pass_counts_pops_that_find_nothing() {
        let [traced, _] = small();
        let schedule = &traced.report.schedule;
        let tasks = schedule.len();
        let entries: Vec<ReadyEntry> = schedule
            .iter()
            .map(|s| ReadyEntry {
                task: s.task,
                num_successors: 0,
                creation_seq: s.task.index(),
                ready_at: s.finish,
                producer_core: None,
            })
            .collect();
        let well_fed = ReadyLog {
            entries: entries.clone(),
            marks: (1..=tasks).collect(),
        };
        assert_eq!(
            scheduler_pass(SchedulerKind::Fifo, &well_fed, schedule).0,
            tasks
        );
        // The first pop comes before any push: one pop finds nothing.
        let starved = ReadyLog {
            entries,
            marks: (0..tasks).collect(),
        };
        assert_eq!(
            scheduler_pass(SchedulerKind::Fifo, &starved, schedule).0,
            tasks - 1
        );
    }
}
