//! Discrete-event execution driver.
//!
//! [`simulate`] runs a complete parallel region of a [`Workload`] on the
//! simulated chip: the master core creates tasks in program order (paying
//! dependence-management costs through the selected backend), worker cores
//! repeatedly schedule, execute and finish tasks, and every core's time is
//! attributed to the DEPS / SCHED / EXEC / IDLE phases of Figure 2. The
//! result is a [`RunReport`] from which every figure and table of the paper's
//! evaluation can be derived.
//!
//! # Streaming execution
//!
//! [`simulate_stream`] drives the same loop from a pull-based
//! [`TaskSource`] instead of a materialised task list: the master fetches
//! each task's spec only when it is about to create it, and the driver keeps
//! a spec alive only while its task is in flight. Combined with the
//! **windowed master** ([`ExecConfig::window`]) — the master creates tasks
//! only while the in-flight count is below the window, otherwise it behaves
//! like a throttled runtime system and executes tasks itself — this bounds
//! peak resident [`TaskSpec`]s by the window regardless of how many tasks
//! the stream produces, which is what makes million-task runs feasible.
//! With the default unbounded window the two paths are interchangeable:
//! driving the same workload through either produces bit-identical reports
//! (the eager-vs-streaming conformance suite pins this).
//!
//! ```
//! use tdm_runtime::exec::{simulate, simulate_stream, Backend, ExecConfig};
//! use tdm_runtime::scheduler::SchedulerKind;
//! use tdm_runtime::stream::WorkloadSource;
//! use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
//! use tdm_sim::clock::Cycle;
//!
//! let workload = Workload::new(
//!     "pair",
//!     vec![
//!         TaskSpec::new("a", Cycle::new(100_000), vec![DependenceSpec::output(0xA000, 64)]),
//!         TaskSpec::new("b", Cycle::new(100_000), vec![DependenceSpec::input(0xA000, 64)]),
//!     ],
//! );
//! let config = ExecConfig::default().with_window(4);
//! let eager = simulate(&workload, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
//! let mut source = WorkloadSource::new(&workload);
//! let streamed = simulate_stream(&mut source, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
//! assert_eq!(eager.makespan(), streamed.makespan());
//! // The streaming run held at most window+1 specs at once.
//! assert!(streamed.peak_resident_tasks <= 5);
//! ```
//!
//! [`TaskSpec`]: crate::task::TaskSpec

use serde::Serialize;
use tdm_core::config::DmuConfig;
use tdm_sim::cache::LocalityModel;
use tdm_sim::clock::Cycle;
use tdm_sim::config::ChipConfig;
use tdm_sim::event::EventQueue;
use tdm_sim::noc::NocModel;
use tdm_sim::rng::SplitMix64;
use tdm_sim::snapshot::{self, section, Persist, Reader, Snapshot, SnapshotError};
use tdm_sim::stats::{Phase, SimStats};

use crate::cost::CostModel;
use crate::engine::{
    DependenceEngine, HardwareEngine, HardwareFlavor, HardwareReport, ReadyInfo, SoftwareEngine,
};
use crate::fast_map::FastMap;
use crate::fault::{FaultConfig, FaultPlan, FaultState};
use crate::scheduler::{FifoScheduler, ReadyEntry, Scheduler, SchedulerKind};
use crate::stream::TaskSource;
use crate::task::{TaskRef, TaskSpec, Workload};

/// The runtime-system organisations compared in the paper (Sections II and
/// VI-C).
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Pure software runtime: dependence tracking and scheduling in software.
    Software,
    /// TDM: the DMU tracks dependences, scheduling stays in software.
    Tdm(DmuConfig),
    /// Carbon: hardware ready queues (fixed FIFO), dependence tracking in
    /// software.
    Carbon,
    /// Task Superscalar: dependence tracking and scheduling both in hardware
    /// (fixed FIFO).
    TaskSuperscalar(DmuConfig),
}

impl Backend {
    /// Display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Software => "Software",
            Backend::Tdm(_) => "TDM",
            Backend::Carbon => "Carbon",
            Backend::TaskSuperscalar(_) => "TaskSuperscalar",
        }
    }

    /// True if the ready queue lives in hardware, which fixes the scheduling
    /// policy to FIFO and makes queue operations cheap.
    pub fn hardware_scheduling(&self) -> bool {
        matches!(self, Backend::Carbon | Backend::TaskSuperscalar(_))
    }

    /// Convenience constructor: TDM with the paper's selected DMU
    /// configuration.
    pub fn tdm_default() -> Backend {
        Backend::Tdm(DmuConfig::default())
    }

    /// Convenience constructor: Task Superscalar with tables sized like the
    /// default DMU (the paper compares both at 2048 in-flight entries).
    pub fn task_superscalar_default() -> Backend {
        Backend::TaskSuperscalar(DmuConfig::default())
    }

    fn build_engine(&self, cost: &CostModel, noc_round_trip: Cycle) -> Box<dyn DependenceEngine> {
        let hardware =
            |flavor| HardwareEngine::new(flavor, self.dmu_config(), cost.clone(), noc_round_trip);
        match self {
            Backend::Software => Box::new(SoftwareEngine::new(cost.clone())),
            Backend::Carbon => Box::new(SoftwareEngine::with_name("carbon", cost.clone())),
            Backend::Tdm(_) => Box::new(hardware(HardwareFlavor::Tdm)),
            Backend::TaskSuperscalar(_) => Box::new(hardware(HardwareFlavor::TaskSuperscalar)),
        }
    }

    /// The DMU geometry of a hardware backend, or the default geometry for
    /// a software one (energy models still need a geometry to price a run
    /// that charges no DMU energy).
    pub fn dmu_config(&self) -> DmuConfig {
        match self {
            Backend::Tdm(dmu) | Backend::TaskSuperscalar(dmu) => dmu.clone(),
            _ => DmuConfig::default(),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an execution-driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Simulated chip (Table I).
    pub chip: ChipConfig,
    /// Runtime-system cost model.
    pub cost: CostModel,
    /// Seed for duration jitter (deterministic per seed).
    pub seed: u64,
    /// Per-core cache capacity used by the locality model, in bytes. The
    /// default corresponds to a core's share of the L1 plus the shared L2
    /// (4 MB / 32 cores + 32 KB).
    pub locality_capacity_bytes: u64,
    /// Record the full executed schedule in [`RunReport::schedule`].
    /// Off by default: the trace costs O(tasks) memory, which large
    /// workloads should not pay. The conformance tests opt in explicitly to
    /// replay schedules against the reference graph. Tracing never affects
    /// modeled time — makespan and phase breakdowns are bit-identical either
    /// way.
    pub trace_schedule: bool,
    /// Master-thread creation window: the master creates a new task only
    /// while fewer than `window` created tasks are unfinished; at the limit
    /// it behaves like a throttled runtime system (executes tasks, retries
    /// after finishes). This models the paper's master/DMU backpressure and
    /// bounds the specs a streaming run keeps resident. The default
    /// (`usize::MAX`) never throttles, matching the classic eager driver.
    ///
    /// A window of 0 would deadlock the master before it created anything,
    /// so **0 is documented to behave exactly like 1** (one task in flight
    /// at a time): [`with_window`](ExecConfig::with_window) clamps eagerly,
    /// and the driver applies the same clamp to a directly assigned field.
    pub window: usize,
    /// Capture a checkpoint [`Snapshot`] every this many cycles of simulated
    /// time, when running through [`simulate_stream_checkpointed_outcome`].
    /// `None` (the default) disables periodic capture; every other entry
    /// point ignores the knob entirely. To checkpoint a materialised
    /// [`Workload`], stream it through a [`WorkloadSource`]. Deliberately
    /// **not** part of the resume-compatibility fingerprint: a resumed run
    /// may checkpoint on a different cadence (or not at all) — capture never
    /// affects modeled time, so the reports stay bit-identical either way
    /// (see `SNAPSHOT_FORMAT.md`).
    ///
    /// [`WorkloadSource`]: crate::stream::WorkloadSource
    pub checkpoint_every: Option<Cycle>,
    /// Deterministic fault injection ([`crate::fault`]): seeded transient
    /// task failures with bounded retry, plus sticky core faults that retire
    /// a core mid-run. `None` (the default) disables injection entirely;
    /// a configuration with both rates at zero is bit-identical to `None`
    /// (fault draws are pure per-decision functions, so a rate of zero
    /// perturbs nothing). Part of the resume-compatibility fingerprint —
    /// the fault schedule is part of the run's semantics.
    pub fault: Option<FaultConfig>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let chip = ChipConfig::default();
        let locality =
            chip.memory.l1_size_bytes + chip.memory.l2_size_bytes / chip.num_cores as u64;
        ExecConfig {
            chip,
            cost: CostModel::default(),
            seed: 42,
            locality_capacity_bytes: locality,
            trace_schedule: false,
            window: usize::MAX,
            checkpoint_every: None,
            fault: None,
        }
    }
}

impl ExecConfig {
    /// Same configuration with a different core count.
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        self.chip = ChipConfig::with_cores(num_cores);
        self
    }

    /// Same configuration with schedule tracing switched on.
    pub fn with_trace_schedule(mut self) -> Self {
        self.trace_schedule = true;
        self
    }

    /// Same configuration with the master creation window set to `window`
    /// in-flight tasks.
    ///
    /// A window of 0 is clamped to 1 — the master must be allowed at least
    /// one in-flight task or it could never create anything. The driver
    /// applies the same clamp at run time, so assigning
    /// [`window`](ExecConfig::window) directly behaves identically.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Same configuration with periodic checkpointing every `every` cycles
    /// (see [`checkpoint_every`](ExecConfig::checkpoint_every)). Only
    /// [`simulate_stream_checkpointed_outcome`] acts on it.
    pub fn with_checkpoint_every(mut self, every: Cycle) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Same configuration with deterministic fault injection enabled (see
    /// [`fault`](ExecConfig::fault)).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// The set of currently idle cores: O(1) insert/remove via a per-core
/// bitmap, with the lowest-numbered idle core woken first — the same wake
/// order the `BTreeSet` it replaces produced, so runs stay bit-identical.
#[derive(Debug)]
struct IdleSet {
    words: Vec<u64>,
}

impl IdleSet {
    fn new(num_cores: usize) -> Self {
        IdleSet {
            words: vec![0; num_cores.div_ceil(64)],
        }
    }

    fn insert(&mut self, core: usize) {
        self.words[core >> 6] |= 1 << (core & 63);
    }

    /// Removes `core`, returning whether it was present.
    fn remove(&mut self, core: usize) -> bool {
        let word = &mut self.words[core >> 6];
        let bit = 1u64 << (core & 63);
        let was_idle = *word & bit != 0;
        *word &= !bit;
        was_idle
    }

    /// Removes and returns the lowest-numbered idle core.
    fn pop_min(&mut self) -> Option<usize> {
        for (i, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1; // clear the lowest set bit
                return Some((i << 6) | bit);
            }
        }
        None
    }
}

/// One completed task in the executed schedule: which task ran, on which
/// core, and the cycle at which its finish was processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScheduledTask {
    /// The task that finished.
    pub task: TaskRef,
    /// The core it executed on.
    pub core: usize,
    /// Cycle at which the finish completed (dependence-release cost
    /// included).
    pub finish: Cycle,
}

/// The outcome of one simulated execution.
///
/// Two reports compare equal only if every modeled quantity — stats, phase
/// breakdowns, hardware counters, task counts, residency peak and (when
/// traced) the executed schedule — is bit-identical; the sweep determinism
/// suite relies on this.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Backend name.
    pub backend: String,
    /// Scheduling policy actually applied (hardware backends force FIFO).
    pub scheduler: String,
    /// Per-core phase breakdowns, makespan and counters.
    pub stats: SimStats,
    /// Hardware dependence-tracker report, when the backend has one.
    #[serde(skip)]
    pub hardware: Option<HardwareReport>,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Peak number of [`TaskSpec`]s the driver held
    /// resident at once. For an eager [`simulate`] run this is the whole
    /// workload (the caller materialised it); for a [`simulate_stream`] run
    /// it is bounded by [`ExecConfig::window`] plus one prefetched spec —
    /// the number `bench_scale` reports to show million-task runs stay in
    /// bounded memory.
    pub peak_resident_tasks: usize,
    /// Transient task failures injected by the fault plan
    /// ([`ExecConfig::fault`]); 0 when fault injection is off.
    pub faults_injected: u64,
    /// Failed tasks re-issued to the ready pool after their modeled
    /// backoff; 0 when fault injection is off.
    pub retries: u64,
    /// Cores retired by sticky faults during the run; 0 when fault
    /// injection is off.
    pub retired_cores: u64,
    /// The executed schedule, in finish order — **empty unless
    /// [`ExecConfig::trace_schedule`] is set**, because the trace costs
    /// O(tasks) memory. Conformance tests opt in and replay this against the
    /// reference [`TaskGraph`](crate::tdg::TaskGraph) to check that the run
    /// respected every dependence and executed each task exactly once.
    pub schedule: Vec<ScheduledTask>,
}

impl RunReport {
    /// Total execution time of the parallel region.
    pub fn makespan(&self) -> Cycle {
        self.stats.makespan
    }

    /// Speedup of this run over `baseline` (ratio of makespans).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        self.stats.speedup_over(&baseline.stats)
    }

    /// Fraction of the master core's time spent in dependence management
    /// (task creation + finalization) — the per-benchmark bars of Figure 10.
    pub fn master_deps_fraction(&self) -> f64 {
        self.stats.master_breakdown().fraction(Phase::Deps)
    }

    /// Fraction of total CPU time (all cores) spent in `phase`.
    pub fn chip_fraction(&self, phase: Phase) -> f64 {
        self.stats.chip_fraction(phase)
    }

    /// The tasks in the order they finished, extracted from the schedule.
    pub fn finish_order(&self) -> Vec<TaskRef> {
        self.schedule.iter().map(|s| s.task).collect()
    }
}

/// The typed result of a run under fault injection: either the run
/// completed (every created task eventually finished) or a task exhausted
/// its retry budget and the run aborted cleanly.
///
/// An aborted run is a *result*, not a panic: the report carries every
/// phase breakdown and counter accumulated up to the abort point, with the
/// makespan covering the work done so far — a production runtime would
/// surface exactly this to its caller. Runs without fault injection can
/// never abort, which is why [`simulate`] and [`simulate_stream`] keep
/// returning a bare [`RunReport`]; the streaming `*_outcome` entry points
/// return this type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every created task finished; the report is final.
    Completed(RunReport),
    /// `task` failed `attempts` times, exceeding
    /// [`FaultConfig::retry_budget`]; the run stopped at the cycle the
    /// budget was exhausted.
    Aborted {
        /// The task whose retry budget ran out.
        task: TaskRef,
        /// Total failed attempts of that task (budget + 1).
        attempts: u32,
        /// Statistics accumulated up to the abort point.
        report: RunReport,
    },
}

impl RunOutcome {
    /// The run's report, whether it completed or aborted.
    pub fn report(&self) -> &RunReport {
        match self {
            RunOutcome::Completed(report) | RunOutcome::Aborted { report, .. } => report,
        }
    }

    /// Consumes the outcome, returning the report.
    pub fn into_report(self) -> RunReport {
        match self {
            RunOutcome::Completed(report) | RunOutcome::Aborted { report, .. } => report,
        }
    }
}

/// Unwraps a completed outcome for [`simulate`] and [`simulate_stream`],
/// which predate fault injection and cannot report an abort (aborts require
/// [`ExecConfig::fault`], whose users call [`simulate_stream_outcome`]).
fn completed_or_panic(outcome: RunOutcome) -> RunReport {
    match outcome {
        RunOutcome::Completed(report) => report,
        RunOutcome::Aborted { task, attempts, .. } => panic!(
            "run aborted: {task} exhausted its retry budget after {attempts} failed attempts — \
             call simulate_stream_outcome (wrap a Workload in WorkloadSource) to receive \
             RunOutcome::Aborted instead"
        ),
    }
}

// ---------------------------------------------------------------------------
// Task feeds: where the driver gets its specs from
// ---------------------------------------------------------------------------

/// Driver-internal abstraction over "where task specs come from and how long
/// they stay resident". The eager feed borrows a materialised [`Workload`];
/// the stream feed pulls from a [`TaskSource`] and retains only in-flight
/// specs. Keeping the driver generic (monomorphised per feed) means the
/// eager path pays no indirection or cloning for the refactor.
trait TaskFeed {
    fn name(&self) -> &str;
    fn locality_benefit(&self) -> f64;
    fn duration_jitter(&self) -> f64;
    /// Tasks the source may still produce, if known (reporting only).
    fn len_hint(&self) -> Option<usize>;
    /// True once no task with index ≥ `next_create` will ever be available.
    fn exhausted(&self, next_create: usize) -> bool;
    /// Spec of the task about to be created. Called with consecutive indices
    /// (repeats allowed, for stalled-creation retries); must not be called
    /// when [`exhausted`](TaskFeed::exhausted) is true.
    fn fetch(&mut self, index: usize) -> &TaskSpec;
    /// Spec of an in-flight (fetched, unfinished) task.
    fn spec(&self, task: TaskRef) -> &TaskSpec;
    /// True if the feed holds `task`'s spec, so [`spec`](TaskFeed::spec)
    /// would not panic.
    fn holds(&self, task: TaskRef) -> bool;
    /// Drops the spec of a finished task.
    fn release(&mut self, task: TaskRef);
    /// Specs currently held resident.
    fn resident(&self) -> usize;
    /// Serialises the feed's restorable state for the FEED snapshot section
    /// (first byte is the feed-kind tag), or `None` if the feed cannot be
    /// checkpointed: eager runs never are, and a stream whose source reports
    /// no [`TaskSource::checkpoint_cursor`] cannot be.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// FEED-section and `META.feed_kind` tag of a streaming run, the only kind
/// checkpointed. The value is part of format version 2, so it stays 1; any
/// other tag (0 was the eager kind) is refused on load.
const FEED_STREAM: u8 = 1;

/// Feed over a fully materialised workload: specs are borrowed in place and
/// stay resident for the whole run.
struct EagerFeed<'a> {
    workload: &'a Workload,
}

impl TaskFeed for EagerFeed<'_> {
    fn name(&self) -> &str {
        &self.workload.name
    }

    fn locality_benefit(&self) -> f64 {
        self.workload.locality_benefit
    }

    fn duration_jitter(&self) -> f64 {
        self.workload.duration_jitter
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.workload.len())
    }

    fn exhausted(&self, next_create: usize) -> bool {
        next_create >= self.workload.len()
    }

    fn fetch(&mut self, index: usize) -> &TaskSpec {
        &self.workload.tasks[index]
    }

    fn spec(&self, task: TaskRef) -> &TaskSpec {
        self.workload.spec(task)
    }

    fn holds(&self, task: TaskRef) -> bool {
        task.index() < self.workload.len()
    }

    fn release(&mut self, _task: TaskRef) {}

    fn resident(&self) -> usize {
        self.workload.len()
    }
}

/// Feed over a pull-based source: holds the specs of in-flight tasks plus
/// one prefetched spec (the prefetch is what lets the driver know *before*
/// attempting a creation whether the stream has ended, so its wake-up and
/// scheduling decisions match the eager driver exactly).
struct StreamFeed<'a, S: TaskSource + ?Sized> {
    source: &'a mut S,
    /// Specs of fetched-but-unfinished tasks, keyed by task index.
    in_flight: FastMap<usize, TaskSpec>,
    /// The next spec the source produced, not yet fetched by the driver.
    peeked: Option<TaskSpec>,
    /// Index the peeked spec corresponds to.
    next_index: usize,
}

impl<'a, S: TaskSource + ?Sized> StreamFeed<'a, S> {
    fn new(source: &'a mut S) -> Self {
        let peeked = source.next_task();
        StreamFeed {
            source,
            in_flight: FastMap::default(),
            peeked,
            next_index: 0,
        }
    }

    /// Rebuilds a feed from a snapshot's FEED section: fast-forwards a
    /// *fresh* source to the stored cursor, re-pulls the prefetched spec if
    /// one was pending, and reinstates the in-flight window. Deliberately
    /// not [`new`](StreamFeed::new) — that constructor eagerly pulls the
    /// first task, which would desynchronise the cursor.
    fn restore(source: &'a mut S, payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(payload);
        let tag = u8::load(&mut r)?;
        if tag != FEED_STREAM {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "FEED section carries feed-kind tag {tag}, not the streaming tag \
                     {FEED_STREAM}"
                ),
            });
        }
        let next_index = usize::load(&mut r)?;
        let had_peek = bool::load(&mut r)?;
        let pairs = Vec::<(usize, TaskSpec)>::load(&mut r)?;
        r.expect_end("FEED")?;

        if let Some(produced) = source.checkpoint_cursor() {
            if produced != 0 {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "resume requires a freshly built source, but this one has \
                         already produced {produced} tasks"
                    ),
                });
            }
        }
        source.resume_at(next_index as u64);
        let peeked = if had_peek {
            let spec = source.next_task().ok_or_else(|| SnapshotError::Corrupt {
                context: format!(
                    "stream ended at task {next_index}, before the position the \
                     snapshot was taken at — the resuming source is shorter than \
                     the one that was checkpointed"
                ),
            })?;
            Some(spec)
        } else {
            None
        };
        let mut in_flight = FastMap::default();
        for (index, spec) in pairs {
            if index >= next_index {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "FEED lists task {index} as in flight, at or past the \
                         stream cursor {next_index}"
                    ),
                });
            }
            if in_flight.insert(index, spec).is_some() {
                return Err(SnapshotError::Corrupt {
                    context: format!("FEED lists task {index} in flight twice"),
                });
            }
        }
        Ok(StreamFeed {
            source,
            in_flight,
            peeked,
            next_index,
        })
    }
}

impl<S: TaskSource + ?Sized> TaskFeed for StreamFeed<'_, S> {
    fn name(&self) -> &str {
        self.source.name()
    }

    fn locality_benefit(&self) -> f64 {
        self.source.locality_benefit()
    }

    fn duration_jitter(&self) -> f64 {
        self.source.duration_jitter()
    }

    fn len_hint(&self) -> Option<usize> {
        self.source
            .len_hint()
            .map(|left| left + self.in_flight.len() + usize::from(self.peeked.is_some()))
    }

    fn exhausted(&self, next_create: usize) -> bool {
        // A stalled creation keeps its spec in `in_flight` without advancing
        // `next_create`, so the retry finds it there.
        self.peeked.is_none() && !self.in_flight.contains_key(&next_create)
    }

    fn fetch(&mut self, index: usize) -> &TaskSpec {
        if !self.in_flight.contains_key(&index) {
            assert_eq!(index, self.next_index, "stream fetched out of order");
            let spec = self.peeked.take().expect("fetch past end of task stream");
            self.in_flight.insert(index, spec);
            self.next_index += 1;
            self.peeked = self.source.next_task();
        }
        &self.in_flight[&index]
    }

    fn spec(&self, task: TaskRef) -> &TaskSpec {
        self.in_flight
            .get(&task.index())
            .expect("spec of a task that is not in flight")
    }

    fn holds(&self, task: TaskRef) -> bool {
        self.in_flight.contains_key(&task.index())
    }

    fn release(&mut self, task: TaskRef) {
        self.in_flight.remove(&task.index());
    }

    fn resident(&self) -> usize {
        self.in_flight.len() + usize::from(self.peeked.is_some())
    }

    // A streaming checkpoint stores the production cursor plus the bounded
    // in-flight window — never the unproduced remainder of the stream, so
    // snapshots stay O(window) however many tasks are still to come.
    fn save_state(&self) -> Option<Vec<u8>> {
        let cursor = self.source.checkpoint_cursor()?;
        debug_assert_eq!(
            cursor,
            self.next_index as u64 + u64::from(self.peeked.is_some()),
            "source cursor disagrees with the feed's production count"
        );
        let mut out = Vec::new();
        FEED_STREAM.save(&mut out);
        self.next_index.save(&mut out);
        self.peeked.is_some().save(&mut out);
        // In-flight specs keyed by task index, canonicalised to index order
        // (map iteration order is unobservable and must stay that way).
        let mut pairs: Vec<(usize, TaskSpec)> = self
            .in_flight
            .iter()
            .map(|(&i, spec)| (i, spec.clone()))
            .collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.save(&mut out);
        Some(out)
    }
}

/// Simulates `workload` on `backend` with the given scheduling policy.
///
/// Hardware-scheduled backends (Carbon, Task Superscalar) ignore `scheduler`
/// and use their fixed FIFO queue. The workload's specs are borrowed in
/// place, never cloned. A caller that needs a checkpoint, a resume or a
/// typed abort streams the workload instead: wrap it in a
/// [`WorkloadSource`](crate::stream::WorkloadSource) and call the streaming
/// entry points, which report the same modeled results (only
/// [`RunReport::peak_resident_tasks`] differs).
///
/// # Panics
///
/// Panics if the simulation deadlocks, which would indicate a bug in a
/// dependence engine (the workload graphs are acyclic by construction), or
/// if fault injection aborts the run (use [`simulate_stream_outcome`] to
/// receive [`RunOutcome::Aborted`] instead).
pub fn simulate(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    let outcome = run_core(
        EagerFeed { workload },
        backend,
        scheduler,
        config,
        None,
        None,
    )
    .expect("a run without restore cannot fail")
    .expect("a run without a checkpoint sink cannot halt");
    completed_or_panic(outcome)
}

/// Simulates the tasks produced by `source` on `backend`, creating them
/// through the windowed master (see [`ExecConfig::window`]) and keeping only
/// in-flight specs resident.
///
/// With the default unbounded window this is observably identical to
/// collecting the stream into a [`Workload`] and calling [`simulate`] —
/// bit-identical makespans, stats and DMU access totals — while holding at
/// most the in-flight specs in memory. With a finite window the master is
/// additionally throttled, modelling runtime-system backpressure.
///
/// # Panics
///
/// Panics if the simulation deadlocks (see [`simulate`]), or if fault
/// injection aborts the run (use [`simulate_stream_outcome`]).
pub fn simulate_stream<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    completed_or_panic(simulate_stream_outcome(source, backend, scheduler, config))
}

/// Like [`simulate_stream`], but surfaces retry-budget exhaustion as a typed
/// [`RunOutcome::Aborted`] instead of a panic. Without
/// [`ExecConfig::fault`] the outcome is always `Completed`.
///
/// # Panics
///
/// Panics on dependence-engine deadlock (see [`simulate`]).
pub fn simulate_stream_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunOutcome {
    run_core(
        StreamFeed::new(source),
        backend,
        scheduler,
        config,
        None,
        None,
    )
    .expect("a run without restore cannot fail")
    .expect("a run without a checkpoint sink cannot halt")
}

/// Runs `source` like [`simulate_stream_outcome`], additionally capturing a
/// [`Snapshot`] of the full mid-run state every
/// [`ExecConfig::checkpoint_every`] cycles and handing each one to `sink`.
///
/// `sink` returns `true` to keep running or `false` to halt the run at that
/// checkpoint; a halted run returns `None` (the snapshot the sink just
/// received is the resume point for [`resume_stream_outcome`]). If
/// `checkpoint_every` is unset the sink is never called and the run
/// completes normally. Capture never affects modeled time: a checkpointed
/// run's outcome is bit-identical to a plain [`simulate_stream_outcome`]
/// run's.
///
/// Snapshots store the source's production cursor
/// ([`TaskSource::checkpoint_cursor`]) plus the bounded in-flight window —
/// never the unproduced remainder of the stream — so they stay O(window)
/// regardless of how many tasks are still to come.
///
/// # Panics
///
/// Panics if checkpointing is enabled but `source` reports no checkpoint
/// cursor, and on dependence-engine deadlock (see [`simulate`]).
pub fn simulate_stream_checkpointed_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    sink: &mut dyn FnMut(Snapshot) -> bool,
) -> Option<RunOutcome> {
    assert!(
        config.checkpoint_every.is_none() || source.checkpoint_cursor().is_some(),
        "cannot checkpoint source {:?}: TaskSource::checkpoint_cursor returned None",
        source.name()
    );
    let ctl = config.checkpoint_every.map(|every| CheckpointCtl {
        every,
        next_at: every,
        sink,
    });
    run_core(
        StreamFeed::new(source),
        backend,
        scheduler,
        config,
        None,
        ctl,
    )
    .expect("source cursor support was checked above")
}

/// Resumes a streaming run from `snapshot`, driving it to completion.
///
/// `source` must be a *freshly built* instance of the stream the
/// checkpointed run was consuming: it is fast-forwarded to the snapshot's
/// production cursor via [`TaskSource::resume_at`], so the stream is
/// regenerated rather than stored. `config` must match what the
/// checkpointed run used: the snapshot's META section carries the run
/// identity and a configuration fingerprint, both validated before any
/// state is reinstated, and the backend and scheduler are rebuilt from it —
/// a snapshot can never be resumed under different semantics than it was
/// taken under. A snapshot that is not a streaming run's is refused with
/// [`SnapshotError::Corrupt`]. Resuming is bit-exact: the returned outcome
/// is identical to an uninterrupted run's (the snapshot conformance suite
/// pins this across the full backend × scheduler matrix).
///
/// # Panics
///
/// Panics on dependence-engine deadlock (see [`simulate`]).
pub fn resume_stream_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    snapshot: &Snapshot,
    config: &ExecConfig,
) -> Result<RunOutcome, SnapshotError> {
    let meta = RunMeta::from_snapshot(snapshot)?;
    meta.validate(source.name(), config)?;
    let feed = StreamFeed::restore(source, snapshot.section(section::FEED)?)?;
    let outcome = run_core(
        feed,
        &meta.backend,
        meta.scheduler,
        config,
        Some(snapshot),
        None,
    )?;
    Ok(outcome.expect("resumed runs have no checkpoint sink and cannot halt"))
}

/// Event-queue payload marking a retry dispatch instead of a core event.
/// Scheduled at each failed task's backoff due time; on firing, every due
/// entry of the retry queue is re-issued to the scheduling pool. No real
/// core can carry this id (cores are `0..num_cores`).
const RETRY_EVENT: usize = usize::MAX;

/// A task in flight on a core, carrying the successor count its
/// [`ReadyEntry`] arrived with so a faulted task can be re-issued under the
/// exact same scheduling inputs (the Successor policy orders by it).
#[derive(Clone, Copy)]
struct RunningTask {
    task: TaskRef,
    num_successors: u32,
}

impl Persist for RunningTask {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.num_successors.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RunningTask {
            task: TaskRef::load(r)?,
            num_successors: u32::load(r)?,
        })
    }
}

/// The blocks of the task a core is starting, refilled per start so the
/// driver allocates nothing per task. Each set holds what
/// [`TaskSpec::working_set`], [`TaskSpec::read_set`] and
/// [`TaskSpec::write_set`] return, in the same order.
#[derive(Default)]
struct BlockSets {
    working: Vec<(u64, u64)>,
    reads: Vec<(u64, u64)>,
    writes: Vec<(u64, u64)>,
}

impl BlockSets {
    fn fill(&mut self, spec: &TaskSpec) {
        self.working.clear();
        self.reads.clear();
        self.writes.clear();
        for dep in &spec.deps {
            let block = (dep.addr, dep.size);
            self.working.push(block);
            if dep.direction.reads() {
                self.reads.push(block);
            }
            if dep.direction.writes() {
                self.writes.push(block);
            }
        }
    }
}

/// Periodic capture control threaded into [`run_core`]: when simulated time
/// reaches `next_at`, the driver assembles a [`Snapshot`] and hands it to
/// `sink`; a `false` return halts the run
/// ([`simulate_stream_checkpointed_outcome`] then returns `None` instead of
/// an outcome).
struct CheckpointCtl<'a> {
    every: Cycle,
    next_at: Cycle,
    sink: &'a mut dyn FnMut(Snapshot) -> bool,
}

/// The discrete-event loop shared by every entry point: plain
/// ([`simulate`] / [`simulate_stream`]), checkpointed (`checkpoint` set) and
/// resumed (`restore` set). Returns `Ok(None)` when a checkpoint sink halted
/// the run, and an error only when `restore` holds an inconsistent snapshot.
/// Fault injection aborting the run is a normal return
/// ([`RunOutcome::Aborted`]), not an error.
fn run_core<F: TaskFeed>(
    mut feed: F,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    restore: Option<&Snapshot>,
    mut checkpoint: Option<CheckpointCtl<'_>>,
) -> Result<Option<RunOutcome>, SnapshotError> {
    let num_cores = config.chip.num_cores;
    let master = 0usize;
    let window = config.window.max(1);
    let noc = NocModel::from_chip(&config.chip);
    let noc_round_trip = noc.average_round_trip();

    let mut engine = backend.build_engine(&config.cost, noc_round_trip);
    let hardware_sched = backend.hardware_scheduling();
    let mut pool: Box<dyn Scheduler> = if hardware_sched {
        Box::new(FifoScheduler::new())
    } else {
        scheduler.build()
    };
    let scheduler_name = if hardware_sched {
        "HW-FIFO".to_string()
    } else {
        scheduler.name().to_string()
    };
    let (push_cost, pick_cost) = if hardware_sched {
        (config.cost.hw_queue_op, config.cost.hw_queue_op)
    } else {
        (config.cost.sw_sched_push, config.cost.sw_sched_pick)
    };

    let locality_benefit = feed.locality_benefit();
    let duration_jitter = feed.duration_jitter();
    let mut stats = SimStats::new(num_cores, master);
    let mut locality = LocalityModel::new(num_cores, config.locality_capacity_bytes.max(1));
    let mut events: EventQueue<usize> = EventQueue::new();
    let mut running: Vec<Option<RunningTask>> = vec![None; num_cores];
    let mut idle_since: Vec<Option<Cycle>> = vec![None; num_cores];
    let mut idle_set = IdleSet::new(num_cores);
    // Fault injection: the plan is a pure function of the run seed and the
    // fault configuration (dedicated stream, so fault draws never perturb
    // duration jitter), the state is the mutable bookkeeping. Completion
    // boundaries are counted even with faults disabled so the FAULT snapshot
    // section — and therefore whole snapshots — are bit-identical between
    // `fault: None` and an all-zero-rate config.
    let fault_plan = config
        .fault
        .as_ref()
        .map(|fc| FaultPlan::new(config.seed, fc.clone()));
    let mut fault_state = FaultState::new(num_cores);
    // Engine outputs reused across events so the loop allocates nothing per
    // operation: a finish's cost and `[start, end)` span, and the tasks a
    // finish or a creation readied.
    let mut fin_cost: Vec<Cycle> = Vec::new();
    let mut fin_span: Vec<(usize, usize)> = Vec::new();
    let mut ready: Vec<ReadyInfo> = Vec::new();
    let mut block_sets = BlockSets::default();
    let mut next_create = 0usize;
    let mut finished = 0usize;
    let mut peak_resident = feed.resident();
    let mut schedule: Vec<ScheduledTask> = if config.trace_schedule {
        Vec::with_capacity(feed.len_hint().unwrap_or(0))
    } else {
        Vec::new()
    };
    let mut makespan = Cycle::ZERO;
    // True while the master is held back from creating — either the last
    // creation attempt stalled on a full DMU structure, or the in-flight
    // count reached the configured window. The master then behaves as a
    // worker (runtime-system throttling) and retries after tasks finish.
    let mut master_throttled = false;
    // First task to exhaust its retry budget (with its final failure
    // count): the run halts at the end of that batch and reports
    // `RunOutcome::Aborted` instead of completing.
    let mut aborted: Option<(TaskRef, u32)> = None;

    // Deterministic per-task duration jitter: the same task gets the same
    // duration regardless of scheduler or backend, so comparisons are fair.
    let jitter_for = |task: TaskRef| -> f64 {
        if duration_jitter == 0.0 {
            1.0
        } else {
            let mut rng = SplitMix64::new(config.seed ^ (task.index() as u64).wrapping_mul(0x9E37));
            rng.jitter(duration_jitter)
        }
    };

    if let Some(snap) = restore {
        // Reinstate the mutable run state section by section. META (identity
        // and configuration fingerprint) was already validated by the resume
        // entry point, and the feed was rebuilt from FEED before this call;
        // everything else lives in the long-lived locals loaded here. The
        // initial per-core event seeding is skipped — the restored event
        // queue already holds the pending events of the interrupted run.
        stats = snapshot::from_payload(snap.section(section::STATS)?, "STATS")?;
        if stats.cores.len() != num_cores || stats.master != master {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "STATS section covers {} cores (master {}), expected {num_cores} \
                     (master {master})",
                    stats.cores.len(),
                    stats.master
                ),
            });
        }
        locality = snapshot::from_payload(snap.section(section::LOCALITY)?, "LOCALITY")?;
        if locality.num_cores() != num_cores {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "LOCALITY section covers {} cores, expected {num_cores}",
                    locality.num_cores()
                ),
            });
        }
        events = snapshot::from_payload(snap.section(section::EVENTS)?, "EVENTS")?;
        let mut pending = events.clone();
        while let Some((_, core)) = pending.pop() {
            if core >= num_cores && core != RETRY_EVENT {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "EVENTS holds an event for core {core}, but the run has {num_cores} cores"
                    ),
                });
            }
        }
        let mut r = Reader::new(snap.section(section::SCHEDULER)?);
        pool.load_state(&mut r)?;
        r.expect_end("SCHEDULER")?;
        let mut r = Reader::new(snap.section(section::ENGINE)?);
        engine.load_state(&mut r)?;
        r.expect_end("ENGINE")?;
        let mut r = Reader::new(snap.section(section::DRIVER)?);
        running = Vec::load(&mut r)?;
        idle_since = Vec::load(&mut r)?;
        let idle_words = Vec::<u64>::load(&mut r)?;
        next_create = usize::load(&mut r)?;
        finished = usize::load(&mut r)?;
        peak_resident = usize::load(&mut r)?;
        makespan = Cycle::load(&mut r)?;
        master_throttled = bool::load(&mut r)?;
        r.expect_end("DRIVER")?;
        if running.len() != num_cores
            || idle_since.len() != num_cores
            || idle_words.len() != idle_set.words.len()
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "DRIVER section covers {} cores, expected {num_cores}",
                    running.len()
                ),
            });
        }
        if let Some(core) = (num_cores..idle_words.len() * 64)
            .find(|&core| idle_words[core >> 6] & (1 << (core & 63)) != 0)
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "DRIVER idle set holds core {core}, but the run has {num_cores} cores"
                ),
            });
        }
        idle_set.words = idle_words;
        // Each running task is finished by the engine when its core's event
        // fires, which panics unless the task was created, is unfinished
        // and runs on one core only.
        let mut running_tasks: Vec<TaskRef> = running.iter().flatten().map(|rt| rt.task).collect();
        running_tasks.sort_unstable();
        if let Some(pair) = running_tasks.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(SnapshotError::Corrupt {
                context: format!("DRIVER lists {} as running on two cores", pair[0]),
            });
        }
        if let Some(task) = running_tasks
            .iter()
            .find(|task| task.index() >= next_create || !feed.holds(**task))
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "DRIVER lists {task} as running, but FEED does not hold it in flight"
                ),
            });
        }
        fault_state = snapshot::from_payload(snap.section(section::FAULT)?, "FAULT")?;
        if fault_state.num_cores() != num_cores {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "FAULT section covers {} cores, expected {num_cores}",
                    fault_state.num_cores()
                ),
            });
        }
        if config.trace_schedule {
            schedule = snapshot::from_payload(snap.section(section::TRACE)?, "TRACE")?;
        }
    } else {
        for core in 0..num_cores {
            events.schedule(Cycle::ZERO, core);
        }
    }

    // Same-cycle delivery: `pop_batch` drains every event of the earliest
    // cycle, processed in FIFO order. Events scheduled *for the same cycle*
    // while the batch runs form the next batch — exactly the position
    // serial pops would have delivered them in (behind everything already
    // pending), so the timeline is the one a pop-at-a-time loop produces.
    let mut batch: Vec<usize> = Vec::new();
    while let Some(now) = events.pop_batch(&mut batch) {
        for &core in &batch {
            // ------------------------------------------------------------------
            // Phase 0: retry dispatch. A sentinel event re-issues every due
            // entry of the retry queue to the scheduling pool, in insertion
            // order, and wakes idle cores to pick them up. Re-issue itself
            // is modeled free: the retry watchdog runs off the critical
            // path, and the backoff delay already charged the latency.
            // ------------------------------------------------------------------
            if core == RETRY_EVENT {
                let dispatched = fault_state.drain_due(now, |task, num_successors| {
                    pool.push(ReadyEntry {
                        task,
                        num_successors,
                        creation_seq: task.index(),
                        ready_at: now,
                        producer_core: None,
                    });
                });
                for _ in 0..dispatched {
                    let Some(idle_core) = idle_set.pop_min() else {
                        break;
                    };
                    events.schedule(now, idle_core);
                }
                continue;
            }
            let mut t = now;

            // ------------------------------------------------------------------
            // Phase 1: the completion of the task this core was running, if
            // any. The completion boundary decides transient failure (the
            // task's result is lost, it must re-run) and sticky core
            // retirement (this completion is the core's last). Both are pure
            // draws keyed on stable identities, so the decisions are
            // identical across backends, schedulers and resume.
            // ------------------------------------------------------------------
            let mut finished_here = false;
            if let Some(rt) = running[core].take() {
                let completion = fault_state.record_completion(core);
                let mut failed_under = None;
                if let Some(plan) = &fault_plan {
                    if plan.should_fail(rt.task, fault_state.failure_count(rt.task)) {
                        failed_under = Some(plan);
                    } else {
                        // A finished task never runs again, so its failure
                        // count is never read: dropping it keeps the FAULT
                        // section bounded by the window.
                        fault_state.forget_failures(rt.task);
                    }
                    if core != master && plan.should_retire(core, completion) {
                        fault_state.retire(core);
                    }
                }
                if let Some(plan) = failed_under {
                    // An injected failure: the task never finished, so
                    // dependents stay blocked, the window stays occupied and
                    // the master throttle is NOT reset. The core pays the
                    // fault-detection latency (the engine never sees the
                    // attempt), then the task is queued for re-issue after a
                    // linear backoff — or, past the retry budget, the run
                    // aborts at the end of this batch.
                    let cost = plan.config().detect_cost;
                    stats.cores[core].add(Phase::Deps, cost);
                    t += cost;
                    makespan = makespan.max(t);
                    let count = fault_state.record_failure(rt.task);
                    if count > plan.config().retry_budget {
                        if aborted.is_none() {
                            aborted = Some((rt.task, count));
                        }
                    } else {
                        let due = t + plan.backoff_delay(count);
                        fault_state.push_retry(due, rt.task, rt.num_successors);
                        events.schedule(due, RETRY_EVENT);
                    }
                } else {
                    fin_cost.clear();
                    fin_span.clear();
                    ready.clear();
                    engine.finish_batch(
                        now,
                        &[(rt.task, core)],
                        &mut fin_cost,
                        &mut ready,
                        &mut fin_span,
                    );
                    feed.release(rt.task);
                    // Any finish releases DMU resources and shrinks the
                    // in-flight window, so a throttled master may retry
                    // creation at its next opportunity.
                    master_throttled = false;
                    stats.cores[core].add(Phase::Deps, fin_cost[0]);
                    t += fin_cost[0];
                    finished += 1;
                    finished_here = true;
                    if config.trace_schedule {
                        schedule.push(ScheduledTask {
                            task: rt.task,
                            core,
                            finish: t,
                        });
                    }
                    makespan = makespan.max(t);
                    push_ready(
                        &ready,
                        Some(core),
                        &mut t,
                        core,
                        &mut *pool,
                        &mut stats,
                        push_cost,
                        &mut idle_set,
                        &mut events,
                    );
                }
            }

            // A finish frees DMU resources (and may ready tasks): make sure a
            // throttled or idle master gets a chance to resume creation.
            if finished_here
                && core != master
                && !feed.exhausted(next_create)
                && idle_set.remove(master)
            {
                events.schedule(t, master);
            }

            // ------------------------------------------------------------------
            // Phase 2: the master's creation attempt, at its own `t` after its
            // completion.
            //
            // When a creation attempt stalls on a full DMU structure, or the
            // in-flight count reaches the configured window, the master does not
            // busy-wait: like a throttled runtime system it falls through to the
            // worker path, executes a task (or goes idle) and retries creation
            // after the next finish.
            // ------------------------------------------------------------------
            if core == master && !master_throttled && !feed.exhausted(next_create) {
                if next_create - finished >= window {
                    master_throttled = true;
                } else {
                    ready.clear();
                    let outcome = {
                        let spec = feed.fetch(next_create);
                        engine.create_task(t, TaskRef(next_create), spec, &mut ready)
                    };
                    peak_resident = peak_resident.max(feed.resident());
                    stats.cores[master].add(Phase::Deps, outcome.cost);
                    t += outcome.cost;
                    push_ready(
                        &ready,
                        None,
                        &mut t,
                        master,
                        &mut *pool,
                        &mut stats,
                        push_cost,
                        &mut idle_set,
                        &mut events,
                    );
                    if outcome.completed {
                        next_create += 1;
                        events.schedule(t, master);
                        continue;
                    }
                    master_throttled = true;
                }
            }

            // ------------------------------------------------------------------
            // Phase 3: worker behaviour — schedule and execute a ready task.
            // ------------------------------------------------------------------
            if feed.exhausted(next_create) && finished >= next_create {
                continue;
            }
            // A retired core never takes new work and never joins the idle
            // set (it cannot be woken). If ready work is pending, hand the
            // wake-up to an idle survivor so the pool is never stranded on
            // a core that just died.
            if fault_state.is_retired(core) {
                if !pool.is_empty() {
                    if let Some(idle_core) = idle_set.pop_min() {
                        events.schedule(t, idle_core);
                    }
                }
                continue;
            }
            if let Some(entry) = pool.pop(core) {
                if let Some(since) = idle_since[core].take() {
                    stats.cores[core].add(Phase::Idle, t.saturating_sub(since));
                }
                idle_set.remove(core);
                stats.cores[core].add(Phase::Sched, pick_cost);
                t += pick_cost;

                let spec = feed.spec(entry.task);
                block_sets.fill(spec);
                let hit_fraction = locality.probe(core, &block_sets.working).hit_fraction();
                let locality_factor = 1.0 - locality_benefit * hit_fraction;
                let duration = spec
                    .duration
                    .scaled_f64(locality_factor * jitter_for(entry.task));
                locality.record_reads(core, &block_sets.reads);
                locality.record_writes(core, &block_sets.writes);

                stats.cores[core].add(Phase::Exec, duration);
                running[core] = Some(RunningTask {
                    task: entry.task,
                    num_successors: entry.num_successors,
                });
                events.schedule(t + duration, core);
            } else {
                if idle_since[core].is_none() {
                    idle_since[core] = Some(t);
                }
                idle_set.insert(core);
            }
        }

        // Retry-budget exhaustion: the rest of the batch was processed
        // normally (its bookkeeping is already committed), but no further
        // cycle runs and no checkpoint is taken at the abort point.
        if aborted.is_some() {
            break;
        }

        // Periodic checkpoint capture, between batches: no per-operation
        // scratch (the engine output buffers) is live here, so the full run
        // state is exactly the long-lived locals serialised here.
        if let Some(ctl) = checkpoint.as_mut() {
            if now >= ctl.next_at {
                ctl.next_at = now + ctl.every;
                let snap = capture_snapshot(
                    &feed,
                    backend,
                    scheduler,
                    config,
                    &*engine,
                    &*pool,
                    &stats,
                    &locality,
                    &events,
                    &running,
                    &idle_since,
                    &idle_set,
                    next_create,
                    finished,
                    peak_resident,
                    makespan,
                    master_throttled,
                    &fault_state,
                    &schedule,
                );
                if !(ctl.sink)(snap) {
                    return Ok(None);
                }
            }
        }
    }

    assert!(
        aborted.is_some() || (feed.exhausted(next_create) && finished == next_create),
        "simulation ended with {finished} of {next_create} created tasks finished \
         (stream exhausted: {}) — dependence engine deadlock",
        feed.exhausted(next_create)
    );

    stats.makespan = makespan;
    stats.tasks_executed = finished as u64;
    let hardware = engine.hardware_report();
    if let Some(hw) = &hardware {
        stats.dmu_stall_cycles = hw.stall_cycles;
        stats.dmu_instructions = hw.instructions;
    }
    stats.normalize_to_makespan();

    let report = RunReport {
        workload: feed.name().to_string(),
        backend: backend.name().to_string(),
        scheduler: scheduler_name,
        stats,
        hardware,
        tasks: finished as u64,
        peak_resident_tasks: peak_resident,
        faults_injected: fault_state.faults_injected,
        retries: fault_state.retries,
        retired_cores: fault_state.retired_cores(),
        schedule,
    };
    Ok(Some(match aborted {
        Some((task, attempts)) => RunOutcome::Aborted {
            task,
            attempts,
            report,
        },
        None => RunOutcome::Completed(report),
    }))
}

/// Assembles the complete run state into a [`Snapshot`], one section per
/// subsystem (the registry in [`tdm_sim::snapshot::SECTIONS`] and the layout
/// in `SNAPSHOT_FORMAT.md` describe each). Pure read: capture never mutates
/// the run, so checkpointed and plain runs stay bit-identical.
#[allow(clippy::too_many_arguments)]
fn capture_snapshot<F: TaskFeed>(
    feed: &F,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    engine: &dyn DependenceEngine,
    pool: &dyn Scheduler,
    stats: &SimStats,
    locality: &LocalityModel,
    events: &EventQueue<usize>,
    running: &[Option<RunningTask>],
    idle_since: &[Option<Cycle>],
    idle_set: &IdleSet,
    next_create: usize,
    finished: usize,
    peak_resident: usize,
    makespan: Cycle,
    master_throttled: bool,
    fault_state: &FaultState,
    schedule: &[ScheduledTask],
) -> Snapshot {
    let feed_state = feed
        .save_state()
        .expect("checkpointing requires a source with a checkpoint cursor");
    let meta = RunMeta {
        feed_kind: FEED_STREAM,
        workload: feed.name().to_string(),
        backend: backend.clone(),
        scheduler,
        num_cores: config.chip.num_cores as u64,
        seed: config.seed,
        locality_capacity_bytes: config.locality_capacity_bytes,
        trace_schedule: config.trace_schedule,
        window: config.window as u64,
        retired_per_op: false,
        cost_hash: debug_hash(&config.cost),
        chip_hash: debug_hash(&config.chip),
        fault_hash: debug_hash(&config.fault),
    };

    let mut driver = Vec::new();
    running.to_vec().save(&mut driver);
    idle_since.to_vec().save(&mut driver);
    idle_set.words.save(&mut driver);
    next_create.save(&mut driver);
    finished.save(&mut driver);
    peak_resident.save(&mut driver);
    makespan.save(&mut driver);
    master_throttled.save(&mut driver);

    let mut sched_state = Vec::new();
    pool.save_state(&mut sched_state);
    let mut engine_state = Vec::new();
    engine.save_state(&mut engine_state);

    let mut snap = Snapshot::new();
    snap.add_section(section::META, snapshot::to_payload(&meta));
    snap.add_section(section::DRIVER, driver);
    snap.add_section(section::EVENTS, snapshot::to_payload(events));
    snap.add_section(section::STATS, snapshot::to_payload(stats));
    snap.add_section(section::LOCALITY, snapshot::to_payload(locality));
    snap.add_section(section::SCHEDULER, sched_state);
    snap.add_section(section::ENGINE, engine_state);
    snap.add_section(section::FEED, feed_state);
    snap.add_section(section::FAULT, snapshot::to_payload(fault_state));
    if config.trace_schedule {
        snap.add_section(section::TRACE, snapshot::to_payload(&schedule.to_vec()));
    }
    snap
}

/// Pushes newly ready tasks into the scheduling pool, charging the pushing
/// core, and wakes idle cores to pick them up.
#[allow(clippy::too_many_arguments)]
fn push_ready(
    ready: &[ReadyInfo],
    producer_core: Option<usize>,
    t: &mut Cycle,
    pushing_core: usize,
    pool: &mut dyn Scheduler,
    stats: &mut SimStats,
    push_cost: Cycle,
    idle_set: &mut IdleSet,
    events: &mut EventQueue<usize>,
) {
    for info in ready {
        stats.cores[pushing_core].add(Phase::Sched, push_cost);
        *t += push_cost;
        pool.push(ReadyEntry {
            task: info.task,
            num_successors: info.num_successors,
            creation_seq: info.task.index(),
            ready_at: *t,
            producer_core,
        });
    }
    // Wake one idle core per newly ready task, lowest-numbered first.
    for _ in 0..ready.len() {
        let Some(idle_core) = idle_set.pop_min() else {
            break;
        };
        events.schedule(*t, idle_core);
    }
}

// ---------------------------------------------------------------------------
// Snapshot support: run identity, configuration fingerprint, Persist impls
// ---------------------------------------------------------------------------

impl Persist for Backend {
    fn save(&self, out: &mut Vec<u8>) {
        match self {
            Backend::Software => 0u8.save(out),
            Backend::Tdm(dmu) => {
                1u8.save(out);
                dmu.save(out);
            }
            Backend::Carbon => 2u8.save(out),
            Backend::TaskSuperscalar(dmu) => {
                3u8.save(out);
                dmu.save(out);
            }
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::load(r)? {
            0 => Backend::Software,
            1 => Backend::Tdm(DmuConfig::load(r)?),
            2 => Backend::Carbon,
            3 => Backend::TaskSuperscalar(DmuConfig::load(r)?),
            tag => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown backend tag {tag}"),
                })
            }
        })
    }
}

impl Persist for ScheduledTask {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.core.save(out);
        self.finish.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ScheduledTask {
            task: TaskRef::load(r)?,
            core: usize::load(r)?,
            finish: Cycle::load(r)?,
        })
    }
}

/// FNV-1a over the `Debug` rendering of a config sub-structure: a compact
/// compatibility fingerprint for the cost model and chip description. Every
/// field of both feeds modeled time, so any difference must fail resume; a
/// collision is astronomically unlikely, and the cost of a detected mismatch
/// is a clear error rather than silent divergence.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The META section: the run's identity (what is being simulated, on what)
/// plus the configuration fingerprint that gates resume. The backend and
/// scheduler are *rebuilt from here* on resume — they are not caller inputs
/// — so a snapshot can never be resumed under different semantics.
struct RunMeta {
    feed_kind: u8,
    workload: String,
    backend: Backend,
    scheduler: SchedulerKind,
    num_cores: u64,
    seed: u64,
    locality_capacity_bytes: u64,
    trace_schedule: bool,
    window: u64,
    /// Retired, always `false`: it recorded the per-operation DMU mode,
    /// which is gone.
    retired_per_op: bool,
    cost_hash: u64,
    chip_hash: u64,
    fault_hash: u64,
}

impl Persist for RunMeta {
    fn save(&self, out: &mut Vec<u8>) {
        self.feed_kind.save(out);
        self.workload.save(out);
        self.backend.save(out);
        self.scheduler.save(out);
        self.num_cores.save(out);
        self.seed.save(out);
        self.locality_capacity_bytes.save(out);
        self.trace_schedule.save(out);
        self.window.save(out);
        self.retired_per_op.save(out);
        self.cost_hash.save(out);
        self.chip_hash.save(out);
        self.fault_hash.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RunMeta {
            feed_kind: u8::load(r)?,
            workload: String::load(r)?,
            backend: Backend::load(r)?,
            scheduler: SchedulerKind::load(r)?,
            num_cores: u64::load(r)?,
            seed: u64::load(r)?,
            locality_capacity_bytes: u64::load(r)?,
            trace_schedule: bool::load(r)?,
            window: u64::load(r)?,
            retired_per_op: bool::load(r)?,
            cost_hash: u64::load(r)?,
            chip_hash: u64::load(r)?,
            fault_hash: u64::load(r)?,
        })
    }
}

impl RunMeta {
    fn from_snapshot(snap: &Snapshot) -> Result<RunMeta, SnapshotError> {
        snapshot::from_payload(snap.section(section::META)?, "META")
    }

    /// Checks that the snapshot is a streaming run's and that the resuming
    /// workload and configuration match what it was taken under. Every
    /// mismatch is its own actionable error — the operator learns *which*
    /// knob diverged.
    fn validate(&self, workload: &str, config: &ExecConfig) -> Result<(), SnapshotError> {
        let fail = |context: String| Err(SnapshotError::Corrupt { context });
        if self.feed_kind != FEED_STREAM {
            return fail(format!(
                "META records feed kind {}, not the streaming kind {FEED_STREAM}",
                self.feed_kind
            ));
        }
        if self.workload != workload {
            return fail(format!(
                "snapshot was taken on workload {:?}, not {workload:?}",
                self.workload
            ));
        }
        if self.num_cores != config.chip.num_cores as u64 {
            return fail(format!(
                "snapshot was taken with {} cores but the resuming config has {}",
                self.num_cores, config.chip.num_cores
            ));
        }
        if self.seed != config.seed {
            return fail(format!(
                "snapshot was taken with seed {} but the resuming config has seed {}",
                self.seed, config.seed
            ));
        }
        if self.locality_capacity_bytes != config.locality_capacity_bytes {
            return fail(format!(
                "snapshot was taken with locality capacity {} B but the resuming \
                 config has {} B",
                self.locality_capacity_bytes, config.locality_capacity_bytes
            ));
        }
        if self.trace_schedule != config.trace_schedule {
            return fail(format!(
                "snapshot was taken with trace_schedule={} but the resuming config \
                 has trace_schedule={}",
                self.trace_schedule, config.trace_schedule
            ));
        }
        // Window 0 behaves exactly like 1 (see `ExecConfig::window`), and
        // `with_window(0)` stores 1 while a direct assignment keeps 0.
        if self.window.max(1) != (config.window as u64).max(1) {
            return fail(format!(
                "snapshot was taken with window {} but the resuming config has \
                 window {}",
                self.window, config.window
            ));
        }
        if self.retired_per_op {
            return fail("META records the retired per-op DMU mode".to_string());
        }
        if self.cost_hash != debug_hash(&config.cost) {
            return fail("snapshot was taken under a different cost model".to_string());
        }
        if self.chip_hash != debug_hash(&config.chip) {
            return fail("snapshot was taken under a different chip configuration".to_string());
        }
        if self.fault_hash != debug_hash(&config.fault) {
            return fail("snapshot was taken under a different fault configuration".to_string());
        }
        Ok(())
    }
}

// Compile-time Send contract: the parallel design-space sweep runner
// (`tdm_bench::sweep`) moves whole simulation points — configs, engines,
// schedulers, sources and reports — onto worker threads. Regressions (e.g. an
// `Rc` slipping into an engine) fail here, at the definition site, instead of
// in a downstream crate.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send::<dyn crate::engine::DependenceEngine>();
    assert_send::<dyn crate::scheduler::Scheduler>();
    assert_send::<dyn TaskSource>();
    assert_send::<crate::stream::WorkloadSource<'static>>();
    assert_send::<Backend>();
    assert_send::<ExecConfig>();
    assert_send::<RunReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WorkloadSource;
    use crate::task::{DependenceSpec, TaskSpec};
    use crate::tdg::TaskGraph;

    fn small_chip(cores: usize) -> ExecConfig {
        ExecConfig::default().with_cores(cores)
    }

    /// A block-diagonal workload: `chains` independent chains of `len`
    /// dependent tasks each.
    fn chains_workload(chains: usize, len: usize, duration_us: f64) -> Workload {
        let chip = ChipConfig::default();
        let mut tasks = Vec::new();
        for c in 0..chains {
            for _ in 0..len {
                tasks.push(TaskSpec::new(
                    "link",
                    chip.micros(duration_us),
                    vec![DependenceSpec::inout(
                        0x10_0000 + (c as u64) * 0x1_0000,
                        4096,
                    )],
                ));
            }
        }
        Workload::new("chains", tasks)
    }

    /// Independent tasks (embarrassingly parallel).
    fn independent_workload(n: usize, duration_us: f64) -> Workload {
        let chip = ChipConfig::default();
        let tasks = (0..n)
            .map(|i| {
                TaskSpec::new(
                    "indep",
                    chip.micros(duration_us),
                    vec![DependenceSpec::output(0x20_0000 + (i as u64) * 4096, 4096)],
                )
            })
            .collect();
        Workload::new("independent", tasks)
    }

    #[test]
    fn independent_tasks_scale_with_cores() {
        let w = independent_workload(64, 100.0);
        let one = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(1));
        let many = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(9));
        // 9 cores vs 1 core: near-linear scaling on independent tasks.
        let speedup = many.speedup_over(&one);
        assert!(
            speedup > 5.0,
            "expected large speedup from more cores, got {speedup:.2}"
        );
    }

    #[test]
    fn chain_workload_is_serialized_regardless_of_cores() {
        let w = chains_workload(1, 20, 50.0);
        let few = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(2));
        let many = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(8));
        let speedup = many.speedup_over(&few);
        assert!(
            (0.9..1.1).contains(&speedup),
            "a single dependence chain cannot speed up with cores, got {speedup:.2}"
        );
    }

    #[test]
    fn all_tasks_execute_exactly_once_on_every_backend() {
        let w = chains_workload(4, 10, 20.0);
        for backend in [
            Backend::Software,
            Backend::tdm_default(),
            Backend::Carbon,
            Backend::task_superscalar_default(),
        ] {
            let report = simulate(&w, &backend, SchedulerKind::Fifo, &small_chip(4));
            assert_eq!(report.tasks, 40, "backend {}", backend.name());
            assert_eq!(report.stats.tasks_executed, 40);
            assert!(report.makespan() > Cycle::ZERO);
        }
    }

    #[test]
    fn tdm_outperforms_software_when_creation_bound() {
        // Many short tasks with several dependences each: the master's
        // software creation cost dominates, which is exactly the scenario
        // TDM accelerates (Figure 2 / Figure 12).
        let chip = ChipConfig::default();
        let blocks = 64u64;
        let tasks: Vec<TaskSpec> = (0..1500)
            .map(|i| {
                let a = 0x100_0000 + (i % blocks) * 0x4_0000;
                let b = 0x100_0000 + ((i * 7 + 3) % blocks) * 0x4_0000;
                TaskSpec::new(
                    "t",
                    chip.micros(60.0),
                    vec![
                        DependenceSpec::input(a, 0x4_0000),
                        DependenceSpec::inout(b, 0x4_0000),
                    ],
                )
            })
            .collect();
        let w = Workload::new("creation-bound", tasks);
        let config = ExecConfig::default();
        let sw = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &config);
        let tdm = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let speedup = tdm.speedup_over(&sw);
        assert!(
            speedup > 1.05,
            "TDM should beat software on a creation-bound workload, got {speedup:.3}"
        );
        // And the master spends a much smaller share of its time in DEPS.
        assert!(tdm.master_deps_fraction() < sw.master_deps_fraction());
    }

    #[test]
    fn hardware_backends_force_fifo() {
        let w = independent_workload(16, 10.0);
        let report = simulate(&w, &Backend::Carbon, SchedulerKind::Lifo, &small_chip(4));
        assert_eq!(report.scheduler, "HW-FIFO");
        let report = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Lifo,
            &small_chip(4),
        );
        assert_eq!(report.scheduler, "LIFO");
    }

    #[test]
    fn run_is_deterministic() {
        let w = chains_workload(8, 8, 30.0);
        let a = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &small_chip(8),
        );
        let b = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &small_chip(8),
        );
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn phase_breakdown_covers_makespan_on_every_core() {
        let w = chains_workload(4, 6, 25.0);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(6));
        for core in &report.stats.cores {
            assert_eq!(core.total(), report.makespan());
        }
    }

    #[test]
    fn lifo_hurts_independent_chains_like_blackscholes() {
        // 8 chains on 4 workers: LIFO lets a few chains race ahead and leaves
        // a load-imbalanced tail, as described for Blackscholes in Section VI.
        let w = chains_workload(8, 12, 200.0);
        let config = small_chip(5);
        let fifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let lifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Lifo, &config);
        assert!(
            lifo.makespan() >= fifo.makespan(),
            "LIFO ({}) should not beat FIFO ({}) on independent chains",
            lifo.makespan(),
            fifo.makespan()
        );
    }

    #[test]
    fn tiny_dmu_still_completes_with_stalls() {
        let w = chains_workload(2, 30, 10.0);
        let dmu = DmuConfig {
            tat_entries: 16,
            tat_ways: 8,
            dat_entries: 16,
            dat_ways: 8,
            successor_la_entries: 16,
            dependence_la_entries: 16,
            reader_la_entries: 16,
            ..DmuConfig::default()
        };
        let report = simulate(&w, &Backend::Tdm(dmu), SchedulerKind::Fifo, &small_chip(4));
        assert_eq!(report.stats.tasks_executed, 60);
        let hw = report.hardware.unwrap();
        assert!(hw.stats.stalls > 0);
    }

    #[test]
    fn execution_respects_dependences_under_all_schedulers() {
        // Use the locality-sensitive workload and every scheduler; the
        // dependence engines enforce ordering, so all runs must complete.
        let w = chains_workload(6, 5, 15.0);
        let graph = TaskGraph::build(&w);
        assert!(graph.critical_path_len() == 5);
        for kind in SchedulerKind::all() {
            let report = simulate(&w, &Backend::tdm_default(), kind, &small_chip(4));
            assert_eq!(report.stats.tasks_executed, 30, "scheduler {}", kind.name());
        }
    }

    #[test]
    fn single_core_run_works() {
        let w = independent_workload(5, 10.0);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(1));
        assert_eq!(report.stats.tasks_executed, 5);
        // With one core the master does everything; no idle time beyond
        // rounding is expected for independent tasks.
        assert!(report.stats.cores[0].get(Phase::Exec) > Cycle::ZERO);
    }

    #[test]
    fn empty_workload_completes_immediately() {
        let w = Workload::new("empty", vec![]);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(4));
        assert_eq!(report.stats.tasks_executed, 0);
        assert_eq!(report.makespan(), Cycle::ZERO);
        // The streaming path agrees on the degenerate case.
        let mut source = WorkloadSource::new(&w);
        let streamed = simulate_stream(
            &mut source,
            &Backend::Software,
            SchedulerKind::Fifo,
            &small_chip(4),
        );
        assert_eq!(streamed.stats.tasks_executed, 0);
    }

    #[test]
    fn locality_scheduler_benefits_memory_bound_workload() {
        // A workload of producer→consumer pairs on large blocks with a high
        // locality benefit: running the consumer where the producer ran is
        // visibly faster.
        let chip = ChipConfig::default();
        let mut tasks = Vec::new();
        for i in 0..120u64 {
            let block = 0x400_0000 + i * 0x8_0000; // 512 KB blocks
            tasks.push(TaskSpec::new(
                "producer",
                chip.micros(80.0),
                vec![DependenceSpec::output(block, 0x8_0000)],
            ));
            tasks.push(TaskSpec::new(
                "consumer",
                chip.micros(80.0),
                vec![DependenceSpec::inout(block, 0x8_0000)],
            ));
        }
        let mut w = Workload::new("pairs", tasks);
        w.locality_benefit = 0.3;
        let config = small_chip(8);
        let fifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let local = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Locality,
            &config,
        );
        assert!(
            local.makespan() < fifo.makespan(),
            "locality scheduling ({}) should beat FIFO ({}) here",
            local.makespan(),
            fifo.makespan()
        );
    }

    #[test]
    fn streaming_matches_eager_bit_for_bit() {
        let mut w = chains_workload(6, 8, 25.0);
        w.locality_benefit = 0.1;
        let config = small_chip(6).with_trace_schedule();
        for backend in [
            Backend::Software,
            Backend::tdm_default(),
            Backend::Carbon,
            Backend::task_superscalar_default(),
        ] {
            for scheduler in [SchedulerKind::Fifo, SchedulerKind::Age] {
                let eager = simulate(&w, &backend, scheduler, &config);
                let mut source = WorkloadSource::new(&w);
                let streamed = simulate_stream(&mut source, &backend, scheduler, &config);
                let context = format!("{} / {}", backend.name(), scheduler.name());
                assert_eq!(eager.makespan(), streamed.makespan(), "{context}");
                assert_eq!(eager.stats, streamed.stats, "{context}");
                assert_eq!(eager.schedule, streamed.schedule, "{context}");
            }
        }
    }

    #[test]
    fn windowed_run_bounds_resident_specs_and_completes() {
        let w = chains_workload(5, 10, 15.0);
        let graph = TaskGraph::build(&w);
        for window in [1usize, 2, 7, 50] {
            let config = small_chip(4).with_trace_schedule().with_window(window);
            let mut source = WorkloadSource::new(&w);
            let report = simulate_stream(
                &mut source,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
                &config,
            );
            assert_eq!(report.stats.tasks_executed, 50, "window {window}");
            assert!(
                report.peak_resident_tasks <= window + 1,
                "window {window}: {} specs resident",
                report.peak_resident_tasks
            );
            assert!(
                graph.check_order(&report.finish_order()).is_ok(),
                "window {window}"
            );
        }
    }

    #[test]
    fn window_throttling_never_loses_tasks_on_software_backend() {
        let w = chains_workload(3, 12, 10.0);
        let config = small_chip(3).with_window(2);
        let mut source = WorkloadSource::new(&w);
        let report = simulate_stream(
            &mut source,
            &Backend::Software,
            SchedulerKind::Fifo,
            &config,
        );
        assert_eq!(report.stats.tasks_executed, 36);
        assert!(report.peak_resident_tasks <= 3);
    }

    #[test]
    fn eager_window_throttles_master_too() {
        // The window knob applies to the eager driver as well; a tight
        // window serializes creation against completion and (at worst)
        // lengthens the run, never deadlocks it.
        let w = independent_workload(30, 20.0);
        let wide = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &small_chip(4),
        );
        let narrow = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &small_chip(4).with_window(1),
        );
        assert_eq!(narrow.stats.tasks_executed, 30);
        assert!(narrow.makespan() >= wide.makespan());
    }

    #[test]
    fn with_window_clamps_to_one() {
        assert_eq!(ExecConfig::default().with_window(0).window, 1);
        assert_eq!(ExecConfig::default().with_window(9).window, 9);
        assert_eq!(ExecConfig::default().window, usize::MAX);
    }

    /// Streams `w` with checkpoint capture on, returning the run's outcome
    /// and every snapshot after a round trip through the binary container.
    fn stream_checkpoints(
        w: &Workload,
        backend: &Backend,
        scheduler: SchedulerKind,
        config: &ExecConfig,
    ) -> (RunOutcome, Vec<Snapshot>) {
        let mut snaps = Vec::new();
        let outcome = simulate_stream_checkpointed_outcome(
            &mut WorkloadSource::new(w),
            backend,
            scheduler,
            config,
            &mut |snap| {
                snaps.push(Snapshot::from_bytes(&snap.to_bytes()).unwrap());
                true
            },
        )
        .expect("sink never halts");
        (outcome, snaps)
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_bit_exact() {
        let mut w = chains_workload(6, 8, 25.0);
        w.locality_benefit = 0.1;
        let chip = ChipConfig::default();
        let config = small_chip(6)
            .with_trace_schedule()
            .with_checkpoint_every(chip.micros(40.0));
        let straight = simulate_stream_outcome(
            &mut WorkloadSource::new(&w),
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &config,
        );

        let (outcome, snaps) =
            stream_checkpoints(&w, &Backend::tdm_default(), SchedulerKind::Age, &config);
        // Capture never perturbs modeled time.
        assert_eq!(outcome, straight);
        assert!(snaps.len() >= 2, "expected several checkpoints");

        // Resuming from every checkpoint reproduces the uninterrupted run.
        for snap in &snaps {
            let mut fresh = WorkloadSource::new(&w);
            let resumed = resume_stream_outcome(&mut fresh, snap, &config).unwrap();
            assert_eq!(resumed, straight);
        }
    }

    #[test]
    fn halted_stream_run_resumes_bit_exact() {
        let mut w = chains_workload(5, 10, 15.0);
        w.locality_benefit = 0.1;
        let chip = ChipConfig::default();
        let config = small_chip(4)
            .with_trace_schedule()
            .with_window(7)
            .with_checkpoint_every(chip.micros(120.0));

        let mut source = WorkloadSource::new(&w);
        let straight = simulate_stream_outcome(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        );

        // Halt at the second checkpoint.
        let mut halted_at: Option<Snapshot> = None;
        let mut seen = 0usize;
        let mut source = WorkloadSource::new(&w);
        let outcome = simulate_stream_checkpointed_outcome(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
            &mut |snap| {
                seen += 1;
                if seen == 2 {
                    halted_at = Some(snap);
                    false
                } else {
                    true
                }
            },
        );
        assert!(outcome.is_none(), "sink halted the run");
        let snap = halted_at.expect("run reached the second checkpoint");

        // A *fresh* source is fast-forwarded to the snapshot's cursor.
        let mut fresh = WorkloadSource::new(&w);
        let resumed = resume_stream_outcome(&mut fresh, &snap, &config).unwrap();
        assert_eq!(resumed, straight);
    }

    #[test]
    fn resume_rejects_mismatched_config_and_non_stream_feed_kinds() {
        let w = chains_workload(3, 6, 20.0);
        let chip = ChipConfig::default();
        let config = small_chip(4).with_checkpoint_every(chip.micros(50.0));
        let (_, snaps) =
            stream_checkpoints(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let snap = &snaps[0];
        let refusal = |w: &Workload, snap: &Snapshot, config: &ExecConfig| {
            resume_stream_outcome(&mut WorkloadSource::new(w), snap, config).unwrap_err()
        };

        // Different seed: refused with an error naming the knob.
        let mut other = config.clone();
        other.seed = 7;
        let err = refusal(&w, snap, &other);
        assert!(err.to_string().contains("seed"), "{err}");

        // Different core count.
        let err = refusal(
            &w,
            snap,
            &small_chip(8).with_checkpoint_every(chip.micros(50.0)),
        );
        assert!(err.to_string().contains("cores"), "{err}");

        // Different workload name.
        let mut renamed = w.clone();
        renamed.name = "other".to_string();
        let err = refusal(&renamed, snap, &config);
        assert!(err.to_string().contains("workload"), "{err}");

        // Hostile bytes in an otherwise valid container: byte `at` of
        // section `id` set to `byte`, each refused as corrupt with an error
        // containing `names`.
        let meta_len = snap.section(section::META).unwrap().len();
        let hostile_cases = [
            // Feed kind 0, the retired eager kind, in META's `feed_kind` or
            // in the FEED tag (each is its section's first byte).
            (section::META, 0, 0, "kind"),
            (section::FEED, 0, 0, "kind"),
            // The retired per-op DMU byte: META field 10 (three u64 hashes
            // follow it) and the hardware ENGINE section's first byte.
            (section::META, meta_len - 25, 1, "per-op"),
            (section::ENGINE, 0, 1, "per-op"),
        ];
        for (id, at, byte, names) in hostile_cases {
            let mut hostile = Snapshot::new();
            for sid in snap.section_ids() {
                let mut payload = snap.section(sid).unwrap().to_vec();
                if sid == id {
                    assert_ne!(payload[at], byte, "section {id:#04x} byte {at}");
                    payload[at] = byte;
                }
                hostile.add_section(sid, payload);
            }
            let hostile = Snapshot::from_bytes(&hostile.to_bytes()).unwrap();
            let err = refusal(&w, &hostile, &config);
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "section {id:#04x}: {err}"
            );
            assert!(err.to_string().contains(names), "section {id:#04x}: {err}");
        }
    }

    #[test]
    fn resume_refuses_core_ids_the_run_does_not_have() {
        let w = independent_workload(200, 5.0);
        let chip = ChipConfig::default();
        let config = small_chip(4).with_checkpoint_every(chip.micros(1.0));
        let (_, snaps) =
            stream_checkpoints(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let snap = &snaps[0];
        // Two u64 fields overwritten in place: the payload of EVENTS' first
        // event (after the clock, the event count and that event's time),
        // set to core 40, and the DRIVER idle word (after the `running` and
        // `idle_since` vectors and the word count), set to bit 40 alone.
        let driver = snap.section(section::DRIVER).unwrap();
        let mut r = Reader::new(driver);
        Vec::<Option<RunningTask>>::load(&mut r).unwrap();
        Vec::<Option<Cycle>>::load(&mut r).unwrap();
        let idle_word_at = driver.len() - r.remaining() + 8;
        for (id, at, value, names) in [
            (section::EVENTS, 24, 40u64, "EVENTS"),
            (section::DRIVER, idle_word_at, 1u64 << 40, "DRIVER"),
        ] {
            let mut hostile = Snapshot::new();
            for sid in snap.section_ids() {
                let mut payload = snap.section(sid).unwrap().to_vec();
                if sid == id {
                    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
                hostile.add_section(sid, payload);
            }
            let hostile = Snapshot::from_bytes(&hostile.to_bytes()).unwrap();
            let err =
                resume_stream_outcome(&mut WorkloadSource::new(&w), &hostile, &config).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "section {id:#04x}: {err}"
            );
            assert!(err.to_string().contains(names), "{err}");
            assert!(err.to_string().contains("core 40"), "{err}");
        }
    }

    #[test]
    fn resume_refuses_running_tasks_that_are_not_in_flight() {
        let w = independent_workload(200, 5.0);
        let chip = ChipConfig::default();
        let config = small_chip(4).with_checkpoint_every(chip.micros(1.0));
        for backend in [Backend::tdm_default(), Backend::Software] {
            let (_, snaps) = stream_checkpoints(&w, &backend, SchedulerKind::Fifo, &config);
            let snap = &snaps[0];
            // DRIVER opens with the per-core running tasks; the rest of the
            // section is kept byte for byte.
            let driver = snap.section(section::DRIVER).unwrap();
            let mut r = Reader::new(driver);
            let running = Vec::<Option<RunningTask>>::load(&mut r).unwrap();
            let rest = &driver[driver.len() - r.remaining()..];
            let busy = running.iter().position(Option::is_some).unwrap();
            // Task 150 has not been created at the first checkpoint.
            let mut uncreated = running.clone();
            uncreated[busy].as_mut().unwrap().task = TaskRef(150);
            let mut twice = running.clone();
            twice[(busy + 1) % running.len()] = running[busy];
            for (hostile_running, expected) in [(uncreated, "task#150"), (twice, "two cores")] {
                let mut hostile = Snapshot::new();
                for sid in snap.section_ids() {
                    let mut payload = snap.section(sid).unwrap().to_vec();
                    if sid == section::DRIVER {
                        payload = snapshot::to_payload(&hostile_running);
                        payload.extend_from_slice(rest);
                    }
                    hostile.add_section(sid, payload);
                }
                let hostile = Snapshot::from_bytes(&hostile.to_bytes()).unwrap();
                let err = resume_stream_outcome(&mut WorkloadSource::new(&w), &hostile, &config)
                    .unwrap_err();
                let name = backend.name();
                assert!(
                    matches!(err, SnapshotError::Corrupt { .. }),
                    "{name}: {err}"
                );
                assert!(err.to_string().contains("DRIVER"), "{name}: {err}");
                assert!(err.to_string().contains(expected), "{name}: {err}");
            }
        }
    }

    #[test]
    fn unset_checkpoint_every_never_calls_the_sink() {
        let w = independent_workload(10, 10.0);
        let config = small_chip(4);
        assert_eq!(config.checkpoint_every, None);
        let mut calls = 0usize;
        let outcome = simulate_stream_checkpointed_outcome(
            &mut WorkloadSource::new(&w),
            &Backend::Software,
            SchedulerKind::Fifo,
            &config,
            &mut |_| {
                calls += 1;
                true
            },
        )
        .unwrap();
        assert_eq!(calls, 0);
        assert_eq!(outcome.report().tasks, 10);
    }

    #[test]
    fn window_zero_snapshot_resumes_under_with_window_zero() {
        // A directly assigned `window = 0` and `with_window(0)` (which
        // stores 1) both mean window 1, so a snapshot taken under either
        // resumes under the other, bit for bit.
        let w = chains_workload(3, 8, 20.0);
        let chip = ChipConfig::default();
        let mut direct = small_chip(4).with_checkpoint_every(chip.micros(50.0));
        direct.window = 0;
        let clamped = small_chip(4)
            .with_checkpoint_every(chip.micros(50.0))
            .with_window(0);
        assert_eq!((direct.window, clamped.window), (0, 1));
        for (taken, resumed_with) in [(&direct, &clamped), (&clamped, &direct)] {
            let (straight, snaps) =
                stream_checkpoints(&w, &Backend::tdm_default(), SchedulerKind::Fifo, taken);
            assert!(!snaps.is_empty(), "no checkpoints captured");
            for snap in &snaps {
                let mut fresh = WorkloadSource::new(&w);
                let resumed = resume_stream_outcome(&mut fresh, snap, resumed_with).unwrap();
                assert_eq!(resumed, straight);
            }
        }
    }

    #[test]
    fn window_zero_behaves_exactly_like_window_one() {
        // The clamp is documented behaviour, not an accident: a directly
        // assigned `window = 0` (bypassing `with_window`) must produce the
        // same run as window 1, on both the eager and the streaming path.
        let w = chains_workload(3, 8, 20.0);
        let mut zero = small_chip(4).with_trace_schedule();
        zero.window = 0;
        let one = small_chip(4).with_trace_schedule().with_window(1);
        assert_eq!(one.window, 1);

        let eager_zero = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &zero);
        let eager_one = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &one);
        assert_eq!(eager_zero, eager_one);
        assert_eq!(eager_zero.stats.tasks_executed, 24);

        let mut source = WorkloadSource::new(&w);
        let stream_zero = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &zero,
        );
        let mut source = WorkloadSource::new(&w);
        let stream_one = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &one,
        );
        assert_eq!(stream_zero, stream_one);
        // And the residency bound is the clamped window's, not 0+1 = 1.
        assert!(stream_zero.peak_resident_tasks <= 2);
    }
}
