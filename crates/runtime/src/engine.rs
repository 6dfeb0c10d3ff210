//! Dependence-management engines (runtime backends).
//!
//! The execution driver is generic over *how dependences are tracked*; the
//! four systems compared in the paper differ exactly there and in where the
//! ready queue lives:
//!
//! | System            | Dependence tracking | Scheduling            |
//! |-------------------|---------------------|-----------------------|
//! | Software baseline | software            | software (pluggable)  |
//! | **TDM**           | hardware (DMU)      | software (pluggable)  |
//! | Carbon            | software            | hardware FIFO queues  |
//! | Task Superscalar  | hardware            | hardware FIFO queue   |
//!
//! This module provides the [`DependenceEngine`] trait plus the software
//! engine (used by the baseline and Carbon) and the hardware engine backed by
//! a real [`Dmu`] instance (used by TDM and Task Superscalar). Where the
//! ready queue lives is a property of [`crate::exec::Backend`], handled by
//! the driver.
//!
//! Both engines track dependences **incrementally**: they learn about a task
//! (and its declared dependences) only when the driver calls
//! [`DependenceEngine::create_task`] with its [`TaskSpec`], exactly like a
//! real runtime system discovers the graph as the master thread creates
//! tasks. Per-task state is dropped again when the task finishes, so neither
//! engine needs the whole workload — the property the streaming/windowed
//! execution path ([`crate::exec::simulate_stream`]) relies on. The
//! hardware engine's memory is bounded by in-flight tasks outright (the DMU
//! has fixed capacity); the software engine additionally keeps its
//! per-address matching map, which grows with distinct addresses and with
//! readers not yet flushed by a writer — the same footprint a real
//! software runtime's dependence hash map has, so prefer a hardware
//! backend for very long read-mostly streams. One observable consequence:
//! the successor count a [`ReadyInfo`] carries is the number of successors
//! *registered so far* at the moment the task is handed to the scheduler
//! (the same semantics the DMU's `get_ready_task` has in hardware), never a
//! whole-program lookahead.

use tdm_core::config::DmuConfig;
use tdm_core::dmu::{Dmu, DmuError, DmuStats, PeakOccupancy};
use tdm_core::ids::{DepAddr, DescriptorAddr, TaskId};
use tdm_sim::clock::Cycle;
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

use crate::cost::CostModel;
use crate::fast_map::FastMap;
use crate::in_flight::InFlight;
use crate::task::{TaskRef, TaskSpec};

/// Base address used to synthesize task-descriptor addresses. Descriptors are
/// spaced one cache line apart so consecutive tasks map to consecutive TAT
/// sets.
const DESCRIPTOR_BASE: u64 = 0x7f00_0000_0000;
/// Spacing between synthesized task descriptors, in bytes.
const DESCRIPTOR_STRIDE: u64 = 64;

/// A task that just became ready, with the successor count the scheduler may
/// want.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyInfo {
    /// The ready task.
    pub task: TaskRef,
    /// Successors registered for it at the time it became ready.
    pub num_successors: u32,
}

/// Result of a (possibly partial) task-creation step on the master thread.
///
/// Tasks that became ready during the call are appended to the `ready`
/// buffer the caller passes in (the created task itself if it had no
/// unsatisfied dependences, plus any tasks drained from the hardware ready
/// queue). The buffer is caller-owned so the execution driver can reuse one
/// allocation across every event of a run instead of allocating a fresh
/// vector per engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreationOutcome {
    /// Cycles the creating core spent in this call (DEPS).
    pub cost: Cycle,
    /// Whether the creation completed. `false` means a DMU structure was
    /// full; the caller must retry (with the same spec) after the next
    /// finish.
    pub completed: bool,
}

/// Snapshot of hardware dependence-tracker state, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareReport {
    /// Operation counts and totals.
    pub stats: DmuStats,
    /// Peak occupancy of every structure.
    pub peak: PeakOccupancy,
    /// Average number of occupied DAT sets (Figure 11 metric).
    pub dat_average_occupied_sets: f64,
    /// Cycles creation was blocked waiting for DMU resources.
    pub stall_cycles: Cycle,
    /// TDM ISA instructions issued.
    pub instructions: u64,
}

/// How dependences are tracked for a run.
///
/// The driver creates tasks strictly in program order, passing each task's
/// [`TaskSpec`] to `create_task` (and passing the *same* spec again when
/// retrying a stalled creation). Both operations *append* newly ready tasks
/// to a caller-owned `ready` buffer instead of returning a fresh vector;
/// callers clear (or drain) the buffer between calls. This keeps the
/// simulate loop allocation-free per event on its hottest path.
///
/// Engines are `Send`: the parallel design-space sweep runner
/// (`tdm_bench::sweep`) executes independent simulation points on worker
/// threads, each owning its own engine. Engines are never shared between
/// threads, so `Sync` is not required.
pub trait DependenceEngine: Send {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Performs (or resumes) the creation of `task` at simulated time `now`,
    /// appending tasks that became ready to `ready`. Tasks must be created
    /// in program order (`task.index()` is consecutive).
    fn create_task(
        &mut self,
        now: Cycle,
        task: TaskRef,
        spec: &TaskSpec,
        ready: &mut Vec<ReadyInfo>,
    ) -> CreationOutcome;

    /// Notifies that the tasks in `finishes` finished at time `now`; each
    /// element pairs a task with the core it ran on. For each finish,
    /// appends the cycles the finishing core spent (DEPS) to `costs`, the
    /// tasks it readied to `ready`, and their `(start, end)` range in
    /// `ready` to `spans`. All three buffers are caller-owned and
    /// append-only; the caller clears them between calls.
    ///
    /// Finishes are processed one at a time at `now`, in slice order, so one
    /// call with several finishes equals one call per finish. The execution
    /// driver passes one finish per call, like the paper's runtime issuing
    /// one `finish_task` per completed task. A failed execution attempt
    /// never reaches the engine: the task stays in flight until a retry
    /// finishes it.
    ///
    /// # Panics
    ///
    /// Panics if a task is not in flight (created and unfinished).
    fn finish_batch(
        &mut self,
        now: Cycle,
        finishes: &[(TaskRef, usize)],
        costs: &mut Vec<Cycle>,
        ready: &mut Vec<ReadyInfo>,
        spans: &mut Vec<(usize, usize)>,
    );

    /// Hardware statistics, if this engine models a hardware tracker.
    fn hardware_report(&self) -> Option<HardwareReport> {
        None
    }

    /// Serializes the engine's dependence-tracking state for a checkpoint
    /// (the `ENGINE` snapshot section).
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores the engine's state from a checkpoint. The receiver must be
    /// freshly built with the same configuration (flavor, DMU geometry, cost
    /// model) the snapshot was taken under.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

// ---------------------------------------------------------------------------
// Software dependence tracking (baseline and Carbon)
// ---------------------------------------------------------------------------

/// Per-address matching state: the last in-flight writer and the readers
/// registered since. Finished tasks are *not* pruned from this map (the
/// software runtime walks its hash-map entries regardless), which keeps the
/// modeled creation-time edge work identical to the reference
/// [`TaskGraph`](crate::tdg::TaskGraph) construction.
#[derive(Debug, Clone, Default)]
struct AddrState {
    last_writer: Option<TaskRef>,
    readers: Vec<TaskRef>,
}

/// State of one created-but-unfinished task.
#[derive(Debug, Clone, Default)]
struct LiveTask {
    /// Unsatisfied predecessor edges (with multiplicity).
    pending_predecessors: u32,
    /// Successor edges registered so far (with multiplicity); walked and
    /// decremented when this task finishes.
    successors: Vec<TaskRef>,
}

/// Software dependence tracking: the runtime system matches dependences and
/// maintains the TDG in memory, paying the software costs of
/// [`CostModel::sw_creation_cost`] / [`CostModel::sw_finish_cost`].
///
/// The graph is built incrementally with the same RAW/WAR/WAW address
/// matching as the reference [`TaskGraph`](crate::tdg::TaskGraph): a task
/// depends on the last writer of each address it touches and, when it
/// writes, on the registered readers. Edges to already-finished tasks are
/// satisfied immediately (they cost the same matching work but add no
/// pending count), and per-task state is dropped at finish, so memory scales
/// with in-flight tasks plus distinct addresses — like the hash-map-based
/// tracker of a real runtime. Per-task state is keyed by the in-flight index
/// span (`InFlight`), so the reader-list probes that dominate fan-out
/// workloads (streamcluster's fork-join phases) are array accesses rather
/// than hash lookups.
#[derive(Debug, Clone)]
pub struct SoftwareEngine {
    name: &'static str,
    cost: CostModel,
    addr_state: FastMap<u64, AddrState>,
    /// Created-but-unfinished tasks; the span ends at the next task to
    /// create.
    live: InFlight<LiveTask>,
}

impl SoftwareEngine {
    /// Builds an empty software engine.
    pub fn new(cost: CostModel) -> Self {
        Self::with_name("software", cost)
    }

    /// Builds a software engine with a custom report name (used by Carbon,
    /// whose dependence tracking is identical to the baseline's).
    pub fn with_name(name: &'static str, cost: CostModel) -> Self {
        SoftwareEngine {
            name,
            cost,
            addr_state: FastMap::default(),
            live: InFlight::default(),
        }
    }

    /// Finishes one in-flight task: wakes its registered successors into
    /// `ready` and returns the finishing core's cost.
    fn finish_one(&mut self, task: TaskRef, ready: &mut Vec<ReadyInfo>) -> Cycle {
        let live = self
            .live
            .remove(task.index())
            .unwrap_or_else(|| panic!("{task} finished before being created, or twice"));
        for &succ in &live.successors {
            let s = self
                .live
                .get_mut(succ.index())
                .expect("successors of an in-flight task are in flight");
            debug_assert!(s.pending_predecessors > 0, "predecessor underflow");
            s.pending_predecessors -= 1;
            if s.pending_predecessors == 0 {
                ready.push(ReadyInfo {
                    task: succ,
                    num_successors: s.successors.len() as u32,
                });
            }
        }
        self.cost.sw_finish_cost(live.successors.len() as u32)
    }
}

impl DependenceEngine for SoftwareEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn create_task(
        &mut self,
        _now: Cycle,
        task: TaskRef,
        spec: &TaskSpec,
        ready: &mut Vec<ReadyInfo>,
    ) -> CreationOutcome {
        let i = task.index();
        assert_eq!(i, self.live.end(), "{task} created out of program order");

        // Match this task's dependences against the address map, mirroring
        // TaskGraph::build edge for edge. `edge_work` counts the matching
        // work performed (last-writer lookups that found an entry plus
        // reader-list elements walked), finished or not — the runtime walks
        // them either way; only *unfinished* sources contribute pending
        // edges.
        let mut edge_work = 0u32;
        let mut pending = 0u32;
        for dep in &spec.deps {
            let state = self.addr_state.entry(dep.addr).or_default();
            // RAW / WAW edge from the last writer.
            if let Some(writer) = state.last_writer {
                if writer != task {
                    edge_work += 1;
                    if let Some(w) = self.live.get_mut(writer.index()) {
                        w.successors.push(task);
                        pending += 1;
                    }
                }
            }
            if dep.direction.writes() {
                // WAR edges from every reader, then take over as writer.
                edge_work += state.readers.len() as u32;
                for &reader in &state.readers {
                    if reader != task {
                        if let Some(r) = self.live.get_mut(reader.index()) {
                            r.successors.push(task);
                            pending += 1;
                        }
                    }
                }
                state.readers.clear();
                state.last_writer = Some(task);
            } else {
                state.readers.push(task);
                edge_work += 1;
            }
        }

        self.live.push(
            i,
            LiveTask {
                pending_predecessors: pending,
                successors: Vec::new(),
            },
        );
        if pending == 0 {
            // No successor can be registered before the task exists, so a
            // task that is ready at creation always reports zero successors
            // (exactly like the DMU's submit-time readiness).
            ready.push(ReadyInfo {
                task,
                num_successors: 0,
            });
        }
        CreationOutcome {
            cost: self.cost.sw_creation_cost(spec.deps.len(), edge_work),
            completed: true,
        }
    }

    fn finish_batch(
        &mut self,
        _now: Cycle,
        finishes: &[(TaskRef, usize)],
        costs: &mut Vec<Cycle>,
        ready: &mut Vec<ReadyInfo>,
        spans: &mut Vec<(usize, usize)>,
    ) {
        for &(task, _core) in finishes {
            let start = ready.len();
            costs.push(self.finish_one(task, ready));
            spans.push((start, ready.len()));
        }
    }

    // Snapshot support. The address map is canonicalized to a key-sorted list
    // (map iteration order is unobservable — see `fast_map`); the live span
    // is written verbatim, then the next task to create (its end).
    fn save_state(&self, out: &mut Vec<u8>) {
        let mut addrs: Vec<(&u64, &AddrState)> = self.addr_state.iter().collect();
        addrs.sort_unstable_by_key(|(addr, _)| **addr);
        (addrs.len() as u64).save(out);
        for (addr, state) in addrs {
            addr.save(out);
            state.last_writer.save(out);
            state.readers.save(out);
        }
        self.live.save(out);
        self.live.end().save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let pairs: Vec<(u64, AddrState)> = Vec::load(r)?;
        let mut addr_state = FastMap::default();
        for (addr, state) in pairs {
            if addr_state.insert(addr, state).is_some() {
                return Err(SnapshotError::Corrupt {
                    context: format!("duplicate address {addr:#x} in software engine map"),
                });
            }
        }
        let live: InFlight<LiveTask> = InFlight::load(r)?;
        let next_create = usize::load(r)?;
        if live.end() != next_create {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "software live span ends at task#{}, but the next task created is \
                     task#{next_create}",
                    live.end()
                ),
            });
        }
        // `finish_one` relies on two more invariants: every registered
        // successor is a live task created later, and each live task waits
        // on as many predecessor edges as the live successor lists name it.
        let mut named = live.map(|_| 0u64);
        for (index, task) in live.iter() {
            for &succ in &task.successors {
                match named.get_mut(succ.index()) {
                    Some(count) if succ.index() > index => *count += 1,
                    _ => {
                        return Err(SnapshotError::Corrupt {
                            context: format!(
                                "software task#{index} lists successor {succ}, which is not \
                                 a live task created after it"
                            ),
                        })
                    }
                }
            }
        }
        for ((index, task), (_, &count)) in live.iter().zip(named.iter()) {
            if u64::from(task.pending_predecessors) != count {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "software task#{index} waits on {} predecessors, but {count} live \
                         successor lists name it",
                        task.pending_predecessors
                    ),
                });
            }
        }
        self.addr_state = addr_state;
        self.live = live;
        Ok(())
    }
}

impl Persist for AddrState {
    fn save(&self, out: &mut Vec<u8>) {
        self.last_writer.save(out);
        self.readers.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(AddrState {
            last_writer: Option::load(r)?,
            readers: Vec::load(r)?,
        })
    }
}

impl Persist for LiveTask {
    fn save(&self, out: &mut Vec<u8>) {
        self.pending_predecessors.save(out);
        self.successors.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(LiveTask {
            pending_predecessors: u32::load(r)?,
            successors: Vec::load(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Hardware dependence tracking (TDM's DMU, also reused for Task Superscalar)
// ---------------------------------------------------------------------------

/// State of a task creation interrupted by a DMU stall, so the retry resumes
/// where it left off instead of re-issuing completed instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingCreation {
    task: TaskRef,
    created: bool,
    next_dep: usize,
}

/// Which hardware tracker flavour this engine models; the DMU mechanics are
/// shared, only the report name and descriptor-allocation cost differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareFlavor {
    /// TDM: DMU tracks dependences, scheduling stays in software.
    Tdm,
    /// Task Superscalar: dependence tracking and scheduling both in hardware.
    TaskSuperscalar,
}

/// The descriptor of an in-flight hardware-tracked task: its slot in the
/// descriptor allocator, and the task ID the DMU's `create_task` returned
/// (`None` until that instruction completes).
#[derive(Debug, Clone, Copy)]
struct Descriptor {
    slot: u64,
    id: Option<TaskId>,
}

/// The task-descriptor address of descriptor slot `slot`.
fn descriptor_addr(slot: u64) -> DescriptorAddr {
    DescriptorAddr(DESCRIPTOR_BASE + slot * DESCRIPTOR_STRIDE)
}

/// Hardware dependence tracking backed by a cycle-costed [`Dmu`] model.
///
/// The engine holds no per-workload state: task specs arrive one at a time
/// through `create_task` and the only memory that scales with the run is the
/// descriptor of each *in-flight* task (plus the fixed-capacity DMU itself),
/// so arbitrarily long task streams run in bounded space. The descriptors
/// are kept over the in-flight index span (`InFlight`) with the task ID
/// the DMU returned, so every instruction after `create_task` is issued by
/// ID: the engine resolves no descriptor through a hash map or the TAT.
#[derive(Debug, Clone)]
pub struct HardwareEngine {
    flavor: HardwareFlavor,
    dmu: Dmu,
    cost: CostModel,
    noc_round_trip: Cycle,
    /// Time at which the (sequential) DMU becomes free.
    dmu_free_at: Cycle,
    pending: Option<PendingCreation>,
    stall_cycles: Cycle,
    instructions: u64,
    /// Descriptor-slot allocator. Real task descriptors are heap objects that
    /// the runtime's allocator recycles, so the set of live descriptor
    /// addresses stays compact; modelling that keeps the TAT's set-index
    /// behaviour realistic for long runs.
    free_slots: Vec<u64>,
    next_slot: u64,
    /// Descriptor of each in-flight task, by task index.
    descriptors: InFlight<Descriptor>,
    /// Task owning each slot (bounded by peak in-flight tasks).
    slot_owner: Vec<usize>,
    /// Reusable scratch buffer for the DMU's woken lists.
    woken_buf: Vec<TaskId>,
    /// Reusable scratch for the per-dependence access counters returned by
    /// the batched `Dmu::add_dependences_by_id`.
    dep_counters: Vec<tdm_core::access::AccessCounter>,
}

impl HardwareEngine {
    /// Builds a hardware engine with the given DMU geometry.
    pub fn new(
        flavor: HardwareFlavor,
        dmu_config: DmuConfig,
        cost: CostModel,
        noc_round_trip: Cycle,
    ) -> Self {
        HardwareEngine {
            flavor,
            dmu: Dmu::new(dmu_config),
            cost,
            noc_round_trip,
            dmu_free_at: Cycle::ZERO,
            pending: None,
            stall_cycles: Cycle::ZERO,
            instructions: 0,
            free_slots: Vec::new(),
            next_slot: 0,
            descriptors: InFlight::default(),
            slot_owner: Vec::new(),
            woken_buf: Vec::new(),
            dep_counters: Vec::new(),
        }
    }

    /// Allocates a descriptor slot for `task`, the next task in program
    /// order, and returns it.
    fn allocate_descriptor(&mut self, task: TaskRef) -> u64 {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        self.descriptors
            .push(task.index(), Descriptor { slot, id: None });
        if self.slot_owner.len() <= slot as usize {
            self.slot_owner.resize(slot as usize + 1, usize::MAX);
        }
        self.slot_owner[slot as usize] = task.index();
        slot
    }

    /// Reverse-maps a descriptor address handed back by the DMU to its task.
    fn task_of(&self, desc: DescriptorAddr) -> TaskRef {
        let slot = ((desc.raw() - DESCRIPTOR_BASE) / DESCRIPTOR_STRIDE) as usize;
        TaskRef(self.slot_owner[slot])
    }

    /// Issues `task`'s `finish_task` at `now` and releases its descriptor
    /// slot, returning the cycles the finishing core spent so far; the
    /// caller drains the Ready Queue after it.
    fn finish_on_dmu(&mut self, now: Cycle, task: TaskRef, woken: &mut Vec<TaskId>) -> Cycle {
        let Descriptor { slot, id } = self
            .descriptors
            .remove(task.index())
            .unwrap_or_else(|| panic!("{task} finished before being created, or twice"));
        let id = id.unwrap_or_else(|| panic!("{task} finished before the DMU created it"));
        let result = self.dmu.finish_task_into_by_id(id, woken);
        self.free_slots.push(slot);
        self.charge_instruction(now, result.cost(self.dmu.access_latency()))
    }

    /// Charges one TDM instruction issued at local time `at`: issue overhead,
    /// NoC round trip, waiting for the DMU to become free and the DMU
    /// processing time for `accesses` accesses. Returns the cycles consumed
    /// on the issuing core.
    fn charge_instruction(&mut self, at: Cycle, processing: Cycle) -> Cycle {
        self.instructions += 1;
        let overhead = self.cost.tdm_instr_overhead(self.noc_round_trip);
        let arrival = at + overhead;
        let start = arrival.max(self.dmu_free_at);
        self.dmu_free_at = start + processing;
        let queueing = start - arrival;
        overhead + queueing + processing
    }

    /// Charges a stalled instruction attempt (the request travelled to the
    /// DMU, which could not make progress).
    fn charge_stalled_attempt(&mut self, at: Cycle) -> Cycle {
        self.instructions += 1;
        let overhead = self.cost.tdm_instr_overhead(self.noc_round_trip);
        let probe = self.dmu.access_latency();
        let arrival = at + overhead;
        let start = arrival.max(self.dmu_free_at);
        self.dmu_free_at = start + probe;
        overhead + (start - arrival) + probe
    }

    /// Drains the DMU ready queue into `ready`, charging one `get_ready_task`
    /// instruction per attempt (including the final empty one), mirroring the
    /// runtime's polling loop.
    fn drain_ready(&mut self, mut at: Cycle, cost: &mut Cycle, ready: &mut Vec<ReadyInfo>) {
        loop {
            let result = self.dmu.get_ready_task();
            let spent = self.charge_instruction(at, result.cost(self.dmu.access_latency()));
            *cost += spent;
            at += spent;
            match result.value {
                Some(t) => {
                    ready.push(ReadyInfo {
                        task: self.task_of(t.descriptor),
                        num_successors: t.num_successors,
                    });
                }
                None => break,
            }
        }
    }

    fn alloc_cost(&self) -> Cycle {
        match self.flavor {
            HardwareFlavor::Tdm => self.cost.tdm_task_alloc,
            HardwareFlavor::TaskSuperscalar => self.cost.tss_task_alloc,
        }
    }
}

impl DependenceEngine for HardwareEngine {
    fn name(&self) -> &'static str {
        match self.flavor {
            HardwareFlavor::Tdm => "tdm",
            HardwareFlavor::TaskSuperscalar => "task-superscalar",
        }
    }

    fn create_task(
        &mut self,
        now: Cycle,
        task: TaskRef,
        spec: &TaskSpec,
        ready: &mut Vec<ReadyInfo>,
    ) -> CreationOutcome {
        let latency = self.dmu.access_latency();
        let mut cost = Cycle::ZERO;

        let (mut pending, descriptor) = match self.pending.take() {
            Some(p) => {
                assert_eq!(p.task, task, "resumed creation of a different task");
                let descriptor = self
                    .descriptors
                    .get(task.index())
                    .expect("a stalled creation keeps its descriptor");
                (p, *descriptor)
            }
            None => {
                // Descriptor allocation happens in software before the first
                // TDM instruction.
                cost += self.alloc_cost();
                let slot = self.allocate_descriptor(task);
                let pending = PendingCreation {
                    task,
                    created: false,
                    next_dep: 0,
                };
                (pending, Descriptor { slot, id: None })
            }
        };

        let id = match descriptor.id {
            Some(id) => id,
            None => match self.dmu.create_task(descriptor_addr(descriptor.slot)) {
                Ok(r) => {
                    cost += self.charge_instruction(now + cost, r.cost(latency));
                    pending.created = true;
                    self.descriptors
                        .get_mut(task.index())
                        .expect("the task being created holds a descriptor")
                        .id = Some(r.value);
                    r.value
                }
                Err(DmuError::Stall(_)) => {
                    cost += self.charge_stalled_attempt(now + cost);
                    self.stall_cycles += cost;
                    self.pending = Some(pending);
                    return CreationOutcome {
                        cost,
                        completed: false,
                    };
                }
                Err(e) => panic!("unexpected DMU error during create: {e}"),
            },
        };

        if pending.next_dep < spec.deps.len() {
            // Hand the DMU the whole remaining dependence batch, and each
            // applied dependence returns its per-op access counter. Charges
            // replay in op order below; `charge_instruction` depends only on
            // its own (time, processing) sequence, never on DMU table state,
            // so charging after the batch applied is arithmetic-identical to
            // charging between per-op `add_dependence` calls.
            let mut counters = std::mem::take(&mut self.dep_counters);
            counters.clear();
            let remaining = spec.deps[pending.next_dep..]
                .iter()
                .map(|dep| (DepAddr(dep.addr), dep.size, dep.direction));
            let outcome = self.dmu.add_dependences_by_id(id, remaining, &mut counters);
            for counter in &counters {
                cost += self.charge_instruction(now + cost, counter.cost(latency));
            }
            pending.next_dep += counters.len();
            self.dep_counters = counters;
            match outcome {
                Ok(()) => {}
                Err(DmuError::Stall(_)) => {
                    cost += self.charge_stalled_attempt(now + cost);
                    self.stall_cycles += cost;
                    self.pending = Some(pending);
                    // Ready tasks may already be sitting in the queue; expose
                    // them so workers are not starved while the master waits.
                    self.drain_ready(now + cost, &mut cost, ready);
                    return CreationOutcome {
                        cost,
                        completed: false,
                    };
                }
                Err(e) => panic!("unexpected DMU error during add_dependence: {e}"),
            }
        }

        let submit = self.dmu.submit_task_by_id(id);
        cost += self.charge_instruction(now + cost, submit.cost(latency));

        self.drain_ready(now + cost, &mut cost, ready);
        CreationOutcome {
            cost,
            completed: true,
        }
    }

    /// Each finish issues its own `finish_task` instruction at `now` and
    /// drains the ready queue after it. The woken list is reported through
    /// that drain; the reusable buffer only avoids a per-finish allocation.
    fn finish_batch(
        &mut self,
        now: Cycle,
        finishes: &[(TaskRef, usize)],
        costs: &mut Vec<Cycle>,
        ready: &mut Vec<ReadyInfo>,
        spans: &mut Vec<(usize, usize)>,
    ) {
        let mut woken = std::mem::take(&mut self.woken_buf);
        for &(task, _core) in finishes {
            let start = ready.len();
            let mut cost = self.finish_on_dmu(now, task, &mut woken);
            self.drain_ready(now + cost, &mut cost, ready);
            costs.push(cost);
            spans.push((start, ready.len()));
        }
        self.woken_buf = woken;
    }

    fn hardware_report(&self) -> Option<HardwareReport> {
        Some(HardwareReport {
            stats: self.dmu.stats(),
            peak: self.dmu.peak_occupancy(),
            dat_average_occupied_sets: self.dmu.dat_average_occupied_sets(),
            stall_cycles: self.stall_cycles,
            instructions: self.instructions,
        })
    }

    // Snapshot support. The DMU serializes itself (tables, list arrays,
    // ready queue, counters); around it go the engine's timing state, the
    // interrupted-creation resume point and the descriptor-slot allocator.
    // The free-slot stack is written verbatim (it is popped LIFO, so its
    // order is observable through TAT set indices); the descriptors are
    // written as the span of their slots, and load derives each task ID from
    // the TAT. `woken_buf`/`dep_counters` are per-operation scratch, empty
    // between operations, and are not saved. The section opens with a
    // retired byte, always `false`: it recorded the per-operation DMU mode,
    // which is gone.
    fn save_state(&self, out: &mut Vec<u8>) {
        false.save(out);
        self.dmu.save(out);
        self.dmu_free_at.save(out);
        self.pending.save(out);
        self.stall_cycles.save(out);
        self.instructions.save(out);
        self.free_slots.save(out);
        self.next_slot.save(out);
        self.descriptors.map(|d| d.slot).save(out);
        self.slot_owner.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        if bool::load(r)? {
            return Err(SnapshotError::Corrupt {
                context: "hardware ENGINE section records the retired per-op DMU mode".to_string(),
            });
        }
        let dmu = Dmu::load(r)?;
        if dmu.config() != self.dmu.config() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "hardware ENGINE section holds a DMU configured as {:?}, but META's backend \
                     configures {:?}",
                    dmu.config(),
                    self.dmu.config()
                ),
            });
        }
        let dmu_free_at = Cycle::load(r)?;
        let pending = Option::load(r)?;
        let stall_cycles = Cycle::load(r)?;
        let instructions = u64::load(r)?;
        let free_slots: Vec<u64> = Vec::load(r)?;
        let next_slot = u64::load(r)?;
        let slots: InFlight<u64> = InFlight::load(r)?;
        let slot_owner: Vec<usize> = Vec::load(r)?;
        let descriptors =
            restore_descriptors(&dmu, pending, &free_slots, next_slot, &slots, &slot_owner)?;
        self.dmu = dmu;
        self.dmu_free_at = dmu_free_at;
        self.pending = pending;
        self.stall_cycles = stall_cycles;
        self.instructions = instructions;
        self.free_slots = free_slots;
        self.next_slot = next_slot;
        self.descriptors = descriptors;
        self.slot_owner = slot_owner;
        Ok(())
    }
}

/// How a restored descriptor slot is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotUse {
    Unseen,
    Free,
    Mapped,
}

/// Rebuilds the in-flight descriptors from a snapshot's slot span, deriving
/// each task ID from the TAT, and refuses a span that the allocator or the
/// DMU contradicts:
/// - every slot below `next_slot` is free or mapped, and only once;
/// - a mapped slot's recorded owner is its task;
/// - a mapped slot's descriptor is live in the TAT, except for the stalled
///   creation whose `create_task` has not completed, and no other;
/// - every live TAT task is named by a mapped slot;
/// - a stalled creation's task is the newest task of the span.
fn restore_descriptors(
    dmu: &Dmu,
    pending: Option<PendingCreation>,
    free_slots: &[u64],
    next_slot: u64,
    slots: &InFlight<u64>,
    slot_owner: &[usize],
) -> Result<InFlight<Descriptor>, SnapshotError> {
    let corrupt = |context: String| SnapshotError::Corrupt { context };
    if slot_owner.len() as u64 != next_slot {
        return Err(corrupt(format!(
            "the descriptor allocator handed out {next_slot} slots but records owners for {}",
            slot_owner.len()
        )));
    }
    let mut uses = vec![SlotUse::Unseen; slot_owner.len()];
    for &slot in free_slots {
        match usize::try_from(slot).ok().and_then(|s| uses.get_mut(s)) {
            Some(used @ SlotUse::Unseen) => *used = SlotUse::Free,
            Some(_) => return Err(corrupt(format!("descriptor slot {slot} is free twice"))),
            None => {
                return Err(corrupt(format!(
                    "free descriptor slot {slot} is at or past the {next_slot} slots handed out"
                )))
            }
        }
    }
    let uncreated = pending.filter(|p| !p.created).map(|p| p.task);
    let descriptors = slots.try_map(|index, &slot| {
        let task = TaskRef(index);
        let problem = match usize::try_from(slot).ok().and_then(|s| uses.get_mut(s)) {
            None => format!("at or past the {next_slot} slots handed out"),
            Some(SlotUse::Free) => "which is also free".to_string(),
            Some(SlotUse::Mapped) => "which another task maps too".to_string(),
            Some(used) => {
                *used = SlotUse::Mapped;
                let owner = slot_owner[slot as usize];
                let id = dmu.lookup_task(descriptor_addr(slot));
                match (id, uncreated == Some(task)) {
                    _ if owner != index => format!("whose recorded owner is task#{owner}"),
                    (None, false) => "whose descriptor is not live in the TAT".to_string(),
                    (Some(_), true) => "whose descriptor is live in the TAT, though its creation \
                         has not reached the DMU"
                        .to_string(),
                    _ => return Ok(Descriptor { slot, id }),
                }
            }
        };
        Err(corrupt(format!(
            "{task} maps descriptor slot {slot}, {problem}"
        )))
    })?;
    if let Some(slot) = uses.iter().position(|&used| used == SlotUse::Unseen) {
        return Err(corrupt(format!(
            "descriptor slot {slot} is neither free nor mapped"
        )));
    }
    let named = descriptors.iter().filter(|(_, d)| d.id.is_some()).count();
    if named != dmu.live_tasks() {
        return Err(corrupt(format!(
            "the TAT holds {} live tasks, but mapped descriptor slots name {named}",
            dmu.live_tasks()
        )));
    }
    if let Some(p) = pending {
        let index = p.task.index();
        if !descriptors.holds(index) || descriptors.end() != index + 1 {
            return Err(corrupt(format!(
                "the stalled creation of {} is not the newest task holding a descriptor slot",
                p.task
            )));
        }
    }
    Ok(descriptors)
}

impl Persist for PendingCreation {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.created.save(out);
        self.next_dep.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(PendingCreation {
            task: TaskRef::load(r)?,
            created: bool::load(r)?,
            next_dep: usize::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{DependenceSpec, Workload};
    use crate::tdg::TaskGraph;
    use std::collections::VecDeque;
    use tdm_sim::snapshot::FORMAT_VERSION;

    fn chain_workload(n: usize) -> Workload {
        Workload::new(
            "chain",
            (0..n)
                .map(|_| {
                    TaskSpec::new(
                        "step",
                        Cycle::new(1000),
                        vec![DependenceSpec::inout(0xA000, 4096)],
                    )
                })
                .collect(),
        )
    }

    fn fork_join_workload() -> Workload {
        let mut tasks = vec![TaskSpec::new(
            "root",
            Cycle::new(1000),
            vec![DependenceSpec::output(0x1000, 4096)],
        )];
        for i in 0..4 {
            tasks.push(TaskSpec::new(
                "leaf",
                Cycle::new(1000),
                vec![
                    DependenceSpec::input(0x1000, 4096),
                    DependenceSpec::output(0x2000 + i * 4096, 4096),
                ],
            ));
        }
        Workload::new("forkjoin", tasks)
    }

    /// Finishes `task` at `now` as a one-element batch, appending the tasks
    /// it readied to `ready` and returning the finishing core's cost.
    fn finish(
        engine: &mut dyn DependenceEngine,
        now: Cycle,
        task: TaskRef,
        ready: &mut Vec<ReadyInfo>,
    ) -> Cycle {
        let mut costs = Vec::new();
        engine.finish_batch(now, &[(task, 0)], &mut costs, ready, &mut Vec::new());
        costs[0]
    }

    fn run_engine_to_completion(
        engine: &mut dyn DependenceEngine,
        workload: &Workload,
    ) -> Vec<TaskRef> {
        // Create everything (retrying stalls), executing ready tasks
        // immediately in FIFO order; returns the completion order.
        let n = workload.len();
        let mut order = Vec::new();
        let mut pool: VecDeque<ReadyInfo> = VecDeque::new();
        let mut ready = Vec::new();
        let mut next = 0usize;
        let mut now = Cycle::ZERO;
        while order.len() < n {
            if next < n {
                ready.clear();
                let outcome =
                    engine.create_task(now, TaskRef(next), &workload.tasks[next], &mut ready);
                pool.extend(ready.drain(..));
                now += outcome.cost;
                if outcome.completed {
                    next += 1;
                    continue;
                }
                // Stalled: fall through to execute something so resources free up.
            }
            let Some(info) = pool.pop_front() else {
                panic!(
                    "no ready task but {} of {} still unfinished",
                    n - order.len(),
                    n
                );
            };
            ready.clear();
            now += finish(engine, now, info.task, &mut ready);
            pool.extend(ready.drain(..));
            order.push(info.task);
        }
        order
    }

    /// Creates all tasks of `workload` on `engine` at time zero, collecting
    /// the tasks reported ready.
    fn create_all(engine: &mut dyn DependenceEngine, workload: &Workload) -> Vec<ReadyInfo> {
        let mut ready = Vec::new();
        for (task, spec) in workload.iter() {
            engine.create_task(Cycle::ZERO, task, spec, &mut ready);
        }
        ready
    }

    #[test]
    fn software_engine_matches_graph_for_chain() {
        let w = chain_workload(10);
        let mut e = SoftwareEngine::new(CostModel::default());
        let graph = TaskGraph::build(&w);
        let order = run_engine_to_completion(&mut e, &w);
        assert!(graph.check_order(&order).is_ok());
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn hardware_engine_matches_graph_for_chain() {
        let w = chain_workload(10);
        let mut e = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let graph = TaskGraph::build(&w);
        let order = run_engine_to_completion(&mut e, &w);
        assert!(graph.check_order(&order).is_ok());
    }

    #[test]
    fn engines_agree_on_fork_join_readiness() {
        let w = fork_join_workload();
        let mut sw = SoftwareEngine::new(CostModel::default());
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let sw_ready = create_all(&mut sw, &w);
        let hw_ready = create_all(&mut hw, &w);
        // Only the root is ready on both.
        assert_eq!(sw_ready.len(), 1);
        assert_eq!(hw_ready.len(), 1);
        assert_eq!(sw_ready[0].task, TaskRef(0));
        assert_eq!(hw_ready[0].task, TaskRef(0));
        // Finishing the root readies all four leaves on both.
        let mut sw_fin = Vec::new();
        let mut hw_fin = Vec::new();
        finish(&mut sw, Cycle::ZERO, TaskRef(0), &mut sw_fin);
        finish(&mut hw, Cycle::ZERO, TaskRef(0), &mut hw_fin);
        let mut sw_tasks: Vec<usize> = sw_fin.iter().map(|r| r.task.index()).collect();
        let mut hw_tasks: Vec<usize> = hw_fin.iter().map(|r| r.task.index()).collect();
        sw_tasks.sort_unstable();
        hw_tasks.sort_unstable();
        assert_eq!(sw_tasks, vec![1, 2, 3, 4]);
        assert_eq!(hw_tasks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn successor_counts_reflect_registrations_so_far() {
        // Both engines report the successor count registered *at hand-off*:
        // a task ready at creation has no successors yet (none of them exist),
        // and a leaf readied by the root's finish has zero (nothing depends
        // on it) — identical semantics in software and hardware.
        let w = fork_join_workload();
        let mut sw = SoftwareEngine::new(CostModel::default());
        let sw_ready = create_all(&mut sw, &w);
        assert_eq!(sw_ready[0].num_successors, 0);
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        create_all(&mut hw, &w);
        let mut sw_fin = Vec::new();
        let mut hw_fin = Vec::new();
        finish(&mut sw, Cycle::ZERO, TaskRef(0), &mut sw_fin);
        finish(&mut hw, Cycle::ZERO, TaskRef(0), &mut hw_fin);
        assert!(sw_fin.iter().all(|r| r.num_successors == 0));
        assert!(hw_fin.iter().all(|r| r.num_successors == 0));
    }

    #[test]
    fn software_successor_counts_grow_with_registrations() {
        // A producer finished after consumers were created reports the edges
        // registered by then: consumer 1 becomes ready carrying the count of
        // successors *it* accumulated so far (zero), while a chain head that
        // readies its tail sees the tail's registered successor.
        let w = chain_workload(3);
        let mut sw = SoftwareEngine::new(CostModel::default());
        create_all(&mut sw, &w);
        let mut fin = Vec::new();
        finish(&mut sw, Cycle::ZERO, TaskRef(0), &mut fin);
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].task, TaskRef(1));
        // Task 1's successor (task 2) was registered during creation.
        assert_eq!(fin[0].num_successors, 1);
    }

    #[test]
    fn software_creation_cost_scales_with_dependences() {
        let w = fork_join_workload();
        let mut e = SoftwareEngine::new(CostModel::default());
        let mut ready = Vec::new();
        let root_cost = e
            .create_task(Cycle::ZERO, TaskRef(0), &w.tasks[0], &mut ready)
            .cost;
        let leaf_cost = e
            .create_task(Cycle::ZERO, TaskRef(1), &w.tasks[1], &mut ready)
            .cost;
        assert!(
            leaf_cost > root_cost,
            "2-dep leaf should cost more than 1-dep root"
        );
    }

    #[test]
    fn software_finish_cost_scales_with_registered_successors() {
        let w = fork_join_workload();
        let mut root_only = SoftwareEngine::new(CostModel::default());
        let mut ready = Vec::new();
        root_only.create_task(Cycle::ZERO, TaskRef(0), &w.tasks[0], &mut ready);
        let bare = finish(&mut root_only, Cycle::ZERO, TaskRef(0), &mut ready);

        let mut full = SoftwareEngine::new(CostModel::default());
        create_all(&mut full, &w);
        ready.clear();
        let loaded = finish(&mut full, Cycle::ZERO, TaskRef(0), &mut ready);
        assert!(
            loaded > bare,
            "waking 4 registered successors ({loaded}) must cost more than waking none ({bare})"
        );
    }

    #[test]
    fn software_edge_work_matches_reference_graph() {
        // The incremental matcher must charge exactly the creation edge work
        // the whole-program reference graph reports, per task.
        let mut tasks = vec![TaskSpec::new(
            "w",
            Cycle::new(100),
            vec![DependenceSpec::output(0x1, 64)],
        )];
        for _ in 0..5 {
            tasks.push(TaskSpec::new(
                "r",
                Cycle::new(100),
                vec![DependenceSpec::input(0x1, 64)],
            ));
        }
        tasks.push(TaskSpec::new(
            "w2",
            Cycle::new(100),
            vec![DependenceSpec::output(0x1, 64)],
        ));
        let w = Workload::new("readers", tasks);
        let graph = TaskGraph::build(&w);
        let cost = CostModel::default();
        let mut e = SoftwareEngine::new(cost.clone());
        let mut ready = Vec::new();
        for (task, spec) in w.iter() {
            let got = e.create_task(Cycle::ZERO, task, spec, &mut ready).cost;
            let want = cost.sw_creation_cost(spec.deps.len(), graph.creation_edge_work(task));
            assert_eq!(got, want, "{task}");
        }
    }

    #[test]
    fn hardware_creation_is_much_cheaper_than_software() {
        let w = chain_workload(20);
        let cost = CostModel::default();
        let mut sw = SoftwareEngine::new(cost.clone());
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            cost,
            Cycle::new(16),
        );
        let mut ready = Vec::new();
        let sw_cost = sw
            .create_task(Cycle::ZERO, TaskRef(0), &w.tasks[0], &mut ready)
            .cost;
        let hw_cost = hw
            .create_task(Cycle::ZERO, TaskRef(0), &w.tasks[0], &mut ready)
            .cost;
        assert!(
            hw_cost.raw() * 2 < sw_cost.raw(),
            "TDM creation ({hw_cost}) should be far cheaper than software ({sw_cost})"
        );
    }

    #[test]
    fn hardware_engine_stalls_and_recovers_with_tiny_dmu() {
        let w = chain_workload(40);
        let config = DmuConfig {
            tat_entries: 8,
            tat_ways: 8,
            dat_entries: 8,
            dat_ways: 8,
            successor_la_entries: 8,
            dependence_la_entries: 8,
            reader_la_entries: 8,
            ..DmuConfig::default()
        };
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            config,
            CostModel::default(),
            Cycle::new(16),
        );
        let graph = TaskGraph::build(&w);
        let order = run_engine_to_completion(&mut hw, &w);
        assert!(graph.check_order(&order).is_ok());
        let report = hw.hardware_report().unwrap();
        assert!(report.stats.stalls > 0, "the tiny DMU must stall");
        assert!(report.stall_cycles > Cycle::ZERO);
    }

    #[test]
    fn dmu_serialization_adds_queueing_delay() {
        let w = chain_workload(4);
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default().with_access_latency(Cycle::new(16)),
            CostModel::default(),
            Cycle::new(16),
        );
        // Two creations issued at the same instant: the second waits for the
        // DMU to finish processing the first.
        let mut ready = Vec::new();
        let c0 = hw
            .create_task(Cycle::ZERO, TaskRef(0), &w.tasks[0], &mut ready)
            .cost;
        let c1 = hw
            .create_task(Cycle::ZERO, TaskRef(1), &w.tasks[1], &mut ready)
            .cost;
        assert!(
            c1 >= c0,
            "second creation at the same time must queue behind the first"
        );
    }

    #[test]
    fn engine_memory_is_bounded_by_in_flight_tasks() {
        // Run a long chain through both engines one task at a time; neither
        // may accumulate per-task state for finished tasks.
        let n = 200;
        let w = chain_workload(n);
        let mut sw = SoftwareEngine::new(CostModel::default());
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let mut ready = Vec::new();
        for (task, spec) in w.iter() {
            ready.clear();
            sw.create_task(Cycle::ZERO, task, spec, &mut ready);
            hw.create_task(Cycle::ZERO, task, spec, &mut ready);
            ready.clear();
            finish(&mut sw, Cycle::ZERO, task, &mut ready);
            finish(&mut hw, Cycle::ZERO, task, &mut ready);
            assert!(sw.live.len() <= 1, "software live set leaked");
            assert!(hw.descriptors.len() <= 1, "descriptor slots leaked");
        }
        // Recycled descriptor slots: the allocator never grew past the peak
        // in-flight count.
        assert!(hw.next_slot <= 2, "slots not recycled: {}", hw.next_slot);
    }

    #[test]
    fn software_engine_snapshot_round_trips_mid_run() {
        let w = fork_join_workload();
        let mut original = SoftwareEngine::new(CostModel::default());
        let mut ready = Vec::new();
        for (task, spec) in w.iter().take(3) {
            original.create_task(Cycle::ZERO, task, spec, &mut ready);
        }
        ready.clear();
        finish(&mut original, Cycle::ZERO, TaskRef(0), &mut ready);

        let mut bytes = Vec::new();
        original.save_state(&mut bytes);
        let mut restored = SoftwareEngine::new(CostModel::default());
        let mut reader = Reader::new(&bytes);
        restored.load_state(&mut reader).unwrap();
        reader.expect_end("software engine").unwrap();

        // Identical behaviour from the restore point on.
        for engine in [&mut original, &mut restored] {
            ready.clear();
            for (task, spec) in w.iter().skip(3) {
                engine.create_task(Cycle::ZERO, task, spec, &mut ready);
            }
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        let ca = finish(&mut original, Cycle::ZERO, TaskRef(1), &mut a);
        let cb = finish(&mut restored, Cycle::ZERO, TaskRef(1), &mut b);
        assert_eq!(ca, cb);
        assert_eq!(a, b);
    }

    /// Hostile mid-run states, each written by `save_state` and refused by
    /// `load_state`. Loaded, the first would panic in `finish_one` when task
    /// 1 finishes; the others would leave a task waiting forever or
    /// underflow its pending count.
    #[test]
    fn software_load_refuses_successor_lists_the_live_slab_contradicts() {
        // Fork-join with the root finished: tasks 1..=4 are live, each with
        // no successors. Finishing task 2 leaves a hole in the span.
        let w = fork_join_workload();
        let mut engine = SoftwareEngine::new(CostModel::default());
        let mut ready = create_all(&mut engine, &w);
        finish(&mut engine, Cycle::ZERO, TaskRef(0), &mut ready);
        finish(&mut engine, Cycle::ZERO, TaskRef(2), &mut ready);
        // A chain of four, all created: each task waits on the one before.
        let chain = chain_workload(4);
        let mut chained = SoftwareEngine::new(CostModel::default());
        create_all(&mut chained, &chain);

        type Edit = fn(&mut InFlight<LiveTask>);
        let cases: [(&SoftwareEngine, Edit, &str); 5] = [
            // Task 2 has finished.
            (
                &engine,
                |slab| slab.get_mut(1).unwrap().successors.push(TaskRef(2)),
                "task#2",
            ),
            // Task 9 has not been created.
            (
                &engine,
                |slab| slab.get_mut(1).unwrap().successors.push(TaskRef(9)),
                "task#9",
            ),
            // A successor created before its predecessor.
            (
                &chained,
                |slab| slab.get_mut(2).unwrap().successors = vec![TaskRef(1)],
                "task#1",
            ),
            // One pending edge too many, and one too few.
            (
                &chained,
                |slab| slab.get_mut(3).unwrap().pending_predecessors = 2,
                "waits on 2",
            ),
            (
                &chained,
                |slab| slab.get_mut(3).unwrap().pending_predecessors = 0,
                "waits on 0",
            ),
        ];
        for (original, edit, names) in cases {
            let mut hostile = original.clone();
            edit(&mut hostile.live);
            let mut bytes = Vec::new();
            hostile.save_state(&mut bytes);
            let mut restored = SoftwareEngine::new(CostModel::default());
            let err = restored
                .load_state(&mut Reader::new(&bytes))
                .expect_err(names);
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(names), "{err}");
        }
        // The unedited states still load.
        for original in [&engine, &chained] {
            let mut bytes = Vec::new();
            original.save_state(&mut bytes);
            let mut restored = SoftwareEngine::new(CostModel::default());
            restored.load_state(&mut Reader::new(&bytes)).unwrap();
        }
    }

    #[test]
    fn hardware_engine_snapshot_round_trips_mid_stall() {
        // A tiny DMU so creation stalls mid-task: the snapshot must carry the
        // interrupted-creation resume point and the DMU timing state.
        let w = chain_workload(40);
        let config = DmuConfig {
            tat_entries: 8,
            tat_ways: 8,
            dat_entries: 8,
            dat_ways: 8,
            successor_la_entries: 8,
            dependence_la_entries: 8,
            reader_la_entries: 8,
            ..DmuConfig::default()
        };
        let build = || {
            HardwareEngine::new(
                HardwareFlavor::Tdm,
                config.clone(),
                CostModel::default(),
                Cycle::new(16),
            )
        };
        let mut original = build();
        let mut pool: VecDeque<ReadyInfo> = VecDeque::new();
        let mut ready = Vec::new();
        let mut now = Cycle::ZERO;
        let mut next = 0usize;
        // Create until the first stall so `pending` is Some.
        loop {
            ready.clear();
            let outcome = original.create_task(now, TaskRef(next), &w.tasks[next], &mut ready);
            pool.extend(ready.drain(..));
            now += outcome.cost;
            if !outcome.completed {
                break;
            }
            next += 1;
        }
        assert!(original.pending.is_some(), "creation must have stalled");

        let mut bytes = Vec::new();
        original.save_state(&mut bytes);
        let mut restored = build();
        let mut reader = Reader::new(&bytes);
        restored.load_state(&mut reader).unwrap();
        reader.expect_end("hardware engine").unwrap();
        assert_eq!(original.pending, restored.pending);
        assert_eq!(original.dmu_free_at, restored.dmu_free_at);

        // Drive both to completion identically.
        let graph = TaskGraph::build(&w);
        for engine in [&mut original, &mut restored] {
            let mut pool = pool.clone();
            let mut order: Vec<TaskRef> = Vec::new();
            let mut next = next;
            let mut now = now;
            while order.len() < w.len() {
                if next < w.len() {
                    ready.clear();
                    let outcome =
                        engine.create_task(now, TaskRef(next), &w.tasks[next], &mut ready);
                    pool.extend(ready.drain(..));
                    now += outcome.cost;
                    if outcome.completed {
                        next += 1;
                        continue;
                    }
                }
                let info = pool.pop_front().expect("a ready task must exist");
                ready.clear();
                now += finish(engine, now, info.task, &mut ready);
                pool.extend(ready.drain(..));
                order.push(info.task);
            }
            assert!(graph.check_order(&order).is_ok());
        }
        assert_eq!(
            original.hardware_report().unwrap(),
            restored.hardware_report().unwrap()
        );
    }

    #[test]
    fn hardware_load_rejects_mismatched_per_op_mode() {
        // The section's leading byte is the retired per-op DMU mode: always
        // written 0, and a snapshot recording the mode (1) is corrupt.
        let build = || {
            HardwareEngine::new(
                HardwareFlavor::Tdm,
                DmuConfig::default(),
                CostModel::default(),
                Cycle::new(16),
            )
        };
        let mut bytes = Vec::new();
        build().save_state(&mut bytes);
        assert_eq!(bytes[0], 0);
        build().load_state(&mut Reader::new(&bytes)).unwrap();
        bytes[0] = 1;
        let err = build().load_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "got: {err}");
        assert!(err.to_string().contains("per-op"), "got: {err}");
    }

    /// The hardware state the pinned-bytes test saves, just before task 2
    /// finishes: a Dependence Table row freed between two live ones, a
    /// successor list chained over two SLA entries, and a creation stalled
    /// on a full TAT set. Returns the engine and its configuration.
    fn hardware_state_before_pinned_finish() -> (HardwareEngine, DmuConfig, Cycle) {
        let config = DmuConfig {
            tat_ways: 6,
            dat_ways: 2,
            elems_per_list_entry: 2,
            ..DmuConfig::default()
                .with_alias_sizes(6, 4)
                .with_list_array_sizes(8, 8, 8)
        };
        let (x, y, z) = (0xA000, 0xB000, 0xC000);
        let (write, read) = (DependenceSpec::output, DependenceSpec::input);
        let specs: Vec<TaskSpec> = [
            vec![write(z, 4096)],
            vec![write(x, 4096)],
            vec![write(y, 4096)],
            vec![read(x, 4096)],
            vec![read(x, 4096)],
            vec![read(x, 4096)],
            vec![read(y, 4096)],
            vec![],
        ]
        .into_iter()
        .map(|deps| TaskSpec::new("t", Cycle::new(1000), deps))
        .collect();
        let mut hw = HardwareEngine::new(
            HardwareFlavor::Tdm,
            config.clone(),
            CostModel::default(),
            Cycle::new(16),
        );
        let mut ready = Vec::new();
        let mut now = Cycle::ZERO;
        let mut create = |hw: &mut HardwareEngine, now: &mut Cycle, t: usize| {
            let outcome = hw.create_task(*now, TaskRef(t), &specs[t], &mut ready);
            *now += outcome.cost;
            outcome.completed
        };
        // Task 0 writes `z` alone and finishes after tasks 1 and 2 created
        // `x` and `y`, so its Dependence Table row dies between theirs.
        for t in 0..3 {
            assert!(create(&mut hw, &mut now, t));
        }
        now += finish(&mut hw, now, TaskRef(0), &mut Vec::new());
        // Tasks 3-5 read task 1's output, chaining its successor list; task
        // 6 fills the six-way TAT set, and task 7 stalls on it.
        for t in 3..7 {
            assert!(create(&mut hw, &mut now, t));
        }
        assert!(!create(&mut hw, &mut now, 7));
        assert!(hw.pending.is_some());
        (hw, config, now)
    }

    /// The descriptor address of in-flight `task`.
    fn descriptor_of(hw: &HardwareEngine, task: TaskRef) -> DescriptorAddr {
        descriptor_addr(hw.descriptors.get(task.index()).unwrap().slot)
    }

    /// The hardware `ENGINE` bytes, pinned together with the snapshot format
    /// version. The state covers every part of the layout: a Dependence
    /// Table row freed between two live ones, a successor list chained over
    /// two SLA entries, a non-empty Ready Queue, a creation stalled on a
    /// full TAT set, and a descriptor span with a hole and a free slot.
    #[test]
    fn hardware_snapshot_bytes_are_pinned() {
        let (mut hw, config, now) = hardware_state_before_pinned_finish();
        // Task 2 finishes and releases its slot without the engine's drain,
        // leaving task 6 in the Ready Queue.
        hw.finish_on_dmu(now, TaskRef(2), &mut Vec::new());
        assert_eq!(
            hw.dmu.peak_occupancy().successor_la,
            7,
            "six heads, one chained"
        );

        let mut bytes = Vec::new();
        hw.save_state(&mut bytes);
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (FORMAT_VERSION, bytes.len(), fnv1a),
            (5, 1970, 0x53f5_8b0c_b893_5575),
            "the hardware ENGINE bytes changed: if the layout changed, bump \
             tdm_sim::snapshot::FORMAT_VERSION and SNAPSHOT_FORMAT.md, then re-pin \
             the length and hash"
        );

        let mut restored = HardwareEngine::new(
            HardwareFlavor::Tdm,
            config,
            CostModel::default(),
            Cycle::new(16),
        );
        restored.load_state(&mut Reader::new(&bytes)).unwrap();
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(again, bytes);
        let queued = restored.dmu.get_ready_task().value.map(|t| t.descriptor);
        assert_eq!(queued, Some(descriptor_of(&restored, TaskRef(6))));
    }

    /// Hostile variants of the pinned state, each written by `save_state`
    /// and refused by `load_state` because its descriptor slots contradict
    /// the allocator or the TAT. The first is the state the pinned test
    /// used to save: task 2 finished on the DMU while its slot stays mapped.
    #[test]
    fn hardware_load_refuses_descriptor_slots_the_tat_contradicts() {
        let (before, config, now) = hardware_state_before_pinned_finish();
        let mut pinned = before.clone();
        pinned.finish_on_dmu(now, TaskRef(2), &mut Vec::new());
        // Tasks 1 and 3-6 are live with slots 1 and 0, 3, 4, 5; task 7 holds
        // slot 6 but its create_task stalled; slot 2 is free.
        assert_eq!(pinned.free_slots, vec![2]);
        let slot_of = |hw: &HardwareEngine, t: usize| hw.descriptors.get(t).unwrap().slot;
        assert_eq!(slot_of(&pinned, 3), 0);

        type Edit = fn(&mut HardwareEngine);
        let cases: [(&HardwareEngine, Edit, &str); 9] = [
            (
                &before,
                |hw| {
                    let desc = descriptor_of(hw, TaskRef(2));
                    hw.dmu.finish_task(desc).unwrap();
                },
                "task#2 maps descriptor slot 2, whose descriptor is not live in the TAT",
            ),
            (
                &pinned,
                |hw| {
                    let d = hw.descriptors.remove(3).unwrap();
                    hw.free_slots.push(d.slot);
                },
                "the TAT holds 5 live tasks, but mapped descriptor slots name 4",
            ),
            (
                &pinned,
                |hw| hw.free_slots.push(0),
                "task#3 maps descriptor slot 0, which is also free",
            ),
            (
                &pinned,
                |hw| hw.descriptors.get_mut(4).unwrap().slot = 0,
                "task#4 maps descriptor slot 0, which another task maps too",
            ),
            (
                &pinned,
                |hw| hw.descriptors.get_mut(3).unwrap().slot = 7,
                "task#3 maps descriptor slot 7, at or past the 7 slots handed out",
            ),
            (
                &pinned,
                |hw| hw.slot_owner[0] = 5,
                "task#3 maps descriptor slot 0, whose recorded owner is task#5",
            ),
            (
                &pinned,
                |hw| {
                    hw.free_slots.pop();
                },
                "descriptor slot 2 is neither free nor mapped",
            ),
            (
                &pinned,
                |hw| hw.pending.as_mut().unwrap().created = true,
                "task#7 maps descriptor slot 6, whose descriptor is not live in the TAT",
            ),
            (
                &pinned,
                |hw| {
                    let d = hw.descriptors.remove(7).unwrap();
                    hw.free_slots.push(d.slot);
                    let pending = hw.pending.as_mut().unwrap();
                    (pending.task, pending.created) = (TaskRef(9), true);
                },
                "the stalled creation of task#9 is not the newest task",
            ),
        ];
        for (original, edit, names) in cases {
            let mut hostile = original.clone();
            edit(&mut hostile);
            let mut bytes = Vec::new();
            hostile.save_state(&mut bytes);
            let mut restored = HardwareEngine::new(
                HardwareFlavor::Tdm,
                config.clone(),
                CostModel::default(),
                Cycle::new(16),
            );
            let err = restored
                .load_state(&mut Reader::new(&bytes))
                .expect_err(names);
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(names), "{err}");
        }
        // The unedited states load.
        for state in [&before, &pinned] {
            let mut bytes = Vec::new();
            state.save_state(&mut bytes);
            let mut restored = HardwareEngine::new(
                HardwareFlavor::Tdm,
                config.clone(),
                CostModel::default(),
                Cycle::new(16),
            );
            restored.load_state(&mut Reader::new(&bytes)).unwrap();
        }
    }

    /// The ENGINE section's DMU must be configured as META's backend
    /// configures the engine: a DMU with another access latency (or any
    /// other knob) would charge every resumed instruction differently.
    #[test]
    fn hardware_load_refuses_a_dmu_configured_unlike_the_engine() {
        let engine = |dmu: DmuConfig| {
            HardwareEngine::new(
                HardwareFlavor::Tdm,
                dmu,
                CostModel::default(),
                Cycle::new(16),
            )
        };
        let mut bytes = Vec::new();
        engine(DmuConfig::default().with_access_latency(Cycle::new(10))).save_state(&mut bytes);
        let err = engine(DmuConfig::default())
            .load_state(&mut Reader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("META's backend"), "{err}");
    }

    #[test]
    fn flavor_names_differ() {
        let tdm = HardwareEngine::new(
            HardwareFlavor::Tdm,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        let tss = HardwareEngine::new(
            HardwareFlavor::TaskSuperscalar,
            DmuConfig::default(),
            CostModel::default(),
            Cycle::new(16),
        );
        assert_eq!(tdm.name(), "tdm");
        assert_eq!(tss.name(), "task-superscalar");
        assert_eq!(SoftwareEngine::new(CostModel::default()).name(), "software");
        assert_eq!(
            SoftwareEngine::with_name("carbon", CostModel::default()).name(),
            "carbon"
        );
    }
}
