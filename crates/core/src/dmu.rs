//! The Dependence Management Unit (DMU).
//!
//! This module ties the alias tables, the Task/Dependence Tables, the list
//! arrays and the Ready Queue together into the operational model of
//! Section III-C: `create_task`, `add_dependence` (Algorithm 1),
//! `finish_task` (Algorithm 2) and `get_ready_task`.
//!
//! Two aspects deserve a note:
//!
//! * **Blocking semantics.** TDM instructions have barrier semantics and
//!   block when a DMU structure is full (Section III-D). The DMU model
//!   checks resource availability *before* mutating any state and returns
//!   [`DmuError::Stall`] if an operation cannot complete; the execution
//!   driver keeps the issuing core stalled and retries after the next
//!   `finish_task` frees entries. This keeps every operation atomic.
//!
//! * **Task submission.** The paper's ISA has no explicit "all dependences
//!   added" instruction, but a task whose dependences are all already
//!   satisfied at creation time must still reach the Ready Queue somehow.
//!   This model exposes that commit point as [`Dmu::submit_task`], which the
//!   runtime issues right after the last `add_dependence` of a task (it can
//!   be thought of as a flag on the last `add_dependence`, or as part of
//!   `create_task` for tasks with no dependences). The cost model charges it
//!   a single Task Table access.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use tdm_sim::clock::Cycle;

use crate::access::{AccessCounter, DmuStructure};
use crate::alias::{AliasError, AliasTable};
use crate::config::{DmuConfig, IndexPolicy};
use crate::ids::{DepAddr, DepDirection, DepId, DescriptorAddr, TaskId};
use crate::list_array::{ListArray, ListHandle, Walk};
use crate::tables::{DepEntry, DependenceTable, TaskEntry, TaskTable};

/// Index-bit position used for the TAT. Task descriptors are small heap
/// objects, so skipping the byte-offset bits of a cache line spreads
/// consecutive descriptors across sets.
const TAT_INDEX_LOW_BIT: u32 = 6;

/// Algorithm 1's edge step from `pred` to `succ`: bumps `pred`'s successor
/// count, appends `succ` to its successor list (whose space the caller
/// pre-checked) and bumps `succ`'s predecessor count.
fn add_edge(
    tasks: &mut TaskTable,
    sla: &mut ListArray,
    pred: TaskId,
    succ: TaskId,
    accesses: &mut AccessCounter,
) {
    let row = tasks.row_mut(pred);
    row.num_successors += 1;
    let successor_list = row.successor_list;
    accesses.touch(DmuStructure::TaskTable);
    let walk = sla
        .push(successor_list, succ.raw())
        .expect("pre-checked SLA space");
    accesses.record(DmuStructure::SuccessorLa, walk.entries_touched);
    tasks.row_mut(succ).num_predecessors += 1;
    accesses.touch(DmuStructure::TaskTable);
}

/// The DMU structure that caused an instruction to block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallReason {
    /// The TAT set for this descriptor address has no free way.
    TatConflict,
    /// The TAT has no free entries at all.
    TatExhausted,
    /// The DAT set for this dependence address has no free way.
    DatConflict,
    /// The DAT has no free entries at all.
    DatExhausted,
    /// The Successor List Array has no free entries.
    SuccessorLaFull,
    /// The Dependence List Array has no free entries.
    DependenceLaFull,
    /// The Reader List Array has no free entries.
    ReaderLaFull,
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StallReason::TatConflict => "TAT set conflict",
            StallReason::TatExhausted => "TAT exhausted",
            StallReason::DatConflict => "DAT set conflict",
            StallReason::DatExhausted => "DAT exhausted",
            StallReason::SuccessorLaFull => "successor list array full",
            StallReason::DependenceLaFull => "dependence list array full",
            StallReason::ReaderLaFull => "reader list array full",
        };
        f.write_str(s)
    }
}

/// Errors returned by DMU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmuError {
    /// The operation cannot proceed until in-flight tasks finish and free
    /// entries in the named structure. No state was modified.
    Stall(StallReason),
    /// The runtime referenced a task descriptor the DMU does not know.
    /// This indicates a protocol violation by the runtime, not a resource
    /// limit.
    UnknownTask(DescriptorAddr),
}

impl std::fmt::Display for DmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmuError::Stall(reason) => write!(f, "DMU stall: {reason}"),
            DmuError::UnknownTask(desc) => write!(f, "unknown task descriptor {desc}"),
        }
    }
}

impl std::error::Error for DmuError {}

/// The value produced by a DMU operation plus the structure accesses it made.
#[derive(Debug, Clone, PartialEq)]
pub struct DmuResult<T> {
    /// The operation's result.
    pub value: T,
    /// SRAM accesses performed, for cycle accounting.
    pub accesses: AccessCounter,
}

impl<T> DmuResult<T> {
    fn new(value: T, accesses: AccessCounter) -> Self {
        DmuResult { value, accesses }
    }

    /// Cycles the DMU spends processing this operation with the given
    /// per-access latency.
    pub fn cost(&self, access_latency: Cycle) -> Cycle {
        self.accesses.cost(access_latency)
    }
}

/// A ready task as returned by `get_ready_task`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadyTask {
    /// Task descriptor address, used by the runtime to locate the task.
    pub descriptor: DescriptorAddr,
    /// Number of successors registered for the task, exposed so priority
    /// schedulers (e.g. the Successor scheduler of Section VI) can use it.
    pub num_successors: u32,
}

/// Aggregate statistics maintained by the DMU model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DmuStats {
    /// `create_task` operations completed.
    pub creates: u64,
    /// `add_dependence` operations completed.
    pub add_dependences: u64,
    /// `submit_task` operations completed.
    pub submits: u64,
    /// `finish_task` operations completed.
    pub finishes: u64,
    /// `get_ready_task` operations completed.
    pub get_readies: u64,
    /// Operations that returned a stall.
    pub stalls: u64,
    /// Total SRAM accesses across all completed operations.
    pub total_accesses: u64,
}

/// The Dependence Management Unit.
///
/// # Example
///
/// ```
/// use tdm_core::config::DmuConfig;
/// use tdm_core::dmu::Dmu;
/// use tdm_core::ids::{DepAddr, DepDirection, DescriptorAddr};
///
/// let mut dmu = Dmu::new(DmuConfig::default());
/// let producer = DescriptorAddr(0x1000);
/// let consumer = DescriptorAddr(0x2000);
///
/// dmu.create_task(producer).unwrap();
/// dmu.add_dependence(producer, DepAddr(0xA000), 4096, DepDirection::Out).unwrap();
/// dmu.submit_task(producer).unwrap();
///
/// dmu.create_task(consumer).unwrap();
/// dmu.add_dependence(consumer, DepAddr(0xA000), 4096, DepDirection::In).unwrap();
/// dmu.submit_task(consumer).unwrap();
///
/// // Only the producer is ready; the consumer waits for it.
/// assert_eq!(dmu.get_ready_task().value.unwrap().descriptor, producer);
/// assert!(dmu.get_ready_task().value.is_none());
///
/// dmu.finish_task(producer).unwrap();
/// assert_eq!(dmu.get_ready_task().value.unwrap().descriptor, consumer);
/// ```
#[derive(Debug, Clone)]
pub struct Dmu {
    config: DmuConfig,
    tat: AliasTable,
    dat: AliasTable,
    tasks: TaskTable,
    deps: DependenceTable,
    sla: ListArray,
    dla: ListArray,
    rla: ListArray,
    /// The Ready Queue (Figure 3): tasks whose predecessors have all
    /// finished, oldest first.
    ready: VecDeque<TaskId>,
    /// Highest Ready Queue occupancy so far.
    ready_peak: usize,
    stats: DmuStats,
    /// Host-only bookkeeping over the reader lists (see [`ReaderIndex`]).
    index: ReaderIndex,
}

impl Dmu {
    /// Builds a DMU with the given structure geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DmuConfig::validate`].
    pub fn new(config: DmuConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid DMU configuration: {msg}");
        }
        Dmu {
            tat: AliasTable::new(
                config.tat_entries,
                config.tat_ways,
                IndexPolicy::Static {
                    low_bit: TAT_INDEX_LOW_BIT,
                },
            ),
            dat: AliasTable::new(config.dat_entries, config.dat_ways, config.index_policy),
            tasks: TaskTable::new(config.task_table_entries()),
            deps: DependenceTable::new(config.dependence_table_entries()),
            sla: ListArray::new(config.successor_la_entries, config.elems_per_list_entry),
            dla: ListArray::new(config.dependence_la_entries, config.elems_per_list_entry),
            rla: ListArray::new(config.reader_la_entries, config.elems_per_list_entry),
            ready: VecDeque::with_capacity(config.ready_queue_entries().min(4096)),
            ready_peak: 0,
            stats: DmuStats::default(),
            index: ReaderIndex::default(),
            config,
        }
    }

    /// The configuration this DMU was built with.
    pub fn config(&self) -> &DmuConfig {
        &self.config
    }

    /// Aggregate statistics collected so far.
    pub fn stats(&self) -> DmuStats {
        self.stats
    }

    /// Average number of occupied DAT sets over the run (Figure 11 metric).
    pub fn dat_average_occupied_sets(&self) -> f64 {
        self.dat.occupancy().average_occupied_sets()
    }

    /// Per-access latency configured for every DMU structure.
    pub fn access_latency(&self) -> Cycle {
        self.config.access_latency
    }

    fn stall(&mut self, reason: StallReason) -> DmuError {
        self.stats.stalls += 1;
        DmuError::Stall(reason)
    }

    fn task_id(&self, desc: DescriptorAddr) -> Result<TaskId, DmuError> {
        self.lookup_task(desc).ok_or(DmuError::UnknownTask(desc))
    }

    /// The task ID the TAT binds to `desc`, if `desc` is in flight. A host
    /// query, not a TDM instruction: it counts no modeled access. A runtime
    /// restoring its own task → ID map from a snapshot uses it.
    pub fn lookup_task(&self, desc: DescriptorAddr) -> Option<TaskId> {
        self.tat.lookup(desc.raw(), 64).map(TaskId::new)
    }

    /// Number of in-flight tasks: created and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.tat.len()
    }

    /// Appends a task to the Ready Queue. A task enters it once and only
    /// while it is live, so the queue needs no capacity check: it never
    /// holds more than [`DmuConfig::ready_queue_entries`] tasks.
    fn push_ready(&mut self, task: TaskId) {
        self.ready.push_back(task);
        debug_assert!(
            self.ready.len() <= self.tasks.len(),
            "ready queue outgrew the live tasks"
        );
        self.ready_peak = self.ready_peak.max(self.ready.len());
    }

    /// `create_task(task_desc)`: registers a new in-flight task.
    ///
    /// Allocates a TAT entry and task ID, initializes the Task Table entry
    /// and reserves empty successor and dependence lists (Section III-C1).
    ///
    /// # Errors
    ///
    /// Returns [`DmuError::Stall`] if the TAT or either list array is full;
    /// no state is modified in that case.
    pub fn create_task(&mut self, desc: DescriptorAddr) -> Result<DmuResult<TaskId>, DmuError> {
        // Pre-check every resource so the operation is atomic.
        if self.tat.lookup(desc.raw(), 64).is_some() {
            // Descriptor reuse while still in flight is a runtime bug.
            return Err(DmuError::UnknownTask(desc));
        }
        if self.sla.free_entries() < 1 {
            return Err(self.stall(StallReason::SuccessorLaFull));
        }
        if self.dla.free_entries() < 1 {
            return Err(self.stall(StallReason::DependenceLaFull));
        }
        let mut accesses = AccessCounter::new();
        let id = match self.tat.insert(desc.raw(), 64) {
            Ok(raw) => TaskId::new(raw),
            Err(AliasError::SetConflict) => return Err(self.stall(StallReason::TatConflict)),
            Err(AliasError::Exhausted) => return Err(self.stall(StallReason::TatExhausted)),
        };
        accesses.touch(DmuStructure::Tat);

        let successor_list = self.sla.alloc_list().expect("pre-checked SLA space");
        accesses.touch(DmuStructure::SuccessorLa);
        let dependence_list = self.dla.alloc_list().expect("pre-checked DLA space");
        accesses.touch(DmuStructure::DependenceLa);
        self.index.add_task(successor_list, dependence_list);

        self.tasks.insert(
            id,
            TaskEntry {
                descriptor: desc,
                num_predecessors: 0,
                num_successors: 0,
                successor_list,
                dependence_list,
                under_construction: true,
            },
        );
        accesses.touch(DmuStructure::TaskTable);

        self.stats.creates += 1;
        self.stats.total_accesses += accesses.total();
        Ok(DmuResult::new(id, accesses))
    }

    /// The Dependence Table entry for `addr`: `existing`, the DAT lookup's
    /// answer, or a newly allocated entry. The modeled DAT access is counted
    /// here either way; the caller made the one actual probe.
    fn dep_id_for(
        &mut self,
        existing: Option<DepId>,
        addr: DepAddr,
        size: u64,
        accesses: &mut AccessCounter,
    ) -> Result<DepId, DmuError> {
        accesses.touch(DmuStructure::Dat);
        if let Some(id) = existing {
            return Ok(id);
        }
        // A new dependence needs a DAT entry and a reader list; the caller
        // pre-checked the reader list's space.
        let raw = match self.dat.insert(addr.raw(), size) {
            Ok(raw) => raw,
            Err(AliasError::SetConflict) => return Err(self.stall(StallReason::DatConflict)),
            Err(AliasError::Exhausted) => return Err(self.stall(StallReason::DatExhausted)),
        };
        let reader_list = self.rla.alloc_list().expect("pre-checked RLA space");
        accesses.touch(DmuStructure::ReaderLa);
        let id = DepId::new(raw);
        self.index.add_dependence(reader_list);
        self.deps.insert(
            id,
            DepEntry {
                addr,
                size,
                last_writer: None,
                reader_list,
            },
        );
        accesses.touch(DmuStructure::DependenceTable);
        Ok(id)
    }

    /// Counts how many *new* list-array entries Algorithm 1 would need, so
    /// the operation can stall up front instead of half-applying.
    ///
    /// Successor-list demand is counted per *target list*, not per push: one
    /// operation can push the same list several times (a last writer that
    /// also sits in the reader list, or a task registered as reader twice),
    /// and earlier pushes fill the tail entry that a per-push
    /// `push_needs_new_entry` probe against pre-operation state would still
    /// see as free.
    fn add_dependence_requirements(
        &mut self,
        task: TaskId,
        dep: Option<DepId>,
        dir: DepDirection,
    ) -> (usize, usize, usize) {
        let needed_dla = usize::from(
            self.dla
                .push_needs_new_entry(self.tasks.row(task).dependence_list),
        );
        // A brand-new dependence has an empty reader list, and a read needs
        // the one slot its fresh head entry always provides.
        let Some(dep_id) = dep else {
            return (0, needed_dla, 0);
        };
        let DepEntry {
            last_writer,
            reader_list,
            ..
        } = *self.deps.row(dep_id);
        let writer = last_writer.filter(|&writer| writer != task);
        let successor_list = |target: TaskId| self.tasks.row(target).successor_list;
        if !dir.writes() {
            let needed_sla =
                writer.map_or(0, |w| self.sla.new_entries_for_pushes(successor_list(w), 1));
            let needed_rla = usize::from(self.rla.push_needs_new_entry(reader_list));
            return (needed_sla, needed_dla, needed_rla);
        }
        // A write pushes once per reader and once for the last writer, and
        // each push chains at most one entry: with more free entries than
        // readers, the exact count cannot stall, so it is not made.
        if self.sla.free_entries() > self.rla.len(reader_list) {
            #[cfg(test)]
            {
                self.index.paths.precheck_skipped += 1;
            }
            return (0, needed_dla, 0);
        }
        #[cfg(test)]
        {
            self.index.paths.precheck_exact += 1;
        }
        let readers = self.rla.iter(reader_list).map(TaskId::new);
        let index = &mut self.index;
        for target in writer
            .into_iter()
            .chain(readers.filter(|&reader| reader != task))
        {
            let pushes = &mut index.pending_pushes[successor_list(target).head()];
            if *pushes == 0 {
                index.push_targets.push(target);
            }
            *pushes += 1;
        }
        let needed_sla = index
            .push_targets
            .drain(..)
            .map(|target| {
                let list = successor_list(target);
                let pushes = std::mem::take(&mut index.pending_pushes[list.head()]);
                self.sla.new_entries_for_pushes(list, pushes as usize)
            })
            .sum();
        (needed_sla, needed_dla, 0)
    }

    /// `add_dependence(task_desc, dep_addr, size, direction)`: Algorithm 1.
    ///
    /// Registers a dependence of `desc` on the data at `addr`, creating
    /// RAW/WAR/WAW edges with older in-flight tasks as needed. An `inout`
    /// direction behaves like `out` for graph-construction purposes (it also
    /// reads, but the read edge to the last writer is created for every
    /// direction).
    ///
    /// # Errors
    ///
    /// * [`DmuError::Stall`] if the DAT or a list array lacks space (no state
    ///   is modified).
    /// * [`DmuError::UnknownTask`] if `desc` was never created.
    pub fn add_dependence(
        &mut self,
        desc: DescriptorAddr,
        addr: DepAddr,
        size: u64,
        dir: DepDirection,
    ) -> Result<DmuResult<()>, DmuError> {
        let task = self.task_id(desc)?;
        self.add_dependence_resolved(task, addr, size, dir)
    }

    /// Batched Algorithm 1: resolves `desc` through the TAT once, then
    /// applies its dependences as [`Dmu::add_dependences_by_id`] does.
    ///
    /// # Errors
    ///
    /// Same contract as [`Dmu::add_dependence`], applied per element.
    pub fn add_dependences<I>(
        &mut self,
        desc: DescriptorAddr,
        deps: I,
        completed: &mut Vec<AccessCounter>,
    ) -> Result<(), DmuError>
    where
        I: IntoIterator<Item = (DepAddr, u64, DepDirection)>,
    {
        let task = self.task_id(desc)?;
        self.add_dependences_by_id(task, deps, completed)
    }

    /// Batched Algorithm 1 for the task ID that [`Dmu::create_task`]
    /// returned: applies each dependence in order exactly as per-op
    /// [`Dmu::add_dependence`] calls would, appending one per-op
    /// [`AccessCounter`] to `completed` for every dependence that succeeds.
    ///
    /// On a stall the error is returned immediately; the dependences already
    /// applied stay applied (each completed atomically), so a caller resumes
    /// by retrying from index `completed.len()` — byte-identical to the
    /// per-op stall-and-retry protocol. The modeled accesses, including the
    /// per-dependence TAT probe, are unchanged; the caller that holds the ID
    /// only skips the *actual* TAT lookups.
    ///
    /// # Errors
    ///
    /// [`DmuError::Stall`] if the DAT or a list array lacks space for the
    /// next dependence (that dependence modifies no state).
    ///
    /// # Panics
    ///
    /// Panics if `task` is not an in-flight task.
    pub fn add_dependences_by_id<I>(
        &mut self,
        task: TaskId,
        deps: I,
        completed: &mut Vec<AccessCounter>,
    ) -> Result<(), DmuError>
    where
        I: IntoIterator<Item = (DepAddr, u64, DepDirection)>,
    {
        for (addr, size, dir) in deps {
            let result = self.add_dependence_resolved(task, addr, size, dir)?;
            completed.push(result.accesses);
        }
        Ok(())
    }

    /// The body of Algorithm 1 once the task ID is known. The access counter
    /// still charges the modeled TAT probe for the descriptor, and the one
    /// DAT lookup here serves both the stall pre-check and the operation.
    fn add_dependence_resolved(
        &mut self,
        task: TaskId,
        addr: DepAddr,
        size: u64,
        dir: DepDirection,
    ) -> Result<DmuResult<()>, DmuError> {
        let mut accesses = AccessCounter::new();
        accesses.touch(DmuStructure::Tat);

        // Resolve (or create) the dependence entry first; this can stall on
        // DAT/RLA space but does not yet modify any task state, so it is safe
        // to bail out afterwards as long as we only created the dependence
        // entry (an empty dependence entry is harmless and will be reused by
        // the retry).
        let existing = self.dat.lookup(addr.raw(), size).map(DepId::new);
        let (needed_sla, needed_dla, needed_rla) =
            self.add_dependence_requirements(task, existing, dir);
        if self.sla.free_entries() < needed_sla {
            return Err(self.stall(StallReason::SuccessorLaFull));
        }
        if self.dla.free_entries() < needed_dla {
            return Err(self.stall(StallReason::DependenceLaFull));
        }
        // +1 potential reader-list allocation for a brand-new dependence.
        let new_dep_rla = usize::from(existing.is_none());
        if self.rla.free_entries() < needed_rla + new_dep_rla {
            return Err(self.stall(StallReason::ReaderLaFull));
        }

        let dep = self.dep_id_for(existing, addr, size, &mut accesses)?;

        // Insert depID in the dependence list of taskID.
        let dep_list = self.tasks.row(task).dependence_list;
        let walk = self
            .dla
            .push(dep_list, dep.raw())
            .expect("pre-checked DLA space");
        accesses.record(DmuStructure::DependenceLa, walk.entries_touched);

        // RAW / WAW edge from the last writer.
        let DepEntry {
            last_writer,
            reader_list,
            ..
        } = *self.deps.row(dep);
        accesses.touch(DmuStructure::DependenceTable);
        if let Some(writer) = last_writer.filter(|&writer| writer != task) {
            add_edge(&mut self.tasks, &mut self.sla, writer, task, &mut accesses);
        }

        if dir.writes() {
            // WAR edges from every reader, then this task becomes the last
            // writer and the reader list is flushed. The reader list is
            // walked in place (no `collect()` allocation); the list arrays
            // it mutates inside the loop are disjoint structures.
            accesses.record(
                DmuStructure::ReaderLa,
                self.rla.entries_spanned(reader_list),
            );
            for reader_raw in self.rla.iter(reader_list) {
                let reader = TaskId::new(reader_raw);
                if reader != task {
                    add_edge(&mut self.tasks, &mut self.sla, reader, task, &mut accesses);
                }
            }
            let flush_walk = self.rla.flush(reader_list);
            accesses.record(DmuStructure::ReaderLa, flush_walk.entries_touched);
            self.index.invalidate(reader_list);
            self.index.register(dep_list, dep, None);
            self.deps.row_mut(dep).last_writer = Some(task);
            accesses.touch(DmuStructure::DependenceTable);
        } else {
            // Pure input: register this task as a reader.
            let walk = self
                .rla
                .push(reader_list, task.raw())
                .expect("pre-checked RLA space");
            accesses.record(DmuStructure::ReaderLa, walk.entries_touched);
            self.index.register(dep_list, dep, Some(reader_list));
        }

        self.stats.add_dependences += 1;
        self.stats.total_accesses += accesses.total();
        Ok(DmuResult::new((), accesses))
    }

    /// Marks the task as fully constructed. If all its dependences were
    /// already satisfied (predecessor count is zero) it is inserted into the
    /// Ready Queue.
    ///
    /// # Errors
    ///
    /// Returns [`DmuError::UnknownTask`] if `desc` was never created.
    pub fn submit_task(&mut self, desc: DescriptorAddr) -> Result<DmuResult<bool>, DmuError> {
        let task = self.task_id(desc)?;
        Ok(self.submit_task_by_id(task))
    }

    /// [`Dmu::submit_task`] for the task ID that [`Dmu::create_task`]
    /// returned. The modeled TAT access is still counted.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not an in-flight task.
    pub fn submit_task_by_id(&mut self, task: TaskId) -> DmuResult<bool> {
        let mut accesses = AccessCounter::new();
        accesses.touch(DmuStructure::Tat);
        let row = self.tasks.row_mut(task);
        row.under_construction = false;
        let ready_now = row.num_predecessors == 0;
        accesses.touch(DmuStructure::TaskTable);
        if ready_now {
            self.push_ready(task);
            accesses.touch(DmuStructure::ReadyQueue);
        }
        self.stats.submits += 1;
        self.stats.total_accesses += accesses.total();
        DmuResult::new(ready_now, accesses)
    }

    /// `finish_task(task_desc)`: Algorithm 2.
    ///
    /// Wakes up successors (moving newly ready tasks to the Ready Queue),
    /// detaches the task from its dependences, and frees every DMU resource
    /// the task held. Returns the tasks that became ready.
    ///
    /// This convenience wrapper allocates the woken list; the execution
    /// driver's hot path uses [`Dmu::finish_task_into_by_id`] with a
    /// reusable buffer instead.
    ///
    /// # Errors
    ///
    /// Returns [`DmuError::UnknownTask`] if `desc` is not in flight.
    pub fn finish_task(
        &mut self,
        desc: DescriptorAddr,
    ) -> Result<DmuResult<Vec<TaskId>>, DmuError> {
        let mut woken = Vec::new();
        let result = self.finish_task_into(desc, &mut woken)?;
        Ok(DmuResult::new(woken, result.accesses))
    }

    /// Allocation-free variant of [`Dmu::finish_task`]: `woken` is cleared
    /// and filled with the tasks that became ready, so callers can reuse one
    /// buffer across every finish of a run.
    ///
    /// # Errors
    ///
    /// Returns [`DmuError::UnknownTask`] if `desc` is not in flight.
    pub fn finish_task_into(
        &mut self,
        desc: DescriptorAddr,
        woken: &mut Vec<TaskId>,
    ) -> Result<DmuResult<()>, DmuError> {
        let task = self.task_id(desc)?;
        Ok(self.finish_task_into_by_id(task, woken))
    }

    /// [`Dmu::finish_task_into`] for the task ID that [`Dmu::create_task`]
    /// returned. The successor, dependence and reader lists are walked in
    /// place (no intermediate `collect()`), and the modeled TAT accesses are
    /// still counted.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not an in-flight task.
    pub fn finish_task_into_by_id(
        &mut self,
        task: TaskId,
        woken: &mut Vec<TaskId>,
    ) -> DmuResult<()> {
        woken.clear();
        let mut accesses = AccessCounter::new();
        accesses.touch(DmuStructure::Tat);
        let TaskEntry {
            descriptor,
            successor_list,
            dependence_list,
            ..
        } = *self.tasks.row(task);
        accesses.touch(DmuStructure::TaskTable);

        // First loop: wake up successors (walking the successor list in
        // place; it mutates only the task table), then queue the woken ones
        // in the same order.
        accesses.record(
            DmuStructure::SuccessorLa,
            self.sla.entries_spanned(successor_list),
        );
        for succ_raw in self.sla.iter(successor_list) {
            let succ = TaskId::new(succ_raw);
            let row = self.tasks.row_mut(succ);
            debug_assert!(row.num_predecessors > 0, "predecessor underflow for {succ}");
            row.num_predecessors -= 1;
            accesses.touch(DmuStructure::TaskTable);
            if row.num_predecessors == 0 && !row.under_construction {
                accesses.touch(DmuStructure::ReadyQueue);
                woken.push(succ);
            }
        }
        for &succ in woken.iter() {
            self.push_ready(succ);
        }

        // Second loop: detach from dependences and free dead ones. The
        // task's registrations mirror its dependence list element for
        // element, so the loop walks them instead; one whose task a writer
        // has since flushed, or that registered no reader, skips the
        // reader-list search that would find nothing.
        accesses.record(
            DmuStructure::DependenceLa,
            self.dla.entries_spanned(dependence_list),
        );
        let registered = &mut self.index.registrations[dependence_list.head()];
        let mut registrations = std::mem::take(registered);
        debug_assert!(
            self.dla
                .iter(dependence_list)
                .eq(registrations.iter().map(|r| r.dep.raw())),
            "registrations of {task} out of sync with its dependence list"
        );
        for registration in &registrations {
            let dep = registration.dep;
            let Some(&entry) = self.deps.get(dep) else {
                // Already freed via an earlier duplicate in this task's list.
                continue;
            };
            let walk =
                self.index
                    .remove_reader(&mut self.rla, entry.reader_list, task, registration);
            accesses.record(DmuStructure::ReaderLa, walk.entries_touched);

            accesses.touch(DmuStructure::DependenceTable);
            let other_writer = entry.last_writer.is_some_and(|writer| writer != task);
            if !other_writer && self.rla.is_empty(entry.reader_list) {
                let walk = self.rla.free_list(entry.reader_list);
                accesses.record(DmuStructure::ReaderLa, walk.entries_touched);
                self.deps.remove(dep);
                accesses.touch(DmuStructure::DependenceTable);
                self.dat.remove(entry.addr.raw(), entry.size);
                accesses.touch(DmuStructure::Dat);
                self.index.invalidate(entry.reader_list);
            } else if entry.last_writer == Some(task) {
                self.deps.row_mut(dep).last_writer = None;
            }
        }
        registrations.clear();
        self.index.registrations[dependence_list.head()] = registrations;

        // Free the task's own resources.
        let walk = self.sla.free_list(successor_list);
        accesses.record(DmuStructure::SuccessorLa, walk.entries_touched);
        let walk = self.dla.free_list(dependence_list);
        accesses.record(DmuStructure::DependenceLa, walk.entries_touched);
        self.tasks.remove(task);
        accesses.touch(DmuStructure::TaskTable);
        self.tat.remove(descriptor.raw(), 64);
        accesses.touch(DmuStructure::Tat);

        self.stats.finishes += 1;
        self.stats.total_accesses += accesses.total();
        DmuResult::new((), accesses)
    }

    /// `get_ready_task()`: pops the oldest ready task, returning its
    /// descriptor address and successor count, or `None` if the Ready Queue
    /// is empty.
    pub fn get_ready_task(&mut self) -> DmuResult<Option<ReadyTask>> {
        let mut accesses = AccessCounter::new();
        accesses.touch(DmuStructure::ReadyQueue);
        let value = self.ready.pop_front().map(|task| {
            let row = self.tasks.row(task);
            accesses.touch(DmuStructure::TaskTable);
            ReadyTask {
                descriptor: row.descriptor,
                num_successors: row.num_successors,
            }
        });
        self.stats.get_readies += 1;
        self.stats.total_accesses += accesses.total();
        DmuResult::new(value, accesses)
    }

    /// True if the DMU holds no in-flight state (all tasks finished).
    pub fn is_drained(&self) -> bool {
        self.tasks.is_empty() && self.deps.is_empty() && self.ready.is_empty()
    }

    /// Peak occupancy of each structure, for reporting.
    pub fn peak_occupancy(&self) -> PeakOccupancy {
        PeakOccupancy {
            tasks: self.tasks.peak(),
            deps: self.deps.peak(),
            successor_la: self.sla.peak_entries_in_use(),
            dependence_la: self.dla.peak_entries_in_use(),
            reader_la: self.rla.peak_entries_in_use(),
            ready_queue: self.ready_peak,
            tat: self.tat.occupancy().peak_entries,
            dat: self.dat.occupancy().peak_entries,
        }
    }

    /// Refuses a restored structure whose geometry is not the one the
    /// DMU's validated configuration builds: the operations size their
    /// pre-checks and indices by the configuration.
    fn check_geometry(&self) -> Result<(), SnapshotError> {
        let c = &self.config;
        let alias = |t: &AliasTable| (t.capacity(), t.ways());
        let list = |a: &ListArray| (a.capacity(), a.elems_per_entry());
        let elems = c.elems_per_list_entry;
        // Each structure's (entries, ways or elements per entry), as
        // restored and as configured.
        #[rustfmt::skip]
        let structures = [
            ("TAT", alias(&self.tat), (c.tat_entries, c.tat_ways)),
            ("DAT", alias(&self.dat), (c.dat_entries, c.dat_ways)),
            ("task table", (self.tasks.capacity(), 1), (c.task_table_entries(), 1)),
            ("dependence table", (self.deps.capacity(), 1), (c.dependence_table_entries(), 1)),
            ("successor list array", list(&self.sla), (c.successor_la_entries, elems)),
            ("dependence list array", list(&self.dla), (c.dependence_la_entries, elems)),
            ("reader list array", list(&self.rla), (c.reader_la_entries, elems)),
        ];
        if let Some((name, restored, built)) = structures
            .into_iter()
            .find(|(_, restored, built)| restored != built)
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "DMU {name} has (entries, ways or elements per entry) {restored:?}, but \
                     the DMU configuration builds {built:?}"
                ),
            });
        }
        let tat_policy = IndexPolicy::Static {
            low_bit: TAT_INDEX_LOW_BIT,
        };
        let policies = [
            ("TAT", self.tat.policy(), tat_policy),
            ("DAT", self.dat.policy(), c.index_policy),
        ];
        match policies
            .into_iter()
            .find(|(_, restored, built)| restored != built)
        {
            Some((name, restored, built)) => Err(SnapshotError::Corrupt {
                context: format!(
                    "DMU {name} has index policy {restored:?}, but the DMU configuration \
                     builds {built:?}"
                ),
            }),
            None => Ok(()),
        }
    }

    /// Refuses a restored live row whose list handle is not a head of the
    /// matching list array, or is one that another row already owns: every
    /// walk from that handle would run through another list's entries.
    fn check_list_heads(&self) -> Result<(), SnapshotError> {
        let (mut sla, mut dla, mut rla) = (self.sla.heads(), self.dla.heads(), self.rla.heads());
        let refuse = |row: String, list: &str| {
            Err(SnapshotError::Corrupt {
                context: format!("DMU {row} has a {list} that is not a list head of its own"),
            })
        };
        for task in (0..self.tasks.capacity()).map(|raw| TaskId::new(raw as u32)) {
            let Some(row) = self.tasks.get(task) else {
                continue;
            };
            if !sla.claim(row.successor_list) {
                return refuse(format!("task table row {task}"), "successor list");
            }
            if !dla.claim(row.dependence_list) {
                return refuse(format!("task table row {task}"), "dependence list");
            }
        }
        for dep in (0..self.deps.capacity()).map(|raw| DepId::new(raw as u32)) {
            if let Some(row) = self.deps.get(dep) {
                if !rla.claim(row.reader_list) {
                    return refuse(format!("dependence table row {dep}"), "reader list");
                }
            }
        }
        Ok(())
    }

    /// Derives the host-only [`ReaderIndex`] from the restored lists: each
    /// live task's registrations from its dependence list. Whether a
    /// restored task still sits in a reader list is not recorded, so every
    /// registration carries the current stamp and its removal searches.
    fn rebuild_index(&mut self) {
        let mut index = ReaderIndex::default();
        for dep in (0..self.deps.capacity()).map(|raw| DepId::new(raw as u32)) {
            if let Some(row) = self.deps.get(dep) {
                cover(&mut index.generations, row.reader_list.head());
            }
        }
        for task in (0..self.tasks.capacity()).map(|raw| TaskId::new(raw as u32)) {
            if let Some(row) = self.tasks.get(task) {
                index.add_task(row.successor_list, row.dependence_list);
                for dep in self.dla.iter(row.dependence_list).map(DepId::new) {
                    // An element naming no live dependence is skipped at
                    // finish, so it needs no stamp.
                    let reader_list = self.deps.get(dep).map(|row| row.reader_list);
                    index.register(row.dependence_list, dep, reader_list);
                    #[cfg(test)]
                    {
                        index.paths.rebuilt += 1;
                    }
                }
            }
        }
        self.index = index;
    }

    /// Refuses a restored Ready Queue that the Task Table contradicts: each
    /// queued task must be a live, submitted row with no unfinished
    /// predecessor, queued once, and the recorded peak must cover the queue.
    fn check_ready_queue(&self) -> Result<(), SnapshotError> {
        let corrupt = |context: String| Err(SnapshotError::Corrupt { context });
        if self.ready_peak < self.ready.len() {
            return corrupt(format!(
                "DMU ready queue holds {} tasks but records a peak of {}",
                self.ready.len(),
                self.ready_peak
            ));
        }
        let mut queued = vec![false; self.tasks.capacity()];
        for &task in &self.ready {
            let problem = match self.tasks.get(task) {
                None => "is not a live task table row",
                Some(_) if queued[task.index()] => "is queued twice",
                Some(row) if row.under_construction => "is still under construction",
                Some(row) if row.num_predecessors > 0 => "still counts unfinished predecessors",
                Some(_) => {
                    queued[task.index()] = true;
                    continue;
                }
            };
            return corrupt(format!("DMU ready queue holds {task}, which {problem}"));
        }
        Ok(())
    }
}

/// Whether one element of a task's dependence list may have left the task
/// in the Reader List Array. Host-only: the hardware searches the reader
/// list, and this record says when that search cannot find the task.
#[derive(Debug, Clone, Copy)]
struct Registration {
    /// The dependence the element names.
    dep: DepId,
    /// The generation of the dependence's reader list when the task joined
    /// it, or `None` for an element that joined none (a write). A flush of
    /// the list or a free of the dependence moves the generation on, so a
    /// stamp that differs from it says the task has left the list.
    generation: Option<u32>,
    /// The task names `dep` more than once, so a removal may hit another
    /// element's occurrence: removal searches whatever the stamp says.
    repeated: bool,
}

/// Host-only bookkeeping that lets the model skip reader-list walks whose
/// outcome it already knows; the modeled walk counts are unchanged. Keyed
/// by list heads (see [`ListHandle::head`]), not by task or dependence IDs,
/// which the alias tables scatter over their whole capacity; never
/// persisted, and rebuilt from the persisted lists by [`Dmu::load`].
#[derive(Debug, Clone, Default)]
struct ReaderIndex {
    /// Per task, at the head of its dependence list: one registration per
    /// element of that list, in list order. Empty where no live task's
    /// dependence list starts.
    registrations: Vec<Vec<Registration>>,
    /// Per task, at the head of its successor list: the pushes an exact
    /// writer pre-check has counted for the task so far; zero between
    /// operations.
    pending_pushes: Vec<u32>,
    /// Per reader list, at its head: moved on by a flush of the list or a
    /// free of its dependence.
    generations: Vec<u32>,
    /// The tasks with nonzero `pending_pushes`, in the order first counted.
    push_targets: Vec<TaskId>,
    /// How often each host path ran, for the lockstep tests.
    #[cfg(test)]
    paths: IndexPaths,
}

/// Counts of the [`ReaderIndex`] paths taken, so a test can show it drove
/// every one.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
struct IndexPaths {
    precheck_skipped: u64,
    precheck_exact: u64,
    searched: u64,
    flushed: u64,
    heads_reused: u64,
    repeated: u64,
    rebuilt: u64,
}

#[cfg(test)]
impl IndexPaths {
    fn add(&mut self, other: &IndexPaths) {
        self.precheck_skipped += other.precheck_skipped;
        self.precheck_exact += other.precheck_exact;
        self.searched += other.searched;
        self.flushed += other.flushed;
        self.heads_reused += other.heads_reused;
        self.repeated += other.repeated;
        self.rebuilt += other.rebuilt;
    }
}

/// Grows `column` to cover `head`.
fn cover<T: Clone + Default>(column: &mut Vec<T>, head: usize) {
    if column.len() <= head {
        column.resize(head + 1, T::default());
    }
}

impl ReaderIndex {
    /// Makes room for a task created with these successor and dependence
    /// lists.
    fn add_task(&mut self, successor_list: ListHandle, dependence_list: ListHandle) {
        cover(&mut self.pending_pushes, successor_list.head());
        cover(&mut self.registrations, dependence_list.head());
        debug_assert!(self.registrations[dependence_list.head()].is_empty());
    }

    /// Makes room for a dependence created with this reader list.
    fn add_dependence(&mut self, reader_list: ListHandle) {
        #[cfg(test)]
        {
            self.paths.heads_reused += u64::from(reader_list.head() < self.generations.len());
        }
        cover(&mut self.generations, reader_list.head());
    }

    /// Appends the registration of the newest element of the dependence
    /// list `dependence_list`, naming `dep`, whose reader list the task
    /// joined (`Some`) or not, and marks every element of that list that
    /// names the same dependence.
    fn register(&mut self, dependence_list: ListHandle, dep: DepId, joined: Option<ListHandle>) {
        let mut registration = Registration {
            dep,
            generation: joined.map(|reader_list| self.generations[reader_list.head()]),
            repeated: false,
        };
        let registrations = &mut self.registrations[dependence_list.head()];
        for earlier in registrations
            .iter_mut()
            .filter(|earlier| earlier.dep == dep)
        {
            earlier.repeated = true;
            registration.repeated = true;
        }
        registrations.push(registration);
    }

    /// Forgets every registration recorded against `reader_list` so far.
    fn invalidate(&mut self, reader_list: ListHandle) {
        let generation = &mut self.generations[reader_list.head()];
        *generation = generation.wrapping_add(1);
    }

    /// Removes `task` from the reader list `list` of its registration's
    /// dependence, returning the walk a linear search from the head makes.
    /// Only a registration known to have left the list skips the search; a
    /// stamp that matches by wrap-around costs a search, not a wrong walk.
    fn remove_reader(
        &mut self,
        rla: &mut ListArray,
        list: ListHandle,
        task: TaskId,
        registration: &Registration,
    ) -> Walk {
        let current = Some(self.generations[list.head()]);
        if registration.repeated || registration.generation == current {
            #[cfg(test)]
            {
                if registration.repeated {
                    self.paths.repeated += 1;
                } else {
                    self.paths.searched += 1;
                }
            }
            return rla.remove(list, task.raw()).1;
        }
        #[cfg(test)]
        {
            self.paths.flushed += u64::from(registration.generation.is_some());
        }
        rla.remove_absent(list, task.raw())
    }
}

/// Peak occupancy of every DMU structure over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PeakOccupancy {
    /// Peak live Task Table entries.
    pub tasks: usize,
    /// Peak live Dependence Table entries.
    pub deps: usize,
    /// Peak Successor List Array entries in use.
    pub successor_la: usize,
    /// Peak Dependence List Array entries in use.
    pub dependence_la: usize,
    /// Peak Reader List Array entries in use.
    pub reader_la: usize,
    /// Peak Ready Queue occupancy.
    pub ready_queue: usize,
    /// Peak TAT occupancy.
    pub tat: usize,
    /// Peak DAT occupancy.
    pub dat: usize,
}

// Snapshot support: the full DMU state — geometry, both alias tables, the
// task/dependence tables, the list arrays, the ready queue and its peak, and the
// operation counters. The host-only `ReaderIndex` is never written: load
// rebuilds it from the lists.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for DmuStats {
    fn save(&self, out: &mut Vec<u8>) {
        self.creates.save(out);
        self.add_dependences.save(out);
        self.submits.save(out);
        self.finishes.save(out);
        self.get_readies.save(out);
        self.stalls.save(out);
        self.total_accesses.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DmuStats {
            creates: u64::load(r)?,
            add_dependences: u64::load(r)?,
            submits: u64::load(r)?,
            finishes: u64::load(r)?,
            get_readies: u64::load(r)?,
            stalls: u64::load(r)?,
            total_accesses: u64::load(r)?,
        })
    }
}

impl Persist for Dmu {
    fn save(&self, out: &mut Vec<u8>) {
        self.config.save(out);
        self.tat.save(out);
        self.dat.save(out);
        self.tasks.save(out);
        self.deps.save(out);
        self.sla.save(out);
        self.dla.save(out);
        self.rla.save(out);
        self.ready.save(out);
        self.ready_peak.save(out);
        self.stats.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut dmu = Dmu {
            config: DmuConfig::load(r)?,
            tat: AliasTable::load(r)?,
            dat: AliasTable::load(r)?,
            tasks: TaskTable::load(r)?,
            deps: DependenceTable::load(r)?,
            sla: ListArray::load(r)?,
            dla: ListArray::load(r)?,
            rla: ListArray::load(r)?,
            ready: VecDeque::load(r)?,
            ready_peak: usize::load(r)?,
            stats: DmuStats::load(r)?,
            index: ReaderIndex::default(),
        };
        dmu.check_geometry()?;
        dmu.check_list_heads()?;
        dmu.check_ready_queue()?;
        dmu.rebuild_index();
        Ok(dmu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DmuConfig {
        DmuConfig {
            tat_entries: 64,
            tat_ways: 8,
            dat_entries: 64,
            dat_ways: 8,
            successor_la_entries: 64,
            dependence_la_entries: 64,
            reader_la_entries: 64,
            elems_per_list_entry: 4,
            access_latency: Cycle::new(1),
            index_policy: IndexPolicy::Dynamic,
        }
    }

    fn desc(i: u64) -> DescriptorAddr {
        DescriptorAddr(0x10_0000 + i * 64)
    }

    fn block(i: u64) -> DepAddr {
        DepAddr(0x80_0000 + i * 4096)
    }

    /// Creates a task with the given dependences and submits it.
    fn spawn(dmu: &mut Dmu, d: DescriptorAddr, deps: &[(DepAddr, DepDirection)]) {
        dmu.create_task(d).unwrap();
        for &(addr, dir) in deps {
            dmu.add_dependence(d, addr, 4096, dir).unwrap();
        }
        dmu.submit_task(d).unwrap();
    }

    fn drain_ready(dmu: &mut Dmu) -> Vec<DescriptorAddr> {
        let mut out = Vec::new();
        while let Some(t) = dmu.get_ready_task().value {
            out.push(t.descriptor);
        }
        out
    }

    #[test]
    fn independent_tasks_are_ready_immediately() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::Out)]);
        let ready = drain_ready(&mut dmu);
        assert_eq!(ready, vec![desc(0), desc(1)]);
    }

    /// Tasks leave the Ready Queue in the order they entered it, and a task
    /// woken by a finish queues behind the ones already waiting.
    #[test]
    fn ready_queue_fifo_order_is_preserved() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        for i in 2..5 {
            spawn(&mut dmu, desc(i), &[(block(i), DepDirection::In)]);
        }
        let first = dmu.get_ready_task().value.unwrap();
        assert_eq!(first.descriptor, desc(0));
        dmu.finish_task(desc(0)).unwrap();
        let rest = drain_ready(&mut dmu);
        assert_eq!(rest, vec![desc(2), desc(3), desc(4), desc(1)]);
    }

    #[test]
    fn ready_queue_pop_on_empty_returns_none() {
        let mut dmu = Dmu::new(small_config());
        assert_eq!(dmu.get_ready_task().value, None);
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        assert_eq!(drain_ready(&mut dmu), vec![desc(0)]);
        // Task 1 is live but blocked, so the drained queue has nothing.
        assert_eq!(dmu.get_ready_task().value, None);
        // Every poll counts, empty or not: one here, two in the drain, one
        // before the first spawn.
        assert_eq!(dmu.stats().get_readies, 4);
    }

    #[test]
    fn ready_queue_peak_tracks_maximum_occupancy() {
        let mut dmu = Dmu::new(small_config());
        for i in 0..3 {
            spawn(&mut dmu, desc(i), &[]);
        }
        assert_eq!(drain_ready(&mut dmu).len(), 3);
        spawn(&mut dmu, desc(3), &[]);
        // One task waits now; the peak keeps the high-water mark.
        assert_eq!(dmu.peak_occupancy().ready_queue, 3);
    }

    #[test]
    fn raw_dependence_orders_producer_before_consumer() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        assert_eq!(drain_ready(&mut dmu), vec![desc(0)]);
        let woken = dmu.finish_task(desc(0)).unwrap().value;
        assert_eq!(woken.len(), 1);
        assert_eq!(drain_ready(&mut dmu), vec![desc(1)]);
    }

    #[test]
    fn war_dependence_orders_reader_before_writer() {
        let mut dmu = Dmu::new(small_config());
        // Writer W0, then reader R, then writer W1. R must wait for W0; W1
        // must wait for both W0 (WAW) and R (WAR).
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        spawn(&mut dmu, desc(2), &[(block(0), DepDirection::Out)]);
        assert_eq!(drain_ready(&mut dmu), vec![desc(0)]);
        dmu.finish_task(desc(0)).unwrap();
        assert_eq!(drain_ready(&mut dmu), vec![desc(1)]);
        // W1 is not ready yet: the reader is still in flight.
        assert!(dmu.get_ready_task().value.is_none());
        dmu.finish_task(desc(1)).unwrap();
        assert_eq!(drain_ready(&mut dmu), vec![desc(2)]);
        dmu.finish_task(desc(2)).unwrap();
        assert!(dmu.is_drained());
    }

    #[test]
    fn waw_dependence_serializes_writers() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::Out)]);
        assert_eq!(drain_ready(&mut dmu), vec![desc(0)]);
        dmu.finish_task(desc(0)).unwrap();
        assert_eq!(drain_ready(&mut dmu), vec![desc(1)]);
    }

    #[test]
    fn multiple_readers_run_in_parallel() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        for i in 1..=5 {
            spawn(&mut dmu, desc(i), &[(block(0), DepDirection::In)]);
        }
        dmu.get_ready_task(); // producer
        dmu.finish_task(desc(0)).unwrap();
        let ready = drain_ready(&mut dmu);
        assert_eq!(ready.len(), 5, "all readers become ready together");
    }

    #[test]
    fn successor_counts_are_reported() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        for i in 1..=3 {
            spawn(&mut dmu, desc(i), &[(block(0), DepDirection::In)]);
        }
        let ready = dmu.get_ready_task().value.unwrap();
        assert_eq!(ready.descriptor, desc(0));
        assert_eq!(ready.num_successors, 3);
    }

    #[test]
    fn diamond_dependence_pattern() {
        // A writes X; B and C read X and write Y_b / Y_c; D reads both.
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(
            &mut dmu,
            desc(1),
            &[(block(0), DepDirection::In), (block(1), DepDirection::Out)],
        );
        spawn(
            &mut dmu,
            desc(2),
            &[(block(0), DepDirection::In), (block(2), DepDirection::Out)],
        );
        spawn(
            &mut dmu,
            desc(3),
            &[(block(1), DepDirection::In), (block(2), DepDirection::In)],
        );
        assert_eq!(drain_ready(&mut dmu), vec![desc(0)]);
        dmu.finish_task(desc(0)).unwrap();
        assert_eq!(drain_ready(&mut dmu), vec![desc(1), desc(2)]);
        dmu.finish_task(desc(1)).unwrap();
        assert!(dmu.get_ready_task().value.is_none(), "D waits for C too");
        dmu.finish_task(desc(2)).unwrap();
        assert_eq!(drain_ready(&mut dmu), vec![desc(3)]);
        dmu.finish_task(desc(3)).unwrap();
        assert!(dmu.is_drained());
    }

    #[test]
    fn inout_behaves_like_a_chain() {
        let mut dmu = Dmu::new(small_config());
        for i in 0..4 {
            spawn(&mut dmu, desc(i), &[(block(0), DepDirection::InOut)]);
        }
        for i in 0..4 {
            let ready = drain_ready(&mut dmu);
            assert_eq!(ready, vec![desc(i)], "chain executes strictly in order");
            dmu.finish_task(desc(i)).unwrap();
        }
        assert!(dmu.is_drained());
    }

    #[test]
    fn finished_writer_does_not_create_edges() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        dmu.get_ready_task();
        dmu.finish_task(desc(0)).unwrap();
        // A later reader of the block must be immediately ready: the writer
        // already finished and its DMU state is gone.
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        assert_eq!(drain_ready(&mut dmu), vec![desc(1)]);
    }

    #[test]
    fn resources_are_reclaimed_after_finish() {
        let mut dmu = Dmu::new(small_config());
        for wave in 0..10u64 {
            for i in 0..8u64 {
                let d = desc(wave * 8 + i);
                spawn(&mut dmu, d, &[(block(i), DepDirection::InOut)]);
            }
            let ready = drain_ready(&mut dmu);
            for d in ready {
                dmu.finish_task(d).unwrap();
            }
        }
        // 80 tasks flowed through a 64-entry DMU without ever stalling
        // because each wave drained before the next.
        assert!(dmu.is_drained());
        assert_eq!(dmu.stats().creates, 80);
        assert_eq!(dmu.stats().stalls, 0);
    }

    #[test]
    fn create_stalls_when_tat_is_full_and_recovers() {
        let mut config = small_config();
        config.tat_entries = 8;
        config.tat_ways = 8;
        let mut dmu = Dmu::new(config);
        for i in 0..8 {
            spawn(&mut dmu, desc(i), &[]);
        }
        let err = dmu.create_task(desc(100)).unwrap_err();
        assert!(matches!(err, DmuError::Stall(_)));
        assert_eq!(dmu.stats().stalls, 1);
        // Finishing one task frees an entry and the create succeeds.
        let victim = dmu.get_ready_task().value.unwrap().descriptor;
        dmu.finish_task(victim).unwrap();
        assert!(dmu.create_task(desc(100)).is_ok());
    }

    #[test]
    fn add_dependence_stalls_when_dat_is_full() {
        let mut config = small_config();
        config.dat_entries = 8;
        config.dat_ways = 8;
        let mut dmu = Dmu::new(config);
        dmu.create_task(desc(0)).unwrap();
        for i in 0..8 {
            dmu.add_dependence(desc(0), block(i), 4096, DepDirection::Out)
                .unwrap();
        }
        let err = dmu
            .add_dependence(desc(0), block(99), 4096, DepDirection::Out)
            .unwrap_err();
        assert!(matches!(
            err,
            DmuError::Stall(StallReason::DatConflict) | DmuError::Stall(StallReason::DatExhausted)
        ));
    }

    #[test]
    fn stalled_operation_leaves_state_consistent() {
        let mut config = small_config();
        config.successor_la_entries = 2;
        let mut dmu = Dmu::new(config);
        // Task 0 and 1 use both SLA entries for their (empty) successor lists.
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[]);
        // Creating a third task needs a new successor list and must stall.
        let err = dmu.create_task(desc(2)).unwrap_err();
        assert_eq!(err, DmuError::Stall(StallReason::SuccessorLaFull));
        // The failed create left nothing behind: finishing the ready tasks
        // drains the DMU completely.
        for d in drain_ready(&mut dmu) {
            dmu.finish_task(d).unwrap();
        }
        assert!(dmu.is_drained());
    }

    #[test]
    fn duplicate_reader_war_stalls_instead_of_panicking() {
        // Regression: one `add_dependence` can push the same successor list
        // twice (here, a task registered as reader of the same block twice).
        // The old pre-check probed `push_needs_new_entry` per push against
        // pre-operation state, undercounted the SLA demand, passed the stall
        // gate and then panicked mid-operation when the second push found no
        // free entry. The exact pre-check must stall up front instead.
        let mut config = small_config();
        config.successor_la_entries = 3;
        config.elems_per_list_entry = 2;
        let mut dmu = Dmu::new(config);
        // R writes block 0 and reads block 1 twice.
        dmu.create_task(desc(0)).unwrap();
        dmu.add_dependence(desc(0), block(0), 4096, DepDirection::Out)
            .unwrap();
        dmu.add_dependence(desc(0), block(1), 4096, DepDirection::In)
            .unwrap();
        dmu.add_dependence(desc(0), block(1), 4096, DepDirection::In)
            .unwrap();
        dmu.submit_task(desc(0)).unwrap();
        // A reads block 0, filling one of the two slots of R's successor list.
        dmu.create_task(desc(1)).unwrap();
        dmu.add_dependence(desc(1), block(0), 4096, DepDirection::In)
            .unwrap();
        dmu.submit_task(desc(1)).unwrap();
        // T's create consumes the third and last SLA entry.
        dmu.create_task(desc(2)).unwrap();
        // T writes block 1: WAR edges push R's successor list once per reader
        // occurrence. The first push fills the tail; the second would chain a
        // new entry that does not exist.
        let err = dmu
            .add_dependence(desc(2), block(1), 4096, DepDirection::Out)
            .unwrap_err();
        assert_eq!(err, DmuError::Stall(StallReason::SuccessorLaFull));
        // Nothing was half-applied: the graph drains, T retries and succeeds.
        dmu.get_ready_task();
        dmu.finish_task(desc(0)).unwrap();
        dmu.get_ready_task();
        dmu.finish_task(desc(1)).unwrap();
        dmu.add_dependence(desc(2), block(1), 4096, DepDirection::Out)
            .unwrap();
        dmu.submit_task(desc(2)).unwrap();
        dmu.get_ready_task();
        dmu.finish_task(desc(2)).unwrap();
        assert!(dmu.is_drained());
    }

    #[test]
    fn unknown_task_is_reported() {
        let mut dmu = Dmu::new(small_config());
        let err = dmu
            .add_dependence(desc(7), block(0), 64, DepDirection::In)
            .unwrap_err();
        assert_eq!(err, DmuError::UnknownTask(desc(7)));
        assert!(matches!(
            dmu.finish_task(desc(7)),
            Err(DmuError::UnknownTask(_))
        ));
        assert!(matches!(
            dmu.submit_task(desc(7)),
            Err(DmuError::UnknownTask(_))
        ));
    }

    #[test]
    fn duplicate_descriptor_rejected_while_in_flight() {
        let mut dmu = Dmu::new(small_config());
        dmu.create_task(desc(0)).unwrap();
        assert!(dmu.create_task(desc(0)).is_err());
    }

    #[test]
    fn access_counts_reflect_list_lengths() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        // Many readers: the finish of the producer must walk a long
        // successor list, so its access count grows with the reader count.
        for i in 1..=10 {
            spawn(&mut dmu, desc(i), &[(block(0), DepDirection::In)]);
        }
        dmu.get_ready_task();
        let few_succ = {
            let mut other = Dmu::new(small_config());
            spawn(&mut other, desc(0), &[(block(0), DepDirection::Out)]);
            spawn(&mut other, desc(1), &[(block(0), DepDirection::In)]);
            other.get_ready_task();
            other.finish_task(desc(0)).unwrap().accesses.total()
        };
        let many_succ = dmu.finish_task(desc(0)).unwrap().accesses.total();
        assert!(
            many_succ > few_succ,
            "finishing a task with 10 successors ({many_succ} accesses) should cost more than with 1 ({few_succ})"
        );
    }

    #[test]
    fn cost_scales_with_access_latency() {
        let mut dmu = Dmu::new(small_config());
        let result = dmu.create_task(desc(0)).unwrap();
        assert_eq!(
            result.cost(Cycle::new(4)),
            Cycle::new(result.accesses.total() * 4)
        );
    }

    #[test]
    fn stats_count_operations() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        dmu.get_ready_task();
        dmu.finish_task(desc(0)).unwrap();
        let stats = dmu.stats();
        assert_eq!(stats.creates, 2);
        assert_eq!(stats.add_dependences, 2);
        assert_eq!(stats.submits, 2);
        assert_eq!(stats.finishes, 1);
        assert_eq!(stats.get_readies, 1);
        assert!(stats.total_accesses > 0);
    }

    #[test]
    fn peak_occupancy_is_reported() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        let peak = dmu.peak_occupancy();
        assert_eq!(peak.tasks, 2);
        assert_eq!(peak.deps, 1);
        assert_eq!(peak.ready_queue, 1);
        assert!(peak.successor_la >= 2);
        assert!(peak.tat >= 2);
    }

    #[test]
    fn batched_add_dependences_matches_per_op() {
        // Two identical DMUs: one fed through the batched entry point, one
        // through per-op calls. Every counter, stall and final statistic must
        // be bit-identical — the batch path only amortizes the *actual* TAT
        // hash lookup, never the modeled accesses.
        let mut config = small_config();
        config.dat_entries = 16;
        config.dat_ways = 4;
        config.reader_la_entries = 8;
        let mut per_op = Dmu::new(config.clone());
        let mut batched = Dmu::new(config);

        let mut counters = Vec::new();
        for t in 0..40u64 {
            per_op.create_task(desc(t)).unwrap();
            batched.create_task(desc(t)).unwrap();
            let deps: Vec<(DepAddr, u64, DepDirection)> = (0..4u64)
                .map(|j| {
                    let dir = match (t + j) % 3 {
                        0 => DepDirection::In,
                        1 => DepDirection::Out,
                        _ => DepDirection::InOut,
                    };
                    (block((t + j) % 6), 4096, dir)
                })
                .collect();

            // Per-op reference, stalling and retrying like the driver does.
            let mut next = 0;
            let mut reference = Vec::new();
            while next < deps.len() {
                let (addr, size, dir) = deps[next];
                match per_op.add_dependence(desc(t), addr, size, dir) {
                    Ok(r) => {
                        reference.push(r.accesses);
                        next += 1;
                    }
                    Err(DmuError::Stall(_)) => {
                        let victim = per_op.get_ready_task().value.unwrap().descriptor;
                        per_op.finish_task(victim).unwrap();
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            per_op.submit_task(desc(t)).unwrap();

            // Batched path: resume from `counters.len()` after each stall.
            counters.clear();
            loop {
                let remaining = deps[counters.len()..].iter().copied();
                match batched.add_dependences(desc(t), remaining, &mut counters) {
                    Ok(()) => break,
                    Err(DmuError::Stall(_)) => {
                        let victim = batched.get_ready_task().value.unwrap().descriptor;
                        batched.finish_task(victim).unwrap();
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            batched.submit_task(desc(t)).unwrap();
            assert_eq!(
                counters, reference,
                "per-dep access counters diverged at task {t}"
            );
        }

        // Drain both and compare the full statistics.
        loop {
            let a = per_op.get_ready_task();
            let b = batched.get_ready_task();
            assert_eq!(a, b);
            match a.value {
                Some(t) => {
                    let wa = per_op.finish_task(t.descriptor).unwrap();
                    let wb = batched.finish_task(t.descriptor).unwrap();
                    assert_eq!(wa, wb);
                }
                None => break,
            }
        }
        assert!(per_op.is_drained() && batched.is_drained());
        assert_eq!(per_op.stats(), batched.stats());
        assert_eq!(per_op.peak_occupancy(), batched.peak_occupancy());
    }

    #[test]
    fn long_chain_through_small_dmu() {
        // A 100-task chain through a tiny DMU: tasks are created lazily as
        // space frees up, mimicking the blocking creation loop of the master
        // thread.
        let mut config = small_config();
        config.tat_entries = 8;
        config.tat_ways = 8;
        config.dat_entries = 8;
        config.dat_ways = 8;
        let mut dmu = Dmu::new(config);
        let total = 100u64;
        let mut created = 0u64;
        let mut finished = 0u64;
        let mut running: Option<DescriptorAddr> = None;
        while finished < total {
            // Create as many tasks as possible until a stall.
            while created < total {
                match dmu.create_task(desc(created)) {
                    Ok(_) => {
                        dmu.add_dependence(desc(created), block(0), 4096, DepDirection::InOut)
                            .unwrap();
                        dmu.submit_task(desc(created)).unwrap();
                        created += 1;
                    }
                    Err(DmuError::Stall(_)) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            // Execute one ready task.
            if running.is_none() {
                running = dmu.get_ready_task().value.map(|t| t.descriptor);
            }
            let d = running.take().expect("chain always has one ready task");
            dmu.finish_task(d).unwrap();
            finished += 1;
        }
        assert!(dmu.is_drained());
        assert_eq!(dmu.stats().finishes, total);
        assert!(dmu.stats().stalls > 0, "the tiny DMU must have stalled");
    }

    #[test]
    fn snapshot_round_trip_mid_flight() {
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        spawn(
            &mut dmu,
            desc(2),
            &[(block(0), DepDirection::In), (block(1), DepDirection::Out)],
        );
        // Consume one ready task so the round trip crosses a non-trivial state:
        // live tasks, pending dependences, and a partially drained ready queue.
        let first = dmu.get_ready_task().value.unwrap().descriptor;
        assert_eq!(first, desc(0));

        let mut bytes = Vec::new();
        dmu.save(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let mut restored = Dmu::load(&mut reader).expect("snapshot must load");
        reader.expect_end("dmu").unwrap();
        // The persisted state round-trips byte for byte; the host-only
        // reader index is rebuilt, not copied, so it is not compared here.
        let mut again = Vec::new();
        restored.save(&mut again);
        assert_eq!(bytes, again);

        // Both copies must behave identically from here on: every result,
        // access counter included, until both drain.
        let mut next = Some(first);
        let mut order = Vec::new();
        while let Some(d) = next {
            assert_eq!(dmu.finish_task(d), restored.finish_task(d));
            let (a, b) = (dmu.get_ready_task(), restored.get_ready_task());
            assert_eq!(a, b);
            next = a.value.map(|t| t.descriptor);
            order.extend(next);
        }
        assert_eq!(order, vec![desc(1), desc(2)]);
        assert!(dmu.is_drained() && restored.is_drained());
        assert_eq!(dmu.stats(), restored.stats());
    }

    /// A restored Ready Queue must agree with the Task Table: a queued task
    /// that is not live, is queued twice, is still under construction or
    /// still waits on a predecessor is refused, and so is a recorded peak
    /// below the queue's length.
    #[test]
    fn load_refuses_ready_entries_that_are_not_ready() {
        // Task 0 is ready, task 1 waits for it, task 2 is not submitted.
        let mut dmu = Dmu::new(small_config());
        spawn(&mut dmu, desc(0), &[(block(0), DepDirection::Out)]);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::In)]);
        dmu.create_task(desc(2)).unwrap();
        let restore = |dmu: &Dmu| {
            let mut bytes = Vec::new();
            dmu.save(&mut bytes);
            Dmu::load(&mut Reader::new(&bytes))
        };
        assert!(restore(&dmu).is_ok());

        for (task, problem) in [
            (TaskId::new(5), "is not a live task table row"),
            (TaskId::new(0), "is queued twice"),
            (TaskId::new(2), "is still under construction"),
            (TaskId::new(1), "still counts unfinished predecessors"),
        ] {
            let mut hostile = dmu.clone();
            hostile.ready.push_back(task);
            hostile.ready_peak = hostile.ready.len();
            match restore(&hostile) {
                Err(SnapshotError::Corrupt { context }) => assert!(
                    context.contains("ready queue holds") && context.contains(problem),
                    "{context}"
                ),
                other => panic!("queued {task}: expected a corrupt ready queue, got {other:?}"),
            }
        }
        let mut hostile = dmu.clone();
        hostile.ready_peak = 0;
        assert!(matches!(
            restore(&hostile),
            Err(SnapshotError::Corrupt { context }) if context.contains("records a peak of 0")
        ));
    }

    /// A list handle from its raw head index, as a snapshot carries it.
    fn handle(idx: usize) -> ListHandle {
        let bytes = tdm_sim::snapshot::to_payload(&idx);
        ListHandle::load(&mut Reader::new(&bytes)).unwrap()
    }

    /// Each live row must own a distinct head of its list array: a handle
    /// into another row's list, a chain's continuation entry or a free entry
    /// would send every walk from it through lists it does not own.
    #[test]
    fn load_refuses_a_row_whose_list_is_not_its_own_head() {
        let mut dmu = Dmu::new(small_config());
        // Task 0 names five blocks, so its dependence list spans two
        // 4-slot entries.
        let deps: Vec<_> = (0..5).map(|i| (block(i), DepDirection::In)).collect();
        spawn(&mut dmu, desc(0), &deps);
        spawn(&mut dmu, desc(1), &[(block(0), DepDirection::Out)]);
        let restore = |dmu: &Dmu| {
            let mut bytes = Vec::new();
            dmu.save(&mut bytes);
            Dmu::load(&mut Reader::new(&bytes))
        };
        assert!(restore(&dmu).is_ok());
        // Task 0's dependence list took DLA entry 0 and chained entry 1
        // for its fifth block before task 1's list took entry 2.
        let continuation = 1;
        type Edit = fn(&mut Dmu, usize);
        let cases: [(Edit, &str); 3] = [
            (
                |d, _| {
                    d.tasks.row_mut(TaskId::new(1)).successor_list =
                        d.tasks.row(TaskId::new(0)).successor_list
                },
                "task table row T1 has a successor list",
            ),
            (
                |d, continuation| {
                    d.tasks.row_mut(TaskId::new(1)).dependence_list = handle(continuation)
                },
                "task table row T1 has a dependence list",
            ),
            (
                |d, _| d.deps.row_mut(DepId::new(0)).reader_list = handle(63),
                "dependence table row D0 has a reader list",
            ),
        ];
        for (edit, problem) in cases {
            let mut hostile = dmu.clone();
            edit(&mut hostile, continuation);
            match restore(&hostile) {
                Err(SnapshotError::Corrupt { context }) => assert!(
                    context.contains(problem) && context.contains("not a list head of its own"),
                    "{context}"
                ),
                other => panic!("{problem}: expected a corrupt list head, got {other:?}"),
            }
        }
    }

    /// Each alias table must index its sets as the configuration builds
    /// it: the TAT by `TAT_INDEX_LOW_BIT`, the DAT by `index_policy`.
    #[test]
    fn load_refuses_alias_tables_with_another_index_policy() {
        type Edit = fn(&mut Dmu);
        let cases: [(&str, Edit); 2] = [
            ("TAT", |d| {
                d.tat = AliasTable::new(64, 8, IndexPolicy::Dynamic)
            }),
            ("DAT", |d| {
                d.dat = AliasTable::new(64, 8, IndexPolicy::Static { low_bit: 6 })
            }),
        ];
        for (name, edit) in cases {
            let mut hostile = Dmu::new(small_config());
            edit(&mut hostile);
            let mut bytes = Vec::new();
            hostile.save(&mut bytes);
            match Dmu::load(&mut Reader::new(&bytes)) {
                Err(SnapshotError::Corrupt { context }) => assert!(
                    context.contains(&format!("DMU {name} has index policy")),
                    "{context}"
                ),
                other => panic!("{name}: expected a corrupt index policy, got {other:?}"),
            }
        }
    }

    /// Every structure a DMU restores must have the geometry its own
    /// validated configuration builds: a structure of another size, ways or
    /// elements per entry would pass its own codec and break the first
    /// operation that sizes a pre-check or an index by the configuration.
    #[test]
    fn load_refuses_structures_the_configuration_does_not_build() {
        type Edit = fn(&mut Dmu);
        let cases: [(&str, Edit); 7] = [
            ("TAT", |d| {
                d.tat = AliasTable::new(128, 8, IndexPolicy::Dynamic)
            }),
            ("DAT", |d| {
                d.dat = AliasTable::new(64, 4, IndexPolicy::Dynamic)
            }),
            ("task table", |d| d.tasks = TaskTable::new(32)),
            ("dependence table", |d| d.deps = DependenceTable::new(128)),
            ("successor list array", |d| d.sla = ListArray::new(32, 4)),
            ("dependence list array", |d| d.dla = ListArray::new(64, 2)),
            ("reader list array", |d| d.rla = ListArray::new(64, 8)),
        ];
        let restore = |dmu: &Dmu| {
            let mut bytes = Vec::new();
            dmu.save(&mut bytes);
            Dmu::load(&mut Reader::new(&bytes))
        };
        assert!(restore(&Dmu::new(small_config())).is_ok());
        for (name, edit) in cases {
            let mut hostile = Dmu::new(small_config());
            edit(&mut hostile);
            match restore(&hostile) {
                Err(SnapshotError::Corrupt { context }) => {
                    assert!(context.contains(&format!("DMU {name} has")), "{context}")
                }
                other => panic!("{name}: expected a corrupt geometry, got {other:?}"),
            }
        }
    }
}

/// Randomized lockstep equivalence suite for the slab DMU.
///
/// `NaiveDmu` keeps the pre-slab reference implementation alive: per-set way
/// vectors for the alias tables and the node-walking [`NaiveListArray`] —
/// the layouts the slab alias tables and list arrays replaced. It shares the
/// production row [`Table`](crate::tables::Table)s, whose layout never
/// differed. Every operation of a randomized workload is replayed on both
/// models and must produce bit-identical results, per-op access counters,
/// errors and aggregate statistics.
///
/// CI runs this module by name: `cargo test --release -p tdm-core dmu_lockstep`.
#[cfg(test)]
mod dmu_lockstep {
    use super::*;
    use crate::list_array::naive::NaiveListArray;
    use tdm_sim::rng::SplitMix64;

    /// One way of a naive alias-table set: the old array-of-structs node.
    #[derive(Debug, Clone, Copy)]
    struct Way {
        addr: u64,
        id: u32,
    }

    /// Occupancy statistics mirroring [`crate::alias::AliasOccupancy`], kept
    /// separately because that struct's sampling fields are private.
    #[derive(Debug, Clone, Copy, Default)]
    struct NaiveAliasStats {
        occupied_set_samples_sum: u64,
        samples: u64,
        peak_entries: usize,
    }

    /// The pre-refactor alias table: a `Vec<Way>` per set, occupancy sampled
    /// with a full O(num_sets) scan on every insert.
    struct NaiveAliasTable {
        sets: Vec<Vec<Way>>,
        ways: usize,
        free_ids: Vec<u32>,
        policy: IndexPolicy,
        stats: NaiveAliasStats,
        valid_entries: usize,
    }

    impl NaiveAliasTable {
        fn new(entries: usize, ways: usize, policy: IndexPolicy) -> Self {
            NaiveAliasTable {
                sets: vec![Vec::new(); entries / ways],
                ways,
                free_ids: (0..entries as u32).rev().collect(),
                policy,
                stats: NaiveAliasStats::default(),
                valid_entries: 0,
            }
        }

        fn set_index(&self, addr: u64, size: u64) -> usize {
            let shift = match self.policy {
                IndexPolicy::Static { low_bit } => low_bit,
                IndexPolicy::Dynamic => {
                    if size <= 1 {
                        0
                    } else {
                        63 - size.next_power_of_two().leading_zeros()
                    }
                }
            };
            ((addr >> shift.min(63)) as usize) % self.sets.len()
        }

        fn lookup(&self, addr: u64, size: u64) -> Option<u32> {
            let set = self.set_index(addr, size);
            self.sets[set]
                .iter()
                .find(|way| way.addr == addr)
                .map(|way| way.id)
        }

        fn insert(&mut self, addr: u64, size: u64) -> Result<u32, AliasError> {
            let set = self.set_index(addr, size);
            if self.sets[set].len() >= self.ways {
                return Err(AliasError::SetConflict);
            }
            let Some(id) = self.free_ids.pop() else {
                return Err(AliasError::Exhausted);
            };
            self.sets[set].push(Way { addr, id });
            self.valid_entries += 1;
            self.stats.peak_entries = self.stats.peak_entries.max(self.valid_entries);
            self.stats.samples += 1;
            self.stats.occupied_set_samples_sum +=
                self.sets.iter().filter(|s| !s.is_empty()).count() as u64;
            Ok(id)
        }

        fn remove(&mut self, addr: u64, size: u64) -> Option<u32> {
            let set = self.set_index(addr, size);
            let pos = self.sets[set].iter().position(|way| way.addr == addr)?;
            let id = self.sets[set].swap_remove(pos).id;
            self.free_ids.push(id);
            self.valid_entries -= 1;
            Some(id)
        }

        fn average_occupied_sets(&self) -> f64 {
            if self.stats.samples == 0 {
                0.0
            } else {
                self.stats.occupied_set_samples_sum as f64 / self.stats.samples as f64
            }
        }
    }

    /// The reference DMU: identical semantics and access accounting to
    /// [`Dmu`], implemented over the old pointer-chasing storage.
    struct NaiveDmu {
        tat: NaiveAliasTable,
        dat: NaiveAliasTable,
        tasks: TaskTable,
        deps: DependenceTable,
        sla: NaiveListArray,
        dla: NaiveListArray,
        rla: NaiveListArray,
        ready: VecDeque<TaskId>,
        ready_peak: usize,
        stats: DmuStats,
    }

    impl NaiveDmu {
        fn new(config: &DmuConfig) -> Self {
            NaiveDmu {
                tat: NaiveAliasTable::new(
                    config.tat_entries,
                    config.tat_ways,
                    IndexPolicy::Static {
                        low_bit: TAT_INDEX_LOW_BIT,
                    },
                ),
                dat: NaiveAliasTable::new(config.dat_entries, config.dat_ways, config.index_policy),
                tasks: TaskTable::new(config.task_table_entries()),
                deps: DependenceTable::new(config.dependence_table_entries()),
                sla: NaiveListArray::new(config.successor_la_entries, config.elems_per_list_entry),
                dla: NaiveListArray::new(config.dependence_la_entries, config.elems_per_list_entry),
                rla: NaiveListArray::new(config.reader_la_entries, config.elems_per_list_entry),
                ready: VecDeque::new(),
                ready_peak: 0,
                stats: DmuStats::default(),
            }
        }

        fn stall(&mut self, reason: StallReason) -> DmuError {
            self.stats.stalls += 1;
            DmuError::Stall(reason)
        }

        fn task_id(&self, desc: DescriptorAddr) -> Result<TaskId, DmuError> {
            self.tat
                .lookup(desc.raw(), 64)
                .map(TaskId::new)
                .ok_or(DmuError::UnknownTask(desc))
        }

        fn push_ready(&mut self, task: TaskId) {
            self.ready.push_back(task);
            self.ready_peak = self.ready_peak.max(self.ready.len());
        }

        fn create_task(&mut self, desc: DescriptorAddr) -> Result<DmuResult<TaskId>, DmuError> {
            if self.tat.lookup(desc.raw(), 64).is_some() {
                return Err(DmuError::UnknownTask(desc));
            }
            if self.sla.free_entries() < 1 {
                return Err(self.stall(StallReason::SuccessorLaFull));
            }
            if self.dla.free_entries() < 1 {
                return Err(self.stall(StallReason::DependenceLaFull));
            }
            let mut accesses = AccessCounter::new();
            let id = match self.tat.insert(desc.raw(), 64) {
                Ok(raw) => TaskId::new(raw),
                Err(AliasError::SetConflict) => return Err(self.stall(StallReason::TatConflict)),
                Err(AliasError::Exhausted) => return Err(self.stall(StallReason::TatExhausted)),
            };
            accesses.touch(DmuStructure::Tat);
            let successor_list = self.sla.alloc_list().expect("pre-checked SLA space");
            accesses.touch(DmuStructure::SuccessorLa);
            let dependence_list = self.dla.alloc_list().expect("pre-checked DLA space");
            accesses.touch(DmuStructure::DependenceLa);
            self.tasks.insert(
                id,
                TaskEntry {
                    descriptor: desc,
                    num_predecessors: 0,
                    num_successors: 0,
                    successor_list,
                    dependence_list,
                    under_construction: true,
                },
            );
            accesses.touch(DmuStructure::TaskTable);
            self.stats.creates += 1;
            self.stats.total_accesses += accesses.total();
            Ok(DmuResult::new(id, accesses))
        }

        fn dep_id_for(
            &mut self,
            addr: DepAddr,
            size: u64,
            accesses: &mut AccessCounter,
        ) -> Result<DepId, DmuError> {
            accesses.touch(DmuStructure::Dat);
            if let Some(raw) = self.dat.lookup(addr.raw(), size) {
                return Ok(DepId::new(raw));
            }
            if self.rla.free_entries() < 1 {
                return Err(self.stall(StallReason::ReaderLaFull));
            }
            let raw = match self.dat.insert(addr.raw(), size) {
                Ok(raw) => raw,
                Err(AliasError::SetConflict) => return Err(self.stall(StallReason::DatConflict)),
                Err(AliasError::Exhausted) => return Err(self.stall(StallReason::DatExhausted)),
            };
            let reader_list = self.rla.alloc_list().expect("pre-checked RLA space");
            accesses.touch(DmuStructure::ReaderLa);
            let id = DepId::new(raw);
            self.deps.insert(
                id,
                DepEntry {
                    addr,
                    size,
                    last_writer: None,
                    reader_list,
                },
            );
            accesses.touch(DmuStructure::DependenceTable);
            Ok(id)
        }

        fn add_dependence_requirements(
            &self,
            task: TaskId,
            dep: Option<DepId>,
            dir: DepDirection,
        ) -> (usize, usize, usize) {
            fn bump(pushes: &mut Vec<(TaskId, u32)>, target: TaskId) {
                if let Some(entry) = pushes.iter_mut().find(|entry| entry.0 == target) {
                    entry.1 += 1;
                } else {
                    pushes.push((target, 1));
                }
            }

            let mut succ_pushes: Vec<(TaskId, u32)> = Vec::new();
            let mut needed_rla = 0;
            let needed_dla = usize::from(
                self.dla
                    .push_needs_new_entry(self.tasks.row(task).dependence_list),
            );
            if let Some(dep_id) = dep {
                let entry = self.deps.row(dep_id);
                if let Some(writer) = entry.last_writer {
                    if writer != task {
                        bump(&mut succ_pushes, writer);
                    }
                }
                if dir.writes() {
                    for reader_raw in self.rla.collect(entry.reader_list) {
                        let reader = TaskId::new(reader_raw);
                        if reader == task {
                            continue;
                        }
                        bump(&mut succ_pushes, reader);
                    }
                } else if self.rla.push_needs_new_entry(entry.reader_list) {
                    needed_rla += 1;
                }
            }
            let needed_sla = succ_pushes
                .iter()
                .map(|&(target, pushes)| {
                    self.sla.new_entries_for_pushes(
                        self.tasks.row(target).successor_list,
                        pushes as usize,
                    )
                })
                .sum();
            (needed_sla, needed_dla, needed_rla)
        }

        fn add_dependence(
            &mut self,
            desc: DescriptorAddr,
            addr: DepAddr,
            size: u64,
            dir: DepDirection,
        ) -> Result<DmuResult<()>, DmuError> {
            let task = self.task_id(desc)?;
            let mut accesses = AccessCounter::new();
            accesses.touch(DmuStructure::Tat);

            let existing = self.dat.lookup(addr.raw(), size).map(DepId::new);
            let (needed_sla, needed_dla, needed_rla) =
                self.add_dependence_requirements(task, existing, dir);
            if self.sla.free_entries() < needed_sla {
                return Err(self.stall(StallReason::SuccessorLaFull));
            }
            if self.dla.free_entries() < needed_dla {
                return Err(self.stall(StallReason::DependenceLaFull));
            }
            let new_dep_rla = usize::from(existing.is_none());
            if self.rla.free_entries() < needed_rla + new_dep_rla {
                return Err(self.stall(StallReason::ReaderLaFull));
            }

            let dep = self.dep_id_for(addr, size, &mut accesses)?;

            let dep_list = self.tasks.row(task).dependence_list;
            let walk = self
                .dla
                .push(dep_list, dep.raw())
                .expect("pre-checked DLA space");
            accesses.record(DmuStructure::DependenceLa, walk.entries_touched);

            let last_writer = self.deps.row(dep).last_writer;
            let reader_list = self.deps.row(dep).reader_list;
            accesses.touch(DmuStructure::DependenceTable);
            if let Some(writer) = last_writer {
                if writer != task {
                    let succ_list = self.tasks.row(writer).successor_list;
                    self.tasks.row_mut(writer).num_successors += 1;
                    accesses.touch(DmuStructure::TaskTable);
                    let walk = self
                        .sla
                        .push(succ_list, task.raw())
                        .expect("pre-checked SLA space");
                    accesses.record(DmuStructure::SuccessorLa, walk.entries_touched);
                    self.tasks.row_mut(task).num_predecessors += 1;
                    accesses.touch(DmuStructure::TaskTable);
                }
            }

            if dir.writes() {
                accesses.record(
                    DmuStructure::ReaderLa,
                    self.rla.entries_spanned(reader_list),
                );
                for reader_raw in self.rla.collect(reader_list) {
                    let reader = TaskId::new(reader_raw);
                    if reader == task {
                        continue;
                    }
                    let succ_list = self.tasks.row(reader).successor_list;
                    self.tasks.row_mut(reader).num_successors += 1;
                    accesses.touch(DmuStructure::TaskTable);
                    let walk = self
                        .sla
                        .push(succ_list, task.raw())
                        .expect("pre-checked SLA space");
                    accesses.record(DmuStructure::SuccessorLa, walk.entries_touched);
                    self.tasks.row_mut(task).num_predecessors += 1;
                    accesses.touch(DmuStructure::TaskTable);
                }
                let flush_walk = self.rla.flush(reader_list);
                accesses.record(DmuStructure::ReaderLa, flush_walk.entries_touched);
                self.deps.row_mut(dep).last_writer = Some(task);
                accesses.touch(DmuStructure::DependenceTable);
            } else {
                let walk = self
                    .rla
                    .push(reader_list, task.raw())
                    .expect("pre-checked RLA space");
                accesses.record(DmuStructure::ReaderLa, walk.entries_touched);
            }

            self.stats.add_dependences += 1;
            self.stats.total_accesses += accesses.total();
            Ok(DmuResult::new((), accesses))
        }

        fn submit_task(&mut self, desc: DescriptorAddr) -> Result<DmuResult<bool>, DmuError> {
            let mut accesses = AccessCounter::new();
            accesses.touch(DmuStructure::Tat);
            let task = self.task_id(desc)?;
            self.tasks.row_mut(task).under_construction = false;
            accesses.touch(DmuStructure::TaskTable);
            let ready_now = self.tasks.row(task).num_predecessors == 0;
            if ready_now {
                self.push_ready(task);
                accesses.touch(DmuStructure::ReadyQueue);
            }
            self.stats.submits += 1;
            self.stats.total_accesses += accesses.total();
            Ok(DmuResult::new(ready_now, accesses))
        }

        fn finish_task_into(
            &mut self,
            desc: DescriptorAddr,
            woken: &mut Vec<TaskId>,
        ) -> Result<DmuResult<()>, DmuError> {
            woken.clear();
            let mut accesses = AccessCounter::new();
            accesses.touch(DmuStructure::Tat);
            let task = self.task_id(desc)?;
            let successor_list = self.tasks.row(task).successor_list;
            let dependence_list = self.tasks.row(task).dependence_list;
            accesses.touch(DmuStructure::TaskTable);

            accesses.record(
                DmuStructure::SuccessorLa,
                self.sla.entries_spanned(successor_list),
            );
            for succ_raw in self.sla.collect(successor_list) {
                let succ = TaskId::new(succ_raw);
                let entry = self.tasks.row_mut(succ);
                entry.num_predecessors -= 1;
                let remaining = entry.num_predecessors;
                let under_construction = entry.under_construction;
                accesses.touch(DmuStructure::TaskTable);
                if remaining == 0 && !under_construction {
                    self.push_ready(succ);
                    accesses.touch(DmuStructure::ReadyQueue);
                    woken.push(succ);
                }
            }

            accesses.record(
                DmuStructure::DependenceLa,
                self.dla.entries_spanned(dependence_list),
            );
            for dep_raw in self.dla.collect(dependence_list) {
                let dep = DepId::new(dep_raw);
                if self.deps.get(dep).is_none() {
                    continue;
                }
                let reader_list = self.deps.row(dep).reader_list;
                let dep_addr = self.deps.row(dep).addr;
                let dep_size = self.deps.row(dep).size;
                let (_, walk) = self.rla.remove(reader_list, task.raw());
                accesses.record(DmuStructure::ReaderLa, walk.entries_touched);

                accesses.touch(DmuStructure::DependenceTable);
                if self.deps.row(dep).last_writer == Some(task) {
                    self.deps.row_mut(dep).last_writer = None;
                }
                if self.deps.row(dep).last_writer.is_none() && self.rla.is_empty(reader_list) {
                    let walk = self.rla.free_list(reader_list);
                    accesses.record(DmuStructure::ReaderLa, walk.entries_touched);
                    self.deps.remove(dep);
                    accesses.touch(DmuStructure::DependenceTable);
                    self.dat.remove(dep_addr.raw(), dep_size);
                    accesses.touch(DmuStructure::Dat);
                }
            }

            let walk = self.sla.free_list(successor_list);
            accesses.record(DmuStructure::SuccessorLa, walk.entries_touched);
            let walk = self.dla.free_list(dependence_list);
            accesses.record(DmuStructure::DependenceLa, walk.entries_touched);
            self.tasks.remove(task);
            accesses.touch(DmuStructure::TaskTable);
            self.tat.remove(desc.raw(), 64);
            accesses.touch(DmuStructure::Tat);

            self.stats.finishes += 1;
            self.stats.total_accesses += accesses.total();
            Ok(DmuResult::new((), accesses))
        }

        fn get_ready_task(&mut self) -> DmuResult<Option<ReadyTask>> {
            let mut accesses = AccessCounter::new();
            accesses.touch(DmuStructure::ReadyQueue);
            let value = self.ready.pop_front().map(|task| {
                let entry = self.tasks.row(task);
                accesses.touch(DmuStructure::TaskTable);
                ReadyTask {
                    descriptor: entry.descriptor,
                    num_successors: entry.num_successors,
                }
            });
            self.stats.get_readies += 1;
            self.stats.total_accesses += accesses.total();
            DmuResult::new(value, accesses)
        }

        fn is_drained(&self) -> bool {
            self.tasks.is_empty() && self.deps.is_empty() && self.ready.is_empty()
        }
    }

    /// Applies every op to both models and asserts bit-identical outcomes.
    struct LockstepRig {
        dmu: Dmu,
        naive: NaiveDmu,
        woken_dmu: Vec<TaskId>,
        woken_naive: Vec<TaskId>,
        /// Reader-index paths taken by the DMUs that round trips replaced.
        replaced_paths: IndexPaths,
    }

    impl LockstepRig {
        fn new(config: DmuConfig) -> Self {
            LockstepRig {
                naive: NaiveDmu::new(&config),
                dmu: Dmu::new(config),
                woken_dmu: Vec::new(),
                woken_naive: Vec::new(),
                replaced_paths: IndexPaths::default(),
            }
        }

        /// Replaces the DMU with one saved and loaded mid-run; the run goes
        /// on in lockstep with the naive model, which is not touched.
        fn round_trip(&mut self) {
            let mut bytes = Vec::new();
            self.dmu.save(&mut bytes);
            let restored = Dmu::load(&mut Reader::new(&bytes)).expect("snapshot must load");
            let mut again = Vec::new();
            restored.save(&mut again);
            assert_eq!(bytes, again, "the restored DMU saves other bytes");
            let old = std::mem::replace(&mut self.dmu, restored);
            self.replaced_paths.add(&old.index.paths);
        }

        /// Every reader-index path taken so far, across round trips.
        fn paths(&self) -> IndexPaths {
            let mut paths = self.replaced_paths.clone();
            paths.add(&self.dmu.index.paths);
            paths
        }

        fn create(&mut self, d: DescriptorAddr) -> bool {
            let a = self.dmu.create_task(d);
            let b = self.naive.create_task(d);
            assert_eq!(a, b, "create_task({d}) diverged");
            a.is_ok()
        }

        fn add_dep(&mut self, d: DescriptorAddr, addr: DepAddr, dir: DepDirection) -> bool {
            let a = self.dmu.add_dependence(d, addr, 4096, dir);
            let b = self.naive.add_dependence(d, addr, 4096, dir);
            assert_eq!(a, b, "add_dependence({d}, {addr}) diverged");
            a.is_ok()
        }

        fn submit(&mut self, d: DescriptorAddr) {
            let a = self.dmu.submit_task(d);
            let b = self.naive.submit_task(d);
            assert_eq!(a, b, "submit_task({d}) diverged");
        }

        fn pop_ready(&mut self) -> Option<DescriptorAddr> {
            let a = self.dmu.get_ready_task();
            let b = self.naive.get_ready_task();
            assert_eq!(a, b, "get_ready_task diverged");
            a.value.map(|t| t.descriptor)
        }

        fn finish(&mut self, d: DescriptorAddr) {
            let a = self.dmu.finish_task_into(d, &mut self.woken_dmu);
            let b = self.naive.finish_task_into(d, &mut self.woken_naive);
            assert_eq!(a, b, "finish_task({d}) diverged");
            assert_eq!(
                self.woken_dmu, self.woken_naive,
                "woken list diverged at {d}"
            );
        }

        fn check_aggregates(&self) {
            assert_eq!(self.dmu.stats(), self.naive.stats, "DmuStats diverged");
            let peak = self.dmu.peak_occupancy();
            assert_eq!(peak.tasks, self.naive.tasks.peak());
            assert_eq!(peak.deps, self.naive.deps.peak());
            assert_eq!(peak.ready_queue, self.naive.ready_peak);
            assert_eq!(peak.tat, self.naive.tat.stats.peak_entries);
            assert_eq!(peak.dat, self.naive.dat.stats.peak_entries);
            assert_eq!(
                self.dmu.dat_average_occupied_sets().to_bits(),
                self.naive.dat.average_occupied_sets().to_bits(),
                "Figure 11 occupancy metric diverged"
            );
        }
    }

    fn lockstep_config() -> DmuConfig {
        DmuConfig {
            tat_entries: 16,
            tat_ways: 4,
            dat_entries: 16,
            dat_ways: 4,
            successor_la_entries: 12,
            dependence_la_entries: 12,
            reader_la_entries: 12,
            elems_per_list_entry: 2,
            access_latency: Cycle::new(1),
            index_policy: IndexPolicy::Dynamic,
        }
    }

    /// The main lockstep drive: a reuse-heavy randomized workload through a
    /// deliberately tiny DMU so stalls, overflow chains, entry recycling and
    /// WAR flushes all fire constantly.
    #[test]
    fn slab_dmu_matches_naive_reference_in_randomized_lockstep() {
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(0xD_17E ^ seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut rig = LockstepRig::new(lockstep_config());
            let mut next_desc = 0u64;
            let mut pending: Vec<DescriptorAddr> = Vec::new();

            let desc_of = |i: u64| DescriptorAddr(0x10_0000 + i * 64);
            let block_of = |i: u64| DepAddr(0x80_0000 + i * 4096);

            for step in 0..2500u64 {
                match rng.next_below(10) {
                    0..=3 => {
                        let d = desc_of(next_desc);
                        if rig.create(d) {
                            next_desc += 1;
                            let ndeps = rng.next_below(4);
                            for _ in 0..ndeps {
                                let addr = block_of(rng.next_below(12));
                                let dir = match rng.next_below(3) {
                                    0 => DepDirection::In,
                                    1 => DepDirection::Out,
                                    _ => DepDirection::InOut,
                                };
                                if !rig.add_dep(d, addr, dir) {
                                    break;
                                }
                            }
                            rig.submit(d);
                        }
                    }
                    4..=6 => {
                        if let Some(d) = rig.pop_ready() {
                            pending.push(d);
                        }
                    }
                    _ => {
                        if !pending.is_empty() {
                            let idx = rng.next_below(pending.len() as u64) as usize;
                            let d = pending.swap_remove(idx);
                            rig.finish(d);
                        }
                    }
                }
                if step % 500 == 0 {
                    rig.check_aggregates();
                }
            }

            // Drain both models completely: finish everything popped, then
            // pop-and-finish until empty (every submitted task becomes ready
            // once its predecessors finish).
            for d in pending.drain(..) {
                rig.finish(d);
            }
            while let Some(d) = rig.pop_ready() {
                rig.finish(d);
            }
            assert!(rig.dmu.is_drained(), "slab DMU not drained (seed {seed})");
            assert!(
                rig.naive.is_drained(),
                "naive DMU not drained (seed {seed})"
            );
            rig.check_aggregates();
            assert!(
                rig.dmu.stats().stalls > 0,
                "the tiny lockstep DMU should have stalled (seed {seed})"
            );
        }
    }

    /// The batched entry point replayed in lockstep against the naive per-op
    /// reference: `add_dependences` must stay bit-identical to a loop of
    /// naive `add_dependence` calls, including stall points and resume.
    #[test]
    fn batched_adds_match_naive_per_op_in_lockstep() {
        let mut rng = SplitMix64::new(0xBA7C4);
        let config = lockstep_config();
        let mut dmu = Dmu::new(config.clone());
        let mut naive = NaiveDmu::new(&config);
        let mut counters = Vec::new();

        let desc_of = |i: u64| DescriptorAddr(0x10_0000 + i * 64);
        let block_of = |i: u64| DepAddr(0x80_0000 + i * 4096);

        for t in 0..300u64 {
            let d = desc_of(t);
            loop {
                let a = dmu.create_task(d);
                let b = naive.create_task(d);
                assert_eq!(a, b);
                if a.is_ok() {
                    break;
                }
                // Both stalled identically: free space and retry.
                let ra = dmu.get_ready_task();
                let rb = naive.get_ready_task();
                assert_eq!(ra, rb);
                let victim = ra.value.expect("a ready task must exist").descriptor;
                let mut wa = Vec::new();
                let mut wb = Vec::new();
                assert_eq!(
                    dmu.finish_task_into(victim, &mut wa),
                    naive.finish_task_into(victim, &mut wb)
                );
                assert_eq!(wa, wb);
            }

            let deps: Vec<(DepAddr, u64, DepDirection)> = (0..rng.next_below(5))
                .map(|_| {
                    let dir = match rng.next_below(3) {
                        0 => DepDirection::In,
                        1 => DepDirection::Out,
                        _ => DepDirection::InOut,
                    };
                    (block_of(rng.next_below(10)), 4096, dir)
                })
                .collect();

            counters.clear();
            let mut naive_applied = 0usize;
            loop {
                let remaining = deps[counters.len()..].iter().copied();
                let batch = dmu.add_dependences(d, remaining, &mut counters);
                // Replay the naive reference per-op up to the batch's
                // progress, comparing each returned access counter.
                while naive_applied < counters.len() {
                    let (addr, size, dir) = deps[naive_applied];
                    let r = naive
                        .add_dependence(d, addr, size, dir)
                        .expect("naive must succeed where the batch succeeded");
                    assert_eq!(
                        r.accesses, counters[naive_applied],
                        "per-dep access counter diverged at task {t}"
                    );
                    naive_applied += 1;
                }
                match batch {
                    Ok(()) => break,
                    Err(e) => {
                        // The naive per-op call must stall identically...
                        let (addr, size, dir) = deps[naive_applied];
                        let ne = naive.add_dependence(d, addr, size, dir).unwrap_err();
                        assert_eq!(e, ne, "stall reason diverged at task {t}");
                        // ...then both free space and resume from where the
                        // batch stopped (`counters.len()`).
                        let ra = dmu.get_ready_task();
                        let rb = naive.get_ready_task();
                        assert_eq!(ra, rb);
                        let victim = ra.value.expect("a ready task must exist").descriptor;
                        let mut wa = Vec::new();
                        let mut wb = Vec::new();
                        assert_eq!(
                            dmu.finish_task_into(victim, &mut wa),
                            naive.finish_task_into(victim, &mut wb)
                        );
                        assert_eq!(wa, wb);
                    }
                }
            }
            assert_eq!(dmu.submit_task(d), naive.submit_task(d));
        }

        // Drain and compare the end state.
        loop {
            let a = dmu.get_ready_task();
            let b = naive.get_ready_task();
            assert_eq!(a, b);
            let Some(t) = a.value else { break };
            let mut wa = Vec::new();
            let mut wb = Vec::new();
            assert_eq!(
                dmu.finish_task_into(t.descriptor, &mut wa),
                naive.finish_task_into(t.descriptor, &mut wb)
            );
            assert_eq!(wa, wb);
        }
        assert!(dmu.is_drained() && naive.is_drained());
        assert_eq!(dmu.stats(), naive.stats);
    }

    /// Roomy list arrays and three addresses, so an address collects tens of
    /// readers before a writer flushes them and the reader-index paths all
    /// run: skipped and exact writer pre-checks, removals that search under
    /// a current stamp, flushed readers, reused dependence IDs, tasks naming
    /// one address as `[in, out, in]`, and indexes rebuilt by a save/load
    /// round trip at random steps.
    fn fanout_config() -> DmuConfig {
        DmuConfig {
            tat_entries: 128,
            tat_ways: 8,
            dat_entries: 16,
            dat_ways: 4,
            successor_la_entries: 160,
            dependence_la_entries: 256,
            reader_la_entries: 96,
            elems_per_list_entry: 4,
            access_latency: Cycle::new(1),
            index_policy: IndexPolicy::Dynamic,
        }
    }

    #[test]
    fn reader_fanout_matches_naive_reference_in_lockstep() {
        let desc_of = |i: u64| DescriptorAddr(0x10_0000 + i * 64);
        let block_of = |i: u64| DepAddr(0x80_0000 + i * 4096);
        let mut paths = IndexPaths::default();
        let mut peak_readers = 0;
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(0xFA_2007 ^ seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut rig = LockstepRig::new(fanout_config());
            let mut next_desc = 0u64;
            let mut pending: Vec<DescriptorAddr> = Vec::new();
            for step in 0..4000u64 {
                match rng.next_below(10) {
                    0..=4 => {
                        let d = desc_of(next_desc);
                        if !rig.create(d) {
                            continue;
                        }
                        next_desc += 1;
                        let addr = block_of(rng.next_below(3));
                        let deps: Vec<(DepAddr, DepDirection)> = match rng.next_below(20) {
                            0..=13 => vec![(addr, DepDirection::In)],
                            14 | 15 => {
                                vec![(addr, DepDirection::In), (block_of(3), DepDirection::In)]
                            }
                            16 | 17 => vec![(addr, DepDirection::Out)],
                            18 => vec![(addr, DepDirection::InOut)],
                            _ => vec![
                                (addr, DepDirection::In),
                                (addr, DepDirection::Out),
                                (addr, DepDirection::In),
                            ],
                        };
                        for (addr, dir) in deps {
                            if !rig.add_dep(d, addr, dir) {
                                break;
                            }
                        }
                        rig.submit(d);
                    }
                    5 | 6 => {
                        if let Some(d) = rig.pop_ready() {
                            pending.push(d);
                        }
                    }
                    _ => {
                        if !pending.is_empty() {
                            let idx = rng.next_below(pending.len() as u64) as usize;
                            let d = pending.swap_remove(idx);
                            rig.finish(d);
                        }
                    }
                }
                if rng.next_below(64) == 0 {
                    rig.round_trip();
                }
                for raw in 0..rig.dmu.deps.capacity() {
                    if let Some(row) = rig.dmu.deps.get(DepId::new(raw as u32)) {
                        peak_readers = peak_readers.max(rig.dmu.rla.len(row.reader_list));
                    }
                }
                if step % 500 == 0 {
                    rig.check_aggregates();
                }
            }
            for d in pending.drain(..) {
                rig.finish(d);
            }
            while let Some(d) = rig.pop_ready() {
                rig.finish(d);
            }
            assert!(
                rig.dmu.is_drained() && rig.naive.is_drained(),
                "seed {seed}"
            );
            rig.check_aggregates();
            paths.add(&rig.paths());
        }
        assert!(
            peak_readers >= 20,
            "an address peaked at {peak_readers} readers"
        );
        let IndexPaths {
            precheck_skipped,
            precheck_exact,
            searched,
            flushed,
            heads_reused,
            repeated,
            rebuilt,
        } = paths.clone();
        for (path, count) in [
            ("pre-check skipped", precheck_skipped),
            ("exact pre-check", precheck_exact),
            ("current stamp searched", searched),
            ("flushed and not found", flushed),
            ("reader-list head reused", heads_reused),
            ("repeated dependence walks", repeated),
            ("rebuilt after load", rebuilt),
        ] {
            assert!(count > 0, "the {path} path never ran: {paths:?}");
        }
    }
}
