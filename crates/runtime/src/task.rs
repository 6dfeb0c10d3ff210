//! Program-level task and workload descriptions.
//!
//! A [`Workload`] is the input to the execution driver: an ordered list of
//! [`TaskSpec`]s exactly as the master thread would create them in program
//! order, each carrying its data dependences (`depend(in/out/inout: ...)`
//! clauses) and its execution duration. The benchmark generators in
//! `tdm-workloads` produce these; the runtime backends consume them.

use serde::{Deserialize, Serialize};
use tdm_core::ids::DepDirection;
use tdm_sim::clock::Cycle;

/// Default relative duration jitter applied by [`Workload::new`] and by the
/// streaming sources ([`crate::stream::TaskSource::duration_jitter`],
/// `tdm_workloads`' `TaskStream`) — one shared constant so the eager and
/// streaming forms of a workload can never disagree on the default.
pub const DEFAULT_DURATION_JITTER: f64 = 0.02;

/// Index of a task within its [`Workload`] (program creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskRef(pub usize);

impl TaskRef {
    /// The task's position in program creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// One data dependence declared by a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DependenceSpec {
    /// Base address of the data the task touches.
    pub addr: u64,
    /// Size of the data in bytes (drives the DAT's dynamic index-bit
    /// selection and the locality model).
    pub size: u64,
    /// Whether the task reads, writes or both.
    pub direction: DepDirection,
}

impl DependenceSpec {
    /// Convenience constructor for an input dependence.
    pub fn input(addr: u64, size: u64) -> Self {
        DependenceSpec {
            addr,
            size,
            direction: DepDirection::In,
        }
    }

    /// Convenience constructor for an output dependence.
    pub fn output(addr: u64, size: u64) -> Self {
        DependenceSpec {
            addr,
            size,
            direction: DepDirection::Out,
        }
    }

    /// Convenience constructor for an inout dependence.
    pub fn inout(addr: u64, size: u64) -> Self {
        DependenceSpec {
            addr,
            size,
            direction: DepDirection::InOut,
        }
    }
}

/// One task, as the master thread would create it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Short label for the task's kind (e.g. `"sgemm"`, `"io"`); used by
    /// reports and by workload-specific assertions in tests.
    pub kind: String,
    /// Execution duration of the task body in cycles, excluding runtime
    /// overheads and locality effects.
    pub duration: Cycle,
    /// Declared data dependences, in clause order.
    pub deps: Vec<DependenceSpec>,
}

impl TaskSpec {
    /// Creates a task spec.
    pub fn new(kind: impl Into<String>, duration: Cycle, deps: Vec<DependenceSpec>) -> Self {
        TaskSpec {
            kind: kind.into(),
            duration,
            deps,
        }
    }

    /// The task's working set as `(address, bytes)` pairs, for the locality
    /// model.
    pub fn working_set(&self) -> Vec<(u64, u64)> {
        self.deps.iter().map(|d| (d.addr, d.size)).collect()
    }

    /// Blocks the task reads.
    pub fn read_set(&self) -> Vec<(u64, u64)> {
        self.deps
            .iter()
            .filter(|d| d.direction.reads())
            .map(|d| (d.addr, d.size))
            .collect()
    }

    /// Blocks the task writes.
    pub fn write_set(&self) -> Vec<(u64, u64)> {
        self.deps
            .iter()
            .filter(|d| d.direction.writes())
            .map(|d| (d.addr, d.size))
            .collect()
    }
}

/// A complete parallel region: the ordered stream of tasks the master thread
/// creates, plus workload-level modelling knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Benchmark name (e.g. `"cholesky"`).
    pub name: String,
    /// Tasks in program creation order.
    pub tasks: Vec<TaskSpec>,
    /// Fraction of a task's execution time saved when its whole working set
    /// is resident in the executing core's cache (memory-boundedness knob;
    /// 0.0 disables locality effects).
    pub locality_benefit: f64,
    /// Relative jitter applied to task durations (models input-dependent
    /// variation; 0.0 makes every instance of a task kind identical).
    pub duration_jitter: f64,
}

impl Workload {
    /// Creates a workload with no locality sensitivity and a small default
    /// duration jitter.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskSpec>) -> Self {
        Workload {
            name: name.into(),
            tasks,
            locality_benefit: 0.0,
            duration_jitter: DEFAULT_DURATION_JITTER,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the workload has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total task execution cycles (sum over all tasks, before locality and
    /// jitter adjustments).
    pub fn total_work(&self) -> Cycle {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Average task duration in cycles (zero for an empty workload).
    pub fn average_duration(&self) -> Cycle {
        if self.tasks.is_empty() {
            Cycle::ZERO
        } else {
            Cycle::new(self.total_work().raw() / self.tasks.len() as u64)
        }
    }

    /// Task specification for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn spec(&self, task: TaskRef) -> &TaskSpec {
        &self.tasks[task.index()]
    }

    /// Iterates over `(TaskRef, &TaskSpec)` in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskRef, &TaskSpec)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskRef(i), t))
    }
}

// Snapshot support: task specs travel inside checkpoints as part of the
// streaming feed's bounded in-flight window (see `SNAPSHOT_FORMAT.md`).
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for TaskRef {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(TaskRef(usize::load(r)?))
    }
}

impl Persist for DependenceSpec {
    fn save(&self, out: &mut Vec<u8>) {
        self.addr.save(out);
        self.size.save(out);
        self.direction.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DependenceSpec {
            addr: u64::load(r)?,
            size: u64::load(r)?,
            direction: DepDirection::load(r)?,
        })
    }
}

impl Persist for TaskSpec {
    fn save(&self, out: &mut Vec<u8>) {
        self.kind.save(out);
        self.duration.save(out);
        self.deps.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(TaskSpec {
            kind: String::load(r)?,
            duration: Cycle::load(r)?,
            deps: Vec::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_workload() -> Workload {
        Workload::new(
            "test",
            vec![
                TaskSpec::new(
                    "producer",
                    Cycle::new(1000),
                    vec![DependenceSpec::output(0x1000, 64)],
                ),
                TaskSpec::new(
                    "consumer",
                    Cycle::new(2000),
                    vec![
                        DependenceSpec::input(0x1000, 64),
                        DependenceSpec::output(0x2000, 64),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn dependence_constructors_set_direction() {
        assert!(DependenceSpec::input(0, 1).direction.reads());
        assert!(DependenceSpec::output(0, 1).direction.writes());
        let io = DependenceSpec::inout(0, 1);
        assert!(io.direction.reads() && io.direction.writes());
    }

    #[test]
    fn task_spec_working_sets() {
        let w = simple_workload();
        let consumer = &w.tasks[1];
        assert_eq!(consumer.working_set(), vec![(0x1000, 64), (0x2000, 64)]);
        assert_eq!(consumer.read_set(), vec![(0x1000, 64)]);
        assert_eq!(consumer.write_set(), vec![(0x2000, 64)]);
    }

    #[test]
    fn workload_aggregates() {
        let w = simple_workload();
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.total_work(), Cycle::new(3000));
        assert_eq!(w.average_duration(), Cycle::new(1500));
    }

    #[test]
    fn workload_iteration_and_lookup() {
        let w = simple_workload();
        let refs: Vec<TaskRef> = w.iter().map(|(r, _)| r).collect();
        assert_eq!(refs, vec![TaskRef(0), TaskRef(1)]);
        assert_eq!(w.spec(TaskRef(1)).kind, "consumer");
        assert_eq!(TaskRef(1).index(), 1);
        assert_eq!(TaskRef(3).to_string(), "task#3");
    }

    #[test]
    fn empty_workload_averages_are_zero() {
        let w = Workload::new("empty", vec![]);
        assert!(w.is_empty());
        assert_eq!(w.average_duration(), Cycle::ZERO);
    }
}
