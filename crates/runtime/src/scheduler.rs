//! Software task schedulers.
//!
//! With TDM, ready tasks are handed to the runtime system, which is free to
//! organise them in any software data structure and apply any policy —
//! that flexibility is the paper's central argument. Section VI evaluates
//! five policies, reproduced here:
//!
//! * **FIFO** — run tasks in the order they became ready.
//! * **LIFO** — run the most recently readied task first.
//! * **Locality** — prefer a ready successor of the task that just finished
//!   on the requesting core, to reuse the data it produced.
//! * **Successor** — two-level priority by successor count: tasks with many
//!   successors unlock more parallelism and run first.
//! * **Age** — run the task that was *created* earliest (FIFO orders by
//!   readiness time, Age by program order).
//!
//! One [`ReadyPool`] type holds the ready tasks under any of the five
//! policies, and every backend uses it; Carbon and Task Superscalar
//! hard-wire FIFO because their queue lives in hardware.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};
use tdm_sim::clock::Cycle;
use tdm_sim::fast_map::FastMap;
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

use crate::task::TaskRef;

/// A ready task as seen by a scheduler, with the metadata the policies need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadyEntry {
    /// The ready task.
    pub task: TaskRef,
    /// Number of successors the dependence tracker has registered for it
    /// (used by the Successor policy; the DMU returns it in
    /// `get_ready_task`).
    pub num_successors: u32,
    /// Program-order creation index (used by the Age policy).
    pub creation_seq: usize,
    /// Simulated time at which the task became ready.
    pub ready_at: Cycle,
    /// Core that executed the predecessor whose completion made this task
    /// ready; `None` for tasks that were ready at creation.
    pub producer_core: Option<usize>,
}

/// Tasks with at least this many successors are high priority under the
/// Successor policy.
pub const SUCCESSOR_THRESHOLD: u32 = 2;

/// Scheduler selection, used by harnesses and examples to construct policies
/// by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// First-in first-out by readiness time.
    Fifo,
    /// Last-in first-out by readiness time.
    Lifo,
    /// Prefer successors of the task that just ran on the requesting core.
    Locality,
    /// Two-level priority by successor count (see [`SUCCESSOR_THRESHOLD`]).
    Successor,
    /// Oldest creation time first.
    Age,
}

impl SchedulerKind {
    /// All policies evaluated in the paper, in the order of Figure 12.
    pub fn all() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Locality,
            SchedulerKind::Successor,
            SchedulerKind::Age,
        ]
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "FIFO",
            SchedulerKind::Lifo => "LIFO",
            SchedulerKind::Locality => "Locality",
            SchedulerKind::Successor => "Successor",
            SchedulerKind::Age => "Age",
        }
    }

    /// Builds an empty ready pool ordered by this policy.
    pub fn build(&self) -> ReadyPool {
        ReadyPool(match self {
            SchedulerKind::Fifo => Pool::Fifo(VecDeque::new()),
            SchedulerKind::Lifo => Pool::Lifo(Vec::new()),
            SchedulerKind::Locality => Pool::Locality {
                queue: VecDeque::new(),
                queued: FastMap::default(),
            },
            SchedulerKind::Successor => Pool::Successor {
                high: VecDeque::new(),
                low: VecDeque::new(),
            },
            SchedulerKind::Age => Pool::Age(BinaryHeap::new()),
        })
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Snapshot support: ready entries and the policy selector travel in the
// `SCHEDULER` and `META` snapshot sections respectively.

impl Persist for ReadyEntry {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.num_successors.save(out);
        self.creation_seq.save(out);
        self.ready_at.save(out);
        self.producer_core.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ReadyEntry {
            task: TaskRef::load(r)?,
            num_successors: u32::load(r)?,
            creation_seq: usize::load(r)?,
            ready_at: Cycle::load(r)?,
            producer_core: Option::load(r)?,
        })
    }
}

impl Persist for SchedulerKind {
    fn save(&self, out: &mut Vec<u8>) {
        match *self {
            SchedulerKind::Fifo => 0u8.save(out),
            SchedulerKind::Lifo => 1u8.save(out),
            SchedulerKind::Locality => 2u8.save(out),
            SchedulerKind::Successor => 3u8.save(out),
            SchedulerKind::Age => 4u8.save(out),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(SchedulerKind::Fifo),
            1 => Ok(SchedulerKind::Lifo),
            2 => Ok(SchedulerKind::Locality),
            3 => Ok(SchedulerKind::Successor),
            4 => Ok(SchedulerKind::Age),
            tag => Err(SnapshotError::Corrupt {
                context: format!("unknown scheduler kind tag {tag}"),
            }),
        }
    }
}

/// The ready tasks of one run, ordered by one of the five policies
/// ([`SchedulerKind::build`] picks it).
///
/// `pop` receives the requesting core so the Locality policy can take
/// placement into account. The pool is `Send` so a whole simulation point
/// (driver, engine, pool) can run on a sweep worker thread; each run owns
/// its pool exclusively.
#[derive(Debug, Clone)]
pub struct ReadyPool(Pool);

#[derive(Debug, Clone)]
enum Pool {
    /// Readiness order.
    Fifo(VecDeque<ReadyEntry>),
    /// Reverse readiness order.
    Lifo(Vec<ReadyEntry>),
    /// Readiness order, searched for a successor of the requesting core's
    /// last task (Section VI). `queued` counts the entries of each producer
    /// core, so a pop scans only when the requesting core has one queued.
    /// It is a map because producer ids also come from snapshots: its size
    /// follows the distinct producers, not the largest id.
    Locality {
        queue: VecDeque<ReadyEntry>,
        queued: FastMap<usize, usize>,
    },
    /// Entries with at least [`SUCCESSOR_THRESHOLD`] successors go to
    /// `high`, which is always drained first (Section VI).
    Successor {
        high: VecDeque<ReadyEntry>,
        low: VecDeque<ReadyEntry>,
    },
    /// Creation order, whenever the tasks became ready (Section VI).
    Age(BinaryHeap<Reverse<Oldest>>),
}

/// A ready entry ordered for the Age policy: by creation sequence, then
/// task, then the remaining fields. Every field is in the key, so two
/// entries compare equal only when they are identical, and the pool's pop
/// order depends on nothing but its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Oldest(ReadyEntry);

impl Ord for Oldest {
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |e: &ReadyEntry| {
            (
                e.creation_seq,
                e.task,
                e.num_successors,
                e.ready_at,
                e.producer_core,
            )
        };
        key(&self.0).cmp(&key(&other.0))
    }
}

impl PartialOrd for Oldest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ReadyPool {
    /// Adds a ready task to the pool.
    pub fn push(&mut self, entry: ReadyEntry) {
        match &mut self.0 {
            Pool::Fifo(queue) => queue.push_back(entry),
            Pool::Locality { queue, queued } => {
                if let Some(producer) = entry.producer_core {
                    *queued.entry(producer).or_default() += 1;
                }
                queue.push_back(entry);
            }
            Pool::Lifo(stack) => stack.push(entry),
            Pool::Successor { high, low } => {
                if entry.num_successors >= SUCCESSOR_THRESHOLD {
                    high.push_back(entry);
                } else {
                    low.push_back(entry);
                }
            }
            Pool::Age(heap) => heap.push(Reverse(Oldest(entry))),
        }
    }

    /// Selects and removes the next task for `core`, or `None` if the pool
    /// is empty.
    pub fn pop(&mut self, core: usize) -> Option<ReadyEntry> {
        match &mut self.0 {
            Pool::Fifo(queue) => queue.pop_front(),
            Pool::Lifo(stack) => stack.pop(),
            Pool::Locality { queue, queued } => match queued.get_mut(&core) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    let pos = queue
                        .iter()
                        .position(|e| e.producer_core == Some(core))
                        .expect("a counted producer has a queued entry");
                    queue.remove(pos)
                }
                _ => {
                    let entry = queue.pop_front()?;
                    if let Some(producer) = entry.producer_core {
                        *queued
                            .get_mut(&producer)
                            .expect("a queued entry's producer is counted") -= 1;
                    }
                    Some(entry)
                }
            },
            Pool::Successor { high, low } => high.pop_front().or_else(|| low.pop_front()),
            Pool::Age(heap) => heap.pop().map(|Reverse(Oldest(entry))| entry),
        }
    }

    /// Number of tasks currently in the pool.
    pub fn len(&self) -> usize {
        match &self.0 {
            Pool::Fifo(queue) | Pool::Locality { queue, .. } => queue.len(),
            Pool::Lifo(stack) => stack.len(),
            Pool::Successor { high, low } => high.len() + low.len(),
            Pool::Age(heap) => heap.len(),
        }
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tasks in the pool, in no particular order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = TaskRef> + '_ {
        let entries: Box<dyn Iterator<Item = &ReadyEntry>> = match &self.0 {
            Pool::Fifo(queue) | Pool::Locality { queue, .. } => Box::new(queue.iter()),
            Pool::Lifo(stack) => Box::new(stack.iter()),
            Pool::Successor { high, low } => Box::new(high.iter().chain(low)),
            Pool::Age(heap) => Box::new(heap.iter().map(|Reverse(Oldest(entry))| entry)),
        };
        entries.map(|e| e.task)
    }

    /// Serializes the pool's contents for a checkpoint (the `SCHEDULER`
    /// snapshot section), each container in its own order so a restored
    /// pool pops identically. The Age pool writes its entries oldest first,
    /// so pools with equal contents write equal bytes.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        match &self.0 {
            Pool::Fifo(queue) | Pool::Locality { queue, .. } => queue.save(out),
            Pool::Lifo(stack) => stack.save(out),
            Pool::Successor { high, low } => {
                high.save(out);
                low.save(out);
            }
            Pool::Age(heap) => {
                let mut oldest_first: Vec<Oldest> = heap.iter().map(|Reverse(o)| *o).collect();
                oldest_first.sort_unstable();
                let entries: Vec<ReadyEntry> = oldest_first.into_iter().map(|o| o.0).collect();
                entries.save(out);
            }
        }
    }

    /// Restores the pool's contents from a checkpoint written by a pool of
    /// the same policy, replacing whatever it held.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        match &mut self.0 {
            Pool::Fifo(queue) => *queue = VecDeque::load(r)?,
            Pool::Locality { queue, queued } => {
                *queue = VecDeque::load(r)?;
                queued.clear();
                for producer in queue.iter().filter_map(|e| e.producer_core) {
                    *queued.entry(producer).or_default() += 1;
                }
            }
            Pool::Lifo(stack) => *stack = Vec::load(r)?,
            Pool::Successor { high, low } => {
                *high = VecDeque::load(r)?;
                *low = VecDeque::load(r)?;
            }
            Pool::Age(heap) => {
                *heap = Vec::<ReadyEntry>::load(r)?
                    .into_iter()
                    .map(|entry| Reverse(Oldest(entry)))
                    .collect();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(task: usize, seq: usize, succ: u32, producer: Option<usize>) -> ReadyEntry {
        ReadyEntry {
            task: TaskRef(task),
            num_successors: succ,
            creation_seq: seq,
            ready_at: Cycle::new(seq as u64 * 10),
            producer_core: producer,
        }
    }

    #[test]
    fn fifo_pops_in_push_order() {
        let mut s = SchedulerKind::Fifo.build();
        for i in 0..5 {
            s.push(entry(i, i, 0, None));
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop(0))
            .map(|e| e.task.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn lifo_pops_in_reverse_order() {
        let mut s = SchedulerKind::Lifo.build();
        for i in 0..5 {
            s.push(entry(i, i, 0, None));
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop(0))
            .map(|e| e.task.index())
            .collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn locality_prefers_same_core_producer() {
        let mut s = SchedulerKind::Locality.build();
        s.push(entry(0, 0, 0, Some(3)));
        s.push(entry(1, 1, 0, Some(7)));
        s.push(entry(2, 2, 0, Some(3)));
        // Core 7 gets its own successor even though it is not the oldest.
        assert_eq!(s.pop(7).unwrap().task, TaskRef(1));
        // Core 5 has no successor in the pool: falls back to FIFO.
        assert_eq!(s.pop(5).unwrap().task, TaskRef(0));
        assert_eq!(s.pop(3).unwrap().task, TaskRef(2));
    }

    #[test]
    fn locality_falls_back_to_fifo_for_root_tasks() {
        let mut s = SchedulerKind::Locality.build();
        s.push(entry(0, 0, 0, None));
        s.push(entry(1, 1, 0, None));
        assert_eq!(s.pop(0).unwrap().task, TaskRef(0));
        assert_eq!(s.pop(0).unwrap().task, TaskRef(1));
    }

    #[test]
    fn successor_priority_queues() {
        let mut s = SchedulerKind::Successor.build();
        s.push(entry(0, 0, 0, None)); // low
        s.push(entry(1, 1, 5, None)); // high
        s.push(entry(2, 2, 1, None)); // low
        s.push(entry(3, 3, 2, None)); // high
        let order: Vec<usize> = std::iter::from_fn(|| s.pop(0))
            .map(|e| e.task.index())
            .collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    /// Seeded property test of the Age pool against a plain `Vec`
    /// reference: every pop returns the entry with the smallest
    /// `(creation_seq, task)`, and a `save_state`/`load_state` round trip
    /// at a random step leaves the rest of the pop sequence unchanged. The
    /// traffic mixes fresh sequences with sparse gaps, readiness far below
    /// the current minimum, duplicate `creation_seq` values with distinct
    /// tasks, and pools drained to empty and refilled.
    #[test]
    fn age_pool_pops_oldest_like_a_vec_reference() {
        use tdm_sim::rng::SplitMix64;

        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(seed ^ 0xA6E);
            let mut pool = SchedulerKind::Age.build();
            let mut reference: Vec<ReadyEntry> = Vec::new();
            let pop_reference = |reference: &mut Vec<ReadyEntry>| {
                let oldest = (0..reference.len())
                    .min_by_key(|&i| (reference[i].creation_seq, reference[i].task))?;
                Some(reference.swap_remove(oldest))
            };
            let mut next_seq = 0usize;
            let mut backlog: Vec<usize> = Vec::new();
            for step in 0..3000 {
                match rng.next_below(8) {
                    // The next fresh sequence, in program order.
                    0 | 1 => {
                        let seq = next_seq;
                        next_seq += 1 + rng.next_below(100) as usize;
                        if rng.next_below(4) == 0 {
                            backlog.push(seq);
                        } else {
                            pool.push(entry(seq, seq, 0, None));
                            reference.push(entry(seq, seq, 0, None));
                        }
                    }
                    // A long-delayed task becomes ready, far below the
                    // current minimum.
                    2 => {
                        if let Some(seq) = backlog.pop() {
                            pool.push(entry(seq, seq, 0, None));
                            reference.push(entry(seq, seq, 0, None));
                        }
                    }
                    // A duplicate sequence under a distinct task.
                    3 if !reference.is_empty() && rng.next_below(4) == 0 => {
                        let seq = next_seq.saturating_sub(1);
                        let e = entry(seq + 1_000_000 + step, seq, 0, None);
                        pool.push(e);
                        reference.push(e);
                    }
                    // Now and then, drain to empty before refilling.
                    4 if rng.next_below(100) == 0 => {
                        while let Some(e) = pop_reference(&mut reference) {
                            assert_eq!(pool.pop(0), Some(e), "seed {seed} step {step}");
                        }
                        assert!(pool.is_empty(), "seed {seed} step {step}");
                    }
                    // A checkpoint round trip replaces the pool.
                    5 if rng.next_below(5) == 0 => {
                        let mut bytes = Vec::new();
                        pool.save_state(&mut bytes);
                        let mut restored = SchedulerKind::Age.build();
                        let mut reader = Reader::new(&bytes);
                        restored.load_state(&mut reader).unwrap();
                        reader.expect_end("age pool").unwrap();
                        pool = restored;
                        // The same entries pushed in another order write
                        // the same bytes.
                        let mut reordered = SchedulerKind::Age.build();
                        for &e in reference.iter().rev() {
                            reordered.push(e);
                        }
                        let mut reordered_bytes = Vec::new();
                        reordered.save_state(&mut reordered_bytes);
                        assert_eq!(reordered_bytes, bytes, "seed {seed} step {step}");
                    }
                    3..=5 => {}
                    _ => {
                        let core = rng.next_below(4) as usize;
                        let expected = pop_reference(&mut reference);
                        assert_eq!(pool.pop(core), expected, "seed {seed} step {step}");
                    }
                }
                assert_eq!(pool.len(), reference.len(), "seed {seed} step {step}");
            }
            while let Some(e) = pop_reference(&mut reference) {
                assert_eq!(pool.pop(0), Some(e), "seed {seed} drain");
            }
            assert_eq!(pool.pop(0), None, "seed {seed} drain");
        }
    }

    #[test]
    fn age_orders_by_creation_not_readiness() {
        let mut s = SchedulerKind::Age.build();
        // Pushed (became ready) out of creation order.
        s.push(entry(5, 5, 0, None));
        s.push(entry(1, 1, 0, None));
        s.push(entry(3, 3, 0, None));
        let order: Vec<usize> = std::iter::from_fn(|| s.pop(0))
            .map(|e| e.task.index())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn kind_builds_matching_scheduler() {
        // Each policy pops a different entry first: FIFO the first pushed,
        // LIFO the last, Locality core 0's successor, Successor the one
        // with enough successors, Age the oldest.
        let entries = [
            entry(0, 4, 0, None),
            entry(1, 3, 0, Some(0)),
            entry(2, 2, SUCCESSOR_THRESHOLD, None),
            entry(3, 0, 0, None),
            entry(4, 1, 0, None),
        ];
        let first = [
            (SchedulerKind::Fifo, 0),
            (SchedulerKind::Lifo, 4),
            (SchedulerKind::Locality, 1),
            (SchedulerKind::Successor, 2),
            (SchedulerKind::Age, 3),
        ];
        assert_eq!(first.map(|(kind, _)| kind).to_vec(), SchedulerKind::all());
        for (kind, task) in first {
            let mut s = kind.build();
            assert!(s.is_empty());
            for e in entries {
                s.push(e);
            }
            assert_eq!(s.pop(0).unwrap().task, TaskRef(task), "policy {kind}");
        }
        assert_eq!(SchedulerKind::Fifo.to_string(), "FIFO");
        assert_eq!(SchedulerKind::Successor.name(), "Successor");
    }

    #[test]
    fn save_load_round_trips_every_policy() {
        for kind in SchedulerKind::all() {
            let mut original = kind.build();
            for i in 0..15 {
                original.push(entry(i, 14 - i, (i % 4) as u32, Some(i % 3)));
            }
            // Pop a few so the internal cursors are mid-flight.
            original.pop(0);
            original.pop(1);

            let mut bytes = Vec::new();
            original.save_state(&mut bytes);
            let mut restored = kind.build();
            let mut reader = Reader::new(&bytes);
            restored.load_state(&mut reader).unwrap();
            reader.expect_end("scheduler").unwrap();

            assert_eq!(restored.len(), original.len(), "policy {}", kind.name());
            for core in [2usize, 0, 1].into_iter().cycle() {
                let (a, b) = (original.pop(core), restored.pop(core));
                assert_eq!(a, b, "policy {}", kind.name());
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn scheduler_kind_persist_round_trips() {
        for kind in SchedulerKind::all() {
            let mut bytes = Vec::new();
            kind.save(&mut bytes);
            let mut reader = Reader::new(&bytes);
            assert_eq!(SchedulerKind::load(&mut reader).unwrap(), kind);
            reader.expect_end("kind").unwrap();
        }
    }

    #[test]
    fn all_policies_drain_everything_they_receive() {
        for kind in SchedulerKind::all() {
            let mut s = kind.build();
            for i in 0..20 {
                s.push(entry(i, 19 - i, (i % 4) as u32, Some(i % 3)));
            }
            assert_eq!(s.len(), 20);
            let mut seen: Vec<usize> = std::iter::from_fn(|| s.pop(1))
                .map(|e| e.task.index())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "policy {}", kind.name());
        }
    }
}

/// Randomized lockstep equivalence of the Locality pool against a copy of
/// its original `pop`, which scanned the whole queue on every call.
///
/// CI runs this module by name:
/// `cargo test --release -p tdm-runtime pool_lockstep`.
#[cfg(test)]
mod pool_lockstep {
    use super::*;
    use tdm_sim::rng::SplitMix64;

    /// The scanning pop: the requesting core's oldest successor, else the
    /// front of the queue.
    fn scanning_pop(queue: &mut VecDeque<ReadyEntry>, core: usize) -> Option<ReadyEntry> {
        match queue.iter().position(|e| e.producer_core == Some(core)) {
            Some(pos) => queue.remove(pos),
            None => queue.pop_front(),
        }
    }

    #[test]
    fn locality_pool_matches_a_scanning_pop_in_randomized_lockstep() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed ^ 0x10CA_1173);
            let mut pool = SchedulerKind::Locality.build();
            let mut reference: VecDeque<ReadyEntry> = VecDeque::new();
            let mut peak = 0;
            for step in 0..5000u64 {
                // Phases of 500 steps alternate between mostly pushing and
                // mostly popping, so the depth swings between empty and a
                // few hundred entries.
                let push_in_4 = if (step / 500) % 2 == 0 { 3 } else { 1 };
                if rng.next_below(4) < push_in_4 {
                    // Producers are cores 0..8, or none for a task ready at
                    // creation.
                    let producer = rng.next_below(9);
                    let entry = ReadyEntry {
                        task: TaskRef(step as usize),
                        num_successors: rng.next_below(4) as u32,
                        creation_seq: step as usize,
                        ready_at: Cycle::new(step),
                        producer_core: (producer < 8).then_some(producer as usize),
                    };
                    pool.push(entry);
                    reference.push_back(entry);
                } else {
                    // Cores 8 and 9 never produce, so their pops take the
                    // front.
                    let core = rng.next_below(10) as usize;
                    assert_eq!(
                        pool.pop(core),
                        scanning_pop(&mut reference, core),
                        "seed {seed} step {step}"
                    );
                }
                if rng.next_below(64) == 0 {
                    let mut bytes = Vec::new();
                    pool.save_state(&mut bytes);
                    let mut restored = SchedulerKind::Locality.build();
                    let mut reader = Reader::new(&bytes);
                    restored.load_state(&mut reader).unwrap();
                    reader.expect_end("locality pool").unwrap();
                    pool = restored;
                }
                peak = peak.max(reference.len());
                assert_eq!(pool.len(), reference.len(), "seed {seed} step {step}");
                assert!(
                    pool.tasks().eq(reference.iter().map(|e| e.task)),
                    "seed {seed} step {step}"
                );
                let (mut bytes, mut expected) = (Vec::new(), Vec::new());
                pool.save_state(&mut bytes);
                reference.save(&mut expected);
                assert_eq!(bytes, expected, "seed {seed} step {step}");
            }
            assert!(
                (200..1000).contains(&peak),
                "seed {seed}: peak depth {peak}"
            );
        }
    }
}
