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
//! The same implementations are used by every backend; Carbon and Task
//! Superscalar hard-wire FIFO because their queue lives in hardware.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use tdm_sim::clock::Cycle;
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

/// A software scheduling policy over a pool of ready tasks.
///
/// `pop` receives the requesting core so locality-aware policies can take
/// placement into account.
///
/// Schedulers are `Send` so a whole simulation point (driver, engine, pool)
/// can run on a sweep worker thread; each run owns its pool exclusively.
pub trait Scheduler: Send {
    /// Human-readable policy name (matches the labels used in Figure 12).
    fn name(&self) -> &'static str;

    /// Adds a ready task to the pool.
    fn push(&mut self, entry: ReadyEntry);

    /// Selects and removes the next task for `core`, or `None` if the pool
    /// is empty.
    fn pop(&mut self, core: usize) -> Option<ReadyEntry>;

    /// Number of tasks currently in the pool.
    fn len(&self) -> usize;

    /// True if the pool is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the pool's contents for a checkpoint (the `SCHEDULER`
    /// snapshot section). Entries are written in the policy's internal order
    /// so a restored pool pops identically.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores the pool's contents from a checkpoint. The receiver must be
    /// freshly built (empty) with the same policy parameters.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

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
    /// Two-level priority by successor count.
    Successor {
        /// Tasks with at least this many successors are high priority.
        threshold: u32,
    },
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
            SchedulerKind::Successor { threshold: 2 },
            SchedulerKind::Age,
        ]
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "FIFO",
            SchedulerKind::Lifo => "LIFO",
            SchedulerKind::Locality => "Locality",
            SchedulerKind::Successor { .. } => "Successor",
            SchedulerKind::Age => "Age",
        }
    }

    /// Builds a fresh scheduler implementing this policy.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
            SchedulerKind::Lifo => Box::new(LifoScheduler::new()),
            SchedulerKind::Locality => Box::new(LocalityScheduler::new()),
            SchedulerKind::Successor { threshold } => Box::new(SuccessorScheduler::new(threshold)),
            SchedulerKind::Age => Box::new(AgeScheduler::new()),
        }
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
            SchedulerKind::Successor { threshold } => {
                3u8.save(out);
                threshold.save(out);
            }
            SchedulerKind::Age => 4u8.save(out),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(SchedulerKind::Fifo),
            1 => Ok(SchedulerKind::Lifo),
            2 => Ok(SchedulerKind::Locality),
            3 => Ok(SchedulerKind::Successor {
                threshold: u32::load(r)?,
            }),
            4 => Ok(SchedulerKind::Age),
            tag => Err(SnapshotError::Corrupt {
                context: format!("unknown scheduler kind tag {tag}"),
            }),
        }
    }
}

/// First-in first-out scheduler: tasks run in the order they became ready.
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler {
    queue: VecDeque<ReadyEntry>,
}

impl FifoScheduler {
    /// Creates an empty FIFO pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn push(&mut self, entry: ReadyEntry) {
        self.queue.push_back(entry);
    }

    fn pop(&mut self, _core: usize) -> Option<ReadyEntry> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.queue.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.queue = VecDeque::load(r)?;
        Ok(())
    }
}

/// Last-in first-out scheduler: the most recently readied task runs first.
#[derive(Debug, Clone, Default)]
pub struct LifoScheduler {
    stack: Vec<ReadyEntry>,
}

impl LifoScheduler {
    /// Creates an empty LIFO pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LifoScheduler {
    fn name(&self) -> &'static str {
        "LIFO"
    }

    fn push(&mut self, entry: ReadyEntry) {
        self.stack.push(entry);
    }

    fn pop(&mut self, _core: usize) -> Option<ReadyEntry> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.stack.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.stack = Vec::load(r)?;
        Ok(())
    }
}

/// Locality-aware scheduler (Section VI): when a task finishes on a core and
/// one of its successors is ready, that successor is executed on the same
/// core; otherwise the oldest ready task is used.
#[derive(Debug, Clone, Default)]
pub struct LocalityScheduler {
    queue: VecDeque<ReadyEntry>,
}

impl LocalityScheduler {
    /// Creates an empty locality-aware pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LocalityScheduler {
    fn name(&self) -> &'static str {
        "Locality"
    }

    fn push(&mut self, entry: ReadyEntry) {
        self.queue.push_back(entry);
    }

    fn pop(&mut self, core: usize) -> Option<ReadyEntry> {
        if let Some(pos) = self
            .queue
            .iter()
            .position(|e| e.producer_core == Some(core))
        {
            return self.queue.remove(pos);
        }
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.queue.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.queue = VecDeque::load(r)?;
        Ok(())
    }
}

/// Successor-count priority scheduler (Section VI): tasks whose successor
/// count reaches the threshold go to a high-priority queue that is always
/// drained first.
#[derive(Debug, Clone)]
pub struct SuccessorScheduler {
    high: VecDeque<ReadyEntry>,
    low: VecDeque<ReadyEntry>,
    threshold: u32,
}

impl SuccessorScheduler {
    /// Creates an empty pool with the given high-priority threshold.
    pub fn new(threshold: u32) -> Self {
        SuccessorScheduler {
            high: VecDeque::new(),
            low: VecDeque::new(),
            threshold,
        }
    }

    /// The configured high-priority threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl Scheduler for SuccessorScheduler {
    fn name(&self) -> &'static str {
        "Successor"
    }

    fn push(&mut self, entry: ReadyEntry) {
        if entry.num_successors >= self.threshold {
            self.high.push_back(entry);
        } else {
            self.low.push_back(entry);
        }
    }

    fn pop(&mut self, _core: usize) -> Option<ReadyEntry> {
        self.high.pop_front().or_else(|| self.low.pop_front())
    }

    fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.threshold.save(out);
        self.high.save(out);
        self.low.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let threshold = u32::load(r)?;
        if threshold != self.threshold {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "snapshot was taken with successor threshold {threshold}, \
                     but the scheduler was built with {}",
                    self.threshold
                ),
            });
        }
        self.high = VecDeque::load(r)?;
        self.low = VecDeque::load(r)?;
        Ok(())
    }
}

/// Age scheduler (Section VI): the ready pool is ordered by task creation
/// time, so older tasks run before younger ones regardless of when they
/// became ready.
///
/// The pool exploits that `creation_seq` is the task's program-order index,
/// assigned in nondecreasing order by the driver: instead of a
/// comparison-based `BinaryHeap`, entries live in a monotonic ring buffer
/// (`SeqRing` below) indexed by sequence number, with an occupancy bitmap and a
/// lower-bound cursor that only moves forward as minima are popped —
/// O(1) amortized push/pop with no per-entry comparisons on the hot path.
#[derive(Debug, Clone, Default)]
pub struct AgeScheduler {
    ring: SeqRing,
}

impl AgeScheduler {
    /// Creates an empty age-ordered pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for AgeScheduler {
    fn name(&self) -> &'static str {
        "Age"
    }

    fn push(&mut self, entry: ReadyEntry) {
        self.ring.push(entry);
    }

    fn pop(&mut self, _core: usize) -> Option<ReadyEntry> {
        self.ring.pop_min()
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    // The ring is written field-for-field (slots, bitmap, window bounds)
    // rather than as a drained entry list, so the restored pool is not just
    // behaviourally equivalent but structurally identical — capacity and
    // window position included.
    fn save_state(&self, out: &mut Vec<u8>) {
        self.ring.slots.save(out);
        self.ring.bits.save(out);
        self.ring.lo.save(out);
        self.ring.hi.save(out);
        self.ring.len.save(out);
        self.ring.dups.save(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let slots: Vec<Option<ReadyEntry>> = Vec::load(r)?;
        let bits: Vec<u64> = Vec::load(r)?;
        let lo = usize::load(r)?;
        let hi = usize::load(r)?;
        let len = usize::load(r)?;
        let dups: Vec<ReadyEntry> = Vec::load(r)?;
        let live = slots.iter().filter(|s| s.is_some()).count();
        let occupancy: u32 = bits.iter().map(|w| w.count_ones()).sum();
        if !(slots.len().is_power_of_two() || slots.is_empty())
            || bits.len() * 64 != slots.len()
            || occupancy as usize != live
            || live + dups.len() != len
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "age ring inconsistent: {} slots, {live} live, \
                     {occupancy} occupancy bits, {} duplicates, len {len}",
                    slots.len(),
                    dups.len()
                ),
            });
        }
        self.ring = SeqRing {
            slots,
            bits,
            lo,
            hi,
            len,
            dups,
        };
        Ok(())
    }
}

/// A sliding-window priority pool over the dense `creation_seq` space.
///
/// Live entries occupy a power-of-two ring of slots addressed by
/// `seq & (capacity - 1)` plus one occupancy bit each; the structural
/// invariant is that every live sequence lies in `[lo, lo + capacity)`
/// (the ring grows before it is violated), so a set bit maps back to its
/// absolute sequence unambiguously. `pop_min` finds the first set bit at or
/// after `lo` with masked `trailing_zeros` scans and advances `lo` past it;
/// a push below `lo` (a task readied out of order) simply lowers `lo`.
///
/// The driver's `creation_seq` is the unique task index, but the structure
/// stays total for arbitrary callers: duplicate sequences overflow into a
/// side list consulted on pop (ordered like the retired heap, by
/// `(creation_seq, task index)`).
#[derive(Debug, Clone, Default)]
struct SeqRing {
    /// `capacity` slots; `None` = free. Kept in lockstep with `bits`.
    slots: Vec<Option<ReadyEntry>>,
    /// One bit per slot, 64 slots per word.
    bits: Vec<u64>,
    /// Lower bound: no live sequence is below `lo`, and all are below
    /// `lo + capacity`.
    lo: usize,
    /// Highest live sequence seen since the pool was last empty (upper
    /// bound; used only to size growth).
    hi: usize,
    /// Total live entries, duplicates included.
    len: usize,
    /// Entries whose sequence collided with a live slot (never produced by
    /// the execution driver; kept so the pool stays total).
    dups: Vec<ReadyEntry>,
}

/// The retired heap's ordering key.
fn age_key(e: &ReadyEntry) -> (usize, usize) {
    (e.creation_seq, e.task.index())
}

impl SeqRing {
    const MIN_CAPACITY: usize = 64;

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, entry: ReadyEntry) {
        let seq = entry.creation_seq;
        if self.len == 0 {
            // Empty pool: reposition the window freely.
            self.lo = seq;
            self.hi = seq;
        } else {
            self.lo = self.lo.min(seq);
            self.hi = self.hi.max(seq);
        }
        let span = self.hi - self.lo + 1;
        if span > self.slots.len() {
            self.grow(span);
        }
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[seq & mask];
        if let Some(existing) = slot {
            debug_assert_eq!(
                existing.creation_seq, seq,
                "ring invariant broken: distinct live sequences alias one slot"
            );
            self.dups.push(entry);
        } else {
            *slot = Some(entry);
            let words = self.bits.len();
            self.bits[(seq >> 6) & (words - 1)] |= 1u64 << (seq & 63);
        }
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<ReadyEntry> {
        if self.len == 0 {
            return None;
        }
        let ring_min = self.ring_min_seq();
        // Fast path: no duplicates pending (always, for the driver).
        if self.dups.is_empty() {
            return Some(self.take(ring_min.expect("non-empty ring without duplicates")));
        }
        let best_dup = (0..self.dups.len())
            .min_by_key(|&i| age_key(&self.dups[i]))
            .expect("dups checked non-empty");
        match ring_min {
            Some(seq)
                if age_key(
                    self.slots[seq & (self.slots.len() - 1)]
                        .as_ref()
                        .expect("occupancy bit set on an empty slot"),
                ) <= age_key(&self.dups[best_dup]) =>
            {
                Some(self.take(seq))
            }
            _ => {
                self.len -= 1;
                Some(self.dups.swap_remove(best_dup))
            }
        }
    }

    /// Absolute sequence of the smallest live *slot* entry, `None` when
    /// every live entry is a duplicate.
    fn ring_min_seq(&self) -> Option<usize> {
        if self.len == self.dups.len() {
            return None;
        }
        let capacity = self.slots.len();
        let words = self.bits.len();
        let lo_word = self.lo >> 6;
        let lo_bit = self.lo & 63;
        // Scan at most one full wrap: the first word masked below `lo`, and
        // after `words` steps the first word again for the wrapped residues.
        for step in 0..=words {
            let word_index = (lo_word + step) & (words - 1);
            let mut word = self.bits[word_index];
            if step == 0 {
                word &= !0u64 << lo_bit;
            } else if step == words {
                word &= !(!0u64 << lo_bit);
            }
            if word == 0 {
                continue;
            }
            let residue = (word_index << 6) | word.trailing_zeros() as usize;
            let lo_residue = self.lo & (capacity - 1);
            let offset = if residue >= lo_residue {
                residue - lo_residue
            } else {
                residue + capacity - lo_residue
            };
            return Some(self.lo + offset);
        }
        None
    }

    /// Removes and returns the slot entry at absolute sequence `seq`,
    /// advancing the window's lower bound past it.
    fn take(&mut self, seq: usize) -> ReadyEntry {
        let mask = self.slots.len() - 1;
        let entry = self.slots[seq & mask]
            .take()
            .expect("occupancy bit set on an empty slot");
        let words = self.bits.len();
        self.bits[(seq >> 6) & (words - 1)] &= !(1u64 << (seq & 63));
        self.len -= 1;
        self.lo = seq + 1;
        entry
    }

    /// Reallocates to cover at least `span` sequences, re-filing live slot
    /// entries under the new mask (collision-free by construction).
    fn grow(&mut self, span: usize) {
        let capacity = span.next_power_of_two().max(Self::MIN_CAPACITY);
        let mut live: Vec<ReadyEntry> = Vec::with_capacity(self.len - self.dups.len());
        live.extend(self.slots.drain(..).flatten());
        self.slots = vec![None; capacity];
        self.bits = vec![0; capacity / 64];
        let mask = capacity - 1;
        let words = self.bits.len();
        for entry in live {
            let seq = entry.creation_seq;
            self.slots[seq & mask] = Some(entry);
            self.bits[(seq >> 6) & (words - 1)] |= 1u64 << (seq & 63);
        }
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
        let mut s = FifoScheduler::new();
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
        let mut s = LifoScheduler::new();
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
        let mut s = LocalityScheduler::new();
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
        let mut s = LocalityScheduler::new();
        s.push(entry(0, 0, 0, None));
        s.push(entry(1, 1, 0, None));
        assert_eq!(s.pop(0).unwrap().task, TaskRef(0));
        assert_eq!(s.pop(0).unwrap().task, TaskRef(1));
    }

    #[test]
    fn successor_priority_queues() {
        let mut s = SuccessorScheduler::new(2);
        s.push(entry(0, 0, 0, None)); // low
        s.push(entry(1, 1, 5, None)); // high
        s.push(entry(2, 2, 1, None)); // low
        s.push(entry(3, 3, 2, None)); // high
        let order: Vec<usize> = std::iter::from_fn(|| s.pop(0))
            .map(|e| e.task.index())
            .collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert_eq!(s.threshold(), 2);
    }

    /// The retired comparison-based Age pool, kept as the lockstep
    /// reference for [`SeqRing`] (the same pattern as `NaiveDmu` /
    /// `NaiveListArray`).
    #[derive(Default)]
    struct NaiveAgeScheduler {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize, OrderedEntry)>>,
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    struct OrderedEntry(ReadyEntry);

    impl PartialOrd for OrderedEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OrderedEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.0.creation_seq, self.0.task.index())
                .cmp(&(other.0.creation_seq, other.0.task.index()))
        }
    }

    impl NaiveAgeScheduler {
        fn push(&mut self, entry: ReadyEntry) {
            self.heap.push(std::cmp::Reverse((
                entry.creation_seq,
                entry.task.index(),
                OrderedEntry(entry),
            )));
        }

        fn pop(&mut self) -> Option<ReadyEntry> {
            self.heap.pop().map(|std::cmp::Reverse((_, _, e))| e.0)
        }
    }

    /// Lockstep-randomized equivalence: the ring-buffer Age pool against
    /// the retired heap, under out-of-order readiness (pushes with
    /// sequences far below the window after pops), duplicate sequences,
    /// empty/refill transitions and forced ring growth.
    #[test]
    fn age_ring_matches_naive_heap_in_lockstep() {
        use tdm_sim::rng::SplitMix64;

        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(seed ^ 0xA6E);
            let mut ring = AgeScheduler::new();
            let mut naive = NaiveAgeScheduler::default();
            let mut next_seq = 0usize;
            let mut backlog: Vec<usize> = Vec::new();
            for step in 0..3000 {
                match rng.next_below(5) {
                    // Push the next fresh sequence (program order).
                    0 | 1 => {
                        let seq = next_seq;
                        next_seq += 1 + rng.next_below(100) as usize; // sparse gaps
                        if rng.next_below(4) == 0 {
                            backlog.push(seq); // becomes ready much later
                        } else {
                            let e = entry(seq, seq, 0, None);
                            ring.push(e);
                            naive.push(e);
                        }
                    }
                    // A long-delayed task becomes ready: a push far below
                    // the current window.
                    2 => {
                        if let Some(seq) = backlog.pop() {
                            let e = entry(seq, seq, 0, None);
                            ring.push(e);
                            naive.push(e);
                        }
                    }
                    // Rare duplicate creation_seq (not driver behaviour,
                    // but the pool must stay total): same seq, distinct
                    // task index.
                    3 if ring.len() > 0 && rng.next_below(8) == 0 => {
                        let seq = next_seq.saturating_sub(1);
                        let e = entry(seq + 1_000_000, seq, 0, None);
                        ring.push(e);
                        naive.push(e);
                    }
                    _ => {
                        assert_eq!(ring.pop(0), naive.pop(), "seed {seed} step {step}");
                    }
                }
                assert_eq!(ring.len(), naive.heap.len(), "seed {seed} step {step}");
            }
            loop {
                let (a, b) = (ring.pop(0), naive.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn age_ring_handles_empty_reposition_without_growth() {
        // Pop to empty, then push a sequence far beyond the old window: the
        // ring repositions instead of growing to cover the gap.
        let mut s = AgeScheduler::new();
        s.push(entry(0, 0, 0, None));
        assert_eq!(s.pop(0).unwrap().task, TaskRef(0));
        s.push(entry(9, 1_000_000_000, 0, None));
        assert_eq!(s.ring.slots.len(), SeqRing::MIN_CAPACITY);
        assert_eq!(s.pop(0).unwrap().creation_seq, 1_000_000_000);
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn age_orders_by_creation_not_readiness() {
        let mut s = AgeScheduler::new();
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
        for kind in SchedulerKind::all() {
            let s = kind.build();
            assert_eq!(s.name(), kind.name());
            assert!(s.is_empty());
        }
        assert_eq!(SchedulerKind::Fifo.to_string(), "FIFO");
        assert_eq!(
            SchedulerKind::Successor { threshold: 2 }.name(),
            "Successor"
        );
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
    fn successor_load_rejects_mismatched_threshold() {
        let mut original = SuccessorScheduler::new(2);
        original.push(entry(0, 0, 5, None));
        let mut bytes = Vec::new();
        original.save_state(&mut bytes);
        let mut wrong = SuccessorScheduler::new(4);
        let err = wrong.load_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("threshold"), "got: {err}");
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
