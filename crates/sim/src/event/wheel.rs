//! Hierarchical timing wheel: the O(1) event core behind [`EventQueue`].
//!
//! A discrete-event simulator with a short, bounded event horizon — task
//! durations and DMU/NoC latencies are small cycle deltas relative to the
//! full `u64` time range — is the textbook case for a calendar-queue /
//! timing-wheel structure instead of a binary heap: `schedule` and `pop`
//! become O(1) amortized instead of O(log n), and the same-cycle FIFO
//! contract falls out of the structure itself (per-bucket intrusive lists)
//! rather than a per-event sequence-number comparison.
//!
//! # Structure
//!
//! The wheel has [`LEVELS`] levels of [`SLOTS`] buckets each. Level `k`
//! buckets span `SLOTS^k` cycles, so level 0 buckets hold events of a single
//! cycle and the top level covers the whole `u64` range:
//!
//! ```text
//! level 0   [·|·|·|●|·|…|·]   1-cycle buckets   — the near wheel
//! level 1   [·|·|●|·|·|…|·]   64-cycle buckets  ─┐ far levels: events
//! level 2   [·|●|·|·|·|…|·]   4096-cycle buckets ┤ cascade down one
//!   ⋮              ⋮                             │ level at a time as
//! level 10  [·|●|·|·|…]       2^60-cycle buckets ┘ time reaches them
//! ```
//!
//! An event at absolute time `T` is filed at the *lowest* level whose
//! current window contains `T` (the lowest level at which `T` and `now`
//! share all higher index bits), in the bucket selected by `T`'s index bits
//! for that level. Each bucket is an intrusive FIFO list over a node slab;
//! each level keeps one occupancy bit per bucket, so finding the next
//! non-empty bucket is a masked `trailing_zeros`, not a scan.
//!
//! `pop` looks at the level-0 bucket window first; when it is exhausted, the
//! first occupied bucket of the lowest non-empty far level is *cascaded*:
//! its whole list is detached and re-filed one level down (stable, so
//! same-cycle insertion order survives every cascade). Each event cascades
//! at most `LEVELS - 1` times in its life, which is the usual amortized-O(1)
//! argument for hierarchical wheels.
//!
//! # Same-cycle FIFO, structurally
//!
//! Events of one cycle all land in one level-0 bucket and are appended at
//! the tail; cascades preserve list order; `pop` takes the head. No
//! per-event sequence number is stored or compared — the queue discipline
//! *is* the order. The lockstep-randomized equivalence suite in the tests
//! of [`crate::event`] drives this wheel against the retired binary heap
//! (`NaiveEventQueue`, test-only) to pin the behavioural match.
//!
//! # Example
//!
//! ```
//! use tdm_sim::clock::Cycle;
//! use tdm_sim::event::wheel::TimingWheel;
//!
//! let mut q = TimingWheel::new();
//! q.schedule(Cycle::new(20), "late");
//! q.schedule(Cycle::new(5), "early");
//! q.schedule(Cycle::new(5), "early-second");
//!
//! assert_eq!(q.pop(), Some((Cycle::new(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle::new(5), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle::new(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```
//!
//! [`EventQueue`]: crate::event::EventQueue

use crate::clock::Cycle;

/// Index bits per wheel level.
const BITS: u32 = 6;
/// Buckets per level (`2^BITS`), sized so one `u64` occupancy word covers a
/// level.
pub const SLOTS: usize = 1 << BITS;
/// Bucket-index mask within a level.
const MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels: `ceil(64 / BITS)` levels cover the entire `u64` cycle
/// range, so any [`Cycle`] (including `Cycle::MAX`) is representable.
pub const LEVELS: usize = 64usize.div_ceil(BITS as usize);
/// Null link / empty-bucket marker in the node slab.
const NIL: u32 = u32::MAX;

/// One slab node: an event payload linked into a bucket's FIFO list. Free
/// nodes keep their slot (payload `None`) and chain through `next`.
#[derive(Debug, Clone)]
struct Node<E> {
    time: Cycle,
    next: u32,
    payload: Option<E>,
}

/// Head/tail of one bucket's intrusive FIFO list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A time-ordered queue of simulation events backed by a hierarchical
/// timing wheel (see the [module docs](self) for the structure).
///
/// Drop-in replacement for the retired binary-heap queue: same API, same
/// observable behaviour — earliest time first, same-cycle events in
/// insertion order, the clock never moves backwards — at O(1) amortized
/// `schedule`/`pop` instead of O(log n).
#[derive(Debug, Clone)]
pub struct TimingWheel<E> {
    /// Node slab; free nodes are chained through `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// `LEVELS × SLOTS` buckets, level-major.
    buckets: Vec<Bucket>,
    /// One occupancy bit per bucket, one word per level.
    occ: [u64; LEVELS],
    /// Bit `k` set iff level `k` has any occupied bucket (`occ[k] != 0`),
    /// so `seek` finds the lowest pending level in one `trailing_zeros`.
    summary: u16,
    len: usize,
    now: Cycle,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Location of the earliest pending event, as found by `seek`: either the
/// level-0 bucket holding the next cycle's FIFO, or a lone far-level event
/// that `seek` already detached (the sparse-queue fast path).
enum Next {
    Level0 { idx: usize, time: u64 },
    Single { node: u32, time: u64 },
}

/// `value` with the low `bits` bits cleared; total-shift safe (`bits ≥ 64`
/// clears everything, which is what the top wheel level needs).
#[inline]
fn clear_low(value: u64, bits: u32) -> u64 {
    if bits >= 64 {
        0
    } else {
        (value >> bits) << bits
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel with the simulation clock at zero.
    pub fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY_BUCKET; LEVELS * SLOTS],
            occ: [0; LEVELS],
            summary: 0,
            len: 0,
            now: Cycle::ZERO,
        }
    }

    /// The current simulation time: the delivery time of the most recently
    /// popped event (zero before any event has been popped).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` for delivery at absolute time `time`.
    ///
    /// Scheduling an event in the past (before [`TimingWheel::now`]) is
    /// allowed but indicates a modelling error in the caller; the event is
    /// delivered at the *current* time (time never moves backwards), behind
    /// any event already pending for the current cycle.
    #[inline]
    pub fn schedule(&mut self, time: Cycle, payload: E) {
        let time = time.max(self.now);
        let node = self.alloc(time, payload);
        self.link(node, time.raw(), self.now.raw());
        self.len += 1;
    }

    /// Schedules `payload` for delivery `delay` cycles after the current
    /// simulation time.
    pub fn schedule_after(&mut self, delay: Cycle, payload: E) {
        let time = self.now + delay;
        self.schedule(time, payload);
    }

    /// Removes and returns the earliest pending event together with its
    /// delivery time, advancing the simulation clock to that time.
    ///
    /// Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        let (node, time) = match self.seek() {
            Next::Level0 { idx, time } => {
                let head = self.buckets[idx].head;
                let next = self.nodes[head as usize].next;
                self.buckets[idx].head = next;
                if next == NIL {
                    self.buckets[idx].tail = NIL;
                    self.clear_occ(0, idx);
                }
                (head, time)
            }
            // A lone far event is the global minimum; it was already
            // detached by `seek`.
            Next::Single { node, time } => (node, time),
        };
        let payload = self.release(node);
        self.len -= 1;
        self.now = Cycle::new(time);
        Some((self.now, payload))
    }

    /// Removes **every** event of the earliest pending cycle in one wheel
    /// operation, appending the payloads to `out` in FIFO order (after
    /// clearing it), and advances the clock to that cycle.
    ///
    /// Returns the cycle, or `None` when the queue is empty. Equivalent to
    /// calling [`pop`](TimingWheel::pop) while the next event's time equals
    /// the first popped time — but the whole same-cycle bucket is detached
    /// with a single occupancy scan, which is what lets the execution
    /// driver amortize per-cycle queue work. Events scheduled *for the same
    /// cycle while the batch is being processed* are picked up by the next
    /// call (they would also have been popped after the already-pending
    /// ones, so batch and serial delivery order are identical).
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        let time = match self.seek() {
            Next::Level0 { idx, time } => {
                let mut cur = self.buckets[idx].head;
                self.buckets[idx] = EMPTY_BUCKET;
                self.clear_occ(0, idx);
                while cur != NIL {
                    let next = self.nodes[cur as usize].next;
                    out.push(self.release(cur));
                    self.len -= 1;
                    cur = next;
                }
                time
            }
            // A lone far event is the global minimum and the only event of
            // its cycle: a batch of one, already detached by `seek`.
            Next::Single { node, time } => {
                out.push(self.release(node));
                self.len -= 1;
                time
            }
        };
        self.now = Cycle::new(time);
        Some(self.now)
    }

    /// Returns the delivery time of the earliest pending event without
    /// removing it.
    ///
    /// Unlike `pop`, this never restructures the wheel; when the earliest
    /// event sits in a far level it walks that one bucket's list (O(bucket)
    /// — fine for its diagnostic/test callers, while the hot `pop` path
    /// stays O(1)).
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let base = self.now.raw();
        let w0 = self.occ[0] & (!0u64 << (base & MASK));
        if w0 != 0 {
            let i = u64::from(w0.trailing_zeros());
            return Some(Cycle::new(clear_low(base, BITS) + i));
        }
        for level in 1..LEVELS {
            let shift = BITS * level as u32;
            let idx = (base >> shift) & MASK;
            let w = self.occ[level] & (!0u64 << idx);
            if w == 0 {
                continue;
            }
            // The first occupied bucket in seek order contains the global
            // minimum (later buckets of this level and all higher levels
            // start at later slot boundaries); its list is unordered across
            // cycles, so take the min over it.
            let bucket = level * SLOTS + w.trailing_zeros() as usize;
            let mut cur = self.buckets[bucket].head;
            let mut min = Cycle::MAX;
            while cur != NIL {
                min = min.min(self.nodes[cur as usize].time);
                cur = self.nodes[cur as usize].next;
            }
            return Some(min);
        }
        unreachable!(
            "timing wheel: {} pending events but no occupied bucket",
            self.len
        )
    }

    /// Drops every pending event and resets the clock to zero.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.buckets.fill(EMPTY_BUCKET);
        self.occ = [0; LEVELS];
        self.summary = 0;
        self.len = 0;
        self.now = Cycle::ZERO;
    }

    /// Locates the earliest pending event, cascading far-level buckets down
    /// as needed. Requires `len > 0`.
    ///
    /// Two invariants carry the correctness argument:
    ///
    /// * For every level `k ≥ 1` the bucket whose slot contains `now` is
    ///   empty — insertion files an event at level `k` only when its index
    ///   there differs from `now`'s, and the cursor empties each bucket as
    ///   it enters its slot.
    /// * No occupied bucket ever sits *below* the cursor's index at its
    ///   level (such an event would predate `now`), so whole-word
    ///   `trailing_zeros` over the occupancy finds the first pending bucket
    ///   without masking, and an all-levels `summary` bitmask finds the
    ///   lowest pending level without touching empty words.
    ///
    /// Together they also give the sparse-queue fast path: the first
    /// occupied bucket in scan order bounds every other event from below
    /// (later buckets of its level and all higher levels start at later
    /// slot boundaries), so when that bucket holds a *single* event it is
    /// the global minimum and is delivered directly — no level-by-level
    /// descent. This is the common case for the execution driver, whose
    /// queue holds roughly one in-flight event per simulated core, spread
    /// over task-duration-sized spans.
    #[inline]
    fn seek(&mut self) -> Next {
        let mut base = self.now.raw();
        loop {
            debug_assert_eq!(self.occ[0] & !(!0u64 << (base & MASK)), 0);
            let w0 = self.occ[0];
            if w0 != 0 {
                let i = u64::from(w0.trailing_zeros());
                return Next::Level0 {
                    idx: i as usize,
                    time: clear_low(base, BITS) + i,
                };
            }
            let far = self.summary & !1;
            assert!(
                far != 0,
                "timing wheel: {} pending events but no occupied bucket",
                self.len
            );
            let level = far.trailing_zeros() as usize;
            let shift = BITS * level as u32;
            debug_assert_eq!(self.occ[level] & !(!0u64 << ((base >> shift) & MASK)), 0);
            let j = u64::from(self.occ[level].trailing_zeros());
            let bucket = level * SLOTS + j as usize;
            let head = self.buckets[bucket].head;
            if self.nodes[head as usize].next == NIL {
                // Single event: detach it and deliver directly.
                self.buckets[bucket] = EMPTY_BUCKET;
                self.clear_occ(level, j as usize);
                return Next::Single {
                    node: head,
                    time: self.nodes[head as usize].time.raw(),
                };
            }
            let slot = clear_low(base, shift + BITS) | (j << shift);
            self.cascade(level, j as usize, slot);
            base = slot;
        }
    }

    /// Detaches the bucket at (`level`, `idx`) — whose slot starts at
    /// absolute time `slot` — and re-files every node one or more levels
    /// down, relative to the slot start. Walking the list head-to-tail and
    /// appending keeps the redistribution stable, which is how same-cycle
    /// FIFO order survives cascades.
    fn cascade(&mut self, level: usize, idx: usize, slot: u64) {
        let bucket = level * SLOTS + idx;
        let mut cur = self.buckets[bucket].head;
        self.buckets[bucket] = EMPTY_BUCKET;
        self.clear_occ(level, idx);
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            let time = self.nodes[cur as usize].time.raw();
            self.link(cur, time, slot);
            cur = next;
        }
    }

    /// Appends node `n` (delivery time `time ≥ anchor`) to the tail of the
    /// bucket selected relative to `anchor`: the lowest level at which
    /// `time` and `anchor` share all higher index bits.
    #[inline]
    fn link(&mut self, n: u32, time: u64, anchor: u64) {
        let diff = time ^ anchor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        let idx = if BITS * level as u32 >= 64 {
            0 // unreachable with BITS=6 (top level shift is 60), kept total
        } else {
            ((time >> (BITS * level as u32)) & MASK) as usize
        };
        let bucket = level * SLOTS + idx;
        self.nodes[n as usize].next = NIL;
        if self.buckets[bucket].tail == NIL {
            self.buckets[bucket].head = n;
            self.occ[level] |= 1u64 << idx;
            self.summary |= 1u16 << level;
        } else {
            let tail = self.buckets[bucket].tail as usize;
            self.nodes[tail].next = n;
        }
        self.buckets[bucket].tail = n;
    }

    /// Clears the occupancy bit of bucket (`level`, `idx`), dropping the
    /// level from the summary when it empties.
    #[inline]
    fn clear_occ(&mut self, level: usize, idx: usize) {
        self.occ[level] &= !(1u64 << idx);
        if self.occ[level] == 0 {
            self.summary &= !(1u16 << level);
        }
    }

    /// Takes a node from the free list (or grows the slab).
    #[inline]
    fn alloc(&mut self, time: Cycle, payload: E) -> u32 {
        if self.free != NIL {
            let n = self.free;
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            node.time = time;
            node.payload = Some(payload);
            n
        } else {
            let n = self.nodes.len();
            assert!(n < NIL as usize, "timing wheel node slab exhausted");
            self.nodes.push(Node {
                time,
                next: NIL,
                payload: Some(payload),
            });
            n as u32
        }
    }

    /// Returns node `n`'s payload and chains the node onto the free list.
    #[inline]
    fn release(&mut self, n: u32) -> E {
        let node = &mut self.nodes[n as usize];
        let payload = node.payload.take().expect("released an empty wheel node");
        node.next = self.free;
        self.free = n;
        payload
    }
}

// Snapshot support. A wheel's internal layout (node slab, bucket chains,
// cascade progress) is an artifact of its history, so the exact struct is
// not what gets persisted: the *observable* state is the clock plus the
// pending events in delivery order. Saving drains a clone in pop order;
// loading starts a fresh wheel at the saved clock and re-schedules the
// events in that order, which reproduces delivery order exactly —
// `schedule` files each event relative to `now`, and same-cycle events
// are FIFO by insertion, which is the order they were written in.
impl<E: crate::snapshot::Persist + Clone> crate::snapshot::Persist for TimingWheel<E> {
    fn save(&self, out: &mut Vec<u8>) {
        self.now.save(out);
        (self.len as u64).save(out);
        let mut drain = self.clone();
        while let Some((time, payload)) = drain.pop() {
            time.save(out);
            payload.save(out);
        }
    }

    fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::snapshot::SnapshotError> {
        let now = Cycle::load(r)?;
        let len = u64::load(r)?;
        let mut wheel = TimingWheel::new();
        wheel.now = now;
        let mut previous = now;
        for _ in 0..len {
            let time = Cycle::load(r)?;
            let payload = E::load(r)?;
            if time < previous {
                return Err(crate::snapshot::SnapshotError::Corrupt {
                    context: format!(
                        "timing-wheel events out of order: {} after {} (clock {})",
                        time.raw(),
                        previous.raw(),
                        now.raw()
                    ),
                });
            }
            previous = time;
            wheel.schedule(time, payload);
        }
        Ok(wheel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_count_covers_u64() {
        assert_eq!(LEVELS, 11);
        assert!(BITS as usize * LEVELS >= 64);
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut q = TimingWheel::new();
        // One event per wheel level's span.
        let times: Vec<u64> = (0..LEVELS as u32).map(|k| 1u64 << (BITS * k)).collect();
        for &t in times.iter().rev() {
            q.schedule(Cycle::new(t), t);
        }
        for &t in &times {
            assert_eq!(q.pop(), Some((Cycle::new(t), t)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_fifo_survives_cascades() {
        let mut q = TimingWheel::new();
        // All in one far-future cycle, scheduled in a recognisable order;
        // the cycle sits several cascade levels away from now.
        let t = Cycle::new(5 * 4096 + 7 * 64 + 3);
        for i in 0..100 {
            q.schedule(t, i);
        }
        // Force the cursor to advance through intermediate windows first.
        q.schedule(Cycle::new(10), -1);
        assert_eq!(q.pop(), Some((Cycle::new(10), -1)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_batch_drains_exactly_one_cycle() {
        let mut q = TimingWheel::new();
        q.schedule(Cycle::new(5), 'a');
        q.schedule(Cycle::new(9), 'c');
        q.schedule(Cycle::new(5), 'b');
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle::new(5)));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), Cycle::new(5));
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle::new(9)));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn same_cycle_events_scheduled_mid_batch_form_the_next_batch() {
        let mut q = TimingWheel::new();
        q.schedule(Cycle::new(5), "first");
        let mut batch = Vec::new();
        q.pop_batch(&mut batch);
        assert_eq!(batch, vec!["first"]);
        // "Mid-batch": now == 5, schedule more work for cycle 5.
        q.schedule(Cycle::new(5), "second");
        q.schedule(Cycle::new(5), "third");
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle::new(5)));
        assert_eq!(batch, vec!["second", "third"]);
    }

    #[test]
    fn past_events_deliver_at_the_current_time() {
        let mut q = TimingWheel::new();
        q.schedule(Cycle::new(100), "future");
        q.pop();
        q.schedule(Cycle::new(10), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Cycle::new(100), "past"));
        assert_eq!(q.now(), Cycle::new(100));
    }

    #[test]
    fn cycle_max_adjacent_times_work() {
        let mut q = TimingWheel::new();
        q.schedule(Cycle::MAX, "max");
        q.schedule(Cycle::new(u64::MAX - 1), "almost");
        q.schedule(Cycle::new(1), "now-ish");
        assert_eq!(q.pop(), Some((Cycle::new(1), "now-ish")));
        assert_eq!(q.peek_time(), Some(Cycle::new(u64::MAX - 1)));
        assert_eq!(q.pop(), Some((Cycle::new(u64::MAX - 1), "almost")));
        assert_eq!(q.pop(), Some((Cycle::MAX, "max")));
        assert_eq!(q.now(), Cycle::MAX);
        // Scheduling at MAX again still delivers (clamped semantics).
        q.schedule(Cycle::MAX, "again");
        assert_eq!(q.pop(), Some((Cycle::MAX, "again")));
    }

    #[test]
    fn peek_reaches_into_far_levels_without_mutating() {
        let mut q = TimingWheel::new();
        q.schedule(Cycle::new(1 << 30), 1);
        q.schedule(Cycle::new(1 << 20), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(1 << 20)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle::new(1 << 20), 2)));
    }

    #[test]
    fn clear_resets_and_slab_is_reused() {
        let mut q = TimingWheel::new();
        for i in 0..32 {
            q.schedule(Cycle::new(i), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycle::ZERO);
        assert_eq!(q.pop(), None);
        // Steady-state churn reuses freed nodes instead of growing the slab.
        q.schedule(Cycle::new(1), 0);
        q.pop();
        let nodes_after_first = q.nodes.len();
        for i in 2..1000 {
            q.schedule(Cycle::new(i), i);
            q.pop();
        }
        assert_eq!(q.nodes.len(), nodes_after_first);
    }
}
