//! Deterministic discrete-event queue.
//!
//! The execution driver in `tdm-runtime` advances simulated time by popping
//! the earliest pending event from an [`EventQueue`]. Events scheduled for the
//! same cycle are delivered in insertion order (FIFO), which keeps the
//! simulation fully deterministic: two runs with identical inputs produce
//! identical timelines. Tie-breaking never involves randomness — see the
//! seeding contract in [`crate::rng`] for how this queue and the seeded
//! [`SplitMix64`](crate::rng::SplitMix64) together guarantee reproducible
//! cycle counts.
//!
//! Two implementations share that contract:
//!
//! * [`wheel::TimingWheel`] — a hierarchical timing wheel with O(1)
//!   amortized `schedule`/`pop` and a batched same-cycle drain
//!   ([`pop_batch`](wheel::TimingWheel::pop_batch)). Same-cycle FIFO order
//!   is structural (per-bucket intrusive lists), not a per-event sequence
//!   comparison. [`EventQueue`] is an alias for it; this is what the
//!   execution driver runs on.
//! * `NaiveEventQueue` — the retired `BinaryHeap` queue, ordered by
//!   `(time, insertion seq)`, kept in this module's tests as the
//!   obviously-correct reference. The lockstep-randomized suite there
//!   drives both through the same seeded schedule/pop interleavings (heavy
//!   same-cycle ties, cascade-boundary and `Cycle::MAX`-adjacent times
//!   included) and demands identical timelines.
//!
//! Both queues clamp an event scheduled in the past to the current time
//! (the clock never moves backwards); the execution driver never does this,
//! and the queues agree bit-for-bit on it.

pub mod wheel;

pub use wheel::TimingWheel;

/// The event queue used by the execution driver: the hierarchical
/// [`TimingWheel`].
pub type EventQueue<E> = TimingWheel<E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Cycle;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Cycle::new(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.schedule(Cycle::new(100), ());
        q.schedule(Cycle::new(200), ());
        q.pop();
        assert_eq!(q.now(), Cycle::new(100));
        q.pop();
        assert_eq!(q.now(), Cycle::new(200));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(50), "a");
        q.pop();
        q.schedule_after(Cycle::new(10), "b");
        assert_eq!(q.pop(), Some((Cycle::new(60), "b")));
    }

    #[test]
    fn clock_never_moves_backwards() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(100), "future");
        q.pop();
        q.schedule(Cycle::new(10), "past");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Cycle::new(100));
        assert_eq!(q.now(), Cycle::new(100));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(7), 'x');
        assert_eq!(q.peek_time(), Some(Cycle::new(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(7), 'x');
        q.pop();
        q.schedule(Cycle::new(9), 'y');
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycle::ZERO);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
    }

    /// The seeding contract of [`crate::rng`], exercised end to end at the
    /// substrate level: a seeded random mix of schedules and pops (including
    /// heavy same-cycle ties) replays to an identical timeline.
    #[test]
    fn seeded_replay_produces_identical_timeline() {
        use crate::rng::SplitMix64;

        fn run(seed: u64) -> Vec<(Cycle, u64)> {
            let mut rng = SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut timeline = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..500 {
                if rng.next_below(3) > 0 || q.is_empty() {
                    // Coarse times force frequent ties on the same cycle.
                    let delay = Cycle::new(rng.next_below(4) * 10);
                    q.schedule_after(delay, next_id);
                    next_id += 1;
                } else {
                    timeline.push(q.pop().unwrap());
                }
            }
            while let Some(ev) = q.pop() {
                timeline.push(ev);
            }
            timeline
        }

        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
        // Distinct seeds produce distinct interleavings (sanity check that
        // the workload above is actually seed-sensitive).
        assert_ne!(run(1), run(2));
    }

    /// An event paired with its delivery time and a monotonically increasing
    /// sequence number used to break ties deterministically.
    struct Scheduled<E> {
        time: Cycle,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert the ordering so the earliest
            // time (and, within a time, the lowest sequence number) is
            // popped first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The retired binary-heap event queue, kept as the reference
    /// implementation for the [`TimingWheel`] equivalence suite below (the
    /// `NaiveListArray` pattern: an obviously-correct structure the
    /// optimized one is checked against in lockstep).
    ///
    /// O(log n) per `schedule`/`pop` with a per-event sequence number for
    /// same-cycle FIFO ties — the costs the wheel exists to remove.
    struct NaiveEventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> NaiveEventQueue<E> {
        /// Creates an empty event queue with the simulation clock at zero.
        fn new() -> Self {
            NaiveEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Cycle::ZERO,
            }
        }

        /// The current simulation time: the delivery time of the most
        /// recently popped event (zero before any event has been popped).
        fn now(&self) -> Cycle {
            self.now
        }

        /// Number of pending events.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// Schedules `payload` for delivery at absolute time `time`.
        ///
        /// Scheduling an event in the past (before [`NaiveEventQueue::now`])
        /// is allowed but indicates a modelling error in the caller; the
        /// event is delivered at the current time, behind events already
        /// pending for it — the same clamp the wheel applies, so the two
        /// implementations stay comparable event for event.
        fn schedule(&mut self, time: Cycle, payload: E) {
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, payload });
        }

        /// Schedules `payload` for delivery `delay` cycles after the current
        /// simulation time.
        fn schedule_after(&mut self, delay: Cycle, payload: E) {
            let time = self.now + delay;
            self.schedule(time, payload);
        }

        /// Removes and returns the earliest pending event together with its
        /// delivery time, advancing the simulation clock to that time.
        ///
        /// Returns `None` when the queue is empty.
        fn pop(&mut self) -> Option<(Cycle, E)> {
            let Scheduled { time, payload, .. } = self.heap.pop()?;
            // Scheduling clamps to `now`, so time is always monotone; the
            // max is kept as a belt-and-braces guard.
            self.now = self.now.max(time);
            Some((self.now, payload))
        }

        /// Returns the delivery time of the earliest pending event without
        /// removing it.
        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|s| s.time)
        }
    }

    // -----------------------------------------------------------------
    // Lockstep-randomized equivalence: TimingWheel vs NaiveEventQueue.
    // Both queues receive the identical seeded operation sequence and must
    // agree on every observable after every operation.
    // -----------------------------------------------------------------

    /// Drives both queues through `ops` seeded operations where delays are
    /// drawn by `delay` and pops happen with probability ~`pop_weight`/4.
    fn lockstep(
        seed: u64,
        ops: usize,
        pop_weight: u64,
        mut delay: impl FnMut(&mut crate::rng::SplitMix64) -> u64,
    ) {
        use crate::rng::SplitMix64;

        let mut rng = SplitMix64::new(seed);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut naive: NaiveEventQueue<u64> = NaiveEventQueue::new();
        let mut next_id = 0u64;
        for step in 0..ops {
            if rng.next_below(4) >= pop_weight || wheel.is_empty() {
                let d = Cycle::new(delay(&mut rng));
                wheel.schedule_after(d, next_id);
                naive.schedule_after(d, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.pop(), naive.pop(), "seed {seed} step {step}");
            }
            assert_eq!(wheel.len(), naive.len(), "seed {seed} step {step}");
            assert_eq!(wheel.now(), naive.now(), "seed {seed} step {step}");
            assert_eq!(
                wheel.peek_time(),
                naive.peek_time(),
                "seed {seed} step {step}"
            );
        }
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            assert_eq!(a, b, "seed {seed} drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn lockstep_near_future_with_heavy_ties() {
        for seed in 0..8u64 {
            // Coarse small delays: many same-cycle ties, all level-0/1.
            lockstep(seed, 2000, 2, |rng| rng.next_below(4) * 10);
        }
    }

    #[test]
    fn lockstep_mixed_horizons() {
        for seed in 0..8u64 {
            // Delays spanning every wheel level up to 2^36.
            lockstep(seed ^ 0xA5A5, 2000, 2, |rng| {
                let magnitude = rng.next_below(37);
                rng.next_below(1 << magnitude)
            });
        }
    }

    #[test]
    fn lockstep_cascade_boundaries() {
        // Delays clustered right at the wheel's power-of-two slot spans
        // (64^k ± 1), the off-by-one hot spots of cascade logic.
        for seed in 0..8u64 {
            lockstep(seed ^ 0x5C5C, 2000, 2, |rng| {
                let level = 1 + rng.next_below(4) as u32; // spans 64..=2^24
                let span = 1u64 << (6 * level);
                span - 1 + rng.next_below(3)
            });
        }
    }

    #[test]
    fn lockstep_pop_heavy_drains() {
        for seed in 0..4u64 {
            // Pop with probability 3/4: the queues run nearly dry often,
            // exercising empty/refill transitions.
            lockstep(seed ^ 0xD00D, 2000, 3, |rng| rng.next_below(100));
        }
    }

    #[test]
    fn lockstep_cycle_max_adjacent() {
        // Absolute times at the top of the u64 range (the driver's
        // "infinitely far" sentinel region), scheduled directly.
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut naive: NaiveEventQueue<u32> = NaiveEventQueue::new();
        let times = [
            u64::MAX,
            u64::MAX - 1,
            u64::MAX - 63,
            u64::MAX - 64,
            u64::MAX - 65,
            1u64 << 60,
            (1u64 << 60) - 1,
            0,
            1,
        ];
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(Cycle::new(t), i as u32);
            naive.schedule(Cycle::new(t), i as u32);
        }
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.now(), Cycle::MAX);
    }
}
