//! Dense per-task storage over the in-flight index span.
//!
//! The driver creates tasks in program order, so the tasks that are created
//! and not yet finished always lie in the index range `[oldest unfinished,
//! next created)`. [`InFlight`] stores one slot per index of that span in a
//! deque, so every lookup by task index is an array access rather than a
//! hash probe, and trims finished slots from the front as the oldest tasks
//! finish. The software engine keeps its live tasks in one, the hardware
//! engine its descriptor slots and DMU task IDs, and the stream feed its
//! specs.
//!
//! The span can exceed the live count when an old task lingers unfinished
//! while later tasks stream past it: a finished task inside the span costs
//! one empty slot until the front catches up. Every Table II policy drains
//! oldest-first in practice, keeping the two within the same order of
//! magnitude.

use std::collections::VecDeque;
use std::convert::Infallible;

use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

/// Per-task values of the in-flight tasks, keyed by task index (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) struct InFlight<T> {
    /// Task index of `slots[0]`.
    base: usize,
    /// One slot per task in `base..base + slots.len()`; `None` = finished.
    slots: VecDeque<Option<T>>,
    /// Number of occupied slots.
    live: usize,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> InFlight<T> {
    /// The value of task `index`, if it is in flight.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.slots.get(index.checked_sub(self.base)?)?.as_ref()
    }

    /// The value of task `index` for an update in place, if it is in flight.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.slots.get_mut(index.checked_sub(self.base)?)?.as_mut()
    }

    /// True if task `index` is in flight.
    pub(crate) fn holds(&self, index: usize) -> bool {
        self.get(index).is_some()
    }

    /// One past the newest index the span covers: the index the next
    /// [`push`](InFlight::push) must use.
    pub(crate) fn end(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Number of in-flight tasks.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Adds the value of a newly created task. Creation happens in program
    /// order, so the new index always extends the span at the back.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not [`end`](InFlight::end).
    pub(crate) fn push(&mut self, index: usize, value: T) {
        assert_eq!(
            index,
            self.end(),
            "task#{index} created out of program order"
        );
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    /// Removes and returns the value of task `index`, trimming finished
    /// slots from the front of the span.
    pub(crate) fn remove(&mut self, index: usize) -> Option<T> {
        let value = self.slots.get_mut(index.checked_sub(self.base)?)?.take();
        if value.is_some() {
            self.live -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        value
    }

    /// The in-flight tasks in index order, with their values.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(offset, slot)| Some((base + offset, slot.as_ref()?)))
    }

    /// The same span with every value mapped through `f`.
    pub(crate) fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> InFlight<U> {
        let Ok(span) = self.try_map(|_, value| Ok::<U, Infallible>(f(value)));
        span
    }

    /// The same span with every value mapped through `f`, which may refuse
    /// one.
    pub(crate) fn try_map<U, E>(
        &self,
        mut f: impl FnMut(usize, &T) -> Result<U, E>,
    ) -> Result<InFlight<U>, E> {
        let mut slots = VecDeque::with_capacity(self.slots.len());
        for (offset, slot) in self.slots.iter().enumerate() {
            slots.push_back(match slot {
                Some(value) => Some(f(self.base + offset, value)?),
                None => None,
            });
        }
        Ok(InFlight {
            base: self.base,
            slots,
            live: self.live,
        })
    }
}

/// The span as it is in memory: the base index, then one `Option` per
/// index of the span (a finished task costs one byte), then the live count.
/// Load refuses a live count the slots contradict, a span that starts with
/// a finished slot (removal always trims those), and a span whose end
/// overflows an index.
impl<T: Persist> Persist for InFlight<T> {
    fn save(&self, out: &mut Vec<u8>) {
        self.base.save(out);
        self.slots.save(out);
        self.live.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let base = usize::load(r)?;
        let slots: VecDeque<Option<T>> = VecDeque::load(r)?;
        let live = usize::load(r)?;
        let occupied = slots.iter().filter(|slot| slot.is_some()).count();
        let problem = if occupied != live {
            format!("records {live} live tasks but holds {occupied}")
        } else if matches!(slots.front(), Some(None)) {
            "starts with a finished task".to_string()
        } else if base.checked_add(slots.len()).is_none() {
            "ends past the last task index".to_string()
        } else {
            return Ok(InFlight { base, slots, live });
        };
        Err(SnapshotError::Corrupt {
            context: format!(
                "in-flight span at task#{base} over {} slots {problem}",
                slots.len()
            ),
        })
    }
}

/// Randomized lockstep equivalence of [`InFlight`] against a `BTreeMap`
/// keyed by task index.
///
/// CI runs this module by name:
/// `cargo test --release -p tdm-runtime in_flight_lockstep`.
#[cfg(test)]
mod in_flight_lockstep {
    use super::*;
    use std::collections::BTreeMap;
    use tdm_sim::rng::SplitMix64;

    /// Compares every observable of the span with the reference: `get` and
    /// `holds` at both edges of the span, just outside it and at random
    /// indices inside it.
    fn check(
        span: &InFlight<u64>,
        reference: &BTreeMap<usize, u64>,
        next: usize,
        rng: &mut SplitMix64,
        at: &str,
    ) {
        assert_eq!(span.len(), reference.len(), "{at}: len");
        assert_eq!(span.end(), next, "{at}: end");
        assert!(
            span.iter()
                .map(|(i, &v)| (i, v))
                .eq(reference.iter().map(|(&i, &v)| (i, v))),
            "{at}: iter"
        );
        let lowest = reference.keys().next().copied().unwrap_or(next);
        assert_eq!(span.base, lowest, "{at}: the front is the oldest live task");
        let inside = (0..8).map(|_| lowest + rng.next_below((next - lowest + 1) as u64) as usize);
        let edges = (lowest.saturating_sub(2)..lowest + 3).chain(next.saturating_sub(3)..next + 2);
        for index in edges.chain(inside) {
            assert_eq!(span.get(index), reference.get(&index), "{at}: get({index})");
            assert_eq!(span.holds(index), reference.contains_key(&index), "{at}");
        }
    }

    #[test]
    fn in_flight_span_matches_a_btree_map_in_randomized_lockstep() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed ^ 0x1F11_6472);
            let mut span: InFlight<u64> = InFlight::default();
            let mut reference: BTreeMap<usize, u64> = BTreeMap::new();
            // Tasks that outlive many later ones, holding a hole open at the
            // front of the span.
            let mut stragglers: Vec<usize> = Vec::new();
            let mut next = 0usize;
            let (mut stretched, mut drains, mut round_trips) = (false, 0u32, 0u32);
            for step in 0..5000u64 {
                let at = format!("seed {seed} step {step}");
                // Phases of 400 steps alternate between filling and
                // draining; every second drain phase ends by emptying the
                // span.
                let phase = step / 400;
                let push_in_8 = if phase % 2 == 0 { 5 } else { 2 };
                let draw = rng.next_below(8);
                if draw < push_in_8 {
                    let value = rng.next_u64();
                    span.push(next, value);
                    reference.insert(next, value);
                    if rng.next_below(50) == 0 {
                        stragglers.push(next);
                    }
                    next += 1;
                } else if !reference.is_empty() {
                    // Remove a live index, rarely a straggler, else the
                    // oldest one or a random one.
                    let live: Vec<usize> = reference
                        .keys()
                        .copied()
                        .filter(|i| !stragglers.contains(i))
                        .collect();
                    let index = if live.is_empty() || rng.next_below(40) == 0 {
                        let pos = rng.next_below(stragglers.len().max(1) as u64) as usize;
                        match stragglers.get(pos) {
                            Some(_) => stragglers.swap_remove(pos),
                            None => live[0],
                        }
                    } else if rng.next_below(3) == 0 {
                        live[0]
                    } else {
                        live[rng.next_below(live.len() as u64) as usize]
                    };
                    assert_eq!(span.remove(index), reference.remove(&index), "{at}");
                    // A second removal finds nothing.
                    assert_eq!(span.remove(index), None, "{at}");
                }
                if phase % 4 == 3 && step % 400 == 399 {
                    for index in reference.keys().copied().collect::<Vec<_>>() {
                        assert_eq!(span.remove(index), reference.remove(&index), "{at}");
                    }
                    stragglers.clear();
                    assert_eq!(span.slots.len(), 0, "{at}: a drained span is empty");
                    drains += 1;
                }
                if rng.next_below(64) == 0 {
                    let mut bytes = Vec::new();
                    span.save(&mut bytes);
                    let mut r = Reader::new(&bytes);
                    span = InFlight::load(&mut r).unwrap();
                    r.expect_end("span").unwrap();
                    round_trips += 1;
                }
                stretched |= span.len() >= 10 && span.slots.len() > 2 * span.len();
                check(&span, &reference, next, &mut rng, &at);
            }
            assert_eq!(drains, 3, "seed {seed}");
            assert!(round_trips >= 40, "seed {seed}: {round_trips} round trips");
            assert!(
                stretched,
                "seed {seed}: stragglers never stretched the span"
            );
        }
    }

    /// A span whose live count contradicts its slots, or that starts with a
    /// finished slot, is refused.
    #[test]
    fn load_refuses_spans_the_slots_contradict() {
        let mut span: InFlight<u64> = InFlight::default();
        for i in 0..4 {
            span.push(i, i as u64 * 10);
        }
        span.remove(2);
        let encode = |span: &InFlight<u64>| {
            let mut bytes = Vec::new();
            span.save(&mut bytes);
            bytes
        };
        assert!(InFlight::<u64>::load(&mut Reader::new(&encode(&span))).is_ok());
        let mut wrong_count = span.clone();
        wrong_count.live = 4;
        let mut open_front = span.clone();
        open_front.slots[0] = None;
        open_front.live -= 1;
        let mut overflowing = span.clone();
        overflowing.base = usize::MAX - 1;
        for (hostile, names) in [
            (wrong_count, "records 4 live tasks but holds 3"),
            (open_front, "starts with a finished task"),
            (overflowing, "ends past"),
        ] {
            let err = InFlight::<u64>::load(&mut Reader::new(&encode(&hostile))).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(names), "{err}");
        }
    }
}
