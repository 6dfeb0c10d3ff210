//! Inode-style list arrays (Figure 5 of the paper).
//!
//! The DMU stores three kinds of per-task / per-dependence lists (successors,
//! dependences and readers) in SRAM *list arrays*. Each list-array entry holds
//! a fixed number of elements (8 in the selected design) plus a `Next` field
//! pointing at the entry where the list continues — a layout the paper likens
//! to UNIX filesystem inodes. A list occupies one or more entries; when it
//! outgrows its tail entry a free entry is chained on.
//!
//! [`ListArray`] models one such structure: it tracks which entries are free,
//! enforces the capacity limit (an allocation failure is what makes a TDM
//! instruction block, Section III-D), and reports how many entries an
//! operation touched so the DMU can charge the right number of SRAM accesses.

use serde::{Deserialize, Serialize};

/// Handle to a list stored in a [`ListArray`]: the index of its head entry.
///
/// Handles are only meaningful for the list array that produced them and
/// become dangling after [`ListArray::free_list`]; the DMU stores them in the
/// Task and Dependence Tables exactly like the hardware stores head pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ListHandle(usize);

impl ListHandle {
    /// The index of the list's head entry. A [`ListArray`] hands out its
    /// lowest free entries first and reuses freed ones before fresh ones, so
    /// head indices stay below the peak number of entries in use: host-only
    /// state keyed by them grows with the lists, not with the capacity.
    pub(crate) fn head(self) -> usize {
        self.0
    }
}

/// Error returned when the list array has no free entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListArrayFull;

impl std::fmt::Display for ListArrayFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "list array has no free entries")
    }
}

impl std::error::Error for ListArrayFull {}

/// Sentinel in the `next` column marking the end of a chain (the hardware
/// encodes this by pointing the entry at itself).
const NO_NEXT: u32 = u32::MAX;

/// Result of an operation that walked a list: how many list-array entries
/// were read or written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Walk {
    /// Entries touched by the operation.
    pub entries_touched: u64,
}

/// A fixed-capacity SRAM array holding multiple variable-length lists.
///
/// Storage is struct-of-arrays: instead of one heap-allocated node per entry,
/// the array keeps parallel per-entry columns (`lens`, `next`, cached
/// `tail`/`chain_entries`/`list_elems`, `allocated`) plus one flat element
/// arena in which entry `i` owns the fixed-width run starting at
/// `i * elems_per_entry`.
/// Chain walks and element scans therefore stream through contiguous memory
/// instead of chasing per-entry `Vec` allocations; the modeled [`Walk`]
/// counts are byte-for-byte what the old node layout reported (enforced by
/// `tail_of_naive` plus the lockstep tests against `naive::NaiveListArray`).
///
/// # Example
///
/// ```
/// use tdm_core::list_array::ListArray;
///
/// let mut la = ListArray::new(4, 2); // 4 entries, 2 elements each
/// let list = la.alloc_list().unwrap();
/// la.push(list, 10).unwrap();
/// la.push(list, 11).unwrap();
/// la.push(list, 12).unwrap(); // spills into a second entry
/// assert_eq!(la.collect(list), vec![10, 11, 12]);
/// assert_eq!(la.entries_in_use(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ListArray {
    /// Flat element arena; entry `i` owns `arena[i*epe .. i*epe + lens[i]]`.
    /// Slots past an entry's length are stale (the hardware marks invalid
    /// slots with all-ones; we just ignore them).
    arena: Vec<u32>,
    /// Number of valid elements in each entry.
    lens: Vec<u32>,
    /// Continuation entry per entry, or [`NO_NEXT`] if the list ends there.
    next: Vec<u32>,
    /// Cached index of the chain's tail entry. Only meaningful on a list's
    /// *head* entry; lets `push` append in O(1) instead of re-walking the
    /// chain. This is a simulator-side shortcut: the modeled hardware still
    /// walks the chain, which is why walk *counts* are derived from
    /// `chain_entries` below and stay exactly what a linear walk reports.
    tail: Vec<u32>,
    /// Cached number of entries in each chain (head included). Only
    /// meaningful on a head entry.
    chain_entries: Vec<u64>,
    /// Cached number of elements in each list, so `len` and `is_empty` are
    /// O(1). Only meaningful on a head entry. Host-only: never persisted,
    /// derived from the chains on load, and grown to the highest entry
    /// allocated rather than sized by the capacity.
    list_elems: Vec<u32>,
    /// Whether each entry is currently part of some list.
    allocated: Vec<bool>,
    free: Vec<usize>,
    elems_per_entry: usize,
    /// High-water mark of allocated entries, for occupancy reporting.
    peak_in_use: usize,
}

impl ListArray {
    /// Creates a list array with `num_entries` entries of `elems_per_entry`
    /// elements each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(num_entries: usize, elems_per_entry: usize) -> Self {
        assert!(num_entries > 0, "list array needs at least one entry");
        assert!(
            elems_per_entry > 0,
            "list array entries need at least one element slot"
        );
        assert!(
            num_entries < NO_NEXT as usize,
            "list array too large for u32 entry indices"
        );
        ListArray {
            arena: vec![0; num_entries * elems_per_entry],
            lens: vec![0; num_entries],
            next: vec![NO_NEXT; num_entries],
            tail: vec![0; num_entries],
            chain_entries: vec![0; num_entries],
            list_elems: Vec::new(),
            allocated: vec![false; num_entries],
            // Allocate low indices first; order is irrelevant to correctness.
            free: (0..num_entries).rev().collect(),
            elems_per_entry,
            peak_in_use: 0,
        }
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.lens.len()
    }

    /// Elements per entry.
    pub fn elems_per_entry(&self) -> usize {
        self.elems_per_entry
    }

    /// Entries currently allocated to some list.
    pub fn entries_in_use(&self) -> usize {
        self.lens.len() - self.free.len()
    }

    /// Entries currently free.
    pub fn free_entries(&self) -> usize {
        self.free.len()
    }

    /// Highest number of entries that were simultaneously in use.
    pub fn peak_entries_in_use(&self) -> usize {
        self.peak_in_use
    }

    fn take_free_entry(&mut self) -> Result<usize, ListArrayFull> {
        let idx = self.free.pop().ok_or(ListArrayFull)?;
        debug_assert!(
            !self.allocated[idx],
            "free list contained an allocated entry"
        );
        self.lens[idx] = 0;
        self.next[idx] = NO_NEXT;
        self.allocated[idx] = true;
        self.tail[idx] = idx as u32;
        self.chain_entries[idx] = 1;
        if self.list_elems.len() <= idx {
            self.list_elems.resize(idx + 1, 0);
        }
        self.list_elems[idx] = 0;
        self.peak_in_use = self.peak_in_use.max(self.entries_in_use());
        Ok(idx)
    }

    /// Allocates a new, empty list.
    ///
    /// # Errors
    ///
    /// Returns [`ListArrayFull`] if no entry is free; the caller (the DMU)
    /// turns this into an instruction stall.
    pub fn alloc_list(&mut self) -> Result<ListHandle, ListArrayFull> {
        self.take_free_entry().map(ListHandle)
    }

    fn assert_allocated(&self, handle: ListHandle) {
        debug_assert!(
            self.allocated[handle.0],
            "list handle {handle:?} does not refer to an allocated list"
        );
    }

    /// Tail entry and chain length of a list, from the head entry's cache:
    /// `(tail_index, entries_a_linear_walk_would_touch)` in O(1).
    ///
    /// The modeled hardware has no such cache — it walks the chain — so the
    /// second component is exactly what [`Self::tail_of_naive`] reports; a
    /// `debug_assert` enforces that equivalence on every call in debug
    /// builds (including the whole conformance matrix).
    fn tail_of(&self, handle: ListHandle) -> (usize, u64) {
        self.assert_allocated(handle);
        let cached = (self.tail[handle.0] as usize, self.chain_entries[handle.0]);
        debug_assert_eq!(
            cached,
            self.tail_of_naive(handle),
            "cached tail/chain-length out of sync with a linear walk for {handle:?}"
        );
        cached
    }

    /// Reference implementation of [`Self::tail_of`]: the linear walk the
    /// hardware performs. Used by debug assertions and the equivalence tests;
    /// compiled (and optimized away) in release builds too, so it cannot rot.
    fn tail_of_naive(&self, handle: ListHandle) -> (usize, u64) {
        let mut idx = handle.0;
        let mut walked = 1;
        while self.next[idx] != NO_NEXT {
            idx = self.next[idx] as usize;
            walked += 1;
        }
        (idx, walked)
    }

    /// True if appending one more element to the list would require chaining
    /// a new entry. Used by the DMU to check, before mutating anything,
    /// whether an operation could stall.
    pub fn push_needs_new_entry(&self, handle: ListHandle) -> bool {
        let (tail, _) = self.tail_of(handle);
        self.lens[tail] as usize >= self.elems_per_entry
    }

    /// Exact number of fresh entries that `pushes` consecutive appends to
    /// this list would chain. Unlike calling [`Self::push_needs_new_entry`]
    /// once per append against pre-push state, this accounts for earlier
    /// appends filling the tail — which matters when one DMU operation pushes
    /// several elements into the *same* list (e.g. a writer that also sits in
    /// the reader list it is flushing).
    pub fn new_entries_for_pushes(&self, handle: ListHandle, pushes: usize) -> usize {
        let (tail, _) = self.tail_of(handle);
        let free_in_tail = self.elems_per_entry - self.lens[tail] as usize;
        pushes
            .saturating_sub(free_in_tail)
            .div_ceil(self.elems_per_entry)
    }

    /// Appends `value` to the list.
    ///
    /// Returns how many entries were touched (for access accounting). The
    /// append itself is O(1) thanks to the cached tail pointer, but the
    /// returned [`Walk`] still counts every entry a hardware linear walk
    /// would touch — that count feeds cycle accounting and must not shrink.
    ///
    /// # Errors
    ///
    /// Returns [`ListArrayFull`] if the tail entry is full and no free entry
    /// is available for chaining. The list is left unmodified in that case.
    pub fn push(&mut self, handle: ListHandle, value: u32) -> Result<Walk, ListArrayFull> {
        let (tail, walked) = self.tail_of(handle);
        let len = self.lens[tail] as usize;
        if len < self.elems_per_entry {
            self.arena[tail * self.elems_per_entry + len] = value;
            self.lens[tail] += 1;
            self.list_elems[handle.0] += 1;
            return Ok(Walk {
                entries_touched: walked,
            });
        }
        let new_idx = self.take_free_entry()?;
        self.arena[new_idx * self.elems_per_entry] = value;
        self.lens[new_idx] = 1;
        self.next[tail] = new_idx as u32;
        self.tail[handle.0] = new_idx as u32;
        self.chain_entries[handle.0] = walked + 1;
        self.list_elems[handle.0] += 1;
        Ok(Walk {
            entries_touched: walked + 1,
        })
    }

    /// Iterates over the elements of the list in insertion order without
    /// allocating. The list must not be mutated while the iterator lives
    /// (the borrow checker enforces this), which is what the DMU's hot
    /// operations (`add_dependence`, `finish_task`) rely on to avoid the
    /// per-operation `collect()` allocations they used to make.
    pub fn iter(&self, handle: ListHandle) -> ListIter<'_> {
        self.assert_allocated(handle);
        ListIter {
            array: self,
            entry: Some(handle.0),
            slot: 0,
        }
    }

    /// Returns the elements of the list in insertion order.
    pub fn collect(&self, handle: ListHandle) -> Vec<u32> {
        self.iter(handle).collect()
    }

    /// Number of elements in the list. O(1) from the head entry's cache; a
    /// `debug_assert` checks it against a full traversal.
    pub fn len(&self, handle: ListHandle) -> usize {
        self.assert_allocated(handle);
        let cached = self.list_elems[handle.0] as usize;
        debug_assert_eq!(
            cached,
            self.iter(handle).count(),
            "cached element count out of sync with a traversal for {handle:?}"
        );
        cached
    }

    /// True if the list holds no elements.
    pub fn is_empty(&self, handle: ListHandle) -> bool {
        self.len(handle) == 0
    }

    /// Number of entries the list currently spans. O(1) from the cached
    /// chain length; equals what a full traversal would count.
    pub fn entries_spanned(&self, handle: ListHandle) -> u64 {
        self.tail_of(handle).1
    }

    /// Removes the first occurrence of `value` from the list, if present.
    ///
    /// Returns whether the value was found and how many entries were touched.
    /// Entries are not un-chained when they become empty (matching a simple
    /// hardware implementation); the space is reclaimed when the whole list
    /// is freed.
    pub fn remove(&mut self, handle: ListHandle, value: u32) -> (bool, Walk) {
        self.assert_allocated(handle);
        let mut idx = handle.0;
        let mut walked = 0;
        loop {
            walked += 1;
            let base = idx * self.elems_per_entry;
            let len = self.lens[idx] as usize;
            if let Some(pos) = self.arena[base..base + len]
                .iter()
                .position(|&v| v == value)
            {
                // Shift the remaining elements left within the entry's arena
                // run; later slots become stale, exactly like invalidating a
                // hardware slot and compacting.
                self.arena
                    .copy_within(base + pos + 1..base + len, base + pos);
                self.lens[idx] -= 1;
                self.list_elems[handle.0] -= 1;
                return (
                    true,
                    Walk {
                        entries_touched: walked,
                    },
                );
            }
            if self.next[idx] == NO_NEXT {
                return (
                    false,
                    Walk {
                        entries_touched: walked,
                    },
                );
            }
            idx = self.next[idx] as usize;
        }
    }

    /// [`Self::remove`] for a caller that knows `value` is not in the list:
    /// the walk covers the whole chain, as a linear search that finds
    /// nothing does. A `debug_assert` checks the absence.
    pub(crate) fn remove_absent(&self, handle: ListHandle, value: u32) -> Walk {
        debug_assert!(
            self.iter(handle).all(|v| v != value),
            "{value} is in {handle:?}"
        );
        Walk {
            entries_touched: self.entries_spanned(handle),
        }
    }

    /// Removes every element from the list but keeps the head entry
    /// allocated (the paper's `add_dependence` flushes the reader list when a
    /// writer arrives). Continuation entries are returned to the free pool.
    pub fn flush(&mut self, handle: ListHandle) -> Walk {
        self.assert_allocated(handle);
        let mut walked = 1;
        let head = handle.0;
        let mut idx = self.next[head];
        self.lens[head] = 0;
        self.next[head] = NO_NEXT;
        self.tail[head] = head as u32;
        self.chain_entries[head] = 1;
        self.list_elems[head] = 0;
        while idx != NO_NEXT {
            walked += 1;
            let cur = idx as usize;
            idx = self.next[cur];
            self.release_entry(cur);
        }
        Walk {
            entries_touched: walked,
        }
    }

    fn release_entry(&mut self, idx: usize) {
        debug_assert!(self.allocated[idx], "double free of list-array entry {idx}");
        self.allocated[idx] = false;
        self.lens[idx] = 0;
        self.next[idx] = NO_NEXT;
        self.free.push(idx);
    }

    /// Frees the whole list, returning every entry to the free pool.
    ///
    /// Returns how many entries were released.
    pub fn free_list(&mut self, handle: ListHandle) -> Walk {
        self.assert_allocated(handle);
        let mut idx = handle.0 as u32;
        let mut walked = 0;
        while idx != NO_NEXT {
            walked += 1;
            let cur = idx as usize;
            idx = self.next[cur];
            self.release_entry(cur);
        }
        Walk {
            entries_touched: walked,
        }
    }
}

/// Borrowing iterator over a list's elements in insertion order (see
/// [`ListArray::iter`]).
#[derive(Debug, Clone)]
pub struct ListIter<'a> {
    array: &'a ListArray,
    /// Entry currently being read, or `None` when the chain is exhausted.
    entry: Option<usize>,
    /// Next element slot within the current entry.
    slot: usize,
}

impl Iterator for ListIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            let idx = self.entry?;
            if self.slot < self.array.lens[idx] as usize {
                let value = self.array.arena[idx * self.array.elems_per_entry + self.slot];
                self.slot += 1;
                return Some(value);
            }
            // Entry exhausted (possibly emptied by `remove`): follow the
            // chain exactly like the hardware traversal does.
            let next = self.array.next[idx];
            self.entry = (next != NO_NEXT).then_some(next as usize);
            self.slot = 0;
        }
    }
}

// Snapshot support. All columns are persisted verbatim, including the free
// list *in order* (entries are popped from its back) and the stale arena
// slots past each entry's length — a resumed run must allocate the same
// entries in the same order a straight-through run would.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for ListHandle {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ListHandle(usize::load(r)?))
    }
}

impl Persist for ListArray {
    fn save(&self, out: &mut Vec<u8>) {
        self.arena.save(out);
        self.lens.save(out);
        self.next.save(out);
        self.tail.save(out);
        self.chain_entries.save(out);
        self.allocated.save(out);
        self.free.save(out);
        self.elems_per_entry.save(out);
        self.peak_in_use.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut array = ListArray {
            arena: Vec::load(r)?,
            lens: Vec::load(r)?,
            next: Vec::load(r)?,
            tail: Vec::load(r)?,
            chain_entries: Vec::load(r)?,
            list_elems: Vec::new(),
            allocated: Vec::load(r)?,
            free: Vec::load(r)?,
            elems_per_entry: usize::load(r)?,
            peak_in_use: usize::load(r)?,
        };
        let entries = array.lens.len();
        if array.elems_per_entry == 0
            || entries.checked_mul(array.elems_per_entry) != Some(array.arena.len())
            || array.next.len() != entries
            || array.tail.len() != entries
            || array.chain_entries.len() != entries
            || array.allocated.len() != entries
            || array.free.len() > entries
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "list array geometry is inconsistent ({entries} entries, {} arena \
                     slots, {} elems/entry, {} free)",
                    array.arena.len(),
                    array.elems_per_entry,
                    array.free.len()
                ),
            });
        }
        array
            .rebuild_list_elems()
            .map_err(|problem| SnapshotError::Corrupt {
                context: format!("list array {problem}"),
            })?;
        Ok(array)
    }
}

impl ListArray {
    /// Refuses a restored array whose chains contradict themselves, then
    /// derives each list's element count from its chain. Every walk the
    /// operations make relies on what is checked here: lengths within an
    /// entry, chains that end, and cached tails that are the chains' own.
    fn rebuild_list_elems(&mut self) -> Result<(), String> {
        let entries = self.capacity();
        if let Some(idx) = (0..entries).find(|&idx| self.lens[idx] as usize > self.elems_per_entry)
        {
            return Err(format!(
                "entry {idx} holds {} elements in {} slots",
                self.lens[idx], self.elems_per_entry
            ));
        }
        let mut listed = vec![false; entries];
        for &idx in &self.free {
            if idx >= entries || self.allocated[idx] || std::mem::replace(&mut listed[idx], true) {
                return Err(format!(
                    "free list names entry {idx}, which is out of range, allocated or named twice"
                ));
            }
        }
        let allocated = entries - self.free.len();
        if self.allocated.iter().filter(|&&a| a).count() != allocated {
            return Err(format!(
                "free list holds {} entries, but {} entries are unallocated",
                self.free.len(),
                self.allocated.iter().filter(|&&a| !a).count()
            ));
        }
        let continued = self.continued_entries()?;
        let mut chained = 0;
        let used = self
            .allocated
            .iter()
            .rposition(|&a| a)
            .map_or(0, |idx| idx + 1);
        self.list_elems = vec![0; used];
        for head in (0..entries).filter(|&idx| self.allocated[idx] && !continued[idx]) {
            let (mut tail, mut walked, mut elems) = (head, 1, u64::from(self.lens[head]));
            while self.next[tail] != NO_NEXT {
                tail = self.next[tail] as usize;
                walked += 1;
                elems += u64::from(self.lens[tail]);
            }
            chained += walked;
            let cached = (self.tail[head] as usize, self.chain_entries[head]);
            if cached != (tail, walked) {
                return Err(format!(
                    "list at entry {head} records (tail, entries) {cached:?}, but its chain \
                     has {:?}",
                    (tail, walked)
                ));
            }
            self.list_elems[head] = u32::try_from(elems)
                .map_err(|_| format!("list at entry {head} holds {elems} elements"))?;
        }
        if chained != allocated as u64 {
            return Err(format!(
                "has {} allocated entries that no list reaches (a cycle)",
                allocated as u64 - chained
            ));
        }
        Ok(())
    }

    /// Which entries some allocated entry's chain continues into, refusing
    /// a continuation that is out of range, free, or shared by two chains.
    fn continued_entries(&self) -> Result<Vec<bool>, String> {
        let entries = self.capacity();
        let mut continued = vec![false; entries];
        for idx in (0..entries).filter(|&idx| self.allocated[idx]) {
            if self.next[idx] == NO_NEXT {
                continue;
            }
            let next = self.next[idx] as usize;
            if next >= entries
                || !self.allocated[next]
                || std::mem::replace(&mut continued[next], true)
            {
                return Err(format!(
                    "entry {idx} continues at entry {next}, which is out of range, free or \
                     another chain's"
                ));
            }
        }
        Ok(continued)
    }

    /// The head entry of every list: the allocated entries that no chain
    /// continues into. A restore checks that each live table row owns one,
    /// and that no two rows share one.
    pub(crate) fn heads(&self) -> ListHeads {
        let continued = self
            .continued_entries()
            .expect("a loaded array's chains were checked");
        ListHeads(
            (0..self.capacity())
                .map(|idx| self.allocated[idx] && !continued[idx])
                .collect(),
        )
    }
}

/// The unclaimed list heads of one array (see [`ListArray::heads`]).
pub(crate) struct ListHeads(Vec<bool>);

impl ListHeads {
    /// Claims `handle`'s list: true if it is a head no earlier call claimed.
    pub(crate) fn claim(&mut self, handle: ListHandle) -> bool {
        self.0.get_mut(handle.0).is_some_and(std::mem::take)
    }
}

/// Linear-walk reference model of [`ListArray`], kept under `#[cfg(test)]`.
///
/// It mirrors every operation with the walks the hardware performs and no
/// cached tail state; the conformance tests drive it in lockstep with the
/// real implementation and require bit-identical contents *and* [`Walk`]
/// counts, proving the cached-tail optimisation changed actual work only,
/// never modeled work.
#[cfg(test)]
pub mod naive {
    use super::{ListArrayFull, ListHandle, Walk};

    #[derive(Debug, Clone, Default)]
    struct NaiveEntry {
        elems: Vec<u32>,
        next: Option<usize>,
        allocated: bool,
    }

    /// The reference list array: identical semantics, all-linear walks.
    #[derive(Debug, Clone)]
    pub struct NaiveListArray {
        entries: Vec<NaiveEntry>,
        free: Vec<usize>,
        elems_per_entry: usize,
    }

    impl NaiveListArray {
        /// Mirrors [`super::ListArray::new`].
        pub fn new(num_entries: usize, elems_per_entry: usize) -> Self {
            NaiveListArray {
                entries: vec![NaiveEntry::default(); num_entries],
                free: (0..num_entries).rev().collect(),
                elems_per_entry,
            }
        }

        fn take_free_entry(&mut self) -> Result<usize, ListArrayFull> {
            let idx = self.free.pop().ok_or(ListArrayFull)?;
            let entry = &mut self.entries[idx];
            entry.elems.clear();
            entry.next = None;
            entry.allocated = true;
            Ok(idx)
        }

        /// Mirrors [`super::ListArray::alloc_list`].
        pub fn alloc_list(&mut self) -> Result<ListHandle, ListArrayFull> {
            self.take_free_entry().map(ListHandle)
        }

        fn tail_of(&self, handle: ListHandle) -> (usize, u64) {
            let mut idx = handle.0;
            let mut walked = 1;
            while let Some(next) = self.entries[idx].next {
                idx = next;
                walked += 1;
            }
            (idx, walked)
        }

        /// Mirrors [`super::ListArray::push`] with an explicit linear walk.
        pub fn push(&mut self, handle: ListHandle, value: u32) -> Result<Walk, ListArrayFull> {
            let (tail, walked) = self.tail_of(handle);
            if self.entries[tail].elems.len() < self.elems_per_entry {
                self.entries[tail].elems.push(value);
                return Ok(Walk {
                    entries_touched: walked,
                });
            }
            let new_idx = self.take_free_entry()?;
            self.entries[new_idx].elems.push(value);
            self.entries[tail].next = Some(new_idx);
            Ok(Walk {
                entries_touched: walked + 1,
            })
        }

        /// Mirrors [`super::ListArray::remove`].
        pub fn remove(&mut self, handle: ListHandle, value: u32) -> (bool, Walk) {
            let mut idx = handle.0;
            let mut walked = 0;
            loop {
                walked += 1;
                if let Some(pos) = self.entries[idx].elems.iter().position(|&v| v == value) {
                    self.entries[idx].elems.remove(pos);
                    return (
                        true,
                        Walk {
                            entries_touched: walked,
                        },
                    );
                }
                match self.entries[idx].next {
                    Some(next) => idx = next,
                    None => {
                        return (
                            false,
                            Walk {
                                entries_touched: walked,
                            },
                        )
                    }
                }
            }
        }

        /// Mirrors [`super::ListArray::flush`].
        pub fn flush(&mut self, handle: ListHandle) -> Walk {
            let mut walked = 1;
            let head = handle.0;
            let mut idx = self.entries[head].next;
            self.entries[head].elems.clear();
            self.entries[head].next = None;
            while let Some(cur) = idx {
                walked += 1;
                idx = self.entries[cur].next;
                self.release_entry(cur);
            }
            Walk {
                entries_touched: walked,
            }
        }

        fn release_entry(&mut self, idx: usize) {
            let entry = &mut self.entries[idx];
            entry.allocated = false;
            entry.elems.clear();
            entry.next = None;
            self.free.push(idx);
        }

        /// Mirrors [`super::ListArray::free_list`].
        pub fn free_list(&mut self, handle: ListHandle) -> Walk {
            let mut idx = Some(handle.0);
            let mut walked = 0;
            while let Some(cur) = idx {
                walked += 1;
                idx = self.entries[cur].next;
                self.release_entry(cur);
            }
            Walk {
                entries_touched: walked,
            }
        }

        /// Mirrors [`super::ListArray::free_entries`].
        pub fn free_entries(&self) -> usize {
            self.free.len()
        }

        /// Mirrors [`super::ListArray::new_entries_for_pushes`].
        pub fn new_entries_for_pushes(&self, handle: ListHandle, pushes: usize) -> usize {
            let (tail, _) = self.tail_of(handle);
            let free_in_tail = self.elems_per_entry - self.entries[tail].elems.len();
            pushes
                .saturating_sub(free_in_tail)
                .div_ceil(self.elems_per_entry)
        }

        /// Mirrors [`super::ListArray::is_empty`] via a full walk.
        pub fn is_empty(&self, handle: ListHandle) -> bool {
            self.collect(handle).is_empty()
        }

        /// Mirrors [`super::ListArray::len`] via a full walk.
        pub fn len(&self, handle: ListHandle) -> usize {
            self.collect(handle).len()
        }

        /// Mirrors [`super::ListArray::collect`].
        pub fn collect(&self, handle: ListHandle) -> Vec<u32> {
            let mut values = Vec::new();
            let mut idx = handle.0;
            loop {
                values.extend_from_slice(&self.entries[idx].elems);
                match self.entries[idx].next {
                    Some(next) => idx = next,
                    None => break,
                }
            }
            values
        }

        /// Mirrors [`super::ListArray::entries_spanned`].
        pub fn entries_spanned(&self, handle: ListHandle) -> u64 {
            self.tail_of(handle).1
        }

        /// Mirrors [`super::ListArray::push_needs_new_entry`].
        pub fn push_needs_new_entry(&self, handle: ListHandle) -> bool {
            let (tail, _) = self.tail_of(handle);
            self.entries[tail].elems.len() >= self.elems_per_entry
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A restored array's arena must hold exactly entries × elements slots;
    /// a product that overflows is refused, not wrapped to a size that
    /// matches an empty arena and then indexed out of bounds.
    #[test]
    fn load_refuses_an_arena_size_that_overflows() {
        let mut array = ListArray::new(2, 1);
        array.elems_per_entry = 1 << 63;
        array.arena.clear();
        let bytes = tdm_sim::snapshot::to_payload(&array);
        match ListArray::load(&mut Reader::new(&bytes)) {
            Err(SnapshotError::Corrupt { context }) => {
                assert!(context.contains("geometry is inconsistent"), "{context}")
            }
            other => panic!("expected an inconsistent geometry, got {other:?}"),
        }
    }

    /// The context of the `Corrupt` error that loading `array` returns.
    fn refusal(array: &ListArray) -> String {
        let bytes = tdm_sim::snapshot::to_payload(array);
        match ListArray::load(&mut Reader::new(&bytes)) {
            Err(SnapshotError::Corrupt { context }) => context,
            other => panic!("expected a corrupt list array, got {other:?}"),
        }
    }

    /// Two lists in 2-slot entries: `[1, 2, 3]` over entries 0 → 2 and
    /// `[4]` in entry 1; entry 3 is free.
    fn two_lists() -> ListArray {
        let mut la = ListArray::new(4, 2);
        let a = la.alloc_list().unwrap();
        let b = la.alloc_list().unwrap();
        for v in 1..=3 {
            la.push(a, v).unwrap();
        }
        la.push(b, 4).unwrap();
        la
    }

    /// A restored array's element counts are derived from its chains, so
    /// `len` and `is_empty` hold after a round trip.
    #[test]
    fn load_derives_list_lengths() {
        let mut la = two_lists();
        la.flush(ListHandle(1));
        let bytes = tdm_sim::snapshot::to_payload(&la);
        let restored = ListArray::load(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.len(ListHandle(0)), 3);
        assert!(restored.is_empty(ListHandle(1)));
    }

    #[test]
    fn load_refuses_a_next_out_of_range() {
        let mut la = two_lists();
        la.next[2] = 9;
        assert!(refusal(&la).contains("continues at entry 9"));
    }

    #[test]
    fn load_refuses_a_length_above_the_entry_size() {
        let mut la = two_lists();
        la.lens[1] = 3;
        assert!(refusal(&la).contains("entry 1 holds 3 elements in 2 slots"));
    }

    #[test]
    fn load_refuses_a_chain_that_cycles() {
        let mut la = ListArray::new(2, 1);
        la.alloc_list().unwrap();
        la.next[0] = 0;
        assert!(refusal(&la).contains("a cycle"));
    }

    #[test]
    fn load_refuses_two_chains_sharing_an_entry() {
        let mut la = two_lists();
        la.next[1] = 2;
        assert!(refusal(&la).contains("another chain's"));
    }

    #[test]
    fn load_refuses_a_chain_through_a_free_entry() {
        let mut la = two_lists();
        la.next[2] = 3;
        assert!(refusal(&la).contains("continues at entry 3"));
    }

    #[test]
    fn load_refuses_a_tail_its_chain_contradicts() {
        let mut la = two_lists();
        la.tail[0] = 0;
        assert!(refusal(&la).contains("list at entry 0 records (tail, entries) (0, 2)"));
    }

    #[test]
    fn load_refuses_a_chain_length_its_chain_contradicts() {
        let mut la = two_lists();
        la.chain_entries[1] = 5;
        assert!(refusal(&la).contains("list at entry 1 records (tail, entries) (1, 5)"));
    }

    #[test]
    fn load_refuses_a_free_list_other_than_the_unallocated_entries() {
        type Edit = fn(&mut Vec<usize>);
        let edits: [(Edit, &str); 3] = [
            (|free| free.push(3), "named twice"),
            (|free| free[0] = 0, "allocated"),
            (|free| free.clear(), "1 entries are unallocated"),
        ];
        for (edit, problem) in edits {
            let mut la = two_lists();
            edit(&mut la.free);
            let context = refusal(&la);
            assert!(context.contains(problem), "{context}");
        }
    }

    #[test]
    fn push_and_collect_preserve_order() {
        let mut la = ListArray::new(8, 4);
        let l = la.alloc_list().unwrap();
        for v in 0..10 {
            la.push(l, v).unwrap();
        }
        assert_eq!(la.collect(l), (0..10).collect::<Vec<_>>());
        assert_eq!(la.len(l), 10);
        assert!(!la.is_empty(l));
    }

    #[test]
    fn new_list_is_empty_and_spans_one_entry() {
        let mut la = ListArray::new(4, 8);
        let l = la.alloc_list().unwrap();
        assert!(la.is_empty(l));
        assert_eq!(la.entries_spanned(l), 1);
        assert_eq!(la.entries_in_use(), 1);
    }

    #[test]
    fn lists_spill_into_chained_entries() {
        let mut la = ListArray::new(4, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..6 {
            la.push(l, v).unwrap();
        }
        assert_eq!(la.entries_spanned(l), 3);
        assert_eq!(la.entries_in_use(), 3);
        assert_eq!(la.collect(l), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_walk_counts_grow_with_list_length() {
        let mut la = ListArray::new(8, 2);
        let l = la.alloc_list().unwrap();
        let w1 = la.push(l, 0).unwrap();
        assert_eq!(w1.entries_touched, 1);
        la.push(l, 1).unwrap();
        // Third push spills into a new entry: walks the head then writes a new entry.
        let w3 = la.push(l, 2).unwrap();
        assert_eq!(w3.entries_touched, 2);
        // Fifth push walks two entries then allocates the third.
        la.push(l, 3).unwrap();
        let w5 = la.push(l, 4).unwrap();
        assert_eq!(w5.entries_touched, 3);
    }

    #[test]
    fn alloc_fails_when_full() {
        let mut la = ListArray::new(2, 2);
        let _a = la.alloc_list().unwrap();
        let _b = la.alloc_list().unwrap();
        assert_eq!(la.alloc_list(), Err(ListArrayFull));
        assert_eq!(la.free_entries(), 0);
    }

    #[test]
    fn push_fails_without_free_entry_and_leaves_list_intact() {
        let mut la = ListArray::new(2, 2);
        let a = la.alloc_list().unwrap();
        let b = la.alloc_list().unwrap();
        la.push(a, 1).unwrap();
        la.push(a, 2).unwrap();
        // `a` is full and there is no free entry to chain.
        assert_eq!(la.push(a, 3), Err(ListArrayFull));
        assert_eq!(la.collect(a), vec![1, 2]);
        // `b` still has room in its own entry, so pushing there works.
        la.push(b, 9).unwrap();
        assert_eq!(la.collect(b), vec![9]);
    }

    #[test]
    fn push_needs_new_entry_predicts_spill() {
        let mut la = ListArray::new(4, 2);
        let l = la.alloc_list().unwrap();
        assert!(!la.push_needs_new_entry(l));
        la.push(l, 1).unwrap();
        assert!(!la.push_needs_new_entry(l));
        la.push(l, 2).unwrap();
        assert!(la.push_needs_new_entry(l));
        la.push(l, 3).unwrap();
        assert!(!la.push_needs_new_entry(l));
    }

    #[test]
    fn remove_first_occurrence_only() {
        let mut la = ListArray::new(4, 2);
        let l = la.alloc_list().unwrap();
        for v in [5, 6, 5, 7] {
            la.push(l, v).unwrap();
        }
        let (found, _) = la.remove(l, 5);
        assert!(found);
        assert_eq!(la.collect(l), vec![6, 5, 7]);
        let (found, _) = la.remove(l, 42);
        assert!(!found);
    }

    #[test]
    fn flush_keeps_head_and_releases_tail_entries() {
        let mut la = ListArray::new(4, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..6 {
            la.push(l, v).unwrap();
        }
        assert_eq!(la.entries_in_use(), 3);
        la.flush(l);
        assert!(la.is_empty(l));
        assert_eq!(la.entries_in_use(), 1);
        // The list is still usable after a flush.
        la.push(l, 99).unwrap();
        assert_eq!(la.collect(l), vec![99]);
    }

    #[test]
    fn free_list_releases_all_entries() {
        let mut la = ListArray::new(4, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..6 {
            la.push(l, v).unwrap();
        }
        let walk = la.free_list(l);
        assert_eq!(walk.entries_touched, 3);
        assert_eq!(la.entries_in_use(), 0);
        assert_eq!(la.free_entries(), 4);
    }

    #[test]
    fn freed_entries_are_reusable() {
        let mut la = ListArray::new(2, 1);
        let a = la.alloc_list().unwrap();
        la.push(a, 1).unwrap();
        la.push(a, 2).unwrap(); // uses both entries
        assert_eq!(la.alloc_list(), Err(ListArrayFull));
        la.free_list(a);
        let b = la.alloc_list().unwrap();
        la.push(b, 3).unwrap();
        assert_eq!(la.collect(b), vec![3]);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut la = ListArray::new(4, 1);
        let a = la.alloc_list().unwrap();
        la.push(a, 1).unwrap(); // fills the head entry
        la.push(a, 2).unwrap(); // chains a second entry
        la.push(a, 3).unwrap(); // chains a third entry
        la.free_list(a);
        assert_eq!(la.entries_in_use(), 0);
        assert_eq!(la.peak_entries_in_use(), 3);
    }

    /// Figure 5 layout under interleaving: two lists grown alternately chain
    /// through interleaved storage entries, yet each keeps its own contents
    /// and per-list walk counts.
    #[test]
    fn interleaved_lists_chain_without_cross_talk() {
        let mut la = ListArray::new(16, 2);
        let a = la.alloc_list().unwrap();
        let b = la.alloc_list().unwrap();
        for v in 0..12u32 {
            if v % 2 == 0 {
                la.push(a, v).unwrap();
            } else {
                la.push(b, v).unwrap();
            }
        }
        assert_eq!(la.collect(a), vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(la.collect(b), vec![1, 3, 5, 7, 9, 11]);
        // 6 elements at 2 per entry → 3 entries each.
        assert_eq!(la.entries_spanned(a), 3);
        assert_eq!(la.entries_spanned(b), 3);
        assert_eq!(la.entries_in_use(), 6);
    }

    /// Overflow recovery (Section III-D): a push blocked by a full array
    /// succeeds once another list releases an entry — the stall-and-retry
    /// protocol the DMU applies to TDM instructions.
    #[test]
    fn blocked_push_succeeds_after_another_list_frees_entries() {
        let mut la = ListArray::new(3, 1);
        let a = la.alloc_list().unwrap();
        let b = la.alloc_list().unwrap();
        la.push(a, 1).unwrap();
        la.push(a, 2).unwrap(); // chains the third and last entry
        la.push(b, 7).unwrap(); // fits in b's head entry
        assert_eq!(la.push(b, 8), Err(ListArrayFull));
        la.free_list(a);
        la.push(b, 8).expect("freed entries must unblock the push");
        assert_eq!(la.collect(b), vec![7, 8]);
    }

    /// Flush walks the whole chain (head + continuations) and reports it, so
    /// the DMU charges one SRAM access per entry released.
    #[test]
    fn flush_walk_counts_every_chained_entry() {
        let mut la = ListArray::new(8, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..7 {
            la.push(l, v).unwrap(); // 7 elements at 2/entry → 4 entries
        }
        let walk = la.flush(l);
        assert_eq!(walk.entries_touched, 4);
        assert_eq!(la.entries_in_use(), 1);
        assert_eq!(la.free_entries(), 7);
    }

    /// Removing elements can leave an empty entry in the middle of a chain;
    /// traversal must skip through it without losing the tail.
    #[test]
    fn traversal_crosses_emptied_middle_entries() {
        let mut la = ListArray::new(8, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..6 {
            la.push(l, v).unwrap(); // entries: [0,1] [2,3] [4,5]
        }
        la.remove(l, 2);
        la.remove(l, 3); // middle entry now empty but still chained
        assert_eq!(la.collect(l), vec![0, 1, 4, 5]);
        assert_eq!(la.entries_spanned(l), 3);
        // Pushes still go to the tail (the emptied middle entry is not
        // reused until the list is flushed or freed).
        la.push(l, 9).unwrap();
        assert_eq!(la.collect(l), vec![0, 1, 4, 5, 9]);
        assert_eq!(la.entries_spanned(l), 4);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = ListArray::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elems_per_entry_panics() {
        let _ = ListArray::new(8, 0);
    }

    /// Lockstep conformance against the linear-walk reference: a long
    /// deterministic random sequence of alloc/push/remove/flush/free over
    /// interleaved lists must produce bit-identical contents AND bit-identical
    /// [`Walk`] counts on the cached-tail implementation and the naive one.
    #[test]
    fn walk_counts_match_naive_reference_under_random_ops() {
        use super::naive::NaiveListArray;
        use tdm_sim::rng::SplitMix64;

        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let mut fast = ListArray::new(64, 2);
            let mut naive = NaiveListArray::new(64, 2);
            let mut handles: Vec<ListHandle> = Vec::new();
            for step in 0..2_000u32 {
                let ctx = format!("seed {seed} step {step}");
                match rng.next_below(10) {
                    // Allocation (both must agree on success and handle).
                    0 | 1 => {
                        let a = fast.alloc_list();
                        let b = naive.alloc_list();
                        assert_eq!(a, b, "{ctx}: alloc");
                        if let Ok(h) = a {
                            handles.push(h);
                        }
                    }
                    // Push dominates the mix: it is the DMU's hot operation.
                    2..=6 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        let a = fast.push(h, step);
                        let b = naive.push(h, step);
                        assert_eq!(a, b, "{ctx}: push walk");
                    }
                    7 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        let victim = rng.next_below(u64::from(step) + 1) as u32;
                        assert_eq!(
                            fast.remove(h, victim),
                            naive.remove(h, victim),
                            "{ctx}: remove walk"
                        );
                    }
                    8 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        assert_eq!(fast.flush(h), naive.flush(h), "{ctx}: flush walk");
                    }
                    9 if !handles.is_empty() => {
                        let i = rng.next_below(handles.len() as u64) as usize;
                        let h = handles.swap_remove(i);
                        assert_eq!(fast.free_list(h), naive.free_list(h), "{ctx}: free walk");
                    }
                    _ => {}
                }
                // Read-side agreement on every live list, every step.
                for &h in &handles {
                    assert_eq!(fast.collect(h), naive.collect(h), "{ctx}: contents");
                    assert_eq!(
                        fast.entries_spanned(h),
                        naive.entries_spanned(h),
                        "{ctx}: span"
                    );
                    assert_eq!(
                        fast.push_needs_new_entry(h),
                        naive.push_needs_new_entry(h),
                        "{ctx}: spill prediction"
                    );
                    assert_eq!(fast.len(h), naive.len(h), "{ctx}: length");
                    assert_eq!(fast.is_empty(h), naive.is_empty(h), "{ctx}: emptiness");
                }
            }
        }
    }

    /// Reuse-heavy lockstep: a small array is driven so that overflow chains
    /// are constantly torn down (flush/free) and the released entries are
    /// reallocated and re-pushed *immediately*, in the same step. This is the
    /// chain-teardown-then-reuse edge where a stale cached tail or chain
    /// length would survive into the recycled entry; the naive reference and
    /// the per-call `tail_of` debug assertion both catch it.
    #[test]
    fn walk_counts_match_naive_reference_under_reuse_heavy_churn() {
        use super::naive::NaiveListArray;
        use tdm_sim::rng::SplitMix64;

        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xF1EE7 ^ seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut fast = ListArray::new(12, 2);
            let mut naive = NaiveListArray::new(12, 2);
            let mut handles: Vec<ListHandle> = Vec::new();
            for step in 0..3_000u32 {
                let ctx = format!("seed {seed} step {step}");
                match rng.next_below(8) {
                    // Grow aggressively so lists overflow into chains.
                    0..=2 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        for i in 0..3 {
                            let a = fast.push(h, step.wrapping_add(i));
                            let b = naive.push(h, step.wrapping_add(i));
                            assert_eq!(a, b, "{ctx}: push walk");
                        }
                    }
                    // Tear a chain down and *immediately* recycle its entries
                    // into a fresh list grown in the same step.
                    3 | 4 if !handles.is_empty() => {
                        let i = rng.next_below(handles.len() as u64) as usize;
                        let h = handles.swap_remove(i);
                        assert_eq!(fast.free_list(h), naive.free_list(h), "{ctx}: free walk");
                        let a = fast.alloc_list();
                        let b = naive.alloc_list();
                        assert_eq!(a, b, "{ctx}: realloc after free");
                        if let Ok(nh) = a {
                            handles.push(nh);
                            let a = fast.push(nh, step);
                            let b = naive.push(nh, step);
                            assert_eq!(a, b, "{ctx}: push into recycled entry");
                        }
                    }
                    // Flush (keeps the head, releases continuations) and
                    // regrow the same list through the recycled entries.
                    5 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        assert_eq!(fast.flush(h), naive.flush(h), "{ctx}: flush walk");
                        for i in 0..4 {
                            let a = fast.push(h, step.wrapping_add(i));
                            let b = naive.push(h, step.wrapping_add(i));
                            assert_eq!(a, b, "{ctx}: regrow after flush");
                        }
                    }
                    6 if !handles.is_empty() => {
                        let h = handles[rng.next_below(handles.len() as u64) as usize];
                        let victim = rng.next_below(u64::from(step) + 1) as u32;
                        assert_eq!(
                            fast.remove(h, victim),
                            naive.remove(h, victim),
                            "{ctx}: remove walk"
                        );
                    }
                    _ => {
                        let a = fast.alloc_list();
                        let b = naive.alloc_list();
                        assert_eq!(a, b, "{ctx}: alloc");
                        if let Ok(h) = a {
                            handles.push(h);
                        }
                    }
                }
                for &h in &handles {
                    assert_eq!(fast.collect(h), naive.collect(h), "{ctx}: contents");
                    assert_eq!(
                        fast.entries_spanned(h),
                        naive.entries_spanned(h),
                        "{ctx}: span"
                    );
                    assert_eq!(
                        fast.push_needs_new_entry(h),
                        naive.push_needs_new_entry(h),
                        "{ctx}: spill prediction"
                    );
                    assert_eq!(fast.len(h), naive.len(h), "{ctx}: length");
                    assert_eq!(fast.is_empty(h), naive.is_empty(h), "{ctx}: emptiness");
                }
            }
        }
    }

    /// The cached tail must survive the chain-mutating operations in
    /// combination: grow, flush, regrow, remove-in-middle, regrow again.
    #[test]
    fn cached_tail_survives_flush_and_regrowth() {
        let mut la = ListArray::new(16, 2);
        let l = la.alloc_list().unwrap();
        for v in 0..9 {
            la.push(l, v).unwrap(); // 5 entries
        }
        assert_eq!(la.entries_spanned(l), 5);
        la.flush(l);
        assert_eq!(la.entries_spanned(l), 1);
        for v in 0..5 {
            la.push(l, v).unwrap(); // 3 entries
        }
        assert_eq!(la.entries_spanned(l), 3);
        la.remove(l, 2);
        la.remove(l, 3); // middle entry emptied, still chained
        assert_eq!(la.entries_spanned(l), 3);
        let walk = la.push(l, 9).unwrap();
        // Tail entry holds one element (4), so the push lands there after a
        // modeled 3-entry walk.
        assert_eq!(walk.entries_touched, 3);
        assert_eq!(la.collect(l), vec![0, 1, 4, 9]);
    }
}
