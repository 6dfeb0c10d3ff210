//! Per-core data-locality model.
//!
//! The locality-aware scheduler of Section VI schedules a ready successor on
//! the core that just produced its inputs, reducing data movement. To let the
//! simulator reward that behaviour, [`LocalityModel`] keeps, for every core, a
//! small LRU set of the data blocks (dependence address ranges) the core has
//! touched most recently, bounded by the private cache capacity. When a task
//! starts on a core the runtime asks how many of the task's input bytes are
//! resident; the miss fraction stretches the task's execution time by a
//! configurable memory-boundedness factor.
//!
//! This is intentionally far simpler than a real cache (no sets, no lines, no
//! coherence): at task granularity the only first-order effect is "my inputs
//! were just produced here" versus "my inputs live in another core's cache or
//! in L2/memory", which an LRU over dependence blocks captures.

use std::collections::hash_map::Entry;

use serde::{Deserialize, Serialize};

use crate::fast_map::FastMap;

/// Identifier of a data block: the base address of a dependence range.
pub type BlockAddr = u64;

/// Result of probing the locality model for one task's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LocalityOutcome {
    /// Bytes of the working set that were resident on the executing core.
    pub hit_bytes: u64,
    /// Bytes that were not resident and must be fetched from L2 / another
    /// core / memory.
    pub miss_bytes: u64,
}

impl LocalityOutcome {
    /// Fraction of the working set that hit (1.0 for an empty working set,
    /// i.e. a task with no data dependences pays no locality penalty).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }

    /// Fraction of the working set that missed.
    pub fn miss_fraction(&self) -> f64 {
        1.0 - self.hit_fraction()
    }
}

/// Marks the end of a list: no node.
const NIL: u32 = u32::MAX;

/// One (core, block) residency. A live node sits in two doubly-linked lists
/// at once: its core's MRU list and its block's holder chain. A free node is
/// linked into the slab's free list through `next`.
#[derive(Debug, Clone, Copy)]
struct Node {
    block: BlockAddr,
    /// Block size in bytes, as of the last touch.
    size: u64,
    core: u32,
    /// Neighbour towards the MRU end of the core's list.
    prev: u32,
    /// Neighbour towards the LRU end of the core's list.
    next: u32,
    holder_prev: u32,
    holder_next: u32,
}

/// One core's MRU list: its two ends plus running totals.
#[derive(Debug, Clone, Copy)]
struct CoreList {
    /// Most recently used node.
    head: u32,
    /// Least recently used node: the next eviction victim.
    tail: u32,
    len: usize,
    bytes: u64,
}

impl CoreList {
    const EMPTY: CoreList = CoreList {
        head: NIL,
        tail: NIL,
        len: 0,
        bytes: 0,
    };
}

/// Tracks, per core, which data blocks are resident in that core's private
/// cache, with LRU replacement bounded by a byte capacity.
///
/// All residencies live in one node slab, and a new residency reuses a
/// freed node. Each node is linked into its core's MRU list and into its
/// block's holder chain. Two maps index the nodes:
///
/// * `resident` maps each (core, block) residency to its node, so probing,
///   touching and evicting cost one map operation per block;
/// * `holders` maps each resident block to the head of its holder chain (at
///   most one node per core), which only a write walks, to invalidate the
///   block on every other core.
///
/// # Example
///
/// ```
/// use tdm_sim::cache::LocalityModel;
///
/// let mut model = LocalityModel::new(2, 32 * 1024);
/// // Core 0 produces block 0x1000 (16 KB).
/// model.record_writes(0, &[(0x1000, 16 * 1024)]);
/// // A task reading that block on core 0 hits; on core 1 it misses.
/// assert_eq!(model.probe(0, &[(0x1000, 16 * 1024)]).hit_bytes, 16 * 1024);
/// assert_eq!(model.probe(1, &[(0x1000, 16 * 1024)]).miss_bytes, 16 * 1024);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalityModel {
    capacity_bytes: u64,
    cores: Vec<CoreList>,
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Head of each resident block's holder chain. Neither map is iterated
    /// outside the debug check, so map order is unobservable.
    holders: FastMap<BlockAddr, u32>,
    /// The node of each (core, block) residency.
    resident: FastMap<(u32, BlockAddr), u32>,
}

impl LocalityModel {
    /// Creates a model for `num_cores` cores, each with `capacity_bytes` of
    /// private cache (the paper's chip has 32 KB L1 per core; using the L1+L2
    /// slice share is also reasonable — the harnesses use the L1 size).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or above `u32::MAX`, or if
    /// `capacity_bytes` is zero.
    pub fn new(num_cores: usize, capacity_bytes: u64) -> Self {
        assert!(num_cores > 0, "locality model needs at least one core");
        assert!(
            u32::try_from(num_cores).is_ok(),
            "locality model core ids are u32"
        );
        assert!(capacity_bytes > 0, "cache capacity must be non-zero");
        LocalityModel {
            capacity_bytes,
            cores: vec![CoreList::EMPTY; num_cores],
            nodes: Vec::new(),
            free: NIL,
            holders: FastMap::default(),
            resident: FastMap::default(),
        }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Configured per-core capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Returns how much of the given working set (list of `(address, bytes)`
    /// blocks) is resident on `core`, without modifying residency.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn probe(&self, core: usize, working_set: &[(BlockAddr, u64)]) -> LocalityOutcome {
        let core = self.core_id(core);
        let mut outcome = LocalityOutcome::default();
        for &(addr, size) in working_set {
            if self.find(core, addr).is_some() {
                outcome.hit_bytes += size;
            } else {
                outcome.miss_bytes += size;
            }
        }
        outcome
    }

    /// Records that `core` read the given blocks (they become resident there).
    pub fn record_reads(&mut self, core: usize, working_set: &[(BlockAddr, u64)]) {
        let core = self.core_id(core);
        for &(addr, size) in working_set {
            self.touch(core, addr, size);
        }
        self.debug_check();
    }

    /// Records that `core` wrote the given blocks. The blocks become resident
    /// on the writer and are invalidated everywhere else (a coarse model of
    /// invalidation-based coherence).
    pub fn record_writes(&mut self, core: usize, working_set: &[(BlockAddr, u64)]) {
        let core = self.core_id(core);
        for &(addr, size) in working_set {
            let mut n = self.holders.get(&addr).copied().unwrap_or(NIL);
            while n != NIL {
                let node = self.nodes[n as usize];
                if node.core != core {
                    self.remove(n);
                }
                n = node.holder_next;
            }
            self.touch(core, addr, size);
        }
        self.debug_check();
    }

    /// Forgets all residency information (used between parallel regions).
    pub fn reset(&mut self) {
        self.cores.fill(CoreList::EMPTY);
        self.nodes.clear();
        self.free = NIL;
        self.holders.clear();
        self.resident.clear();
    }

    /// Total bytes currently tracked as resident on `core`.
    pub fn resident_bytes(&self, core: usize) -> u64 {
        self.cores[core].bytes
    }

    /// `core` as a node's core id.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    fn core_id(&self, core: usize) -> u32 {
        assert!(
            core < self.cores.len(),
            "core {core} out of range for a {}-core locality model",
            self.cores.len()
        );
        // `new` bounds the core count by u32::MAX.
        core as u32
    }

    /// The node holding `addr` on `core`, if the block is resident there.
    fn find(&self, core: u32, addr: BlockAddr) -> Option<u32> {
        self.resident.get(&(core, addr)).copied()
    }

    /// Touches a block: moves it to the MRU position, inserting it if absent,
    /// and evicts LRU blocks while the capacity is exceeded.
    fn touch(&mut self, core: u32, addr: BlockAddr, size: u64) {
        let (n, inserted) = self.resident_node(core, addr, size);
        if !inserted {
            self.unlink_from_core(n);
            self.nodes[n as usize].size = size;
        }
        self.push_mru(n);
        // A single block larger than the whole cache is allowed to stay: the
        // task streams through it and the miss cost is charged on access.
        loop {
            let list = &self.cores[core as usize];
            if list.bytes <= self.capacity_bytes || list.len <= 1 {
                break;
            }
            self.remove(list.tail);
        }
    }

    /// The node of `addr` on `core`, and whether it was just inserted. A
    /// new node is indexed and sits at the head of the block's holder chain;
    /// the caller links it into the core's list. One index probe either way.
    fn resident_node(&mut self, core: u32, addr: BlockAddr, size: u64) -> (u32, bool) {
        let slot = match self.resident.entry((core, addr)) {
            Entry::Occupied(slot) => return (*slot.get(), false),
            Entry::Vacant(slot) => slot,
        };
        let node = Node {
            block: addr,
            size,
            core,
            prev: NIL,
            next: NIL,
            holder_prev: NIL,
            holder_next: NIL,
        };
        let n = if self.free == NIL {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("locality node slab outgrew u32 indices");
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        slot.insert(n);
        if let Some(head) = self.holders.insert(addr, n) {
            self.nodes[n as usize].holder_next = head;
            self.nodes[head as usize].holder_prev = n;
        }
        (n, true)
    }

    /// Links node `n` at the MRU end of its core's list.
    fn push_mru(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        let list = &mut self.cores[node.core as usize];
        node.prev = NIL;
        node.next = list.head;
        list.len += 1;
        list.bytes += node.size;
        let old_head = std::mem::replace(&mut list.head, n);
        if old_head == NIL {
            list.tail = n;
        } else {
            self.nodes[old_head as usize].prev = n;
        }
    }

    /// Unlinks node `n` from its core's list, keeping the list's totals.
    fn unlink_from_core(&mut self, n: u32) {
        let Node {
            core,
            size,
            prev,
            next,
            ..
        } = self.nodes[n as usize];
        let list = &mut self.cores[core as usize];
        list.len -= 1;
        list.bytes -= size;
        if prev == NIL {
            list.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Drops node `n` from both of its lists and frees it.
    fn remove(&mut self, n: u32) {
        self.unlink_from_core(n);
        let Node {
            block,
            core,
            holder_prev,
            holder_next,
            ..
        } = self.nodes[n as usize];
        self.resident.remove(&(core, block));
        if holder_next != NIL {
            self.nodes[holder_next as usize].holder_prev = holder_prev;
        }
        if holder_prev != NIL {
            self.nodes[holder_prev as usize].holder_next = holder_next;
        } else if holder_next == NIL {
            self.holders.remove(&block);
        } else {
            self.holders.insert(block, holder_next);
        }
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }

    /// The blocks resident on `core` with their sizes, most recently used
    /// first.
    fn mru_blocks(&self, core: usize) -> impl Iterator<Item = (BlockAddr, u64)> + '_ {
        let mut n = self.cores[core].head;
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = &self.nodes[n as usize];
            n = node.next;
            Some((node.block, node.size))
        })
    }

    /// Debug-build invariant: the holder chains are exactly the transpose of
    /// the per-core lists (every listed node is chained once, under its own
    /// block), `resident` indexes exactly the listed nodes under their own
    /// (core, block) keys (so no core holds a block twice), each core's
    /// `len`/`bytes` match its list, and every other node is free.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            const LISTED: u8 = 1;
            const CHAINED: u8 = 2;
            const FREE: u8 = 4;
            let mut marks = vec![0u8; self.nodes.len()];
            for (core, list) in self.cores.iter().enumerate() {
                let (mut n, mut prev, mut len, mut bytes) = (list.head, NIL, 0usize, 0u64);
                while n != NIL {
                    let node = &self.nodes[n as usize];
                    assert_eq!(node.core as usize, core, "node {n} on another core's list");
                    assert_eq!(node.prev, prev, "broken MRU back link at node {n}");
                    assert_eq!(marks[n as usize], 0, "node {n} listed twice");
                    assert_eq!(
                        self.find(node.core, node.block),
                        Some(n),
                        "node {n} is not indexed under its core and block"
                    );
                    marks[n as usize] = LISTED;
                    len += 1;
                    bytes += node.size;
                    prev = n;
                    n = node.next;
                }
                assert_eq!(list.tail, prev, "core {core} tail drift");
                assert_eq!(
                    (list.len, list.bytes),
                    (len, bytes),
                    "core {core} total drift"
                );
            }
            let listed: usize = self.cores.iter().map(|list| list.len).sum();
            assert_eq!(self.resident.len(), listed, "index holds unlisted nodes");
            for (&block, &head) in &self.holders {
                assert_ne!(head, NIL, "empty holder chain kept for block {block:#x}");
                let (mut n, mut prev) = (head, NIL);
                while n != NIL {
                    let node = &self.nodes[n as usize];
                    assert_eq!(node.block, block, "node {n} chained under another block");
                    assert_eq!(
                        node.holder_prev, prev,
                        "broken holder back link at node {n}"
                    );
                    assert_eq!(
                        marks[n as usize], LISTED,
                        "chained node {n} is not listed once"
                    );
                    marks[n as usize] |= CHAINED;
                    prev = n;
                    n = node.holder_next;
                }
            }
            let mut n = self.free;
            while n != NIL {
                assert_eq!(marks[n as usize], 0, "free node {n} is live or freed twice");
                marks[n as usize] = FREE;
                n = self.nodes[n as usize].next;
            }
            assert!(
                marks.iter().all(|&m| m == LISTED | CHAINED || m == FREE),
                "a node is neither resident in both lists nor free"
            );
        }
    }
}

// Snapshot support. The observable state is the per-core MRU block list
// (order matters: it decides eviction victims); the list totals, the node
// slab, the holder chains and the index are all derived, so the codec stores
// only capacity and the lists and rebuilds the rest on load.
impl crate::snapshot::Persist for LocalityModel {
    fn save(&self, out: &mut Vec<u8>) {
        self.capacity_bytes.save(out);
        self.cores.len().save(out);
        for (core, list) in self.cores.iter().enumerate() {
            list.len.save(out);
            for (addr, size) in self.mru_blocks(core) {
                addr.save(out);
                size.save(out);
            }
        }
    }

    fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let capacity_bytes = u64::load(r)?;
        let num_cores = usize::load(r)?;
        if capacity_bytes == 0 || num_cores == 0 {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "locality model with {num_cores} cores and {capacity_bytes}-byte \
                     capacity (both must be non-zero)"
                ),
            });
        }
        // Each core's list opens with an 8-byte length, so a core count the
        // payload cannot hold is refused before anything is allocated for it.
        if num_cores > r.remaining() / 8 {
            return Err(SnapshotError::Truncated {
                context: "locality core lists",
            });
        }
        let cores = u32::try_from(num_cores).map_err(|_| SnapshotError::Corrupt {
            context: format!("locality model with {num_cores} cores (core ids are u32)"),
        })?;
        let mut model = LocalityModel::new(num_cores, capacity_bytes);
        for core in 0..cores {
            let blocks: Vec<(BlockAddr, u64)> = Vec::load(r)?;
            let bytes = blocks
                .iter()
                .try_fold(0u64, |sum, &(_, size)| sum.checked_add(size));
            if blocks.len() > 1 && bytes.is_none_or(|b| b > capacity_bytes) {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "core {core} holds {} blocks over its {capacity_bytes}-byte capacity",
                        blocks.len()
                    ),
                });
            }
            // Linking from the LRU end leaves the first block most recent.
            for &(addr, size) in blocks.iter().rev() {
                let (n, inserted) = model.resident_node(core, addr, size);
                if !inserted {
                    return Err(SnapshotError::Corrupt {
                        context: format!("core {core} lists block {addr:#x} twice"),
                    });
                }
                model.push_mru(n);
            }
        }
        model.debug_check();
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_on_empty_model_misses_everything() {
        let model = LocalityModel::new(4, 1024);
        let out = model.probe(2, &[(0x100, 64), (0x200, 64)]);
        assert_eq!(out.hit_bytes, 0);
        assert_eq!(out.miss_bytes, 128);
        assert_eq!(out.hit_fraction(), 0.0);
    }

    #[test]
    fn empty_working_set_is_a_full_hit() {
        let model = LocalityModel::new(1, 1024);
        let out = model.probe(0, &[]);
        assert_eq!(out.hit_fraction(), 1.0);
        assert_eq!(out.miss_fraction(), 0.0);
    }

    #[test]
    fn reads_populate_only_the_reading_core() {
        let mut model = LocalityModel::new(2, 4096);
        model.record_reads(0, &[(0xA000, 512)]);
        assert_eq!(model.probe(0, &[(0xA000, 512)]).hit_bytes, 512);
        assert_eq!(model.probe(1, &[(0xA000, 512)]).hit_bytes, 0);
    }

    #[test]
    fn writes_invalidate_other_cores() {
        let mut model = LocalityModel::new(3, 4096);
        model.record_reads(1, &[(0xB000, 256)]);
        assert_eq!(model.probe(1, &[(0xB000, 256)]).hit_bytes, 256);
        model.record_writes(2, &[(0xB000, 256)]);
        assert_eq!(model.probe(1, &[(0xB000, 256)]).hit_bytes, 0);
        assert_eq!(model.probe(2, &[(0xB000, 256)]).hit_bytes, 256);
    }

    #[test]
    fn lru_evicts_oldest_when_capacity_exceeded() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x2, 400)]);
        model.record_reads(0, &[(0x3, 400)]); // evicts 0x1
        assert_eq!(model.probe(0, &[(0x1, 400)]).hit_bytes, 0);
        assert_eq!(model.probe(0, &[(0x2, 400)]).hit_bytes, 400);
        assert_eq!(model.probe(0, &[(0x3, 400)]).hit_bytes, 400);
        assert!(model.resident_bytes(0) <= 1000);
    }

    #[test]
    fn touching_resident_block_refreshes_lru_position() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x2, 400)]);
        // Touch 0x1 again so 0x2 becomes the LRU victim.
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x3, 400)]);
        assert_eq!(model.probe(0, &[(0x1, 400)]).hit_bytes, 400);
        assert_eq!(model.probe(0, &[(0x2, 400)]).hit_bytes, 0);
    }

    #[test]
    fn oversized_block_is_kept_alone() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 5000)]);
        // The single oversized block stays resident (streaming model).
        assert_eq!(model.probe(0, &[(0x1, 5000)]).hit_bytes, 5000);
        // Adding another block evicts it because capacity is exceeded.
        model.record_reads(0, &[(0x2, 100)]);
        assert!(model.resident_bytes(0) <= 5000);
    }

    #[test]
    fn reset_clears_all_cores() {
        let mut model = LocalityModel::new(2, 1024);
        model.record_reads(0, &[(0x1, 100)]);
        model.record_reads(1, &[(0x2, 100)]);
        model.reset();
        assert_eq!(model.resident_bytes(0), 0);
        assert_eq!(model.resident_bytes(1), 0);
        assert_eq!(model.probe(0, &[(0x1, 100)]).hit_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = LocalityModel::new(0, 1024);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LocalityModel::new(1, 0);
    }

    #[test]
    fn double_counting_same_block_in_working_set() {
        // A task listing the same block twice (in + inout on same address)
        // counts it twice; this is fine because both the hit and miss sides
        // are consistent.
        let mut model = LocalityModel::new(1, 4096);
        model.record_reads(0, &[(0xC000, 128)]);
        let out = model.probe(0, &[(0xC000, 128), (0xC000, 128)]);
        assert_eq!(out.hit_bytes, 256);
    }

    /// A LOCALITY payload with the given capacity and per-core MRU lists.
    pub(super) fn payload(capacity: u64, lists: &[Vec<(u64, u64)>]) -> Vec<u8> {
        use crate::snapshot::Persist;
        let mut out = Vec::new();
        capacity.save(&mut out);
        lists.to_vec().save(&mut out);
        out
    }

    fn load(bytes: &[u8]) -> Result<LocalityModel, crate::snapshot::SnapshotError> {
        crate::snapshot::from_payload(bytes, "LOCALITY")
    }

    #[test]
    fn decoder_refuses_a_core_count_the_payload_cannot_hold() {
        // Capacity 1 and 2^40 cores, with no core lists behind them.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            load(&bytes),
            Err(crate::snapshot::SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn decoder_refuses_a_block_listed_twice_on_one_core() {
        let bytes = payload(
            1000,
            &[vec![], vec![(0x1000, 100), (0x2000, 100), (0x1000, 100)]],
        );
        let err = load(&bytes).expect_err("duplicate block must be refused");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn decoder_refuses_a_multi_block_list_over_capacity() {
        // One oversized block alone is a reachable state; two over capacity
        // are not, nor is a byte total that overflows.
        assert!(load(&payload(1000, &[vec![(0x1000, 5000)]])).is_ok());
        for list in [
            vec![(0x1000, 600), (0x2000, 600)],
            vec![(0x1000, u64::MAX), (0x2000, 1)],
        ] {
            let err = load(&payload(1000, &[list])).expect_err("over-capacity list");
            assert!(err.to_string().contains("capacity"), "{err}");
        }
    }
}

/// Randomized lockstep equivalence of the slab LRU against a mirror of the
/// pre-slab model: per core, a plain MRU-first `Vec` of (block, size).
///
/// CI runs this module by name:
/// `cargo test --release -p tdm-sim locality_lockstep`.
#[cfg(test)]
mod locality_lockstep {
    use super::tests::payload;
    use super::*;
    use crate::rng::SplitMix64;
    use crate::snapshot::{from_payload, to_payload};

    const CORES: usize = 32;
    const CAPACITY: u64 = 1000;

    /// The pre-slab `touch`: move to (or insert at) the MRU end, then evict
    /// from the LRU end while over capacity, keeping a lone oversized block.
    fn mirror_touch(list: &mut Vec<(u64, u64)>, addr: u64, size: u64) {
        list.retain(|&(a, _)| a != addr);
        list.insert(0, (addr, size));
        let mut bytes: u64 = list.iter().map(|&(_, s)| s).sum();
        while bytes > CAPACITY && list.len() > 1 {
            let (_, evicted) = list.pop().expect("len checked");
            bytes -= evicted;
        }
    }

    #[test]
    fn slab_lru_matches_an_mru_mirror_in_randomized_lockstep() {
        let mut rng = SplitMix64::new(0xCAFE);
        let mut model = LocalityModel::new(CORES, CAPACITY);
        let mut mirror: Vec<Vec<(u64, u64)>> = vec![Vec::new(); CORES];
        // Block-aligned addresses, as dependence blocks are; sizes include
        // blocks larger than the whole capacity.
        let block = |rng: &mut SplitMix64| 0x4000_0000 + (rng.next_u64() % 48) * 0x1000;
        let size =
            |rng: &mut SplitMix64| [0, 100, 250, 400, 550, 1200][(rng.next_u64() % 6) as usize];
        for step in 0..20_000 {
            let core = (rng.next_u64() % CORES as u64) as usize;
            // One to three blocks, so a working set may repeat a block (an
            // in and an inout on one address) with different sizes.
            let set: Vec<(u64, u64)> = (0..1 + rng.next_u64() % 3)
                .map(|_| (block(&mut rng), size(&mut rng)))
                .collect();
            let probe = model.probe(core, &set);
            let (mut hit, mut miss) = (0, 0);
            for &(a, s) in &set {
                if mirror[core].iter().any(|&(b, _)| b == a) {
                    hit += s;
                } else {
                    miss += s;
                }
            }
            assert_eq!(
                (probe.hit_bytes, probe.miss_bytes),
                (hit, miss),
                "step {step}"
            );
            match rng.next_u64() % 16 {
                0 => {
                    model.reset();
                    mirror.iter_mut().for_each(Vec::clear);
                }
                1 => {
                    // Round trip mid-sequence; the run continues on the copy.
                    model = from_payload(&to_payload(&model), "LOCALITY").expect("round trip");
                }
                2..=8 => {
                    model.record_reads(core, &set);
                    for &(a, s) in &set {
                        mirror_touch(&mut mirror[core], a, s);
                    }
                }
                _ => {
                    model.record_writes(core, &set);
                    for &(a, s) in &set {
                        for (i, m) in mirror.iter_mut().enumerate() {
                            if i != core {
                                m.retain(|&(b, _)| b != a);
                            }
                        }
                        mirror_touch(&mut mirror[core], a, s);
                    }
                }
            }
            // The bytes pin each core's full MRU order, which decides every
            // later eviction; probes alone would not.
            assert_eq!(
                to_payload(&model),
                payload(CAPACITY, &mirror),
                "step {step}"
            );
            for (i, m) in mirror.iter().enumerate() {
                let bytes: u64 = m.iter().map(|&(_, s)| s).sum();
                assert_eq!(model.resident_bytes(i), bytes, "step {step} core {i}");
            }
        }
    }
}
