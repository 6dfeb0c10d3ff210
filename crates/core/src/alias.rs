//! Task and Dependence Alias Tables (TAT / DAT).
//!
//! The alias tables rename 64-bit runtime addresses (task descriptor
//! addresses and dependence addresses) into small internal IDs (Section
//! III-B1, Figure 4). Each table is a set-associative directory plus a queue
//! of free IDs: the set is chosen from the address bits, a free way in that
//! set holds the (address → ID) mapping, and the ID indexes the direct-mapped
//! Task or Dependence Table.
//!
//! Two kinds of allocation failure exist and both stall the TDM instruction
//! until in-flight tasks finish:
//!
//! * **conflict** — the selected set has no free way even though other sets
//!   do (the problem the dynamic index-bit selection of Section III-B1 and
//!   Figure 11 addresses), and
//! * **exhaustion** — every entry of the table is in use.
//!
//! The table also records occupancy samples so the `fig11_dat_occupancy`
//! harness can reproduce the occupied-set statistics of Figure 11.

use serde::{Deserialize, Serialize};

use crate::config::IndexPolicy;

/// Why an alias-table allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AliasError {
    /// The set selected by the address's index bits has no free way.
    SetConflict,
    /// The whole table is full (no free IDs).
    Exhausted,
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AliasError::SetConflict => write!(f, "alias table set conflict"),
            AliasError::Exhausted => write!(f, "alias table exhausted"),
        }
    }
}

impl std::error::Error for AliasError {}

/// Occupancy statistics gathered by an alias table.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AliasOccupancy {
    /// Sum of "number of occupied sets" over all samples.
    occupied_set_samples_sum: u64,
    /// Number of samples taken.
    samples: u64,
    /// Peak number of simultaneously valid entries.
    pub peak_entries: usize,
    /// Number of allocations that failed with a set conflict.
    pub set_conflicts: u64,
    /// Number of allocations that failed because the table was exhausted.
    pub exhaustions: u64,
}

impl AliasOccupancy {
    /// Average number of occupied sets over all samples (0 if no samples).
    pub fn average_occupied_sets(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupied_set_samples_sum as f64 / self.samples as f64
        }
    }
}

/// A set-associative alias table mapping 64-bit addresses to internal IDs.
///
/// Storage is struct-of-arrays: the `(addr, id)` ways of all sets live in two
/// parallel columns (`addrs` is the key column, `ids` the metadata column),
/// with set `s` owning the fixed-width row `[s * ways, s * ways + set_lens[s])`.
/// A probe is therefore a cache-linear tag scan over a contiguous `u64` run —
/// a shape LLVM can autovectorize — instead of walking a per-set `Vec` of
/// way structs; the scalar fallback is the same loop. Lookup/insert/remove
/// semantics (free-ID order, swap-remove eviction, occupancy sampling) are
/// unchanged from the node layout.
///
/// # Example
///
/// ```
/// use tdm_core::alias::AliasTable;
/// use tdm_core::config::IndexPolicy;
///
/// let mut tat = AliasTable::new(16, 4, IndexPolicy::Static { low_bit: 6 });
/// let id = tat.insert(0x1000, 64).unwrap();
/// assert_eq!(tat.lookup(0x1000, 64), Some(id));
/// assert_eq!(tat.remove(0x1000, 64), Some(id));
/// assert_eq!(tat.lookup(0x1000, 64), None);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AliasTable {
    /// Key column: the address of each valid way, `num_sets * ways` slots.
    addrs: Vec<u64>,
    /// Metadata column parallel to `addrs`: the internal ID of each way.
    ids: Vec<u32>,
    /// Number of valid ways in each set.
    set_lens: Vec<u32>,
    ways: usize,
    free_ids: Vec<u32>,
    policy: IndexPolicy,
    occupancy: AliasOccupancy,
    valid_entries: usize,
    /// Incrementally maintained count of sets with at least one valid way;
    /// replaces the O(num_sets) scan the occupancy sampling used to do on
    /// every insert.
    occupied: usize,
}

impl AliasTable {
    /// Creates an alias table with `entries` total entries organised as
    /// `entries / ways` sets of `ways` ways, using `policy` to select index
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, if `ways` does not divide
    /// `entries`, or if the set count is not a power of two (the set index
    /// is a bit field of the address).
    pub fn new(entries: usize, ways: usize, policy: IndexPolicy) -> Self {
        assert!(entries > 0, "alias table needs at least one entry");
        assert!(ways > 0, "alias table needs at least one way");
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must be a multiple of ways ({ways})"
        );
        let num_sets = entries / ways;
        assert!(
            num_sets.is_power_of_two(),
            "the set count ({num_sets}) must be a power of two"
        );
        AliasTable {
            addrs: vec![0; entries],
            ids: vec![0; entries],
            set_lens: vec![0; num_sets],
            ways,
            free_ids: (0..entries as u32).rev().collect(),
            policy,
            occupancy: AliasOccupancy::default(),
            valid_entries: 0,
            occupied: 0,
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.set_lens.len() * self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.set_lens.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.valid_entries
    }

    /// True if the table holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.valid_entries == 0
    }

    /// Number of sets that currently hold at least one valid entry.
    pub fn occupied_sets(&self) -> usize {
        debug_assert_eq!(
            self.occupied,
            self.set_lens.iter().filter(|&&l| l > 0).count(),
            "incremental occupied-set counter out of sync with a full scan"
        );
        self.occupied
    }

    /// Occupancy statistics collected so far.
    pub fn occupancy(&self) -> AliasOccupancy {
        self.occupancy
    }

    /// The index-bit-selection policy in use.
    pub fn policy(&self) -> IndexPolicy {
        self.policy
    }

    /// Computes the set index for an address. `size` is the size in bytes of
    /// the object starting at `addr`; under [`IndexPolicy::Dynamic`] the
    /// index field starts at bit `log2(size)` so that consecutive blocks of
    /// the same array map to different sets (Section III-B1). The set count
    /// is a power of two, so the index is the `log2(sets)` bits from there
    /// on, taken with a mask.
    pub fn set_index(&self, addr: u64, size: u64) -> usize {
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
        let shifted = addr >> shift.min(63);
        (shifted as usize) & (self.set_lens.len() - 1)
    }

    /// Looks up the ID bound to `addr`, if any.
    pub fn lookup(&self, addr: u64, size: u64) -> Option<u32> {
        let set = self.set_index(addr, size);
        let base = set * self.ways;
        let len = self.set_lens[set] as usize;
        // Tag scan over the contiguous key column of the set's row.
        self.addrs[base..base + len]
            .iter()
            .position(|&a| a == addr)
            .map(|pos| self.ids[base + pos])
    }

    /// Inserts a new mapping for `addr`, returning the freshly allocated ID.
    ///
    /// # Errors
    ///
    /// * [`AliasError::SetConflict`] if the selected set has no free way.
    /// * [`AliasError::Exhausted`] if no free ID exists.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is already present; the DMU always
    /// checks with [`AliasTable::lookup`] first.
    pub fn insert(&mut self, addr: u64, size: u64) -> Result<u32, AliasError> {
        let set = self.set_index(addr, size);
        let base = set * self.ways;
        let len = self.set_lens[set] as usize;
        debug_assert!(
            !self.addrs[base..base + len].contains(&addr),
            "address {addr:#x} inserted twice"
        );
        if len >= self.ways {
            self.occupancy.set_conflicts += 1;
            return Err(AliasError::SetConflict);
        }
        let Some(id) = self.free_ids.pop() else {
            self.occupancy.exhaustions += 1;
            return Err(AliasError::Exhausted);
        };
        self.addrs[base + len] = addr;
        self.ids[base + len] = id;
        self.set_lens[set] += 1;
        if len == 0 {
            self.occupied += 1;
        }
        self.valid_entries += 1;
        self.occupancy.peak_entries = self.occupancy.peak_entries.max(self.valid_entries);
        self.occupancy.samples += 1;
        self.occupancy.occupied_set_samples_sum += self.occupied as u64;
        Ok(id)
    }

    /// Removes the mapping for `addr`, returning its ID to the free queue.
    ///
    /// Returns `None` if `addr` was not present.
    pub fn remove(&mut self, addr: u64, size: u64) -> Option<u32> {
        let set = self.set_index(addr, size);
        let base = set * self.ways;
        let len = self.set_lens[set] as usize;
        let pos = self.addrs[base..base + len]
            .iter()
            .position(|&a| a == addr)?;
        let id = self.ids[base + pos];
        // Swap-remove within the set's row, same eviction order as before.
        self.addrs[base + pos] = self.addrs[base + len - 1];
        self.ids[base + pos] = self.ids[base + len - 1];
        self.set_lens[set] -= 1;
        if len == 1 {
            self.occupied -= 1;
        }
        self.free_ids.push(id);
        self.valid_entries -= 1;
        Some(id)
    }
}

// Snapshot support. Everything is persisted verbatim — including the free-ID
// queue *in order*, because IDs are popped from its back and a resumed run
// must hand out the same IDs the straight-through run would have.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for AliasOccupancy {
    fn save(&self, out: &mut Vec<u8>) {
        self.occupied_set_samples_sum.save(out);
        self.samples.save(out);
        self.peak_entries.save(out);
        self.set_conflicts.save(out);
        self.exhaustions.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(AliasOccupancy {
            occupied_set_samples_sum: u64::load(r)?,
            samples: u64::load(r)?,
            peak_entries: usize::load(r)?,
            set_conflicts: u64::load(r)?,
            exhaustions: u64::load(r)?,
        })
    }
}

impl Persist for AliasTable {
    fn save(&self, out: &mut Vec<u8>) {
        self.addrs.save(out);
        self.ids.save(out);
        self.set_lens.save(out);
        self.ways.save(out);
        self.free_ids.save(out);
        self.policy.save(out);
        self.occupancy.save(out);
        self.valid_entries.save(out);
        self.occupied.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let table = AliasTable {
            addrs: Vec::load(r)?,
            ids: Vec::load(r)?,
            set_lens: Vec::load(r)?,
            ways: usize::load(r)?,
            free_ids: Vec::load(r)?,
            policy: crate::config::IndexPolicy::load(r)?,
            occupancy: AliasOccupancy::load(r)?,
            valid_entries: usize::load(r)?,
            occupied: usize::load(r)?,
        };
        let entries = table.addrs.len();
        if table.ways == 0
            || table.ids.len() != entries
            || !table.set_lens.len().is_power_of_two()
            || table.set_lens.len().checked_mul(table.ways) != Some(entries)
            || table.free_ids.len() != entries - table.valid_entries
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "alias table geometry is inconsistent ({} addrs, {} ids, {} sets × {} \
                     ways, {} free of {} valid)",
                    entries,
                    table.ids.len(),
                    table.set_lens.len(),
                    table.ways,
                    table.free_ids.len(),
                    table.valid_entries
                ),
            });
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize, ways: usize) -> AliasTable {
        AliasTable::new(entries, ways, IndexPolicy::Static { low_bit: 0 })
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = table(16, 4);
        let id = t.insert(0xABC0, 64).unwrap();
        assert_eq!(t.lookup(0xABC0, 64), Some(id));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(0xABC0, 64), Some(id));
        assert_eq!(t.lookup(0xABC0, 64), None);
        assert!(t.is_empty());
    }

    #[test]
    fn ids_are_unique_while_live() {
        let mut t = table(64, 8);
        let mut ids = Vec::new();
        for i in 0..64u64 {
            ids.push(t.insert(i, 64).unwrap());
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn freed_ids_are_recycled() {
        let mut t = table(4, 4);
        let a = t.insert(0x10, 1).unwrap();
        t.remove(0x10, 1).unwrap();
        let b = t.insert(0x20, 1).unwrap();
        // The freed ID must be available again (not necessarily equal, but
        // the table must not run out).
        let _ = (a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn set_conflict_when_low_bits_collide() {
        // 4 sets, 2 ways, static indexing at bit 0: addresses that are equal
        // modulo 4 land in the same set.
        let mut t = AliasTable::new(8, 2, IndexPolicy::Static { low_bit: 0 });
        t.insert(0, 1).unwrap();
        t.insert(4, 1).unwrap();
        // Third address mapping to set 0 conflicts even though the table is
        // mostly empty.
        assert_eq!(t.insert(8, 1), Err(AliasError::SetConflict));
        assert_eq!(t.occupancy().set_conflicts, 1);
    }

    #[test]
    fn dynamic_policy_spreads_same_array_blocks() {
        // Blocks of 4 KB: with static bit-0 indexing every block of the same
        // array shares the low 12 bits and maps to set 0; with dynamic
        // indexing the index starts at bit 12 and blocks spread across sets.
        let blocks: Vec<u64> = (0..64).map(|i| 0x10_0000 + i * 4096).collect();

        let mut static_table = AliasTable::new(256, 8, IndexPolicy::Static { low_bit: 0 });
        let mut dynamic_table = AliasTable::new(256, 8, IndexPolicy::Dynamic);
        let mut static_conflicts = 0;
        for &b in &blocks {
            if static_table.insert(b, 4096).is_err() {
                static_conflicts += 1;
            }
            dynamic_table.insert(b, 4096).unwrap();
        }
        assert!(static_conflicts > 0, "static indexing should conflict");
        assert!(dynamic_table.occupied_sets() > static_table.occupied_sets());
    }

    #[test]
    fn exhaustion_reported_when_all_entries_used() {
        let mut t = AliasTable::new(4, 4, IndexPolicy::Static { low_bit: 0 });
        for i in 0..4u64 {
            t.insert(i, 1).unwrap();
        }
        // The set (there is only one set of 4 ways... actually 1 set) is full,
        // so this reports a conflict-or-exhaustion; either way it fails.
        assert!(t.insert(100, 1).is_err());
    }

    #[test]
    fn occupied_sets_counts_nonempty_sets() {
        let mut t = AliasTable::new(16, 2, IndexPolicy::Static { low_bit: 0 });
        assert_eq!(t.occupied_sets(), 0);
        t.insert(0, 1).unwrap(); // set 0
        t.insert(1, 1).unwrap(); // set 1
        t.insert(8, 1).unwrap(); // set 0 again
        assert_eq!(t.occupied_sets(), 2);
    }

    #[test]
    fn occupancy_average_tracks_samples() {
        let mut t = AliasTable::new(16, 2, IndexPolicy::Static { low_bit: 0 });
        t.insert(0, 1).unwrap();
        t.insert(1, 1).unwrap();
        let avg = t.occupancy().average_occupied_sets();
        // First sample saw 1 occupied set, second saw 2 → average 1.5.
        assert!((avg - 1.5).abs() < 1e-12);
    }

    #[test]
    fn set_index_respects_static_low_bit() {
        let t = AliasTable::new(16, 2, IndexPolicy::Static { low_bit: 4 });
        assert_eq!(t.set_index(0x00, 1), 0);
        assert_eq!(t.set_index(0x10, 1), 1);
        assert_eq!(t.set_index(0x80, 1), 0); // 8 sets, wraps
    }

    #[test]
    fn set_index_dynamic_uses_size() {
        let t = AliasTable::new(16, 2, IndexPolicy::Dynamic);
        // size 4096 -> shift 12.
        assert_eq!(t.set_index(4096, 4096), 1 % t.num_sets());
        assert_eq!(t.set_index(8192, 4096), 2 % t.num_sets());
        // size 1 -> shift 0.
        assert_eq!(t.set_index(5, 1), 5 % t.num_sets());
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn non_divisible_geometry_panics() {
        let _ = AliasTable::new(10, 4, IndexPolicy::Dynamic);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_panics() {
        let _ = AliasTable::new(12, 4, IndexPolicy::Dynamic);
    }

    /// The masked index agrees with the address bits modulo the set count,
    /// and a snapshot whose set count is not a power of two is refused.
    #[test]
    fn masked_index_is_the_modulo_and_load_refuses_other_set_counts() {
        let t = AliasTable::new(64, 4, IndexPolicy::Static { low_bit: 3 });
        for addr in (0..4096u64).map(|i| i * 0x9E37) {
            assert_eq!(t.set_index(addr, 1), ((addr >> 3) % 16) as usize);
        }
        let mut bytes = Vec::new();
        t.save(&mut bytes);
        assert!(AliasTable::load(&mut Reader::new(&bytes)).is_ok());
        // 12 sets of 4 ways: consistent columns, but 12 is no power of two.
        let mut hostile = t.clone();
        hostile.set_lens.truncate(12);
        hostile.addrs.truncate(48);
        hostile.ids.truncate(48);
        hostile.free_ids = (0..48).collect();
        let mut bytes = Vec::new();
        hostile.save(&mut bytes);
        let err = AliasTable::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
    }

    /// Section III-B1: with dynamic index-bit selection, consecutive 4 KB
    /// blocks of one array fill the table to its full capacity without a
    /// single conflict, while static low-bit indexing conflicts after `ways`
    /// insertions because every block shares its low 12 bits.
    #[test]
    fn dynamic_indexing_fills_table_to_capacity_on_block_pattern() {
        let entries = 2048;
        let ways = 8;
        let blocks: Vec<u64> = (0..entries as u64).map(|i| 0x10_0000 + i * 4096).collect();

        let mut dynamic = AliasTable::new(entries, ways, IndexPolicy::Dynamic);
        for &b in &blocks {
            dynamic.insert(b, 4096).unwrap();
        }
        assert_eq!(dynamic.len(), entries);
        assert_eq!(dynamic.occupancy().set_conflicts, 0);

        let mut static_tbl = AliasTable::new(entries, ways, IndexPolicy::Static { low_bit: 0 });
        for &b in &blocks[..ways] {
            static_tbl.insert(b, 4096).unwrap();
        }
        assert_eq!(
            static_tbl.insert(blocks[ways], 4096),
            Err(AliasError::SetConflict)
        );
    }

    /// Renaming churn: a window of live blocks slides across a large address
    /// range, so every insertion reuses an ID freed by an earlier removal.
    /// Live IDs must stay unique and within capacity throughout.
    #[test]
    fn renaming_recycles_ids_under_sliding_window_churn() {
        use std::collections::HashMap;
        let entries = 64;
        let mut t = AliasTable::new(entries, 8, IndexPolicy::Dynamic);
        let mut live: HashMap<u64, u32> = HashMap::new();
        let window = entries as u64; // table exactly full at steady state
        for i in 0..1000u64 {
            let addr = 0x40_0000 + i * 4096;
            if i >= window {
                let old = 0x40_0000 + (i - window) * 4096;
                let id = t.remove(old, 4096).expect("window entry must be present");
                assert_eq!(live.remove(&old), Some(id));
            }
            let id = t.insert(addr, 4096).expect("freed ID must be reusable");
            assert!((id as usize) < entries, "ID {id} out of range");
            assert!(
                !live.values().any(|&v| v == id),
                "ID {id} double-allocated at step {i}"
            );
            live.insert(addr, id);
        }
        assert_eq!(t.len(), entries);
        assert_eq!(t.occupancy().exhaustions, 0);
    }

    /// A conflicting insert stalls, but removing any entry of the victim set
    /// lets the retried insert succeed — the DMU's stall-and-retry protocol.
    #[test]
    fn conflict_resolves_after_eviction_from_victim_set() {
        let mut t = AliasTable::new(8, 2, IndexPolicy::Static { low_bit: 0 });
        // Set 0 (addresses ≡ 0 mod 4) fills up with two ways.
        t.insert(0, 1).unwrap();
        t.insert(4, 1).unwrap();
        assert_eq!(t.insert(8, 1), Err(AliasError::SetConflict));
        t.remove(4, 1).unwrap();
        let id = t.insert(8, 1).expect("eviction must clear the conflict");
        assert_eq!(t.lookup(8, 1), Some(id));
    }

    /// Dynamic index-bit selection rounds odd sizes up to the next power of
    /// two, so a 3000-byte dependence shifts by 12 bits like a 4096-byte one.
    #[test]
    fn dynamic_index_rounds_size_to_next_power_of_two() {
        let t = AliasTable::new(16, 2, IndexPolicy::Dynamic);
        assert_eq!(t.set_index(0x5000, 3000), t.set_index(0x5000, 4096));
        assert_ne!(t.set_index(0x5000, 4096), t.set_index(0x6000, 4096));
    }
}
