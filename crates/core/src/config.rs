//! Configuration of the DMU hardware structures.
//!
//! Table I of the paper fixes the structure sizes used throughout the
//! evaluation (2048-entry TAT/DAT/Task Table/Dependence Table, 1024-entry
//! list arrays with 8 elements per entry, 1-cycle access time). Section V
//! sweeps these parameters; the same sweeps are reproduced by the
//! `fig07_tat_dat`, `fig08_list_arrays` and `fig09_latency` harnesses, which
//! simply construct different [`DmuConfig`] values.

use serde::{Deserialize, Serialize};
use tdm_sim::clock::Cycle;

/// How the DAT chooses which address bits form the set index
/// (Section III-B1 and Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexPolicy {
    /// The set index starts at a fixed bit position of the dependence
    /// address. Low positions collide badly when tasks access consecutive
    /// blocks of the same array (the low `log2(block size)` bits are equal).
    Static {
        /// Bit position at which the index field starts.
        low_bit: u32,
    },
    /// The set index starts at bit `log2(dependence size)`: the DMU uses the
    /// size provided by the runtime in `add_dependence` to skip exactly the
    /// bits that are constant across blocks of the same array. This is the
    /// paper's proposal.
    #[default]
    Dynamic,
}

/// Geometry and timing of every DMU hardware structure.
///
/// # Example
///
/// ```
/// use tdm_core::config::DmuConfig;
///
/// let dmu = DmuConfig::default();
/// assert_eq!(dmu.tat_entries, 2048);
/// assert_eq!(dmu.successor_la_entries, 1024);
/// assert_eq!(dmu.elems_per_list_entry, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmuConfig {
    /// Entries in the Task Alias Table (task descriptor address → task ID).
    pub tat_entries: usize,
    /// TAT associativity (ways per set).
    pub tat_ways: usize,
    /// Entries in the Dependence Alias Table (dependence address → dep ID).
    pub dat_entries: usize,
    /// DAT associativity (ways per set).
    pub dat_ways: usize,
    /// Entries in the Successor List Array.
    pub successor_la_entries: usize,
    /// Entries in the Dependence List Array.
    pub dependence_la_entries: usize,
    /// Entries in the Reader List Array.
    pub reader_la_entries: usize,
    /// Elements stored per list-array entry (8 in the paper).
    pub elems_per_list_entry: usize,
    /// Access latency of every DMU structure (1 cycle in the selected
    /// design; Figure 9 sweeps 1/4/16).
    pub access_latency: Cycle,
    /// DAT index-bit selection policy.
    pub index_policy: IndexPolicy,
}

impl Default for DmuConfig {
    /// The configuration selected by the design-space exploration
    /// (Section V-C): 2048-entry TAT/DAT, 1024-entry list arrays, 1-cycle
    /// accesses, dynamic index-bit selection.
    fn default() -> Self {
        DmuConfig {
            tat_entries: 2048,
            tat_ways: 8,
            dat_entries: 2048,
            dat_ways: 8,
            successor_la_entries: 1024,
            dependence_la_entries: 1024,
            reader_la_entries: 1024,
            elems_per_list_entry: 8,
            access_latency: Cycle::new(1),
            index_policy: IndexPolicy::Dynamic,
        }
    }
}

impl DmuConfig {
    /// The most entries any one structure may have: the size of every
    /// structure of [`DmuConfig::ideal`]. [`DmuConfig::validate`] refuses
    /// more, so a geometry decoded from a snapshot cannot demand an
    /// allocation far beyond any the model uses.
    pub const MAX_ENTRIES: usize = 1 << 20;

    /// The most elements a list-array entry may hold (the paper's design
    /// holds 8).
    pub const MAX_ELEMS_PER_LIST_ENTRY: usize = 64;

    /// The Task Table has one entry per TAT entry (the TAT size determines
    /// the number of in-flight tasks, Section V-A).
    pub fn task_table_entries(&self) -> usize {
        self.tat_entries
    }

    /// The Dependence Table has one entry per DAT entry.
    pub fn dependence_table_entries(&self) -> usize {
        self.dat_entries
    }

    /// The Ready Queue holds one task ID per Task Table entry: a task enters
    /// it once and only while in flight, so it can never hold more.
    pub fn ready_queue_entries(&self) -> usize {
        self.task_table_entries()
    }

    /// An effectively unbounded configuration used as the "ideal DMU with
    /// unlimited entries and equal latency" baseline of Figures 7–9.
    pub fn ideal() -> Self {
        DmuConfig {
            tat_entries: 1 << 20,
            tat_ways: 16,
            dat_entries: 1 << 20,
            dat_ways: 16,
            successor_la_entries: 1 << 20,
            dependence_la_entries: 1 << 20,
            reader_la_entries: 1 << 20,
            elems_per_list_entry: 8,
            access_latency: Cycle::new(1),
            index_policy: IndexPolicy::Dynamic,
        }
    }

    /// Returns a copy with different TAT/DAT sizes (Figure 7 sweep).
    pub fn with_alias_sizes(&self, tat_entries: usize, dat_entries: usize) -> Self {
        DmuConfig {
            tat_entries,
            dat_entries,
            ..self.clone()
        }
    }

    /// Returns a copy with different list-array sizes (Figure 8 sweep).
    pub fn with_list_array_sizes(
        &self,
        successor: usize,
        dependence: usize,
        reader: usize,
    ) -> Self {
        DmuConfig {
            successor_la_entries: successor,
            dependence_la_entries: dependence,
            reader_la_entries: reader,
            ..self.clone()
        }
    }

    /// Returns a copy with a different structure access latency (Figure 9
    /// sweep).
    pub fn with_access_latency(&self, latency: Cycle) -> Self {
        DmuConfig {
            access_latency: latency,
            ..self.clone()
        }
    }

    /// Returns a copy with a different DAT index-bit-selection policy
    /// (Figure 11 sweep).
    pub fn with_index_policy(&self, policy: IndexPolicy) -> Self {
        DmuConfig {
            index_policy: policy,
            ..self.clone()
        }
    }

    /// Number of bits needed to name a task ID with this geometry.
    pub fn task_id_bits(&self) -> u32 {
        (self.task_table_entries() as u64)
            .next_power_of_two()
            .trailing_zeros()
            .max(1)
    }

    /// Number of bits needed to name a dependence ID with this geometry.
    pub fn dep_id_bits(&self) -> u32 {
        (self.dependence_table_entries() as u64)
            .next_power_of_two()
            .trailing_zeros()
            .max(1)
    }

    /// Number of bits needed to name a list-array entry.
    pub fn list_ptr_bits(&self, entries: usize) -> u32 {
        (entries as u64).next_power_of_two().trailing_zeros().max(1)
    }

    /// Validates internal consistency: non-zero sizes, no structure above
    /// [`DmuConfig::MAX_ENTRIES`] entries, at most
    /// [`DmuConfig::MAX_ELEMS_PER_LIST_ENTRY`] elements per list-array entry,
    /// and each alias table's ways dividing its entries into a power-of-two
    /// number of sets. Returns a human-readable description of the first
    /// problem found, if any.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("tat_entries", self.tat_entries),
            ("tat_ways", self.tat_ways),
            ("dat_entries", self.dat_entries),
            ("dat_ways", self.dat_ways),
            ("successor_la_entries", self.successor_la_entries),
            ("dependence_la_entries", self.dependence_la_entries),
            ("reader_la_entries", self.reader_la_entries),
            ("elems_per_list_entry", self.elems_per_list_entry),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(format!("{name} must be non-zero"));
            }
        }
        // Ways divide their entries (below), so they are bounded too.
        let entries = [
            ("tat_entries", self.tat_entries),
            ("dat_entries", self.dat_entries),
            ("successor_la_entries", self.successor_la_entries),
            ("dependence_la_entries", self.dependence_la_entries),
            ("reader_la_entries", self.reader_la_entries),
        ];
        for (name, value) in entries {
            if value > Self::MAX_ENTRIES {
                return Err(format!(
                    "{name} ({value}) must be at most {}",
                    Self::MAX_ENTRIES
                ));
            }
        }
        if self.elems_per_list_entry > Self::MAX_ELEMS_PER_LIST_ENTRY {
            return Err(format!(
                "elems_per_list_entry ({}) must be at most {}",
                self.elems_per_list_entry,
                Self::MAX_ELEMS_PER_LIST_ENTRY
            ));
        }
        let alias_tables = [
            ("tat", self.tat_entries, self.tat_ways),
            ("dat", self.dat_entries, self.dat_ways),
        ];
        for (table, entries, ways) in alias_tables {
            if !entries.is_multiple_of(ways) {
                return Err(format!(
                    "{table}_entries ({entries}) must be a multiple of {table}_ways ({ways})"
                ));
            }
            if !(entries / ways).is_power_of_two() {
                return Err(format!(
                    "{table}_entries / {table}_ways ({entries} / {ways}) must be a power of \
                     two: the set index is a bit field of the address"
                ));
            }
        }
        Ok(())
    }
}

// Snapshot support: the geometry is persisted alongside the DMU state so a
// resumed run can verify it is rebuilding against the same hardware shape.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for IndexPolicy {
    fn save(&self, out: &mut Vec<u8>) {
        match self {
            IndexPolicy::Static { low_bit } => {
                0u8.save(out);
                low_bit.save(out);
            }
            IndexPolicy::Dynamic => 1u8.save(out),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(IndexPolicy::Static {
                low_bit: u32::load(r)?,
            }),
            1 => Ok(IndexPolicy::Dynamic),
            other => Err(SnapshotError::Corrupt {
                context: format!("index-policy tag {other} (expected 0 or 1)"),
            }),
        }
    }
}

impl Persist for DmuConfig {
    fn save(&self, out: &mut Vec<u8>) {
        self.tat_entries.save(out);
        self.tat_ways.save(out);
        self.dat_entries.save(out);
        self.dat_ways.save(out);
        self.successor_la_entries.save(out);
        self.dependence_la_entries.save(out);
        self.reader_la_entries.save(out);
        self.elems_per_list_entry.save(out);
        self.access_latency.save(out);
        self.index_policy.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let config = DmuConfig {
            tat_entries: usize::load(r)?,
            tat_ways: usize::load(r)?,
            dat_entries: usize::load(r)?,
            dat_ways: usize::load(r)?,
            successor_la_entries: usize::load(r)?,
            dependence_la_entries: usize::load(r)?,
            reader_la_entries: usize::load(r)?,
            elems_per_list_entry: usize::load(r)?,
            access_latency: Cycle::load(r)?,
            index_policy: IndexPolicy::load(r)?,
        };
        config.validate().map_err(|msg| SnapshotError::Corrupt {
            context: format!("DMU geometry in snapshot is invalid: {msg}"),
        })?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_selected_design() {
        let c = DmuConfig::default();
        assert_eq!(c.tat_entries, 2048);
        assert_eq!(c.tat_ways, 8);
        assert_eq!(c.dat_entries, 2048);
        assert_eq!(c.dat_ways, 8);
        assert_eq!(c.successor_la_entries, 1024);
        assert_eq!(c.dependence_la_entries, 1024);
        assert_eq!(c.reader_la_entries, 1024);
        assert_eq!(c.elems_per_list_entry, 8);
        assert_eq!(c.access_latency, Cycle::new(1));
        assert_eq!(c.index_policy, IndexPolicy::Dynamic);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn table_sizes_follow_alias_table_sizes() {
        let c = DmuConfig::default().with_alias_sizes(512, 1024);
        assert_eq!(c.task_table_entries(), 512);
        assert_eq!(c.dependence_table_entries(), 1024);
        assert_eq!(c.ready_queue_entries(), 512);
    }

    #[test]
    fn id_bit_widths_match_paper() {
        let c = DmuConfig::default();
        assert_eq!(c.task_id_bits(), 11);
        assert_eq!(c.dep_id_bits(), 11);
        assert_eq!(c.list_ptr_bits(c.successor_la_entries), 10);
    }

    #[test]
    fn sweep_constructors_change_only_their_fields() {
        let base = DmuConfig::default();
        let swept = base.with_list_array_sizes(128, 512, 2048);
        assert_eq!(swept.successor_la_entries, 128);
        assert_eq!(swept.dependence_la_entries, 512);
        assert_eq!(swept.reader_la_entries, 2048);
        assert_eq!(swept.tat_entries, base.tat_entries);

        let lat = base.with_access_latency(Cycle::new(16));
        assert_eq!(lat.access_latency, Cycle::new(16));
        assert_eq!(lat.dat_entries, base.dat_entries);

        let idx = base.with_index_policy(IndexPolicy::Static { low_bit: 4 });
        assert_eq!(idx.index_policy, IndexPolicy::Static { low_bit: 4 });
    }

    #[test]
    fn ideal_config_is_huge_and_valid() {
        let c = DmuConfig::ideal();
        assert!(c.tat_entries >= 1 << 20);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_sizes() {
        let c = DmuConfig {
            tat_entries: 0,
            ..DmuConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_divisible_associativity() {
        let c = DmuConfig {
            tat_entries: 100,
            tat_ways: 8,
            ..DmuConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("multiple"));
    }

    #[test]
    fn validate_rejects_non_power_of_two_set_counts() {
        let c = DmuConfig {
            dat_entries: 96,
            dat_ways: 8,
            ..DmuConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("power of two"));
    }

    /// A flipped high bit of `tat_entries` must not reach an allocation:
    /// `validate` refuses it, and so does decoding it. Neither builds a
    /// table.
    #[test]
    fn validate_and_load_refuse_geometries_above_the_cap() {
        let huge = DmuConfig {
            tat_entries: 1 << 40,
            ..DmuConfig::default()
        };
        assert!(huge.validate().unwrap_err().contains("at most"));
        let mut bytes = Vec::new();
        huge.save(&mut bytes);
        let err = DmuConfig::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("tat_entries"), "{err}");

        let wide = DmuConfig {
            elems_per_list_entry: DmuConfig::MAX_ELEMS_PER_LIST_ENTRY + 1,
            ..DmuConfig::default()
        };
        assert!(wide.validate().is_err());
        let at_cap = DmuConfig {
            elems_per_list_entry: DmuConfig::MAX_ELEMS_PER_LIST_ENTRY,
            ..DmuConfig::ideal()
        };
        assert!(at_cap.validate().is_ok());
    }

    #[test]
    fn default_index_policy_is_dynamic() {
        assert_eq!(IndexPolicy::default(), IndexPolicy::Dynamic);
    }
}
