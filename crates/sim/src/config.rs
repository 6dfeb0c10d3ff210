//! Configuration of the simulated chip (Table I of the paper).
//!
//! The TDM paper simulates a 32-core out-of-order ARM chip at 2.0 GHz with
//! private 32 KB L1 caches, a shared 4 MB L2 and the DMU attached to the
//! network-on-chip. [`ChipConfig`] captures the parameters that matter at the
//! granularity this reproduction simulates: core count, frequency, cache
//! geometry and latencies, and NoC latency. Core micro-architecture details
//! (issue width, ROB size, ...) are kept in [`CoreConfig`] for completeness
//! and for the `table01_config` harness, even though the phase-level timing
//! model does not consume them directly.

use serde::{Deserialize, Serialize};

use crate::clock::{Cycle, Frequency};

/// Out-of-order core parameters from Table I.
///
/// These values document the simulated core. The phase-level timing model
/// does not replay individual instructions, so they are informational, but
/// the runtime cost model is calibrated against a core of this class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions fetched / issued / committed per cycle.
    pub issue_width: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Unified issue queue entries.
    pub issue_queue_entries: u32,
    /// Integer physical registers.
    pub int_registers: u32,
    /// Floating-point physical registers.
    pub fp_registers: u32,
    /// Load/store units.
    pub ld_st_units: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            issue_width: 4,
            rob_entries: 128,
            issue_queue_entries: 64,
            int_registers: 256,
            fp_registers: 256,
            ld_st_units: 2,
        }
    }
}

/// Cache and memory hierarchy parameters from Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Private L1 data cache size in bytes (32 KB in the paper).
    pub l1_size_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: Cycle,
    /// Shared L2 size in bytes (4 MB in the paper).
    pub l2_size_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_size_bytes: 32 * 1024,
            l1_ways: 2,
            l1_hit_latency: Cycle::new(2),
            l2_size_bytes: 4 * 1024 * 1024,
            l2_ways: 16,
        }
    }
}

/// Full configuration of the simulated chip (Table I).
///
/// # Example
///
/// ```
/// use tdm_sim::config::ChipConfig;
///
/// let chip = ChipConfig::default();
/// assert_eq!(chip.num_cores, 32);
/// assert_eq!(chip.frequency.as_ghz(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Number of cores on the chip (32 in the paper's evaluation).
    pub num_cores: usize,
    /// Chip clock frequency (2.0 GHz).
    pub frequency: Frequency,
    /// Core micro-architecture parameters.
    pub core: CoreConfig,
    /// Cache hierarchy parameters.
    pub memory: MemoryConfig,
    /// One-way latency of a core ↔ DMU message over the NoC, in cycles.
    ///
    /// The DMU is a centralized module connected to the NoC (Figure 3); each
    /// TDM ISA instruction pays a round trip on top of the DMU processing
    /// time.
    pub noc_hop_latency: Cycle,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            num_cores: 32,
            frequency: Frequency::default(),
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            noc_hop_latency: Cycle::new(2),
        }
    }
}

impl ChipConfig {
    /// Configuration identical to the default but with a different core
    /// count. Used by the `extra_33core` harness (Section VI-C) and by
    /// scalability studies.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn with_cores(num_cores: usize) -> Self {
        assert!(num_cores > 0, "a chip needs at least one core");
        ChipConfig {
            num_cores,
            ..Self::default()
        }
    }

    /// Convenience: convert microseconds to cycles at this chip's frequency.
    pub fn micros(&self, micros: f64) -> Cycle {
        self.frequency.cycles_from_micros(micros)
    }

    /// Convenience: convert nanoseconds to cycles at this chip's frequency.
    pub fn nanos(&self, nanos: f64) -> Cycle {
        self.frequency.cycles_from_nanos(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_one() {
        let chip = ChipConfig::default();
        assert_eq!(chip.num_cores, 32);
        assert!((chip.frequency.as_ghz() - 2.0).abs() < 1e-12);
        assert_eq!(chip.core.issue_width, 4);
        assert_eq!(chip.core.rob_entries, 128);
        assert_eq!(chip.memory.l1_size_bytes, 32 * 1024);
        assert_eq!(chip.memory.l1_ways, 2);
        assert_eq!(chip.memory.l1_hit_latency, Cycle::new(2));
        assert_eq!(chip.memory.l2_size_bytes, 4 * 1024 * 1024);
        assert_eq!(chip.memory.l2_ways, 16);
    }

    #[test]
    fn with_cores_overrides_only_core_count() {
        let chip = ChipConfig::with_cores(33);
        assert_eq!(chip.num_cores, 33);
        assert_eq!(chip.memory, MemoryConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn with_zero_cores_panics() {
        let _ = ChipConfig::with_cores(0);
    }

    #[test]
    fn micros_helper_uses_chip_frequency() {
        let chip = ChipConfig::default();
        assert_eq!(chip.micros(1.0), Cycle::new(2000));
        assert_eq!(chip.nanos(500.0), Cycle::new(1000));
    }

    #[test]
    fn config_debug_is_nonempty() {
        let chip = ChipConfig::default();
        let debug = format!("{chip:?}");
        assert!(debug.contains("num_cores: 32"));
    }
}
