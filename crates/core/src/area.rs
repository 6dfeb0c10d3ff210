//! Storage requirements of the DMU (Table III).
//!
//! Table III of the paper reports the storage (KB) and area (mm²) of every
//! DMU structure for the selected configuration, totalling 105.25 KB and
//! 0.17 mm² at 22 nm. The storage figures follow directly from the structure
//! geometry and the internal ID widths (the whole point of the alias-table
//! renaming is that list arrays store 11-bit IDs instead of 64-bit
//! addresses); this module reproduces that arithmetic. Converting KB to mm²
//! is an energy/technology question and lives in `tdm-energy`.

use serde::Serialize;

use crate::config::DmuConfig;

/// Address bits stored per alias-table tag. The paper's TAT/DAT storage
/// (18.75 KB for 2048 entries) corresponds to a full 64-bit tag plus the
/// 11-bit internal ID.
const ALIAS_TAG_BITS: u64 = 64;

/// Descriptor-address bits stored in a Task Table entry. The paper's 23 KB
/// Task Table corresponds to ~92 bits per entry; a 48-bit canonical virtual
/// address for the descriptor plus two counters and two list pointers lands
/// on the same figure (see `DESIGN.md`).
const TASK_DESC_ADDR_BITS: u64 = 48;

/// Extra valid/control bits per Task Table entry.
const TASK_CONTROL_BITS: u64 = 2;

/// Storage of one DMU structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StructureStorage {
    /// Structure name as used in Table III.
    pub name: &'static str,
    /// Number of entries.
    pub entries: usize,
    /// Bits per entry.
    pub bits_per_entry: u64,
}

impl StructureStorage {
    /// Total storage in bits.
    pub fn bits(&self) -> u64 {
        self.entries as u64 * self.bits_per_entry
    }

    /// Total storage in kilobytes (KiB).
    pub fn kilobytes(&self) -> f64 {
        self.bits() as f64 / 8.0 / 1024.0
    }
}

/// Storage report for the whole DMU, mirroring Table III's rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DmuStorageReport {
    /// Per-structure storage, in Table III order.
    pub structures: Vec<StructureStorage>,
}

impl DmuStorageReport {
    /// Computes the storage of every DMU structure for `config`.
    pub fn for_config(config: &DmuConfig) -> Self {
        let task_id_bits = u64::from(config.task_id_bits());
        let dep_id_bits = u64::from(config.dep_id_bits());
        let sla_ptr_bits = u64::from(config.list_ptr_bits(config.successor_la_entries));
        let dla_ptr_bits = u64::from(config.list_ptr_bits(config.dependence_la_entries));
        let rla_ptr_bits = u64::from(config.list_ptr_bits(config.reader_la_entries));
        let elems = config.elems_per_list_entry as u64;

        let structures = vec![
            StructureStorage {
                name: "Task Table",
                entries: config.task_table_entries(),
                // descriptor address + #pred + #succ + successor list ptr +
                // dependence list ptr + control bits.
                bits_per_entry: TASK_DESC_ADDR_BITS
                    + task_id_bits * 2
                    + sla_ptr_bits
                    + dla_ptr_bits
                    + TASK_CONTROL_BITS,
            },
            StructureStorage {
                name: "Dep Table",
                entries: config.dependence_table_entries(),
                // last-writer task ID + reader list pointer (invalid writer is
                // encoded as an all-ones ID).
                bits_per_entry: task_id_bits + rla_ptr_bits,
            },
            StructureStorage {
                name: "TAT",
                entries: config.tat_entries,
                bits_per_entry: ALIAS_TAG_BITS + task_id_bits,
            },
            StructureStorage {
                name: "DAT",
                entries: config.dat_entries,
                bits_per_entry: ALIAS_TAG_BITS + dep_id_bits,
            },
            StructureStorage {
                name: "SLA",
                entries: config.successor_la_entries,
                bits_per_entry: elems * task_id_bits + sla_ptr_bits,
            },
            StructureStorage {
                name: "DLA",
                entries: config.dependence_la_entries,
                bits_per_entry: elems * dep_id_bits + dla_ptr_bits,
            },
            StructureStorage {
                name: "RLA",
                entries: config.reader_la_entries,
                bits_per_entry: elems * task_id_bits + rla_ptr_bits,
            },
            StructureStorage {
                name: "ReadyQ",
                entries: config.ready_queue_entries(),
                bits_per_entry: task_id_bits,
            },
        ];
        DmuStorageReport { structures }
    }

    /// Total storage across all structures, in kilobytes.
    pub fn total_kilobytes(&self) -> f64 {
        self.structures.iter().map(|s| s.kilobytes()).sum()
    }

    /// Storage of the structure named `name`, in kilobytes, if present.
    pub fn kilobytes_of(&self, name: &str) -> Option<f64> {
        self.structures
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.kilobytes())
    }
}

/// Storage of the Task Superscalar hardware for an equivalent number of
/// in-flight tasks and dependences (Section VI-C): a 1 KB gateway plus
/// 128-byte-entry TRS, ORT and Ready Queue structures. Used by the
/// `fig13_comparison` and `table03_area` harnesses.
pub fn task_superscalar_kilobytes(in_flight_entries: usize) -> f64 {
    let gateway_kb = 1.0;
    let entry_bytes = 128.0;
    let per_structure_kb = in_flight_entries as f64 * entry_bytes / 1024.0;
    gateway_kb + 3.0 * per_structure_kb
}

/// Storage of Carbon's distributed hardware queues for `num_cores` cores.
/// Carbon keeps per-core task queues of 64-byte task entries; the paper does
/// not give a figure, so this uses the configuration from the Carbon paper
/// (256 entries per local queue).
pub fn carbon_kilobytes(num_cores: usize) -> f64 {
    let entries_per_queue = 256.0;
    let entry_bytes = 64.0;
    num_cores as f64 * entries_per_queue * entry_bytes / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_config_storage_is_close_to_table_iii() {
        let report = DmuStorageReport::for_config(&DmuConfig::default());
        // Paper: Task Table 23.00, Dep Table 5.25, TAT 18.75, DAT 18.75,
        // SLA/DLA/RLA 12.25 each, ReadyQ 2.75, total 105.25 KB. Our widths
        // reproduce these within a small tolerance (see DESIGN.md).
        let expect = [
            ("Task Table", 23.00),
            ("Dep Table", 5.25),
            ("TAT", 18.75),
            ("DAT", 18.75),
            ("SLA", 12.25),
            ("DLA", 12.25),
            ("RLA", 12.25),
            ("ReadyQ", 2.75),
        ];
        for (name, kb) in expect {
            let got = report.kilobytes_of(name).unwrap();
            assert!(
                (got - kb).abs() / kb < 0.10,
                "{name}: expected ≈{kb} KB, computed {got:.2} KB"
            );
        }
        let total = report.total_kilobytes();
        assert!(
            (total - 105.25).abs() / 105.25 < 0.10,
            "total expected ≈105.25 KB, computed {total:.2} KB"
        );
    }

    #[test]
    fn alias_tables_match_exactly() {
        let report = DmuStorageReport::for_config(&DmuConfig::default());
        // 2048 entries × (64 + 11) bits = 18.75 KB exactly.
        assert!((report.kilobytes_of("TAT").unwrap() - 18.75).abs() < 1e-9);
        assert!((report.kilobytes_of("DAT").unwrap() - 18.75).abs() < 1e-9);
        // List arrays: 1024 × (8×11 + 10) bits = 12.25 KB exactly.
        assert!((report.kilobytes_of("SLA").unwrap() - 12.25).abs() < 1e-9);
        // Ready queue: 2048 × 11 bits = 2.75 KB exactly.
        assert!((report.kilobytes_of("ReadyQ").unwrap() - 2.75).abs() < 1e-9);
        // Dependence table: 2048 × 21 bits = 5.25 KB exactly.
        assert!((report.kilobytes_of("Dep Table").unwrap() - 5.25).abs() < 1e-9);
    }

    #[test]
    fn storage_scales_with_entries() {
        let small = DmuStorageReport::for_config(&DmuConfig::default().with_alias_sizes(512, 512));
        let large =
            DmuStorageReport::for_config(&DmuConfig::default().with_alias_sizes(4096, 4096));
        assert!(small.total_kilobytes() < large.total_kilobytes());
        // Alias storage is proportional to entry count (ID width changes only
        // slightly).
        assert!(small.kilobytes_of("TAT").unwrap() < large.kilobytes_of("TAT").unwrap() / 4.0);
    }

    #[test]
    fn task_superscalar_matches_paper_figure() {
        // Paper: 769 KB for 2048 in-flight entries.
        let kb = task_superscalar_kilobytes(2048);
        assert!((kb - 769.0).abs() < 1.0, "computed {kb}");
        // And the DMU/TSS ratio is about 7.3×.
        let dmu = DmuStorageReport::for_config(&DmuConfig::default()).total_kilobytes();
        let ratio = kb / dmu;
        assert!(
            (ratio - 7.3).abs() < 0.5,
            "area ratio expected ≈7.3, computed {ratio:.2}"
        );
    }

    #[test]
    fn carbon_storage_is_modest() {
        let kb = carbon_kilobytes(32);
        assert!(kb > 0.0);
        // Carbon's queues for 32 cores exceed the DMU but stay far below TSS.
        assert!(kb < task_superscalar_kilobytes(2048));
    }

    #[test]
    fn structure_storage_arithmetic() {
        let s = StructureStorage {
            name: "test",
            entries: 1024,
            bits_per_entry: 8,
        };
        assert_eq!(s.bits(), 8192);
        assert!((s.kilobytes() - 1.0).abs() < 1e-12);
    }
}
