//! Counting of DMU structure accesses.
//!
//! TDM operations require multiple accesses to the DMU's SRAM structures
//! (Section III-C); a list spread over several list-array entries needs one
//! access per entry, an `add_dependence` with an output direction touches the
//! successor list of every reader, and so on. The simulator models this by
//! counting accesses per structure during each operation and converting the
//! total into cycles with the configured per-access latency (Figure 9 sweeps
//! that latency from 1 to 16 cycles).

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};
use tdm_sim::clock::Cycle;

/// The DMU hardware structures that can be accessed by an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DmuStructure {
    /// Task Alias Table.
    Tat,
    /// Dependence Alias Table.
    Dat,
    /// Task Table.
    TaskTable,
    /// Dependence Table.
    DependenceTable,
    /// Successor List Array.
    SuccessorLa,
    /// Dependence List Array.
    DependenceLa,
    /// Reader List Array.
    ReaderLa,
    /// Ready Queue.
    ReadyQueue,
}

impl DmuStructure {
    /// All structures, in a stable reporting order.
    pub const ALL: [DmuStructure; 8] = [
        DmuStructure::Tat,
        DmuStructure::Dat,
        DmuStructure::TaskTable,
        DmuStructure::DependenceTable,
        DmuStructure::SuccessorLa,
        DmuStructure::DependenceLa,
        DmuStructure::ReaderLa,
        DmuStructure::ReadyQueue,
    ];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DmuStructure::Tat => "TAT",
            DmuStructure::Dat => "DAT",
            DmuStructure::TaskTable => "Task Table",
            DmuStructure::DependenceTable => "Dependence Table",
            DmuStructure::SuccessorLa => "SLA",
            DmuStructure::DependenceLa => "DLA",
            DmuStructure::ReaderLa => "RLA",
            DmuStructure::ReadyQueue => "ReadyQ",
        }
    }
}

impl fmt::Display for DmuStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of accesses made to each DMU structure by one operation (or
/// accumulated over many operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessCounter {
    counts: [u64; 8],
    /// Sum of `counts`, kept by every `record` so that [`total`] and
    /// [`cost`], which the DMU reads once per operation, are O(1).
    ///
    /// [`total`]: AccessCounter::total
    /// [`cost`]: AccessCounter::cost
    total: u64,
}

impl AccessCounter {
    /// A counter with zero accesses everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// `structure`'s position in [`DmuStructure::ALL`], which lists the
    /// variants in declaration order.
    fn slot(structure: DmuStructure) -> usize {
        structure as usize
    }

    /// Records `n` accesses to `structure`.
    pub fn record(&mut self, structure: DmuStructure, n: u64) {
        self.counts[Self::slot(structure)] += n;
        self.total += n;
    }

    /// Records a single access to `structure`.
    pub fn touch(&mut self, structure: DmuStructure) {
        self.record(structure, 1);
    }

    /// Number of accesses made to `structure`.
    pub fn get(&self, structure: DmuStructure) -> u64 {
        self.counts[Self::slot(structure)]
    }

    /// Total accesses across all structures.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Serializes the accesses into a cycle count, assuming every access
    /// takes `latency` cycles and accesses are not overlapped (the DMU
    /// processes instructions sequentially, Section III-D).
    pub fn cost(&self, latency: Cycle) -> Cycle {
        latency.scaled(self.total())
    }

    /// True if no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

impl Add for AccessCounter {
    type Output = AccessCounter;

    fn add(self, rhs: AccessCounter) -> AccessCounter {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for AccessCounter {
    fn add_assign(&mut self, rhs: AccessCounter) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
        self.total += rhs.total;
    }
}

impl fmt::Display for AccessCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in DmuStructure::ALL {
            let n = self.get(s);
            if n > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", s.name(), n)?;
                first = false;
            }
        }
        if first {
            write!(f, "no accesses")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get_per_structure() {
        let mut c = AccessCounter::new();
        c.touch(DmuStructure::Tat);
        c.record(DmuStructure::SuccessorLa, 3);
        assert_eq!(c.get(DmuStructure::Tat), 1);
        assert_eq!(c.get(DmuStructure::SuccessorLa), 3);
        assert_eq!(c.get(DmuStructure::Dat), 0);
        assert_eq!(c.total(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn cost_is_total_times_latency() {
        let mut c = AccessCounter::new();
        c.record(DmuStructure::TaskTable, 2);
        c.record(DmuStructure::ReadyQueue, 1);
        assert_eq!(c.cost(Cycle::new(1)), Cycle::new(3));
        assert_eq!(c.cost(Cycle::new(16)), Cycle::new(48));
    }

    #[test]
    fn counters_add_componentwise() {
        let mut a = AccessCounter::new();
        a.touch(DmuStructure::Dat);
        let mut b = AccessCounter::new();
        b.record(DmuStructure::Dat, 2);
        b.touch(DmuStructure::ReaderLa);
        let sum = a + b;
        assert_eq!(sum.get(DmuStructure::Dat), 3);
        assert_eq!(sum.get(DmuStructure::ReaderLa), 1);
        assert_eq!(sum.total(), 4);
    }

    #[test]
    fn empty_counter_reports_empty() {
        let c = AccessCounter::new();
        assert!(c.is_empty());
        assert_eq!(c.cost(Cycle::new(16)), Cycle::ZERO);
        assert_eq!(c.to_string(), "no accesses");
    }

    #[test]
    fn display_lists_nonzero_structures() {
        let mut c = AccessCounter::new();
        c.touch(DmuStructure::Tat);
        c.record(DmuStructure::SuccessorLa, 2);
        let s = c.to_string();
        assert!(s.contains("TAT: 1"));
        assert!(s.contains("SLA: 2"));
        assert!(!s.contains("DAT"));
    }

    #[test]
    fn all_lists_structures_in_declaration_order() {
        for (i, s) in DmuStructure::ALL.into_iter().enumerate() {
            assert_eq!(AccessCounter::slot(s), i, "{s}");
        }
    }

    #[test]
    fn running_total_matches_the_per_structure_sum() {
        let mut c = AccessCounter::new();
        for (i, s) in DmuStructure::ALL.into_iter().enumerate() {
            c.record(s, i as u64 + 1);
        }
        c += c;
        let sum: u64 = DmuStructure::ALL.iter().map(|&s| c.get(s)).sum();
        assert_eq!((c.total(), sum), (72, 72));
    }

    #[test]
    fn structure_names_are_unique() {
        let mut names: Vec<_> = DmuStructure::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DmuStructure::ALL.len());
    }
}
