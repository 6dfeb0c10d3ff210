//! Per-core phase accounting and whole-simulation statistics.
//!
//! Figure 2 of the paper breaks the execution of every thread into four
//! phases: dependence-management operations during task creation and
//! finalization (**DEPS**), scheduling (**SCHED**), task execution (**EXEC**)
//! and idle time (**IDLE**). The same breakdown drives Figures 10, 12 and 13.
//! [`CoreBreakdown`] accumulates cycles per phase for one core and
//! [`SimStats`] aggregates the whole chip.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::clock::Cycle;

/// The execution phases distinguished by the paper's characterization
/// (Section II-B, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Dependence management during task creation and task finalization.
    Deps,
    /// Task scheduling: selecting a ready task and pool maintenance.
    Sched,
    /// Executing the body of a task.
    Exec,
    /// Waiting: the ready pool is empty, or the thread sits at a barrier /
    /// in a sequential region.
    Idle,
}

impl Phase {
    /// All phases, in the order the paper plots them.
    pub const ALL: [Phase; 4] = [Phase::Deps, Phase::Sched, Phase::Exec, Phase::Idle];

    /// Short upper-case label used in reports (`DEPS`, `SCHED`, ...).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Deps => "DEPS",
            Phase::Sched => "SCHED",
            Phase::Exec => "EXEC",
            Phase::Idle => "IDLE",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles accumulated in each phase by a single core.
///
/// # Example
///
/// ```
/// use tdm_sim::clock::Cycle;
/// use tdm_sim::stats::{CoreBreakdown, Phase};
///
/// let mut b = CoreBreakdown::new();
/// b.add(Phase::Exec, Cycle::new(900));
/// b.add(Phase::Idle, Cycle::new(100));
/// assert_eq!(b.total(), Cycle::new(1000));
/// assert!((b.fraction(Phase::Exec) - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoreBreakdown {
    deps: Cycle,
    sched: Cycle,
    exec: Cycle,
    idle: Cycle,
}

impl CoreBreakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `phase`.
    pub fn add(&mut self, phase: Phase, cycles: Cycle) {
        self[phase] += cycles;
    }

    /// Cycles spent in `phase`.
    pub fn get(&self, phase: Phase) -> Cycle {
        self[phase]
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> Cycle {
        self.deps + self.sched + self.exec + self.idle
    }

    /// Fraction of the total time spent in `phase` (0.0 if the breakdown is
    /// empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self[phase].as_f64() / total.as_f64()
        }
    }

    /// Component-wise sum of two breakdowns.
    pub fn merged(&self, other: &CoreBreakdown) -> CoreBreakdown {
        CoreBreakdown {
            deps: self.deps + other.deps,
            sched: self.sched + other.sched,
            exec: self.exec + other.exec,
            idle: self.idle + other.idle,
        }
    }

    /// Pads the breakdown with idle time so the total reaches `target`.
    ///
    /// The execution driver uses this at the end of a simulation so every
    /// core's breakdown covers the full makespan (cores that ran out of work
    /// before the end of the program were idle for the remainder).
    pub fn pad_idle_to(&mut self, target: Cycle) {
        let total = self.total();
        if target > total {
            self.idle += target - total;
        }
    }
}

impl Index<Phase> for CoreBreakdown {
    type Output = Cycle;

    fn index(&self, phase: Phase) -> &Cycle {
        match phase {
            Phase::Deps => &self.deps,
            Phase::Sched => &self.sched,
            Phase::Exec => &self.exec,
            Phase::Idle => &self.idle,
        }
    }
}

impl IndexMut<Phase> for CoreBreakdown {
    fn index_mut(&mut self, phase: Phase) -> &mut Cycle {
        match phase {
            Phase::Deps => &mut self.deps,
            Phase::Sched => &mut self.sched,
            Phase::Exec => &mut self.exec,
            Phase::Idle => &mut self.idle,
        }
    }
}

/// Statistics for a complete simulated execution.
///
/// `master` is the core that creates tasks (core 0 in this reproduction, core
/// 1 in the paper's Figure 1 timeline — the choice is immaterial); `workers`
/// are the remaining cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total execution time of the parallel region (makespan) in cycles.
    pub makespan: Cycle,
    /// Per-core phase breakdowns, indexed by core id.
    pub cores: Vec<CoreBreakdown>,
    /// Index of the master core in `cores`.
    pub master: usize,
}

impl SimStats {
    /// Creates empty statistics for `num_cores` cores with `master` as the
    /// task-creating core.
    ///
    /// # Panics
    ///
    /// Panics if `master >= num_cores`.
    pub fn new(num_cores: usize, master: usize) -> Self {
        assert!(
            master < num_cores,
            "master core {master} out of range ({num_cores} cores)"
        );
        SimStats {
            makespan: Cycle::ZERO,
            cores: vec![CoreBreakdown::new(); num_cores],
            master,
        }
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The master core's breakdown.
    pub fn master_breakdown(&self) -> &CoreBreakdown {
        &self.cores[self.master]
    }

    /// Aggregate breakdown of every worker (non-master) core.
    pub fn worker_breakdown(&self) -> CoreBreakdown {
        self.cores
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.master)
            .fold(CoreBreakdown::new(), |acc, (_, b)| acc.merged(b))
    }

    /// Aggregate breakdown over all cores.
    pub fn chip_breakdown(&self) -> CoreBreakdown {
        self.cores
            .iter()
            .fold(CoreBreakdown::new(), |acc, b| acc.merged(b))
    }

    /// Fraction of total CPU time (all cores) spent in `phase`.
    pub fn chip_fraction(&self, phase: Phase) -> f64 {
        self.chip_breakdown().fraction(phase)
    }

    /// Pads every core's breakdown with idle time up to the makespan so the
    /// per-core totals are comparable.
    pub fn normalize_to_makespan(&mut self) {
        let makespan = self.makespan;
        for core in &mut self.cores {
            core.pad_idle_to(makespan);
        }
    }

    /// Speedup of this run relative to `baseline` (baseline makespan divided
    /// by this makespan).
    ///
    /// # Panics
    ///
    /// Panics if this run's makespan is zero.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert!(
            !self.makespan.is_zero(),
            "cannot compute speedup of an empty run"
        );
        baseline.makespan.as_f64() / self.makespan.as_f64()
    }
}

/// Geometric mean of a slice of strictly positive values.
///
/// The paper reports averages of speedups and normalized EDP as geometric
/// means; this helper is shared by the figure harnesses.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = CoreBreakdown::new();
        b.add(Phase::Deps, Cycle::new(10));
        b.add(Phase::Sched, Cycle::new(20));
        b.add(Phase::Exec, Cycle::new(60));
        b.add(Phase::Idle, Cycle::new(10));
        assert_eq!(b.total(), Cycle::new(100));
        assert!((b.fraction(Phase::Exec) - 0.6).abs() < 1e-12);
        assert_eq!(b.get(Phase::Deps), Cycle::new(10));
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = CoreBreakdown::new();
        for phase in Phase::ALL {
            assert_eq!(b.fraction(phase), 0.0);
        }
    }

    #[test]
    fn merged_is_componentwise_sum() {
        let mut a = CoreBreakdown::new();
        a.add(Phase::Exec, Cycle::new(5));
        let mut b = CoreBreakdown::new();
        b.add(Phase::Exec, Cycle::new(7));
        b.add(Phase::Idle, Cycle::new(3));
        let m = a.merged(&b);
        assert_eq!(m.get(Phase::Exec), Cycle::new(12));
        assert_eq!(m.get(Phase::Idle), Cycle::new(3));
    }

    #[test]
    fn pad_idle_extends_to_target() {
        let mut b = CoreBreakdown::new();
        b.add(Phase::Exec, Cycle::new(40));
        b.pad_idle_to(Cycle::new(100));
        assert_eq!(b.get(Phase::Idle), Cycle::new(60));
        assert_eq!(b.total(), Cycle::new(100));
        // Padding to a smaller target is a no-op.
        b.pad_idle_to(Cycle::new(50));
        assert_eq!(b.total(), Cycle::new(100));
    }

    #[test]
    fn phase_labels_match_paper() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["DEPS", "SCHED", "EXEC", "IDLE"]);
        assert_eq!(Phase::Sched.to_string(), "SCHED");
    }

    #[test]
    fn stats_master_and_worker_split() {
        let mut stats = SimStats::new(4, 0);
        stats.cores[0].add(Phase::Deps, Cycle::new(100));
        stats.cores[1].add(Phase::Exec, Cycle::new(50));
        stats.cores[2].add(Phase::Exec, Cycle::new(50));
        stats.cores[3].add(Phase::Idle, Cycle::new(50));
        assert_eq!(stats.master_breakdown().get(Phase::Deps), Cycle::new(100));
        let workers = stats.worker_breakdown();
        assert_eq!(workers.get(Phase::Exec), Cycle::new(100));
        assert_eq!(workers.get(Phase::Idle), Cycle::new(50));
        assert_eq!(stats.chip_breakdown().total(), Cycle::new(250));
    }

    #[test]
    fn normalize_pads_all_cores() {
        let mut stats = SimStats::new(2, 0);
        stats.makespan = Cycle::new(100);
        stats.cores[0].add(Phase::Exec, Cycle::new(100));
        stats.cores[1].add(Phase::Exec, Cycle::new(30));
        stats.normalize_to_makespan();
        assert_eq!(stats.cores[1].total(), Cycle::new(100));
        assert_eq!(stats.cores[1].get(Phase::Idle), Cycle::new(70));
    }

    #[test]
    fn speedup_is_ratio_of_makespans() {
        let mut fast = SimStats::new(1, 0);
        fast.makespan = Cycle::new(500);
        let mut slow = SimStats::new(1, 0);
        slow.makespan = Cycle::new(1000);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "master core")]
    fn stats_rejects_out_of_range_master() {
        let _ = SimStats::new(2, 2);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let values = [1.1, 0.9, 1.3];
        let g = geometric_mean(&values);
        assert!(g > 0.9 && g < 1.3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geometric_mean_rejects_empty() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_non_positive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
