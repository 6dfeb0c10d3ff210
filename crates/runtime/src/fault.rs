//! Deterministic fault injection: seeded failure plans and the driver-side
//! fault bookkeeping that [`exec`](crate::exec) threads through a run.
//!
//! Two failure modes are modeled, both decided by **pure draws** under the
//! workspace's SplitMix64 seeding contract (every decision is a function of
//! the run seed and the decision's identity, never of shared RNG state):
//!
//! * **Transient task failures** — at a task's completion boundary a draw
//!   keyed by `(task, attempt)` decides whether the execution failed. A
//!   failed task never reaches the dependence engine's finish path, so its
//!   dependents stay blocked; the driver re-issues it after a deterministic
//!   modeled backoff, under a bounded retry budget
//!   ([`FaultConfig::retry_budget`]). Budget exhaustion surfaces as
//!   [`RunOutcome::Aborted`](crate::exec::RunOutcome::Aborted).
//! * **Sticky core faults** — at a worker core's completion boundary a draw
//!   keyed by `(core, completion index)` decides whether the core retires.
//!   The completing task is handled normally first (finish or transient
//!   failure); the core then stops picking work, never re-enters the idle
//!   set, and the remaining cores absorb its load. The master core is
//!   exempt, so a run can always make progress.
//!
//! Because the draws are pure per-decision functions, a fault rate of zero
//! is *bit-identical* to fault injection being disabled, and any fault
//! schedule replays identically across the eager, streaming and resumed
//! drivers (the `faults` conformance suite pins both).
//!
//! [`FaultState`] is the driver-side mutable record — per-task failure
//! counts, per-core completion counts, the retired-core bitmap and the
//! pending-retry queue — and serialises as the `FAULT` snapshot section so
//! checkpoint/resume is bit-identical through an injected fault (layout in
//! `SNAPSHOT_FORMAT.md`).

use tdm_sim::clock::Cycle;
use tdm_sim::rng::SplitMix64;
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

use crate::fast_map::FastMap;
use crate::task::TaskRef;

/// Stream-derivation constant for fault decisions: every fault draw seeds
/// from `ExecConfig::seed ^ FAULT_STREAM` (plus the decision's identity),
/// keeping the fault schedule independent of the duration-jitter stream
/// while remaining a pure function of the run seed.
pub const FAULT_STREAM: u64 = 0xFA17_5EED_0F0A_D117;

/// Salt separating transient-failure draws from core-retirement draws.
const TRANSIENT_SALT: u64 = 0x7A5C_FA11;
/// Salt for the sticky per-core retirement stream.
const RETIRE_SALT: u64 = 0xC04E_0FF1;

/// Configuration of the deterministic fault-injection subsystem
/// ([`ExecConfig::fault`](crate::exec::ExecConfig::fault)). The default is
/// fully quiescent (both rates zero), which is bit-identical to fault
/// injection being disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one execution attempt of a task fails, drawn
    /// independently per `(task, attempt)`. Clamped to `[0, 1]` by the
    /// builder; `1.0` fails every attempt up to
    /// [`max_faults_per_task`](FaultConfig::max_faults_per_task).
    pub fault_rate: f64,
    /// Hard cap on injected failures per task: once a task has failed this
    /// many times, further attempts always succeed. Keeps `fault_rate: 1.0`
    /// usable for regression tests (exactly this many failures, then
    /// success) and bounds worst-case retry storms.
    pub max_faults_per_task: u32,
    /// Maximum failures tolerated per task before the run aborts: the
    /// driver re-issues a failed task only while its failure count is at
    /// most this budget, and surfaces
    /// [`RunOutcome::Aborted`](crate::exec::RunOutcome::Aborted) otherwise.
    pub retry_budget: u32,
    /// Base modeled backoff delay before a failed task is re-queued; the
    /// n-th failure of a task waits `backoff × n` cycles (deterministic
    /// linear backoff).
    pub backoff: Cycle,
    /// Modeled cycles the executing core spends detecting and reporting a
    /// failed execution (charged as DEPS, like the finish path it
    /// replaces).
    pub detect_cost: Cycle,
    /// Probability that a worker core retires (sticky fault) at one of its
    /// completion boundaries, drawn independently per
    /// `(core, completion index)`. The master core never retires.
    pub core_fault_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            fault_rate: 0.0,
            max_faults_per_task: 1,
            retry_budget: 3,
            backoff: Cycle::new(10_000),
            detect_cost: Cycle::new(500),
            core_fault_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// Same configuration with the transient failure rate set (clamped to
    /// `[0, 1]`).
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Same configuration with the per-task failure cap set.
    pub fn with_max_faults_per_task(mut self, cap: u32) -> Self {
        self.max_faults_per_task = cap;
        self
    }

    /// Same configuration with the retry budget set.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Same configuration with the sticky core-fault rate set (clamped to
    /// `[0, 1]`).
    pub fn with_core_fault_rate(mut self, rate: f64) -> Self {
        self.core_fault_rate = rate.clamp(0.0, 1.0);
        self
    }
}

// The FAULT section stores no configuration — `FaultConfig` is fingerprinted
// into META (`fault_hash`) instead — but `bench_scale` persists the flags it
// was launched with inside its BENCH section so a resume rebuilds the same
// fault schedule without re-passing them. Floats travel as IEEE-754 bits.
impl Persist for FaultConfig {
    fn save(&self, out: &mut Vec<u8>) {
        self.fault_rate.to_bits().save(out);
        self.max_faults_per_task.save(out);
        self.retry_budget.save(out);
        self.backoff.save(out);
        self.detect_cost.save(out);
        self.core_fault_rate.to_bits().save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let fault_rate = f64::from_bits(u64::load(r)?);
        let max_faults_per_task = u32::load(r)?;
        let retry_budget = u32::load(r)?;
        let backoff = Cycle::load(r)?;
        let detect_cost = Cycle::load(r)?;
        let core_fault_rate = f64::from_bits(u64::load(r)?);
        if !fault_rate.is_finite() || !core_fault_rate.is_finite() {
            return Err(SnapshotError::Corrupt {
                context: "fault configuration carries a non-finite rate".to_string(),
            });
        }
        Ok(FaultConfig {
            fault_rate,
            max_faults_per_task,
            retry_budget,
            backoff,
            detect_cost,
            core_fault_rate,
        })
    }
}

/// The seeded fault schedule of one run: pure decision functions derived
/// from `seed ^ FAULT_STREAM`. A plan holds no mutable state — the same
/// plan answers the same question identically however often it is asked,
/// which is what makes fault schedules replayable across the eager,
/// streaming and resumed drivers.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

impl FaultPlan {
    /// Derives the fault schedule of a run from its `ExecConfig` seed.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan {
            seed: seed ^ FAULT_STREAM,
            config,
        }
    }

    /// The configuration this plan draws under.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// One uniform draw in `[0, 1)`, keyed by the decision's identity.
    fn draw(&self, salt: u64, a: u64, b: u64) -> f64 {
        let mut rng = SplitMix64::new(
            self.seed
                ^ salt
                ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        rng.next_f64()
    }

    /// Whether `task`'s execution attempt number `attempt` (0-based: the
    /// number of failures it has already suffered) fails. Always `false`
    /// once the per-task cap is reached.
    pub fn should_fail(&self, task: TaskRef, attempt: u32) -> bool {
        attempt < self.config.max_faults_per_task
            && self.draw(TRANSIENT_SALT, task.index() as u64, u64::from(attempt))
                < self.config.fault_rate
    }

    /// Whether `core` retires (sticky fault) at its `completion`-th
    /// completion boundary (0-based). The caller exempts the master core.
    pub fn should_retire(&self, core: usize, completion: u64) -> bool {
        self.draw(RETIRE_SALT, core as u64, completion) < self.config.core_fault_rate
    }

    /// Modeled delay before re-queueing a task that has now failed
    /// `failures` times: linear deterministic backoff.
    pub fn backoff_delay(&self, failures: u32) -> Cycle {
        self.config.backoff.scaled(u64::from(failures))
    }
}

/// One pending re-issue of a failed task, waiting for its backoff to
/// elapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryEntry {
    /// Cycle at which the task becomes eligible for re-queueing.
    pub due: Cycle,
    /// The failed task.
    pub task: TaskRef,
    /// Successor count the task's ready entry originally carried (the
    /// Successor scheduling policy orders by it, so the re-issued entry
    /// must preserve it).
    pub num_successors: u32,
}

impl Persist for RetryEntry {
    fn save(&self, out: &mut Vec<u8>) {
        self.due.save(out);
        self.task.save(out);
        self.num_successors.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RetryEntry {
            due: Cycle::load(r)?,
            task: TaskRef::load(r)?,
            num_successors: u32::load(r)?,
        })
    }
}

/// Driver-side mutable fault bookkeeping: failure counts, completion
/// counts, the retired-core bitmap, the pending-retry queue and the
/// run-level counters surfaced in
/// [`RunReport`](crate::exec::RunReport). Present (and checkpointed) even
/// when fault injection is disabled — it then stays all-zero, so the FAULT
/// snapshot section is deterministic either way.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    /// Injected-failure count per task index; only nonzero counts of tasks
    /// that have not finished yet are kept.
    failures: FastMap<usize, u32>,
    /// Completion boundaries each core has reached (indexes the retirement
    /// draw stream).
    completions: Vec<u64>,
    /// Retired-core bitmap, one bit per core.
    retired: Vec<u64>,
    /// Failed tasks waiting out their backoff, in insertion order. Due
    /// times are *not* monotone across entries (backoff scales with the
    /// per-task failure count), so draining scans the whole queue.
    retry_queue: Vec<RetryEntry>,
    /// Total transient failures injected so far.
    pub faults_injected: u64,
    /// Total re-issues dispatched so far.
    pub retries: u64,
}

impl FaultState {
    /// Fresh all-zero state for a chip with `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        FaultState {
            failures: FastMap::default(),
            completions: vec![0; num_cores],
            retired: vec![0; num_cores.div_ceil(64)],
            retry_queue: Vec::new(),
            faults_injected: 0,
            retries: 0,
        }
    }

    /// Number of cores this state covers.
    pub fn num_cores(&self) -> usize {
        self.completions.len()
    }

    /// Advances `core`'s completion counter, returning the 0-based index of
    /// the boundary just reached (the retirement draw's key).
    pub fn record_completion(&mut self, core: usize) -> u64 {
        match self.completions.get_mut(core) {
            Some(count) => {
                let index = *count;
                *count += 1;
                index
            }
            None => 0,
        }
    }

    /// Failures injected into `task` so far.
    pub fn failure_count(&self, task: TaskRef) -> u32 {
        self.failures.get(&task.index()).copied().unwrap_or(0)
    }

    /// Records one more injected failure of `task`, returning the new
    /// count, and bumps the run-level fault counter.
    pub fn record_failure(&mut self, task: TaskRef) -> u32 {
        self.faults_injected += 1;
        let count = self.failures.entry(task.index()).or_insert(0);
        *count += 1;
        *count
    }

    /// Drops `task`'s failure count once it has finished: it never runs
    /// again, so the count is never read, and dropping it keeps the map
    /// bounded by the tasks in flight.
    pub(crate) fn forget_failures(&mut self, task: TaskRef) {
        self.failures.remove(&task.index());
    }

    /// Marks `core` as retired (sticky fault).
    pub fn retire(&mut self, core: usize) {
        if let Some(word) = self.retired.get_mut(core >> 6) {
            *word |= 1u64 << (core & 63);
        }
    }

    /// Whether `core` has retired.
    pub fn is_retired(&self, core: usize) -> bool {
        self.retired
            .get(core >> 6)
            .is_some_and(|word| word & (1u64 << (core & 63)) != 0)
    }

    /// Number of cores retired so far.
    pub fn retired_cores(&self) -> u64 {
        self.retired.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Queues a re-issue of `task` becoming due at `due`.
    pub fn push_retry(&mut self, due: Cycle, task: TaskRef, num_successors: u32) {
        self.retry_queue.push(RetryEntry {
            due,
            task,
            num_successors,
        });
    }

    /// The pending re-issues, in insertion order.
    pub(crate) fn pending_retries(&self) -> &[RetryEntry] {
        &self.retry_queue
    }

    /// Dispatches every queued re-issue that is due at `now`, in queue
    /// insertion order, handing each to `reissue` and returning how many
    /// were dispatched. Due times are non-monotone across entries, so the
    /// whole queue is scanned — a later entry must not be stranded behind
    /// an earlier one with a later due time.
    pub fn drain_due(&mut self, now: Cycle, mut reissue: impl FnMut(TaskRef, u32)) -> usize {
        let mut dispatched = 0usize;
        self.retry_queue.retain(|entry| {
            if entry.due <= now {
                reissue(entry.task, entry.num_successors);
                dispatched += 1;
                false
            } else {
                true
            }
        });
        self.retries += dispatched as u64;
        dispatched
    }
}

// Snapshot support (the FAULT section). The failure-count map is
// canonicalised to a key-sorted nonzero-only list (map iteration order is
// unobservable and must stay that way); the retry queue is written verbatim
// — its insertion order is observable through re-issue order.
impl Persist for FaultState {
    fn save(&self, out: &mut Vec<u8>) {
        let mut failures: Vec<(u64, u32)> = self
            .failures
            .iter()
            .filter(|(_, &count)| count > 0)
            .map(|(&task, &count)| (task as u64, count))
            .collect();
        failures.sort_unstable_by_key(|&(task, _)| task);
        failures.save(out);
        self.completions.save(out);
        self.retired.save(out);
        self.retry_queue.save(out);
        self.faults_injected.save(out);
        self.retries.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let pairs: Vec<(u64, u32)> = Vec::load(r)?;
        let mut failures = FastMap::default();
        for (task, count) in pairs {
            let index = usize::try_from(task).map_err(|_| SnapshotError::Corrupt {
                context: format!("FAULT failure count names task {task}, beyond usize"),
            })?;
            if count == 0 {
                return Err(SnapshotError::Corrupt {
                    context: format!("FAULT stores a zero failure count for task {index}"),
                });
            }
            if failures.insert(index, count).is_some() {
                return Err(SnapshotError::Corrupt {
                    context: format!("FAULT lists task {index} twice"),
                });
            }
        }
        let completions = Vec::<u64>::load(r)?;
        let retired = Vec::<u64>::load(r)?;
        if retired.len() != completions.len().div_ceil(64) {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "FAULT retired bitmap has {} words for {} cores",
                    retired.len(),
                    completions.len()
                ),
            });
        }
        let retry_queue = Vec::<RetryEntry>::load(r)?;
        let faults_injected = u64::load(r)?;
        let retries = u64::load(r)?;
        Ok(FaultState {
            failures,
            completions,
            retired,
            retry_queue,
            faults_injected,
            retries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_sim::snapshot::{from_payload, to_payload};

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(42, FaultConfig::default().with_fault_rate(rate))
    }

    #[test]
    fn draws_are_pure_functions_of_identity() {
        let p = plan(0.5);
        for task in 0..64usize {
            for attempt in 0..2u32 {
                assert_eq!(
                    p.should_fail(TaskRef(task), attempt),
                    p.should_fail(TaskRef(task), attempt),
                );
            }
        }
        // A different seed yields a different schedule somewhere.
        let other = FaultPlan::new(43, FaultConfig::default().with_fault_rate(0.5));
        let a: Vec<bool> = (0..256).map(|i| p.should_fail(TaskRef(i), 0)).collect();
        let b: Vec<bool> = (0..256).map(|i| other.should_fail(TaskRef(i), 0)).collect();
        assert_ne!(a, b, "seeds 42 and 43 drew identical 256-task schedules");
    }

    #[test]
    fn rate_extremes_and_per_task_cap() {
        let never = plan(0.0);
        let always = plan(1.0);
        for task in 0..32usize {
            assert!(!never.should_fail(TaskRef(task), 0));
            assert!(always.should_fail(TaskRef(task), 0));
            // Default cap is 1 fault per task: the retry succeeds.
            assert!(!always.should_fail(TaskRef(task), 1));
        }
        let capped = FaultPlan::new(
            7,
            FaultConfig::default()
                .with_fault_rate(1.0)
                .with_max_faults_per_task(3),
        );
        assert!(capped.should_fail(TaskRef(0), 2));
        assert!(!capped.should_fail(TaskRef(0), 3));
    }

    #[test]
    fn rates_clamp_to_unit_interval() {
        let config = FaultConfig::default()
            .with_fault_rate(7.5)
            .with_core_fault_rate(-2.0);
        assert_eq!(config.fault_rate, 1.0);
        assert_eq!(config.core_fault_rate, 0.0);
    }

    #[test]
    fn backoff_is_linear_in_failure_count() {
        let config = FaultConfig {
            backoff: Cycle::new(100),
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(1, config);
        assert_eq!(p.backoff_delay(1), Cycle::new(100));
        assert_eq!(p.backoff_delay(3), Cycle::new(300));
    }

    #[test]
    fn drain_respects_insertion_order_not_due_order() {
        let mut state = FaultState::new(4);
        // Inserted first, due later; inserted second, due earlier. A
        // front-only FIFO drain would strand the second entry.
        state.push_retry(Cycle::new(500), TaskRef(1), 2);
        state.push_retry(Cycle::new(100), TaskRef(2), 0);
        let mut order = Vec::new();
        let n = state.drain_due(Cycle::new(100), |task, _| order.push(task));
        assert_eq!(n, 1);
        assert_eq!(order, vec![TaskRef(2)]);
        assert!(!state.pending_retries().is_empty());
        let n = state.drain_due(Cycle::new(500), |task, _| order.push(task));
        assert_eq!(n, 1);
        assert_eq!(order, vec![TaskRef(2), TaskRef(1)]);
        assert!(state.pending_retries().is_empty());
        assert_eq!(state.retries, 2);
    }

    #[test]
    fn retirement_bitmap_and_counters() {
        let mut state = FaultState::new(70);
        assert!(!state.is_retired(69));
        state.retire(3);
        state.retire(69);
        assert!(state.is_retired(3));
        assert!(state.is_retired(69));
        assert_eq!(state.retired_cores(), 2);
        assert_eq!(state.record_completion(3), 0);
        assert_eq!(state.record_completion(3), 1);
        assert_eq!(state.record_completion(2), 0);
        assert_eq!(state.record_failure(TaskRef(9)), 1);
        assert_eq!(state.record_failure(TaskRef(9)), 2);
        assert_eq!(state.failure_count(TaskRef(9)), 2);
        assert_eq!(state.failure_count(TaskRef(8)), 0);
        assert_eq!(state.faults_injected, 2);
        state.forget_failures(TaskRef(9));
        assert_eq!(state.failure_count(TaskRef(9)), 0);
        assert_eq!(state.faults_injected, 2);
    }

    #[test]
    fn fault_state_round_trips_through_the_codec() {
        let mut state = FaultState::new(8);
        state.record_completion(1);
        state.record_completion(1);
        state.record_failure(TaskRef(5));
        state.record_failure(TaskRef(5));
        state.record_failure(TaskRef(2));
        state.retire(6);
        state.push_retry(Cycle::new(900), TaskRef(5), 4);
        state.push_retry(Cycle::new(300), TaskRef(2), 0);
        state.drain_due(Cycle::new(300), |_, _| {});
        let restored: FaultState =
            from_payload(&to_payload(&state), "FAULT").expect("round trip must decode");
        assert_eq!(restored, state);
    }

    #[test]
    fn fault_state_decoder_rejects_inconsistencies() {
        let mut state = FaultState::new(8);
        state.record_failure(TaskRef(1));
        let good = to_payload(&state);
        // Truncation anywhere must surface as an error, never a panic.
        for cut in 0..good.len() {
            assert!(from_payload::<FaultState>(&good[..cut], "FAULT").is_err());
        }
    }

    #[test]
    fn fault_config_round_trips_and_rejects_non_finite_rates() {
        let config = FaultConfig::default()
            .with_fault_rate(0.25)
            .with_retry_budget(9)
            .with_core_fault_rate(0.0625);
        let restored: FaultConfig =
            from_payload(&to_payload(&config), "BENCH").expect("round trip must decode");
        assert_eq!(restored, config);
        let mut evil = config.clone();
        evil.fault_rate = f64::NAN;
        assert!(from_payload::<FaultConfig>(&to_payload(&evil), "BENCH").is_err());
    }
}
