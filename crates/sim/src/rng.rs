//! Small deterministic pseudo-random number generator.
//!
//! The simulator occasionally needs cheap, reproducible randomness — e.g. to
//! jitter task durations so that perfectly symmetric workloads do not finish
//! in lock-step, which real systems never do. This module provides a tiny
//! SplitMix64 generator so the simulation substrate stays dependency-light
//! and bit-for-bit reproducible across platforms (workload generation and the
//! integration tests use it too, so the whole workspace shares one seeding
//! story).
//!
//! # Seeding contract
//!
//! Every source of randomness in a simulated run derives from a single `u64`
//! seed (`ExecConfig::seed` in `tdm-runtime`), under these rules:
//!
//! 1. **Pure function of the seed.** [`SplitMix64::new`] is the only way
//!    randomness enters the system; there is no global RNG, no
//!    time/thread/platform dependence. Two runs with the same seed and the
//!    same inputs produce bit-identical cycle counts.
//! 2. **Derived streams, not shared streams.** A consumer that needs
//!    per-entity randomness (e.g. per-task duration jitter) must derive an
//!    independent generator per entity — `SplitMix64::new(seed ^ f(entity))`
//!    — rather than draw from one shared stream, so results do not depend on
//!    the order in which entities are visited (schedulers and backends may
//!    reorder them).
//! 3. **Ties never consult the RNG.** Simultaneous events are delivered by
//!    the [`EventQueue`](crate::event::EventQueue) in insertion order —
//!    by a per-event insertion sequence number in the queue's key — never
//!    by randomness, so determinism does not depend on rule 2 being applied
//!    to event ordering.
//!
//! The conformance suite (`tests/conformance/determinism.rs` at the
//! workspace root) enforces the end-to-end consequence: identical
//! `RunReport`s, schedules and makespans across repeated seeded runs.

use serde::{Deserialize, Serialize};

/// A SplitMix64 pseudo-random number generator.
///
/// SplitMix64 passes BigCrush, has a full 2^64 period over its state, and is
/// only a handful of arithmetic operations — plenty for duration jitter and
/// deterministic tie-breaking.
///
/// # Example
///
/// ```
/// use tdm_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including zero, is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift range reduction; bias is negligible for simulation
        // purposes (bounds are tiny relative to 2^64).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a multiplicative jitter factor uniformly distributed in
    /// `[1 - spread, 1 + spread]`.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative or not less than 1.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&spread),
            "spread must be in [0, 1), got {spread}"
        );
        1.0 + (self.next_f64() * 2.0 - 1.0) * spread
    }
}

// Snapshot support: the generator *is* its 64-bit state, so a checkpointed
// stream resumes exactly where it left off. (The driver's per-task jitter
// streams are derived fresh from the seed and task index and never live
// across a checkpoint; this impl covers any source-embedded RNG state.)
impl crate::snapshot::Persist for SplitMix64 {
    fn save(&self, out: &mut Vec<u8>) {
        crate::snapshot::Persist::save(&self.state, out);
    }

    fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(SplitMix64 {
            state: <u64 as crate::snapshot::Persist>::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 10,
            "distinct seeds should not produce identical streams"
        );
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(rng.next_below(13) < 13);
        }
    }

    #[test]
    fn next_below_covers_small_ranges() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.next_below(4) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.next_below(0);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let j = rng.jitter(0.1);
            assert!((0.9..=1.1).contains(&j));
        }
    }

    #[test]
    fn zero_spread_jitter_is_one() {
        let mut rng = SplitMix64::new(5);
        assert_eq!(rng.jitter(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn jitter_rejects_out_of_range_spread() {
        let mut rng = SplitMix64::new(5);
        let _ = rng.jitter(1.0);
    }

    #[test]
    fn mean_of_f64_is_roughly_half() {
        let mut rng = SplitMix64::new(99);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
