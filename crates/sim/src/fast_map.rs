//! A fast deterministic hasher for the simulator's integer-keyed maps.
//!
//! The incremental engines, the streaming feed, the ready pool and the
//! locality model key their state by task index, core, dependence address,
//! or a (core, address) pair, which hashes word by word. Task indices are dense
//! small integers, but dependence addresses are block-aligned: a 4 KB tile's
//! base address has its low twelve bits clear, and so does any plain
//! multiple of it. hashbrown picks a key's bucket from the *low* bits of the
//! hash, so [`FastHasher::finish`] rotates the product's well-mixed high
//! bits down into them; without that every 4 KB-aligned key lands in one
//! probe chain. `std`'s default SipHash is DoS-resistant but measurably slow
//! on these hot paths (the dependence-matching maps are touched a few times
//! per simulated task); this Fibonacci-multiply hasher is the classic
//! FxHash-style alternative, inlined here because the workspace builds
//! offline. Determinism note: no simulator behaviour may depend on map
//! iteration order regardless of hasher (see `ARCHITECTURE.md`), so the
//! hasher choice is a pure-performance decision. The `tdm-lint` D1 lint
//! rejects default-hasher maps in deterministic code; `FastMap` is the
//! sanctioned replacement, so this definition site carries the one
//! legitimate allow.

// tdm-lint: allow(D1): this is FastMap's definition site — the alias below pins the hasher.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fast integer hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Multiplicative hasher: one wrapping multiply by the 64-bit golden-ratio
/// constant per written word (`u32`, `u64` or `usize`), and a rotation in
/// [`Hasher::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the key's low bits, which are
        // zero for aligned addresses; its high bits depend on every key bit.
        // Rotating by 26 (as rustc-hash does) moves the high bits to where
        // hashbrown's bucket mask reads them.
        self.state.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not hit by the integer keys we use): fold in 8-byte
        // chunks.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.state = (self.state.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        let mut map: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            map.insert(i * 64, i);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(map.get(&(i * 64)), Some(&i));
        }
    }

    #[test]
    fn aligned_keys_spread_across_low_bit_buckets() {
        // hashbrown indexes buckets with `hash & mask`. Dependence addresses
        // are block-aligned, so keys at a 4 KB or 64 B stride must still
        // fill most buckets of a 1,024-bucket table.
        const BUCKETS: u64 = 1024;
        for stride in [4096u64, 64] {
            let mut used = vec![false; BUCKETS as usize];
            for i in 0..4 * BUCKETS {
                let mut hasher = FastHasher::default();
                hasher.write_u64(0x4000_0000 + i * stride);
                used[(hasher.finish() & (BUCKETS - 1)) as usize] = true;
            }
            let filled = used.iter().filter(|&&u| u).count();
            assert!(
                filled * 10 >= BUCKETS as usize * 9,
                "stride {stride}: only {filled} of {BUCKETS} buckets used"
            );
        }
    }

    #[test]
    fn core_block_pairs_spread_across_low_bit_buckets() {
        // The locality model's (core, block) keys: 32 cores, each holding a
        // run of 4 KB-aligned blocks, hashed as a `u32` word then a `u64`.
        use std::hash::Hash;
        const BUCKETS: u64 = 1024;
        let mut used = vec![false; BUCKETS as usize];
        for core in 0..32u32 {
            for i in 0..4 * BUCKETS / 32 {
                let mut hasher = FastHasher::default();
                (core, 0x4000_0000 + i * 4096).hash(&mut hasher);
                used[(hasher.finish() & (BUCKETS - 1)) as usize] = true;
            }
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(
            filled * 10 >= BUCKETS as usize * 9,
            "only {filled} of {BUCKETS} buckets used"
        );
    }

    #[test]
    fn hashing_is_deterministic() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }
}
