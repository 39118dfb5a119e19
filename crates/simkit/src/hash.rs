//! Deterministic, allocation-free hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default `RandomState` does two things
//! the simulator doesn't want on its hot paths: it seeds per-process
//! (so iteration order varies run to run, which is why every
//! order-sensitive traversal in the workspace must sort first), and it
//! runs SipHash-1-3, which costs tens of cycles even for a 4-byte typed
//! id. [`FastHasher`] is an FxHash-style multiply-xor hasher: a couple
//! of cycles per word, deterministic across runs and platforms, and
//! plenty for trusted keys like [`crate::ids::JobId`] /
//! [`crate::ids::TransferId`] (simulation-internal, never
//! attacker-controlled — HashDoS resistance is not a requirement here).
//!
//! Use [`FastMap`] for id-keyed working state; truly dense id ranges
//! should prefer a plain `Vec` indexed by the id.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (Firefox): a 64-bit odd constant close to
/// 2^64 / φ, spreading consecutive ids across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style multiply-rotate hasher (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] — zero-sized, deterministic.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on the deterministic fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, TransferId};

    #[test]
    fn maps_round_trip_typed_ids() {
        let mut m: FastMap<JobId, &'static str> = FastMap::default();
        for i in 0..1000 {
            m.insert(JobId(i), "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&JobId(123)));
        assert!(!m.contains_key(&JobId(1000)));
        m.remove(&JobId(123));
        assert!(!m.contains_key(&JobId(123)));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let hash_of = |id: TransferId| build.hash_one(id);
        // Same key, same hash — every time (no per-process seeding).
        assert_eq!(hash_of(TransferId(7)), hash_of(TransferId(7)));
        // Consecutive ids should not collide in the low bits the map
        // actually uses.
        let mut low_bits: std::collections::BTreeSet<u64> = Default::default();
        for i in 0..64 {
            low_bits.insert(hash_of(TransferId(i)) & 63);
        }
        assert!(low_bits.len() > 16, "low-bit spread too poor");
    }

    #[test]
    fn multi_word_keys_hash_consistently() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let hash_of = |k: &(usize, u32)| build.hash_one(k);
        assert_eq!(hash_of(&(3, 7)), hash_of(&(3, 7)));
        assert_ne!(hash_of(&(3, 7)), hash_of(&(7, 3)));
    }
}
