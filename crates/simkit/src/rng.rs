//! Deterministic per-entity random streams.
//!
//! A simulation run must be a pure function of `(configuration, seed)`.
//! Handing a single RNG around would make every entity's draws depend on
//! event interleaving; instead each entity derives its own independent
//! stream from the master seed and a stable tag via a SplitMix64-style
//! mixer. Adding a site or application then leaves every other entity's
//! stream untouched, which keeps A/B experiments (ablations, failure-rate
//! sweeps) comparable.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Mix a master seed with an entity tag into an independent 64-bit seed.
///
/// Uses the SplitMix64 finalizer, whose avalanche behaviour makes adjacent
/// tags produce uncorrelated streams.
pub(crate) fn derive_seed(master: u64, tag: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a seed from a master seed and a string label (e.g. a site name).
pub(crate) fn derive_seed_str(master: u64, label: &str) -> u64 {
    // FNV-1a over the label, then mixed with the master seed.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(master, h)
}

/// A deterministic RNG for one simulation entity.
///
/// Wraps [`StdRng`] (ChaCha-based, identical across platforms) seeded via
/// `derive_seed`.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Stream for `tag` under `master` seed.
    pub fn for_entity(master: u64, tag: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(derive_seed(master, tag)),
        }
    }

    /// Stream for a string-labelled entity.
    pub fn for_label(master: u64, label: &str) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(derive_seed_str(master, label)),
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Uniform integer in `[0, n)`; panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            self.inner.gen_range(lo..hi)
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Mutable access to the wrapped RNG, for use with `rand_distr`
    /// distribution objects.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

impl serde::Serialize for SimRng {
    fn to_value(&self) -> serde::Value {
        // The xoshiro256++ state words capture the stream position exactly,
        // so a snapshot restores draws mid-stream without replaying.
        self.inner.state().to_value()
    }
}

impl serde::Deserialize for SimRng {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        <[u64; 4]>::from_value(v).map(|s| SimRng {
            inner: StdRng::from_state(s),
        })
    }
}

impl serde::Encode for SimRng {
    fn encode<S: serde::Sink + ?Sized>(&self, out: &mut S) {
        self.inner.state().encode(out);
    }
}

impl serde::Decode for SimRng {
    fn decode(r: &mut serde::Reader<'_>) -> Result<Self, serde::DecodeError> {
        <[u64; 4]>::decode(r).map(|s| SimRng {
            inner: StdRng::from_state(s),
        })
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = SimRng::for_entity(42, 7);
        let mut b = SimRng::for_entity(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_tags_diverge() {
        let mut a = SimRng::for_entity(42, 7);
        let mut b = SimRng::for_entity(42, 8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_masters_diverge() {
        let mut a = SimRng::for_entity(1, 7);
        let mut b = SimRng::for_entity(2, 7);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn label_streams_are_stable() {
        let mut a = SimRng::for_label(42, "BNL_ATLAS_Tier1");
        let mut b = SimRng::for_label(42, "BNL_ATLAS_Tier1");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = SimRng::for_label(42, "FNAL_CMS");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = SimRng::for_entity(1, 1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::for_entity(9, 9);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_and_pick_cover_domain() {
        let mut r = SimRng::for_entity(3, 3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let items = ["a", "b", "c"];
        let p = r.pick(&items);
        assert!(items.contains(p));
    }

    #[test]
    fn serde_round_trip_resumes_mid_stream() {
        use serde::{Deserialize, Serialize};
        let mut r = SimRng::for_entity(42, 0xB0B);
        for _ in 0..37 {
            r.next_u64();
        }
        let mut restored = SimRng::from_value(&r.to_value()).unwrap();
        let mut decoded: SimRng = serde::binary::from_bytes(&serde::binary::to_bytes(&r)).unwrap();
        for _ in 0..64 {
            let want = r.next_u64();
            assert_eq!(want, restored.next_u64());
            assert_eq!(want, decoded.next_u64());
        }
    }

    #[test]
    fn range_f64_degenerate_returns_lo() {
        let mut r = SimRng::for_entity(5, 5);
        assert_eq!(r.range_f64(3.0, 3.0), 3.0);
        assert_eq!(r.range_f64(4.0, 2.0), 4.0);
    }
}
