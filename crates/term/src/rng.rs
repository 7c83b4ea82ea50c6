//! A small vendored pseudo-random number generator.
//!
//! The workload generators and the benchmark harness need reproducible
//! randomness, not cryptographic quality. To keep the build hermetic (no
//! registry dependencies, no network at build time) this module vendors
//! the classic **`SplitMix64`** generator — the same mixer `rand` uses to
//! seed its own engines — behind a minimal [`Rng`] trait mirroring the
//! handful of `rand` methods the codebase relies on.
//!
//! Determinism guarantee: for a fixed seed, the sequence of values is
//! identical across platforms, processes and runs; every generator in
//! `flogic-gen` is therefore reproducible from a single `u64`.

use std::ops::Range;

/// Minimal random-source trait: a `u64` stream plus derived helpers.
///
/// The derived methods intentionally mirror the subset of the `rand`
/// crate's API used by this workspace (`random_range`, `random_bool`), so
/// swapping a different engine in means implementing [`Rng::next_u64`]
/// only.
pub trait Rng {
    /// Returns the next raw 64-bit value of the stream.
    fn next_u64(&mut self) -> u64;

    /// Uniform integer in `range` (half-open). Panics on an empty range.
    ///
    /// Uses Lemire-style rejection via 128-bit multiplication, so the
    /// distribution is exactly uniform (no modulo bias).
    fn random_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "random_range on empty range");
        let span = (range.end - range.start) as u64;
        // widening multiply: map the 64-bit stream onto [0, span)
        let mut x = self.next_u64();
        let mut m = u128::from(x).wrapping_mul(u128::from(span));
        let mut lo = m as u64;
        if lo < span {
            let t = span.wrapping_neg() % span;
            while lo < t {
                x = self.next_u64();
                m = u128::from(x).wrapping_mul(u128::from(span));
                lo = m as u64;
            }
        }
        range.start + (m >> 64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of mantissa — the same resolution `rand` offers.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// Extension trait: uniform choice from a slice (the `rand`
/// `IndexedRandom::choose` replacement).
pub trait SliceRandom<T> {
    /// Returns a uniformly chosen element, or `None` on an empty slice.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T>;
}

impl<T> SliceRandom<T> for [T] {
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.random_range(0..self.len())])
        }
    }
}

/// `SplitMix64` (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number
/// Generators*, OOPSLA 2014): a 64-bit state, one add and two xor-shift
/// multiplies per draw. Passes `BigCrush` when seeded arbitrarily; perfect
/// for reproducible synthetic workloads.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds ⇒ equal streams.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 1_234_567 from the published SplitMix64
        // C implementation.
        let mut g = SplitMix64::seed_from_u64(1_234_567);
        let first: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut g = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let x = g.random_range(10..15);
            assert!((10..15).contains(&x));
            seen[x - 10] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 5 values hit in 200 draws");
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut g = SplitMix64::seed_from_u64(11);
        assert!(!(0..100).any(|_| g.random_bool(0.0)));
        assert!((0..100).all(|_| g.random_bool(1.0)));
        let hits = (0..10_000).filter(|_| g.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "~25% expected, got {hits}");
    }

    #[test]
    fn choose_is_uniform_enough() {
        let mut g = SplitMix64::seed_from_u64(3);
        let xs = [1, 2, 3, 4];
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut g).is_none());
        let mut counts = [0usize; 4];
        for _ in 0..4_000 {
            counts[*xs.choose(&mut g).unwrap() - 1] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }
}
