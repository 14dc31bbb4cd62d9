//! Minimal, deterministic stand-in for the `rand` crate.
//!
//! The build environment for this repository is fully offline, so the real
//! `rand` cannot be fetched; this in-tree crate provides exactly the API
//! surface the workspace consumes (`SmallRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen_range` over integer and float ranges) with a high-quality
//! deterministic generator (xoshiro256++ seeded via SplitMix64).
//!
//! Determinism is the property the simulator actually depends on — the
//! replay methodology requires that the same seed reproduces the same
//! "arbitrary" schedule bit-for-bit — and that holds here by construction:
//! the sequence is a pure function of the seed and is identical on every
//! platform.

use std::ops::{Range, RangeInclusive};

/// Construction of RNGs from integer seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The sampling interface: everything callers use goes through
/// [`Rng::gen_range`].
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from `range` (half-open or inclusive integer ranges,
    /// half-open float ranges).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }
}

/// Ranges that can produce uniform samples.
pub trait SampleRange<T> {
    /// Draw one uniform sample using `rng`.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % width) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let width = (hi - lo) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (width + 1)) as $t
            }
        }
    )*};
}

impl_int_range!(u32, u64, usize, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

/// RNG implementations, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; the stand-in
    /// for `rand`'s `SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2n = s2 ^ s0;
            let mut s3n = s3 ^ s1;
            let s1n = s1 ^ s2n;
            let s0n = s0 ^ s3n;
            s2n ^= t;
            s3n = s3n.rotate_left(45);
            self.s = [s0n, s1n, s2n, s3n];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: usize = r.gen_range(0..13);
            assert!(x < 13);
            let y: u64 = r.gen_range(500..7000);
            assert!((500..7000).contains(&y));
            let z: u64 = r.gen_range(0..=9);
            assert!(z <= 9);
            let f: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn integer_samples_cover_the_range() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn float_mean_is_centered() {
        let mut r = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen_range(0.0..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
