//! Offline stand-in for the `rand` crate.
//!
//! The workspace's build environment has no registry access, so this crate
//! vendors the *narrow* subset of the rand 0.8 API the simulator uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen`]/[`Rng::gen_range`]/[`Rng::gen_bool`], and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator is SplitMix64 — statistically fine for simulation workloads
//! and, crucially, **deterministic per seed**, which is the only property the
//! workspace relies on (reproducible schedules, noise streams and random
//! graphs). The stream intentionally makes no attempt to match the real
//! `StdRng` (ChaCha12).

use std::ops::{Range, RangeInclusive};

/// Low-level source of raw random words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 bits of the stream.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A value that can be drawn uniformly from the full range of its type.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// An integer type usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy {
    /// Lossless widening used for uniform range sampling.
    fn to_u64(self) -> u64;
    /// Inverse of [`SampleUniform::to_u64`] for in-range values.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize);

/// A range argument accepted by [`Rng::gen_range`]: `lo..hi` or `lo..=hi`.
pub trait SampleRange<T> {
    /// Inclusive `(low, high)` bounds; panics on an empty range.
    fn bounds(self) -> (u64, u64);
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn bounds(self) -> (u64, u64) {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "gen_range called with an empty range");
        (lo, hi - 1)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (u64, u64) {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "gen_range called with an empty range");
        (lo, hi)
    }
}

/// The user-facing sampling API (blanket-implemented for every [`RngCore`]).
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferred primitive type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws a uniform integer from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        let (lo, hi) = range.bounds();
        let span = hi - lo + 1; // hi < u64::MAX in every workspace use
        if span == 0 {
            // Full-width inclusive range.
            return T::from_u64(self.next_u64());
        }
        // Debiased multiply-shift rejection sampling (Lemire).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            let low = m as u64;
            if low >= span.wrapping_neg() % span {
                return T::from_u64(lo + (m >> 64) as u64);
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1]"
        );
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator (SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling of slices in place.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

/// The conventional glob-import module.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[expect(
    clippy::disallowed_methods,
    reason = "D3: the shim's own tests construct generators to check the seeded stream"
)]
#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u32 = rng.gen_range(0..=5);
            assert!(y <= 5);
        }
        // Degenerate singleton range.
        assert_eq!(rng.gen_range(4u64..=4), 4);
    }

    #[test]
    fn gen_range_covers_small_ranges_uniformly_enough() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[rng.gen_range(0..4usize)] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "counts far from uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn gen_bool_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let trues = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4000..6000).contains(&trues));
    }

    #[test]
    #[should_panic]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "a 50-element shuffle should not be the identity");
    }
}
