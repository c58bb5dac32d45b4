//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the narrow slice of the `rand 0.8` API it actually uses — the same move
//! the device layer already made for Gaussian sampling (Marsaglia polar
//! in-house instead of `rand_distr`). The generator behind
//! [`rngs::StdRng`] is xoshiro256** seeded through SplitMix64: not the
//! upstream ChaCha12 stream, but every consumer in this repository asserts
//! statistical ranges rather than exact draws, and xoshiro256** passes
//! BigCrush (and this repo's own NIST battery).
//!
//! Surface provided: [`RngCore`], [`SeedableRng`], [`Rng`] (with `gen`,
//! `gen_range`, `gen_bool`, `fill`), and [`rngs::StdRng`].

/// The core of a random number generator: raw word output.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Seed byte array type (e.g. `[u8; 32]`).
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a 64-bit seed, expanding it through
    /// SplitMix64 — deterministic and well-dispersed for any input,
    /// including 0.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let out = splitmix_next(&mut sm);
            for (b, byte) in chunk.iter_mut().zip(out.to_le_bytes()) {
                *b = byte;
            }
        }
        Self::from_seed(seed)
    }
}

/// The next output of the SplitMix64 stream whose state is `sm`.
fn splitmix_next(sm: &mut u64) -> u64 {
    *sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
    splitmix_finalize(*sm)
}

/// SplitMix64 finalizer.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types samplable uniformly from a generator's raw output (the stand-in
/// for `rand`'s `Standard` distribution).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: StandardSample, B: StandardSample> StandardSample for (A, B) {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (A::sample_standard(rng), B::sample_standard(rng))
    }
}

impl<A: StandardSample, B: StandardSample, C: StandardSample> StandardSample for (A, B, C) {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (
            A::sample_standard(rng),
            B::sample_standard(rng),
            C::sample_standard(rng),
        )
    }
}

/// Ranges samplable uniformly (the stand-in for `rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                #[allow(clippy::cast_possible_truncation)]
                { self.start + (uniform_u64(rng, span) as $t) }
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    #[allow(clippy::cast_possible_truncation)]
                    return rng.next_u64() as $t;
                }
                #[allow(clippy::cast_possible_truncation)]
                { start + (uniform_u64(rng, span + 1) as $t) }
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
                { self.start.wrapping_add(uniform_u64(rng, span) as $t) }
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = end.wrapping_sub(start) as u64;
                if span == u64::MAX {
                    #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
                    return rng.next_u64() as $t;
                }
                #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
                { start.wrapping_add(uniform_u64(rng, span + 1) as $t) }
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f64::sample_standard(rng);
        let v = self.start + (self.end - self.start) * unit;
        // Floating rounding can land exactly on `end`; fold it back.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        start + (end - start) * f64::sample_standard(rng)
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f32::sample_standard(rng);
        let v = self.start + (self.end - self.start) * unit;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Unbiased uniform draw from `[0, span)` (`span > 0`) via Lemire's
/// multiply-with-rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Rejection zone keeps the multiply-shift unbiased.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let raw = rng.next_u64();
        let (hi, lo) = {
            let wide = u128::from(raw) * u128::from(span);
            #[allow(clippy::cast_possible_truncation)]
            {
                ((wide >> 64) as u64, wide as u64)
            }
        };
        if lo <= zone {
            return hi;
        }
    }
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of a standard-samplable type (`rng.gen::<bool>()`,
    /// `rng.gen::<f64>()`, …).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from a range (`rng.gen_range(0..n)`,
    /// `rng.gen_range(-1.0..1.0)`).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_range(self)
    }

    /// Draws `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Fills a byte slice with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix_finalize, splitmix_next, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**.
    ///
    /// Small, fast, equidistributed in 64-bit words, and — unlike the
    /// upstream `StdRng` — fully defined in this repository, so seeded
    /// streams are stable across toolchains forever.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            Self::from_state(s)
        }

        /// The trait default's SplitMix64 expansion, word for word: each
        /// output becomes its state word directly, where the default packs
        /// it into the little-endian seed bytes that `from_seed` unpacks
        /// into the same word.
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            Self::from_state(std::array::from_fn(|_| splitmix_next(&mut sm)))
        }
    }

    impl StdRng {
        fn from_state(mut s: [u64; 4]) -> Self {
            // The all-zero state is a fixed point; remix it away.
            if s == [0; 4] {
                s = [
                    splitmix_finalize(1),
                    splitmix_finalize(2),
                    splitmix_finalize(3),
                    splitmix_finalize(4),
                ];
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    /// `SeedableRng`'s provided `seed_from_u64`, the byte-packed SplitMix64
    /// expansion, as `StdRng` would have it without its override.
    struct ByteSeeded(StdRng);

    impl SeedableRng for ByteSeeded {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            Self(StdRng::from_seed(seed))
        }
    }

    #[test]
    fn word_seeding_equals_the_byte_packed_expansion() {
        let mut sm = StdRng::seed_from_u64(0x5eed);
        let seeds = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63]
            .into_iter()
            .chain((0..10_000).map(|_| sm.next_u64()));
        for seed in seeds {
            assert_eq!(
                StdRng::seed_from_u64(seed),
                ByteSeeded::seed_from_u64(seed).0,
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0..=3usize);
            assert!(y <= 3);
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_are_uniformish() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bools_are_balanced() {
        let mut rng = StdRng::seed_from_u64(4);
        let ones = (0..100_000).filter(|_| rng.gen::<bool>()).count();
        assert!((45_000..55_000).contains(&ones), "ones {ones}");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
