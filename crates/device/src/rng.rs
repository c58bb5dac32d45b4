//! Deterministic random sampling for reproducible Monte Carlo.
//!
//! Every experiment in this repository is seeded, and every sub-system
//! (chip, transistor, measurement) derives its own independent stream from a
//! master seed via [`SeedDomain`], so adding a new consumer of randomness
//! never perturbs existing results ("seed stability").
//!
//! Gaussian variates are generated in-house with the Marsaglia polar method
//! instead of pulling in `rand_distr` (the offline registry pairs
//! `rand_distr` with a different `rand` major version; 25 lines of polar
//! method beat a version-skew hazard).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest |z| [`standard_normal`] can return, rounded up: just above
/// √(208 ln 2) = 12.00727….
///
/// The polar method returns `z = u·√(−2 ln s / s)` with `s = u² + v²`, so
/// `|z| ≤ √s · √(−2 ln s / s) = √(−2 ln s)`, which grows as `s` shrinks.
/// The vendored `rand` draws `u` and `v` from `gen_range(-1.0..1.0)`,
/// which is `−1 + k·2⁻⁵²` for a 53-bit `k`: a grid whose smallest nonzero
/// magnitude is 2⁻⁵², held exactly in an `f64`. The acceptance test
/// `0 < s < 1` rejects `u = v = 0`, so every accepted pair has
/// `s ≥ 2⁻¹⁰⁴` and `|z| ≤ √(−2 ln 2⁻¹⁰⁴) = √(208 ln 2)`. The bound is
/// reached at `u = ±2⁻⁵², v = 0`, where `s = 2⁻¹⁰⁴` exactly; a brute
/// force over the grid's smallest values finds nothing larger, and the
/// next candidates (`u = ±2⁻⁵¹` alone, or `u = v = ±2⁻⁵²`) give 11.89
/// and 8.45. The margin above 12.00727 covers the rounding of `ln`, the
/// division and the square root, a few ulps.
pub const STANDARD_NORMAL_BOUND: f64 = 12.0073;

/// Draws a standard-normal variate (mean 0, sigma 1) using the Marsaglia
/// polar method.
///
/// Never returns `|z| > 12.00727…` ([`STANDARD_NORMAL_BOUND`]). The bound
/// rests on two facts: `rng.gen_range(-1.0..1.0)` draws `u` and `v` from a
/// grid of spacing 2⁻⁵² (the vendored `rand`'s 53-bit unit interval), and
/// the `0 < s < 1` acceptance test rejects the one point `s = 0`. A change
/// to either moves the bound, and the readout's noise envelope with it
/// (`aro_circuit::readout::ReadoutConfig::decided_bit`).
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = aro_device::rng::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
/// Panics in debug builds if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Draws a log-normal multiplier with median 1 whose underlying normal has
/// standard deviation `sigma_rel`.
///
/// Used for per-device aging variability: multiplying a deterministic
/// degradation by `lognormal_multiplier(rng, s)` yields a strictly positive,
/// right-skewed device-to-device spread, as observed in silicon BTI data.
pub fn lognormal_multiplier<R: Rng + ?Sized>(rng: &mut R, sigma_rel: f64) -> f64 {
    (sigma_rel * standard_normal(rng)).exp()
}

/// Hierarchical seed derivation: a named domain of a master seed.
///
/// `SeedDomain` hashes `(master, label, index)` with SplitMix64 so that e.g.
/// chip 17's transistor mismatch stream is independent of chip 18's and of
/// every measurement-noise stream, yet fully determined by the master seed.
///
/// # Example
/// ```
/// use aro_device::rng::SeedDomain;
/// let root = SeedDomain::new(42);
/// let chips = root.child("chips");
/// let rng_a = chips.rng(17);
/// let rng_b = chips.rng(17);
/// // Same path, same stream:
/// assert_eq!(format!("{rng_a:?}").len(), format!("{rng_b:?}").len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedDomain {
    state: u64,
}

impl SeedDomain {
    /// Creates the root domain from a master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            state: splitmix64(master_seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Derives a sub-domain named by `label` (e.g. `"chips"`, `"readout"`).
    ///
    /// The label length is mixed in as a terminator so that
    /// `child("a").child("b")` and `child("ab")` yield distinct domains.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        let mut state = self.state;
        for byte in label.as_bytes() {
            state = splitmix64(state ^ u64::from(*byte));
        }
        state = splitmix64(state ^ (label.len() as u64) ^ 0x5b5b_0000_c0de_0001);
        Self { state }
    }

    /// Derives the `index`-th seed within this domain.
    #[must_use]
    pub fn seed(&self, index: u64) -> u64 {
        splitmix64(self.state ^ splitmix64(index.wrapping_add(0xabcd_ef01)))
    }

    /// Builds a deterministic [`StdRng`] for the `index`-th member of this
    /// domain.
    #[must_use]
    pub fn rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed(index))
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixing function.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sample_stats(n: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
        let xs: Vec<f64> = (0..n).map(|_| f()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mean, sd) = sample_stats(200_000, || standard_normal(&mut rng));
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((sd - 1.0).abs() < 0.01, "sd = {sd}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mean, sd) = sample_stats(100_000, || normal(&mut rng, 5.0, 0.5));
        assert!((mean - 5.0).abs() < 0.01);
        assert!((sd - 0.5).abs() < 0.01);
    }

    #[test]
    fn lognormal_multiplier_is_positive_with_median_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs: Vec<f64> = (0..100_001)
            .map(|_| lognormal_multiplier(&mut rng, 0.5))
            .collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.02, "median = {median}");
    }

    #[test]
    fn lognormal_with_zero_sigma_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(lognormal_multiplier(&mut rng, 0.0), 1.0);
    }

    /// Yields scripted words, then panics: a draw that takes one word
    /// more than scripted fails loudly.
    struct Scripted(Vec<u64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            unreachable!("standard_normal draws 64-bit words")
        }
        fn next_u64(&mut self) -> u64 {
            assert!(!self.0.is_empty(), "draw took more words than scripted");
            self.0.remove(0)
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("standard_normal draws 64-bit words")
        }
    }

    /// The word that makes `gen_range(-1.0..1.0)` return `k · 2⁻⁵²`.
    fn grid_word(k: i64) -> u64 {
        ((1u64 << 52).wrapping_add_signed(k)) << 11
    }

    #[test]
    fn standard_normal_peaks_at_the_smallest_grid_step() {
        let sqrt_208_ln2 = (208.0 * std::f64::consts::LN_2).sqrt();
        for (k, sign) in [(1, 1.0), (-1, -1.0)] {
            let z = standard_normal(&mut Scripted(vec![grid_word(k), grid_word(0)]));
            assert_eq!(z, sign * sqrt_208_ln2, "u = {k}·2⁻⁵², v = 0");
            assert!((z.abs() - 12.007_27).abs() < 1e-5, "z = {z}");
            assert!(z.abs() < STANDARD_NORMAL_BOUND);
        }
        // Every accepted pair of the grid's smallest values stays within
        // the peak; u = v = 0 is rejected and draws a second pair.
        for k in -64..=64 {
            for l in -64..=64 {
                let words = vec![grid_word(k), grid_word(l), grid_word(1), grid_word(0)];
                let z = standard_normal(&mut Scripted(words));
                assert!(z.abs() <= sqrt_208_ln2, "u = {k}·2⁻⁵², v = {l}·2⁻⁵²: {z}");
            }
        }
    }

    #[test]
    fn seed_domain_is_deterministic() {
        let a = SeedDomain::new(99).child("chips").seed(5);
        let b = SeedDomain::new(99).child("chips").seed(5);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_domain_children_are_independent() {
        let root = SeedDomain::new(99);
        assert_ne!(root.child("chips").seed(0), root.child("readout").seed(0));
        assert_ne!(root.child("chips").seed(0), root.child("chips").seed(1));
        assert_ne!(SeedDomain::new(1).seed(0), SeedDomain::new(2).seed(0));
    }

    #[test]
    fn seed_domain_rngs_reproduce_streams() {
        let dom = SeedDomain::new(7).child("x");
        let mut r1 = dom.rng(3);
        let mut r2 = dom.rng(3);
        for _ in 0..16 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn nested_children_differ_from_flat_labels() {
        let root = SeedDomain::new(0);
        assert_ne!(
            root.child("a").child("b").seed(0),
            root.child("ab").seed(0),
            "path separator must matter"
        );
    }
}
