//! Random Telegraph Noise (RTN): discrete trap-induced threshold
//! fluctuation.
//!
//! Individual oxide traps capture and emit channel carriers, making a
//! small transistor's threshold hop between discrete levels on
//! millisecond-to-second timescales. For a PUF this is the *other*
//! measurement-noise source besides jitter: two reads separated by
//! seconds can see different trap occupancies, so close RO pairs flip
//! even with long gate times that average jitter away.
//!
//! Model (standard compact form):
//! * trap count per device ~ Poisson(density × gate area),
//! * trap amplitude ~ Exponential, with mean ∝ 1/(W·L) (charge sharing),
//! * occupancy per read ~ Bernoulli(p) with p uniform per trap.
//!
//! [`RtnTraps`] is the per-device trap set (sampled at fabrication);
//! [`frequency_sigma_rel`] aggregates the population statistics into the
//! relative frequency sigma a ring's readout sees, which
//! `aro_circuit::readout::ReadoutConfig` can fold into its noise floor.

use rand::Rng;

use crate::mosfet::Geometry;
use crate::params::TechParams;

/// Trap density per µm² of gate area. *Published*: one to a few traps in
/// a deep-submicron minimum device.
pub const TRAP_DENSITY_PER_UM2: f64 = 25.0;

/// Mean single-trap amplitude coefficient in V·µm²: the mean amplitude
/// of one trap in a device of area A is `COEFF / A`.
pub const TRAP_AMPLITUDE_COEFF_V_UM2: f64 = 1.0e-4;

/// The sampled trap set of one transistor.
#[derive(Debug, Clone, PartialEq)]
pub struct RtnTraps {
    amplitudes_v: Vec<f64>,
    occupancy_prob: Vec<f64>,
}

impl RtnTraps {
    /// Samples a device's traps at fabrication.
    pub fn sample<R: Rng + ?Sized>(geometry: Geometry, rng: &mut R) -> Self {
        let area_um2 = geometry.area_m2() * 1e12;
        let expected = TRAP_DENSITY_PER_UM2 * area_um2;
        let count = poisson(expected, rng);
        let mean_amp = TRAP_AMPLITUDE_COEFF_V_UM2 / area_um2;
        let amplitudes_v = (0..count)
            .map(|_| {
                // Exponential via inverse CDF.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean_amp * u.ln()
            })
            .collect();
        let occupancy_prob = (0..count).map(|_| rng.gen_range(0.05..0.95)).collect();
        Self {
            amplitudes_v,
            occupancy_prob,
        }
    }

    /// Number of traps in this device.
    #[must_use]
    pub fn count(&self) -> usize {
        self.amplitudes_v.len()
    }

    /// Standard deviation of the instantaneous threshold around its mean,
    /// in volts (`sqrt(Σ aᵢ²·pᵢ·(1−pᵢ))`).
    #[must_use]
    pub fn sigma_dvth(&self) -> f64 {
        self.amplitudes_v
            .iter()
            .zip(&self.occupancy_prob)
            .map(|(a, p)| a * a * p * (1.0 - p))
            .sum::<f64>()
            .sqrt()
    }

    /// Draws one read's instantaneous threshold offset relative to the
    /// mean, in volts (fresh occupancy per trap).
    pub fn instantaneous_dvth<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.amplitudes_v
            .iter()
            .zip(&self.occupancy_prob)
            .map(|(a, p)| {
                if rng.gen_range(0.0..1.0) < *p {
                    a * (1.0 - p)
                } else {
                    -a * p
                }
            })
            .sum()
    }
}

/// Expected relative frequency sigma of an `n_transistors`-device ring
/// from RTN, for devices of the given geometry: per-device threshold
/// sigma mapped through the alpha-power sensitivity and averaged over the
/// ring.
#[must_use]
pub fn frequency_sigma_rel(tech: &TechParams, geometry: Geometry, n_transistors: usize) -> f64 {
    let area_um2 = geometry.area_m2() * 1e12;
    let expected_traps = TRAP_DENSITY_PER_UM2 * area_um2;
    let mean_amp = TRAP_AMPLITUDE_COEFF_V_UM2 / area_um2;
    // Var per trap with p ~ U(0.05, 0.95), a ~ Exp(mean_amp):
    // E[a²] = 2·mean² ; E[p(1−p)] ≈ 0.216 over that window.
    let var_per_trap = 2.0 * mean_amp * mean_amp * 0.216;
    let sigma_vth = (expected_traps * var_per_trap).sqrt();
    let overdrive = tech.vdd_nominal - tech.vth0_n;
    // Ring frequency averages the stages, so the per-device sigma shrinks
    // by sqrt(n).
    tech.alpha * sigma_vth / overdrive / (n_transistors as f64).sqrt()
}

/// Poisson sampling (Knuth's method — fine for small means).
fn poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let threshold = (-mean).exp();
    let mut count = 0usize;
    let mut product: f64 = rng.gen_range(0.0..1.0);
    while product > threshold {
        count += 1;
        product *= rng.gen_range(0.0..1.0_f64);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedDomain;

    #[test]
    fn trap_count_scales_with_area() {
        let mut rng = SeedDomain::new(61).rng(0);
        let small = Geometry::new(200.0, 100.0);
        let large = Geometry::new(2000.0, 400.0);
        let mean_count = |g: Geometry, rng: &mut rand::rngs::StdRng| {
            (0..2000)
                .map(|_| RtnTraps::sample(g, rng).count())
                .sum::<usize>() as f64
                / 2000.0
        };
        let small_mean = mean_count(small, &mut rng);
        let large_mean = mean_count(large, &mut rng);
        let area_ratio = large.area_m2() / small.area_m2();
        assert!(
            (large_mean / small_mean - area_ratio).abs() / area_ratio < 0.2,
            "counts {small_mean} vs {large_mean}, area ratio {area_ratio}"
        );
    }

    #[test]
    fn small_devices_fluctuate_more() {
        // Amplitude ∝ 1/area beats count ∝ area: the population-RMS
        // threshold fluctuation scales as 1/sqrt(area).
        let mut rng = SeedDomain::new(62).rng(0);
        let rms_of = |g: Geometry, rng: &mut rand::rngs::StdRng| {
            ((0..4000)
                .map(|_| RtnTraps::sample(g, rng).sigma_dvth().powi(2))
                .sum::<f64>()
                / 4000.0)
                .sqrt()
        };
        let small = rms_of(Geometry::new(200.0, 100.0), &mut rng);
        let large = rms_of(Geometry::new(800.0, 200.0), &mut rng);
        // Area ratio 8 → RMS ratio sqrt(8) ≈ 2.83.
        assert!(
            (small / large - 8f64.sqrt()).abs() < 0.6,
            "RMS ratio {} vs expected {}",
            small / large,
            8f64.sqrt()
        );
    }

    #[test]
    fn instantaneous_offsets_are_zero_mean_with_matching_sigma() {
        let mut rng = SeedDomain::new(63).rng(0);
        // A device with a decent trap population.
        let traps = loop {
            let t = RtnTraps::sample(Geometry::default(), &mut rng);
            if t.count() >= 2 {
                break t;
            }
        };
        let samples: Vec<f64> = (0..20_000)
            .map(|_| traps.instantaneous_dvth(&mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (samples.len() - 1) as f64)
            .sqrt();
        assert!(mean.abs() < 0.2 * traps.sigma_dvth() + 1e-7, "mean {mean}");
        assert!(
            (sd / traps.sigma_dvth() - 1.0).abs() < 0.1,
            "sd {sd} vs {}",
            traps.sigma_dvth()
        );
    }

    #[test]
    fn aggregate_frequency_sigma_is_small_but_nonzero() {
        let tech = TechParams::default();
        let sigma = frequency_sigma_rel(&tech, Geometry::default(), 10);
        assert!(sigma > 1e-6 && sigma < 1e-2, "RTN frequency sigma {sigma}");
        // Bigger devices → less RTN.
        let big = frequency_sigma_rel(&tech, Geometry::new(1600.0, 200.0), 10);
        assert!(big < sigma);
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = SeedDomain::new(64).rng(0);
        let mean_hat = (0..20_000).map(|_| poisson(3.0, &mut rng)).sum::<usize>() as f64 / 20_000.0;
        assert!((mean_hat - 3.0).abs() < 0.1, "{mean_hat}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }
}
