//! Enrollment: the factory step that fixes the pair list and the golden
//! response.
//!
//! At enrollment the factory measures each ring several times, averages
//! the counts, chooses the pair list (for enrollment-dependent strategies
//! like 1-out-of-k), and stores the **reference response** plus each
//! pair's **margin** (relative frequency distance). The margin is the
//! quantity that decides whether a bit will survive aging: a pair whose
//! margin exceeds the lifetime differential drift never flips.

use aro_device::environment::Environment;
use aro_metrics::bits::BitString;

use crate::chip::Chip;
use crate::design::PufDesign;
use crate::pairing::PairingStrategy;

/// Default number of averaged measurement reads at enrollment.
pub const DEFAULT_ENROLLMENT_READS: usize = 5;

/// The stored outcome of enrolling one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Enrollment {
    pairs: Vec<(usize, usize)>,
    reference: BitString,
    margins_rel: Vec<f64>,
}

impl Enrollment {
    /// Enrolls `chip` under `env` with the default read count.
    #[must_use]
    pub fn perform(
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        strategy: &PairingStrategy,
    ) -> Self {
        Self::perform_with_reads(chip, design, env, strategy, DEFAULT_ENROLLMENT_READS)
    }

    /// Enrolls `chip`, averaging `reads` noisy measurements per ring.
    ///
    /// # Panics
    /// Panics if `reads` is zero.
    #[must_use]
    pub fn perform_with_reads(
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        strategy: &PairingStrategy,
        reads: usize,
    ) -> Self {
        assert!(reads > 0, "enrollment needs at least one read");
        let n_ros = design.n_ros();
        let mut mean_freqs = vec![0.0; n_ros];
        for _ in 0..reads {
            for (mean, m) in mean_freqs.iter_mut().zip(chip.measure_all(design, env)) {
                *mean += m.frequency();
            }
        }
        for mean in &mut mean_freqs {
            *mean /= reads as f64;
        }
        let pairs = strategy.pairs_with_enrollment(&mean_freqs);
        let reference: BitString = pairs
            .iter()
            .map(|&(a, b)| mean_freqs[a] > mean_freqs[b])
            .collect();
        let margins_rel = pairs
            .iter()
            .map(|&(a, b)| {
                let mid = 0.5 * (mean_freqs[a] + mean_freqs[b]);
                (mean_freqs[a] - mean_freqs[b]).abs() / mid
            })
            .collect();
        Self {
            pairs,
            reference,
            margins_rel,
        }
    }

    /// The enrolled pair list.
    #[must_use]
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The golden response stored at the factory.
    #[must_use]
    pub fn reference(&self) -> &BitString {
        &self.reference
    }

    /// Per-pair relative frequency margins at enrollment.
    #[must_use]
    pub fn margins_rel(&self) -> &[f64] {
        &self.margins_rel
    }

    /// Number of response bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.reference.len()
    }

    /// A masked copy keeping only pairs whose enrollment margin is at
    /// least `min_margin_rel` (threshold masking ablation). The helper
    /// data of a real device would store the kept indices.
    #[must_use]
    pub fn masked(&self, min_margin_rel: f64) -> Self {
        let keep: Vec<usize> = (0..self.bits())
            .filter(|&i| self.margins_rel[i] >= min_margin_rel)
            .collect();
        Self {
            pairs: keep.iter().map(|&i| self.pairs[i]).collect(),
            reference: keep.iter().map(|&i| self.reference.get(i)).collect(),
            margins_rel: keep.iter().map(|&i| self.margins_rel[i]).collect(),
        }
    }

    /// Reads the chip's current (noisy) response over the enrolled pairs.
    pub fn response_now(
        &self,
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
    ) -> BitString {
        chip.response(design, env, &self.pairs)
    }

    /// Fraction of bits currently differing from the golden response —
    /// the paper's "percentage of flipped bits" at the chip's present age
    /// and environment.
    pub fn flip_rate_now(&self, chip: &mut Chip, design: &PufDesign, env: &Environment) -> f64 {
        let now = self.response_now(chip, design, env);
        let rate = self.reference.hamming_distance(&now) as f64 / self.bits() as f64;
        // Per-chip BER stream for the fleet-health sketches; workers hand
        // their sketch back through the aro-par worker-index-order merge.
        aro_obs::sketch("puf.ber", rate);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;

    fn setup(style: RoStyle) -> (PufDesign, Environment, Chip) {
        let design = PufDesign::builder(style).n_ros(32).seed(55).build();
        let env = Environment::nominal(design.tech());
        let chip = Chip::fabricate(&design, 0);
        (design, env, chip)
    }

    #[test]
    fn enrollment_matches_golden_response() {
        let (design, env, mut chip) = setup(RoStyle::Conventional);
        let strategy = PairingStrategy::Neighbor;
        let e = Enrollment::perform(&mut chip, &design, &env, &strategy);
        let golden = chip.golden_response(&design, &env, e.pairs());
        // Averaged enrollment should agree with the noiseless truth on all
        // but possibly razor-thin pairs.
        assert!(e.reference().hamming_distance(&golden) <= 1);
        assert_eq!(e.bits(), 16);
        assert_eq!(e.margins_rel().len(), 16);
    }

    #[test]
    fn margins_are_positive_and_percent_scale() {
        let (design, env, mut chip) = setup(RoStyle::Conventional);
        let e = Enrollment::perform(&mut chip, &design, &env, &PairingStrategy::Neighbor);
        assert!(e.margins_rel().iter().all(|&m| (0.0..0.25).contains(&m)));
        let mean: f64 = e.margins_rel().iter().sum::<f64>() / e.bits() as f64;
        assert!(mean > 0.001, "mean margin {mean} should be percent-scale");
    }

    #[test]
    fn masking_drops_weak_pairs_only() {
        let (design, env, mut chip) = setup(RoStyle::Conventional);
        let e = Enrollment::perform(&mut chip, &design, &env, &PairingStrategy::Neighbor);
        let threshold = {
            let mut m = e.margins_rel().to_vec();
            m.sort_by(f64::total_cmp);
            m[m.len() / 2]
        };
        let masked = e.masked(threshold);
        assert!(masked.bits() <= e.bits());
        assert!(masked.margins_rel().iter().all(|&m| m >= threshold));
    }

    #[test]
    fn fresh_chip_flip_rate_is_tiny() {
        let (design, env, mut chip) = setup(RoStyle::AgingResistant);
        let e = Enrollment::perform(&mut chip, &design, &env, &PairingStrategy::Neighbor);
        let flips = e.flip_rate_now(&mut chip, &design, &env);
        assert!(flips < 0.15, "fresh-silicon flip rate {flips}");
    }

    #[test]
    fn one_out_of_k_enrollment_has_bigger_margins() {
        let (design, env, mut chip) = setup(RoStyle::Conventional);
        let neighbor = Enrollment::perform(&mut chip, &design, &env, &PairingStrategy::Neighbor);
        let sorted = Enrollment::perform(
            &mut chip,
            &design,
            &env,
            &PairingStrategy::SortedOneOutOfK { k: 8 },
        );
        let mean = |e: &Enrollment| e.margins_rel().iter().sum::<f64>() / e.bits() as f64;
        assert!(mean(&sorted) > mean(&neighbor));
        assert_eq!(sorted.bits(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one read")]
    fn zero_reads_panics() {
        let (design, env, mut chip) = setup(RoStyle::Conventional);
        let _ =
            Enrollment::perform_with_reads(&mut chip, &design, &env, &PairingStrategy::Neighbor, 0);
    }
}
