//! End-to-end 128-bit key generation: design-point selection + fuzzy
//! extraction.

use aro_metrics::bits::BitString;
use rand::Rng;

use crate::area::{search_design, KeyGenSpec, PufAreaParams};
use crate::bch::BchCode;
use crate::concat::ConcatenatedCode;
use crate::fuzzy::{FuzzyExtractor, HelperData, Key};
use crate::repetition::RepetitionCode;

/// A complete PUF key generator: a concatenated code sized for a target
/// BER, wrapped in a code-offset fuzzy extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyGenerator {
    extractor: FuzzyExtractor<ConcatenatedCode>,
    spec: KeyGenSpec,
    key_bits: usize,
}

impl KeyGenerator {
    /// Builds the generator for a previously searched design point.
    ///
    /// # Panics
    /// Panics if the spec has no outer BCH code (`bch_m == 0`); pure
    /// repetition points are handled by re-running
    /// [`Self::for_bit_error_rate`] with a nonzero floor, and never win
    /// the search at realistic BERs anyway.
    #[must_use]
    pub fn from_spec(spec: &KeyGenSpec, key_bits: usize) -> Self {
        assert!(spec.bch_m > 0, "spec must include an outer BCH code");
        let code = ConcatenatedCode::new(
            BchCode::new(spec.bch_m, spec.bch_t),
            RepetitionCode::new(spec.rep_r),
        );
        Self {
            extractor: FuzzyExtractor::new(code, spec.blocks),
            spec: spec.clone(),
            key_bits,
        }
    }

    /// Searches the design space for `p_bit` and builds the winning
    /// generator. Returns `None` if no swept design meets the failure
    /// target.
    #[must_use]
    pub fn for_bit_error_rate(
        p_bit: f64,
        key_bits: usize,
        p_fail_target: f64,
        puf: &PufAreaParams,
    ) -> Option<Self> {
        Self::for_bit_error_rate_via(search_design, p_bit, key_bits, p_fail_target, puf)
    }

    /// [`KeyGenerator::for_bit_error_rate`] with the design-space search
    /// injected, so callers holding a memoized search (the simulation's
    /// run-scoped provisioning cache) reuse this exact fallback logic
    /// instead of duplicating it.
    #[must_use]
    pub fn for_bit_error_rate_via(
        mut search: impl FnMut(f64, usize, f64, &PufAreaParams) -> Option<KeyGenSpec>,
        p_bit: f64,
        key_bits: usize,
        p_fail_target: f64,
        puf: &PufAreaParams,
    ) -> Option<Self> {
        let mut spec = search(p_bit, key_bits, p_fail_target, puf)?;
        if spec.bch_m == 0 {
            // Promote a repetition-only winner to a degenerate BCH wrapper
            // by re-searching with repetition excluded — keeps the
            // generator uniform. In practice this only triggers at p ≈ 0.
            spec = search(p_bit.max(1e-4), key_bits, p_fail_target, puf)?;
            if spec.bch_m == 0 {
                return None;
            }
        }
        Some(Self::from_spec(&spec, key_bits))
    }

    /// The chosen design point.
    #[must_use]
    pub fn spec(&self) -> &KeyGenSpec {
        &self.spec
    }

    /// Raw PUF response bits consumed per enrollment.
    #[must_use]
    pub fn response_bits(&self) -> usize {
        self.extractor.response_bits()
    }

    /// Key width in bits.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.key_bits
    }

    /// Enrollment: derive the key and helper data from the enrollment
    /// response.
    ///
    /// # Panics
    /// Panics if `response` is shorter than [`Self::response_bits`].
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        response: &BitString,
        rng: &mut R,
    ) -> (BitString, HelperData) {
        aro_obs::counter("ecc.key_enrollments", 1);
        let (key, helper) = self.extractor.generate(response, rng);
        (key.truncated(self.key_bits), helper)
    }

    /// Reconstruction from a noisy re-reading; `None` when the response
    /// drifted beyond the code's capability (a key failure).
    #[must_use]
    pub fn reconstruct(&self, response: &BitString, helper: &HelperData) -> Option<BitString> {
        aro_obs::counter("ecc.key_reconstructions", 1);
        let key = self
            .extractor
            .reproduce(response, helper)
            .map(|key: Key| key.truncated(self.key_bits));
        if key.is_none() {
            aro_obs::counter("ecc.key_failures", 1);
        }
        key
    }

    /// Soft-decision reconstruction: the inner repetition majority is
    /// confidence-weighted (see [`crate::soft`]), recovering keys that a
    /// hard reading at the same silicon would lose. Feed it the readout's
    /// `(bit, |Δcount|)` pairs. Positions the caller knows to be
    /// unreliable (NVM-flagged helper bits, BIST-flagged rings) decode as
    /// zero-confidence erasures — see `soft::reproduce_soft`; pass
    /// [`Erasures::none`](crate::soft::Erasures::none) to decode blind.
    /// `None` on a key failure, including a response shorter than
    /// [`Self::response_bits`].
    #[must_use]
    pub fn reconstruct_soft(
        &self,
        response: &[crate::soft::SoftBit],
        helper: &HelperData,
        erasures: &crate::soft::Erasures,
    ) -> Option<BitString> {
        aro_obs::counter("ecc.key_reconstructions_soft", 1);
        if !erasures.is_empty() {
            aro_obs::counter("ecc.erasure_aware_reconstructions", 1);
        }
        let key = crate::soft::reproduce_soft(self.extractor.code(), response, helper, erasures)
            .map(|key: Key| key.truncated(self.key_bits));
        if key.is_none() {
            aro_obs::counter("ecc.key_failures", 1);
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn puf_params() -> PufAreaParams {
        PufAreaParams {
            ro_cell_ge: 3.0,
            readout_fixed_ge: 120.0,
            readout_per_ro_ge: 3.0,
            ros_per_bit: 2.0,
        }
    }

    fn random_bits(n: usize, rng: &mut StdRng) -> BitString {
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn generator_enrolls_and_reconstructs_128_bit_keys() {
        let kg = KeyGenerator::for_bit_error_rate(0.08, 128, 1e-6, &puf_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let response = random_bits(kg.response_bits(), &mut rng);
        let (key, helper) = kg.enroll(&response, &mut rng);
        assert_eq!(key.len(), 128);
        assert_eq!(kg.reconstruct(&response, &helper), Some(key));
    }

    #[test]
    fn reconstruction_survives_the_design_ber() {
        let p = 0.08;
        let kg = KeyGenerator::for_bit_error_rate(p, 128, 1e-6, &puf_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let response = random_bits(kg.response_bits(), &mut rng);
        let (key, helper) = kg.enroll(&response, &mut rng);
        let mut successes = 0;
        let trials = 25;
        for _ in 0..trials {
            let mut noisy = response.clone();
            for i in 0..noisy.len() {
                if rng.gen::<f64>() < p {
                    noisy.flip(i);
                }
            }
            if kg.reconstruct(&noisy, &helper) == Some(key.clone()) {
                successes += 1;
            }
        }
        assert_eq!(
            successes, trials,
            "a 1e-6 design point must not fail in 25 trials"
        );
    }

    #[test]
    fn short_soft_response_fails_closed() {
        use crate::soft::{Erasures, SoftBit};
        let kg = KeyGenerator::for_bit_error_rate(0.08, 128, 1e-6, &puf_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let response = random_bits(kg.response_bits(), &mut rng);
        let (key, helper) = kg.enroll(&response, &mut rng);
        let soft: Vec<SoftBit> = response.iter().map(|bit| SoftBit::new(bit, 1.0)).collect();
        assert_eq!(
            kg.reconstruct_soft(&soft, &helper, &Erasures::none()),
            Some(key)
        );
        let short = &soft[..soft.len() - 1];
        assert_eq!(kg.reconstruct_soft(short, &helper, &Erasures::none()), None);
    }

    #[test]
    fn hopeless_ber_is_rejected() {
        assert!(KeyGenerator::for_bit_error_rate(0.5, 128, 1e-6, &puf_params()).is_none());
    }

    #[test]
    fn higher_ber_costs_more_response_bits() {
        let low = KeyGenerator::for_bit_error_rate(0.05, 128, 1e-6, &puf_params()).unwrap();
        let high = KeyGenerator::for_bit_error_rate(0.30, 128, 1e-6, &puf_params()).unwrap();
        assert!(high.response_bits() > low.response_bits());
        assert!(high.spec().total_ge() > low.spec().total_ge());
    }

    #[test]
    fn key_width_is_configurable() {
        let kg = KeyGenerator::for_bit_error_rate(0.05, 256, 1e-6, &puf_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let response = random_bits(kg.response_bits(), &mut rng);
        let (key, _) = kg.enroll(&response, &mut rng);
        assert_eq!(key.len(), 256);
        assert_eq!(kg.key_bits(), 256);
    }
}
