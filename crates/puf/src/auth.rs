//! Challenge/response authentication — the PUF application the paper's
//! introduction motivates alongside key generation.
//!
//! A verifier enrolls a table of challenge/response pairs (CRPs) at the
//! factory. In the field it issues a stored challenge and accepts the
//! device iff the answer lands within a Hamming-distance threshold of the
//! enrolled response. The scheme lives or dies on the gap between the
//! *genuine* distance distribution (noise + **aging**) and the *impostor*
//! distribution (~50 %): aging eats the margin from the left, which is
//! exactly what EXP-12 quantifies for the two cell styles.

use aro_device::environment::Environment;
use aro_metrics::bits::BitString;
use aro_metrics::quality::fractional_hd;

use crate::challenge::Challenge;
use crate::chip::Chip;
use crate::design::PufDesign;

/// One enrolled challenge/response pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CrpRecord {
    challenge: Challenge,
    pairs: Vec<(usize, usize)>,
    response: BitString,
}

impl CrpRecord {
    /// The challenge.
    #[must_use]
    pub fn challenge(&self) -> Challenge {
        self.challenge
    }

    /// The enrolled reference response.
    #[must_use]
    pub fn response(&self) -> &BitString {
        &self.response
    }
}

/// Outcome of one authentication attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthOutcome {
    /// Fractional HD between the answer and the enrolled response.
    pub distance: f64,
    /// Whether the distance cleared the threshold.
    pub accepted: bool,
}

/// A verifier-side CRP database for one enrolled device.
#[derive(Debug, Clone, PartialEq)]
pub struct CrpDatabase {
    records: Vec<CrpRecord>,
    bits_per_response: usize,
}

impl CrpDatabase {
    /// Enrolls a device: derives each challenge's pair set and stores the
    /// golden response (a factory can average reads to the same effect).
    ///
    /// # Panics
    /// Panics if `challenges` is empty or `bits_per_response` does not
    /// fit the array.
    #[must_use]
    pub fn enroll(
        chip: &Chip,
        design: &PufDesign,
        env: &Environment,
        challenges: &[Challenge],
        bits_per_response: usize,
    ) -> Self {
        assert!(!challenges.is_empty(), "enroll at least one challenge");
        let records = challenges
            .iter()
            .map(|&challenge| {
                let pairs = challenge.pairs(design.n_ros(), bits_per_response);
                let response = chip.golden_response(design, env, &pairs);
                CrpRecord {
                    challenge,
                    pairs,
                    response,
                }
            })
            .collect();
        Self {
            records,
            bits_per_response,
        }
    }

    /// Number of enrolled CRPs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty (never true after `enroll`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Response width in bits.
    #[must_use]
    pub fn bits_per_response(&self) -> usize {
        self.bits_per_response
    }

    /// The enrolled records.
    #[must_use]
    pub fn records(&self) -> &[CrpRecord] {
        &self.records
    }

    /// Challenges the device with record `index` and decides at
    /// `threshold` (fractional HD).
    ///
    /// # Panics
    /// Panics if `index` is out of range or `threshold` is outside
    /// `[0, 1]`.
    pub fn verify(
        &self,
        device: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        index: usize,
        threshold: f64,
    ) -> AuthOutcome {
        assert!((0.0..=1.0).contains(&threshold), "threshold out of range");
        let record = &self.records[index];
        let answer = device.response(design, env, &record.pairs);
        self.decide(record, &answer, threshold)
    }

    /// Decides a pre-collected answer against record — the fail-closed
    /// core of [`Self::verify`]. A malformed answer (bit length
    /// mismatching the enrolled response) rejects at the worst possible
    /// distance and counts `serve.malformed`; it never reaches the
    /// distance computation (whose length assertion would panic the
    /// verifier on attacker-controlled input).
    #[must_use]
    pub fn decide(&self, record: &CrpRecord, answer: &BitString, threshold: f64) -> AuthOutcome {
        assert!((0.0..=1.0).contains(&threshold), "threshold out of range");
        if answer.len() != record.response.len() || answer.len() != self.bits_per_response {
            aro_obs::counter("serve.malformed", 1);
            return AuthOutcome {
                distance: 1.0,
                accepted: false,
            };
        }
        let distance = fractional_hd(&record.response, answer);
        AuthOutcome {
            distance,
            accepted: distance <= threshold,
        }
    }

    /// Runs every enrolled record against a device and returns the
    /// distances (for ROC analysis).
    pub fn distances(&self, device: &mut Chip, design: &PufDesign, env: &Environment) -> Vec<f64> {
        self.records
            .iter()
            .map(|record| {
                let answer = device.response(design, env, &record.pairs);
                fractional_hd(&record.response, &answer)
            })
            .collect()
    }
}

/// False-accept and false-reject rates of a threshold against genuine and
/// impostor distance samples.
#[must_use]
pub fn far_frr(genuine: &[f64], impostor: &[f64], threshold: f64) -> (f64, f64) {
    let far =
        impostor.iter().filter(|&&d| d <= threshold).count() as f64 / impostor.len().max(1) as f64;
    let frr =
        genuine.iter().filter(|&&d| d > threshold).count() as f64 / genuine.len().max(1) as f64;
    (far, frr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;

    fn setup() -> (PufDesign, Environment) {
        let design = PufDesign::builder(RoStyle::AgingResistant)
            .n_ros(64)
            .seed(88)
            .build();
        let env = Environment::nominal(design.tech());
        (design, env)
    }

    fn challenges(n: u64) -> Vec<Challenge> {
        (0..n).map(|i| Challenge(0xabc + i)).collect()
    }

    #[test]
    fn genuine_device_authenticates() {
        let (design, env) = setup();
        let mut chip = Chip::fabricate(&design, 0);
        let db = CrpDatabase::enroll(&chip, &design, &env, &challenges(4), 24);
        assert_eq!(db.len(), 4);
        for i in 0..db.len() {
            let outcome = db.verify(&mut chip, &design, &env, i, 0.25);
            assert!(
                outcome.accepted,
                "record {i}: distance {}",
                outcome.distance
            );
            assert!(outcome.distance < 0.15);
        }
    }

    #[test]
    fn impostor_device_is_rejected() {
        let (design, env) = setup();
        let genuine = Chip::fabricate(&design, 0);
        let mut impostor = Chip::fabricate(&design, 1);
        let db = CrpDatabase::enroll(&genuine, &design, &env, &challenges(4), 24);
        for i in 0..db.len() {
            let outcome = db.verify(&mut impostor, &design, &env, i, 0.25);
            assert!(
                !outcome.accepted,
                "record {i}: distance {}",
                outcome.distance
            );
        }
    }

    #[test]
    fn distances_returns_one_per_record() {
        let (design, env) = setup();
        let mut chip = Chip::fabricate(&design, 0);
        let db = CrpDatabase::enroll(&chip, &design, &env, &challenges(6), 16);
        let d = db.distances(&mut chip, &design, &env);
        assert_eq!(d.len(), 6);
        assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn far_frr_boundaries() {
        let genuine = [0.02, 0.05, 0.10];
        let impostor = [0.45, 0.50, 0.55];
        let (far, frr) = far_frr(&genuine, &impostor, 0.25);
        assert_eq!(far, 0.0);
        assert_eq!(frr, 0.0);
        let (far_lo, frr_lo) = far_frr(&genuine, &impostor, 0.01);
        assert_eq!(far_lo, 0.0);
        assert_eq!(frr_lo, 1.0);
        let (far_hi, frr_hi) = far_frr(&genuine, &impostor, 0.6);
        assert_eq!(far_hi, 1.0);
        assert_eq!(frr_hi, 0.0);
    }

    #[test]
    fn malformed_answers_fail_closed() {
        let (design, env) = setup();
        let chip = Chip::fabricate(&design, 0);
        let db = CrpDatabase::enroll(&chip, &design, &env, &challenges(2), 24);
        let record = &db.records()[0];
        // Too short, too long, empty: all must reject at distance 1.0
        // without ever reaching the Hamming-distance computation.
        for len in [8, 40, 0] {
            let bogus = BitString::zeros(len);
            let outcome = db.decide(record, &bogus, 0.25);
            assert!(!outcome.accepted, "length {len} must reject");
            assert_eq!(
                outcome.distance, 1.0,
                "length {len} rejects at worst distance"
            );
        }
        // A well-formed answer still decides on distance.
        let honest = record.response().clone();
        let outcome = db.decide(record, &honest, 0.25);
        assert!(outcome.accepted);
        assert_eq!(outcome.distance, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one challenge")]
    fn empty_enrollment_panics() {
        let (design, env) = setup();
        let chip = Chip::fabricate(&design, 0);
        let _ = CrpDatabase::enroll(&chip, &design, &env, &[], 16);
    }
}
