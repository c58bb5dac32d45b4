//! Helper-data scrubbing via periodic **refresh enrollment** — the
//! self-healing half of the key lifecycle.
//!
//! EXP-15 shows the code-offset construction's Achilles heel: a single
//! surviving helper-bit erasure defeats the key outright, because the
//! corrupted offset is re-applied *after* decoding. Erasure-aware
//! decoding ([`crate::soft`]) absorbs *known* damage at reconstruction
//! time; refresh enrollment goes further and removes the damage at its
//! source. At each refresh the device:
//!
//! 1. reconstructs the **current** key erasure-aware from a fresh
//!    reading — the *continuity gate*: the secret the helper data
//!    protects must survive the hand-over, or the refresh would launder
//!    a corrupted key into a "healthy" enrollment;
//! 2. re-enrolls against the **aged** response, writing pristine helper
//!    data anchored where the silicon actually is today. Accumulated NVM
//!    erasures are discarded with the old helper block, and aging drift
//!    since the last anchor resets to zero.
//!
//! Note the key **rotates**: code-offset enrollment draws a fresh salt
//! and fresh codewords, so the refreshed helper data derives a *new*
//! key. That is the textbook deployment anyway (the PUF key wraps a
//! payload key; a refresh re-wraps it), and it is why the continuity
//! gate matters — the old key must be in hand at the moment of
//! re-wrapping. EXP-16 sweeps the refresh interval to find the cheapest
//! schedule that keeps ten-year recovery above target under storm
//! intensities.

use aro_metrics::bits::BitString;
use rand::Rng;

use crate::fuzzy::HelperData;
use crate::keygen::KeyGenerator;
use crate::soft::{Erasures, SoftBit};

/// A periodic maintenance schedule over a fixed mission: refreshes at
/// `k · interval` for every `k ≥ 1` strictly inside the mission.
///
/// An infinite interval is the "never refresh" baseline (zero refreshes)
/// — EXP-16's control row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshSchedule {
    interval_s: f64,
    mission_s: f64,
}

impl RefreshSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    /// Panics if `mission_s` is not a positive finite number, or if
    /// `interval_s` is not positive (`f64::INFINITY` is allowed — it
    /// means "never refresh").
    #[must_use]
    pub fn new(interval_s: f64, mission_s: f64) -> Self {
        assert!(
            mission_s.is_finite() && mission_s > 0.0,
            "mission must be a positive finite duration"
        );
        assert!(
            interval_s > 0.0 && !interval_s.is_nan(),
            "interval must be positive (INFINITY = never refresh)"
        );
        Self {
            interval_s,
            mission_s,
        }
    }

    /// The refresh period in seconds (`INFINITY` = never).
    #[must_use]
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// The mission length in seconds.
    #[must_use]
    pub fn mission_s(&self) -> f64 {
        self.mission_s
    }

    /// Refresh instants `k · interval`, `k ≥ 1`, strictly before the
    /// mission end (a refresh *at* end-of-mission buys nothing — the
    /// final reconstruction is the mission's last event). A boundary
    /// landing within a relative epsilon of the mission end counts as
    /// the end and is excluded, so `mission / n` intervals yield exactly
    /// `n − 1` refreshes despite floating-point accumulation.
    #[must_use]
    pub fn refresh_times(&self) -> Vec<f64> {
        if !self.interval_s.is_finite() {
            return Vec::new();
        }
        let eps = self.mission_s * 1e-9;
        let mut times = Vec::new();
        let mut k = 1u32;
        loop {
            let t = f64::from(k) * self.interval_s;
            if t >= self.mission_s - eps {
                return times;
            }
            times.push(t);
            k += 1;
        }
    }

    /// How many refreshes the schedule performs.
    #[must_use]
    pub fn refresh_count(&self) -> usize {
        self.refresh_times().len()
    }
}

/// One refresh-enrollment step: gate on reconstructing `current_key`
/// erasure-aware from `reading` under the (possibly eroded) `helper`,
/// then re-enroll against `new_anchor` — the device's best estimate of
/// its *aged* response (e.g. a majority-voted reading).
///
/// Returns the fresh `(key, helper)` pair on success. Returns `None` —
/// and leaves the old enrollment in place — when the continuity gate
/// fails: refreshing without the current key in hand would permanently
/// orphan whatever that key protects.
pub fn refresh_enrollment<R: Rng + ?Sized>(
    generator: &KeyGenerator,
    reading: &[SoftBit],
    helper: &HelperData,
    erasures: &Erasures,
    current_key: &BitString,
    new_anchor: &BitString,
    rng: &mut R,
) -> Option<(BitString, HelperData)> {
    continuity_gate(generator, reading, helper, erasures, current_key)
        .then(|| generator.enroll(new_anchor, rng))
}

/// The continuity gate alone: can the *current* key still be
/// reconstructed erasure-aware from `reading` under the (possibly
/// eroded) `helper`? Books the same `ecc.refresh_*` observability as
/// [`refresh_enrollment`], so callers whose `new_anchor` is expensive
/// to measure (e.g. a multi-vote bench read) can check the gate first
/// and skip the measurement when the chain is already broken.
pub fn continuity_gate(
    generator: &KeyGenerator,
    reading: &[SoftBit],
    helper: &HelperData,
    erasures: &Erasures,
    current_key: &BitString,
) -> bool {
    // Continuity stream: 1 per refresh that held the key chain together,
    // 0 per gap. The sketch mean is the fleet's refresh-continuity rate;
    // its p1 collapsing to 0 flags chains that are starting to break.
    match generator.reconstruct_soft(reading, helper, erasures) {
        Some(key) if key == *current_key => {
            aro_obs::counter("ecc.helper_refreshes", 1);
            aro_obs::sketch("ecc.refresh_continuity", 1.0);
            true
        }
        _ => {
            aro_obs::counter("ecc.refresh_failures", 1);
            aro_obs::sketch("ecc.refresh_continuity", 0.0);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::PufAreaParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const YEAR_S: f64 = 365.25 * 24.0 * 3600.0;

    fn generator() -> KeyGenerator {
        let puf = PufAreaParams {
            ro_cell_ge: 3.0,
            readout_fixed_ge: 120.0,
            readout_per_ro_ge: 3.0,
            ros_per_bit: 2.0,
        };
        KeyGenerator::for_bit_error_rate(0.08, 128, 1e-6, &puf).unwrap()
    }

    fn random_bits(n: usize, rng: &mut StdRng) -> BitString {
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    fn confident(bits: &BitString) -> Vec<SoftBit> {
        bits.iter().map(|b| SoftBit::new(b, 1.0)).collect()
    }

    #[test]
    fn infinite_interval_never_refreshes() {
        let s = RefreshSchedule::new(f64::INFINITY, 10.0 * YEAR_S);
        assert_eq!(s.refresh_count(), 0);
        assert!(s.refresh_times().is_empty());
    }

    #[test]
    fn even_division_excludes_the_mission_end() {
        let mission = 10.0 * YEAR_S;
        let s = RefreshSchedule::new(mission / 4.0, mission);
        let times = s.refresh_times();
        assert_eq!(times.len(), 3, "4 intervals ⇒ 3 interior refreshes");
        for (k, t) in times.iter().enumerate() {
            let expected = (k + 1) as f64 * mission / 4.0;
            assert!((t - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn uneven_interval_floors_to_interior_points() {
        let s = RefreshSchedule::new(3.0, 10.0);
        assert_eq!(s.refresh_times(), vec![3.0, 6.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_mission_panics() {
        let _ = RefreshSchedule::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = RefreshSchedule::new(0.0, 10.0);
    }

    #[test]
    fn refresh_rotates_the_key_and_heals_eroded_helper_bits() {
        let kg = generator();
        let mut rng = StdRng::seed_from_u64(21);
        let enrolled = random_bits(kg.response_bits(), &mut rng);
        let (key, helper) = kg.enroll(&enrolled, &mut rng);

        // Field damage: two helper bits eroded (and flagged), response
        // drifted to a new anchor.
        let eroded_positions = vec![(0, 2), (0, 5)];
        let eroded = helper.with_flipped_bits(&eroded_positions);
        let mut aged = enrolled.clone();
        for i in (0..aged.len()).step_by(23) {
            aged.flip(i);
        }

        let refreshed = refresh_enrollment(
            &kg,
            &confident(&enrolled),
            &eroded,
            &Erasures::from_helper(eroded_positions),
            &key,
            &aged,
            &mut rng,
        );
        let (new_key, new_helper) = refreshed.expect("continuity gate must pass");
        assert_ne!(new_key, key, "code-offset refresh rotates the key");
        // The fresh enrollment is anchored on the aged response: a clean
        // reading there reconstructs with no erasures at all.
        assert_eq!(kg.reconstruct(&aged, &new_helper), Some(new_key));
    }

    #[test]
    fn failed_continuity_gate_refuses_to_refresh() {
        let kg = generator();
        let mut rng = StdRng::seed_from_u64(22);
        let enrolled = random_bits(kg.response_bits(), &mut rng);
        let (key, helper) = kg.enroll(&enrolled, &mut rng);

        // Unflagged helper erosion: reconstruction yields a wrong key,
        // so the gate must refuse rather than orphan the payload.
        let eroded = helper.with_flipped_bits(&[(0, 0)]);
        let refreshed = refresh_enrollment(
            &kg,
            &confident(&enrolled),
            &eroded,
            &Erasures::none(),
            &key,
            &enrolled,
            &mut rng,
        );
        assert_eq!(refreshed, None);
    }
}
