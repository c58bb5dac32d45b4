//! Mission profiles: how a deployed chip spends its years.
//!
//! The paper's ten-year numbers assume the PUF sits inside a powered
//! product (a set-top box, per the Comcast co-author) that is queried a
//! handful of times a day. Between queries, a conventional RO-PUF holds
//! static DC stress; an ARO-PUF rests in recovery. The
//! [`MissionProfile::age_chip`] scheduler turns a calendar duration into
//! the right mix of idle stress and oscillation (measurement) stress.

use aro_circuit::ring::AgingModels;
use aro_device::environment::Environment;
use aro_device::params::TechParams;
use aro_device::units::{DAY, MONTH, YEAR};

use crate::chip::Chip;
use crate::design::PufDesign;

/// How a deployed chip spends its time.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionProfile {
    /// Die temperature while powered, in °C (self-heating included).
    pub temp_celsius: f64,
    /// Supply voltage while powered, in volts.
    pub vdd: f64,
    /// Fraction of calendar time the product is powered (stress applies
    /// only while powered; an unpowered die neither stresses nor
    /// meaningfully recovers beyond what the duty model already captures).
    pub powered_fraction: f64,
    /// Full key readouts per day.
    pub readouts_per_day: f64,
}

impl MissionProfile {
    /// The evaluation default: an always-on consumer box at 45 °C die
    /// temperature, nominal supply, ten key readouts per day.
    #[must_use]
    pub fn typical(tech: &TechParams) -> Self {
        Self {
            temp_celsius: 45.0,
            vdd: tech.vdd_nominal,
            powered_fraction: 1.0,
            readouts_per_day: 10.0,
        }
    }

    /// Accumulated oscillation time per ring over `duration_s` of calendar
    /// time: one gate window per readout.
    #[must_use]
    pub fn active_seconds(&self, design: &PufDesign, duration_s: f64) -> f64 {
        self.readouts_per_day * (duration_s / DAY) * design.readout().gate_time_s
    }

    /// Resolves one aging step of this mission: the exact models,
    /// environment and stress durations [`MissionProfile::age_chip`] will
    /// apply for `duration_s` seconds of calendar time. The aged-state
    /// snapshot layer records and replays steps through this single
    /// resolution point, so a snapshotted step is the same step by
    /// construction.
    ///
    /// # Panics
    /// Panics if `duration_s` is negative or `powered_fraction` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn step(&self, design: &PufDesign, duration_s: f64) -> MissionStep {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.powered_fraction),
            "powered fraction must be in [0, 1]"
        );
        let active_s = self.active_seconds(design, duration_s).min(duration_s);
        let idle_s = (duration_s * self.powered_fraction - active_s).max(0.0);
        MissionStep {
            models: AgingModels::new(design.tech()),
            env: Environment::new(self.temp_celsius, self.vdd),
            temp_celsius: self.temp_celsius,
            vdd: self.vdd,
            active_s,
            idle_s,
            duration_s,
        }
    }

    /// The snapshot-cache identity of one aging step: exact bit patterns
    /// of every profile parameter plus the step duration. Two steps with
    /// equal keys applied to the same design resolve to bitwise-identical
    /// [`MissionStep`]s (the design contributes the gate time and
    /// technology, and is keyed separately by the snapshot store).
    #[must_use]
    pub fn step_key(&self, duration_s: f64) -> MissionStepKey {
        MissionStepKey([
            self.temp_celsius.to_bits(),
            self.vdd.to_bits(),
            self.powered_fraction.to_bits(),
            self.readouts_per_day.to_bits(),
            duration_s.to_bits(),
        ])
    }

    /// Plays `duration_s` seconds of this mission onto `chip`: applies
    /// oscillation stress for the accumulated measurement windows and
    /// idle-state stress for the remaining powered time, then advances the
    /// chip's age.
    ///
    /// # Panics
    /// Panics if `duration_s` is negative or `powered_fraction` is outside
    /// `[0, 1]`.
    pub fn age_chip(&self, chip: &mut Chip, design: &PufDesign, duration_s: f64) {
        let step = self.step(design, duration_s);
        chip.stress_active(design, &step.models, &step.env, step.active_s);
        chip.stress_idle(
            design,
            &step.models,
            step.temp_celsius,
            step.vdd,
            step.idle_s,
        );
        chip.add_age(step.duration_s);
    }
}

/// One resolved aging step (see [`MissionProfile::step`]): everything
/// [`MissionProfile::age_chip`] derives before stressing the chip.
#[derive(Debug, Clone)]
pub struct MissionStep {
    /// Wear-out models of the design's technology.
    pub models: AgingModels,
    /// Powered-state environment of the mission.
    pub env: Environment,
    /// Die temperature while powered, in °C.
    pub temp_celsius: f64,
    /// Supply while powered, in volts.
    pub vdd: f64,
    /// Accumulated oscillation (measurement) seconds of the step.
    pub active_s: f64,
    /// Idle-state stress seconds of the step.
    pub idle_s: f64,
    /// Calendar seconds the step advances the chip's age by.
    pub duration_s: f64,
}

/// Value identity of one aging step for snapshot keying — exact float
/// bit patterns, since BTI equivalent-time accumulation is not additive
/// and two different step *sequences* to the same total age are
/// legitimately different wear histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissionStepKey([u64; 5]);

/// The paper's standard aging checkpoints: 1 month, 6 months, 1, 2, 5 and
/// 10 years (as absolute ages in seconds).
#[must_use]
pub fn standard_checkpoints() -> Vec<f64> {
    vec![
        MONTH,
        6.0 * MONTH,
        YEAR,
        2.0 * YEAR,
        5.0 * YEAR,
        10.0 * YEAR,
    ]
}

/// A mission composed of weighted segments — e.g. a diurnal 8 h-hot /
/// 16 h-cool cycle, or seasonal profiles.
///
/// Each segment is a [`MissionProfile`] plus the fraction of calendar
/// time it occupies. Aging is applied segment by segment per calendar
/// slice; thanks to the equivalent-time BTI accumulation in
/// [`aro_device::aging`], the result is insensitive to segment order for
/// realistic slice lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSchedule {
    segments: Vec<(f64, MissionProfile)>,
}

impl MissionSchedule {
    /// Builds a schedule from `(fraction, profile)` segments.
    ///
    /// # Panics
    /// Panics if the segment list is empty, any fraction is not in
    /// `(0, 1]`, or the fractions do not sum to 1 (within 1e-9).
    #[must_use]
    pub fn new(segments: Vec<(f64, MissionProfile)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert!(
            segments.iter().all(|(f, _)| *f > 0.0 && *f <= 1.0),
            "segment fractions must be in (0, 1]"
        );
        let total: f64 = segments.iter().map(|(f, _)| f).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "segment fractions must sum to 1, got {total}"
        );
        Self { segments }
    }

    /// A single-profile schedule.
    #[must_use]
    pub fn constant(profile: MissionProfile) -> Self {
        Self {
            segments: vec![(1.0, profile)],
        }
    }

    /// The segments.
    #[must_use]
    pub fn segments(&self) -> &[(f64, MissionProfile)] {
        &self.segments
    }

    /// Plays `duration_s` seconds of the schedule onto `chip`: each
    /// segment receives its fraction of the calendar time.
    pub fn age_chip(&self, chip: &mut Chip, design: &PufDesign, duration_s: f64) {
        for (fraction, profile) in &self.segments {
            profile.age_chip(chip, design, duration_s * fraction);
        }
        // Each profile already advanced the chip's age by its share.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;

    fn setup(style: RoStyle) -> (PufDesign, Chip) {
        let design = PufDesign::builder(style).n_ros(8).seed(77).build();
        let chip = Chip::fabricate(&design, 0);
        (design, chip)
    }

    #[test]
    fn aging_advances_age_and_slows_rings() {
        let (design, mut chip) = setup(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let profile = MissionProfile::typical(design.tech());
        let fresh = chip.frequencies(&design, &env);
        profile.age_chip(&mut chip, &design, 2.0 * YEAR);
        assert_eq!(chip.age_s(), 2.0 * YEAR);
        let aged = chip.frequencies(&design, &env);
        assert!(fresh.iter().zip(&aged).all(|(f, a)| a < f));
    }

    #[test]
    fn active_time_is_a_vanishing_fraction() {
        let (design, _) = setup(RoStyle::Conventional);
        let profile = MissionProfile::typical(design.tech());
        let active = profile.active_seconds(&design, 10.0 * YEAR);
        assert!(active > 0.0);
        assert!(
            active / (10.0 * YEAR) < 1e-6,
            "duty = {}",
            active / (10.0 * YEAR)
        );
    }

    #[test]
    fn aro_chip_ages_much_less_under_the_same_mission() {
        let (design_c, mut conv) = setup(RoStyle::Conventional);
        let (design_a, mut aro) = setup(RoStyle::AgingResistant);
        let env_c = Environment::nominal(design_c.tech());
        let env_a = Environment::nominal(design_a.tech());
        let profile = MissionProfile::typical(design_c.tech());
        let fresh_c = conv.frequencies(&design_c, &env_c);
        let fresh_a = aro.frequencies(&design_a, &env_a);
        profile.age_chip(&mut conv, &design_c, 10.0 * YEAR);
        profile.age_chip(&mut aro, &design_a, 10.0 * YEAR);
        let drop = |fresh: &[f64], aged: &[f64]| {
            fresh
                .iter()
                .zip(aged)
                .map(|(f, a)| (f - a) / f)
                .sum::<f64>()
                / fresh.len() as f64
        };
        let d_conv = drop(&fresh_c, &conv.frequencies(&design_c, &env_c));
        let d_aro = drop(&fresh_a, &aro.frequencies(&design_a, &env_a));
        assert!(
            d_aro < 0.35 * d_conv,
            "mean degradation: ARO {d_aro} vs conventional {d_conv}"
        );
    }

    #[test]
    fn unpowered_device_barely_ages() {
        let (design, mut chip) = setup(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let mut profile = MissionProfile::typical(design.tech());
        profile.powered_fraction = 0.0;
        profile.readouts_per_day = 0.0;
        let fresh = chip.frequencies(&design, &env);
        profile.age_chip(&mut chip, &design, 10.0 * YEAR);
        let aged = chip.frequencies(&design, &env);
        assert_eq!(fresh, aged, "no power, no BTI");
        assert_eq!(chip.age_s(), 10.0 * YEAR);
    }

    #[test]
    fn checkpoints_are_increasing_and_end_at_ten_years() {
        let cps = standard_checkpoints();
        assert!(cps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(cps.len(), 6);
        assert!((cps[5] - 10.0 * YEAR).abs() < 1.0);
    }

    #[test]
    fn schedule_interpolates_between_its_segments() {
        let (design, _) = setup(RoStyle::Conventional);
        let env = Environment::nominal(design.tech());
        let tech = design.tech();
        let cool = MissionProfile {
            temp_celsius: 25.0,
            ..MissionProfile::typical(tech)
        };
        let hot = MissionProfile {
            temp_celsius: 85.0,
            ..MissionProfile::typical(tech)
        };
        let degradation = |schedule: &MissionSchedule| {
            let mut chip = Chip::fabricate(&design, 2);
            let fresh = chip.frequencies(&design, &env)[0];
            schedule.age_chip(&mut chip, &design, 5.0 * YEAR);
            assert!((chip.age_s() - 5.0 * YEAR).abs() < 1.0);
            (fresh - chip.frequencies(&design, &env)[0]) / fresh
        };
        let all_cool = degradation(&MissionSchedule::constant(cool.clone()));
        let all_hot = degradation(&MissionSchedule::constant(hot.clone()));
        let mixed = degradation(&MissionSchedule::new(vec![
            (1.0 / 3.0, hot),
            (2.0 / 3.0, cool),
        ]));
        assert!(
            mixed > all_cool && mixed < all_hot,
            "mixed {mixed} must sit between cool {all_cool} and hot {all_hot}"
        );
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn non_normalized_schedule_panics() {
        let tech = TechParams::default();
        let _ = MissionSchedule::new(vec![
            (0.5, MissionProfile::typical(&tech)),
            (0.2, MissionProfile::typical(&tech)),
        ]);
    }

    #[test]
    #[should_panic(expected = "powered fraction")]
    fn invalid_powered_fraction_panics() {
        let (design, mut chip) = setup(RoStyle::Conventional);
        let mut profile = MissionProfile::typical(design.tech());
        profile.powered_fraction = 1.5;
        profile.age_chip(&mut chip, &design, 1.0);
    }
}
