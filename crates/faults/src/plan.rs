//! The fault plan: which fault classes fire, how often, and how hard.
//!
//! A [`FaultPlan`] is pure data — rates and magnitudes, no randomness. The
//! same plan handed to two [`FaultInjector`](crate::inject::FaultInjector)s
//! with the same master seed produces byte-identical fault schedules, which
//! is what makes chaos runs replayable.

/// Per-class fault rates and magnitudes.
///
/// The eight classes mirror the upset mechanisms reported for fielded RO-PUF
/// arrays (see `docs/ROBUSTNESS.md` for the taxonomy and citations):
///
/// | class | rate field | magnitude field(s) |
/// |---|---|---|
/// | supply droop + temp spike | `env_excursion_prob` | `vdd_droop_v`, `temp_spike_c` |
/// | RTN burst | `noise_burst_prob` | `noise_burst_factor` |
/// | dead ring | `dead_ro_rate` | — |
/// | stuck ring | `stuck_ro_rate` | — |
/// | counter glitch | `glitch_prob` | — (one bit per event) |
/// | helper-data erasure | `helper_erasure_rate` | — |
/// | replica wipe | `replica_wipe_rate` | — (one stored replica per event) |
/// | whole-shard loss | `shard_loss_rate` | — (every record in the shard) |
///
/// Rates are probabilities per *opportunity* (per measurement event for the
/// transient classes, per ring for the hard classes, per response bit for
/// glitches, per helper bit for erasures). [`FaultPlan::scaled`] scales the
/// rates — not the magnitudes — so an intensity sweep varies how *often*
/// physics misbehaves, holding how *badly* fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability per measurement event of a transient environment
    /// excursion (droop and spike drawn jointly).
    pub env_excursion_prob: f64,
    /// Maximum supply droop in volts (applied as a negative excursion).
    pub vdd_droop_v: f64,
    /// Maximum die temperature spike in degrees Celsius.
    pub temp_spike_c: f64,
    /// Probability per measurement event of an RTN burst.
    pub noise_burst_prob: f64,
    /// Peak noise amplification of a burst (>= 1).
    pub noise_burst_factor: f64,
    /// Probability per ring of being fabricated/field-failed dead.
    pub dead_ro_rate: f64,
    /// Probability per ring of a stuck readout path.
    pub stuck_ro_rate: f64,
    /// Probability per response bit of a counter-glitch flip.
    pub glitch_prob: f64,
    /// Probability per stored helper-data bit of an NVM erasure/upset.
    pub helper_erasure_rate: f64,
    /// Probability per stored replica per maintenance window of the whole
    /// replica being wiped (a lost NVM page, a botched firmware update).
    pub replica_wipe_rate: f64,
    /// Probability per store shard per maintenance window of the entire
    /// shard being lost (a dead verifier node / storage volume).
    pub shard_loss_rate: f64,
}

/// A fault-plan spec that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    spec: String,
    reason: &'static str,
}

impl std::fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan '{}': {}", self.spec, self.reason)
    }
}

impl std::error::Error for ParsePlanError {}

impl FaultPlan {
    /// The zero-intensity plan: every rate is zero, nothing ever fires.
    /// Running under this plan is byte-identical to not installing a fault
    /// layer at all (the determinism contract's anchor case).
    #[must_use]
    pub fn off() -> Self {
        Self {
            env_excursion_prob: 0.0,
            vdd_droop_v: 0.0,
            temp_spike_c: 0.0,
            noise_burst_prob: 0.0,
            noise_burst_factor: 1.0,
            dead_ro_rate: 0.0,
            stuck_ro_rate: 0.0,
            glitch_prob: 0.0,
            helper_erasure_rate: 0.0,
            replica_wipe_rate: 0.0,
            shard_loss_rate: 0.0,
        }
    }

    /// A light chaos plan for CI smoke runs: rare transients, a sprinkle
    /// of hard faults — enough to exercise every injection path without
    /// drowning the statistics.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            env_excursion_prob: 0.05,
            vdd_droop_v: 0.12,
            temp_spike_c: 30.0,
            noise_burst_prob: 0.05,
            noise_burst_factor: 4.0,
            dead_ro_rate: 0.01,
            stuck_ro_rate: 0.005,
            glitch_prob: 0.002,
            helper_erasure_rate: 0.001,
            replica_wipe_rate: 0.001,
            shard_loss_rate: 0.0002,
        }
    }

    /// A hostile plan: frequent deep droops and hot spikes, loud RTN,
    /// percent-level hard faults. Key recovery is *expected* to degrade
    /// under this plan — that degradation curve is exp15's subject.
    #[must_use]
    pub fn storm() -> Self {
        Self {
            env_excursion_prob: 0.35,
            vdd_droop_v: 0.30,
            temp_spike_c: 75.0,
            noise_burst_prob: 0.25,
            noise_burst_factor: 10.0,
            dead_ro_rate: 0.04,
            stuck_ro_rate: 0.02,
            glitch_prob: 0.01,
            helper_erasure_rate: 0.004,
            replica_wipe_rate: 0.02,
            shard_loss_rate: 0.004,
        }
    }

    /// Whether every rate is zero (no fault can ever fire).
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.env_excursion_prob == 0.0
            && self.noise_burst_prob == 0.0
            && self.dead_ro_rate == 0.0
            && self.stuck_ro_rate == 0.0
            && self.glitch_prob == 0.0
            && self.helper_erasure_rate == 0.0
            && self.replica_wipe_rate == 0.0
            && self.shard_loss_rate == 0.0
    }

    /// Returns this plan with every *rate* scaled by `intensity` (clamped
    /// to probability range); magnitudes are untouched. `scaled(0.0)` is
    /// [`FaultPlan::is_off`]; `scaled(1.0)` is the identity.
    ///
    /// # Panics
    /// Panics if `intensity` is negative or not finite.
    #[must_use]
    pub fn scaled(&self, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and non-negative"
        );
        let scale = |rate: f64| (rate * intensity).clamp(0.0, 1.0);
        Self {
            env_excursion_prob: scale(self.env_excursion_prob),
            vdd_droop_v: self.vdd_droop_v,
            temp_spike_c: self.temp_spike_c,
            noise_burst_prob: scale(self.noise_burst_prob),
            noise_burst_factor: self.noise_burst_factor,
            dead_ro_rate: scale(self.dead_ro_rate),
            stuck_ro_rate: scale(self.stuck_ro_rate),
            glitch_prob: scale(self.glitch_prob),
            helper_erasure_rate: scale(self.helper_erasure_rate),
            replica_wipe_rate: scale(self.replica_wipe_rate),
            shard_loss_rate: scale(self.shard_loss_rate),
        }
    }

    /// Parses a plan spec: a preset name (`off`, `smoke`, `storm`), with
    /// an optional `@<intensity>` suffix scaling its rates — e.g.
    /// `storm@0.5` is half-rate storm, `smoke@0` is off.
    ///
    /// # Errors
    /// Returns [`ParsePlanError`] for an unknown preset or an unparsable /
    /// negative intensity.
    pub fn parse(spec: &str) -> Result<Self, ParsePlanError> {
        let err = |reason| ParsePlanError {
            spec: spec.to_string(),
            reason,
        };
        let (name, intensity) = match spec.split_once('@') {
            None => (spec, 1.0),
            Some((name, scale)) => {
                let intensity: f64 = scale
                    .parse()
                    .map_err(|_| err("intensity is not a number"))?;
                if !intensity.is_finite() || intensity < 0.0 {
                    return Err(err("intensity must be finite and non-negative"));
                }
                (name, intensity)
            }
        };
        let base = match name {
            "off" | "none" | "zero" => Self::off(),
            "smoke" => Self::smoke(),
            "storm" => Self::storm(),
            _ => return Err(err("unknown preset (expected off, smoke, or storm)")),
        };
        Ok(base.scaled(intensity))
    }

    /// A stable 64-bit digest of the plan's exact field values, for keying
    /// caches: two runs may share cached populations/timelines only when
    /// their fault fingerprints match.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let fields = [
            self.env_excursion_prob,
            self.vdd_droop_v,
            self.temp_spike_c,
            self.noise_burst_prob,
            self.noise_burst_factor,
            self.dead_ro_rate,
            self.stuck_ro_rate,
            self.glitch_prob,
            self.helper_erasure_rate,
            self.replica_wipe_rate,
            self.shard_loss_rate,
        ];
        let mut digest = 0xfa_17u64;
        for field in fields {
            digest = mix64(digest ^ field.to_bits());
        }
        digest
    }
}

/// SplitMix64 finalizer (same mixing family as `aro_device::rng`).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_off_and_presets_are_not() {
        assert!(FaultPlan::off().is_off());
        assert!(!FaultPlan::smoke().is_off());
        assert!(!FaultPlan::storm().is_off());
    }

    #[test]
    fn scaling_to_zero_turns_any_plan_off() {
        assert!(FaultPlan::storm().scaled(0.0).is_off());
        assert_eq!(FaultPlan::smoke().scaled(1.0), FaultPlan::smoke());
    }

    #[test]
    fn scaling_clamps_rates_to_probability_range() {
        let wild = FaultPlan::storm().scaled(100.0);
        assert_eq!(wild.env_excursion_prob, 1.0);
        assert_eq!(wild.glitch_prob, 1.0);
        // Magnitudes are untouched by intensity.
        assert_eq!(wild.temp_spike_c, FaultPlan::storm().temp_spike_c);
        assert_eq!(
            wild.noise_burst_factor,
            FaultPlan::storm().noise_burst_factor
        );
    }

    #[test]
    fn parse_accepts_presets_and_intensity_suffix() {
        assert_eq!(FaultPlan::parse("off").unwrap(), FaultPlan::off());
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::off());
        assert_eq!(FaultPlan::parse("smoke").unwrap(), FaultPlan::smoke());
        assert_eq!(
            FaultPlan::parse("storm@0.5").unwrap(),
            FaultPlan::storm().scaled(0.5)
        );
        assert!(FaultPlan::parse("smoke@0").unwrap().is_off());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["hurricane", "smoke@abc", "smoke@-1", "smoke@inf", ""] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("invalid fault plan"), "{err}");
        }
    }

    #[test]
    fn erasure_only_plan_is_live_and_fingerprints_apart_from_off() {
        // Helper erasures alone are a real threat model (EXP-15's killer
        // fault) — a plan carrying nothing else must not collapse into
        // the fault-free path or alias its cache key.
        let erasure_only = FaultPlan {
            helper_erasure_rate: 0.002,
            ..FaultPlan::off()
        };
        assert!(!erasure_only.is_off());
        assert_ne!(erasure_only.fingerprint(), FaultPlan::off().fingerprint());
        // Different erasure rates are different schedules.
        let other = FaultPlan {
            helper_erasure_rate: 0.004,
            ..FaultPlan::off()
        };
        assert_ne!(erasure_only.fingerprint(), other.fingerprint());
    }

    #[test]
    fn storage_only_plans_are_live_and_fingerprint_apart() {
        // A plan carrying only storage-layer faults (replica wipes or
        // whole-shard losses) must not collapse into the fault-free path
        // or alias its cache key — these are the EXP-19 storm's subject.
        let wipe_only = FaultPlan {
            replica_wipe_rate: 0.01,
            ..FaultPlan::off()
        };
        let shard_only = FaultPlan {
            shard_loss_rate: 0.01,
            ..FaultPlan::off()
        };
        assert!(!wipe_only.is_off());
        assert!(!shard_only.is_off());
        assert_ne!(wipe_only.fingerprint(), FaultPlan::off().fingerprint());
        assert_ne!(shard_only.fingerprint(), FaultPlan::off().fingerprint());
        assert_ne!(wipe_only.fingerprint(), shard_only.fingerprint());
        // Intensity scaling covers the storage rates like every other rate.
        assert!(wipe_only.scaled(0.0).is_off());
        assert_eq!(FaultPlan::storm().scaled(0.5).replica_wipe_rate, 0.01);
    }

    #[test]
    fn fingerprint_separates_plans_and_is_stable() {
        let a = FaultPlan::smoke().fingerprint();
        assert_eq!(a, FaultPlan::smoke().fingerprint());
        assert_ne!(a, FaultPlan::storm().fingerprint());
        assert_ne!(a, FaultPlan::off().fingerprint());
        assert_ne!(
            FaultPlan::storm().scaled(0.5).fingerprint(),
            FaultPlan::storm().fingerprint()
        );
    }
}
