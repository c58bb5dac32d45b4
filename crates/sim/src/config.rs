//! Simulation configuration shared by every experiment.

use aro_faults::{FaultInjector, FaultPlan};

use crate::servefleet::DEFAULT_REPLICAS;

/// A [`SimConfig`] that cannot drive a meaningful run, with the field
/// that broke it. Returned by [`SimConfig::validate`]; the `repro` CLI and
/// the experiment harness reject such configs up front instead of letting
/// a zero-sized population panic deep inside an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `n_chips` is zero — no population to measure.
    NoChips,
    /// `n_ros` is below 4 or odd — the array cannot form neighbour pairs.
    BadRingCount(usize),
    /// `key_bits` is zero — nothing to provision an ECC for.
    NoKeyBits,
    /// `key_fail_target` is not in `(0, 1)` — no ECC search can meet it.
    BadFailTarget(f64),
    /// A checkpoint list is empty — a timeline needs at least one stop.
    EmptyCheckpoints,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoChips => write!(f, "config needs at least one chip"),
            ConfigError::BadRingCount(n) => {
                write!(f, "config needs an even ring count >= 4, got {n}")
            }
            ConfigError::NoKeyBits => write!(f, "config needs a non-zero key width"),
            ConfigError::BadFailTarget(t) => {
                write!(f, "key failure target must be in (0, 1), got {t}")
            }
            ConfigError::EmptyCheckpoints => {
                write!(f, "timeline needs at least one checkpoint")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Population sizes, seeds, scale knobs and the fault plan of an
/// experiment run: every input that can change a report's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Chips per population (the paper simulates 100).
    pub n_chips: usize,
    /// Rings per chip (256 → 128-bit responses with neighbour pairing).
    pub n_ros: usize,
    /// Master seed; every sub-stream derives from it.
    pub seed: u64,
    /// Key width for the area/key experiments.
    pub key_bits: usize,
    /// Key-failure target for ECC provisioning.
    pub key_fail_target: f64,
    /// Enrollment-store replication factor of the serve sweeps (EXP-18,
    /// `serve-bench`).
    pub replicas: usize,
    /// The attached fault plan and the master seed it was attached
    /// under; `None` for a fault-free run. Never holds an off plan.
    pub(crate) faults: Option<(FaultPlan, u64)>,
}

impl SimConfig {
    /// Paper-scale configuration: 100 chips × 256 rings, 128-bit keys at
    /// a 10⁻⁶ failure target.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n_chips: 100,
            n_ros: 256,
            seed: 2014,
            key_bits: 128,
            key_fail_target: 1e-6,
            replicas: DEFAULT_REPLICAS,
            faults: None,
        }
    }

    /// A small configuration for unit tests and smoke runs: the same
    /// physics, 10× fewer chips and 4× fewer rings.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n_chips: 10,
            n_ros: 64,
            ..Self::paper()
        }
    }

    /// Returns a copy with a different seed (for seed-sensitivity runs).
    /// An attached fault plan keeps the seed it was attached under.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy that runs under `plan`, its faults drawn from the
    /// current seed. An off plan ([`FaultPlan::is_off`]) detaches faults,
    /// so a zero-intensity run equals a fault-free one.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_off()).then_some((plan, self.seed));
        self
    }

    /// The injector of the attached fault plan, or `None` for a
    /// fault-free run.
    #[must_use]
    pub fn injector(&self) -> Option<FaultInjector> {
        self.faults
            .map(|(plan, seed)| FaultInjector::new(plan, seed))
    }

    /// Response bits per chip with neighbour pairing.
    #[must_use]
    pub fn response_bits(&self) -> usize {
        self.n_ros / 2
    }

    /// Checks that this configuration can drive a run: a non-empty
    /// population, a pairable array, and a satisfiable key spec.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_chips == 0 {
            return Err(ConfigError::NoChips);
        }
        if self.n_ros < 4 || !self.n_ros.is_multiple_of(2) {
            return Err(ConfigError::BadRingCount(self.n_ros));
        }
        if self.key_bits == 0 {
            return Err(ConfigError::NoKeyBits);
        }
        if !(self.key_fail_target > 0.0 && self.key_fail_target < 1.0) {
            return Err(ConfigError::BadFailTarget(self.key_fail_target));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_paper() {
        let cfg = SimConfig::paper();
        assert_eq!(cfg.n_chips, 100);
        assert_eq!(cfg.response_bits(), 128);
        assert_eq!(cfg.key_bits, 128);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = SimConfig::quick();
        let p = SimConfig::paper();
        assert!(q.n_chips < p.n_chips);
        assert!(q.n_ros < p.n_ros);
        assert_eq!(q.seed, p.seed, "same seed, comparable streams");
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let cfg = SimConfig::paper().with_seed(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.n_chips, 100);
    }

    #[test]
    fn off_plans_attach_as_no_faults() {
        for spec in ["off", "smoke@0", "storm@0"] {
            let cfg = SimConfig::quick().with_faults(FaultPlan::parse(spec).unwrap());
            assert_eq!(cfg, SimConfig::quick(), "{spec}");
            assert!(cfg.injector().is_none(), "{spec}");
        }
        let smoke = SimConfig::quick().with_faults(FaultPlan::smoke());
        assert!(smoke.injector().is_some());
    }

    #[test]
    fn with_seed_leaves_the_fault_schedule_in_place() {
        let cfg = SimConfig::quick().with_faults(FaultPlan::smoke());
        let fingerprint = |cfg: &SimConfig| cfg.injector().unwrap().fingerprint();
        let reseeded = cfg.clone().with_seed(cfg.seed + 1);
        assert_eq!(fingerprint(&reseeded), fingerprint(&cfg));
        assert_eq!(
            fingerprint(&cfg),
            FaultInjector::new(FaultPlan::smoke(), cfg.seed).fingerprint()
        );
    }

    #[test]
    fn stock_configs_validate() {
        assert_eq!(SimConfig::paper().validate(), Ok(()));
        assert_eq!(SimConfig::quick().validate(), Ok(()));
    }

    #[test]
    fn validation_names_the_broken_field() {
        let mut cfg = SimConfig::quick();
        cfg.n_chips = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoChips));

        let mut cfg = SimConfig::quick();
        cfg.n_ros = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadRingCount(0)));
        cfg.n_ros = 7;
        assert_eq!(cfg.validate(), Err(ConfigError::BadRingCount(7)));

        let mut cfg = SimConfig::quick();
        cfg.key_bits = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoKeyBits));

        let mut cfg = SimConfig::quick();
        cfg.key_fail_target = 0.0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadFailTarget(0.0)));
        cfg.key_fail_target = 1.5;
        assert_eq!(cfg.validate(), Err(ConfigError::BadFailTarget(1.5)));
    }

    #[test]
    fn config_errors_render_for_cli_use() {
        assert!(ConfigError::NoChips.to_string().contains("chip"));
        assert!(ConfigError::BadRingCount(7).to_string().contains('7'));
        assert!(ConfigError::EmptyCheckpoints
            .to_string()
            .contains("checkpoint"));
    }
}
