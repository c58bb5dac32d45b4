//! EXP-8 — end-to-end 128-bit key generation over ten years.
//!
//! The full product flow on real (simulated) silicon: provision an ECC
//! for the ARO-PUF's measured worst-case BER, fabricate chips with enough
//! rings for the code's raw-bit budget, enroll a key per chip through the
//! code-offset fuzzy extractor, deploy for ten years, and attempt key
//! reconstruction from fresh noisy readings.
//!
//! A negative control runs conventional-cell chips through the *same*
//! (ARO-sized) code: their ten-year drift overwhelms it and keys are
//! lost — the concrete failure the paper's area table prices in.

use aro_circuit::ring::RoStyle;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;

use crate::config::SimConfig;
use crate::keybench::{provision, KeyBench};
use crate::popcache::{age_chip_snapshotted, AgeCursor};
use crate::report::Report;
use crate::runner::pct;
use crate::table::Table;

/// EXP-8's design salt. EXP-15 enrolls the same silicon, so its
/// zero-intensity trial walks exactly this flow.
pub(crate) const DESIGN_SALT: u64 = 0xe2e;

/// Outcome of the end-to-end run for one style.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyTrial {
    /// Cell style of the chips.
    pub style: RoStyle,
    /// Chips enrolled.
    pub chips: usize,
    /// Reconstruction attempts per chip.
    pub attempts_per_chip: usize,
    /// Attempts that failed to reproduce the enrolled key.
    pub failures: usize,
}

impl KeyTrial {
    /// Measured key-failure rate.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        self.failures as f64 / (self.chips * self.attempts_per_chip) as f64
    }
}

/// Runs the end-to-end flow for one style against a given key generator.
#[must_use]
pub fn run_trial(
    cfg: &SimConfig,
    style: RoStyle,
    generator: &KeyGenerator,
    chips: usize,
    attempts_per_chip: usize,
) -> KeyTrial {
    let bench = KeyBench::new(cfg, style, generator, DESIGN_SALT);
    let KeyBench {
        design,
        env,
        profile,
        pairs,
    } = &bench;

    let mut failures = 0;
    for id in 0..chips as u64 {
        let (mut chip, golden) = bench.chip(id);
        let mut enroll_rng = design.seed_domain().child("keygen").rng(id);
        let (key, helper) = generator.enroll(&golden, &mut enroll_rng);

        // Through the aged-state snapshot store: this is the first walk
        // of the shared ten-year step inside a run, so it records the
        // wear that EXP-15's intensity sweep later replays per chip.
        let mut cursor = AgeCursor::new();
        age_chip_snapshotted(&mut chip, design, profile, 10.0 * YEAR, &mut cursor);

        for _ in 0..attempts_per_chip {
            let noisy = chip.response(design, env, pairs);
            if generator.reconstruct(&noisy, &helper) != Some(key.clone()) {
                failures += 1;
            }
        }
        // The reads above warmed this chip's kernels at the post-step
        // state; donate them so EXP-15's replays preload instead of
        // rebuilding.
        crate::popcache::harvest_kernel_hints(&chip, design, &cursor);
    }
    KeyTrial {
        style,
        chips,
        attempts_per_chip,
        failures,
    }
}

/// Runs EXP-8.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-8", "End-to-end 128-bit key generation over ten years");

    // Provision the code for the ARO-PUF's measured worst-case BER.
    let (ber, generator) = provision(cfg, RoStyle::AgingResistant);
    let Some(generator) = generator else {
        report.push_note("no feasible ARO design point — increase the code search space");
        return report;
    };
    let spec = generator.spec().clone();
    report.push_note(format!(
        "ECC provisioned for BER {}: {}x repetition ⊗ BCH({},{},{}), {} raw bits",
        pct(ber),
        spec.rep_r,
        spec.bch_n,
        spec.bch_k,
        spec.bch_t,
        spec.raw_bits
    ));

    let chips = cfg.n_chips.clamp(4, 12);
    let attempts = 4;
    let aro = run_trial(cfg, RoStyle::AgingResistant, &generator, chips, attempts);
    let control = run_trial(cfg, RoStyle::Conventional, &generator, chips, attempts);

    let mut table = Table::new(
        "Key reconstruction after ten years (same ECC for both styles)",
        &[
            "chips",
            "design",
            "attempts",
            "failures",
            "measured failure rate",
            "analytic target",
        ],
    );
    table.push_row(vec![
        aro.chips.to_string(),
        "ARO-PUF".to_string(),
        (aro.chips * aro.attempts_per_chip).to_string(),
        aro.failures.to_string(),
        pct(aro.failure_rate()),
        format!("{:.1e}", spec.key_failure),
    ]);
    table.push_row(vec![
        control.chips.to_string(),
        "RO-PUF (control)".to_string(),
        (control.chips * control.attempts_per_chip).to_string(),
        control.failures.to_string(),
        pct(control.failure_rate()),
        "undersized".to_string(),
    ]);
    report.push_table(table);

    report.push_note(format!(
        "every ARO key survives ({} failures); the conventional control loses {} of keys \
         through the same code — the reliability gap is a key-loss gap",
        aro.failures,
        pct(control.failure_rate())
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_generator};

    #[test]
    fn aro_keys_survive_ten_years_and_the_control_fails() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);

        let aro = run_trial(&cfg, RoStyle::AgingResistant, &generator, 4, 2);
        assert_eq!(
            aro.failures, 0,
            "a 1e-6 design point must not fail in 8 attempts"
        );

        let control = run_trial(&cfg, RoStyle::Conventional, &generator, 4, 2);
        assert!(
            control.failure_rate() > 0.5,
            "undersized code must lose conventional keys: {}",
            control.failure_rate()
        );
    }

    #[test]
    fn report_contains_both_rows() {
        let report = run(&tiny_cfg());
        assert_eq!(report.tables()[0].n_rows(), 2);
        assert!(report.notes().len() >= 2);
    }
}
