//! EXP-15 — key recovery under injected faults (chaos sweep).
//!
//! The robustness capstone: take exp8's end-to-end key-generation flow
//! and sweep it across fault intensities. Each intensity point scales the
//! `storm` plan's *rates* (how often physics misbehaves) while keeping
//! magnitudes fixed, then replays the full product flow — enroll at the
//! healthy factory, deploy for ten years while rings die, helper-data NVM
//! bits erode, and every field measurement risks a supply droop, an RTN
//! burst, or a counter glitch — and counts how many reconstruction
//! attempts still recover the enrolled key.
//!
//! Zero intensity is the anchor: the plan is off, the injector never
//! fires, and the trial is byte-identical to the fault-free flow. The
//! sweep then shows *which* PUF budget buys robustness: the ARO design's
//! ECC margin absorbs early intensities, while the conventional control —
//! already failing through the same undersized code — has no margin left
//! to spend.
//!
//! Note the fault-class split documented in `docs/ROBUSTNESS.md`: the
//! flip-timeline experiments see environment excursions, noise bursts,
//! and hard RO faults (faults expressible as a measurement's physics);
//! counter glitches and helper-data erasures act on *responses* and
//! *stored bits*, so this experiment is where they bite.

use aro_circuit::ring::RoStyle;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;
use aro_ecc::soft::Erasures;
use aro_faults::{FaultInjector, FaultPlan};
use aro_metrics::bits::BitString;
use aro_puf::Chip;
use aro_serve::faulted_read;

use crate::config::SimConfig;
use crate::experiments::exp8;
use crate::keybench::{provision, KeyBench};
use crate::popcache::{age_chip_snapshotted, harvest_kernel_hints, par_map_chips, AgeCursor};
use crate::report::Report;
use crate::runner::pct;
use crate::table::Table;

/// The swept intensity points (fractions of the full `storm` plan).
pub const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// Outcome of the faulted end-to-end flow for one (style, intensity).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedKeyTrial {
    /// Cell style of the chips.
    pub style: RoStyle,
    /// Fraction of the full storm plan applied.
    pub intensity: f64,
    /// Chips enrolled.
    pub chips: usize,
    /// Reconstruction attempts per chip.
    pub attempts_per_chip: usize,
    /// Attempts that reproduced the enrolled key.
    pub recovered: usize,
    /// Attempts recovered by *blind* soft decoding of the same readings
    /// (confidence-weighted, but ignorant of which positions are damaged).
    pub recovered_soft: usize,
    /// Attempts recovered by **erasure-aware** soft decoding: NVM-flagged
    /// helper bits and BIST-flagged faulty-ring response bits vote with
    /// zero confidence (see `aro_ecc::soft::Erasures`).
    pub recovered_erasure_aware: usize,
    /// Rings killed or stuck across the population (hard faults).
    pub hard_faulted_ros: usize,
    /// Helper-data bits erased across the population.
    pub helper_bits_erased: usize,
}

impl FaultedKeyTrial {
    /// Measured key-recovery rate (hard decoding — the baseline flow).
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        self.recovered as f64 / (self.chips * self.attempts_per_chip) as f64
    }

    /// Key-recovery rate of blind soft decoding.
    #[must_use]
    pub fn soft_recovery_rate(&self) -> f64 {
        self.recovered_soft as f64 / (self.chips * self.attempts_per_chip) as f64
    }

    /// Key-recovery rate of erasure-aware soft decoding.
    #[must_use]
    pub fn erasure_aware_recovery_rate(&self) -> f64 {
        self.recovered_erasure_aware as f64 / (self.chips * self.attempts_per_chip) as f64
    }
}

/// Runs the faulted end-to-end flow for one style at one intensity.
/// Deterministic in `(cfg, style, generator, intensity)`: the injector is
/// coordinate-addressed, so the schedule does not depend on thread count
/// or call order. Uses exp8's design seed, so a zero-intensity trial
/// walks exactly the fault-free flow.
#[must_use]
pub fn run_trial(
    cfg: &SimConfig,
    style: RoStyle,
    generator: &KeyGenerator,
    intensity: f64,
    chips: usize,
    attempts_per_chip: usize,
) -> FaultedKeyTrial {
    let bench = KeyBench::new(cfg, style, generator, exp8::DESIGN_SALT);
    let mut chips = bench.chips(chips);
    run_trial_on(
        cfg,
        &bench,
        &mut chips,
        intensity,
        generator,
        attempts_per_chip,
    )
}

/// One chip's share of a [`FaultedKeyTrial`].
#[derive(Default)]
struct ChipTally {
    recovered: usize,
    recovered_soft: usize,
    recovered_erasure_aware: usize,
    hard_faulted_ros: usize,
    helper_bits_erased: usize,
}

/// [`run_trial`] on `chips` of `bench`, rewound to fresh silicon first.
/// The ten-year aging step goes through the aged-state snapshot store
/// ([`age_chip_snapshotted`]): inside one run, EXP-8 has already walked
/// the same silicon through the same step, so every intensity replays
/// its wear instead of re-deriving it. The chips fan out across
/// `aro-par` workers and their tallies fold in chip order.
fn run_trial_on(
    cfg: &SimConfig,
    bench: &KeyBench,
    chips: &mut [(Chip, BitString)],
    intensity: f64,
    generator: &KeyGenerator,
    attempts_per_chip: usize,
) -> FaultedKeyTrial {
    let plan = FaultPlan::storm().scaled(intensity);
    let inj = FaultInjector::new(plan, cfg.seed);

    let KeyBench {
        design,
        env,
        profile,
        pairs,
    } = bench;
    let style = design.style();
    let n_ros = design.n_ros();
    let chip_count = chips.len();

    // One chip's trial; the chips are independent, so they fan out and
    // their tallies fold in chip order.
    let trial = |slot: usize, (chip, golden): &mut (Chip, BitString)| {
        let mut tally = ChipTally::default();
        let id = slot as u64;
        // Factory: healthy silicon, nominal conditions, pristine NVM.
        chip.reset_to_fabricated();
        let mut cursor = AgeCursor::new();
        let mut enroll_rng = design.seed_domain().child("keygen").rng(id);
        let (key, helper) = generator.enroll(golden, &mut enroll_rng);

        // Field: rings die behind the factory's back, stored helper bits
        // erode once (NVM damage persists across attempts).
        for (fault_slot, health) in inj.hard_faults(id, n_ros) {
            chip.set_ro_health(fault_slot, health);
        }
        tally.hard_faulted_ros = chip.faulted_ro_count();
        let erasures = inj.helper_erasures(id, &helper.block_lens());
        tally.helper_bits_erased = erasures.len();
        let helper = helper.with_flipped_bits(&erasures);

        // What the device *knows* about its own damage: NVM integrity
        // flags name the eroded helper bits, and BIST names the response
        // bits whose pair involves a dead/stuck ring. Transient faults
        // (excursions, bursts, glitches) stay invisible — erasure-aware
        // decoding only gets knowledge the hardware actually has.
        let known = Erasures {
            helper: erasures.clone(),
            response: chip.bist_erasures(pairs),
        };

        age_chip_snapshotted(chip, design, profile, 10.0 * YEAR, &mut cursor);

        for attempt in 0..attempts_per_chip as u64 {
            // Each attempt is one measurement event: it may run under a
            // transient droop/spike, through a noisier readout, and its
            // counters may glitch. The soft reading consumes the exact
            // nonce stream `Chip::response` would, so the hard-decode
            // column is byte-identical to the original flow.
            let (soft, _) = faulted_read(chip, design, env, pairs, Some(&inj), id, attempt);
            let noisy: BitString = soft.iter().map(|s| s.value).collect();
            if generator.reconstruct(&noisy, &helper) == Some(key.clone()) {
                tally.recovered += 1;
            }
            if generator.reconstruct_soft(&soft, &helper, &Erasures::none()) == Some(key.clone()) {
                tally.recovered_soft += 1;
            }
            if generator.reconstruct_soft(&soft, &helper, &known) == Some(key.clone()) {
                tally.recovered_erasure_aware += 1;
            }
        }
        // The attempts warmed kernels at the aged state; donate them so
        // the next intensity point's replay preloads instead of
        // rebuilding.
        harvest_kernel_hints(chip, design, &cursor);
        tally
    };
    let tallies = par_map_chips(chips, |(chip, _)| chip.id(), trial);
    let total = |count: fn(&ChipTally) -> usize| tallies.iter().map(count).sum::<usize>();
    FaultedKeyTrial {
        style,
        intensity,
        chips: chip_count,
        attempts_per_chip,
        recovered: total(|t| t.recovered),
        recovered_soft: total(|t| t.recovered_soft),
        recovered_erasure_aware: total(|t| t.recovered_erasure_aware),
        hard_faulted_ros: total(|t| t.hard_faulted_ros),
        helper_bits_erased: total(|t| t.helper_bits_erased),
    }
}

/// Runs EXP-15.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-15", "Key recovery under injected faults (chaos sweep)");

    // Same provisioning as exp8: the ECC sized for the ARO design's
    // measured worst-case ten-year BER — the sweep then measures how much
    // *fault* margin that aging margin left behind.
    let (ber, generator) = provision(cfg, RoStyle::AgingResistant);
    let Some(generator) = generator else {
        report.push_note("no feasible ARO design point — increase the code search space");
        return report;
    };
    report.push_note(format!(
        "fault model: `storm` plan scaled by intensity (rates scale, magnitudes fixed); \
         ECC provisioned for fault-free BER {}",
        pct(ber)
    ));

    let chips = cfg.n_chips.clamp(4, 8);
    let attempts = 2;
    let mut table = Table::new(
        "Ten-year key recovery vs. injected fault intensity (same ECC for both styles)",
        &[
            "intensity",
            "design",
            "attempts",
            "recovered",
            "recovery rate",
            "hard-faulted ROs",
            "helper bits erased",
        ],
    );
    let mut anchors = Vec::new();
    let mut trials = Vec::new();
    for style in [RoStyle::AgingResistant, RoStyle::Conventional] {
        // One fabricated chip set per style for the whole intensity
        // sweep, rewound to fresh silicon at each point.
        let bench = KeyBench::new(cfg, style, &generator, exp8::DESIGN_SALT);
        let mut bench_chips = bench.chips(chips);
        for intensity in INTENSITIES {
            let trial = run_trial_on(
                cfg,
                &bench,
                &mut bench_chips,
                intensity,
                &generator,
                attempts,
            );
            if intensity == 0.0 {
                anchors.push(trial.clone());
            }
            table.push_row(vec![
                format!("{intensity:.2}"),
                match style {
                    RoStyle::AgingResistant => "ARO-PUF".to_string(),
                    RoStyle::Conventional => "RO-PUF (control)".to_string(),
                },
                (trial.chips * trial.attempts_per_chip).to_string(),
                trial.recovered.to_string(),
                pct(trial.recovery_rate()),
                trial.hard_faulted_ros.to_string(),
                trial.helper_bits_erased.to_string(),
            ]);
            trials.push(trial);
        }
    }
    report.push_table(table);

    let mut strategies = Table::new(
        "Decode-strategy comparison on identical faulted readings \
         (hard vs. blind soft vs. erasure-aware soft)",
        &[
            "intensity",
            "design",
            "hard",
            "soft (blind)",
            "erasure-aware",
        ],
    );
    for trial in &trials {
        strategies.push_row(vec![
            format!("{:.2}", trial.intensity),
            match trial.style {
                RoStyle::AgingResistant => "ARO-PUF".to_string(),
                RoStyle::Conventional => "RO-PUF (control)".to_string(),
            },
            pct(trial.recovery_rate()),
            pct(trial.soft_recovery_rate()),
            pct(trial.erasure_aware_recovery_rate()),
        ]);
    }
    report.push_table(strategies);

    report.push_note(format!(
        "zero-intensity anchor (must match the fault-free flow): ARO-PUF recovers {}, \
         RO-PUF control {}",
        pct(anchors[0].recovery_rate()),
        pct(anchors[1].recovery_rate())
    ));
    report.push_note(
        "glitches and helper-data erasures act on responses and stored bits, so they appear \
         here and not in the flip-timeline experiments; a single surviving helper-bit flip \
         defeats the key even inside the code's correction radius (see docs/ROBUSTNESS.md)",
    );
    let storm_lost: usize = trials
        .iter()
        .filter(|t| t.style == RoStyle::AgingResistant && t.intensity > 0.0)
        .map(|t| t.chips * t.attempts_per_chip - t.recovered)
        .sum();
    let storm_healed: usize = trials
        .iter()
        .filter(|t| t.style == RoStyle::AgingResistant && t.intensity > 0.0)
        .map(|t| t.recovered_erasure_aware.saturating_sub(t.recovered))
        .sum();
    report.push_note(format!(
        "erasure-aware decoding uses only knowledge the hardware has (NVM integrity flags, \
         ring BIST): zero-confidence votes silence flagged positions and the measured bit \
         stands in for each flagged offset bit — recovering {storm_healed} of the \
         {storm_lost} ARO attempts hard decoding loses across the nonzero intensities",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_generator};

    #[test]
    fn zero_intensity_matches_the_fault_free_flow() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let clean = run_trial(&cfg, RoStyle::AgingResistant, &generator, 0.0, 4, 2);
        assert_eq!(clean.recovered, 8, "fault-free ARO keys all survive");
        assert_eq!(clean.hard_faulted_ros, 0);
        assert_eq!(clean.helper_bits_erased, 0);
        // Same flow as exp8's trial, bit for bit (same design seed, same
        // enrollment streams): failures there = attempts - recovered here.
        let exp8 =
            crate::experiments::exp8::run_trial(&cfg, RoStyle::AgingResistant, &generator, 4, 2);
        assert_eq!(exp8.failures, 8 - clean.recovered);
    }

    #[test]
    fn full_storm_costs_keys_and_is_replayable() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let clean = run_trial(&cfg, RoStyle::AgingResistant, &generator, 0.0, 4, 2);
        let storm = run_trial(&cfg, RoStyle::AgingResistant, &generator, 1.0, 4, 2);
        assert!(
            storm.hard_faulted_ros + storm.helper_bits_erased > 0,
            "full storm must actually fault something"
        );
        assert!(
            storm.recovered < clean.recovered,
            "full storm must cost keys: {} vs {}",
            storm.recovered,
            clean.recovered
        );
        assert_eq!(
            storm,
            run_trial(&cfg, RoStyle::AgingResistant, &generator, 1.0, 4, 2),
            "the chaos sweep must be replayable"
        );
    }

    #[test]
    fn report_sweeps_both_styles_across_all_intensities() {
        let report = run(&tiny_cfg());
        let table = &report.tables()[0];
        assert_eq!(table.n_rows(), 2 * INTENSITIES.len());
        assert!(report.notes().len() >= 4);
        // The zero-intensity ARO row anchors at full recovery.
        assert_eq!(table.cell(0, 0), "0.00");
        assert_eq!(table.cell(0, 4), "100.00 %");
        // The strategy table covers the same sweep.
        assert_eq!(report.tables()[1].n_rows(), 2 * INTENSITIES.len());
    }

    #[test]
    fn erasure_awareness_dominates_blind_decoding_at_every_intensity() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let mut healed = 0usize;
        let mut lost = 0usize;
        for intensity in INTENSITIES {
            let trial = run_trial(&cfg, RoStyle::AgingResistant, &generator, intensity, 4, 2);
            assert!(
                trial.recovered_erasure_aware >= trial.recovered_soft,
                "aware {} < blind soft {} at intensity {intensity}",
                trial.recovered_erasure_aware,
                trial.recovered_soft,
            );
            assert!(
                trial.recovered_erasure_aware >= trial.recovered,
                "aware {} < hard {} at intensity {intensity}",
                trial.recovered_erasure_aware,
                trial.recovered,
            );
            if intensity == 0.0 {
                assert_eq!(trial.recovered_erasure_aware, 8, "clean flow loses nothing");
            } else {
                healed += trial.recovered_erasure_aware - trial.recovered;
                lost += 8 - trial.recovered;
            }
        }
        assert!(
            healed > 0,
            "erasure awareness must strictly recover some storm-lost keys ({lost} lost)"
        );
    }
}
