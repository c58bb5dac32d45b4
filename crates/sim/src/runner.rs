//! Shared experiment plumbing: population construction, aging timelines,
//! flip-rate measurement, and the PUF-side area parameters.

use aro_circuit::netlist::{readout_area, RoCell};
use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::rng::SeedDomain;
use aro_ecc::area::PufAreaParams;
use aro_faults::FaultInjector;
use aro_metrics::stats::quantile;
use aro_puf::{Enrollment, MissionProfile, PairingStrategy, Population, PufDesign};

use crate::config::SimConfig;

/// The evaluation design of a style under a config (seed derived from the
/// config seed and the style label, so the two styles use independent but
/// reproducible randomness).
#[must_use]
pub fn design_for(cfg: &SimConfig, style: RoStyle) -> PufDesign {
    let seed = SeedDomain::new(cfg.seed).child(style.label()).seed(0);
    PufDesign::builder(style)
        .n_ros(cfg.n_ros)
        .seed(seed)
        .build()
}

/// Fabricates the population of a style under a config. Inside a
/// [`crate::popcache::scoped`] region (every `run_by_id` call)
/// repeated requests clone one cached baseline instead of refabricating.
#[must_use]
pub fn build_population(cfg: &SimConfig, style: RoStyle) -> Population {
    crate::popcache::fabricate(&design_for(cfg, style), cfg.n_chips)
}

/// Flip-rate statistics along an aging timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipTimeline {
    /// Checkpoint ages in seconds.
    pub checkpoints: Vec<f64>,
    /// Mean flip rate across chips at each checkpoint.
    pub mean: Vec<f64>,
    /// Std-dev of the flip rate across chips at each checkpoint.
    pub std: Vec<f64>,
    /// Per-chip flip rates at the final checkpoint.
    pub final_rates: Vec<f64>,
}

/// Error of [`FlipTimeline::final_mean`]: the timeline was measured over
/// zero checkpoints, so there is no final flip rate to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyTimeline;

impl std::fmt::Display for EmptyTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("flip timeline has no checkpoints")
    }
}

impl std::error::Error for EmptyTimeline {}

impl FlipTimeline {
    /// Mean flip rate at the final checkpoint.
    ///
    /// # Errors
    /// Returns [`EmptyTimeline`] if the timeline holds no checkpoints
    /// (e.g. it was measured over an empty checkpoint list).
    pub fn final_mean(&self) -> Result<f64, EmptyTimeline> {
        self.mean.last().copied().ok_or(EmptyTimeline)
    }

    /// The `q`-quantile of the per-chip final flip rates — the worst-case
    /// BER an ECC must be provisioned for.
    #[must_use]
    pub fn final_quantile(&self, q: f64) -> f64 {
        quantile(&self.final_rates, q)
    }
}

/// Enrolls a population at nominal conditions, plays the mission through
/// each checkpoint, and measures the flip rate against enrollment at every
/// stop.
///
/// Under an `injector` the re-reads run under injected physics: hard RO
/// faults strike each chip after factory enrollment (a fielded chip loses
/// rings the factory never saw fail), and every per-checkpoint
/// measurement may see a transient environment excursion and/or an RTN
/// noise burst. The injector is shared by reference into the parallel
/// workers; every fault event is addressed by `(chip id, checkpoint)`, so
/// the schedule is byte-identical at any `--threads N`.
#[must_use]
pub fn measure_flip_timeline(
    population: &mut Population,
    profile: &MissionProfile,
    checkpoints: &[f64],
    injector: Option<&FaultInjector>,
) -> FlipTimeline {
    let design = population.design().clone();
    let env = Environment::nominal(design.tech());
    let strategy = PairingStrategy::Neighbor;
    let enrollments: Vec<Enrollment> = {
        let _span = aro_obs::span("sim.enroll");
        let enrollments = population.enroll_all(&env, &strategy);
        aro_obs::counter("sim.enrollments", enrollments.len() as u64);
        enrollments
    };

    if let Some(inj) = injector {
        // Hard faults land after enrollment: the factory enrolled healthy
        // silicon, the field kills rings behind its back.
        let n_ros = design.n_ros();
        for chip in population.chips_mut() {
            for (slot, health) in inj.hard_faults(chip.id(), n_ros) {
                chip.set_ro_health(slot, health);
            }
        }
    }

    let mut mean = Vec::with_capacity(checkpoints.len());
    let mut std = Vec::with_capacity(checkpoints.len());
    let mut final_rates = Vec::new();
    let mut age = 0.0;
    for (ck_event, &checkpoint) in checkpoints.iter().enumerate() {
        assert!(checkpoint >= age, "checkpoints must be non-decreasing");
        let step = checkpoint - age;
        age = checkpoint;
        let _step_span = aro_obs::span("sim.timeline_step");
        // Aging and re-reading are per-chip independent (each chip owns
        // its RNG streams), so fan both out across cores; results land by
        // index, keeping the run bit-identical to sequential.
        let rates: Vec<f64> = aro_par::par_map_mut(population.chips_mut(), |i, chip| {
            profile.age_chip(chip, &design, step);
            // Transient faults for THIS chip's re-read at THIS checkpoint.
            let (burst_design, meas_env) = match injector {
                None => (None, env),
                Some(inj) => (
                    inj.noise_burst(chip.id(), ck_event as u64).map(|factor| {
                        design.with_readout(design.readout().with_noise_burst(factor))
                    }),
                    inj.measurement_env(chip.id(), ck_event as u64, &env),
                ),
            };
            let meas_design = burst_design.as_ref().unwrap_or(&design);
            let rate = enrollments[i].flip_rate_now(chip, meas_design, &meas_env);
            let bits = enrollments[i].bits() as u64;
            aro_obs::counter("sim.chips_simulated", 1);
            aro_obs::counter("sim.bits_evaluated", bits);
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            aro_obs::counter("sim.flips_observed", (rate * bits as f64).round() as u64);
            rate
        });
        if aro_obs::enabled() {
            // Drift-vs-age: a per-checkpoint BER sketch keyed by the age
            // in years (zero-padded so name order is age order). Streamed
            // on the spawning thread, after the deterministic by-index
            // collection, so the bytes match at any thread count.
            let name = format!("puf.ber.y{:07.2}", age / aro_device::units::YEAR);
            for &rate in &rates {
                aro_obs::sketch_dyn(&name, rate);
            }
        }
        let m = rates.iter().sum::<f64>() / rates.len() as f64;
        let s = if rates.len() > 1 {
            (rates.iter().map(|r| (r - m).powi(2)).sum::<f64>() / (rates.len() - 1) as f64).sqrt()
        } else {
            0.0
        };
        mean.push(m);
        std.push(s);
        final_rates = rates;
    }
    FlipTimeline {
        checkpoints: checkpoints.to_vec(),
        mean,
        std,
        final_rates,
    }
}

/// PUF-side area parameters of a style, derived from the circuit-level
/// cell and readout models (16-bit counters, disjoint pairing).
#[must_use]
pub fn puf_area_params(style: RoStyle, n_stages: usize) -> PufAreaParams {
    let cell = match style {
        RoStyle::Conventional => RoCell::conventional(n_stages),
        RoStyle::AgingResistant => RoCell::aging_resistant(n_stages),
    };
    // Fixed part: counters + comparator (mux legs are per-RO below).
    let fixed = readout_area(1, 16);
    let with_muxes = readout_area(2, 16);
    let per_ro_ge = (with_muxes.area_um2 - fixed.area_um2) / aro_circuit::netlist::GE_AREA_UM2;
    PufAreaParams {
        ro_cell_ge: cell.area().gate_equivalents(),
        readout_fixed_ge: fixed.area_um2 / aro_circuit::netlist::GE_AREA_UM2,
        readout_per_ro_ge: per_ro_ge,
        ros_per_bit: 2.0,
    }
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2} %", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_device::units::YEAR;

    #[test]
    fn designs_differ_per_style_but_are_deterministic() {
        let cfg = SimConfig::quick();
        let a = design_for(&cfg, RoStyle::Conventional);
        let b = design_for(&cfg, RoStyle::Conventional);
        let c = design_for(&cfg, RoStyle::AgingResistant);
        assert_eq!(a, b);
        assert_ne!(a.style(), c.style());
        assert_eq!(a.n_ros(), cfg.n_ros);
    }

    #[test]
    fn flip_timeline_is_monotone_and_conventional_flips_more() {
        let cfg = SimConfig::quick();
        let checkpoints = [YEAR, 5.0 * YEAR, 10.0 * YEAR];
        let run = |style| {
            let mut population = build_population(&cfg, style);
            let profile = MissionProfile::typical(population.design().tech());
            measure_flip_timeline(&mut population, &profile, &checkpoints, None)
        };
        let conv = run(RoStyle::Conventional);
        let aro = run(RoStyle::AgingResistant);
        // Flip rates grow with age (up to measurement-noise wiggle).
        assert!(conv.mean[2] > conv.mean[0]);
        assert!(
            conv.final_mean().unwrap() > 2.0 * aro.final_mean().unwrap(),
            "ARO must flip far less"
        );
        assert_eq!(conv.final_rates.len(), cfg.n_chips);
        assert!(conv.final_quantile(0.99) >= conv.final_quantile(0.5));
    }

    #[test]
    fn final_mean_errors_on_an_empty_timeline() {
        let empty = FlipTimeline {
            checkpoints: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
            final_rates: Vec::new(),
        };
        assert_eq!(empty.final_mean(), Err(EmptyTimeline));
        assert_eq!(
            EmptyTimeline.to_string(),
            "flip timeline has no checkpoints"
        );
        let mut population = build_population(&SimConfig::quick(), RoStyle::Conventional);
        let profile = MissionProfile::typical(population.design().tech());
        let measured = measure_flip_timeline(&mut population, &profile, &[], None);
        assert_eq!(measured.final_mean(), Err(EmptyTimeline));
    }

    #[test]
    fn an_injector_degrades_the_timeline_deterministically() {
        use aro_faults::FaultPlan;
        let cfg = SimConfig::quick();
        let checkpoints = [YEAR, 10.0 * YEAR];
        let run = |injector: Option<&FaultInjector>| {
            let mut population = build_population(&cfg, RoStyle::Conventional);
            let profile = MissionProfile::typical(population.design().tech());
            measure_flip_timeline(&mut population, &profile, &checkpoints, injector)
        };
        let clean = run(None);
        let off = run(Some(&FaultInjector::new(FaultPlan::off(), cfg.seed)));
        assert_eq!(clean, off, "zero-intensity must be byte-identical");
        let storm = FaultInjector::new(FaultPlan::storm(), cfg.seed);
        let faulted = run(Some(&storm));
        let faulted_again = run(Some(&storm));
        assert_eq!(faulted, faulted_again, "chaos must be replayable");
        assert!(
            faulted.final_mean().unwrap() > clean.final_mean().unwrap(),
            "storm faults must raise the flip rate: {} vs {}",
            faulted.final_mean().unwrap(),
            clean.final_mean().unwrap()
        );
    }

    #[test]
    fn area_params_reflect_cell_sizes() {
        let conv = puf_area_params(RoStyle::Conventional, 5);
        let aro = puf_area_params(RoStyle::AgingResistant, 5);
        assert!(aro.ro_cell_ge > conv.ro_cell_ge);
        assert_eq!(conv.readout_fixed_ge, aro.readout_fixed_ge);
        assert!(conv.readout_per_ro_ge > 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.3213), "32.13 %");
    }
}
