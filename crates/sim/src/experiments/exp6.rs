//! EXP-6 — ablation: how the ten-year flip rate scales with idle stress
//! duty and with mission temperature.
//!
//! The duty sweep is the design knob behind the whole paper: the ARO
//! cell's value is exactly that it moves the idle-stress duty factor from
//! 1.0 (conventional static stress) toward 0. The temperature sweep shows
//! Arrhenius acceleration: the hotter the mission, the bigger the ARO
//! advantage.

use aro_circuit::ring::RoStyle;
use aro_device::params::TechParams;
use aro_device::units::YEAR;
use aro_puf::{MissionProfile, PufDesign};

use crate::config::SimConfig;
use crate::report::Report;
use crate::runner::{design_for, measure_flip_timeline, pct};
use crate::table::{Figure, Series, Table};

/// The idle-duty grid of the ablation.
const DUTIES: [f64; 6] = [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0];

/// The mission-temperature grid in °C.
const TEMPS: [f64; 5] = [25.0, 45.0, 65.0, 85.0, 105.0];

fn sweep_chips(cfg: &SimConfig) -> usize {
    (cfg.n_chips / 2).max(8).min(cfg.n_chips)
}

/// Ten-year flip rate of an ARO-style array whose idle residual duty is
/// forced to `duty`.
#[must_use]
pub fn flip_rate_at_duty(cfg: &SimConfig, duty: f64) -> f64 {
    let tech = TechParams {
        aro_idle_stress_fraction: duty,
        ..TechParams::default()
    };
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(cfg.n_ros)
        .tech(tech)
        .seed(cfg.seed ^ 0x6e6)
        .build();
    let mut population = crate::popcache::fabricate(&design, sweep_chips(cfg));
    let profile = MissionProfile::typical(design.tech());
    let injector = cfg.injector();
    measure_flip_timeline(&mut population, &profile, &[10.0 * YEAR], injector.as_ref())
        .final_mean()
        .expect("one checkpoint")
}

/// Ten-year flip rate of a style at mission temperature `temp_celsius`.
#[must_use]
pub fn flip_rate_at_temp(cfg: &SimConfig, style: RoStyle, temp_celsius: f64) -> f64 {
    // The population cache collapses the temperature sweep to two
    // fabrications per style (first sighting + baseline promotion); every
    // later point clones the baseline (this function used to refabricate
    // the identical population per point).
    let design = design_for(cfg, style);
    let mut population = crate::popcache::fabricate(&design, sweep_chips(cfg));
    let mut profile = MissionProfile::typical(design.tech());
    profile.temp_celsius = temp_celsius;
    let injector = cfg.injector();
    measure_flip_timeline(&mut population, &profile, &[10.0 * YEAR], injector.as_ref())
        .final_mean()
        .expect("one checkpoint")
}

/// Runs EXP-6.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-6", "Stress-scenario ablation (duty and temperature)");

    let duty_rates: Vec<(f64, f64)> = DUTIES
        .iter()
        .map(|&d| (d, flip_rate_at_duty(cfg, d)))
        .collect();
    let mut duty_table = Table::new(
        "Ten-year flip rate vs. idle stress duty (ARO cell, duty forced)",
        &["idle duty", "flip rate"],
    );
    for &(d, r) in &duty_rates {
        duty_table.push_row(vec![format!("{d:.4}"), pct(r)]);
    }
    report.push_table(duty_table);
    let mut duty_fig = Figure::new("Flip rate vs. idle duty", "duty", "flip fraction");
    duty_fig.push_series(Series::new("ARO cell", duty_rates.clone()));
    report.push_figure(duty_fig);

    let mut temp_table = Table::new(
        "Ten-year flip rate vs. mission temperature",
        &["temperature", "RO-PUF", "ARO-PUF"],
    );
    let mut conv_curve = Vec::new();
    let mut aro_curve = Vec::new();
    for &t in &TEMPS {
        let conv = flip_rate_at_temp(cfg, RoStyle::Conventional, t);
        let aro = flip_rate_at_temp(cfg, RoStyle::AgingResistant, t);
        conv_curve.push((t, conv));
        aro_curve.push((t, aro));
        temp_table.push_row(vec![format!("{t:.0} C"), pct(conv), pct(aro)]);
    }
    report.push_table(temp_table);
    let mut temp_fig = Figure::new("Flip rate vs. temperature", "deg C", "flip fraction");
    temp_fig.push_series(Series::new("RO-PUF", conv_curve.clone()));
    temp_fig.push_series(Series::new("ARO-PUF", aro_curve));
    report.push_figure(temp_fig);

    report.push_note(format!(
        "flip rate rises monotonically with idle duty ({} at duty 1e-4 vs {} at duty 1.0) — \
         the ARO cell's stress removal is the mechanism, not a side effect",
        pct(duty_rates[0].1),
        pct(duty_rates[5].1)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_rate_is_monotone_in_duty() {
        let cfg = SimConfig::quick();
        let low = flip_rate_at_duty(&cfg, 1e-4);
        let mid = flip_rate_at_duty(&cfg, 0.05);
        let high = flip_rate_at_duty(&cfg, 1.0);
        assert!(low < mid, "{low} !< {mid}");
        assert!(mid < high, "{mid} !< {high}");
        assert!(
            high > 0.2,
            "full-duty ARO ages like a conventional cell: {high}"
        );
    }

    #[test]
    fn hotter_missions_flip_more_for_conventional() {
        let cfg = SimConfig::quick();
        let cool = flip_rate_at_temp(&cfg, RoStyle::Conventional, 25.0);
        let hot = flip_rate_at_temp(&cfg, RoStyle::Conventional, 105.0);
        assert!(hot > cool, "hot {hot} vs cool {cool}");
    }

    #[test]
    fn aro_beats_conventional_at_every_temperature() {
        let cfg = SimConfig::quick();
        for t in [25.0, 85.0] {
            let conv = flip_rate_at_temp(&cfg, RoStyle::Conventional, t);
            let aro = flip_rate_at_temp(&cfg, RoStyle::AgingResistant, t);
            assert!(aro < conv, "at {t} C: aro {aro} vs conv {conv}");
        }
    }
}
