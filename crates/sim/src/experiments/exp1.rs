//! EXP-1 — RO frequency degradation vs. time (paper figure: the raw
//! aging curves that motivate the design).
//!
//! One chip per style lives ten years under the typical mission profile;
//! at each checkpoint we record the array-mean frequency at nominal
//! conditions. The conventional ring decays by several percent (static
//! idle BTI); the ARO ring's curve stays nearly flat.

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::{format_duration, YEAR};
use aro_puf::{Chip, MissionProfile};

use crate::config::SimConfig;
use crate::report::Report;
use crate::runner::design_for;
use crate::table::{Figure, Series, Table};

/// The degradation timeline of one style: `(age_s, mean Δf/f)` points.
fn degradation_curve(cfg: &SimConfig, style: RoStyle, checkpoints: &[f64]) -> Vec<(f64, f64)> {
    let design = design_for(cfg, style);
    let env = Environment::nominal(design.tech());
    let profile = MissionProfile::typical(design.tech());
    let mut chip = Chip::fabricate(&design, 0);
    let fresh: f64 = chip.frequencies(&design, &env).iter().sum::<f64>() / design.n_ros() as f64;

    let mut points = vec![(0.0, 0.0)];
    let mut age = 0.0;
    for &checkpoint in checkpoints {
        profile.age_chip(&mut chip, &design, checkpoint - age);
        age = checkpoint;
        let now: f64 = chip.frequencies(&design, &env).iter().sum::<f64>() / design.n_ros() as f64;
        points.push((checkpoint / YEAR, (fresh - now) / fresh));
    }
    points
}

/// Runs EXP-1.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let checkpoints: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0]
        .iter()
        .map(|y| y * YEAR)
        .collect();
    let conv = degradation_curve(cfg, RoStyle::Conventional, &checkpoints);
    let aro = degradation_curve(cfg, RoStyle::AgingResistant, &checkpoints);

    let mut report = Report::new("EXP-1", "RO frequency degradation vs. time");
    report.push_note(format!(
        "ten-year mean frequency degradation: RO-PUF {:.2} %, ARO-PUF {:.2} % \
         (typical mission: 45 C, always-on, 10 readouts/day)",
        conv.last().unwrap().1 * 100.0,
        aro.last().unwrap().1 * 100.0
    ));

    let mut table = Table::new(
        "Mean frequency degradation (Δf/f) at nominal 25 C / 1.20 V",
        &["age", "RO-PUF", "ARO-PUF"],
    );
    for (i, &cp) in std::iter::once(&0.0).chain(checkpoints.iter()).enumerate() {
        table.push_row(vec![
            format_duration(cp),
            format!("{:.3} %", conv[i].1 * 100.0),
            format!("{:.3} %", aro[i].1 * 100.0),
        ]);
    }
    report.push_table(table);

    let mut figure = Figure::new("Frequency degradation vs. time", "years", "Δf/f");
    figure.push_series(Series::new("RO-PUF", conv));
    figure.push_series(Series::new("ARO-PUF", aro));
    report.push_figure(figure);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_y(series: &Series) -> f64 {
        series.points.last().expect("empty series").1
    }

    #[test]
    fn conventional_degrades_much_more_and_both_are_monotone() {
        let report = run(&SimConfig::quick());
        let figure = &report.figures()[0];
        let conv = &figure.series()[0];
        let aro = &figure.series()[1];
        assert!(
            conv.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12),
            "monotone"
        );
        assert!(aro.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
        assert!(
            last_y(conv) > 0.04,
            "conventional ten-year decay {:.4}",
            last_y(conv)
        );
        assert!(last_y(conv) < 0.20);
        assert!(last_y(aro) < 0.35 * last_y(conv), "ARO must decay far less");
        assert_eq!(report.tables()[0].n_rows(), 9);
    }

    #[test]
    fn degradation_follows_a_power_law_shape() {
        // t^(1/6): the first year contributes more than the last year.
        let report = run(&SimConfig::quick());
        let conv = &report.figures()[0].series()[0];
        let first_year = conv.points[3].1; // 1 y
        let last_five = last_y(conv) - conv.points[6].1; // 5 y → 10 y
        assert!(
            first_year > last_five,
            "aging must decelerate: {first_year} vs {last_five}"
        );
    }
}
