//! EXP-2 — percentage of flipped bits vs. operation time (abstract claim
//! C1: **32 % for the conventional RO-PUF vs 7.7 % for the ARO-PUF after
//! ten years**).
//!
//! Each population is enrolled at the factory (averaged reads, nominal
//! conditions), deployed under the typical mission profile, and re-read at
//! the paper's checkpoints; a bit counts as flipped when it differs from
//! the enrollment reference.

use aro_circuit::ring::RoStyle;
use aro_device::units::{format_duration, YEAR};

use crate::config::SimConfig;
use crate::report::Report;
use crate::runner::{pct, FlipTimeline};
use crate::table::{Figure, Series, Table};

/// Measures the flip timeline of one style under the typical mission.
/// Memoized per run scope — exp5, exp8 and exp14 re-request the same
/// timeline this experiment measures.
#[must_use]
pub fn flip_timeline(cfg: &SimConfig, style: RoStyle) -> FlipTimeline {
    crate::popcache::standard_flip_timeline(cfg, style)
}

/// Runs EXP-2.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let conv = flip_timeline(cfg, RoStyle::Conventional);
    let aro = flip_timeline(cfg, RoStyle::AgingResistant);

    let mut report = Report::new("EXP-2", "Percentage of flipped bits vs. operation time");
    report.push_note(format!(
        "ten-year average flipped bits: RO-PUF {} (paper: 32 %), ARO-PUF {} (paper: 7.7 %)",
        pct(conv
            .final_mean()
            .expect("standard checkpoints are non-empty")),
        pct(aro
            .final_mean()
            .expect("standard checkpoints are non-empty"))
    ));
    report.push_note(format!(
        "99th-percentile chip at ten years: RO-PUF {}, ARO-PUF {} — the BER an ECC must be \
         provisioned for (used by EXP-5)",
        pct(conv.final_quantile(0.99)),
        pct(aro.final_quantile(0.99))
    ));

    let mut table = Table::new(
        "Average flipped bits vs. time (mean ± sd across chips)",
        &["age", "RO-PUF", "RO-PUF sd", "ARO-PUF", "ARO-PUF sd"],
    );
    for (i, &cp) in conv.checkpoints.iter().enumerate() {
        table.push_row(vec![
            format_duration(cp),
            pct(conv.mean[i]),
            pct(conv.std[i]),
            pct(aro.mean[i]),
            pct(aro.std[i]),
        ]);
    }
    report.push_table(table);

    let mut figure = Figure::new("Flipped bits vs. time", "years", "flip fraction");
    let to_points = |t: &FlipTimeline| {
        t.checkpoints
            .iter()
            .zip(&t.mean)
            .map(|(&c, &m)| (c / YEAR, m))
            .collect()
    };
    figure.push_series(Series::new("RO-PUF", to_points(&conv)));
    figure.push_series(Series::new("ARO-PUF", to_points(&aro)));
    report.push_figure(figure);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aro_flips_far_fewer_bits_with_the_right_shape() {
        let cfg = SimConfig::quick();
        let conv = flip_timeline(&cfg, RoStyle::Conventional);
        let aro = flip_timeline(&cfg, RoStyle::AgingResistant);
        // Shape: conventional lands in the tens of percent, ARO under ten
        // percent, ratio around 4× (paper: 32 / 7.7 ≈ 4.2).
        let conv_final = conv.final_mean().unwrap();
        let aro_final = aro.final_mean().unwrap();
        assert!(conv_final > 0.20, "conventional {conv_final}");
        assert!(conv_final < 0.45);
        assert!(aro_final < 0.13, "aro {aro_final}");
        let ratio = conv_final / aro_final;
        assert!(ratio > 2.0, "flip-rate ratio {ratio}");
        // Flip rates grow over the timeline.
        assert!(conv.mean.last().unwrap() > conv.mean.first().unwrap());
    }

    #[test]
    fn report_contains_the_paper_rows() {
        let report = run(&SimConfig::quick());
        assert_eq!(report.tables()[0].n_rows(), 6, "1 mo .. 10 y checkpoints");
        assert_eq!(report.figures()[0].series().len(), 2);
        assert!(report.notes()[0].contains("paper: 32 %"));
    }
}
