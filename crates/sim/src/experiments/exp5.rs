//! EXP-5 — total PUF + ECC area for a 128-bit key (abstract claim C4:
//! **~24× area reduction** for the ARO-PUF).
//!
//! Pipeline: measure each design's ten-year flip statistics (EXP-2's
//! machinery), provision the ECC for the **worst-case chip**
//! (99th-percentile BER — a key generator that only works on the average
//! chip is not a product), search the (repetition ⊗ BCH) design space for
//! the cheapest stack meeting the 10⁻⁶ key-failure target, and total the
//! silicon: RO cells + readout + decoders. The average-BER provisioning
//! is reported alongside for transparency.

use aro_circuit::ring::RoStyle;
use aro_ecc::area::KeyGenSpec;

use crate::config::SimConfig;
use crate::experiments::exp2;
use crate::report::Report;
use crate::runner::{pct, puf_area_params};
use crate::table::Table;

/// One provisioned design point with its measured BER input.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionedDesign {
    /// Which cell style.
    pub style: RoStyle,
    /// The BER the ECC was provisioned for.
    pub ber: f64,
    /// The winning design point.
    pub spec: KeyGenSpec,
}

/// Measures BERs and provisions both styles at the given quantile
/// (`0.99` = worst-case chip, `0.5` ≈ average chip).
#[must_use]
pub fn provision(cfg: &SimConfig, quantile: f64) -> Option<(ProvisionedDesign, ProvisionedDesign)> {
    let mut out = Vec::new();
    for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
        let timeline = exp2::flip_timeline(cfg, style);
        let ber = timeline.final_quantile(quantile);
        let params = puf_area_params(style, 5);
        let spec =
            crate::popcache::provisioned_spec(ber, cfg.key_bits, cfg.key_fail_target, &params)?;
        out.push(ProvisionedDesign { style, ber, spec });
    }
    let aro = out.pop()?;
    let conv = out.pop()?;
    Some((conv, aro))
}

fn spec_row(p: &ProvisionedDesign) -> Vec<String> {
    let s = &p.spec;
    vec![
        p.style.label().to_string(),
        pct(p.ber),
        format!("{}x", s.rep_r),
        if s.bch_t == 0 {
            "-".to_string()
        } else {
            format!("BCH({},{},{})", s.bch_n, s.bch_k, s.bch_t)
        },
        s.blocks.to_string(),
        s.raw_bits.to_string(),
        format!("{:.0}", s.puf_ge),
        format!("{:.0}", s.decoder_ge),
        format!("{:.0}", s.total_ge()),
        format!("{:.0}", s.total_um2()),
    ]
}

const SPEC_HEADERS: [&str; 10] = [
    "design",
    "provisioned BER",
    "repetition",
    "BCH (n,k,t)",
    "blocks",
    "raw bits",
    "PUF GE",
    "decoder GE",
    "total GE",
    "area um^2",
];

/// Runs EXP-5.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-5", "PUF + ECC area for a 128-bit key at 1e-6 failure");

    if let Some((conv, aro)) = provision(cfg, 0.99) {
        let ratio = conv.spec.total_ge() / aro.spec.total_ge();
        report.push_note(format!(
            "worst-case (99th-percentile chip) provisioning: area ratio RO-PUF / ARO-PUF = \
             {ratio:.1}x (paper: ~24x)"
        ));
        let mut table = Table::new(
            "Worst-case provisioning (99th-percentile ten-year BER)",
            &SPEC_HEADERS,
        );
        table.push_row(spec_row(&conv));
        table.push_row(spec_row(&aro));
        report.push_table(table);
    } else {
        report.push_note(
            "worst-case provisioning infeasible for the conventional design in the swept \
             code space — the ARO advantage is unbounded at this quantile",
        );
    }

    if let Some((conv, aro)) = provision(cfg, 0.5) {
        let ratio = conv.spec.total_ge() / aro.spec.total_ge();
        report.push_note(format!(
            "average-chip provisioning (optimistic): area ratio = {ratio:.1}x"
        ));
        let mut table = Table::new(
            "Average-chip provisioning (median ten-year BER)",
            &SPEC_HEADERS,
        );
        table.push_row(spec_row(&conv));
        table.push_row(spec_row(&aro));
        report.push_table(table);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_provisioning_shows_an_order_of_magnitude_gap() {
        let (conv, aro) = provision(&SimConfig::quick(), 0.99).expect("both feasible");
        assert!(conv.ber > aro.ber, "conventional BER must be worse");
        let ratio = conv.spec.total_ge() / aro.spec.total_ge();
        assert!(ratio > 6.0, "area ratio {ratio} (paper: ~24x)");
        assert!(conv.spec.raw_bits > aro.spec.raw_bits);
    }

    #[test]
    fn average_provisioning_still_favors_aro() {
        let (conv, aro) = provision(&SimConfig::quick(), 0.5).expect("both feasible");
        assert!(conv.spec.total_ge() > 2.0 * aro.spec.total_ge());
    }

    #[test]
    fn specs_meet_the_failure_target() {
        let cfg = SimConfig::quick();
        let (conv, aro) = provision(&cfg, 0.99).unwrap();
        assert!(conv.spec.key_failure <= cfg.key_fail_target);
        assert!(aro.spec.key_failure <= cfg.key_fail_target);
    }

    #[test]
    fn report_renders_both_tables() {
        let report = run(&SimConfig::quick());
        assert!(!report.tables().is_empty());
        assert!(report.notes()[0].contains("paper: ~24x"));
    }
}
