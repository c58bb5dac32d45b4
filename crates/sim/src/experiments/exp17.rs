//! EXP-17 — fault-aware provisioning: the area cost of storm tolerance.
//!
//! EXP-5 provisions the ECC against the *aging* BER alone — the implicit
//! assumption being that the field is otherwise kind. EXP-15 shows it is
//! not. This experiment extends the design-space search to a **(BER,
//! fault-rate) envelope**: for each storm intensity it re-measures the
//! ten-year flip timeline *with the fault layer live* (supply
//! excursions, RTN bursts, and dead/stuck rings land in the measured
//! statistics, exactly as a hostile qualification lot would show them),
//! folds the counter-glitch rate in analytically (a glitch flips a
//! response bit independently of the physics:
//! `aro_ecc::area::compose_error_rates`), and provisions the cheapest
//! code for the composed envelope.
//!
//! The deliverable is the **area premium**: how many more gate
//! equivalents a storm-rated key generator costs than the fault-free
//! provisioning of the same silicon. Helper-data erasures are deliberately
//! *not* in the envelope — no code rate fixes a corrupted offset bit
//! (EXP-15's lesson); they are the lifecycle's job (erasure-aware
//! decoding + refresh, EXP-16), which is what makes this split of labor
//! provisioning-complete: codes buy response-side margin, the lifecycle
//! buys stored-bit integrity.

use aro_circuit::ring::RoStyle;
use aro_ecc::area::{compose_error_rates, KeyGenSpec};
use aro_faults::FaultPlan;

use crate::config::SimConfig;
use crate::experiments::exp2;
use crate::report::Report;
use crate::runner::{pct, puf_area_params};
use crate::table::Table;

/// Swept storm intensities (zero = EXP-5's fault-free baseline).
pub const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// One point of the (BER, fault-rate) provisioning envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopePoint {
    /// Fraction of the full storm plan applied while measuring.
    pub intensity: f64,
    /// 99th-percentile ten-year BER measured with the fault layer live.
    pub measured_ber: f64,
    /// The plan's per-bit counter-glitch probability (composed in
    /// analytically).
    pub glitch_rate: f64,
    /// The composed envelope BER the search provisions for.
    pub envelope_ber: f64,
    /// The winning design point, or `None` when no swept code meets the
    /// failure target at this envelope.
    pub spec: Option<KeyGenSpec>,
}

/// Measures the faulted flip timeline and provisions the ARO design for
/// one intensity. The measurement runs under a config carrying the
/// intensity's plan in place of the run's own, so the population cache
/// keys it by that plan — intensity 0 attaches no faults and shares
/// EXP-2's fault-free entry, and no other entry is aliased.
#[must_use]
pub fn provision_for_intensity(cfg: &SimConfig, intensity: f64) -> EnvelopePoint {
    let plan = FaultPlan::storm().scaled(intensity);
    let timeline = exp2::flip_timeline(&cfg.clone().with_faults(plan), RoStyle::AgingResistant);
    let measured_ber = timeline.final_quantile(0.99);
    let glitch_rate = plan.glitch_prob;
    let envelope_ber = compose_error_rates(measured_ber, glitch_rate);
    let params = puf_area_params(RoStyle::AgingResistant, 5);
    let spec =
        crate::popcache::provisioned_spec(envelope_ber, cfg.key_bits, cfg.key_fail_target, &params);
    EnvelopePoint {
        intensity,
        measured_ber,
        glitch_rate,
        envelope_ber,
        spec,
    }
}

/// Runs EXP-17.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-17", "Fault-aware provisioning envelope");

    let points: Vec<EnvelopePoint> = INTENSITIES
        .iter()
        .map(|&intensity| provision_for_intensity(cfg, intensity))
        .collect();
    let baseline_ge = points
        .first()
        .and_then(|p| p.spec.as_ref())
        .map(KeyGenSpec::total_ge);

    let mut table = Table::new(
        "ARO-PUF provisioning for the (aging BER, fault rate) envelope \
         (99th-percentile chip, 1e-6 key failure)",
        &[
            "intensity",
            "measured BER",
            "glitch rate",
            "envelope BER",
            "repetition",
            "BCH (n,k,t)",
            "raw bits",
            "total GE",
            "area vs fault-free",
        ],
    );
    for point in &points {
        let (rep, bch, raw, total, ratio) = match &point.spec {
            Some(s) => (
                format!("{}x", s.rep_r),
                if s.bch_t == 0 {
                    "-".to_string()
                } else {
                    format!("BCH({},{},{})", s.bch_n, s.bch_k, s.bch_t)
                },
                s.raw_bits.to_string(),
                format!("{:.0}", s.total_ge()),
                baseline_ge.map_or("-".to_string(), |b| format!("{:.2}x", s.total_ge() / b)),
            ),
            None => (
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "infeasible".to_string(),
            ),
        };
        table.push_row(vec![
            format!("{:.2}", point.intensity),
            pct(point.measured_ber),
            pct(point.glitch_rate),
            pct(point.envelope_ber),
            rep,
            bch,
            raw,
            total,
            ratio,
        ]);
    }
    report.push_table(table);

    match (baseline_ge, points.last().and_then(|p| p.spec.as_ref())) {
        (Some(baseline), Some(storm_spec)) => report.push_note(format!(
            "storm tolerance is a provisioning line item: rating the same silicon for the \
             full-storm envelope costs {:.2}x the fault-free key generator's area \
             ({:.0} vs {:.0} GE)",
            storm_spec.total_ge() / baseline,
            storm_spec.total_ge(),
            baseline,
        )),
        (_, None) => report.push_note(
            "the full-storm envelope exceeds the swept code space — no repetition ⊗ BCH \
             point meets 1e-6 there; pair a lighter rating with the EXP-16 lifecycle instead",
        ),
        (None, _) => {
            report.push_note("no feasible fault-free baseline — increase the code search space")
        }
    }
    report.push_note(
        "the envelope covers response-side faults only (excursions, bursts, hard rings in \
         the measured timeline; glitches composed analytically): helper-data erasures \
         defeat any code rate and are handled by the EXP-16 lifecycle, not by provisioning",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_cfg;

    #[test]
    fn zero_intensity_matches_the_fault_free_provisioning() {
        let cfg = tiny_cfg();
        let point = provision_for_intensity(&cfg, 0.0);
        assert_eq!(point.glitch_rate, 0.0);
        assert_eq!(point.measured_ber, point.envelope_ber);
        // Identical to exp5's ARO path at the same quantile.
        let timeline = exp2::flip_timeline(&cfg, RoStyle::AgingResistant);
        assert_eq!(point.measured_ber, timeline.final_quantile(0.99));
    }

    #[test]
    fn envelopes_widen_and_cost_area_with_intensity() {
        let cfg = tiny_cfg();
        let clean = provision_for_intensity(&cfg, 0.0);
        let storm = provision_for_intensity(&cfg, 1.0);
        assert!(
            storm.envelope_ber > clean.envelope_ber,
            "storm envelope {} must exceed clean {}",
            storm.envelope_ber,
            clean.envelope_ber
        );
        let clean_spec = clean.spec.expect("fault-free point feasible");
        if let Some(storm_spec) = storm.spec {
            assert!(
                storm_spec.total_ge() >= clean_spec.total_ge(),
                "storm rating cannot be cheaper"
            );
        }
    }

    #[test]
    fn provisioning_is_replayable() {
        let cfg = tiny_cfg();
        assert_eq!(
            provision_for_intensity(&cfg, 0.5),
            provision_for_intensity(&cfg, 0.5)
        );
    }

    #[test]
    fn report_covers_every_intensity_with_verdict_notes() {
        let report = run(&tiny_cfg());
        assert_eq!(report.tables()[0].n_rows(), INTENSITIES.len());
        assert_eq!(report.notes().len(), 2);
        assert_eq!(report.tables()[0].cell(0, 8), "1.00x");
    }
}
