//! EXP-18 — the fleet authentication service under fault storms.
//!
//! The lifecycle experiments (EXP-15/16/17) ask whether one *device*
//! keeps its key; this one asks whether the *verifier backend* keeps
//! serving. A fleet of enrolled devices drives authentication traffic
//! through [`aro_serve::AuthService`] while storms hit both sides: the
//! devices (excursions, bursts, glitches, dead rings) and the service's
//! own record store (NVM erosion of the stored helper data, checksum-
//! detected on read). The sweep crosses cell style × fleet age × storm
//! intensity and reports throughput, tail latency, FAR/FRR, and how the
//! service *degrades*: load shedding, quarantine → helper-refresh →
//! re-admission, and the healthy → degraded → read-only state machine.
//!
//! The robustness claims under test:
//!
//! * **Zero false accepts, always.** Corrupt records, malformed
//!   answers, and timed-out reads fail closed at every intensity.
//! * **Degrade, don't die.** At `storm@1` the service ends a sweep
//!   point shedding load (degraded/read-only), not crashed — rejects
//!   with retry-after are the designed failure mode.
//! * **Aging is recoverable.** The ARO cell keeps genuine distances
//!   inside the accept threshold at ten years; devices whose margin
//!   erodes are quarantined and re-anchored through the continuity-
//!   gated helper refresh, then re-admitted.

use aro_faults::{FaultInjector, FaultPlan};
use aro_serve::{BenchPlan, HealthState};

use crate::config::SimConfig;
use crate::report::Report;
use crate::servefleet::sweep;

/// Swept fleet ages in years (fresh silicon and the paper's ten-year
/// mission end).
pub const FLEET_AGES_YEARS: [f64; 2] = [0.0, 10.0];

/// Swept storm intensities (zero is the fault-free determinism anchor).
pub const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Traffic per sweep point.
const PLAN: BenchPlan = BenchPlan {
    genuine_rounds: 6,
    impostor_rounds: 2,
};

/// Runs EXP-18.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("EXP-18", "Fleet authentication service under fault storms");
    let faults: Vec<_> = INTENSITIES
        .iter()
        .map(|&intensity| {
            let inj = (intensity > 0.0)
                .then(|| FaultInjector::new(FaultPlan::storm().scaled(intensity), cfg.seed));
            (format!("storm@{intensity}"), inj)
        })
        .collect();
    let trials = sweep(
        &mut report,
        cfg,
        "Fleet auth service vs. cell style, fleet age, and storm intensity",
        &FLEET_AGES_YEARS,
        &faults,
        &PLAN,
    );
    let degraded_points = trials
        .iter()
        .filter(|stats| stats.final_state != HealthState::Healthy)
        .count() as u64;
    let false_accepts: u64 = trials.iter().map(|stats| stats.impostor_accepted).sum();
    let reenrolled: u64 = trials.iter().map(|stats| stats.tallies.reenrolled).sum();
    let quarantines: u64 = trials.iter().map(|stats| stats.tallies.quarantines).sum();
    report.push_note(format!(
        "false accepts across all traffic (genuine + impostor + storms): {false_accepts} \
         — corrupt store records, malformed answers, and timed-out reads all fail closed"
    ));
    if degraded_points > 0 {
        aro_obs::counter("serve.sweep_degraded_points", degraded_points);
        report.push_note(format!(
            "{degraded_points} sweep point(s) ended with the service shedding load \
             (degraded/read-only): reject-with-retry-after and refused re-enrollment \
             writes, never a wrong answer and never a crash"
        ));
    }
    report.push_note(format!(
        "maintenance loop: {quarantines} quarantine(s), {reenrolled} re-admitted through \
         the continuity-gated helper refresh (store record resealed against today's \
         silicon)"
    ));
    report.push_note(
        "pipeline policy: 3 attempts per request under a 400 µs per-attempt budget with \
         exponential seed-jittered backoff; store erosion uses the device NVM fault \
         machinery at verifier-side window coordinates, detected by per-record checksums \
         on read",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_cfg;

    #[test]
    fn report_sweeps_all_points_and_never_false_accepts() {
        let report = run(&tiny_cfg());
        let table = &report.tables()[0];
        assert_eq!(
            table.n_rows(),
            2 * FLEET_AGES_YEARS.len() * INTENSITIES.len(),
            "both styles × ages × intensities"
        );
        let zero_fa = report
            .notes()
            .iter()
            .any(|n| n.contains("false accepts across all traffic") && n.contains(": 0 "));
        assert!(
            zero_fa,
            "the zero-false-accept note must hold: {:?}",
            report.notes()
        );
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = tiny_cfg();
        assert_eq!(run(&cfg), run(&cfg));
    }
}
