//! `repro serve-bench` — the fleet authentication service benchmark.
//!
//! Unlike EXP-18 (which sweeps its *own* storm intensities), this mode
//! runs under the **ambient** fault plan of its config (`repro --faults`,
//! [`SimConfig::with_faults`]): the operator picks one storm and the
//! benchmark reports what the service delivers under it — auths/sec,
//! p50/p99 simulated latency, and FAR/FRR across cell styles and fleet
//! ages. All latency is simulated integer µs and every random draw is
//! seed-derived, so the whole report is byte-identical at any
//! `--threads N`.
//!
//! When any sweep point ends with the service out of its healthy state,
//! the report carries [`DEGRADED_MARKER`]; the `repro` binary maps that
//! marker to exit code 3 (degraded-but-served), distinct from both
//! success (0) and crash.

use aro_serve::{BenchPlan, HealthState};

use crate::config::SimConfig;
use crate::report::Report;
use crate::servefleet::sweep;

/// Note prefix the `repro` binary greps for to exit 3 when the service
/// finished a bench point degraded or read-only. Stable across
/// ledger-replayed and fresh runs (it lives in the rendered report).
pub const DEGRADED_MARKER: &str = "service ended degraded";

/// Swept fleet ages in years.
pub const FLEET_AGES_YEARS: [f64; 3] = [0.0, 5.0, 10.0];

/// Traffic per sweep point (heavier than EXP-18: this is the perf mode).
const PLAN: BenchPlan = BenchPlan {
    genuine_rounds: 8,
    impostor_rounds: 3,
};

/// Runs the serve benchmark under the config's fault plan and
/// replication factor.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new("SERVE-BENCH", "Fleet authentication service benchmark");
    let inj = cfg.injector();
    // The config carries the plan, not the operator's spec string; tag
    // rows with the injector fingerprint (stable for a given `--faults`
    // spec and seed, so thread-count diffs still match).
    let faults_label = inj.as_ref().map_or_else(
        || "off".to_string(),
        |inj| format!("ambient#{:08x}", inj.fingerprint() as u32),
    );
    let title = format!(
        "Fleet auth service throughput/accuracy (faults: {faults_label}, \
         {}-way replicated store)",
        cfg.replicas
    );
    let faults = [(faults_label, inj)];
    let trials = sweep(&mut report, cfg, &title, &FLEET_AGES_YEARS, &faults, &PLAN);
    let degraded_points = trials
        .iter()
        .filter(|stats| stats.final_state != HealthState::Healthy)
        .count() as u64;
    let false_accepts: u64 = trials.iter().map(|stats| stats.impostor_accepted).sum();
    let total_served: u64 = trials
        .iter()
        .map(|stats| stats.genuine_served + stats.impostor_served)
        .sum();
    report.push_note(format!(
        "{total_served} authentications served, {false_accepts} false accepts — every \
         untrustworthy read (corrupt record, malformed answer, timeout) fails closed"
    ));
    if degraded_points > 0 {
        aro_obs::counter("serve.bench_degraded_points", degraded_points);
        report.push_note(format!(
            "{DEGRADED_MARKER} at {degraded_points} sweep point(s): deterministic load \
             shedding (reject-with-retry-after) kept answering instead of crashing; \
             `repro` exits 3"
        ));
    }
    report.push_note(
        "latency is simulated (integer µs, shard-parallel wall model) and every jitter \
         draw is seed-derived per (device, event): the report is byte-identical at any \
         `--threads N`",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_cfg;
    use aro_faults::FaultPlan;

    #[test]
    fn fault_free_bench_stays_healthy_with_no_marker() {
        let report = run(&tiny_cfg());
        assert_eq!(report.tables()[0].n_rows(), 2 * FLEET_AGES_YEARS.len());
        assert!(
            !report.notes().iter().any(|n| n.contains(DEGRADED_MARKER)),
            "no faults, no degraded marker: {:?}",
            report.notes()
        );
    }

    #[test]
    fn full_storm_degrades_without_false_accepts() {
        let report = run(&tiny_cfg().with_faults(FaultPlan::storm()));
        assert!(
            report.notes().iter().any(|n| n.contains(DEGRADED_MARKER)),
            "storm@1 must end degraded: {:?}",
            report.notes()
        );
        assert!(
            report.notes().iter().any(|n| n.contains("0 false accepts")),
            "zero false accepts even at storm@1: {:?}",
            report.notes()
        );
    }
}
