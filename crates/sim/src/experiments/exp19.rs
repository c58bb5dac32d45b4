//! EXP-19 — surviving the full storm end-to-end: the cheapest
//! (code area, refresh interval, replication factor) triple.
//!
//! EXP-16 sweeps the refresh schedule but caps below target at the full
//! storm — the residual losses are stored-bit casualties no schedule
//! fixes alone. EXP-17 prices storm tolerance into the code but leaves
//! helper-data integrity to the lifecycle. This experiment composes the
//! two with the third axis the serve layer added: **N-way replicated
//! helper storage** with quorum reads and scrub-on-refresh. For every
//! storm intensity it searches the cross product of
//!
//! * EXP-17's envelope-provisioned codes (fault-free up to full-storm
//!   rated — each with its own logic area),
//! * EXP-16's refresh intervals (never → every 1.25 years), and
//! * replication factors 1–3 (each replica is a full helper copy of
//!   public NVM, priced by `aro_ecc::area::replicated_total_ge`),
//!
//! in **ascending area order** (ties: fewer refreshes, then fewer
//! replicas), running one replicated maintained-mission trial per triple
//! and stopping at the first that reaches the ≥99 % ten-year recovery
//! target with zero impostor accepts. The stop point *is* the answer:
//! the cheapest provisioning triple that survives that storm. Every
//! trial also drives the false-accept probe (chip *i* attacks chip
//! *i+1*'s enrollment), because a "survival" bought with a loose code
//! would show up here as accepted impostors.

use std::collections::BTreeMap;

use aro_circuit::ring::RoStyle;
use aro_device::units::YEAR;
use aro_ecc::area::{replicated_total_ge, KeyGenSpec};
use aro_ecc::keygen::KeyGenerator;
use aro_ecc::refresh::RefreshSchedule;

use crate::config::SimConfig;
use crate::experiments::exp16::{
    self, interval_label, run_replicated_trial_on, ReplicatedLifecycleTrial,
};
use crate::experiments::exp17;
use crate::keybench::KeyBench;
use crate::report::Report;
use crate::runner::{pct, puf_area_params};
use crate::table::Table;

/// Swept storm intensities (EXP-16's: the lifecycle only matters under
/// fire, and storm@1 is the acceptance bar).
pub const INTENSITIES: [f64; 3] = exp16::INTENSITIES;

/// Swept helper-store replication factors.
pub const REPLICAS: [usize; 3] = [1, 2, 3];

/// Ten-year recovery target every surviving triple must reach.
pub const RECOVERY_TARGET: f64 = exp16::RECOVERY_TARGET;

/// One candidate code from the EXP-17 envelope.
struct Candidate {
    provisioned_for: f64,
    spec: KeyGenSpec,
    generator: KeyGenerator,
}

/// One evaluated (code, interval, replicas) point of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPoint {
    /// Storm intensity the code was envelope-provisioned for.
    pub provisioned_for: f64,
    /// Total provisioned area — logic plus replicated helper NVM, GE.
    pub area_ge: f64,
    /// The replicated maintained-mission trial (interval and replica
    /// count live inside).
    pub trial: ReplicatedLifecycleTrial,
}

impl SearchPoint {
    /// Whether this triple survives: recovery at or above target with
    /// zero false accepts.
    #[must_use]
    pub fn survives(&self) -> bool {
        self.trial.lifecycle.recovery_rate() >= RECOVERY_TARGET && self.trial.impostor_accepts == 0
    }
}

/// The cost-ordered search at one storm intensity: every trial that ran,
/// in ascending-area order. When `survived` is true the last point is
/// the cheapest surviving triple.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityOutcome {
    /// Fraction of the full storm plan applied.
    pub intensity: f64,
    /// Trials in search order.
    pub points: Vec<SearchPoint>,
    /// Whether the search terminated on a surviving triple.
    pub survived: bool,
}

impl IntensityOutcome {
    /// The cheapest surviving triple, if the search found one.
    #[must_use]
    pub fn winner(&self) -> Option<&SearchPoint> {
        if self.survived {
            self.points.last()
        } else {
            None
        }
    }
}

fn code_label(provisioned_for: f64) -> String {
    if provisioned_for == 0.0 {
        "fault-free".to_string()
    } else {
        format!("storm@{provisioned_for:.2}")
    }
}

/// Runs the full search: for each storm intensity, trials in ascending
/// (area, refreshes, replicas) order until one survives. Deterministic
/// in `cfg` at any thread count — trials run one at a time, each fans
/// its chips out and folds their tallies in chip order, and every
/// measurement event is coordinate-addressed.
#[must_use]
pub fn sweep(cfg: &SimConfig) -> Vec<IntensityOutcome> {
    let _span = aro_obs::span("exp19.sweep");
    let params = puf_area_params(RoStyle::AgingResistant, 5);
    // Candidate codes from the EXP-17 envelope, deduplicated: adjacent
    // intensities can provision to the same design point.
    let mut candidates: Vec<Candidate> = Vec::new();
    for &provisioned_for in &exp17::INTENSITIES {
        let point = exp17::provision_for_intensity(cfg, provisioned_for);
        let Some(spec) = point.spec else { continue };
        if candidates.iter().any(|c| c.spec == spec) {
            continue;
        }
        let Some(generator) = crate::popcache::provisioned_generator(
            point.envelope_ber,
            cfg.key_bits,
            cfg.key_fail_target,
            &params,
        ) else {
            continue;
        };
        candidates.push(Candidate {
            provisioned_for,
            spec,
            generator,
        });
    }

    let chips = cfg.n_chips.clamp(4, 8);
    let attempts = 2;
    let impostor_attempts = 2;

    // The cost-ordered triple list is intensity-independent: area first
    // (the provisioning axis), then operational cost (refresh count),
    // then replica count.
    let mission_s = 10.0 * YEAR;
    let mut triples: Vec<(usize, usize, f64, f64, usize)> = Vec::new();
    for (ci, candidate) in candidates.iter().enumerate() {
        for &replicas in &REPLICAS {
            let area = replicated_total_ge(&candidate.spec, replicas);
            for &interval_years in &exp16::INTERVALS_YEARS {
                let refreshes =
                    RefreshSchedule::new(interval_years * YEAR, mission_s).refresh_count();
                triples.push((ci, replicas, interval_years, area, refreshes));
            }
        }
    }
    triples.sort_by(|a, b| a.3.total_cmp(&b.3).then(a.4.cmp(&b.4)).then(a.1.cmp(&b.1)));

    // One fabricated chip set per candidate code, shared across every
    // intensity and triple that uses it (the aged-state snapshot store
    // makes repeated aging prefixes cheap).
    let mut benches: BTreeMap<usize, (KeyBench, Vec<_>)> = BTreeMap::new();
    INTENSITIES
        .iter()
        .map(|&intensity| {
            let mut points = Vec::new();
            let mut survived = false;
            for &(ci, replicas, interval_years, area_ge, _) in &triples {
                let candidate = &candidates[ci];
                let (bench, bench_chips) = benches.entry(ci).or_insert_with(|| {
                    let bench = KeyBench::new(
                        cfg,
                        RoStyle::AgingResistant,
                        &candidate.generator,
                        exp16::DESIGN_SALT,
                    );
                    let bench_chips = bench.chips(chips);
                    (bench, bench_chips)
                });
                let trial = run_replicated_trial_on(
                    cfg,
                    &candidate.generator,
                    bench,
                    bench_chips,
                    intensity,
                    interval_years,
                    replicas,
                    attempts,
                    impostor_attempts,
                );
                let point = SearchPoint {
                    provisioned_for: candidate.provisioned_for,
                    area_ge,
                    trial,
                };
                let done = point.survives();
                points.push(point);
                if done {
                    survived = true;
                    break;
                }
            }
            IntensityOutcome {
                intensity,
                points,
                survived,
            }
        })
        .collect()
}

/// Runs EXP-19.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new(
        "EXP-19",
        "Full-storm survival: cheapest (area, refresh, replication) triple",
    );
    report.push_note(format!(
        "search: EXP-17 envelope codes × EXP-16 refresh intervals × 1–3 helper replicas, \
         trialled in ascending total-area order (logic + replicated helper NVM) until a \
         triple reaches {} ten-year recovery with zero impostor accepts; each trial is the \
         replicated maintained mission — independent per-replica NVM erosion, quorum-read \
         gates/reconstructions, scrub-on-refresh",
        pct(RECOVERY_TARGET)
    ));

    let outcomes = sweep(cfg);
    let mut table = Table::new(
        "Cost-ordered survival search (each intensity stops at its cheapest surviving triple)",
        &[
            "intensity",
            "code",
            "interval",
            "replicas",
            "area GE",
            "refreshes (ok/sched)",
            "fallbacks",
            "recovered",
            "recovery",
            "impostors (acc/att)",
            "verdict",
        ],
    );
    for outcome in &outcomes {
        for point in &outcome.points {
            let t = &point.trial;
            table.push_row(vec![
                format!("{:.2}", outcome.intensity),
                code_label(point.provisioned_for),
                interval_label(t.lifecycle.interval_years),
                t.replicas.to_string(),
                format!("{:.0}", point.area_ge),
                format!(
                    "{}/{}",
                    t.lifecycle.refreshes_succeeded, t.lifecycle.refreshes_scheduled
                ),
                t.replica_fallbacks.to_string(),
                format!(
                    "{}/{}",
                    t.lifecycle.recovered,
                    t.lifecycle.chips * t.lifecycle.attempts_per_chip
                ),
                pct(t.lifecycle.recovery_rate()),
                format!("{}/{}", t.impostor_accepts, t.impostor_attempts),
                if point.survives() {
                    "survives".to_string()
                } else {
                    "falls short".to_string()
                },
            ]);
        }
    }
    report.push_table(table);

    for outcome in &outcomes {
        match outcome.winner() {
            Some(point) => {
                let t = &point.trial;
                report.push_note(format!(
                    "storm@{}: cheapest surviving triple is ({:.0} GE, refresh {}, {} \
                     replica(s)) — {} code, recovery {}, {}/{} impostor accepts, {} replica \
                     fallback(s) a single-replica store would have lost",
                    outcome.intensity,
                    point.area_ge,
                    interval_label(t.lifecycle.interval_years),
                    t.replicas,
                    code_label(point.provisioned_for),
                    pct(t.lifecycle.recovery_rate()),
                    t.impostor_accepts,
                    t.impostor_attempts,
                    t.replica_fallbacks,
                ));
            }
            None => report.push_note(format!(
                "storm@{}: no swept triple survives — widen the envelope codes or refresh \
                 faster than every {} years",
                outcome.intensity,
                exp16::INTERVALS_YEARS[exp16::INTERVALS_YEARS.len() - 1],
            )),
        }
    }
    report.push_note(
        "the three axes buy different things and none substitutes for another: the code \
         buys response-side margin (EXP-17), replication buys stored-bit durability the \
         code cannot (one intact lineage revives the whole group), and the refresh \
         schedule converts both into ten-year recovery by scrubbing every replica at each \
         gate — the full-storm survivor uses all three",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_cfg;

    #[test]
    fn search_finds_a_surviving_triple_at_every_intensity() {
        let outcomes = crate::popcache::scoped(|| sweep(&tiny_cfg()));
        assert_eq!(outcomes.len(), INTENSITIES.len());
        for outcome in &outcomes {
            let winner = outcome
                .winner()
                .unwrap_or_else(|| panic!("storm@{} must have a survivor", outcome.intensity));
            assert!(winner.trial.lifecycle.recovery_rate() >= RECOVERY_TARGET);
            assert_eq!(winner.trial.impostor_accepts, 0, "FAR must be zero");
            assert!(winner.trial.impostor_attempts > 0, "the probe must run");
            // Cost-ordered search: the winner is the last (most
            // expensive) point tried, and everything before it failed.
            for earlier in &outcome.points[..outcome.points.len() - 1] {
                assert!(!earlier.survives());
                assert!(earlier.area_ge <= winner.area_ge + 1e-9);
            }
        }
    }

    #[test]
    fn report_covers_the_search_and_names_the_triples() {
        let report = crate::popcache::scoped(|| run(&tiny_cfg()));
        let table = &report.tables()[0];
        assert!(table.n_rows() >= INTENSITIES.len(), "one row per trial run");
        // Model note + one verdict note per intensity + closing note.
        assert_eq!(report.notes().len(), 2 + INTENSITIES.len());
    }
}
