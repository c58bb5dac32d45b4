//! The experiment driver behind `repro`: panic isolation, an optional run
//! ledger, and a degraded-mode outcome.
//!
//! [`run_experiments`] runs each requested experiment on the calling
//! thread inside [`std::panic::catch_unwind`], within the caller's
//! population-cache scope. A caught panic resets the
//! population cache (a half-built run must not poison later experiments)
//! and becomes an [`ExperimentFailure`]; the sweep carries on, so a run
//! with one broken experiment still reports the others plus an explicit
//! failure table (degraded mode).
//!
//! **No retries.** Every experiment is a pure function of its config: the
//! same seed gives the same bytes. Rerunning a panicked experiment would
//! panic again, and rerunning it under another seed would report that
//! seed's numbers under this run's seed and ledger fingerprint. The
//! driver therefore fails an experiment once and moves on.
//!
//! **Determinism.** On the success path the driver is byte-transparent:
//! `catch_unwind` is all it adds around
//! [`crate::experiments::run_by_id`], and the experiment records its
//! counters and sketches into the calling thread's registry exactly as a
//! direct call would.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aro_ledger::{HealthStat, Ledger, LedgerRecord};
use aro_obs::Registry;

use crate::config::SimConfig;
use crate::fingerprint;
use crate::report::Report;
use crate::table::Table;

/// What a completed experiment hands the caller: a freshly computed
/// [`Report`], or the exact bytes a previous run recorded in the ledger.
///
/// Both render identically through [`std::fmt::Display`] — a replayed
/// record stores the `to_string()` of the original report verbatim, so
/// `repro --resume` output is byte-identical to an uninterrupted run.
#[derive(Debug, Clone)]
pub enum ExperimentOutput {
    /// Computed in this process.
    Fresh(Report),
    /// Replayed from a matching ledger record.
    Replayed {
        /// The original report's exact rendered markdown.
        report_md: String,
        /// The original report's CSV table dumps, in table order.
        csv: Vec<String>,
    },
}

impl ExperimentOutput {
    /// Whether this output was replayed from a ledger.
    #[must_use]
    pub fn is_replayed(&self) -> bool {
        matches!(self, ExperimentOutput::Replayed { .. })
    }

    /// CSV dumps of the report tables, in table order.
    #[must_use]
    pub fn csv_tables(&self) -> Vec<String> {
        match self {
            ExperimentOutput::Fresh(report) => report.tables().iter().map(Table::to_csv).collect(),
            ExperimentOutput::Replayed { csv, .. } => csv.clone(),
        }
    }
}

impl std::fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentOutput::Fresh(report) => report.fmt(f),
            ExperimentOutput::Replayed { report_md, .. } => f.write_str(report_md),
        }
    }
}

/// One experiment that completed, with its wall-clock time.
#[derive(Debug, Clone)]
pub struct ExperimentSuccess {
    /// Experiment id (`"exp1"`…).
    pub id: String,
    /// The report it produced (fresh or replayed).
    pub report: ExperimentOutput,
    /// Wall-clock time of the run. For a replayed experiment this is the
    /// *original* run's wall time, as recorded in the ledger.
    pub wall: Duration,
}

/// One experiment that did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentFailure {
    /// Experiment id.
    pub id: String,
    /// The panic message (or the unknown-id verdict).
    pub error: String,
}

/// Everything a run produced: the reports that completed and an explicit
/// record of the ones that did not.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Completed experiments, in request order.
    pub successes: Vec<ExperimentSuccess>,
    /// Failed experiments, in request order.
    pub failures: Vec<ExperimentFailure>,
    /// Ledger appends that failed (I/O). Ledger trouble never fails the
    /// run — the science completed; only the checkpoint is degraded.
    pub ledger_errors: Vec<String>,
}

impl RunOutcome {
    /// Some experiments failed, but at least one completed: the run is
    /// worth reporting in degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty() && !self.successes.is_empty()
    }

    /// Every requested experiment failed.
    #[must_use]
    pub fn is_total_failure(&self) -> bool {
        self.successes.is_empty() && !self.failures.is_empty()
    }

    /// The degraded-mode failure table (`None` when nothing failed): one
    /// row per failed experiment with its error, rendered after the
    /// surviving reports.
    #[must_use]
    pub fn failure_table(&self) -> Option<Table> {
        if self.failures.is_empty() {
            return None;
        }
        let mut table = Table::new(
            "Experiments that did not complete",
            &["experiment", "error"],
        );
        for failure in &self.failures {
            table.push_row(vec![failure.id.clone(), failure.error.clone()]);
        }
        Some(table)
    }
}

/// Runs `ids` under panic isolation, returning every report that
/// completed plus an explicit failure record for every one that did not.
/// Experiments named in `forced_panics` panic instead of running — the
/// chaos lever behind `repro --fail`, which drives degraded mode end to
/// end. Opens a population-cache scope (a no-op inside an existing one).
///
/// With a ledger, each experiment is fingerprinted
/// ([`fingerprint::experiment_fingerprint`]) before it runs:
///
/// * a matching success record in the ledger is **replayed** — the stored
///   report bytes are returned without recomputation and nothing new is
///   journalled;
/// * otherwise the experiment runs normally and its outcome (success
///   *or* failure, with wall time and the experiment's obs-counter
///   deltas — including the `faults.*` injection tallies) is appended and
///   flushed before the next experiment starts, so a killed run loses at
///   most the experiment in flight.
///
/// Ledger I/O failures are collected into [`RunOutcome::ledger_errors`]
/// and never abort the run.
#[must_use]
pub fn run_experiments(
    cfg: &SimConfig,
    ids: &[&str],
    forced_panics: &[String],
    mut ledger: Option<&mut Ledger>,
) -> RunOutcome {
    crate::popcache::scoped(|| {
        let mut outcome = RunOutcome::default();
        for &id in ids {
            let fp = fingerprint::experiment_fingerprint(cfg, id);
            if let Some(record) = ledger.as_deref().and_then(|l| l.cached_success(fp)) {
                aro_obs::counter("sim.experiments_replayed", 1);
                outcome.successes.push(ExperimentSuccess {
                    id: id.to_string(),
                    report: ExperimentOutput::Replayed {
                        report_md: record
                            .report_md
                            .clone()
                            .expect("success records always carry their report"),
                        csv: record.csv.clone(),
                    },
                    wall: Duration::from_nanos(record.wall_ns),
                });
                continue;
            }
            // Full registry snapshot (counters *and* sketches): the
            // record's metrics and health summaries are deltas over this
            // experiment alone.
            let before = if ledger.is_some() {
                aro_obs::snapshot()
            } else {
                Registry::new()
            };
            let started = Instant::now();
            let forced = forced_panics.iter().any(|f| f == id);
            match run_isolated(cfg, id, forced) {
                Ok(report) => {
                    let wall = started.elapsed();
                    if let Some(ledger) = ledger.as_deref_mut() {
                        let record = LedgerRecord::success(
                            fp,
                            id,
                            duration_ns(wall),
                            report.to_string(),
                            report.tables().iter().map(Table::to_csv).collect(),
                            counter_delta(&before),
                        )
                        .with_health(health_delta(&before));
                        if let Err(e) = ledger.append(&record) {
                            outcome.ledger_errors.push(format!("{id}: {e}"));
                        }
                    }
                    outcome.successes.push(ExperimentSuccess {
                        id: id.to_string(),
                        report: ExperimentOutput::Fresh(report),
                        wall,
                    });
                }
                Err(error) => {
                    aro_obs::counter("sim.experiments_failed", 1);
                    if let Some(ledger) = ledger.as_deref_mut() {
                        let record = LedgerRecord::failure(
                            fp,
                            id,
                            duration_ns(started.elapsed()),
                            error.clone(),
                            counter_delta(&before),
                        )
                        .with_health(health_delta(&before));
                        if let Err(e) = ledger.append(&record) {
                            outcome.ledger_errors.push(format!("{id}: {e}"));
                        }
                    }
                    outcome.failures.push(ExperimentFailure {
                        id: id.to_string(),
                        error,
                    });
                }
            }
        }
        outcome
    })
}

/// Runs one experiment on this thread. `Err` carries the panic message
/// (after the population cache was reset) or the unknown-id verdict.
fn run_isolated(cfg: &SimConfig, id: &str, forced: bool) -> Result<Report, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if forced {
            panic!("forced panic requested for {id}");
        }
        crate::experiments::run_by_id(id, cfg)
    }));
    match result {
        Ok(Some(report)) => Ok(report),
        Ok(None) => Err(format!("unknown experiment id '{id}'")),
        Err(payload) => {
            aro_obs::counter("sim.experiment_panics_caught", 1);
            // A panic mid-experiment may have left half-built cache
            // entries behind; a cold cache is always correct.
            crate::popcache::reset();
            Err(panic_message(payload))
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counters accumulated since the `before` snapshot on this thread: the
/// experiment's own contribution, including its `faults.*` injection
/// tallies. Empty while obs is disabled (both snapshots are empty).
fn counter_delta(before: &Registry) -> BTreeMap<String, u64> {
    aro_obs::snapshot()
        .counters()
        .filter_map(|(name, v)| {
            let delta = v - before.counter(name);
            (delta > 0).then(|| (name.to_string(), delta))
        })
        .collect()
}

/// Sketch windows opened by this experiment, summarized for the ledger:
/// each sketch's exact delta over the `before` snapshot, collapsed to
/// the five [`HealthStat`] numbers. Sketches the experiment never
/// touched produce an empty delta and are dropped, so a record carries
/// only the health streams its own experiment fed.
fn health_delta(before: &Registry) -> BTreeMap<String, HealthStat> {
    let now = aro_obs::snapshot();
    let mut health = BTreeMap::new();
    for (name, sketch) in now.sketches() {
        let delta = match before.sketch(name) {
            Some(prev) => sketch.delta_since(prev),
            None => sketch.clone(),
        };
        if delta.count() > 0 {
            health.insert(name.to_string(), HealthStat::of(&delta));
        }
    }
    health
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        // Keep expected panics out of the test log without races: take no
        // global lock, just silence the hook for this test binary.
        let _ = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        let _ = std::panic::take_hook();
        result
    }

    #[test]
    fn clean_run_matches_the_plain_driver_byte_for_byte() {
        let cfg = SimConfig::quick();
        let plain = crate::popcache::scoped(|| experiments::run_by_id("exp1", &cfg).unwrap());
        let outcome = run_experiments(&cfg, &["exp1"], &[], None);
        assert!(outcome.failures.is_empty());
        assert!(!outcome.is_degraded() && !outcome.is_total_failure());
        assert_eq!(outcome.successes.len(), 1);
        assert_eq!(
            outcome.successes[0].report.to_string(),
            plain.to_string(),
            "panic isolation must not change a healthy run"
        );
        assert!(outcome.failure_table().is_none());
    }

    #[test]
    fn forced_panic_degrades_without_poisoning_the_rest() {
        let cfg = SimConfig::quick();
        let clean = run_experiments(&cfg, &["exp1", "exp3"], &[], None);
        let forced = ["exp1".to_string()];
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp1", "exp3"], &forced, None));
        assert!(outcome.is_degraded());
        assert!(!outcome.is_total_failure());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].id, "exp1");
        assert!(outcome.failures[0].error.contains("forced panic"));
        // The survivor is byte-identical to its clean-run twin.
        assert_eq!(
            outcome.successes[0].report.to_string(),
            clean.successes[1].report.to_string(),
            "a caught panic must not leak into later experiments"
        );
        // And the popcache scope is still usable after the reset.
        let table = outcome.failure_table().expect("one failure");
        assert_eq!(table.n_rows(), 1);
        assert_eq!(table.cell(0, 0), "exp1");
    }

    #[test]
    fn total_failure_is_distinguished() {
        let cfg = SimConfig::quick();
        let forced = ["exp1".to_string()];
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp1"], &forced, None));
        assert!(outcome.is_total_failure());
        assert!(!outcome.is_degraded());
    }

    #[test]
    fn unknown_id_fails_without_panicking() {
        let cfg = SimConfig::quick();
        let outcome = run_experiments(&cfg, &["exp99"], &[], None);
        assert!(outcome.is_total_failure());
        assert!(outcome.failures[0].error.contains("unknown experiment"));
    }
}
