//! Hardened experiment driver: panic isolation, bounded retries, and an
//! optional per-experiment watchdog.
//!
//! [`crate::experiments::run_all`] is the happy-path driver: one panic
//! anywhere aborts the whole sweep. This module is the production driver
//! behind `repro` — it runs each experiment inside
//! [`std::panic::catch_unwind`], resets the population cache after any
//! caught panic (a half-built run must not poison later experiments),
//! optionally retries, and collects whatever survived into a
//! [`RunOutcome`] so a run with one broken experiment still reports the
//! other fourteen plus an explicit failure table (degraded mode).
//!
//! **Determinism.** On the success path the harness is byte-transparent:
//! the default (inline, no watchdog) mode runs experiments on the calling
//! thread inside the caller's population-cache and fault scopes, exactly
//! like `run_all` would. Retries of *flaky-tolerant* experiments
//! (ablations and distribution studies, [`FLAKY_TOLERANT`]) re-run under
//! a seed derived as `SeedDomain::new(cfg.seed).child("retry").seed(n)` —
//! reproducible, but distinct per attempt; headline experiments always
//! retry under their original seed so a retried success is the same bytes
//! a clean run would have produced. The watchdog (opt-in) runs each
//! experiment on a worker thread so the caller can enforce a wall-clock
//! bound; the worker re-installs the caller's fault context and opens its
//! own population-cache scope, and since both caches are semantically
//! transparent the reports stay byte-identical — the price is cache reuse
//! *across* experiments, not correctness.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use aro_device::rng::SeedDomain;
use aro_ledger::{HealthStat, Ledger, LedgerRecord};
use aro_obs::Registry;

use crate::config::SimConfig;
use crate::fingerprint;
use crate::report::Report;
use crate::table::Table;

/// Experiments whose *claims* are statistical rather than seed-anchored
/// (ablation sweeps, distribution studies, seed-robustness itself): a
/// retry after a panic may legitimately re-run them under a derived seed.
/// The headline experiments (exp1, exp2, exp5, exp8, exp14–exp17) are
/// excluded — their numbers are quoted against the paper (or, for the
/// robustness capstones, against each other), so a retry must reproduce
/// the original seed's bytes or fail honestly.
pub const FLAKY_TOLERANT: [&str; 9] = [
    "exp3", "exp4", "exp6", "exp7", "exp9", "exp10", "exp11", "exp12", "exp13",
];

/// Knobs of the hardened driver. The default is maximally conservative:
/// no retries, no watchdog, no forced panics — panic isolation alone.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Extra attempts after a first failure (0 = fail fast).
    pub max_retries: usize,
    /// Wall-clock bound per attempt. `None` (default) runs inline on the
    /// calling thread; `Some` moves each attempt to a worker thread and
    /// abandons it if the bound passes.
    pub watchdog: Option<Duration>,
    /// Experiment ids forced to panic on every attempt — the chaos lever
    /// behind `repro --fail`, used to exercise degraded mode end to end.
    pub forced_panics: Vec<String>,
}

impl HarnessOptions {
    fn is_forced(&self, id: &str) -> bool {
        self.forced_panics.iter().any(|f| f == id)
    }
}

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
    /// The live report, when this run actually computed one.
    #[must_use]
    pub fn as_report(&self) -> Option<&Report> {
        match self {
            ExperimentOutput::Fresh(report) => Some(report),
            ExperimentOutput::Replayed { .. } => None,
        }
    }

    /// Whether this output was replayed from a ledger.
    #[must_use]
    pub fn is_replayed(&self) -> bool {
        matches!(self, ExperimentOutput::Replayed { .. })
    }

    /// CSV dumps of the report tables, in table order.
    #[must_use]
    pub fn csv_tables(&self) -> Vec<String> {
        match self {
            ExperimentOutput::Fresh(report) => {
                report.tables().iter().map(Table::to_csv).collect()
            }
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
    /// Wall-clock time of the successful attempt, including any failed
    /// attempts before it. For a replayed experiment this is the
    /// *original* run's wall time, as recorded in the ledger.
    pub wall: Duration,
    /// Attempts consumed (1 + retries that preceded the success).
    pub attempts: usize,
}

/// One experiment that did not complete within its attempt budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentFailure {
    /// Experiment id.
    pub id: String,
    /// Attempts consumed (1 + retries).
    pub attempts: usize,
    /// The last attempt's panic message or watchdog verdict.
    pub error: String,
}

/// Everything a hardened run produced: the reports that completed and an
/// explicit record of the ones that did not.
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

    /// The degraded-mode failure table (`None` when nothing failed):
    /// one row per failed experiment with its attempt count and last
    /// error, rendered after the surviving reports.
    #[must_use]
    pub fn failure_table(&self) -> Option<Table> {
        if self.failures.is_empty() {
            return None;
        }
        let mut table = Table::new(
            "Experiments that did not complete",
            &["experiment", "attempts", "last error"],
        );
        for failure in &self.failures {
            table.push_row(vec![
                failure.id.clone(),
                failure.attempts.to_string(),
                failure.error.clone(),
            ]);
        }
        Some(table)
    }
}

/// Runs `ids` under panic isolation, returning every report that
/// completed plus an explicit failure record for every one that did not.
/// Opens a population-cache scope (a no-op inside an existing one), so a
/// bare call behaves like `run_all` with a safety net.
#[must_use]
pub fn run_experiments(cfg: &SimConfig, ids: &[&str], opts: &HarnessOptions) -> RunOutcome {
    run_experiments_ledgered(cfg, ids, opts, None)
}

/// [`run_experiments`] with an optional run ledger attached.
///
/// With a ledger, each experiment is fingerprinted
/// ([`fingerprint::experiment_fingerprint`]) before it runs:
///
/// * a matching success record in the ledger is **replayed** — the stored
///   report bytes are returned without recomputation and nothing new is
///   journalled;
/// * otherwise the experiment runs normally and its outcome (success
///   *or* failure, with wall time, attempt count, and the experiment's
///   obs-counter deltas — including the `faults.*` injection tallies) is
///   appended and flushed before the next experiment starts, so a killed
///   run loses at most the experiment in flight.
///
/// Ledger I/O failures are collected into [`RunOutcome::ledger_errors`]
/// and never abort the run.
#[must_use]
pub fn run_experiments_ledgered(
    cfg: &SimConfig,
    ids: &[&str],
    opts: &HarnessOptions,
    mut ledger: Option<&mut Ledger>,
) -> RunOutcome {
    crate::popcache::scoped(|| {
        let fault_fp = fingerprint::current_fault_fingerprint();
        let mut outcome = RunOutcome::default();
        for &id in ids {
            let fp = fingerprint::experiment_fingerprint(cfg, fault_fp, id);
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
                    attempts: record.attempts,
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
            match run_with_retries(cfg, id, opts) {
                Ok((report, attempts)) => {
                    let wall = started.elapsed();
                    if let Some(ledger) = ledger.as_deref_mut() {
                        let record = LedgerRecord::success(
                            fp,
                            id,
                            duration_ns(wall),
                            attempts,
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
                        attempts,
                    });
                }
                Err(failure) => {
                    aro_obs::counter("sim.experiments_failed", 1);
                    if let Some(ledger) = ledger.as_deref_mut() {
                        let record = LedgerRecord::failure(
                            fp,
                            id,
                            duration_ns(started.elapsed()),
                            failure.attempts,
                            failure.error.clone(),
                            counter_delta(&before),
                        )
                        .with_health(health_delta(&before));
                        if let Err(e) = ledger.append(&record) {
                            outcome.ledger_errors.push(format!("{id}: {e}"));
                        }
                    }
                    outcome.failures.push(failure);
                }
            }
        }
        outcome
    })
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

/// The config an attempt runs under: attempt 0 (and every attempt of a
/// headline experiment) uses the caller's config verbatim; retries of
/// flaky-tolerant experiments derive a fresh, reproducible seed.
#[must_use]
pub fn attempt_config(cfg: &SimConfig, id: &str, attempt: usize) -> SimConfig {
    if attempt == 0 || !FLAKY_TOLERANT.contains(&id) {
        cfg.clone()
    } else {
        let reseed = SeedDomain::new(cfg.seed).child("retry").seed(attempt as u64);
        cfg.clone().with_seed(reseed)
    }
}

/// Runs `id` through its attempt budget; a success reports the attempts
/// it took (1 + preceding failures) so the ledger can reconstruct how
/// hard-won a degraded-mode run was.
fn run_with_retries(
    cfg: &SimConfig,
    id: &str,
    opts: &HarnessOptions,
) -> Result<(Report, usize), ExperimentFailure> {
    let attempts = 1 + opts.max_retries;
    let mut last_error = String::new();
    for attempt in 0..attempts {
        let run_cfg = attempt_config(cfg, id, attempt);
        if attempt > 0 {
            aro_obs::counter("sim.experiment_retries", 1);
        }
        match run_once(&run_cfg, id, opts) {
            Ok(Some(report)) => return Ok((report, attempt + 1)),
            Ok(None) => {
                return Err(ExperimentFailure {
                    id: id.to_string(),
                    attempts: attempt + 1,
                    error: format!("unknown experiment id '{id}'"),
                })
            }
            Err(error) => {
                aro_obs::counter("sim.experiment_panics_caught", 1);
                // A panic mid-experiment may have left half-built cache
                // entries behind; a cold cache is always correct.
                crate::popcache::reset();
                last_error = error;
            }
        }
    }
    Err(ExperimentFailure {
        id: id.to_string(),
        attempts,
        error: last_error,
    })
}

/// One attempt. `Ok(None)` = unknown id; `Err` = panic or watchdog kill.
fn run_once(cfg: &SimConfig, id: &str, opts: &HarnessOptions) -> Result<Option<Report>, String> {
    let forced = opts.is_forced(id);
    let Some(timeout) = opts.watchdog else {
        // Inline (default): same thread, same scopes, same bytes as
        // `run_all` — catch_unwind is the only addition.
        return catch_unwind(AssertUnwindSafe(|| {
            if forced {
                panic!("forced panic requested for {id}");
            }
            crate::experiments::run_by_id(id, cfg)
        }))
        .map_err(panic_message);
    };

    // Watchdog: run the attempt on a worker we can abandon. The worker
    // re-installs the caller's fault context (thread-locals don't cross)
    // and opens its own cache scope inside run_by_id.
    let injector = crate::faultctx::current();
    let (tx, rx) = mpsc::channel();
    let worker_cfg = cfg.clone();
    let worker_id = id.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("harness-{id}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                crate::faultctx::scoped(injector, || {
                    if forced {
                        panic!("forced panic requested for {worker_id}");
                    }
                    crate::experiments::run_by_id(&worker_id, &worker_cfg)
                })
            }))
            .map_err(panic_message);
            // The receiver is gone if the watchdog already gave up on us.
            let _ = tx.send(result);
        })
        .expect("spawning a harness worker thread");
    match rx.recv_timeout(timeout) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => {
            // Abandon the worker: it finishes (or panics) in the
            // background and its send lands in a closed channel.
            aro_obs::counter("sim.experiment_watchdog_kills", 1);
            Err(format!(
                "watchdog: still running after {:.1} s",
                timeout.as_secs_f64()
            ))
        }
    }
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
        let plain = crate::popcache::scoped(|| {
            experiments::run_by_id("exp1", &cfg).unwrap()
        });
        let outcome = run_experiments(&cfg, &["exp1"], &HarnessOptions::default());
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
        let clean = run_experiments(&cfg, &["exp1", "exp3"], &HarnessOptions::default());
        let opts = HarnessOptions {
            forced_panics: vec!["exp1".to_string()],
            ..HarnessOptions::default()
        };
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp1", "exp3"], &opts));
        assert!(outcome.is_degraded());
        assert!(!outcome.is_total_failure());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].id, "exp1");
        assert_eq!(outcome.failures[0].attempts, 1);
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
        let opts = HarnessOptions {
            forced_panics: vec!["exp1".to_string()],
            ..HarnessOptions::default()
        };
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp1"], &opts));
        assert!(outcome.is_total_failure());
        assert!(!outcome.is_degraded());
    }

    #[test]
    fn unknown_id_fails_without_panicking() {
        let cfg = SimConfig::quick();
        let outcome = run_experiments(&cfg, &["exp99"], &HarnessOptions::default());
        assert!(outcome.is_total_failure());
        assert!(outcome.failures[0].error.contains("unknown experiment"));
    }

    #[test]
    fn retries_reseed_only_flaky_tolerant_experiments() {
        let cfg = SimConfig::quick();
        // Headline experiments retry under the original seed.
        assert_eq!(attempt_config(&cfg, "exp2", 0), cfg);
        assert_eq!(attempt_config(&cfg, "exp2", 3), cfg);
        // Flaky-tolerant ones derive a fresh, reproducible seed per attempt.
        assert_eq!(attempt_config(&cfg, "exp3", 0), cfg);
        let retry1 = attempt_config(&cfg, "exp3", 1);
        let retry2 = attempt_config(&cfg, "exp3", 2);
        assert_ne!(retry1.seed, cfg.seed);
        assert_ne!(retry1.seed, retry2.seed);
        assert_eq!(retry1, attempt_config(&cfg, "exp3", 1), "reseeds are stable");
        // Only the seed moves.
        assert_eq!(retry1.clone().with_seed(cfg.seed), cfg);
    }

    #[test]
    fn retry_budget_is_spent_and_recorded() {
        let cfg = SimConfig::quick();
        let opts = HarnessOptions {
            max_retries: 2,
            forced_panics: vec!["exp3".to_string()],
            ..HarnessOptions::default()
        };
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp3"], &opts));
        assert_eq!(outcome.failures[0].attempts, 3, "1 try + 2 retries");
    }

    #[test]
    fn watchdog_abandons_a_stuck_experiment_and_keeps_fast_ones() {
        let cfg = SimConfig::quick();
        let opts = HarnessOptions {
            // exp1 at quick scale completes in well under 30 s; a forced
            // panic exercises the worker's catch_unwind path too.
            watchdog: Some(Duration::from_secs(30)),
            forced_panics: vec!["exp3".to_string()],
            ..HarnessOptions::default()
        };
        let outcome = quiet_panics(|| run_experiments(&cfg, &["exp1", "exp3"], &opts));
        assert_eq!(outcome.successes.len(), 1);
        assert_eq!(outcome.failures.len(), 1);
        // A zero watchdog abandons everything immediately.
        let opts = HarnessOptions {
            watchdog: Some(Duration::from_millis(0)),
            ..HarnessOptions::default()
        };
        let outcome = run_experiments(&cfg, &["exp1"], &opts);
        assert!(outcome.is_total_failure());
        assert!(outcome.failures[0].error.contains("watchdog"));
    }
}
