//! `repro report diff` — per-experiment wall-time and metric deltas
//! between two run ledgers, with a configurable regression threshold.
//!
//! Each side is a run ledger JSONL: per-experiment wall times, counter
//! aggregates and health summaries. Wall-time comparisons drive the
//! regression verdict; metric deltas are reported so run-to-run drift in
//! *work done* (counter changes) is machine-visible even when timing
//! noise hides it.

use std::collections::BTreeMap;
use std::path::Path;

use crate::capture::{self, Fold, Line};
use crate::health::{fmt_stat, HealthStat};
use crate::md::{ms, pct_delta, MdTable};
use crate::record::{LedgerRecord, RecordStatus};

/// One side of a diff: per-experiment wall times (order preserved),
/// metric aggregates and health summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallSet {
    /// Display label (the file name).
    pub label: String,
    /// `(experiment id, wall_ns)` in source order.
    pub experiments: Vec<(String, u64)>,
    /// Per-experiment counter aggregates.
    pub metrics: BTreeMap<String, BTreeMap<String, u64>>,
    /// Per-experiment health summaries (records that carry health only).
    pub health: BTreeMap<String, BTreeMap<String, HealthStat>>,
    /// Experiment records read, failures included.
    pub(crate) records: usize,
}

impl WallSet {
    fn wall_of(&self, id: &str) -> Option<u64> {
        self.experiments
            .iter()
            .find(|(eid, _)| eid == id)
            .map(|(_, ns)| *ns)
    }

    /// Total wall time across experiments.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.experiments.iter().map(|(_, ns)| ns).sum()
    }
}

impl Fold for WallSet {
    /// Reads `experiment` records; failures have no comparable wall-time
    /// semantics, and the latest record of an experiment wins, keeping
    /// first-seen order (a resumed run may append a re-run of an
    /// experiment recorded earlier).
    fn line(&mut self, line: &Line) {
        let Some(record) = LedgerRecord::from_json(line.value()) else {
            return;
        };
        self.records += 1;
        if record.status != RecordStatus::Success {
            return;
        }
        if let Some(slot) = self.experiments.iter_mut().find(|(id, _)| *id == record.id) {
            slot.1 = record.wall_ns;
        } else {
            self.experiments.push((record.id.clone(), record.wall_ns));
        }
        self.metrics.insert(record.id.clone(), record.metrics);
        if !record.health.is_empty() {
            self.health.insert(record.id, record.health);
        }
    }

    /// Crash debris is tolerated as resume tolerates it, and not shown.
    fn skipped(&mut self, _lines: usize) {}
}

/// Loads one diff side: a ledger JSONL.
///
/// # Errors
/// Returns a description when the file is unreadable or holds no
/// experiment record.
pub fn load_wall_set(path: &Path) -> Result<WallSet, String> {
    let (set, label) = capture::load::<WallSet>(&[path])?;
    if set.records == 0 {
        return Err(format!(
            "{}: not a run ledger (no experiment records)",
            path.display()
        ));
    }
    Ok(WallSet { label, ..set })
}

/// The wall-time verdict for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold either way.
    Ok,
    /// Faster than the threshold allows for noise — report it, celebrate.
    Improved,
    /// Slower than `old * (1 + threshold)` — the regression gate trips.
    Regressed,
    /// Present only in the new run.
    Added,
    /// Present only in the old run.
    Removed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of the wall-time delta table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Experiment id.
    pub id: String,
    /// Old wall time (absent for [`Verdict::Added`]).
    pub old_ns: Option<u64>,
    /// New wall time (absent for [`Verdict::Removed`]).
    pub new_ns: Option<u64>,
    /// The verdict under the diff's threshold.
    pub verdict: Verdict,
}

/// One per-experiment counter that changed between two ledgers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    /// Experiment id.
    pub id: String,
    /// Counter name.
    pub name: String,
    /// Old value (0 when the counter is new).
    pub old: u64,
    /// New value (0 when the counter disappeared).
    pub new: u64,
}

/// Which way a health metric can go wrong, keyed by name prefix.
///
/// Margins (decode margin, soft-vote margin, refresh continuity,
/// inter-chip HD) fail by *collapsing*: the alarm watches p1 falling.
/// Error rates (BER, intra-chip HD, fault tallies) fail by *creeping
/// up*: the alarm watches p99 rising. Unknown metrics get no verdict —
/// their drift is reported but never flagged.
fn watched_percentile(name: &str) -> Option<WatchKind> {
    const MARGINS: [&str; 4] = [
        "ecc.decode_margin",
        "ecc.soft_vote_margin",
        "ecc.refresh",
        "quality.interchip",
    ];
    const RATES: [&str; 3] = ["puf.ber", "quality.intrachip", "faults."];
    if MARGINS.iter().any(|p| name.starts_with(p)) {
        Some(WatchKind::P1Collapse)
    } else if RATES.iter().any(|p| name.starts_with(p)) {
        Some(WatchKind::P99Creep)
    } else {
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WatchKind {
    P1Collapse,
    P99Creep,
}

/// Relative change of the watched percentile that flags a degradation.
const HEALTH_THRESHOLD: f64 = 0.10;
/// Absolute floor so a metric appearing from exactly zero still flags.
const HEALTH_FLOOR: f64 = 1e-9;

/// One per-experiment health summary that drifted between two ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthDelta {
    /// Experiment id.
    pub id: String,
    /// Sketch name (`puf.ber`, `ecc.decode_margin`, …).
    pub name: String,
    /// Old summary.
    pub old: HealthStat,
    /// New summary.
    pub new: HealthStat,
    /// Whether the watched percentile moved the wrong way past the
    /// health threshold. Always advisory — never trips the exit gate.
    pub degraded: bool,
}

impl HealthDelta {
    /// Human-readable description of what degraded (for the advisory).
    #[must_use]
    pub fn describe(&self) -> String {
        match watched_percentile(&self.name) {
            Some(WatchKind::P1Collapse) => format!(
                "{}: {} p1 {} -> {}",
                self.id,
                self.name,
                fmt_stat(self.old.p01),
                fmt_stat(self.new.p01)
            ),
            Some(WatchKind::P99Creep) => format!(
                "{}: {} p99 {} -> {}",
                self.id,
                self.name,
                fmt_stat(self.old.p99),
                fmt_stat(self.new.p99)
            ),
            None => format!("{}: {} drifted", self.id, self.name),
        }
    }
}

fn health_degraded(name: &str, old: &HealthStat, new: &HealthStat) -> bool {
    match watched_percentile(name) {
        Some(WatchKind::P1Collapse) => {
            new.p01 < old.p01 - (old.p01.abs() * HEALTH_THRESHOLD).max(HEALTH_FLOOR)
        }
        Some(WatchKind::P99Creep) => {
            new.p99 > old.p99 + (old.p99.abs() * HEALTH_THRESHOLD).max(HEALTH_FLOOR)
        }
        None => false,
    }
}

/// The full diff of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Labels of the two sides.
    pub old_label: String,
    /// Label of the new side.
    pub new_label: String,
    /// Fractional regression threshold (0.2 = +20 % wall time trips).
    pub threshold: f64,
    /// Per-experiment wall-time rows, old-side order then added ids.
    pub rows: Vec<DiffRow>,
    /// Counters whose aggregates drifted.
    pub metric_deltas: Vec<MetricDelta>,
    /// Health summaries that drifted (both sides with health).
    pub health_deltas: Vec<HealthDelta>,
}

impl DiffReport {
    /// Whether any experiment regressed past the threshold — the
    /// non-zero-exit condition of `repro report diff`.
    #[must_use]
    pub fn has_regression(&self) -> bool {
        self.rows
            .iter()
            .any(|row| row.verdict == Verdict::Regressed)
    }

    /// Ids that regressed, for error messages.
    #[must_use]
    pub fn regressed_ids(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|row| row.verdict == Verdict::Regressed)
            .map(|row| row.id.as_str())
            .collect()
    }

    /// Health summaries whose watched percentile moved the wrong way —
    /// **advisory only**: the diff exit code stays wall-time-driven, so
    /// a noisy BER percentile can never fail CI, only warn.
    #[must_use]
    pub fn health_degradations(&self) -> Vec<&HealthDelta> {
        self.health_deltas.iter().filter(|d| d.degraded).collect()
    }

    /// Renders the machine-readable delta table(s) as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut table = MdTable::new(
            format!(
                "Wall-time delta — {} → {} (threshold +{:.0} %)",
                self.old_label,
                self.new_label,
                self.threshold * 100.0
            ),
            &["experiment", "old ms", "new ms", "delta", "verdict"],
        );
        let fmt = |ns: Option<u64>| ns.map_or_else(|| "-".to_string(), |ns| ms(u128::from(ns)));
        let mut old_total = 0u64;
        let mut new_total = 0u64;
        for row in &self.rows {
            old_total += row.old_ns.unwrap_or(0);
            new_total += row.new_ns.unwrap_or(0);
            #[allow(clippy::cast_precision_loss)]
            let delta = match (row.old_ns, row.new_ns) {
                (Some(old), Some(new)) => pct_delta(old as f64, new as f64),
                _ => "-".to_string(),
            };
            table.push_row(vec![
                row.id.clone(),
                fmt(row.old_ns),
                fmt(row.new_ns),
                delta,
                row.verdict.label().to_string(),
            ]);
        }
        #[allow(clippy::cast_precision_loss)]
        table.push_row(vec![
            "total".to_string(),
            ms(u128::from(old_total)),
            ms(u128::from(new_total)),
            pct_delta(old_total as f64, new_total as f64),
            if self.has_regression() {
                "REGRESSED".to_string()
            } else {
                "ok".to_string()
            },
        ]);
        let mut out = table.to_markdown();
        if !self.metric_deltas.is_empty() {
            let mut drift = MdTable::new(
                "Metric drift — counters whose aggregates changed",
                &["experiment", "counter", "old", "new"],
            );
            for delta in &self.metric_deltas {
                drift.push_row(vec![
                    delta.id.clone(),
                    delta.name.clone(),
                    delta.old.to_string(),
                    delta.new.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str(&drift.to_markdown());
        }
        if !self.health_deltas.is_empty() {
            let mut drift = MdTable::new(
                "Health drift — streaming-summary percentiles that changed",
                &[
                    "experiment",
                    "metric",
                    "old p1",
                    "new p1",
                    "old p99",
                    "new p99",
                    "verdict",
                ],
            );
            for delta in &self.health_deltas {
                drift.push_row(vec![
                    delta.id.clone(),
                    delta.name.clone(),
                    fmt_stat(delta.old.p01),
                    fmt_stat(delta.new.p01),
                    fmt_stat(delta.old.p99),
                    fmt_stat(delta.new.p99),
                    if delta.degraded { "DEGRADED" } else { "ok" }.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str(&drift.to_markdown());
        }
        out
    }
}

/// Diffs two wall sets under a fractional threshold.
#[must_use]
pub fn diff(old: &WallSet, new: &WallSet, threshold: f64) -> DiffReport {
    let mut rows = Vec::new();
    for (id, old_ns) in &old.experiments {
        match new.wall_of(id) {
            Some(new_ns) => {
                #[allow(clippy::cast_precision_loss)]
                let verdict = if new_ns as f64 > *old_ns as f64 * (1.0 + threshold) {
                    Verdict::Regressed
                } else if (new_ns as f64) < *old_ns as f64 * (1.0 - threshold) {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                rows.push(DiffRow {
                    id: id.clone(),
                    old_ns: Some(*old_ns),
                    new_ns: Some(new_ns),
                    verdict,
                });
            }
            None => rows.push(DiffRow {
                id: id.clone(),
                old_ns: Some(*old_ns),
                new_ns: None,
                verdict: Verdict::Removed,
            }),
        }
    }
    for (id, new_ns) in &new.experiments {
        if old.wall_of(id).is_none() {
            rows.push(DiffRow {
                id: id.clone(),
                old_ns: None,
                new_ns: Some(*new_ns),
                verdict: Verdict::Added,
            });
        }
    }
    let mut metric_deltas = Vec::new();
    for (id, old_metrics) in &old.metrics {
        let Some(new_metrics) = new.metrics.get(id) else {
            continue;
        };
        let names: std::collections::BTreeSet<&String> =
            old_metrics.keys().chain(new_metrics.keys()).collect();
        for name in names {
            let old_v = old_metrics.get(name).copied().unwrap_or(0);
            let new_v = new_metrics.get(name).copied().unwrap_or(0);
            if old_v != new_v {
                metric_deltas.push(MetricDelta {
                    id: id.clone(),
                    name: name.clone(),
                    old: old_v,
                    new: new_v,
                });
            }
        }
    }
    let mut health_deltas = Vec::new();
    for (id, old_health) in &old.health {
        let Some(new_health) = new.health.get(id) else {
            continue;
        };
        for (name, old_stat) in old_health {
            let Some(new_stat) = new_health.get(name) else {
                continue; // sketch vanished: nothing comparable
            };
            if old_stat != new_stat {
                health_deltas.push(HealthDelta {
                    id: id.clone(),
                    name: name.clone(),
                    old: *old_stat,
                    new: *new_stat,
                    degraded: health_degraded(name, old_stat, new_stat),
                });
            }
        }
    }
    DiffReport {
        old_label: old.label.clone(),
        new_label: new.label.clone(),
        threshold,
        rows,
        metric_deltas,
        health_deltas,
    }
}

/// Loads both sides and diffs them.
///
/// # Errors
/// Propagates [`load_wall_set`] errors.
pub fn diff_files(old: &Path, new: &Path, threshold: f64) -> Result<DiffReport, String> {
    Ok(diff(&load_wall_set(old)?, &load_wall_set(new)?, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(label: &str, ids_ns: &[(&str, u64)]) -> WallSet {
        WallSet {
            label: label.to_string(),
            experiments: ids_ns
                .iter()
                .map(|(id, ns)| ((*id).to_string(), *ns))
                .collect(),
            ..WallSet::default()
        }
    }

    fn stat(p01: f64, p50: f64, p99: f64) -> HealthStat {
        HealthStat {
            count: 100,
            mean: p50,
            p01,
            p50,
            p99,
        }
    }

    #[test]
    fn verdicts_respect_the_threshold() {
        let old = set("old", &[("exp1", 1000), ("exp2", 1000), ("exp3", 1000)]);
        let new = set("new", &[("exp1", 1100), ("exp2", 1300), ("exp3", 600)]);
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.rows[0].verdict, Verdict::Ok, "+10 % is within +20 %");
        assert_eq!(report.rows[1].verdict, Verdict::Regressed, "+30 % trips");
        assert_eq!(report.rows[2].verdict, Verdict::Improved, "-40 % improves");
        assert!(report.has_regression());
        assert_eq!(report.regressed_ids(), vec!["exp2"]);
        // A looser threshold forgives the same delta.
        assert!(!diff(&old, &new, 0.5).has_regression());
    }

    #[test]
    fn added_and_removed_experiments_never_trip_the_gate() {
        let old = set("old", &[("exp1", 1000), ("exp_gone", 5)]);
        let new = set("new", &[("exp1", 1000), ("exp15", 700)]);
        let report = diff(&old, &new, 0.2);
        assert!(!report.has_regression());
        let verdicts: Vec<Verdict> = report.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![Verdict::Ok, Verdict::Removed, Verdict::Added]
        );
        let md = report.to_markdown();
        assert!(md.contains("added"));
        assert!(md.contains("removed"));
        assert!(md.contains("| total"));
    }

    #[test]
    fn metric_drift_is_reported_for_ledger_sides() {
        let mut old = set("old", &[("exp1", 1000)]);
        let mut new = set("new", &[("exp1", 1000)]);
        old.metrics.insert(
            "exp1".to_string(),
            BTreeMap::from([("sim.chips_simulated".to_string(), 100)]),
        );
        new.metrics.insert(
            "exp1".to_string(),
            BTreeMap::from([
                ("sim.chips_simulated".to_string(), 120),
                ("faults.env_excursions".to_string(), 3),
            ]),
        );
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.metric_deltas.len(), 2);
        assert!(report.to_markdown().contains("Metric drift"));
        assert!(
            !report.has_regression(),
            "metric drift is not a wall regression"
        );
    }

    #[test]
    fn decode_margin_p1_collapse_flags_but_never_trips_the_gate() {
        let mut old = set("old", &[("exp1", 1000)]);
        let mut new = set("new", &[("exp1", 1000)]);
        old.health.insert(
            "exp1".to_string(),
            BTreeMap::from([
                ("ecc.decode_margin".to_string(), stat(3.0, 4.0, 5.0)),
                ("puf.ber".to_string(), stat(0.0, 0.01, 0.02)),
            ]),
        );
        new.health.insert(
            "exp1".to_string(),
            BTreeMap::from([
                // p1 collapses 3 -> 1: well past the 10 % band.
                ("ecc.decode_margin".to_string(), stat(1.0, 4.0, 5.0)),
                // p99 creeps 0.02 -> 0.021: +5 %, inside the band.
                ("puf.ber".to_string(), stat(0.0, 0.01, 0.021)),
            ]),
        );
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.health_deltas.len(), 2);
        let degraded = report.health_degradations();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].name, "ecc.decode_margin");
        assert!(degraded[0].describe().contains("p1 3.000000 -> 1.000000"));
        assert!(
            !report.has_regression(),
            "health degradation is advisory, never an exit-5 regression"
        );
        let md = report.to_markdown();
        assert!(md.contains("Health drift"));
        assert!(md.contains("DEGRADED"));
    }

    #[test]
    fn error_rate_creep_watches_p99_upward() {
        let mut old = set("old", &[("exp1", 1000)]);
        let mut new = set("new", &[("exp1", 1000)]);
        old.health.insert(
            "exp1".to_string(),
            BTreeMap::from([("quality.intrachip_hd".to_string(), stat(0.0, 0.0, 0.0))]),
        );
        new.health.insert(
            "exp1".to_string(),
            BTreeMap::from([("quality.intrachip_hd".to_string(), stat(0.0, 0.0, 0.05))]),
        );
        let report = diff(&old, &new, 0.2);
        let degraded = report.health_degradations();
        assert_eq!(degraded.len(), 1, "rate appearing from zero must flag");
        assert!(degraded[0].describe().contains("p99"));
        // The same move in the good direction is drift, not degradation.
        let back = diff(&new, &old, 0.2);
        assert_eq!(back.health_deltas.len(), 1);
        assert!(back.health_degradations().is_empty());
    }

    #[test]
    fn unknown_metrics_drift_without_a_verdict() {
        let mut old = set("old", &[("exp1", 1000)]);
        let mut new = set("new", &[("exp1", 1000)]);
        old.health.insert(
            "exp1".to_string(),
            BTreeMap::from([("circuit.ring_freq_ghz".to_string(), stat(0.09, 0.1, 0.11))]),
        );
        new.health.insert(
            "exp1".to_string(),
            BTreeMap::from([("circuit.ring_freq_ghz".to_string(), stat(0.01, 0.1, 0.11))]),
        );
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.health_deltas.len(), 1);
        assert!(report.health_degradations().is_empty());
    }

    fn ledger_line(wall_ns: u64, chips: u64) -> String {
        let record = crate::record::LedgerRecord::success(
            1,
            "exp1",
            wall_ns,
            "## EXP-1\n".to_string(),
            vec![],
            BTreeMap::from([("sim.chips_simulated".to_string(), chips)]),
        );
        format!("{}\n", record.to_jsonl())
    }

    #[test]
    fn diffs_two_ledger_files() {
        let dir = std::env::temp_dir();
        let old_path = dir.join(format!("aro-diff-old-{}.jsonl", std::process::id()));
        let new_path = dir.join(format!("aro-diff-new-{}.jsonl", std::process::id()));
        std::fs::write(&old_path, ledger_line(100, 10)).unwrap();
        std::fs::write(&new_path, ledger_line(150, 12)).unwrap();
        let report = diff_files(&old_path, &new_path, 0.2).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].verdict, Verdict::Regressed, "+50 % wall");
        assert_eq!(report.metric_deltas.len(), 1, "the ledgers' counters drift");
        std::fs::remove_file(&old_path).unwrap();
        std::fs::remove_file(&new_path).unwrap();
    }

    #[test]
    fn a_non_ledger_input_is_an_error() {
        let dir = std::env::temp_dir();
        let ledger_path = dir.join(format!("aro-diff-ledger-{}.jsonl", std::process::id()));
        let other_path = dir.join(format!("aro-diff-other-{}.json", std::process::id()));
        std::fs::write(&ledger_path, ledger_line(100, 10)).unwrap();
        // A wall-time capture in the old `aro-bench-v1` shape, garbage,
        // and an empty file are all refused, on either side.
        let capture = "{\n  \"schema\": \"aro-bench-v1\",\n  \"config\": {\"chips\": 10, \
                       \"ros\": 64, \"seed\": 2014, \"quick\": true},\n  \"experiments\": [\n    \
                       {\"id\": \"exp1\", \"wall_ns\": 100}\n  ],\n  \"total_wall_ns\": 100\n}\n";
        for text in [capture, "garbage", ""] {
            std::fs::write(&other_path, text).unwrap();
            let err = diff_files(&other_path, &ledger_path, 0.2).unwrap_err();
            assert!(err.contains("not a run ledger"), "{err}");
            assert!(diff_files(&ledger_path, &other_path, 0.2).is_err());
        }
        std::fs::remove_file(&ledger_path).unwrap();
        std::fs::remove_file(&other_path).unwrap();
    }
}
