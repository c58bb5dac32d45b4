//! `repro report diff` — two run ledgers compared per experiment, under
//! one exact verdict on outputs.
//!
//! Everything the verdict reads is deterministic. An experiment's status
//! and report bytes (`report_md`, `csv`) are a function of its
//! fingerprint; its counters and health sketches are a function of its
//! fingerprint *and* of what its process ran before it (the flip-timeline
//! memo and the snapshot cache carry work across experiments). So an
//! experiment recorded on both sides under one fingerprint has *drifted*
//! when its status or report bytes changed, or when a counter or health
//! stat changed while both records share their process prefix: the
//! `(id, fingerprint, status)` of every record since the last
//! `ledger_open` line, the record itself included. A name present on one
//! side only is a change. Drift is the diff's failing condition. Wall
//! time is one sample of a noisy clock: it is shown, never judged
//! (`aro-perf compare` judges time).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::capture::{self, Fold, Line};
use crate::health::{fmt_stat, HealthStat};
use crate::md::{ms, pct_delta, MdTable};
use crate::record::{LedgerRecord, RecordStatus};

/// One record's place in its process: id, fingerprint and status.
type Step = (String, u64, RecordStatus);

/// The latest record of one experiment, with its process prefix: every
/// record its process wrote up to and including this one.
#[derive(Debug)]
struct Recorded {
    record: LedgerRecord,
    prefix: Vec<Step>,
}

/// One side of a diff: a run ledger read as its latest record per
/// experiment, failures included, in first-seen order (a resumed run may
/// append a re-run of an experiment recorded earlier).
#[derive(Debug, Default)]
struct LedgerSide {
    /// Display label (the file name).
    label: String,
    experiments: Vec<Recorded>,
    /// The records of the process being read.
    process: Vec<Step>,
}

impl LedgerSide {
    fn get(&self, id: &str) -> Option<&Recorded> {
        self.experiments.iter().find(|e| e.record.id == id)
    }
}

impl Fold for LedgerSide {
    /// Reads `ledger_open` headers, which start a process, and
    /// `experiment` records.
    fn line(&mut self, line: &Line) {
        if line.event() == "ledger_open" {
            self.process.clear();
            return;
        }
        let Some(record) = LedgerRecord::from_json(line.value()) else {
            return;
        };
        self.process
            .push((record.id.clone(), record.fingerprint, record.status));
        let recorded = Recorded {
            record,
            prefix: self.process.clone(),
        };
        match self
            .experiments
            .iter_mut()
            .find(|e| e.record.id == recorded.record.id)
        {
            Some(slot) => *slot = recorded,
            None => self.experiments.push(recorded),
        }
    }

    /// Crash debris is tolerated as resume tolerates it, and not shown.
    fn skipped(&mut self, _lines: usize) {}
}

/// Loads one diff side: a ledger JSONL.
fn load_side(path: &Path) -> Result<LedgerSide, String> {
    let (side, label) = capture::load::<LedgerSide>(&[path])?;
    if side.experiments.is_empty() {
        return Err(format!(
            "{}: not a run ledger (no experiment records)",
            path.display()
        ));
    }
    Ok(LedgerSide { label, ..side })
}

/// The verdict on one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Same fingerprint and process prefix, and nothing changed.
    Same,
    /// Same fingerprint and outputs, another process prefix: counter and
    /// health drift is shown, not judged.
    SameOutput,
    /// Same fingerprint, and the status, the report bytes or, under one
    /// process prefix, a counter or health stat changed: the diff fails.
    Drifted,
    /// Different fingerprints (another seed, scale, fault plan or
    /// replication): nothing to compare.
    NotComparable,
    /// Present only in the new ledger.
    Added,
    /// Present only in the old ledger.
    Removed,
}

impl Verdict {
    fn of(old: Option<&Recorded>, new: Option<&Recorded>) -> Self {
        let (Some(old), Some(new)) = (old, new) else {
            return if old.is_some() {
                Verdict::Removed
            } else {
                Verdict::Added
            };
        };
        let (a, b) = (&old.record, &new.record);
        if a.fingerprint != b.fingerprint {
            Verdict::NotComparable
        } else if (a.status, &a.report_md, &a.csv) != (b.status, &b.report_md, &b.csv) {
            Verdict::Drifted
        } else if old.prefix != new.prefix {
            Verdict::SameOutput
        } else if (&a.metrics, &a.health) != (&b.metrics, &b.health) {
            Verdict::Drifted
        } else {
            Verdict::Same
        }
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::SameOutput => "same output",
            Verdict::Drifted => "DRIFTED",
            Verdict::NotComparable => "not comparable",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of the diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Experiment id.
    pub id: String,
    /// Old wall time (absent for [`Verdict::Added`]).
    pub old_ns: Option<u64>,
    /// New wall time (absent for [`Verdict::Removed`]).
    pub new_ns: Option<u64>,
    /// The verdict on the experiment's outputs.
    pub verdict: Verdict,
}

/// One counter or health summary of an experiment recorded under one
/// fingerprint on both sides that differs between them.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta<V> {
    /// Experiment id.
    pub id: String,
    /// Counter or sketch name.
    pub name: String,
    /// Old value (absent when the name is new).
    pub old: Option<V>,
    /// New value (absent when the name disappeared).
    pub new: Option<V>,
}

fn push_deltas<V: Copy + PartialEq>(
    out: &mut Vec<Delta<V>>,
    id: &str,
    old: &BTreeMap<String, V>,
    new: &BTreeMap<String, V>,
) {
    for name in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
        let (old, new) = (old.get(name).copied(), new.get(name).copied());
        if old != new {
            out.push(Delta {
                id: id.to_string(),
                name: name.clone(),
                old,
                new,
            });
        }
    }
}

fn delta_table<V>(title: &str, deltas: &[Delta<V>], fmt: impl Fn(&V) -> String) -> MdTable {
    let mut table = MdTable::new(title, &["experiment", "name", "old", "new"]);
    let cell = |v: &Option<V>| v.as_ref().map_or_else(|| "-".to_string(), &fmt);
    for delta in deltas {
        table.push_row(vec![
            delta.id.clone(),
            delta.name.clone(),
            cell(&delta.old),
            cell(&delta.new),
        ]);
    }
    table
}

/// The full diff of two ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Label of the old side.
    pub old_label: String,
    /// Label of the new side.
    pub new_label: String,
    /// One row per experiment, old-side order then added ids.
    pub rows: Vec<DiffRow>,
    /// Counters that differ between same-fingerprint records.
    pub metric_deltas: Vec<Delta<u64>>,
    /// Health summaries that differ between same-fingerprint records.
    pub health_deltas: Vec<Delta<HealthStat>>,
}

impl DiffReport {
    /// The experiments whose outputs drifted — the exit-5 condition of
    /// `repro report diff`.
    #[must_use]
    pub fn drifted_ids(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|row| row.verdict == Verdict::Drifted)
            .map(|row| row.id.as_str())
            .collect()
    }

    /// Renders the diff table and the drift tables as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut table = MdTable::new(
            format!(
                "Ledger diff — {} → {} (wall time is advisory)",
                self.old_label, self.new_label
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
            "-".to_string(),
        ]);
        let mut tables = vec![table];
        if !self.metric_deltas.is_empty() {
            tables.push(delta_table(
                "Counter drift — same fingerprint",
                &self.metric_deltas,
                u64::to_string,
            ));
        }
        if !self.health_deltas.is_empty() {
            tables.push(delta_table(
                "Health drift — same fingerprint, count / mean / p1 / p50 / p99",
                &self.health_deltas,
                |s| {
                    format!(
                        "{} / {} / {} / {} / {}",
                        s.count,
                        fmt_stat(s.mean),
                        fmt_stat(s.p01),
                        fmt_stat(s.p50),
                        fmt_stat(s.p99)
                    )
                },
            ));
        }
        let tables: Vec<String> = tables.iter().map(MdTable::to_markdown).collect();
        tables.join("\n")
    }
}

fn diff(old: &LedgerSide, new: &LedgerSide) -> DiffReport {
    let mut report = DiffReport {
        old_label: old.label.clone(),
        new_label: new.label.clone(),
        rows: Vec::new(),
        metric_deltas: Vec::new(),
        health_deltas: Vec::new(),
    };
    let mut seen = BTreeSet::new();
    let ids = old.experiments.iter().chain(&new.experiments);
    for id in ids
        .map(|e| e.record.id.as_str())
        .filter(|id| seen.insert(*id))
    {
        let (a, b) = (old.get(id), new.get(id));
        let verdict = Verdict::of(a, b);
        if let (Some(a), Some(b)) = (a, b) {
            if verdict != Verdict::NotComparable {
                let (a, b) = (&a.record, &b.record);
                push_deltas(&mut report.metric_deltas, id, &a.metrics, &b.metrics);
                push_deltas(&mut report.health_deltas, id, &a.health, &b.health);
            }
        }
        report.rows.push(DiffRow {
            id: id.to_string(),
            old_ns: a.map(|e| e.record.wall_ns),
            new_ns: b.map(|e| e.record.wall_ns),
            verdict,
        });
    }
    report
}

/// Loads both ledgers and diffs them.
///
/// # Errors
/// Returns a description when a file is unreadable or holds no
/// experiment record.
pub fn diff_files(old: &Path, new: &Path) -> Result<DiffReport, String> {
    Ok(diff(&load_side(old)?, &load_side(new)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: &str = r#"{"event":"ledger_open","schema":"aro-ledger-v1"}"#;

    fn stat(p99: f64) -> HealthStat {
        HealthStat {
            count: 100,
            mean: 0.01,
            p01: 0.0,
            p50: 0.01,
            p99,
        }
    }

    /// A success record of `id` under fingerprint `fp` as a JSONL line.
    fn line(
        id: &str,
        fp: u64,
        wall_ns: u64,
        report: &str,
        metrics: &[(&str, u64)],
        health: &[(&str, HealthStat)],
    ) -> String {
        fn to_map<V: Copy>(pairs: &[(&str, V)]) -> BTreeMap<String, V> {
            pairs
                .iter()
                .map(|&(name, v)| (name.to_string(), v))
                .collect()
        }
        LedgerRecord::success(fp, id, wall_ns, report.to_string(), vec![], to_map(metrics))
            .with_health(to_map(health))
            .to_jsonl()
    }

    fn side(label: &str, lines: &[String]) -> LedgerSide {
        LedgerSide {
            label: label.to_string(),
            ..capture::parse(&lines.join("\n"))
        }
    }

    fn verdicts(report: &DiffReport) -> Vec<(&str, Verdict)> {
        report
            .rows
            .iter()
            .map(|row| (row.id.as_str(), row.verdict))
            .collect()
    }

    #[test]
    fn added_and_removed_experiments_never_trip_the_gate() {
        let old = side(
            "old",
            &[
                OPEN.to_string(),
                line("exp1", 1, 1000, "## 1", &[], &[]),
                line("exp3", 3, 10, "## 3", &[("sim.chips", 1)], &[]),
                line("exp_gone", 9, 5, "## gone", &[], &[]),
            ],
        );
        let new = side(
            "new",
            &[
                OPEN.to_string(),
                line("exp1", 1, 9000, "## 1", &[], &[]),
                line(
                    "exp3",
                    4,
                    10,
                    "## 3, another seed",
                    &[("sim.chips", 2)],
                    &[],
                ),
                line("exp15", 15, 700, "## 15", &[], &[]),
            ],
        );
        let report = diff(&old, &new);
        assert_eq!(
            verdicts(&report),
            [
                ("exp1", Verdict::Same),
                ("exp3", Verdict::NotComparable),
                ("exp_gone", Verdict::Removed),
                ("exp15", Verdict::Added),
            ],
            "a 9x wall time is not judged, another fingerprint is not compared"
        );
        assert!(report.drifted_ids().is_empty());
        assert!(
            report.metric_deltas.is_empty(),
            "{:?}",
            report.metric_deltas
        );
        let md = report.to_markdown();
        for text in ["+800.0 %", "not comparable", "added", "removed", "| total"] {
            assert!(md.contains(text), "{text}:\n{md}");
        }
    }

    #[test]
    fn metric_drift_is_reported_for_ledger_sides() {
        let health = [("puf.ber", stat(0.02))];
        let exp1 = |chips, health: &[(&str, HealthStat)]| {
            line("exp1", 1, 1000, "## 1", &[("sim.chips", chips)], health)
        };
        let prior = line("exp0", 0, 1, "## 0", &[], &[]);
        let old = side("old", &[OPEN.to_string(), exp1(100, &health)]);

        // Under one process prefix, a counter that changes and one that
        // appears are drift.
        let counted = line(
            "exp1",
            1,
            1000,
            "## 1",
            &[("sim.chips", 120), ("faults.env_excursions", 3)],
            &health,
        );
        let report = diff(&old, &side("new", &[OPEN.to_string(), counted]));
        assert_eq!(report.drifted_ids(), ["exp1"]);
        assert_eq!(report.metric_deltas.len(), 2);
        assert_eq!(report.metric_deltas[0].old, None, "faults.* is new");
        assert!(report.to_markdown().contains("Counter drift"));

        // So are a changed health stat and a sketch on one side only.
        for new_health in [&[("puf.ber", stat(0.03))][..], &[]] {
            let report = diff(
                &old,
                &side("new", &[OPEN.to_string(), exp1(100, new_health)]),
            );
            assert_eq!(report.drifted_ids(), ["exp1"], "{new_health:?}");
            assert_eq!(report.health_deltas.len(), 1);
            assert!(report.to_markdown().contains("Health drift"));
        }

        // After another experiment in the same process, the same drift is
        // shown and not judged; after a `ledger_open` the prefix restarts.
        let later = side("new", &[OPEN.to_string(), prior.clone(), exp1(120, &[])]);
        let report = diff(&old, &later);
        assert_eq!(verdicts(&report)[0], ("exp1", Verdict::SameOutput));
        assert!(report.drifted_ids().is_empty());
        assert_eq!(report.metric_deltas.len(), 1);
        assert_eq!(report.health_deltas.len(), 1);
        let resumed = side("new", &[prior, OPEN.to_string(), exp1(120, &health)]);
        assert_eq!(diff(&old, &resumed).drifted_ids(), ["exp1"]);
    }

    #[test]
    fn diffs_two_ledger_files() {
        let dir = std::env::temp_dir();
        let old_path = dir.join(format!("aro-diff-old-{}.jsonl", std::process::id()));
        let new_path = dir.join(format!("aro-diff-new-{}.jsonl", std::process::id()));
        let failure = LedgerRecord::failure(2, "exp2", 7, "panic", BTreeMap::new()).to_jsonl();
        let exp2 = line("exp2", 2, 100, "## 2", &[], &[]);
        std::fs::write(
            &old_path,
            [line("exp1", 1, 100, "## 1", &[], &[]), exp2.clone()].join("\n"),
        )
        .unwrap();
        std::fs::write(
            &new_path,
            [
                line("exp1", 1, 150, "## 1, other bytes", &[], &[]),
                exp2,
                failure,
            ]
            .join("\n"),
        )
        .unwrap();
        let report = diff_files(&old_path, &new_path).unwrap();
        assert_eq!(
            verdicts(&report),
            [("exp1", Verdict::Drifted), ("exp2", Verdict::Drifted)],
            "changed report bytes and a success turned failure drift"
        );
        assert_eq!(report.rows[1].new_ns, Some(7), "the latest record wins");
        assert!(diff_files(&old_path, &old_path)
            .unwrap()
            .drifted_ids()
            .is_empty());
        std::fs::remove_file(&old_path).unwrap();
        std::fs::remove_file(&new_path).unwrap();
    }

    #[test]
    fn a_non_ledger_input_is_an_error() {
        let dir = std::env::temp_dir();
        let ledger_path = dir.join(format!("aro-diff-ledger-{}.jsonl", std::process::id()));
        let other_path = dir.join(format!("aro-diff-other-{}.json", std::process::id()));
        std::fs::write(&ledger_path, line("exp1", 1, 100, "## 1", &[], &[])).unwrap();
        // A wall-time capture in the old `aro-bench-v1` shape, garbage,
        // and an empty file are all refused, on either side.
        let capture = "{\n  \"schema\": \"aro-bench-v1\",\n  \"config\": {\"chips\": 10, \
                       \"ros\": 64, \"seed\": 2014, \"quick\": true},\n  \"experiments\": [\n    \
                       {\"id\": \"exp1\", \"wall_ns\": 100}\n  ],\n  \"total_wall_ns\": 100\n}\n";
        for text in [capture, "garbage", ""] {
            std::fs::write(&other_path, text).unwrap();
            let err = diff_files(&other_path, &ledger_path).unwrap_err();
            assert!(err.contains("not a run ledger"), "{err}");
            assert!(diff_files(&ledger_path, &other_path).is_err());
        }
        std::fs::remove_file(&ledger_path).unwrap();
        std::fs::remove_file(&other_path).unwrap();
    }
}
