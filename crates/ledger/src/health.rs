//! `repro report health` — the deterministic fleet-health tables: BER,
//! decode-margin and Hamming-distance percentiles, drift-vs-age, counter
//! run totals and cache hit rates, rendered from a telemetry capture or a
//! run ledger.
//!
//! **Determinism contract.** The parser consumes only order-independent
//! inputs: the final metrics flush (`counter` / `sketch` events, merged in
//! worker-index order by `aro-obs`) and ledger experiment records. It
//! never reads span events, thread ids, or wall-clock timestamps — those
//! belong to `repro report profile` / `trace`. Rendering walks `BTreeMap`s
//! with fixed formatting, so the output is byte-identical across
//! `--threads N` and across reruns (enforced by a CLI test).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use aro_obs::json::{self, Value};
use aro_obs::Sketch;

use crate::capture::{self, Fold, Line};
use crate::md::MdTable;
use crate::record::LedgerRecord;

/// A compact per-experiment summary of one sketch: count, mean and three
/// percentiles. Stored in ledger records (see [`LedgerRecord::health`])
/// so a ledger alone — no telemetry capture — carries the health history
/// of a run, which `report health` tables and `report diff` compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthStat {
    /// Observations in the window.
    pub count: u64,
    /// Exact fixed-point mean.
    pub mean: f64,
    /// 1st percentile (nearest rank).
    pub p01: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HealthStat {
    /// Summarizes a sketch.
    #[must_use]
    pub fn of(sketch: &Sketch) -> Self {
        Self {
            count: sketch.count(),
            mean: sketch.mean(),
            p01: sketch.quantile(0.01),
            p50: sketch.quantile(0.5),
            p99: sketch.quantile(0.99),
        }
    }

    /// Appends the JSON object form (`{"count":…,"mean":…,…}`).
    pub fn jsonl_into(&self, line: &mut String) {
        let _ = write!(line, "{{\"count\":{}", self.count);
        for (key, v) in [
            ("mean", self.mean),
            ("p01", self.p01),
            ("p50", self.p50),
            ("p99", self.p99),
        ] {
            let _ = write!(line, ",\"{key}\":");
            json::number_into(line, v);
        }
        line.push('}');
    }

    /// Reads the object form back; `None` when malformed.
    #[must_use]
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Self {
            count: v.get("count").and_then(Value::as_u64)?,
            mean: v.get("mean").and_then(Value::as_f64)?,
            p01: v.get("p01").and_then(Value::as_f64)?,
            p50: v.get("p50").and_then(Value::as_f64)?,
            p99: v.get("p99").and_then(Value::as_f64)?,
        })
    }
}

/// Everything `report health` extracts from its input files. A telemetry
/// capture populates `sketches` + `flushed_counters`; a run ledger
/// populates `per_experiment` + `record_counters`. A file may carry both
/// (telemetry and ledger events share the JSONL framing), and so may a
/// capture read together with its run's ledger.
#[derive(Debug, Default)]
pub struct HealthReport {
    /// Display label (the file name).
    pub label: String,
    /// Fleet-wide sketches from the final metrics flush, by name.
    pub sketches: BTreeMap<String, Sketch>,
    /// Counter values of the final metrics flush (summed when several
    /// captures are read together).
    flushed_counters: BTreeMap<String, u64>,
    /// Per-experiment counter deltas from ledger records, by experiment
    /// id (latest record per id wins, matching resume semantics).
    record_counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Per-experiment health stats from ledger records, first-seen order
    /// (latest record per id wins, matching resume semantics).
    pub per_experiment: Vec<(String, BTreeMap<String, HealthStat>)>,
    /// Lines that were not valid JSON (crash debris).
    pub skipped_lines: usize,
}

impl Fold for HealthReport {
    /// Only `sketch`, `counter` and ledger `experiment` events carry
    /// health inputs.
    fn line(&mut self, line: &Line) {
        match line.event() {
            "sketch" => {
                if let Some((name, sketch)) = Sketch::from_json(line.value()) {
                    // Re-flushed captures concatenate: merge, don't clobber.
                    if let Some(existing) = self.sketches.get_mut(&name) {
                        existing.merge(&sketch);
                    } else {
                        self.sketches.insert(name, sketch);
                    }
                }
            }
            "counter" => {
                if let (Some(name), Some(v)) = (line.str("name"), line.u64("value")) {
                    *self.flushed_counters.entry(name.to_string()).or_insert(0) += v;
                }
            }
            "experiment" => {
                if let Some(record) = LedgerRecord::from_json(line.value()) {
                    self.record_counters
                        .insert(record.id.clone(), record.metrics);
                    if let Some(slot) = self
                        .per_experiment
                        .iter_mut()
                        .find(|(id, _)| *id == record.id)
                    {
                        slot.1 = record.health;
                    } else {
                        self.per_experiment.push((record.id, record.health));
                    }
                }
            }
            _ => {}
        }
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped_lines = lines;
    }
}

impl HealthReport {
    /// Whether the file carried anything health-shaped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
            && self.flushed_counters.is_empty()
            && self.per_experiment.is_empty()
    }

    /// Counter run totals. A capture's final flush already counts the
    /// work of every experiment its process ran, so when the inputs carry
    /// one it is the total, and the same run's ledger records add
    /// nothing; otherwise the latest record of each experiment
    /// contributes its deltas.
    fn counters(&self) -> Cow<'_, BTreeMap<String, u64>> {
        if !self.flushed_counters.is_empty() {
            return Cow::Borrowed(&self.flushed_counters);
        }
        let mut totals = BTreeMap::new();
        for (name, v) in self.record_counters.values().flatten() {
            *totals.entry(name.clone()).or_insert(0) += v;
        }
        Cow::Owned(totals)
    }

    /// Renders the fleet-health tables as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut tables = Vec::new();
        if !self.sketches.is_empty() {
            let mut fleet = MdTable::new(
                format!("Fleet health — streaming percentiles ({})", self.label),
                &[
                    "metric", "count", "mean", "stddev", "p1", "p50", "p99", "max",
                ],
            );
            for (name, s) in &self.sketches {
                fleet.push_row(vec![
                    name.clone(),
                    s.count().to_string(),
                    fmt_stat(s.mean()),
                    fmt_stat(s.stddev()),
                    fmt_stat(s.quantile(0.01)),
                    fmt_stat(s.quantile(0.5)),
                    fmt_stat(s.quantile(0.99)),
                    fmt_stat(if s.count() == 0 { 0.0 } else { s.max() }),
                ]);
            }
            tables.push(fleet);
        }
        let counters = self.counters();
        if !counters.is_empty() {
            let mut table = MdTable::new(
                format!("Counters — run totals ({})", self.label),
                &["counter", "value"],
            );
            for (name, v) in counters.iter() {
                table.push_row(vec![name.clone(), v.to_string()]);
            }
            tables.push(table);
        }
        if !self.per_experiment.is_empty() {
            let mut per_exp = MdTable::new(
                format!("Per-experiment health ({})", self.label),
                &["experiment", "metric", "count", "mean", "p1", "p50", "p99"],
            );
            for (id, health) in &self.per_experiment {
                for (name, stat) in health {
                    per_exp.push_row(vec![
                        id.clone(),
                        name.clone(),
                        stat.count.to_string(),
                        fmt_stat(stat.mean),
                        fmt_stat(stat.p01),
                        fmt_stat(stat.p50),
                        fmt_stat(stat.p99),
                    ]);
                }
            }
            if per_exp.n_rows() > 0 {
                tables.push(per_exp);
            }
        }
        tables.extend(Self::cache_table(&counters));
        tables.extend(Self::serve_table(&counters));
        let mut out: String = tables
            .iter()
            .map(MdTable::to_markdown)
            .collect::<Vec<_>>()
            .join("\n");
        if self.skipped_lines > 0 {
            let _ = write!(
                out,
                "\nskipped {} non-JSON line(s) (crash debris)\n",
                self.skipped_lines
            );
        }
        out
    }

    /// The cache-effectiveness table, when any cache counter is present.
    fn cache_table(counters: &BTreeMap<String, u64>) -> Option<MdTable> {
        let caches = [
            (
                "population cache",
                "sim.popcache_hits",
                "sim.popcache_misses",
            ),
            (
                "timeline cache",
                "sim.popcache_timeline_hits",
                "sim.popcache_timeline_misses",
            ),
            (
                "provisioning cache",
                "sim.provision_hits",
                "sim.provision_misses",
            ),
        ];
        let mut table = MdTable::new(
            "Cache effectiveness",
            &["cache", "hits", "misses", "hit rate"],
        );
        for (label, hits_key, misses_key) in caches {
            let hits = counters.get(hits_key).copied().unwrap_or(0);
            let misses = counters.get(misses_key).copied().unwrap_or(0);
            if hits + misses == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let rate = hits as f64 / (hits + misses) as f64 * 100.0;
            table.push_row(vec![
                label.to_string(),
                hits.to_string(),
                misses.to_string(),
                format!("{rate:.1} %"),
            ]);
        }
        (table.n_rows() > 0).then_some(table)
    }

    /// The serve fail-closed/maintenance summary, when any serve counter
    /// is present (pairs with the per-state `serve.*` sketches in the
    /// fleet table above).
    fn serve_table(counters: &BTreeMap<String, u64>) -> Option<MdTable> {
        let rows = [
            ("requests served", "serve.requests"),
            ("accepted", "serve.accepted"),
            ("rejected", "serve.rejected"),
            ("shed (load control)", "serve.shed"),
            ("attempt timeouts", "serve.attempt_timeouts"),
            ("timed out (fail closed)", "serve.timeouts"),
            ("corrupt reads (fail closed)", "serve.corrupt_reads"),
            ("missing records (fail closed)", "serve.missing"),
            ("malformed answers (fail closed)", "serve.malformed"),
            ("replica fallback reads", "serve.replica_fallbacks"),
            ("scrub read-repairs", "serve.scrub_repairs"),
            ("scrub unrecoverable groups", "serve.scrub_unrecoverable"),
            ("quarantines", "serve.quarantines"),
            ("re-admitted", "serve.reenrolled"),
            ("re-enroll gate failures", "serve.reenroll_failures"),
            ("re-enroll refused (read-only)", "serve.reenroll_refused"),
        ];
        if !counters.contains_key("serve.requests") {
            return None;
        }
        let mut table = MdTable::new("Serve fail-closed & maintenance", &["event", "count"]);
        for (label, key) in rows {
            let Some(count) = counters.get(key) else {
                continue;
            };
            table.push_row(vec![label.to_string(), count.to_string()]);
        }
        (table.n_rows() > 0).then_some(table)
    }
}

/// Formats a health statistic deterministically: six decimals in the
/// human-readable band, scientific notation outside it.
pub(crate) fn fmt_stat(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 1e-4 || v.abs() >= 1e7 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// Loads several files into one report — e.g. a telemetry capture plus
/// the run's ledger — folding sketches/counters across all of them. The
/// label joins the file names with ` + `.
///
/// # Errors
/// Returns a description when any file is unreadable, or when the whole
/// set carries no health inputs.
pub fn health_files(paths: &[std::path::PathBuf]) -> Result<HealthReport, String> {
    assert!(!paths.is_empty(), "health_files needs at least one path");
    let (mut report, label) = capture::load::<HealthReport>(paths)?;
    report.label = label;
    if report.is_empty() {
        return Err(format!(
            "{}: no sketch/counter events or experiment records — capture with \
             `repro --telemetry <file>` or `--ledger <file>`",
            report.label
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_health(text: &str, label: &str) -> HealthReport {
        HealthReport {
            label: label.to_string(),
            ..capture::parse(text)
        }
    }

    fn sample_sketch(values: &[f64]) -> Sketch {
        let mut s = Sketch::default();
        for &v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn health_stat_round_trips_through_jsonl() {
        let stat = HealthStat::of(&sample_sketch(&[0.01, 0.02, 0.04]));
        let mut line = String::new();
        stat.jsonl_into(&mut line);
        let back = HealthStat::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, stat);
        assert_eq!(back.count, 3);
    }

    #[test]
    fn telemetry_capture_renders_fleet_and_cache_tables() {
        let sketch = sample_sketch(&[1e-3, 2e-3, 4e-3]);
        let text = format!(
            "{}\n{}\n{}\ngarbage-not-json\n",
            sketch.to_jsonl("puf.ber"),
            r#"{"event":"counter","name":"sim.popcache_hits","value":9}"#,
            r#"{"event":"counter","name":"sim.popcache_misses","value":3}"#,
        );
        let report = parse_health(&text, "cap.jsonl");
        assert_eq!(report.skipped_lines, 1);
        let md = report.to_markdown();
        assert!(md.contains("Fleet health — streaming percentiles (cap.jsonl)"));
        assert!(md.contains("puf.ber"));
        assert!(md.contains("Cache effectiveness"));
        assert!(md.contains("75.0 %"), "9/(9+3) hit rate:\n{md}");
        assert!(md.contains("Counters — run totals (cap.jsonl)"));
        let counter_value = |name: &str| {
            md.lines()
                .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
                .find(|cells| cells.get(1) == Some(&name))
                .map(|cells| cells[2].to_string())
        };
        assert_eq!(
            counter_value("sim.popcache_hits").as_deref(),
            Some("9"),
            "{md}"
        );
        assert_eq!(
            counter_value("sim.popcache_misses").as_deref(),
            Some("3"),
            "{md}"
        );
        assert!(md.contains("skipped 1 non-JSON line(s)"));
    }

    #[test]
    fn a_flush_and_its_runs_ledger_count_each_counter_once() {
        let record = |chips: u64| {
            LedgerRecord::success(
                1,
                "exp2",
                5,
                String::new(),
                vec![],
                BTreeMap::from([("sim.chips_simulated".to_string(), chips)]),
            )
            .to_jsonl()
        };
        let flush = r#"{"event":"counter","name":"sim.chips_simulated","value":120}"#;
        // A resumed ledger journals exp2 twice; the latest record counts.
        let ledger = format!("{}\n{}\n", record(7), record(120));
        let totals = |text: &str| parse_health(text, "x").counters().into_owned();
        let expected = BTreeMap::from([("sim.chips_simulated".to_string(), 120)]);
        assert_eq!(totals(&format!("{flush}\n")), expected);
        assert_eq!(totals(&ledger), expected);
        assert_eq!(totals(&format!("{flush}\n{ledger}")), expected);
    }

    #[test]
    fn span_events_never_influence_health_output() {
        let sketch = sample_sketch(&[0.5]);
        let base = format!("{}\n", sketch.to_jsonl("quality.interchip_hd"));
        let with_spans = format!(
            "{}{}\n{}\n",
            base,
            r#"{"event":"span_open","name":"run","thread":1,"depth":1,"ts_ns":5}"#,
            r#"{"event":"span_close","name":"run","thread":1,"depth":1,"ts_ns":99,"dur_ns":94}"#,
        );
        assert_eq!(
            parse_health(&base, "x").to_markdown(),
            parse_health(&with_spans, "x").to_markdown(),
            "wall-clock events must not perturb the deterministic table"
        );
    }

    #[test]
    fn refused_when_nothing_health_shaped() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("aro-health-empty-{}.jsonl", std::process::id()));
        std::fs::write(&path, "not json at all\n").unwrap();
        let err = health_files(std::slice::from_ref(&path)).unwrap_err();
        assert!(err.contains("no sketch/counter events"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
