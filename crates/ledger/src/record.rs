//! One ledger record: the durable trace of one experiment run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aro_obs::json::{self, Value};

use crate::health::HealthStat;

/// How the experiment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordStatus {
    /// The experiment completed; the record carries its exact rendered
    /// report (and CSV dumps) for byte-identical replay.
    Success,
    /// The experiment did not complete; the record carries its error so a
    /// degraded run is reconstructable post-mortem.
    Failure,
}

impl RecordStatus {
    fn label(self) -> &'static str {
        match self {
            RecordStatus::Success => "success",
            RecordStatus::Failure => "failure",
        }
    }
}

/// The durable outcome of one experiment under one exact configuration.
///
/// `fingerprint` digests the simulation config, the fault plan+seed, and
/// the experiment id (see `aro-sim::fingerprint`): a resumed run may
/// replay this record only when its own fingerprint matches bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Config+faults+seed+experiment digest keying replay eligibility.
    pub fingerprint: u64,
    /// Experiment id (`"exp1"`…).
    pub id: String,
    /// Success or failure.
    pub status: RecordStatus,
    /// Wall-clock nanoseconds spent on this experiment.
    pub wall_ns: u64,
    /// Why the experiment failed, usually its panic message (failures
    /// only).
    pub error: Option<String>,
    /// The exact rendered markdown report (successes only) — replayed
    /// byte-identically by `repro --resume`.
    pub report_md: Option<String>,
    /// CSV dump of each report table, in table order (successes only).
    pub csv: Vec<String>,
    /// Per-experiment counter aggregates (deltas over the experiment),
    /// including the `faults.*` injection tallies.
    pub metrics: BTreeMap<String, u64>,
    /// Per-experiment health summaries (sketch deltas over the
    /// experiment): count/mean/p1/p50/p99 per sketch name. Deterministic
    /// like the counters, so `report diff` compares them exactly. Empty
    /// on ledgers written before this field existed (parsing tolerates
    /// absence).
    pub health: BTreeMap<String, HealthStat>,
}

impl LedgerRecord {
    /// A success record.
    #[must_use]
    pub fn success(
        fingerprint: u64,
        id: impl Into<String>,
        wall_ns: u64,
        report_md: String,
        csv: Vec<String>,
        metrics: BTreeMap<String, u64>,
    ) -> Self {
        Self {
            fingerprint,
            id: id.into(),
            status: RecordStatus::Success,
            wall_ns,
            error: None,
            report_md: Some(report_md),
            csv,
            metrics,
            health: BTreeMap::new(),
        }
    }

    /// Attaches per-experiment health summaries (builder-style, so
    /// health-less call sites stay untouched).
    #[must_use]
    pub fn with_health(mut self, health: BTreeMap<String, HealthStat>) -> Self {
        self.health = health;
        self
    }

    /// A failure record.
    #[must_use]
    pub fn failure(
        fingerprint: u64,
        id: impl Into<String>,
        wall_ns: u64,
        error: impl Into<String>,
        metrics: BTreeMap<String, u64>,
    ) -> Self {
        Self {
            fingerprint,
            id: id.into(),
            status: RecordStatus::Failure,
            wall_ns,
            error: Some(error.into()),
            report_md: None,
            csv: Vec::new(),
            metrics,
            health: BTreeMap::new(),
        }
    }

    /// Serializes as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut line = String::from("{\"event\":\"experiment\",\"fingerprint\":");
        // Hex string: u64 fingerprints do not survive an f64 JSON number.
        let _ = write!(line, "\"{:016x}\"", self.fingerprint);
        line.push_str(",\"id\":");
        json::escape_into(&mut line, &self.id);
        let _ = write!(
            line,
            ",\"status\":\"{}\",\"wall_ns\":{}",
            self.status.label(),
            self.wall_ns
        );
        if let Some(error) = &self.error {
            line.push_str(",\"error\":");
            json::escape_into(&mut line, error);
        }
        line.push_str(",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json::escape_into(&mut line, name);
            let _ = write!(line, ":{value}");
        }
        line.push('}');
        if !self.health.is_empty() {
            line.push_str(",\"health\":{");
            for (i, (name, stat)) in self.health.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                json::escape_into(&mut line, name);
                line.push(':');
                stat.jsonl_into(&mut line);
            }
            line.push('}');
        }
        if let Some(report) = &self.report_md {
            line.push_str(",\"report_md\":");
            json::escape_into(&mut line, report);
            line.push_str(",\"csv\":[");
            for (i, table) in self.csv.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                json::escape_into(&mut line, table);
            }
            line.push(']');
        }
        line.push('}');
        line
    }

    /// Deserializes a parsed JSONL line; `None` when the value is not an
    /// `experiment` event or is missing a required field (a truncated or
    /// foreign line — callers skip it). Unknown fields, such as the
    /// `attempts` count older ledgers carry, are ignored, so those ledgers
    /// still resume.
    #[must_use]
    pub fn from_json(value: &Value) -> Option<Self> {
        if value.get("event").and_then(Value::as_str) != Some("experiment") {
            return None;
        }
        let fingerprint =
            u64::from_str_radix(value.get("fingerprint").and_then(Value::as_str)?, 16).ok()?;
        let id = value.get("id").and_then(Value::as_str)?.to_string();
        let status = match value.get("status").and_then(Value::as_str)? {
            "success" => RecordStatus::Success,
            "failure" => RecordStatus::Failure,
            _ => return None,
        };
        let wall_ns = value.get("wall_ns").and_then(Value::as_u64)?;
        let error = value
            .get("error")
            .and_then(Value::as_str)
            .map(str::to_string);
        let report_md = value
            .get("report_md")
            .and_then(Value::as_str)
            .map(str::to_string);
        if status == RecordStatus::Success && report_md.is_none() {
            return None; // a success without its report cannot be replayed
        }
        let csv = match value.get("csv") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        let mut metrics = BTreeMap::new();
        if let Some(Value::Object(map)) = value.get("metrics") {
            for (name, v) in map {
                metrics.insert(name.clone(), v.as_u64()?);
            }
        }
        let mut health = BTreeMap::new();
        if let Some(Value::Object(map)) = value.get("health") {
            for (name, v) in map {
                health.insert(name.clone(), HealthStat::from_json(v)?);
            }
        }
        Some(Self {
            fingerprint,
            id,
            status,
            wall_ns,
            error,
            report_md,
            csv,
            metrics,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_success() -> LedgerRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("sim.chips_simulated".to_string(), 120);
        metrics.insert("faults.env_excursions".to_string(), 3);
        LedgerRecord::success(
            0x0123_4567_89ab_cdef,
            "exp2",
            1_234_567,
            "## EXP-2 — title\n\n| a |\n".to_string(),
            vec!["a\n1\n".to_string()],
            metrics,
        )
    }

    #[test]
    fn success_round_trips_through_jsonl() {
        let record = sample_success();
        let line = record.to_jsonl();
        let parsed = json::parse(&line).expect("valid JSON");
        let back = LedgerRecord::from_json(&parsed).expect("experiment record");
        assert_eq!(back, record);
    }

    #[test]
    fn failure_round_trips_and_keeps_its_error() {
        let record = LedgerRecord::failure(
            7,
            "exp3",
            99,
            "forced panic requested for exp3",
            BTreeMap::new(),
        );
        let line = record.to_jsonl();
        let back = LedgerRecord::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert!(back.error.unwrap().contains("forced panic"));
        assert!(back.report_md.is_none());
    }

    #[test]
    fn health_summaries_round_trip_and_tolerate_absence() {
        let stat = HealthStat {
            count: 240,
            mean: 0.0125,
            p01: 0.001,
            p50: 0.01,
            p99: 0.05,
        };
        let record = sample_success().with_health(BTreeMap::from([("puf.ber".to_string(), stat)]));
        let line = record.to_jsonl();
        assert!(line.contains("\"health\""));
        let back = LedgerRecord::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.health.get("puf.ber"), Some(&stat));
        // Pre-health ledgers (no "health" key) still parse, empty.
        let legacy = sample_success().to_jsonl();
        assert!(!legacy.contains("\"health\""));
        let back = LedgerRecord::from_json(&json::parse(&legacy).unwrap()).unwrap();
        assert!(back.health.is_empty());
    }

    #[test]
    fn foreign_and_truncated_lines_are_rejected_not_mangled() {
        for bad in [
            r#"{"event":"ledger_open","schema":"aro-ledger-v1"}"#,
            r#"{"event":"experiment","id":"exp1"}"#,
            r#"{"event":"experiment","fingerprint":"00","id":"exp1","status":"success","wall_ns":1,"attempts":1}"#,
        ] {
            let parsed = json::parse(bad).expect("syntactically valid");
            assert!(LedgerRecord::from_json(&parsed).is_none(), "{bad}");
        }
    }

    #[test]
    fn report_bytes_survive_escaping() {
        let mut record = sample_success();
        record.report_md = Some("pipes | and\nnewlines\tand \"quotes\"\\".to_string());
        let back = LedgerRecord::from_json(&json::parse(&record.to_jsonl()).unwrap()).unwrap();
        assert_eq!(back.report_md, record.report_md);
    }
}
