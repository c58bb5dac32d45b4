//! `repro report trace` — exports a telemetry capture's spans and fault
//! events as a Chrome trace (`chrome://tracing` / Perfetto "JSON Array
//! Format" with a `traceEvents` wrapper).
//!
//! Each `span_close` becomes one complete (`"ph":"X"`) event: start
//! timestamp recovered as `ts_ns − dur_ns`, one lane per `aro-obs`
//! telemetry thread id (one id per thread, stable across runs at one
//! thread count). Each `fault` event becomes a process-scoped
//! instant (`"ph":"i"`), so injection storms appear as markers over the
//! span timeline. Timestamps are microseconds, as the format requires.
//!
//! Serve audit events (`repro --audit`) get their own track: process 1,
//! one lane per device, on the **simulated** service clock (µs) rather
//! than wall time. Each audit `verdict` becomes a complete event spanning
//! the request's simulated latency; `scope` and `health` lines become
//! instants marking trial boundaries and state transitions.
//!
//! Metric and ledger events are not part of the timeline, and a
//! `fault` line without a `count` is dropped.

use std::fmt::Write as _;
use std::path::Path;

use aro_obs::json;

use crate::capture::{self, Fold, Line};

/// One parsed telemetry capture, ready to serialize as a Chrome trace.
#[derive(Debug, Default)]
pub struct Trace {
    /// Complete span events: `(name, thread, start_ns, dur_ns)`.
    pub spans: Vec<(String, u64, u64, u64)>,
    /// Fault instants: `(kind, chip, count, ts_ns)`.
    pub faults: Vec<(String, u64, u64, u64)>,
    /// Audit verdict events on the simulated clock:
    /// `(verdict, device, start_us, dur_us)`.
    pub audit_spans: Vec<(String, u64, u64, u64)>,
    /// Audit instants on the simulated clock: `(name, at_us)` — trial
    /// scopes and health-machine transitions.
    pub audit_marks: Vec<(String, u64)>,
    /// Lines that were not valid JSON (crash debris).
    pub skipped_lines: usize,
}

impl Fold for Trace {
    /// Reads `span_close`, `fault` and audit `verdict`/`scope`/`health`
    /// lines (a span's full extent is recoverable from its close alone).
    fn line(&mut self, line: &Line) {
        match (line.event(), line.str("stage")) {
            ("span_close", _) => {
                if let (Some(name), Some(thread), Some(ts_ns), Some(dur_ns)) = (
                    line.str("name"),
                    line.u64("thread"),
                    line.u64("ts_ns"),
                    line.u64("dur_ns"),
                ) {
                    let start_ns = ts_ns.saturating_sub(dur_ns);
                    self.spans
                        .push((name.to_string(), thread, start_ns, dur_ns));
                }
            }
            ("fault", _) => {
                if let (Some(kind), Some(chip), Some(count), Some(ts_ns)) = (
                    line.str("kind"),
                    line.u64("chip"),
                    line.u64("count"),
                    line.u64("ts_ns"),
                ) {
                    self.faults.push((kind.to_string(), chip, count, ts_ns));
                }
            }
            ("audit", Some("verdict")) => {
                if let (Some(verdict), Some(device), Some(at_us), Some(dur_us)) = (
                    line.str("verdict"),
                    line.u64("device"),
                    line.u64("at_us"),
                    line.u64("latency_us"),
                ) {
                    let start_us = at_us.saturating_sub(dur_us);
                    self.audit_spans
                        .push((verdict.to_string(), device, start_us, dur_us));
                }
            }
            ("audit", Some("scope")) => {
                if let Some(label) = line.str("label") {
                    self.audit_marks.push((format!("scope:{label}"), 0));
                }
            }
            ("audit", Some("health")) => {
                if let (Some(from), Some(to), Some(at_us)) =
                    (line.str("from"), line.str("to"), line.u64("at_us"))
                {
                    self.audit_marks
                        .push((format!("health:{from}→{to}"), at_us));
                }
            }
            // Request and attempt detail belongs to `report incidents`.
            _ => {}
        }
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped_lines = lines;
    }
}

impl Trace {
    /// Whether the capture carried any timeline events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.faults.is_empty()
            && self.audit_spans.is_empty()
            && self.audit_marks.is_empty()
    }

    /// Serializes as a Chrome-trace JSON document.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        #[allow(clippy::cast_precision_loss)]
        let us = |ns: u64| -> String { format!("{:.3}", ns as f64 / 1e3) };
        for (name, thread, start_ns, dur_ns) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(
                out,
                ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{thread}}}",
                us(*start_ns),
                us(*dur_ns),
            );
        }
        for (kind, chip, count, ts_ns) in &self.faults {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::escape_into(&mut out, &format!("fault:{kind}"));
            let _ = write!(
                out,
                ",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"chip\":{chip},\"count\":{count}}}}}",
                us(*ts_ns),
            );
        }
        // The audit track: process 1, the *simulated* service clock
        // (timestamps already in µs), one lane per device.
        for (verdict, device, start_us, dur_us) in &self.audit_spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::escape_into(&mut out, &format!("auth:{verdict}"));
            let _ = write!(
                out,
                ",\"cat\":\"audit\",\"ph\":\"X\",\"ts\":{start_us},\"dur\":{dur_us},\
                 \"pid\":1,\"tid\":{device}}}",
            );
        }
        for (name, at_us) in &self.audit_marks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::escape_into(&mut out, name);
            let _ = write!(
                out,
                ",\"cat\":\"audit\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{at_us},\"pid\":1,\"tid\":0}}",
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Loads a capture and exports it.
///
/// # Errors
/// Returns a description when the file is unreadable or carries no span
/// or fault events (nothing to draw).
pub fn trace_file(path: &Path) -> Result<Trace, String> {
    let (trace, _) = capture::load::<Trace>(&[path])?;
    if trace.is_empty() {
        return Err(format!(
            "{}: no span or fault events — capture with `repro --telemetry <file>`",
            path.display()
        ));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_obs::json::Value;

    const CAPTURE: &str = concat!(
        r#"{"event":"span_open","name":"run","thread":1,"depth":1,"ts_ns":1000}"#,
        "\n",
        r#"{"event":"span_close","name":"step","thread":2,"depth":2,"ts_ns":8000,"dur_ns":3000}"#,
        "\n",
        r#"{"event":"fault","kind":"dead_ro","chip":7,"count":2,"ts_ns":5000}"#,
        "\n",
        "crash-debris-not-json\n",
        r#"{"event":"span_close","name":"run","thread":1,"depth":1,"ts_ns":9000,"dur_ns":8000}"#,
        "\n",
    );

    #[test]
    fn exports_complete_events_and_instants() {
        let trace: Trace = capture::parse(CAPTURE);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.faults.len(), 1);
        assert_eq!(trace.skipped_lines, 1);
        // step: close at 8000 ns with dur 3000 → starts at 5000 ns = 5 µs.
        assert_eq!(trace.spans[0], ("step".to_string(), 2, 5000, 3000));

        let doc = trace.to_chrome_json();
        let v = json::parse(&doc).expect("valid Chrome-trace JSON");
        let events = match v.get("traceEvents") {
            Some(Value::Array(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("ph").and_then(Value::as_str),
            Some("X"),
            "spans are complete events"
        );
        assert_eq!(events[0].get("ts").and_then(Value::as_f64), Some(5.0));
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(3.0));
        let fault = &events[2];
        assert_eq!(fault.get("ph").and_then(Value::as_str), Some("i"));
        assert_eq!(
            fault.get("name").and_then(Value::as_str),
            Some("fault:dead_ro")
        );
        assert_eq!(
            fault
                .get("args")
                .and_then(|a| a.get("chip"))
                .and_then(Value::as_u64),
            Some(7)
        );
    }

    #[test]
    fn audit_events_get_their_own_simulated_track() {
        let text = concat!(
            r#"{"event":"audit","stage":"scope","seq":0,"trial":1,"label":"ARO age=10y"}"#,
            "\n",
            r#"{"event":"audit","stage":"verdict","seq":1,"trial":1,"req":"00000000000000aa","device":3,"verdict":"rejected","distance":0.375,"attempts":2,"latency_us":595,"quarantined":true,"at_us":700}"#,
            "\n",
            r#"{"event":"audit","stage":"health","seq":2,"trial":1,"from":"healthy","to":"degraded","error_rate":0.28,"at_us":700}"#,
            "\n",
        );
        let trace: Trace = capture::parse(text);
        assert_eq!(trace.audit_spans.len(), 1);
        assert_eq!(trace.audit_marks.len(), 2);
        // Verdict at t=700 µs with 595 µs latency → starts at 105 µs.
        assert_eq!(trace.audit_spans[0], ("rejected".to_string(), 3, 105, 595));

        let doc = trace.to_chrome_json();
        let v = json::parse(&doc).expect("valid Chrome-trace JSON");
        let events = match v.get("traceEvents") {
            Some(Value::Array(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert_eq!(events.len(), 3);
        let auth = &events[0];
        assert_eq!(
            auth.get("name").and_then(Value::as_str),
            Some("auth:rejected")
        );
        assert_eq!(
            auth.get("pid").and_then(Value::as_u64),
            Some(1),
            "audit track is pid 1"
        );
        assert_eq!(
            auth.get("tid").and_then(Value::as_u64),
            Some(3),
            "one lane per device"
        );
        assert_eq!(auth.get("ts").and_then(Value::as_f64), Some(105.0));
        assert!(doc.contains("health:healthy→degraded"), "{doc}");
    }

    #[test]
    fn refuses_an_eventless_capture() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("aro-trace-empty-{}.jsonl", std::process::id()));
        std::fs::write(&path, r#"{"event":"counter","name":"c","value":1}"#).unwrap();
        let err = trace_file(&path).unwrap_err();
        assert!(err.contains("no span or fault events"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
