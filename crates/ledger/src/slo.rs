//! `repro report slo` — windowed availability and simulated-latency SLO
//! burn rates over a serve audit capture.
//!
//! Consumes the same `"event":"audit"` stream as
//! [`crate::incidents`], but folds it the SRE way: each scope's
//! admitted events (`verdict` + `shed` lines, in admit order) are cut
//! into fixed-size windows, and each window is scored against two SLOs:
//!
//! - **Availability**: the fraction of requests answered with a
//!   *trustworthy decision*. Fail-closed verdicts (timeout, corrupt
//!   record, missing, malformed) and shed requests count against it;
//!   accepts **and rejects** do not — a reject is a correct answer, not
//!   an outage. Burn rate = error-budget consumption per window:
//!   `(1 − availability) / (1 − slo)`, so 1.0 means "burning exactly
//!   the budget", 10 means a page.
//! - **Latency**: exact p50/p99 order statistics over the window's
//!   simulated request latencies (integer µs, never wall clock), gated
//!   on a p99 target.
//!
//! Everything derives from the sequential audit stream, so the report
//! is byte-identical at any `--threads N`.

use std::fmt::Write as _;
use std::path::Path;

use crate::capture::{self, Fold, Line};
use crate::md::MdTable;

/// SLO targets and windowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Requests per window.
    pub window: usize,
    /// Availability target (fraction, e.g. `0.99`).
    pub availability: f64,
    /// p99 simulated-latency target, µs.
    pub latency_p99_us: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            // One health-machine window's worth of traffic, and a 99 %
            // availability / 1.25 ms simulated-p99 objective: tight
            // enough that storm sweeps burn visibly, loose enough that
            // fault-free windows (whose p99 sits near 1.17 ms once
            // retry attempts stack) pass.
            window: 64,
            availability: 0.99,
            latency_p99_us: 1250,
        }
    }
}

/// One admitted event, as the SLO model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A served request: `(latency_us, failed_closed)`.
    Served(u64, bool),
    /// A shed request (availability hit, no latency sample).
    Shed,
}

/// One scope's event stream.
#[derive(Debug, Default)]
struct ScopeEvents {
    label: String,
    events: Vec<Event>,
}

/// One scored SLO window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// The scope label this window belongs to.
    pub scope: String,
    /// Window index within the scope.
    pub index: usize,
    /// Requests in the window (served + shed).
    pub requests: usize,
    /// Fail-closed + shed count.
    pub errors: usize,
    /// Exact p50 over served latencies, µs.
    pub p50_us: u64,
    /// Exact p99 over served latencies, µs.
    pub p99_us: u64,
}

impl Window {
    /// Availability of this window.
    #[must_use]
    pub fn availability(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let rate = self.errors as f64 / self.requests.max(1) as f64;
        1.0 - rate
    }

    /// Error-budget burn rate against an availability target.
    #[must_use]
    pub fn burn_rate(&self, slo: f64) -> f64 {
        let budget = (1.0 - slo).max(f64::EPSILON);
        (1.0 - self.availability()) / budget
    }
}

/// A parsed capture scored against an [`SloPolicy`].
#[derive(Debug, Default)]
pub struct SloReport {
    scopes: Vec<ScopeEvents>,
    /// Lines that were not valid JSON (crash debris).
    pub skipped_lines: usize,
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
}

impl Fold for SloReport {
    /// Reads audit `scope`, `verdict` and `shed` lines; a verdict without
    /// a `request` line still counts.
    fn line(&mut self, line: &Line) {
        if line.event() != "audit" {
            return;
        }
        let event = match line.str("stage") {
            Some("scope") => {
                self.scopes.push(ScopeEvents {
                    label: line.str("label").unwrap_or_default().to_string(),
                    events: Vec::new(),
                });
                return;
            }
            Some("verdict") => Event::Served(
                line.u64("latency_us").unwrap_or(0),
                matches!(
                    line.str("verdict"),
                    Some("timed_out" | "corrupt_record" | "missing" | "malformed")
                ),
            ),
            Some("shed") => Event::Shed,
            _ => return,
        };
        if self.scopes.is_empty() {
            self.scopes.push(ScopeEvents {
                label: "(no scope)".to_string(),
                events: Vec::new(),
            });
        }
        self.scopes
            .last_mut()
            .expect("pushed above")
            .events
            .push(event);
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped_lines = lines;
    }
}

impl SloReport {
    /// Whether the capture carried any scoreable events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scopes.iter().all(|s| s.events.is_empty())
    }

    /// Scores every scope's windows under `policy`.
    #[must_use]
    pub fn windows(&self, policy: &SloPolicy) -> Vec<Window> {
        let mut out = Vec::new();
        for scope in &self.scopes {
            for (index, chunk) in scope.events.chunks(policy.window.max(1)).enumerate() {
                let errors = chunk
                    .iter()
                    .filter(|e| matches!(e, Event::Shed | Event::Served(_, true)))
                    .count();
                let mut latencies: Vec<u64> = chunk
                    .iter()
                    .filter_map(|e| match e {
                        Event::Served(us, _) => Some(*us),
                        Event::Shed => None,
                    })
                    .collect();
                latencies.sort_unstable();
                out.push(Window {
                    scope: scope.label.clone(),
                    index,
                    requests: chunk.len(),
                    errors,
                    p50_us: percentile(&latencies, 50),
                    p99_us: percentile(&latencies, 99),
                });
            }
        }
        out
    }

    /// Renders the SLO report as deterministic markdown.
    #[must_use]
    pub fn to_markdown(&self, policy: &SloPolicy) -> String {
        let windows = self.windows(policy);
        let mut out = String::from("## SLO report\n\n");
        let _ = writeln!(
            out,
            "- objectives: availability ≥ {:.2} %, p99 ≤ {} µs (simulated), \
             window = {} requests",
            policy.availability * 100.0,
            policy.latency_p99_us,
            policy.window
        );
        let breaches = windows
            .iter()
            .filter(|w| w.burn_rate(policy.availability) > 1.0)
            .count();
        let latency_breaches = windows
            .iter()
            .filter(|w| w.p99_us > policy.latency_p99_us)
            .count();
        let worst_burn = windows
            .iter()
            .map(|w| w.burn_rate(policy.availability))
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "- {} window(s): {breaches} burning past the availability budget, \
             {latency_breaches} past the latency target, worst burn rate {worst_burn:.1}×",
            windows.len()
        );
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "- {} non-JSON line(s) skipped", self.skipped_lines);
        }
        out.push('\n');
        let mut table = MdTable::new(
            "Availability & latency burn per window",
            &[
                "scope", "win", "req", "avail", "burn", "p50 µs", "p99 µs", "slo",
            ],
        );
        for w in &windows {
            let burn = w.burn_rate(policy.availability);
            let ok = burn <= 1.0 && w.p99_us <= policy.latency_p99_us;
            table.push_row(vec![
                w.scope.clone(),
                w.index.to_string(),
                w.requests.to_string(),
                format!("{:.2} %", w.availability() * 100.0),
                format!("{burn:.1}×"),
                w.p50_us.to_string(),
                w.p99_us.to_string(),
                if ok { "ok" } else { "BREACH" }.to_string(),
            ]);
        }
        out.push_str(&table.to_markdown());
        out.trim_end().to_string()
    }
}

/// Loads a capture and scores it.
///
/// # Errors
/// Returns a description when the file is unreadable or carries no
/// audit verdict/shed events.
pub fn slo_file(path: &Path) -> Result<SloReport, String> {
    let (report, _) = capture::load::<SloReport>(&[path])?;
    if report.is_empty() {
        return Err(format!(
            "{}: no audit verdict events — capture with `repro --audit --telemetry <file>`",
            path.display()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(verdicts: &[(&str, u64)], sheds: usize) -> String {
        let mut text = String::from(
            "{\"event\":\"audit\",\"stage\":\"scope\",\"seq\":0,\"trial\":1,\"label\":\"cell\"}\n",
        );
        for (i, (verdict, us)) in verdicts.iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"event\":\"audit\",\"stage\":\"verdict\",\"seq\":{},\"trial\":1,\
                 \"req\":\"{i:016x}\",\"verdict\":\"{verdict}\",\"attempts\":1,\
                 \"latency_us\":{us},\"quarantined\":false,\"at_us\":{us}}}",
                i + 1
            );
        }
        for i in 0..sheds {
            let _ = writeln!(
                text,
                "{{\"event\":\"audit\",\"stage\":\"shed\",\"seq\":{},\"trial\":1,\
                 \"device\":{i},\"retry_after_us\":100,\"at_us\":0}}",
                verdicts.len() + i + 1
            );
        }
        text
    }

    #[test]
    fn rejects_are_available_but_fail_closed_and_sheds_burn() {
        // 8 events: 4 accepted, 2 rejected (still available), 1 timeout,
        // 1 shed → availability 6/8 = 75 %.
        let text = capture(
            &[
                ("accepted", 100),
                ("accepted", 110),
                ("rejected", 120),
                ("accepted", 130),
                ("rejected", 140),
                ("accepted", 150),
                ("timed_out", 900),
            ],
            1,
        );
        let report: SloReport = capture::parse(&text);
        let policy = SloPolicy {
            window: 8,
            availability: 0.99,
            latency_p99_us: 1000,
        };
        let windows = report.windows(&policy);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.requests, 8);
        assert_eq!(w.errors, 2, "timeout + shed, not the rejects");
        assert!((w.availability() - 0.75).abs() < 1e-12);
        assert!(
            (w.burn_rate(0.99) - 25.0).abs() < 1e-9,
            "25× the 1 % budget"
        );
        // Same floor-indexed order statistic as serve-bench: with 7
        // served samples, index (7-1)*99/100 = 5 → 150 (the 900 µs
        // timeout only surfaces at larger window populations).
        assert_eq!(w.p50_us, 130);
        assert_eq!(w.p99_us, 150, "floor order statistic over served latencies");
        let md = report.to_markdown(&policy);
        assert!(md.contains("BREACH"), "{md}");
        assert!(md.contains("worst burn rate 25.0×"), "{md}");
    }

    #[test]
    fn clean_traffic_sits_inside_the_budget() {
        let text = capture(&[("accepted", 100); 10], 0);
        let report: SloReport = capture::parse(&text);
        let policy = SloPolicy::default();
        let windows = report.windows(&policy);
        assert_eq!(windows.len(), 1, "10 events, one 64-wide window");
        assert!((windows[0].availability() - 1.0).abs() < 1e-12);
        assert!(report.to_markdown(&policy).contains("| ok"));
    }

    #[test]
    fn windows_cut_per_scope_and_per_size() {
        let mut text = capture(&[("accepted", 100); 5], 0);
        text.push_str(&capture(&[("accepted", 100); 3], 0));
        let report: SloReport = capture::parse(&text);
        let policy = SloPolicy {
            window: 2,
            ..SloPolicy::default()
        };
        // 5 events → windows of 2+2+1, then 3 → 2+1 in the second scope.
        assert_eq!(report.windows(&policy).len(), 5);
    }

    #[test]
    fn empty_capture_is_detected() {
        assert!(capture::parse::<SloReport>("{\"event\":\"counter\"}\n").is_empty());
    }
}
