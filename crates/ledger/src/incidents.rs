//! `repro report incidents` — incident forensics over a serve audit
//! capture: per-device causal timelines, top root causes, and
//! quarantine post-mortems.
//!
//! Input is a telemetry JSONL capture recorded with `repro --audit
//! --telemetry <file>` (see `crates/serve/src/audit.rs` for the event
//! schema). The reconstruction consumes two event families:
//!
//! - `"event":"audit"` lines — emitted by the *sequential* admit path,
//!   so their file order is the admit order and byte-identical at any
//!   `--threads N`. They carry the request ids and causal chains.
//! - `"event":"fault"` lines — emitted at injector fire sites on
//!   *worker* threads, so their file order is thread-racy; they are
//!   consumed only as per-`(chip, kind)` **sums**, which are
//!   order-independent. The report stays deterministic.
//!
//! The output's claim: for every quarantined device there is a causal
//! chain from the injected fault events that hit its attempts to the
//! verdict that quarantined it — store read outcome, per-attempt
//! latency/timeout/fault flags, decode distance, and the maintenance
//! (re-enrollment) follow-up.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::capture::{self, Fold, Line};
use crate::md::MdTable;

/// One verification attempt, reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// 1-based attempt number.
    pub attempt: u64,
    /// Simulated attempt cost, µs.
    pub latency_us: u64,
    /// The attempt blew its budget.
    pub timed_out: bool,
    /// Backoff charged after the attempt, µs.
    pub backoff_us: u64,
    /// Fractional HD, when the read completed.
    pub distance: Option<f64>,
    /// An environment excursion hit the attempt.
    pub excursion: bool,
    /// A readout noise burst hit the attempt.
    pub burst: bool,
    /// Response bits glitched.
    pub glitches: u64,
}

/// One request's reconstructed causal chain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Seed-derived request id (16 hex digits).
    pub req: String,
    /// The device that answered.
    pub device: u64,
    /// The record it answered for.
    pub target: u64,
    /// Traffic kind: `genuine` or `impostor`.
    pub kind: String,
    /// Store read outcome: `intact` / `corrupt` / `missing`.
    pub store: String,
    /// Store shard, when the record existed.
    pub shard: Option<u64>,
    /// Media-flagged helper positions on a corrupt read.
    pub flagged: Option<u64>,
    /// Replica that served an intact read (0 = home replica).
    pub replica: Option<u64>,
    /// Sibling replicas that were corrupt or wiped on an intact read.
    pub replicas_lost: Option<u64>,
    /// Wiped replicas seen on a corrupt or missing read.
    pub replicas_wiped: Option<u64>,
    /// Attempts in order.
    pub attempts: Vec<Attempt>,
    /// Final verdict label.
    pub verdict: String,
    /// Final measured distance, when one exists.
    pub distance: Option<f64>,
    /// The verdict routed the device to quarantine.
    pub quarantined: bool,
    /// Total simulated request latency, µs.
    pub latency_us: u64,
    /// Simulated service clock at admission, µs.
    pub at_us: u64,
}

impl Request {
    /// Fail-closed verdicts (operational errors; rejects are decisions).
    #[must_use]
    pub fn failed_closed(&self) -> bool {
        matches!(
            self.verdict.as_str(),
            "timed_out" | "corrupt_record" | "missing" | "malformed"
        )
    }

    /// The dominant root cause of this request's outcome, classified
    /// from its causal chain.
    #[must_use]
    pub fn root_cause(&self) -> &'static str {
        let excursion = self.attempts.iter().any(|a| a.excursion);
        let transient = self.attempts.iter().any(|a| a.burst || a.glitches > 0);
        let wiped = self.replicas_wiped.unwrap_or(0) > 0;
        match self.verdict.as_str() {
            "corrupt_record" if wiped => {
                "replica group exhausted (wipes + corruption, no intact copy)"
            }
            "corrupt_record" => "store corruption (checksum failed on every replica)",
            "missing" if wiped => "replica wipe (every copy of the record lost)",
            "missing" => "missing record",
            "malformed" if transient => "response glitch (malformed answer)",
            "malformed" => "malformed answer",
            "timed_out" if excursion => "environment excursion (latency blowout)",
            "timed_out" => "latency blowout",
            "rejected" if transient => "transient noise (burst/glitch past threshold)",
            "rejected" => "margin erosion (distance past threshold)",
            "accepted" if self.quarantined => "margin erosion (accepted past watermark)",
            _ => "none (served cleanly)",
        }
    }
}

/// One maintenance (re-enrollment) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Reenroll {
    /// The device under maintenance.
    pub device: u64,
    /// `readmitted` / `gate_failed` / `refused_read_only` / `missing`.
    pub outcome: String,
    /// Soft-read attempts consumed.
    pub attempts: u64,
    /// Repair generation stamped on the fresh record (0 when the
    /// outcome left the old lineage in place).
    pub generation: u64,
    /// Simulated service clock, µs.
    pub at_us: u64,
}

/// One anti-entropy scrub finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Scrub {
    /// The device whose replica group the scrub touched.
    pub device: u64,
    /// The replica that was rewritten (read-repair) or replica 0 for
    /// an unrecoverable group.
    pub replica: u64,
    /// Repair generation of the intact source copied from.
    pub generation: u64,
    /// `read_repair` or `unrecoverable`.
    pub outcome: String,
    /// Simulated service clock, µs.
    pub at_us: u64,
}

/// One audit scope (one fleet trial / sweep cell).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scope {
    /// The trial's label (cell style, age, fault plan).
    pub label: String,
    /// Requests in admit order.
    pub requests: Vec<Request>,
    /// Load-shedding decisions observed.
    pub sheds: u64,
    /// Health transitions: `(from, to, error_rate, at_us)`.
    pub health: Vec<(String, String, f64, u64)>,
    /// Replica-group (store) health transitions:
    /// `(from, to, unrecoverable, at_us)`.
    pub store_health: Vec<(String, String, u64, u64)>,
    /// Anti-entropy scrub findings in order.
    pub scrubs: Vec<Scrub>,
    /// Maintenance outcomes in order.
    pub reenrolls: Vec<Reenroll>,
}

/// A parsed audit capture, ready to render.
#[derive(Debug, Default)]
pub struct Incidents {
    /// Audit scopes in emission order.
    pub scopes: Vec<Scope>,
    /// Injected-fault totals by kind (order-independent sums).
    pub fault_totals: BTreeMap<String, u64>,
    /// Injected-fault totals by `(chip, kind)`.
    pub device_faults: BTreeMap<(u64, String), u64>,
    /// Lines that were not valid JSON (crash debris).
    pub skipped_lines: usize,
    // Open request index into the *current* scope, by request id.
    open: BTreeMap<String, usize>,
}

impl Fold for Incidents {
    /// Reads `fault` lines (a missing `count` counts as 1) and every
    /// audit stage; audit lines before any `scope` line fall under an
    /// implicit `(no scope)` scope.
    fn line(&mut self, line: &Line) {
        match (line.event(), line.str("stage")) {
            ("fault", _) => {
                let (Some(kind), Some(chip)) = (line.str("kind"), line.u64("chip")) else {
                    return;
                };
                let count = line.u64("count").unwrap_or(1);
                *self.fault_totals.entry(kind.to_string()).or_insert(0) += count;
                *self
                    .device_faults
                    .entry((chip, kind.to_string()))
                    .or_insert(0) += count;
            }
            ("audit", Some("scope")) => {
                self.open.clear();
                self.scopes.push(Scope {
                    label: line.str("label").unwrap_or_default().to_string(),
                    ..Scope::default()
                });
            }
            ("audit", Some(stage)) => {
                if self.scopes.is_empty() {
                    self.scopes.push(Scope {
                        label: "(no scope)".to_string(),
                        ..Scope::default()
                    });
                }
                self.fold_stage(stage, line);
            }
            _ => {}
        }
    }

    fn skipped(&mut self, lines: usize) {
        self.skipped_lines = lines;
    }
}

impl Incidents {
    /// Folds one audit line into the current scope.
    fn fold_stage(&mut self, stage: &str, line: &Line) {
        let Some(scope) = self.scopes.last_mut() else {
            return;
        };
        let str_of = |key: &str| line.str(key).unwrap_or_default().to_string();
        let u64_of = |key: &str| line.u64(key).unwrap_or(0);
        match stage {
            "request" => {
                let (Some(req), Some(device), Some(target)) =
                    (line.str("req"), line.u64("device"), line.u64("target"))
                else {
                    return;
                };
                self.open.insert(req.to_string(), scope.requests.len());
                scope.requests.push(Request {
                    req: req.to_string(),
                    device,
                    target,
                    kind: str_of("kind"),
                    ..Request::default()
                });
            }
            "store_read" | "attempt" | "verdict" => {
                let Some(request) = line
                    .str("req")
                    .and_then(|req| self.open.get(req))
                    .and_then(|&at| scope.requests.get_mut(at))
                else {
                    return;
                };
                match stage {
                    "store_read" => {
                        request.store = str_of("outcome");
                        request.shard = line.u64("shard");
                        request.flagged = line.u64("flagged");
                        request.replica = line.u64("replica");
                        request.replicas_lost = line.u64("replicas_lost");
                        request.replicas_wiped = line.u64("replicas_wiped");
                    }
                    "attempt" => request.attempts.push(Attempt {
                        attempt: u64_of("attempt"),
                        latency_us: u64_of("latency_us"),
                        timed_out: line.bool("timeout").unwrap_or(false),
                        backoff_us: u64_of("backoff_us"),
                        distance: line.f64("distance"),
                        excursion: line.bool("excursion").unwrap_or(false),
                        burst: line.bool("burst").unwrap_or(false),
                        glitches: u64_of("glitches"),
                    }),
                    _ => {
                        request.verdict = str_of("verdict");
                        request.distance = line.f64("distance");
                        request.quarantined = line.bool("quarantined").unwrap_or(false);
                        request.latency_us = u64_of("latency_us");
                        request.at_us = u64_of("at_us");
                    }
                }
            }
            "shed" => scope.sheds += 1,
            "health" => scope.health.push((
                str_of("from"),
                str_of("to"),
                line.f64("error_rate").unwrap_or(0.0),
                u64_of("at_us"),
            )),
            "store_health" => scope.store_health.push((
                str_of("from"),
                str_of("to"),
                u64_of("unrecoverable"),
                u64_of("at_us"),
            )),
            "scrub" => scope.scrubs.push(Scrub {
                device: u64_of("device"),
                replica: u64_of("replica"),
                generation: u64_of("generation"),
                outcome: str_of("outcome"),
                at_us: u64_of("at_us"),
            }),
            "reenroll" => scope.reenrolls.push(Reenroll {
                device: u64_of("device"),
                outcome: str_of("outcome"),
                attempts: u64_of("attempts"),
                generation: u64_of("generation"),
                at_us: u64_of("at_us"),
            }),
            _ => {}
        }
    }

    /// Whether the capture carried any audit events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Total requests across scopes.
    #[must_use]
    pub fn n_requests(&self) -> usize {
        self.scopes.iter().map(|s| s.requests.len()).sum()
    }

    fn describe_attempt(attempt: &Attempt) -> String {
        let mut cell = if attempt.timed_out {
            format!(
                "attempt {}: TIMEOUT at {} µs (+{} µs backoff)",
                attempt.attempt, attempt.latency_us, attempt.backoff_us
            )
        } else {
            let mut s = format!("attempt {}: {} µs", attempt.attempt, attempt.latency_us);
            if let Some(d) = attempt.distance {
                let _ = write!(s, ", distance {d:.4}");
            }
            if attempt.backoff_us > 0 {
                let _ = write!(s, " (+{} µs backoff)", attempt.backoff_us);
            }
            s
        };
        let mut faults: Vec<String> = Vec::new();
        if attempt.excursion {
            faults.push("excursion".to_string());
        }
        if attempt.burst {
            faults.push("burst".to_string());
        }
        if attempt.glitches > 0 {
            faults.push(format!("{} glitched bit(s)", attempt.glitches));
        }
        if faults.is_empty() {
            cell.push_str(" — no faults fired");
        } else {
            let _ = write!(cell, " — faults: {}", faults.join(" + "));
        }
        cell
    }

    fn store_line(request: &Request) -> String {
        let mut s = format!("store read: {}", request.store);
        if let Some(shard) = request.shard {
            let _ = write!(s, " (shard {shard}");
            if let Some(replica) = request.replica {
                let _ = write!(s, ", replica {replica}");
            }
            if let Some(flagged) = request.flagged {
                let _ = write!(s, ", {flagged} media-flagged helper bit(s)");
            }
            if let Some(lost) = request.replicas_lost.filter(|&n| n > 0) {
                let _ = write!(s, ", {lost} sibling replica(s) lost");
            }
            if let Some(wiped) = request.replicas_wiped.filter(|&n| n > 0) {
                let _ = write!(s, ", {wiped} replica(s) wiped");
            }
            s.push(')');
        } else if let Some(wiped) = request.replicas_wiped.filter(|&n| n > 0) {
            let _ = write!(s, " ({wiped} replica(s) wiped)");
        }
        s
    }

    /// Injected-fault sums for one device, rendered compactly
    /// (`env_excursion×12 + noise_burst×3`), or `None` when the capture
    /// carries no fault events for it.
    #[must_use]
    pub fn device_fault_summary(&self, device: u64) -> Option<String> {
        let parts: Vec<String> = self
            .device_faults
            .range((device, String::new())..(device + 1, String::new()))
            .map(|((_, kind), count)| format!("{kind}×{count}"))
            .collect();
        (!parts.is_empty()).then(|| parts.join(" + "))
    }

    /// Renders the incident report as deterministic markdown.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Incident report\n\n");
        let quarantined: usize = self
            .scopes
            .iter()
            .flat_map(|s| &s.requests)
            .filter(|r| r.quarantined)
            .count();
        let fail_closed: usize = self
            .scopes
            .iter()
            .flat_map(|s| &s.requests)
            .filter(|r| r.failed_closed())
            .count();
        let transitions: usize = self.scopes.iter().map(|s| s.health.len()).sum();
        let read_repairs: usize = self
            .scopes
            .iter()
            .flat_map(|s| &s.scrubs)
            .filter(|s| s.outcome == "read_repair")
            .count();
        let unrecoverable: usize = self
            .scopes
            .iter()
            .flat_map(|s| &s.scrubs)
            .filter(|s| s.outcome == "unrecoverable")
            .count();
        let _ = writeln!(
            out,
            "- {} scope(s), {} request(s): {quarantined} quarantine verdict(s), \
             {fail_closed} fail-closed verdict(s), {transitions} health transition(s), \
             {read_repairs} scrub read-repair(s), {unrecoverable} unrecoverable group \
             finding(s)",
            self.scopes.len(),
            self.n_requests(),
        );
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "- {} non-JSON line(s) skipped", self.skipped_lines);
        }
        out.push('\n');

        if !self.fault_totals.is_empty() {
            let mut table = MdTable::new("Injected faults (whole capture)", &["kind", "count"]);
            for (kind, count) in &self.fault_totals {
                table.push_row(vec![kind.clone(), count.to_string()]);
            }
            out.push_str(&table.to_markdown());
            out.push('\n');
        }

        // Top root causes across every non-clean request, most frequent
        // first (ties break on the cause name — deterministic).
        let mut causes: BTreeMap<&'static str, u64> = BTreeMap::new();
        for request in self.scopes.iter().flat_map(|s| &s.requests) {
            if request.quarantined || request.failed_closed() || request.verdict == "rejected" {
                *causes.entry(request.root_cause()).or_insert(0) += 1;
            }
        }
        // Scrub findings are incidents too: a read-repair is a replica
        // that silently diverged; an unrecoverable group is a total loss
        // the quorum read will fail closed on.
        for scrub in self.scopes.iter().flat_map(|s| &s.scrubs) {
            let cause = match scrub.outcome.as_str() {
                "read_repair" => "replica divergence (healed by scrub read-repair)",
                "unrecoverable" => "replica group exhausted (scrub: no intact copy left)",
                _ => continue,
            };
            *causes.entry(cause).or_insert(0) += 1;
        }
        if !causes.is_empty() {
            let mut ranked: Vec<(&str, u64)> = causes.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let mut table = MdTable::new("Top root causes", &["root cause", "incidents"]);
            for (cause, count) in ranked {
                table.push_row(vec![cause.to_string(), count.to_string()]);
            }
            out.push_str(&table.to_markdown());
            out.push('\n');
        }

        for scope in &self.scopes {
            let quarantines: Vec<&Request> =
                scope.requests.iter().filter(|r| r.quarantined).collect();
            let incidents = quarantines.len()
                + scope.health.len()
                + scope.store_health.len()
                + scope.scrubs.len()
                + scope.requests.iter().filter(|r| r.failed_closed()).count();
            if incidents == 0 {
                continue; // clean scopes stay out of the post-mortem
            }
            let _ = writeln!(out, "### Scope: {}\n", scope.label);
            let repairs = scope
                .scrubs
                .iter()
                .filter(|s| s.outcome == "read_repair")
                .count();
            let lost_groups = scope
                .scrubs
                .iter()
                .filter(|s| s.outcome == "unrecoverable")
                .count();
            let _ = writeln!(
                out,
                "- {} request(s), {} shed, {} re-enrollment outcome(s), {repairs} scrub \
                 read-repair(s), {lost_groups} unrecoverable group(s)\n",
                scope.requests.len(),
                scope.sheds,
                scope.reenrolls.len()
            );
            for (from, to, rate, at_us) in &scope.health {
                let _ = writeln!(
                    out,
                    "- health: {from} → {to} at t={at_us} µs (windowed error rate {rate:.3})"
                );
            }
            for (from, to, unrecoverable, at_us) in &scope.store_health {
                let _ = writeln!(
                    out,
                    "- store health: {from} → {to} at t={at_us} µs ({unrecoverable} \
                     unrecoverable group(s))"
                );
            }
            for scrub in &scope.scrubs {
                let _ = match scrub.outcome.as_str() {
                    "read_repair" => writeln!(
                        out,
                        "- scrub: device {} replica {} read-repaired from generation {} \
                         at t={} µs",
                        scrub.device, scrub.replica, scrub.generation, scrub.at_us
                    ),
                    "unrecoverable" => writeln!(
                        out,
                        "- scrub: device {} UNRECOVERABLE (no intact replica) at t={} µs",
                        scrub.device, scrub.at_us
                    ),
                    other => writeln!(
                        out,
                        "- scrub: device {} `{other}` at t={} µs",
                        scrub.device, scrub.at_us
                    ),
                };
            }
            if !scope.health.is_empty()
                || !scope.store_health.is_empty()
                || !scope.scrubs.is_empty()
            {
                out.push('\n');
            }
            for request in &quarantines {
                let _ = writeln!(
                    out,
                    "**Quarantine post-mortem — device {} (req `{}`)**\n",
                    request.device, request.req
                );
                let _ = writeln!(
                    out,
                    "- verdict `{}` at t={} µs ({} µs total), root cause: {}",
                    request.verdict,
                    request.at_us,
                    request.latency_us,
                    request.root_cause()
                );
                let _ = writeln!(out, "- {}", Self::store_line(request));
                for attempt in &request.attempts {
                    let _ = writeln!(out, "- {}", Self::describe_attempt(attempt));
                }
                if let Some(faults) = self.device_fault_summary(request.device) {
                    let _ = writeln!(
                        out,
                        "- injected faults on device {}: {faults}",
                        request.device
                    );
                }
                let followup = scope
                    .reenrolls
                    .iter()
                    .find(|m| m.device == request.device && m.at_us >= request.at_us);
                match followup {
                    Some(m) => {
                        let mut line = format!(
                            "- maintenance: `{}` after {} gate attempt(s) at t={} µs",
                            m.outcome, m.attempts, m.at_us
                        );
                        if m.generation > 0 {
                            let _ = write!(line, " (repair generation {})", m.generation);
                        }
                        let _ = writeln!(out, "{line}");
                    }
                    None => {
                        let _ = writeln!(out, "- maintenance: no re-enrollment attempt in capture");
                    }
                }
                out.push('\n');
            }
            // Per-device causal timeline over every incident device.
            let mut devices: Vec<u64> = scope
                .requests
                .iter()
                .filter(|r| r.quarantined || r.failed_closed())
                .map(|r| r.device)
                .collect();
            devices.sort_unstable();
            devices.dedup();
            for device in devices {
                let _ = writeln!(out, "**Device {device} timeline**\n");
                for request in scope.requests.iter().filter(|r| r.device == device) {
                    let mut line = format!(
                        "- t={} µs: `{}` ({} attempt(s), {} µs",
                        request.at_us,
                        request.verdict,
                        request.attempts.len().max(1),
                        request.latency_us
                    );
                    if let Some(d) = request.distance {
                        let _ = write!(line, ", distance {d:.4}");
                    }
                    line.push(')');
                    if request.quarantined {
                        line.push_str(" → quarantined");
                    }
                    let _ = writeln!(out, "{line}");
                }
                for scrub in scope.scrubs.iter().filter(|s| s.device == device) {
                    let _ = writeln!(
                        out,
                        "- t={} µs: scrub `{}` (replica {}, generation {})",
                        scrub.at_us, scrub.outcome, scrub.replica, scrub.generation
                    );
                }
                for m in scope.reenrolls.iter().filter(|m| m.device == device) {
                    let _ = writeln!(
                        out,
                        "- t={} µs: maintenance `{}` ({} attempt(s))",
                        m.at_us, m.outcome, m.attempts
                    );
                }
                out.push('\n');
            }
        }
        out.trim_end().to_string()
    }
}

/// Loads a capture and reconstructs its incidents.
///
/// # Errors
/// Returns a description when the file is unreadable or carries no audit
/// events (nothing to reconstruct).
pub fn incidents_file(path: &Path) -> Result<Incidents, String> {
    let (incidents, _) = capture::load::<Incidents>(&[path])?;
    if incidents.is_empty() {
        return Err(format!(
            "{}: no audit events — capture with `repro --audit --telemetry <file>`",
            path.display()
        ));
    }
    Ok(incidents)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPTURE: &str = concat!(
        r#"{"event":"audit","stage":"scope","seq":0,"trial":1,"label":"ARO age=10y storm@0.5"}"#,
        "\n",
        r#"{"event":"fault","kind":"env_excursion","chip":3,"count":2,"ts_ns":111}"#,
        "\n",
        r#"{"event":"audit","stage":"request","seq":1,"trial":1,"req":"00000000000000aa","device":3,"target":3,"kind":"genuine","event_base":24}"#,
        "\n",
        r#"{"event":"audit","stage":"store_read","seq":2,"trial":1,"req":"00000000000000aa","outcome":"intact","shard":1,"replica":1,"replicas_lost":1}"#,
        "\n",
        r#"{"event":"audit","stage":"attempt","seq":3,"trial":1,"req":"00000000000000aa","attempt":1,"latency_us":400,"timeout":true,"backoff_us":75,"excursion":true,"burst":false,"glitches":0}"#,
        "\n",
        r#"{"event":"audit","stage":"attempt","seq":4,"trial":1,"req":"00000000000000aa","attempt":2,"latency_us":120,"timeout":false,"backoff_us":0,"distance":0.375,"excursion":true,"burst":false,"glitches":0}"#,
        "\n",
        r#"{"event":"audit","stage":"verdict","seq":5,"trial":1,"req":"00000000000000aa","verdict":"rejected","distance":0.375,"attempts":2,"latency_us":595,"quarantined":true,"at_us":595}"#,
        "\n",
        r#"{"event":"audit","stage":"health","seq":6,"trial":1,"from":"healthy","to":"degraded","error_rate":0.28,"at_us":595}"#,
        "\n",
        r#"{"event":"audit","stage":"scrub","seq":7,"trial":1,"device":2,"replica":1,"generation":0,"outcome":"read_repair","at_us":595}"#,
        "\n",
        r#"{"event":"audit","stage":"scrub","seq":8,"trial":1,"device":5,"replica":0,"generation":0,"outcome":"unrecoverable","at_us":595}"#,
        "\n",
        r#"{"event":"audit","stage":"store_health","seq":9,"trial":1,"from":"intact","to":"quorum-critical","unrecoverable":1,"at_us":595}"#,
        "\n",
        r#"{"event":"audit","stage":"reenroll","seq":10,"trial":1,"req":"00000000000000bb","device":3,"outcome":"readmitted","attempts":1,"generation":2,"at_us":595}"#,
        "\n",
        "not-json\n",
    );

    #[test]
    fn reconstructs_the_causal_chain() {
        let incidents: Incidents = capture::parse(CAPTURE);
        assert_eq!(incidents.scopes.len(), 1);
        assert_eq!(incidents.skipped_lines, 1);
        let scope = &incidents.scopes[0];
        assert_eq!(scope.label, "ARO age=10y storm@0.5");
        assert_eq!(scope.requests.len(), 1);
        let request = &scope.requests[0];
        assert_eq!(request.device, 3);
        assert_eq!(request.store, "intact");
        assert_eq!(request.shard, Some(1));
        assert_eq!(request.replica, Some(1), "served from the fallback replica");
        assert_eq!(request.replicas_lost, Some(1));
        assert_eq!(request.attempts.len(), 2);
        assert!(request.attempts[0].timed_out);
        assert_eq!(request.attempts[1].distance, Some(0.375));
        assert!(request.quarantined);
        assert_eq!(
            request.root_cause(),
            "margin erosion (distance past threshold)"
        );
        assert_eq!(scope.health.len(), 1);
        assert_eq!(scope.store_health.len(), 1);
        assert_eq!(scope.store_health[0].1, "quorum-critical");
        assert_eq!(scope.scrubs.len(), 2);
        assert_eq!(scope.scrubs[0].outcome, "read_repair");
        assert_eq!(scope.scrubs[1].outcome, "unrecoverable");
        assert_eq!(scope.reenrolls[0].outcome, "readmitted");
        assert_eq!(
            scope.reenrolls[0].generation, 2,
            "repair lineage is carried"
        );
        assert_eq!(incidents.fault_totals.get("env_excursion"), Some(&2));
        assert_eq!(
            incidents.device_fault_summary(3).as_deref(),
            Some("env_excursion×2")
        );
        assert_eq!(incidents.device_fault_summary(4), None);
    }

    #[test]
    fn markdown_carries_post_mortem_and_timeline() {
        let md = capture::parse::<Incidents>(CAPTURE).to_markdown();
        assert!(md.contains("Quarantine post-mortem — device 3"), "{md}");
        assert!(md.contains("root cause: margin erosion"), "{md}");
        assert!(md.contains("healthy → degraded"), "{md}");
        assert!(md.contains("maintenance: `readmitted`"), "{md}");
        assert!(md.contains("Device 3 timeline"), "{md}");
        assert!(md.contains("env_excursion×2"), "{md}");
        assert!(md.contains("Top root causes"), "{md}");
        assert!(md.contains("replica 1, 1 sibling replica(s) lost"), "{md}");
        assert!(md.contains("intact → quorum-critical"), "{md}");
        assert!(md.contains("device 2 replica 1 read-repaired"), "{md}");
        assert!(md.contains("device 5 UNRECOVERABLE"), "{md}");
        assert!(
            md.contains("replica divergence (healed by scrub read-repair)"),
            "{md}"
        );
        assert!(
            md.contains("replica group exhausted (scrub: no intact copy left)"),
            "{md}"
        );
        assert!(md.contains("repair generation 2"), "{md}");
    }

    #[test]
    fn rejects_an_auditless_capture() {
        assert!(
            capture::parse::<Incidents>(r#"{"event":"counter","name":"c","value":1}"#).is_empty()
        );
    }
}
