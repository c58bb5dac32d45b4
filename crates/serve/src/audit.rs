//! Request-scoped audit trail: the forensic record of *why* the service
//! answered the way it did.
//!
//! Counters say the fleet had 12 timeouts; the audit trail says request
//! `a91f03c2…` against device 3 read its record intact from shard 1,
//! blew the 400 µs budget twice under an environment excursion, measured
//! a 0.31 fractional distance on the third attempt, was rejected, and
//! pushed the device into quarantine — which is what an incident review
//! actually needs. Every verification request gets a **seed-derived
//! request id** and emits its full causal chain as structured JSONL
//! events (`"event":"audit"`) to the `aro-obs` telemetry sink:
//!
//! ```text
//! scope        → one fleet trial begins (cell style, age, fault plan)
//! request      → request id, device, target record, traffic kind
//! store_read   → Intact/Corrupt/Missing, shard + replica served, group damage
//! attempt      → simulated latency, timeout/backoff, which faults hit
//! verdict      → the decision, distance, quarantine routing, sim clock
//! shed         → deterministic load-control rejections
//! health       → healthy → degraded → read-only transitions
//! store_health → replica-group health transitions after a scrub pass
//! scrub        → anti-entropy read-repairs and unrecoverable groups
//! reenroll     → continuity-gate outcome + new repair generation
//! ```
//!
//! **Determinism.** Attempt-level facts are *captured* inside
//! [`crate::AuthService::probe`] (worker threads, pure per device) and
//! carried on the [`crate::RequestOutcome`]; all *emission* happens in
//! the sequential admit/maintenance path, in device-index order — the
//! same plan-parallel-fold discipline as the rest of the repo — so the
//! audit stream is byte-identical at any `--threads N`. No line carries
//! a wall-clock timestamp: time is the simulated-µs service clock.
//!
//! **Cost.** Off by default. Disabled, every capture site pays one
//! relaxed atomic load; enabled, capture allocates one small record per
//! request and emission is one sink write per admitted request
//! (measured ≤ 10 % on serve-bench wall time — see
//! `docs/OBSERVABILITY.md`, "Serve audit trail & incident forensics").

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use aro_ecc::hash::{fnv1a_u64, FNV_OFFSET};
use aro_obs::json;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic line sequence (resets when audit is (re-)enabled).
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Monotonic trial (scope) counter; 0 = outside any scope.
static TRIAL: AtomicU64 = AtomicU64::new(0);

/// Turns the audit trail on or off process-wide. Enabling resets the
/// line sequence and trial counter so separate runs emit identical
/// streams. Events only reach disk while `aro-obs` instrumentation and
/// a telemetry sink are also live (`repro --audit` requires
/// `--telemetry`).
pub fn set_enabled(on: bool) {
    if on {
        SEQ.store(0, Ordering::Relaxed);
        TRIAL.store(0, Ordering::Relaxed);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when audit capture is live — the one relaxed load every capture
/// site checks first.
#[inline]
#[must_use]
pub fn capturing() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when emitted lines can actually reach the telemetry file.
#[inline]
fn emitting() -> bool {
    capturing() && aro_obs::enabled() && aro_obs::sink::installed()
}

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

fn trial() -> u64 {
    TRIAL.load(Ordering::Relaxed)
}

/// The seed-derived request id: a pure function of `(trial, device,
/// target, event_base)`, so the same request in a rerun — at any thread
/// count — gets the same id, and ids never collide within a trial
/// (event bases are unique per request).
#[must_use]
pub fn request_id(trial: u64, device: u64, target: u64, event_base: u64) -> u64 {
    let mut hash = fnv1a_u64(FNV_OFFSET, trial);
    hash = fnv1a_u64(hash, device);
    hash = fnv1a_u64(hash, target);
    fnv1a_u64(hash, event_base)
}

/// Which faults the injector landed on one verification attempt —
/// captured at the fire site so the audit line links the decision to
/// its cause without re-deriving injector draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptFaults {
    /// The measurement ran under an environment excursion
    /// (brownout/thermal event).
    pub excursion: bool,
    /// A readout noise burst was active.
    pub burst: bool,
    /// Response bits flipped by counter glitches.
    pub glitches: u64,
}

impl AttemptFaults {
    /// Whether any fault fired on this attempt.
    #[must_use]
    pub fn any(&self) -> bool {
        self.excursion || self.burst || self.glitches > 0
    }
}

/// One attempt's audit facts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptAudit {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Simulated cost charged for this attempt (timeout charge when
    /// `timed_out`).
    pub latency_us: u64,
    /// The attempt blew its latency budget.
    pub timed_out: bool,
    /// Backoff charged after this attempt (0 when none).
    pub backoff_us: u64,
    /// Fractional HD measured, when the read completed.
    pub distance: Option<f64>,
    /// Injected faults that hit this attempt.
    pub faults: AttemptFaults,
}

/// What the store read found, audit-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAudit {
    /// Some replica's checksum held.
    Intact {
        /// Shard index of the replica that served the read.
        shard: usize,
        /// Replica index that served (0 = home copy; higher = the home
        /// copy was damaged and a sibling served).
        replica: u32,
        /// Sibling replicas that were corrupt or wiped (redundancy lost).
        lost: u32,
    },
    /// Every surviving replica failed its checksum; the media flagged
    /// `flagged` helper bits on the served copy.
    Corrupt {
        /// Shard index of the replica served to recovery.
        shard: usize,
        /// Helper positions the storage media flagged as lost.
        flagged: usize,
        /// Sibling replicas wiped outright.
        wiped: u32,
    },
    /// No replica holds a record for the id. `wiped` distinguishes a
    /// group lost to replica wipes/shard losses from an id that was
    /// never enrolled.
    Missing {
        /// Enrolled-then-wiped replicas the read saw.
        wiped: u32,
    },
}

impl StoreAudit {
    fn label(self) -> &'static str {
        match self {
            Self::Intact { .. } => "intact",
            Self::Corrupt { .. } => "corrupt",
            Self::Missing { .. } => "missing",
        }
    }
}

/// The per-request audit record assembled inside `probe` (worker
/// threads) and emitted by the sequential admit path.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestAudit {
    /// The chip that answered.
    pub probe_id: u64,
    /// Event-id base of the request (unique per request per trial).
    pub event_base: u64,
    /// Store read outcome.
    pub store: StoreAudit,
    /// Per-attempt facts, in attempt order.
    pub attempts: Vec<AttemptAudit>,
}

fn write_head(line: &mut String, stage: &str) {
    let _ = write!(
        line,
        "{{\"event\":\"audit\",\"stage\":\"{stage}\",\"seq\":{},\"trial\":{}",
        next_seq(),
        trial()
    );
}

fn write_req(line: &mut String, req: u64) {
    let _ = write!(line, ",\"req\":\"{req:016x}\"");
}

/// Opens a new audit scope (one fleet trial): bumps the trial counter
/// and, when emitting, writes the scope line. Returns the trial id —
/// callers thread it into [`request_id`]. Scope ids advance even while
/// emission is off so request ids stay stable relative to the trial
/// structure of the run.
pub fn scope_begin(label: &str) -> u64 {
    let t = TRIAL.fetch_add(1, Ordering::Relaxed) + 1;
    if emitting() {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"event\":\"audit\",\"stage\":\"scope\",\"seq\":{},\"trial\":{t},\"label\":",
            next_seq()
        );
        json::escape_into(&mut line, label);
        line.push('}');
        aro_obs::sink::write_line(&line);
    }
    t
}

/// Emits the full causal block for one admitted request: the `request`
/// line, the `store_read` line, one `attempt` line per attempt, and the
/// `verdict` line. Called sequentially from the admit path.
#[allow(clippy::too_many_arguments)]
pub fn emit_request(
    audit: &RequestAudit,
    target: u64,
    kind: &str,
    verdict: &str,
    distance: Option<f64>,
    quarantined: bool,
    latency_us: u64,
    at_us: u64,
) {
    if !emitting() {
        return;
    }
    let req = request_id(trial(), audit.probe_id, target, audit.event_base);
    let mut lines: Vec<String> = Vec::with_capacity(3 + audit.attempts.len());

    let mut line = String::with_capacity(160);
    write_head(&mut line, "request");
    write_req(&mut line, req);
    let _ = write!(
        line,
        ",\"device\":{},\"target\":{target},\"kind\":\"{kind}\",\"event_base\":{}}}",
        audit.probe_id, audit.event_base
    );
    lines.push(line);

    let mut line = String::with_capacity(120);
    write_head(&mut line, "store_read");
    write_req(&mut line, req);
    let _ = write!(line, ",\"outcome\":\"{}\"", audit.store.label());
    match audit.store {
        StoreAudit::Intact {
            shard,
            replica,
            lost,
        } => {
            let _ = write!(
                line,
                ",\"shard\":{shard},\"replica\":{replica},\"replicas_lost\":{lost}"
            );
        }
        StoreAudit::Corrupt {
            shard,
            flagged,
            wiped,
        } => {
            let _ = write!(
                line,
                ",\"shard\":{shard},\"flagged\":{flagged},\"replicas_wiped\":{wiped}"
            );
        }
        StoreAudit::Missing { wiped } => {
            let _ = write!(line, ",\"replicas_wiped\":{wiped}");
        }
    }
    line.push('}');
    lines.push(line);

    for a in &audit.attempts {
        let mut line = String::with_capacity(200);
        write_head(&mut line, "attempt");
        write_req(&mut line, req);
        let _ = write!(
            line,
            ",\"attempt\":{},\"latency_us\":{},\"timeout\":{},\"backoff_us\":{}",
            a.attempt, a.latency_us, a.timed_out, a.backoff_us
        );
        if let Some(d) = a.distance {
            line.push_str(",\"distance\":");
            json::number_into(&mut line, d);
        }
        let _ = write!(
            line,
            ",\"excursion\":{},\"burst\":{},\"glitches\":{}}}",
            a.faults.excursion, a.faults.burst, a.faults.glitches
        );
        lines.push(line);
    }

    let mut line = String::with_capacity(160);
    write_head(&mut line, "verdict");
    write_req(&mut line, req);
    let _ = write!(
        line,
        ",\"device\":{},\"verdict\":\"{verdict}\"",
        audit.probe_id
    );
    if let Some(d) = distance {
        line.push_str(",\"distance\":");
        json::number_into(&mut line, d);
    }
    let _ = write!(
        line,
        ",\"attempts\":{},\"latency_us\":{latency_us},\"quarantined\":{quarantined},\"at_us\":{at_us}}}",
        audit.attempts.len().max(1)
    );
    lines.push(line);

    aro_obs::sink::write_lines(&lines);
}

/// Emits one load-shedding decision.
pub fn emit_shed(device: u64, retry_after_us: u64, at_us: u64) {
    if !emitting() {
        return;
    }
    let mut line = String::with_capacity(96);
    write_head(&mut line, "shed");
    let _ = write!(
        line,
        ",\"device\":{device},\"retry_after_us\":{retry_after_us},\"at_us\":{at_us}}}"
    );
    aro_obs::sink::write_line(&line);
}

/// Emits one health-machine state transition.
pub fn emit_health(from: &str, to: &str, error_rate: f64, at_us: u64) {
    if !emitting() {
        return;
    }
    let mut line = String::with_capacity(120);
    write_head(&mut line, "health");
    let _ = write!(line, ",\"from\":\"{from}\",\"to\":\"{to}\",\"error_rate\":");
    json::number_into(&mut line, error_rate);
    let _ = write!(line, ",\"at_us\":{at_us}}}");
    aro_obs::sink::write_line(&line);
}

/// Emits one maintenance (re-enrollment) outcome. `outcome` is one of
/// `readmitted`, `gate_failed`, `refused_read_only`, `missing`.
/// `generation` is the fresh repair generation stamped on the group
/// when readmitted (0 otherwise) — the field that separates a new
/// enrollment lineage from a scrub read-repair in forensics.
pub fn emit_reenroll(
    device: u64,
    event_base: u64,
    outcome: &str,
    attempts: u64,
    generation: u64,
    at_us: u64,
) {
    if !emitting() {
        return;
    }
    let req = request_id(trial(), device, device, event_base);
    let mut line = String::with_capacity(160);
    write_head(&mut line, "reenroll");
    write_req(&mut line, req);
    let _ = write!(
        line,
        ",\"device\":{device},\"outcome\":\"{outcome}\",\"attempts\":{attempts},\"generation\":{generation},\"at_us\":{at_us}}}"
    );
    aro_obs::sink::write_line(&line);
}

/// Emits one anti-entropy scrub finding. `outcome` is `read_repair`
/// (the replica was rewritten from an intact sibling of `generation`)
/// or `unrecoverable` (no intact replica survives; only re-enrollment
/// can help).
pub fn emit_scrub(device: u64, replica: u32, generation: u64, outcome: &str, at_us: u64) {
    if !emitting() {
        return;
    }
    let mut line = String::with_capacity(140);
    write_head(&mut line, "scrub");
    let _ = write!(
        line,
        ",\"device\":{device},\"replica\":{replica},\"generation\":{generation},\"outcome\":\"{outcome}\",\"at_us\":{at_us}}}"
    );
    aro_obs::sink::write_line(&line);
}

/// Emits one replica-group health transition (observed by the scrub
/// pass): `intact` → `replica-degraded` → `quorum-critical` and back.
pub fn emit_store_health(from: &str, to: &str, unrecoverable: u64, at_us: u64) {
    if !emitting() {
        return;
    }
    let mut line = String::with_capacity(140);
    write_head(&mut line, "store_health");
    let _ = write!(
        line,
        ",\"from\":\"{from}\",\"to\":\"{to}\",\"unrecoverable\":{unrecoverable},\"at_us\":{at_us}}}"
    );
    aro_obs::sink::write_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_deterministic_and_distinct() {
        let a = request_id(1, 3, 3, 80);
        assert_eq!(a, request_id(1, 3, 3, 80), "pure function of its inputs");
        assert_ne!(a, request_id(1, 3, 3, 88), "event base separates requests");
        assert_ne!(a, request_id(2, 3, 3, 80), "trial separates sweeps");
        assert_ne!(a, request_id(1, 3, 4, 80), "impostor targets differ");
    }

    #[test]
    fn disabled_capture_is_off_and_scope_still_counts_trials() {
        set_enabled(false);
        assert!(!capturing());
        let t1 = scope_begin("quiet");
        let t2 = scope_begin("quiet");
        assert_eq!(t2, t1 + 1, "trial ids advance even while off");
        set_enabled(true);
        assert_eq!(scope_begin("fresh"), 1, "enabling resets the counters");
        set_enabled(false);
    }

    #[test]
    fn attempt_faults_any() {
        assert!(!AttemptFaults::default().any());
        assert!(AttemptFaults {
            excursion: true,
            ..Default::default()
        }
        .any());
        assert!(AttemptFaults {
            glitches: 2,
            ..Default::default()
        }
        .any());
    }
}
