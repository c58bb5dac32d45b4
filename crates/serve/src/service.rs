//! The authentication service: health state machine, verification
//! pipeline, load shedding, and the quarantine → re-enrollment path.
//!
//! Design rules, in order of precedence:
//!
//! 1. **Never a wrong answer.** Corrupt records, malformed responses,
//!    and timed-out reads all *fail closed* — they reject (or shed with
//!    retry-after), they never accept and never panic.
//! 2. **Deterministic under threads.** [`AuthService::probe`] is `&self`
//!    and pure per device (every random draw comes from a seed-derived
//!    stream keyed by `(device, event)`), so a round of probes can fan
//!    out through `aro-par`; all state mutation happens in
//!    [`AuthService::admit`], called sequentially in device-index order.
//! 3. **Degrade, don't die.** A windowed operational-error rate drives
//!    healthy → degraded → read-only transitions (with hysteresis on the
//!    way back). Degraded sheds a deterministic quarter of traffic with
//!    retry-after; read-only sheds half and refuses re-enrollment
//!    writes.
//! 4. **Auditable.** When the [`crate::audit`] trail is on, `probe`
//!    captures each request's causal chain (store read, per-attempt
//!    faults/latency/timeouts, decode margin) on the outcome, and the
//!    sequential admit path emits it — plus shed/health/re-enrollment
//!    events — in device-index order on the simulated service clock.

use std::collections::{BTreeSet, VecDeque};

use aro_device::environment::Environment;
use aro_device::rng::SeedDomain;
use aro_ecc::keygen::KeyGenerator;
use aro_ecc::refresh::continuity_gate;
use aro_ecc::soft::{Erasures, SoftBit};
use aro_faults::FaultInjector;
use aro_metrics::bits::BitString;
use aro_metrics::quality::fractional_hd;
use aro_puf::{Chip, PufDesign};

use crate::audit::{self, AttemptAudit, AttemptFaults, RequestAudit, StoreAudit};
use crate::pipeline::{LatencyModel, RetryPolicy};
use crate::store::{ReadOutcome, ScrubReport, ShardedStore, StoredRecord};

/// The service's health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full service.
    Healthy,
    /// Sheds a quarter of verification traffic (reject with retry-after).
    Degraded,
    /// Sheds half the traffic and refuses re-enrollment writes.
    ReadOnly,
}

impl HealthState {
    /// Stable lowercase label (report/table cell).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::ReadOnly => "read-only",
        }
    }

    // Per-state sketch names must be `'static` literals for the obs
    // hot path, hence one match per family instead of format!.
    fn latency_sketch(self) -> &'static str {
        match self {
            Self::Healthy => "serve.latency_us.healthy",
            Self::Degraded => "serve.latency_us.degraded",
            Self::ReadOnly => "serve.latency_us.read_only",
        }
    }

    fn retries_sketch(self) -> &'static str {
        match self {
            Self::Healthy => "serve.retries.healthy",
            Self::Degraded => "serve.retries.degraded",
            Self::ReadOnly => "serve.retries.read_only",
        }
    }

    fn margin_sketch(self) -> &'static str {
        match self {
            Self::Healthy => "serve.decode_margin.healthy",
            Self::Degraded => "serve.decode_margin.degraded",
            Self::ReadOnly => "serve.decode_margin.read_only",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The replica-group health axis of the health machine, observed by the
/// anti-entropy scrub pass. Orthogonal to [`HealthState`]: a service can
/// be `Healthy` on the traffic axis while its store has lost redundancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Every replica group is fully intact.
    Intact,
    /// Some groups lost redundancy this scrub pass (read-repaired —
    /// damage seen, self-healed).
    ReplicaDegraded,
    /// At least one group has zero intact replicas: scrub cannot help,
    /// only re-enrollment can.
    QuorumCritical,
}

impl StoreHealth {
    /// Stable lowercase label (audit `store_health` field, report cells).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Intact => "intact",
            Self::ReplicaDegraded => "replica-degraded",
            Self::QuorumCritical => "quorum-critical",
        }
    }
}

impl std::fmt::Display for StoreHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePolicy {
    /// Accept iff fractional HD to the reference is at or below this.
    pub accept_threshold: f64,
    /// Accepted devices whose distance exceeds this margin watermark are
    /// quarantined for re-enrollment (they still authenticated — but
    /// their margin is eroding toward the threshold).
    pub quarantine_watermark: f64,
    /// Retry/timeout/backoff policy per request.
    pub retry: RetryPolicy,
    /// Simulated latency model per attempt.
    pub latency: LatencyModel,
    /// Sliding window (events) behind the health state machine.
    pub health_window: usize,
    /// Windowed error rate at which the service enters `Degraded`
    /// (recovery at half this rate).
    pub degraded_watermark: f64,
    /// Windowed error rate at which the service enters `ReadOnly`
    /// (fallback to `Degraded` at half this rate).
    pub read_only_watermark: f64,
    /// Copies kept of every enrollment record, spread across shards
    /// (clamped to `[1, n_shards]` at service construction).
    pub replicas: usize,
}

impl Default for ServicePolicy {
    fn default() -> Self {
        Self {
            accept_threshold: 0.25,
            quarantine_watermark: 0.15,
            retry: RetryPolicy::default(),
            latency: LatencyModel::default(),
            health_window: 64,
            degraded_watermark: 0.25,
            read_only_watermark: 0.50,
            replicas: 1,
        }
    }
}

/// Monotonic service counters (also mirrored into `aro-obs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Requests that reached an answer (accepted or denied).
    pub served: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected on distance.
    pub rejected: u64,
    /// Requests shed with retry-after (degraded/read-only load control).
    pub shed: u64,
    /// Individual attempts abandoned at the timeout.
    pub attempt_timeouts: u64,
    /// Requests whose every attempt timed out.
    pub timed_out: u64,
    /// Requests that hit a checksum-failing record.
    pub corrupt_reads: u64,
    /// Requests for unknown device ids.
    pub missing: u64,
    /// Requests whose answer had the wrong bit length (failed closed).
    pub malformed: u64,
    /// Devices placed in quarantine.
    pub quarantines: u64,
    /// Successful re-enrollments (device re-admitted).
    pub reenrolled: u64,
    /// Re-enrollment attempts whose continuity gate never passed.
    pub reenroll_failures: u64,
    /// Re-enrollments refused because the service was read-only.
    pub reenroll_refusals: u64,
    /// Requests served from a fallback replica (home copy damaged).
    pub replica_fallbacks: u64,
    /// Replicas rewritten by anti-entropy scrub read-repair.
    pub scrub_repairs: u64,
    /// Groups a scrub pass found with zero intact replicas.
    pub scrub_unrecoverable: u64,
}

/// What one verification request concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Distance within threshold.
    Accepted {
        /// Fractional HD to the enrolled reference.
        distance: f64,
    },
    /// Distance past threshold on every completed attempt.
    Rejected {
        /// Last measured fractional HD.
        distance: f64,
    },
    /// Every attempt blew its latency budget.
    TimedOut,
    /// The stored record failed its checksum (routed to recovery).
    CorruptRecord,
    /// No record for this device id.
    Missing,
    /// Answer bit length mismatched the reference (failed closed).
    Malformed,
}

impl Verdict {
    /// Whether this verdict authenticated the device.
    #[must_use]
    pub fn is_accept(self) -> bool {
        matches!(self, Self::Accepted { .. })
    }

    /// The measured fractional HD, when one exists for this verdict.
    #[must_use]
    pub fn distance(self) -> Option<f64> {
        match self {
            Self::Accepted { distance } | Self::Rejected { distance } => Some(distance),
            _ => None,
        }
    }

    /// Stable lowercase label (audit `verdict` field, report cells).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Accepted { .. } => "accepted",
            Self::Rejected { .. } => "rejected",
            Self::TimedOut => "timed_out",
            Self::CorruptRecord => "corrupt_record",
            Self::Missing => "missing",
            Self::Malformed => "malformed",
        }
    }
}

/// One request's full outcome (probe result, admitted sequentially).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The record the request targeted.
    pub target_id: u64,
    /// The decision.
    pub verdict: Verdict,
    /// Attempts consumed.
    pub attempts: u32,
    /// Attempts abandoned at the timeout.
    pub attempt_timeouts: u32,
    /// Total simulated request latency (attempts + backoffs), µs.
    pub latency_us: u64,
    /// Replica index that served the store read, when one did (`Some(k)`
    /// with `k > 0` means the home copy was damaged and a sibling
    /// served).
    pub served_replica: Option<u32>,
    /// Sibling replicas the read found corrupt or wiped.
    pub replicas_lost: u32,
    /// The request's audit record — captured in `probe` (worker
    /// threads), emitted by `admit` (sequential). `None` while the
    /// audit trail is off.
    pub audit: Option<Box<RequestAudit>>,
}

/// A re-enrollment whose device-side work is done
/// ([`AuthService::prepare_reenroll`]) and whose store write, tallies
/// and audit event wait for [`AuthService::commit_reenroll`].
#[derive(Debug)]
pub struct Reenrollment {
    target_id: u64,
    event_base: u64,
    outcome: ReenrollOutcome,
}

#[derive(Debug)]
enum ReenrollOutcome {
    /// The service was read-only: re-enrollment is a store write.
    Refused,
    /// No record to recover from.
    Missing,
    /// The continuity gate never passed.
    GateFailed,
    /// The gate passed after `attempts` reads; `record` re-anchors the
    /// enrollment on today's silicon.
    Readmitted { attempts: u64, record: StoredRecord },
}

/// The simulated verifier backend.
#[derive(Debug, Clone)]
pub struct AuthService {
    policy: ServicePolicy,
    store: ShardedStore,
    state: HealthState,
    store_health: StoreHealth,
    window: VecDeque<bool>,
    window_errors: usize,
    quarantine: BTreeSet<u64>,
    tallies: Tallies,
    domain: SeedDomain,
    /// Simulated service clock, µs: advances by each admitted request's
    /// latency, in admit order. Audit events are stamped with it — never
    /// with wall time.
    clock_us: u64,
}

/// Mixes a device id and an event id into one seed-stream index.
fn slot(device: u64, event: u64) -> u64 {
    device
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
        .wrapping_add(event)
}

/// The output of one field read: soft bits for the decoders, hard bits
/// for a probe's Hamming-distance check.
trait FieldBits {
    /// A read of `pairs` under `design`'s readout at `env`.
    fn read(
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> Self;
    /// Inverts bit `bit`: a counter glitch.
    fn flip(&mut self, bit: usize);
}

impl FieldBits for Vec<SoftBit> {
    fn read(
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> Self {
        chip.response_soft(design, env, pairs)
            .into_iter()
            .map(|(bit, confidence)| SoftBit::new(bit, confidence))
            .collect()
    }

    fn flip(&mut self, bit: usize) {
        self[bit].value = !self[bit].value;
    }
}

impl FieldBits for BitString {
    fn read(
        chip: &mut Chip,
        design: &PufDesign,
        env: &Environment,
        pairs: &[(usize, usize)],
    ) -> Self {
        chip.response(design, env, pairs)
    }

    fn flip(&mut self, bit: usize) {
        BitString::flip(self, bit);
    }
}

/// One (possibly faulted) field read of either shape: the fault plan's
/// environment excursion, then a noise-burst readout, then counter
/// glitches. Returns the bits and which faults fired — the audit trail's
/// link from a verdict back to its injected causes. Without an injector
/// this is a plain read. Both shapes take the same noise nonces, so the
/// hard read's bits are the soft read's values.
fn field_read<B: FieldBits>(
    chip: &mut Chip,
    design: &PufDesign,
    env: &Environment,
    pairs: &[(usize, usize)],
    inj: Option<&FaultInjector>,
    chip_id: u64,
    event: u64,
) -> (B, AttemptFaults) {
    let Some(inj) = inj else {
        return (B::read(chip, design, env, pairs), AttemptFaults::default());
    };
    let meas_env = inj.measurement_env(chip_id, event, env);
    let burst = inj.noise_burst(chip_id, event);
    let burst_design =
        burst.map(|factor| design.with_readout(design.readout().with_noise_burst(factor)));
    let mut bits = B::read(
        chip,
        burst_design.as_ref().unwrap_or(design),
        &meas_env,
        pairs,
    );
    let glitches = inj.response_glitches(chip_id, event, pairs.len());
    for &bit in &glitches {
        bits.flip(bit);
    }
    let faults = AttemptFaults {
        excursion: meas_env != *env,
        burst: burst.is_some(),
        glitches: glitches.len() as u64,
    };
    (bits, faults)
}

/// One (possibly faulted) soft field read: [`Chip::response_soft`]
/// through the fault plan's environment excursion, noise burst and
/// counter glitches, the steps a probe's hard read takes. Returns the
/// soft bits and which faults fired. Without an injector this is a plain
/// soft read. Its bit values are the probe's hard bits for the same
/// read: both take the same noise nonces. The re-enrollment gate and the
/// key-recovery experiments decode its weights.
pub fn faulted_read(
    chip: &mut Chip,
    design: &PufDesign,
    env: &Environment,
    pairs: &[(usize, usize)],
    inj: Option<&FaultInjector>,
    chip_id: u64,
    event: u64,
) -> (Vec<SoftBit>, AttemptFaults) {
    field_read(chip, design, env, pairs, inj, chip_id, event)
}

impl AuthService {
    /// A fresh service for a fleet of up to `capacity` devices across
    /// `n_shards` store shards, keeping `policy.replicas` copies of
    /// every record (clamped to `[1, n_shards]`). `seed` roots every
    /// service-side jitter stream (latency, backoff, re-enrollment
    /// salts).
    #[must_use]
    pub fn new(policy: ServicePolicy, capacity: usize, n_shards: usize, seed: u64) -> Self {
        let replicas = policy.replicas.clamp(1, n_shards);
        Self {
            policy,
            store: ShardedStore::for_fleet_replicated(capacity, n_shards, replicas),
            state: HealthState::Healthy,
            store_health: StoreHealth::Intact,
            window: VecDeque::new(),
            window_errors: 0,
            quarantine: BTreeSet::new(),
            tallies: Tallies::default(),
            domain: SeedDomain::new(seed).child("serve"),
            clock_us: 0,
        }
    }

    /// Current health state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Replica-group health as of the last scrub pass.
    #[must_use]
    pub fn store_health(&self) -> StoreHealth {
        self.store_health
    }

    /// The simulated service clock, µs (sum of admitted request
    /// latencies, in admit order).
    #[must_use]
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// The service counters.
    #[must_use]
    pub fn tallies(&self) -> &Tallies {
        &self.tallies
    }

    /// The record store.
    #[must_use]
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Mutable store access (setup and fault-injection hooks).
    pub fn store_mut(&mut self) -> &mut ShardedStore {
        &mut self.store
    }

    /// Enrolls a device record (factory-time write).
    pub fn enroll(&mut self, record: StoredRecord) {
        self.store.insert(record);
    }

    /// Whether a device is currently quarantined.
    #[must_use]
    pub fn is_quarantined(&self, device_id: u64) -> bool {
        self.quarantine.contains(&device_id)
    }

    /// Currently quarantined device ids, ascending.
    #[must_use]
    pub fn quarantined_ids(&self) -> Vec<u64> {
        self.quarantine.iter().copied().collect()
    }

    /// Load-shedding decision for the request at deterministic arrival
    /// order `order`. Returns the retry-after hint (µs) when shed: in
    /// degraded state every 4th request is shed, in read-only every 2nd
    /// — a pure function of `(state, order)`, so reruns shed the exact
    /// same requests.
    #[must_use]
    pub fn should_shed(&self, order: u64) -> Option<u64> {
        let shed = match self.state {
            HealthState::Healthy => false,
            HealthState::Degraded => order % 4 == 3,
            HealthState::ReadOnly => order % 2 == 1,
        };
        shed.then(|| {
            let mut rng = self.domain.child("shed").rng(order);
            self.policy.retry.backoff_us(2, &mut rng)
        })
    }

    /// Runs one verification request against record `target_id`,
    /// answering with reads of `chip` (fault coordinates keyed by
    /// `probe_id`). Pure per device given the event base: `&self`, safe
    /// to fan out across `aro-par` workers.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &self,
        chip: &mut Chip,
        probe_id: u64,
        target_id: u64,
        event_base: u64,
        design: &PufDesign,
        env: &Environment,
        inj: Option<&FaultInjector>,
    ) -> RequestOutcome {
        // Audit capture is one relaxed load when off; when on, the chain
        // is *built* here (worker threads) and *emitted* by the
        // sequential admit path — never from a worker.
        let capture = audit::capturing();
        let (read, summary) = self.store.read_with_replicas(target_id);
        let outcome = |verdict,
                       attempts,
                       attempt_timeouts,
                       latency_us,
                       store: StoreAudit,
                       trail: Vec<AttemptAudit>| RequestOutcome {
            target_id,
            verdict,
            attempts,
            attempt_timeouts,
            latency_us,
            served_replica: summary.served,
            replicas_lost: summary.corrupt + summary.wiped,
            audit: capture.then(|| {
                Box::new(RequestAudit {
                    probe_id,
                    event_base,
                    store,
                    attempts: trail,
                })
            }),
        };
        // The replica that served (home shard for Missing); consulting
        // damaged siblings before it costs one store hop each.
        let served = summary.served.unwrap_or(0);
        let shard = self.store.replica_shard(target_id, served);
        let read_latency_us =
            self.policy.latency.base_us + u64::from(served) * self.policy.latency.replica_hop_us;
        let record = match read {
            ReadOutcome::Missing => {
                return outcome(
                    Verdict::Missing,
                    0,
                    0,
                    read_latency_us,
                    StoreAudit::Missing {
                        wiped: summary.wiped,
                    },
                    Vec::new(),
                )
            }
            ReadOutcome::Corrupt(record) => {
                // Fail closed: a group whose every replica fails its seal
                // never backs an accept. The admit step routes the device
                // to recovery.
                return outcome(
                    Verdict::CorruptRecord,
                    0,
                    0,
                    read_latency_us,
                    StoreAudit::Corrupt {
                        shard,
                        flagged: record.flagged().len(),
                        wiped: summary.wiped,
                    },
                    Vec::new(),
                );
            }
            ReadOutcome::Intact(record) => record,
        };
        let store_audit = StoreAudit::Intact {
            shard,
            replica: served,
            lost: summary.corrupt + summary.wiped,
        };
        let reference = record.reference();
        // Extra store hops past the home replica are charged up front;
        // a replica-0 serve keeps the pre-replication latency bytes.
        let mut latency_us = u64::from(served) * self.policy.latency.replica_hop_us;
        let mut attempt_timeouts = 0;
        let mut last_distance = None;
        let mut trail: Vec<AttemptAudit> = Vec::new();
        for attempt in 0..self.policy.retry.max_attempts {
            let event = event_base + u64::from(attempt);
            let mut rng = self.domain.child("request").rng(slot(target_id, event));
            let (answer, faults): (BitString, _) = field_read(
                chip,
                design,
                env,
                record.challenge_pairs(),
                inj,
                probe_id,
                event,
            );
            let cost = self
                .policy
                .latency
                .attempt_us(reference.len(), faults.excursion, &mut rng);
            if cost > self.policy.retry.attempt_timeout_us {
                attempt_timeouts += 1;
                let backoff = self.policy.retry.backoff_us(attempt + 1, &mut rng);
                latency_us += self.policy.retry.attempt_timeout_us + backoff;
                if capture {
                    trail.push(AttemptAudit {
                        attempt: attempt + 1,
                        latency_us: self.policy.retry.attempt_timeout_us,
                        timed_out: true,
                        backoff_us: backoff,
                        distance: None,
                        faults,
                    });
                }
                continue;
            }
            latency_us += cost;
            if answer.len() != reference.len() {
                // Fail closed on malformed input: no distance is ever
                // computed against a length-mismatched answer. (The
                // `serve.malformed` counter is booked by the sequential
                // admit step.)
                if capture {
                    trail.push(AttemptAudit {
                        attempt: attempt + 1,
                        latency_us: cost,
                        timed_out: false,
                        backoff_us: 0,
                        distance: None,
                        faults,
                    });
                }
                return outcome(
                    Verdict::Malformed,
                    attempt + 1,
                    attempt_timeouts,
                    latency_us,
                    store_audit,
                    trail,
                );
            }
            let distance = fractional_hd(reference, &answer);
            last_distance = Some(distance);
            if distance <= self.policy.accept_threshold {
                if capture {
                    trail.push(AttemptAudit {
                        attempt: attempt + 1,
                        latency_us: cost,
                        timed_out: false,
                        backoff_us: 0,
                        distance: Some(distance),
                        faults,
                    });
                }
                return outcome(
                    Verdict::Accepted { distance },
                    attempt + 1,
                    attempt_timeouts,
                    latency_us,
                    store_audit,
                    trail,
                );
            }
            // The mismatch may be a transient (burst/glitch): back off
            // and retry within the attempt budget.
            let backoff = self.policy.retry.backoff_us(attempt + 1, &mut rng);
            latency_us += backoff;
            if capture {
                trail.push(AttemptAudit {
                    attempt: attempt + 1,
                    latency_us: cost,
                    timed_out: false,
                    backoff_us: backoff,
                    distance: Some(distance),
                    faults,
                });
            }
        }
        let attempts = self.policy.retry.max_attempts;
        let store = store_audit;
        match last_distance {
            Some(distance) => outcome(
                Verdict::Rejected { distance },
                attempts,
                attempt_timeouts,
                latency_us,
                store,
                trail,
            ),
            None => outcome(
                Verdict::TimedOut,
                attempts,
                attempt_timeouts,
                latency_us,
                store,
                trail,
            ),
        }
    }

    /// Admits one probe outcome into the service state: tallies, obs
    /// counters/sketches, the health window, and quarantine routing.
    /// Call sequentially in a deterministic request order.
    /// `maintenance_eligible` marks traffic whose failures should route
    /// the *record* to quarantine (a fleet's own devices — not impostor
    /// probes in a bench, which must only feed the FAR tally).
    pub fn admit(&mut self, outcome: &RequestOutcome, maintenance_eligible: bool) {
        self.clock_us += outcome.latency_us;
        self.tallies.served += 1;
        aro_obs::counter("serve.requests", 1);
        aro_obs::sketch("serve.latency_us", outcome.latency_us as f64);
        // Per-state sketch families: keyed by the health state the
        // request was served under (before this outcome moves it).
        aro_obs::sketch(self.state.latency_sketch(), outcome.latency_us as f64);
        aro_obs::sketch("serve.retries", f64::from(outcome.attempts));
        aro_obs::sketch(self.state.retries_sketch(), f64::from(outcome.attempts));
        if let Some(distance) = outcome.verdict.distance() {
            let margin = self.policy.accept_threshold - distance;
            aro_obs::sketch("serve.decode_margin", margin);
            aro_obs::sketch(self.state.margin_sketch(), margin);
        }
        self.tallies.attempt_timeouts += u64::from(outcome.attempt_timeouts);
        if outcome.attempt_timeouts > 0 {
            aro_obs::counter(
                "serve.attempt_timeouts",
                u64::from(outcome.attempt_timeouts),
            );
        }
        if outcome.served_replica.is_some_and(|replica| replica > 0) {
            self.tallies.replica_fallbacks += 1;
            aro_obs::counter("serve.replica_fallbacks", 1);
        }
        let mut quarantine = false;
        match outcome.verdict {
            Verdict::Accepted { distance } => {
                self.tallies.accepted += 1;
                aro_obs::counter("serve.accepted", 1);
                aro_obs::sketch("serve.distance", distance);
                quarantine = distance > self.policy.quarantine_watermark;
            }
            Verdict::Rejected { distance } => {
                self.tallies.rejected += 1;
                aro_obs::counter("serve.rejected", 1);
                aro_obs::sketch("serve.distance", distance);
                quarantine = true;
            }
            Verdict::TimedOut => {
                self.tallies.timed_out += 1;
                aro_obs::counter("serve.timeouts", 1);
            }
            Verdict::CorruptRecord => {
                self.tallies.corrupt_reads += 1;
                aro_obs::counter("serve.corrupt_reads", 1);
                quarantine = true;
            }
            Verdict::Missing => {
                self.tallies.missing += 1;
                aro_obs::counter("serve.missing", 1);
            }
            Verdict::Malformed => {
                self.tallies.malformed += 1;
                aro_obs::counter("serve.malformed", 1);
                quarantine = true;
            }
        }
        let routed = quarantine && maintenance_eligible;
        if let Some(trail) = outcome.audit.as_deref() {
            audit::emit_request(
                trail,
                outcome.target_id,
                if maintenance_eligible {
                    "genuine"
                } else {
                    "impostor"
                },
                outcome.verdict.label(),
                outcome.verdict.distance(),
                routed,
                outcome.latency_us,
                self.clock_us,
            );
        }
        if routed {
            self.quarantine(outcome.target_id);
        }
        // Health events: one per timed-out attempt, one for the verdict.
        // Rejects are *decisions*, not operational errors — only reads
        // the service could not complete (timeouts) or could not trust
        // (corrupt/malformed/missing records) count against health.
        for _ in 0..outcome.attempt_timeouts {
            self.push_health(true);
        }
        let error = matches!(
            outcome.verdict,
            Verdict::TimedOut | Verdict::CorruptRecord | Verdict::Malformed | Verdict::Missing
        );
        self.push_health(error);
    }

    /// One deterministic anti-entropy pass over the store (the
    /// maintenance cycle's scrub step): seal-mismatched, wiped, and
    /// divergent replicas are rewritten from an intact sibling, the
    /// replica-health axis of the health machine is updated, and every
    /// read-repair / unrecoverable group / health transition is emitted
    /// to the audit trail on the simulated clock. Call sequentially.
    pub fn scrub(&mut self) -> ScrubReport {
        let report = self.store.scrub();
        self.tallies.scrub_repairs += report.repairs.len() as u64;
        self.tallies.scrub_unrecoverable += report.unrecoverable.len() as u64;
        if !report.repairs.is_empty() {
            aro_obs::counter("serve.scrub_repairs", report.repairs.len() as u64);
        }
        if !report.unrecoverable.is_empty() {
            aro_obs::counter(
                "serve.scrub_unrecoverable",
                report.unrecoverable.len() as u64,
            );
        }
        for repair in &report.repairs {
            audit::emit_scrub(
                repair.device_id,
                repair.replica,
                repair.generation,
                "read_repair",
                self.clock_us,
            );
        }
        for &device in &report.unrecoverable {
            audit::emit_scrub(device, 0, 0, "unrecoverable", self.clock_us);
        }
        let next = if !report.unrecoverable.is_empty() {
            StoreHealth::QuorumCritical
        } else if !report.repairs.is_empty() {
            StoreHealth::ReplicaDegraded
        } else {
            StoreHealth::Intact
        };
        if next != self.store_health {
            audit::emit_store_health(
                self.store_health.label(),
                next.label(),
                report.unrecoverable.len() as u64,
                self.clock_us,
            );
            self.store_health = next;
            aro_obs::counter(
                match next {
                    StoreHealth::Intact => "serve.store_health_intact",
                    StoreHealth::ReplicaDegraded => "serve.store_health_degraded",
                    StoreHealth::QuorumCritical => "serve.store_health_critical",
                },
                1,
            );
        }
        report
    }

    /// Admits a load-shedding decision (reject-with-retry-after) for
    /// `device`.
    pub fn admit_shed(&mut self, device: u64, retry_after_us: u64) {
        self.tallies.shed += 1;
        aro_obs::counter("serve.shed", 1);
        audit::emit_shed(device, retry_after_us, self.clock_us);
    }

    fn quarantine(&mut self, device_id: u64) {
        if self.quarantine.insert(device_id) {
            self.tallies.quarantines += 1;
            aro_obs::counter("serve.quarantines", 1);
        }
    }

    fn push_health(&mut self, error: bool) {
        if self.window.len() == self.policy.health_window && self.window.pop_front() == Some(true) {
            self.window_errors -= 1;
        }
        self.window.push_back(error);
        if error {
            self.window_errors += 1;
        }
        let len = self.window.len();
        if len < self.policy.health_window / 2 {
            return;
        }
        let rate = self.window_errors as f64 / len as f64;
        aro_obs::sketch("serve.error_rate", rate);
        let next = if rate >= self.policy.read_only_watermark {
            HealthState::ReadOnly
        } else {
            match self.state {
                HealthState::ReadOnly if rate >= self.policy.read_only_watermark / 2.0 => {
                    HealthState::ReadOnly
                }
                _ if rate >= self.policy.degraded_watermark => HealthState::Degraded,
                HealthState::Healthy => HealthState::Healthy,
                _ if rate < self.policy.degraded_watermark / 2.0 => HealthState::Healthy,
                _ => HealthState::Degraded,
            }
        };
        if next != self.state {
            audit::emit_health(self.state.label(), next.label(), rate, self.clock_us);
            self.state = next;
            aro_obs::counter(
                match next {
                    HealthState::Healthy => "serve.recovered_healthy",
                    HealthState::Degraded => "serve.entered_degraded",
                    HealthState::ReadOnly => "serve.entered_read_only",
                },
                1,
            );
        }
    }

    /// The quarantine → re-enrollment → re-admission path: reconstruct
    /// the device's current key erasure-aware from the (damaged) stored
    /// record — `ecc::refresh`'s continuity gate — then re-anchor the
    /// whole enrollment (helper data *and* CRP reference) on today's
    /// silicon and reseal the record. Returns whether the device was
    /// re-admitted. Refused outright in read-only state: re-enrollment
    /// is a store write.
    ///
    /// The composition of [`AuthService::prepare_reenroll`] and
    /// [`AuthService::commit_reenroll`].
    #[allow(clippy::too_many_arguments)]
    pub fn reenroll(
        &mut self,
        chip: &mut Chip,
        probe_id: u64,
        target_id: u64,
        key_pairs: &[(usize, usize)],
        generator: &KeyGenerator,
        design: &PufDesign,
        env: &Environment,
        inj: Option<&FaultInjector>,
        event_base: u64,
    ) -> bool {
        let prepared = self.prepare_reenroll(
            chip, probe_id, target_id, key_pairs, generator, design, env, inj, event_base,
        );
        self.commit_reenroll(prepared)
    }

    /// The per-device half of [`AuthService::reenroll`]: the store read,
    /// the device-side BIST, the faulted gate reads, and on a passing
    /// gate the 5-vote anchor and reference reads and the new
    /// enrollment. Pure per device given the event base — `&self`, safe
    /// to fan out across `aro-par` workers; nothing is written until
    /// [`AuthService::commit_reenroll`].
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_reenroll(
        &self,
        chip: &mut Chip,
        probe_id: u64,
        target_id: u64,
        key_pairs: &[(usize, usize)],
        generator: &KeyGenerator,
        design: &PufDesign,
        env: &Environment,
        inj: Option<&FaultInjector>,
        event_base: u64,
    ) -> Reenrollment {
        let prepared = |outcome| Reenrollment {
            target_id,
            event_base,
            outcome,
        };
        if self.state == HealthState::ReadOnly {
            return prepared(ReenrollOutcome::Refused);
        }
        let _span = aro_obs::span("serve.reenroll");
        let (challenge_pairs, helper, key, flagged) = match self.store.read(target_id) {
            ReadOutcome::Missing => return prepared(ReenrollOutcome::Missing),
            // Recovery reads the record even when its checksum fails —
            // that is the whole point of the erasure flags.
            ReadOutcome::Intact(r) | ReadOutcome::Corrupt(r) => (
                r.challenge_pairs().to_vec(),
                r.helper().clone(),
                r.key().clone(),
                r.flagged().to_vec(),
            ),
        };
        // Device-side BIST: response bits backed by a dead/stuck ring
        // are erasures for the gate's decoder.
        let known = Erasures {
            helper: flagged,
            response: chip.bist_erasures(key_pairs),
        };
        let mut rng = self
            .domain
            .child("reenroll")
            .rng(slot(target_id, event_base));
        for attempt in 0..u64::from(self.policy.retry.max_attempts) {
            let event = event_base + attempt;
            let (soft, _) = faulted_read(chip, design, env, key_pairs, inj, probe_id, event);
            // Gate first: the multi-vote anchor and reference reads below
            // are the expensive half of maintenance, so they only happen
            // once the continuity gate has passed — a broken chain costs
            // one soft read per attempt, nothing more.
            if !continuity_gate(generator, &soft, &helper, &known, &key) {
                continue;
            }
            // Maintenance reads are careful: 5-vote majority anchors at
            // nominal conditions (the device is on the bench, not in the
            // field).
            let anchor = chip.response_voted(design, env, key_pairs, 5);
            let (new_key, new_helper) = generator.enroll(&anchor, &mut rng);
            let reference = chip.response_voted(design, env, &challenge_pairs, 5);
            return prepared(ReenrollOutcome::Readmitted {
                attempts: attempt + 1,
                record: StoredRecord::new(
                    target_id,
                    challenge_pairs,
                    reference,
                    new_helper,
                    new_key,
                ),
            });
        }
        prepared(ReenrollOutcome::GateFailed)
    }

    /// The service half of [`AuthService::reenroll`]: the store repair,
    /// re-admission, tallies, counters and audit event of a prepared
    /// re-enrollment. Returns whether the device was re-admitted. Call
    /// sequentially, in device-id order within a maintenance pass.
    pub fn commit_reenroll(&mut self, prepared: Reenrollment) -> bool {
        let Reenrollment {
            target_id,
            event_base,
            outcome,
        } = prepared;
        let readmitted = matches!(outcome, ReenrollOutcome::Readmitted { .. });
        let (label, attempts, generation) = match outcome {
            ReenrollOutcome::Refused => {
                self.tallies.reenroll_refusals += 1;
                aro_obs::counter("serve.reenroll_refused", 1);
                ("refused_read_only", 0, 0)
            }
            ReenrollOutcome::Missing => ("missing", 0, 0),
            ReenrollOutcome::GateFailed => {
                self.tallies.reenroll_failures += 1;
                aro_obs::counter("serve.reenroll_failures", 1);
                ("gate_failed", u64::from(self.policy.retry.max_attempts), 0)
            }
            ReenrollOutcome::Readmitted { attempts, record } => {
                let generation = self.store.repair(record);
                self.quarantine.remove(&target_id);
                self.tallies.reenrolled += 1;
                aro_obs::counter("serve.reenrolled", 1);
                ("readmitted", attempts, generation)
            }
        };
        audit::emit_reenroll(
            target_id,
            event_base,
            label,
            attempts,
            generation,
            self.clock_us,
        );
        readmitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;
    use aro_device::units::YEAR;
    use aro_faults::FaultPlan;
    use aro_puf::{MissionProfile, PairingStrategy};

    #[test]
    fn a_hard_field_read_gives_the_soft_reads_values() {
        let design = PufDesign::builder(RoStyle::AgingResistant)
            .n_ros(256)
            .seed(2014)
            .build();
        let env = Environment::nominal(design.tech());
        let inj = FaultInjector::new(FaultPlan::parse("storm@1.0").unwrap(), 7);
        let mut chip = Chip::fabricate(&design, 3);
        for (ring, health) in inj.hard_faults(3, design.n_ros()) {
            chip.set_ro_health(ring, health);
        }
        MissionProfile::typical(design.tech()).age_chip(&mut chip, &design, 10.0 * YEAR);
        let pairs = PairingStrategy::Neighbor.pairs(design.n_ros());

        let (mut excursions, mut bursts, mut glitches) = (0, 0, 0);
        for event in 0..200 {
            let mut soft_chip = chip.clone();
            let (hard, faults): (BitString, _) =
                field_read(&mut chip, &design, &env, &pairs, Some(&inj), 3, event);
            let (soft, soft_faults) =
                faulted_read(&mut soft_chip, &design, &env, &pairs, Some(&inj), 3, event);
            assert_eq!(faults, soft_faults, "event {event}");
            let values: BitString = soft.iter().map(|s| s.value).collect();
            assert_eq!(hard, values, "event {event}");
            // Both reads leave the chip at the same nonce.
            assert_eq!(chip, soft_chip, "event {event}");
            excursions += u64::from(faults.excursion);
            bursts += u64::from(faults.burst);
            glitches += faults.glitches;
        }
        assert!(chip.faulted_ro_count() > 0);
        assert!(excursions > 0 && bursts > 0 && glitches > 0);
    }
}
