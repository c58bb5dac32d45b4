//! Round-based fleet benchmark driver.
//!
//! Traffic is organized in **rounds** over the fleet: each round plans a
//! deterministic action per device (probe, shed, or skip-quarantined),
//! fans the probes out through `aro-par` (each probe is `&service` +
//! `&mut` its own chip, pure per device), then admits outcomes
//! **sequentially in device-index order** — the same
//! plan-parallel-fold-in-index-order discipline that keeps every other
//! sweep in this repo byte-identical at any `--threads N`. A
//! maintenance pass after each genuine round routes quarantined devices
//! through re-enrollment, with exponential backoff on devices whose
//! re-enrollment keeps failing: a broken device is retried after 2,
//! then 4, then 8… rounds instead of every round, so an unhealable
//! fleet costs logarithmically many maintenance reads, not one full
//! re-enrollment attempt per device per round. Maintenance follows the
//! same discipline: plan the due devices from the service state at the
//! end of the round, fan their device-side work out
//! ([`AuthService::prepare_reenroll`]: store read, BIST, gate reads,
//! anchor and reference reads, new enrollment), then commit each one
//! in id order ([`AuthService::commit_reenroll`]: store repair,
//! re-admission, tallies, audit). Each maintenance pass ends with one
//! anti-entropy scrub of the replicated store, so replica damage is
//! healed within a round of being inflicted.
//!
//! Impostor rounds make device `i` answer record `i+1 (mod n)`: the
//! false-accept side of the ROC, with its failures kept out of the
//! quarantine/health plumbing (an impostor must not push a genuine
//! device's record into maintenance).
//!
//! Reported wall time is *simulated*: requests are charged to their
//! record's store shard, shards run in parallel, a round costs its
//! slowest shard. p50/p99 are exact order statistics over all request
//! latencies. Everything is integer µs — byte-stable in reports.

use std::collections::BTreeMap;

use aro_device::environment::Environment;
use aro_ecc::keygen::KeyGenerator;
use aro_faults::FaultInjector;
use aro_puf::{Chip, PufDesign};

use crate::service::{AuthService, HealthState, RequestOutcome, StoreHealth, Tallies};

/// Event-id strides/bases keeping probe, impostor, and re-enrollment
/// measurement events disjoint per injector.
const EVENT_STRIDE: u64 = 8;
const IMPOSTOR_EVENT_BASE: u64 = 1 << 33;
const REENROLL_EVENT_BASE: u64 = 1 << 34;

/// The fleet-shared context a benchmark runs against.
#[derive(Debug, Clone, Copy)]
pub struct FleetContext<'a> {
    /// The PUF design every fleet device instantiates.
    pub design: &'a PufDesign,
    /// Nominal verification environment.
    pub env: &'a Environment,
    /// The provisioned key generator (re-enrollment path).
    pub generator: &'a KeyGenerator,
    /// The key-enrollment pair set (shared across the fleet).
    pub key_pairs: &'a [(usize, usize)],
}

/// How much traffic to run.
#[derive(Debug, Clone, Copy)]
pub struct BenchPlan {
    /// Rounds where every admitted device answers its own record.
    pub genuine_rounds: u32,
    /// Rounds where device `i` answers record `i+1 (mod n)`.
    pub impostor_rounds: u32,
}

/// What a fleet benchmark measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Final service counters.
    pub tallies: Tallies,
    /// Genuine requests that reached an answer.
    pub genuine_served: u64,
    /// Genuine requests denied (any non-accept verdict) — FRR numerator.
    pub genuine_denied: u64,
    /// Impostor requests that reached an answer.
    pub impostor_served: u64,
    /// Impostor requests accepted — FAR numerator (must stay zero).
    pub impostor_accepted: u64,
    /// Median request latency, simulated µs.
    pub p50_us: u64,
    /// 99th-percentile request latency, simulated µs.
    pub p99_us: u64,
    /// Simulated wall time of the whole run (shard-parallel), µs.
    pub wall_us: u64,
    /// Final health state of the service.
    pub final_state: HealthState,
    /// Final replica-health axis of the store.
    pub final_store_health: StoreHealth,
}

impl BenchStats {
    /// False-accept rate over impostor traffic.
    #[must_use]
    pub fn far(&self) -> f64 {
        self.impostor_accepted as f64 / self.impostor_served.max(1) as f64
    }

    /// False-reject rate over genuine traffic.
    #[must_use]
    pub fn frr(&self) -> f64 {
        self.genuine_denied as f64 / self.genuine_served.max(1) as f64
    }

    /// Served authentications per simulated second.
    #[must_use]
    pub fn auths_per_sec(&self) -> f64 {
        let served = self.genuine_served + self.impostor_served;
        served as f64 * 1.0e6 / self.wall_us.max(1) as f64
    }
}

enum Action {
    Probe(u64),
    Shed(u64),
    Skip,
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
}

/// What the rounds served so far.
#[derive(Default)]
struct Traffic {
    latencies: Vec<u64>,
    wall_us: u64,
    genuine_served: u64,
    genuine_denied: u64,
    impostor_served: u64,
    impostor_accepted: u64,
}

impl Traffic {
    /// Runs one round: plans an action per device, fans the probes out
    /// and admits the outcomes in index order. A genuine round skips
    /// quarantined devices and has device `i` answer its own record; an
    /// impostor round has it answer record `i+1 (mod n)`, from its own
    /// event range, and counts accepts where a genuine round counts
    /// denials.
    fn round(
        &mut self,
        service: &mut AuthService,
        fleet: &mut [Chip],
        ctx: &FleetContext<'_>,
        inj: Option<&FaultInjector>,
        round: u64,
        genuine: bool,
    ) {
        let n = fleet.len();
        let base = if genuine { 0 } else { IMPOSTOR_EVENT_BASE };
        let actions: Vec<Action> = (0..n)
            .map(|i| {
                let order = round * n as u64 + i as u64;
                if genuine && service.is_quarantined(i as u64) {
                    Action::Skip
                } else if let Some(after) = service.should_shed(order) {
                    Action::Shed(after)
                } else {
                    Action::Probe(base + order * EVENT_STRIDE)
                }
            })
            .collect();
        let svc: &AuthService = service;
        let outcomes: Vec<Option<RequestOutcome>> =
            aro_par::par_map_mut(fleet, |i, chip| match actions[i] {
                Action::Probe(event_base) => {
                    let target = if genuine { i } else { (i + 1) % n };
                    Some(svc.probe(
                        chip,
                        i as u64,
                        target as u64,
                        event_base,
                        ctx.design,
                        ctx.env,
                        inj,
                    ))
                }
                _ => None,
            });
        let (served, negative) = if genuine {
            (&mut self.genuine_served, &mut self.genuine_denied)
        } else {
            (&mut self.impostor_served, &mut self.impostor_accepted)
        };
        let mut shard_us = vec![0u64; service.store().n_shards()];
        for (device, (action, outcome)) in actions.iter().zip(&outcomes).enumerate() {
            match (action, outcome) {
                (Action::Shed(after), _) => service.admit_shed(device as u64, *after),
                (_, Some(outcome)) => {
                    *served += 1;
                    if genuine != outcome.verdict.is_accept() {
                        *negative += 1;
                    }
                    self.latencies.push(outcome.latency_us);
                    shard_us[service.store().shard_of(outcome.target_id)] += outcome.latency_us;
                    service.admit(outcome, genuine);
                }
                _ => {}
            }
        }
        self.wall_us += shard_us.into_iter().max().unwrap_or(0);
    }
}

/// Runs the benchmark: `plan.genuine_rounds` rounds of own-record
/// traffic with maintenance between rounds, then `plan.impostor_rounds`
/// rounds of cross-record traffic. Device `i` of `fleet` owns record id
/// `i`. Deterministic in its arguments at any thread count.
pub fn run_bench(
    service: &mut AuthService,
    fleet: &mut [Chip],
    ctx: &FleetContext<'_>,
    plan: &BenchPlan,
    inj: Option<&FaultInjector>,
) -> BenchStats {
    let n = fleet.len();
    let mut traffic = Traffic::default();
    // Maintenance backoff ledger: device id → (next eligible round,
    // consecutive failures). Deterministic — a pure function of the
    // device's failure history, independent of thread count.
    let mut retry_after: BTreeMap<u64, (u64, u32)> = BTreeMap::new();

    for round in 0..u64::from(plan.genuine_rounds) {
        traffic.round(service, fleet, ctx, inj, round, true);
        // Maintenance: quarantined devices come in for re-enrollment,
        // skipping any still inside their failure backoff window. Their
        // device-side reads fan out; the store writes, tallies and audit
        // events are committed in id order.
        let mut due: Vec<(u64, &mut Chip)> = fleet
            .iter_mut()
            .enumerate()
            .map(|(i, chip)| (i as u64, chip))
            .filter(|(id, _)| {
                service.is_quarantined(*id)
                    && retry_after.get(id).is_none_or(|&(next, _)| round >= next)
            })
            .collect();
        let svc: &AuthService = service;
        let prepared = aro_par::par_map_mut(&mut due, |_, (id, chip)| {
            let event_base = REENROLL_EVENT_BASE + (round * n as u64 + *id) * EVENT_STRIDE;
            svc.prepare_reenroll(
                chip,
                *id,
                *id,
                ctx.key_pairs,
                ctx.generator,
                ctx.design,
                ctx.env,
                inj,
                event_base,
            )
        });
        for ((id, _), prepared) in due.iter().zip(prepared) {
            if service.commit_reenroll(prepared) {
                retry_after.remove(id);
            } else {
                let failures = retry_after.get(id).map_or(0, |&(_, f)| f) + 1;
                retry_after.insert(*id, (round + (1u64 << failures.min(16)), failures));
            }
        }
        // Anti-entropy scrub closes the maintenance pass: any replica
        // this round's faults corrupted or wiped is rewritten from an
        // intact sibling before the next round's traffic reads it.
        service.scrub();
    }

    if n >= 2 {
        for round in 0..u64::from(plan.impostor_rounds) {
            traffic.round(service, fleet, ctx, inj, round, false);
        }
    }

    traffic.latencies.sort_unstable();
    BenchStats {
        tallies: *service.tallies(),
        genuine_served: traffic.genuine_served,
        genuine_denied: traffic.genuine_denied,
        impostor_served: traffic.impostor_served,
        impostor_accepted: traffic.impostor_accepted,
        p50_us: percentile(&traffic.latencies, 50),
        p99_us: percentile(&traffic.latencies, 99),
        wall_us: traffic.wall_us,
        final_state: service.state(),
        final_store_health: service.store_health(),
    }
}
