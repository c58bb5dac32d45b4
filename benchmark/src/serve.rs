//! The serve workloads: a fleet stood up the way `servefleet`'s trials
//! stand it up, then driven by one closed-loop client that times every
//! request in host time.
//!
//! The traffic copies `aro_serve::run_bench`'s round structure — plan the
//! round's actions from the service state at its start, shed or probe
//! each device in index order, re-enroll quarantined devices with the
//! 2/4/8-round backoff after each genuine round, then scrub — so its
//! tallies equal `run_bench`'s on the same fleet (a test checks this).
//! Unlike `run_bench` it probes sequentially: each request is answered
//! (probe, then admit) before the next is sent.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;
use aro_faults::{FaultInjector, FaultPlan};
use aro_puf::{Challenge, Chip, MissionProfile, PairingStrategy, PufDesign};
use aro_serve::{AuthService, BenchPlan, ServicePolicy, StoredRecord, Tallies};
use aro_sim::experiments::exp2;
use aro_sim::popcache::{self, AgeCursor};
use aro_sim::runner::puf_area_params;
use aro_sim::servefleet::{CRP_BITS, DEFAULT_REPLICAS, N_SHARDS};
use aro_sim::SimConfig;

// Event-id layout of `aro_serve::bench` (private there): probe,
// impostor and re-enrollment fault coordinates stay disjoint.
const EVENT_STRIDE: u64 = 8;
const IMPOSTOR_EVENT_BASE: u64 = 1 << 33;
const REENROLL_EVENT_BASE: u64 = 1 << 34;

/// Mission length the store-erosion fraction is normalised against
/// (as in `servefleet`).
const MISSION_YEARS: f64 = 10.0;

/// One serve workload's fleet and traffic.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Devices in the fleet, all ARO.
    pub fleet: usize,
    /// Fleet age at which traffic starts.
    pub age_years: f64,
    /// Storm intensity, or `None` for a fault-free fleet.
    pub storm: Option<f64>,
    /// Genuine and impostor rounds.
    pub plan: BenchPlan,
}

/// Host time measured around each call this benchmark makes into a layer,
/// with call counts where a per-call cost is of interest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub provision: Duration,
    pub fabricate: Duration,
    pub golden: Duration,
    pub ecc_enroll: Duration,
    pub serve_enroll: Duration,
    pub inject: Duration,
    pub age: Duration,
    pub probe: Duration,
    pub admit: Duration,
    pub reenroll: Duration,
    pub reenroll_calls: u64,
    pub scrub: Duration,
    pub scrub_calls: u64,
}

fn timed<R>(total: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *total += start.elapsed();
    result
}

/// An enrolled, damaged and aged fleet behind its service.
pub struct Fleet {
    service: AuthService,
    chips: Vec<Chip>,
    design: PufDesign,
    env: Environment,
    generator: KeyGenerator,
    key_pairs: Vec<(usize, usize)>,
    inj: Option<FaultInjector>,
}

impl Fleet {
    /// Provisions the key generator from the p99 ten-year BER of EXP-2 at
    /// `cfg` (as `serve-bench` does), then fabricates, reads, enrolls,
    /// damages and ages the fleet (as `FleetWorkspace` does).
    ///
    /// The deployed fleet — design point, silicon and challenges — comes
    /// from `cfg`; the service's jitter and retry streams and the fault
    /// schedule come from `seed`. Keeping the fleet fixed keeps every
    /// chip the same size at every seed, and keeps the zero-false-accept
    /// check about the service: some other fleets hold a device pair whose
    /// 64-bit answers sit within the accept threshold (see the README).
    ///
    /// # Errors
    /// When no ECC design point meets the key-failure target.
    pub fn set_up(
        cfg: &SimConfig,
        seed: u64,
        spec: &ServeSpec,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let style = RoStyle::AgingResistant;
        let generator = timed(&mut layers.provision, || {
            let ber = exp2::flip_timeline(cfg, style).final_quantile(0.99);
            let params = puf_area_params(style, 5);
            popcache::provisioned_generator(ber, cfg.key_bits, cfg.key_fail_target, &params)
        })
        .ok_or("no ECC design point meets the key-failure target")?;
        let n_ros = 2 * generator.response_bits();
        let design = PufDesign::builder(style)
            .n_ros(n_ros)
            .seed(cfg.seed ^ 0xe18)
            .build();
        let env = Environment::nominal(design.tech());
        let profile = MissionProfile::typical(design.tech());
        let key_pairs = PairingStrategy::Neighbor.pairs(n_ros);
        let ids = 0..spec.fleet as u64;
        let mut chips: Vec<Chip> = timed(&mut layers.fabricate, || {
            ids.clone().map(|id| Chip::fabricate(&design, id)).collect()
        });
        let crp_bits = CRP_BITS.min(n_ros / 2);
        let challenge_pairs: Vec<Vec<(usize, usize)>> = ids
            .map(|id| Challenge(cfg.seed ^ (0x5e7e << 16) ^ id).pairs(n_ros, crp_bits))
            .collect();
        let (key_goldens, crp_goldens): (Vec<_>, Vec<_>) = timed(&mut layers.golden, || {
            chips
                .iter()
                .zip(&challenge_pairs)
                .map(|(chip, pairs)| {
                    (
                        chip.golden_response(&design, &env, &key_pairs),
                        chip.golden_response(&design, &env, pairs),
                    )
                })
                .unzip()
        });
        let policy = ServicePolicy {
            replicas: DEFAULT_REPLICAS,
            ..ServicePolicy::default()
        };
        let mut service = AuthService::new(policy, spec.fleet, N_SHARDS, seed);
        let records = challenge_pairs
            .into_iter()
            .zip(key_goldens)
            .zip(crp_goldens);
        for (id, ((pairs, key_golden), crp_golden)) in (0u64..).zip(records) {
            let mut rng = design.seed_domain().child("serve-enroll").rng(id);
            let (key, helper) = timed(&mut layers.ecc_enroll, || {
                generator.enroll(&key_golden, &mut rng)
            });
            let record = StoredRecord::new(id, pairs, crp_golden, helper, key);
            timed(&mut layers.serve_enroll, || service.enroll(record));
        }
        let inj = spec
            .storm
            .map(|intensity| FaultInjector::new(FaultPlan::storm().scaled(intensity), seed));
        if let Some(inj) = &inj {
            timed(&mut layers.inject, || {
                for (slot, chip) in (0u64..).zip(chips.iter_mut()) {
                    for (ro, health) in inj.hard_faults(slot, design.n_ros()) {
                        chip.set_ro_health(ro, health);
                    }
                }
                // The verifier's store erodes with storage time, so the
                // eroded fraction tracks the fleet age.
                let fraction = (spec.age_years / MISSION_YEARS).clamp(0.0, 1.0);
                if fraction > 0.0 {
                    let window = (spec.age_years * 100.0) as u64;
                    service.store_mut().erode(inj, window, fraction);
                }
            });
        }
        if spec.age_years > 0.0 {
            timed(&mut layers.age, || {
                for chip in &mut chips {
                    let mut cursor = AgeCursor::new();
                    popcache::age_chip_snapshotted(
                        chip,
                        &design,
                        &profile,
                        spec.age_years * YEAR,
                        &mut cursor,
                    );
                }
            });
        }
        Ok(Self {
            service,
            chips,
            design,
            env,
            generator,
            key_pairs,
            inj,
        })
    }

    /// Runs `plan`'s traffic, timing every request in host time.
    pub fn drive(&mut self, plan: &BenchPlan, layers: &mut Layers) -> Traffic {
        let n = self.chips.len() as u64;
        let mut traffic = Traffic::default();
        // Device id → (next eligible round, consecutive failures).
        let mut retry_after: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        for round in 0..u64::from(plan.genuine_rounds) {
            let actions = self.plan_round(round, true);
            self.serve_round(&actions, true, &mut traffic, layers);
            for id in self.service.quarantined_ids() {
                if retry_after.get(&id).is_some_and(|&(next, _)| round < next) {
                    continue;
                }
                let Some(chip) = self.chips.get_mut(id as usize) else {
                    continue;
                };
                let event_base = REENROLL_EVENT_BASE + (round * n + id) * EVENT_STRIDE;
                layers.reenroll_calls += 1;
                let readmitted = timed(&mut layers.reenroll, || {
                    self.service.reenroll(
                        chip,
                        id,
                        id,
                        &self.key_pairs,
                        &self.generator,
                        &self.design,
                        &self.env,
                        self.inj.as_ref(),
                        event_base,
                    )
                });
                if readmitted {
                    retry_after.remove(&id);
                } else {
                    let failures = retry_after.get(&id).map_or(0, |&(_, f)| f) + 1;
                    retry_after.insert(id, (round + (1u64 << failures.min(16)), failures));
                }
            }
            layers.scrub_calls += 1;
            timed(&mut layers.scrub, || self.service.scrub());
        }
        if n >= 2 {
            for round in 0..u64::from(plan.impostor_rounds) {
                let actions = self.plan_round(round, false);
                self.serve_round(&actions, false, &mut traffic, layers);
            }
        }
        traffic.tallies = *self.service.tallies();
        traffic
    }

    /// Decides every device's action from the service state at the start
    /// of the round, with the host time each decision took.
    fn plan_round(&self, round: u64, genuine: bool) -> Vec<(Action, Duration)> {
        let n = self.chips.len() as u64;
        (0..n)
            .map(|i| {
                let start = Instant::now();
                let order = round * n + i;
                let action = if genuine && self.service.is_quarantined(i) {
                    Action::Skip
                } else if let Some(after) = self.service.should_shed(order) {
                    Action::Shed(after)
                } else if genuine {
                    Action::Probe(order * EVENT_STRIDE)
                } else {
                    Action::Probe(IMPOSTOR_EVENT_BASE + order * EVENT_STRIDE)
                };
                (action, start.elapsed())
            })
            .collect()
    }

    /// Sends the round's requests in device order. In impostor rounds
    /// device `i` answers for record `i + 1`.
    fn serve_round(
        &mut self,
        actions: &[(Action, Duration)],
        genuine: bool,
        traffic: &mut Traffic,
        layers: &mut Layers,
    ) {
        let n = self.chips.len() as u64;
        for ((device, chip), &(action, planned)) in (0u64..).zip(&mut self.chips).zip(actions) {
            let start = Instant::now();
            match action {
                Action::Skip => continue,
                Action::Shed(after) => {
                    self.service.admit_shed(device, after);
                    layers.admit += start.elapsed();
                }
                Action::Probe(event_base) => {
                    let target = if genuine { device } else { (device + 1) % n };
                    let outcome = self.service.probe(
                        chip,
                        device,
                        target,
                        event_base,
                        &self.design,
                        &self.env,
                        self.inj.as_ref(),
                    );
                    let probed = Instant::now();
                    layers.probe += probed - start;
                    self.service.admit(&outcome, genuine);
                    layers.admit += probed.elapsed();
                    let accepted = outcome.verdict.is_accept();
                    if genuine {
                        traffic.genuine_served += 1;
                        traffic.genuine_denied += u64::from(!accepted);
                    } else {
                        traffic.impostor_served += 1;
                        traffic.impostor_accepted += u64::from(accepted);
                    }
                }
            }
            let latency = planned + start.elapsed();
            traffic
                .latencies_ns
                .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Probe(u64),
    Shed(u64),
    Skip,
}

/// What one traffic run did.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    /// Host time of each answered request (shed check, probe and admit),
    /// in send order.
    pub latencies_ns: Vec<u64>,
    pub genuine_served: u64,
    pub genuine_denied: u64,
    pub impostor_served: u64,
    pub impostor_accepted: u64,
    /// The service's own counters at the end of the run.
    pub tallies: Tallies,
}

impl Traffic {
    /// Requests answered: probed or shed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Everything that must repeat exactly across reps at one seed.
    #[must_use]
    pub fn outcome_text(&self) -> String {
        format!(
            "{:?} genuine {}/{} denied, impostor {}/{} accepted",
            self.tallies,
            self.genuine_denied,
            self.genuine_served,
            self.impostor_accepted,
            self.impostor_served
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_serve::{run_bench, FleetContext};

    #[test]
    fn sequential_traffic_matches_run_bench_tallies() {
        let mut cfg = SimConfig::quick();
        cfg.key_bits = 32;
        let spec = ServeSpec {
            fleet: 6,
            age_years: 5.0,
            storm: Some(0.5),
            plan: BenchPlan {
                genuine_rounds: 4,
                impostor_rounds: 2,
            },
        };
        let mut layers = Layers::default();
        let mut ours = Fleet::set_up(&cfg, 7, &spec, &mut layers).expect("feasible");
        let traffic = ours.drive(&spec.plan, &mut layers);

        let mut reference =
            Fleet::set_up(&cfg, 7, &spec, &mut Layers::default()).expect("feasible");
        let ctx = FleetContext {
            design: &reference.design,
            env: &reference.env,
            generator: &reference.generator,
            key_pairs: &reference.key_pairs,
        };
        let stats = run_bench(
            &mut reference.service,
            &mut reference.chips,
            &ctx,
            &spec.plan,
            reference.inj.as_ref(),
        );
        assert_eq!(traffic.tallies, stats.tallies);
        assert_eq!(traffic.genuine_served, stats.genuine_served);
        assert_eq!(traffic.genuine_denied, stats.genuine_denied);
        assert_eq!(traffic.impostor_served, stats.impostor_served);
        assert_eq!(traffic.impostor_accepted, 0);
        assert_eq!(
            traffic.requests(),
            stats.tallies.served + stats.tallies.shed
        );
        assert!(
            layers.reenroll_calls > 0,
            "the storm must exercise maintenance"
        );
    }
}
