//! The fleet-authentication sweep behind EXP-18 and the `repro
//! serve-bench` mode: both are one [`sweep`] call with their own fleet
//! ages, fault points and traffic plan.
//!
//! A trial stands up one [`aro_serve::AuthService`] for a small fleet:
//! factory enrollment on fresh silicon (CRP reference + key/helper
//! record per device), then field damage — hard ring faults, verifier
//! NVM erosion via [`aro_serve::ShardedStore::erode`], and aging
//! through the aged-state snapshot store — and finally
//! [`aro_serve::run_bench`] traffic. Everything is deterministic in
//! `(config, style, age, fault plan)`: the same
//! plan-parallel-fold discipline as every other sweep, so reports are
//! byte-identical at any `--threads N`.

use aro_circuit::ring::RoStyle;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;
use aro_faults::FaultInjector;
use aro_metrics::bits::BitString;
use aro_puf::{Challenge, Chip};
use aro_serve::{
    run_bench, AuthService, BenchPlan, BenchStats, FleetContext, ServicePolicy, StoredRecord,
};

use crate::config::SimConfig;
use crate::keybench::{provision, KeyBench};
use crate::popcache::{age_chip_snapshotted, harvest_kernel_hints, par_map_chips, AgeCursor};
use crate::report::Report;
use crate::runner::pct;
use crate::table::Table;

/// CRP response width served per authentication request. 64 bits keeps
/// the impostor acceptance tail negligible: at a 0.25 fractional-HD
/// threshold an impostor needs ≤ 16 of 64 coin-flip bits wrong
/// (p ≈ 3e-5 per attempt), where 32 bits (≤ 8 of 32, p ≈ 7e-3) lets
/// bounded-retry impostors through at observable rates. Clamped to the
/// design's pair budget for tiny test configurations.
pub const CRP_BITS: usize = 64;

/// Store shards (`aro-par`'s fixed-index chunk discipline).
pub const N_SHARDS: usize = 4;

/// Default store replication factor ([`SimConfig::replicas`]): two
/// replicas per record survive any single replica wipe or whole-shard
/// loss per group, and the maintenance scrub heals the survivor back to
/// full strength.
pub const DEFAULT_REPLICAS: usize = 2;

/// Mission length the store-erosion fraction is normalized against.
const MISSION_YEARS: f64 = 10.0;

/// The reusable fleet for one cell style: a `KeyBench` (salt `0xe18`)
/// with its chips and key goldens, plus each device's CRP challenge and
/// golden reference. Each trial rewinds the silicon with
/// [`Chip::reset_to_fabricated`] instead of re-fabricating.
pub struct FleetWorkspace {
    bench: KeyBench,
    chips: Vec<Chip>,
    key_goldens: Vec<BitString>,
    challenge_pairs: Vec<Vec<(usize, usize)>>,
    crp_goldens: Vec<BitString>,
}

impl FleetWorkspace {
    /// Fabricates a fleet of `fleet` chips of `style` sized for
    /// `generator`'s response width.
    #[must_use]
    pub fn new(cfg: &SimConfig, generator: &KeyGenerator, style: RoStyle, fleet: usize) -> Self {
        let _span = aro_obs::span("serve.workspace");
        let bench = KeyBench::new(cfg, style, generator, 0xe18);
        let (mut chips, key_goldens): (Vec<Chip>, Vec<BitString>) =
            bench.chips(fleet).into_iter().unzip();
        let n_ros = bench.design.n_ros();
        let crp_bits = CRP_BITS.min(n_ros / 2);
        let challenge_pairs: Vec<Vec<(usize, usize)>> = (0..fleet as u64)
            .map(|id| Challenge(cfg.seed ^ (0x5e7e << 16) ^ id).pairs(n_ros, crp_bits))
            .collect();
        let crp_goldens = aro_par::par_map_mut(&mut chips, |slot, chip| {
            chip.golden_response(&bench.design, &bench.env, &challenge_pairs[slot])
        });
        Self {
            bench,
            chips,
            key_goldens,
            challenge_pairs,
            crp_goldens,
        }
    }

    /// The fleet's cell style.
    #[must_use]
    pub fn style(&self) -> RoStyle {
        self.bench.design.style()
    }

    /// Fleet size.
    #[must_use]
    pub fn fleet(&self) -> usize {
        self.chips.len()
    }

    /// Runs one (fleet age, fault plan) trial at the config's replication
    /// factor: rewind the silicon,
    /// enroll the service at the factory, apply field damage (hard ring
    /// faults, store erosion scaled to the age fraction of the mission,
    /// snapshot-store aging), then drive `plan`'s traffic through
    /// [`run_bench`]. Deterministic in its arguments. `scope` labels the
    /// trial's audit scope (one sweep cell, e.g.
    /// `"ARO age=10y faults=storm@0.5"`) when the audit trail is on.
    #[must_use]
    pub fn run_trial(
        &mut self,
        cfg: &SimConfig,
        generator: &KeyGenerator,
        inj: Option<&FaultInjector>,
        age_years: f64,
        plan: &BenchPlan,
        scope: &str,
    ) -> BenchStats {
        let _span = aro_obs::span("serve.trial");
        let _trial = aro_serve::audit::scope_begin(scope);
        let KeyBench {
            design,
            env,
            profile,
            pairs,
        } = &self.bench;
        let policy = ServicePolicy {
            replicas: cfg.replicas,
            ..ServicePolicy::default()
        };
        let mut service = AuthService::new(policy, self.chips.len(), N_SHARDS, cfg.seed);
        // Factory enrollment on fresh silicon: golden CRP reference plus
        // the key/helper record, sealed into its fixed store shard.
        // The key derivations fan out; the store writes follow in slot
        // order.
        let enroll_span = aro_obs::span("serve.enroll_fleet");
        let key_goldens = &self.key_goldens;
        let enrolled = aro_par::par_map_mut(&mut self.chips, |slot, chip| {
            chip.reset_to_fabricated();
            let mut rng = design.seed_domain().child("serve-enroll").rng(slot as u64);
            generator.enroll(&key_goldens[slot], &mut rng)
        });
        for (slot, (key, helper)) in enrolled.into_iter().enumerate() {
            service.enroll(StoredRecord::new(
                slot as u64,
                self.challenge_pairs[slot].clone(),
                self.crp_goldens[slot].clone(),
                helper,
                key,
            ));
        }
        drop(enroll_span);
        // Field damage. Hard faults land up front (worst case: the whole
        // service life runs with them); the verifier's store erodes with
        // storage time, so the eroded fraction tracks the fleet age.
        if let Some(inj) = inj {
            for (slot, chip) in self.chips.iter_mut().enumerate() {
                for (ro, health) in inj.hard_faults(slot as u64, design.n_ros()) {
                    chip.set_ro_health(ro, health);
                }
            }
            let fraction = (age_years / MISSION_YEARS).clamp(0.0, 1.0);
            if fraction > 0.0 {
                let window = (age_years * 100.0) as u64;
                service.store_mut().erode(inj, window, fraction);
            }
        }
        // Aging walks the snapshot store: trials at the same age replay
        // one cached wear prefix instead of re-running the physics.
        let mut cursors: Vec<AgeCursor> = (0..self.chips.len()).map(|_| AgeCursor::new()).collect();
        if age_years > 0.0 {
            let _age_span = aro_obs::span("serve.age_fleet");
            let mut fleet: Vec<_> = self.chips.iter_mut().zip(&mut cursors).collect();
            par_map_chips(
                &mut fleet,
                |(chip, _)| chip.id(),
                |_, (chip, cursor)| {
                    age_chip_snapshotted(chip, design, profile, age_years * YEAR, cursor);
                },
            );
        }
        let ctx = FleetContext {
            design,
            env,
            generator,
            key_pairs: pairs,
        };
        let bench_span = aro_obs::span("serve.bench");
        let stats = run_bench(&mut service, &mut self.chips, &ctx, plan, inj);
        drop(bench_span);
        if age_years > 0.0 {
            let mut fleet: Vec<_> = self.chips.iter_mut().zip(&cursors).collect();
            par_map_chips(
                &mut fleet,
                |(chip, _)| chip.id(),
                |_, (chip, cursor)| {
                    harvest_kernel_hints(chip, design, cursor);
                },
            );
        }
        stats
    }
}

/// The serve sweep behind EXP-18 and `serve-bench`. Per cell style it
/// provisions the ECC for the style's own fault-free ten-year BER,
/// fabricates one [`FleetWorkspace`] of `cfg.n_chips` clamped to 4..=8
/// devices, and runs one `plan` trial per fleet age × fault point (ages
/// outermost). A fault point is a label, carried by its rows and by the
/// audit scope `"{report id} {cell} age={age}y faults={label}"`, and the
/// injector its trials run under (`None` = fault-free). Pushes the table
/// titled `title` onto `report`, plus a note for any style with no
/// feasible design point, and returns every trial's stats in row order.
pub fn sweep(
    report: &mut Report,
    cfg: &SimConfig,
    title: &str,
    ages: &[f64],
    faults: &[(String, Option<FaultInjector>)],
    plan: &BenchPlan,
) -> Vec<BenchStats> {
    let fleet = cfg.n_chips.clamp(4, 8);
    let mut table = Table::new(title, &TABLE_COLUMNS);
    let mut trials = Vec::new();
    for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
        let Some(generator) = provision(cfg, style).1 else {
            report.push_note(format!(
                "{}: no feasible design point — increase the code search space",
                style.label()
            ));
            continue;
        };
        let mut workspace = FleetWorkspace::new(cfg, &generator, style, fleet);
        for &age_years in ages {
            for (label, inj) in faults {
                let scope = format!(
                    "{} {} age={age_years:.0}y faults={label}",
                    report.id(),
                    style.label()
                );
                let stats =
                    workspace.run_trial(cfg, &generator, inj.as_ref(), age_years, plan, &scope);
                table.push_row(stats_row(style, age_years, label, &stats));
                trials.push(stats);
            }
        }
    }
    report.push_table(table);
    trials
}

/// The serve-table column set.
const TABLE_COLUMNS: [&str; 12] = [
    "cell",
    "fleet age",
    "faults",
    "auths/s",
    "p50 µs",
    "p99 µs",
    "FAR",
    "FRR",
    "shed",
    "quarantined (healed)",
    "health",
    "store (scrubbed)",
];

/// Renders one trial as a table row under [`TABLE_COLUMNS`].
fn stats_row(style: RoStyle, age_years: f64, faults: &str, stats: &BenchStats) -> Vec<String> {
    vec![
        style.label().to_string(),
        format!("{age_years:.0} y"),
        faults.to_string(),
        format!("{:.0}", stats.auths_per_sec()),
        stats.p50_us.to_string(),
        stats.p99_us.to_string(),
        pct(stats.far()),
        pct(stats.frr()),
        stats.tallies.shed.to_string(),
        format!(
            "{} ({})",
            stats.tallies.quarantines, stats.tallies.reenrolled
        ),
        stats.final_state.label().to_string(),
        format!(
            "{} ({})",
            stats.final_store_health.label(),
            stats.tallies.scrub_repairs
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_generator};
    use aro_serve::HealthState;

    #[test]
    fn fault_free_fresh_fleet_serves_cleanly() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::AgingResistant, 4);
        let plan = BenchPlan {
            genuine_rounds: 3,
            impostor_rounds: 2,
        };
        let stats = ws.run_trial(&cfg, &generator, None, 0.0, &plan, "test fresh");
        assert_eq!(stats.final_state, HealthState::Healthy);
        assert_eq!(stats.impostor_accepted, 0, "FAR must be zero");
        assert_eq!(
            stats.genuine_denied, 0,
            "fresh fault-free fleet: no denials"
        );
        assert!(stats.genuine_served > 0);
        assert!(stats.wall_us > 0 && stats.p99_us >= stats.p50_us);
    }

    #[test]
    fn trials_are_replayable_and_independent() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::Conventional, 4);
        let plan = BenchPlan {
            genuine_rounds: 2,
            impostor_rounds: 1,
        };
        let inj = FaultInjector::new(aro_faults::FaultPlan::storm().scaled(0.5), cfg.seed);
        let first = ws.run_trial(&cfg, &generator, Some(&inj), 5.0, &plan, "test replay");
        let again = ws.run_trial(&cfg, &generator, Some(&inj), 5.0, &plan, "test replay");
        assert_eq!(first, again, "a trial must fully rewind the workspace");
    }
}
