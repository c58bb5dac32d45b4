//! EXP-16 — the self-healing key lifecycle: refresh-interval sweep.
//!
//! EXP-15 measures how storms erode a *static* enrollment; EXP-14's
//! erasure appendix shows knowing the damage recovers most of it. This
//! experiment closes the loop: a maintained device periodically
//! **refresh-enrolls** (`aro_ecc::refresh`) — it reconstructs its current
//! key erasure-aware (the continuity gate), then re-derives helper data
//! against the *aged* response. Each successful refresh discards the
//! accumulated NVM erosion with the old helper block and re-anchors the
//! enrollment on today's silicon, so aging drift and hard ring faults
//! stop consuming code margin.
//!
//! The sweep asks the provisioning question: across `storm@x`
//! intensities, what is the *cheapest* refresh schedule (fewest
//! refreshes over the ten-year mission) that keeps key recovery at or
//! above the 99 % target?
//!
//! Lifecycle model, stated explicitly:
//!
//! * NVM erosion accrues with storage time: a window spanning a fraction
//!   `f` of the mission erodes each stored bit with probability
//!   `rate · f` (`FaultInjector::helper_erasures_during`), so refreshing
//!   every `T/k` leaves `1/k` of the ten-year damage at each gate.
//! * Maintenance reads are careful: the re-enrollment anchor is a
//!   5-vote majority read at nominal conditions (a maintenance window),
//!   while the gate's reconstruction read runs under full field faults.
//! * Reads retry: a fielded key generator knows when reconstruction
//!   failed (keys are checked against a stored hash in any real
//!   deployment), so gates and final reconstructions retry up to
//!   [`READ_RETRIES`] times — each retry is its own measurement event
//!   and can be hit by its own transient faults.
//! * The key **rotates** at each refresh (code-offset enrollment draws a
//!   fresh salt): recovery at ten years means reconstructing the key of
//!   the *latest successful* refresh — exactly what a re-wrapped payload
//!   needs.

use aro_circuit::ring::RoStyle;
use aro_device::units::YEAR;
use aro_ecc::fuzzy::HelperData;
use aro_ecc::keygen::KeyGenerator;
use aro_ecc::refresh::{refresh_enrollment, RefreshSchedule};
use aro_ecc::soft::Erasures;
use aro_faults::{FaultInjector, FaultPlan};
use aro_metrics::bits::BitString;
use aro_puf::Chip;
use aro_serve::faulted_read;

use crate::config::SimConfig;
use crate::keybench::{provision, KeyBench};
use crate::popcache::{age_chip_snapshotted, harvest_kernel_hints, par_map_chips, AgeCursor};
use crate::report::Report;
use crate::runner::pct;
use crate::table::Table;

/// Swept refresh intervals in years (`INFINITY` = never refresh — the
/// static-enrollment control).
pub const INTERVALS_YEARS: [f64; 4] = [f64::INFINITY, 5.0, 2.5, 1.25];

/// Swept storm intensities (zero is EXP-15's anchor; the lifecycle only
/// matters under fire).
pub const INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// Bounded read retries at every gate and final reconstruction.
pub const READ_RETRIES: usize = 3;

/// Ten-year recovery target the schedule search provisions for.
pub const RECOVERY_TARGET: f64 = 0.99;

/// Event-id base for refresh-gate measurement events, keeping them
/// disjoint from the final reconstruction events on the same chip.
const REFRESH_EVENT_BASE: u64 = 1 << 32;

/// Event-id base for impostor reconstruction attempts (EXP-19's
/// false-accept probe), disjoint from gates and genuine attempts.
const IMPOSTOR_EVENT_BASE: u64 = 1 << 33;

/// The lifecycle bench's design salt, shared by EXP-16 and EXP-19.
pub(crate) const DESIGN_SALT: u64 = 0xe16;

/// Per-replica helper-erosion window stride — the same failure-domain
/// discipline as `aro_serve::REPLICA_WINDOW_STRIDE`: sibling replicas of
/// one helper block erode at disjoint fault coordinates, so their damage
/// is independent. Replica 0's coordinates are unchanged, which keeps
/// the single-replica lifecycle byte-identical to EXP-16's.
const HELPER_REPLICA_WINDOW_STRIDE: u64 = 1 << 20;

/// Outcome of one maintained ten-year mission sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleTrial {
    /// Fraction of the full storm plan applied.
    pub intensity: f64,
    /// Refresh interval in years (`INFINITY` = never).
    pub interval_years: f64,
    /// Chips enrolled.
    pub chips: usize,
    /// Final reconstruction attempts per chip.
    pub attempts_per_chip: usize,
    /// Attempts that recovered the current key at ten years.
    pub recovered: usize,
    /// Refresh gates scheduled across the population.
    pub refreshes_scheduled: usize,
    /// Refresh gates that passed (continuity held, helper re-derived).
    pub refreshes_succeeded: usize,
    /// Helper bits eroded across the population over the whole mission.
    pub helper_bits_eroded: usize,
}

impl LifecycleTrial {
    /// Measured ten-year key-recovery rate.
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        self.recovered as f64 / (self.chips * self.attempts_per_chip) as f64
    }
}

/// Outcome of one replicated maintained mission sweep point (EXP-19):
/// the lifecycle of [`LifecycleTrial`] with the helper block stored in
/// N independently-eroding replicas, plus the false-accept probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedLifecycleTrial {
    /// The underlying lifecycle numbers.
    pub lifecycle: LifecycleTrial,
    /// Helper-store replication factor.
    pub replicas: usize,
    /// Gates and reconstructions served by a replica other than 0 —
    /// the events a single-replica deployment would have lost.
    pub replica_fallbacks: usize,
    /// Impostor reconstruction attempts (chip *i* against chip
    /// *i+1 mod n*'s enrollment).
    pub impostor_attempts: usize,
    /// Impostor attempts that recovered the victim's key — the
    /// false-accept count, which must stay zero.
    pub impostor_accepts: usize,
}

/// One chip's maintained mission: its tallies, and the stored state
/// (per-replica eroded helper and erasure flags, plus the current key)
/// the impostor pass attacks.
struct ChipMission {
    recovered: usize,
    refreshes_scheduled: usize,
    refreshes_succeeded: usize,
    helper_bits_eroded: usize,
    replica_fallbacks: usize,
    stored: Vec<(HelperData, Erasures)>,
    key: BitString,
}

/// Rebuilds the device's own damage knowledge in place: the dedup'd
/// erosion backlog replaces the helper flags while the BIST response
/// flags (constant for the whole mission) stay put — no per-window
/// clone of the BIST vector.
fn refresh_known(known: &mut Erasures, accumulated: &[(usize, usize)]) {
    known.helper.clear();
    known.helper.extend_from_slice(accumulated);
    known.helper.sort_unstable();
    known.helper.dedup();
}

/// Runs one (intensity, interval, replicas) point of the maintained
/// mission on `chips` of an ARO `bench` (salted [`DESIGN_SALT`]),
/// rewound to fresh silicon first: the helper block is stored
/// in `replicas` independently-eroding copies. Every gate and every
/// reconstruction reads the silicon once, then tries the replicas in
/// index order — lowest intact lineage serves, exactly the quorum-read
/// discipline of `aro_serve`'s store — and a successful refresh rewrites
/// *all* replicas pristine (the lifecycle's anti-entropy scrub). With
/// `impostor_attempts_per_chip > 0`, chip *i* additionally attacks chip
/// *i+1 mod n*'s final enrollment to measure the false-accept side.
///
/// Deterministic in its arguments: the injector is coordinate-addressed
/// and every measurement event has a stable id, so the chips' missions,
/// then their impostor attacks, fan out across `aro-par` workers and
/// fold in chip order at any thread count. Aging goes through the
/// aged-state snapshot store ([`age_chip_snapshotted`]): every intensity
/// walks the same per-interval aging prefixes, so only the first trial to
/// reach a given window pays the wear physics.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn run_replicated_trial_on(
    cfg: &SimConfig,
    generator: &KeyGenerator,
    bench: &KeyBench,
    chips: &mut [(Chip, BitString)],
    intensity: f64,
    interval_years: f64,
    replicas: usize,
    attempts_per_chip: usize,
    impostor_attempts_per_chip: usize,
) -> ReplicatedLifecycleTrial {
    assert!(replicas >= 1, "the helper store needs at least one replica");
    let mission_s = 10.0 * YEAR;
    let plan = FaultPlan::storm().scaled(intensity);
    let inj = FaultInjector::new(plan, cfg.seed);
    let schedule = RefreshSchedule::new(interval_years * YEAR, mission_s);

    let KeyBench {
        design,
        env,
        profile,
        pairs,
    } = bench;
    let n_ros = design.n_ros();
    let chip_count = chips.len();

    // One chip's maintained mission. The chips' missions are
    // independent: they fan out, and their tallies fold in chip order.
    let mission = |slot: usize, (chip, golden): &mut (Chip, BitString)| {
        let mut recovered = 0;
        let mut refreshes_scheduled = 0;
        let mut refreshes_succeeded = 0;
        let mut helper_bits_eroded = 0;
        let mut replica_fallbacks = 0;
        let id = slot as u64;
        chip.reset_to_fabricated();
        let mut cursor = AgeCursor::new();
        let mut rng = design.seed_domain().child("exp16").rng(id);
        let (mut key, mut helper) = generator.enroll(golden, &mut rng);
        let block_lens = helper.block_lens();

        // The field kills rings up front (worst case for a lifecycle:
        // every window lives with the damage); BIST flags the affected
        // response bits for the whole mission.
        for (slot, health) in inj.hard_faults(id, n_ros) {
            chip.set_ro_health(slot, health);
        }

        // Erosion accumulates per replica between refreshes (sibling
        // replicas erode at disjoint fault coordinates — the window
        // stride); a successful refresh rewrites every replica pristine
        // and clears all backlogs. The BIST flags live in
        // `known.response` for the whole mission; only the helper
        // backlog is rebuilt per window and replica.
        let mut accumulated: Vec<Vec<(usize, usize)>> = vec![Vec::new(); replicas];
        let mut known = Erasures {
            helper: Vec::new(),
            response: chip.bist_erasures(pairs),
        };

        let mut boundaries = schedule.refresh_times();
        boundaries.push(mission_s);
        let mut elapsed = 0.0;
        for (window, &t) in boundaries.iter().enumerate() {
            let dt = t - elapsed;
            age_chip_snapshotted(chip, design, profile, dt, &mut cursor);
            for (k, backlog) in accumulated.iter_mut().enumerate() {
                backlog.extend(inj.helper_erasures_during(
                    id,
                    window as u64 + k as u64 * HELPER_REPLICA_WINDOW_STRIDE,
                    dt / mission_s,
                    &block_lens,
                ));
            }
            elapsed = t;

            let is_refresh_gate = window < boundaries.len() - 1;
            if !is_refresh_gate {
                break;
            }
            refreshes_scheduled += 1;
            'gate: for retry in 0..READ_RETRIES as u64 {
                let event = REFRESH_EVENT_BASE + window as u64 * READ_RETRIES as u64 + retry;
                let (soft, _) = faulted_read(chip, design, env, pairs, Some(&inj), id, event);
                let anchor = chip.response_voted(design, env, pairs, 5);
                // One silicon read, then the replicas in index order:
                // the gate passes on the first replica whose lineage
                // still holds the key chain together.
                for (k, backlog) in accumulated.iter().enumerate() {
                    let eroded = helper.with_flipped_bits(backlog);
                    refresh_known(&mut known, backlog);
                    let Some((new_key, new_helper)) = refresh_enrollment(
                        generator, &soft, &eroded, &known, &key, &anchor, &mut rng,
                    ) else {
                        continue;
                    };
                    if k > 0 {
                        replica_fallbacks += 1;
                    }
                    key = new_key;
                    helper = new_helper;
                    helper_bits_eroded += accumulated.iter().map(Vec::len).sum::<usize>();
                    for backlog in &mut accumulated {
                        backlog.clear();
                    }
                    refreshes_succeeded += 1;
                    break 'gate;
                }
            }
        }

        // End of mission: reconstruct the current key from what is
        // actually stored, under full field faults.
        helper_bits_eroded += accumulated.iter().map(Vec::len).sum::<usize>();
        let stored: Vec<(HelperData, Erasures)> = accumulated
            .iter()
            .map(|backlog| {
                let eroded = helper.with_flipped_bits(backlog);
                let mut flags = Erasures {
                    helper: Vec::new(),
                    response: known.response.clone(),
                };
                refresh_known(&mut flags, backlog);
                (eroded, flags)
            })
            .collect();
        for attempt in 0..attempts_per_chip as u64 {
            'attempt: for retry in 0..READ_RETRIES as u64 {
                let event = attempt * READ_RETRIES as u64 + retry;
                let (soft, _) = faulted_read(chip, design, env, pairs, Some(&inj), id, event);
                for (k, (eroded, flags)) in stored.iter().enumerate() {
                    if generator.reconstruct_soft(&soft, eroded, flags) == Some(key.clone()) {
                        if k > 0 {
                            replica_fallbacks += 1;
                        }
                        recovered += 1;
                        break 'attempt;
                    }
                }
            }
        }
        // The mission's reads warmed this chip's kernels at its final
        // aged state; donate them so the next trial to replay the same
        // aging prefix preloads instead of rebuilding.
        harvest_kernel_hints(chip, design, &cursor);
        ChipMission {
            recovered,
            refreshes_scheduled,
            refreshes_succeeded,
            helper_bits_eroded,
            replica_fallbacks,
            stored,
            key,
        }
    };
    let missions = par_map_chips(chips, |(chip, _)| chip.id(), mission);
    let total = |count: fn(&ChipMission) -> usize| missions.iter().map(count).sum::<usize>();

    // False-accept probe: chip i attacks chip i+1 (mod n)'s stored
    // enrollment with its own silicon — every replica of the victim's
    // helper is fair game, and any reconstruction of the victim's key
    // is a false accept. The attackers fan out too.
    let mut impostor_attempts = 0;
    let mut impostor_accepts = 0;
    if impostor_attempts_per_chip > 0 && chip_count >= 2 {
        let accepts = aro_par::par_map_mut(chips, |slot, (chip, _)| {
            let victim = &missions[(slot + 1) % chip_count];
            let mut accepts = 0;
            for attempt in 0..impostor_attempts_per_chip as u64 {
                'probe: for retry in 0..READ_RETRIES as u64 {
                    let event = IMPOSTOR_EVENT_BASE + attempt * READ_RETRIES as u64 + retry;
                    let (soft, _) =
                        faulted_read(chip, design, env, pairs, Some(&inj), slot as u64, event);
                    for (eroded, flags) in &victim.stored {
                        if generator.reconstruct_soft(&soft, eroded, flags)
                            == Some(victim.key.clone())
                        {
                            accepts += 1;
                            break 'probe;
                        }
                    }
                }
            }
            accepts
        });
        impostor_attempts = chip_count * impostor_attempts_per_chip;
        impostor_accepts = accepts.iter().sum();
    }

    ReplicatedLifecycleTrial {
        lifecycle: LifecycleTrial {
            intensity,
            interval_years,
            chips: chip_count,
            attempts_per_chip,
            recovered: total(|m| m.recovered),
            refreshes_scheduled: total(|m| m.refreshes_scheduled),
            refreshes_succeeded: total(|m| m.refreshes_succeeded),
            helper_bits_eroded: total(|m| m.helper_bits_eroded),
        },
        replicas,
        replica_fallbacks: total(|m| m.replica_fallbacks),
        impostor_attempts,
        impostor_accepts,
    }
}

/// Human label for a refresh interval (`INFINITY` = "never").
#[must_use]
pub fn interval_label(interval_years: f64) -> String {
    if interval_years.is_finite() {
        format!("{interval_years:.2} y")
    } else {
        "never".to_string()
    }
}

/// Runs EXP-16.
#[must_use]
pub fn run(cfg: &SimConfig) -> Report {
    let mut report = Report::new(
        "EXP-16",
        "Self-healing helper-data refresh (interval sweep)",
    );

    // Same provisioning as EXP-15: the ECC sized for the ARO design's
    // fault-free ten-year BER. The lifecycle — not a bigger code — has to
    // supply the storm margin.
    let (ber, generator) = provision(cfg, RoStyle::AgingResistant);
    let Some(generator) = generator else {
        report.push_note("no feasible ARO design point — increase the code search space");
        return report;
    };
    report.push_note(format!(
        "lifecycle model: erasure-aware reconstruction everywhere, {READ_RETRIES} read \
         retries per gate/attempt, 5-vote maintenance anchor reads, key rotation at each \
         refresh behind a continuity gate; ECC provisioned for fault-free BER {}",
        pct(ber)
    ));

    let chips = cfg.n_chips.clamp(4, 8);
    let attempts = 2;
    // One fabricated chip set for the whole 12-point sweep; every trial
    // rewinds it to fresh silicon and re-ages it through the snapshot
    // store (the sweep's aging prefixes repeat across intensities).
    let bench = KeyBench::new(cfg, RoStyle::AgingResistant, &generator, DESIGN_SALT);
    let mut bench_chips = bench.chips(chips);
    let mut table = Table::new(
        "Ten-year key recovery vs. refresh interval (ARO-PUF, storm-scaled faults)",
        &[
            "intensity",
            "refresh interval",
            "refreshes (ok/scheduled)",
            "helper bits eroded",
            "attempts",
            "recovered",
            "recovery rate",
        ],
    );
    let mut cheapest = Vec::new();
    for intensity in INTENSITIES {
        let mut trials = Vec::new();
        for interval_years in INTERVALS_YEARS {
            let trial = run_replicated_trial_on(
                cfg,
                &generator,
                &bench,
                &mut bench_chips,
                intensity,
                interval_years,
                1,
                attempts,
                0,
            )
            .lifecycle;
            table.push_row(vec![
                format!("{intensity:.2}"),
                interval_label(interval_years),
                format!(
                    "{}/{}",
                    trial.refreshes_succeeded, trial.refreshes_scheduled
                ),
                trial.helper_bits_eroded.to_string(),
                (trial.chips * trial.attempts_per_chip).to_string(),
                trial.recovered.to_string(),
                pct(trial.recovery_rate()),
            ]);
            trials.push(trial);
        }
        // Cheapest schedule = fewest refreshes meeting the target.
        let winner = trials
            .iter()
            .filter(|t| t.recovery_rate() >= RECOVERY_TARGET)
            .min_by_key(|t| t.refreshes_scheduled);
        cheapest.push((intensity, winner.cloned()));
    }
    report.push_table(table);

    for (intensity, winner) in &cheapest {
        match winner {
            Some(t) => report.push_note(format!(
                "storm@{intensity}: cheapest schedule at or above {} recovery is `{}` \
                 ({} refresh(es) over the mission, recovery {})",
                pct(RECOVERY_TARGET),
                interval_label(t.interval_years),
                t.refreshes_scheduled / t.chips.max(1),
                pct(t.recovery_rate()),
            )),
            None => report.push_note(format!(
                "storm@{intensity}: no swept schedule reaches {} recovery — refresh more \
                 often than every {} years or grow the code",
                pct(RECOVERY_TARGET),
                INTERVALS_YEARS[INTERVALS_YEARS.len() - 1],
            )),
        }
    }
    report.push_note(
        "a refresh both scrubs the helper NVM (erosion backlog drops to the current \
         window's) and re-anchors enrollment on aged silicon (drift and BIST-flagged \
         rings stop spending code margin) — the static `never` row pays the full \
         ten-year backlog at its only reconstruction",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_generator};

    /// One trial on `chips` fresh bench chips, two attempts per chip.
    fn fresh_trial(
        cfg: &SimConfig,
        generator: &KeyGenerator,
        intensity: f64,
        interval_years: f64,
        replicas: usize,
        chips: usize,
        impostor_attempts_per_chip: usize,
    ) -> ReplicatedLifecycleTrial {
        let bench = KeyBench::new(cfg, RoStyle::AgingResistant, generator, DESIGN_SALT);
        run_replicated_trial_on(
            cfg,
            generator,
            &bench,
            &mut bench.chips(chips),
            intensity,
            interval_years,
            replicas,
            2,
            impostor_attempts_per_chip,
        )
    }

    #[test]
    fn never_refreshing_schedules_no_gates() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let trial = fresh_trial(&cfg, &generator, 0.5, f64::INFINITY, 1, 3, 0).lifecycle;
        assert_eq!(trial.refreshes_scheduled, 0);
        assert_eq!(trial.refreshes_succeeded, 0);
    }

    #[test]
    fn refreshing_schedules_gates_and_is_replayable() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let trial = fresh_trial(&cfg, &generator, 0.5, 2.5, 1, 3, 0);
        assert_eq!(
            trial.lifecycle.refreshes_scheduled,
            3 * 3,
            "3 gates per chip"
        );
        assert!(
            trial.lifecycle.refreshes_succeeded > 0,
            "some gate must pass"
        );
        assert_eq!(trial.replica_fallbacks, 0);
        assert_eq!(trial.impostor_attempts, 0);
        assert_eq!(
            trial,
            fresh_trial(&cfg, &generator, 0.5, 2.5, 1, 3, 0),
            "the lifecycle must be replayable"
        );
    }

    #[test]
    fn refreshing_never_recovers_fewer_keys_than_the_static_control() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let never = fresh_trial(&cfg, &generator, 1.0, f64::INFINITY, 1, 4, 0).lifecycle;
        let maintained = fresh_trial(&cfg, &generator, 1.0, 2.5, 1, 4, 0).lifecycle;
        assert!(
            maintained.recovered >= never.recovered,
            "maintained {} vs static {}",
            maintained.recovered,
            never.recovered
        );
    }

    #[test]
    fn replication_never_recovers_fewer_keys_and_rejects_impostors() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let one = fresh_trial(&cfg, &generator, 1.0, 2.5, 1, 4, 1);
        let three = fresh_trial(&cfg, &generator, 1.0, 2.5, 3, 4, 1);
        assert!(
            three.lifecycle.recovered >= one.lifecycle.recovered,
            "3 replicas {} vs 1 replica {}",
            three.lifecycle.recovered,
            one.lifecycle.recovered
        );
        assert_eq!(one.impostor_attempts, 4);
        assert_eq!(one.impostor_accepts, 0, "FAR must be zero");
        assert_eq!(three.impostor_accepts, 0, "FAR must be zero");
        assert_eq!(
            three,
            fresh_trial(&cfg, &generator, 1.0, 2.5, 3, 4, 1),
            "the replicated lifecycle must be replayable"
        );
    }

    #[test]
    fn report_sweeps_all_points_and_names_a_schedule_per_intensity() {
        let report = run(&tiny_cfg());
        let table = &report.tables()[0];
        assert_eq!(table.n_rows(), INTENSITIES.len() * INTERVALS_YEARS.len());
        // One model note + one schedule note per intensity + one closing.
        assert_eq!(report.notes().len(), 2 + INTENSITIES.len());
    }
}
