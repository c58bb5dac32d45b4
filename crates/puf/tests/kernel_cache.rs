//! Property test of the chip's frequency-kernel cache: random operation
//! sequences on a small chip — reads under nominal, hot, cold and fresh
//! excursion environments and under a second technology, idle and active
//! stress, returns to fabricated state, ring faults, clones, and aged-state
//! snapshot record/replay with kernel-hint preload.
//!
//! Two things must hold after every operation:
//!
//! * every frequency the chip reports is bit-equal to the uncached
//!   `RingOscillator::frequency`, and every noisy read equals the same
//!   read on a cold clone;
//! * the `circuit.kernel_rebuilds` delta equals what a reference model of
//!   a per-ring two-slot MRU cache predicts: slots keyed by technology
//!   and environment (by value) and wear epoch, misses filling an empty
//!   slot or evicting the one not most recently used, preloaded phantom
//!   slots booking their rebuild on first hit.

use aro_circuit::ring::{AgingModels, RoHealth, RoStyle};
use aro_device::environment::Environment;
use aro_device::params::TechParams;
use aro_device::units::YEAR;
use aro_puf::snapshot::{age_step_recorded, age_step_replayed};
use aro_puf::{Chip, MissionProfile, PufDesign};
use proptest::prelude::*;

const N_ROS: usize = 8;
/// Rings 1 and 2 appear twice, so one read hits a slot it just filled.
const PAIRS: [(usize, usize); 5] = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2)];

#[derive(Debug, Clone, Copy)]
enum EnvKind {
    Nominal,
    Hot,
    Cold,
    /// A fault-plan style excursion: `(Δ°C, ΔmV)` off nominal.
    Excursion(i64, i64),
}

#[derive(Debug, Clone, Copy)]
enum Read {
    Frequencies,
    Frequency(usize),
    Golden,
    /// A soft read of the one pair `(ring, ring + 1)`.
    Pair(usize),
    MeasureAll,
    Response,
    Soft,
    Voted,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(Read, EnvKind),
    /// A full-array read under the second technology.
    ReadSecondTech(EnvKind),
    StressIdle,
    StressActive(EnvKind),
    ResetToFabricated,
    /// `(ring, 0 healthy | 1 dead | 2 stuck)`.
    SetHealth(usize, u8),
    /// Record one aging step on a clone, read the clone under the
    /// environment, harvest its kernels, replay the step onto the chip.
    Snapshot(EnvKind),
    Clone,
}

fn arb_env() -> impl Strategy<Value = EnvKind> {
    prop_oneof![
        Just(EnvKind::Nominal),
        Just(EnvKind::Hot),
        Just(EnvKind::Cold),
        (-60i64..60).prop_map(|dt| EnvKind::Excursion(dt, 0)),
        (-300i64..100).prop_map(|dv| EnvKind::Excursion(0, dv)),
    ]
}

prop_compose! {
    fn arb_read()(kind in 0..8usize, ring in 0..N_ROS) -> Read {
        match kind {
            0 => Read::Frequencies,
            1 => Read::Frequency(ring),
            2 => Read::Golden,
            3 => Read::Pair(ring),
            4 => Read::MeasureAll,
            5 => Read::Response,
            6 => Read::Soft,
            _ => Read::Voted,
        }
    }
}

prop_compose! {
    fn arb_op()(
        kind in 0..16usize,
        read in arb_read(),
        env in arb_env(),
        ring in 0..N_ROS,
        health in 0u8..3,
    ) -> Op {
        match kind {
            0..=5 => Op::Read(read, env),
            6 => Op::ReadSecondTech(env),
            7 => Op::StressIdle,
            8 | 9 => Op::StressActive(env),
            10 | 11 => Op::ResetToFabricated,
            12 => Op::SetHealth(ring, health),
            13 | 14 => Op::Snapshot(env),
            _ => Op::Clone,
        }
    }
}

/// One slot of the reference cache.
#[derive(Debug, Clone)]
struct RefSlot {
    tech: TechParams,
    env: Environment,
    epoch: u64,
    phantom: bool,
}

/// The reference model of one ring's cache: two physical slots and the
/// index of the most recently used one.
#[derive(Debug, Clone, Default)]
struct RefRing {
    slots: [Option<RefSlot>; 2],
    mru: usize,
}

impl RefRing {
    /// One frequency query; returns the rebuilds it books.
    fn query(&mut self, tech: &TechParams, env: &Environment, epoch: u64) -> u64 {
        for offset in 0..2 {
            let idx = (self.mru + offset) % 2;
            if let Some(slot) = &mut self.slots[idx] {
                if slot.epoch == epoch && slot.env == *env && slot.tech == *tech {
                    self.mru = idx;
                    return u64::from(std::mem::take(&mut slot.phantom));
                }
            }
        }
        let victim = self
            .slots
            .iter()
            .position(Option::is_none)
            .unwrap_or((self.mru + 1) % 2);
        self.slots[victim] = Some(RefSlot {
            tech: tech.clone(),
            env: *env,
            epoch,
            phantom: false,
        });
        self.mru = victim;
        1
    }

    fn preload(&mut self, tech: &TechParams, env: &Environment, epoch: u64) {
        let slot = self.slots.iter().position(Option::is_none).unwrap_or(0);
        self.slots[slot] = Some(RefSlot {
            tech: tech.clone(),
            env: *env,
            epoch,
            phantom: true,
        });
        self.mru = slot;
    }

    /// The environment of the MRU-first slot at `epoch` (the harvest).
    fn current(&self, epoch: u64) -> Option<Environment> {
        (0..2)
            .filter_map(|offset| self.slots[(self.mru + offset) % 2].as_ref())
            .find(|slot| slot.epoch == epoch)
            .map(|slot| slot.env)
    }
}

fn cold_model() -> Vec<RefRing> {
    vec![RefRing::default(); N_ROS]
}

/// Books one query per touch of each healthy ring under `(tech, env)`.
fn model_read(
    model: &mut [RefRing],
    chip: &Chip,
    tech: &TechParams,
    env: &Environment,
    touches: &[usize],
) -> u64 {
    touches
        .iter()
        .filter(|&&i| chip.ros()[i].health().is_healthy())
        .map(|&i| model[i].query(tech, env, chip.ros()[i].wear_epoch()))
        .sum()
}

fn touches(read: Read) -> Vec<usize> {
    let pair_rings = || PAIRS.iter().flat_map(|&(i, j)| [i, j]).collect::<Vec<_>>();
    match read {
        Read::Frequencies | Read::Golden | Read::MeasureAll => (0..N_ROS).collect(),
        Read::Frequency(i) => vec![i],
        Read::Pair(i) => vec![i, pair_of(i).1],
        Read::Response | Read::Soft => pair_rings(),
        Read::Voted => {
            let mut rings = pair_rings();
            rings.sort_unstable();
            rings.dedup();
            rings
        }
    }
}

fn rebuilds() -> u64 {
    aro_obs::snapshot().counter("circuit.kernel_rebuilds")
}

fn pair_of(ring: usize) -> (usize, usize) {
    (ring, (ring + 1) % N_ROS)
}

/// The uncached reference frequencies of every ring.
fn reference(chip: &Chip, tech: &TechParams, env: &Environment) -> Vec<u64> {
    chip.ros()
        .iter()
        .map(|ro| {
            ro.frequency(tech, env, chip.process(), chip.bti_classes())
                .to_bits()
        })
        .collect()
}

/// A read's output, for comparison with the same read on a cold clone.
#[derive(Debug, PartialEq)]
enum Output {
    Bits(Vec<u64>),
    Counts(Vec<u64>),
    Bools(Vec<bool>),
    Soft(Vec<(bool, u64)>),
}

fn perform(chip: &mut Chip, design: &PufDesign, env: &Environment, read: Read) -> Output {
    let bits = |v: Vec<f64>| Output::Bits(v.into_iter().map(f64::to_bits).collect());
    let soft = |v: Vec<(bool, f64)>| {
        Output::Soft(
            v.into_iter()
                .map(|(bit, confidence)| (bit, confidence.to_bits()))
                .collect(),
        )
    };
    match read {
        Read::Frequencies => bits(chip.frequencies(design, env)),
        Read::Frequency(i) => bits(vec![chip.frequency(design, env, i)]),
        Read::Golden => Output::Bools(chip.golden_response(design, env, &PAIRS).iter().collect()),
        Read::Pair(i) => soft(chip.response_soft(design, env, &[pair_of(i)])),
        Read::MeasureAll => Output::Counts(
            chip.measure_all(design, env)
                .iter()
                .map(|m| m.count())
                .collect(),
        ),
        Read::Response => Output::Bools(chip.response(design, env, &PAIRS).iter().collect()),
        Read::Soft => soft(chip.response_soft(design, env, &PAIRS)),
        Read::Voted => Output::Bools(chip.response_voted(design, env, &PAIRS, 3).iter().collect()),
    }
}

/// Applies `op` to `chip`, checking its outputs and that it books the
/// rebuilds the reference model predicts.
fn step(
    op: Op,
    chip: &mut Chip,
    model: &mut Vec<RefRing>,
    designs: &[PufDesign; 2],
    env_of: &dyn Fn(EnvKind) -> Environment,
) {
    let [design, second] = designs;
    let tech = design.tech();
    let models = AgingModels::new(tech);
    if let Op::Snapshot(kind) = op {
        snapshot_step(chip, model, design, &env_of(kind));
        return;
    }
    // A read's reference output comes from a cold clone, outside the
    // counted window.
    let cold = match op {
        Op::Read(read, kind) => Some(perform(&mut chip.clone(), design, &env_of(kind), read)),
        _ => None,
    };
    let before = rebuilds();
    let expected = match op {
        Op::Read(read, kind) => {
            let env = env_of(kind);
            let expected = model_read(model, chip, tech, &env, &touches(read));
            let output = perform(chip, design, &env, read);
            assert_eq!(
                Some(&output),
                cold.as_ref(),
                "{read:?} differs from a cold clone"
            );
            if let Output::Bits(bits) = &output {
                let reference = reference(chip, tech, &env);
                match read {
                    Read::Frequency(i) => assert_eq!(bits[0], reference[i]),
                    _ => assert_eq!(*bits, reference),
                }
            }
            expected
        }
        Op::ReadSecondTech(kind) => {
            let env = env_of(kind);
            let all = touches(Read::Frequencies);
            let expected = model_read(model, chip, second.tech(), &env, &all);
            let bits: Vec<u64> = chip
                .frequencies(second, &env)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(bits, reference(chip, second.tech(), &env));
            expected
        }
        Op::StressIdle => {
            chip.stress_idle(design, &models, 85.0, tech.vdd_nominal, YEAR);
            0
        }
        Op::StressActive(kind) => {
            let env = env_of(kind);
            let expected = model_read(model, chip, tech, &env, &touches(Read::Frequencies));
            chip.stress_active(design, &models, &env, 60.0);
            expected
        }
        Op::ResetToFabricated => {
            chip.reset_to_fabricated();
            *model = cold_model();
            0
        }
        Op::SetHealth(ring, health) => {
            let health = match health {
                0 => RoHealth::Healthy,
                1 => RoHealth::Dead,
                _ => RoHealth::Stuck(1.0e9),
            };
            chip.set_ro_health(ring, health);
            0
        }
        Op::Clone => {
            *chip = chip.clone();
            *model = cold_model();
            0
        }
        Op::Snapshot(_) => unreachable!("handled above"),
    };
    assert_eq!(rebuilds() - before, expected, "{op:?}");
}

/// [`Op::Snapshot`]: records one aging step on a cold clone, reads the
/// clone under `env`, harvests its kernels and replays the step onto
/// `chip`, which must then equal a chip aged on the cold path.
fn snapshot_step(chip: &mut Chip, model: &mut [RefRing], design: &PufDesign, env: &Environment) {
    let tech = design.tech();
    let profile = MissionProfile::typical(tech);
    let dt = 0.5 * YEAR;
    let mission = profile.step(design, dt);
    let mut twin = chip.clone();
    profile.age_chip(&mut twin, design, dt);

    let before = rebuilds();
    // Record on a cold clone: its active phase reads every healthy ring
    // under the mission environment, live.
    let mut donor = chip.clone();
    let mut donor_model = cold_model();
    let recorded: Vec<u64> = (0..N_ROS)
        .map(|i| {
            let ro = &donor.ros()[i];
            if ro.health().is_healthy() && mission.active_s > 0.0 {
                donor_model[i].query(tech, &mission.env, ro.wear_epoch())
            } else {
                0
            }
        })
        .collect();
    let snapshot = age_step_recorded(&mut donor, design, &profile, dt);
    let mut expected: u64 = recorded.iter().sum();
    expected += model_read(
        &mut donor_model,
        &donor,
        tech,
        env,
        &touches(Read::Frequencies),
    );
    let _ = donor.frequencies(design, env);
    snapshot.harvest_kernel_hints(&donor);

    // The harvest: one environment cohort of covered rings at the
    // donor's post-step epoch.
    let epoch_after = donor.ros()[0].wear_epoch();
    let mut cohort: Option<Environment> = None;
    let hints: Vec<Option<Environment>> = (0..N_ROS)
        .map(|i| {
            let covered = donor.ros()[i].health().is_healthy();
            let found = donor_model[i].current(epoch_after).filter(|_| covered)?;
            match cohort {
                None => cohort = Some(found),
                Some(c) if c == found => {}
                Some(_) => return None,
            }
            Some(found)
        })
        .collect();

    // The replay: covered healthy rings replay the tape (the donor's
    // recorded rebuilds) and restore their wear, dropping their slots;
    // faulted rings age live, short-circuiting every read.
    for (i, ring) in model.iter_mut().enumerate() {
        if chip.ros()[i].health().is_healthy() {
            expected += recorded[i];
            *ring = RefRing::default();
        }
    }
    age_step_replayed(chip, design, &profile, dt, &snapshot);
    assert_eq!(rebuilds() - before, expected, "snapshot under {env:?}");
    assert!(*chip == twin, "replay diverged from the cold path");

    // The preload: hinted rings that are healthy and not sampled by the
    // observability gate.
    for (i, hint) in hints.iter().enumerate() {
        let ro = &chip.ros()[i];
        if let Some(hint_env) = hint {
            if ro.health().is_healthy() && !ro.obs_sampled() {
                model[i].preload(tech, hint_env, ro.wear_epoch());
            }
        }
    }
}

fn designs(style: RoStyle, seed: u64) -> [PufDesign; 2] {
    let build = |tech: TechParams| {
        PufDesign::builder(style)
            .n_ros(N_ROS)
            .seed(seed)
            .tech(tech)
            .build()
    };
    let tech = TechParams::default();
    let second = TechParams {
        alpha: tech.alpha * 1.02,
        ..tech.clone()
    };
    [build(tech), build(second)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_cache_is_exact_and_books_what_the_reference_model_predicts(
        aro in any::<bool>(),
        seed in 0u64..1000,
        ops in prop::collection::vec(arb_op(), 1..48),
    ) {
        aro_obs::set_enabled(true);
        let style = if aro { RoStyle::AgingResistant } else { RoStyle::Conventional };
        let designs = designs(style, seed);
        let nominal = Environment::nominal(designs[0].tech());
        let env_of = |kind: EnvKind| match kind {
            EnvKind::Nominal => nominal,
            EnvKind::Hot => Environment::new(85.0, nominal.vdd()),
            EnvKind::Cold => Environment::new(-20.0, nominal.vdd()),
            #[allow(clippy::cast_precision_loss)]
            EnvKind::Excursion(dt, dv) => nominal.perturbed(dt as f64, dv as f64 * 1e-3),
        };
        let mut chip = Chip::fabricate(&designs[0], seed % 4);
        let mut model = cold_model();
        for op in ops {
            step(op, &mut chip, &mut model, &designs, &env_of);
        }
    }
}
