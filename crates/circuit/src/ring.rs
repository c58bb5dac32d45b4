//! Ring oscillators: the conventional enable-NAND ring and the paper's
//! aging-resistant (ARO) cell.
//!
//! # The aging asymmetry the paper exploits
//!
//! When a **conventional** ring is disabled (enable = 0), the NAND output
//! locks high and the chain settles into alternating static levels. Every
//! stage whose input rests at 1 keeps its NMOS under full DC PBTI stress;
//! every stage whose input rests at 0 keeps its PMOS under full DC NBTI
//! stress — for years, since a PUF is queried rarely. Aging variability
//! then makes paired rings drift apart and bits flip.
//!
//! The **ARO** cell adds gating transistors that (a) decouple the inverter
//! chain from the supply when idle and (b) equalize the internal nodes, so
//! every gate-source voltage collapses to ~0. BTI stress drops to a
//! leakage-level duty factor ([`TechParams::aro_idle_stress_fraction`]) and
//! the devices spend essentially their whole life in recovery. The price is
//! a slightly larger, slightly slower cell
//! ([`TechParams::aro_load_factor`]) — and the symmetric layout that comes
//! with it also suppresses the per-position bias that hurts the
//! conventional array's uniqueness.
//!
//! # Stress classes
//!
//! The disabled conventional chain rests at fixed levels: the input of
//! stage 0 (the NAND, whose feedback input rests high) and of every odd
//! stage is 1, the input of every other even stage is 0. A device's raw
//! BTI shift is a pure function of its stress history — its own
//! fabrication-time multiplier scales it only when read — so all devices
//! of one polarity at one idle input level share one raw shift: a
//! conventional ring has four *stress classes*, and an ARO ring, whose
//! idle state treats every stage alike, two (one per polarity). The ring
//! keeps one raw accumulator per class instead of one per device.

use aro_device::aging::{BtiBatch, BtiModel, HciModel, StressInterval};
use aro_device::environment::Environment;
use aro_device::params::TechParams;
use aro_device::process::{ChipProcess, DiePosition};
use rand::Rng;

use crate::gates::InverterStage;
use crate::kernel::FreqContext;

/// The three wear-out models bundled, so callers don't rebuild them per
/// stress call.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingModels {
    /// NBTI model applied to PMOS devices.
    pub nbti: BtiModel,
    /// PBTI model applied to NMOS devices.
    pub pbti: BtiModel,
    /// HCI model applied to switching devices.
    pub hci: HciModel,
}

impl AgingModels {
    /// Builds the models of a technology.
    #[must_use]
    pub fn new(tech: &TechParams) -> Self {
        Self {
            nbti: BtiModel::nbti(tech),
            pbti: BtiModel::pbti(tech),
            hci: HciModel::new(tech),
        }
    }
}

/// One idle-stress interval, prefactored and memoized, shareable across
/// every ring of a chip.
///
/// The Arrhenius/voltage acceleration of an interval depends only on the
/// interval itself — never on the device — so a chip evaluates it once and
/// hands the same batch to all of its rings via
/// [`RingOscillator::stress_idle`]. The embedded [`BtiBatch`] memos
/// then collapse the per-class BTI power law: a stress class has the same
/// history on every ring of the chip, so all but the first ring replay one
/// memoized, bitwise-identical transition instead of re-running `powf`.
#[derive(Debug, Clone)]
pub struct IdleStressBatch {
    style: RoStyle,
    duration_s: f64,
    /// NBTI transitions for PMOS classes under idle stress.
    nbti: BtiBatch,
    /// PBTI transitions for NMOS classes under idle stress.
    pbti: BtiBatch,
}

impl IdleStressBatch {
    /// Prefactors one idle interval for rings of `style`.
    #[must_use]
    pub fn new(
        style: RoStyle,
        tech: &TechParams,
        models: &AgingModels,
        temp_celsius: f64,
        vdd: f64,
        duration_s: f64,
    ) -> Self {
        let interval = match style {
            RoStyle::Conventional => StressInterval::static_dc(duration_s, temp_celsius, vdd),
            RoStyle::AgingResistant => StressInterval::duty_cycled(
                duration_s,
                temp_celsius,
                vdd,
                tech.aro_idle_stress_fraction,
            ),
        };
        Self {
            style,
            duration_s,
            nbti: BtiBatch::new(
                models.nbti.time_exp(),
                models.nbti.k_eff(&interval),
                duration_s,
            ),
            pbti: BtiBatch::new(
                models.pbti.time_exp(),
                models.pbti.k_eff(&interval),
                duration_s,
            ),
        }
    }
}

/// One oscillation-stress interval, prefactored and memoized, shareable
/// across every ring of a chip (see [`IdleStressBatch`]).
///
/// BTI under oscillation depends only on the interval, so its transitions
/// are shared; HCI depends on each ring's own cycle count, so only its
/// voltage acceleration factor is hoisted.
#[derive(Debug, Clone)]
pub struct ActiveStressBatch {
    duration_s: f64,
    /// NBTI transitions for PMOS classes under 50 %-duty AC stress.
    nbti: BtiBatch,
    /// PBTI transitions for NMOS classes under 50 %-duty AC stress.
    pbti: BtiBatch,
    /// Per-cycle HCI equivalence factor at the interval's supply.
    hci_factor: f64,
}

impl ActiveStressBatch {
    /// Prefactors one oscillation interval under `env`.
    #[must_use]
    pub fn new(models: &AgingModels, env: &Environment, duration_s: f64) -> Self {
        let interval = StressInterval::oscillating(duration_s, env.temp_celsius(), env.vdd());
        Self {
            duration_s,
            nbti: BtiBatch::new(
                models.nbti.time_exp(),
                models.nbti.k_eff(&interval),
                duration_s,
            ),
            pbti: BtiBatch::new(
                models.pbti.time_exp(),
                models.pbti.k_eff(&interval),
                duration_s,
            ),
            hci_factor: models.hci.equivalent_cycle_factor(env.vdd()),
        }
    }
}

/// Which ring-oscillator cell a PUF instance is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoStyle {
    /// Enable-NAND + inverter chain; idle state = static DC stress.
    Conventional,
    /// The paper's ARO cell: power-gated, node-equalized idle state with
    /// BTI recovery; symmetric layout.
    AgingResistant,
}

impl RoStyle {
    /// Switched-load multiplier of the cell relative to the plain chain.
    #[must_use]
    pub fn load_factor(self, tech: &TechParams) -> f64 {
        match self {
            Self::Conventional => 1.0,
            Self::AgingResistant => tech.aro_load_factor,
        }
    }

    /// Sigma of the deterministic per-position layout bias for an array of
    /// this cell.
    #[must_use]
    pub fn position_bias_sigma(self, tech: &TechParams) -> f64 {
        match self {
            Self::Conventional => tech.sigma_position_bias_rel,
            Self::AgingResistant => tech.sigma_position_bias_rel_aro,
        }
    }

    /// Short lowercase label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Conventional => "RO-PUF",
            Self::AgingResistant => "ARO-PUF",
        }
    }
}

impl std::fmt::Display for RoStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hard-fault state of one ring — the circuit-level hook consumed by the
/// fault-injection layer (`aro-faults`).
///
/// Real arrays lose rings: an enable net shorts and the ring never
/// oscillates (`Dead`), or a mux/control defect leaves the readout seeing a
/// constant source instead of the ring's own mismatch signature (`Stuck`).
/// Both destroy the affected pair bits *persistently*, unlike the transient
/// faults modelled at measurement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoHealth {
    /// The ring oscillates normally.
    Healthy,
    /// The ring does not oscillate at all; its counter reads zero.
    Dead,
    /// The readout sees a constant frequency (in hertz) regardless of the
    /// ring's silicon, environment, or wear.
    Stuck(f64),
}

impl RoHealth {
    /// Whether the ring is fault-free.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        matches!(self, RoHealth::Healthy)
    }
}

/// Offsets of the PMOS and the NMOS classes in a ring's BTI accumulators:
/// a device's class is its polarity's offset plus its stage's
/// [`idle_level`].
const PMOS: usize = 0;
const NMOS: usize = 2;
/// The idle level of a conventional stage whose input rests high; the
/// other stages, and every ARO stage, are at level 0.
const HIGH: usize = 1;

/// The stress class of stage `index` within each polarity: for a
/// conventional ring the stage's idle input level (module docs), for an
/// ARO ring 0, since its idle state treats every stage alike.
fn idle_level(style: RoStyle, index: usize) -> usize {
    match style {
        RoStyle::Conventional if index == 0 || index % 2 == 1 => HIGH,
        RoStyle::Conventional | RoStyle::AgingResistant => 0,
    }
}

/// One fabricated ring oscillator.
///
/// A ring keeps no derived state: [`RingOscillator::frequency`] rederives
/// the frequency on every call. The chip that owns a ring array and its
/// die process caches the results per ring (`aro_puf::Chip`), keyed by the
/// ring's [`wear epoch`](RingOscillator::wear_epoch).
///
/// The ring, not its devices, holds the wear: one raw BTI accumulator per
/// stress class (module docs) and one HCI equivalent-cycle count, since
/// every device switches at the ring's frequency. Devices of one class
/// differ only in their fabrication-time multipliers.
#[derive(Debug, Clone)]
pub struct RingOscillator {
    style: RoStyle,
    stages: Vec<InverterStage>,
    position: DiePosition,
    freq_bias_rel: f64,
    correlated_dvth: f64,
    health: RoHealth,
    /// Raw BTI shift of each stress class in volts, indexed by polarity
    /// offset plus idle level ([`PMOS`], [`NMOS`], [`idle_level`]).
    bti: [f64; 4],
    /// Accumulated HCI wear of every device of the ring, in
    /// reference-condition equivalent cycles.
    hci_eq_cycles: f64,
    /// Bumped by every wear mutation, so a cached result keyed by the
    /// epoch it was derived at goes stale without being touched.
    wear_epoch: u64,
}

impl PartialEq for RingOscillator {
    fn eq(&self, other: &Self) -> bool {
        // The epoch counter is cache-invalidation state, not silicon:
        // `bti` and `hci_eq_cycles` already carry the full wear history.
        self.style == other.style
            && self.stages == other.stages
            && self.position == other.position
            && self.freq_bias_rel == other.freq_bias_rel
            && self.correlated_dvth == other.correlated_dvth
            && self.health == other.health
            && self.bti == other.bti
            && self.hci_eq_cycles == other.hci_eq_cycles
    }
}

impl RingOscillator {
    /// Fabricates a ring of `n_stages` at die position `position`,
    /// sampling all per-device randomness from `rng`. Stage 0 is the
    /// enable NAND; the rest are inverters
    /// ([`StageKind::of_stage`](crate::gates::StageKind::of_stage)).
    ///
    /// # Panics
    /// Panics if `n_stages` is even or less than 3 (an even ring does not
    /// oscillate).
    pub fn new<R: Rng + ?Sized>(
        style: RoStyle,
        n_stages: usize,
        position: DiePosition,
        tech: &TechParams,
        rng: &mut R,
    ) -> Self {
        assert!(
            n_stages >= 3 && n_stages % 2 == 1,
            "ring needs an odd stage count >= 3"
        );
        let stages = (0..n_stages)
            .map(|_| InverterStage::fabricate(tech, rng))
            .collect();
        Self {
            style,
            stages,
            position,
            freq_bias_rel: 0.0,
            correlated_dvth: 0.0,
            health: RoHealth::Healthy,
            bti: [0.0; 4],
            hci_eq_cycles: 0.0,
            wear_epoch: 0,
        }
    }

    /// Marks every cached derivation of this ring's wear state stale.
    fn bump_wear_epoch(&mut self) {
        self.wear_epoch = self.wear_epoch.wrapping_add(1);
    }

    /// The current wear epoch: increments on every stress application; a
    /// wear restore pins it and a return to fabricated state zeroes it.
    /// Frequency caches key on it.
    #[must_use]
    pub fn wear_epoch(&self) -> u64 {
        self.wear_epoch
    }

    /// The cell style.
    #[must_use]
    pub fn style(&self) -> RoStyle {
        self.style
    }

    /// Number of stages (including the enable NAND).
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Die position of this ring.
    #[must_use]
    pub fn position(&self) -> DiePosition {
        self.position
    }

    /// The stages, NAND first.
    #[must_use]
    pub fn stages(&self) -> &[InverterStage] {
        &self.stages
    }

    /// The raw BTI shifts in volts of stage `index`'s PMOS and NMOS: the
    /// accumulators of their stress classes.
    #[must_use]
    pub(crate) fn stage_bti(&self, index: usize) -> (f64, f64) {
        let level = idle_level(self.style, index);
        (self.bti[PMOS + level], self.bti[NMOS + level])
    }

    /// Accumulated HCI wear shared by every device of this ring, in
    /// reference-condition equivalent cycles; a read turns it into the raw
    /// shift with [`HciModel::dvth_equivalent`].
    #[must_use]
    pub(crate) fn hci_eq_cycles(&self) -> f64 {
        self.hci_eq_cycles
    }

    /// Deterministic relative frequency offset of this ring's array slot
    /// (layout bias); set by the array builder.
    #[must_use]
    pub fn freq_bias_rel(&self) -> f64 {
        self.freq_bias_rel
    }

    /// Sets the layout bias of this ring's slot.
    pub fn set_freq_bias_rel(&mut self, bias_rel: f64) {
        self.freq_bias_rel = bias_rel;
    }

    /// Hard-fault state of this ring.
    #[must_use]
    pub fn health(&self) -> RoHealth {
        self.health
    }

    /// Sets the hard-fault state of this ring (fault-injection hook). A
    /// faulted ring reports a degenerate frequency from
    /// [`RingOscillator::frequency`]; restoring `Healthy` reverts to the
    /// physical model — the underlying silicon and wear are untouched.
    pub fn set_health(&mut self, health: RoHealth) {
        self.health = health;
    }

    /// This ring's sampled mid-range correlated Vth offset in volts
    /// (zero unless the design enables the correlated field).
    #[must_use]
    pub fn correlated_dvth(&self) -> f64 {
        self.correlated_dvth
    }

    /// Sets the correlated Vth offset of this ring (set by the chip
    /// builder from the design's [`aro_device::spatial::CorrelatedField`]).
    pub fn set_correlated_dvth(&mut self, dvth: f64) {
        self.correlated_dvth = dvth;
    }

    /// The oscillation frequency in hertz under environment `env` on a die
    /// with process realization `chip`, including mismatch, systematic
    /// variation, layout bias, and all accumulated wear — the uncached
    /// reference derivation (see [`FreqContext`]). It books no telemetry.
    ///
    /// A hard-faulted ring short-circuits the physical model: `Dead` reads
    /// 0 Hz, `Stuck` reads its fixed frequency.
    #[must_use]
    pub fn frequency(&self, tech: &TechParams, env: &Environment, chip: &ChipProcess) -> f64 {
        match self.health {
            RoHealth::Healthy => FreqContext::new(self.style, tech, env, chip).derive(self),
            RoHealth::Dead => 0.0,
            RoHealth::Stuck(freq_hz) => freq_hz,
        }
    }

    /// Keep-1-in-16 gate for the per-state observability streams
    /// (`circuit.ring_freq_ghz`, `device.bti_dvth_mv`).
    ///
    /// Every kernel rebuild and every stress batch is a distinct physical
    /// state — millions per instrumented quick run, ~100× more resolution
    /// than fleet percentiles need, and observing them all measured as
    /// +12 % of total wall (docs/PERFORMANCE.md, "Observability cost").
    /// The gate hashes (wear epoch, die position), so the kept subsequence
    /// is a pure function of deterministic ring state — byte-identical at
    /// any `--threads N` — and different rings keep *different*
    /// checkpoints. (A plain per-ring stride counter would alias with the
    /// periodic checkpoint schedule: every ring would keep the same early
    /// ages and the fleet drift sketch would under-represent late life.)
    #[must_use]
    pub fn obs_sampled(&self) -> bool {
        if !aro_obs::enabled() {
            return false;
        }
        let mut z = self.wear_epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ self.position.x.to_bits().rotate_left(17)
            ^ self.position.y.to_bits().rotate_left(43);
        z ^= z >> 31;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
        z & 0xF == 0
    }

    /// Ages the ring through one *idle* interval, driven by a prebuilt,
    /// possibly shared [`IdleStressBatch`].
    ///
    /// * `Conventional`: the disabled chain holds its idle levels (module
    ///   docs). Input 1 puts full DC PBTI on the NMOS; input 0 puts full DC
    ///   NBTI on the PMOS.
    /// * `AgingResistant`: every device sees only the leakage-level
    ///   residual duty [`TechParams::aro_idle_stress_fraction`].
    ///
    /// Each stressed class advances once. A chip passes one batch across
    /// all of its rings: the interval acceleration is evaluated once per
    /// chip, and the batch's transition memo collapses the BTI power law
    /// to one evaluation per distinct class history (see [`BtiBatch`] for
    /// why replaying a memoized transition is bit-exact). The batch must
    /// have been built for this ring's style.
    pub fn stress_idle(&mut self, batch: &mut IdleStressBatch) {
        debug_assert_eq!(batch.style, self.style, "batch built for another style");
        if batch.duration_s <= 0.0 {
            return;
        }
        self.bump_wear_epoch();
        // An applied class books its device count in one aggregated
        // counter bump per interval: `device.bti_applies` counts
        // device-intervals. Stage 0 and the n / 2 odd stages of a
        // conventional ring (n is odd) idle high, the other n / 2 low.
        let n = self.stages.len() as u64;
        let bti_applies = match self.style {
            RoStyle::Conventional => {
                (n / 2 + 1) * u64::from(batch.pbti.apply(&mut self.bti[NMOS + HIGH]))
                    + n / 2 * u64::from(batch.nbti.apply(&mut self.bti[PMOS]))
            }
            RoStyle::AgingResistant => {
                n * u64::from(batch.nbti.apply(&mut self.bti[PMOS]))
                    + n * u64::from(batch.pbti.apply(&mut self.bti[NMOS]))
            }
        };
        if bti_applies > 0 {
            aro_obs::counter("device.bti_applies", bti_applies);
            self.sketch_bti_drift();
        }
    }

    /// Ages the ring through one *oscillation* interval (a measurement
    /// window), driven by a prebuilt, possibly shared
    /// [`ActiveStressBatch`]: 50 %-duty AC BTI on every class plus HCI
    /// proportional to the number of transitions. A chip passes one batch
    /// across all of its rings (see [`RingOscillator::stress_idle`]); the
    /// HCI cycle count still depends on this ring's own frequency, so only
    /// the BTI transitions and the acceleration prefactors are shared.
    ///
    /// `frequency` supplies the ring's frequency under the interval's
    /// environment — a chip reads it through its kernel cache. It is
    /// called once, before the wear epoch moves, and not at all for an
    /// empty interval.
    pub fn stress_active(
        &mut self,
        batch: &mut ActiveStressBatch,
        frequency: impl FnOnce(&Self) -> f64,
    ) {
        if batch.duration_s <= 0.0 {
            return;
        }
        let freq = frequency(self);
        self.bump_wear_epoch();
        let cycles = freq * batch.duration_s;
        // Device-intervals, one counter bump per interval (see
        // `stress_idle`).
        let n = self.stages.len() as u64;
        let bti_applies = match self.style {
            // Both idle levels of each polarity, in turn: the batch's
            // two-slot memo holds both transitions.
            RoStyle::Conventional => {
                let (high, low) = (n / 2 + 1, n / 2);
                high * u64::from(batch.nbti.apply(&mut self.bti[PMOS + HIGH]))
                    + high * u64::from(batch.pbti.apply(&mut self.bti[NMOS + HIGH]))
                    + low * u64::from(batch.nbti.apply(&mut self.bti[PMOS]))
                    + low * u64::from(batch.pbti.apply(&mut self.bti[NMOS]))
            }
            RoStyle::AgingResistant => {
                n * u64::from(batch.nbti.apply(&mut self.bti[PMOS]))
                    + n * u64::from(batch.pbti.apply(&mut self.bti[NMOS]))
            }
        };
        if bti_applies > 0 {
            aro_obs::counter("device.bti_applies", bti_applies);
            self.sketch_bti_drift();
        }
        if cycles <= 0.0 {
            return;
        }
        self.hci_eq_cycles += cycles * batch.hci_factor;
        // `device.hci_applies` counts device-intervals: every device of
        // the ring took this interval's HCI wear.
        aro_obs::counter("device.hci_applies", 2 * n);
    }

    /// Streams this ring's mean BTI threshold shift (mV, across all
    /// devices, each its class's raw shift times its own multiplier) into
    /// the drift-vs-age sketch — one point per *sampled* stress interval
    /// (see `obs_sampled`), so the sketch traces how hard the fleet has
    /// aged without paying the per-device sum on every batch.
    fn sketch_bti_drift(&self) {
        if !self.obs_sampled() {
            return;
        }
        let mut dvth_sum = 0.0;
        for (index, stage) in self.stages.iter().enumerate() {
            let (bti_p, bti_n) = self.stage_bti(index);
            dvth_sum += stage.pmos().aging().dvth_bti(bti_p) + stage.nmos().aging().dvth_bti(bti_n);
        }
        #[allow(clippy::cast_precision_loss)]
        let n_devices = (2 * self.stages.len()) as f64;
        aro_obs::sketch("device.bti_dvth_mv", dvth_sum / n_devices * 1e3);
    }

    /// This ring's wear: the raw BTI accumulator of each stress class and
    /// the HCI equivalent cycles, as [`RingOscillator::restore_wear`]
    /// consumes them.
    #[must_use]
    pub fn capture_wear(&self) -> ([f64; 4], f64) {
        (self.bti, self.hci_eq_cycles)
    }

    /// Restores wear captured by [`RingOscillator::capture_wear`] and pins
    /// the wear epoch. A caller that caches this ring's frequency must
    /// drop the ring's entries: the epoch counter alone cannot distinguish
    /// two histories that happen to share an epoch value, e.g. across
    /// reused workspace chips.
    pub fn restore_wear(&mut self, bti: [f64; 4], hci_eq_cycles: f64, wear_epoch: u64) {
        self.bti = bti;
        self.hci_eq_cycles = hci_eq_cycles;
        self.wear_epoch = wear_epoch;
    }

    /// Returns the ring to its exact post-fabrication state: zero wear,
    /// epoch 0, healthy. Like a wear restore, this rewinds the epoch, so a
    /// frequency cache must drop the ring's entries. The fabricated silicon
    /// (variation, multipliers, bias, correlated offset) is untouched, so a
    /// reused workspace ring is bitwise indistinguishable from a fresh
    /// fabrication of the same design and id.
    pub fn reset_to_fabricated(&mut self) {
        self.bti = [0.0; 4];
        self.hci_eq_cycles = 0.0;
        self.health = RoHealth::Healthy;
        self.wear_epoch = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_device::rng::SeedDomain;
    use aro_device::units::YEAR;

    fn setup() -> (TechParams, Environment, ChipProcess, AgingModels) {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        (
            tech.clone(),
            env,
            ChipProcess::typical(),
            AgingModels::new(&tech),
        )
    }

    /// One idle interval at nominal supply through its own batch.
    fn idle(
        ro: &mut RingOscillator,
        tech: &TechParams,
        models: &AgingModels,
        temp_celsius: f64,
        duration_s: f64,
    ) {
        let style = ro.style();
        ro.stress_idle(&mut IdleStressBatch::new(
            style,
            tech,
            models,
            temp_celsius,
            tech.vdd_nominal,
            duration_s,
        ));
    }

    /// One oscillation interval through its own batch, at the ring's
    /// uncached frequency.
    fn active(
        ro: &mut RingOscillator,
        tech: &TechParams,
        models: &AgingModels,
        env: &Environment,
        chip: &ChipProcess,
        duration_s: f64,
    ) {
        ro.stress_active(&mut ActiveStressBatch::new(models, env, duration_s), |ro| {
            ro.frequency(tech, env, chip)
        });
    }

    fn make_ring(style: RoStyle, seed: u64) -> (RingOscillator, TechParams) {
        let tech = TechParams::default();
        let mut rng = SeedDomain::new(seed).rng(0);
        (
            RingOscillator::new(style, 5, DiePosition::new(0.5, 0.5), &tech, &mut rng),
            tech,
        )
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_stage_count_panics() {
        let tech = TechParams::default();
        let mut rng = SeedDomain::new(0).rng(0);
        let _ = RingOscillator::new(
            RoStyle::Conventional,
            4,
            DiePosition::new(0.5, 0.5),
            &tech,
            &mut rng,
        );
    }

    #[test]
    fn nominal_frequency_is_in_the_gigahertz_range() {
        let (tech, env, chip, _) = setup();
        let (ro, _) = make_ring(RoStyle::Conventional, 31);
        let f = ro.frequency(&tech, &env, &chip);
        assert!(f > 2e8 && f < 2e10, "f = {f} Hz");
    }

    #[test]
    fn aro_cell_is_slightly_slower_due_to_gating_load() {
        let (tech, env, chip, _) = setup();
        let mut rng_a = SeedDomain::new(32).rng(0);
        let mut rng_b = SeedDomain::new(32).rng(0);
        let conv = RingOscillator::new(
            RoStyle::Conventional,
            5,
            DiePosition::new(0.5, 0.5),
            &tech,
            &mut rng_a,
        );
        let aro = RingOscillator::new(
            RoStyle::AgingResistant,
            5,
            DiePosition::new(0.5, 0.5),
            &tech,
            &mut rng_b,
        );
        let fc = conv.frequency(&tech, &env, &chip);
        let fa = aro.frequency(&tech, &env, &chip);
        assert!(fa < fc);
        assert!(
            (fc / fa - tech.aro_load_factor).abs() < 1e-9,
            "ratio = {}",
            fc / fa
        );
    }

    #[test]
    fn rings_of_one_chip_differ_in_frequency() {
        let (tech, env, chip, _) = setup();
        let dom = SeedDomain::new(33);
        let mut rng = dom.rng(0);
        let a = RingOscillator::new(
            RoStyle::Conventional,
            5,
            DiePosition::new(0.2, 0.2),
            &tech,
            &mut rng,
        );
        let b = RingOscillator::new(
            RoStyle::Conventional,
            5,
            DiePosition::new(0.8, 0.8),
            &tech,
            &mut rng,
        );
        let fa = a.frequency(&tech, &env, &chip);
        let fb = b.frequency(&tech, &env, &chip);
        assert!(
            (fa - fb).abs() / fa > 1e-4,
            "mismatch must separate rings: {fa} vs {fb}"
        );
    }

    #[test]
    fn conventional_idle_stress_slows_the_ring() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 34);
        let fresh = ro.frequency(&tech, &env, &chip);
        idle(&mut ro, &tech, &models, 25.0, 10.0 * YEAR);
        let aged = ro.frequency(&tech, &env, &chip);
        assert!(aged < fresh);
        let degradation = (fresh - aged) / fresh;
        assert!(
            degradation > 0.01,
            "ten idle years must cost >1 %: {degradation}"
        );
    }

    #[test]
    fn aro_idle_stress_is_far_smaller() {
        let (tech, env, chip, models) = setup();
        let (mut conv, _) = make_ring(RoStyle::Conventional, 35);
        let (mut aro, _) = make_ring(RoStyle::AgingResistant, 35);
        let f_conv = conv.frequency(&tech, &env, &chip);
        let f_aro = aro.frequency(&tech, &env, &chip);
        idle(&mut conv, &tech, &models, 25.0, 10.0 * YEAR);
        idle(&mut aro, &tech, &models, 25.0, 10.0 * YEAR);
        let d_conv = (f_conv - conv.frequency(&tech, &env, &chip)) / f_conv;
        let d_aro = (f_aro - aro.frequency(&tech, &env, &chip)) / f_aro;
        assert!(
            d_aro < 0.25 * d_conv,
            "ARO degradation {d_aro} must be well under conventional {d_conv}"
        );
    }

    #[test]
    fn conventional_idle_stresses_alternating_devices() {
        let (tech, _, _, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 36);
        idle(&mut ro, &tech, &models, 25.0, YEAR);
        for (i, stage) in ro.stages().iter().enumerate() {
            let input_high = i == 0 || i % 2 == 1;
            let (bti_p, bti_n) = ro.stage_bti(i);
            let (pmos, nmos) = (stage.pmos().aging(), stage.nmos().aging());
            if input_high {
                assert!(nmos.dvth_bti(bti_n) > 0.0, "stage {i} NMOS stressed");
                assert_eq!(pmos.dvth_bti(bti_p), 0.0, "stage {i} PMOS spared");
            } else {
                assert!(pmos.dvth_bti(bti_p) > 0.0, "stage {i} PMOS stressed");
                assert_eq!(nmos.dvth_bti(bti_n), 0.0, "stage {i} NMOS spared");
            }
        }
    }

    #[test]
    fn active_stress_applies_hci_and_ac_bti_to_everything() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::AgingResistant, 37);
        active(&mut ro, &tech, &models, &env, &chip, 1.0);
        let hci_dvth = models.hci.dvth_equivalent(ro.hci_eq_cycles());
        for (i, stage) in ro.stages().iter().enumerate() {
            let (bti_p, bti_n) = ro.stage_bti(i);
            assert!(stage.pmos().aging().dvth_bti(bti_p) > 0.0);
            assert!(stage.nmos().aging().dvth_bti(bti_n) > 0.0);
            assert!(stage.pmos().aging().dvth_hci(hci_dvth) > 0.0);
        }
    }

    #[test]
    fn zero_duration_stress_is_a_no_op() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 38);
        let before = ro.clone();
        idle(&mut ro, &tech, &models, 25.0, 0.0);
        active(&mut ro, &tech, &models, &env, &chip, 0.0);
        assert_eq!(ro, before);
    }

    #[test]
    fn layout_bias_scales_frequency() {
        let (tech, env, chip, _) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 40);
        let base = ro.frequency(&tech, &env, &chip);
        ro.set_freq_bias_rel(0.01);
        assert!((ro.frequency(&tech, &env, &chip) / base - 1.01).abs() < 1e-12);
    }

    #[test]
    fn hot_and_low_vdd_environment_slows_ring() {
        let (tech, env, chip, _) = setup();
        let (ro, _) = make_ring(RoStyle::Conventional, 41);
        let nominal = ro.frequency(&tech, &env, &chip);
        let hot = ro.frequency(&tech, &Environment::new(85.0, env.vdd()), &chip);
        let droop = ro.frequency(
            &tech,
            &Environment::new(env.temp_celsius(), tech.vdd_nominal * 0.9),
            &chip,
        );
        assert!(hot < nominal);
        assert!(droop < nominal);
    }

    #[test]
    fn style_labels_and_display() {
        assert_eq!(RoStyle::Conventional.label(), "RO-PUF");
        assert_eq!(RoStyle::AgingResistant.to_string(), "ARO-PUF");
    }

    #[test]
    fn dead_ring_reads_zero_and_recovers_on_repair() {
        let (tech, env, chip, _) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 50);
        let fresh = ro.frequency(&tech, &env, &chip);
        assert!(ro.health().is_healthy());
        ro.set_health(RoHealth::Dead);
        assert_eq!(ro.frequency(&tech, &env, &chip), 0.0);
        ro.set_health(RoHealth::Healthy);
        assert_eq!(
            ro.frequency(&tech, &env, &chip).to_bits(),
            fresh.to_bits(),
            "repairing a fault must restore the physical model exactly"
        );
    }

    #[test]
    fn stuck_ring_ignores_environment_and_wear() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 51);
        ro.set_health(RoHealth::Stuck(1.0e9));
        assert_eq!(ro.frequency(&tech, &env, &chip), 1.0e9);
        idle(&mut ro, &tech, &models, 85.0, YEAR);
        assert_eq!(
            ro.frequency(&tech, &Environment::new(85.0, env.vdd()), &chip),
            1.0e9
        );
    }

    #[test]
    fn health_participates_in_equality_and_clone() {
        let (mut a, _) = make_ring(RoStyle::Conventional, 52);
        let b = a.clone();
        assert_eq!(a, b);
        a.set_health(RoHealth::Dead);
        assert_ne!(a, b, "a faulted ring is not equal to its healthy twin");
        let c = a.clone();
        assert_eq!(c.health(), RoHealth::Dead, "clone carries the fault");
    }

    #[test]
    fn frequency_is_a_pure_function_of_ring_and_conditions() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 43);
        let first = ro.frequency(&tech, &env, &chip);
        assert_eq!(first.to_bits(), ro.frequency(&tech, &env, &chip).to_bits());
        let epoch = ro.wear_epoch();
        idle(&mut ro, &tech, &models, 85.0, YEAR);
        assert!(ro.wear_epoch() > epoch, "stress must bump the wear epoch");
        assert!(ro.frequency(&tech, &env, &chip) < first);
    }

    #[test]
    fn wear_snapshot_roundtrip_is_bitwise_exact() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 60);
        active(&mut ro, &tech, &models, &env, &chip, 30.0);
        idle(&mut ro, &tech, &models, 45.0, YEAR);
        let aged_freq = ro.frequency(&tech, &env, &chip);
        let epoch = ro.wear_epoch();
        let (bti, hci) = ro.capture_wear();

        // Diverge, then restore: silicon, frequency, and epoch all return.
        let pristine = ro.clone();
        idle(&mut ro, &tech, &models, 85.0, YEAR);
        assert_ne!(ro, pristine);
        ro.restore_wear(bti, hci, epoch);
        assert_eq!(ro, pristine);
        assert_eq!(ro.wear_epoch(), epoch);
        assert_eq!(
            ro.frequency(&tech, &env, &chip).to_bits(),
            aged_freq.to_bits()
        );
    }

    #[test]
    fn reset_to_fabricated_matches_a_fresh_ring() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 61);
        let (fresh, _) = make_ring(RoStyle::Conventional, 61);
        active(&mut ro, &tech, &models, &env, &chip, 30.0);
        idle(&mut ro, &tech, &models, 85.0, 10.0 * YEAR);
        assert!(ro.frequency(&tech, &env, &chip) < fresh.frequency(&tech, &env, &chip));
        ro.set_health(RoHealth::Dead);
        ro.reset_to_fabricated();
        assert_eq!(ro, fresh);
        assert_eq!(ro.wear_epoch(), 0);
        assert_eq!(
            ro.frequency(&tech, &env, &chip).to_bits(),
            fresh.frequency(&tech, &env, &chip).to_bits()
        );
    }

    #[test]
    fn shared_stress_batches_match_per_ring_stress_bitwise() {
        // A chip drives many rings through ONE IdleStressBatch /
        // ActiveStressBatch; the memoized transitions must leave every
        // device bitwise identical to the unshared per-ring path.
        for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
            let (tech, env, chip, models) = setup();
            let mut rng_a = SeedDomain::new(46).rng(0);
            let mut rng_b = SeedDomain::new(46).rng(0);
            let make = |rng: &mut _| {
                (0..4)
                    .map(|_| RingOscillator::new(style, 5, DiePosition::new(0.5, 0.5), &tech, rng))
                    .collect::<Vec<_>>()
            };
            let mut solo = make(&mut rng_a);
            let mut batched = make(&mut rng_b);

            for ro in &mut solo {
                active(ro, &tech, &models, &env, &chip, 30.0);
                idle(ro, &tech, &models, 45.0, YEAR);
            }
            let mut shared_active = ActiveStressBatch::new(&models, &env, 30.0);
            for ro in &mut batched {
                ro.stress_active(&mut shared_active, |ro| ro.frequency(&tech, &env, &chip));
            }
            let mut shared_idle =
                IdleStressBatch::new(style, &tech, &models, 45.0, tech.vdd_nominal, YEAR);
            for ro in &mut batched {
                ro.stress_idle(&mut shared_idle);
            }

            for (a, b) in solo.iter().zip(&batched) {
                assert_eq!(a, b, "{style:?}: shared batch diverged from solo stress");
                assert_eq!(
                    a.frequency(&tech, &env, &chip).to_bits(),
                    b.frequency(&tech, &env, &chip).to_bits()
                );
            }
        }
    }

    #[test]
    fn hci_wear_participates_in_equality() {
        // Two rings with the same BTI and a different HCI count are
        // different silicon states: equality must see the ring's HCI
        // field, or every chip comparison stops checking HCI.
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::AgingResistant, 62);
        active(&mut ro, &tech, &models, &env, &chip, 30.0);
        let (bti, hci) = ro.capture_wear();
        assert!(hci > 0.0, "oscillation accumulates HCI cycles");
        let mut twin = ro.clone();
        twin.restore_wear(bti, 2.0 * hci, ro.wear_epoch());
        assert_ne!(twin, ro, "the HCI count is part of the ring's state");
        assert!(twin.frequency(&tech, &env, &chip) < ro.frequency(&tech, &env, &chip));
        twin.restore_wear(bti, hci, ro.wear_epoch());
        assert_eq!(twin, ro);
    }

    #[test]
    fn stress_classes_match_a_per_device_reference() {
        // Every device's raw BTI shift, read through its stress class,
        // against a reference that keeps one accumulator per device and
        // states the idle node pattern itself (module docs): a disabled
        // conventional ring holds stage 0 and the odd stages at input 1
        // (NMOS under PBTI), the other even stages at input 0 (PMOS under
        // NBTI); an ARO ring stresses every device at the residual duty.
        // It also counts the stressed device-intervals that
        // `device.bti_applies` must book. One idle interval runs in a
        // technology without PBTI, so only its PMOS classes advance and
        // the two polarities book different counts.
        let (tech, env, chip, models) = setup();
        let hot = Environment::new(85.0, tech.vdd_nominal);
        let no_pbti = TechParams {
            pbti_a: 0.0,
            ..tech.clone()
        };
        aro_obs::set_enabled(true);
        for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
            for n_stages in [5, 7] {
                let mut rng = SeedDomain::new(70 + n_stages as u64).rng(0);
                let mut ro = RingOscillator::new(
                    style,
                    n_stages,
                    DiePosition::new(0.4, 0.6),
                    &tech,
                    &mut rng,
                );
                // Per stage: (PMOS, NMOS) raw shift.
                let mut reference = vec![(0.0f64, 0.0f64); n_stages];
                let mut stressed: u64 = 0;
                let mut apply = |raw: &mut f64, model: &BtiModel, interval: &StressInterval| {
                    let (n, k) = (model.time_exp(), model.k_eff(interval));
                    if k <= 0.0 || interval.duration_s <= 0.0 {
                        return;
                    }
                    let t_eq = if *raw == 0.0 {
                        0.0
                    } else {
                        (*raw / k).powf(1.0 / n)
                    };
                    *raw = k * (t_eq + interval.duration_s).powf(n);
                    stressed += 1;
                };
                let applies_before = aro_obs::snapshot().counter("device.bti_applies");
                for (idle_tech, temp, years, active_env, active_s) in [
                    (&tech, 25.0, 1.0, env, 30.0),
                    (&tech, 85.0, 2.0, hot, 10.0),
                    (&no_pbti, 45.0, 1.0, env, 0.0),
                    (&tech, 25.0, 0.5, env, 5.0),
                ] {
                    let idle_models = AgingModels::new(idle_tech);
                    idle(&mut ro, idle_tech, &idle_models, temp, years * YEAR);
                    let interval = match style {
                        RoStyle::Conventional => {
                            StressInterval::static_dc(years * YEAR, temp, tech.vdd_nominal)
                        }
                        RoStyle::AgingResistant => StressInterval::duty_cycled(
                            years * YEAR,
                            temp,
                            tech.vdd_nominal,
                            tech.aro_idle_stress_fraction,
                        ),
                    };
                    for (i, (pmos, nmos)) in reference.iter_mut().enumerate() {
                        let input_high = i == 0 || i % 2 == 1;
                        if style == RoStyle::AgingResistant || !input_high {
                            apply(pmos, &idle_models.nbti, &interval);
                        }
                        if style == RoStyle::AgingResistant || input_high {
                            apply(nmos, &idle_models.pbti, &interval);
                        }
                    }

                    active(&mut ro, &tech, &models, &active_env, &chip, active_s);
                    let interval = StressInterval::oscillating(
                        active_s,
                        active_env.temp_celsius(),
                        active_env.vdd(),
                    );
                    for (pmos, nmos) in &mut reference {
                        apply(pmos, &models.nbti, &interval);
                        apply(nmos, &models.pbti, &interval);
                    }
                }
                for (i, &(pmos, nmos)) in reference.iter().enumerate() {
                    let (bti_p, bti_n) = ro.stage_bti(i);
                    assert_eq!(
                        bti_p.to_bits(),
                        pmos.to_bits(),
                        "{style:?}/{n_stages}: stage {i} PMOS"
                    );
                    assert_eq!(
                        bti_n.to_bits(),
                        nmos.to_bits(),
                        "{style:?}/{n_stages}: stage {i} NMOS"
                    );
                }
                assert_eq!(
                    aro_obs::snapshot().counter("device.bti_applies") - applies_before,
                    stressed,
                    "{style:?}/{n_stages}: device-intervals booked"
                );
            }
        }
    }

    #[test]
    fn ring_state_stays_small() {
        // Every ring of every chip pays for itself and its stages, up to
        // 57 630 rings per chip: a field added back per device costs ten
        // times over. A 5-stage ring is its 128-byte array slot (four BTI
        // classes, one HCI count) and five 64-byte stages.
        let ring = size_of::<RingOscillator>() + 5 * size_of::<InverterStage>();
        assert!(ring <= 448, "{ring}");
    }
}
