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
//! idle state treats every stage alike, two (one per polarity). A chip
//! drives all of its rings, of one style and stage count, through the same
//! intervals, so the chip keeps one raw accumulator per class for all of
//! them: a stress batch advances that array once per interval
//! ([`IdleStressBatch::advance`]), and a ring reads it through
//! [`RingOscillator::frequency`].

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

/// One idle-stress interval, prefactored once per chip.
///
/// The Arrhenius/voltage acceleration of an interval depends only on the
/// interval itself — never on the device — so a chip evaluates it once,
/// advances its stress classes through it once
/// ([`IdleStressBatch::advance`]) and hands the same batch to all of its
/// rings via [`RingOscillator::stress_idle`].
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

    /// Advances a chip's stress classes `bti` through the interval
    /// (module docs) and returns the device-intervals it stresses on each
    /// of the chip's `n_stages`-stage rings. The disabled conventional
    /// chain puts full DC PBTI on the NMOS of its input-high stages (stage
    /// 0 and the `n / 2` odd ones; `n` is odd) and full DC NBTI on the PMOS
    /// of the other `n / 2`; the ARO cell stresses every device at the
    /// leakage-level residual duty [`TechParams::aro_idle_stress_fraction`].
    pub fn advance(&self, bti: &mut [f64; 4], n_stages: usize) -> u64 {
        let n = n_stages as u64;
        match self.style {
            RoStyle::Conventional => {
                (n / 2 + 1) * u64::from(self.pbti.apply(&mut bti[NMOS + HIGH]))
                    + n / 2 * u64::from(self.nbti.apply(&mut bti[PMOS]))
            }
            RoStyle::AgingResistant => {
                n * u64::from(self.nbti.apply(&mut bti[PMOS]))
                    + n * u64::from(self.pbti.apply(&mut bti[NMOS]))
            }
        }
    }
}

/// One oscillation-stress interval, prefactored once per chip (see
/// [`IdleStressBatch`]).
///
/// BTI under oscillation depends only on the interval, so a chip advances
/// its stress classes once; HCI depends on each ring's own cycle count, so
/// only its voltage acceleration factor is hoisted.
#[derive(Debug, Clone)]
pub struct ActiveStressBatch {
    style: RoStyle,
    duration_s: f64,
    /// NBTI transitions for PMOS classes under 50 %-duty AC stress.
    nbti: BtiBatch,
    /// PBTI transitions for NMOS classes under 50 %-duty AC stress.
    pbti: BtiBatch,
    /// Per-cycle HCI equivalence factor at the interval's supply.
    hci_factor: f64,
}

impl ActiveStressBatch {
    /// Prefactors one oscillation interval under `env` for rings of
    /// `style`.
    #[must_use]
    pub fn new(style: RoStyle, models: &AgingModels, env: &Environment, duration_s: f64) -> Self {
        let interval = StressInterval::oscillating(duration_s, env.temp_celsius(), env.vdd());
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
            hci_factor: models.hci.equivalent_cycle_factor(env.vdd()),
        }
    }

    /// Advances a chip's stress classes `bti` through the interval and
    /// returns the device-intervals it stresses on each of the chip's
    /// `n_stages`-stage rings: 50 %-duty AC BTI on every class.
    pub fn advance(&self, bti: &mut [f64; 4], n_stages: usize) -> u64 {
        let n = n_stages as u64;
        match self.style {
            RoStyle::Conventional => {
                let (high, low) = (n / 2 + 1, n / 2);
                high * u64::from(self.nbti.apply(&mut bti[PMOS + HIGH]))
                    + high * u64::from(self.pbti.apply(&mut bti[NMOS + HIGH]))
                    + low * u64::from(self.nbti.apply(&mut bti[PMOS]))
                    + low * u64::from(self.pbti.apply(&mut bti[NMOS]))
            }
            RoStyle::AgingResistant => {
                n * u64::from(self.nbti.apply(&mut bti[PMOS]))
                    + n * u64::from(self.pbti.apply(&mut bti[NMOS]))
            }
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

/// Offsets of the PMOS and the NMOS classes in a chip's BTI accumulators:
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
/// The ring holds only the wear that differs between rings: one HCI
/// equivalent-cycle count, since every device switches at the ring's
/// frequency. Its BTI wear is the chip's stress classes (module docs), which
/// its devices scale by their fabrication-time multipliers.
#[derive(Debug, Clone)]
pub struct RingOscillator {
    style: RoStyle,
    stages: Vec<InverterStage>,
    position: DiePosition,
    freq_bias_rel: f64,
    correlated_dvth: f64,
    health: RoHealth,
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
        // `hci_eq_cycles` and the chip's classes carry the wear history.
        self.style == other.style
            && self.stages == other.stages
            && self.position == other.position
            && self.freq_bias_rel == other.freq_bias_rel
            && self.correlated_dvth == other.correlated_dvth
            && self.health == other.health
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
    /// accumulators of their stress classes among the chip's `bti`.
    #[must_use]
    pub fn stage_bti(&self, bti: &[f64; 4], index: usize) -> (f64, f64) {
        let level = idle_level(self.style, index);
        (bti[PMOS + level], bti[NMOS + level])
    }

    /// Accumulated HCI wear shared by every device of this ring, in
    /// reference-condition equivalent cycles; a read turns it into the raw
    /// shift with [`HciModel::dvth_equivalent`].
    #[must_use]
    pub fn hci_eq_cycles(&self) -> f64 {
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
    /// with process realization `chip` and BTI stress classes `bti`,
    /// including mismatch, systematic variation, layout bias, and all
    /// accumulated wear — the uncached reference derivation (see
    /// [`FreqContext`]). It books no telemetry.
    ///
    /// A hard-faulted ring short-circuits the physical model: `Dead` reads
    /// 0 Hz, `Stuck` reads its fixed frequency.
    #[must_use]
    pub fn frequency(
        &self,
        tech: &TechParams,
        env: &Environment,
        chip: &ChipProcess,
        bti: &[f64; 4],
    ) -> f64 {
        match self.health {
            RoHealth::Healthy => FreqContext::new(self.style, tech, env, chip, bti).derive(self),
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

    /// This ring's share of one *idle* interval whose batch advanced the
    /// chip's stress classes to `bti`, stressing `bti_applies` devices of
    /// each ring ([`IdleStressBatch::advance`]): the ring bumps its wear
    /// epoch, books the devices in one `device.bti_applies` bump
    /// (device-intervals) and streams its drift point. The batch must have
    /// been built for this ring's style.
    pub fn stress_idle(&mut self, batch: &IdleStressBatch, bti: &[f64; 4], bti_applies: u64) {
        debug_assert_eq!(batch.style, self.style, "batch built for another style");
        if batch.duration_s <= 0.0 {
            return;
        }
        self.bump_wear_epoch();
        self.book_bti(bti, bti_applies);
    }

    /// This ring's share of one *oscillation* interval (a measurement
    /// window), as [`RingOscillator::stress_idle`] for the chip's
    /// post-interval classes `bti`, plus HCI proportional to the ring's
    /// own number of transitions.
    ///
    /// `frequency` supplies the ring's frequency under the interval's
    /// environment and the chip's *pre*-interval classes — a chip reads it
    /// through its kernel cache. It is called once, before the wear epoch
    /// moves, and not at all for an empty interval.
    pub fn stress_active(
        &mut self,
        batch: &ActiveStressBatch,
        bti: &[f64; 4],
        bti_applies: u64,
        frequency: impl FnOnce(&Self) -> f64,
    ) {
        debug_assert_eq!(batch.style, self.style, "batch built for another style");
        if batch.duration_s <= 0.0 {
            return;
        }
        let freq = frequency(self);
        self.bump_wear_epoch();
        self.book_bti(bti, bti_applies);
        let cycles = freq * batch.duration_s;
        if cycles <= 0.0 {
            return;
        }
        self.hci_eq_cycles += cycles * batch.hci_factor;
        // `device.hci_applies` counts device-intervals: every device of
        // the ring took this interval's HCI wear.
        aro_obs::counter("device.hci_applies", 2 * self.stages.len() as u64);
    }

    /// Books `bti_applies` stressed device-intervals and streams this
    /// ring's mean BTI threshold shift (mV, across all devices, each its
    /// class's raw shift in `bti` times its own multiplier) into the
    /// drift-vs-age sketch — one point per *sampled* stress interval (see
    /// `obs_sampled`), so the sketch traces how hard the fleet has aged
    /// without paying the per-device sum on every batch.
    fn book_bti(&self, bti: &[f64; 4], bti_applies: u64) {
        if bti_applies == 0 {
            return;
        }
        aro_obs::counter("device.bti_applies", bti_applies);
        if !self.obs_sampled() {
            return;
        }
        let mut dvth_sum = 0.0;
        for (index, stage) in self.stages.iter().enumerate() {
            let (bti_p, bti_n) = self.stage_bti(bti, index);
            dvth_sum += stage.pmos().aging().dvth_bti(bti_p) + stage.nmos().aging().dvth_bti(bti_n);
        }
        #[allow(clippy::cast_precision_loss)]
        let n_devices = (2 * self.stages.len()) as f64;
        aro_obs::sketch("device.bti_dvth_mv", dvth_sum / n_devices * 1e3);
    }

    /// Restores this ring's own wear, its HCI equivalent cycles as
    /// [`RingOscillator::hci_eq_cycles`] read them, and pins the wear
    /// epoch. A caller that caches this ring's frequency must
    /// drop the ring's entries: the epoch counter alone cannot distinguish
    /// two histories that happen to share an epoch value, e.g. across
    /// reused workspace chips.
    pub fn restore_wear(&mut self, hci_eq_cycles: f64, wear_epoch: u64) {
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

    /// The stress classes of a chip that has not aged.
    const FRESH: [f64; 4] = [0.0; 4];

    /// One idle interval at nominal supply on a ring alone on its chip,
    /// whose stress classes are `bti`.
    fn idle(
        ro: &mut RingOscillator,
        bti: &mut [f64; 4],
        tech: &TechParams,
        models: &AgingModels,
        temp_celsius: f64,
        duration_s: f64,
    ) {
        let batch = IdleStressBatch::new(
            ro.style(),
            tech,
            models,
            temp_celsius,
            tech.vdd_nominal,
            duration_s,
        );
        let applies = batch.advance(bti, ro.n_stages());
        ro.stress_idle(&batch, bti, applies);
    }

    /// One oscillation interval on a ring alone on its chip, at the ring's
    /// uncached frequency under the pre-interval classes.
    fn active(
        ro: &mut RingOscillator,
        bti: &mut [f64; 4],
        tech: &TechParams,
        models: &AgingModels,
        env: &Environment,
        chip: &ChipProcess,
        duration_s: f64,
    ) {
        let batch = ActiveStressBatch::new(ro.style(), models, env, duration_s);
        let freq = ro.frequency(tech, env, chip, bti);
        let applies = batch.advance(bti, ro.n_stages());
        ro.stress_active(&batch, bti, applies, |_| freq);
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
        let f = ro.frequency(&tech, &env, &chip, &FRESH);
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
        let fc = conv.frequency(&tech, &env, &chip, &FRESH);
        let fa = aro.frequency(&tech, &env, &chip, &FRESH);
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
        let fa = a.frequency(&tech, &env, &chip, &FRESH);
        let fb = b.frequency(&tech, &env, &chip, &FRESH);
        assert!(
            (fa - fb).abs() / fa > 1e-4,
            "mismatch must separate rings: {fa} vs {fb}"
        );
    }

    #[test]
    fn conventional_idle_stress_slows_the_ring() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 34);
        let fresh = ro.frequency(&tech, &env, &chip, &FRESH);
        let mut bti = FRESH;
        idle(&mut ro, &mut bti, &tech, &models, 25.0, 10.0 * YEAR);
        let aged = ro.frequency(&tech, &env, &chip, &bti);
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
        let f_conv = conv.frequency(&tech, &env, &chip, &FRESH);
        let f_aro = aro.frequency(&tech, &env, &chip, &FRESH);
        let (mut bti_conv, mut bti_aro) = (FRESH, FRESH);
        idle(&mut conv, &mut bti_conv, &tech, &models, 25.0, 10.0 * YEAR);
        idle(&mut aro, &mut bti_aro, &tech, &models, 25.0, 10.0 * YEAR);
        let d_conv = (f_conv - conv.frequency(&tech, &env, &chip, &bti_conv)) / f_conv;
        let d_aro = (f_aro - aro.frequency(&tech, &env, &chip, &bti_aro)) / f_aro;
        assert!(
            d_aro < 0.25 * d_conv,
            "ARO degradation {d_aro} must be well under conventional {d_conv}"
        );
    }

    #[test]
    fn conventional_idle_stresses_alternating_devices() {
        let (tech, _, _, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 36);
        let mut bti = FRESH;
        idle(&mut ro, &mut bti, &tech, &models, 25.0, YEAR);
        for (i, stage) in ro.stages().iter().enumerate() {
            let input_high = i == 0 || i % 2 == 1;
            let (bti_p, bti_n) = ro.stage_bti(&bti, i);
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
        let mut bti = FRESH;
        active(&mut ro, &mut bti, &tech, &models, &env, &chip, 1.0);
        let hci_dvth = models.hci.dvth_equivalent(ro.hci_eq_cycles());
        for (i, stage) in ro.stages().iter().enumerate() {
            let (bti_p, bti_n) = ro.stage_bti(&bti, i);
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
        let mut bti = FRESH;
        idle(&mut ro, &mut bti, &tech, &models, 25.0, 0.0);
        active(&mut ro, &mut bti, &tech, &models, &env, &chip, 0.0);
        assert_eq!(ro, before);
        assert_eq!(ro.wear_epoch(), 0);
        assert_eq!(bti, FRESH);
    }

    #[test]
    fn layout_bias_scales_frequency() {
        let (tech, env, chip, _) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 40);
        let base = ro.frequency(&tech, &env, &chip, &FRESH);
        ro.set_freq_bias_rel(0.01);
        assert!((ro.frequency(&tech, &env, &chip, &FRESH) / base - 1.01).abs() < 1e-12);
    }

    #[test]
    fn hot_and_low_vdd_environment_slows_ring() {
        let (tech, env, chip, _) = setup();
        let (ro, _) = make_ring(RoStyle::Conventional, 41);
        let nominal = ro.frequency(&tech, &env, &chip, &FRESH);
        let hot = ro.frequency(&tech, &Environment::new(85.0, env.vdd()), &chip, &FRESH);
        let droop = ro.frequency(
            &tech,
            &Environment::new(env.temp_celsius(), tech.vdd_nominal * 0.9),
            &chip,
            &FRESH,
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
        let fresh = ro.frequency(&tech, &env, &chip, &FRESH);
        assert!(ro.health().is_healthy());
        ro.set_health(RoHealth::Dead);
        assert_eq!(ro.frequency(&tech, &env, &chip, &FRESH), 0.0);
        ro.set_health(RoHealth::Healthy);
        assert_eq!(
            ro.frequency(&tech, &env, &chip, &FRESH).to_bits(),
            fresh.to_bits(),
            "repairing a fault must restore the physical model exactly"
        );
    }

    #[test]
    fn stuck_ring_ignores_environment_and_wear() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 51);
        ro.set_health(RoHealth::Stuck(1.0e9));
        assert_eq!(ro.frequency(&tech, &env, &chip, &FRESH), 1.0e9);
        let mut bti = FRESH;
        idle(&mut ro, &mut bti, &tech, &models, 85.0, YEAR);
        assert_eq!(
            ro.frequency(&tech, &Environment::new(85.0, env.vdd()), &chip, &bti),
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
        let first = ro.frequency(&tech, &env, &chip, &FRESH);
        assert_eq!(
            first.to_bits(),
            ro.frequency(&tech, &env, &chip, &FRESH).to_bits()
        );
        let epoch = ro.wear_epoch();
        let mut bti = FRESH;
        idle(&mut ro, &mut bti, &tech, &models, 85.0, YEAR);
        assert!(ro.wear_epoch() > epoch, "stress must bump the wear epoch");
        assert!(ro.frequency(&tech, &env, &chip, &bti) < first);
    }

    #[test]
    fn wear_snapshot_roundtrip_is_bitwise_exact() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 60);
        let mut bti = FRESH;
        active(&mut ro, &mut bti, &tech, &models, &env, &chip, 30.0);
        idle(&mut ro, &mut bti, &tech, &models, 45.0, YEAR);
        let aged_freq = ro.frequency(&tech, &env, &chip, &bti);
        let (hci, epoch) = (ro.hci_eq_cycles(), ro.wear_epoch());

        // Diverge, then restore: silicon, frequency, and epoch all return.
        let pristine = ro.clone();
        active(&mut ro, &mut bti.clone(), &tech, &models, &env, &chip, 30.0);
        assert_ne!(ro, pristine);
        ro.restore_wear(hci, epoch);
        assert_eq!(ro, pristine);
        assert_eq!(ro.wear_epoch(), epoch);
        assert_eq!(
            ro.frequency(&tech, &env, &chip, &bti).to_bits(),
            aged_freq.to_bits()
        );
    }

    #[test]
    fn reset_to_fabricated_matches_a_fresh_ring() {
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::Conventional, 61);
        let (fresh, _) = make_ring(RoStyle::Conventional, 61);
        let mut bti = FRESH;
        active(&mut ro, &mut bti, &tech, &models, &env, &chip, 30.0);
        idle(&mut ro, &mut bti, &tech, &models, 85.0, 10.0 * YEAR);
        assert!(
            ro.frequency(&tech, &env, &chip, &bti) < fresh.frequency(&tech, &env, &chip, &FRESH)
        );
        ro.set_health(RoHealth::Dead);
        ro.reset_to_fabricated();
        assert_eq!(ro, fresh);
        assert_eq!(ro.wear_epoch(), 0);
        assert_eq!(
            ro.frequency(&tech, &env, &chip, &FRESH).to_bits(),
            fresh.frequency(&tech, &env, &chip, &FRESH).to_bits()
        );
    }

    #[test]
    fn hci_wear_participates_in_equality() {
        // Two rings with the same classes and a different HCI count are
        // different silicon states: equality must see the ring's HCI
        // field, or every chip comparison stops checking HCI.
        let (tech, env, chip, models) = setup();
        let (mut ro, _) = make_ring(RoStyle::AgingResistant, 62);
        let mut bti = FRESH;
        active(&mut ro, &mut bti, &tech, &models, &env, &chip, 30.0);
        let hci = ro.hci_eq_cycles();
        assert!(hci > 0.0, "oscillation accumulates HCI cycles");
        let mut twin = ro.clone();
        twin.restore_wear(2.0 * hci, ro.wear_epoch());
        assert_ne!(twin, ro, "the HCI count is part of the ring's state");
        assert!(twin.frequency(&tech, &env, &chip, &bti) < ro.frequency(&tech, &env, &chip, &bti));
        twin.restore_wear(hci, ro.wear_epoch());
        assert_eq!(twin, ro);
    }

    #[test]
    fn ring_state_stays_small() {
        // Every ring of every chip pays for itself and its stages, up to
        // 57 630 rings per chip: a field added back per device costs ten
        // times over. A 5-stage ring is its 96-byte array slot (one HCI
        // count; the BTI classes are the chip's) and five 64-byte stages.
        let ring = size_of::<RingOscillator>() + 5 * size_of::<InverterStage>();
        assert!(ring <= 416, "{ring}");
    }
}
