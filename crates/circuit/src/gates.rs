//! Transistor instances and CMOS stage delay.
//!
//! A [`TransistorInst`] is one *physical* transistor: its
//! fabrication-sampled mismatch and aging-variability multipliers, and
//! nothing else. The nominal device it deviates from is the same for every
//! transistor of one polarity, because every ring is drawn at
//! [`Geometry::default()`], so a read builds it once per polarity
//! ([`FreqContext`](crate::kernel::FreqContext)) instead of every
//! transistor storing a copy. Its wear is the same for every transistor of
//! one stress class of a ring, so the ring holds it
//! ([`RingOscillator`](crate::ring::RingOscillator)) and hands each device
//! the raw shifts to scale.
//!
//! An [`InverterStage`] is a complementary pair driving the next stage's
//! load; its topology follows from its index in the ring
//! ([`StageKind::of_stage`]). Its pull-up/pull-down delays come straight
//! from the alpha-power drive currents, so every effect in the device layer
//! (mismatch, BTI, HCI, temperature, supply droop) propagates into ring
//! frequency with no extra fitting.

use aro_device::aging::TransistorAging;
use aro_device::environment::Environment;
use aro_device::mosfet::{Geometry, MosType, Mosfet};
use aro_device::params::TechParams;
use aro_device::process::DeviceVariation;
use rand::Rng;

/// The nominal device of polarity `mos_type` that every ring transistor is
/// drawn at: [`Geometry::default()`] in `tech`. It draws no randomness, so
/// a read builds it on demand.
#[must_use]
pub(crate) fn nominal_device(mos_type: MosType, tech: &TechParams) -> Mosfet {
    Mosfet::new(mos_type, Geometry::default(), tech)
}

/// One physical transistor: sampled mismatch + aging variability.
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorInst {
    variation: DeviceVariation,
    aging: TransistorAging,
}

impl TransistorInst {
    /// Fabricates a transistor at the ring geometry: samples its Pelgrom
    /// mismatch and its aging-variability multipliers from `rng`.
    pub fn fabricate<R: Rng + ?Sized>(tech: &TechParams, rng: &mut R) -> Self {
        Self {
            variation: DeviceVariation::sample(tech, Geometry::default(), rng),
            aging: TransistorAging::with_variability(rng, tech.sigma_aging_rel),
        }
    }

    /// This transistor's fabrication-time mismatch.
    #[must_use]
    pub fn variation(&self) -> DeviceVariation {
        self.variation
    }

    /// This transistor's aging-variability multipliers.
    #[must_use]
    pub fn aging(&self) -> &TransistorAging {
        &self.aging
    }

    /// Total threshold shift of this instance in volts: mismatch +
    /// chip-systematic component + BTI + HCI. `bti_dvth` is the raw BTI
    /// shift of this device's stress class and `hci_dvth` the ring's raw
    /// HCI shift
    /// ([`HciModel::dvth_equivalent`](aro_device::aging::HciModel::dvth_equivalent)
    /// of its equivalent cycles); this device scales each by its own
    /// multiplier.
    #[must_use]
    pub fn dvth_total(&self, systematic_dvth: f64, bti_dvth: f64, hci_dvth: f64) -> f64 {
        self.variation.dvth
            + systematic_dvth
            + self.aging.dvth_bti(bti_dvth)
            + self.aging.dvth_hci(hci_dvth)
    }

    /// Drive current in amperes under `env` of this transistor as a
    /// `mos_type` device, including every variation and wear source.
    /// `bti_dvth` and `hci_dvth` are the raw wear shifts (see
    /// [`Self::dvth_total`]), `interdie_dvth`/`interdie_dbeta_rel` the die
    /// common-mode shifts and `systematic_dvth` the within-die surface value
    /// at this transistor's location.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn drive_current(
        &self,
        mos_type: MosType,
        tech: &TechParams,
        env: &Environment,
        bti_dvth: f64,
        hci_dvth: f64,
        interdie_dvth: f64,
        interdie_dbeta_rel: f64,
        systematic_dvth: f64,
    ) -> f64 {
        let dvth = interdie_dvth + self.dvth_total(systematic_dvth, bti_dvth, hci_dvth);
        let dbeta = self.variation.dbeta_rel + interdie_dbeta_rel;
        nominal_device(mos_type, tech).drive_current_with_mismatch(tech, env, dvth, dbeta)
    }
}

/// The logic function of a ring stage. The enable gate of a conventional RO
/// is a NAND whose series NMOS stack slows its pull-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Plain CMOS inverter.
    Inverter,
    /// 2-input NAND used as the enable gate (first stage of a conventional
    /// ring). The stacked NMOS pair pulls down ~1.5× slower.
    EnableNand,
}

impl StageKind {
    /// The topology of stage `index` of a ring: stage 0 is the enable NAND,
    /// the rest are inverters.
    #[must_use]
    pub fn of_stage(index: usize) -> Self {
        if index == 0 {
            Self::EnableNand
        } else {
            Self::Inverter
        }
    }

    /// Pull-down delay penalty of the stage topology (series NMOS stack).
    #[must_use]
    pub fn pulldown_penalty(self) -> f64 {
        match self {
            Self::Inverter => 1.0,
            Self::EnableNand => 1.5,
        }
    }

    /// Transistor count of the stage topology.
    #[must_use]
    pub fn transistor_count(self) -> usize {
        match self {
            Self::Inverter => 2,
            Self::EnableNand => 4,
        }
    }
}

/// One ring stage: a complementary transistor pair. Its topology is not
/// stored; it follows from the stage's index ([`StageKind::of_stage`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InverterStage {
    pmos: TransistorInst,
    nmos: TransistorInst,
}

impl InverterStage {
    /// Fabricates a stage, sampling both transistors' mismatch from `rng`.
    pub fn fabricate<R: Rng + ?Sized>(tech: &TechParams, rng: &mut R) -> Self {
        Self {
            pmos: TransistorInst::fabricate(tech, rng),
            nmos: TransistorInst::fabricate(tech, rng),
        }
    }

    /// The pull-up transistor.
    #[must_use]
    pub fn pmos(&self) -> &TransistorInst {
        &self.pmos
    }

    /// The pull-down transistor.
    #[must_use]
    pub fn nmos(&self) -> &TransistorInst {
        &self.nmos
    }

    /// The time this stage, built as a `kind` stage, contributes to one
    /// full oscillation period, in seconds: one pull-up plus one pull-down
    /// of the load `c_load`. `bti_dvth` holds the raw BTI shifts of the
    /// PMOS's and the NMOS's stress classes, `hci_dvth` the ring's raw HCI
    /// shift.
    ///
    /// `t = C·Vdd/(2·I_p) + penalty·C·Vdd/(2·I_n)`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn period_contribution(
        &self,
        kind: StageKind,
        tech: &TechParams,
        env: &Environment,
        bti_dvth: (f64, f64),
        hci_dvth: f64,
        c_load: f64,
        interdie_dvth_p: f64,
        interdie_dvth_n: f64,
        interdie_dbeta_rel: f64,
        systematic_dvth: f64,
    ) -> f64 {
        let i_p = self.pmos.drive_current(
            MosType::Pmos,
            tech,
            env,
            bti_dvth.0,
            hci_dvth,
            interdie_dvth_p,
            interdie_dbeta_rel,
            systematic_dvth,
        );
        let i_n = self.nmos.drive_current(
            MosType::Nmos,
            tech,
            env,
            bti_dvth.1,
            hci_dvth,
            interdie_dvth_n,
            interdie_dbeta_rel,
            systematic_dvth,
        );
        let half_swing = c_load * env.vdd() / 2.0;
        half_swing / i_p + kind.pulldown_penalty() * half_swing / i_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_device::aging::{BtiBatch, BtiModel, HciModel, StressInterval};
    use aro_device::rng::SeedDomain;

    fn setup() -> (TechParams, Environment) {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        (tech, env)
    }

    #[test]
    fn fabricated_transistors_differ() {
        let (tech, _) = setup();
        let mut rng = SeedDomain::new(21).rng(0);
        let a = TransistorInst::fabricate(&tech, &mut rng);
        let b = TransistorInst::fabricate(&tech, &mut rng);
        assert_ne!(
            a.variation(),
            b.variation(),
            "mismatch must be per-instance"
        );
    }

    #[test]
    fn drive_current_includes_mismatch_and_aging() {
        let (tech, env) = setup();
        let mut rng = SeedDomain::new(22).rng(0);
        let t = TransistorInst::fabricate(&tech, &mut rng);
        let fresh = t.drive_current(MosType::Pmos, &tech, &env, 0.0, 0.0, 0.0, 0.0, 0.0);
        let nbti = BtiModel::nbti(&tech);
        let stress = StressInterval::static_dc(3.15e8, 25.0, tech.vdd_nominal);
        let mut raw = 0.0;
        BtiBatch::new(nbti.time_exp(), nbti.k_eff(&stress), stress.duration_s).apply(&mut raw);
        let aged = t.drive_current(MosType::Pmos, &tech, &env, raw, 0.0, 0.0, 0.0, 0.0);
        assert!(aged < fresh);
    }

    #[test]
    fn hci_slows_the_stage() {
        let (tech, env) = setup();
        let hci = HciModel::new(&tech);
        let mut rng = SeedDomain::new(24).rng(0);
        let t = TransistorInst::fabricate(&tech, &mut rng);
        let fresh = t.drive_current(MosType::Nmos, &tech, &env, 0.0, 0.0, 0.0, 0.0, 0.0);
        let raw = hci.dvth_equivalent(1e12 * hci.equivalent_cycle_factor(tech.vdd_nominal));
        assert!(t.drive_current(MosType::Nmos, &tech, &env, 0.0, raw, 0.0, 0.0, 0.0) < fresh);
    }

    #[test]
    fn nand_stage_is_slower_than_inverter() {
        let (tech, env) = setup();
        let mut rng = SeedDomain::new(25).rng(0);
        // Same devices, different topology: compare delay penalty only.
        let stage = InverterStage::fabricate(&tech, &mut rng);
        let delay = |kind| {
            stage.period_contribution(
                kind,
                &tech,
                &env,
                (0.0, 0.0),
                0.0,
                tech.c_stage,
                0.0,
                0.0,
                0.0,
                0.0,
            )
        };
        let d_inv = delay(StageKind::Inverter);
        let d_nand = delay(StageKind::EnableNand);
        assert!(d_nand > d_inv);
    }

    #[test]
    fn stage_delay_is_tens_of_picoseconds() {
        let (tech, env) = setup();
        let mut rng = SeedDomain::new(26).rng(0);
        let stage = InverterStage::fabricate(&tech, &mut rng);
        let d = stage.period_contribution(
            StageKind::Inverter,
            &tech,
            &env,
            (0.0, 0.0),
            0.0,
            tech.c_stage,
            0.0,
            0.0,
            0.0,
            0.0,
        );
        assert!(d > 1e-11 && d < 1e-9, "period contribution {d} s");
    }

    #[test]
    fn transistor_counts_match_topologies() {
        assert_eq!(StageKind::Inverter.transistor_count(), 2);
        assert_eq!(StageKind::EnableNand.transistor_count(), 4);
    }

    #[test]
    fn per_device_state_stays_small() {
        // Every stage of every ring of every chip pays these: a field added
        // back to each transistor is multiplied by two per stage, five to
        // seven stages per ring and up to 57 630 rings per chip. A
        // transistor is its mismatch (16 B) and its two multipliers (16 B).
        assert!(
            size_of::<TransistorInst>() <= 32,
            "{}",
            size_of::<TransistorInst>()
        );
        assert!(
            size_of::<InverterStage>() <= 64,
            "{}",
            size_of::<InverterStage>()
        );
    }
}
