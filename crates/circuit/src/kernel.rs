//! The frequency derivation of the ring-oscillator hot path.
//!
//! A ring's frequency is a pure function of *(technology, environment,
//! die process, ring silicon, wear state)*: the systematic ΔVth at the
//! ring's die position, and — per stage, per polarity — the effective
//! threshold, overdrive, drive factor and the `powf` of the alpha-power
//! law. A [`FreqContext`] holds what every ring of one die shares under
//! one read — the PMOS and NMOS nominal devices, the `HciModel`, the
//! mobility factor, the switched load and the die's BTI stress classes —
//! so a chip-wide read derives them once instead of once per ring. The
//! nominal devices live here, not in the rings: a transistor stores only
//! its mismatch and aging multipliers (see [`crate::gates`]), and `tech`
//! stays their one source. BTI wear is the chip's: each stage reads the
//! raw shift of its devices' stress classes from the context, fixed when
//! the read is resolved. HCI wear is the ring's: each ring reads one raw
//! HCI shift.
//!
//! The context does not cache results. The chip that owns a ring array
//! and its die process keeps the per-ring results (`aro_puf::Chip`, see
//! docs/PERFORMANCE.md, Layer 1); [`RingOscillator::frequency`] is the
//! uncached reference derivation.
//!
//! **Bit-identity contract:** [`FreqContext::derive`] evaluates the *same
//! floating-point expression chain, in the same order*, as the per-stage
//! path (`InverterStage::period_contribution` →
//! `Mosfet::drive_current_with_mismatch`, which builds its own nominal
//! devices), so a cached result is bitwise equal to what a cold
//! computation would produce. A unit test below compares the two bit for
//! bit; the golden-output regression test in the workspace root pins the
//! end-to-end bytes.

use aro_device::aging::HciModel;
use aro_device::environment::Environment;
use aro_device::mosfet::{MosType, Mosfet};
use aro_device::params::TechParams;
use aro_device::process::ChipProcess;

use crate::gates::{nominal_device, StageKind};
use crate::ring::{RingOscillator, RoStyle};

/// Everything a frequency derivation shares across the rings of one die
/// under one *(technology, environment)*, resolved once per read.
#[derive(Debug)]
pub struct FreqContext<'a> {
    style: RoStyle,
    tech: &'a TechParams,
    env: Environment,
    chip: ChipProcess,
    bti: [f64; 4],
    pmos: Mosfet,
    nmos: Mosfet,
    hci: HciModel,
    mobility: f64,
    c_load: f64,
}

impl<'a> FreqContext<'a> {
    /// Resolves the read context for rings of `style` on die `chip`, whose
    /// BTI stress classes hold `bti` (`crate::ring` module docs).
    #[must_use]
    pub fn new(
        style: RoStyle,
        tech: &'a TechParams,
        env: &Environment,
        chip: &ChipProcess,
        bti: &[f64; 4],
    ) -> Self {
        Self {
            style,
            tech,
            env: *env,
            chip: *chip,
            bti: *bti,
            pmos: nominal_device(MosType::Pmos, tech),
            nmos: nominal_device(MosType::Nmos, tech),
            hci: HciModel::new(tech),
            mobility: env.mobility_factor(tech),
            c_load: tech.c_stage * style.load_factor(tech),
        }
    }

    /// The environment of this read.
    #[must_use]
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The oscillation frequency in hertz of a *healthy* `ring` — hard
    /// faults are the caller's short-circuit. The float expression chain
    /// mirrors `period_contribution` / `drive_current_with_mismatch` term
    /// for term — do not "simplify" the arithmetic here, associativity
    /// changes bits.
    #[must_use]
    pub fn derive(&self, ring: &RingOscillator) -> f64 {
        debug_assert_eq!(ring.style(), self.style, "context built for another style");
        let (tech, env, chip) = (self.tech, &self.env, &self.chip);
        let systematic = chip.systematic_dvth(ring.position()) + ring.correlated_dvth();

        // The ring keeps one HCI equivalent-cycle count for all its
        // devices, so the raw HCI power law is evaluated once per ring.
        let hci_dvth = self.hci.dvth_equivalent(ring.hci_eq_cycles());

        let mut period_s = 0.0f64;
        for (index, stage) in ring.stages().iter().enumerate() {
            let (bti_p, bti_n) = ring.stage_bti(&self.bti, index);
            let pmos = stage.pmos();
            let dvth_p = chip.dvth_interdie_p() + pmos.dvth_total(systematic, bti_p, hci_dvth);
            let vth_p = self.pmos.vth_effective(tech, env, dvth_p);
            let od_p = tech.overdrive(env.vdd(), vth_p);
            let b_p = self.pmos.beta0()
                * (1.0 + (pmos.variation().dbeta_rel + chip.dbeta_interdie_rel()))
                * self.mobility;
            let cur_p = b_p * od_p.powf(tech.alpha);

            let nmos = stage.nmos();
            let dvth_n = chip.dvth_interdie_n() + nmos.dvth_total(systematic, bti_n, hci_dvth);
            let vth_n = self.nmos.vth_effective(tech, env, dvth_n);
            let od_n = tech.overdrive(env.vdd(), vth_n);
            let b_n = self.nmos.beta0()
                * (1.0 + (nmos.variation().dbeta_rel + chip.dbeta_interdie_rel()))
                * self.mobility;
            let cur_n = b_n * od_n.powf(tech.alpha);

            let half_swing = self.c_load * env.vdd() / 2.0;
            let penalty = StageKind::of_stage(index).pulldown_penalty();
            period_s += half_swing / cur_p + penalty * half_swing / cur_n;
        }
        (1.0 / period_s) * (1.0 + ring.freq_bias_rel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ActiveStressBatch, AgingModels, IdleStressBatch};
    use aro_device::process::DiePosition;
    use aro_device::rng::SeedDomain;
    use aro_device::units::YEAR;

    /// The bit-identity contract: `derive` equals the per-stage path
    /// summed stage by stage, to the last bit, on a sampled die, fresh
    /// and after idle BTI plus oscillation (HCI), cool and hot, for a
    /// 5- and a 7-stage ring. The reference builds its own nominal
    /// devices, evaluates the ring's raw HCI shift with its own model and
    /// states the topology rule itself: stage 0 is the enable NAND, as
    /// `RingOscillator::new` builds it. It reads each stage's class BTI
    /// like `derive` does; `aro_puf`'s chip tests check the class rule.
    #[test]
    fn derive_is_bitwise_the_per_stage_path() {
        let tech = TechParams::default();
        let models = AgingModels::new(&tech);
        let hci = HciModel::new(&tech);
        let nominal = Environment::nominal(&tech);
        let hot = Environment::new(85.0, tech.vdd_nominal);
        for (style, n_stages, seed) in [
            (RoStyle::Conventional, 5, 90),
            (RoStyle::AgingResistant, 5, 91),
            (RoStyle::Conventional, 7, 92),
            (RoStyle::AgingResistant, 7, 93),
        ] {
            let mut rng = SeedDomain::new(seed).rng(0);
            let chip = ChipProcess::sample(&tech, &mut rng);
            let position = DiePosition::new(0.3, 0.7);
            let mut ring = RingOscillator::new(style, n_stages, position, &tech, &mut rng);
            let mut bti = [0.0; 4];
            ring.set_freq_bias_rel(0.003);
            ring.set_correlated_dvth(0.002);
            for _ in 0..3 {
                for env in [nominal, hot] {
                    let systematic = chip.systematic_dvth(position) + ring.correlated_dvth();
                    let c_load = tech.c_stage * style.load_factor(&tech);
                    let hci_dvth = hci.dvth(ring.hci_eq_cycles(), tech.vdd_nominal);
                    let mut period = 0.0f64;
                    for (i, stage) in ring.stages().iter().enumerate() {
                        let kind = if i == 0 {
                            StageKind::EnableNand
                        } else {
                            StageKind::Inverter
                        };
                        period += stage.period_contribution(
                            kind,
                            &tech,
                            &env,
                            ring.stage_bti(&bti, i),
                            hci_dvth,
                            c_load,
                            chip.dvth_interdie_p(),
                            chip.dvth_interdie_n(),
                            chip.dbeta_interdie_rel(),
                            systematic,
                        );
                    }
                    let reference = (1.0 / period) * (1.0 + ring.freq_bias_rel());
                    let derived = FreqContext::new(style, &tech, &env, &chip, &bti).derive(&ring);
                    assert_eq!(
                        derived.to_bits(),
                        reference.to_bits(),
                        "{style:?} with {n_stages} stages at {env}"
                    );
                }
                let idle =
                    IdleStressBatch::new(style, &tech, &models, 45.0, tech.vdd_nominal, YEAR);
                let applies = idle.advance(&mut bti, n_stages);
                ring.stress_idle(&idle, &bti, applies);
                let freq = ring.frequency(&tech, &hot, &chip, &bti);
                let active = ActiveStressBatch::new(style, &models, &hot, 1.0);
                let applies = active.advance(&mut bti, n_stages);
                ring.stress_active(&active, &bti, applies, |_| freq);
            }
        }
    }
}
