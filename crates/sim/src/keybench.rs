//! The key bench: the silicon side of the product flow, built one way.
//!
//! EXP-8, both EXP-14 measures, EXP-15, EXP-16/19 and the serve sweep
//! run the same flow: provision the ECC for a style's p99 ten-year BER
//! ([`provision`]), fabricate chips of `2 × response_bits` rings, enroll
//! each on its golden response at nominal conditions, age it through the
//! typical mission and reconstruct. [`KeyBench`] owns the silicon half of
//! that decision. Each caller keeps its own design salt, so the
//! experiments that must share silicon (EXP-8 and EXP-15) name the same
//! salt and the rest stay independent.
//!
//! The bench holds no chips. Single-pass experiments stream one
//! [`KeyBench::chip`] at a time, which keeps paper-scale memory flat;
//! sweeps collect [`KeyBench::chips`] once and rewind them per trial with
//! [`Chip::reset_to_fabricated`]. A sweep's per-chip passes fan out
//! through `crate::popcache::par_map_chips`.

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_ecc::keygen::KeyGenerator;
use aro_metrics::bits::BitString;
use aro_puf::{Chip, MissionProfile, PairingStrategy, PufDesign};

use crate::config::SimConfig;
use crate::runner::puf_area_params;

/// The design, conditions and pairing every chip of one bench shares.
#[derive(Debug)]
pub(crate) struct KeyBench {
    /// `2 × generator.response_bits()` rings, seeded `cfg.seed ^ salt`.
    pub(crate) design: PufDesign,
    /// Nominal enrollment and read environment.
    pub(crate) env: Environment,
    /// The typical mission the chips age through.
    pub(crate) profile: MissionProfile,
    /// Neighbour pairs: one response bit per two rings.
    pub(crate) pairs: Vec<(usize, usize)>,
}

impl KeyBench {
    /// A bench of `style` sized for `generator`'s raw-bit budget, on the
    /// design seed `cfg.seed ^ salt`.
    #[must_use]
    pub(crate) fn new(
        cfg: &SimConfig,
        style: RoStyle,
        generator: &KeyGenerator,
        salt: u64,
    ) -> Self {
        let n_ros = 2 * generator.response_bits();
        let design = PufDesign::builder(style)
            .n_ros(n_ros)
            .seed(cfg.seed ^ salt)
            .build();
        Self {
            env: Environment::nominal(design.tech()),
            profile: MissionProfile::typical(design.tech()),
            pairs: PairingStrategy::Neighbor.pairs(n_ros),
            design,
        }
    }

    /// Chip `id` as fabricated, with its golden (enrollment) response.
    #[must_use]
    pub(crate) fn chip(&self, id: u64) -> (Chip, BitString) {
        let chip = Chip::fabricate(&self.design, id);
        let golden = chip.golden_response(&self.design, &self.env, &self.pairs);
        (chip, golden)
    }

    /// Chips `0..n` with their goldens, for sweeps that rewind them,
    /// fabricated and read on the `aro-par` workers.
    #[must_use]
    pub(crate) fn chips(&self, n: usize) -> Vec<(Chip, BitString)> {
        aro_par::par_build(n, |id| self.chip(id as u64))
    }
}

/// The p99 ten-year BER of `style` under `cfg` and the key generator
/// provisioned for it, `None` when no code in the search space meets
/// the config's key-failure target. Both halves are memoized per run
/// scope, so every experiment after the first reads them back.
#[must_use]
pub(crate) fn provision(cfg: &SimConfig, style: RoStyle) -> (f64, Option<KeyGenerator>) {
    let ber = crate::popcache::standard_flip_timeline(cfg, style).final_quantile(0.99);
    let params = puf_area_params(style, 5);
    let generator =
        crate::popcache::provisioned_generator(ber, cfg.key_bits, cfg.key_fail_target, &params);
    (ber, generator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_generator};

    #[test]
    fn a_bench_chip_is_fresh_silicon_with_its_golden() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let bench = KeyBench::new(&cfg, RoStyle::AgingResistant, &generator, 0xe2e);
        assert_eq!(bench.design.n_ros(), 2 * generator.response_bits());
        assert_eq!(bench.pairs.len(), generator.response_bits());
        let (chip, golden) = bench.chip(3);
        assert_eq!(chip, Chip::fabricate(&bench.design, 3));
        assert_eq!(
            golden,
            chip.golden_response(&bench.design, &bench.env, &bench.pairs)
        );
        assert_eq!(bench.chips(4)[3], (chip, golden));
        let other = KeyBench::new(&cfg, RoStyle::AgingResistant, &generator, 0xe16);
        assert_ne!(
            other.chip(3).1,
            bench.chip(3).1,
            "the salt picks the silicon"
        );
    }
}
