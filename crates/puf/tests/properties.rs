//! Property-based tests for the PUF core.

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_puf::challenge::Challenge;
use aro_puf::pairing::PairingStrategy;
use aro_puf::{Chip, PufDesign};
use proptest::prelude::*;

fn arb_style() -> impl Strategy<Value = RoStyle> {
    prop_oneof![Just(RoStyle::Conventional), Just(RoStyle::AgingResistant)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fabrication determinism: same design + id ⇒ identical chip; the
    /// golden response is a pure function of (chip, env, pairs).
    #[test]
    fn golden_response_is_deterministic(seed in any::<u64>(), style in arb_style()) {
        let design = PufDesign::builder(style).n_ros(16).seed(seed).build();
        let env = Environment::nominal(design.tech());
        let pairs = PairingStrategy::Neighbor.pairs(16);
        let a = Chip::fabricate(&design, 0).golden_response(&design, &env, &pairs);
        let b = Chip::fabricate(&design, 0).golden_response(&design, &env, &pairs);
        prop_assert_eq!(a, b);
    }

    /// Every pairing strategy emits its documented bit count (`n/2`,
    /// `n−1`, `n/2`, `n/k`) and only in-range, non-self pairs.
    #[test]
    fn pairing_emits_valid_pairs(n_half in 2usize..40, k in 2usize..9) {
        let n_ros = 2 * n_half;
        let freqs: Vec<f64> = (0..n_ros).map(|i| 1e9 + ((i * 2654435761) % 1000) as f64).collect();
        for strategy in [
            PairingStrategy::Neighbor,
            PairingStrategy::Sequential,
            PairingStrategy::Distant,
            PairingStrategy::SortedOneOutOfK { k },
        ] {
            if matches!(strategy, PairingStrategy::SortedOneOutOfK { .. }) && n_ros < k {
                continue;
            }
            let bits = match strategy {
                PairingStrategy::Neighbor | PairingStrategy::Distant => n_ros / 2,
                PairingStrategy::Sequential => n_ros - 1,
                PairingStrategy::SortedOneOutOfK { k } => n_ros / k,
            };
            let pairs = strategy.pairs_with_enrollment(&freqs);
            prop_assert_eq!(pairs.len(), bits, "{}", strategy.label());
            for (a, b) in pairs {
                prop_assert!(a < n_ros && b < n_ros && a != b);
            }
        }
    }

    /// 1-out-of-k margins dominate neighbour margins on the same
    /// frequencies (that is the whole point of the masking).
    #[test]
    fn one_out_of_k_improves_min_margin(freqs in prop::collection::vec(0.9e9..1.1e9f64, 16)) {
        let sorted = PairingStrategy::SortedOneOutOfK { k: 8 }.pairs_with_enrollment(&freqs);
        let min_margin = sorted
            .iter()
            .map(|&(a, b)| (freqs[a] - freqs[b]).abs())
            .fold(f64::INFINITY, f64::min);
        // Each group's chosen margin is its max-minus-min, which is at
        // least any other in-group margin.
        for g in 0..2 {
            let group = &freqs[g * 8..(g + 1) * 8];
            let spread = group.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - group.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(min_margin <= spread + 1e-6);
        }
        // Pairs are index-ordered so the bit value stays chip-specific.
        prop_assert!(sorted.iter().all(|&(a, b)| a < b));
    }

    /// Challenges produce valid, deterministic, disjoint pair sets.
    #[test]
    fn challenge_pairs_valid(c in any::<u64>(), n_half in 2usize..32) {
        let n_ros = 2 * n_half;
        let pairs = Challenge(c).pairs(n_ros, n_half);
        prop_assert_eq!(pairs.len(), n_half);
        let mut used = vec![false; n_ros];
        for (a, b) in &pairs {
            prop_assert!(!used[*a] && !used[*b]);
            used[*a] = true;
            used[*b] = true;
        }
        prop_assert_eq!(Challenge(c).pairs(n_ros, n_half), pairs);
    }

    /// The environment moves absolute frequency but golden bits are far
    /// more stable than frequencies: common-mode shifts mostly cancel in
    /// pairs.
    #[test]
    fn golden_bits_survive_environment_mostly(seed in 0u64..500, style in arb_style()) {
        let design = PufDesign::builder(style).n_ros(32).seed(seed).build();
        let chip = Chip::fabricate(&design, 0);
        let pairs = PairingStrategy::Neighbor.pairs(32);
        let nominal = Environment::nominal(design.tech());
        let hot = Environment::new(85.0, nominal.vdd());
        let a = chip.golden_response(&design, &nominal, &pairs);
        let b = chip.golden_response(&design, &hot, &pairs);
        let hd = a.hamming_distance(&b);
        prop_assert!(hd <= 4, "temperature flipped {hd}/16 golden bits");
    }
}
