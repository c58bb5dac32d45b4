//! Reproducibility guarantees: identical seeds give identical experiment
//! outputs, different seeds move the noise but not the conclusions.

use aro_puf_repro::circuit::ring::RoStyle;
use aro_puf_repro::sim::experiments::{exp2, exp3};
use aro_puf_repro::sim::SimConfig;

#[test]
fn experiments_are_bit_for_bit_reproducible() {
    let cfg = SimConfig::quick();
    let a = exp2::flip_timeline(&cfg, RoStyle::Conventional);
    let b = exp2::flip_timeline(&cfg, RoStyle::Conventional);
    assert_eq!(a, b, "same config, same result");

    let ha = exp3::interchip_sample(&cfg, RoStyle::AgingResistant);
    let hb = exp3::interchip_sample(&cfg, RoStyle::AgingResistant);
    assert_eq!(ha, hb);
}

#[test]
fn different_seeds_change_the_noise_not_the_conclusion() {
    let base = SimConfig::quick();
    let mut conv_rates = Vec::new();
    let mut aro_rates = Vec::new();
    for seed in [1u64, 2, 3] {
        let cfg = base.clone().with_seed(seed);
        conv_rates.push(
            exp2::flip_timeline(&cfg, RoStyle::Conventional)
                .final_mean()
                .unwrap(),
        );
        aro_rates.push(
            exp2::flip_timeline(&cfg, RoStyle::AgingResistant)
                .final_mean()
                .unwrap(),
        );
    }
    // Noise: seeds differ.
    assert!(conv_rates.windows(2).any(|w| w[0] != w[1]));
    // Conclusion: ARO wins under every seed.
    for (c, a) in conv_rates.iter().zip(&aro_rates) {
        assert!(a < c, "seed flipped the conclusion: aro {a} vs conv {c}");
    }
    // And the magnitudes stay in the paper's band.
    for c in &conv_rates {
        assert!(
            *c > 0.15 && *c < 0.45,
            "conventional flip rate {c} out of band"
        );
    }
    for a in &aro_rates {
        assert!(*a < 0.15, "aro flip rate {a} out of band");
    }
}

#[test]
fn quick_and_paper_configs_agree_on_direction() {
    // The quick config is 10x smaller but must preserve orderings; this
    // is what makes the unit-test assertions trustworthy proxies for the
    // paper-scale run.
    let quick = SimConfig::quick();
    let conv = exp2::flip_timeline(&quick, RoStyle::Conventional);
    let aro = exp2::flip_timeline(&quick, RoStyle::AgingResistant);
    assert!(conv.final_mean().unwrap() > aro.final_mean().unwrap());
    assert!(
        conv.mean.windows(2).all(|w| w[1] >= w[0] - 0.02),
        "roughly monotone in time"
    );
}
