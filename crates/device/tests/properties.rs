//! Property-based tests for the device substrate: physical invariants that
//! must hold for *any* valid input, not just the calibrated operating point.

use aro_device::aging::{BtiBatch, BtiModel, HciModel, StressInterval};
use aro_device::environment::Environment;
use aro_device::mosfet::{Geometry, MosType, Mosfet};
use aro_device::params::TechParams;
use aro_device::process::{ChipProcess, DiePosition, PositionBias};
use aro_device::rng::SeedDomain;
use aro_device::units::YEAR;
use proptest::prelude::*;

prop_compose! {
    fn arb_env()(temp in -40.0..125.0f64, vdd in 0.9..1.5f64) -> Environment {
        Environment::new(temp, vdd)
    }
}

prop_compose! {
    fn arb_geometry()(w in 120.0..2000.0f64, l in 80.0..400.0f64) -> Geometry {
        Geometry::new(w, l)
    }
}

/// One interval through the production path, a batch of one, on a raw
/// BTI accumulator.
fn apply_bti(raw_dvth: &mut f64, model: &BtiModel, interval: &StressInterval) {
    BtiBatch::new(model.time_exp(), model.k_eff(interval), interval.duration_s).apply(raw_dvth);
}

proptest! {
    /// Drive current is strictly positive and finite over the whole valid
    /// envelope, including heavy aging.
    #[test]
    fn drive_current_positive_finite(env in arb_env(), g in arb_geometry(),
                                     dvth in -0.1..0.5f64) {
        let tech = TechParams::default();
        for mos in [MosType::Nmos, MosType::Pmos] {
            let dev = Mosfet::new(mos, g, &tech);
            let i = dev.drive_current(&tech, &env, dvth);
            prop_assert!(i.is_finite() && i > 0.0);
        }
    }

    /// Monotonicity: more threshold shift never increases drive current.
    #[test]
    fn drive_current_monotone_in_aging(env in arb_env(),
                                       d1 in 0.0..0.3f64, d2 in 0.0..0.3f64) {
        let tech = TechParams::default();
        let dev = Mosfet::new(MosType::Nmos, Geometry::default(), &tech);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(dev.drive_current(&tech, &env, hi) <= dev.drive_current(&tech, &env, lo));
    }

    /// BTI is monotone in stress time under any fixed conditions.
    #[test]
    fn bti_monotone_in_time(t1 in 1.0..3.2e8f64, t2 in 1.0..3.2e8f64,
                            temp in -20.0..110.0f64, vgs in 0.8..1.4f64) {
        let tech = TechParams::default();
        let model = BtiModel::nbti(&tech);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(model.dvth_static(hi, temp, vgs) >= model.dvth_static(lo, temp, vgs));
    }

    /// Equivalent-time accumulation is order-insensitive for homogeneous
    /// conditions and never loses wear.
    #[test]
    fn bti_accumulation_never_decreases(chunks in prop::collection::vec(1e3..1e7f64, 1..20),
                                        temp in 0.0..100.0f64) {
        let tech = TechParams::default();
        let model = BtiModel::nbti(&tech);
        let mut raw = 0.0;
        let mut last = 0.0;
        for dt in chunks {
            apply_bti(&mut raw, &model, &StressInterval::static_dc(dt, temp, tech.vdd_nominal));
            prop_assert!(raw >= last);
            last = raw;
        }
    }

    /// Splitting a stress into two chunks equals one combined chunk
    /// (equivalent-time consistency), for arbitrary chunk sizes.
    #[test]
    fn bti_split_equals_combined(a in 1e3..1e8f64, b in 1e3..1e8f64,
                                 temp in 0.0..100.0f64, duty in 0.01..1.0f64) {
        let tech = TechParams::default();
        let model = BtiModel::nbti(&tech);
        let mut split = 0.0;
        apply_bti(&mut split, &model, &StressInterval::duty_cycled(a, temp, 1.2, duty));
        apply_bti(&mut split, &model, &StressInterval::duty_cycled(b, temp, 1.2, duty));
        let mut combined = 0.0;
        apply_bti(&mut combined, &model, &StressInterval::duty_cycled(a + b, temp, 1.2, duty));
        let rel = (split - combined).abs() / combined.max(1e-18);
        prop_assert!(rel < 1e-6, "relative error {rel}");
    }

    /// Lower duty never ages more, all else equal.
    #[test]
    fn bti_monotone_in_duty(d1 in 0.0..1.0f64, d2 in 0.0..1.0f64) {
        let tech = TechParams::default();
        let model = BtiModel::nbti(&tech);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let run = |duty: f64| {
            let mut raw = 0.0;
            apply_bti(&mut raw, &model, &StressInterval::duty_cycled(YEAR, 25.0, 1.2, duty));
            raw
        };
        prop_assert!(run(lo) <= run(hi));
    }

    /// HCI equivalent-cycle accumulation is split-consistent.
    #[test]
    fn hci_split_equals_combined(a in 1e6..1e12f64, b in 1e6..1e12f64, vdd in 1.0..1.4f64) {
        let tech = TechParams::default();
        let model = HciModel::new(&tech);
        let factor = model.equivalent_cycle_factor(vdd);
        let split = model.dvth_equivalent(a * factor + b * factor);
        let combined = model.dvth_equivalent((a + b) * factor);
        let rel = (split - combined).abs() / combined.max(1e-18);
        prop_assert!(rel < 1e-6);
    }

    /// Systematic surface is always finite and within physically sane
    /// bounds over the unit square, for any sampled chip.
    #[test]
    fn systematic_surface_bounded(seed in any::<u64>(), x in 0.0..1.0f64, y in 0.0..1.0f64) {
        let tech = TechParams::default();
        let mut rng = SeedDomain::new(seed).rng(0);
        let chip = ChipProcess::sample(&tech, &mut rng);
        let v = chip.systematic_dvth(DiePosition::new(x, y));
        prop_assert!(v.is_finite());
        prop_assert!(v.abs() < 0.2, "systematic offset {v} V is unphysical");
    }

    /// Seed domains: distinct indices give distinct seeds (no collisions in
    /// small ranges), same index same seed.
    #[test]
    fn seed_domain_injective_in_small_ranges(seed in any::<u64>(), i in 0u64..1000, j in 0u64..1000) {
        let dom = SeedDomain::new(seed).child("prop");
        if i == j {
            prop_assert_eq!(dom.seed(i), dom.seed(j));
        } else {
            prop_assert_ne!(dom.seed(i), dom.seed(j));
        }
    }

    /// Position bias sampling: length is exact and values scale with sigma.
    #[test]
    fn position_bias_scales(seed in any::<u64>(), n in 1usize..256, sigma in 0.0..0.1f64) {
        let mut rng = SeedDomain::new(seed).rng(1);
        let bias = PositionBias::sample(n, sigma, &mut rng);
        prop_assert_eq!(bias.len(), n);
        for k in 0..n {
            prop_assert!(bias.offset_rel(k).abs() <= sigma * 6.0 + 1e-12);
        }
    }
}
