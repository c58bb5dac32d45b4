//! Transistor wear-out: NBTI, PBTI, and HCI.
//!
//! **Bias Temperature Instability** (negative for PMOS, positive for NMOS)
//! is the dominant aging mechanism for a PUF, because an *idle* conventional
//! ring oscillator holds static DC levels: alternating stages keep a PMOS
//! (input low) or an NMOS (input high) under continuous gate stress for the
//! product's whole lifetime. We use the long-term reaction–diffusion power
//! law `ΔVth = K(T, Vgs) · t^n` with `n ≈ 1/6`, Arrhenius temperature
//! acceleration, and gate-overdrive voltage acceleration.
//!
//! **Recovery**: BTI partially heals when the stress is removed. Under a
//! duty-cycled stress with duty factor `α`, the long-term envelope is well
//! approximated by `ΔVth_dyn(t) ≈ sqrt(α) · ΔVth_static(t)` — this square
//! root is exactly the lever the ARO-PUF pulls: its gated cell reduces the
//! idle duty factor from 1.0 to nearly 0.
//!
//! **Hot Carrier Injection** accrues only while a ring actually oscillates
//! (it needs drain current during switching) and grows with the number of
//! transitions, `ΔVth ∝ N_cycles^0.5`.
//!
//! **Heterogeneous stress histories** (different temperatures/duties per
//! interval) are accumulated with the standard *equivalent-time* method: the
//! current ΔVth is converted into the time that would have produced it under
//! the new interval's conditions, the interval is appended, and the power
//! law is re-evaluated.
//!
//! **Aging variability**: silicon shows device-to-device dispersion of the
//! BTI/HCI prefactor; each transistor carries log-normal multipliers sampled
//! at fabrication. This dispersion — not the mean shift — is what makes the
//! frequencies of two paired ROs drift apart and flip PUF bits.

use rand::Rng;

use crate::params::TechParams;
use crate::rng::lognormal_multiplier;
use crate::units::{celsius_to_kelvin, BOLTZMANN_EV};

/// One contiguous interval of (possibly duty-cycled) gate stress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressInterval {
    /// Wall-clock length of the interval in seconds.
    pub duration_s: f64,
    /// Die temperature during the interval in °C.
    pub temp_celsius: f64,
    /// Gate-stress voltage magnitude in volts (|Vgs| while stressed).
    pub vgs: f64,
    /// Fraction of the interval the device is actually under stress
    /// (1.0 = static DC stress, 0.5 = square-wave oscillation, 0 = idle).
    pub duty: f64,
}

impl StressInterval {
    /// Continuous DC stress — the idle state of a conventional RO stage.
    ///
    /// # Panics
    /// Panics if `duration_s` is negative.
    #[must_use]
    pub fn static_dc(duration_s: f64, temp_celsius: f64, vgs: f64) -> Self {
        Self::duty_cycled(duration_s, temp_celsius, vgs, 1.0)
    }

    /// Duty-cycled stress with recovery in the off phase.
    ///
    /// # Panics
    /// Panics if `duration_s` is negative or `duty` is outside `[0, 1]`.
    #[must_use]
    pub fn duty_cycled(duration_s: f64, temp_celsius: f64, vgs: f64, duty: f64) -> Self {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0, 1]");
        Self {
            duration_s,
            temp_celsius,
            vgs,
            duty,
        }
    }

    /// The AC stress a device sees while its ring oscillates: square wave,
    /// 50 % duty at the full supply.
    #[must_use]
    pub fn oscillating(duration_s: f64, temp_celsius: f64, vdd: f64) -> Self {
        Self::duty_cycled(duration_s, temp_celsius, vdd, 0.5)
    }
}

/// Long-term BTI power-law model `ΔVth = K(T, Vgs) · sqrt(duty) · t^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct BtiModel {
    prefactor_v: f64,
    time_exp: f64,
    ea_ev: f64,
    vgs_exp: f64,
    vdd_ref: f64,
    t_ref_kelvin: f64,
}

impl BtiModel {
    /// NBTI model (PMOS under negative gate bias) for a technology.
    #[must_use]
    pub fn nbti(tech: &TechParams) -> Self {
        Self {
            prefactor_v: tech.nbti_a,
            time_exp: tech.bti_time_exp,
            ea_ev: tech.bti_ea_ev,
            vgs_exp: tech.bti_vgs_exp,
            vdd_ref: tech.vdd_nominal,
            t_ref_kelvin: tech.t_ref_kelvin,
        }
    }

    /// PBTI model (NMOS under positive gate bias) for a technology.
    #[must_use]
    pub fn pbti(tech: &TechParams) -> Self {
        Self {
            prefactor_v: tech.pbti_a,
            ..Self::nbti(tech)
        }
    }

    /// Temperature- and voltage-accelerated prefactor `K` in volts per
    /// second^n. Normalized so `K = A` at the reference temperature and
    /// nominal supply.
    #[must_use]
    pub fn prefactor(&self, temp_celsius: f64, vgs: f64) -> f64 {
        if vgs <= 0.0 {
            return 0.0;
        }
        let t_k = celsius_to_kelvin(temp_celsius);
        let arrhenius = (self.ea_ev / BOLTZMANN_EV * (1.0 / self.t_ref_kelvin - 1.0 / t_k)).exp();
        let voltage = (vgs / self.vdd_ref).powf(self.vgs_exp);
        self.prefactor_v * arrhenius * voltage
    }

    /// Threshold shift after `t_s` seconds of *static* stress at the given
    /// conditions, in volts.
    #[must_use]
    pub fn dvth_static(&self, t_s: f64, temp_celsius: f64, vgs: f64) -> f64 {
        self.prefactor(temp_celsius, vgs) * t_s.max(0.0).powf(self.time_exp)
    }

    /// Effective accelerated prefactor of an interval, `K(T, Vgs)·sqrt(duty)`
    /// in volts per second^n. It depends only on the interval's conditions —
    /// never on device state — so stress loops hoist it once per interval
    /// instead of paying its `exp`/`powf` per accumulator ([`BtiBatch`]).
    #[must_use]
    pub fn k_eff(&self, interval: &StressInterval) -> f64 {
        self.prefactor(interval.temp_celsius, interval.vgs) * interval.duty.sqrt()
    }

    /// The time exponent `n`.
    #[must_use]
    pub fn time_exp(&self) -> f64 {
        self.time_exp
    }
}

/// HCI wear-out model `ΔVth = B · (Vdd/Vdd_ref)^k · (N/1e9)^m`.
#[derive(Debug, Clone, PartialEq)]
pub struct HciModel {
    prefactor_v: f64,
    vdd_exp: f64,
    cycle_exp: f64,
    vdd_ref: f64,
}

/// Reference cycle count for the HCI prefactor (one billion transitions).
const HCI_REF_CYCLES: f64 = 1e9;

impl HciModel {
    /// HCI model for a technology.
    #[must_use]
    pub fn new(tech: &TechParams) -> Self {
        Self {
            prefactor_v: tech.hci_b,
            vdd_exp: tech.hci_vdd_exp,
            cycle_exp: tech.hci_cycle_exp,
            vdd_ref: tech.vdd_nominal,
        }
    }

    /// Threshold shift in volts after `cycles` switching transitions at
    /// supply `vdd`.
    #[must_use]
    pub fn dvth(&self, cycles: f64, vdd: f64) -> f64 {
        if cycles <= 0.0 {
            return 0.0;
        }
        // At the reference supply the acceleration is pow(1, k) = 1 exactly
        // (IEEE 754), so skipping the powf cannot change a single bit — and
        // the readout path always evaluates at vdd_ref.
        let accel = if vdd == self.vdd_ref {
            1.0
        } else {
            (vdd / self.vdd_ref).powf(self.vdd_exp)
        };
        self.prefactor_v * accel * (cycles / HCI_REF_CYCLES).powf(self.cycle_exp)
    }

    /// Threshold shift in volts after `eq_cycles` reference-condition
    /// equivalent cycles: [`HciModel::dvth`] at the reference supply. Every
    /// device of a ring switches at the ring's frequency, so the ring keeps
    /// one equivalent-cycle count and a read evaluates this once per ring;
    /// each device then scales it by its own multiplier
    /// ([`TransistorAging::dvth_hci`]).
    #[must_use]
    pub fn dvth_equivalent(&self, eq_cycles: f64) -> f64 {
        self.dvth(eq_cycles, self.vdd_ref)
    }

    /// Conversion factor from transitions at supply `vdd` to
    /// reference-condition equivalent cycles, so that HCI wear accumulated
    /// under varying supplies composes. Depends only on the supply, so a
    /// stress batch hoists it once per interval.
    #[must_use]
    pub fn equivalent_cycle_factor(&self, vdd: f64) -> f64 {
        let accel = (vdd / self.vdd_ref).powf(self.vdd_exp);
        accel.powf(1.0 / self.cycle_exp)
    }
}

/// The aging variability of one transistor: its fabrication-time BTI and
/// HCI multipliers.
///
/// Wear itself is not stored here. A transistor's raw BTI shift is a pure
/// function of its stress history, and every device of one stress class of
/// a chip (one polarity at one idle level, on any of its rings) lives
/// through the same history, so the chip keeps one raw BTI accumulator per
/// class; every device of a ring switches at the ring's frequency, so the
/// ring keeps one HCI equivalent-cycle count. A device scales those raw
/// shifts by its own multipliers ([`TransistorAging::dvth_bti`],
/// [`TransistorAging::dvth_hci`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorAging {
    bti_multiplier: f64,
    hci_multiplier: f64,
}

impl TransistorAging {
    /// Log-normal aging-variability multipliers of relative sigma
    /// `sigma_rel` sampled from `rng` (done once, at "fabrication").
    #[must_use]
    pub fn with_variability<R: Rng + ?Sized>(rng: &mut R, sigma_rel: f64) -> Self {
        Self {
            bti_multiplier: lognormal_multiplier(rng, sigma_rel),
            hci_multiplier: lognormal_multiplier(rng, sigma_rel),
        }
    }

    /// BTI component of the threshold shift, in volts: the raw shift of
    /// this device's stress class (a [`BtiBatch`] accumulator) scaled by
    /// this device's variability multiplier.
    #[must_use]
    pub fn dvth_bti(&self, raw_dvth: f64) -> f64 {
        raw_dvth * self.bti_multiplier
    }

    /// HCI component of the threshold shift, in volts: the ring's raw
    /// shift ([`HciModel::dvth_equivalent`] of its equivalent cycles)
    /// scaled by this device's variability multiplier.
    #[must_use]
    pub fn dvth_hci(&self, raw_dvth: f64) -> f64 {
        raw_dvth * self.hci_multiplier
    }
}

/// One BTI stress interval, prefactored, applied to raw (multiplier-free)
/// BTI accumulators.
///
/// An accumulator advances by the equivalent-time method (module docs), a
/// pure function of its incoming value. Every ring of a chip lives through
/// the same intervals, so the chip keeps one accumulator per stress class
/// for all of its rings and applies each interval to it once.
#[derive(Debug, Clone)]
pub struct BtiBatch {
    time_exp: f64,
    k_eff: f64,
    duration_s: f64,
}

impl BtiBatch {
    /// A batch for one interval: the model's time exponent, the interval's
    /// effective prefactor ([`BtiModel::k_eff`]) and its duration.
    #[must_use]
    pub fn new(time_exp: f64, k_eff: f64, duration_s: f64) -> Self {
        Self {
            time_exp,
            k_eff,
            duration_s,
        }
    }

    /// Advances the raw BTI accumulator `raw_dvth` (volts) through the
    /// interval. Returns whether stress was applied: false, leaving the
    /// accumulator untouched, for the degenerate zero-duration and
    /// zero-prefactor intervals, so bulk callers can book one aggregated
    /// `device.bti_applies` increment per interval.
    pub fn apply(&self, raw_dvth: &mut f64) -> bool {
        if self.k_eff <= 0.0 || self.duration_s <= 0.0 {
            return false;
        }
        // Fresh accumulator: (0/k)^(1/n) is exactly +0.0, skip the powf.
        let t_equivalent = if *raw_dvth == 0.0 {
            0.0
        } else {
            (*raw_dvth / self.k_eff).powf(1.0 / self.time_exp)
        };
        *raw_dvth = self.k_eff * (t_equivalent + self.duration_s).powf(self.time_exp);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::YEAR;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tech() -> TechParams {
        TechParams::default()
    }

    /// One interval through its own batch: the production step.
    fn apply_bti(raw_dvth: &mut f64, model: &BtiModel, interval: &StressInterval) {
        BtiBatch::new(model.time_exp(), model.k_eff(interval), interval.duration_s).apply(raw_dvth);
    }

    #[test]
    fn ten_year_static_nbti_is_around_100_mv() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let dvth = model.dvth_static(10.0 * YEAR, 25.0, t.vdd_nominal);
        assert!(dvth > 0.05 && dvth < 0.20, "dvth = {dvth}");
    }

    #[test]
    fn bti_follows_power_law_in_time() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let d1 = model.dvth_static(1.0 * YEAR, 25.0, t.vdd_nominal);
        let d64 = model.dvth_static(64.0 * YEAR, 25.0, t.vdd_nominal);
        // 64^(1/6) = 2, so sixty-four times the stress only doubles ΔVth.
        assert!((d64 / d1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bti_accelerates_with_temperature_and_voltage() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let cool = model.dvth_static(YEAR, 25.0, t.vdd_nominal);
        let hot = model.dvth_static(YEAR, 105.0, t.vdd_nominal);
        assert!(hot > 1.5 * cool, "hot {hot} vs cool {cool}");
        let low_v = model.dvth_static(YEAR, 25.0, 0.9 * t.vdd_nominal);
        assert!(low_v < cool);
    }

    #[test]
    fn pbti_is_weaker_than_nbti() {
        let t = tech();
        let n = BtiModel::nbti(&t).dvth_static(YEAR, 25.0, t.vdd_nominal);
        let p = BtiModel::pbti(&t).dvth_static(YEAR, 25.0, t.vdd_nominal);
        assert!(p < n);
    }

    #[test]
    fn zero_or_negative_vgs_causes_no_bti() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        assert_eq!(model.dvth_static(YEAR, 25.0, 0.0), 0.0);
        assert_eq!(model.dvth_static(YEAR, 25.0, -1.0), 0.0);
    }

    #[test]
    fn equivalent_time_accumulation_matches_single_shot() {
        // Splitting a homogeneous stress into many intervals must give the
        // same answer as applying it in one shot (the power law is not
        // additive, the equivalent-time method is what fixes that).
        let t = tech();
        let model = BtiModel::nbti(&t);
        let mut split = 0.0;
        for _ in 0..100 {
            apply_bti(
                &mut split,
                &model,
                &StressInterval::static_dc(YEAR / 10.0, 25.0, t.vdd_nominal),
            );
        }
        let mut single = 0.0;
        apply_bti(
            &mut single,
            &model,
            &StressInterval::static_dc(10.0 * YEAR, 25.0, t.vdd_nominal),
        );
        let rel = (split - single).abs() / single;
        assert!(rel < 1e-9, "relative error {rel}");
    }

    #[test]
    fn duty_cycling_recovers_as_sqrt_duty() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let mut dc = 0.0;
        apply_bti(
            &mut dc,
            &model,
            &StressInterval::static_dc(YEAR, 25.0, t.vdd_nominal),
        );
        let mut quarter = 0.0;
        apply_bti(
            &mut quarter,
            &model,
            &StressInterval::duty_cycled(YEAR, 25.0, t.vdd_nominal, 0.25),
        );
        assert!((quarter / dc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aro_style_idle_ages_far_less_than_conventional_idle() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let mut conventional = 0.0;
        apply_bti(
            &mut conventional,
            &model,
            &StressInterval::static_dc(10.0 * YEAR, 25.0, t.vdd_nominal),
        );
        let mut aro = 0.0;
        apply_bti(
            &mut aro,
            &model,
            &StressInterval::duty_cycled(
                10.0 * YEAR,
                25.0,
                t.vdd_nominal,
                t.aro_idle_stress_fraction,
            ),
        );
        assert!(
            aro < 0.15 * conventional,
            "aro {aro} vs conventional {conventional}"
        );
    }

    #[test]
    fn hci_grows_with_cycles_and_supply() {
        let t = tech();
        let model = HciModel::new(&t);
        assert_eq!(model.dvth(0.0, t.vdd_nominal), 0.0);
        let d1 = model.dvth(1e9, t.vdd_nominal);
        let d4 = model.dvth(4e9, t.vdd_nominal);
        assert!((d4 / d1 - 2.0).abs() < 1e-9, "sqrt law in cycles");
        assert!(model.dvth(1e9, 1.1 * t.vdd_nominal) > d1);
    }

    #[test]
    fn hci_equivalent_cycle_accumulation_composes() {
        let t = tech();
        let model = HciModel::new(&t);
        let factor = model.equivalent_cycle_factor(t.vdd_nominal);
        let split = 5e8 * factor + 5e8 * factor;
        let single = 1e9 * factor;
        let rel = (model.dvth_equivalent(split) - model.dvth_equivalent(single)).abs()
            / model.dvth_equivalent(single);
        assert!(rel < 1e-9);
    }

    #[test]
    fn variability_multipliers_disperse_devices() {
        let t = tech();
        let model = BtiModel::nbti(&t);
        let mut rng = StdRng::seed_from_u64(5);
        let mut raw = 0.0;
        apply_bti(
            &mut raw,
            &model,
            &StressInterval::static_dc(10.0 * YEAR, 25.0, t.vdd_nominal),
        );
        let shifts: Vec<f64> = (0..2000)
            .map(|_| TransistorAging::with_variability(&mut rng, t.sigma_aging_rel).dvth_bti(raw))
            .collect();
        let mean = shifts.iter().sum::<f64>() / shifts.len() as f64;
        let sd = (shifts.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (shifts.len() - 1) as f64)
            .sqrt();
        assert!(sd / mean > 0.3, "coefficient of variation {}", sd / mean);
        assert!(shifts.iter().all(|&s| s > 0.0));
    }

    #[test]
    #[should_panic(expected = "duty must be in [0, 1]")]
    fn invalid_duty_panics() {
        let _ = StressInterval::duty_cycled(1.0, 25.0, 1.2, 1.5);
    }

    #[test]
    fn bti_batch_honors_no_stress_guards() {
        let mut raw = 0.0;
        assert!(!BtiBatch::new(6.0, 0.0, YEAR).apply(&mut raw));
        assert!(!BtiBatch::new(6.0, 1e-3, 0.0).apply(&mut raw));
        assert_eq!(raw, 0.0);
    }
}
