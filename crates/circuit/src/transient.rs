//! Transient (SPICE-like) simulation of a ring oscillator.
//!
//! The Monte Carlo experiments use the *analytic* period formula in
//! [`crate::ring`] (constant-current charge/discharge of the stage load).
//! This module is the second validation harness (the first being the
//! gate-level counter in [`crate::logic`]): it integrates the actual node
//! voltages of an inverter ring through time with a two-region MOSFET
//! model — saturation current `beta·(Vgs−Vth)^alpha` rolling off linearly
//! below `Vdsat` — and extracts the oscillation period from the waveform
//! itself.
//!
//! The two models agree on everything the PUF cares about (see the
//! tests): the transient frequency tracks the analytic one within a
//! constant waveform-shape factor, and — critically — *ratios* between
//! two rings (the quantity a PUF bit is made of) match to a fraction of a
//! percent.

use aro_device::environment::Environment;
use aro_device::mosfet::MosType;
use aro_device::params::TechParams;

use crate::gates::{nominal_device, StageKind};
use crate::ring::RingOscillator;

/// Result of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Extracted oscillation frequency in hertz.
    pub frequency_hz: f64,
    /// Number of full periods measured.
    pub periods_measured: usize,
    /// Integration time step used, in seconds.
    pub dt_s: f64,
}

/// Drain current of one transistor with the two-region model: saturation
/// `beta·(Vgs−Vth)^alpha`, linear roll-off below `vdsat = overdrive/2`.
fn drain_current(beta: f64, alpha: f64, overdrive: f64, vds: f64) -> f64 {
    if overdrive <= 0.0 || vds <= 0.0 {
        return 0.0;
    }
    let i_sat = beta * overdrive.powf(alpha);
    let vdsat = 0.5 * overdrive;
    if vds >= vdsat {
        i_sat
    } else {
        i_sat * vds / vdsat
    }
}

/// Integrates the node voltages of a ring, on a die with BTI stress classes
/// `bti`, and extracts its frequency.
///
/// Every stage drives the next stage's input node through its
/// complementary pair; the input threshold is `Vdd/2`. Integration is
/// forward Euler with `steps_per_period` points per *expected* period
/// (from the analytic model), and the frequency is taken from the mean
/// spacing of rising threshold crossings of node 0 after the oscillation
/// locks in.
///
/// # Panics
/// Panics if `periods` or `steps_per_period` is zero.
#[must_use]
pub fn simulate_ring(
    ro: &RingOscillator,
    tech: &TechParams,
    env: &Environment,
    chip: &aro_device::process::ChipProcess,
    bti: &[f64; 4],
    periods: usize,
    steps_per_period: usize,
) -> TransientResult {
    assert!(
        periods >= 1 && steps_per_period >= 8,
        "need a sensible resolution"
    );
    let n = ro.n_stages();
    let vdd = env.vdd();
    let c_load = tech.c_stage * ro.style().load_factor(tech);
    let hci_dvth = aro_device::aging::HciModel::new(tech).dvth_equivalent(ro.hci_eq_cycles());
    let (pmos, nmos) = (
        nominal_device(MosType::Pmos, tech),
        nominal_device(MosType::Nmos, tech),
    );
    let systematic = chip.systematic_dvth(ro.position()) + ro.correlated_dvth();

    // Per-stage effective parameters (match the analytic model's inputs).
    struct StageParams {
        beta_p: f64,
        beta_n: f64,
        od_p: f64,
        od_n: f64,
        alpha: f64,
        pulldown_penalty: f64,
    }
    let stages: Vec<StageParams> = ro
        .stages()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mob = env.mobility_factor(tech);
            let (bti_p, bti_n) = ro.stage_bti(bti, i);
            let vth_p = pmos.vth_effective(
                tech,
                env,
                chip.dvth_interdie_p() + s.pmos().dvth_total(systematic, bti_p, hci_dvth),
            );
            let vth_n = nmos.vth_effective(
                tech,
                env,
                chip.dvth_interdie_n() + s.nmos().dvth_total(systematic, bti_n, hci_dvth),
            );
            StageParams {
                beta_p: pmos.beta0()
                    * (1.0 + s.pmos().variation().dbeta_rel + chip.dbeta_interdie_rel())
                    * mob,
                beta_n: nmos.beta0()
                    * (1.0 + s.nmos().variation().dbeta_rel + chip.dbeta_interdie_rel())
                    * mob,
                od_p: tech.overdrive(vdd, vth_p),
                od_n: tech.overdrive(vdd, vth_n),
                alpha: tech.alpha,
                pulldown_penalty: StageKind::of_stage(i).pulldown_penalty(),
            }
        })
        .collect();

    // Initial condition: alternating rail voltages, one node mid-rail to
    // break symmetry and start the wave.
    let mut v: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { vdd } else { 0.0 }).collect();
    v[0] = 0.51 * vdd;

    let expected_period = 1.0 / ro.frequency(tech, env, chip, bti);
    let dt = expected_period / steps_per_period as f64;
    let total_steps = (periods + 4) * steps_per_period; // settle + measure

    let threshold = vdd / 2.0;
    let mut crossings: Vec<f64> = Vec::new();
    let mut prev_v0 = v[0];

    for step in 0..total_steps {
        let t = step as f64 * dt;
        let mut dv = vec![0.0f64; n];
        for i in 0..n {
            let driver = &stages[i];
            let input = v[(i + n - 1) % n];
            let out = v[i];
            // The driver of node i is stage i, whose input is node i−1.
            // Gate drive is the digital approximation: a device is fully
            // on (its full overdrive) when the input commits past the
            // threshold, off otherwise — the output-side two-region Vds
            // dependence is what the analytic model lacks.
            let gate_p = if input < threshold { driver.od_p } else { 0.0 };
            let gate_n = if input > threshold { driver.od_n } else { 0.0 };
            let i_up = drain_current(driver.beta_p, driver.alpha, gate_p, vdd - out);
            let i_down = drain_current(
                driver.beta_n / driver.pulldown_penalty,
                driver.alpha,
                gate_n,
                out,
            );
            dv[i] = (i_up - i_down) / c_load * dt;
        }
        for i in 0..n {
            v[i] = (v[i] + dv[i]).clamp(0.0, vdd);
        }
        // Rising crossing of node 0.
        if prev_v0 < threshold && v[0] >= threshold && step > 2 * steps_per_period {
            crossings.push(t);
        }
        prev_v0 = v[0];
    }

    assert!(
        crossings.len() >= 2,
        "ring failed to oscillate in the transient window"
    );
    let measured = crossings.len() - 1;
    let period = (crossings[measured] - crossings[0]) / measured as f64;
    TransientResult {
        frequency_hz: 1.0 / period,
        periods_measured: measured,
        dt_s: dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{AgingModels, IdleStressBatch, RoStyle};
    use aro_device::process::{ChipProcess, DiePosition};
    use aro_device::rng::SeedDomain;
    use aro_device::units::YEAR;

    /// The stress classes of a chip that has not aged.
    const FRESH: [f64; 4] = [0.0; 4];

    fn setup(seed: u64) -> (TechParams, Environment, ChipProcess, RingOscillator) {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        let chip = ChipProcess::typical();
        let mut rng = SeedDomain::new(seed).rng(0);
        let ro = RingOscillator::new(
            RoStyle::Conventional,
            5,
            DiePosition::new(0.5, 0.5),
            &tech,
            &mut rng,
        );
        (tech, env, chip, ro)
    }

    #[test]
    fn transient_frequency_tracks_the_analytic_model() {
        let (tech, env, chip, ro) = setup(71);
        let analytic = ro.frequency(&tech, &env, &chip, &FRESH);
        let transient = simulate_ring(&ro, &tech, &env, &chip, &FRESH, 12, 400);
        let ratio = transient.frequency_hz / analytic;
        // The waveform-shape factor between constant-current and
        // two-region charging is bounded and near one.
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "transient {} vs analytic {} (ratio {ratio})",
            transient.frequency_hz,
            analytic
        );
        assert!(transient.periods_measured >= 8);
    }

    #[test]
    fn frequency_ratio_of_two_rings_matches_analytic_ratio() {
        // The PUF bit only cares about which ring is faster and by how
        // much; the waveform-shape factor cancels in the ratio.
        let (tech, env, chip, ro_a) = setup(72);
        let (.., ro_b) = setup(73);
        let analytic_ratio =
            ro_a.frequency(&tech, &env, &chip, &FRESH) / ro_b.frequency(&tech, &env, &chip, &FRESH);
        let t_a = simulate_ring(&ro_a, &tech, &env, &chip, &FRESH, 12, 400);
        let t_b = simulate_ring(&ro_b, &tech, &env, &chip, &FRESH, 12, 400);
        let transient_ratio = t_a.frequency_hz / t_b.frequency_hz;
        assert!(
            (transient_ratio / analytic_ratio - 1.0).abs() < 0.01,
            "transient ratio {transient_ratio} vs analytic {analytic_ratio}"
        );
    }

    #[test]
    fn transient_sees_aging_slowdown_too() {
        let (tech, env, chip, ro) = setup(74);
        let fresh = simulate_ring(&ro, &tech, &env, &chip, &FRESH, 10, 300).frequency_hz;
        let models = AgingModels::new(&tech);
        let mut bti = FRESH;
        IdleStressBatch::new(
            ro.style(),
            &tech,
            &models,
            25.0,
            tech.vdd_nominal,
            10.0 * YEAR,
        )
        .advance(&mut bti, ro.n_stages());
        let aged = simulate_ring(&ro, &tech, &env, &chip, &bti, 10, 300).frequency_hz;
        assert!(aged < fresh, "aged {aged} vs fresh {fresh}");
        let analytic_drop =
            1.0 - ro.frequency(&tech, &env, &chip, &bti) / ro.frequency(&tech, &env, &chip, &FRESH);
        let transient_drop = 1.0 - aged / fresh;
        assert!(
            (transient_drop - analytic_drop).abs() < 0.03,
            "transient drop {transient_drop} vs analytic {analytic_drop}"
        );
    }

    #[test]
    fn supply_droop_slows_the_transient_ring() {
        let (tech, env, chip, ro) = setup(75);
        let nominal = simulate_ring(&ro, &tech, &env, &chip, &FRESH, 10, 300).frequency_hz;
        let low = Environment::new(env.temp_celsius(), 1.08);
        let droop = simulate_ring(&ro, &tech, &low, &chip, &FRESH, 10, 300).frequency_hz;
        assert!(droop < nominal);
    }

    #[test]
    #[should_panic(expected = "sensible resolution")]
    fn zero_periods_panics() {
        let (tech, env, chip, ro) = setup(76);
        let _ = simulate_ring(&ro, &tech, &env, &chip, &FRESH, 0, 300);
    }
}
