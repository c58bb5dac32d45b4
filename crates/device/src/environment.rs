//! Operating environment: die temperature and supply voltage.
//!
//! PUF responses must survive environmental excursions; the paper's
//! evaluation (like all RO-PUF work following Suh & Devadas) sweeps
//! temperature and supply. `Environment` is deliberately a small value type
//! passed by reference into every delay/current computation.

use crate::params::TechParams;
use crate::units::celsius_to_kelvin;

/// An operating point: die temperature and supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    temp_celsius: f64,
    vdd: f64,
}

impl Environment {
    /// Creates an operating point from a temperature in °C and a supply in
    /// volts.
    ///
    /// # Panics
    /// Panics if `vdd` is not strictly positive or the temperature is below
    /// absolute zero.
    #[must_use]
    pub fn new(temp_celsius: f64, vdd: f64) -> Self {
        assert!(vdd > 0.0, "supply voltage must be positive");
        assert!(temp_celsius > -273.15, "temperature below absolute zero");
        Self { temp_celsius, vdd }
    }

    /// The nominal operating point of a technology: 25 °C, nominal Vdd.
    #[must_use]
    pub fn nominal(tech: &TechParams) -> Self {
        Self::new(25.0, tech.vdd_nominal)
    }

    /// Die temperature in degrees Celsius.
    #[must_use]
    pub fn temp_celsius(&self) -> f64 {
        self.temp_celsius
    }

    /// Die temperature in kelvin.
    #[must_use]
    pub fn temp_kelvin(&self) -> f64 {
        celsius_to_kelvin(self.temp_celsius)
    }

    /// Supply voltage in volts.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Returns a copy of this operating point shifted by a transient
    /// excursion of `d_temp_c` degrees and `d_vdd` volts — the
    /// fault-injection hook for supply droops and temperature spikes
    /// (`aro-faults`). Unlike the panicking [`Environment::new`], the
    /// result is clamped into the physically representable range (supply
    /// floored at [`Environment::MIN_FAULT_VDD`], temperature floored just
    /// above absolute zero), so an arbitrarily violent injected excursion
    /// still yields a valid operating point instead of aborting the
    /// simulation.
    #[must_use]
    pub fn perturbed(&self, d_temp_c: f64, d_vdd: f64) -> Self {
        Self {
            temp_celsius: (self.temp_celsius + d_temp_c).max(-273.0),
            vdd: (self.vdd + d_vdd).max(Self::MIN_FAULT_VDD),
        }
    }

    /// Lowest supply voltage an injected droop can reach: deep enough to
    /// corrupt every comparison, but still a valid operating point for the
    /// alpha-power delay model.
    pub const MIN_FAULT_VDD: f64 = 0.05;

    /// Carrier-mobility scaling factor relative to the reference
    /// temperature: `(T/T_ref)^(−k)`. Below 1 when hot, above 1 when cold.
    #[must_use]
    pub fn mobility_factor(&self, tech: &TechParams) -> f64 {
        (self.temp_kelvin() / tech.t_ref_kelvin).powf(-tech.mobility_temp_exp)
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0} C / {:.2} V", self.temp_celsius, self.vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_matches_tech() {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        assert_eq!(env.temp_celsius(), 25.0);
        assert_eq!(env.vdd(), tech.vdd_nominal);
        assert!((env.temp_kelvin() - 298.15).abs() < 1e-12);
    }

    #[test]
    fn mobility_factor_is_one_at_reference() {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        assert!((env.mobility_factor(&tech) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mobility_drops_when_hot_rises_when_cold() {
        let tech = TechParams::default();
        let hot = Environment::new(85.0, tech.vdd_nominal);
        let cold = Environment::new(-20.0, tech.vdd_nominal);
        assert!(hot.mobility_factor(&tech) < 1.0);
        assert!(cold.mobility_factor(&tech) > 1.0);
    }

    #[test]
    #[should_panic(expected = "supply voltage must be positive")]
    fn zero_vdd_panics() {
        let _ = Environment::new(25.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "temperature below absolute zero")]
    fn sub_absolute_zero_panics() {
        let _ = Environment::new(-300.0, 1.2);
    }

    #[test]
    fn perturbed_applies_excursions() {
        let env = Environment::new(25.0, 1.20);
        let hot_droop = env.perturbed(60.0, -0.3);
        assert_eq!(hot_droop.temp_celsius(), 85.0);
        assert!((hot_droop.vdd() - 0.9).abs() < 1e-12);
        // The original is untouched.
        assert_eq!(env.vdd(), 1.20);
    }

    #[test]
    fn perturbed_clamps_instead_of_panicking() {
        let env = Environment::new(25.0, 1.20);
        let violent = env.perturbed(-1000.0, -10.0);
        assert_eq!(violent.temp_celsius(), -273.0);
        assert_eq!(violent.vdd(), Environment::MIN_FAULT_VDD);
    }

    #[test]
    fn zero_perturbation_is_identity() {
        let env = Environment::new(45.0, 1.08);
        assert_eq!(env.perturbed(0.0, 0.0), env);
    }

    #[test]
    fn display_is_human_readable() {
        let env = Environment::new(85.0, 1.08);
        assert_eq!(env.to_string(), "85 C / 1.08 V");
    }
}
