//! The Sakurai–Newton **alpha-power-law** MOSFET model.
//!
//! A ring oscillator's frequency depends on its stage delays, and a stage
//! delay depends on how hard each transistor can pull its load:
//! `I_d = beta · (Vdd − Vth)^alpha`. This is the classic short-channel
//! saturation-current model; `alpha ≈ 1.3` captures velocity saturation.
//! Everything the PUF cares about — process variation, aging, temperature,
//! supply droop — enters through `beta` and `Vth`.

use crate::environment::Environment;
use crate::params::TechParams;

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device: pulls the output low; ages by PBTI (gate high) and
    /// HCI (while switching).
    Nmos,
    /// P-channel device: pulls the output high; ages by NBTI (gate low) and
    /// HCI (while switching).
    Pmos,
}

/// Drawn device geometry in nanometres.
///
/// The geometry sets the Pelgrom random-mismatch sigma
/// (`sigma_Vth = A_VT / sqrt(W·L)`): larger devices match better but burn
/// area — exactly the PUF designer's trade-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Drawn gate width in nanometres.
    pub w_nm: f64,
    /// Drawn gate length in nanometres.
    pub l_nm: f64,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics if either dimension is not strictly positive.
    #[must_use]
    pub fn new(w_nm: f64, l_nm: f64) -> Self {
        assert!(w_nm > 0.0 && l_nm > 0.0, "geometry must be positive");
        Self { w_nm, l_nm }
    }

    /// Gate area in square metres.
    #[must_use]
    pub fn area_m2(&self) -> f64 {
        (self.w_nm * 1e-9) * (self.l_nm * 1e-9)
    }

    /// Pelgrom random threshold-voltage sigma for this geometry, in volts.
    #[must_use]
    pub fn pelgrom_sigma_vth(&self, tech: &TechParams) -> f64 {
        tech.a_vt / self.area_m2().sqrt()
    }
}

impl Default for Geometry {
    /// The reference RO inverter device: W = 400 nm, L = 100 nm.
    fn default() -> Self {
        Self {
            w_nm: 400.0,
            l_nm: 100.0,
        }
    }
}

/// A MOSFET instance: polarity, geometry, and nominal electrical point.
///
/// `Mosfet` is the *nominal* device; per-instance randomness (mismatch,
/// aging) is carried separately by the circuit layer and passed into
/// [`Mosfet::drive_current`] as a threshold shift, so one `Mosfet` value can
/// serve a whole array.
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    mos_type: MosType,
    geometry: Geometry,
    vth0: f64,
    beta0: f64,
}

impl Mosfet {
    /// Creates the nominal device of the given polarity and geometry in the
    /// given technology. Drive strength scales with W/L relative to the
    /// reference geometry.
    #[must_use]
    pub fn new(mos_type: MosType, geometry: Geometry, tech: &TechParams) -> Self {
        let reference = Geometry::default();
        let size_ratio = (geometry.w_nm / geometry.l_nm) / (reference.w_nm / reference.l_nm);
        let (vth0, beta_ref) = match mos_type {
            MosType::Nmos => (tech.vth0_n, tech.beta_n),
            MosType::Pmos => (tech.vth0_p, tech.beta_p),
        };
        Self {
            mos_type,
            geometry,
            vth0,
            beta0: beta_ref * size_ratio,
        }
    }

    /// Device polarity.
    #[must_use]
    pub fn mos_type(&self) -> MosType {
        self.mos_type
    }

    /// Drawn geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Nominal threshold-voltage magnitude in volts.
    #[must_use]
    pub fn vth0(&self) -> f64 {
        self.vth0
    }

    /// Nominal drive factor in A/V^alpha.
    #[must_use]
    pub fn beta0(&self) -> f64 {
        self.beta0
    }

    /// Effective threshold magnitude under environment `env` with an extra
    /// shift `dvth` (process mismatch + aging), in volts.
    ///
    /// Temperature lowers the threshold (`vth_temp_coeff` < 0); mismatch and
    /// aging raise or lower it per device.
    #[must_use]
    pub fn vth_effective(&self, tech: &TechParams, env: &Environment, dvth: f64) -> f64 {
        self.vth0 + tech.vth_temp_coeff * (env.temp_kelvin() - tech.t_ref_kelvin) + dvth
    }

    /// Saturation drive current in amperes under environment `env` with
    /// threshold shift `dvth` and relative drive mismatch `dbeta_rel`.
    ///
    /// `I_d = beta·(1+dbeta_rel)·mob(T) · (Vdd − Vth_eff)^alpha`, clamped so
    /// a heavily aged device still conducts a trickle (the ring slows but
    /// never divides by zero).
    #[must_use]
    pub fn drive_current_with_mismatch(
        &self,
        tech: &TechParams,
        env: &Environment,
        dvth: f64,
        dbeta_rel: f64,
    ) -> f64 {
        let vth = self.vth_effective(tech, env, dvth);
        let overdrive = tech.overdrive(env.vdd(), vth);
        let beta = self.beta0 * (1.0 + dbeta_rel) * env.mobility_factor(tech);
        beta * overdrive.powf(tech.alpha)
    }

    /// Saturation drive current with only a threshold shift (no drive
    /// mismatch); see [`Self::drive_current_with_mismatch`].
    #[must_use]
    pub fn drive_current(&self, tech: &TechParams, env: &Environment, dvth: f64) -> f64 {
        self.drive_current_with_mismatch(tech, env, dvth, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TechParams, Environment) {
        let tech = TechParams::default();
        let env = Environment::nominal(&tech);
        (tech, env)
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn zero_width_geometry_panics() {
        let _ = Geometry::new(0.0, 100.0);
    }

    #[test]
    fn pelgrom_sigma_shrinks_with_device_area() {
        let tech = TechParams::default();
        let small = Geometry::new(200.0, 100.0).pelgrom_sigma_vth(&tech);
        let large = Geometry::new(800.0, 100.0).pelgrom_sigma_vth(&tech);
        assert!(large < small);
        assert!((small / large - 2.0).abs() < 1e-9, "sigma ∝ 1/sqrt(area)");
    }

    #[test]
    fn drive_current_decreases_with_aging() {
        let (tech, env) = setup();
        let dev = Mosfet::new(MosType::Nmos, Geometry::default(), &tech);
        let fresh = dev.drive_current(&tech, &env, 0.0);
        let aged = dev.drive_current(&tech, &env, 0.050);
        assert!(aged < fresh);
        // First-order sensitivity check: dI/I ≈ −alpha·dVth/overdrive.
        let expected = -tech.alpha * 0.050 / (tech.vdd_nominal - tech.vth0_n);
        let actual = aged / fresh - 1.0;
        assert!(
            (actual - expected).abs() < 0.01,
            "actual {actual}, expected {expected}"
        );
    }

    #[test]
    fn drive_current_increases_with_supply() {
        let (tech, env) = setup();
        let dev = Mosfet::new(MosType::Pmos, Geometry::default(), &tech);
        let nominal = dev.drive_current(&tech, &env, 0.0);
        let high = Environment::new(env.temp_celsius(), 1.32);
        assert!(dev.drive_current(&tech, &high, 0.0) > nominal);
    }

    #[test]
    fn hot_device_is_slower_at_nominal_vdd() {
        // At high overdrive, mobility loss dominates the Vth drop, so the
        // current falls with temperature (the usual regime above the
        // zero-temperature-coefficient point).
        let (tech, _) = setup();
        let dev = Mosfet::new(MosType::Nmos, Geometry::default(), &tech);
        let cold = dev.drive_current(&tech, &Environment::new(25.0, tech.vdd_nominal), 0.0);
        let hot = dev.drive_current(&tech, &Environment::new(85.0, tech.vdd_nominal), 0.0);
        assert!(hot < cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn wider_device_drives_proportionally_more() {
        let (tech, env) = setup();
        let narrow = Mosfet::new(MosType::Nmos, Geometry::new(400.0, 100.0), &tech);
        let wide = Mosfet::new(MosType::Nmos, Geometry::new(800.0, 100.0), &tech);
        let ratio = wide.drive_current(&tech, &env, 0.0) / narrow.drive_current(&tech, &env, 0.0);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn beta_mismatch_scales_current_linearly() {
        let (tech, env) = setup();
        let dev = Mosfet::new(MosType::Nmos, Geometry::default(), &tech);
        let base = dev.drive_current(&tech, &env, 0.0);
        let plus = dev.drive_current_with_mismatch(&tech, &env, 0.0, 0.05);
        assert!((plus / base - 1.05).abs() < 1e-12);
    }

    #[test]
    fn aged_to_death_device_still_conducts() {
        let (tech, env) = setup();
        let dev = Mosfet::new(MosType::Nmos, Geometry::default(), &tech);
        let i = dev.drive_current(&tech, &env, 5.0);
        assert!(i > 0.0, "clamped overdrive keeps the ring alive");
    }
}
