//! Manufacturing process variation.
//!
//! Variation is decomposed the way silicon data is usually fitted:
//!
//! 1. **Inter-die** (chip-to-chip): one common-mode shift per chip. Nearly
//!    cancels in an RO pair, but moves absolute frequency.
//! 2. **Intra-die systematic**: a smooth gradient + bowl across the die,
//!    with per-chip random direction and amplitude. Nearby ROs are
//!    correlated — this is why *neighbour* pairing beats pairing distant
//!    ROs.
//! 3. **Intra-die random (Pelgrom mismatch)**: per-device white noise with
//!    `sigma_Vth = A_VT / sqrt(W·L)`. This is the entropy source of the
//!    PUF.
//! 4. **Per-position layout bias** ([`PositionBias`]): a *deterministic*
//!    frequency offset per array slot that is identical on every chip of
//!    the design (asymmetric routing to the readout mux, systematic IR
//!    drop). It biases each response bit the same way on all chips and is
//!    what drags a conventional RO-PUF's inter-chip Hamming distance below
//!    the ideal 50 %. The ARO cell's symmetric layout suppresses it.

use rand::Rng;

use crate::mosfet::Geometry;
use crate::params::TechParams;
use crate::rng::{normal, standard_normal};

/// Normalized die coordinates in `[0, 1] × [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiePosition {
    /// Horizontal position, 0 = left edge, 1 = right edge.
    pub x: f64,
    /// Vertical position, 0 = bottom edge, 1 = top edge.
    pub y: f64,
}

impl DiePosition {
    /// Creates a position, clamping into the unit square.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self {
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
        }
    }

    /// Lays out `n` sites in a near-square grid, returned row-major.
    #[must_use]
    pub fn grid(n: usize) -> Vec<Self> {
        if n == 0 {
            return Vec::new();
        }
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        (0..n)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                Self::new(
                    (c as f64 + 0.5) / cols as f64,
                    (r as f64 + 0.5) / rows.max(1) as f64,
                )
            })
            .collect()
    }
}

/// The chip-level (shared) part of the process realization, sampled once
/// per die at "fabrication".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipProcess {
    dvth_interdie_n: f64,
    dvth_interdie_p: f64,
    dbeta_interdie_rel: f64,
    gradient_x: f64,
    gradient_y: f64,
    bowl: f64,
}

impl ChipProcess {
    /// Samples a die's common-mode shifts and systematic-variation surface.
    pub fn sample<R: Rng + ?Sized>(tech: &TechParams, rng: &mut R) -> Self {
        // Random gradient direction, amplitude scaled so the peak-to-peak
        // systematic swing across the die matches `sys_gradient_vpp`.
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let amplitude = normal(rng, tech.sys_gradient_vpp, tech.sys_gradient_vpp * 0.3).abs();
        Self {
            dvth_interdie_n: normal(rng, 0.0, tech.sigma_vth_interdie),
            dvth_interdie_p: normal(rng, 0.0, tech.sigma_vth_interdie),
            dbeta_interdie_rel: normal(rng, 0.0, tech.sigma_beta_rel),
            gradient_x: amplitude * angle.cos(),
            gradient_y: amplitude * angle.sin(),
            bowl: normal(rng, 0.0, tech.sys_gradient_vpp * 0.25),
        }
    }

    /// A perfectly typical die (no variation) — useful for nominal-corner
    /// tests.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            dvth_interdie_n: 0.0,
            dvth_interdie_p: 0.0,
            dbeta_interdie_rel: 0.0,
            gradient_x: 0.0,
            gradient_y: 0.0,
            bowl: 0.0,
        }
    }

    /// Common-mode NMOS threshold shift of this die, in volts.
    #[must_use]
    pub fn dvth_interdie_n(&self) -> f64 {
        self.dvth_interdie_n
    }

    /// Common-mode PMOS threshold shift of this die, in volts.
    #[must_use]
    pub fn dvth_interdie_p(&self) -> f64 {
        self.dvth_interdie_p
    }

    /// Common-mode relative drive-factor shift of this die.
    #[must_use]
    pub fn dbeta_interdie_rel(&self) -> f64 {
        self.dbeta_interdie_rel
    }

    /// Systematic threshold offset at a die position (applies to both
    /// polarities), in volts: linear gradient plus a centred bowl.
    #[must_use]
    pub fn systematic_dvth(&self, pos: DiePosition) -> f64 {
        let linear = self.gradient_x * (pos.x - 0.5) + self.gradient_y * (pos.y - 0.5);
        let r2 = (pos.x - 0.5).powi(2) + (pos.y - 0.5).powi(2);
        linear + self.bowl * (r2 - 0.25)
    }
}

/// Per-device random variation, sampled once per transistor at fabrication.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceVariation {
    /// Random threshold-voltage offset in volts (Pelgrom mismatch).
    pub dvth: f64,
    /// Random relative drive-factor offset.
    pub dbeta_rel: f64,
}

impl DeviceVariation {
    /// Samples mismatch for a device of the given geometry.
    pub fn sample<R: Rng + ?Sized>(tech: &TechParams, geometry: Geometry, rng: &mut R) -> Self {
        Self {
            dvth: geometry.pelgrom_sigma_vth(tech) * standard_normal(rng),
            dbeta_rel: tech.sigma_beta_rel * standard_normal(rng),
        }
    }
}

/// Deterministic per-array-slot relative frequency offsets shared by every
/// chip of a design (layout-induced bias).
#[derive(Debug, Clone, PartialEq)]
pub struct PositionBias {
    offsets_rel: Vec<f64>,
}

impl PositionBias {
    /// Samples a design's layout bias for `n_positions` array slots with
    /// relative sigma `sigma_rel`. Use the *design* seed domain, not a chip
    /// seed: the whole point is that this is common to all chips.
    pub fn sample<R: Rng + ?Sized>(n_positions: usize, sigma_rel: f64, rng: &mut R) -> Self {
        Self {
            offsets_rel: (0..n_positions)
                .map(|_| sigma_rel * standard_normal(rng))
                .collect(),
        }
    }

    /// A bias-free design (ideal symmetric layout) with `n_positions`
    /// slots.
    #[must_use]
    pub fn none(n_positions: usize) -> Self {
        Self {
            offsets_rel: vec![0.0; n_positions],
        }
    }

    /// Relative frequency offset of array slot `position`.
    ///
    /// # Panics
    /// Panics if `position` is out of range.
    #[must_use]
    pub fn offset_rel(&self, position: usize) -> f64 {
        self.offsets_rel[position]
    }

    /// Number of array slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets_rel.len()
    }

    /// Whether the design has zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets_rel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_layout_covers_unit_square() {
        let sites = DiePosition::grid(64);
        assert_eq!(sites.len(), 64);
        assert!(sites
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
        // All sites distinct.
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i + 1..] {
                assert!(a != b);
            }
        }
    }

    #[test]
    fn grid_of_zero_is_empty() {
        assert!(DiePosition::grid(0).is_empty());
    }

    #[test]
    fn grid_handles_non_square_counts() {
        for n in [1, 2, 3, 5, 7, 12, 100, 128] {
            assert_eq!(DiePosition::grid(n).len(), n);
        }
    }

    #[test]
    fn typical_chip_has_no_systematic_offset_at_center() {
        let chip = ChipProcess::typical();
        assert_eq!(chip.systematic_dvth(DiePosition::new(0.5, 0.5)), 0.0);
    }

    #[test]
    fn systematic_surface_is_smooth_and_bounded() {
        let tech = TechParams::default();
        let mut rng = StdRng::seed_from_u64(11);
        let chip = ChipProcess::sample(&tech, &mut rng);
        let corners = [
            DiePosition::new(0.0, 0.0),
            DiePosition::new(1.0, 0.0),
            DiePosition::new(0.0, 1.0),
            DiePosition::new(1.0, 1.0),
        ];
        for c in corners {
            assert!(chip.systematic_dvth(c).abs() < 0.1, "bounded by ~100 mV");
        }
        // Midpoint value lies between adjacent samples (linearity dominates).
        let a = chip.systematic_dvth(DiePosition::new(0.0, 0.5));
        let b = chip.systematic_dvth(DiePosition::new(1.0, 0.5));
        let mid = chip.systematic_dvth(DiePosition::new(0.5, 0.5));
        assert!(mid >= a.min(b) - 0.05 && mid <= a.max(b) + 0.05);
    }

    #[test]
    fn interdie_spread_matches_sigma() {
        let tech = TechParams::default();
        let mut rng = StdRng::seed_from_u64(12);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| ChipProcess::sample(&tech, &mut rng).dvth_interdie_n())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (samples.len() - 1) as f64)
            .sqrt();
        assert!(mean.abs() < 0.001);
        assert!((sd - tech.sigma_vth_interdie).abs() < 0.001, "sd = {sd}");
    }

    #[test]
    fn device_mismatch_scales_with_geometry() {
        let tech = TechParams::default();
        let mut rng = StdRng::seed_from_u64(13);
        let mut spread = |w: f64| {
            let g = Geometry::new(w, 100.0);
            let xs: Vec<f64> = (0..20_000)
                .map(|_| DeviceVariation::sample(&tech, g, &mut rng).dvth)
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
        };
        let narrow = spread(200.0);
        let wide = spread(800.0);
        assert!(
            (narrow / wide - 2.0).abs() < 0.1,
            "Pelgrom scaling, got {}",
            narrow / wide
        );
    }

    #[test]
    fn position_bias_is_deterministic_per_design() {
        let mut rng_a = StdRng::seed_from_u64(14);
        let mut rng_b = StdRng::seed_from_u64(14);
        let a = PositionBias::sample(32, 0.007, &mut rng_a);
        let b = PositionBias::sample(32, 0.007, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(!a.is_empty());
    }

    #[test]
    fn position_bias_none_is_all_zero() {
        let bias = PositionBias::none(8);
        assert!((0..8).all(|i| bias.offset_rel(i) == 0.0));
        assert!(PositionBias::none(0).is_empty());
    }
}
