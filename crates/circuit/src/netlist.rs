//! Structural cell descriptions: transistor counts and silicon area.
//!
//! The paper's headline area claim ("~24× area reduction for a 128-bit
//! key") is a *system* number: (number of RO cells needed) × (cell area) +
//! (readout) + (ECC decoder area). This module provides the circuit-side
//! inputs; the decoder-side gate counts live in `aro-ecc::area`.
//!
//! Area accounting uses **gate equivalents** (GE, the area of a 2-input
//! NAND) so the ratios survive a technology retarget; the µm² conversion
//! below is the usual 90 nm figure.

use crate::gates::StageKind;

/// Area of one gate equivalent (2-input NAND) at the 90 nm node, in µm².
pub const GE_AREA_UM2: f64 = 3.1;

/// Average transistor area including local wiring at 90 nm, in µm²
/// (a 4-transistor NAND occupying one GE).
pub const TRANSISTOR_AREA_UM2: f64 = GE_AREA_UM2 / 4.0;

/// Silicon footprint of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellArea {
    /// Transistor count.
    pub transistors: usize,
    /// Area in µm² (90 nm node).
    pub area_um2: f64,
}

impl CellArea {
    /// Footprint of `transistors` transistors at the standard density.
    #[must_use]
    pub fn from_transistors(transistors: usize) -> Self {
        Self {
            transistors,
            area_um2: transistors as f64 * TRANSISTOR_AREA_UM2,
        }
    }

    /// Area expressed in gate equivalents.
    #[must_use]
    pub fn gate_equivalents(&self) -> f64 {
        self.area_um2 / GE_AREA_UM2
    }
}

/// Structural description of one ring-oscillator cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoCell {
    n_stages: usize,
    is_aging_resistant: bool,
}

impl RoCell {
    /// A conventional cell: the ring's stages as [`StageKind::of_stage`]
    /// lays them out, an enable NAND (4 T) then `n_stages − 1` inverters
    /// (2 T each).
    ///
    /// # Panics
    /// Panics if `n_stages` is even or less than 3.
    #[must_use]
    pub fn conventional(n_stages: usize) -> Self {
        assert!(
            n_stages >= 3 && n_stages % 2 == 1,
            "ring needs an odd stage count >= 3"
        );
        Self {
            n_stages,
            is_aging_resistant: false,
        }
    }

    /// The paper's ARO cell: the conventional topology plus two gating
    /// transistors per stage (supply decoupling + node equalization) and a
    /// 4-transistor idle-control driver.
    ///
    /// # Panics
    /// Panics if `n_stages` is even or less than 3.
    #[must_use]
    pub fn aging_resistant(n_stages: usize) -> Self {
        assert!(
            n_stages >= 3 && n_stages % 2 == 1,
            "ring needs an odd stage count >= 3"
        );
        Self {
            n_stages,
            is_aging_resistant: true,
        }
    }

    /// Stage count including the enable NAND.
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Whether this is the ARO cell.
    #[must_use]
    pub fn is_aging_resistant(&self) -> bool {
        self.is_aging_resistant
    }

    /// Transistor count of the cell: its stages' topologies
    /// ([`StageKind::transistor_count`]), plus the ARO gating and driver.
    #[must_use]
    pub fn transistor_count(&self) -> usize {
        let base: usize = (0..self.n_stages)
            .map(|i| StageKind::of_stage(i).transistor_count())
            .sum();
        if self.is_aging_resistant {
            base + 2 * self.n_stages + 4
        } else {
            base
        }
    }

    /// Silicon footprint of the cell.
    #[must_use]
    pub fn area(&self) -> CellArea {
        CellArea::from_transistors(self.transistor_count())
    }
}

/// Footprint of the shared readout path (two ripple counters, comparator,
/// and the pair-selection muxes) for an array of `n_ros` rings, with
/// `counter_bits`-bit counters.
///
/// Counter: ~12 T per bit (TFF + reset). Comparator: ~10 T per bit.
/// Mux tree: 2 × (n_ros − 1) 2:1 muxes at 6 T each.
#[must_use]
pub fn readout_area(n_ros: usize, counter_bits: usize) -> CellArea {
    let counters = 2 * counter_bits * 12;
    let comparator = counter_bits * 10;
    let muxes = 2 * n_ros.saturating_sub(1) * 6;
    CellArea::from_transistors(counters + comparator + muxes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_five_stage_cell_is_twelve_transistors() {
        let cell = RoCell::conventional(5);
        assert_eq!(cell.transistor_count(), 4 + 4 * 2);
        assert!(!cell.is_aging_resistant());
        assert_eq!(cell.n_stages(), 5);
    }

    #[test]
    fn aro_cell_is_larger_but_less_than_three_x() {
        let conv = RoCell::conventional(5);
        let aro = RoCell::aging_resistant(5);
        assert!(aro.transistor_count() > conv.transistor_count());
        let ratio = aro.area().area_um2 / conv.area().area_um2;
        assert!(
            ratio > 1.5 && ratio < 3.0,
            "ARO/RO cell area ratio = {ratio}"
        );
    }

    #[test]
    fn area_scales_linearly_with_transistors() {
        let a = CellArea::from_transistors(10);
        let b = CellArea::from_transistors(20);
        assert!((b.area_um2 / a.area_um2 - 2.0).abs() < 1e-12);
        assert!((a.gate_equivalents() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn readout_area_grows_with_array_size() {
        let small = readout_area(16, 16);
        let large = readout_area(256, 16);
        assert!(large.area_um2 > small.area_um2);
        assert!(small.transistors > 0);
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_cell_panics() {
        let _ = RoCell::conventional(6);
    }

    #[test]
    fn ge_conversion_is_consistent() {
        assert!((CellArea::from_transistors(4).gate_equivalents() - 1.0).abs() < 1e-12);
    }
}
