//! Entropy estimators for key-strength accounting.
//!
//! A 128-bit key needs 128 bits of *min*-entropy at the fuzzy-extractor
//! input (minus the helper-data leakage). These estimators quantify how
//! much a biased or aliased PUF response actually delivers.

/// Binary min-entropy `−log2(max(p, 1−p))` in bits.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn binary_min_entropy(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    -p.max(1.0 - p).log2()
}

/// Total min-entropy of a response vector, estimated from the per-position
/// one-probabilities (bit-aliasing vector): independent-bit model, the
/// standard estimate for RO-PUF responses.
#[must_use]
pub fn min_entropy_from_aliasing(aliasing: &[f64]) -> f64 {
    aliasing.iter().map(|&p| binary_min_entropy(p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary Shannon entropy `H(p)` in bits: the bound min-entropy is
    /// checked against.
    fn binary_shannon(p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p == 0.0 || p == 1.0 {
            return 0.0;
        }
        -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
    }

    #[test]
    fn shannon_peaks_at_half() {
        assert_eq!(binary_shannon(0.5), 1.0);
        assert_eq!(binary_shannon(0.0), 0.0);
        assert_eq!(binary_shannon(1.0), 0.0);
        assert!(binary_shannon(0.3) < 1.0);
        assert!(
            (binary_shannon(0.3) - binary_shannon(0.7)).abs() < 1e-12,
            "symmetry"
        );
    }

    #[test]
    fn min_entropy_is_below_shannon() {
        for p in [0.1, 0.3, 0.45, 0.6, 0.9] {
            assert!(binary_min_entropy(p) <= binary_shannon(p) + 1e-12);
        }
        assert_eq!(binary_min_entropy(0.5), 1.0);
        assert_eq!(binary_min_entropy(1.0), 0.0);
    }

    #[test]
    fn aliasing_entropy_sums_positions() {
        let aliasing = vec![0.5, 0.5, 1.0, 0.0];
        assert_eq!(min_entropy_from_aliasing(&aliasing), 2.0);
    }

    #[test]
    fn biased_positions_cost_min_entropy() {
        let ideal = vec![0.5; 128];
        let biased = vec![0.342; 128]; // the conventional RO-PUF's ~45 % HD bias level
        assert_eq!(min_entropy_from_aliasing(&ideal), 128.0);
        let b = min_entropy_from_aliasing(&biased);
        assert!(b < 128.0 && b > 64.0, "biased entropy = {b}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn shannon_rejects_bad_probability() {
        let _ = binary_shannon(1.5);
    }
}
