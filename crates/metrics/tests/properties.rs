//! Property-based tests for the metrics substrate: metric axioms that must
//! hold for arbitrary bit strings.

use aro_metrics::bits::BitString;
use aro_metrics::special::{erfc, gamma_q, normal_cdf};
use aro_metrics::stats::{quantile, Histogram, Summary};
use aro_metrics::{bit_aliasing, fractional_hd, nist, uniformity};
use proptest::prelude::*;

fn arb_bits(len: std::ops::Range<usize>) -> impl Strategy<Value = BitString> {
    prop::collection::vec(any::<bool>(), len).prop_map(|v| BitString::from_bools(&v))
}

/// The bit-by-bit packing `BitString::to_bytes` must reproduce: bit `i`
/// is bit `i % 8` of byte `i / 8`, the last byte zero-padded.
fn to_bytes_bitwise(bits: &BitString) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for i in 0..bits.len() {
        if bits.get(i) {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    bytes
}

proptest! {
    /// Hamming distance is a metric: identity, symmetry, triangle
    /// inequality.
    #[test]
    fn hamming_is_a_metric(v in prop::collection::vec(any::<(bool, bool, bool)>(), 1..300)) {
        let a: BitString = v.iter().map(|t| t.0).collect();
        let b: BitString = v.iter().map(|t| t.1).collect();
        let c: BitString = v.iter().map(|t| t.2).collect();
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
    }

    /// XOR count equals Hamming distance; flipping one bit changes HD by
    /// exactly one.
    #[test]
    fn flip_changes_hd_by_one(bits in arb_bits(1..300), idx in any::<prop::sample::Index>()) {
        let other = bits.clone();
        let mut flipped = bits.clone();
        let i = idx.index(bits.len());
        flipped.flip(i);
        prop_assert_eq!(other.hamming_distance(&flipped), 1);
        prop_assert_eq!(flipped.xor(&other).count_ones(), 1);
    }

    /// Word packing yields the bitwise packing's bytes at every length
    /// up to the drawn one, so every residue mod 8 and mod 64 is checked;
    /// so do strings built by `xor`, as helper offsets are.
    #[test]
    fn to_bytes_equals_the_bitwise_packing(
        v in prop::collection::vec(any::<(bool, bool)>(), 0..=300)
    ) {
        let a: BitString = v.iter().map(|t| t.0).collect();
        let b: BitString = v.iter().map(|t| t.1).collect();
        for len in 0..=v.len() {
            let prefix = a.slice(0, len);
            prop_assert_eq!(prefix.to_bytes(), to_bytes_bitwise(&prefix), "len {}", len);
        }
        let mixed = a.xor(&b);
        prop_assert_eq!(mixed.to_bytes(), to_bytes_bitwise(&mixed));
    }

    /// Uniformity and bit-aliasing are always in [0, 1] and consistent:
    /// the mean of the aliasing vector equals the mean uniformity.
    #[test]
    fn aliasing_consistent_with_uniformity(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 64), 2..20)
    ) {
        let responses: Vec<BitString> = rows.iter().map(|r| BitString::from_bools(r)).collect();
        let aliasing = bit_aliasing(&responses);
        prop_assert!(aliasing.iter().all(|p| (0.0..=1.0).contains(p)));
        let mean_aliasing: f64 = aliasing.iter().sum::<f64>() / aliasing.len() as f64;
        let mean_uniformity: f64 =
            responses.iter().map(uniformity).sum::<f64>() / responses.len() as f64;
        prop_assert!((mean_aliasing - mean_uniformity).abs() < 1e-12);
    }

    /// Fractional HD is bounded and complementation gives exactly 1.
    #[test]
    fn fractional_hd_bounds(bits in arb_bits(1..300)) {
        let complement = BitString::from_fn(bits.len(), |i| !bits.get(i));
        prop_assert_eq!(fractional_hd(&bits, &complement), 1.0);
        prop_assert_eq!(fractional_hd(&bits, &bits), 0.0);
    }

    /// Summary invariants: min <= mean <= max, sd >= 0.
    #[test]
    fn summary_invariants(xs in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.std_dev() >= 0.0);
        prop_assert_eq!(s.n(), xs.len());
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1e3..1e3f64, 1..100),
                          q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-9);
        prop_assert!(quantile(&xs, 0.0) <= quantile(&xs, lo) + 1e-9);
        prop_assert!(quantile(&xs, hi) <= quantile(&xs, 1.0) + 1e-9);
    }

    /// Histogram conservation: every sample lands in exactly one bucket.
    #[test]
    fn histogram_conserves_samples(xs in prop::collection::vec(-2.0..2.0f64, 0..200)) {
        let mut h = Histogram::new(0.0, 1.0, 7);
        h.add_all(&xs);
        let binned: usize = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len());
        prop_assert_eq!(h.total(), xs.len());
    }

    /// Special functions: the chi-squared tail `gamma_q` equals its closed
    /// forms — the Poisson tail `e^-x Σ_{i<k} x^i/i!` at integer `k`
    /// (relative 1e-9) and `erfc(√x) + 2√(x/π)·e^-x` at `a = 3/2` (erfc's
    /// 1e-6) — with `x` on both sides of the series / continued-fraction
    /// switch at `a + 1`; erfc stays in [0, 2].
    #[test]
    fn special_function_identities(k in 1u32..=16, x in 0.0..60.0f64) {
        let mut term = 1.0;
        let mut poisson = 0.0;
        for i in 0..k {
            if i > 0 {
                term *= x / f64::from(i);
            }
            poisson += term;
        }
        let exact = (-x).exp() * poisson;
        prop_assert!((gamma_q(f64::from(k), x) - exact).abs() <= 1e-9 * exact);
        let half = erfc(x.sqrt()) + 2.0 * (x / std::f64::consts::PI).sqrt() * (-x).exp();
        prop_assert!((gamma_q(1.5, x) - half).abs() < 1e-6);
        prop_assert!((0.0..=2.0).contains(&erfc(x / 6.0 - 5.0)));
    }

    #[test]
    fn normal_cdf_monotone(x1 in -8.0..8.0f64, x2 in -8.0..8.0f64) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
    }

    /// Every NIST p-value is a probability for arbitrary input.
    #[test]
    fn nist_p_values_are_probabilities(bits in arb_bits(128..1024)) {
        for r in nist::battery(&bits) {
            prop_assert!((0.0..=1.0).contains(&r.p_value), "{}: {}", r.name, r.p_value);
            prop_assert_eq!(r.pass, r.p_value >= nist::ALPHA);
        }
    }
}
