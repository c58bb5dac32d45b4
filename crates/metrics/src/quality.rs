//! The standard PUF figures of merit (Maiti et al. formulation).
//!
//! | Metric | Ideal | What it detects |
//! |---|---|---|
//! | inter-chip HD (uniqueness) | 50 % | correlated / biased responses across chips |
//! | intra-chip HD (reliability) | 0 % | noise, environment, **aging** |
//! | uniformity | 50 % | biased 0/1 balance within one response |
//! | bit-aliasing | 50 % per bit | positions stuck the same way on every chip |

use crate::bits::BitString;
use crate::stats::Summary;

/// Fractional Hamming distance between two equal-length responses.
///
/// # Panics
/// Panics if lengths differ or are zero.
#[must_use]
pub fn fractional_hd(a: &BitString, b: &BitString) -> f64 {
    assert!(!a.is_empty(), "empty response");
    a.hamming_distance(b) as f64 / a.len() as f64
}

/// All pairwise fractional HDs between the responses of distinct chips —
/// the **uniqueness** distribution (`n·(n−1)/2` values).
///
/// # Panics
/// Panics if fewer than two responses are given.
#[must_use]
pub fn pairwise_hds(responses: &[BitString]) -> Vec<f64> {
    assert!(responses.len() >= 2, "uniqueness needs at least two chips");
    let mut hds = Vec::with_capacity(responses.len() * (responses.len() - 1) / 2);
    for (i, a) in responses.iter().enumerate() {
        for b in &responses[i + 1..] {
            let hd = fractional_hd(a, b);
            // Uniqueness stream for the fleet-health sketches: a p1
            // collapsing toward 0 means chip pairs are becoming clones.
            aro_obs::sketch("quality.interchip_hd", hd);
            hds.push(hd);
        }
    }
    hds
}

/// Summary of the inter-chip HD distribution (mean is the paper's
/// "average inter-chip HD"; ideal 0.5).
#[must_use]
pub fn inter_chip_hd(responses: &[BitString]) -> Summary {
    Summary::of(&pairwise_hds(responses))
}

/// Summary of the intra-chip HD of `resamples` against the enrollment
/// `reference` (reliability / aging error; ideal 0).
///
/// # Panics
/// Panics if `resamples` is empty.
#[must_use]
pub fn intra_chip_hd(reference: &BitString, resamples: &[BitString]) -> Summary {
    assert!(
        !resamples.is_empty(),
        "reliability needs at least one resample"
    );
    let hds: Vec<f64> = resamples
        .iter()
        .map(|r| {
            let hd = fractional_hd(reference, r);
            // Reliability stream: p99 creeping up is noise/aging error
            // approaching the ECC provisioning line.
            aro_obs::sketch("quality.intrachip_hd", hd);
            hd
        })
        .collect();
    Summary::of(&hds)
}

/// Fraction of 1s in one response (**uniformity**; ideal 0.5).
///
/// # Panics
/// Panics if the response is empty.
#[must_use]
pub fn uniformity(response: &BitString) -> f64 {
    assert!(!response.is_empty(), "empty response");
    response.count_ones() as f64 / response.len() as f64
}

/// Per-bit-position fraction of chips answering 1 (**bit-aliasing**;
/// ideal 0.5 at every position).
///
/// # Panics
/// Panics if `responses` is empty or lengths differ.
#[must_use]
pub fn bit_aliasing(responses: &[BitString]) -> Vec<f64> {
    assert!(
        !responses.is_empty(),
        "bit-aliasing needs at least one chip"
    );
    let len = responses[0].len();
    assert!(
        responses.iter().all(|r| r.len() == len),
        "response lengths differ"
    );
    (0..len)
        .map(|i| responses.iter().filter(|r| r.get(i)).count() as f64 / responses.len() as f64)
        .collect()
}

/// Fraction of bits of `aged` that differ from the enrollment `reference`
/// — the paper's "percentage of flipped bits".
#[must_use]
pub fn flip_rate(reference: &BitString, aged: &BitString) -> f64 {
    fractional_hd(reference, aged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(pattern: &str) -> BitString {
        pattern.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn fractional_hd_of_complement_is_one() {
        let a = bs("0101");
        let b = bs("1010");
        assert_eq!(fractional_hd(&a, &b), 1.0);
        assert_eq!(fractional_hd(&a, &a), 0.0);
    }

    #[test]
    fn pairwise_hds_count_is_n_choose_2() {
        let responses = vec![bs("0000"), bs("1111"), bs("0101"), bs("0011")];
        let hds = pairwise_hds(&responses);
        assert_eq!(hds.len(), 6);
        assert!(hds.iter().all(|&h| (0.0..=1.0).contains(&h)));
    }

    #[test]
    fn inter_chip_hd_of_identical_chips_is_zero() {
        let responses = vec![bs("0110"); 5];
        assert_eq!(inter_chip_hd(&responses).mean(), 0.0);
    }

    #[test]
    fn inter_chip_hd_of_mixed_chips_matches_hand_count() {
        // Pairwise HDs: two complementary pairs at 1.0, four pairs at 0.5.
        let responses = vec![bs("0101"), bs("1010"), bs("0110"), bs("1001")];
        let s = inter_chip_hd(&responses);
        assert!((s.mean() - (2.0 * 1.0 + 4.0 * 0.5) / 6.0).abs() < 1e-12);
        assert_eq!(s.n(), 6);
    }

    #[test]
    fn intra_chip_hd_measures_noise() {
        let reference = bs("00000000");
        let resamples = vec![bs("00000001"), bs("00000011"), bs("00000000")];
        let s = intra_chip_hd(&reference, &resamples);
        assert!((s.mean() - (1.0 + 2.0 + 0.0) / 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn uniformity_counts_ones() {
        assert_eq!(uniformity(&bs("1100")), 0.5);
        assert_eq!(uniformity(&bs("1111")), 1.0);
        assert_eq!(uniformity(&bs("0000")), 0.0);
    }

    #[test]
    fn bit_aliasing_detects_stuck_positions() {
        let responses = vec![bs("10"), bs("11"), bs("10"), bs("11")];
        let aliasing = bit_aliasing(&responses);
        assert_eq!(aliasing, vec![1.0, 0.5]);
    }

    #[test]
    fn flip_rate_is_fractional_hd() {
        let enrolled = bs("11110000");
        let aged = bs("11010001");
        assert_eq!(flip_rate(&enrolled, &aged), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least two chips")]
    fn uniqueness_of_one_chip_panics() {
        let _ = pairwise_hds(&[bs("01")]);
    }
}
