//! Summary statistics and histograms for experiment tables and figures.

/// Five-number summary plus moments of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    /// Panics if the sample is empty or contains a non-finite value.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Sample size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation.
///
/// # Panics
/// Panics if the sample is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "cannot take a quantile of an empty sample"
    );
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A fixed-range histogram (for the paper's HD distribution figures).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    total: usize,
    underflow: usize,
    overflow: usize,
}

impl Histogram {
    /// An empty histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n_bins = self.counts.len();
            let bin = ((x - self.lo) / (self.hi - self.lo) * n_bins as f64) as usize;
            self.counts[bin.min(n_bins - 1)] += 1;
        }
    }

    /// Adds every sample of a slice.
    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Raw bin counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total samples added (including out-of-range).
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Samples below the range.
    #[must_use]
    pub fn underflow(&self) -> usize {
        self.underflow
    }

    /// Samples at or above the range.
    #[must_use]
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// The centre of bin `i`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Renders `(bin centre, fraction)` pairs — the series the paper's
    /// distribution figures plot.
    #[must_use]
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let denom = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 / denom))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_of_single_sample_has_zero_sd() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_of_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.25), 1.0);
        assert!((quantile(&xs, 0.1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add_all(&[-0.1, 0.0, 0.1, 0.3, 0.6, 0.99, 1.0, 2.0]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn histogram_normalized_sums_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add_all(&[1.0, 2.0, 3.0, 4.0]);
        let total: f64 = h.normalized().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
