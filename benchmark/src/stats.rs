//! Order statistics and the regression rule `compare` applies.

/// Fewest samples a tail percentile is reported from: at least ten
/// samples must lie beyond it, so p99 needs 1000.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here as
/// in any external check of the same numbers. `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python clamps the index but not the weight, so with few values
    // the outer quartiles extrapolate past the sample range.
    let quartile = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(1), quartile(3)))
}

/// Run-to-run spread: interquartile range as a share of the median (0
/// when there are fewer than two values or the median is 0).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the value at index
/// `ceil(q * n) - 1`. `q` is in `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A tail percentile, refused (`None`) unless at least ten samples lie
/// beyond it: p99 needs 1000 samples.
#[must_use]
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = (1.0 - q) * sorted.len() as f64;
    if beyond + 1e-9 < TAIL_SAMPLES_BEYOND as f64 {
        return None;
    }
    percentile(sorted, q)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the parent's median.
    pub share: f64,
    /// Allowed worsening in the metric's own unit, whatever the share
    /// (set-up times near zero would otherwise flip on microseconds).
    pub floor: f64,
}

/// What one (metric, workload) pair did between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's spread is wider than the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` (per-rep samples of one metric on
/// one workload). A difference within the bound's floor is the same,
/// however noisy either side. Otherwise, when either side's spread is
/// wider than the share the pair is unresolved, unless every change
/// sample beats every parent sample; worse or better means the medians
/// differ by more than the share.
#[must_use]
pub fn verdict(higher_is_better: bool, bound: Bound, parent: &[f64], change: &[f64]) -> Verdict {
    let worse_by = |from: f64, to: f64| {
        if higher_is_better {
            from - to
        } else {
            to - from
        }
    };
    let base = median(parent);
    let loss = worse_by(base, median(change));
    let rel = if base == 0.0 { 0.0 } else { loss / base.abs() };
    if loss.abs() <= bound.floor {
        return Verdict::Same;
    }
    if spread(parent) > bound.share || spread(change) > bound.share {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| worse_by(p, c) < 0.0));
        return if all_better && !parent.is_empty() && !change.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if rel > bound.share {
        Verdict::Worse
    } else if -rel > bound.share {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_PCT: Bound = Bound {
        share: 0.10,
        floor: 0.0,
    };

    #[test]
    fn nearest_rank_index_rule() {
        let data: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&data, 0.5), Some(500));
        assert_eq!(percentile(&data, 0.99), Some(990));
        assert_eq!(percentile(&data, 1.0), Some(1000));
        assert_eq!(percentile(&[7, 9], 0.5), Some(7));
        assert_eq!(percentile(&[7, 9], 0.51), Some(9));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1], 0.0), None);
    }

    #[test]
    fn p99_refuses_fewer_than_1000_samples() {
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(990));
        assert_eq!(tail_percentile(&short, 0.5), Some(500));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn bound_logic_judges_direction_and_share() {
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(false, TEN_PCT, &parent, &[10.5, 10.6, 10.4]),
            Verdict::Same
        );
        assert_eq!(
            verdict(false, TEN_PCT, &parent, &[11.5, 11.6, 11.4]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(false, TEN_PCT, &parent, &[8.5, 8.6, 8.4]),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(true, TEN_PCT, &parent, &[8.5, 8.6, 8.4]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(true, TEN_PCT, &parent, &[11.5, 11.6, 11.4]),
            Verdict::Better
        );
    }

    #[test]
    fn the_floor_absorbs_small_absolute_changes() {
        let setup = Bound {
            share: 0.25,
            floor: 0.05,
        };
        // Doubling a 10 ms set-up is within the 50 ms floor.
        assert_eq!(
            verdict(false, setup, &[0.010, 0.010], &[0.020, 0.020]),
            Verdict::Same
        );
        // Within the floor, noise does not matter either.
        assert_eq!(
            verdict(false, setup, &[1e-7, 3e-7], &[2e-7, 9e-7]),
            Verdict::Same
        );
        // Past both the share and the floor it is a regression.
        assert_eq!(
            verdict(false, setup, &[0.80, 0.80], &[1.10, 1.10]),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            verdict(false, TEN_PCT, &noisy, &[10.5, 10.6]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(false, TEN_PCT, &[10.0, 10.0], &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(false, TEN_PCT, &noisy, &[5.0, 6.0]),
            Verdict::Better
        );
    }
}
