//! Pairing strategies: how the RO array maps to response bits.
//!
//! The paper's evaluation (and the RO-PUF literature it builds on) uses
//! disjoint neighbour pairs for its headline numbers; the other strategies
//! are the standard alternatives and feed the EXP-7 ablation:
//!
//! * [`PairingStrategy::Neighbor`] — disjoint `(0,1), (2,3), …`:
//!   `n/2` independent bits, neighbours share systematic gradient so the
//!   comparison isolates random mismatch.
//! * [`PairingStrategy::Sequential`] — chained `(0,1), (1,2), …`:
//!   `n−1` bits from the same array (denser) but adjacent bits share a
//!   ring and are correlated.
//! * [`PairingStrategy::Distant`] — `(i, i + n/2)`: pairs span the die, so
//!   the systematic gradient leaks into the comparison.
//! * [`PairingStrategy::SortedOneOutOfK`] — Suh & Devadas' 1-out-of-k
//!   masking: within each group of `k` rings pick the pair with the
//!   *largest enrollment margin*, trading `k/2×` area for far fewer flips.

/// A pairing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairingStrategy {
    /// Disjoint neighbour pairs `(2i, 2i+1)`.
    Neighbor,
    /// Chained pairs `(i, i+1)` — maximal bits, correlated.
    Sequential,
    /// Cross-die pairs `(i, i + n/2)`.
    Distant,
    /// Suh–Devadas 1-out-of-k: per group of `k` rings, the max-margin pair
    /// at enrollment.
    SortedOneOutOfK {
        /// Group size (at least 2).
        k: usize,
    },
}

impl PairingStrategy {
    /// Whether this strategy needs enrollment frequencies to choose pairs.
    #[must_use]
    pub fn needs_enrollment(&self) -> bool {
        matches!(self, Self::SortedOneOutOfK { .. })
    }

    /// The pair list for enrollment-free strategies.
    ///
    /// # Panics
    /// Panics if called on [`Self::SortedOneOutOfK`] (use
    /// [`Self::pairs_with_enrollment`]) or `n_ros < 2`.
    #[must_use]
    pub fn pairs(&self, n_ros: usize) -> Vec<(usize, usize)> {
        assert!(n_ros >= 2, "need at least two rings");
        match *self {
            Self::Neighbor => (0..n_ros / 2).map(|i| (2 * i, 2 * i + 1)).collect(),
            Self::Sequential => (0..n_ros - 1).map(|i| (i, i + 1)).collect(),
            Self::Distant => (0..n_ros / 2).map(|i| (i, i + n_ros / 2)).collect(),
            Self::SortedOneOutOfK { .. } => {
                panic!("1-out-of-k pairing needs enrollment frequencies")
            }
        }
    }

    /// The pair list given enrollment frequencies (works for every
    /// strategy; enrollment-free strategies ignore `freqs`).
    ///
    /// # Panics
    /// Panics if `freqs` has fewer than 2 entries, or `k < 2`.
    #[must_use]
    pub fn pairs_with_enrollment(&self, freqs: &[f64]) -> Vec<(usize, usize)> {
        let n_ros = freqs.len();
        match *self {
            Self::SortedOneOutOfK { k } => {
                assert!(k >= 2, "1-out-of-k needs k >= 2");
                assert!(n_ros >= k, "need at least one full group");
                (0..n_ros / k)
                    .map(|g| {
                        let base = g * k;
                        let group = &freqs[base..base + k];
                        // The max-margin pair in the group is {argmax, argmin}.
                        let (mut hi, mut lo) = (0, 0);
                        for (i, &f) in group.iter().enumerate() {
                            if f > group[hi] {
                                hi = i;
                            }
                            if f < group[lo] {
                                lo = i;
                            }
                        }
                        // Emit index-ordered: the helper data records *which*
                        // rings to compare, never which is faster — otherwise
                        // every masked bit would be a constant 1.
                        (base + hi.min(lo), base + hi.max(lo))
                    })
                    .collect()
            }
            _ => self.pairs(n_ros),
        }
    }

    /// Short label for experiment tables.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Self::Neighbor => "neighbor".to_string(),
            Self::Sequential => "sequential".to_string(),
            Self::Distant => "distant".to_string(),
            Self::SortedOneOutOfK { k } => format!("1-out-of-{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_pairs_are_disjoint() {
        let pairs = PairingStrategy::Neighbor.pairs(8);
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
    }

    #[test]
    fn sequential_pairs_chain() {
        let pairs = PairingStrategy::Sequential.pairs(4);
        assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn distant_pairs_span_the_array() {
        let pairs = PairingStrategy::Distant.pairs(6);
        assert_eq!(pairs, vec![(0, 3), (1, 4), (2, 5)]);
    }

    #[test]
    fn one_out_of_k_picks_the_extreme_pair() {
        let freqs = [1.0, 5.0, 3.0, 2.0, /* group 2 */ 9.0, 8.0, 7.0, 6.5];
        let pairs = PairingStrategy::SortedOneOutOfK { k: 4 }.pairs_with_enrollment(&freqs);
        assert_eq!(pairs, vec![(0, 1), (4, 7)]);
    }

    #[test]
    fn one_out_of_k_margin_dominates_neighbor_margin() {
        let freqs: Vec<f64> = (0..16).map(|i| ((i * 7919) % 13) as f64).collect();
        let k_pairs = PairingStrategy::SortedOneOutOfK { k: 8 }.pairs_with_enrollment(&freqs);
        let n_pairs = PairingStrategy::Neighbor.pairs(16);
        let margin = |ps: &[(usize, usize)]| {
            ps.iter()
                .map(|&(a, b)| (freqs[a] - freqs[b]).abs())
                .fold(f64::INFINITY, f64::min)
        };
        assert!(margin(&k_pairs) >= margin(&n_pairs));
    }

    #[test]
    fn enrollment_free_strategies_ignore_freqs() {
        let freqs = vec![3.0, 1.0, 2.0, 0.5];
        assert_eq!(
            PairingStrategy::Neighbor.pairs_with_enrollment(&freqs),
            PairingStrategy::Neighbor.pairs(4)
        );
    }

    #[test]
    fn needs_enrollment_flags_only_sorted() {
        assert!(!PairingStrategy::Neighbor.needs_enrollment());
        assert!(!PairingStrategy::Sequential.needs_enrollment());
        assert!(PairingStrategy::SortedOneOutOfK { k: 8 }.needs_enrollment());
    }

    #[test]
    #[should_panic(expected = "needs enrollment")]
    fn sorted_pairs_without_freqs_panics() {
        let _ = PairingStrategy::SortedOneOutOfK { k: 4 }.pairs(8);
    }

    #[test]
    fn labels_render() {
        assert_eq!(
            PairingStrategy::SortedOneOutOfK { k: 8 }.label(),
            "1-out-of-8"
        );
        assert_eq!(PairingStrategy::Neighbor.label(), "neighbor");
    }
}
