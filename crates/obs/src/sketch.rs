//! Streaming, mergeable statistics sketches for fleet-health telemetry.
//!
//! A [`Sketch`] answers "what do a million observations look like?" without
//! materializing them: count, exact fixed-point mean/variance, min/max,
//! log-spaced quantile buckets and tail counters — in a few hundred bytes,
//! independent of stream length. This is the load-bearing accumulator for
//! the streaming million-chip engine (see ROADMAP.md): per-chip BER,
//! decode-margin and frequency distributions are folded into sketches as
//! they stream past, never into vectors.
//!
//! **Determinism contract.** Every accumulator is exactly associative and
//! commutative, so splitting a stream across workers and merging the
//! per-worker sketches in worker-index order (the `aro-par` handoff
//! discipline) is byte-identical to sequential accumulation at any
//! `--threads N`:
//!
//! - `count` and all bucket/tail counters are `u64` sums;
//! - the first and second moments are the merge-friendly integer form of
//!   Welford's accumulator: `sum_fp` holds `Σ round(v·2^20)` as an `i128`
//!   (wrapping — exact mod 2^128, still order-independent), `sumsq_fp`
//!   holds `Σ round(v·2^20)²` (scale 2^40, saturating — a saturating sum
//!   of non-negative terms is order-independent because the cap is
//!   absorbing and prefix sums are monotone);
//! - `min`/`max` are `f64` under `min`/`max`, both commutative.
//!
//! **Quantiles.** Every sketch shares one bucket layout, so any two merge.
//! Positive values land in log-spaced buckets, [`PER_DECADE`] per factor
//! of ten between `10^MIN_EXP` and `10^MAX_EXP`;
//! values below, at, or beyond the covered range increment the `low`,
//! `zero`/`neg`, and `high` tail counters. A quantile query walks the
//! cumulative counts (nearest-rank rule) and reports the selected bucket's
//! geometric lower edge clamped to the observed `[min, max]`, so exact
//! powers of ten report exactly, a single-valued sketch reports that value
//! at every quantile, and the relative error is bounded by one bucket
//! ratio (`10^(1/PER_DECADE)`, ≈1.33×).

use std::fmt::Write as _;

use crate::json;

/// Fixed-point scale for the first moment: `round(v * 2^20)`.
pub const SKETCH_SUM_SCALE: f64 = (1u64 << 20) as f64;

/// Quantile buckets per factor of ten (≤33 % quantile resolution).
pub const PER_DECADE: u32 = 8;
/// Lower coverage edge is `10^MIN_EXP`; positive values below it count in
/// the `low` tail.
pub const MIN_EXP: i32 = -9;
/// Upper coverage edge is `10^MAX_EXP`; values at or above it count in the
/// `high` tail.
pub const MAX_EXP: i32 = 10;

/// 152 buckets from `1e-9` to `1e10`: spans BERs (~1e-6), Hamming
/// distances (~0.5), decode margins (1–10) and frequencies in GHz.
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * PER_DECADE as usize;

/// Geometric lower edge of bucket `i`.
fn bucket_lower(i: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    10f64.powf(f64::from(MIN_EXP) + i as f64 / f64::from(PER_DECADE))
}

/// An order-independent, mergeable streaming summary of a value stream.
/// See the module docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    count: u64,
    sum_fp: i128,
    sumsq_fp: i128,
    min: f64,
    max: f64,
    /// Tail: observations `< 0`.
    neg: u64,
    /// Tail: observations exactly `0`.
    zero: u64,
    /// Tail: observations in `(0, 10^MIN_EXP)`.
    low: u64,
    /// Tail: observations `>= 10^MAX_EXP`.
    high: u64,
    buckets: [u64; N_BUCKETS],
}

impl Sketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum_fp: 0,
            sumsq_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            neg: 0,
            zero: 0,
            low: 0,
            high: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    /// Records one observation. Non-finite values are counted into the
    /// matching tail (`-inf` → `neg`, `+inf` → `high`, NaN → `zero`) and
    /// excluded from the moments so one poisoned value cannot destroy the
    /// mean.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            #[allow(clippy::cast_possible_truncation)]
            let fp = (value * SKETCH_SUM_SCALE).round() as i128;
            self.sum_fp = self.sum_fp.wrapping_add(fp);
            self.sumsq_fp = self.sumsq_fp.saturating_add(fp.saturating_mul(fp));
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        if value.is_nan() || value == 0.0 {
            self.zero += 1;
        } else if value < 0.0 {
            self.neg += 1;
        } else if value.is_infinite() {
            self.high += 1;
        } else {
            let exp = value.log10() - f64::from(MIN_EXP);
            #[allow(clippy::cast_possible_truncation)]
            let idx = (exp * f64::from(PER_DECADE)).floor() as i64;
            if idx < 0 {
                self.low += 1;
            } else if idx as usize >= N_BUCKETS {
                self.high += 1;
            } else {
                self.buckets[idx as usize] += 1;
            }
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Sketch) {
        self.count += other.count;
        self.sum_fp = self.sum_fp.wrapping_add(other.sum_fp);
        self.sumsq_fp = self.sumsq_fp.saturating_add(other.sumsq_fp);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.neg += other.neg;
        self.zero += other.zero;
        self.low += other.low;
        self.high += other.high;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// The exact contribution of observations made after `earlier` was
    /// snapshotted: counts, buckets and moments subtract exactly.
    ///
    /// `min`/`max` are **run-cumulative** (they cannot be un-merged); the
    /// delta inherits the later snapshot's values, which bound the window.
    ///
    /// # Panics
    /// Panics if `earlier` is not a prefix of `self` (any counter would go
    /// negative).
    #[must_use]
    pub fn delta_since(&self, earlier: &Sketch) -> Sketch {
        let sub = |a: u64, b: u64| {
            a.checked_sub(b)
                .expect("sketch delta: earlier snapshot is not a prefix")
        };
        Sketch {
            count: sub(self.count, earlier.count),
            sum_fp: self.sum_fp.wrapping_sub(earlier.sum_fp),
            sumsq_fp: self.sumsq_fp.saturating_sub(earlier.sumsq_fp),
            min: self.min,
            max: self.max,
            neg: sub(self.neg, earlier.neg),
            zero: sub(self.zero, earlier.zero),
            low: sub(self.low, earlier.low),
            high: sub(self.high, earlier.high),
            buckets: std::array::from_fn(|i| sub(self.buckets[i], earlier.buckets[i])),
        }
    }

    /// Total number of observations (including tails).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact order-independent sum of the finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum_fp as f64 / SKETCH_SUM_SCALE
        }
    }

    /// Mean of the finite observations, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum() / self.count as f64
            }
        }
    }

    /// Unbiased sample variance, recovered from the exact integer moments
    /// (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.count as f64;
        #[allow(clippy::cast_precision_loss)]
        let sum = self.sum_fp as f64 / SKETCH_SUM_SCALE;
        #[allow(clippy::cast_precision_loss)]
        let sumsq = self.sumsq_fp as f64 / (SKETCH_SUM_SCALE * SKETCH_SUM_SCALE);
        ((sumsq - sum * sum / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sparse `(bucket_index, count)` pairs for the non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) under the nearest-rank rule,
    /// resolved to the selected bucket's geometric lower edge clamped to
    /// the observed `[min, max]`. Returns 0 for an empty sketch.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let clamp = |v: f64| {
            if self.min.is_finite() {
                v.max(self.min).min(self.max)
            } else {
                v
            }
        };
        let mut seen = self.neg;
        if rank <= seen {
            // All negative mass resolves to the most negative observation;
            // negative-range quantiles are deliberately coarse.
            return if self.min.is_finite() { self.min } else { 0.0 };
        }
        seen += self.zero;
        if rank <= seen {
            return 0.0;
        }
        seen += self.low;
        if rank <= seen {
            return clamp(bucket_lower(0));
        }
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return clamp(bucket_lower(i));
            }
        }
        if self.max.is_finite() {
            self.max
        } else {
            bucket_lower(N_BUCKETS)
        }
    }

    /// Appends this sketch's canonical dump line (sparse buckets) to `out`;
    /// byte-equality of dumps is the determinism oracle used by tests.
    pub fn dump_into(&self, out: &mut String, name: &str) {
        let sparse: Vec<(usize, u64)> = self.nonzero_buckets().collect();
        let _ = writeln!(
            out,
            "sketch {name} count={} sum_fp={} sumsq_fp={} min={:?} max={:?} \
             neg={} zero={} low={} high={} buckets={sparse:?}",
            self.count,
            self.sum_fp,
            self.sumsq_fp,
            self.min,
            self.max,
            self.neg,
            self.zero,
            self.low,
            self.high,
        );
    }

    /// Serializes as one `{"event":"sketch",…}` JSONL object. The layout
    /// constants ride along so a capture names the layout it was recorded
    /// under. The `i128` moments are carried as decimal strings (JSON
    /// numbers are f64 and would silently lose their exactness); buckets
    /// are sparse `[index, count]` pairs.
    #[must_use]
    pub fn to_jsonl(&self, name: &str) -> String {
        let mut line = String::from("{\"event\":\"sketch\",\"name\":");
        json::escape_into(&mut line, name);
        let _ = write!(
            line,
            ",\"per_decade\":{},\"min_exp\":{},\"max_exp\":{},\"count\":{}",
            PER_DECADE, MIN_EXP, MAX_EXP, self.count
        );
        let _ = write!(
            line,
            ",\"sum_fp\":\"{}\",\"sumsq_fp\":\"{}\"",
            self.sum_fp, self.sumsq_fp
        );
        line.push_str(",\"min\":");
        json::number_into(&mut line, if self.count == 0 { 0.0 } else { self.min });
        line.push_str(",\"max\":");
        json::number_into(&mut line, if self.count == 0 { 0.0 } else { self.max });
        let _ = write!(
            line,
            ",\"neg\":{},\"zero\":{},\"low\":{},\"high\":{}",
            self.neg, self.zero, self.low, self.high
        );
        line.push_str(",\"buckets\":[");
        for (i, (idx, count)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{idx},{count}]");
        }
        line.push_str("]}");
        line
    }

    /// Reconstructs a named sketch from a parsed `{"event":"sketch",…}`
    /// object; `None` when the object is not a well-formed sketch event or
    /// names a bucket layout other than this one.
    #[must_use]
    pub fn from_json(v: &json::Value) -> Option<(String, Sketch)> {
        if v.get("event").and_then(json::Value::as_str) != Some("sketch") {
            return None;
        }
        let name = v.get("name").and_then(json::Value::as_str)?.to_string();
        let layout = |key| v.get(key).and_then(json::Value::as_f64);
        if layout("per_decade")? != f64::from(PER_DECADE)
            || layout("min_exp")? != f64::from(MIN_EXP)
            || layout("max_exp")? != f64::from(MAX_EXP)
        {
            return None;
        }
        let mut sketch = Sketch::new();
        sketch.count = v.get("count").and_then(json::Value::as_u64)?;
        sketch.sum_fp = v
            .get("sum_fp")
            .and_then(json::Value::as_str)?
            .parse()
            .ok()?;
        sketch.sumsq_fp = v
            .get("sumsq_fp")
            .and_then(json::Value::as_str)?
            .parse()
            .ok()?;
        if sketch.count == 0 {
            sketch.min = f64::INFINITY;
            sketch.max = f64::NEG_INFINITY;
        } else {
            sketch.min = v.get("min").and_then(json::Value::as_f64)?;
            sketch.max = v.get("max").and_then(json::Value::as_f64)?;
        }
        sketch.neg = v.get("neg").and_then(json::Value::as_u64)?;
        sketch.zero = v.get("zero").and_then(json::Value::as_u64)?;
        sketch.low = v.get("low").and_then(json::Value::as_u64)?;
        sketch.high = v.get("high").and_then(json::Value::as_u64)?;
        let buckets = match v.get("buckets")? {
            json::Value::Array(items) => items,
            _ => return None,
        };
        for pair in buckets {
            let json::Value::Array(pair) = pair else {
                return None;
            };
            #[allow(clippy::cast_possible_truncation)]
            let idx = pair.first().and_then(json::Value::as_u64)? as usize;
            let count = pair.get(1).and_then(json::Value::as_u64)?;
            if idx >= sketch.buckets.len() {
                return None;
            }
            sketch.buckets[idx] = count;
        }
        Some((name, sketch))
    }
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> Sketch {
        let mut s = Sketch::default();
        for &v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn moments_are_exact_fixed_point() {
        let s = filled(&[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(s.count(), 4);
        assert!((s.sum() - 2.5).abs() < 1e-9);
        assert!((s.mean() - 0.625).abs() < 1e-9);
        // Sample variance of {0.25,0.5,0.75,1.0} is 0.104166…
        assert!((s.variance() - 0.104_166_666_7).abs() < 1e-6);
        assert_eq!(s.min(), 0.25);
        assert_eq!(s.max(), 1.0);
    }

    #[test]
    fn tails_catch_out_of_range_and_non_finite() {
        let mut s = filled(&[-3.0, 0.0, 1e-12, 1e15]);
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert_eq!((s.neg, s.zero, s.low, s.high), (1, 2, 1, 2));
        assert_eq!(s.count(), 6);
        // Non-finite values are excluded from the moments.
        assert!(s.mean().is_finite());
    }

    #[test]
    fn single_value_reports_exactly_at_every_quantile() {
        let s = filled(&[0.001_7]);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.001_7, "q={q}");
        }
    }

    #[test]
    fn quantiles_resolve_within_one_bucket_ratio() {
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1e-5).collect();
        let s = filled(&values);
        let ratio = 10f64.powf(1.0 / f64::from(PER_DECADE));
        for (q, exact) in [(0.01, 1e-4), (0.5, 5e-3), (0.99, 9.9e-3)] {
            let got = s.quantile(q);
            assert!(
                got <= exact * 1.001 && got >= exact / (ratio * 1.001),
                "q={q}: got {got}, exact {exact}"
            );
        }
        // Exact powers of ten sit on bucket edges and report exactly.
        let powers = filled(&[1e-3; 10]);
        assert_eq!(powers.quantile(0.5), 1e-3);
    }

    #[test]
    fn partitioned_merge_matches_sequential_bytes() {
        let values: Vec<f64> = (0..997)
            .map(|i| (f64::from(i) * 0.618_033_9).fract() * 10f64.powi(i % 13 - 6))
            .collect();
        let mut sequential = Sketch::default();
        for &v in &values {
            sequential.observe(v);
        }
        for parts in [2, 3, 8, 31] {
            let mut merged = Sketch::default();
            for chunk in values.chunks(values.len().div_ceil(parts)) {
                let mut worker = Sketch::default();
                for &v in chunk {
                    worker.observe(v);
                }
                merged.merge(&worker);
            }
            let (mut a, mut b) = (String::new(), String::new());
            sequential.dump_into(&mut a, "s");
            merged.dump_into(&mut b, "s");
            assert_eq!(a, b, "parts={parts}");
        }
    }

    #[test]
    fn delta_since_recovers_the_window_exactly() {
        let mut s = filled(&[0.1, 0.2]);
        let before = s.clone();
        s.observe(0.4);
        s.observe(0.8);
        let delta = s.delta_since(&before);
        assert_eq!(delta.count(), 2);
        // Fixed point quantizes each observation to 2^-20.
        assert!((delta.sum() - 1.2).abs() < 1e-5);
        assert!((delta.mean() - 0.6).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn delta_since_rejects_non_prefix() {
        let a = filled(&[0.1]);
        let b = filled(&[0.1, 0.2]);
        let _ = a.delta_since(&b);
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let s = filled(&[-1.5, 0.0, 1e-12, 0.3, 0.31, 2.5, 1e12]);
        let line = s.to_jsonl("puf.ber");
        let v = json::parse(&line).expect("valid JSON");
        let (name, back) = Sketch::from_json(&v).expect("well-formed sketch event");
        assert_eq!(name, "puf.ber");
        assert_eq!(back, s);
        // Empty sketches round-trip too (min/max sentinel handling).
        let empty = Sketch::default();
        let v = json::parse(&empty.to_jsonl("e")).unwrap();
        assert_eq!(Sketch::from_json(&v).unwrap().1, empty);
    }
}
