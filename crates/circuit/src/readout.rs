//! Counter-based frequency readout.
//!
//! A real RO-PUF never sees a frequency directly: each selected ring drives
//! a binary counter for a fixed **gate time**, and the pair's two counts
//! are compared. Two noise sources matter:
//!
//! * **Quantization** — the count is `floor(f · T + phase)`; short gate
//!   times leave few counts and the ±1 LSB matters for close pairs.
//! * **Jitter and environmental micro-noise** — accumulated period jitter
//!   shrinks with `1/sqrt(cycles)`, while supply/temperature
//!   micro-fluctuations put a floor on the relative error that does not
//!   average out within one gate window.
//!
//! The paper (like Suh & Devadas) reads all pairs with two shared counters
//! behind muxes, so a ring only oscillates — and only *ages by HCI* —
//! during its own measurement windows: one gate time per readout, which is
//! what the mission-profile scheduler charges.
//!
//! The noise is bounded: a standard-normal draw never exceeds
//! [`STANDARD_NORMAL_BOUND`], so every count a ring can take lies in a
//! known envelope, and a pair whose envelopes do not overlap gives the
//! same bit on every read ([`ReadoutConfig::decided_bit`]).

use rand::Rng;

use aro_device::rng::{standard_normal, STANDARD_NORMAL_BOUND};

/// Relative widening of a count envelope for floating-point rounding.
/// A count and its envelope bound are each a handful of `f64` operations
/// (a product, a sum, a floor), whose rounding stays within 2⁻⁵⁰ of the
/// magnitude; 10⁻¹² covers that a thousandfold and costs under a
/// millionth of a count at any realistic gate time.
const ROUNDING_SLACK_REL: f64 = 1e-12;

/// Configuration of the counter-based readout path.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutConfig {
    /// Counter gate time in seconds.
    pub gate_time_s: f64,
    /// Cycle-to-cycle period jitter, relative to the period. Its effect on
    /// the count shrinks as `1/sqrt(cycles)`.
    pub jitter_rel: f64,
    /// Floor of the relative frequency error from supply/temperature
    /// micro-fluctuation within a gate window (does not average out).
    pub sigma_meas_rel: f64,
}

impl Default for ReadoutConfig {
    /// 100 µs gate time, 1 % cycle jitter, 0.02 % environmental floor —
    /// a counter resolution comparable to published RO-PUF testbeds.
    fn default() -> Self {
        Self {
            gate_time_s: 100e-6,
            jitter_rel: 0.01,
            sigma_meas_rel: 2e-4,
        }
    }
}

impl ReadoutConfig {
    /// A noiseless, quantization-only readout (for deterministic tests).
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            gate_time_s: 100e-6,
            jitter_rel: 0.0,
            sigma_meas_rel: 0.0,
        }
    }

    /// Relative 1-sigma error of a frequency estimate for a ring running
    /// at `freq` hertz.
    #[must_use]
    pub fn sigma_rel_at(&self, freq: f64) -> f64 {
        let cycles = (freq * self.gate_time_s).max(1.0);
        ((self.jitter_rel * self.jitter_rel) / cycles + self.sigma_meas_rel * self.sigma_meas_rel)
            .sqrt()
    }

    /// Returns this readout with both noise contributions (cycle jitter
    /// and the environmental floor) amplified by `factor` — the
    /// fault-injection hook for RTN (random-telegraph-noise) bursts, where
    /// a trap ensemble briefly multiplies the non-averaging noise floor.
    /// These bursts are the only place RTN enters the model: the steady
    /// readout has no RTN term.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and `>= 1.0` (a burst never
    /// quietens the readout).
    #[must_use]
    pub fn with_noise_burst(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "noise burst factor must be >= 1"
        );
        Self {
            gate_time_s: self.gate_time_s,
            jitter_rel: self.jitter_rel * factor,
            sigma_meas_rel: self.sigma_meas_rel * factor,
        }
    }

    /// Counts `f_true` through the gate window, adding jitter noise and
    /// quantizing. A dead ring (`f_true == 0`) legitimately counts zero —
    /// the counter simply never advances.
    ///
    /// # Panics
    /// Panics if `f_true` is negative or NaN.
    pub fn measure<R: Rng + ?Sized>(&self, f_true: f64, rng: &mut R) -> Measurement {
        self.draw(&self.resolve(f_true), rng)
    }

    /// The noise-free half of [`ReadoutConfig::measure`]: a ring running at
    /// `f_true` hertz with its noise sigma, ready for any number of
    /// [`ReadoutConfig::draw`]s.
    ///
    /// # Panics
    /// Panics if `f_true` is negative or NaN.
    #[must_use]
    pub fn resolve(&self, f_true: f64) -> ResolvedRing {
        assert!(f_true >= 0.0, "frequency must be non-negative");
        ResolvedRing {
            f_true,
            sigma_rel: self.sigma_rel_at(f_true),
        }
    }

    /// The noisy half of [`ReadoutConfig::measure`]: one gated count of a
    /// resolved ring. A dead ring counts zero without drawing.
    pub fn draw<R: Rng + ?Sized>(&self, ring: &ResolvedRing, rng: &mut R) -> Measurement {
        if ring.is_dead() {
            return Measurement::new(0, self.gate_time_s);
        }
        let f_noisy = ring.f_true * (1.0 + ring.sigma_rel * standard_normal(rng));
        let phase: f64 = rng.gen_range(0.0..1.0);
        Measurement::new(
            gated_count(f_noisy * self.gate_time_s + phase),
            self.gate_time_s,
        )
    }

    /// The bit every read of the pair `(a, b)` gives, when noise cannot
    /// flip it: `Some(bit)` iff every count [`ReadoutConfig::draw`] can
    /// return for `a`, against every count it can return for `b`, gives
    /// `bit` ([`Measurement::bit_against`]); `None` when some draws give
    /// each bit.
    ///
    /// A ring at `f` hertz with noise sigma `σ` counts
    /// `floor(f·(1 + σz)·T + phase)` over the gate time `T`, with
    /// `|z| ≤ STANDARD_NORMAL_BOUND` and `0 ≤ phase < 1`, so every count
    /// lies within `f·(1 ± Zσ)·T`, widened by one count for the floor and
    /// one for the phase, plus a relative 10⁻¹² for rounding. A dead ring
    /// counts exactly 0 (two dead rings tie: bit 0).
    #[must_use]
    pub fn decided_bit(&self, a: &ResolvedRing, b: &ResolvedRing) -> Option<bool> {
        let (a_lo, a_hi) = self.count_envelope(a);
        let (b_lo, b_hi) = self.count_envelope(b);
        if a_lo > b_hi {
            Some(true)
        } else if a_hi <= b_lo {
            Some(false)
        } else {
            None
        }
    }

    /// `(lo, hi)` with `lo ≤ count ≤ hi` for every count
    /// [`ReadoutConfig::draw`] can return for `ring`.
    fn count_envelope(&self, ring: &ResolvedRing) -> (f64, f64) {
        if ring.is_dead() {
            return (0.0, 0.0);
        }
        let cycles = ring.f_true * self.gate_time_s;
        let spread = cycles * ring.sigma_rel * STANDARD_NORMAL_BOUND;
        let widen = 1.0 + ROUNDING_SLACK_REL * (cycles + spread);
        (cycles - spread - widen, cycles + spread + widen)
    }
}

/// The counter value for `cycles` counted edges: `floor(cycles)`, clamped
/// at 0. `as` truncates toward zero and saturates negatives and NaN to 0,
/// so it equals `cycles.floor().max(0.0) as u64` for every input, ±∞
/// included, without the libm `floor` call.
fn gated_count(cycles: f64) -> u64 {
    cycles as u64
}

/// A ring resolved for the readout: its true frequency and its relative
/// noise sigma (see [`ReadoutConfig::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedRing {
    f_true: f64,
    sigma_rel: f64,
}

impl ResolvedRing {
    /// Whether the ring is dead: it counts 0 and its draws take no noise.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.f_true == 0.0
    }
}

/// One gated count of one ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    count: u64,
    gate_time_s: f64,
}

impl Measurement {
    /// Wraps a raw counter value taken over `gate_time_s` seconds.
    ///
    /// # Panics
    /// Panics if `gate_time_s` is not strictly positive.
    #[must_use]
    pub fn new(count: u64, gate_time_s: f64) -> Self {
        assert!(gate_time_s > 0.0, "gate time must be positive");
        Self { count, gate_time_s }
    }

    /// The raw counter value.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The frequency estimate in hertz.
    #[must_use]
    pub fn frequency(&self) -> f64 {
        self.count as f64 / self.gate_time_s
    }

    /// The response bit of a pair: `1` iff `self` counted strictly more
    /// than `other` (a tie deterministically yields `0`, as a hardware
    /// comparator would resolve `a > b`).
    #[must_use]
    pub fn bit_against(&self, other: &Measurement) -> bool {
        self.count > other.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_device::rng::SeedDomain;
    use rand::RngCore;

    /// Yields the three words of one draw: `u` and `v` of the polar
    /// method, then the phase.
    struct Scripted {
        words: [u64; 3],
        next: usize,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            unreachable!("a draw takes 64-bit words")
        }
        fn next_u64(&mut self) -> u64 {
            self.next += 1;
            self.words[self.next - 1]
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("a draw takes 64-bit words")
        }
    }

    /// The word that makes `gen_range(-1.0..1.0)` return `k · 2⁻⁵²`.
    fn grid_word(k: i64) -> u64 {
        ((1u64 << 52).wrapping_add_signed(k)) << 11
    }

    /// The counts a ring takes at its noise extremes: `z = ±12.00727`
    /// (`u = ±2⁻⁵²`, `v = 0`), phase 0 or `1 − 2⁻⁵³`.
    fn extreme_counts(cfg: &ReadoutConfig, ring: &ResolvedRing) -> [u64; 4] {
        let mut counts = [0; 4];
        for (slot, (k, phase)) in [(-1, 0), (-1, u64::MAX), (1, 0), (1, u64::MAX)]
            .into_iter()
            .enumerate()
        {
            let mut rng = Scripted {
                words: [grid_word(k), grid_word(0), phase],
                next: 0,
            };
            counts[slot] = cfg.draw(ring, &mut rng).count();
        }
        counts
    }

    #[test]
    fn a_decided_bit_holds_at_every_noise_extreme() {
        let f = 1e9;
        for cfg in [
            ReadoutConfig::default(),
            ReadoutConfig::default().with_noise_burst(8.0),
        ] {
            let sigma = cfg.sigma_rel_at(f);
            let slow = cfg.resolve(f);
            let slow_counts = extreme_counts(&cfg, &slow);
            let mut decided = 0;
            // Margins from 0 to 40 σ in steps of σ/1000.
            for step in 0..=40_000 {
                let margin = f64::from(step) / 1000.0;
                let fast = cfg.resolve(f * (1.0 + margin * sigma));
                let fast_counts = extreme_counts(&cfg, &fast);
                for (a, b, a_counts, b_counts) in [
                    (&fast, &slow, &fast_counts, &slow_counts),
                    (&slow, &fast, &slow_counts, &fast_counts),
                ] {
                    let Some(bit) = cfg.decided_bit(a, b) else {
                        assert!(margin < 25.0, "{margin} σ undecided at {cfg:?}");
                        continue;
                    };
                    decided += 1;
                    for a_count in a_counts {
                        for b_count in b_counts {
                            assert_eq!(
                                a_count > b_count,
                                bit,
                                "{margin} σ at {cfg:?}: counts {a_count} vs {b_count}"
                            );
                        }
                    }
                }
            }
            assert!(decided > 0);
        }
    }

    #[test]
    fn a_dead_ring_counts_exactly_zero_in_the_envelope() {
        let cfg = ReadoutConfig::default();
        let dead = cfg.resolve(0.0);
        let live = cfg.resolve(1e9);
        assert_eq!(cfg.decided_bit(&live, &dead), Some(true));
        assert_eq!(cfg.decided_bit(&dead, &live), Some(false));
        assert_eq!(cfg.decided_bit(&dead, &dead), Some(false));
        // A ring slow enough to reach a count of 0 cannot be told apart.
        let crawling = cfg.resolve(1.0 / cfg.gate_time_s);
        assert_eq!(cfg.decided_bit(&crawling, &dead), None);
    }

    #[test]
    fn ideal_readout_recovers_frequency_to_one_lsb() {
        let cfg = ReadoutConfig::ideal();
        let mut rng = SeedDomain::new(51).rng(0);
        let f = 1.234_567e9;
        let m = cfg.measure(f, &mut rng);
        let err = (m.frequency() - f).abs();
        assert!(err <= 1.0 / cfg.gate_time_s, "error {err} Hz within 1 LSB");
    }

    #[test]
    fn the_count_conversion_equals_floor_clamped_at_zero() {
        let inputs = [
            -1.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            2f64.powi(53) + 0.5,
            1e20,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in inputs {
            assert_eq!(gated_count(x), x.floor().max(0.0) as u64, "{x}");
        }
    }

    #[test]
    fn sigma_shrinks_with_gate_time() {
        let short = ReadoutConfig {
            gate_time_s: 1e-6,
            ..ReadoutConfig::default()
        };
        let long = ReadoutConfig {
            gate_time_s: 1e-3,
            ..ReadoutConfig::default()
        };
        assert!(long.sigma_rel_at(1e9) < short.sigma_rel_at(1e9));
    }

    #[test]
    fn sigma_has_environmental_floor() {
        let cfg = ReadoutConfig {
            gate_time_s: 10.0,
            ..ReadoutConfig::default()
        };
        assert!(cfg.sigma_rel_at(1e9) >= cfg.sigma_meas_rel);
    }

    #[test]
    fn measurement_noise_spreads_counts() {
        let cfg = ReadoutConfig::default();
        let mut rng = SeedDomain::new(52).rng(0);
        let f = 1e9;
        let counts: Vec<u64> = (0..200).map(|_| cfg.measure(f, &mut rng).count()).collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(distinct.len() > 5, "noise must spread repeated counts");
    }

    #[test]
    fn close_pair_bits_are_noisy_but_distant_pair_bits_are_stable() {
        let cfg = ReadoutConfig::default();
        let mut rng = SeedDomain::new(53).rng(0);
        let f = 1e9;
        // Distant pair: 1 % apart — always resolves the same way.
        let stable = (0..200)
            .filter(|_| {
                let a = cfg.measure(f * 1.01, &mut rng);
                let b = cfg.measure(f, &mut rng);
                a.bit_against(&b)
            })
            .count();
        assert_eq!(stable, 200);
        // Near-tie pair: flips sometimes.
        let flips = (0..400)
            .filter(|_| {
                let a = cfg.measure(f * (1.0 + 1e-5), &mut rng);
                let b = cfg.measure(f, &mut rng);
                !a.bit_against(&b)
            })
            .count();
        assert!(flips > 0, "a 10 ppm margin must occasionally flip");
    }

    #[test]
    fn bit_against_is_antisymmetric_for_distinct_counts() {
        let a = Measurement::new(100, 1e-4);
        let b = Measurement::new(99, 1e-4);
        assert!(a.bit_against(&b));
        assert!(!b.bit_against(&a));
        // Tie resolves to 0 both ways (hardware comparator semantics).
        let c = Measurement::new(100, 1e-4);
        assert!(!a.bit_against(&c));
        assert!(!c.bit_against(&a));
    }

    #[test]
    #[should_panic(expected = "frequency must be non-negative")]
    fn measuring_negative_frequency_panics() {
        let cfg = ReadoutConfig::default();
        let mut rng = SeedDomain::new(54).rng(0);
        let _ = cfg.measure(-1.0, &mut rng);
    }

    #[test]
    fn dead_ring_counts_zero_without_consuming_randomness() {
        let cfg = ReadoutConfig::default();
        let mut rng = SeedDomain::new(55).rng(0);
        let m = cfg.measure(0.0, &mut rng);
        assert_eq!(m.count(), 0);
        assert_eq!(m.frequency(), 0.0);
        // The zero path returns before any draw: the stream is untouched.
        let mut fresh = SeedDomain::new(55).rng(0);
        assert_eq!(
            cfg.measure(1e9, &mut rng).count(),
            cfg.measure(1e9, &mut fresh).count()
        );
    }

    #[test]
    fn noise_burst_amplifies_sigma() {
        let base = ReadoutConfig::default();
        let burst = base.with_noise_burst(8.0);
        assert!(burst.sigma_rel_at(1e9) > 7.9 * base.sigma_rel_at(1e9));
        assert_eq!(burst.gate_time_s, base.gate_time_s);
        assert_eq!(base.with_noise_burst(1.0), base);
    }

    #[test]
    #[should_panic(expected = "noise burst factor")]
    fn quieting_noise_burst_panics() {
        let _ = ReadoutConfig::default().with_noise_burst(0.5);
    }
}
