//! Gate-equivalent area models and the key-generator design-space search
//! — the machinery behind the paper's "~24× area reduction" table.
//!
//! The total silicon cost of a PUF key generator is
//!
//! ```text
//! area = PUF array (raw bits × ROs/bit × cell)
//!      + readout (counters, comparator, muxes)
//!      + inner repetition decoder
//!      + outer BCH decoder (syndrome + Berlekamp–Massey + Chien)
//! ```
//!
//! and every term is driven by the **worst-case lifetime bit error rate**:
//! a higher BER needs a larger repetition factor and a deeper BCH, which
//! multiplies the raw-bit count *and* the decoder. [`search_design`]
//! sweeps `(r, m, t)` for the cheapest stack meeting a key-failure target
//! — run it at the conventional RO-PUF's 10-year BER and at the ARO-PUF's
//! and the area ratio of the paper's headline claim falls out.
//!
//! Decoder gate counts follow the standard serial-architecture estimates
//! (one GF multiplier pair reused across Berlekamp–Massey iterations);
//! constants are 90 nm-class standard-cell figures.

use crate::bch::BchCode;
use crate::code::Code;
use crate::repetition::{binomial_tail_gt, RepetitionCode};

/// Gate equivalents of a D flip-flop.
pub const GE_DFF: f64 = 6.0;
/// Gate equivalents of a 2-input XOR.
pub const GE_XOR2: f64 = 2.5;
/// Gate equivalents of a 2-input AND.
pub const GE_AND2: f64 = 1.33;
/// Area of one gate equivalent at 90 nm, in µm² (kept consistent with
/// `aro-circuit::netlist::GE_AREA_UM2`).
pub const GE_AREA_UM2: f64 = 3.1;

/// Gate-equivalent cost of one serial GF(2^m) multiplier.
#[must_use]
pub fn gf_multiplier_ge(m: u32) -> f64 {
    let m = f64::from(m);
    m * m * (GE_AND2 + GE_XOR2)
}

/// Gate-equivalent estimate of a serial binary BCH decoder over GF(2^m)
/// correcting `t` errors (0 for `t == 0`, i.e. no outer code).
#[must_use]
pub fn bch_decoder_ge(m: u32, t: usize) -> f64 {
    if t == 0 {
        return 0.0;
    }
    let mf = f64::from(m);
    let tf = t as f64;
    // 2t syndrome cells: an m-bit register and a constant-α^j multiplier
    // (≈ m/2 XORs) each.
    let syndrome = 2.0 * tf * (mf * GE_DFF + 0.5 * mf * GE_XOR2);
    // Serial Berlekamp–Massey: two general multipliers + one inversion
    // (multiplier-based) + registers for Λ, B and the syndrome window.
    let bm = 3.0 * gf_multiplier_ge(m) + (3.0 * tf + 3.0) * mf * GE_DFF;
    // Chien search: t+1 coefficient cells with constant multipliers.
    let chien = (tf + 1.0) * (mf * GE_DFF + 0.5 * mf * GE_XOR2);
    let control = 200.0;
    syndrome + bm + chien + control
}

/// Gate-equivalent estimate of a serial majority (repetition) decoder
/// (0 for `r == 1`).
#[must_use]
pub fn repetition_decoder_ge(r: usize) -> f64 {
    if r <= 1 {
        return 0.0;
    }
    let counter_bits = (r as f64).log2().ceil() + 1.0;
    counter_bits * GE_DFF + 15.0
}

/// PUF-side area parameters fed in from the circuit layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PufAreaParams {
    /// Gate equivalents of one RO cell.
    pub ro_cell_ge: f64,
    /// Fixed readout overhead (two counters + comparator), in GE.
    pub readout_fixed_ge: f64,
    /// Per-RO readout overhead (mux legs), in GE.
    pub readout_per_ro_ge: f64,
    /// Rings consumed per raw response bit (2 for disjoint pairing).
    pub ros_per_bit: f64,
}

impl PufAreaParams {
    /// Total PUF-side gate equivalents for `raw_bits` response bits.
    #[must_use]
    pub fn puf_ge(&self, raw_bits: usize) -> f64 {
        let ros = raw_bits as f64 * self.ros_per_bit;
        ros * self.ro_cell_ge + self.readout_fixed_ge + ros * self.readout_per_ro_ge
    }
}

/// One evaluated key-generator design point.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyGenSpec {
    /// Inner repetition factor (1 = none).
    pub rep_r: usize,
    /// BCH field degree (0 = no outer code).
    pub bch_m: u32,
    /// BCH correction capability (0 = no outer code).
    pub bch_t: usize,
    /// BCH length.
    pub bch_n: usize,
    /// BCH dimension.
    pub bch_k: usize,
    /// Number of BCH blocks.
    pub blocks: usize,
    /// Raw PUF response bits consumed.
    pub raw_bits: usize,
    /// Analytic key-failure probability at the design BER.
    pub key_failure: f64,
    /// PUF-side area in GE.
    pub puf_ge: f64,
    /// Decoder-side area in GE.
    pub decoder_ge: f64,
}

impl KeyGenSpec {
    /// Total area in gate equivalents.
    #[must_use]
    pub fn total_ge(&self) -> f64 {
        self.puf_ge + self.decoder_ge
    }

    /// Total area in µm² at 90 nm.
    #[must_use]
    pub fn total_um2(&self) -> f64 {
        self.total_ge() * GE_AREA_UM2
    }
}

/// Gate equivalents charged per stored helper-data bit (eFuse/OTP NVM
/// macro at 90 nm-class density — much denser than logic flip-flops).
pub const GE_NVM_BIT: f64 = 0.6;

/// NVM area of an N-way replicated helper store for `spec`, in GE: the
/// code-offset helper is `raw_bits` of public NVM, and each replica is a
/// full copy. Only the stored bits replicate — the PUF array and the
/// decoder are shared across replicas.
///
/// # Panics
/// Panics if `replicas` is zero.
#[must_use]
pub fn replicated_helper_ge(spec: &KeyGenSpec, replicas: usize) -> f64 {
    assert!(replicas >= 1, "a helper store needs at least one replica");
    spec.raw_bits as f64 * GE_NVM_BIT * replicas as f64
}

/// Total provisioned area of `spec` deployed with an N-way replicated
/// helper store: logic ([`KeyGenSpec::total_ge`]) plus replicated NVM
/// ([`replicated_helper_ge`]). EXP-19's cost axis — it makes "one more
/// replica" and "a deeper code" directly comparable in GE.
#[must_use]
pub fn replicated_total_ge(spec: &KeyGenSpec, replicas: usize) -> f64 {
    spec.total_ge() + replicated_helper_ge(spec, replicas)
}

/// Composes two independent per-bit error sources into the effective
/// channel error rate: a bit is wrong when exactly one source flips it,
/// `p(1−q) + q(1−p)`. Fault-aware provisioning (EXP-17) uses this to
/// fold a fault-class rate (e.g. counter glitches) into the measured
/// aging BER before sizing the code.
///
/// # Panics
/// Panics if either rate is outside `[0, 1]`.
#[must_use]
pub fn compose_error_rates(p: f64, q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&q),
        "probability out of range"
    );
    p * (1.0 - q) + q * (1.0 - p)
}

/// Cache of true BCH dimensions, since `k` requires building the
/// generator.
fn true_k(
    m: u32,
    t: usize,
    cache: &mut std::collections::HashMap<(u32, usize), Option<usize>>,
) -> Option<usize> {
    *cache.entry((m, t)).or_insert_with(|| {
        let n = (1usize << m) - 1;
        if m as usize * t >= n {
            return None;
        }
        Some(BchCode::new(m, t).k())
    })
}

/// Searches `(repetition r, BCH m, BCH t)` for the cheapest key generator
/// delivering `key_bits` of key with failure probability at most
/// `p_fail_target` when every raw bit flips independently with
/// probability `p_bit`. Returns `None` if no point in the swept space
/// meets the target (e.g. `p_bit ≥ 0.5`).
///
/// # Panics
/// Panics if `p_bit` is outside `[0, 1]` or `key_bits` is zero.
#[must_use]
pub fn search_design(
    p_bit: f64,
    key_bits: usize,
    p_fail_target: f64,
    puf: &PufAreaParams,
) -> Option<KeyGenSpec> {
    assert!((0.0..=1.0).contains(&p_bit), "probability out of range");
    assert!(key_bits >= 1, "need at least one key bit");
    let mut best: Option<KeyGenSpec> = None;
    let mut k_cache = std::collections::HashMap::new();

    for rep_r in (1..=201).step_by(2) {
        let rep = RepetitionCode::new(rep_r);
        let p_symbol = rep.bit_failure_probability(p_bit);
        if p_symbol >= 0.5 {
            continue;
        }

        // Option A: repetition only (no BCH): key_bits blocks of r.
        let p_key_fail = 1.0 - (1.0 - p_symbol).powi(key_bits as i32);
        if p_key_fail <= p_fail_target {
            let raw_bits = key_bits * rep_r;
            let candidate = KeyGenSpec {
                rep_r,
                bch_m: 0,
                bch_t: 0,
                bch_n: rep_r,
                bch_k: 1,
                blocks: key_bits,
                raw_bits,
                key_failure: p_key_fail,
                puf_ge: puf.puf_ge(raw_bits),
                decoder_ge: repetition_decoder_ge(rep_r),
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.total_ge() < b.total_ge())
            {
                best = Some(candidate);
            }
        }

        // Option B: repetition ⊗ BCH over each field size. A symbol error
        // rate above ~0.12 is hopeless for any m <= 10 (the needed t would
        // exceed the k >= 1 bound), so skip the expensive t-scan there.
        if p_symbol > 0.12 {
            continue;
        }
        for m in 6..=10u32 {
            let n = (1usize << m) - 1;
            // Fixpoint on the number of blocks (k depends on t depends on
            // the per-block target depends on blocks).
            let mut blocks = key_bits.div_ceil(n - 1).max(1);
            for _ in 0..6 {
                let per_block_target = p_fail_target / blocks as f64;
                // Smallest t whose analytic block failure meets the target,
                // scanning with the k-lower-bound feasibility cut. Below the
                // binomial mean the tail exceeds any realistic target, so
                // start the scan there.
                let mut found = None;
                let t_floor = ((n as f64 * p_symbol) as usize).max(1);
                for t in t_floor..n / (m as usize) {
                    if n - (m as usize) * t < 1 {
                        break;
                    }
                    if binomial_tail_gt(n, t, p_symbol) <= per_block_target {
                        found = Some(t);
                        break;
                    }
                }
                let Some(t) = found else { break };
                let Some(k) = true_k(m, t, &mut k_cache) else {
                    break;
                };
                if k == 0 {
                    break;
                }
                let needed_blocks = key_bits.div_ceil(k);
                if needed_blocks == blocks {
                    // Converged: evaluate the candidate.
                    let block_fail = binomial_tail_gt(n, t, p_symbol);
                    let key_failure = 1.0 - (1.0 - block_fail).powi(blocks as i32);
                    if key_failure <= p_fail_target {
                        let raw_bits = blocks * n * rep_r;
                        let candidate = KeyGenSpec {
                            rep_r,
                            bch_m: m,
                            bch_t: t,
                            bch_n: n,
                            bch_k: k,
                            blocks,
                            raw_bits,
                            key_failure,
                            puf_ge: puf.puf_ge(raw_bits),
                            decoder_ge: bch_decoder_ge(m, t) + repetition_decoder_ge(rep_r),
                        };
                        if best
                            .as_ref()
                            .is_none_or(|b| candidate.total_ge() < b.total_ge())
                        {
                            best = Some(candidate);
                        }
                    }
                    break;
                }
                blocks = needed_blocks;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn puf_params() -> PufAreaParams {
        // 12-transistor conventional cell = 3 GE; readout per the circuit
        // crate's model for a 16-bit counter pair.
        PufAreaParams {
            ro_cell_ge: 3.0,
            readout_fixed_ge: 120.0,
            readout_per_ro_ge: 3.0,
            ros_per_bit: 2.0,
        }
    }

    #[test]
    fn composed_error_rates_behave_like_a_binary_symmetric_cascade() {
        assert_eq!(compose_error_rates(0.0, 0.0), 0.0);
        assert_eq!(compose_error_rates(0.08, 0.0), 0.08);
        assert_eq!(compose_error_rates(0.0, 0.02), 0.02);
        // Symmetric, and always at least the larger input for p,q ≤ 0.5.
        let composed = compose_error_rates(0.08, 0.02);
        assert_eq!(composed, compose_error_rates(0.02, 0.08));
        assert!(composed > 0.08 && composed < 0.10);
        // Composing with a fair coin is a fair coin.
        assert!((compose_error_rates(0.3, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn composed_error_rates_reject_bad_probabilities() {
        let _ = compose_error_rates(1.2, 0.1);
    }

    #[test]
    fn decoder_area_grows_with_t_and_m() {
        assert_eq!(bch_decoder_ge(8, 0), 0.0);
        assert!(bch_decoder_ge(8, 4) > bch_decoder_ge(8, 2));
        assert!(bch_decoder_ge(10, 4) > bch_decoder_ge(8, 4));
        assert!(gf_multiplier_ge(10) > gf_multiplier_ge(8));
    }

    #[test]
    fn repetition_decoder_is_cheap_and_zero_for_r1() {
        assert_eq!(repetition_decoder_ge(1), 0.0);
        assert!(repetition_decoder_ge(33) < 100.0);
        assert!(repetition_decoder_ge(33) > repetition_decoder_ge(3));
    }

    #[test]
    fn puf_area_scales_with_raw_bits() {
        let p = puf_params();
        assert!(p.puf_ge(1000) > 9.0 * p.puf_ge(100) * 0.9);
    }

    #[test]
    fn search_finds_a_design_for_low_ber() {
        let spec = search_design(0.02, 128, 1e-6, &puf_params()).expect("feasible");
        assert!(spec.key_failure <= 1e-6);
        assert!(spec.blocks * spec.bch_k >= 128 || spec.bch_m == 0);
        assert!(spec.raw_bits >= 128);
        assert!(spec.total_ge() > 0.0);
    }

    #[test]
    fn search_cost_is_monotone_in_ber() {
        let p = puf_params();
        let low = search_design(0.01, 128, 1e-6, &p).unwrap();
        let mid = search_design(0.08, 128, 1e-6, &p).unwrap();
        let high = search_design(0.32, 128, 1e-6, &p).unwrap();
        assert!(low.total_ge() < mid.total_ge());
        assert!(mid.total_ge() < high.total_ge());
        assert!(high.raw_bits > mid.raw_bits);
    }

    #[test]
    fn hopeless_ber_returns_none() {
        assert!(search_design(0.5, 128, 1e-6, &puf_params()).is_none());
        assert!(search_design(0.49, 128, 1e-9, &puf_params()).is_none());
    }

    #[test]
    fn zero_ber_needs_no_ecc() {
        let spec = search_design(0.0, 128, 1e-6, &puf_params()).unwrap();
        assert_eq!(spec.rep_r, 1);
        assert_eq!(spec.bch_t, 0);
        assert_eq!(spec.raw_bits, 128);
        assert_eq!(spec.decoder_ge, 0.0);
    }

    #[test]
    fn paper_scale_area_ratio_is_an_order_of_magnitude() {
        // Worst-case provisioned BERs (see EXP-5): conventional ≈ 0.40,
        // ARO ≈ 0.11. The ARO cell is ~2.2× bigger per ring but needs far
        // fewer of them.
        let conv = search_design(0.40, 128, 1e-6, &puf_params()).expect("conventional feasible");
        let aro_puf = PufAreaParams {
            ro_cell_ge: 6.5,
            ..puf_params()
        };
        let aro = search_design(0.11, 128, 1e-6, &aro_puf).expect("ARO feasible");
        let ratio = conv.total_ge() / aro.total_ge();
        assert!(ratio > 5.0, "area ratio {ratio} should be large");
    }

    #[test]
    fn replication_prices_nvm_linearly_on_top_of_the_logic() {
        let spec = search_design(0.05, 128, 1e-6, &puf_params()).unwrap();
        let one = replicated_helper_ge(&spec, 1);
        assert_eq!(one, spec.raw_bits as f64 * GE_NVM_BIT);
        assert_eq!(replicated_helper_ge(&spec, 3), 3.0 * one);
        assert_eq!(replicated_total_ge(&spec, 2), spec.total_ge() + 2.0 * one);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panic() {
        let spec = search_design(0.05, 128, 1e-6, &puf_params()).unwrap();
        let _ = replicated_helper_ge(&spec, 0);
    }

    #[test]
    fn spec_unit_conversion() {
        let spec = search_design(0.05, 128, 1e-6, &puf_params()).unwrap();
        assert!((spec.total_um2() / spec.total_ge() - GE_AREA_UM2).abs() < 1e-9);
    }
}
