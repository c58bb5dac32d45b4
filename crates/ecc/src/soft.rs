//! Soft-decision decoding: using measurement confidence instead of hard
//! bits.
//!
//! A counter readout knows more than the sign: the *magnitude* of the
//! count difference says how far the pair was from the decision boundary.
//! Soft-decision PUF decoders (Maes et al.) exploit that: the inner
//! repetition majority becomes a confidence-weighted vote, so one
//! hesitant wrong read cannot outvote two near-boundary right ones — and
//! the outer code sees a lower symbol error rate at the *same* silicon
//! and code. EXP-14 measures the gain.

use aro_metrics::bits::BitString;

use crate::concat::ConcatenatedCode;
use crate::fuzzy::{HelperData, Key};

/// One response bit with its measurement confidence (any non-negative
/// monotone reliability score; the readout's |Δcount| works directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftBit {
    /// The hard decision.
    pub value: bool,
    /// Non-negative reliability weight.
    pub weight: f64,
}

impl SoftBit {
    /// Creates a soft bit.
    ///
    /// # Panics
    /// Panics if `weight` is negative or non-finite.
    #[must_use]
    pub fn new(value: bool, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be a non-negative number"
        );
        Self { value, weight }
    }

    /// A zero-confidence **erasure**: a position known to be unreliable
    /// (an NVM integrity flag on a stored helper bit, a BIST-flagged dead
    /// ring behind a response bit). Its `value` is the best available hard
    /// guess, but with weight 0 it can never outvote any
    /// positive-confidence bit in [`soft_majority`], and a group of
    /// nothing but erasures ties — resolving to 0 like the hard
    /// comparator.
    #[must_use]
    pub fn erasure(value: bool) -> Self {
        Self { value, weight: 0.0 }
    }

    /// The bit as a signed weight (+w for 1, −w for 0).
    #[must_use]
    pub fn signed(&self) -> f64 {
        if self.value {
            self.weight
        } else {
            -self.weight
        }
    }

    /// The same soft bit with its hard value flipped (confidence kept) —
    /// what XOR-ing with helper data does.
    #[must_use]
    pub fn flipped(&self) -> Self {
        Self {
            value: !self.value,
            weight: self.weight,
        }
    }
}

impl From<(bool, f64)> for SoftBit {
    fn from((value, weight): (bool, f64)) -> Self {
        Self::new(value, weight)
    }
}

/// Confidence-weighted majority of a repetition group (ties resolve to 0,
/// like the hard majority's comparator).
///
/// # Panics
/// Panics if `group` is empty.
#[must_use]
pub fn soft_majority(group: &[SoftBit]) -> bool {
    assert!(!group.is_empty(), "majority of an empty group");
    group.iter().map(SoftBit::signed).sum::<f64>() > 0.0
}

/// Known-unreliable positions for erasure-aware reconstruction — the
/// knowledge a fielded key generator actually has about its own damage:
/// NVM integrity checks flag corrupted stored helper bits, and ring BIST
/// flags dead/stuck oscillators behind response bits. Feeding these to
/// [`KeyGenerator::reconstruct_soft`](crate::keygen::KeyGenerator::reconstruct_soft)
/// turns a guaranteed key loss (a surviving offset flip) into an ordinary
/// correctable error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Erasures {
    /// `(block, bit)` stored helper-data positions flagged as unreliable
    /// (the coordinate space of
    /// [`crate::fuzzy::HelperData::with_flipped_bits`]).
    pub helper: Vec<(usize, usize)>,
    /// Flat response positions flagged as unreliable (bit index into the
    /// raw response, i.e. `block · n + i`).
    pub response: Vec<usize>,
}

impl Erasures {
    /// No known-unreliable positions (erasure-aware decoding degenerates
    /// to plain soft decoding).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Erasures from stored helper positions only.
    #[must_use]
    pub fn from_helper(helper: Vec<(usize, usize)>) -> Self {
        Self {
            helper,
            response: Vec::new(),
        }
    }

    /// Whether no position is flagged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.helper.is_empty() && self.response.is_empty()
    }
}

/// Soft-decision decoding of the concatenated (repetition ⊗ BCH) `code`:
/// weighted inner majority, then hard outer BCH. Decodes `n` soft bits
/// into the corrected concatenated codeword, or `None` beyond the outer
/// code's capability — or when `received` is not exactly `n` soft bits (a
/// malformed word fails closed, matching the fuzzy-extractor convention
/// that decoding never panics on bad channel data).
fn decode_soft(code: &ConcatenatedCode, received: &[SoftBit]) -> Option<BitString> {
    use crate::code::Code;
    if received.len() != code.n() {
        return None;
    }
    let r = code.inner().r();
    if aro_obs::enabled() {
        // Weakest inner vote of this codeword: |Σ signed weights| of
        // the most contested repetition group. Trends toward 0 as
        // aging erodes confidence, before any outer-decode failure.
        let min_margin = received
            .chunks(r)
            .map(|g| g.iter().map(SoftBit::signed).sum::<f64>().abs())
            .fold(f64::INFINITY, f64::min);
        if min_margin.is_finite() {
            aro_obs::sketch("ecc.soft_vote_margin", min_margin);
        }
    }
    let outer_received: BitString = received.chunks(r).map(soft_majority).collect();
    let outer_corrected = code.outer().decode(&outer_received)?;
    Some(code.encode(&code.outer().extract_message(&outer_corrected)))
}

/// Soft-decision key reconstruction through a code-offset helper, decoded
/// with `code` (a key generator passes the code its fuzzy extractor
/// holds): the offset flips hard values (weights are unaffected),
/// [`decode_soft`] recovers each block's codeword, and the enrollment
/// response and key are re-derived exactly as in
/// [`crate::fuzzy::FuzzyExtractor::reproduce`]. Positions the caller
/// *knows* to be unreliable are decoded as zero-confidence erasures
/// instead of poisoning the weighted vote; with [`Erasures::none`] this is
/// plain soft decoding.
///
/// Two erasure kinds, matching where the knowledge comes from:
///
/// * **Helper erasures** `(block, bit)` — stored offset bits flagged by
///   NVM integrity checks. The corrupted offset makes the shifted soft
///   bit's *value* meaningless, so it votes with weight 0; and because
///   the stored bit cannot be trusted when re-applying the offset, the
///   recovered enrollment bit falls back to the measured response bit
///   (correct unless the response itself flipped there — a per-bit risk
///   instead of a guaranteed key loss).
/// * **Response erasures** (flat response positions) — bits whose pair
///   involves a BIST-flagged dead/stuck ring. They vote with weight 0;
///   the stored offset there is fine, so the decoded codeword recovers
///   the enrollment bit as usual.
///
/// Returns `None` when a block still decodes beyond the outer code's
/// capability, or when the response is shorter than `blocks · n` (fails
/// closed, like [`decode_soft`]).
pub(crate) fn reproduce_soft(
    code: &ConcatenatedCode,
    response: &[SoftBit],
    helper: &HelperData,
    erasures: &Erasures,
) -> Option<Key> {
    use crate::code::Code;
    let n = code.n();
    let blocks = helper.blocks();
    if response.len() < blocks * n {
        return None;
    }
    // Position masks over the `blocks · n` decoded bits; flags outside
    // that range match no position and are ignored.
    let mut helper_erased = vec![false; blocks * n];
    for &(block, bit) in &erasures.helper {
        if block < blocks && bit < n {
            helper_erased[block * n + bit] = true;
        }
    }
    let mut response_erased = vec![false; blocks * n];
    for &position in &erasures.response {
        if let Some(erased) = response_erased.get_mut(position) {
            *erased = true;
        }
    }
    let mut w = BitString::zeros(0);
    for (block_index, offset) in helper.offsets().iter().enumerate() {
        let base = block_index * n;
        let shifted: Vec<SoftBit> = response[base..base + n]
            .iter()
            .enumerate()
            .map(|(i, soft)| {
                let s = if offset.get(i) { soft.flipped() } else { *soft };
                if helper_erased[base + i] || response_erased[base + i] {
                    SoftBit::erasure(s.value)
                } else {
                    s
                }
            })
            .collect();
        let codeword = decode_soft(code, &shifted)?;
        let recovered: BitString = (0..n)
            .map(|i| {
                if helper_erased[base + i] {
                    response[base + i].value
                } else {
                    codeword.get(i) ^ offset.get(i)
                }
            })
            .collect();
        w = w.concat(&recovered);
    }
    Some(helper.derive_key_for(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bch::BchCode;
    use crate::code::Code;
    use crate::fuzzy::FuzzyExtractor;
    use crate::repetition::RepetitionCode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn soft(bits: &[(bool, f64)]) -> Vec<SoftBit> {
        bits.iter().map(|&b| SoftBit::from(b)).collect()
    }

    #[test]
    fn soft_majority_weighs_confidence() {
        // Two hesitant zeros vs one confident one: the one wins.
        let group = soft(&[(false, 0.5), (false, 0.4), (true, 2.0)]);
        assert!(soft_majority(&group));
        // Hard majority would have said zero.
        let hard_ones = group.iter().filter(|b| b.value).count();
        assert!(hard_ones * 2 < group.len());
    }

    #[test]
    fn soft_majority_reduces_to_hard_with_equal_weights() {
        for pattern in 0u8..8 {
            let group: Vec<SoftBit> = (0..3)
                .map(|i| SoftBit::new(pattern >> i & 1 == 1, 1.0))
                .collect();
            let hard = group.iter().filter(|b| b.value).count() * 2 > 3;
            assert_eq!(soft_majority(&group), hard, "pattern {pattern:#b}");
        }
    }

    #[test]
    fn soft_decoder_matches_hard_decoder_on_confident_input() {
        let code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let mut rng = StdRng::seed_from_u64(1);
        let msg: BitString = (0..code.k()).map(|_| rng.gen::<bool>()).collect();
        let word = code.encode(&msg);
        let soft_word: Vec<SoftBit> = word.iter().map(|b| SoftBit::new(b, 1.0)).collect();
        assert_eq!(decode_soft(&code, &soft_word), Some(word));
    }

    #[test]
    fn soft_decoding_survives_where_hard_fails() {
        // Per group: two wrong reads with tiny confidence, one right read
        // with high confidence. Hard majority gets every symbol wrong;
        // soft majority gets every symbol right.
        let code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let mut rng = StdRng::seed_from_u64(2);
        let msg: BitString = (0..code.k()).map(|_| rng.gen::<bool>()).collect();
        let word = code.encode(&msg);
        let corrupted: Vec<SoftBit> = word
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i % 3 == 0 {
                    SoftBit::new(bit, 3.0) // the confident truthful read
                } else {
                    SoftBit::new(!bit, 0.2) // hesitant wrong reads
                }
            })
            .collect();
        assert_eq!(
            decode_soft(&code, &corrupted),
            Some(word.clone()),
            "soft succeeds"
        );

        // The equivalent hard word fails: every group majority is wrong.
        use crate::concat::ConcatenatedCode;
        let hard_code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let hard_word: BitString = corrupted.iter().map(|s| s.value).collect();
        match hard_code.decode(&hard_word) {
            None => {}
            Some(decoded) => assert_ne!(decoded, word, "hard decode cannot recover"),
        }
    }

    #[test]
    fn soft_reproduction_recovers_the_enrolled_key() {
        let code = ConcatenatedCode::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        // A noisy soft re-reading: a few hesitant flips.
        let soft_reading: Vec<SoftBit> = w
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i % 17 == 3 {
                    SoftBit::new(!bit, 0.3)
                } else {
                    SoftBit::new(bit, 1.5)
                }
            })
            .collect();
        assert_eq!(
            reproduce_soft(&code, &soft_reading, &helper, &Erasures::none()),
            Some(key)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = SoftBit::new(true, -1.0);
    }

    #[test]
    fn erasure_carries_no_confidence() {
        let e = SoftBit::erasure(true);
        assert_eq!(e.signed(), 0.0);
        assert_eq!(e.flipped().signed(), 0.0);
        assert_ne!(SoftBit::new(true, 0.1).signed(), 0.0);
    }

    #[test]
    fn erasures_never_outvote_a_positive_confidence_bit() {
        // Many confident-looking erasure values against one faint real
        // read: the real read wins.
        let mut group = vec![SoftBit::erasure(true); 9];
        group.push(SoftBit::new(false, 1e-9));
        assert!(!soft_majority(&group));
    }

    #[test]
    fn all_erasure_group_ties_to_zero() {
        let group = vec![SoftBit::erasure(true); 5];
        assert!(
            !soft_majority(&group),
            "tie resolves to 0, like the comparator"
        );
    }

    #[test]
    fn wrong_length_soft_word_fails_closed() {
        let code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let short = vec![SoftBit::new(true, 1.0); code.n() - 1];
        let long = vec![SoftBit::new(true, 1.0); code.n() + 1];
        assert_eq!(decode_soft(&code, &short), None);
        assert_eq!(decode_soft(&code, &long), None);
    }

    #[test]
    fn empty_erasures_match_plain_soft_reproduction() {
        let code = ConcatenatedCode::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);
        let reading: Vec<SoftBit> = w.iter().map(|bit| SoftBit::new(bit, 1.0)).collect();
        assert_eq!(
            reproduce_soft(&code, &reading, &helper, &Erasures::none()),
            Some(key)
        );
    }

    #[test]
    fn erasure_awareness_recovers_a_key_blind_decoding_loses() {
        // A flipped *offset* bit survives blind decoding: the decoder
        // corrects the shifted word back to the same codeword, then
        // re-applies the corrupted offset — guaranteed wrong w, lost key.
        // Flagging the position as a helper erasure substitutes the
        // measured response bit there, recovering the key.
        let code = ConcatenatedCode::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let mut rng = StdRng::seed_from_u64(11);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        let eroded_positions = vec![(0, 4), (1, 9)];
        let eroded = helper.with_flipped_bits(&eroded_positions);
        let reading: Vec<SoftBit> = w.iter().map(|bit| SoftBit::new(bit, 1.0)).collect();

        assert_ne!(
            reproduce_soft(&code, &reading, &eroded, &Erasures::none()),
            Some(key),
            "a surviving offset flip must defeat blind decoding"
        );
        assert_eq!(
            reproduce_soft(
                &code,
                &reading,
                &eroded,
                &Erasures::from_helper(eroded_positions)
            ),
            Some(key)
        );
    }

    #[test]
    fn response_erasures_silence_dead_ring_bits() {
        // A dead ring reads garbage with misleading confidence. Blindly it
        // can push a repetition group the wrong way; flagged as a response
        // erasure it votes with weight 0 and the offset stays trusted.
        let code = ConcatenatedCode::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let mut rng = StdRng::seed_from_u64(13);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        // Kill the first repetition group: 2 of 3 reads wrong and loud.
        let reading: Vec<SoftBit> = w
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i < 2 {
                    SoftBit::new(!bit, 10.0)
                } else {
                    SoftBit::new(bit, 1.0)
                }
            })
            .collect();
        let erasures = Erasures {
            helper: Vec::new(),
            response: vec![0, 1],
        };
        assert_eq!(
            reproduce_soft(&code, &reading, &helper, &erasures),
            Some(key)
        );
    }

    #[test]
    fn duplicate_and_out_of_range_flags_act_as_the_in_range_set() {
        let code = ConcatenatedCode::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(19);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);
        let eroded = helper.with_flipped_bits(&[(0, 4)]);
        // Block 1's first bit reads wrong, but faintly: the decoder
        // corrects it, unless it were taken for a helper erasure, whose
        // recovered bit is the wrong reading. `(0, n)` would land there if
        // flags were flattened without checking the bit index.
        let reading: Vec<SoftBit> = w
            .iter()
            .enumerate()
            .map(|(i, bit)| SoftBit::new(bit != (i == n), if i == n { 0.1 } else { 1.0 }))
            .collect();
        let in_range = Erasures {
            helper: vec![(0, 4)],
            response: vec![1],
        };
        let flagged = Erasures {
            helper: vec![(0, 4), (0, 4), (0, n), (2, 0), (usize::MAX, usize::MAX)],
            response: vec![1, 1, 2 * n, usize::MAX],
        };
        assert_eq!(
            reproduce_soft(&code, &reading, &eroded, &in_range),
            Some(key)
        );
        assert_eq!(
            reproduce_soft(&code, &reading, &eroded, &flagged),
            Some(key)
        );
    }

    #[test]
    fn short_response_fails_closed_in_erasure_aware_path() {
        let code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code.clone(), 2);
        let mut rng = StdRng::seed_from_u64(17);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (_, helper) = fe.generate(&w, &mut rng);
        let short = vec![SoftBit::new(true, 1.0); fe.response_bits() - 1];
        assert_eq!(
            reproduce_soft(&code, &short, &helper, &Erasures::none()),
            None
        );
    }
}
