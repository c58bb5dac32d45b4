//! Binary BCH codes: construction, systematic encoding, and
//! Berlekamp–Massey + Chien decoding.
//!
//! A `BCH(n = 2^m − 1, k, t)` code corrects any `t` bit errors per
//! codeword. The generator polynomial is the least common multiple of the
//! minimal polynomials of `α, α³, …, α^(2t−1)` (consecutive even powers
//! share cosets with odd ones), built here from cyclotomic cosets. This is
//! the code family PUF key generators use, and the knob the paper's area
//! comparison turns: a higher PUF error rate needs a larger `t`, a lower
//! rate `k/n`, and a quadratically larger decoder.

use aro_metrics::bits::BitString;

use crate::code::Code;
use crate::gf::Gf;
use crate::poly::{BinPoly, GfPoly};

/// A binary BCH code over GF(2^m).
#[derive(Debug, Clone, PartialEq)]
pub struct BchCode {
    gf: Gf,
    n: usize,
    k: usize,
    t: usize,
    generator: BinPoly,
}

impl BchCode {
    /// Constructs the narrow-sense binary BCH code of length `2^m − 1`
    /// with designed correction capability `t`.
    ///
    /// # Panics
    /// Panics if `m` is outside `3..=14`, `t` is zero, or the designed
    /// distance leaves no message bits (`k` would be < 1).
    #[must_use]
    pub fn new(m: u32, t: usize) -> Self {
        assert!(t >= 1, "BCH needs t >= 1");
        assert!((3..=14).contains(&m), "BCH length requires 3 <= m <= 14");
        let gf = Gf::new(m);
        let n = gf.n();

        // Distinct cyclotomic cosets of the odd powers 1, 3, …, 2t−1.
        let mut covered = vec![false; n];
        let mut generator = GfPoly::one();
        for s in (1..2 * t).step_by(2) {
            let s = s % n;
            if covered[s] {
                continue;
            }
            // Minimal polynomial of alpha^s: product over the coset of s.
            let mut minimal = GfPoly::one();
            let mut i = s;
            loop {
                covered[i] = true;
                minimal = minimal.mul(&GfPoly::linear(gf.alpha_pow(i)), &gf);
                i = (i * 2) % n;
                if i == s {
                    break;
                }
            }
            generator = generator.mul(&minimal, &gf);
        }
        let generator = BinPoly::from_gf_poly(&generator);
        let degree = generator.degree().expect("generator is non-zero");
        assert!(
            degree < n,
            "designed distance leaves no message bits (t too large for m)"
        );
        Self {
            gf,
            n,
            k: n - degree,
            t,
            generator,
        }
    }

    /// The generator polynomial over GF(2).
    #[must_use]
    pub fn generator(&self) -> &BinPoly {
        &self.generator
    }

    /// The underlying field.
    #[must_use]
    pub fn field(&self) -> &Gf {
        &self.gf
    }

    /// Syndromes `S_1..S_2t` of a received word (`r(α^j)`).
    fn syndromes(&self, received: &BitString) -> Vec<u16> {
        (1..=2 * self.t)
            .map(|j| {
                let mut s = 0u16;
                for i in 0..self.n {
                    if received.get(i) {
                        s ^= self.gf.alpha_pow(i * j);
                    }
                }
                s
            })
            .collect()
    }

    /// Berlekamp–Massey: the error-locator polynomial of a syndrome
    /// sequence, or `None` if its degree exceeds `t`.
    fn error_locator(&self, syndromes: &[u16]) -> Option<GfPoly> {
        let gf = &self.gf;
        let mut c = GfPoly::one(); // current locator
        let mut b = GfPoly::one(); // previous locator
        let mut l = 0usize; // current LFSR length
        let mut m = 1usize; // steps since last length change
        let mut b_disc = 1u16; // discrepancy at last change
        for (i, &s_i) in syndromes.iter().enumerate() {
            // Discrepancy d = S_i + sum_{j=1..L} c_j * S_{i-j}.
            let mut d = s_i;
            for j in 1..=l {
                if let (Some(&cj), true) = (c.coeffs().get(j), i >= j) {
                    d ^= gf.mul(cj, syndromes[i - j]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let t_poly = c.clone();
                c = c.add(&shift(&b, m).scale(gf.mul(d, gf.inv(b_disc)), gf), gf);
                l = i + 1 - l;
                b = t_poly;
                b_disc = d;
                m = 1;
            } else {
                c = c.add(&shift(&b, m).scale(gf.mul(d, gf.inv(b_disc)), gf), gf);
                m += 1;
            }
        }
        if l > self.t {
            return None;
        }
        Some(c)
    }

    /// Chien search: error positions from the locator, or `None` if the
    /// root count does not match the locator degree (an uncorrectable
    /// pattern).
    fn error_positions(&self, locator: &GfPoly) -> Option<Vec<usize>> {
        let degree = locator.degree().unwrap_or(0);
        if degree == 0 {
            return Some(Vec::new());
        }
        let mut positions = Vec::with_capacity(degree);
        for e in 0..self.n {
            if locator.eval(self.gf.alpha_pow(e), &self.gf) == 0 {
                // Root alpha^e corresponds to error location alpha^(n-e).
                positions.push((self.n - e) % self.n);
            }
        }
        (positions.len() == degree).then_some(positions)
    }

    /// Locates and flips the errors indicated by non-zero syndromes,
    /// counting each corrected position; `None` when the error pattern is
    /// beyond the code's capability or the result is not a codeword.
    fn correct_errors(&self, received: &BitString, syndromes: &[u16]) -> Option<BitString> {
        let locator = self.error_locator(syndromes)?;
        let positions = self.error_positions(&locator)?;
        let n_corrected = positions.len() as u64;
        let mut corrected = received.clone();
        for pos in positions {
            corrected.flip(pos);
        }
        // Reject miscorrections: the result must be a codeword.
        if self.syndromes(&corrected).iter().any(|&s| s != 0) {
            return None;
        }
        aro_obs::counter("ecc.bch_bits_corrected", n_corrected);
        // Decode margin: correction headroom left in this block. A p1
        // sliding toward 0 is the early warning that the key is dying.
        #[allow(clippy::cast_precision_loss)]
        aro_obs::sketch("ecc.decode_margin", self.t as f64 - n_corrected as f64);
        Some(corrected)
    }
}

/// Multiplies a polynomial by `x^shift`.
fn shift(p: &GfPoly, by: usize) -> GfPoly {
    if p.is_zero() {
        return GfPoly::zero();
    }
    let mut coeffs = vec![0u16; by];
    coeffs.extend_from_slice(p.coeffs());
    GfPoly::from_coeffs(coeffs)
}

impl Code for BchCode {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn t(&self) -> usize {
        self.t
    }

    /// Systematic encoding: codeword = `[parity | message]` with
    /// `parity = x^(n−k)·m(x) mod g(x)`.
    fn encode(&self, message: &BitString) -> BitString {
        assert_eq!(message.len(), self.k, "message must be k bits");
        let parity_len = self.n - self.k;
        // x^(n-k) * m(x)
        let mut shifted = vec![false; parity_len];
        shifted.extend(message.iter());
        let rem = BinPoly::from_bits(shifted).rem(&self.generator);
        let mut codeword = BitString::zeros(self.n);
        for (i, &bit) in rem.bits().iter().enumerate() {
            codeword.set(i, bit);
        }
        for i in 0..self.k {
            codeword.set(parity_len + i, message.get(i));
        }
        codeword
    }

    fn decode(&self, received: &BitString) -> Option<BitString> {
        assert_eq!(received.len(), self.n, "received word must be n bits");
        aro_obs::counter("ecc.bch_decode_attempts", 1);
        let syndromes = self.syndromes(received);
        if syndromes.iter().all(|&s| s == 0) {
            // Clean block: full correction headroom unused.
            #[allow(clippy::cast_precision_loss)]
            aro_obs::sketch("ecc.decode_margin", self.t as f64);
            return Some(received.clone());
        }
        let corrected = self.correct_errors(received, &syndromes);
        if corrected.is_none() {
            aro_obs::counter("ecc.bch_decode_failures", 1);
            // A failed block exhausted more than its whole headroom;
            // record it as negative margin so health percentiles see it.
            aro_obs::sketch("ecc.decode_margin", -1.0);
        }
        corrected
    }

    fn extract_message(&self, codeword: &BitString) -> BitString {
        assert_eq!(codeword.len(), self.n, "codeword must be n bits");
        codeword.slice(self.n - self.k, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_message(k: usize, rng: &mut StdRng) -> BitString {
        (0..k).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn known_code_dimensions() {
        // Classic BCH parameter table entries.
        for &(m, t, k) in &[
            (4u32, 1usize, 11usize), // (15, 11, 1) Hamming
            (4, 2, 7),               // (15, 7, 2)
            (4, 3, 5),               // (15, 5, 3)
            (5, 1, 26),              // (31, 26, 1)
            (5, 2, 21),              // (31, 21, 2)
            (5, 3, 16),              // (31, 16, 3)
            (6, 2, 51),              // (63, 51, 2)
            (7, 2, 113),             // (127, 113, 2)
            (8, 2, 239),             // (255, 239, 2)
        ] {
            let code = BchCode::new(m, t);
            assert_eq!(code.k(), k, "BCH(2^{m}-1, t={t})");
        }
    }

    #[test]
    fn encoding_is_systematic() {
        let code = BchCode::new(5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let message = random_message(code.k(), &mut rng);
        let codeword = code.encode(&message);
        assert_eq!(code.extract_message(&codeword), message);
    }

    #[test]
    fn clean_codewords_decode_to_themselves() {
        let code = BchCode::new(4, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let message = random_message(code.k(), &mut rng);
            let codeword = code.encode(&message);
            assert_eq!(code.decode(&codeword), Some(codeword));
        }
    }

    #[test]
    fn corrects_up_to_t_errors_everywhere() {
        let mut rng = StdRng::seed_from_u64(3);
        for (m, t) in [(4u32, 2usize), (5, 3), (6, 4), (7, 5)] {
            let code = BchCode::new(m, t);
            for trial in 0..20 {
                let message = random_message(code.k(), &mut rng);
                let codeword = code.encode(&message);
                let mut corrupted = codeword.clone();
                // Flip exactly t distinct random positions.
                let mut flipped = std::collections::HashSet::new();
                while flipped.len() < t {
                    let pos = rng.gen_range(0..code.n());
                    if flipped.insert(pos) {
                        corrupted.flip(pos);
                    }
                }
                let decoded = code
                    .decode(&corrupted)
                    .unwrap_or_else(|| panic!("m={m} t={t} trial={trial} failed"));
                assert_eq!(decoded, codeword);
                assert_eq!(code.extract_message(&decoded), message);
            }
        }
    }

    #[test]
    fn detects_more_than_t_errors_usually() {
        // With t+2 or more random errors, the decoder must either fail or
        // land on some codeword — but never return a non-codeword.
        let code = BchCode::new(5, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut failures = 0;
        for _ in 0..50 {
            let message = random_message(code.k(), &mut rng);
            let mut corrupted = code.encode(&message);
            let mut flipped = std::collections::HashSet::new();
            while flipped.len() < code.t() + 3 {
                let pos = rng.gen_range(0..code.n());
                if flipped.insert(pos) {
                    corrupted.flip(pos);
                }
            }
            match code.decode(&corrupted) {
                None => failures += 1,
                Some(word) => {
                    assert!(
                        code.decode(&word).is_some(),
                        "decoder must output a codeword"
                    );
                }
            }
        }
        assert!(
            failures > 0,
            "over-capacity errors should often be detected"
        );
    }

    #[test]
    fn generator_divides_every_codeword() {
        let code = BchCode::new(4, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let message = random_message(code.k(), &mut rng);
            let codeword = code.encode(&message);
            let as_poly = BinPoly::from_bits(codeword.iter().collect());
            assert_eq!(as_poly.rem(code.generator()).degree(), None);
        }
    }

    #[test]
    fn codeword_has_alpha_powers_as_roots() {
        // The defining property: c(alpha^j) = 0 for j = 1..2t.
        let code = BchCode::new(5, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let message = random_message(code.k(), &mut rng);
        let codeword = code.encode(&message);
        for j in 1..=2 * code.t() {
            let mut eval = 0u16;
            for i in 0..code.n() {
                if codeword.get(i) {
                    eval ^= code.field().alpha_pow(i * j);
                }
            }
            assert_eq!(eval, 0, "c(alpha^{j}) must vanish");
        }
    }

    #[test]
    fn single_error_position_is_found_exactly() {
        let code = BchCode::new(4, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let message = random_message(code.k(), &mut rng);
        let codeword = code.encode(&message);
        for pos in 0..code.n() {
            let mut corrupted = codeword.clone();
            corrupted.flip(pos);
            assert_eq!(
                code.decode(&corrupted),
                Some(codeword.clone()),
                "error at {pos}"
            );
        }
    }

    #[test]
    fn large_field_code_construction_is_sane() {
        let code = BchCode::new(10, 20);
        assert_eq!(code.n(), 1023);
        assert!(code.k() >= 1023 - 10 * 20);
        assert!(code.rate() > 0.5);
    }

    #[test]
    #[should_panic(expected = "t too large")]
    fn absurd_t_panics() {
        let _ = BchCode::new(4, 8);
    }

    #[test]
    #[should_panic(expected = "message must be k bits")]
    fn wrong_message_length_panics() {
        let code = BchCode::new(4, 2);
        let _ = code.encode(&BitString::zeros(3));
    }
}
