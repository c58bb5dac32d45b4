//! Packed bit strings: the PUF response type.
//!
//! Responses are hundreds of bits and Hamming distance is computed
//! millions of times per experiment, so bits are packed into `u64` words
//! and HD is a word-wise `xor` + `count_ones`.

use std::fmt;

/// A fixed-length string of bits, packed LSB-first into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// An all-zero string of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a string from a slice of booleans.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }

    /// Builds a string of `len` bits from a generator function.
    #[must_use]
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        (0..len).map(f).collect()
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let (w, b) = (index / 64, index % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1 << (index % 64);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in Hamming distance");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Bitwise XOR, the core of the code-offset fuzzy extractor.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Iterates the bits from index 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The sub-string `[start, start + len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the string.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of range");
        Self::from_fn(len, |i| self.get(start + i))
    }

    /// Concatenates two strings.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        self.iter().chain(other.iter()).collect()
    }

    /// Packs the bits into bytes, LSB-first within each byte, zero-padded.
    ///
    /// Bit `i` sits at bit `i % 64` of word `i / 64`, so a word's
    /// little-endian bytes are already its eight packed bytes: the packing
    /// copies whole words, keeps the first `len.div_ceil(8)` bytes and
    /// masks the bits past `len` out of the last one. The verifier store's
    /// record seals hash these bytes on every read.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.words.len() * 8);
        for word in &self.words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.truncate(self.len.div_ceil(8));
        let tail = self.len % 8;
        if tail > 0 {
            let last = bytes.len() - 1;
            bytes[last] &= (1 << tail) - 1;
        }
        bytes
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = Self::default();
        s.extend(iter);
        s
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            if self.len.is_multiple_of(64) {
                self.words.push(0);
            }
            if bit {
                self.words[self.len / 64] |= 1 << (self.len % 64);
            }
            self.len += 1;
        }
    }
}

impl fmt::Display for BitString {
    /// Renders as `0`/`1` characters, bit 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_empty_of_ones() {
        let z = BitString::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.is_empty());
        assert!(BitString::zeros(0).is_empty());
    }

    #[test]
    fn set_get_flip_roundtrip_across_word_boundaries() {
        let mut s = BitString::zeros(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!s.get(i));
            s.set(i, true);
            assert!(s.get(i));
            s.flip(i);
            assert!(!s.get(i));
        }
    }

    #[test]
    fn from_bools_round_trips_through_iter() {
        let pattern: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let s = BitString::from_bools(&pattern);
        assert_eq!(s.iter().collect::<Vec<_>>(), pattern);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = BitString::from_fn(100, |i| i % 2 == 0);
        let b = BitString::from_fn(100, |i| i % 2 == 1);
        assert_eq!(a.hamming_distance(&b), 100);
        assert_eq!(a.hamming_distance(&a), 0);
        let mut c = a.clone();
        c.flip(17);
        assert_eq!(a.hamming_distance(&c), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_distance_length_mismatch_panics() {
        let _ = BitString::zeros(10).hamming_distance(&BitString::zeros(11));
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = BitString::from_fn(90, |i| (i * 7) % 5 < 2);
        let b = BitString::from_fn(90, |i| (i * 3) % 4 == 1);
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&a), BitString::zeros(90));
        assert_eq!(a.xor(&b).count_ones(), a.hamming_distance(&b));
    }

    #[test]
    fn slice_and_concat_are_inverses() {
        let s = BitString::from_fn(77, |i| i % 2 == 0);
        let left = s.slice(0, 30);
        let right = s.slice(30, 47);
        assert_eq!(left.concat(&right), s);
    }

    #[test]
    fn to_bytes_packs_lsb_first() {
        let s =
            BitString::from_bools(&[true, false, false, false, false, false, false, false, true]);
        assert_eq!(s.to_bytes(), vec![0b0000_0001, 0b0000_0001]);
    }

    #[test]
    fn display_renders_bits_in_order() {
        let s = BitString::from_bools(&[true, false, true]);
        assert_eq!(s.to_string(), "101");
    }

    #[test]
    fn collect_from_iterator() {
        let s: BitString = (0..130).map(|i| i == 129).collect();
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 1);
        assert!(s.get(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitString::zeros(5).get(5);
    }
}
