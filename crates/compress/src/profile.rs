//! The bit-length profile of a block: what Bit-Packing, Variable-Byte and
//! OptPForDelta are sized from, filled in one pass over the values.

use crate::bitio::bits_for;
use crate::{bp, pfd, vb};

/// How many values of a block have each bit length, and the OR of all of
/// them — enough to size the block under Bit-Packing, Variable-Byte and
/// OptPForDelta, and to pick OptPFD's width, without another look at a
/// value. The answers are the codecs' own formulas — BP's and VB's
/// `encoded_len` apply them value by value, OptPFD's `encoded_len` and
/// `encode` take the profile's.
///
/// Filling it costs a counter increment and an OR per value
/// ([`BitProfile::add`]); the answers and [`BitProfile::clear`] cost a
/// step per bit length up to the widest value's — not per value and not
/// over all 33 lengths — so a profile reused across short blocks stays
/// cheap.
#[derive(Debug, Clone)]
pub struct BitProfile {
    /// Values per bit length, alternate values in alternate rows:
    /// neighbours are mostly of one bit length, and a single counter per
    /// length would chain every increment to the store before it.
    counts: [[u32; 33]; 2],
    any: u32,
    len: usize,
}

impl Default for BitProfile {
    fn default() -> Self {
        BitProfile {
            counts: [[0; 33]; 2],
            any: 0,
            len: 0,
        }
    }
}

impl BitProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile of `values`.
    pub fn of(values: &[u32]) -> Self {
        let mut profile = Self::new();
        profile.add(values);
        profile
    }

    /// Counts `values`, after those already counted.
    #[inline]
    pub fn add(&mut self, values: &[u32]) {
        // Only the counters live in memory while the values stream by;
        // each row takes every other value.
        let mut any = self.any;
        let (even, odd) = (self.len % 2, 1 - self.len % 2);
        let (pairs, last) = values.as_chunks::<2>();
        for &[a, b] in pairs {
            self.counts[even][bits_for(a) as usize] += 1;
            self.counts[odd][bits_for(b) as usize] += 1;
            any |= a | b;
        }
        if let [v] = *last {
            self.counts[even][bits_for(v) as usize] += 1;
            any |= v;
        }
        self.any = any;
        self.len += values.len();
    }

    /// Empties the profile, zeroing only the bit lengths it counted.
    #[inline]
    pub fn clear(&mut self) {
        let width = self.width() as usize;
        for row in &mut self.counts {
            row[..=width].fill(0);
        }
        self.any = 0;
        self.len = 0;
    }

    /// The bit length of the widest value.
    #[inline]
    fn width(&self) -> u32 {
        bits_for(self.any)
    }

    /// Values of exactly `bits` significant bits.
    #[inline]
    fn count(&self, bits: u32) -> usize {
        (self.counts[0][bits as usize] + self.counts[1][bits as usize]) as usize
    }

    /// Bytes of the values under Bit-Packing: every value at the widest
    /// one's bit length.
    #[inline]
    pub fn bp_len(&self) -> usize {
        bp::packed_len(self.len, self.width())
    }

    /// Bytes of the values under Variable-Byte.
    #[inline]
    pub fn vb_len(&self) -> usize {
        (0..=self.width())
            .map(|bits| self.count(bits) * usize::from(vb::LEN_BY_BITS[bits as usize]))
            .sum()
    }

    /// OptPForDelta's choice: the bit width that minimizes the encoded
    /// size (the narrowest on a tie) and that size, as `(bytes, width)`.
    /// The exceptions of width `b` are the values longer than `b` bits, a
    /// suffix sum carried down from the widest candidate.
    #[inline]
    pub fn optpfd(&self) -> (usize, u32) {
        let mut exceptions = 0;
        let mut best = (usize::MAX, 0);
        for b in (0..=self.width()).rev() {
            let len = bp::packed_len(self.len, b) + exceptions * pfd::EXCEPTION_BYTES;
            // Descending walk, so `<=` leaves the narrowest width on a tie.
            if len <= best.0 {
                best = (len, b);
            }
            exceptions += self.count(b);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn a_cleared_profile_is_an_empty_one() {
        let mut reused = BitProfile::of(&[u32::MAX, 0, 1 << 20, 7]);
        reused.clear();
        reused.add(&[3, 0, 9]);
        reused.add(&[1]);
        let fresh = BitProfile::of(&[3, 0, 9, 1]);
        assert_eq!(reused.counts, fresh.counts);
        assert_eq!(
            (reused.bp_len(), reused.vb_len(), reused.optpfd()),
            (fresh.bp_len(), fresh.vb_len(), fresh.optpfd())
        );
    }
}
