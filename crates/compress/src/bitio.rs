//! Little-endian bit-level readers/writers shared by the packed codecs.

use crate::Error;

/// Appends values of arbitrary bit width (0..=32) to a byte buffer,
/// least-significant bit first. Bits reach the buffer 32 at a time, so a
/// stream is complete only after [`BitWriter::finish`].
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    cur: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    /// Starts writing at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            cur: 0,
            filled: 0,
        }
    }

    /// Writes the low `bits` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 32` or if `value` has bits set above `bits`
    /// (debug builds only for the latter).
    pub fn write(&mut self, value: u32, bits: u32) {
        assert!(bits <= 32, "bit width {bits} out of range");
        debug_assert!(
            bits == 32 || u64::from(value) < (1u64 << bits),
            "value {value} wider than {bits} bits"
        );
        // `filled` stays below 32 between calls, so the shifted value
        // always fits the 64-bit accumulator.
        self.cur |= u64::from(value) << self.filled;
        self.filled += bits;
        if self.filled >= 32 {
            self.out.extend_from_slice(&(self.cur as u32).to_le_bytes());
            self.cur >>= 32;
            self.filled -= 32;
        }
    }

    /// Flushes the pending bits, zero-padded to a whole byte.
    pub fn finish(self) {
        let pending = self.filled.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.cur.to_le_bytes()[..pending]);
    }
}

/// Reads values of arbitrary bit width (0..=32) from a byte slice,
/// least-significant bit first (the inverse of [`BitWriter`]).
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    cur: u64,
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            cur: 0,
            avail: 0,
        }
    }

    /// Reads `bits` bits as a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] when the underlying slice runs out.
    pub fn read(&mut self, bits: u32) -> Result<u32, Error> {
        assert!(bits <= 32, "bit width {bits} out of range");
        while self.avail < bits {
            let Some(&b) = self.data.get(self.pos) else {
                return Err(Error::Truncated {
                    have: self.data.len(),
                    need: self.pos + 1,
                });
            };
            self.cur |= u64::from(b) << self.avail;
            self.avail += 8;
            self.pos += 1;
        }
        let mask = if bits == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << bits) - 1
        };
        let v = (self.cur & mask) as u32;
        self.cur >>= bits;
        self.avail -= bits;
        Ok(v)
    }
}

/// Number of bits needed to represent `v` (0 for `v == 0`).
pub(crate) fn bits_for(v: u32) -> u32 {
    32 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        let samples = [
            (5u32, 3u32),
            (0, 1),
            (1023, 10),
            (0xFFFF_FFFF, 32),
            (1, 1),
            (77, 7),
        ];
        for &(v, b) in &samples {
            w.write(v, b);
        }
        w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, b) in &samples {
            assert_eq!(r.read(b).unwrap(), v);
        }
    }

    #[test]
    fn zero_width_writes_nothing() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for _ in 0..1000 {
            w.write(0, 0);
        }
        w.finish();
        assert!(buf.is_empty());
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read(0).unwrap(), 0);
    }

    #[test]
    fn truncated_read_errors() {
        let buf = vec![0xFFu8];
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        assert!(matches!(r.read(1), Err(Error::Truncated { .. })));
    }

    #[test]
    fn writer_packs_densely() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for _ in 0..8 {
            w.write(1, 1);
        }
        w.finish();
        assert_eq!(buf, vec![0xFF]);
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX), 32);
    }
}
