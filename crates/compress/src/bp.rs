//! Bit-Packing: all values of a block stored with the bit width of the
//! largest value.

use crate::bitio::{bits_for, BitWriter};
use crate::{check_len, unpack, BlockInfo, Codec, Error, Scheme};

/// The BP codec (Lemire & Boytsov style frame-of-reference packing, without
/// the SIMD layout — the simulator cares about sizes, not host speed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BitPacking;

/// The block's bit width: that of its largest value, i.e. of the OR of
/// all of them.
fn width_of(values: &[u32]) -> u32 {
    bits_for(values.iter().fold(0, |acc, &v| acc | v))
}

/// Bytes of `n` values packed at `width` bits each (the last byte
/// zero-padded) — BP's length, and OptPFD's packed area.
#[inline]
pub(crate) fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

impl Codec for BitPacking {
    fn scheme(&self) -> Scheme {
        Scheme::Bp
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        Ok(packed_len(values.len(), width_of(values)))
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        let width = width_of(values);
        let mut w = BitWriter::new(out);
        for &v in values {
            w.write(v, width);
        }
        w.finish();
        Ok(BlockInfo {
            count,
            bit_width: width as u8,
            exception_offset: 0,
        })
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let width = u32::from(info.bit_width);
        if width > 32 {
            return Err(Error::Corrupt {
                reason: "BP bit width above 32",
            });
        }
        unpack::unpack(data, info.count as usize, width, out)
    }

    fn decode_d1(
        &self,
        data: &[u8],
        info: &BlockInfo,
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<bool, Error> {
        let width = u32::from(info.bit_width);
        if width > 32 {
            return Err(Error::Corrupt {
                reason: "BP bit width above 32",
            });
        }
        unpack::unpack_d1(data, info.count as usize, width, base, out)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn roundtrip(values: &[u32]) -> (BlockInfo, Vec<u8>) {
        let mut buf = Vec::new();
        let info = BitPacking.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        BitPacking.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        (info, buf)
    }

    #[test]
    fn all_zeros_cost_nothing() {
        let (info, buf) = roundtrip(&[0; 128]);
        assert_eq!(info.bit_width, 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn width_is_max_value_width() {
        let (info, buf) = roundtrip(&[1, 2, 3, 255]);
        assert_eq!(info.bit_width, 8);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn full_width_values() {
        let (info, _) = roundtrip(&[u32::MAX, 0, 12345]);
        assert_eq!(info.bit_width, 32);
    }

    #[test]
    fn truncated_data_errors() {
        let mut buf = Vec::new();
        let info = BitPacking.encode(&[300; 128], &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = BitPacking.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn corrupt_width_rejected() {
        let info = BlockInfo {
            count: 1,
            bit_width: 40,
            exception_offset: 0,
        };
        let err = BitPacking
            .decode(&[0u8; 8], &info, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn size_is_ceil_of_count_times_width() {
        let values = vec![7u32; 100]; // 3 bits each -> 300 bits -> 38 bytes
        let mut buf = Vec::new();
        BitPacking.encode(&values, &mut buf).unwrap();
        assert_eq!(buf.len(), 38);
    }
}
