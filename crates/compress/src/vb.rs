//! Variable-Byte: 7-bit payload groups, MSB set on the final byte of each
//! value (the classic Cutting–Pedersen encoding the paper's Figure 8
//! programs into the BOSS decompression module).

use crate::bitio::bits_for;
use crate::{check_count, check_len, BlockInfo, Codec, Error, Scheme};

/// The VB codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VariableByte;

/// Encoded bytes of a value by its bit length: one per started group of
/// seven significant bits, and one for a zero. A block's length is their
/// sum, value by value here and bit length by bit length in
/// [`crate::BitProfile::vb_len`].
pub(crate) const LEN_BY_BITS: [u8; 33] = {
    let mut table = [1u8; 33];
    let mut bits = 1;
    while bits <= 32 {
        table[bits] = (bits as u8).div_ceil(7);
        bits += 1;
    }
    table
};

impl Codec for VariableByte {
    fn scheme(&self) -> Scheme {
        Scheme::Vb
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        Ok(values
            .iter()
            .map(|&v| usize::from(LEN_BY_BITS[bits_for(v) as usize]))
            .sum())
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        for &v in values {
            let mut v = v;
            loop {
                let payload = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(payload | 0x80); // terminator byte
                    break;
                }
                out.push(payload);
            }
        }
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let count = check_count(info)?;
        out.reserve(count);
        let mut pos = 0usize;
        let mut i = 0usize;
        // Fast path: while an 8-byte word is in bounds, locate the
        // terminator with one trailing-zeros over the MSB mask and merge
        // the 7-bit payload groups branchlessly — the only data-dependent
        // branch per value is the rare 5-byte/overwide case.
        const MSBS: u64 = 0x8080_8080_8080_8080;
        const PAYLOADS: u64 = 0x0000_007F_7F7F_7F7F;
        while i < count && pos + 8 <= data.len() {
            // Infallible: the loop condition keeps the 8-byte window in bounds.
            #[allow(clippy::expect_used)]
            let word = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes"));
            let tz = (word & MSBS).trailing_zeros();
            if tz >= 39 {
                if tz > 39 {
                    // No terminator within 5 bytes: the reference reports
                    // Corrupt here (either at the byte-4 payload check or
                    // at the sixth byte, which is in bounds).
                    return Err(Error::Corrupt {
                        reason: "VB value wider than 32 bits",
                    });
                }
                // Legal 5-byte value; byte 4 carries at most 4 bits.
                let payload = (word >> 32) & 0x7F;
                if payload > 0xF {
                    return Err(Error::Corrupt {
                        reason: "VB value wider than 32 bits",
                    });
                }
                let w = word & PAYLOADS;
                let v = (w & 0x7F)
                    | ((w >> 1) & (0x7F << 7))
                    | ((w >> 2) & (0x7F << 14))
                    | ((w >> 3) & (0x7F << 21))
                    | (payload << 28);
                out.push(v as u32);
                pos += 5;
            } else {
                // tz = 8*len - 1 for a terminator in bytes 0..=3.
                let len = (tz as usize >> 3) + 1;
                let w = word & (u64::MAX >> (63 - tz)) & PAYLOADS;
                let v = (w & 0x7F)
                    | ((w >> 1) & (0x7F << 7))
                    | ((w >> 2) & (0x7F << 14))
                    | ((w >> 3) & (0x7F << 21));
                out.push(v as u32);
                pos += len;
            }
            i += 1;
        }
        // Tail: per-byte bounds-checked loop, identical to the reference.
        for _ in i..count {
            let mut v: u32 = 0;
            let mut shift = 0u32;
            loop {
                let Some(&b) = data.get(pos) else {
                    return Err(Error::Truncated {
                        have: data.len(),
                        need: pos + 1,
                    });
                };
                pos += 1;
                if shift >= 35 {
                    return Err(Error::Corrupt {
                        reason: "VB value wider than 32 bits",
                    });
                }
                let payload = u32::from(b & 0x7F);
                if shift == 28 && payload > 0xF {
                    return Err(Error::Corrupt {
                        reason: "VB value wider than 32 bits",
                    });
                }
                v |= payload << shift;
                shift += 7;
                if b & 0x80 != 0 {
                    break;
                }
            }
            out.push(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn roundtrip(values: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let info = VariableByte.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        VariableByte.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        buf
    }

    #[test]
    fn small_values_one_byte_each() {
        let buf = roundtrip(&[0, 1, 127, 64]);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn boundaries() {
        roundtrip(&[127, 128, 16383, 16384, 2097151, 2097152, u32::MAX]);
    }

    #[test]
    fn len_by_bits_table() {
        assert_eq!(LEN_BY_BITS[0], 1);
        assert_eq!(LEN_BY_BITS[7], 1);
        assert_eq!(LEN_BY_BITS[8], 2);
        assert_eq!(LEN_BY_BITS[28], 4);
        assert_eq!(LEN_BY_BITS[29], 5);
        assert_eq!(LEN_BY_BITS[32], 5);
    }

    #[test]
    fn byte_counts_match_widths() {
        let mut buf = Vec::new();
        VariableByte.encode(&[128], &mut buf).unwrap();
        assert_eq!(buf.len(), 2);
        buf.clear();
        VariableByte.encode(&[u32::MAX], &mut buf).unwrap();
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        let info = VariableByte.encode(&[1_000_000, 2], &mut buf).unwrap();
        buf.truncate(2);
        let err = VariableByte
            .decode(&buf, &info, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn kernel_matches_reference_on_random_streams() {
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for len in [1usize, 2, 5, 100, 128, 333] {
            let values: Vec<u32> = (0..len)
                .map(|_| {
                    let r = next();
                    match r % 8 {
                        0..=4 => r % 128,
                        5 => r % 16384,
                        6 => r % 2097152,
                        _ => r,
                    }
                })
                .collect();
            let mut buf = Vec::new();
            let info = VariableByte.encode(&values, &mut buf).unwrap();
            let mut fast = Vec::new();
            VariableByte.decode(&buf, &info, &mut fast).unwrap();
            let mut slow = Vec::new();
            crate::reference::decode(Scheme::Vb, &buf, &info, &mut slow).unwrap();
            assert_eq!(fast, slow, "len {len}");
            assert_eq!(fast, values, "len {len}");
        }
    }

    #[test]
    fn truncated_five_byte_value_errors_like_reference() {
        // A 5-byte value whose terminator byte is cut off: both paths
        // report the same error shape.
        let mut buf = Vec::new();
        let info = VariableByte.encode(&[u32::MAX], &mut buf).unwrap();
        buf.truncate(4);
        let fast = VariableByte
            .decode(&buf, &info, &mut Vec::new())
            .unwrap_err();
        let slow = crate::reference::decode(Scheme::Vb, &buf, &info, &mut Vec::new()).unwrap_err();
        assert_eq!(format!("{fast}"), format!("{slow}"));
        assert!(matches!(fast, Error::Truncated { .. }));
    }

    #[test]
    fn overwide_value_is_corrupt() {
        // Six continuation bytes with no terminator within 32 bits.
        let data = [0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0xFF];
        let info = BlockInfo {
            count: 1,
            bit_width: 0,
            exception_offset: 0,
        };
        let err = VariableByte
            .decode(&data, &info, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }
}
