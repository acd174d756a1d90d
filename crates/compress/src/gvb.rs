//! Group-Varint (Google-style): groups of four values share one control
//! byte whose 2-bit fields give each value's byte length (1–4).
//!
//! Not one of the paper's five evaluated schemes — it ships as the
//! worked example of extending the codec set *and* the programmable
//! decompression module together (Section III-B's extensibility claim):
//! `boss-decomp` decodes it through a dedicated extractor flavor plus the
//! identity stage-2 program.

use crate::{check_count, check_len, BlockInfo, Codec, Error, Scheme};

/// The Group-Varint codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupVarint;

fn byte_len(v: u32) -> u32 {
    match v {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFF_FFFF => 3,
        _ => 4,
    }
}

impl Codec for GroupVarint {
    fn scheme(&self) -> Scheme {
        Scheme::GroupVarint
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        for group in values.chunks(4) {
            let mut ctrl = 0u8;
            for (i, &v) in group.iter().enumerate() {
                ctrl |= ((byte_len(v) - 1) as u8) << (i * 2);
            }
            out.push(ctrl);
            for &v in group {
                let n = byte_len(v) as usize;
                out.extend_from_slice(&v.to_le_bytes()[..n]);
            }
        }
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let mut pos = 0usize;
        let mut remaining = check_count(info)?;
        out.reserve(remaining);
        while remaining > 0 {
            let Some(&ctrl) = data.get(pos) else {
                return Err(Error::Truncated {
                    have: data.len(),
                    need: pos + 1,
                });
            };
            pos += 1;
            let in_group = remaining.min(4);
            for i in 0..in_group {
                let n = (((ctrl >> (i * 2)) & 0b11) + 1) as usize;
                let Some(bytes) = data.get(pos..pos + n) else {
                    return Err(Error::Truncated {
                        have: data.len(),
                        need: pos + n,
                    });
                };
                pos += n;
                let mut buf = [0u8; 4];
                buf[..n].copy_from_slice(bytes);
                out.push(u32::from_le_bytes(buf));
            }
            remaining -= in_group;
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
        let info = GroupVarint.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        GroupVarint.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        buf
    }

    #[test]
    fn small_values_five_bytes_per_group() {
        let buf = roundtrip(&[1, 2, 3, 4]);
        assert_eq!(buf.len(), 5, "1 control + 4x1 byte");
    }

    #[test]
    fn mixed_widths() {
        roundtrip(&[0, 255, 256, 65535, 65536, 0xFF_FFFF, 0x100_0000, u32::MAX]);
    }

    #[test]
    fn partial_tail_group() {
        let buf = roundtrip(&[300, 7]);
        assert_eq!(buf.len(), 1 + 2 + 1);
    }

    #[test]
    fn byte_length_boundaries() {
        assert_eq!(byte_len(0), 1);
        assert_eq!(byte_len(255), 1);
        assert_eq!(byte_len(256), 2);
        assert_eq!(byte_len(65536), 3);
        assert_eq!(byte_len(u32::MAX), 4);
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        let info = GroupVarint
            .encode(&[70000, 70000, 70000], &mut buf)
            .unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            GroupVarint.decode(&buf, &info, &mut Vec::new()),
            Err(Error::Truncated { .. })
        ));
        assert!(matches!(
            GroupVarint.decode(&[], &info, &mut Vec::new()),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn not_in_paper_scheme_list() {
        assert!(!crate::ALL_SCHEMES.contains(&Scheme::GroupVarint));
    }
}
