//! The seed per-value decoders, kept as the oracle for the word-level
//! kernels in [`crate::unpack`] and the unrolled per-selector decoders of
//! the codecs: one [`BitReader::read`], byte or layout field per value,
//! written before any kernel existed. Tests and the corruption harness
//! hold every production decode path to these on accept/reject and on
//! values; nothing in a production path may call them, and they share
//! only input validation and the exception patch with what they judge.

use crate::bitio::BitReader;
use crate::unpack::check_input;
use crate::{check_count, codec_for, pfd, s16, s8b, BlockInfo, Error, Scheme};

/// Decodes exactly `info.count` values of a `scheme` block from `data`
/// into `out` (appending), one value at a time.
///
/// # Errors
///
/// The conditions of [`crate::Codec::decode`] for the same scheme.
pub fn decode(
    scheme: Scheme,
    data: &[u8],
    info: &BlockInfo,
    out: &mut Vec<u32>,
) -> Result<(), Error> {
    match scheme {
        Scheme::Bp => {
            let width = u32::from(info.bit_width);
            if width > 32 {
                return Err(Error::Corrupt {
                    reason: "BP bit width above 32",
                });
            }
            unpack(data, info.count as usize, width, out)
        }
        Scheme::Vb => decode_vb(data, info, out),
        Scheme::OptPfd => {
            let (b, exc_off) = pfd::check_header(data, info)?;
            let base = out.len();
            let mut r = BitReader::new(&data[..exc_off]);
            out.reserve(info.count as usize);
            for _ in 0..info.count {
                out.push(r.read(b)?);
            }
            pfd::apply_exceptions(&data[exc_off..], b, info.count as usize, &mut out[base..])
        }
        Scheme::S16 => decode_s16(data, info, out),
        Scheme::S8b => decode_s8b(data, info, out),
        // Group-Varint was never rerouted through a kernel: its decoder
        // still is the per-value walk it shipped with.
        Scheme::GroupVarint => codec_for(scheme).decode(data, info, out),
    }
}

fn decode_vb(data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
    let mut pos = 0usize;
    out.reserve(check_count(info)?);
    for _ in 0..info.count {
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

fn decode_s16(data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
    let mut remaining = check_count(info)?;
    let mut pos = 0usize;
    out.reserve(remaining);
    while remaining > 0 {
        let Some(&[b0, b1, b2, b3]) = data.get(pos..pos + 4) else {
            return Err(Error::Truncated {
                have: data.len(),
                need: pos + 4,
            });
        };
        pos += 4;
        let word = u32::from_le_bytes([b0, b1, b2, b3]);
        let mut shift = 0u32;
        for &(n, bits) in s16::S16_LAYOUTS[(word >> 28) as usize] {
            let mask = (1u32 << bits) - 1;
            for _ in 0..n {
                if remaining == 0 {
                    break;
                }
                out.push((word >> shift) & mask);
                shift += bits;
                remaining -= 1;
            }
        }
    }
    Ok(())
}

fn decode_s8b(data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
    let mut remaining = check_count(info)?;
    let mut pos = 0usize;
    out.reserve(remaining);
    while remaining > 0 {
        let Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) = data.get(pos..pos + 8) else {
            return Err(Error::Truncated {
                have: data.len(),
                need: pos + 8,
            });
        };
        pos += 8;
        let word = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        let sel = (word >> 60) as usize;
        match sel {
            0 | 1 => {
                let n = if sel == 0 { 240 } else { 120 };
                let take = n.min(remaining);
                out.extend(std::iter::repeat_n(0u32, take));
                remaining -= take;
            }
            _ => {
                let (n, bits) = s8b::S8B_PACKED[sel - 2];
                let mask = (1u64 << bits) - 1;
                let mut shift = 0u32;
                for _ in 0..n {
                    if remaining == 0 {
                        break;
                    }
                    out.push(((word >> shift) & mask) as u32);
                    shift += bits;
                    remaining -= 1;
                }
            }
        }
    }
    Ok(())
}

/// The seed fixed-width path behind the unpack kernels: appends `count`
/// values of `width` bits from `data`, one [`BitReader::read`] per value.
///
/// # Errors
///
/// Corrupt width/count are rejected up front, truncation either up front
/// or mid-value — the conditions of the kernel it is the oracle for.
pub fn unpack(data: &[u8], count: usize, width: u32, out: &mut Vec<u32>) -> Result<(), Error> {
    check_input(data, count, width)?;
    let mut r = BitReader::new(data);
    out.reserve(count);
    for _ in 0..count {
        out.push(r.read(width)?);
    }
    Ok(())
}

/// Oracle for the fused d-gap kernel: per-value reads plus a scalar
/// (wrapping) prefix sum seeded with `base`.
///
/// # Errors
///
/// Same conditions as [`unpack`].
pub fn unpack_d1(
    data: &[u8],
    count: usize,
    width: u32,
    base: u32,
    out: &mut Vec<u32>,
) -> Result<(), Error> {
    check_input(data, count, width)?;
    let mut r = BitReader::new(data);
    out.reserve(count);
    let mut prev = base;
    for _ in 0..count {
        prev = prev.wrapping_add(r.read(width)?);
        out.push(prev);
    }
    Ok(())
}
