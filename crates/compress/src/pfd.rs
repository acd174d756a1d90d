//! OptPForDelta: pack the low `b` bits of every value; values that do not
//! fit in `b` bits are *exceptions* whose remaining high bits live in a
//! patch area at the end of the block. The bit width is chosen per block to
//! minimize the total encoded size (the "Opt" in OptPFD).
//!
//! Layout: `[packed count×b bits][exceptions: (index: u16, high: u32)*]`.
//! The number of exceptions is recovered from the exception offset and the
//! total length; the index's block metadata stores the offset, matching the
//! paper's 12-bit "offset of the first exception value and index" field.

use crate::bitio::BitWriter;
use crate::{check_count, check_len, unpack, BitProfile, BlockInfo, Codec, Error, Scheme};

/// The OptPFD codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OptPfd;

pub(crate) const EXCEPTION_BYTES: usize = 6; // u16 index + u32 high bits

impl Codec for OptPfd {
    fn scheme(&self) -> Scheme {
        Scheme::OptPfd
    }

    /// The width search ([`BitProfile::optpfd`]) already prices every
    /// candidate; the length is the winner's. (The packed area of at most
    /// 4096 32-bit values is 16 KiB, so the offset-field check of
    /// [`optpfd_pack`] cannot fire.)
    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        Ok(BitProfile::of(values).optpfd().0)
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        check_len(values)?;
        optpfd_pack(values, BitProfile::of(values).optpfd().1, out)
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let (b, exc_off) = check_header(data, info)?;
        let base = out.len();
        unpack::unpack(&data[..exc_off], info.count as usize, b, out)?;
        apply_exceptions(&data[exc_off..], b, info.count as usize, &mut out[base..])
    }
}

/// Encodes `values` under OptPForDelta at bit width `width` — the width
/// [`BitProfile::optpfd`] chose for them — appending to `out`: what
/// [`Codec::encode`] does after its width search, for a caller that has
/// already run the search. Any width up to 32 round-trips; only the chosen
/// one is the size the profile priced.
///
/// # Errors
///
/// [`Error::TooManyValues`] above [`crate::MAX_BLOCK_VALUES`] values, and
/// [`Error::ValueTooLarge`] for a width above 32.
pub fn optpfd_pack(values: &[u32], width: u32, out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
    let count = check_len(values)?;
    if width > 32 {
        return Err(Error::ValueTooLarge {
            value: width,
            max: 32,
        });
    }
    let b = width;
    let base = out.len();
    let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
    let mut w = BitWriter::new(out);
    for &v in values {
        w.write(v & mask, b);
    }
    w.finish();
    let exception_offset = out.len() - base;
    if exception_offset > u16::MAX as usize {
        return Err(Error::Corrupt {
            reason: "OptPFD packed area exceeds offset field",
        });
    }
    // A second pass instead of a side list: most blocks have few
    // exceptions or none. (At width 32 nothing is left over.)
    if b < 32 {
        for (i, &v) in values.iter().enumerate() {
            let high = v >> b;
            if high != 0 {
                out.extend_from_slice(&(i as u16).to_le_bytes());
                out.extend_from_slice(&high.to_le_bytes());
            }
        }
    }
    Ok(BlockInfo {
        count,
        bit_width: b as u8,
        exception_offset: exception_offset as u16,
    })
}

pub(crate) fn check_header(data: &[u8], info: &BlockInfo) -> Result<(u32, usize), Error> {
    check_count(info)?;
    let b = u32::from(info.bit_width);
    if b > 32 {
        return Err(Error::Corrupt {
            reason: "OptPFD bit width above 32",
        });
    }
    let exc_off = info.exception_offset as usize;
    if exc_off > data.len() {
        return Err(Error::Truncated {
            have: data.len(),
            need: exc_off,
        });
    }
    Ok((b, exc_off))
}

/// Patches the exception area's high bits back into the unpacked low bits.
/// The prefix sum cannot be fused through this step, which is why OptPFD
/// keeps the default two-pass [`Codec::decode_d1`].
pub(crate) fn apply_exceptions(
    patch: &[u8],
    b: u32,
    count: usize,
    out: &mut [u32],
) -> Result<(), Error> {
    if !patch.len().is_multiple_of(EXCEPTION_BYTES) {
        return Err(Error::Corrupt {
            reason: "OptPFD exception area misaligned",
        });
    }
    for chunk in patch.chunks_exact(EXCEPTION_BYTES) {
        let idx = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
        let high = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
        if idx >= count {
            return Err(Error::Corrupt {
                reason: "OptPFD exception index out of range",
            });
        }
        if b < 32 {
            let shifted = high.checked_shl(b).ok_or(Error::Corrupt {
                reason: "OptPFD exception high bits overflow",
            })?;
            out[idx] |= shifted;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::bitio::bits_for;

    /// The seed's width search — one scan of the block per candidate
    /// width — kept as the oracle for the histogram walk.
    fn best_width_by_rescan(values: &[u32]) -> (usize, u32) {
        let encoded_len = |b: u32| {
            let packed = (values.len() * b as usize).div_ceil(8);
            let exceptions = values.iter().filter(|&&v| bits_for(v) > b).count();
            packed + exceptions * EXCEPTION_BYTES
        };
        let max_width = values.iter().copied().map(bits_for).max().unwrap_or(0);
        (0..=max_width)
            .map(|b| (encoded_len(b), b))
            .min()
            .unwrap_or((0, 0))
    }

    #[test]
    fn histogram_width_equals_rescan_width() {
        // xorshift: block lengths 1–128, each value's bit length drawn
        // from a per-block profile so every width 0–32 gets to win and
        // outlier-heavy blocks (a few long values over a narrow body)
        // are common; ties between widths arise at the short lengths.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let best_width = |values: &[u32]| BitProfile::of(values).optpfd();
        assert_eq!(best_width(&[]), best_width_by_rescan(&[]));
        for trial in 0..20_000 {
            let len = 1 + (next() % 128) as usize;
            let body = (next() % 33) as u32;
            let outlier_every = 1 + next() % 40;
            let values: Vec<u32> = (0..len)
                .map(|_| {
                    let bits = if next() % outlier_every == 0 {
                        (next() % 33) as u32
                    } else {
                        body.saturating_sub((next() % 3) as u32)
                    };
                    match bits {
                        0 => 0,
                        32 => next() as u32 | 1 << 31,
                        b => (next() as u32 & ((1 << b) - 1)) | 1 << (b - 1),
                    }
                })
                .collect();
            assert_eq!(
                best_width(&values),
                best_width_by_rescan(&values),
                "trial {trial}: {values:?}"
            );
        }
        for b in 0..=32u32 {
            let v = if b == 0 { 0 } else { u32::MAX >> (32 - b) };
            assert_eq!(best_width(&[v; 128]), (16 * b as usize, b));
            assert_eq!(best_width(&[v]), best_width_by_rescan(&[v]));
        }
    }

    fn roundtrip(values: &[u32]) -> (BlockInfo, Vec<u8>) {
        let mut buf = Vec::new();
        let info = OptPfd.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        OptPfd.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        (info, buf)
    }

    #[test]
    fn uniform_small_values_no_exceptions() {
        let values = vec![5u32; 128];
        let (info, buf) = roundtrip(&values);
        assert_eq!(
            info.exception_offset as usize,
            buf.len(),
            "no exception area"
        );
        assert_eq!(info.bit_width, 3);
    }

    #[test]
    fn outliers_become_exceptions() {
        let mut values = vec![3u32; 128];
        values[7] = 1_000_000;
        values[100] = 2_000_000;
        let (info, buf) = roundtrip(&values);
        assert!(info.bit_width <= 3, "width chosen for the majority");
        assert_eq!(
            buf.len() - info.exception_offset as usize,
            2 * EXCEPTION_BYTES
        );
    }

    #[test]
    fn opt_width_beats_plain_bp_on_outliers() {
        let mut values = vec![3u32; 128];
        values[0] = u32::MAX;
        let mut pfd_buf = Vec::new();
        OptPfd.encode(&values, &mut pfd_buf).unwrap();
        let mut bp_buf = Vec::new();
        crate::BitPacking.encode(&values, &mut bp_buf).unwrap();
        assert!(pfd_buf.len() < bp_buf.len());
    }

    #[test]
    fn all_large_values() {
        let values: Vec<u32> = (0..128).map(|i| u32::MAX - i).collect();
        let (info, _) = roundtrip(&values);
        assert_eq!(info.bit_width, 32);
    }

    #[test]
    fn zeros() {
        let (info, buf) = roundtrip(&[0u32; 64]);
        assert_eq!(info.bit_width, 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupt_exception_index_rejected() {
        let mut buf = Vec::new();
        let mut values = vec![1u32; 16];
        values[3] = 1 << 20;
        let info = OptPfd.encode(&values, &mut buf).unwrap();
        // Point the exception at an impossible position.
        let off = info.exception_offset as usize;
        buf[off] = 0xFF;
        buf[off + 1] = 0xFF;
        let err = OptPfd.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn any_width_round_trips_and_wider_than_32_is_refused() {
        let mut values = vec![5u32; 40];
        values[9] = 1 << 30;
        for width in 0..=32 {
            let mut buf = Vec::new();
            let info = optpfd_pack(&values, width, &mut buf).unwrap();
            assert_eq!(u32::from(info.bit_width), width);
            let mut out = Vec::new();
            OptPfd.decode(&buf, &info, &mut out).unwrap();
            assert_eq!(out, values, "width {width}");
        }
        let err = optpfd_pack(&values, 33, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::ValueTooLarge { value: 33, max: 32 }));
    }

    #[test]
    fn misaligned_exception_area_rejected() {
        let mut buf = Vec::new();
        let info = OptPfd.encode(&[1u32; 16], &mut buf).unwrap();
        buf.push(0xAB); // stray byte
        let err = OptPfd.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn truncated_before_exception_area() {
        let mut values = vec![2u32; 128];
        values[5] = 99999;
        let mut buf = Vec::new();
        let info = OptPfd.encode(&values, &mut buf).unwrap();
        let short = &buf[..4];
        let err = OptPfd.decode(short, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }
}
