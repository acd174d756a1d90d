//! Word-level bulk bit-unpacking kernels.
//!
//! The seed decoders pulled packed values out one at a time through
//! [`BitReader`](crate::BitReader), refilling a bit accumulator byte by
//! byte — fine for a size model, far too slow for the functional hot path
//! once batches run wide. These kernels instead read one unaligned
//! little-endian `u64` per value: value `i` of width `W` starts at bit
//! `i * W`, so its byte address is `bit >> 3` and its in-byte shift is
//! `bit & 7`. Because the shift is at most 7 and `W ≤ 32`, every value
//! fits inside a single 8-byte window (`7 + 32 = 39 ≤ 64` bits) and no
//! cross-word carry handling is needed.
//!
//! One monomorphized kernel exists per bit width 0–32 (dispatched through
//! a function-pointer table), with the main loop unrolled 4×. Values whose
//! 8-byte window would run past the input read a zero-padded copy of the
//! input's last bytes.
//!
//! [`unpack_d1`] additionally fuses the d-gap prefix sum into the unpack
//! loop, turning gap streams directly into absolute docIDs without a
//! second pass over the output.
//!
//! The original per-value path survives as the oracle in
//! [`crate::reference`]: the property tests hold every kernel bit-equal
//! to it across all widths and lengths.

use crate::Error;

/// Loads 8 bytes little-endian starting at `byte`; caller guarantees the
/// window is in bounds.
#[inline(always)]
fn load_word(data: &[u8], byte: usize) -> u64 {
    // Infallible: callers bound-check the 8-byte window before calling.
    #[allow(clippy::expect_used)]
    u64::from_le_bytes(data[byte..byte + 8].try_into().expect("8-byte window"))
}

/// The bytes of `data` from the one holding `bit` on, zero-padded to 16,
/// and the bit offset they start at. Called at the first value whose
/// 8-byte window passes the end of `data`: fewer than 8 bytes remain from
/// there, so every later value's window fits the copy.
#[inline(always)]
fn tail_copy(data: &[u8], bit: usize) -> ([u8; 16], usize) {
    let byte = bit >> 3;
    let mut buf = [0u8; 16];
    buf[..data.len() - byte].copy_from_slice(&data[byte..]);
    (buf, byte << 3)
}

/// Number of leading values whose full 8-byte load window fits in `data`.
#[inline(always)]
fn fast_count(len: usize, count: usize, width: u32) -> usize {
    if len < 8 {
        return 0;
    }
    // Value i is fast iff (i * width) / 8 + 8 <= len, i.e.
    // i * width <= (len - 8) * 8 + 7.
    count.min(((len - 8) * 8 + 7) / width as usize + 1)
}

/// Plain unpack kernel for one compile-time width.
fn unpack_w<const W: u32>(data: &[u8], count: usize, out: &mut Vec<u32>) {
    if W == 0 {
        out.resize(out.len() + count, 0);
        return;
    }
    let mask: u64 = (1u64 << W) - 1;
    out.reserve(count);
    let fast = fast_count(data.len(), count, W);
    let mut i = 0;
    while i + 4 <= fast {
        let b0 = i * W as usize;
        let b1 = b0 + W as usize;
        let b2 = b1 + W as usize;
        let b3 = b2 + W as usize;
        let v0 = (load_word(data, b0 >> 3) >> (b0 & 7)) & mask;
        let v1 = (load_word(data, b1 >> 3) >> (b1 & 7)) & mask;
        let v2 = (load_word(data, b2 >> 3) >> (b2 & 7)) & mask;
        let v3 = (load_word(data, b3 >> 3) >> (b3 & 7)) & mask;
        out.extend_from_slice(&[v0 as u32, v1 as u32, v2 as u32, v3 as u32]);
        i += 4;
    }
    while i < fast {
        let bit = i * W as usize;
        out.push(((load_word(data, bit >> 3) >> (bit & 7)) & mask) as u32);
        i += 1;
    }
    if i < count {
        let (tail, start) = tail_copy(data, i * W as usize);
        for i in i..count {
            let bit = i * W as usize - start;
            out.push(((load_word(&tail, bit >> 3) >> (bit & 7)) & mask) as u32);
        }
    }
}

/// Fused d-gap kernel: emits `base + prefix_sum(gaps)` (wrapping), and
/// returns whether the sum passed 2³². The sum runs in a `u64` — no
/// dearer than a `u32` on a 64-bit target — and the stores keep its low
/// half; it cannot overflow, as a block holds at most 4 096 gaps.
fn unpack_d1_w<const W: u32>(data: &[u8], count: usize, base: u32, out: &mut Vec<u32>) -> bool {
    let mut prev = u64::from(base);
    if W == 0 {
        out.resize(out.len() + count, base);
        return false;
    }
    let mask: u64 = (1u64 << W) - 1;
    out.reserve(count);
    let fast = fast_count(data.len(), count, W);
    let mut i = 0;
    while i + 4 <= fast {
        let b0 = i * W as usize;
        let b1 = b0 + W as usize;
        let b2 = b1 + W as usize;
        let b3 = b2 + W as usize;
        let v0 = (load_word(data, b0 >> 3) >> (b0 & 7)) & mask;
        let v1 = (load_word(data, b1 >> 3) >> (b1 & 7)) & mask;
        let v2 = (load_word(data, b2 >> 3) >> (b2 & 7)) & mask;
        let v3 = (load_word(data, b3 >> 3) >> (b3 & 7)) & mask;
        let d0 = prev + v0;
        let d1 = d0 + v1;
        let d2 = d1 + v2;
        let d3 = d2 + v3;
        out.extend_from_slice(&[d0 as u32, d1 as u32, d2 as u32, d3 as u32]);
        prev = d3;
        i += 4;
    }
    while i < fast {
        let bit = i * W as usize;
        prev += (load_word(data, bit >> 3) >> (bit & 7)) & mask;
        out.push(prev as u32);
        i += 1;
    }
    if i < count {
        let (tail, start) = tail_copy(data, i * W as usize);
        for i in i..count {
            let bit = i * W as usize - start;
            prev += (load_word(&tail, bit >> 3) >> (bit & 7)) & mask;
            out.push(prev as u32);
        }
    }
    prev >> 32 != 0
}

type UnpackFn = fn(&[u8], usize, &mut Vec<u32>);
type UnpackD1Fn = fn(&[u8], usize, u32, &mut Vec<u32>) -> bool;

macro_rules! width_table {
    ($f:ident) => {
        [
            $f::<0>, $f::<1>, $f::<2>, $f::<3>, $f::<4>, $f::<5>, $f::<6>, $f::<7>, $f::<8>,
            $f::<9>, $f::<10>, $f::<11>, $f::<12>, $f::<13>, $f::<14>, $f::<15>, $f::<16>,
            $f::<17>, $f::<18>, $f::<19>, $f::<20>, $f::<21>, $f::<22>, $f::<23>, $f::<24>,
            $f::<25>, $f::<26>, $f::<27>, $f::<28>, $f::<29>, $f::<30>, $f::<31>, $f::<32>,
        ]
    };
}

static UNPACK: [UnpackFn; 33] = width_table!(unpack_w);
static UNPACK_D1: [UnpackD1Fn; 33] = width_table!(unpack_d1_w);

/// Bytes needed to hold `count` values of `width` bits.
#[inline]
pub(crate) fn packed_bytes(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

pub(crate) fn check_input(data: &[u8], count: usize, width: u32) -> Result<(), Error> {
    if width > 32 {
        return Err(Error::Corrupt {
            reason: "bit width above 32",
        });
    }
    if count > crate::MAX_BLOCK_VALUES {
        return Err(Error::Corrupt {
            reason: "block descriptor claims more values than a block can hold",
        });
    }
    let need = packed_bytes(count, width);
    if data.len() < need {
        return Err(Error::Truncated {
            have: data.len(),
            need,
        });
    }
    Ok(())
}

/// Appends `count` values of `width` bits from `data` (LSB-first layout,
/// identical to [`BitReader`](crate::BitReader)) to `out`, using the word-level kernels.
///
/// # Errors
///
/// [`Error::Corrupt`] when `width > 32`; [`Error::Truncated`] when `data`
/// holds fewer than `count * width` bits.
pub fn unpack(data: &[u8], count: usize, width: u32, out: &mut Vec<u32>) -> Result<(), Error> {
    check_input(data, count, width)?;
    UNPACK[width as usize](data, count, out);
    Ok(())
}

/// Like [`unpack`], but treats the packed values as d-gaps and appends the
/// running (wrapping) prefix sum seeded with `base` — i.e. absolute docIDs.
/// `Ok(true)` when the sum passed 2³², so the docIDs appended wrapped.
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
) -> Result<bool, Error> {
    check_input(data, count, width)?;
    Ok(UNPACK_D1[width as usize](data, count, base, out))
}

/// In-place wrapping prefix sum seeded with `base`, for codecs whose gap
/// decode cannot be fused (e.g. OptPFD, which patches exceptions after
/// unpacking); `true` when the sum passed 2³², as the fused kernel
/// reports it. A slice longer than 2³² values could overflow the `u64`
/// sum; no block comes near.
#[inline]
pub fn prefix_sum_d1(base: u32, values: &mut [u32]) -> bool {
    let mut prev = u64::from(base);
    for v in values {
        prev += u64::from(*v);
        *v = prev as u32;
    }
    prev >> 32 != 0
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::bitio::BitWriter;

    fn pack(values: &[u32], width: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for &v in values {
            w.write(v, width);
        }
        w.finish();
        buf
    }

    #[test]
    fn matches_reference_for_every_width() {
        for width in 0..=32u32 {
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..128u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let buf = pack(&values, width);
            let mut fast = Vec::new();
            unpack(&buf, values.len(), width, &mut fast).unwrap();
            let mut slow = Vec::new();
            crate::reference::unpack(&buf, values.len(), width, &mut slow).unwrap();
            assert_eq!(fast, slow, "width {width}");
            assert_eq!(fast, values, "width {width}");
        }
    }

    #[test]
    fn d1_matches_unfused() {
        for width in [1u32, 5, 13, 32] {
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let gaps: Vec<u32> = (0..100u32).map(|i| (i * 7919) & mask).collect();
            let buf = pack(&gaps, width);
            for base in [0u32, 1, u32::MAX - 5] {
                let mut fused = Vec::new();
                let fused_wrapped = unpack_d1(&buf, gaps.len(), width, base, &mut fused).unwrap();
                let mut two_pass = Vec::new();
                unpack(&buf, gaps.len(), width, &mut two_pass).unwrap();
                let wrapped = prefix_sum_d1(base, &mut two_pass);
                assert_eq!(fused, two_pass, "width {width} base {base}");
                let sum = u64::from(base) + gaps.iter().map(|&g| u64::from(g)).sum::<u64>();
                assert_eq!(
                    (fused_wrapped, wrapped),
                    (sum > 0xFFFF_FFFF, sum > 0xFFFF_FFFF)
                );
            }
        }
    }

    /// A sum that reaches `u32::MAX` has not wrapped; one more has, in
    /// the unrolled loop, the scalar loop and the tail alike.
    #[test]
    fn d1_reports_a_sum_past_2_32() {
        for count in [1usize, 5, 9] {
            let mut gaps = vec![0u32; count];
            gaps[count - 1] = 5;
            let buf = pack(&gaps, 3);
            let mut out = Vec::new();
            assert!(!unpack_d1(&buf, count, 3, u32::MAX - 5, &mut out).unwrap());
            assert!(unpack_d1(&buf, count, 3, u32::MAX - 4, &mut out).unwrap());
            assert_eq!(out[count - 1], u32::MAX, "count {count}");
            assert_eq!(out[2 * count - 1], 0, "count {count}");
            let mut values = gaps.clone();
            assert!(!prefix_sum_d1(u32::MAX - 5, &mut values));
            assert!(prefix_sum_d1(u32::MAX - 4, &mut gaps));
        }
    }

    #[test]
    fn short_inputs_use_tail_loads() {
        // 3 values × 3 bits = 2 bytes: no 8-byte window ever fits.
        let values = [5u32, 2, 7];
        let buf = pack(&values, 3);
        assert_eq!(buf.len(), 2);
        let mut out = Vec::new();
        unpack(&buf, 3, 3, &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn truncated_and_corrupt_inputs_rejected() {
        let err = unpack(&[0u8; 3], 128, 13, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
        let err = unpack(&[0u8; 8], 1, 33, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
        let err = unpack_d1(&[0u8; 3], 128, 13, 0, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn width_zero_emits_zeros_and_bases() {
        let mut out = Vec::new();
        unpack(&[], 5, 0, &mut out).unwrap();
        assert_eq!(out, [0; 5]);
        let mut out = Vec::new();
        unpack_d1(&[], 4, 0, 42, &mut out).unwrap();
        assert_eq!(out, [42; 4]);
    }

    #[test]
    fn appends_without_clobbering() {
        let values = [9u32, 8, 7];
        let buf = pack(&values, 4);
        let mut out = vec![1, 2];
        unpack(&buf, 3, 4, &mut out).unwrap();
        assert_eq!(out, [1, 2, 9, 8, 7]);
    }
}
