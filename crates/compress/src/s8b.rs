//! Simple8b: each 64-bit word carries a 4-bit selector and 60 payload bits
//! (Anh & Moffat, "Index compression using 64-bit words"). Selectors 0 and 1
//! encode runs of 240/120 zeros with no payload, which is what makes S8b
//! excel on dense streams of 0-gaps.

use crate::bitio::bits_for;
use crate::{check_count, check_len, BlockInfo, Codec, Error, Scheme};

/// The Simple8b packed layouts as `(count, bits)`, for selectors 2..=15
/// (selector `s` is entry `s - 2`). Selector 0 = 240 zeros, selector 1 =
/// 120 zeros.
pub const S8B_PACKED: [(u32, u32); 14] = [
    (60, 1),
    (30, 2),
    (20, 3),
    (15, 4),
    (12, 5),
    (10, 6),
    (8, 7),
    (7, 8),
    (6, 10),
    (5, 12),
    (4, 15),
    (3, 20),
    (2, 30),
    (1, 60),
];

/// Emits `N` fields of `BITS` bits from a 64-bit payload; monomorphized
/// per selector so the compiler fully unrolls each word, and staged
/// through a stack array so the `Vec` pays one capacity check per word
/// instead of one per value.
#[inline]
fn emit_run<const N: usize, const BITS: u32>(word: u64, out: &mut Vec<u32>) {
    let mask = (1u64 << BITS) - 1;
    let mut vals = [0u32; N];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = ((word >> (i as u32 * BITS)) & mask) as u32;
    }
    out.extend_from_slice(&vals);
}

/// Decodes one full packed word (all `S8B_PACKED[sel - 2].0` values) with
/// the unrolled per-selector kernel. `sel` must be in `2..=15`.
#[inline]
fn decode_packed(sel: usize, word: u64, out: &mut Vec<u32>) {
    match sel {
        2 => emit_run::<60, 1>(word, out),
        3 => emit_run::<30, 2>(word, out),
        4 => emit_run::<20, 3>(word, out),
        5 => emit_run::<15, 4>(word, out),
        6 => emit_run::<12, 5>(word, out),
        7 => emit_run::<10, 6>(word, out),
        8 => emit_run::<8, 7>(word, out),
        9 => emit_run::<7, 8>(word, out),
        10 => emit_run::<6, 10>(word, out),
        11 => emit_run::<5, 12>(word, out),
        12 => emit_run::<4, 15>(word, out),
        13 => emit_run::<3, 20>(word, out),
        14 => emit_run::<2, 30>(word, out),
        _ => emit_run::<1, 60>(word, out),
    }
}

/// Where the sparse → dense walk may start: 8×7. A dense stream passes
/// the eight sparsest layouts anyway, a value per step; one OR over its
/// first eight values says as much.
const SKIP_TO: usize = 6;
const SKIP: (u32, u32) = S8B_PACKED[SKIP_TO];

/// The greedy layout choice — per word, a 240- or 120-zero run if one
/// opens the values still to go, else the densest packed layout that
/// holds them — calling `emit(selector, field bits, values packed)` once
/// per word. Shared by `encode` and `encoded_len`, so the two cannot
/// disagree. Total: 1×60 holds any `u32`.
fn for_each_word(values: &[u32], mut emit: impl FnMut(u64, u32, &[u32])) {
    let mut rest = values;
    while let Some(&first) = rest.first() {
        if first == 0 {
            // Only the first 240 matter to the two run selectors.
            let zeros = rest.iter().take(240).take_while(|&&v| v == 0).count();
            if zeros >= 120 {
                let (selector, run) = if zeros == 240 { (0, 240) } else { (1, 120) };
                emit(selector, 0, &[]);
                rest = &rest[run..];
                continue;
            }
        }
        // Fitting is monotone in density — a denser layout takes a longer
        // prefix into narrower fields — so walk sparse → dense, OR-ing in
        // only the values each step adds, and stop at the first failure.
        // When the first eight values fit 8×7, start from there.
        let (mut seen, mut any) = (0, 0);
        let mut chosen = S8B_PACKED.len() - 1;
        if let Some(head) = rest.first_chunk::<{ SKIP.0 as usize }>() {
            let wide = head.iter().fold(0, |acc, &v| acc | v);
            if bits_for(wide) <= SKIP.1 {
                (seen, any, chosen) = (head.len(), wide, SKIP_TO);
            }
        }
        for (i, &(n, bits)) in S8B_PACKED[..chosen].iter().enumerate().rev() {
            let upto = rest.len().min(n as usize);
            any = rest[seen..upto].iter().fold(any, |acc, &v| acc | v);
            seen = upto;
            if bits_for(any) > bits {
                break;
            }
            chosen = i;
        }
        let (n, bits) = S8B_PACKED[chosen];
        let take = rest.len().min(n as usize);
        emit(chosen as u64 + 2, bits, &rest[..take]);
        rest = &rest[take..];
    }
}

/// The S8b codec.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Simple8b;

impl Codec for Simple8b {
    fn scheme(&self) -> Scheme {
        Scheme::S8b
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        for_each_word(values, |selector, bits, packed| {
            let mut word = selector << 60;
            let mut shift = 0;
            for &v in packed {
                word |= u64::from(v) << shift;
                shift += bits;
            }
            out.extend_from_slice(&word.to_le_bytes());
        });
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        let mut words = 0;
        for_each_word(values, |_, _, _| words += 1);
        Ok(words * 8)
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let mut remaining = check_count(info)?;
        let mut pos = 0usize;
        out.reserve(remaining);
        while remaining > 0 {
            let Some(bytes) = data.get(pos..pos + 8) else {
                return Err(Error::Truncated {
                    have: data.len(),
                    need: pos + 8,
                });
            };
            pos += 8;
            // Infallible: the let-else above proved the slice is 8 bytes.
            #[allow(clippy::expect_used)]
            let word = u64::from_le_bytes(bytes.try_into().expect("slice is 8 bytes"));
            let sel = (word >> 60) as usize;
            match sel {
                0 | 1 => {
                    let n = if sel == 0 { 240 } else { 120 };
                    let take = n.min(remaining);
                    out.extend(std::iter::repeat_n(0u32, take));
                    remaining -= take;
                }
                _ => {
                    let (n, bits) = S8B_PACKED[sel - 2];
                    if remaining >= n as usize {
                        // Full word: per-selector unrolled kernel, no
                        // per-value remaining checks.
                        decode_packed(sel, word, out);
                        remaining -= n as usize;
                    } else {
                        // Final partial word: the generic field walk.
                        let mask = (1u64 << bits) - 1;
                        let mut shift = 0u32;
                        for _ in 0..remaining {
                            out.push(((word >> shift) & mask) as u32);
                            shift += bits;
                        }
                        remaining = 0;
                    }
                }
            }
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
        let info = Simple8b.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        Simple8b.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        buf
    }

    #[test]
    fn packed_layouts_fit_60_bits() {
        for &(n, b) in &S8B_PACKED {
            assert!(n * b <= 60, "{n}x{b}");
        }
    }

    #[test]
    fn ones_pack_60_per_word() {
        let buf = roundtrip(&[1u32; 120]);
        assert_eq!(buf.len(), 16, "two words of 60×1-bit");
    }

    #[test]
    fn long_zero_run_is_one_word() {
        let buf = roundtrip(&[0u32; 240]);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn medium_zero_run() {
        let buf = roundtrip(&[0u32; 120]);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn short_zero_run_uses_packed_selector() {
        let buf = roundtrip(&[0u32; 50]);
        assert_eq!(buf.len(), 8, "50 zeros fit one 60×1-bit word");
    }

    #[test]
    fn full_u32_values() {
        roundtrip(&[u32::MAX, 0, u32::MAX]);
    }

    #[test]
    fn mixed_stream() {
        let values: Vec<u32> = (0..500u32)
            .map(|i| if i % 7 == 0 { i * 1000 } else { i % 3 })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        let info = Simple8b.encode(&[9u32; 30], &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = Simple8b.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn zeros_then_values() {
        let mut v = vec![0u32; 240];
        v.extend([5, 6, 7]);
        roundtrip(&v);
    }

    #[test]
    fn kernel_matches_reference_on_random_streams() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for len in [1usize, 2, 59, 60, 61, 128, 240, 700] {
            let values: Vec<u32> = (0..len)
                .map(|_| {
                    let r = next();
                    match r % 8 {
                        0..=3 => 0,
                        4 => r % 4,
                        5 => r % 256,
                        6 => r % 65536,
                        _ => r,
                    }
                })
                .collect();
            let mut buf = Vec::new();
            let info = Simple8b.encode(&values, &mut buf).unwrap();
            let mut fast = Vec::new();
            Simple8b.decode(&buf, &info, &mut fast).unwrap();
            let mut slow = Vec::new();
            crate::reference::decode(Scheme::S8b, &buf, &info, &mut slow).unwrap();
            assert_eq!(fast, slow, "len {len}");
            assert_eq!(fast, values, "len {len}");
        }
    }
}
