//! The encode side against what it replaced. Four contracts:
//!
//! * `Codec::encoded_len` is `encode` without the output — the same byte
//!   count and the same error, for the five evaluated schemes (native
//!   sizing) and for `GroupVarint` (the trait default);
//! * what a caller keeps from sizing is what `encode` would have found:
//!   a `BitProfile`'s BP, VB and OptPFD lengths are `encoded_len`'s, its
//!   OptPFD width is the one `encode` writes and `optpfd_pack` at that
//!   width writes `encode`'s bytes, and an `S16Plan`'s `plan` answers as
//!   `encoded_len` does while its `pack` writes `encode`'s words from the
//!   selectors it planned;
//! * the word-level Simple16 / Simple8b layout searches emit the words of
//!   the greedy scans they replaced, selector for selector — the scans
//!   live on below, moved here verbatim;
//! * the 32-bit-flush `BitWriter` lays BP and OptPFD out exactly as the
//!   byte-at-a-time one did, and OptPFD's second-pass exception area is
//!   the seed's side list.
//!
//! Tier-1 runs a short sweep plus the pinned lengths; the exhaustive
//! widths 0–32 × lengths 0..=4096 sweep is `#[ignore]`d (CI's smoke job
//! runs it in release).

use boss_compress::{
    codec_for, optpfd_pack, BitProfile, Codec, Error, S16Plan, Scheme, ALL_SCHEMES,
    MAX_BLOCK_VALUES,
};

// ---------------------------------------------------------------------
// Oracles: the seed's encoders.
// ---------------------------------------------------------------------

const S16_LAYOUTS: [&[(u32, u32)]; 16] = [
    &[(28, 1)],
    &[(7, 2), (14, 1)],
    &[(7, 1), (7, 2), (7, 1)],
    &[(14, 1), (7, 2)],
    &[(14, 2)],
    &[(1, 4), (8, 3)],
    &[(1, 3), (4, 4), (3, 3)],
    &[(7, 4)],
    &[(4, 5), (2, 4)],
    &[(2, 4), (4, 5)],
    &[(3, 6), (2, 5)],
    &[(2, 5), (3, 6)],
    &[(4, 7)],
    &[(1, 10), (2, 9)],
    &[(2, 14)],
    &[(1, 28)],
];

fn s16_layout_count(layout: &[(u32, u32)]) -> u32 {
    layout.iter().map(|&(n, _)| n).sum()
}

/// Whether the leading `values` fit `layout`, a field at a time.
fn s16_fits(layout: &[(u32, u32)], values: &[u32]) -> bool {
    let mut i = 0usize;
    for &(n, bits) in layout {
        for _ in 0..n {
            match values.get(i) {
                Some(&v) if u64::from(v) < (1u64 << bits) => i += 1,
                // Fewer values than the layout holds: padding zeros fit.
                None => return true,
                Some(_) => return false,
            }
        }
    }
    true
}

/// The seed's `Simple16::encode` (after its length check).
fn s16_by_scan(values: &[u32], out: &mut Vec<u8>) -> Result<(), Error> {
    let mut rest = values;
    while !rest.is_empty() {
        // Greedy: pick the densest layout (largest count first — the
        // table is ordered densest-first) whose widths fit.
        let mut chosen = None;
        for (sel, layout) in S16_LAYOUTS.iter().enumerate() {
            if s16_fits(layout, rest) {
                chosen = Some((sel as u32, *layout));
                break;
            }
        }
        let Some((sel, layout)) = chosen else {
            // Even 1×28 failed: the value needs more than 28 bits.
            return Err(Error::ValueTooLarge {
                value: rest[0],
                max: (1 << 28) - 1,
            });
        };
        let mut word: u32 = sel << 28;
        let mut shift = 0u32;
        let mut i = 0usize;
        for &(n, bits) in layout {
            for _ in 0..n {
                let v = rest.get(i).copied().unwrap_or(0);
                word |= v << shift;
                shift += bits;
                i += 1;
            }
        }
        out.extend_from_slice(&word.to_le_bytes());
        let take = (s16_layout_count(layout) as usize).min(rest.len());
        rest = &rest[take..];
    }
    Ok(())
}

const S8B_PACKED: [(u32, u32); 14] = [
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

/// The seed's `Simple8b::encode` (after its length check).
fn s8b_by_scan(values: &[u32], out: &mut Vec<u8>) -> Result<(), Error> {
    let mut rest = values;
    while !rest.is_empty() {
        let zeros = rest.iter().take_while(|&&v| v == 0).count();
        let (selector, take, packed) = if zeros >= 240 {
            (0u64, 240usize, None)
        } else if zeros >= 120 {
            (1u64, 120usize, None)
        } else {
            let mut choice = None;
            for (i, &(n, bits)) in S8B_PACKED.iter().enumerate() {
                let prefix = &rest[..rest.len().min(n as usize)];
                if prefix.iter().all(|&v| u64::from(v) < (1u64 << bits)) {
                    choice = Some((i as u64 + 2, prefix.len(), Some((n, bits))));
                    break;
                }
            }
            choice.ok_or(Error::ValueTooLarge {
                value: rest[0],
                max: u32::MAX,
            })?
        };
        let mut word: u64 = selector << 60;
        if let Some((n, bits)) = packed {
            let mut shift = 0u32;
            for slot in 0..n as usize {
                let v = rest.get(slot).copied().unwrap_or(0);
                word |= u64::from(v) << shift;
                shift += bits;
            }
        }
        out.extend_from_slice(&word.to_le_bytes());
        rest = &rest[take.min(rest.len())..];
    }
    Ok(())
}

/// The seed's `BitWriter`: a byte out per loop turn.
fn pack_by_bytes(values: impl Iterator<Item = u32>, bits: u32, out: &mut Vec<u8>) {
    let (mut cur, mut filled) = (0u64, 0u32);
    for value in values {
        cur |= u64::from(value) << filled;
        filled += bits;
        while filled >= 8 {
            out.push((cur & 0xFF) as u8);
            cur >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        out.push((cur & 0xFF) as u8);
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value of exactly `bits` significant bits.
    fn of_width(&mut self, bits: u32) -> u32 {
        match bits {
            0 => 0,
            32 => self.next() as u32 | 1 << 31,
            b => (self.next() as u32 & ((1 << b) - 1)) | 1 << (b - 1),
        }
    }
}

/// The value shapes a sweep crosses with every width and length.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every value exactly `width` bits: the uniform layouts.
    Exact,
    /// Bit lengths uniform in `0..=width`: the mixed-width layouts, and
    /// layout choices that change from word to word.
    UpTo,
    /// Zeros and ones with a `width`-bit value every 23rd position, offset
    /// by the length: dense layouts cut short at every phase.
    Spiked,
}

const SHAPES: [Shape; 3] = [Shape::Exact, Shape::UpTo, Shape::Spiked];

fn stream(shape: Shape, width: u32, len: usize, rng: &mut Rng) -> Vec<u32> {
    (0..len)
        .map(|i| match shape {
            Shape::Exact => rng.of_width(width),
            Shape::UpTo => {
                let bits = (rng.next() % u64::from(width + 1)) as u32;
                rng.of_width(bits)
            }
            Shape::Spiked if (i + len).is_multiple_of(23) => rng.of_width(width),
            Shape::Spiked => (rng.next() % 2) as u32,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

/// The five evaluated schemes (native sizing) and the extension that
/// sizes through the trait default.
fn schemes() -> impl Iterator<Item = Scheme> {
    ALL_SCHEMES.into_iter().chain([Scheme::GroupVarint])
}

/// The streams an `S16Plan` holds before the one `check_kept_sizing`
/// plans, so that a plan is judged in the middle of a sequence.
const PLANNED_BEFORE: [[u32; 3]; 2] = [[1, 2, 3], [0, 70_000, 5]];

/// The plan and the profile against `encode` and `encoded_len` on one
/// input.
fn check_kept_sizing(values: &[u32], what: &str) {
    const PREFIX: [u8; 2] = [0x3C, 0xC3];
    let encode = |scheme| {
        let mut buf = PREFIX.to_vec();
        codec_for(scheme)
            .encode(values, &mut buf)
            .map(|info| (info, buf[PREFIX.len()..].to_vec()))
    };

    // Simple16: the plan's answer, its selectors and its packed words.
    let mut plan = S16Plan::new();
    for earlier in &PLANNED_BEFORE {
        plan.plan(earlier).expect("narrow values plan");
    }
    let before = plan.selectors().len();
    let planned = plan.plan(values);
    assert_eq!(
        planned,
        codec_for(Scheme::S16).encoded_len(values),
        "S16 {what}: plan vs encoded_len"
    );
    match encode(Scheme::S16) {
        Ok((info, words)) => {
            let selectors: Vec<u8> = words.chunks(4).map(|w| w[3] >> 4).collect();
            assert_eq!(
                plan.selectors()[before..],
                selectors,
                "S16 {what}: planned selectors vs the words'"
            );
            // Streams are packed in the order they were planned.
            for earlier in &PLANNED_BEFORE {
                plan.pack(earlier, &mut Vec::new()).expect("planned");
            }
            let mut packed = PREFIX.to_vec();
            assert_eq!(plan.pack(values, &mut packed), Ok(info), "S16 {what}: pack");
            assert_eq!(packed[PREFIX.len()..], words, "S16 {what}: pack vs encode");
        }
        Err(e) => assert!(
            planned == Err(e) && plan.selectors().len() == before,
            "S16 {what}: a refused stream leaves the plan as it was"
        ),
    }

    if values.len() > MAX_BLOCK_VALUES {
        return;
    }
    // BP, VB and OptPFD: the profile's lengths, and OptPFD's width.
    let profile = BitProfile::of(values);
    let sized = |scheme| codec_for(scheme).encoded_len(values);
    assert_eq!(
        Ok(profile.bp_len()),
        sized(Scheme::Bp),
        "BP {what}: profile"
    );
    assert_eq!(
        Ok(profile.vb_len()),
        sized(Scheme::Vb),
        "VB {what}: profile"
    );
    let (len, width) = profile.optpfd();
    assert_eq!(Ok(len), sized(Scheme::OptPfd), "OptPFD {what}: profile");
    let (info, bytes) = encode(Scheme::OptPfd).expect("OptPFD is total");
    assert_eq!(u32::from(info.bit_width), width, "OptPFD {what}: width");
    let mut packed = PREFIX.to_vec();
    assert_eq!(
        optpfd_pack(values, width, &mut packed),
        Ok(info),
        "OptPFD {what}: pack at the width"
    );
    assert_eq!(
        packed[PREFIX.len()..],
        bytes,
        "OptPFD {what}: pack vs encode"
    );
}

/// Everything this file promises about one input.
fn check(values: &[u32], what: &str) {
    check_kept_sizing(values, what);
    // `encode` appends: start from a non-empty buffer.
    const PREFIX: [u8; 3] = [0xA5, 0x5A, 0xC3];
    let mut oracle = Vec::new();
    for scheme in schemes() {
        let codec: &dyn Codec = codec_for(scheme);
        let mut buf = PREFIX.to_vec();
        let encoded = codec.encode(values, &mut buf);
        let sized = codec.encoded_len(values);
        match &encoded {
            Ok(_) => {
                assert_eq!(buf[..3], PREFIX, "{scheme} {what}: prefix overwritten");
                assert_eq!(
                    sized,
                    Ok(buf.len() - 3),
                    "{scheme} {what}: encoded_len vs bytes appended"
                );
            }
            Err(e) => assert_eq!(sized.as_ref(), Err(e), "{scheme} {what}: error parity"),
        }

        oracle.clear();
        let expected = match scheme {
            Scheme::S16 => s16_by_scan(values, &mut oracle),
            Scheme::S8b => s8b_by_scan(values, &mut oracle),
            Scheme::Bp if values.len() <= MAX_BLOCK_VALUES => {
                let Ok(info) = &encoded else {
                    panic!("{scheme} {what}: BP is total");
                };
                pack_by_bytes(
                    values.iter().copied(),
                    u32::from(info.bit_width),
                    &mut oracle,
                );
                Ok(())
            }
            Scheme::OptPfd if values.len() <= MAX_BLOCK_VALUES => {
                let Ok(info) = &encoded else {
                    panic!("{scheme} {what}: OptPFD is total");
                };
                let b = u32::from(info.bit_width);
                let mask = if b == 32 { u32::MAX } else { (1 << b) - 1 };
                pack_by_bytes(values.iter().map(|&v| v & mask), b, &mut oracle);
                assert_eq!(
                    oracle.len(),
                    usize::from(info.exception_offset),
                    "{scheme} {what}: exception offset"
                );
                // The seed's exception list, in its order.
                for (i, &v) in values.iter().enumerate() {
                    if 32 - v.leading_zeros() > b {
                        oracle.extend_from_slice(&(i as u16).to_le_bytes());
                        let high = if b == 32 { 0 } else { v >> b };
                        oracle.extend_from_slice(&high.to_le_bytes());
                    }
                }
                Ok(())
            }
            _ => continue,
        };
        if values.len() > MAX_BLOCK_VALUES {
            // The seed's encoders had the length check in front of them.
            continue;
        }
        // Word for word — and on an error, the same words before it.
        assert_eq!(
            encoded.as_ref().map(|_| ()),
            expected.as_ref().map(|_| ()),
            "{scheme} {what}: result vs the scan"
        );
        if oracle != buf[3..] && matches!(scheme, Scheme::S16 | Scheme::S8b) {
            let width = if scheme == Scheme::S16 { 4 } else { 8 };
            let selectors = |bytes: &[u8]| -> Vec<u8> {
                bytes.chunks(width).map(|w| w[width - 1] >> 4).collect()
            };
            panic!(
                "{scheme} {what}: selectors {:?}, the scan's {:?}",
                selectors(&buf[3..]),
                selectors(&oracle)
            );
        }
        assert_eq!(oracle, buf[3..], "{scheme} {what}: bytes vs the seed's");
    }
}

fn sweep(lengths: impl Iterator<Item = usize> + Clone, seed: u64) {
    let mut rng = Rng(seed);
    for width in 0..=32u32 {
        for len in lengths.clone() {
            for shape in SHAPES {
                let values = stream(shape, width, len, &mut rng);
                check(&values, &format!("{shape:?} width {width} len {len}"));
            }
        }
    }
}

/// Lengths on both sides of every seam an encoder has: the S16 and S8b
/// layout sizes, the 128-value block, the S16 need window (256 values
/// classified at a time, re-anchored once fewer than 28 remain in view,
/// i.e. from position 229 on) and the block limit.
const PINNED: [usize; 22] = [
    27, 28, 29, 59, 60, 61, 127, 128, 129, 227, 228, 229, 230, 255, 256, 257, 283, 284, 285, 513,
    4095, 4096,
];

#[test]
fn short_sweep() {
    sweep((0..=64).chain(PINNED), 0x9E37_79B9_7F4A_7C15);
}

#[test]
#[ignore = "every width x every length 0..=4096; CI's smoke job runs it in release"]
fn exhaustive_sweep() {
    sweep(0..=MAX_BLOCK_VALUES, 0xD1B5_4A32_D192_ED03);
}

#[test]
fn too_many_values_from_every_scheme() {
    let values = vec![1u32; MAX_BLOCK_VALUES + 1];
    for scheme in schemes() {
        let expected = Err(Error::TooManyValues {
            got: MAX_BLOCK_VALUES + 1,
            max: MAX_BLOCK_VALUES,
        });
        assert_eq!(codec_for(scheme).encoded_len(&values), expected, "{scheme}");
    }
    check(&values, "4097 ones");
}

#[test]
fn s16_rejects_a_wide_value_at_any_position() {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    for len in [1usize, 2, 28, 29, 130, 229, 230, 257, 300, 600] {
        for at in 0..len {
            let mut values = stream(Shape::UpTo, 9, len, &mut rng);
            values[at] = rng.of_width(29 + (at % 4) as u32);
            let expected = Err(Error::ValueTooLarge {
                value: values[at],
                max: (1 << 28) - 1,
            });
            assert_eq!(
                codec_for(Scheme::S16).encoded_len(&values),
                expected,
                "len {len} at {at}"
            );
            check(&values, &format!("wide value at {at} of {len}"));
        }
    }
}

#[test]
fn s8b_zero_runs_on_both_sides_of_the_run_selectors() {
    let mut rng = Rng(0x94D0_49BB_1331_11EB);
    for run in [
        0usize, 1, 59, 60, 61, 119, 120, 121, 239, 240, 241, 359, 360, 361, 480,
    ] {
        for width in [1u32, 7, 20, 32] {
            // The run alone, behind a value, in front of one, and twice.
            let value = rng.of_width(width);
            let zeros = vec![0u32; run];
            check(&zeros, &format!("{run} zeros"));
            check(
                &[&[value][..], &zeros].concat(),
                &format!("value, {run} zeros"),
            );
            check(
                &[&zeros[..], &[value]].concat(),
                &format!("{run} zeros, value"),
            );
            check(
                &[&zeros[..], &[value], &zeros].concat(),
                &format!("{run} zeros, value, {run} zeros"),
            );
        }
    }
}

#[test]
fn s16_need_window_seam_with_every_layout_in_flight() {
    // A stream long enough to re-anchor the window several times, with
    // the word boundaries shifted through every phase by a varying head.
    let mut rng = Rng(0x1234_5678_9ABC_DEF1);
    for width in [1u32, 2, 3, 4, 5, 6, 7, 9, 10, 14, 28] {
        for head in 0..30usize {
            let mut values = stream(Shape::Exact, 28, head, &mut rng);
            values.extend(stream(Shape::UpTo, width, 700, &mut rng));
            check(&values, &format!("width {width} head {head}"));
        }
    }
}
