//! Property tests for the word-level unpack kernels: for random value
//! streams across **all** bit widths 0–32 and lengths 1–128, every kernel
//! is bit-equal to the seed per-value `bitio` path, and the rerouted
//! BP/OptPFD decoders are bit-equal to their retained reference oracles.

use boss_compress::unpack::{prefix_sum_d1, unpack, unpack_d1};
use boss_compress::{codec_for, reference, BitWriter, Scheme};
use proptest::prelude::*;

fn pack(values: &[u32], width: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BitWriter::new(&mut buf);
    for &v in values {
        w.write(v, width);
    }
    w.finish();
    buf
}

fn mask(width: u32) -> u32 {
    if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// Raw 32-bit values plus a length in 1..=128; each test masks them down
/// to the width under test so all widths see dense, varied bit patterns.
fn raw_stream() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 1..129)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_match_bitio_reference_for_all_widths(raw in raw_stream()) {
        for width in 0..=32u32 {
            let values: Vec<u32> = raw.iter().map(|&v| v & mask(width)).collect();
            let buf = pack(&values, width);
            let mut fast = Vec::new();
            unpack(&buf, values.len(), width, &mut fast).unwrap();
            let mut slow = Vec::new();
            reference::unpack(&buf, values.len(), width, &mut slow).unwrap();
            prop_assert_eq!(&fast, &slow, "width {}", width);
            prop_assert_eq!(&fast, &values, "width {}", width);
        }
    }

    #[test]
    fn fused_d1_matches_reference_for_all_widths(raw in raw_stream(), base in any::<u32>()) {
        for width in 0..=32u32 {
            let gaps: Vec<u32> = raw.iter().map(|&v| v & mask(width)).collect();
            let buf = pack(&gaps, width);
            let mut fused = Vec::new();
            let fused_wrapped = unpack_d1(&buf, gaps.len(), width, base, &mut fused).unwrap();
            let mut slow = Vec::new();
            reference::unpack_d1(&buf, gaps.len(), width, base, &mut slow).unwrap();
            prop_assert_eq!(&fused, &slow, "width {}", width);
            // And the two-pass formulation agrees, on the values and on
            // whether the sum passed 2^32.
            let mut two_pass = Vec::new();
            unpack(&buf, gaps.len(), width, &mut two_pass).unwrap();
            let wrapped = prefix_sum_d1(base, &mut two_pass);
            prop_assert_eq!(&fused, &two_pass, "width {}", width);
            let sum = u64::from(base) + gaps.iter().map(|&g| u64::from(g)).sum::<u64>();
            prop_assert_eq!((fused_wrapped, wrapped), (sum > 0xFFFF_FFFF, sum > 0xFFFF_FFFF));
        }
    }

    #[test]
    fn bp_decode_matches_its_reference_oracle(raw in raw_stream()) {
        for width in 0..=32u32 {
            let values: Vec<u32> = raw.iter().map(|&v| v & mask(width)).collect();
            let codec = codec_for(Scheme::Bp);
            let mut data = Vec::new();
            let info = codec.encode(&values, &mut data).unwrap();
            let mut fast = Vec::new();
            codec.decode(&data, &info, &mut fast).unwrap();
            let mut slow = Vec::new();
            reference::decode(Scheme::Bp, &data, &info, &mut slow).unwrap();
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(&fast, &values);
        }
    }

    #[test]
    fn pfd_decode_matches_its_reference_oracle(raw in raw_stream()) {
        // Mix of small values and outliers so the exception path is live.
        let values: Vec<u32> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 7 == 3 { v } else { v & 0x1F })
            .collect();
        let codec = codec_for(Scheme::OptPfd);
        let mut data = Vec::new();
        let info = codec.encode(&values, &mut data).unwrap();
        let mut fast = Vec::new();
        codec.decode(&data, &info, &mut fast).unwrap();
        let mut slow = Vec::new();
        reference::decode(Scheme::OptPfd, &data, &info, &mut slow).unwrap();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&fast, &values);
    }

    #[test]
    fn decode_d1_agrees_across_all_codecs(raw in raw_stream(), base in any::<u32>()) {
        // The fused (BP) and default (everything else) decode_d1 paths all
        // equal decode + prefix sum.
        let gaps: Vec<u32> = raw.iter().map(|&v| v & 0xFFFF).collect();
        for scheme in [Scheme::Bp, Scheme::OptPfd, Scheme::Vb, Scheme::S16, Scheme::S8b] {
            let codec = codec_for(scheme);
            let mut data = Vec::new();
            let Ok(info) = codec.encode(&gaps, &mut data) else {
                continue;
            };
            let mut d1 = Vec::new();
            codec.decode_d1(&data, &info, base, &mut d1).unwrap();
            let mut expect = Vec::new();
            codec.decode(&data, &info, &mut expect).unwrap();
            prefix_sum_d1(base, &mut expect);
            prop_assert_eq!(&d1, &expect, "scheme {}", scheme);
        }
    }
}

#[test]
fn truncation_behavior_matches_reference() {
    // Both paths must reject the same truncated inputs (exact `need`
    // payloads may differ; the variant must not).
    for width in 1..=32u32 {
        let values: Vec<u32> = (0..128u32).map(|v| v & mask(width)).collect();
        let buf = pack(&values, width);
        let short = &buf[..buf.len() - 1];
        let fast = unpack(short, values.len(), width, &mut Vec::new());
        let slow = reference::unpack(short, values.len(), width, &mut Vec::new());
        assert!(
            matches!(fast, Err(boss_compress::Error::Truncated { .. })),
            "width {width}"
        );
        assert!(
            matches!(slow, Err(boss_compress::Error::Truncated { .. })),
            "width {width}"
        );
    }
}
