//! Property tests over *corrupted* encoded inputs: every codec's fast
//! decode path and the word-level unpack kernels must agree with their
//! reference oracles on accept/reject, the Fig. 8 engine with the
//! codec wherever both accept — and none may panic or over-reserve — for
//! arbitrary byte soup.
//!
//! The deterministic CI harness (`boss-bench`'s `corruption_harness`)
//! covers the same surfaces at higher volume with curated mutation
//! categories; these tests keep the contract pinned from the test suite
//! with fully random inputs.

use boss_compress::{
    codec_for, reference, unpack, BlockInfo, Scheme, ALL_SCHEMES, MAX_BLOCK_VALUES,
};
use boss_decomp::DecompEngine;
use proptest::prelude::*;

/// Arbitrary (data, descriptor) pairs: sometimes pure garbage, so decoders
/// see inputs no encoder would emit.
fn raw_block() -> impl Strategy<Value = (Vec<u8>, BlockInfo)> {
    (
        prop::collection::vec(any::<u8>(), 0..300),
        any::<u16>(),
        any::<u8>(),
        any::<u16>(),
    )
        .prop_map(|(data, count, bit_width, exception_offset)| {
            (
                data,
                BlockInfo {
                    // Bias toward plausible counts so decoders get past the
                    // count guard often enough to exercise deep paths.
                    count: count % 200,
                    bit_width,
                    exception_offset,
                },
            )
        })
}

/// A valid encoded block with one random byte corrupted.
fn corrupted_block(scheme: Scheme) -> impl Strategy<Value = (Vec<u8>, BlockInfo)> {
    (
        prop::collection::vec(0u32..(1 << 20), 1..129),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(move |(values, pos, xor)| {
            let mut data = Vec::new();
            let info = codec_for(scheme)
                .encode(&values, &mut data)
                .expect("20-bit values encode under every stock scheme");
            if !data.is_empty() && xor != 0 {
                let i = pos as usize % data.len();
                data[i] ^= xor;
            }
            (data, info)
        })
}

fn assert_paths_agree(scheme: Scheme, data: &[u8], info: &BlockInfo) -> Result<(), TestCaseError> {
    let codec = codec_for(scheme);
    let mut fast = Vec::new();
    let mut seed = Vec::new();
    let mut fused = Vec::new();
    let fast_res = codec.decode(data, info, &mut fast);
    let ref_res = reference::decode(scheme, data, info, &mut seed);
    let fused_res = codec.decode_d1(data, info, 3, &mut fused);
    prop_assert_eq!(
        fast_res.is_ok(),
        ref_res.is_ok(),
        "{} fast/reference accept disagreement",
        scheme
    );
    prop_assert_eq!(
        fast_res.is_ok(),
        fused_res.is_ok(),
        "{} decode/decode_d1 accept disagreement",
        scheme
    );
    if fast_res.is_ok() {
        prop_assert_eq!(&fast, &seed, "{} value disagreement", scheme);
    }
    prop_assert!(fast.capacity() <= 2 * MAX_BLOCK_VALUES);
    prop_assert!(seed.capacity() <= 2 * MAX_BLOCK_VALUES);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codecs_reject_or_decode_garbage_identically(
        (data, info) in raw_block(),
    ) {
        for &scheme in &ALL_SCHEMES {
            assert_paths_agree(scheme, &data, &info)?;
        }
    }

    #[test]
    fn bp_single_corrupt_byte(b in corrupted_block(Scheme::Bp)) {
        assert_paths_agree(Scheme::Bp, &b.0, &b.1)?;
    }

    #[test]
    fn vb_single_corrupt_byte(b in corrupted_block(Scheme::Vb)) {
        assert_paths_agree(Scheme::Vb, &b.0, &b.1)?;
    }

    #[test]
    fn optpfd_single_corrupt_byte(b in corrupted_block(Scheme::OptPfd)) {
        assert_paths_agree(Scheme::OptPfd, &b.0, &b.1)?;
    }

    #[test]
    fn s16_single_corrupt_byte(b in corrupted_block(Scheme::S16)) {
        assert_paths_agree(Scheme::S16, &b.0, &b.1)?;
    }

    #[test]
    fn s8b_single_corrupt_byte(b in corrupted_block(Scheme::S8b)) {
        assert_paths_agree(Scheme::S8b, &b.0, &b.1)?;
    }

    #[test]
    fn unpack_kernels_agree_with_reference(
        data in prop::collection::vec(any::<u8>(), 0..200),
        count in 0usize..200,
        width in 0u32..40,
        base in any::<u32>(),
    ) {
        let mut fast = Vec::new();
        let mut seed = Vec::new();
        let fast_res = unpack::unpack(&data, count, width, &mut fast);
        let ref_res = reference::unpack(&data, count, width, &mut seed);
        prop_assert_eq!(fast_res.is_ok(), ref_res.is_ok(), "unpack accept disagreement");
        if fast_res.is_ok() {
            prop_assert_eq!(&fast, &seed);
        }

        let mut fast_d1 = Vec::new();
        let mut ref_d1 = Vec::new();
        let fast_res = unpack::unpack_d1(&data, count, width, base, &mut fast_d1);
        let ref_res = reference::unpack_d1(&data, count, width, base, &mut ref_d1);
        prop_assert_eq!(fast_res.is_ok(), ref_res.is_ok(), "unpack_d1 accept disagreement");
        if fast_res.is_ok() {
            prop_assert_eq!(&fast_d1, &ref_d1);
        }
    }

    #[test]
    fn netlist_interpreter_never_panics_on_garbage(
        (data, info) in raw_block(),
    ) {
        for &scheme in &ALL_SCHEMES {
            let engine = DecompEngine::for_scheme(scheme).expect("stock netlist parses");
            // Typed rejection is the other legal outcome.
            let Ok(out) = engine.decode(&data, &info) else {
                continue;
            };
            prop_assert_eq!(out.values.len(), info.count as usize, "{}", scheme);
            prop_assert!(out.values.capacity() <= 2 * MAX_BLOCK_VALUES);
            // Where the codec accepts the same bytes, both read them alike.
            let mut codec = Vec::new();
            if codec_for(scheme).decode(&data, &info, &mut codec).is_ok() {
                prop_assert_eq!(&out.values, &codec, "{} netlist/codec disagreement", scheme);
            }
        }
    }

    #[test]
    fn netlist_accepts_iff_bit_correct_on_clean_blocks(
        values in prop::collection::vec(0u32..(1 << 20), 1..129),
    ) {
        for &scheme in &ALL_SCHEMES {
            let mut data = Vec::new();
            let info = codec_for(scheme).encode(&values, &mut data).expect("encodes");
            let engine = DecompEngine::for_scheme(scheme).expect("stock netlist parses");
            let out = engine.decode(&data, &info).expect("clean block decodes");
            prop_assert_eq!(&out.values, &values, "{} netlist mismatch", scheme);
        }
    }
}
