//! The shipped scheme configurations through
//! [`CompiledProgram::compile`] and the engine: every stock stage-2
//! program compiles, and its datapath decodes bit-equal to the
//! `boss-compress` codec (values, docIDs and priced cycles) across
//! widths 0–32 and block lengths 1–128.

use boss_compress::{codec_for, Scheme};
use boss_decomp::{CompiledProgram, DecompEngine, PIPELINE_FILL_CYCLES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scheme_configs_decode_bit_equal_across_widths(
        raw in prop::collection::vec(any::<u32>(), 1..129),
        base in any::<u32>(),
    ) {
        for width in 0..=32u32 {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
            for scheme in [Scheme::Bp, Scheme::OptPfd, Scheme::Vb] {
                let codec = codec_for(scheme);
                let mut data = Vec::new();
                let info = codec.encode(&values, &mut data).unwrap();
                let engine = DecompEngine::for_scheme(scheme).unwrap();
                prop_assert!(CompiledProgram::compile(&engine.config().program).is_ok());

                let decoded = engine.decode(&data, &info).unwrap();
                prop_assert_eq!(&decoded.values, &values, "scheme {} width {}", scheme, width);
                let priced = engine.config().decode_cost().units(data.len() as u64, &info)
                    + PIPELINE_FILL_CYCLES;
                prop_assert_eq!(decoded.cycles, priced, "cycles, scheme {} width {}", scheme, width);

                let docs = engine.decode_docids(&data, &info, base).unwrap();
                let mut expect = Vec::new();
                codec.decode_d1(&data, &info, base, &mut expect).unwrap();
                prop_assert_eq!(&docs.values, &expect, "docids, scheme {} width {}", scheme, width);
            }
        }
    }
}
