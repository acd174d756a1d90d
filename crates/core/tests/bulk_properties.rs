//! Property tests for the block scoring kernel and the block top-k sift:
//! bit-identity with the scalar paths over tf widths 0–32, block lengths
//! 1–128, and randomized heap thresholds (including exact-tie scores).

use boss_core::TopK;
use boss_index::{Bm25, Bm25Params, ScoreScratch};
use proptest::prelude::*;

fn mask(width: u32) -> u32 {
    if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

fn model() -> Bm25 {
    Bm25::new(Bm25Params::default(), 100_000, 320.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn score_block_matches_term_score_bitwise_for_all_widths(
        raw in prop::collection::vec(any::<u32>(), 1..129),
        lens in prop::collection::vec(1u32..5_000, 200),
        df in 1u32..50_000,
    ) {
        let bm25 = model();
        let idf = bm25.idf(df);
        let norms: Vec<f32> = lens.iter().map(|&l| bm25.doc_norm(l)).collect();
        let docs: Vec<u32> = raw.iter().map(|&v| v % norms.len() as u32).collect();
        let mut scratch = ScoreScratch::new();
        for width in 0..=32u32 {
            let tfs: Vec<u32> = raw.iter().map(|&v| v & mask(width)).collect();
            bm25.score_block(idf, &docs, &tfs, &norms, &mut scratch);
            prop_assert_eq!(scratch.scores().len(), docs.len(), "width {}", width);
            for (j, (&d, &tf)) in docs.iter().zip(&tfs).enumerate() {
                let expect = bm25.term_score(idf, tf, norms[d as usize]);
                prop_assert_eq!(
                    scratch.scores()[j].to_bits(),
                    expect.to_bits(),
                    "width {} value {}", width, j
                );
            }
        }
    }

    #[test]
    fn sift_block_equals_sequential_offers_at_random_thresholds(
        pre in prop::collection::vec(0u32..2_000, 0..200),
        scores in prop::collection::vec(0u32..2_000, 1..129),
        k in 1usize..64,
    ) {
        // Pre-fill establishes an arbitrary heap state (possibly not yet
        // full, possibly with tied scores at the cutoff).
        let mut sift = TopK::new(k);
        for (d, &s) in pre.iter().enumerate() {
            sift.offer(d as u32, s as f32 / 8.0);
        }
        let mut scalar = sift.clone();
        // Block docIDs continue after the prefill, ascending.
        let docs: Vec<u32> = (0..scores.len() as u32).map(|i| 10_000 + i).collect();
        let fs: Vec<f32> = scores.iter().map(|&s| s as f32 / 8.0).collect();
        sift.sift_block(&docs, &fs);
        for (&d, &s) in docs.iter().zip(&fs) {
            scalar.offer(d, s);
        }
        prop_assert_eq!(sift.hits(), scalar.hits());
        prop_assert_eq!(sift.inserts(), scalar.inserts());
        prop_assert_eq!(sift.offers(), scalar.offers());
        prop_assert_eq!(sift.cutoff().to_bits(), scalar.cutoff().to_bits());
    }

    #[test]
    fn kernel_plus_sift_equals_scalar_pipeline(
        raw in prop::collection::vec(any::<u32>(), 1..129),
        lens in prop::collection::vec(1u32..5_000, 200),
        df in 1u32..50_000,
        width in 0u32..33,
        k in 1usize..32,
    ) {
        // End-to-end: score a block with the kernel and sift it, versus
        // scoring per value and offering per value — same bits, same
        // counters, at whatever threshold the earlier values establish.
        let bm25 = model();
        let idf = bm25.idf(df);
        let norms: Vec<f32> = lens.iter().map(|&l| bm25.doc_norm(l)).collect();
        let docs: Vec<u32> = (0..raw.len() as u32).collect();
        let tfs: Vec<u32> = raw.iter().map(|&v| v & mask(width)).collect();

        let mut scratch = ScoreScratch::new();
        bm25.score_block(idf, &docs, &tfs, &norms, &mut scratch);
        let mut bulk = TopK::new(k);
        bulk.sift_block(&docs, scratch.scores());

        let mut scalar = TopK::new(k);
        for (&d, &tf) in docs.iter().zip(&tfs) {
            scalar.offer(d, bm25.term_score(idf, tf, norms[d as usize]));
        }

        prop_assert_eq!(bulk.hits(), scalar.hits());
        prop_assert_eq!(bulk.inserts(), scalar.inserts());
        prop_assert_eq!(bulk.offers(), scalar.offers());
    }
}
