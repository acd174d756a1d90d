//! Property tests for the dynamic-pruning family: over random corpora,
//! query widths 0–32, and k ∈ {1, 10, 100}, every algorithm (MaxScore,
//! WAND, BMW, BMM — plus the in-family exhaustive baseline) must return
//! the exact top-k of the exhaustive oracle, docIDs *and* f32 score
//! bits. Block metadata soundness rides along: no contained posting may
//! exceed its block-max bound, and a corrupt block-max must degrade to
//! a typed error or a safe over-estimate, never a wrong top-k. One
//! fixed-corpus case pins the payoff: on score-skewed lists the
//! block-max plans decode *strictly* fewer blocks than exhaustive.

use boss_index::prune::{pruned_union_topk, EvalCounts, NullSink};
use boss_index::{
    reference, Error, IndexBuilder, InvertedIndex, QueryExpr, SearchHit, TermId, ALL_ALGORITHMS,
};
use proptest::prelude::*;

/// Vocabulary of 32 terms — the maximum query width swept.
const VOCAB: usize = 32;

fn word(i: usize) -> String {
    format!("t{i:02}")
}

/// Builds a corpus from per-doc draws: `mask` selects which vocabulary
/// words appear, `tf_sel` picks a (small, tie-heavy) tf pattern. One
/// all-vocabulary document is appended so every query term exists.
fn build(docs: &[(u32, u8)]) -> InvertedIndex {
    let rendered: Vec<String> = docs
        .iter()
        .map(|&(mask, tf_sel)| {
            let mut words = Vec::new();
            for i in 0..VOCAB {
                if mask & (1 << i) != 0 {
                    let tf = 1 + (tf_sel as usize + i) % 3;
                    for _ in 0..tf {
                        words.push(word(i));
                    }
                }
            }
            if words.is_empty() {
                words.push(word(0));
            }
            words.join(" ")
        })
        .chain(std::iter::once(
            (0..VOCAB).map(word).collect::<Vec<_>>().join(" "),
        ))
        .collect();
    IndexBuilder::new()
        .add_documents(rendered.iter().map(|s| s.as_str()))
        .build()
        .expect("corpus builds")
}

fn bits(hits: &[SearchHit]) -> Vec<(u32, u32)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

fn union_query(width: usize) -> (QueryExpr, Vec<String>) {
    let words: Vec<String> = (0..width).map(word).collect();
    let expr = QueryExpr::Or(words.iter().map(|w| QueryExpr::term(w.as_str())).collect());
    (expr, words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: every algorithm in the family is *safe* —
    /// its top-k equals the exhaustive oracle's bit for bit, for any
    /// corpus, any union width 0–32, and k ∈ {1, 10, 100}.
    #[test]
    fn every_algorithm_matches_the_exhaustive_oracle(
        docs in prop::collection::vec((any::<u32>(), 0u8..4), 4..120),
        width in 0usize..=VOCAB,
        ksel in 0usize..3,
    ) {
        let index = build(&docs);
        let k = [1usize, 10, 100][ksel];
        if width == 0 {
            for algo in ALL_ALGORITHMS {
                let got = pruned_union_topk(&index, &[], algo, k, &mut NullSink)
                    .expect("empty term set evaluates");
                prop_assert!(got.hits.is_empty());
            }
            return Ok(());
        }
        let (expr, words) = union_query(width);
        let oracle = reference::evaluate(&index, &expr, k).expect("oracle evaluates");
        let terms: Vec<TermId> = words
            .iter()
            .map(|w| index.term_id(w).expect("term in vocabulary"))
            .collect();
        for algo in ALL_ALGORITHMS {
            let got = pruned_union_topk(&index, &terms, algo, k, &mut NullSink)
                .expect("pruned evaluation succeeds");
            prop_assert_eq!(
                bits(&got.hits),
                bits(&oracle),
                "algorithm {} diverged (width {}, k {})",
                algo, width, k
            );
        }
    }

    /// Metadata soundness: no posting inside a block scores above the
    /// block's max-score bound, and no block-max exceeds the list-level
    /// bound — the invariants every skip decision rests on.
    #[test]
    fn block_upper_bounds_dominate_contained_postings(
        docs in prop::collection::vec((any::<u32>(), 0u8..4), 4..120),
    ) {
        let index = build(&docs);
        let (mut ds, mut tfs) = (Vec::new(), Vec::new());
        for tid in 0..index.n_terms() as TermId {
            let list = index.list(tid);
            for b in 0..list.n_blocks() {
                let meta = &list.blocks()[b];
                prop_assert!(
                    meta.max_score <= list.max_score(),
                    "term {} block {} max {} above list max {}",
                    tid, b, meta.max_score, list.max_score()
                );
                ds.clear();
                tfs.clear();
                list.decode_block(b, &mut ds, &mut tfs).expect("block decodes");
                for (&d, &tf) in ds.iter().zip(&tfs) {
                    let s = index
                        .bm25()
                        .term_score(list.idf(), tf, index.doc_norms()[d as usize]);
                    prop_assert!(
                        s <= meta.max_score,
                        "term {} doc {} scores {} above block max {}",
                        tid, d, s, meta.max_score
                    );
                }
            }
        }
    }

    /// No algorithm ever decodes more blocks than the in-family
    /// exhaustive baseline (which touches every block of every list).
    #[test]
    fn pruning_never_decodes_more_than_exhaustive(
        docs in prop::collection::vec((any::<u32>(), 0u8..4), 4..120),
        width in 1usize..=8,
        ksel in 0usize..3,
    ) {
        let index = build(&docs);
        let k = [1usize, 10, 100][ksel];
        let (_, words) = union_query(width);
        let terms: Vec<TermId> = words
            .iter()
            .map(|w| index.term_id(w).expect("term in vocabulary"))
            .collect();
        let mut baseline = EvalCounts::default();
        pruned_union_topk(
            &index,
            &terms,
            boss_index::QueryAlgorithm::Exhaustive,
            k,
            &mut baseline,
        )
        .expect("exhaustive evaluates");
        for algo in ALL_ALGORITHMS {
            let mut c = EvalCounts::default();
            pruned_union_topk(&index, &terms, algo, k, &mut c).expect("evaluates");
            prop_assert!(
                c.blocks_fetched <= baseline.blocks_fetched,
                "{} decoded {} blocks, exhaustive {}",
                algo, c.blocks_fetched, baseline.blocks_fetched
            );
        }
    }

    /// Corruption harness: a mutated block-max (NaN, negative, +inf,
    /// inflated, or scaled) must either surface as a typed error or
    /// leave the top-k exactly the oracle's — never silently wrong.
    #[test]
    fn corrupt_block_max_degrades_safely(
        docs in prop::collection::vec((any::<u32>(), 0u8..4), 4..80),
        width in 1usize..=8,
        ksel in 0usize..3,
        tsel in any::<u32>(),
        bsel in any::<u32>(),
        msel in 0usize..5,
    ) {
        let k = [1usize, 10, 100][ksel];
        let (expr, words) = union_query(width);
        let base = build(&docs);
        let oracle = reference::evaluate(&base, &expr, k).expect("oracle evaluates");
        let terms: Vec<TermId> = words
            .iter()
            .map(|w| base.term_id(w).expect("term in vocabulary"))
            .collect();

        let mut index = build(&docs);
        let t = terms[tsel as usize % terms.len()];
        let list = index.list_mut(t);
        let b = bsel as usize % list.n_blocks();
        let blocks = list.blocks_mut();
        blocks[b].max_score = match msel {
            0 => f32::NAN,
            1 => -1.0,
            2 => f32::INFINITY,
            3 => f32::MAX,
            _ => blocks[b].max_score * 4.0,
        };
        for algo in ALL_ALGORITHMS {
            match pruned_union_topk(&index, &terms, algo, k, &mut NullSink) {
                Ok(got) => prop_assert_eq!(
                    bits(&got.hits),
                    bits(&oracle),
                    "algorithm {} silently wrong under mutation {}",
                    algo, msel
                ),
                Err(e) => prop_assert!(
                    matches!(e, Error::CorruptMetadata { .. } | Error::Codec(_)),
                    "unexpected error class: {e:?}"
                ),
            }
        }
    }
}

/// A corpus whose per-block score maxima vary along the docID axis
/// (tf rises and falls in 128-doc bands) — the regime block-max pruning
/// exists for; without the skew every block's bound is the same and no
/// plan can skip.
fn skewed_corpus(n: usize) -> InvertedIndex {
    let docs: Vec<String> = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2_654_435_761);
            let mut words: Vec<&str> = vec!["common"];
            if h.is_multiple_of(2) {
                words.extend(std::iter::repeat_n("alpha", 1 + (i / 128) % 7));
            }
            if h.is_multiple_of(3) {
                words.push("beta");
            }
            if h.is_multiple_of(13) {
                words.extend(std::iter::repeat_n("mid", 1 + (i / 256) % 5));
            }
            if h.is_multiple_of(97) {
                words.push("rare");
            }
            words.join(" ")
        })
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .expect("corpus builds")
}

/// The pruning payoff on a fixed corpus (hybrid codec, k = 10): over
/// top-heavy two-term through flat four-term unions, BMW and BMM decode
/// strictly fewer blocks than the exhaustive traversal.
#[test]
fn block_max_plans_decode_strictly_fewer_blocks_on_skewed_lists() {
    let index = skewed_corpus(12_000);
    let unions: [&[&str]; 3] = [
        &["alpha", "rare"],
        &["alpha", "mid", "rare"],
        &["alpha", "beta", "mid", "common"],
    ];
    let blocks_decoded = |algo| {
        let mut counters = EvalCounts::default();
        for words in unions {
            let terms: Vec<TermId> = words
                .iter()
                .map(|w| index.term_id(w).expect("term in corpus"))
                .collect();
            pruned_union_topk(&index, &terms, algo, 10, &mut counters).expect("evaluates");
        }
        counters.blocks_fetched
    };
    let exhaustive = blocks_decoded(boss_index::QueryAlgorithm::Exhaustive);
    for algo in ALL_ALGORITHMS.into_iter().filter(|a| a.is_block_max()) {
        let decoded = blocks_decoded(algo);
        assert!(
            decoded < exhaustive,
            "{algo} decoded {decoded} blocks, exhaustive {exhaustive}"
        );
    }
}
