//! A block descriptor whose docID bounds disagree with its payload must
//! end every engine's query in a typed error — or, for BOSS under
//! `SkipBlock`, in a dropped block and a completed query — never in a
//! panic. Raising the first descriptor's `last_doc` past the corpus also
//! shifts the next block's d-gap base, so the decoded docIDs of two
//! blocks would index the norm table out of bounds if a decode were
//! trusted without comparing it with its descriptor. A list whose
//! descriptors and payload agree but reach past the corpus, a block
//! whose d-gaps wrap around 2³² back onto its descriptor's bounds, and a
//! block that repeats a docID between bounds that agree with its
//! descriptor must be refused the same way.

use boss_compress::codec_for;
use boss_core::{BossConfig, DegradePolicy, EtMode};
use boss_engine::{Boss, Iiu, Lucene, SearchEngine};
use boss_iiu::IiuConfig;
use boss_index::{
    reference, BlockMeta, Error, IndexBuilder, InvertedIndex, QueryAlgorithm, QueryExpr,
};
use boss_luceneish::LuceneConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

const N_DOCS: u32 = 2000;

/// `aa` in every other document, `bb` in every third, over `n_docs`
/// documents.
fn every_other(n_docs: u32) -> InvertedIndex {
    let docs: Vec<String> = (0..n_docs)
        .map(|i| {
            let mut t = String::from("x");
            if i % 2 == 0 {
                t.push_str(" aa");
            }
            if i % 3 == 0 {
                t.push_str(" bb");
            }
            t
        })
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .expect("corpus builds")
}

/// [`every_other`], with `aa`'s first descriptor claiming a last docID
/// 5 000 past the corpus.
fn corrupted() -> InvertedIndex {
    let mut index = every_other(N_DOCS);
    let aa = index.term_id("aa").expect("aa indexed");
    index.list_mut(aa).blocks_mut()[0].last_doc = N_DOCS + 5000;
    index
}

/// [`every_other`], with `aa`'s list taken whole from a 6 000-document
/// corpus: every descriptor agrees with its payload, and the blocks past
/// document 2 000 lie outside this corpus.
fn transplanted() -> InvertedIndex {
    let donor = every_other(6_000);
    let mut index = every_other(N_DOCS);
    let aa = index.term_id("aa").expect("aa indexed");
    let donor_aa = donor.term_id("aa").expect("aa indexed");
    *index.list_mut(aa) = donor.list(donor_aa).clone();
    index
}

/// [`every_other`], with `aa`'s first block re-encoded under the list's
/// own scheme as the d-gaps `gaps(first, last)` of its descriptor's first
/// and last docIDs, tf 1 each.
fn first_block_reencoded(gaps: impl Fn(u32, u32) -> Vec<u32>) -> InvertedIndex {
    let mut index = every_other(N_DOCS);
    let aa = index.term_id("aa").expect("aa indexed");
    let list = index.list_mut(aa);
    let codec = codec_for(list.scheme());
    let meta = list.blocks()[0];
    let gaps = gaps(meta.first_doc, meta.last_doc);
    let mut block = Vec::new();
    let delta_info = codec.encode(&gaps, &mut block).expect("gaps encode");
    let tf_offset = block.len() as u32;
    let tf_info = codec
        .encode(&vec![0; gaps.len()], &mut block)
        .expect("tfs encode");
    let offset = list.data_mut().len() as u32;
    list.data_mut().extend_from_slice(&block);
    list.blocks_mut()[0] = BlockMeta {
        offset,
        len: block.len() as u32,
        tf_offset,
        delta_info,
        tf_info,
        ..meta
    };
    index
}

/// `aa`'s first block as the d-gaps
/// `[first, (2²⁷ − 1) × 32, last − first + 32]`: they sum to
/// `last − first` modulo 2³², so the block decodes to the descriptor's
/// first and last docIDs and the next block's d-gap base is untouched,
/// while the 32 docIDs between them lie past the corpus.
fn wrapped() -> InvertedIndex {
    first_block_reencoded(|first, last| {
        let mut gaps = vec![first];
        gaps.extend([(1u32 << 27) - 1; 32]);
        gaps.push(last - first + 32);
        gaps
    })
}

/// `aa`'s first block as the d-gaps `[first, 0 × 32, last − first]`: its
/// first docID 33 times over, then its last, each bound agreeing with the
/// descriptor.
fn repeated() -> InvertedIndex {
    first_block_reencoded(|first, last| {
        let mut gaps = vec![first];
        gaps.extend([0; 32]);
        gaps.push(last - first);
        gaps
    })
}

fn queries() -> [QueryExpr; 3] {
    let t = QueryExpr::term;
    [
        t("aa"),
        QueryExpr::and([t("aa"), t("bb")]),
        QueryExpr::or([t("aa"), t("bb")]),
    ]
}

/// How an engine is expected to end a query on the corrupted index.
#[derive(Debug, Clone, Copy)]
enum Expect {
    CorruptMetadata,
    DropsBlocks,
    /// Either of the two: a bound check fails the query whatever the
    /// degrade policy.
    DropsBlocksOrCorrupt,
}

#[test]
fn a_descriptor_past_the_corpus_is_refused_by_every_engine() {
    refused_by_every_engine(&corrupted(), &queries(), Expect::DropsBlocks);
}

/// Q1 and Q3 over `aa`'s transplanted list. Its block-max bounds were
/// taken over the donor's norms, so under BOSS's bound checks a posting
/// may exceed its bound before a block past the corpus is reached.
#[test]
fn a_list_past_the_corpus_is_refused_by_every_engine() {
    let t = QueryExpr::term;
    let queries = [t("aa"), QueryExpr::or([t("aa"), t("bb")])];
    refused_by_every_engine(&transplanted(), &queries, Expect::DropsBlocksOrCorrupt);
}

/// Q1 and Q3 over `aa`'s wrapped block.
#[test]
fn a_block_whose_gaps_wrap_is_refused_by_every_engine() {
    let t = QueryExpr::term;
    let queries = [t("aa"), QueryExpr::or([t("aa"), t("bb")])];
    refused_by_every_engine(&wrapped(), &queries, Expect::DropsBlocks);
}

/// Q1 and Q3 over `aa`'s block of repeated docIDs, which every engine
/// would score its own way (IIU summed the repeats of document 0, BOSS
/// kept one) if the decode let it through.
#[test]
fn a_block_with_repeated_docids_is_refused_by_every_engine() {
    let t = QueryExpr::term;
    let queries = [t("aa"), QueryExpr::or([t("aa"), t("bb")])];
    refused_by_every_engine(&repeated(), &queries, Expect::DropsBlocks);
}

/// Runs `queries` on `index` under BOSS (failing the query, or skipping
/// the block), IIU and the Lucene-like engine, each exhaustive and under
/// BlockMaxMaxScore: BOSS under `SkipBlock` ends as `skip` says, every
/// other engine returns [`Error::CorruptMetadata`], and none panics.
fn refused_by_every_engine(index: &InvertedIndex, queries: &[QueryExpr], skip: Expect) {
    for algorithm in [QueryAlgorithm::Exhaustive, QueryAlgorithm::BlockMaxMaxScore] {
        let boss = |degrade| {
            Boss::new(
                index,
                BossConfig::default()
                    .with_algorithm(algorithm)
                    .with_degrade(degrade),
            )
        };
        let mut engines: Vec<(&str, Box<dyn SearchEngine + '_>, Expect)> = vec![
            (
                "boss-fail",
                Box::new(boss(DegradePolicy::FailQuery)),
                Expect::CorruptMetadata,
            ),
            ("boss-skip", Box::new(boss(DegradePolicy::SkipBlock)), skip),
            (
                "iiu",
                Box::new(Iiu::new(
                    index,
                    IiuConfig::default().with_algorithm(algorithm),
                )),
                Expect::CorruptMetadata,
            ),
            (
                "lucene",
                Box::new(Lucene::new(
                    index,
                    LuceneConfig::default().with_algorithm(algorithm),
                )),
                Expect::CorruptMetadata,
            ),
        ];
        for (label, engine, expect) in &mut engines {
            let expect = *expect;
            for q in queries {
                let outcome = catch_unwind(AssertUnwindSafe(|| engine.search(q, 10)));
                let Ok(result) = outcome else {
                    panic!("{label} {algorithm} {q}: panicked");
                };
                match (expect, result) {
                    (
                        Expect::CorruptMetadata | Expect::DropsBlocksOrCorrupt,
                        Err(Error::CorruptMetadata { .. }),
                    ) => {}
                    (Expect::DropsBlocks | Expect::DropsBlocksOrCorrupt, Ok(out)) => assert!(
                        out.eval.blocks_skipped_fault > 0,
                        "{label} {algorithm} {q}: the corrupt block was not dropped"
                    ),
                    (_, other) => panic!("{label} {algorithm} {q}: {other:?}"),
                }
            }
        }
    }
}

/// `aa` in every other document, `bb` in every third, `cc` in document 1
/// only; `aa`'s first block, or its last, claims half its true block-max
/// score.
fn halved_bound(last: bool) -> InvertedIndex {
    let docs: Vec<String> = (0..N_DOCS)
        .map(|i| match (i % 2, i % 3) {
            (0, 0) => "x aa bb",
            (0, _) => "x aa",
            (_, 0) => "x bb",
            _ if i == 1 => "x cc",
            _ => "x",
        })
        .map(String::from)
        .collect();
    let mut index = IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .expect("corpus builds");
    let aa = index.term_id("aa").expect("aa indexed");
    let blocks = index.list_mut(aa).blocks_mut();
    let block = if last { blocks.len() - 1 } else { 0 };
    blocks[block].max_score /= 2.0;
    index
}

/// A block-max bound halved below the postings it covers is caught when
/// the block is decoded: every engine's MaxScore checks each posting of a
/// posting list against its block's and its list's bound, whatever the
/// degrade policy. `k` covers every document, so θ stays −∞ and nothing
/// is skipped before the block is decoded.
#[test]
fn a_posting_above_its_block_bound_is_refused_by_every_maxscore() {
    let index = halved_bound(false);
    let query = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")]);
    let k = N_DOCS as usize;
    for algorithm in [QueryAlgorithm::MaxScore, QueryAlgorithm::BlockMaxMaxScore] {
        let boss = |degrade| {
            let cfg = BossConfig::default()
                .with_algorithm(algorithm)
                .with_degrade(degrade);
            Boss::new(&index, cfg)
        };
        let mut engines: Vec<(&str, Box<dyn SearchEngine + '_>)> = vec![
            ("boss-fail", Box::new(boss(DegradePolicy::FailQuery))),
            ("boss-skip", Box::new(boss(DegradePolicy::SkipBlock))),
            (
                "iiu",
                Box::new(Iiu::new(
                    &index,
                    IiuConfig::default().with_algorithm(algorithm),
                )),
            ),
            (
                "lucene",
                Box::new(Lucene::new(
                    &index,
                    LuceneConfig::default().with_algorithm(algorithm),
                )),
            ),
        ];
        for (label, engine) in &mut engines {
            let result = engine.search(&query, k);
            assert!(
                matches!(result, Err(Error::CorruptMetadata { .. })),
                "{label} {algorithm}: {result:?}"
            );
        }
    }
}

/// `halved_bound(false)`, but `aa`'s first block claims its first
/// posting's score as its block-max: that posting (document 0,
/// `x aa bb`) passes, and the next (document 2, the shorter `x aa`)
/// scores above it.
fn first_posting_bound() -> InvertedIndex {
    let mut index = halved_bound(false);
    let aa = QueryExpr::term("aa");
    let hits = reference::evaluate(&index, &aa, N_DOCS as usize).expect("aa evaluates");
    let first = hits.iter().find(|h| h.doc == 0).expect("aa in document 0");
    let id = index.term_id("aa").expect("aa indexed");
    index.list_mut(id).blocks_mut()[0].max_score = first.score;
    index
}

/// A lowered bound under BOSS's union module: early termination
/// (`BlockOnly`, `Full`) and the WAND family (`Wand`, `Bmw`) check each
/// decoded posting against the bound its cursor recorded, whatever the
/// degrade policy. In [`halved_bound`]`(true)` `aa`'s last block is the
/// halved one, refused at the round that fetches it: `aa OR bb` meets it
/// beside a live stream (`bb` reaches the end of the corpus), `aa OR cc`
/// with `aa` alone (`cc` is spent after document 1). In
/// [`first_posting_bound`] the first over-bound posting is the second of
/// its block, so under either query only a batched run of `aa` meets it.
/// A lone term is a pure intersection and trusts no bound, so it runs
/// exhaustively and needs no check.
#[test]
fn a_posting_above_its_block_bound_is_refused_by_every_boss_union() {
    let t = QueryExpr::term;
    let queries = [
        QueryExpr::or([t("aa"), t("bb")]),
        QueryExpr::or([t("aa"), t("cc")]),
    ];
    let k = N_DOCS as usize;
    let unions = [
        (
            "block-only",
            BossConfig::default().with_et(EtMode::BlockOnly),
        ),
        ("full-et", BossConfig::default().with_et(EtMode::Full)),
        (
            "wand",
            BossConfig::default().with_algorithm(QueryAlgorithm::Wand),
        ),
        (
            "bmw",
            BossConfig::default().with_algorithm(QueryAlgorithm::BlockMaxWand),
        ),
    ];
    for (bound, index) in [
        ("halved", halved_bound(true)),
        ("first-posting", first_posting_bound()),
    ] {
        for (label, config) in &unions {
            for degrade in [DegradePolicy::FailQuery, DegradePolicy::SkipBlock] {
                let mut boss = Boss::new(&index, config.clone().with_degrade(degrade));
                for q in &queries {
                    let result = boss.search(q, k);
                    assert!(
                        matches!(result, Err(Error::CorruptMetadata { .. })),
                        "{bound} {label} {degrade:?} {q}: {result:?}"
                    );
                }
            }
        }
    }
}
