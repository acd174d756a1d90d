//! A block descriptor whose docID bounds disagree with its payload must
//! end every engine's query in a typed error — or, for BOSS under
//! `SkipBlock`, in a dropped block and a completed query — never in a
//! panic. Raising the first descriptor's `last_doc` past the corpus also
//! shifts the next block's d-gap base, so the decoded docIDs of two
//! blocks would index the norm table out of bounds if a decode were
//! trusted without comparing it with its descriptor.

use boss_core::{BossConfig, DegradePolicy, EtMode};
use boss_engine::{Boss, Iiu, Lucene, SearchEngine};
use boss_iiu::IiuConfig;
use boss_index::{Error, IndexBuilder, InvertedIndex, QueryAlgorithm, QueryExpr};
use boss_luceneish::LuceneConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

const N_DOCS: u32 = 2000;

/// `aa` in every other document, `bb` in every third; `aa`'s first
/// descriptor claims a last docID 5 000 past the corpus.
fn corrupted() -> InvertedIndex {
    let docs: Vec<String> = (0..N_DOCS)
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
    let mut index = IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .expect("corpus builds");
    let aa = index.term_id("aa").expect("aa indexed");
    index.list_mut(aa).blocks_mut()[0].last_doc = N_DOCS + 5000;
    index
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
}

#[test]
fn a_descriptor_past_the_corpus_is_refused_by_every_engine() {
    let index = corrupted();
    for algorithm in [QueryAlgorithm::Exhaustive, QueryAlgorithm::BlockMaxMaxScore] {
        let boss = |degrade| {
            Boss::new(
                &index,
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
            (
                "boss-skip",
                Box::new(boss(DegradePolicy::SkipBlock)),
                Expect::DropsBlocks,
            ),
            (
                "iiu",
                Box::new(Iiu::new(
                    &index,
                    IiuConfig::default().with_algorithm(algorithm),
                )),
                Expect::CorruptMetadata,
            ),
            (
                "lucene",
                Box::new(Lucene::new(
                    &index,
                    LuceneConfig::default().with_algorithm(algorithm),
                )),
                Expect::CorruptMetadata,
            ),
        ];
        for (label, engine, expect) in &mut engines {
            let expect = *expect;
            for q in &queries() {
                let outcome = catch_unwind(AssertUnwindSafe(|| engine.search(q, 10)));
                let Ok(result) = outcome else {
                    panic!("{label} {algorithm} {q}: panicked");
                };
                match (expect, result) {
                    (Expect::CorruptMetadata, Err(Error::CorruptMetadata { .. })) => {}
                    (Expect::DropsBlocks, Ok(out)) => assert!(
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

/// A halved bound under BOSS's union module: early termination
/// (`BlockOnly`, `Full`) and the WAND family (`Wand`, `Bmw`) check each
/// decoded posting against the bound its cursor recorded, whatever the
/// degrade policy. `aa`'s last block is the halved one: `aa OR bb` meets
/// it in the round loop (`bb` reaches the end of the corpus), `aa OR cc`
/// in the lone-stream drain, a bulk-scored run at a time (`cc` is spent
/// after document 1). A lone term is a pure intersection and trusts no
/// bound, so it runs exhaustively and needs no check.
#[test]
fn a_posting_above_its_block_bound_is_refused_by_every_boss_union() {
    let index = halved_bound(true);
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
    for (label, config) in unions {
        for degrade in [DegradePolicy::FailQuery, DegradePolicy::SkipBlock] {
            let mut boss = Boss::new(&index, config.clone().with_degrade(degrade));
            for q in &queries {
                let result = boss.search(q, k);
                assert!(
                    matches!(result, Err(Error::CorruptMetadata { .. })),
                    "{label} {degrade:?} {q}: {result:?}"
                );
            }
        }
    }
}
