//! One differential harness for the three engines: random corpora ×
//! random nested AND/OR queries × k ∈ {0, 1, 3, 10, 100, 1000}, answered by
//! BOSS under every early-termination mode and every query algorithm and
//! by IIU and the Lucene-like engine under every query algorithm — each
//! on one device and as a four-shard scatter-gather — and compared,
//! docID and score bits, with the exhaustive oracle
//! [`boss_index::reference::evaluate`]. A query the hardware planner
//! rejects must be rejected by every single-device engine; a shard may
//! still answer it once its rewrite drops the terms it does not hold,
//! and then its hits must be the oracle's.
//!
//! Each random corpus is built twice — in memory, and through the write
//! path every ingest takes (SPIMI spills into one to eight segments,
//! opened and merged) — and the two indexes must be equal before any
//! query runs.

use boss_core::{BossConfig, EtMode, QueryPlan};
use boss_engine::{Boss, Iiu, Lucene, SearchEngine, ShardTiming, Sharded};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{
    reference, IndexBuilder, InvertedIndex, QueryExpr, SearchHit, SpimiBuilder, SpimiConfig,
    ALL_ALGORITHMS,
};
use boss_luceneish::LuceneConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const SHARDS: u32 = 4;

/// A small synthetic corpus driven by proptest-chosen parameters: five
/// terms of falling density with tf 1–3, and `base` in every document.
fn corpus_texts(n_docs: u32, seed: u32) -> Vec<String> {
    (0..n_docs)
        .map(|i| {
            let h = i.wrapping_mul(2654435761).wrapping_add(seed);
            let mut t = String::new();
            for (term, m) in [("t0", 2u32), ("t1", 3), ("t2", 5), ("t3", 7), ("t4", 11)] {
                if h % m == 0 {
                    for _ in 0..=(h % 3) {
                        t.push(' ');
                        t.push_str(term);
                    }
                }
            }
            t.push_str(" base");
            t
        })
        .collect()
}

fn build_corpus(texts: &[String]) -> InvertedIndex {
    IndexBuilder::new()
        .add_documents(texts.iter().map(String::as_str))
        .build()
        .expect("corpus builds")
}

/// The corpus through SPIMI: a segment spilled every `docs_per_segment`
/// documents, then the directory opened and merged.
fn build_through_segments(texts: &[String], docs_per_segment: u32) -> InvertedIndex {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "boss-differential-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = SpimiConfig {
        max_docs_per_segment: docs_per_segment,
        ..SpimiConfig::default()
    };
    let mut builder = SpimiBuilder::create(&dir, cfg).expect("segment directory");
    for text in texts {
        builder.add_document_text(text).expect("document ingests");
    }
    let segments = builder.finish().expect("segments seal").entries().len();
    assert_eq!(segments, texts.len().div_ceil(docs_per_segment as usize));
    let index = boss_engine::open_segments(&dir).expect("segments open");
    std::fs::remove_dir_all(&dir).ok();
    index
}

fn expr_strategy() -> impl Strategy<Value = QueryExpr> {
    let term = prop_oneof![
        Just(QueryExpr::term("t0")),
        Just(QueryExpr::term("t1")),
        Just(QueryExpr::term("t2")),
        Just(QueryExpr::term("t3")),
        Just(QueryExpr::term("t4")),
        Just(QueryExpr::term("base")),
    ];
    term.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(QueryExpr::And),
            prop::collection::vec(inner, 1..4).prop_map(QueryExpr::Or),
        ]
    })
}

/// One engine under test and whether it is a scatter-gather.
struct Run<'a> {
    label: String,
    sharded: bool,
    engine: Box<dyn SearchEngine + 'a>,
}

/// Every engine configuration, single-device and over `shards`.
fn lineup<'a>(index: &'a InvertedIndex, shards: &'a ShardedIndex) -> Vec<Run<'a>> {
    fn both<'a, E: SearchEngine + 'a>(
        runs: &mut Vec<Run<'a>>,
        label: String,
        index: &'a InvertedIndex,
        shards: &'a ShardedIndex,
        make: impl Fn(&'a InvertedIndex) -> E,
    ) {
        let leaves = shards.shards().iter().map(|s| vec![make(s)]).collect();
        let scatter = Sharded::new(make(index), shards, leaves, ShardTiming::ScatterGather);
        runs.push(Run {
            label: format!("{label} x{SHARDS} shards"),
            sharded: true,
            engine: Box::new(scatter),
        });
        runs.push(Run {
            label,
            sharded: false,
            engine: Box::new(make(index)),
        });
    }
    let mut runs = Vec::new();
    for algorithm in ALL_ALGORITHMS {
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let config = BossConfig::default().with_et(et).with_algorithm(algorithm);
            both(
                &mut runs,
                format!("boss {et:?} {algorithm}"),
                index,
                shards,
                |i| Boss::new(i, config.clone()),
            );
        }
        let iiu = IiuConfig::default().with_algorithm(algorithm);
        both(&mut runs, format!("iiu {algorithm}"), index, shards, |i| {
            Iiu::new(i, iiu.clone())
        });
        let lucene = LuceneConfig::default().with_algorithm(algorithm);
        both(
            &mut runs,
            format!("lucene {algorithm}"),
            index,
            shards,
            |i| Lucene::new(i, lucene.clone()),
        );
    }
    runs
}

fn bits(hits: &[SearchHit]) -> Vec<(u32, u32)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// Runs `expr` at `k` on every engine of `runs`; the first disagreement
/// with the oracle or with the planner's verdict, if any.
fn disagreement(
    index: &InvertedIndex,
    runs: &mut [Run<'_>],
    expr: &QueryExpr,
    k: usize,
) -> Option<String> {
    let planned = QueryPlan::from_expr(index, expr, &BossConfig::default()).is_ok();
    let expect = bits(&reference::evaluate(index, expr, k).expect("oracle evaluates"));
    for run in runs.iter_mut() {
        let label = &run.label;
        match run.engine.search(expr, k) {
            Ok(_) if !planned && !run.sharded => {
                return Some(format!(
                    "{label}: answered {expr} k={k}, which the planner rejects"
                ))
            }
            Ok(out) if bits(&out.hits) != expect => {
                return Some(format!("{label}: {expr} k={k} diverged from the oracle"))
            }
            Ok(_) => {}
            Err(e) if planned => return Some(format!("{label}: {expr} k={k} failed: {e}")),
            Err(_) => {}
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_match_reference_on_random_queries(
        expr in expr_strategy(),
        n_docs in 200u32..800,
        seed in 0u32..50,
        segments in 1u32..=8,
    ) {
        let texts = corpus_texts(n_docs, seed);
        let index = build_corpus(&texts);
        let spilled = build_through_segments(&texts, n_docs.div_ceil(segments));
        prop_assert!(spilled == index, "{} segments built another index", segments);
        let shards = ShardedIndex::split(&index, SHARDS).expect("corpus splits");
        let mut runs = lineup(&index, &shards);
        for k in [0usize, 1, 3, 10, 100, 1000] {
            let found = disagreement(&index, &mut runs, &expr, k);
            prop_assert!(found.is_none(), "{}", found.unwrap_or_default());
        }
    }
}

/// Table II's six query types, three draws each, on the smoke CC-News-like
/// corpus: every engine configuration agrees with the oracle, hence with
/// every other.
#[test]
fn three_engines_agree_on_every_query_type() {
    let index = CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds");
    let shards = ShardedIndex::split(&index, SHARDS).expect("corpus splits");
    let mut sampler = QuerySampler::new(&index, 31).expect("sampler");
    let mut runs = lineup(&index, &shards);
    for qt in ALL_QUERY_TYPES {
        for _ in 0..3 {
            let q = sampler.sample(qt).expect("sample").expr;
            if let Some(found) = disagreement(&index, &mut runs, &q, 200) {
                panic!("{qt:?}: {found}");
            }
        }
    }
}
