//! Engines opened from a SPIMI segment directory must be bit-identical —
//! hits, cycles, traffic, counters — to the same engines over the
//! in-memory build of the same corpus, including under sharding. This is
//! the engine-level face of the index-level merge bit-identity guarantee.

use boss_core::BossConfig;
use boss_engine::{BatchExecutor, Boss, Iiu, Lucene, SearchEngine, ShardTiming, Sharded};
use boss_iiu::IiuConfig;
use boss_index::{IndexBuilder, InvertedIndex, QueryExpr, SchemeChoice};
use boss_luceneish::LuceneConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use std::path::PathBuf;

fn segment_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("boss-seg-identity-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn both_indexes(n_segments: u32) -> (InvertedIndex, InvertedIndex, PathBuf) {
    let spec = CorpusSpec::ccnews_like(Scale::Smoke);
    let dir = segment_dir(&format!("s{n_segments}"));
    spec.build_segments(&dir, n_segments)
        .expect("segment build");
    let from_segments = boss_engine::open_segments(&dir).expect("open segment dir");
    let in_memory = spec.build().expect("in-memory build");
    (in_memory, from_segments, dir)
}

fn suite(index: &InvertedIndex) -> Vec<QueryExpr> {
    let mut sampler = QuerySampler::new(index, 13).unwrap();
    let mut queries = Vec::new();
    for qt in ALL_QUERY_TYPES {
        for _ in 0..2 {
            queries.push(sampler.sample(qt).unwrap().expr);
        }
    }
    queries
}

fn assert_engine_identical<E: SearchEngine + Send>(mem: &E, seg: &E, queries: &[QueryExpr]) {
    let a = BatchExecutor::with_threads(2)
        .run(mem, queries, 20)
        .expect("in-memory batch");
    let b = BatchExecutor::with_threads(2)
        .run(seg, queries, 20)
        .expect("segment batch");
    let label = mem.label();
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{label}: makespan");
    assert_eq!(a.mem, b.mem, "{label}: MemStats");
    assert_eq!(a.eval, b.eval, "{label}: EvalCounts");
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes");
}

#[test]
fn merged_index_is_bit_identical() {
    let (mem, seg, dir) = both_indexes(3);
    // Index-level equality covers vocab, postings, BlockMeta, block-max.
    assert_eq!(mem, seg);
    std::fs::remove_dir_all(&dir).ok();
}

/// Both smoke corpora under hybrid and each of the five fixed schemes,
/// spilled to four segments and merged, equal the in-memory build. The
/// engines are pure functions of the index, so this equality is the
/// whole contract.
#[test]
fn every_codec_merges_to_the_in_memory_build() {
    let corpora = [
        ("clueweb12-like", CorpusSpec::clueweb12_like(Scale::Smoke)),
        ("ccnews-like", CorpusSpec::ccnews_like(Scale::Smoke)),
    ];
    for (name, spec) in corpora {
        let lists = spec.term_lists().unwrap();
        for scheme in ["hybrid", "BP", "VB", "OptPFD", "S16", "S8b"] {
            let scheme: SchemeChoice = scheme.parse().unwrap();
            let dir = segment_dir(&format!("{name}-{scheme}"));
            let seg = spec.build_segments_with(&dir, 4, scheme).unwrap();
            let seg = seg.merge().unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let builder = (lists.iter())
                .fold(IndexBuilder::new().scheme(scheme), |b, (term, list)| {
                    b.add_posting_list(term, list)
                });
            assert!(builder.build().unwrap() == seg, "{name} {scheme}");
        }
    }
}

#[test]
fn all_engines_identical_on_segment_loaded_index() {
    let (mem, seg, dir) = both_indexes(4);
    let queries = suite(&mem);
    assert_engine_identical(
        &Boss::new(&mem, BossConfig::with_cores(4).with_k(20)),
        &Boss::new(&seg, BossConfig::with_cores(4).with_k(20)),
        &queries,
    );
    assert_engine_identical(
        &Iiu::new(&mem, IiuConfig::with_cores(4)),
        &Iiu::new(&seg, IiuConfig::with_cores(4)),
        &queries,
    );
    assert_engine_identical(
        &Lucene::new(&mem, LuceneConfig::with_threads(4)),
        &Lucene::new(&seg, LuceneConfig::with_threads(4)),
        &queries,
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn sharded_boss<'a>(
    index: &'a InvertedIndex,
    split: &'a boss_index::shard::ShardedIndex,
) -> Sharded<'a, Boss<'a>> {
    let make = |idx: &'a InvertedIndex| Boss::new(idx, BossConfig::with_cores(2).with_k(20));
    let leaves: Vec<Vec<Boss<'a>>> = split.shards().iter().map(|s| vec![make(s)]).collect();
    Sharded::new(make(index), split, leaves, ShardTiming::ScatterGather)
}

#[test]
fn sharded_engine_identical_on_segment_loaded_index() {
    let (mem, seg, dir) = both_indexes(2);
    let queries = suite(&mem);
    for n_shards in [2u32, 4] {
        let split_mem = boss_index::shard::ShardedIndex::split(&mem, n_shards).expect("split");
        let split_seg = boss_index::shard::ShardedIndex::split(&seg, n_shards).expect("split");
        let a = sharded_boss(&mem, &split_mem);
        let b = sharded_boss(&seg, &split_seg);
        assert_engine_identical(&a, &b, &queries);
    }
    std::fs::remove_dir_all(&dir).ok();
}
