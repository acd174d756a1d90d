//! End-to-end integration: synthetic corpus → engines, with the paper's
//! qualitative relations holding. (That the three engines return the
//! oracle's hits on every query shape is `boss-engine`'s
//! `tests/differential.rs`.)

use boss_core::{BossConfig, BossDevice, EtMode};
use boss_engine::{BatchExecutor, Boss, Lucene};
use boss_luceneish::LuceneConfig;
use boss_scm::MemoryConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::QuerySampler;

fn corpus() -> boss_index::InvertedIndex {
    CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds")
}

#[test]
fn et_modes_identical_results_different_work() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 77).unwrap();
    let q = sampler
        .sample(boss_workload::queries::QueryType::Q5)
        .unwrap()
        .expr;
    let mut hits = None;
    let mut scored = Vec::new();
    for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
        let mut dev = BossDevice::new(&index, BossConfig::default().with_et(et).with_k(10));
        let out = dev.search_expr(&q, 10).expect("runs");
        if let Some(prev) = &hits {
            assert_eq!(&out.hits, prev, "{et:?}");
        } else {
            hits = Some(out.hits.clone());
        }
        scored.push(out.eval.docs_scored);
    }
    assert!(
        scored[2] <= scored[1] && scored[1] <= scored[0],
        "monotone pruning: {scored:?}"
    );
    assert!(
        scored[2] < scored[0],
        "full ET must actually skip on a Q5 with k=10"
    );
}

#[test]
fn dram_never_slower_than_scm() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 5).unwrap();
    let queries: Vec<_> = sampler
        .trec_like_mix(12)
        .unwrap()
        .into_iter()
        .map(|t| t.expr)
        .collect();

    let executor = BatchExecutor::new();
    let boss_scm = Boss::new(&index, BossConfig::default());
    let boss_dram = Boss::new(
        &index,
        BossConfig::default().on_memory(MemoryConfig::ddr4_2666()),
    );
    let b_scm = executor.run(&boss_scm, &queries, 100).expect("runs");
    let b_dram = executor.run(&boss_dram, &queries, 100).expect("runs");
    assert!(
        b_dram.makespan_cycles <= b_scm.makespan_cycles,
        "BOSS on DRAM is at least as fast"
    );

    let l_scm = Lucene::new(&index, LuceneConfig::default());
    let l_dram = Lucene::new(
        &index,
        LuceneConfig::default().on_memory(MemoryConfig::host_ddr4_6ch()),
    );
    let m_scm = executor
        .run(&l_scm, &queries, 100)
        .expect("runs")
        .makespan_cycles;
    let m_dram = executor
        .run(&l_dram, &queries, 100)
        .expect("runs")
        .makespan_cycles;
    assert!(m_dram <= m_scm);
    // Lucene is compute-bound: the DRAM advantage stays small.
    assert!(m_scm as f64 / m_dram as f64 <= 1.30, "{m_scm} vs {m_dram}");
}

#[test]
fn offload_api_round_trip() {
    use boss_core::{BossHandle, SearchRequest};
    let index = corpus();
    let mut h = BossHandle::init(&index, BossConfig::default());
    // Build an expression from real vocabulary.
    let mut sampler = QuerySampler::new(&index, 3).unwrap();
    let terms = sampler.sample_terms(3).unwrap();
    let q = format!(
        "\"{}\" AND (\"{}\" OR \"{}\")",
        terms[0], terms[1], terms[2]
    );
    let out = h
        .search(&SearchRequest::new(&q).with_k(25))
        .expect("api search runs");
    let expr = boss_core::parse_query(&q).expect("parses");
    let expect = boss_index::reference::evaluate(&index, &expr, 25).expect("reference runs");
    assert_eq!(out.hits, expect);
}
