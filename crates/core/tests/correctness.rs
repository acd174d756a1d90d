//! The load-bearing property of the accelerator model: BOSS's hits equal
//! the exhaustive reference for every query shape, every early-termination
//! mode, and randomized corpora. Early termination must be *safe* pruning.
//! (Random nested queries on random corpora, for all three engines, are
//! `boss-engine`'s `tests/differential.rs`.)

use boss_core::{BossConfig, BossDevice, EtMode};
use boss_index::{reference, IndexBuilder, InvertedIndex, QueryExpr};
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use proptest::prelude::*;

/// A small synthetic corpus driven by proptest-chosen parameters.
fn build_corpus(n_docs: u32, seed: u32) -> InvertedIndex {
    let docs: Vec<String> = (0..n_docs)
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
        .collect();
    IndexBuilder::new()
        .add_documents(docs.iter().map(String::as_str))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn et_modes_monotone_in_scored_docs(
        n_docs in 300u32..800,
        seed in 0u32..30,
    ) {
        let index = build_corpus(n_docs, seed);
        let expr = QueryExpr::or([
            QueryExpr::term("t0"),
            QueryExpr::term("t1"),
            QueryExpr::term("t2"),
            QueryExpr::term("t3"),
        ]);
        let run = |et: EtMode| {
            let cfg = BossConfig::default().with_et(et).with_k(10);
            BossDevice::new(&index, cfg).search_expr(&expr, 10).unwrap()
        };
        let ex = run(EtMode::Exhaustive);
        let block = run(EtMode::BlockOnly);
        let full = run(EtMode::Full);
        prop_assert!(block.eval.docs_scored <= ex.eval.docs_scored);
        prop_assert!(full.eval.docs_scored <= block.eval.docs_scored,
            "WAND on top of block skipping never scores more: {} vs {}",
            full.eval.docs_scored, block.eval.docs_scored);
        // And all three agree on the answer.
        prop_assert_eq!(&ex.hits, &block.hits);
        prop_assert_eq!(&ex.hits, &full.hits);
    }
}

#[test]
fn boss_matches_reference_on_trec_mix_over_synthetic_corpus() {
    let index = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
    let mut sampler = QuerySampler::new(&index, 99).unwrap();
    let cfg = BossConfig::default().with_k(100);
    let mut device = BossDevice::new(&index, cfg);
    for tq in sampler.trec_like_mix(24).unwrap() {
        let got = device.search_expr(&tq.expr, 100).unwrap();
        let expect = reference::evaluate(&index, &tq.expr, 100).unwrap();
        assert_eq!(got.hits, expect, "{:?} {}", tq.qtype, tq.expr);
    }
}

#[test]
fn all_query_types_on_synthetic_corpus_all_modes() {
    let index = CorpusSpec::clueweb12_like(Scale::Smoke).build().unwrap();
    let mut sampler = QuerySampler::new(&index, 7).unwrap();
    for qt in ALL_QUERY_TYPES {
        let tq = sampler.sample(qt).unwrap();
        let expect = reference::evaluate(&index, &tq.expr, 1000).unwrap();
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let cfg = BossConfig::default().with_et(et).with_k(1000);
            let mut device = BossDevice::new(&index, cfg);
            let got = device.search_expr(&tq.expr, 1000).unwrap();
            assert_eq!(got.hits, expect, "{qt:?} {et:?}");
        }
    }
}

#[test]
fn timing_fidelities_agree_functionally_and_order_sanely() {
    use boss_core::TimingFidelity;
    let index = CorpusSpec::ccnews_like(Scale::Smoke).build().unwrap();
    let mut sampler = QuerySampler::new(&index, 55).unwrap();
    for tq in sampler.trec_like_mix(12).unwrap() {
        let mut roof = BossDevice::new(
            &index,
            BossConfig::default().with_fidelity(TimingFidelity::Roofline),
        );
        let mut pipe = BossDevice::new(
            &index,
            BossConfig::default().with_fidelity(TimingFidelity::Pipelined),
        );
        let a = roof.search_expr(&tq.expr, 100).unwrap();
        let b = pipe.search_expr(&tq.expr, 100).unwrap();
        assert_eq!(
            a.hits, b.hits,
            "fidelity must not change results: {}",
            tq.expr
        );
        assert_eq!(a.mem, b.mem, "fidelity must not change traffic");
        // The event-driven replay accounts inter-stage dependencies the
        // roofline's max() cannot, so it is never more optimistic by more
        // than the constant fill/overhead terms.
        assert!(
            b.cycles + 250 >= a.cycles,
            "pipelined {} vs roofline {} for {}",
            b.cycles,
            a.cycles,
            tq.expr
        );
    }
}
