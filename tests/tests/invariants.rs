//! Cross-system invariants: the bandwidth-efficiency relations the paper's
//! argument rests on, checked as properties rather than eyeballed charts.

use boss_core::{BossConfig, BossDevice, EtMode};
use boss_iiu::{IiuConfig, IiuEngine};
use boss_scm::AccessCategory;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, QueryType};

fn corpus() -> boss_index::InvertedIndex {
    CorpusSpec::clueweb12_like(Scale::Smoke)
        .build()
        .expect("corpus builds")
}

#[test]
fn boss_result_traffic_is_bounded_by_k() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 1).unwrap();
    let mut dev = BossDevice::new(&index, BossConfig::default().with_k(100));
    let iiu = IiuEngine::new(&index, IiuConfig::default());
    for qt in [QueryType::Q1, QueryType::Q3, QueryType::Q5] {
        let q = sampler.sample(qt).unwrap().expr;
        let b = dev.search_expr(&q, 100).expect("runs");
        let i = iiu.execute(&q, 100).expect("runs");
        assert!(b.mem.bytes(AccessCategory::StResult) <= 100 * 8, "{qt:?}");
        assert!(
            i.mem.bytes(AccessCategory::StResult) >= b.mem.bytes(AccessCategory::StResult),
            "{qt:?}: IIU writes the whole scored list"
        );
    }
}

#[test]
fn boss_never_spills_intermediates() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 2).unwrap();
    let mut dev = BossDevice::new(&index, BossConfig::default());
    let iiu = IiuEngine::new(&index, IiuConfig::default());
    for qt in [QueryType::Q2, QueryType::Q4, QueryType::Q6] {
        let q = sampler.sample(qt).unwrap().expr;
        let b = dev.search_expr(&q, 100).expect("runs");
        assert_eq!(b.mem.bytes(AccessCategory::StInter), 0, "{qt:?}");
        assert_eq!(b.mem.bytes(AccessCategory::LdInter), 0, "{qt:?}");
        let i = iiu.execute(&q, 100).expect("runs");
        assert!(
            i.mem.bytes(AccessCategory::StInter) > 0,
            "{qt:?}: IIU spills"
        );
    }
}

#[test]
fn boss_union_traffic_not_above_iiu() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 3).unwrap();
    let mut dev = BossDevice::new(&index, BossConfig::default().with_k(100));
    let iiu = IiuEngine::new(&index, IiuConfig::default());
    for qt in [QueryType::Q3, QueryType::Q5] {
        for _ in 0..3 {
            let q = sampler.sample(qt).unwrap().expr;
            let b = dev.search_expr(&q, 100).expect("runs");
            let i = iiu.execute(&q, 100).expect("runs");
            assert!(
                b.mem.total_bytes() <= i.mem.total_bytes(),
                "{qt:?} {q}: BOSS {} vs IIU {}",
                b.mem.total_bytes(),
                i.mem.total_bytes()
            );
        }
    }
}

#[test]
fn eval_counters_conserved_for_unions() {
    // Every candidate document is either scored or skipped. Scoring
    // counts a document once, but skipping is accounted per stream — a
    // document shared by several posting lists can be bypassed once in
    // each — so the total is a lower bound, not an equality.
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 4).unwrap();
    let q = sampler.sample(QueryType::Q5).unwrap().expr;
    let total = {
        let mut dev = BossDevice::new(
            &index,
            BossConfig::default().with_et(EtMode::Exhaustive).with_k(10),
        );
        dev.search_expr(&q, 10).expect("runs").eval.docs_scored
    };
    for et in [EtMode::BlockOnly, EtMode::Full] {
        let mut dev = BossDevice::new(&index, BossConfig::default().with_et(et).with_k(10));
        let out = dev.search_expr(&q, 10).expect("runs");
        assert!(
            out.eval.docs_total() >= total,
            "{et:?}: {} candidates accounted, exhaustive scored {total}",
            out.eval.docs_total()
        );
        assert!(
            out.eval.docs_scored <= total,
            "{et:?}: pruning must never score more than exhaustive"
        );
    }
}

#[test]
fn smaller_k_never_scores_more() {
    let index = corpus();
    let mut sampler = QuerySampler::new(&index, 5).unwrap();
    let q = sampler.sample(QueryType::Q5).unwrap().expr;
    let mut prev = u64::MAX;
    for k in [1000usize, 100, 10] {
        let mut dev = BossDevice::new(&index, BossConfig::default().with_k(k));
        let out = dev.search_expr(&q, k).expect("runs");
        assert!(out.eval.docs_scored <= prev, "k={k}");
        prev = out.eval.docs_scored;
    }
}

#[test]
fn tlb_steady_state_hits() {
    // One 2 GB page covers these shard images: after the first touch the
    // TLB never misses, which is the paper's address-translation claim.
    let index = corpus();
    let image = boss_index::layout::IndexImage::new(&index);
    assert!(image.total_bytes() < 2 << 30, "shard fits one huge page");
    let mut tlb = boss_core::Tlb::new();
    let mut misses = 0;
    for id in index.term_ids().take(100) {
        let (_, hit) = tlb.translate(image.meta_addr(id));
        if !hit {
            misses += 1;
        }
    }
    assert_eq!(misses, 1);
}

#[test]
fn hybrid_index_no_larger_than_best_fixed() {
    use boss_compress::ALL_SCHEMES;
    use boss_index::{IndexBuilder, PostingList};
    let docs: Vec<u32> = (0..4000u32).map(|i| i * 3).collect();
    let tfs = vec![1u32; 4000];
    let list = PostingList::from_columns(docs, tfs).expect("valid");
    let hybrid = IndexBuilder::new()
        .add_posting_list("t", &list)
        .doc_lens(vec![10; 12000])
        .build()
        .expect("builds");
    for s in ALL_SCHEMES {
        if let Ok(fixed) = IndexBuilder::new()
            .add_posting_list("t", &list)
            .doc_lens(vec![10; 12000])
            .scheme(boss_index::SchemeChoice::Fixed(s))
            .build()
        {
            assert!(hybrid.total_data_bytes() <= fixed.total_data_bytes(), "{s}");
        }
    }
}
