//! Cross-crate property tests: index construction, sharding, serialization
//! and the accelerator agree under randomized inputs.

use boss_core::{BossConfig, BossDevice};
use boss_index::segment::{load_segment, write_segment};
use boss_index::shard::ShardedIndex;
use boss_index::{IndexBuilder, InvertedIndex, PostingList, QueryExpr};
use proptest::prelude::*;

/// Random posting columns: strictly increasing docs, tf >= 1.
fn posting_columns(max_doc: u32) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    prop::collection::btree_set(0..max_doc, 1..200).prop_flat_map(|docs| {
        let docs: Vec<u32> = docs.into_iter().collect();
        let n = docs.len();
        (Just(docs), prop::collection::vec(1u32..50, n))
    })
}

fn build(lists: &[(String, Vec<u32>, Vec<u32>)], n_docs: u32) -> InvertedIndex {
    let lists: Vec<(&str, PostingList)> = lists
        .iter()
        .map(|(name, docs, tfs)| {
            let pl = PostingList::from_columns(docs.clone(), tfs.clone()).expect("valid columns");
            (name.as_str(), pl)
        })
        .collect();
    let mut b = IndexBuilder::new().doc_lens(vec![60; n_docs as usize]);
    for (name, pl) in &lists {
        b = b.add_posting_list(name, pl);
    }
    b.build().expect("index builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encoded_lists_roundtrip_through_index(
        (docs, tfs) in posting_columns(100_000),
    ) {
        let index = build(&[("t".into(), docs.clone(), tfs.clone())], 100_000);
        let id = index.term_id("t").unwrap();
        let (d, f) = index.list(id).decode_all().unwrap();
        prop_assert_eq!(d, docs);
        prop_assert_eq!(f, tfs);
    }

    #[test]
    fn sharding_conserves_postings(
        (docs, tfs) in posting_columns(5_000),
        n_shards in 1u32..7,
    ) {
        let index = build(&[("t".into(), docs.clone(), tfs.clone())], 5_000);
        let sharded = ShardedIndex::split(&index, n_shards).unwrap();
        let mut reassembled: Vec<(u32, u32)> = Vec::new();
        for (si, shard) in sharded.shards().iter().enumerate() {
            if let Ok(id) = shard.term_id("t") {
                let (d, f) = shard.list(id).decode_all().unwrap();
                reassembled.extend(d.into_iter().zip(f).map(|(doc, tf)| (sharded.global_doc(si, doc), tf)));
            }
        }
        let expect: Vec<(u32, u32)> = docs.into_iter().zip(tfs).collect();
        prop_assert_eq!(reassembled, expect);
    }

    #[test]
    fn file_roundtrip_preserves_answers(
        (docs_a, tfs_a) in posting_columns(3_000),
        (docs_b, tfs_b) in posting_columns(3_000),
        k in 1usize..30,
    ) {
        let index = build(
            &[("aa".into(), docs_a, tfs_a), ("bb".into(), docs_b, tfs_b)],
            3_000,
        );
        let terms: Vec<_> = index
            .term_ids()
            .map(|id| (index.term_info(id).text.to_owned(), index.list(id).clone()))
            .collect();
        let path = std::env::temp_dir()
            .join(format!("boss-cross-proptests-{}.bosseg", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        write_segment(file, 0, index.doc_lens(), index.bm25().params(), &terms).unwrap();
        let revived = load_segment(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&revived, &index);
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let a = boss_index::reference::evaluate(&index, &q, k).unwrap();
        let b = boss_index::reference::evaluate(&revived, &q, k).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn device_agrees_with_reference_on_random_two_lists(
        (docs_a, tfs_a) in posting_columns(2_000),
        (docs_b, tfs_b) in posting_columns(2_000),
        union in any::<bool>(),
        k in 1usize..50,
    ) {
        let index = build(
            &[("aa".into(), docs_a, tfs_a), ("bb".into(), docs_b, tfs_b)],
            2_000,
        );
        let q = if union {
            QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")])
        } else {
            QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")])
        };
        let mut dev = BossDevice::new(&index, BossConfig::default().with_k(k));
        let got = dev.search_expr(&q, k).unwrap();
        let expect = boss_index::reference::evaluate(&index, &q, k).unwrap();
        prop_assert_eq!(got.hits, expect);
    }
}
