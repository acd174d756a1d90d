//! Failure injection: malformed data and invalid requests fail loudly and
//! precisely, never silently or by panic.

use boss_compress::{codec_for, BlockInfo, Scheme, ALL_SCHEMES};
use boss_core::{parse_query, BossConfig, BossHandle, SearchRequest};
use boss_decomp::DecompEngine;
use boss_index::{IndexBuilder, PostingList, QueryExpr};

#[test]
fn corrupted_blocks_surface_codec_errors() {
    for s in ALL_SCHEMES {
        let values: Vec<u32> = (0..128u32).map(|i| i % 19 + (i % 11) * 300).collect();
        let codec = codec_for(s);
        let mut buf = Vec::new();
        let info = codec.encode(&values, &mut buf).expect("encodes");
        // Truncation must be detected.
        if buf.len() > 2 {
            let short = &buf[..buf.len() / 2];
            assert!(
                codec.decode(short, &info, &mut Vec::new()).is_err(),
                "{s} truncated"
            );
        }
        // A count larger than the data supports must be detected.
        let overlong = BlockInfo {
            count: info.count + 64,
            ..info
        };
        let result = codec.decode(&buf, &overlong, &mut Vec::new());
        // Some schemes can legally pad (BP width 0); others must error.
        if info.bit_width > 0 || matches!(s, Scheme::Vb | Scheme::S16 | Scheme::S8b) {
            assert!(result.is_err(), "{s} overlong count");
        }
    }
}

#[test]
fn decomp_engine_rejects_broken_configs() {
    // No extractor enabled.
    assert!(DecompEngine::from_config_text("UseDelta = 1\n").is_err());
    // Undefined wire.
    assert!(
        DecompEngine::from_config_text("Extractor[0].use = 1\nOutput := ADD(nothing, 1)\n")
            .is_err()
    );
    // Unknown primitive.
    assert!(DecompEngine::from_config_text("Extractor[0].use = 1\nx := NAND(Input, 1)\n").is_err());
    // Garbage line.
    assert!(DecompEngine::from_config_text("Extractor[0].use = 1\n$$$\n").is_err());
}

#[test]
fn invalid_posting_data_rejected_at_build() {
    let unsorted = PostingList::from_columns(vec![5, 4], vec![1, 1]);
    assert!(unsorted.is_err());
    let zero_tf = PostingList::from_columns(vec![1, 2], vec![1, 0]);
    assert!(zero_tf.is_err());
    assert!(IndexBuilder::new().build().is_err(), "empty index rejected");
}

#[test]
fn api_rejects_malformed_and_oversized_queries() {
    let index = IndexBuilder::new()
        .add_documents(["alpha beta gamma", "beta gamma delta"])
        .build()
        .expect("builds");
    let mut h = BossHandle::init(&index, BossConfig::default());

    for bad in [
        "",
        "alpha",                 // unquoted
        r#""alpha" AND"#,        // dangling operator
        r#"("alpha" OR "beta""#, // unbalanced
        r#""" OR "beta""#,       // empty term
    ] {
        assert!(h.search(&SearchRequest::new(bad)).is_err(), "{bad:?}");
    }

    // 17 distinct terms exceed the hardware limit.
    let wide: Vec<String> = (0..17).map(|i| format!("\"w{i}\"")).collect();
    assert!(h.search(&SearchRequest::new(wide.join(" OR "))).is_err());

    // Unknown term: a planning error, not a panic.
    assert!(h.search(&SearchRequest::new(r#""zebra""#)).is_err());

    // A 17-term AND exceeds even the 4-chained-core intersection width.
    let and17: Vec<String> = (0..17).map(|i| format!("\"t{i}\"")).collect();
    let q = and17.join(" AND ");
    assert!(parse_query(&q).is_ok(), "parses fine");
    assert!(
        h.search(&SearchRequest::new(q)).is_err(),
        "but cannot be planned"
    );
}

#[test]
fn queries_against_vocabulary_edge_cases() {
    let index = IndexBuilder::new()
        .add_documents(["only one document with words"])
        .build()
        .expect("builds");
    let mut h = BossHandle::init(&index, BossConfig::default());
    let out = h
        .search(&SearchRequest::new(r#""document""#).with_k(10))
        .expect("runs");
    assert_eq!(out.hits.len(), 1);
    // k far above the corpus size.
    let out = h
        .search(&SearchRequest::new(r#""document""#).with_k(100_000))
        .expect("runs");
    assert_eq!(out.hits.len(), 1);
}

#[test]
fn mixed_queries_with_unknown_branch_fail_atomically() {
    let index = IndexBuilder::new()
        .add_documents(["alpha beta", "beta gamma"])
        .build()
        .expect("builds");
    let mut dev = boss_core::BossDevice::new(&index, BossConfig::default());
    let q = QueryExpr::and([QueryExpr::term("alpha"), QueryExpr::term("missing")]);
    assert!(dev.search_expr(&q, 5).is_err());
    // A batch holding it fails as a whole, with no partial results.
    let engine = boss_engine::Boss::new(&index, BossConfig::default());
    let batch = boss_engine::BatchExecutor::new().run(&engine, &[QueryExpr::term("alpha"), q], 5);
    assert!(batch.is_err());
}
