//! A SPIMI segment directory, opened and merged, is the in-memory build
//! of the same corpus: index-level equality (vocab, postings, `BlockMeta`,
//! block-max) under every codec. The engines are pure functions of the
//! index; that they answer alike over both builds, on one device and
//! sharded, is the `segments` row of `tests/invariance.rs`.

use boss_index::{IndexBuilder, SchemeChoice};
use boss_workload::corpus::{CorpusSpec, Scale};
use std::path::PathBuf;

fn segment_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("boss-seg-identity-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn merged_index_is_bit_identical() {
    let spec = CorpusSpec::ccnews_like(Scale::Smoke);
    let dir = segment_dir("s3");
    spec.build_segments(&dir, 3).expect("segment build");
    let from_segments = boss_engine::open_segments(&dir).expect("open segment dir");
    std::fs::remove_dir_all(&dir).ok();
    // Index-level equality covers vocab, postings, BlockMeta, block-max.
    assert_eq!(spec.build().expect("in-memory build"), from_segments);
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
