//! The generators at the benchmark's own sizes are frozen like the smoke
//! presets the unit tests pin: every exact benchmark metric is computed
//! over these corpora and queries, so a faster generator must reproduce
//! them byte for byte. FNV-1a digests, recorded from the generators that
//! sorted every sample, binary-searched the whole cdf per Zipf draw and
//! `format!`ted each term.
//!
//! Ignored by default (a few seconds in release); run them with
//! `cargo test --release -p boss-workload -- --ignored`.

use boss_workload::corpus::{CorpusSpec, Scale, StreamingCorpusSpec};
use boss_workload::queries::QuerySampler;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The in-memory corpora of the `scan_k1000`, `prune_k10` and
/// `serve_sharded` workloads: a `Full` preset resized.
fn benchmark_corpora() -> [CorpusSpec; 3] {
    let resized = |mut spec: CorpusSpec, n_docs, vocab_size| {
        spec.n_docs = n_docs;
        spec.vocab_size = vocab_size;
        spec
    };
    [
        resized(CorpusSpec::ccnews_like(Scale::Full), 100_000, 30_000),
        resized(CorpusSpec::clueweb12_like(Scale::Full), 100_000, 38_000),
        resized(CorpusSpec::ccnews_like(Scale::Full), 60_000, 22_000),
    ]
}

/// Posting count and digest of every term, docID and tf of each
/// benchmark corpus, then of the first 64 queries a sampler seeded
/// `0xB055` draws over its index.
#[test]
#[ignore = "full-size corpora; run with --release -- --ignored"]
fn benchmark_corpora_and_queries_are_pinned() {
    let pinned: [(usize, u64, u64); 3] = [
        (3_947_358, 0x5c6b_fc1c_5ded_c943, 0xcf56_b6f8_f86c_1159),
        (7_262_230, 0x5e65_7f39_ac93_2b38, 0xb2b1_d6e2_5f84_1dc7),
        (2_405_657, 0xce3f_7755_84ee_740f, 0xa394_fc95_1a92_74db),
    ];
    for (spec, (postings, lists_digest, queries_digest)) in benchmark_corpora().iter().zip(pinned) {
        let lists = spec.term_lists().unwrap();
        let mut h = FNV_OFFSET;
        let mut n = 0;
        for (term, list) in &lists {
            h = fnv1a(h, term.bytes());
            for column in [list.docs(), list.tfs()] {
                h = fnv1a(h, column.iter().flat_map(|v| v.to_le_bytes()));
            }
            n += list.len();
        }
        let index = spec.build().unwrap();
        let queries = QuerySampler::new(&index, 0xB055)
            .unwrap()
            .trec_like_mix(64)
            .unwrap();
        let mut q = FNV_OFFSET;
        for query in &queries {
            q = fnv1a(q, format!("{} {}\n", query.qtype, query.expr).into_bytes());
        }
        assert_eq!(
            (n, h, q),
            (postings, lists_digest, queries_digest),
            "{} {}x{}",
            spec.name,
            spec.n_docs,
            spec.vocab_size
        );
    }
}

/// Digest of the `ingest_open` workload's document stream: every term
/// and tf of its 40 000 documents, and the summed document lengths.
#[test]
#[ignore = "full-size stream; run with --release -- --ignored"]
fn benchmark_doc_stream_is_pinned() {
    let spec = StreamingCorpusSpec {
        n_docs: 40_000,
        vocab_size: 30_000,
        zipf_s: 1.1,
        terms_per_doc: 60,
        seed: 0xB055,
    };
    let streamer = spec.streamer();
    let mut terms = Vec::new();
    let (mut h, mut tokens) = (FNV_OFFSET, 0u64);
    for doc in 0..spec.n_docs {
        tokens += u64::from(streamer.doc_terms(doc, &mut terms));
        for (term, tf) in &terms {
            h = fnv1a(h, term.bytes().chain(tf.to_le_bytes()));
        }
    }
    assert_eq!((tokens, h), (2_400_000, 0x7a5c_cd4d_0269_4ef8));
}
