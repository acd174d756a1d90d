//! Property tests for the SPIMI segment pipeline: over random corpora,
//! every codec choice (hybrid plus the five fixed schemes), and 1–8
//! on-disk segments, the spill/merge path must reproduce the in-memory
//! [`IndexBuilder`] output **bit-identically** — vocabulary, postings,
//! block descriptors, per-block maxima, scoring tables. A second
//! property drives the same corpora through a byte budget small enough
//! to force spills mid-stream; a third round-trips single segment files
//! through the writer/reader pair. The last two drive the builder's
//! compressed accumulator with term bags (repeats, extreme tfs and
//! docID gaps, rejected documents) against a `BTreeMap` oracle written
//! here.

use boss_compress::ALL_SCHEMES;
use boss_index::io::IoError;
use boss_index::segment::{write_segment, SegmentReader};
use boss_index::{
    EncodedList, Error, IndexBuilder, InvertedIndex, PostingList, SchemeChoice, SpimiBuilder,
    SpimiConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Vocabulary of 16 terms; masks select which appear in each document.
const VOCAB: usize = 16;

fn word(i: usize) -> String {
    format!("t{i:02}")
}

/// Renders per-doc draws into document text: `mask` selects vocabulary
/// words, `tf_sel` picks a small tie-heavy tf pattern. One
/// all-vocabulary document is appended so the corpus is never empty.
fn render(docs: &[(u16, u8)]) -> Vec<String> {
    docs.iter()
        .map(|&(mask, tf_sel)| {
            let mut words = Vec::new();
            for i in 0..VOCAB {
                if mask & (1 << i) != 0 {
                    let tf = 1 + (tf_sel as usize + i) % 3;
                    for _ in 0..tf {
                        words.push(word(i));
                    }
                }
            }
            if words.is_empty() {
                words.push(word(0));
            }
            words.join(" ")
        })
        .chain(std::iter::once(
            (0..VOCAB).map(word).collect::<Vec<_>>().join(" "),
        ))
        .collect()
}

fn scheme_choice(sel: usize) -> SchemeChoice {
    if sel == 0 {
        SchemeChoice::Hybrid
    } else {
        SchemeChoice::Fixed(ALL_SCHEMES[(sel - 1) % ALL_SCHEMES.len()])
    }
}

fn in_memory(texts: &[String], choice: SchemeChoice) -> InvertedIndex {
    IndexBuilder::new()
        .scheme(choice)
        .add_documents(texts.iter().map(String::as_str))
        .build()
        .expect("in-memory build")
}

fn via_segments(texts: &[String], cfg: SpimiConfig, tag: &str) -> InvertedIndex {
    let dir = std::env::temp_dir().join(format!(
        "boss-segprop-{tag}-{}-{:x}",
        std::process::id(),
        texts.len()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut builder = SpimiBuilder::create(&dir, cfg).expect("create");
    for text in texts {
        builder.add_document_text(text).expect("add document");
    }
    let set = builder.finish().expect("finish");
    let merged = set.merge().expect("merge");
    std::fs::remove_dir_all(&dir).ok();
    merged
}

/// One step of a term-bag stream: `fillers` term-less documents, then a
/// document of `entries` (term index, tf) with declared length `len`
/// (0 = unknown), then — if `reject_at` is set — an attempt to add the
/// same bag with a zero tf at that position.
#[derive(Debug, Clone)]
struct Step {
    fillers: u32,
    entries: Vec<(usize, u32)>,
    len: u32,
    reject_at: Option<usize>,
}

/// tfs on both sides of the run's `tf == 1` flag, of one VB byte, and of
/// the saturating fold.
const TFS: [u32; 6] = [1, 2, 127, 128, u32::MAX - 1, u32::MAX];

/// The empty term, a 300-byte one, a multi-byte one, and enough short
/// ones that a segment holding them all has doubled its term table
/// twice.
fn bag_vocab() -> Vec<String> {
    let mut vocab = vec![String::new(), "x".repeat(300), "naïve".to_owned()];
    vocab.extend((0..24).map(|i| format!("w{i}")));
    vocab
}

fn step(gaps: &'static [u32]) -> impl Strategy<Value = Step> {
    // A small hot set makes adjacent and non-adjacent repeats common.
    let term = prop_oneof![3 => 0usize..5, 1 => 0usize..27];
    let entries = prop::collection::vec((term, prop::sample::select(TFS.to_vec())), 0..12);
    (
        prop::sample::select(gaps.to_vec()),
        entries,
        prop_oneof![Just(0u32), 1u32..50],
        prop_oneof![3 => Just(None), 1 => (0usize..12).prop_map(Some)],
    )
        .prop_map(|(gap, entries, len, reject_at)| Step {
            fillers: gap - 1,
            entries,
            len,
            reject_at,
        })
}

/// Streams `steps` through a [`SpimiBuilder`] under `cfg` and through
/// the oracle, and checks docIDs, rejections, statistics, the budget
/// bound and the merged index.
fn check_stream(steps: &[Step], cfg: SpimiConfig, tag: &str) -> Result<(), TestCaseError> {
    let vocab = bag_vocab();
    let dir = std::env::temp_dir().join(format!("boss-segprop-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut builder = SpimiBuilder::create(&dir, cfg).expect("create");

    let mut oracle: BTreeMap<&str, Vec<(u32, u32)>> = BTreeMap::new();
    let mut lens: Vec<u32> = Vec::new();
    let mut postings = 0u64;
    let mut worst_doc = 0usize;
    for step in steps {
        for filler in 0..step.fillers {
            let id = builder.add_document(std::iter::empty(), 1).expect("filler");
            prop_assert_eq!(id, lens.len() as u32 + filler);
        }
        lens.resize(lens.len() + step.fillers as usize, 1);
        let mut bag: Vec<(&str, u32)> = step
            .entries
            .iter()
            .map(|&(t, tf)| (vocab[t].as_str(), tf))
            .collect();
        let doc = lens.len() as u32;
        let id = builder.add_document(bag.iter().copied(), step.len);
        prop_assert_eq!(id.expect("add document"), doc);
        lens.push(step.len);
        for &(term, tf) in &bag {
            let list = oracle.entry(term).or_default();
            match list.last_mut() {
                Some((d, f)) if *d == doc => *f = f.saturating_add(tf),
                _ => {
                    list.push((doc, tf));
                    postings += 1;
                }
            }
        }
        let worst: usize = bag
            .iter()
            .map(|(t, _)| SpimiBuilder::entry_worst_case_bytes(t.len()))
            .sum();
        worst_doc = worst_doc.max(worst + 4);

        if let Some(at) = step.reject_at.filter(|&at| at < bag.len()) {
            bag[at].1 = 0;
            let before = *builder.stats();
            let err = builder.add_document(bag.iter().copied(), 9).unwrap_err();
            prop_assert!(
                matches!(err, IoError::Invalid(Error::ZeroTermFrequency { at: a }) if a == at),
                "{err}"
            );
            prop_assert_eq!(*builder.stats(), before);
        }
    }
    let set = builder.finish().expect("finish");
    let stats = *set.stats();
    let merged = set.merge().expect("merge");
    std::fs::remove_dir_all(&dir).ok();

    prop_assert_eq!(stats.docs, lens.len() as u64);
    prop_assert_eq!(stats.postings, postings);
    if let Some(bound) = cfg.budget_bytes.checked_add(worst_doc) {
        prop_assert!(
            stats.peak_inmem_bytes <= bound,
            "peak {} over budget {} + one document's {worst_doc}",
            stats.peak_inmem_bytes,
            cfg.budget_bytes
        );
    }
    let lists: Vec<(&str, PostingList)> = oracle
        .into_iter()
        .map(|(term, list)| {
            let (docs, tfs) = list.into_iter().unzip();
            (
                term,
                PostingList::from_columns(docs, tfs).expect("oracle list"),
            )
        })
        .collect();
    let mut expect = IndexBuilder::new().scheme(cfg.scheme).doc_lens(lens);
    for (term, list) in &lists {
        expect = expect.add_posting_list(term, list);
    }
    prop_assert_eq!(merged, expect.build().expect("oracle build"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The accumulator against the oracle: every budget from "spill
    /// after each document" to unbounded, with and without a document
    /// cap, hybrid and two total fixed schemes.
    #[test]
    fn term_bag_streams_match_the_oracle(
        steps in prop::collection::vec(step(&[1, 1, 1, 2, 5]), 1..40),
        budget in prop::sample::select(vec![256usize, 700, 2048, 16 << 10, usize::MAX]),
        max_docs_per_segment in prop::sample::select(vec![0u32, 1, 7]),
        scheme_sel in 0usize..3,
    ) {
        let cfg = SpimiConfig {
            budget_bytes: budget,
            max_docs_per_segment,
            scheme: scheme_choice(scheme_sel),
            ..SpimiConfig::default()
        };
        let tag = format!("bag-b{budget}-c{max_docs_per_segment}-s{scheme_sel}-n{}", steps.len());
        check_stream(&steps, cfg, &tag)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// docID gaps on both sides of the run's one-, two- and three-byte
    /// records (2⁶, 2¹³, 2²⁰ once shifted past the flag), which only a
    /// segment of a million documents can hold.
    #[test]
    fn wide_docid_gaps_match_the_oracle(
        far in step(&[(1 << 20) - 1, 1 << 20]),
        near in prop::collection::vec(step(&[63, 64, 8191, 8192]), 2..8),
        at in 0usize..3,
        budget in prop::sample::select(vec![8usize << 20, usize::MAX]),
    ) {
        let mut steps = near;
        steps.insert(at.min(steps.len() - 1).max(1), far);
        let cfg = SpimiConfig { budget_bytes: budget, ..SpimiConfig::default() };
        check_stream(&steps, cfg, &format!("gap-b{budget}-a{at}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: for any corpus, any codec choice, and any
    /// segment count 1–8, the spilled-and-merged index equals the
    /// in-memory build bit for bit.
    #[test]
    fn merge_is_bit_identical_to_in_memory_build(
        docs in prop::collection::vec((any::<u16>(), 0u8..4), 2..80),
        scheme_sel in 0usize..=ALL_SCHEMES.len(),
        n_segments in 1u32..=8,
    ) {
        let texts = render(&docs);
        let choice = scheme_choice(scheme_sel);
        let mem = in_memory(&texts, choice);
        let per_segment = (texts.len() as u32).div_ceil(n_segments);
        let cfg = SpimiConfig {
            max_docs_per_segment: per_segment,
            scheme: choice,
            ..SpimiConfig::default()
        };
        let seg = via_segments(&texts, cfg, &format!("n{n_segments}-s{scheme_sel}"));
        prop_assert_eq!(mem, seg);
    }

    /// Same identity when the *byte budget*, not a doc cap, decides the
    /// segment boundaries: a few-hundred-byte budget forces spills after
    /// nearly every document.
    #[test]
    fn budget_driven_spills_preserve_bit_identity(
        docs in prop::collection::vec((any::<u16>(), 0u8..4), 2..40),
        scheme_sel in 0usize..=ALL_SCHEMES.len(),
        budget in 256usize..4096,
    ) {
        let texts = render(&docs);
        let choice = scheme_choice(scheme_sel);
        let mem = in_memory(&texts, choice);
        let cfg = SpimiConfig {
            budget_bytes: budget,
            scheme: choice,
            ..SpimiConfig::default()
        };
        let seg = via_segments(&texts, cfg, &format!("b{budget}-s{scheme_sel}"));
        prop_assert_eq!(mem, seg);
    }

    /// Writer → reader round-trip of one segment file: every term comes
    /// back in order with an [`EncodedList`] equal to what went in, and
    /// the document-length array survives.
    #[test]
    fn segment_file_roundtrips(
        docs in prop::collection::vec((any::<u16>(), 0u8..4), 2..60),
        scheme_sel in 0usize..=ALL_SCHEMES.len(),
    ) {
        let texts = render(&docs);
        let index = in_memory(&texts, scheme_choice(scheme_sel));
        let mut terms: Vec<(String, EncodedList)> = index
            .term_ids()
            .map(|id| (index.term_info(id).text.to_owned(), index.list(id).clone()))
            .collect();
        terms.sort_by(|a, b| a.0.cmp(&b.0));

        let mut bytes = Vec::new();
        write_segment(&mut bytes, 0, index.doc_lens(), index.bm25().params(), &terms)
            .expect("segment serializes");

        let len = bytes.len() as u64;
        let mut reader = SegmentReader::new(&bytes[..], len).expect("segment parses");
        prop_assert_eq!(reader.header().n_docs, index.n_docs());
        prop_assert_eq!(reader.doc_lens(), index.doc_lens());
        let mut seen = Vec::new();
        while let Some(entry) = reader.next_term().expect("term parses") {
            seen.push(entry);
        }
        prop_assert_eq!(seen, terms);
    }
}
