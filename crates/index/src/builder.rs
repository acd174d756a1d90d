//! Index construction.

use crate::index::{IndexAssembler, InvertedIndex};
use crate::{Bm25, Bm25Params, Error, ListEncoder, PostingList, BLOCK_SIZE};
use boss_compress::Scheme;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How the builder picks a compression scheme per posting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemeChoice {
    /// Encode every list with every scheme and keep the smallest — the
    /// "hybrid" approach BOSS uses for its index (Section IV-A).
    #[default]
    Hybrid,
    /// Use one fixed scheme for all lists.
    Fixed(Scheme),
}

impl std::fmt::Display for SchemeChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeChoice::Hybrid => f.write_str("hybrid"),
            SchemeChoice::Fixed(s) => write!(f, "{s}"),
        }
    }
}

impl std::str::FromStr for SchemeChoice {
    type Err = String;

    /// Parses the [`std::fmt::Display`] form back: `"hybrid"` or a scheme
    /// label (`BP`, `VB`, `OptPFD`, `S16`, `S8b`, `GVB`) — used by the
    /// segment manifest and CLI flags.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("hybrid") {
            return Ok(SchemeChoice::Hybrid);
        }
        for scheme in [
            Scheme::Bp,
            Scheme::Vb,
            Scheme::OptPfd,
            Scheme::S16,
            Scheme::S8b,
            Scheme::GroupVarint,
        ] {
            if s.eq_ignore_ascii_case(scheme.label()) {
                return Ok(SchemeChoice::Fixed(scheme));
            }
        }
        Err(format!(
            "unknown scheme {s:?} (use hybrid|BP|VB|OptPFD|S16|S8b|GVB)"
        ))
    }
}

/// Fills zero (unknown) document lengths with the documents' tf sums —
/// the builder's fallback for injected posting lists without explicit
/// lengths. `tf_sums` must be indexed by docID like `doc_lens`.
pub(crate) fn fill_doc_lens(doc_lens: &mut [u32], tf_sums: &[u64]) {
    for (len, &sum) in doc_lens.iter_mut().zip(tf_sums) {
        if *len == 0 {
            *len = sum.min(u64::from(u32::MAX)) as u32;
        }
    }
}

/// Corpus-level scoring state derived from final document lengths: the
/// BM25 scorer (avgdl guarded away from zero) and the per-document
/// precomputed norms. Shared verbatim by the in-memory build and the
/// segment merge so both produce bit-identical scores.
///
/// # Panics
///
/// Panics if `doc_lens` is empty (callers reject empty corpora first).
pub(crate) fn scoring_from_lens(params: Bm25Params, doc_lens: &[u32]) -> (Bm25, Vec<f32>) {
    let n_docs = doc_lens.len();
    let total_len: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
    let avgdl = (total_len as f64 / n_docs as f64).max(1.0) as f32;
    let bm25 = Bm25::new(params, n_docs as u32, avgdl);
    let doc_norms: Vec<f32> = doc_lens.iter().map(|&l| bm25.doc_norm(l)).collect();
    (bm25, doc_norms)
}

/// One term's docID and tf columns, in the shape the encoder takes.
#[derive(Debug)]
enum Columns<'a> {
    /// Accumulated by [`IndexBuilder::add_documents`].
    Tokenized(Vec<u32>, Vec<u32>),
    /// Read where the caller keeps it; never written to.
    Injected(&'a PostingList),
}

impl Columns<'_> {
    fn slices(&self) -> (&[u32], &[u32]) {
        match self {
            Columns::Tokenized(docs, tfs) => (docs, tfs),
            Columns::Injected(list) => (list.docs(), list.tfs()),
        }
    }
}

/// Builder for [`InvertedIndex`].
///
/// Two input paths:
/// * [`IndexBuilder::add_documents`] tokenizes real text (whitespace +
///   punctuation split, lowercased) into columns the builder owns — used
///   by examples and tests;
/// * [`IndexBuilder::add_posting_list`] injects pre-built posting lists —
///   used by the synthetic corpus generators, together with
///   [`IndexBuilder::doc_lens`] to supply document lengths. The builder
///   *borrows* each list for `'a` and [`IndexBuilder::build`] encodes
///   straight out of the caller's columns, so the corpus is never held
///   twice: keep the lists alive (and unmodified — the borrow sees to
///   that) until `build` has returned. The returned index owns all of
///   its data and does not carry the lifetime.
///
/// Conflicting inputs are rejected at [`IndexBuilder::build`] with a
/// typed error instead of silently resolving last-write-wins; the first
/// conflict observed is the one reported:
/// * supplying explicit [`IndexBuilder::doc_lens`] *and* tokenized
///   [`IndexBuilder::add_documents`] (both define document lengths) is
///   [`Error::ConflictingDocLens`];
/// * injecting the same term twice via
///   [`IndexBuilder::add_posting_list`] is [`Error::DuplicateTerm`];
/// * a term that arrives both ways — injected and found in tokenized
///   text, in either order — is [`Error::DuplicateTerm`] too.
#[derive(Debug, Default)]
pub struct IndexBuilder<'a> {
    postings: BTreeMap<String, Columns<'a>>,
    doc_lens: Vec<u32>,
    explicit_doc_lens: bool,
    tokenized_docs: bool,
    n_docs_from_text: u32,
    scheme: SchemeChoice,
    /// First input conflict observed; surfaced by `build()`. Deferred so
    /// the chained `self -> Self` builder API stays panic-free.
    conflict: Option<Error>,
}

impl<'a> IndexBuilder<'a> {
    /// Creates an empty builder with default BM25 parameters and hybrid
    /// compression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the compression policy.
    pub fn scheme(mut self, choice: SchemeChoice) -> Self {
        self.scheme = choice;
        self
    }

    /// Supplies explicit document lengths (token counts). Required when
    /// building from injected posting lists whose tf sums do not reflect
    /// full document lengths. Conflicts with [`IndexBuilder::add_documents`]
    /// (which derives lengths from tokenization): mixing the two makes
    /// [`IndexBuilder::build`] return [`Error::ConflictingDocLens`].
    pub fn doc_lens(mut self, lens: Vec<u32>) -> Self {
        if self.tokenized_docs {
            self.conflict.get_or_insert(Error::ConflictingDocLens);
        }
        self.explicit_doc_lens = true;
        self.doc_lens = lens;
        self
    }

    /// Tokenizes and adds documents; docIDs are assigned in input order
    /// continuing from any previously added documents. Conflicts with
    /// explicit [`IndexBuilder::doc_lens`] (see there) and with a term
    /// already injected by [`IndexBuilder::add_posting_list`]
    /// ([`Error::DuplicateTerm`]).
    pub fn add_documents<'d, I: IntoIterator<Item = &'d str>>(mut self, docs: I) -> Self {
        if self.explicit_doc_lens {
            self.conflict.get_or_insert(Error::ConflictingDocLens);
        }
        self.tokenized_docs = true;
        for text in docs {
            let doc = self.n_docs_from_text;
            self.n_docs_from_text += 1;
            let mut len = 0u32;
            let mut counts: BTreeMap<String, u32> = BTreeMap::new();
            for tok in text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
            {
                *counts.entry(tok.to_lowercase()).or_insert(0) += 1;
                len += 1;
            }
            for (term, tf) in counts {
                match self.postings.get_mut(&term) {
                    Some(Columns::Tokenized(docs, tfs)) => {
                        docs.push(doc);
                        tfs.push(tf);
                    }
                    Some(Columns::Injected(_)) => {
                        self.conflict.get_or_insert(Error::DuplicateTerm { term });
                    }
                    None => {
                        let columns = Columns::Tokenized(vec![doc], vec![tf]);
                        self.postings.insert(term, columns);
                    }
                }
            }
            if self.doc_lens.len() < (doc + 1) as usize {
                self.doc_lens.resize((doc + 1) as usize, 0);
            }
            self.doc_lens[doc as usize] = len;
        }
        self
    }

    /// Adds a pre-built posting list for `term`, borrowed until
    /// [`IndexBuilder::build`] has encoded it. Each term may arrive
    /// exactly once; a second list for the same term, or a term that
    /// tokenized text already produced, makes [`IndexBuilder::build`]
    /// return [`Error::DuplicateTerm`].
    pub fn add_posting_list(mut self, term: &str, list: &'a PostingList) -> Self {
        match self.postings.entry(term.to_owned()) {
            Entry::Vacant(slot) => {
                slot.insert(Columns::Injected(list));
            }
            Entry::Occupied(taken) => {
                let term = taken.key().clone();
                self.conflict.get_or_insert(Error::DuplicateTerm { term });
            }
        }
        self
    }

    /// Builds the index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateTerm`] / [`Error::ConflictingDocLens`]
    /// for conflicting inputs, [`Error::UnsortedPostings`] /
    /// [`Error::ZeroTermFrequency`] for invalid posting data,
    /// [`Error::InvalidQuery`] for an empty corpus, and codec errors if
    /// no scheme can encode a list (cannot happen with hybrid).
    pub fn build(self) -> Result<InvertedIndex, Error> {
        let IndexBuilder {
            postings,
            mut doc_lens,
            scheme,
            conflict,
            ..
        } = self;
        if let Some(e) = conflict {
            return Err(e);
        }

        // One pass over the postings for both the corpus size — the
        // largest docID seen, or the supplied lengths if they reach
        // further — and the per-document tf sums, which stand in for the
        // length of documents that have none.
        let mut tf_sums = vec![0u64; doc_lens.len()];
        for columns in postings.values() {
            let (docs, tfs) = columns.slices();
            // Sorted columns end at their largest docID. (Unsorted ones
            // are the encoder's error; what they reach past is skipped.)
            if let Some(&last) = docs.last() {
                if last as usize >= tf_sums.len() {
                    tf_sums.resize(last as usize + 1, 0);
                }
            }
            for (&d, &tf) in docs.iter().zip(tfs) {
                if let Some(sum) = tf_sums.get_mut(d as usize) {
                    *sum += u64::from(tf);
                }
            }
        }
        let n_docs = tf_sums.len();
        if n_docs == 0 {
            return Err(Error::InvalidQuery {
                reason: "cannot build an empty index".into(),
            });
        }
        doc_lens.resize(n_docs, 0);
        fill_doc_lens(&mut doc_lens, &tf_sums);
        // Guard against zero-length docs distorting avgdl of an index with
        // injected lists shorter than reality.
        let (bm25, doc_norms) = scoring_from_lens(Bm25Params::default(), &doc_lens);

        let text_bytes = postings.keys().map(String::len).sum();
        let (mut n_blocks, mut n_postings) = (0, 0);
        for columns in postings.values() {
            let df = columns.slices().0.len();
            n_blocks += df.div_ceil(BLOCK_SIZE);
            n_postings += df;
        }
        // An estimate, not a bound (a posting of a rare term can take
        // ten bytes): the hybrid policy spends about 1.5 B a posting on
        // the corpora measured so far. Past it, the payload grows.
        let data_bytes = n_postings.saturating_mul(2);
        let mut index =
            IndexAssembler::with_capacity(postings.len(), text_bytes, n_blocks, data_bytes);
        let mut encoder = ListEncoder::new();
        for (text, columns) in postings {
            let (docs, tfs) = columns.slices();
            let idf = bm25.idf(docs.len() as u32);
            index.push(&text, |store| {
                encoder.encode_into(store, docs, tfs, scheme, &bm25, idf, &doc_norms)
            })?;
        }
        Ok(index.finish(doc_norms, doc_lens, bm25))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_compress::ALL_SCHEMES;

    #[test]
    fn build_from_text() {
        let idx = IndexBuilder::new()
            .add_documents(["Hello, World!", "hello hello rust"])
            .build()
            .unwrap();
        assert_eq!(idx.n_docs(), 2);
        let hello = idx.term_id("hello").unwrap();
        let (docs, tfs) = idx.list(hello).decode_all().unwrap();
        assert_eq!(docs, vec![0, 1]);
        assert_eq!(tfs, vec![1, 2]);
        assert!(idx.term_id("Hello").is_err(), "vocabulary is lowercased");
    }

    #[test]
    fn build_from_posting_lists() {
        let l1 = PostingList::from_columns(vec![0, 2, 5], vec![1, 2, 1]).unwrap();
        let l2 = PostingList::from_columns(vec![1, 2], vec![3, 1]).unwrap();
        let idx = IndexBuilder::new()
            .add_posting_list("alpha", &l1)
            .add_posting_list("beta", &l2)
            .doc_lens(vec![10, 10, 10, 10, 10, 10])
            .build()
            .unwrap();
        assert_eq!(idx.n_docs(), 6);
        assert_eq!(idx.term_info(idx.term_id("alpha").unwrap()).df, 3);
    }

    #[test]
    fn term_ids_in_lexical_order() {
        let idx = IndexBuilder::new()
            .add_documents(["zebra apple mango"])
            .build()
            .unwrap();
        assert_eq!(idx.term_id("apple").unwrap(), 0);
        assert_eq!(idx.term_id("mango").unwrap(), 1);
        assert_eq!(idx.term_id("zebra").unwrap(), 2);
    }

    #[test]
    fn empty_build_fails() {
        assert!(IndexBuilder::new().build().is_err());
    }

    #[test]
    fn hybrid_no_larger_than_any_fixed() {
        let docs: Vec<u32> = (0..1000).map(|i| i * 7).collect();
        let tfs = vec![1u32; 1000];
        let list = PostingList::from_columns(docs, tfs).unwrap();
        let hybrid = IndexBuilder::new()
            .add_posting_list("t", &list)
            .doc_lens(vec![5; 7000])
            .build()
            .unwrap();
        for s in ALL_SCHEMES {
            let fixed = IndexBuilder::new()
                .add_posting_list("t", &list)
                .doc_lens(vec![5; 7000])
                .scheme(SchemeChoice::Fixed(s))
                .build();
            if let Ok(fixed) = fixed {
                assert!(hybrid.total_data_bytes() <= fixed.total_data_bytes(), "{s}");
            }
        }
    }

    #[test]
    fn duplicate_injected_term_rejected() {
        let good = PostingList::from_columns(vec![5], vec![1]).unwrap();
        let also = PostingList::from_columns(vec![3], vec![1]).unwrap();
        // A second list for the same term used to accumulate silently;
        // it is now a typed build error.
        let err = IndexBuilder::new()
            .add_posting_list("t", &good)
            .add_posting_list("t", &also)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::DuplicateTerm { ref term } if term == "t"),
            "{err}"
        );
        // The first conflict wins even when later inputs are fine.
        let err = IndexBuilder::new()
            .add_posting_list("t", &good)
            .add_posting_list("t", &also)
            .add_posting_list("u", &good)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateTerm { ref term } if term == "t"));
    }

    fn assert_duplicate(err: &Error, expected: &str) {
        assert!(
            matches!(err, Error::DuplicateTerm { term } if term == expected),
            "{err}"
        );
    }

    #[test]
    fn tokenized_then_injected_term_rejected() {
        let l = PostingList::from_columns(vec![0, 1], vec![1, 1]).unwrap();
        let err = IndexBuilder::new()
            .add_documents(["x t", "y"])
            .add_posting_list("t", &l)
            .build()
            .unwrap_err();
        assert_duplicate(&err, "t");
    }

    #[test]
    fn injected_then_tokenized_term_rejected() {
        let l = PostingList::from_columns(vec![0, 1], vec![1, 1]).unwrap();
        // With the text as document 3 this used to build with the list
        // silently extended to [0, 1, 3]...
        let err = IndexBuilder::new()
            .add_documents(["a", "b", "c"])
            .add_posting_list("t", &l)
            .add_documents(["t t"])
            .build()
            .unwrap_err();
        assert_duplicate(&err, "t");
        // ...and as document 0 to fail as `UnsortedPostings { at: 2 }`,
        // a position in a list nobody supplied.
        let err = IndexBuilder::new()
            .add_posting_list("t", &l)
            .add_documents(["t t"])
            .build()
            .unwrap_err();
        assert_duplicate(&err, "t");
        assert_eq!(l.docs(), [0, 1], "an injected list is never written to");
    }

    #[test]
    fn first_term_collision_wins() {
        let l = PostingList::from_columns(vec![0, 1], vec![1, 1]).unwrap();
        // Within one document the terms are visited in lexical order.
        let err = IndexBuilder::new()
            .add_posting_list("t", &l)
            .add_posting_list("s", &l)
            .add_documents(["t s", "t"])
            .add_posting_list("u", &l)
            .add_posting_list("u", &l)
            .build()
            .unwrap_err();
        assert_duplicate(&err, "s");
        // An earlier conflict of another kind is not displaced either.
        let err = IndexBuilder::new()
            .doc_lens(vec![2])
            .add_posting_list("t", &l)
            .add_documents(["t"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ConflictingDocLens), "{err}");
    }

    #[test]
    fn doc_lens_then_add_documents_rejected() {
        let err = IndexBuilder::new()
            .doc_lens(vec![4, 4])
            .add_documents(["a b", "b c"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ConflictingDocLens), "{err}");
    }

    #[test]
    fn add_documents_then_doc_lens_rejected() {
        let err = IndexBuilder::new()
            .add_documents(["a b", "b c"])
            .doc_lens(vec![4, 4])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ConflictingDocLens), "{err}");
    }

    #[test]
    fn posting_lists_with_doc_lens_still_fine() {
        let l = PostingList::from_columns(vec![0, 1], vec![1, 1]).unwrap();
        let idx = IndexBuilder::new()
            .doc_lens(vec![3, 3])
            .add_posting_list("t", &l)
            .build()
            .unwrap();
        assert_eq!(idx.n_docs(), 2);
        assert_eq!(idx.doc_lens(), &[3, 3]);
    }
}
