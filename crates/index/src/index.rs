//! The assembled inverted index.

use crate::{Bm25, EncodedList, Error};
use std::collections::HashMap;

/// Identifier of a term in the index vocabulary.
pub type TermId = u32;

/// Per-term statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TermInfo {
    /// The term text.
    pub text: String,
    /// Document frequency.
    pub df: u32,
    /// Inverse document frequency under the index's BM25 scorer.
    pub idf: f32,
}

/// A complete, immutable inverted index over one shard.
///
/// Built with [`crate::IndexBuilder`]; once created it is read-only, like
/// the production indexes the paper targets.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedIndex {
    pub(crate) vocab: HashMap<String, TermId>,
    pub(crate) terms: Vec<TermInfo>,
    pub(crate) lists: Vec<EncodedList>,
    pub(crate) doc_norms: Vec<f32>,
    pub(crate) doc_lens: Vec<u32>,
    pub(crate) bm25: Bm25,
}

impl InvertedIndex {
    /// Number of documents in the shard.
    pub fn n_docs(&self) -> u32 {
        self.doc_norms.len() as u32
    }

    /// Number of distinct terms.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// The BM25 scorer bound to this corpus.
    pub fn bm25(&self) -> &Bm25 {
        &self.bm25
    }

    /// Looks up a term's id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTerm`] if the term is not in the vocabulary.
    pub fn term_id(&self, term: &str) -> Result<TermId, Error> {
        self.vocab
            .get(term)
            .copied()
            .ok_or_else(|| Error::UnknownTerm {
                term: term.to_owned(),
            })
    }

    /// Per-term statistics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn term_info(&self, id: TermId) -> &TermInfo {
        &self.terms[id as usize]
    }

    /// The encoded posting list of a term.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn list(&self, id: TermId) -> &EncodedList {
        &self.lists[id as usize]
    }

    /// Mutable access to a term's encoded posting list — a
    /// corruption-harness hook, same contract as
    /// [`EncodedList::data_mut`]: decoders must surface any mutation made
    /// through it as a typed error or decode to bit-correct values, never
    /// panic.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn list_mut(&mut self, id: TermId) -> &mut EncodedList {
        &mut self.lists[id as usize]
    }

    /// Per-document precomputed BM25 norms (4 B/doc scoring metadata).
    pub fn doc_norms(&self) -> &[f32] {
        &self.doc_norms
    }

    /// Per-document lengths in tokens.
    pub fn doc_lens(&self) -> &[u32] {
        &self.doc_lens
    }

    /// Iterates term ids in vocabulary order.
    pub fn term_ids(&self) -> impl Iterator<Item = TermId> {
        0..self.terms.len() as TermId
    }

    /// Total encoded posting data bytes across all lists.
    pub fn total_data_bytes(&self) -> u64 {
        self.lists.iter().map(|l| l.data_bytes() as u64).sum()
    }

    /// Total block-metadata bytes across all lists (19 B per block).
    pub fn total_meta_bytes(&self) -> u64 {
        self.lists.iter().map(EncodedList::meta_bytes).sum()
    }

    /// Total raw posting bytes (8 B per posting: docID + tf).
    pub fn total_raw_bytes(&self) -> u64 {
        self.lists.iter().map(|l| u64::from(l.df()) * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::IndexBuilder;

    fn tiny() -> crate::InvertedIndex {
        IndexBuilder::new()
            .add_documents(["a b c", "b c d", "c d e", "a a a c"])
            .build()
            .unwrap()
    }

    #[test]
    fn vocabulary_and_stats() {
        let idx = tiny();
        assert_eq!(idx.n_docs(), 4);
        assert_eq!(idx.n_terms(), 5);
        let c = idx.term_id("c").unwrap();
        assert_eq!(idx.term_info(c).df, 4);
        let a = idx.term_id("a").unwrap();
        assert_eq!(idx.term_info(a).df, 2);
        assert!(idx.term_id("zebra").is_err());
    }

    #[test]
    fn idf_ordering() {
        let idx = tiny();
        let a = idx.term_info(idx.term_id("a").unwrap()).idf;
        let c = idx.term_info(idx.term_id("c").unwrap()).idf;
        assert!(a > c, "rarer term has higher idf");
    }

    #[test]
    fn lists_decode_to_postings() {
        let idx = tiny();
        let a = idx.term_id("a").unwrap();
        let (docs, tfs) = idx.list(a).decode_all().unwrap();
        assert_eq!(docs, vec![0, 3]);
        assert_eq!(tfs, vec![1, 3]);
    }

    #[test]
    fn doc_lens_counted() {
        let idx = tiny();
        assert_eq!(idx.doc_lens(), &[3, 3, 3, 4]);
        assert_eq!(idx.doc_norms().len(), 4);
    }

    #[test]
    fn size_accessors() {
        let idx = tiny();
        assert!(idx.total_data_bytes() > 0);
        assert_eq!(idx.total_meta_bytes(), 5 * crate::BLOCK_META_BYTES);
        assert_eq!(idx.total_raw_bytes(), (2 + 2 + 4 + 2 + 1) * 8);
    }
}
