//! The assembled inverted index.

use crate::encoded::{ListStats, ListStore};
use crate::{Bm25, EncodedList, Error};
use std::hash::{BuildHasher, RandomState};

/// Identifier of a term in the index vocabulary.
pub type TermId = u32;

/// Per-term statistics, as [`InvertedIndex::term_info`] reads them out of
/// the index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermInfo<'a> {
    /// The term text.
    pub text: &'a str,
    /// Document frequency.
    pub df: u32,
    /// Inverse document frequency under the index's BM25 scorer.
    pub idf: f32,
}

/// Cells of the smallest lookup table.
const MIN_TABLE_CELLS: usize = 8;

/// The vocabulary, each term's text held once: the texts back to back in
/// term-id order, where each ends, and an open-addressed table from text
/// to id (the shape of the SPIMI accumulator's: linear probing, one `u32`
/// word per cell, `0` empty, otherwise `tag << shift | (id + 1)` with
/// `shift = log2(cells)`, the cell index the hash's low `shift` bits and
/// the tag the rest, so a probe passing another term's cell is told apart
/// without touching that term's text).
#[derive(Debug, Clone)]
struct TermDict {
    arena: String,
    /// `ends[id]` is where term `id`'s text ends in the arena; it begins
    /// where the term before it ends.
    ends: Vec<u32>,
    table: Vec<u32>,
    shift: u32,
    hasher: RandomState,
}

/// Dictionaries are equal when they hold the same terms under the same
/// ids; where a term landed in the table depends on the hasher's seed.
impl PartialEq for TermDict {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena && self.ends == other.ends
    }
}

impl TermDict {
    /// A dictionary of `n_terms` terms with `text_bytes` bytes of text in
    /// all, to be [`TermDict::push`]ed.
    fn with_capacity(n_terms: usize, text_bytes: usize) -> Self {
        TermDict {
            arena: String::with_capacity(text_bytes),
            ends: Vec::with_capacity(n_terms),
            table: Vec::new(),
            shift: 0,
            hasher: RandomState::new(),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends the term with the next id. Terms arrive once each (every
    /// construction path walks them in strictly increasing lexical
    /// order), so nothing is looked up.
    fn push(&mut self, term: &str) -> Result<(), Error> {
        let end = u32::try_from(self.arena.len() + term.len())
            .ok()
            .filter(|_| self.ends.len() < TermId::MAX as usize);
        let end = end.ok_or_else(|| Error::InvalidQuery {
            reason: "the vocabulary outgrew its u32 ids or text offsets".into(),
        })?;
        self.arena.push_str(term);
        self.ends.push(end);
        Ok(())
    }

    /// Trims the vectors and builds the lookup table, at most 4/5 full.
    fn seal(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
        let cells = (self.len() + self.len() / 4 + 1)
            .next_power_of_two()
            .max(MIN_TABLE_CELLS);
        self.shift = cells.trailing_zeros();
        let mut table = vec![0u32; cells];
        for id in 0..self.len() as TermId {
            let hash = self.hash(self.text(id));
            let mut cell = hash as usize & (cells - 1);
            while table[cell] != 0 {
                cell = (cell + 1) & (cells - 1);
            }
            table[cell] = self.tag(hash).checked_shl(self.shift).unwrap_or(0) | (id + 1);
        }
        self.table = table;
    }

    fn hash(&self, term: &str) -> u32 {
        self.hasher.hash_one(term.as_bytes()) as u32
    }

    /// The hash bits that did not choose the cell.
    fn tag(&self, hash: u32) -> u32 {
        hash.checked_shr(self.shift).unwrap_or(0)
    }

    fn text(&self, id: TermId) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    fn get(&self, term: &str) -> Option<TermId> {
        let mask = self.table.len() - 1;
        let hash = self.hash(term);
        let tag = self.tag(hash);
        let mut cell = hash as usize & mask;
        loop {
            let word = self.table[cell];
            if word == 0 {
                return None;
            }
            if self.tag(word) == tag {
                let id = (word & mask as u32) - 1;
                if self.text(id) == term {
                    return Some(id);
                }
            }
            cell = (cell + 1) & mask;
        }
    }
}

/// A complete, immutable inverted index over one shard.
///
/// Built with [`crate::IndexBuilder`]; once created it is read-only, like
/// the production indexes the paper targets. It is held as the image
/// `init()` loads (Section IV-D): one store of every list's block
/// descriptors and payload in term-id order ([`crate::layout`] derives
/// the simulated addresses from it), one arena of term text, and the two
/// per-document tables. A clone shares the store.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedIndex {
    dict: TermDict,
    lists: Vec<EncodedList>,
    doc_norms: Vec<f32>,
    doc_lens: Vec<u32>,
    bm25: Bm25,
}

/// What every construction path — [`crate::IndexBuilder::build`], the
/// segment merge, [`crate::shard::ShardedIndex::split`],
/// [`crate::segment::load_segment`] — fills, term by term in id order,
/// and turns into an [`InvertedIndex`].
#[derive(Debug)]
pub(crate) struct IndexAssembler {
    dict: TermDict,
    store: ListStore,
    stats: Vec<ListStats>,
}

impl IndexAssembler {
    /// An assembler expecting `n_terms` terms with `text_bytes` bytes of
    /// text, and `n_blocks` blocks with `data_bytes` of payload. Any of
    /// them may be off either way — the index is trimmed to what arrived
    /// — but see [`ListStore::with_capacity`] for why the last two are
    /// best given as upper bounds.
    pub(crate) fn with_capacity(
        n_terms: usize,
        text_bytes: usize,
        n_blocks: usize,
        data_bytes: usize,
    ) -> Self {
        IndexAssembler {
            dict: TermDict::with_capacity(n_terms, text_bytes),
            store: ListStore::with_capacity(n_terms, n_blocks, data_bytes),
            stats: Vec::with_capacity(n_terms),
        }
    }

    /// Adds the term with the next id; `list` appends its list to the
    /// store it is handed. After an error the assembler is good only for
    /// dropping.
    pub(crate) fn push(
        &mut self,
        term: &str,
        list: impl FnOnce(&mut ListStore) -> Result<ListStats, Error>,
    ) -> Result<(), Error> {
        self.dict.push(term)?;
        self.stats.push(list(&mut self.store)?);
        Ok(())
    }

    /// The index of the terms pushed, over documents of the given norms
    /// and lengths.
    pub(crate) fn finish(
        mut self,
        doc_norms: Vec<f32>,
        doc_lens: Vec<u32>,
        bm25: Bm25,
    ) -> InvertedIndex {
        self.dict.seal();
        InvertedIndex {
            dict: self.dict,
            lists: self.store.seal(self.stats),
            doc_norms,
            doc_lens,
            bm25,
        }
    }
}

impl InvertedIndex {
    /// Number of documents in the shard.
    pub fn n_docs(&self) -> u32 {
        self.doc_norms.len() as u32
    }

    /// Number of distinct terms.
    pub fn n_terms(&self) -> usize {
        self.lists.len()
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
        self.dict.get(term).ok_or_else(|| Error::UnknownTerm {
            term: term.to_owned(),
        })
    }

    /// Per-term statistics; the text is borrowed from the index. A caller
    /// after the statistics alone reads them off [`InvertedIndex::list`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn term_info(&self, id: TermId) -> TermInfo<'_> {
        let list = self.list(id);
        TermInfo {
            text: self.dict.text(id),
            df: list.df(),
            idf: list.idf(),
        }
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
    /// panic, and no other list — of this index or of a clone — sees it.
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
        0..self.lists.len() as TermId
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
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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
