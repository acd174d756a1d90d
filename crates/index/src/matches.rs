//! Columnar match sets and the scoring kernels every engine's multi-term
//! path runs on.
//!
//! A [`GroupMatches`] is the result of one intersection group: the
//! documents that contain *all* of the group's terms, with each term's
//! tf. It is stored as three flat arrays — `terms` (ascending), `docs`
//! (ascending) and `tfs` (row-major, `docs.len() × terms.len()`) — so a
//! matched document is a row of a contiguous table, never a heap object
//! of its own.
//!
//! [`union_scored`] unions any number of materialized groups and scores
//! every document, one window of the docID space at a time: term scores
//! are added column by column into a dense accumulator, then the window's
//! documents are emitted in ascending order. The traversal is the same
//! for every exhaustive engine; what an engine *charges* for a document
//! (a norm load, a heap offer, a cost-model constant) is the closure that
//! receives the run. Traversals that gather one pivot document at a time
//! use [`canonical_score`] (the pruned evaluators) or, with the term
//! scores computed already, [`canonical_sum`] (BOSS's round loop).
//!
//! # Ordering and summation contract
//!
//! * documents are emitted in strictly ascending docID order, each
//!   exactly once, in non-empty runs;
//! * a term shared by several groups counts once per document (its tf is
//!   a property of the `(term, document)` pair, so every group reports
//!   the same value);
//! * every kernel sums term scores from `0.0f32` in ascending term-id
//!   order, which is the [`crate::reference`] evaluator's arithmetic —
//!   scores agree with it bit for bit.

use crate::{DocId, InvertedIndex, TermId};

/// The matches of one intersection group, column-major in its terms and
/// row-major in its documents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupMatches {
    terms: Vec<TermId>,
    docs: Vec<DocId>,
    tfs: Vec<u32>,
}

impl GroupMatches {
    /// An empty match set over `terms` (stored ascending, duplicates
    /// dropped): rows pushed later carry one tf per stored term, in that
    /// order.
    pub fn new(terms: &[TermId]) -> Self {
        let mut terms = terms.to_vec();
        terms.sort_unstable();
        terms.dedup();
        GroupMatches {
            terms,
            docs: Vec::new(),
            tfs: Vec::new(),
        }
    }

    /// A one-term match set that takes ownership of a decoded posting
    /// list (`docs` ascending, one tf each).
    pub fn from_column(term: TermId, docs: Vec<DocId>, tfs: Vec<u32>) -> Self {
        debug_assert_eq!(docs.len(), tfs.len(), "one tf per document");
        GroupMatches {
            terms: vec![term],
            docs,
            tfs,
        }
    }

    /// The group's terms, ascending — the column order of every row.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The matched documents, ascending.
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// All tfs, row-major (`docs().len() × terms().len()`).
    pub fn tfs(&self) -> &[u32] {
        &self.tfs
    }

    /// Number of matched documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether no document matched.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The tfs of match `i`, one per term in [`GroupMatches::terms`] order.
    pub fn row(&self, i: usize) -> &[u32] {
        let w = self.terms.len();
        &self.tfs[i * w..(i + 1) * w]
    }

    /// Appends one match. `doc` must exceed every document pushed so far
    /// and `row` must hold one tf per term.
    pub fn push(&mut self, doc: DocId, row: &[u32]) {
        debug_assert_eq!(row.len(), self.terms.len(), "one tf per term");
        debug_assert!(self.docs.last().is_none_or(|&d| d < doc), "ascending docs");
        self.docs.push(doc);
        self.tfs.extend_from_slice(row);
    }

    /// The empty successor of this set under intersection with `term`:
    /// its columns are this set's plus `term`, room reserved for every
    /// current match. Also returns the column `term` landed in, for
    /// [`GroupMatches::push_joined`].
    pub fn joined(&self, term: TermId) -> (GroupMatches, usize) {
        let col = self.terms.partition_point(|&t| t < term);
        debug_assert!(self.terms.get(col) != Some(&term), "term already joined");
        let mut terms = Vec::with_capacity(self.terms.len() + 1);
        terms.extend_from_slice(&self.terms[..col]);
        terms.push(term);
        terms.extend_from_slice(&self.terms[col..]);
        let next = GroupMatches {
            docs: Vec::with_capacity(self.docs.len()),
            tfs: Vec::with_capacity(self.docs.len() * terms.len()),
            terms,
        };
        (next, col)
    }

    /// Appends a match whose row is `row` (a row of the predecessor set)
    /// with `tf` spliced in at column `col` — see [`GroupMatches::joined`].
    pub fn push_joined(&mut self, doc: DocId, row: &[u32], col: usize, tf: u32) {
        debug_assert_eq!(row.len() + 1, self.terms.len(), "one tf per term");
        self.docs.push(doc);
        self.tfs.extend_from_slice(&row[..col]);
        self.tfs.push(tf);
        self.tfs.extend_from_slice(&row[col..]);
    }

    /// Appends match `i`'s `(term, tf)` entries to `out`, ascending by
    /// term id.
    pub fn entries_at(&self, i: usize, out: &mut Vec<(TermId, u32)>) {
        out.extend(self.terms.iter().copied().zip(self.row(i).iter().copied()));
    }
}

/// Documents per [`union_scored`] window: a 16 KiB `f32` accumulator
/// plus 64-word bitmaps, L1-resident. A power of two, and windows start
/// at its multiples, so a document's slot is its low bits.
const WINDOW: usize = 4096;

/// One bit per slot of a window.
type SlotBits = [u64; WINDOW / 64];

/// Sets the bit of `doc`'s slot and returns whether it was clear.
fn mark(bits: &mut SlotBits, doc: DocId) -> bool {
    let (word, bit) = (doc as usize % WINDOW / 64, 1u64 << (doc % 64));
    let fresh = bits[word] & bit == 0;
    bits[word] |= bit;
    fresh
}

/// Unions `groups` and scores every document against `index`, handing
/// `emit` one run of documents and scores per window of the docID space
/// (the module-level contract). Inside a window the groups' columns are
/// visited in ascending term order and every posting's term score is
/// added to its document's slot, so a slot ends up holding
/// `score_entries`' sum over that document's canonical entries.
///
/// # Panics
///
/// Panics if a docID is out of range of the index's norm table.
pub fn union_scored(
    index: &InvertedIndex,
    groups: &[GroupMatches],
    mut emit: impl FnMut(&[DocId], &[f32]),
) {
    let (bm25, norms) = (index.bm25(), index.doc_norms());
    // Every column as (term, group, column), ascending.
    let mut columns: Vec<(TermId, usize, usize)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        columns.extend(group.terms.iter().enumerate().map(|(c, &t)| (t, g, c)));
    }
    columns.sort_unstable();
    // Rows `lo[g]..hi[g]` of group `g` fall in the current window.
    let mut lo = vec![0usize; groups.len()];
    let mut hi = vec![0usize; groups.len()];
    let mut acc = [0.0f32; WINDOW];
    let mut present: SlotBits = [0; WINDOW / 64];
    let mut docs_out: Vec<DocId> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();
    // Each round takes the window holding the smallest unvisited document.
    while let Some(&next) = groups
        .iter()
        .zip(&lo)
        .filter_map(|(group, &at)| group.docs.get(at))
        .min()
    {
        let base = next - next % WINDOW as DocId;
        for (g, group) in groups.iter().enumerate() {
            let rest = &group.docs[lo[g]..];
            hi[g] = lo[g] + rest.partition_point(|&d| ((d - base) as usize) < WINDOW);
            for &d in &group.docs[lo[g]..hi[g]] {
                mark(&mut present, d);
            }
        }
        for run in columns.chunk_by(|a, b| a.0 == b.0) {
            let idf = index.list(run[0].0).idf();
            // A term that several groups carry adds once per document.
            let shared = run.len() > 1;
            let mut seen: SlotBits = [0; WINDOW / 64];
            for &(_, g, c) in run {
                let group = &groups[g];
                let w = group.terms.len();
                let docs = &group.docs[lo[g]..hi[g]];
                let tfs = group.tfs[lo[g] * w..hi[g] * w].iter().skip(c).step_by(w);
                for (&d, &tf) in docs.iter().zip(tfs) {
                    if !shared || mark(&mut seen, d) {
                        acc[d as usize % WINDOW] += bm25.term_score(idf, tf, norms[d as usize]);
                    }
                }
            }
        }
        scores.clear();
        docs_out.clear();
        for (i, word) in present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let at = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                docs_out.push(base + at as DocId);
                scores.push(std::mem::take(&mut acc[at]));
            }
        }
        emit(&docs_out, &scores);
        lo.copy_from_slice(&hi);
    }
}

/// Puts gathered entries in canonical form: ascending by term id, one
/// entry per term. Gathers that are already canonical (the common case —
/// one contributor, or groups whose term ranges do not interleave) pay
/// one linear check. A term's entries from different contributors are
/// equal (its tf, or its term score, is a property of the `(term,
/// document)` pair), so which one is kept does not matter.
fn sort_distinct<T>(entries: &mut Vec<(TermId, T)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    entries.sort_unstable_by_key(|&(t, _)| t);
    entries.dedup_by_key(|&mut (t, _)| t);
}

/// BM25 score of a document from its canonical entries: term scores
/// summed from `0.0f32` in the order given.
pub(crate) fn score_entries(index: &InvertedIndex, entries: &[(TermId, u32)], norm: f32) -> f32 {
    let mut score = 0.0f32;
    for &(term, tf) in entries {
        score += index.bm25().term_score(index.list(term).idf(), tf, norm);
    }
    score
}

/// Canonical final score of entries gathered in any order (the ET and
/// pruned unions collect them stream by stream): `sort_distinct`, then
/// `score_entries` — so every traversal's scores share every bit.
pub fn canonical_score(index: &InvertedIndex, entries: &mut Vec<(TermId, u32)>, norm: f32) -> f32 {
    sort_distinct(entries);
    score_entries(index, entries, norm)
}

/// [`canonical_score`] of a gather whose posting-list terms were scored
/// already (BOSS's union rounds score a whole decoded block at once):
/// `entries` — `(term, tf)` pairs still to score, from materialized
/// intersection outputs — are scored under `norm` and join `scores`,
/// then `sort_distinct` and the sum from `0.0f32` in term order, so the
/// bits are those of `canonical_score` over every pair. A gather with
/// nothing scored already is `canonical_score` itself, which scores each
/// distinct term once.
pub fn canonical_sum(
    index: &InvertedIndex,
    scores: &mut Vec<(TermId, f32)>,
    entries: &mut Vec<(TermId, u32)>,
    norm: f32,
) -> f32 {
    if scores.is_empty() {
        return canonical_score(index, entries, norm);
    }
    for &(term, tf) in entries.iter() {
        let score = index.bm25().term_score(index.list(term).idf(), tf, norm);
        scores.push((term, score));
    }
    sort_distinct(scores);
    scores.iter().fold(0.0f32, |sum, &(_, score)| sum + score)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_splices_columns_in_term_order() {
        let lead = GroupMatches::from_column(7, vec![1, 4, 9], vec![10, 40, 90]);
        let (mut two, col) = lead.joined(3);
        assert_eq!(col, 0);
        two.push_joined(4, lead.row(1), col, 2);
        two.push_joined(9, lead.row(2), col, 3);
        assert_eq!(two.terms(), &[3, 7]);
        assert_eq!(two.docs(), &[4, 9]);
        assert_eq!(two.tfs(), &[2, 40, 3, 90]);
        let (mut three, col) = two.joined(5);
        assert_eq!(col, 1);
        three.push_joined(9, two.row(1), col, 55);
        assert_eq!(three.terms(), &[3, 5, 7]);
        assert_eq!(three.row(0), &[3, 55, 90]);
    }
}
