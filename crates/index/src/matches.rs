//! Columnar match sets and the one merge-and-score kernel every engine's
//! multi-term path runs on.
//!
//! A [`GroupMatches`] is the result of one intersection group: the
//! documents that contain *all* of the group's terms, with each term's
//! tf. It is stored as three flat arrays — `terms` (ascending), `docs`
//! (ascending) and `tfs` (row-major, `docs.len() × terms.len()`) — so a
//! matched document is a row of a contiguous table, never a heap object
//! of its own.
//!
//! [`merge_groups`] unions any number of groups in ascending docID order
//! and hands a closure each document with its distinct `(term, tf)`
//! entries in ascending term-id order. The traversal is the same for
//! every engine; what an engine *charges* for a document (a norm load, a
//! heap offer, a cost-model constant) is the closure.
//!
//! # Ordering and summation contract
//!
//! * documents reach the closure in strictly ascending docID order, each
//!   exactly once;
//! * a document's entries are strictly ascending by term id — a term
//!   shared by several groups appears once (its tf is a property of the
//!   `(term, document)` pair, so every group reports the same value);
//! * [`score_entries`] sums term scores from `0.0f32` in that order,
//!   which is the [`crate::reference`] evaluator's arithmetic — scores
//!   agree with it bit for bit.

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

    /// Appends a run of matches at once: `tfs` holds the rows of `docs`
    /// back to back (for a one-term group, a decoded block as it comes).
    pub fn extend_rows(&mut self, docs: &[DocId], tfs: &[u32]) {
        debug_assert_eq!(tfs.len(), docs.len() * self.terms.len());
        self.docs.extend_from_slice(docs);
        self.tfs.extend_from_slice(tfs);
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

    /// Intersects with a decoded posting run of `term` (`docs` ascending,
    /// one tf each) by a two-pointer merge, carrying every column along.
    pub fn join_sorted(&self, term: TermId, docs: &[DocId], tfs: &[u32]) -> GroupMatches {
        let (mut next, col) = self.joined(term);
        let (mut i, mut j) = (0, 0);
        while i < self.docs.len() && j < docs.len() {
            match self.docs[i].cmp(&docs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    next.push_joined(docs[j], self.row(i), col, tfs[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        next
    }

    /// Appends match `i`'s `(term, tf)` entries to `out`, ascending by
    /// term id.
    pub fn entries_at(&self, i: usize, out: &mut Vec<(TermId, u32)>) {
        out.extend(self.terms.iter().copied().zip(self.row(i).iter().copied()));
    }
}

/// Unions `groups` in ascending docID order, calling `f` once per
/// distinct document with its distinct `(term, tf)` entries in ascending
/// term-id order (the module-level contract).
pub fn merge_groups(groups: &[GroupMatches], mut f: impl FnMut(DocId, &[(TermId, u32)])) {
    let mut pos = vec![0usize; groups.len()];
    // Groups with matches left, in group order.
    let mut live: Vec<usize> = (0..groups.len())
        .filter(|&g| !groups[g].is_empty())
        .collect();
    let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(16);
    while live.len() > 1 {
        let mut doc = DocId::MAX;
        for &g in &live {
            doc = doc.min(groups[g].docs[pos[g]]);
        }
        entries.clear();
        let mut contributors = 0;
        live.retain(|&g| {
            let group = &groups[g];
            if group.docs[pos[g]] != doc {
                return true;
            }
            group.entries_at(pos[g], &mut entries);
            contributors += 1;
            pos[g] += 1;
            pos[g] < group.len()
        });
        if contributors > 1 {
            sort_distinct(&mut entries);
        }
        f(doc, &entries);
    }
    // One group left (or only one to begin with): its rows are the tail.
    if let Some(&g) = live.first() {
        let group = &groups[g];
        for i in pos[g]..group.len() {
            entries.clear();
            group.entries_at(i, &mut entries);
            f(group.docs[i], &entries);
        }
    }
}

/// Puts gathered entries in canonical form: ascending by term id, one
/// entry per term. Gathers that are already canonical (the common case —
/// one contributor, or groups whose term ranges do not interleave) pay
/// one linear check.
fn sort_distinct(entries: &mut Vec<(TermId, u32)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    entries.sort_unstable_by_key(|&(t, _)| t);
    entries.dedup_by_key(|&mut (t, _)| t);
}

/// BM25 score of a document from its canonical entries: term scores
/// summed from `0.0f32` in the order given.
pub fn score_entries(index: &InvertedIndex, entries: &[(TermId, u32)], norm: f32) -> f32 {
    let mut score = 0.0f32;
    for &(term, tf) in entries {
        score += index.bm25().term_score(index.term_info(term).idf, tf, norm);
    }
    score
}

/// Canonical final score of entries gathered in any order (the ET and
/// pruned unions collect them stream by stream): [`sort_distinct`], then
/// [`score_entries`] — so every traversal's scores share every bit.
pub fn canonical_score(index: &InvertedIndex, entries: &mut Vec<(TermId, u32)>, norm: f32) -> f32 {
    sort_distinct(entries);
    score_entries(index, entries, norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_splices_columns_in_term_order() {
        let lead = GroupMatches::from_column(7, vec![1, 4, 9], vec![10, 40, 90]);
        let two = lead.join_sorted(3, &[0, 4, 9, 12], &[1, 2, 3, 4]);
        assert_eq!(two.terms(), &[3, 7]);
        assert_eq!(two.docs(), &[4, 9]);
        assert_eq!(two.tfs(), &[2, 40, 3, 90]);
        let three = two.join_sorted(5, &[9], &[55]);
        assert_eq!(three.terms(), &[3, 5, 7]);
        assert_eq!(three.row(0), &[3, 55, 90]);
    }

    #[test]
    fn merge_visits_each_document_once_with_distinct_terms() {
        let mut a = GroupMatches::new(&[5, 2]);
        a.push(1, &[20, 50]);
        a.push(6, &[21, 51]);
        let b = GroupMatches::from_column(2, vec![1, 3], vec![20, 7]);
        let empty = GroupMatches::new(&[9]);
        let mut seen = Vec::new();
        merge_groups(&[a, empty, b], |d, e| seen.push((d, e.to_vec())));
        assert_eq!(
            seen,
            vec![
                (1, vec![(2, 20), (5, 50)]),
                (3, vec![(2, 7)]),
                (6, vec![(2, 21), (5, 51)]),
            ]
        );
    }
}
