//! Property tests for `boss_index::matches`: over random intersection
//! groups — 1 to 16 of them, 1 to 4 terms wide, drawn from a vocabulary
//! and a docID pool small enough that terms are shared and term ranges
//! interleave between groups, empty groups included — `joined` /
//! `push_joined` must carry each group's columns through its
//! intersection and `union_scored` must emit
//! exactly what a `BTreeMap` oracle holds: every matched document once,
//! ascending, in non-empty runs, with the score — to the bit — of a fold
//! from `0.0f32` over its distinct terms' scores in ascending term order.

use boss_index::{
    union_scored, DocId, GroupMatches, IndexBuilder, InvertedIndex, PostingList, TermId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// `union_scored`'s window width (a private constant of the kernel).
const W: DocId = 4096;

/// The documents a list may hold: a dense low range, a band straddling
/// each of the first two window seams, and a far band with several empty
/// windows before it.
fn doc_pool() -> Vec<DocId> {
    (0..24)
        .chain(W - 3..W + 3)
        .chain(2 * W - 3..2 * W + 3)
        .chain(6 * W + 100..6 * W + 108)
        .collect()
}

/// A tf is a property of the `(term, document)` pair, so groups that
/// share a term must agree on it.
fn tf(term: TermId, doc: DocId) -> u32 {
    (term * 31 + doc * 7) % 5 + 1
}

/// An index that covers the pool: term ids `0..6` (the vocabulary the
/// groups draw from) with six different idfs, and a norm per document.
/// The kernel reads nothing else of it — what the groups hold is drawn.
fn scoring_index() -> &'static InvertedIndex {
    static INDEX: OnceLock<InvertedIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let n_docs = 6 * W + 108;
        let lens = (0..n_docs).map(|d| 10 + d * 7 % 300).collect();
        let lists: Vec<PostingList> = (0..6)
            .map(|t| {
                let docs: Vec<DocId> = (0..n_docs).step_by(3 + 17 * t).collect();
                let tfs = vec![1; docs.len()];
                PostingList::from_columns(docs, tfs).expect("ascending")
            })
            .collect();
        let mut builder = IndexBuilder::new().doc_lens(lens);
        for (t, list) in lists.iter().enumerate() {
            builder = builder.add_posting_list(&format!("t{t}"), list);
        }
        builder.build().expect("index")
    })
}

/// One group as drawn: per member term, the documents that contain it.
type DrawnGroup = Vec<(TermId, BTreeSet<DocId>)>;

fn group_strategy() -> impl Strategy<Value = DrawnGroup> {
    let pool = doc_pool();
    let docs = prop::collection::btree_set(0..pool.len(), 0..pool.len() + 1)
        .prop_map(move |picks| picks.into_iter().map(|i| pool[i]).collect());
    prop::collection::vec((0u32..6, docs), 1..5)
}

/// A term names one posting list, so a repeated draw is dropped; the
/// remaining order is the join order.
fn distinct_members(mut group: DrawnGroup) -> DrawnGroup {
    let mut seen = BTreeSet::new();
    group.retain(|m| seen.insert(m.0));
    group
}

/// Builds the group's matches the way an engine does: the first list is
/// taken whole, every further term is joined in.
fn intersect(group: &DrawnGroup) -> GroupMatches {
    let (lead, docs) = &group[0];
    let docs: Vec<DocId> = docs.iter().copied().collect();
    let tfs = docs.iter().map(|&d| tf(*lead, d)).collect();
    let mut cur = GroupMatches::from_column(*lead, docs, tfs);
    for m in &group[1..] {
        let (mut next, col) = cur.joined(m.0);
        for (i, &d) in cur.docs().iter().enumerate() {
            if m.1.contains(&d) {
                next.push_joined(d, cur.row(i), col, tf(m.0, d));
            }
        }
        cur = next;
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_scored_equals_btreemap_oracle(drawn in prop::collection::vec(group_strategy(), 1..17)) {
        let pool = doc_pool();
        let mut oracle: BTreeMap<DocId, BTreeMap<TermId, u32>> = BTreeMap::new();
        let mut groups = Vec::new();
        for group in drawn.into_iter().map(distinct_members) {
            let matches = intersect(&group);
            let terms: BTreeSet<TermId> = group.iter().map(|m| m.0).collect();
            let docs: Vec<DocId> = pool
                .iter()
                .copied()
                .filter(|d| group.iter().all(|m| m.1.contains(d)))
                .collect();
            prop_assert_eq!(matches.docs(), &docs[..]);
            prop_assert_eq!(matches.terms(), &terms.iter().copied().collect::<Vec<_>>()[..]);
            for &d in &docs {
                let row = oracle.entry(d).or_default();
                for &t in &terms {
                    row.insert(t, tf(t, d));
                }
            }
            groups.push(matches);
        }
        let index = scoring_index();
        let expect: Vec<(DocId, u32)> = oracle
            .into_iter()
            .map(|(d, row)| {
                let mut score = 0.0f32;
                for (t, tf) in row {
                    let idf = index.term_info(t).idf;
                    score += index.bm25().term_score(idf, tf, index.doc_norms()[d as usize]);
                }
                (d, score.to_bits())
            })
            .collect();
        let mut got = Vec::new();
        let mut runs_well_formed = true;
        union_scored(index, &groups, |docs, scores| {
            runs_well_formed &= !docs.is_empty()
                && docs.len() == scores.len()
                && docs.windows(2).all(|w| w[0] < w[1]);
            got.extend(docs.iter().zip(scores).map(|(&d, s)| (d, s.to_bits())));
        });
        prop_assert!(runs_well_formed);
        prop_assert_eq!(got, expect);
    }
}
