//! Property tests for `boss_index::matches`: over random intersection
//! groups — 1 to 16 of them, 1 to 4 terms wide, drawn from a vocabulary
//! and a docID range small enough that terms and documents overlap
//! between groups, empty groups included — `join_sorted` must compute
//! each group's intersection and `merge_groups` must visit exactly what a
//! `BTreeMap` oracle holds: every matched document once, ascending, with
//! its distinct `(term, tf)` entries ascending by term.

use boss_index::{merge_groups, DocId, GroupMatches, TermId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A tf is a property of the `(term, document)` pair, so groups that
/// share a term must agree on it.
fn tf(term: TermId, doc: DocId) -> u32 {
    (term * 31 + doc * 7) % 5 + 1
}

/// One group as drawn: per member term, the documents that contain it.
type DrawnGroup = Vec<(TermId, BTreeSet<DocId>)>;

fn group_strategy() -> impl Strategy<Value = DrawnGroup> {
    prop::collection::vec(
        (0u32..6, prop::collection::btree_set(0u32..24, 0..25)),
        1..5,
    )
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
    let column = |&(term, ref docs): &(TermId, BTreeSet<DocId>)| {
        let docs: Vec<DocId> = docs.iter().copied().collect();
        let tfs: Vec<u32> = docs.iter().map(|&d| tf(term, d)).collect();
        (docs, tfs)
    };
    let (docs, tfs) = column(&group[0]);
    let mut cur = GroupMatches::from_column(group[0].0, docs, tfs);
    for m in &group[1..] {
        let (docs, tfs) = column(m);
        cur = cur.join_sorted(m.0, &docs, &tfs);
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_equals_btreemap_oracle(drawn in prop::collection::vec(group_strategy(), 1..17)) {
        let mut oracle: BTreeMap<DocId, BTreeMap<TermId, u32>> = BTreeMap::new();
        let mut groups = Vec::new();
        for group in drawn.into_iter().map(distinct_members) {
            let matches = intersect(&group);
            let terms: BTreeSet<TermId> = group.iter().map(|m| m.0).collect();
            let docs: Vec<DocId> = (0..24)
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
        let expect: Vec<(DocId, Vec<(TermId, u32)>)> = oracle
            .into_iter()
            .map(|(d, row)| (d, row.into_iter().collect()))
            .collect();
        let mut got = Vec::new();
        merge_groups(&groups, |d, entries| got.push((d, entries.to_vec())));
        prop_assert_eq!(got, expect);
    }
}
