//! Property tests for the block-at-a-time conjunction of
//! `boss_index::svs`: the decoded-run kernel `intersect_runs` against set
//! intersection, and the feedback-seek `join` against the join it
//! replaced — one probe at a time through the cursor, kept here verbatim
//! as the oracle — over random probe sequences (ascending, or not, as a
//! corrupt lead list may decode) and probed lists, on cursors that read
//! descriptors lazily or the whole directory at open, with blocks a sink
//! refuses and then drops or fails on.
//!
//! Equal means: the same matches; the same ordered sequence of every
//! event that touches memory (descriptor reads, fetches, decodes, skips,
//! unusable blocks); the same sums of passed postings per reason and
//! kind; the same total a per-probe charge adds up to (IIU's binary
//! search, replayed from the cursor); the same join end; and the cursor
//! left in the same place.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use boss_compress::Scheme;
use boss_index::cursor::{ListCursor, ListSink, SkipReason};
use boss_index::svs::{intersect_runs, join};
use boss_index::{BlockMeta, DocId, Error, GroupMatches, IndexBuilder, InvertedIndex, PostingList};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Records what a cursor walk does: memory-touching events in order,
/// passed postings summed.
#[derive(Debug, Default, PartialEq, Eq)]
struct Ledger {
    events: Vec<String>,
    passed: BTreeMap<(String, bool), u64>,
    /// Blocks (by first docID) whose fetch is refused.
    refuse: BTreeSet<DocId>,
    drop_unusable: bool,
    /// The total a per-probe charge adds up to.
    charged: u64,
}

impl ListSink for Ledger {
    fn meta_read(&mut self, slot: usize, addr: u64, records: u64) {
        self.events.push(format!("meta {slot} {addr} {records}"));
    }
    fn block_fetch(&mut self, slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
        self.events.push(format!("fetch {slot} {addr}"));
        if self.refuse.contains(&meta.first_doc) {
            Err(Error::ReadFault { addr })
        } else {
            Ok(())
        }
    }
    fn block_decoded(&mut self, slot: usize, block: usize, _scheme: Scheme, _meta: &BlockMeta) {
        self.events.push(format!("decoded {slot} {block}"));
    }
    fn block_unusable(&mut self, slot: usize, meta: &BlockMeta, err: Error) -> Result<(), Error> {
        self.events
            .push(format!("unusable {slot} {}", meta.first_doc));
        if self.drop_unusable {
            Ok(())
        } else {
            Err(err)
        }
    }
    fn blocks_skipped(&mut self, slot: usize, blocks: u64, postings: u64, reason: SkipReason) {
        self.events
            .push(format!("skipped {slot} {blocks} {postings} {reason:?}"));
    }
    fn postings_passed(&mut self, _slot: usize, n: u64, reason: SkipReason, scanned: bool) {
        *self
            .passed
            .entry((format!("{reason:?}"), scanned))
            .or_default() += n;
    }
}

/// The charge of one probe that landed where `cursor` sits: IIU's binary
/// search over the directory, plus the in-block search when the probe
/// landed inside a block.
fn probe_charge(cursor: &ListCursor<'_>, doc: DocId) -> u64 {
    let steps = (cursor.n_blocks() + 1).ilog2() as u64 + cursor.block_ordinal() as u64 % 3;
    if !cursor.exhausted() && (cursor.is_decoded() || cursor.current_doc() == doc) {
        steps + 7 + cursor.block_postings() as u64
    } else {
        steps
    }
}

/// The feedback-seek join as it was before it ran block at a time: one
/// probe at a time through the cursor, one hook call per probe.
fn join_per_probe<S: ListSink>(
    cur: &GroupMatches,
    cursor: &mut ListCursor<'_>,
    sink: &mut S,
    mut probed: impl FnMut(&mut S, &ListCursor<'_>, DocId) -> bool,
) -> Result<GroupMatches, Error> {
    let (mut next, col) = cur.joined(cursor.term());
    for (i, &doc) in cur.docs().iter().enumerate() {
        cursor.seek(sink, doc, SkipReason::Block)?;
        if !probed(sink, cursor, doc) {
            break;
        }
        if !cursor.exhausted() && cursor.current_doc() == doc {
            if let Some(tf) = cursor.current_tf(sink)? {
                next.push_joined(doc, cur.row(i), col, tf);
            }
        }
    }
    Ok(next)
}

/// Where a cursor was left.
fn place(c: &ListCursor<'_>) -> (usize, Option<DocId>, u64) {
    let head = (!c.exhausted()).then(|| c.current_doc());
    (c.block_ordinal(), head, c.remaining())
}

/// An index holding one list, `probed` (term 0), over `n_docs` documents.
fn probed_index(docs: &[DocId], n_docs: DocId) -> InvertedIndex {
    let tfs = docs.iter().map(|d| d % 4 + 1).collect();
    let list = PostingList::from_columns(docs.to_vec(), tfs).expect("ascending");
    IndexBuilder::new()
        .doc_lens(vec![8; n_docs as usize])
        .add_posting_list("probed", &list)
        .build()
        .expect("index")
}

/// What one join did, for comparison.
type Outcome = (
    Result<GroupMatches, String>,
    Ledger,
    (usize, Option<DocId>, u64),
);

fn run_join(
    index: &InvertedIndex,
    probes: &[DocId],
    directory: bool,
    stop_when_exhausted: bool,
    faults: (&BTreeSet<DocId>, bool),
    batched: bool,
) -> Outcome {
    let mut sink = Ledger {
        refuse: faults.0.clone(),
        drop_unusable: faults.1,
        ..Ledger::default()
    };
    let tfs = probes.iter().map(|d| d % 3 + 1).collect();
    let lead = GroupMatches::from_column(1, probes.to_vec(), tfs);
    let mut cursor = if directory {
        ListCursor::with_directory(index, 0, 2, &mut sink)
    } else {
        ListCursor::new(index, 0, 2, &mut sink)
    };
    let result = if batched {
        join(&lead, &mut cursor, &mut sink, |s, c, doc, n| {
            s.charged += probe_charge(c, doc) * n as u64;
            !(stop_when_exhausted && c.exhausted())
        })
    } else {
        join_per_probe(&lead, &mut cursor, &mut sink, |s, c, doc| {
            s.charged += probe_charge(c, doc);
            !(stop_when_exhausted && c.exhausted())
        })
    };
    let place = place(&cursor);
    (result.map_err(|e| e.to_string()), sink, place)
}

const N_DOCS: DocId = 2_000;

/// A non-empty probed list: documents drawn at a density, in clusters or
/// spread.
fn list_strategy() -> impl Strategy<Value = Vec<DocId>> {
    (1u32..40, 0u32..N_DOCS, 0u32..N_DOCS, any::<u64>()).prop_map(|(every, lo, span, seed)| {
        let hi = (lo + span.max(1)).min(N_DOCS);
        let docs: Vec<DocId> = (lo..hi)
            .filter(|d| ((u64::from(*d) * 0x9E37_79B9) ^ seed) % u64::from(every) == 0)
            .collect();
        if docs.is_empty() {
            vec![lo]
        } else {
            docs
        }
    })
}

/// Probe documents: ascending as a valid lead list is, or shuffled in
/// places as a corrupt one may decode.
fn probes_strategy() -> impl Strategy<Value = Vec<DocId>> {
    (
        prop::collection::btree_set(0..N_DOCS + 50, 0..300),
        prop::collection::vec((0usize..300, 0usize..300), 0..4),
    )
        .prop_map(|(set, swaps)| {
            let mut probes: Vec<DocId> = set.into_iter().collect();
            for (x, y) in swaps {
                if !probes.is_empty() {
                    let n = probes.len();
                    probes.swap(x % n, y % n);
                }
            }
            probes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every hit pairs equal elements, both runs ascend through the hits,
    /// nothing is consumed past a run's end, and on ascending runs the
    /// hits are the whole intersection.
    #[test]
    fn intersect_runs_is_the_intersection(
        a in prop::collection::btree_set(0u32..400, 0..150),
        b in prop::collection::btree_set(0u32..400, 0..150),
        shuffle in any::<bool>(),
    ) {
        let (mut a, b): (Vec<DocId>, Vec<DocId>) = (a.into_iter().collect(), b.into_iter().collect());
        if shuffle && a.len() > 2 {
            let mid = a.len() / 2;
            a.swap(0, mid);
        }
        let mut hits = Vec::new();
        let m = intersect_runs(&a, &b, |i, j| hits.push((i, j)));
        prop_assert!(m.a <= a.len() && m.b <= b.len());
        prop_assert_eq!(m.matches, hits.len());
        prop_assert!(m.seeks as usize <= m.a + m.b - 2 * m.matches);
        for w in hits.windows(2) {
            prop_assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        for &(i, j) in &hits {
            prop_assert_eq!(a[i], b[j]);
        }
        if !shuffle {
            let bs: BTreeSet<DocId> = b.iter().copied().collect();
            let expect: Vec<DocId> = a.iter().copied().filter(|d| bs.contains(d)).collect();
            let got: Vec<DocId> = hits.iter().map(|&(i, _)| a[i]).collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// The block-at-a-time join is the per-probe join, charge for charge.
    #[test]
    fn join_is_the_per_probe_join(
        list in list_strategy(),
        probes in probes_strategy(),
        directory in any::<bool>(),
        stop_when_exhausted in any::<bool>(),
        fault_every in 0usize..5,
        drop_unusable in any::<bool>(),
    ) {
        let index = probed_index(&list, N_DOCS + 50);
        // Refuse every `fault_every`-th block's fetch (none when 0).
        let refuse: BTreeSet<DocId> = index
            .list(0)
            .blocks()
            .iter()
            .enumerate()
            .filter(|(b, _)| fault_every > 0 && b % fault_every == 1)
            .map(|(_, m)| m.first_doc)
            .collect();
        let faults = (&refuse, drop_unusable);
        let old = run_join(&index, &probes, directory, stop_when_exhausted, faults, false);
        let new = run_join(&index, &probes, directory, stop_when_exhausted, faults, true);
        prop_assert_eq!(new, old);
    }
}

/// The batches are taken: on a dense probed list most probes land inside
/// a block another probe decoded, and the hook prices them together.
#[test]
fn probes_inside_a_decoded_block_are_priced_as_one_batch() {
    let list: Vec<DocId> = (0..1_000).collect();
    let index = probed_index(&list, 1_000);
    // Odd documents: no probe is a block's first, so each block is
    // decoded by the seek of the probe whose hook sees it first.
    let probes: Vec<DocId> = (1..1_000).step_by(2).collect();
    let lead = GroupMatches::from_column(1, probes.clone(), vec![1; probes.len()]);
    let mut sink = Ledger::default();
    let mut cursor = ListCursor::new(&index, 0, 0, &mut sink);
    let mut calls = Vec::new();
    let joined = join(&lead, &mut cursor, &mut sink, |_, _, _, n| {
        calls.push(n);
        true
    })
    .unwrap();
    assert_eq!(joined.docs(), probes.as_slice());
    assert_eq!(calls.iter().sum::<usize>(), probes.len());
    // One probe through the cursor and one batch per 128-posting block.
    assert_eq!(calls.len(), 2 * index.list(0).n_blocks());
}
