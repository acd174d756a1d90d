//! Property tests for the scored cursor: a `ListCursor` opened `scored`
//! holds its decoded block's term scores, and must move exactly as one
//! opened `new` does. Random lists over documents of random lengths are
//! walked by random sequences of `seek`, `PruneStream::take`,
//! `advance_run`, `pass_scanned`, `drain` and `fetch_block`, under a
//! recording sink that refuses some blocks' fetches and then drops those
//! blocks or fails on them.
//!
//! Equal means: the same ordered log of every event (descriptor reads,
//! fetches, decodes, unusable blocks, skips, passed postings), the same
//! results, and the cursors in the same place after every step. And
//! after every step the scored cursor's `run_scores()` is one score per
//! posting of its `run()`, each bit for bit `Bm25::term_score(idf, tf,
//! norm)` — on every block it decodes, the first one after a dropped
//! block included — while the unscored cursor's is empty.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use boss_compress::Scheme;
use boss_index::cursor::{ListCursor, ListSink, SkipReason};
use boss_index::prune::PruneStream;
use boss_index::{BlockMeta, DocId, Error, IndexBuilder, InvertedIndex, PostingList};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Records every event a cursor walk reports, in order.
#[derive(Debug, Default)]
struct Log {
    events: Vec<String>,
    /// Blocks (by first docID) whose fetch is refused.
    refuse: BTreeSet<DocId>,
    drop_unusable: bool,
}

impl ListSink for Log {
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
    fn postings_passed(&mut self, slot: usize, n: u64, reason: SkipReason, scanned: bool) {
        self.events
            .push(format!("passed {slot} {n} {reason:?} {scanned}"));
    }
}

/// One cursor move; sizes are taken modulo what the cursor allows.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// To the current document plus `ahead`.
    Seek {
        ahead: u32,
        reason: SkipReason,
    },
    Take,
    /// `1 + n % run` postings of a decoded block.
    AdvanceRun(usize),
    /// `n % (run - 1)` postings of a decoded block, staying in it.
    PassScanned {
        n: usize,
        reason: SkipReason,
    },
    Drain(SkipReason),
    FetchBlock,
}

fn reason() -> impl Strategy<Value = SkipReason> {
    prop_oneof![
        Just(SkipReason::Block),
        Just(SkipReason::Wand),
        Just(SkipReason::Prune),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..400, reason()).prop_map(|(ahead, reason)| Op::Seek { ahead, reason }),
        4 => Just(Op::Take),
        3 => (0usize..256).prop_map(Op::AdvanceRun),
        2 => (0usize..256, reason()).prop_map(|(n, reason)| Op::PassScanned { n, reason }),
        1 => reason().prop_map(Op::Drain),
        2 => Just(Op::FetchBlock),
    ]
}

/// An index of one list, term 0: `docs` with tfs 1–8, over documents
/// of lengths 1–40 so that the norms differ.
fn index(docs: &[DocId], n_docs: DocId, seed: u64) -> InvertedIndex {
    let mix = |x: u64| (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed) >> 17;
    let tfs = docs.iter().map(|&d| 1 + mix(d.into()) as u32 % 8).collect();
    let list = PostingList::from_columns(docs.to_vec(), tfs).expect("ascending");
    let lens = (0..n_docs).map(|d| 1 + mix(d.into()) as u32 % 40).collect();
    IndexBuilder::new()
        .doc_lens(lens)
        .add_posting_list("t", &list)
        .build()
        .expect("index")
}

/// Where a cursor is.
fn place(c: &ListCursor<'_>) -> (usize, bool, Option<DocId>, u64) {
    let head = (!c.exhausted()).then(|| c.current_doc());
    (c.block_ordinal(), c.is_decoded(), head, c.remaining())
}

/// Applies `op` to `c`.
fn apply(c: &mut ListCursor<'_>, sink: &mut Log, op: Op) -> Result<String, Error> {
    let run = c.run().0.len();
    match op {
        Op::Seek { ahead, reason } => {
            if !c.exhausted() {
                c.seek(sink, c.current_doc().saturating_add(ahead), reason)?;
            }
        }
        Op::Take => {
            let mut out = Vec::new();
            let bound = PruneStream::take(c, sink, &mut out)?;
            return Ok(format!("{:?} {out:?}", bound.to_bits()));
        }
        Op::AdvanceRun(n) if run > 0 => c.advance_run(sink, 1 + n % run),
        Op::PassScanned { n, reason } if run > 1 => c.pass_scanned(sink, n % (run - 1), reason),
        Op::AdvanceRun(_) | Op::PassScanned { .. } => {}
        Op::Drain(reason) => c.drain(sink, reason),
        Op::FetchBlock => return c.fetch_block(sink).map(|f| f.to_string()),
    }
    Ok(String::new())
}

/// The scored cursor's scores are its run's, bit for bit; the unscored
/// cursor has none.
fn assert_scores(index: &InvertedIndex, scored: &ListCursor<'_>, plain: &ListCursor<'_>) {
    assert!(plain.run_scores().is_empty(), "an unscored cursor scored");
    let (docs, tfs) = scored.run();
    let scores = scored.run_scores();
    assert_eq!(scores.len(), docs.len(), "scores and run differ in length");
    let (bm25, norms) = (index.bm25(), index.doc_norms());
    for ((&doc, &tf), &score) in docs.iter().zip(tfs).zip(scores) {
        let want = bm25.term_score(scored.idf(), tf, norms[doc as usize]);
        assert_eq!(score.to_bits(), want.to_bits(), "doc {doc} tf {tf}");
    }
}

/// Walks `ops` with a scored and an unscored cursor over `index`'s term
/// 0, each under its own sink refusing the blocks in `refuse`, and
/// asserts they stay alike. Returns how many blocks the scored walk
/// decoded next after dropping one.
fn walk(index: &InvertedIndex, ops: &[Op], refuse: &BTreeSet<DocId>, drop_unusable: bool) -> usize {
    let sink = || Log {
        refuse: refuse.clone(),
        drop_unusable,
        ..Log::default()
    };
    let (mut s_log, mut p_log) = (sink(), sink());
    let mut scored = ListCursor::scored(index, 0, 1, &mut s_log);
    let mut plain = ListCursor::new(index, 0, 1, &mut p_log);
    let (mut dropped, mut after_drop) = (false, 0);
    for (i, &op) in ops.iter().enumerate() {
        let seen = s_log.events.len();
        let s = apply(&mut scored, &mut s_log, op).map_err(|e| e.to_string());
        let p = apply(&mut plain, &mut p_log, op).map_err(|e| e.to_string());
        assert_eq!(s, p, "step {i}: {op:?}");
        assert_eq!(s_log.events, p_log.events, "step {i}: {op:?}");
        assert_eq!(place(&scored), place(&plain), "step {i}: {op:?}");
        assert_scores(index, &scored, &plain);
        for e in &s_log.events[seen..] {
            if e.starts_with("unusable") {
                dropped = true;
            } else if e.starts_with("decoded") && dropped {
                (dropped, after_drop) = (false, after_drop + 1);
            }
        }
        if s.is_err() {
            break;
        }
    }
    after_drop
}

const N_DOCS: DocId = 3_000;

/// A non-empty list of documents under `n_docs`, at a density, in a
/// cluster or spread.
fn list(n_docs: DocId) -> impl Strategy<Value = Vec<DocId>> {
    (1u32..12, 0..n_docs, 1..n_docs, any::<u64>()).prop_map(move |(every, lo, span, seed)| {
        let hi = (lo + span).min(n_docs);
        let docs: Vec<DocId> = (lo..hi)
            .filter(|&d| ((u64::from(d) * 0x9E37_79B9) ^ seed) % u64::from(every) == 0)
            .collect();
        if docs.is_empty() {
            vec![lo]
        } else {
            docs
        }
    })
}

/// Checks one case: refuses every `fault_every`-th block's fetch (none
/// when 0), and drops those blocks or fails on them. The properties drop
/// them four times in five.
fn check(docs: &[DocId], n_docs: DocId, seed: u64, ops: &[Op], faults: (usize, bool)) {
    let (fault_every, drop_unusable) = faults;
    let index = index(docs, n_docs, seed);
    let refuse: BTreeSet<DocId> = index
        .list(0)
        .blocks()
        .iter()
        .enumerate()
        .filter(|(b, _)| fault_every > 0 && b % fault_every == 1)
        .map(|(_, m)| m.first_doc)
        .collect();
    walk(&index, ops, &refuse, drop_unusable);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn a_scored_cursor_moves_as_an_unscored_one(
        docs in list(N_DOCS),
        seed in any::<u64>(),
        ops in prop::collection::vec(op(), 0..80),
        fault_every in 0usize..4,
        drop in 0u8..5,
    ) {
        check(&docs, N_DOCS, seed, &ops, (fault_every, drop > 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// The wide sweep: more cases, larger corpora, longer walks (the
    /// smoke CI job runs it in release).
    #[test]
    #[ignore = "wide sweep: cargo test --release -p boss-index --test cursor_properties -- --ignored"]
    fn a_scored_cursor_moves_as_an_unscored_one_wide(
        (n_docs, docs) in (1_000u32..40_000).prop_flat_map(|n| (Just(n), list(n))),
        seed in any::<u64>(),
        ops in prop::collection::vec(op(), 0..400),
        fault_every in 0usize..6,
        drop in 0u8..5,
    ) {
        check(&docs, n_docs, seed, &ops, (fault_every, drop > 0));
    }
}

/// The block a cursor decodes right after it dropped one is scored
/// afresh: every third block of a dense list is refused and dropped, and
/// a walk of takes crosses each.
#[test]
fn the_block_decoded_after_a_dropped_one_is_scored() {
    let docs: Vec<DocId> = (0..N_DOCS).step_by(3).collect();
    let index = index(&docs, N_DOCS, 7);
    let blocks = index.list(0).blocks();
    assert!(blocks.len() >= 6);
    let refuse = blocks
        .iter()
        .skip(1)
        .step_by(3)
        .map(|m| m.first_doc)
        .collect();
    let after_drop = walk(&index, &[Op::Take; 1_000], &refuse, true);
    assert!(after_drop >= 2, "{after_drop} blocks decoded after a drop");
}
