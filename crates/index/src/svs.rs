//! The small-versus-small (SvS) query traversal of the IIU and Lucene-like
//! baselines, and the feedback-seek join BOSS's intersection module
//! shares with it. The baselines differ only in how they *pay* for one
//! traversal, so [`search`] is that traversal and an engine is the
//! [`SvsSink`] that prices it: a pure union under a pruning algorithm
//! goes to [`crate::prune::pruned_union_topk`]; otherwise each group runs
//! in ascending document frequency — the lead list streamed whole
//! ([`ListCursor::load`]), each further term probed by [`join`] on a
//! cursor that read its directory at open — and the groups are scored
//! into one [`TopK`]. Every list access goes through a [`ListCursor`], so
//! every physical event crosses the sink.

use crate::algorithm::QueryAlgorithm;
use crate::cursor::{ListCursor, ListSink, SkipReason};
use crate::index::{InvertedIndex, TermId};
use crate::matches::{union_scored, GroupMatches};
use crate::prune::{self, PruneOutcome, PruneSink};
use crate::score::ScoreScratch;
use crate::topk::TopK;
use crate::{DocId, Error, BLOCK_SIZE};

/// What an SvS traversal does beside walking its cursors, for the engine
/// that prices it. The cursors' physical events arrive through the
/// [`ListSink`] half, a pruned union's through the [`PruneSink`] half.
pub trait SvsSink: PruneSink {
    /// The query is a pure union under a pruning algorithm: every later
    /// event comes from [`crate::prune::pruned_union_topk`].
    fn pruned_union(&mut self) {}

    /// Probe document `doc` of a [`join`] was sought in the probed list:
    /// `cursor` sits on the list's first posting at or after `doc`, or is
    /// exhausted. `false` ends the join. By default the join ends once the
    /// probed list is exhausted.
    fn probed(&mut self, cursor: &ListCursor<'_>, _doc: DocId) -> bool {
        !cursor.exhausted()
    }

    /// A join of `input` running matches against one more term produced
    /// `output` matches.
    fn joined(&mut self, _input: usize, _output: usize) {}

    /// An intersection group finished with `matches` documents.
    fn group_matched(&mut self, _matches: usize) {}

    /// A run of candidates, ascending, was scored and offered to the
    /// top-k.
    fn scored(&mut self, _docs: &[DocId]) {}
}

/// Intersects the running matches `cur` with the list under `cursor` by
/// feedback seek: every matched document is sought in the list, the
/// sink's `probed` hook prices the probe (and may end the join), and a
/// document the list holds joins the result with its tf.
///
/// # Errors
///
/// What the sink's [`ListSink::block_unusable`] returns for an unusable
/// block; a block it drops holds no match.
pub fn join<S: ListSink>(
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

/// Evaluates a planned query — `groups` is a union of intersection groups
/// — under `algorithm`, returning the exact top-`k` of the exhaustive
/// oracle and reporting everything it reads, decodes, joins and scores to
/// `sink` (the module-level description). `k == 0` returns no hits and
/// reports nothing.
///
/// # Errors
///
/// What [`crate::prune::pruned_union_topk`] returns on the pruned path,
/// and what the sink's [`ListSink::block_unusable`] returns for an
/// unusable block.
///
/// # Panics
///
/// Panics if a group is empty or names a term out of range.
pub fn search<S: SvsSink>(
    index: &InvertedIndex,
    groups: &[Vec<TermId>],
    algorithm: QueryAlgorithm,
    k: usize,
    sink: &mut S,
) -> Result<PruneOutcome, Error> {
    if k == 0 {
        return Ok(PruneOutcome::default());
    }
    if algorithm.prunes() && groups.len() > 1 && groups.iter().all(|g| g.len() == 1) {
        sink.pruned_union();
        let terms: Vec<TermId> = groups.iter().map(|g| g[0]).collect();
        return prune::pruned_union_topk(index, &terms, algorithm, k, sink);
    }

    let mut matches = Vec::with_capacity(groups.len());
    for group in groups {
        let mut order = group.clone();
        order.sort_by_key(|&t| index.list(t).df());
        let (docs, tfs) = ListCursor::load(index, order[0], 0, sink)?;
        let mut cur = GroupMatches::from_column(order[0], docs, tfs);
        for (slot, &term) in order.iter().enumerate().skip(1) {
            let mut cursor = ListCursor::with_directory(index, term, slot, sink);
            let next = join(&cur, &mut cursor, sink, S::probed)?;
            sink.joined(cur.len(), next.len());
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        sink.group_matched(cur.len());
        matches.push(cur);
    }

    let mut topk = TopK::new(k);
    match matches.as_slice() {
        [only] if only.terms().len() == 1 => {
            // The candidates are the decoded list itself, in docID order,
            // and a one-term score is exactly the kernel's term score.
            let (bm25, norms) = (index.bm25(), index.doc_norms());
            let idf = index.list(only.terms()[0]).idf();
            let mut scores = ScoreScratch::new();
            let runs = only.docs().chunks(BLOCK_SIZE);
            for (docs, tfs) in runs.zip(only.tfs().chunks(BLOCK_SIZE)) {
                bm25.score_block(idf, docs, tfs, norms, &mut scores);
                sink.scored(docs);
                topk.sift_block(docs, scores.scores());
            }
        }
        _ => union_scored(index, &matches, |docs, scores| {
            sink.scored(docs);
            topk.sift_block(docs, scores);
        }),
    }
    Ok(PruneOutcome {
        topk_inserts: topk.inserts(),
        hits: topk.into_hits(),
    })
}
