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

    /// `probes` probe documents of a [`join`], the last of them `doc`, were
    /// sought in the probed list one after another and landed alike:
    /// inside the block `cursor` is on, in the gap before that undecoded
    /// block, or past the list's end (`cursor` exhausted). A lone probe
    /// leaves `cursor` on the list's first posting at or after `doc`.
    /// `false` ends the join before any of them joins. A hook whose answer
    /// and charge depend only on where a probe landed charges what one
    /// call per probe would. By default the join ends once the probed
    /// list is exhausted.
    fn probed(&mut self, cursor: &ListCursor<'_>, _doc: DocId, _probes: usize) -> bool {
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

/// How far [`intersect_runs`] consumed each of its two runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMerge {
    /// Elements of the first run consumed, matched or passed over.
    pub a: usize,
    /// Elements of the second run consumed, matched or passed over.
    pub b: usize,
    /// Matches; each consumed one element of both runs.
    pub matches: usize,
    /// Seeks; each moved one run, in one step, past every element below
    /// the other run's head.
    pub seeks: u64,
}

/// The decoded-run intersection kernel: intersects two runs of docIDs by
/// a two-pointer merge. Equal heads match — `hit(i, j)` — and both runs
/// advance; otherwise the run with the lower head seeks, scanning, to its
/// first element at or above the other head. The merge stops once a run
/// is consumed, or *before* a seek whose target exceeds the last element
/// of the run that would move: that seek leaves the run, and the caller's
/// cursor takes it. Each step is the one a cursor merge takes inside two
/// decoded blocks, so the result is exact on any input, ascending or not.
pub fn intersect_runs(a: &[DocId], b: &[DocId], mut hit: impl FnMut(usize, usize)) -> RunMerge {
    let mut m = RunMerge::default();
    let (Some(&a_last), Some(&b_last)) = (a.last(), b.last()) else {
        return m;
    };
    while m.a < a.len() && m.b < b.len() {
        let (x, y) = (a[m.a], b[m.b]);
        if x == y {
            hit(m.a, m.b);
            m.a += 1;
            m.b += 1;
            m.matches += 1;
        } else if x < y {
            if y > a_last {
                break;
            }
            m.a += a[m.a..].iter().take_while(|&&d| d < y).count();
            m.seeks += 1;
        } else {
            if x > b_last {
                break;
            }
            m.b += b[m.b..].iter().take_while(|&&d| d < x).count();
            m.seeks += 1;
        }
    }
    m
}

/// Intersects the running matches `cur` with the list under `cursor` by
/// feedback seek: every matched document is sought in the list, the
/// `probed` hook ([`SvsSink::probed`]) prices the probes (and may end the
/// join), and a document the list holds joins the result with its tf.
///
/// Block at a time: a probe goes through the cursor — its seek may skip,
/// fetch or decode — and the probes after it that land where it did are
/// one batch, one hook call. Those inside a decoded block are one
/// [`intersect_runs`] over the block's run, their scans one
/// [`ListCursor::pass_scanned`]. For a hook whose answer and charge
/// depend only on where a probe landed, as every engine's do, each charge
/// is what a probe at a time adds up to.
///
/// # Errors
///
/// What the sink's [`ListSink::block_unusable`] returns for an unusable
/// block; a block it drops holds no match.
pub fn join<S: ListSink>(
    cur: &GroupMatches,
    cursor: &mut ListCursor<'_>,
    sink: &mut S,
    mut probed: impl FnMut(&mut S, &ListCursor<'_>, DocId, usize) -> bool,
) -> Result<GroupMatches, Error> {
    let (mut next, col) = cur.joined(cursor.term());
    let docs = cur.docs();
    let mut i = 0;
    while let Some(&doc) = docs.get(i) {
        cursor.seek(sink, doc, SkipReason::Block)?;
        if !probed(sink, cursor, doc, 1) {
            break;
        }
        let landed = (cursor.block_ordinal(), cursor.is_decoded());
        if !cursor.exhausted() && cursor.current_doc() == doc {
            if let Some(tf) = cursor.current_tf(sink)? {
                next.push_joined(doc, cur.row(i), col, tf);
            }
        }
        i += 1;
        if (cursor.block_ordinal(), cursor.is_decoded()) != landed {
            // The tf read decoded the block or dropped it: the next probe
            // lands somewhere this one's hook did not see.
            continue;
        }

        // The probes that land where this one did: past the end, in the
        // gap before an undecoded block, or — strictly ascending, as the
        // kernel's exactness for a join asks — inside the decoded block.
        let rest = &docs[i..];
        let n = if cursor.exhausted() {
            rest.len()
        } else if cursor.is_decoded() {
            let (last, mut prev) = (cursor.block_last_doc(), doc);
            rest.iter()
                .take_while(|&&d| {
                    let ascends = prev < d;
                    prev = d;
                    ascends && d <= last
                })
                .count()
        } else {
            let head = cursor.current_doc();
            rest.iter().take_while(|&&d| d < head).count()
        };
        let Some(&batch_last) = rest[..n].last() else {
            continue;
        };
        if !probed(sink, cursor, batch_last, n) {
            break;
        }
        if cursor.is_decoded() {
            let (run, tfs) = cursor.run();
            let mut last_matched = false;
            let m = intersect_runs(&rest[..n], run, |p, r| {
                next.push_joined(rest[p], cur.row(i + p), col, tfs[r]);
                last_matched = p + 1 == n;
            });
            debug_assert!(
                m.a == n || run.get(m.b).is_some_and(|&h| rest[m.a] < h),
                "every probe of the batch landed"
            );
            // A match stays the cursor's posting until a later probe.
            cursor.pass_scanned(sink, m.b - usize::from(last_matched), SkipReason::Block);
        }
        i += n;
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
