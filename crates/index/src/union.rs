//! The union module: a hardware WAND (Section IV-C "Union Module")
//! combined with the block fetch module's score-estimation early
//! termination (Block-Max style, Section IV-C "Block Fetch Module"), and
//! the one WAND / Block-Max WAND loop of every engine.
//!
//! The module consumes *streams* — posting-list cursors, or on the BOSS
//! device the materialized outputs of intersection groups for mixed
//! queries — and drives scoring + top-k. Every [`Rounds`] produces the
//! same top-k; they differ only in how much work is skipped.
//!
//! One round loop ([`union_topk`]) serves BOSS's three early-termination
//! modes and the WAND-family pruning plans of all three engines; the
//! MaxScore family runs [`crate::prune::maxscore_union`] over the same
//! streams ([`PruneStream`]). Between rounds the loop keeps a
//! [`Frontier`]: the live streams' sIDs packed into integer sort keys and
//! the cutoff's comparison bound ([`ThetaBound`]), each re-derived only
//! when the event that can change it happened. A list stream's cursor is
//! opened [`ListCursor::scored`]: it holds its decoded block's docIDs and
//! term scores, one [`crate::Bm25::score_block`] per decode, so a round
//! reads heads, scores and bounds from the cursor and moves it inside the
//! block without an event. A round whose pivot set is one decoded list
//! stream gathers in one step every posting of its run below the next
//! live stream's head: each of their own rounds would find θ, and so
//! every check, as this round did ([`take_run`]).
//!
//! What the loop does besides walking its streams goes to the engine's
//! [`PruneSink`]: a [`PruneSink::round`] per pivot round, the pivot's
//! [`PruneSink::doc_norm`] after its postings are gathered and
//! [`PruneSink::doc_scored`] once it is scored, and at termination each
//! live stream's [`PruneStream::give_up`] under the rounds' pop reason.

use crate::cursor::{ListCursor, ListSink, SkipReason};
use crate::matches::{canonical_sum, GroupMatches};
use crate::prune::{check_bound, theta_bound, PruneSink, PruneStream};
use crate::{DocId, Error, InvertedIndex, TermId, TopK};

/// A materialized intermediate stream (the output of an intersection
/// group), held in on-chip buffers — BOSS never spills it to memory. The
/// host model keeps it as one columnar [`GroupMatches`] plus a cursor.
#[derive(Debug)]
pub struct MatStream {
    /// The group's matching documents and their `(term, tf)` entries.
    pub matches: GroupMatches,
    /// Upper bound of this stream's score contribution.
    pub max_score: f32,
    pos: usize,
}

impl MatStream {
    /// A stream at the first of `matches`, bounded by `max_score`.
    pub fn new(matches: GroupMatches, max_score: f32) -> Self {
        MatStream {
            matches,
            max_score,
            pos: 0,
        }
    }

    /// The documents not consumed yet.
    #[inline]
    fn rest(&self) -> &[DocId] {
        &self.matches.docs()[self.pos..]
    }

    /// Scans the registers up to `target`: one comparison per document
    /// passed, reported as stream 0 (no decompression module is bound to
    /// a materialized stream).
    fn seek<S: ListSink>(&mut self, sink: &mut S, target: DocId, reason: SkipReason) {
        let bypassed = self.rest().iter().take_while(|&&d| d < target).count();
        self.pos += bypassed;
        sink.postings_passed(0, bypassed as u64, reason, true);
    }
}

/// One input of the union module.
#[derive(Debug)]
pub enum UnionStream<'a> {
    /// A posting-list cursor (single-term group); [`union_topk`] reads
    /// its scores, so it must be opened [`ListCursor::scored`].
    List(ListCursor<'a>),
    /// A materialized intersection output.
    Mat(MatStream),
}

impl UnionStream<'_> {
    /// The stream's sID — its smallest unevaluated docID — or `None` once
    /// exhausted.
    #[inline]
    fn head(&self) -> Option<DocId> {
        (!self.exhausted()).then(|| self.current_doc())
    }

    #[inline]
    fn remaining(&self) -> u64 {
        match self {
            UnionStream::List(c) => c.remaining(),
            UnionStream::Mat(m) => m.rest().len() as u64,
        }
    }

    /// Whole-block skip probe (block fetch module capability): `Some`
    /// with the block's last docID when the stream sits at an unfetched
    /// block boundary. Materialized streams live in registers and have no
    /// blocks to skip.
    #[inline]
    fn whole_block_skippable(&self) -> Option<DocId> {
        match self {
            UnionStream::List(c) => c.whole_block_skippable(),
            UnionStream::Mat(_) => None,
        }
    }
}

/// A materialized stream reports its events as stream 0: it is bound to
/// no decompression module.
impl PruneStream for UnionStream<'_> {
    /// List-level (or group-level) max score: the WAND lookup-table value.
    #[inline]
    fn max_score(&self) -> f32 {
        match self {
            UnionStream::List(c) => c.list_max(),
            UnionStream::Mat(m) => m.max_score,
        }
    }

    #[inline]
    fn exhausted(&self) -> bool {
        match self {
            UnionStream::List(c) => c.exhausted(),
            UnionStream::Mat(m) => m.rest().is_empty(),
        }
    }

    #[inline]
    fn current_doc(&self) -> DocId {
        match self {
            UnionStream::List(c) => c.current_doc(),
            UnionStream::Mat(m) => m.rest()[0],
        }
    }

    /// Materialized streams have no block structure, so their global max
    /// and last doc stand in.
    #[inline]
    fn shallow_block_max(&self, target: DocId) -> Option<(f32, DocId)> {
        match self {
            UnionStream::List(c) => c.shallow_block_max(target),
            UnionStream::Mat(m) => m.rest().last().map(|&last| (m.max_score, last)),
        }
    }

    fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        match self {
            UnionStream::List(c) => c.seek(sink, target, reason)?,
            UnionStream::Mat(m) => m.seek(sink, target, reason),
        }
        Ok(())
    }

    /// A materialized stream's entries carry no stored bound.
    fn take<S: ListSink>(
        &mut self,
        sink: &mut S,
        out: &mut Vec<(TermId, u32)>,
    ) -> Result<f32, Error> {
        match self {
            UnionStream::List(c) => c.take(sink, out),
            UnionStream::Mat(m) => {
                m.matches.entries_at(m.pos, out);
                m.pos += 1;
                Ok(f32::INFINITY)
            }
        }
    }

    /// The union module terminates: the rest is counted as passed over,
    /// and no block event is reported.
    fn give_up<S: ListSink>(&mut self, sink: &mut S, reason: SkipReason) {
        let slot = match self {
            UnionStream::List(c) => c.slot(),
            UnionStream::Mat(_) => 0,
        };
        sink.postings_passed(slot, self.remaining(), reason, false);
    }
}

/// `min(block-max, list max)` of `c`'s current block: no posting of the
/// block may score above it.
#[inline]
fn posting_bound(c: &ListCursor<'_>) -> f32 {
    c.block_max().min(c.list_max())
}

/// [`theta_bound`] of the most recent θ. θ moves only when the top-k
/// accepts an entry, so most rounds re-use the bound and every test
/// against it is one compare.
#[derive(Debug)]
struct ThetaBound {
    theta_bits: u32,
    bound: f64,
}

impl ThetaBound {
    fn new() -> Self {
        ThetaBound {
            theta_bits: f32::NEG_INFINITY.to_bits(),
            bound: f64::NEG_INFINITY,
        }
    }

    /// `theta_bound(theta)`, recomputed only when θ's bits changed.
    #[inline]
    fn of(&mut self, theta: f32) -> f64 {
        if theta.to_bits() != self.theta_bits {
            self.theta_bits = theta.to_bits();
            self.bound = theta_bound(theta);
        }
        self.bound
    }
}

/// What a round of the union module may skip — the one axis along which
/// BOSS's early-termination modes and the WAND-family pruning plans
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    /// Every document of every stream is scored.
    Exhaustive,
    /// The block fetch module skips whole unfetched blocks on block-max
    /// estimates; the union module pops nothing.
    BlockOnly,
    /// Document-level WAND: the pivot is the first sID whose summed list
    /// bounds can beat θ. With `block_max` the pivot set's block maxes are
    /// probed too and whole windows skipped (Block-Max WAND). `prune`
    /// marks a dynamic-pruning query plan: skipped work is reported as
    /// [`SkipReason::Prune`], so the exhaustive plan's early-termination
    /// counters stay untouched.
    Wand { block_max: bool, prune: bool },
}

/// Where skipped work is attributed, as `(block-level skips, document-level
/// pops)`: a pruning plan keeps both off the exhaustive path's ET counters.
fn skip_reasons(prune: bool) -> (SkipReason, SkipReason) {
    if prune {
        (SkipReason::Prune, SkipReason::Prune)
    } else {
        (SkipReason::Block, SkipReason::Wand)
    }
}

/// The sorter's view of the streams: one `sID << 32 | stream` key per
/// live stream, so ordering by sID with ties by stream index is integer
/// order. A key is rewritten only when its stream moved and dropped when
/// the stream exhausts; nothing else is re-derived between rounds.
#[derive(Debug)]
struct Frontier {
    keys: Vec<u64>,
    theta: ThetaBound,
}

/// Key of an exhausted stream: sorts behind every live one.
const EXHAUSTED: u64 = u64::MAX;

// The loop is compiled in the engine crates that instantiate it, so the
// per-round helpers are `#[inline]`: out of line, `sort` alone made the
// union rounds a few percent slower.
impl Frontier {
    fn new(streams: &[UnionStream<'_>]) -> Self {
        Frontier {
            keys: (0..streams.len()).map(|i| Self::key(i, streams)).collect(),
            theta: ThetaBound::new(),
        }
    }

    /// Stream `i`'s key.
    #[inline]
    fn key(i: usize, streams: &[UnionStream<'_>]) -> u64 {
        streams[i]
            .head()
            .map_or(EXHAUSTED, |doc| u64::from(doc) << 32 | i as u64)
    }

    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// sID of the stream at sorted position `pos`.
    #[inline]
    fn doc(&self, pos: usize) -> DocId {
        (self.keys[pos] >> 32) as DocId
    }

    /// Index of the stream at sorted position `pos`.
    #[inline]
    fn stream(&self, pos: usize) -> usize {
        self.keys[pos] as u32 as usize
    }

    /// Re-reads the sID of the stream at `pos` after it moved.
    #[inline]
    fn refresh(&mut self, pos: usize, streams: &[UnionStream<'_>]) {
        self.keys[pos] = Self::key(self.stream(pos), streams);
    }

    /// ① The sorter: ascending sID, ties by stream index, exhausted
    /// streams dropped. Up to four keys (the paper's per-core width) pass
    /// a branch-free sorting network; wider unions insert in place, since
    /// few streams moved since the last round.
    #[inline]
    fn sort(&mut self) {
        /// A branch-free compare-exchange.
        #[inline]
        fn order(a: &mut u64, b: &mut u64) {
            (*a, *b) = ((*a).min(*b), (*a).max(*b));
        }
        match self.keys.as_mut_slice() {
            [a, b] => order(a, b),
            [a, b, c] => {
                order(a, b);
                order(b, c);
                order(a, b);
            }
            [a, b, c, d] => {
                order(a, b);
                order(c, d);
                order(a, c);
                order(b, d);
                order(b, c);
            }
            keys => {
                for j in 1..keys.len() {
                    let key = keys[j];
                    let mut p = j;
                    while p > 0 && keys[p - 1] > key {
                        keys[p] = keys[p - 1];
                        p -= 1;
                    }
                    keys[p] = key;
                }
            }
        }
        while self.keys.last() == Some(&EXHAUSTED) {
            self.keys.pop();
        }
    }

    /// Seeks the stream at `pos` to `target` and re-reads its sID. Inside
    /// a list stream's decoded block this is the cursor's scan, one event.
    fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        streams: &mut [UnionStream<'_>],
        pos: usize,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        streams[self.stream(pos)].seek(sink, target, reason)?;
        self.refresh(pos, streams);
        Ok(())
    }

    /// Gathers the contribution of the stream at `pos`, which sits at the
    /// pivot, and moves it past: a list posting's term score, from its
    /// decoded block, into `scores` (refused above its block's bound when
    /// `checked`), a materialized match's `(term, tf)` entries into
    /// `entries`, to be scored once the norm is loaded. A list block
    /// dropped as unusable contributes nothing.
    #[inline]
    fn take<S: ListSink>(
        &mut self,
        sink: &mut S,
        streams: &mut [UnionStream<'_>],
        pos: usize,
        checked: bool,
        scores: &mut Vec<(TermId, f32)>,
        entries: &mut Vec<(TermId, u32)>,
    ) -> Result<(), Error> {
        match &mut streams[self.stream(pos)] {
            UnionStream::Mat(m) => {
                m.matches.entries_at(m.pos, entries);
                m.pos += 1;
            }
            UnionStream::List(c) => {
                if c.fetch_block(sink)? {
                    let score = c.run_scores()[0];
                    if checked {
                        check_bound(score, posting_bound(c))?;
                    }
                    scores.push((c.term(), score));
                    c.advance_run(sink, 1);
                }
            }
        }
        self.refresh(pos, streams);
        Ok(())
    }
}

/// The gather of a round whose pivot set is the decoded list stream `c`,
/// batched: takes, scores and offers in one step every posting of its run
/// below `next`, the next live stream's head (the whole run when no other
/// stream is live).
///
/// Each of those postings would open its own round with this stream alone
/// at the pivot. That round's pivot test reads the list bound and its
/// block test the block-max, both at least the posting bound; θ can only
/// rise to a score the run offers, which is at most that bound
/// ([`check_bound`] refuses the run otherwise), and a test passes
/// strictly below θ. So every such round reaches this round's decisions,
/// and a decoded block is never whole-block skippable.
///
/// The step makes the rounds' events and sink calls in their order: per
/// posting its norm load and its scoring, then the next round, and, when
/// the run takes the block's last posting, the cursor's crossing of the
/// block before the last norm load.
// Out of line: it runs once per run, and inlined into the round loop it
// slowed the rounds of several streams.
#[inline(never)]
fn take_run<S: PruneSink>(
    index: &InvertedIndex,
    sink: &mut S,
    c: &mut ListCursor<'_>,
    next: Option<DocId>,
    checked: bool,
    topk: &mut TopK,
) -> Result<(), Error> {
    let (docs, _) = c.run();
    let n = next.map_or(docs.len(), |next| docs.partition_point(|&d| d < next));
    let (docs, scores) = (&docs[..n], &c.run_scores()[..n]);
    if checked {
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        check_bound(max, posting_bound(c))?;
    }
    topk.sift_block(docs, scores);
    let last = docs[n - 1];
    for &doc in &docs[..n - 1] {
        sink.doc_norm(index, doc)?;
        sink.doc_scored(doc);
        sink.round();
    }
    c.advance_run(sink, n);
    sink.doc_norm(index, last)?;
    sink.doc_scored(last);
    Ok(())
}

/// Runs the union + scoring + top-k stage over `streams`.
///
/// The caller supplies streams in any order; documents are emitted in
/// ascending docID order, with each document's score summed over the
/// *distinct* terms contributed by all streams that contain it. The
/// caller reads the top-k's inserts off `topk`.
///
/// # Errors
///
/// What the sink's [`ListSink::block_unusable`] returns for an unusable
/// block (a faulted read or a corrupt block; a sink that drops it lets
/// the union continue on the remaining postings), and the sink's
/// [`PruneSink::doc_norm`] error. Under every [`Rounds`] but
/// `Exhaustive`, a decoded list posting scoring above its block's or
/// list's bound is [`Error::CorruptMetadata`] ([`check_bound`]).
pub fn union_topk<S: PruneSink>(
    index: &InvertedIndex,
    streams: &mut [UnionStream<'_>],
    rounds: Rounds,
    topk: &mut TopK,
    sink: &mut S,
) -> Result<(), Error> {
    let (doc_level, block_max, prune) = match rounds {
        Rounds::Exhaustive => (false, false, false),
        Rounds::BlockOnly => (false, true, false),
        Rounds::Wand { block_max, prune } => (true, block_max, prune),
    };
    let (block_reason, pop_reason) = skip_reasons(prune);
    // Every round but the exhaustive one trusts the streams' bounds, so
    // each gathered list posting is checked against its block's bound.
    let checked = rounds != Rounds::Exhaustive;
    let mut frontier = Frontier::new(streams);
    let mut scores: Vec<(TermId, f32)> = Vec::with_capacity(8);
    let mut entries: Vec<(TermId, u32)> = Vec::new();
    let maxes: Vec<f32> = streams.iter().map(UnionStream::max_score).collect();

    loop {
        frontier.sort();
        if frontier.len() == 0 {
            break;
        }
        sink.round();
        let bound = frontier.theta.of(topk.cutoff());

        // ②/③ Score loader + pivot selector (document-level WAND): the f64
        // sum of ≤ 4 f32 bounds within 2^28 of each other is exact.
        let pivot_pos = if doc_level {
            let mut acc = 0.0f64;
            let mut found = None;
            for pos in 0..frontier.len() {
                acc += f64::from(maxes[frontier.stream(pos)]);
                if acc <= bound {
                    continue;
                }
                found = Some(pos);
                break;
            }
            let Some(p) = found else {
                // No document anywhere can beat θ: terminate the query.
                for pos in 0..frontier.len() {
                    streams[frontier.stream(pos)].give_up(sink, pop_reason);
                }
                break;
            };
            p
        } else {
            // Without document-level ET the pivot is simply the smallest
            // sID — every document is considered in order.
            0
        };
        let pivot = frontier.doc(pivot_pos);

        // Block-level score estimation (block fetch module). The pivot
        // set is every stream whose current document is <= pivot —
        // including streams tied at the pivot beyond the WAND pivot
        // position — because any document in the skip window could draw
        // contributions from all of them.
        let mut pivot_end = pivot_pos;
        while pivot_end + 1 < frontier.len() && frontier.doc(pivot_end + 1) == pivot {
            pivot_end += 1;
        }
        if block_max {
            // Shallow probe: metadata only, no fetch, no decode (a
            // decoded block answers from the descriptor it holds).
            let mut ub = 0.0f64;
            let mut min_boundary = DocId::MAX;
            let mut all_have_blocks = true;
            for pos in 0..=pivot_end {
                match streams[frontier.stream(pos)].shallow_block_max(pivot) {
                    Some((m, last)) => {
                        ub += f64::from(m);
                        min_boundary = min_boundary.min(last);
                    }
                    None => {
                        all_have_blocks = false;
                        break;
                    }
                }
            }
            // Streams outside the pivot set must not reach into the skip
            // window: cap it at the next stream's current document.
            if pivot_end + 1 < frontier.len() {
                min_boundary = min_boundary.min(frontier.doc(pivot_end + 1).saturating_sub(1));
            }
            if all_have_blocks && ub <= bound {
                let next = min_boundary.saturating_add(1).max(pivot.saturating_add(1));
                if doc_level {
                    // WAND's document scheduler can pop below-window docs
                    // even inside fetched blocks: jump the whole pivot set.
                    for pos in 0..=pivot_end {
                        frontier.seek(sink, streams, pos, next, block_reason)?;
                    }
                    continue;
                }
                // Block-only mode: the block fetch module can avoid
                // *fetching* whole blocks the window covers, but documents
                // already inside fetched blocks must still be scored — that
                // is exactly the capability split Figure 14 measures.
                let mut skipped_any = false;
                for pos in 0..=pivot_end {
                    if let Some(last) = streams[frontier.stream(pos)].whole_block_skippable() {
                        if last < next {
                            let past = last.saturating_add(1);
                            frontier.seek(sink, streams, pos, past, block_reason)?;
                            skipped_any = true;
                        }
                    }
                }
                if skipped_any {
                    continue;
                }
                // No skippable whole block: fall through and score.
            }
        }

        // ④ Document scheduler: pop below-pivot documents, then score the
        // pivot if every stream at or below it aligned.
        if frontier.doc(0) < pivot {
            for pos in 0..pivot_pos {
                if frontier.doc(pos) < pivot {
                    frontier.seek(sink, streams, pos, pivot, pop_reason)?;
                }
            }
            continue;
        }

        // A pivot set of one decoded list stream gathers a run: this
        // round and the ones its further postings stand for, each scoring
        // `0.0 + term score`.
        if pivot_end == 0 {
            let next = (frontier.len() > 1).then(|| frontier.doc(1));
            if let UnionStream::List(c) = &mut streams[frontier.stream(0)] {
                if c.is_decoded() {
                    take_run(index, sink, c, next, checked, topk)?;
                    frontier.refresh(0, streams);
                    continue;
                }
            }
        }

        // Gather contributions from every stream positioned at the pivot
        // (streams beyond the pivot position may coincidentally align).
        scores.clear();
        entries.clear();
        for pos in 0..=pivot_end {
            frontier.take(sink, streams, pos, checked, &mut scores, &mut entries)?;
        }
        // All contributing streams may have dropped their blocks as
        // unusable; the pivot document is gone, and every such stream has
        // moved forward, so re-running the round terminates.
        if scores.is_empty() && entries.is_empty() {
            continue;
        }

        // Scoring module: one norm load, then one fused op per distinct
        // term (a term shared by several intersection groups contributes
        // once). List postings were scored with their block.
        let norm = sink.doc_norm(index, pivot)?;
        let score = canonical_sum(index, &mut scores, &mut entries, norm);
        sink.doc_scored(pivot);
        topk.offer(pivot, score);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::prune::EvalCounts;
    use crate::{reference, IndexBuilder, QueryExpr, SearchHit};

    /// The early-termination modes of the BOSS device.
    const MODES: [Rounds; 3] = [
        Rounds::Exhaustive,
        Rounds::BlockOnly,
        Rounds::Wand {
            block_max: true,
            prune: false,
        },
    ];

    fn corpus() -> InvertedIndex {
        // Deterministic pseudo-random corpus large enough for several
        // blocks per list.
        let docs: Vec<String> = (0u32..900)
            .map(|i| {
                let mut t = String::new();
                let h = i.wrapping_mul(2654435761);
                if h % 2 == 0 {
                    t.push_str(" alpha");
                }
                if h % 3 == 0 {
                    t.push_str(" beta beta");
                }
                if h % 7 == 0 {
                    t.push_str(" gamma");
                }
                if h % 31 == 0 {
                    t.push_str(" delta delta delta");
                }
                t.push_str(" filler");
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    fn run_union(
        index: &InvertedIndex,
        terms: &[&str],
        rounds: Rounds,
        k: usize,
    ) -> (Vec<SearchHit>, EvalCounts) {
        let mut sink = EvalCounts::default();
        let mut streams: Vec<UnionStream> = terms
            .iter()
            .enumerate()
            .map(|(u, t)| {
                let id = index.term_id(t).unwrap();
                UnionStream::List(ListCursor::scored(index, id, u % 4, &mut sink))
            })
            .collect();
        let mut topk = TopK::new(k);
        union_topk(index, &mut streams, rounds, &mut topk, &mut sink).unwrap();
        (topk.into_hits(), sink)
    }

    fn reference_hits(index: &InvertedIndex, terms: &[&str], k: usize) -> Vec<SearchHit> {
        let expr = QueryExpr::or(terms.iter().map(|t| QueryExpr::term(*t)));
        reference::evaluate(index, &expr, k).unwrap()
    }

    #[test]
    fn all_modes_match_reference_small_k() {
        let idx = corpus();
        let terms = ["alpha", "beta", "gamma", "delta"];
        let expect = reference_hits(&idx, &terms, 10);
        for rounds in MODES {
            let (hits, _) = run_union(&idx, &terms, rounds, 10);
            assert_eq!(hits, expect, "{rounds:?}");
        }
    }

    #[test]
    fn all_modes_match_reference_large_k() {
        let idx = corpus();
        let terms = ["beta", "delta"];
        let expect = reference_hits(&idx, &terms, 500);
        for rounds in MODES {
            let (hits, _) = run_union(&idx, &terms, rounds, 500);
            assert_eq!(hits, expect, "{rounds:?}");
        }
    }

    #[test]
    fn exhaustive_scores_everything() {
        let idx = corpus();
        let (_, sink) = run_union(&idx, &["alpha", "beta"], Rounds::Exhaustive, 10);
        let expr = QueryExpr::or([QueryExpr::term("alpha"), QueryExpr::term("beta")]);
        let cand = reference::candidates(&idx, &expr).unwrap();
        assert_eq!(sink.docs_scored, cand.len() as u64);
        assert_eq!(sink.docs_total() - sink.docs_scored, 0);
    }

    #[test]
    fn full_et_scores_fewer_docs_with_small_k() {
        let idx = corpus();
        let terms = ["alpha", "beta", "gamma", "delta"];
        let (_, exhaustive) = run_union(&idx, &terms, Rounds::Exhaustive, 10);
        let (_, full) = run_union(&idx, &terms, MODES[2], 10);
        assert!(
            full.docs_scored < exhaustive.docs_scored,
            "ET should skip: {} vs {}",
            full.docs_scored,
            exhaustive.docs_scored
        );
        assert!(full.docs_total() - full.docs_scored > 0);
    }

    #[test]
    fn eval_totals_conserved() {
        // Every document consumed from a stream is either scored or
        // skipped, so totals match the exhaustive candidate count.
        let idx = corpus();
        let terms = ["alpha", "gamma"];
        let (_, full) = run_union(&idx, &terms, MODES[2], 5);
        let (_, ex) = run_union(&idx, &terms, Rounds::Exhaustive, 5);
        assert_eq!(
            ex.docs_scored,
            full.docs_total(),
            "every doc accounted in Full mode"
        );
    }

    #[test]
    fn single_stream_union_is_term_query() {
        let idx = corpus();
        let expect = reference_hits(&idx, &["delta"], 7);
        for rounds in [Rounds::Exhaustive, MODES[2]] {
            let (hits, _) = run_union(&idx, &["delta"], rounds, 7);
            assert_eq!(hits, expect, "{rounds:?}");
        }
    }

    /// A bound sum equal to θ's bound bit for bit cannot beat θ: the
    /// pivot selector decides the tie as [`crate::prune::cannot_beat`].
    #[test]
    fn a_bound_sum_at_the_theta_bound_is_no_pivot() {
        let idx = corpus();
        let a = idx.term_id("alpha").unwrap();
        let floor = 5.0f32;
        let bound = theta_bound(floor);
        // Three f32 bounds whose f64 sum in stream order is `bound`
        // exactly: each is the largest f32 not above what is left.
        let mut left = bound;
        let maxes = [(); 3].map(|()| {
            let mut m = left as f32;
            if f64::from(m) > left {
                m = f32::from_bits(m.to_bits() - 1);
            }
            left -= f64::from(m);
            m
        });
        assert_eq!(left, 0.0);
        let mut streams = maxes.map(|m| {
            UnionStream::Mat(MatStream::new(
                GroupMatches::from_column(a, vec![7], vec![1]),
                m,
            ))
        });
        let mut sink = EvalCounts::default();
        let mut topk = TopK::new(10);
        topk.seed_cutoff(floor);
        let wand = Rounds::Wand {
            block_max: false,
            prune: false,
        };
        union_topk(&idx, &mut streams, wand, &mut topk, &mut sink).unwrap();
        let skipped = (sink.docs_scored, sink.docs_skipped_wand, sink.docs_total());
        assert_eq!(skipped, (0, 3, 3));
    }

    #[test]
    fn mat_stream_in_union() {
        let idx = corpus();
        // Materialized stream mimicking an intersection output; union it
        // with a live cursor and check against manual evaluation.
        let mut sink = EvalCounts::default();
        let a = idx.term_id("alpha").unwrap();
        let g = idx.term_id("gamma").unwrap();
        let (adocs, atfs) = idx.list(a).decode_all().unwrap();
        let mat = MatStream::new(
            GroupMatches::from_column(a, adocs, atfs),
            idx.list(a).max_score(),
        );
        let cursor = ListCursor::scored(&idx, g, 0, &mut sink);
        let mut streams = [UnionStream::Mat(mat), UnionStream::List(cursor)];
        let mut topk = TopK::new(1000);
        union_topk(&idx, &mut streams, MODES[2], &mut topk, &mut sink).unwrap();
        let expect = reference_hits(&idx, &["alpha", "gamma"], 1000);
        assert_eq!(topk.into_hits(), expect);
    }
}
