//! The union module: a hardware WAND (Section IV-C "Union Module")
//! combined with the block fetch module's score-estimation early
//! termination (Block-Max style, Section IV-C "Block Fetch Module").
//!
//! The module consumes up to four *streams* — posting-list cursors, or the
//! materialized outputs of intersection groups for mixed queries — and
//! drives scoring + top-k. All three [`EtMode`]s produce identical top-k
//! results; they differ only in how much work is skipped.
//!
//! One round loop ([`union_topk`]) serves the three ET modes and the
//! WAND-family pruning plans; [`Rounds`] says what a round may skip. The
//! MaxScore family runs [`boss_index::prune::maxscore_union`], the loop
//! every engine shares, over the same streams ([`PruneStream`]). Between
//! rounds the loop keeps a [`Frontier`]: the live streams' sIDs packed
//! into integer sort keys, and the cutoff's comparison bound
//! ([`ThetaBound`]), each re-derived only when the event that can change
//! it happened.

use crate::config::EtMode;
use crate::fetch::ExecCtx;
use boss_index::cursor::{ListCursor, ListSink, SkipReason};
use boss_index::matches::canonical_score;
use boss_index::prune::{cannot_beat, check_bound, theta_bound, PruneStream};
use boss_index::{DocId, Error, GroupMatches, ScoreScratch, TermId, TopK};

/// Reusable buffers for the block-at-a-time scoring path: one decoded
/// run's docIDs plus the matching [`ScoreScratch`]. Held per core/worker
/// so the bulk path allocates nothing per query.
#[derive(Debug, Default)]
pub(crate) struct BulkScratch {
    pub scores: ScoreScratch,
    pub docs: Vec<DocId>,
}

/// A materialized intermediate stream (the output of an intersection
/// group), held in on-chip buffers — BOSS never spills it to memory. The
/// host model keeps it as one columnar [`GroupMatches`] plus a cursor.
#[derive(Debug, Default)]
pub(crate) struct MatStream {
    pub matches: GroupMatches,
    /// Upper bound of this stream's score contribution.
    pub max_score: f32,
    pos: usize,
}

impl MatStream {
    pub(crate) fn new(matches: GroupMatches, max_score: f32) -> Self {
        MatStream {
            matches,
            max_score,
            pos: 0,
        }
    }

    /// The documents not consumed yet.
    fn rest(&self) -> &[DocId] {
        &self.matches.docs()[self.pos..]
    }
}

/// One input of the union module.
#[derive(Debug)]
pub(crate) enum UnionStream<'a> {
    /// A posting-list cursor (single-term group).
    List(ListCursor<'a>),
    /// A materialized intersection output.
    Mat(MatStream),
}

impl UnionStream<'_> {
    /// The stream's sID — its smallest unevaluated docID — or `None` once
    /// exhausted. The [`Frontier`] caches this per stream and re-reads it
    /// only after the stream moved.
    fn head(&self) -> Option<DocId> {
        (!self.exhausted()).then(|| self.current_doc())
    }

    pub(crate) fn remaining(&self) -> u64 {
        match self {
            UnionStream::List(c) => c.remaining(),
            UnionStream::Mat(m) => m.rest().len() as u64,
        }
    }

    /// Whole-block skip probe (block fetch module capability): `Some`
    /// with the block's last docID when the stream sits at an unfetched
    /// block boundary. Materialized streams live in registers and have no
    /// blocks to skip.
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

    /// A materialized stream scans its registers: one comparison per
    /// document passed.
    fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        match self {
            UnionStream::List(c) => c.seek(sink, target, reason)?,
            UnionStream::Mat(m) => {
                let bypassed = m.rest().iter().take_while(|&&d| d < target).count();
                m.pos += bypassed;
                sink.postings_passed(0, bypassed as u64, reason, true);
            }
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

    /// The union module terminates: the rest is counted as skipped, and no
    /// block event is reported, as [`union_topk`] does.
    fn give_up<S: ListSink>(&mut self, sink: &mut S) {
        let slot = match self {
            UnionStream::List(c) => c.slot(),
            UnionStream::Mat(_) => 0,
        };
        sink.postings_passed(slot, self.remaining(), SkipReason::Prune, false);
    }
}

/// The score loader's lookup table (Section IV-C, union module step ②):
/// upper-bound query-scores for every subset of up to four streams are
/// pre-computed at query start — "the unique combinations for the
/// upper-bound query-score are limited to 16 for 4-way unions" — so the
/// pivot selector reads a sum instead of adding at runtime.
#[derive(Debug, Clone)]
pub(crate) struct ScoreLut {
    combos: Vec<f64>,
}

impl ScoreLut {
    /// Pre-computes the 2^n subset sums of the streams' max scores.
    pub(crate) fn new(max_scores: &[f32]) -> Self {
        let n = max_scores.len();
        let mut combos = vec![0.0f64; 1 << n];
        for mask in 1usize..(1 << n) {
            let low = mask & mask.wrapping_neg(); // lowest set bit
            let i = low.trailing_zeros() as usize;
            combos[mask] = combos[mask ^ low] + f64::from(max_scores[i]);
        }
        ScoreLut { combos }
    }

    /// Upper-bound query-score of the stream subset `mask`.
    pub(crate) fn upper_bound(&self, mask: usize) -> f64 {
        self.combos[mask]
    }
}

/// [`theta_bound`] of the most recent θ. θ moves only when the top-k
/// accepts an entry, so most rounds re-use the bound and every test
/// against it is one compare.
#[derive(Debug)]
pub(crate) struct ThetaBound {
    theta_bits: u32,
    bound: f64,
}

impl ThetaBound {
    pub(crate) fn new() -> Self {
        ThetaBound {
            theta_bits: f32::NEG_INFINITY.to_bits(),
            bound: f64::NEG_INFINITY,
        }
    }

    /// `theta_bound(theta)`, recomputed only when θ's bits changed.
    pub(crate) fn of(&mut self, theta: f32) -> f64 {
        if theta.to_bits() != self.theta_bits {
            self.theta_bits = theta.to_bits();
            self.bound = theta_bound(theta);
        }
        self.bound
    }
}

/// What a round of the union module may skip — the one axis along which
/// the three [`EtMode`]s and the WAND-family pruning plans differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rounds {
    /// Every document of every stream is scored ([`EtMode::Exhaustive`]).
    Exhaustive,
    /// The block fetch module skips whole unfetched blocks on block-max
    /// estimates; the union module pops nothing ([`EtMode::BlockOnly`]).
    BlockOnly,
    /// Document-level WAND: the pivot is the first sID whose summed list
    /// bounds can beat θ. With `block_max` the pivot set's block maxes are
    /// probed too and whole windows skipped ([`EtMode::Full`], Block-Max
    /// WAND). `prune` marks a dynamic-pruning query plan: skipped work
    /// goes to the `*_prune` counters so the exhaustive plan's figures
    /// stay untouched, and list bounds are summed in sID order instead of
    /// read from the score loader's table.
    Wand { block_max: bool, prune: bool },
}

impl From<EtMode> for Rounds {
    fn from(et: EtMode) -> Self {
        match et {
            EtMode::Exhaustive => Rounds::Exhaustive,
            EtMode::BlockOnly => Rounds::BlockOnly,
            EtMode::Full => Rounds::Wand {
                block_max: true,
                prune: false,
            },
        }
    }
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

impl Frontier {
    fn new(streams: &[UnionStream<'_>]) -> Self {
        Frontier {
            keys: (streams.iter().enumerate())
                .map(|(i, s)| Self::key(i, s))
                .collect(),
            theta: ThetaBound::new(),
        }
    }

    fn key(index: usize, stream: &UnionStream<'_>) -> u64 {
        match stream.head() {
            Some(doc) => u64::from(doc) << 32 | index as u64,
            None => EXHAUSTED,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// sID of the stream at sorted position `pos`.
    fn doc(&self, pos: usize) -> DocId {
        (self.keys[pos] >> 32) as DocId
    }

    /// Index of the stream at sorted position `pos`.
    fn stream(&self, pos: usize) -> usize {
        self.keys[pos] as u32 as usize
    }

    /// Re-reads the sID of the stream at `pos` after it moved.
    fn refresh(&mut self, pos: usize, stream: &UnionStream<'_>) {
        self.keys[pos] = Self::key(self.stream(pos), stream);
    }

    /// ① The sorter: ascending sID, ties by stream index, exhausted
    /// streams dropped. Few streams moved since the last round, so insert
    /// in place.
    fn sort(&mut self) {
        for j in 1..self.keys.len() {
            let key = self.keys[j];
            let mut p = j;
            while p > 0 && self.keys[p - 1] > key {
                self.keys[p] = self.keys[p - 1];
                p -= 1;
            }
            self.keys[p] = key;
        }
        while self.keys.last() == Some(&EXHAUSTED) {
            self.keys.pop();
        }
    }

    /// Seeks the stream at `pos` to `target` and re-reads its sID.
    fn seek(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        streams: &mut [UnionStream<'_>],
        pos: usize,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        let stream = &mut streams[self.stream(pos)];
        stream.seek(ctx, target, reason)?;
        self.refresh(pos, stream);
        Ok(())
    }
}

/// Runs the union + scoring + top-k stage over `streams`.
///
/// The caller supplies streams in any order; documents are emitted in
/// ascending docID order, with each document's score summed over the
/// *distinct* terms contributed by all streams that contain it.
///
/// # Errors
///
/// Under [`crate::DegradePolicy::FailQuery`] a faulted read or corrupt
/// block surfaces here as a typed error; under `SkipBlock` the affected
/// block is dropped and the union continues on the remaining postings.
/// Under every [`Rounds`] but `Exhaustive`, whatever the policy, a
/// decoded list posting scoring above its block's or list's bound is
/// [`Error::CorruptMetadata`] ([`check_bound`]).
pub(crate) fn union_topk(
    ctx: &mut ExecCtx<'_>,
    mut streams: Vec<UnionStream<'_>>,
    rounds: Rounds,
    topk: &mut TopK,
    bulk: &mut BulkScratch,
) -> Result<(), Error> {
    let (doc_level, block_max, prune) = match rounds {
        Rounds::Exhaustive => (false, false, false),
        Rounds::BlockOnly => (false, true, false),
        Rounds::Wand { block_max, prune } => (true, block_max, prune),
    };
    let (block_reason, pop_reason) = skip_reasons(prune);
    // Every round but the exhaustive one trusts the streams' bounds, so
    // each decoded posting is checked against the bound `take` returns.
    let checked = rounds != Rounds::Exhaustive;
    let mut frontier = Frontier::new(&streams);
    let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(8);
    let maxes: Vec<f32> = streams.iter().map(UnionStream::max_score).collect();
    // Score loader: the pre-computed LUT is exact for up to 4 streams
    // (the paper's per-core width); wider ganged unions fall back to
    // incremental summation, exactly as chained mergers would.
    let lut = (!prune && streams.len() <= 4).then(|| ScoreLut::new(&maxes));

    loop {
        frontier.sort();
        if frontier.len() == 0 {
            break;
        }
        // Block-at-a-time: once a single live posting-list stream remains
        // (which covers single-term queries entirely and the tail of
        // multi-stream unions), drain it with the bulk scoring kernels.
        // The drain replicates every counter and simulated charge of the
        // per-posting iterations below.
        if frontier.len() == 1 {
            if let UnionStream::List(c) = &mut streams[frontier.stream(0)] {
                drain_single_list(ctx, c, rounds, topk, bulk)?;
                break;
            }
        }
        ctx.eval.pivot_rounds += 1;
        let bound = frontier.theta.of(topk.cutoff());

        // ②/③ Score loader + pivot selector (document-level WAND).
        let pivot_pos = if doc_level {
            let mut acc = 0.0f64;
            let mut mask = 0usize;
            let mut found = None;
            for pos in 0..frontier.len() {
                let i = frontier.stream(pos);
                acc = match &lut {
                    Some(lut) => {
                        mask |= 1 << i;
                        lut.upper_bound(mask)
                    }
                    None => acc + f64::from(maxes[i]),
                };
                if acc <= bound {
                    continue;
                }
                found = Some(pos);
                break;
            }
            match found {
                Some(p) => p,
                None => {
                    // No document anywhere can beat θ: terminate the query.
                    for pos in 0..frontier.len() {
                        let rest = streams[frontier.stream(pos)].remaining();
                        ctx.eval.count_skipped(pop_reason, rest);
                    }
                    break;
                }
            }
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
            // Shallow probe: metadata only, no fetch, no decode.
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
                        frontier.seek(ctx, &mut streams, pos, next, block_reason)?;
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
                            frontier.seek(ctx, &mut streams, pos, past, block_reason)?;
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
                    frontier.seek(ctx, &mut streams, pos, pivot, pop_reason)?;
                }
            }
            continue;
        }

        // Gather contributions from every stream positioned at the pivot
        // (streams beyond the pivot position may coincidentally align).
        entries.clear();
        for pos in 0..=pivot_end {
            let stream = &mut streams[frontier.stream(pos)];
            let before = entries.len();
            let bound = stream.take(ctx, &mut entries)?;
            if checked && bound < f32::INFINITY {
                // The norm's value, uncharged: the scoring module loads
                // it once the gather is done.
                let norm = ctx.index.doc_norms()[pivot as usize];
                for &(term, tf) in &entries[before..] {
                    let idf = ctx.index.list(term).idf();
                    check_bound(ctx.index.bm25().term_score(idf, tf, norm), bound)?;
                }
            }
            frontier.refresh(pos, stream);
        }
        // All contributing streams may have fault-skipped their blocks
        // under `SkipBlock`; the pivot document is gone, and every such
        // stream has moved forward, so re-running the round terminates.
        if entries.is_empty() {
            continue;
        }

        // Scoring module: one norm load, then one fused op per distinct
        // term (a term shared by several intersection groups contributes
        // once).
        let norm = ctx.load_norm(pivot);
        let score = canonical_score(ctx.index, &mut entries, norm);
        ctx.eval.docs_scored += 1;
        topk.offer(pivot, score);
    }
    ctx.eval.topk_inserts = topk.inserts();
    Ok(())
}

/// [`check_bound`] for a bulk-scored run of `c`'s current block: no
/// posting may score above the block's or the list's bound.
fn check_run(c: &ListCursor<'_>, scores: &[f32]) -> Result<(), Error> {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    check_bound(max, c.block_max().min(c.list_max()))
}

/// Drains the last live posting-list stream with the block-at-a-time
/// kernels ([`boss_index::Bm25::score_block`] + [`TopK::sift_block`]).
///
/// Exactly equivalent — counter for counter, charge for charge, bit for
/// bit — to running the per-posting `union_topk` loop with this stream as
/// the only live entry:
///
/// * A per-posting scalar iteration does `pivot_rounds += 1`, reads θ,
///   runs the ET checks, then scores `0.0 + term_score(...)` (bitwise
///   `term_score`, which is positive) and offers. The drain batches the
///   iterations whose checks are provably no-ops and replicates the rest.
/// * In `Exhaustive` mode no check has any effect, so a whole decoded run
///   is scored with one kernel call (`pivot_rounds += run length`).
/// * In `BlockOnly` mode the only effective check happens at an undecoded
///   block boundary (inside a decoded block `whole_block_skippable` is
///   `None` and the scalar loop falls through to scoring); the drain
///   replays that boundary round and bulk-scores the rest.
/// * Under `Wand` rounds θ feeds back per accepted posting, so the drain
///   keeps the round structure but precomputes the run's scores with the
///   kernel, strips the per-posting stream dispatch, and steps over runs
///   of postings the full queue rejects (θ, hence every check, unchanged).
///
/// Simulated charge order is preserved: block data reads happen at decode
/// entry, next-block metadata is charged by the advance that crosses the
/// boundary *before* the final norm load of the run, and norm loads occur
/// in document order.
fn drain_single_list(
    ctx: &mut ExecCtx<'_>,
    c: &mut ListCursor<'_>,
    rounds: Rounds,
    topk: &mut TopK,
    bulk: &mut BulkScratch,
) -> Result<(), Error> {
    let bm25 = *ctx.index.bm25();
    let norms = ctx.index.doc_norms();
    let idf = c.idf();
    let checked = rounds != Rounds::Exhaustive;

    // Scores the whole unconsumed run of the current block and offers it.
    // `pre_counted` pivot rounds were already charged by a boundary round.
    // Returns early (without scoring) when the block was fault-skipped or
    // the cursor ran out; the outer loop then re-examines the cursor.
    let drain_run = |ctx: &mut ExecCtx<'_>,
                     c: &mut ListCursor<'_>,
                     topk: &mut TopK,
                     bulk: &mut BulkScratch,
                     pre_counted: u64|
     -> Result<(), Error> {
        if !c.fetch_block(ctx)? {
            return Ok(());
        }
        {
            let (rdocs, rtfs) = c.run();
            bulk.docs.clear();
            bulk.docs.extend_from_slice(rdocs);
            bm25.score_block(idf, rdocs, rtfs, norms, &mut bulk.scores);
        }
        if checked {
            check_run(c, bulk.scores.scores())?;
        }
        let n = bulk.docs.len();
        ctx.eval.pivot_rounds += n as u64 - pre_counted;
        for j in 0..n {
            if j + 1 == n {
                // The advance that crosses the block boundary charges the
                // next block's metadata before the last norm load, exactly
                // as the per-posting order does.
                c.advance_run(ctx, n);
            }
            ctx.load_norm(bulk.docs[j]);
        }
        ctx.eval.docs_scored += n as u64;
        topk.sift_block(&bulk.docs, bulk.scores.scores());
        Ok(())
    };

    match rounds {
        Rounds::Exhaustive => {
            while !c.exhausted() {
                drain_run(ctx, c, topk, bulk, 0)?;
            }
        }
        Rounds::BlockOnly => {
            while !c.exhausted() {
                let mut pre = 0;
                if !c.is_decoded() {
                    // Boundary round: the block fetch module may skip the
                    // whole unfetched block.
                    ctx.eval.pivot_rounds += 1;
                    let theta = topk.cutoff();
                    if cannot_beat(f64::from(c.block_max()), theta) {
                        let pivot = c.current_doc();
                        let last = c.block_last_doc();
                        let next = last.saturating_add(1).max(pivot.saturating_add(1));
                        if last < next {
                            c.seek(ctx, last.saturating_add(1), SkipReason::Block)?;
                            continue;
                        }
                    }
                    pre = 1;
                }
                drain_run(ctx, c, topk, bulk, pre)?;
            }
        }
        Rounds::Wand { block_max, prune } => {
            drain_wand_tail(ctx, c, topk, bulk, block_max, prune)?;
        }
    }
    Ok(())
}

/// Drains a single live posting-list stream with per-posting θ feedback:
/// the [`Rounds::Wand`] arm of [`drain_single_list`] — `Full` ET and, with
/// `prune` set, the bulk tail of the WAND-family pruned query plans.
///
/// * `block_check` gates the block-max skip test (on for `Full` ET and
///   the block-max algorithms, off for plain WAND, whose scalar loop
///   consults only list-level bounds).
/// * `prune` attributes skipped work to the pruning counters
///   ([`SkipReason::Prune`] / `docs_skipped_prune`) instead of the
///   exhaustive-path ET counters, so the exhaustive plan's figures stay
///   untouched by the new plans.
///
/// Counter for counter, charge for charge, this loop is the scalar
/// per-posting round structure with the stream dispatch stripped and the
/// run's scores precomputed by the block kernel — the golden record of
/// `traversal_golden` pins every number it produces.
fn drain_wand_tail(
    ctx: &mut ExecCtx<'_>,
    c: &mut ListCursor<'_>,
    topk: &mut TopK,
    bulk: &mut BulkScratch,
    block_check: bool,
    prune: bool,
) -> Result<(), Error> {
    let bm25 = *ctx.index.bm25();
    let norms = ctx.index.doc_norms();
    let idf = c.idf();
    let (block_reason, pop_reason) = skip_reasons(prune);
    let list_ub = f64::from(c.list_max());
    let mut theta = ThetaBound::new();
    let mut run_valid = false;
    let mut run_j = 0usize;
    while !c.exhausted() {
        ctx.eval.pivot_rounds += 1;
        let bound = theta.of(topk.cutoff());
        if list_ub <= bound {
            // Document-level termination: nothing left can beat θ.
            ctx.eval.count_skipped(pop_reason, c.remaining());
            break;
        }
        let pivot = c.current_doc();
        if block_check && f64::from(c.block_max()) <= bound {
            let next = c
                .block_last_doc()
                .saturating_add(1)
                .max(pivot.saturating_add(1));
            c.seek(ctx, next, block_reason)?;
            run_valid = false;
            continue;
        }
        if !c.is_decoded() {
            run_valid = false;
        }
        if !run_valid {
            if !c.fetch_block(ctx)? {
                // Fault-skipped block: the cursor already moved on.
                continue;
            }
            let (rdocs, rtfs) = c.run();
            bulk.docs.clear();
            bulk.docs.extend_from_slice(rdocs);
            bm25.score_block(idf, rdocs, rtfs, norms, &mut bulk.scores);
            check_run(c, bulk.scores.scores())?;
            run_valid = true;
            run_j = 0;
        }
        // Postings the full queue rejects leave θ — hence both checks
        // above — as they are, so a run of them is stepped over with only
        // its charges; a posting that may enter the queue goes alone.
        let scores = &bulk.scores.scores()[run_j..];
        let losers = if topk.len() == topk.k() {
            let cutoff = topk.cutoff();
            scores.iter().take_while(|&&s| s <= cutoff).count()
        } else {
            0
        };
        let n = losers.max(1);
        ctx.eval.pivot_rounds += n as u64 - 1;
        for j in 0..n {
            if j + 1 == n {
                // The advance that may cross the block boundary charges
                // the next block's metadata before the last norm load, as
                // the per-posting order does.
                c.advance_run(ctx, n);
            }
            ctx.load_norm(bulk.docs[run_j + j]);
        }
        ctx.eval.docs_scored += n as u64;
        topk.sift_block(&bulk.docs[run_j..run_j + n], &scores[..n]);
        run_j += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::config::BossConfig;
    use crate::fetch::ExecCtx;
    use boss_index::{reference, IndexBuilder, InvertedIndex, QueryExpr, SearchHit};

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
        et: EtMode,
        k: usize,
    ) -> (Vec<SearchHit>, crate::stats::EvalCounts) {
        let cfg = BossConfig::default().with_et(et).with_k(k);
        let mut ctx = ExecCtx::new(index, &cfg).unwrap();
        let streams: Vec<UnionStream> = terms
            .iter()
            .enumerate()
            .map(|(u, t)| {
                let id = index.term_id(t).unwrap();
                UnionStream::List(ListCursor::new(index, id, u % 4, &mut ctx))
            })
            .collect();
        let mut topk = TopK::new(k);
        union_topk(
            &mut ctx,
            streams,
            et.into(),
            &mut topk,
            &mut BulkScratch::default(),
        )
        .unwrap();
        (topk.into_hits(), ctx.eval)
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
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let (hits, _) = run_union(&idx, &terms, et, 10);
            assert_eq!(hits, expect, "{et:?}");
        }
    }

    #[test]
    fn all_modes_match_reference_large_k() {
        let idx = corpus();
        let terms = ["beta", "delta"];
        let expect = reference_hits(&idx, &terms, 500);
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let (hits, _) = run_union(&idx, &terms, et, 500);
            assert_eq!(hits, expect, "{et:?}");
        }
    }

    #[test]
    fn exhaustive_scores_everything() {
        let idx = corpus();
        let (_, eval) = run_union(&idx, &["alpha", "beta"], EtMode::Exhaustive, 10);
        let expr = QueryExpr::or([QueryExpr::term("alpha"), QueryExpr::term("beta")]);
        let cand = reference::candidates(&idx, &expr).unwrap();
        assert_eq!(eval.docs_scored, cand.len() as u64);
        assert_eq!(eval.docs_skipped_wand + eval.docs_skipped_block, 0);
    }

    #[test]
    fn full_et_scores_fewer_docs_with_small_k() {
        let idx = corpus();
        let (_, exhaustive) = run_union(
            &idx,
            &["alpha", "beta", "gamma", "delta"],
            EtMode::Exhaustive,
            10,
        );
        let (_, full) = run_union(&idx, &["alpha", "beta", "gamma", "delta"], EtMode::Full, 10);
        assert!(
            full.docs_scored < exhaustive.docs_scored,
            "ET should skip: {} vs {}",
            full.docs_scored,
            exhaustive.docs_scored
        );
        assert!(full.docs_skipped_wand + full.docs_skipped_block > 0);
    }

    #[test]
    fn eval_totals_conserved() {
        // scored + skipped == total candidate postings... at the document
        // level: every document consumed from a stream is either scored or
        // skipped, so totals match the exhaustive candidate count.
        let idx = corpus();
        let terms = ["alpha", "gamma"];
        let (_, full) = run_union(&idx, &terms, EtMode::Full, 5);
        let (_, ex) = run_union(&idx, &terms, EtMode::Exhaustive, 5);
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
        for et in [EtMode::Exhaustive, EtMode::Full] {
            let (hits, _) = run_union(&idx, &["delta"], et, 7);
            assert_eq!(hits, expect, "{et:?}");
        }
    }

    #[test]
    fn mat_stream_in_union() {
        let idx = corpus();
        // Materialized stream mimicking an intersection output; union it
        // with a live cursor and check against manual evaluation.
        let cfg = BossConfig::default().with_k(1000);
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let a = idx.term_id("alpha").unwrap();
        let g = idx.term_id("gamma").unwrap();
        let (adocs, atfs) = idx.list(a).decode_all().unwrap();
        let mat = MatStream::new(
            GroupMatches::from_column(a, adocs, atfs),
            idx.list(a).max_score(),
        );
        let cursor = ListCursor::new(&idx, g, 0, &mut ctx);
        let mut topk = TopK::new(1000);
        union_topk(
            &mut ctx,
            vec![UnionStream::Mat(mat), UnionStream::List(cursor)],
            EtMode::Full.into(),
            &mut topk,
            &mut BulkScratch::default(),
        )
        .unwrap();
        let expect = reference_hits(&idx, &["alpha", "gamma"], 1000);
        assert_eq!(topk.into_hits(), expect);
    }
}

#[cfg(test)]
mod lut_tests {
    use super::ScoreLut;

    #[test]
    fn subset_sums_match_manual_addition() {
        let maxes = [1.5f32, 2.25, 0.5, 4.0];
        let lut = ScoreLut::new(&maxes);
        for mask in 0usize..16 {
            let manual: f64 = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| f64::from(maxes[i]))
                .sum();
            assert!((lut.upper_bound(mask) - manual).abs() < 1e-9, "mask {mask}");
        }
    }

    #[test]
    fn sixteen_entries_for_four_streams() {
        let lut = ScoreLut::new(&[1.0, 1.0, 1.0, 1.0]);
        assert!((lut.upper_bound(0b1111) - 4.0).abs() < 1e-12);
        assert_eq!(lut.upper_bound(0), 0.0);
    }

    #[test]
    fn single_stream_lut() {
        let lut = ScoreLut::new(&[3.25]);
        assert!((lut.upper_bound(1) - 3.25).abs() < 1e-9);
    }
}
