//! Dynamic-pruning evaluators (MaxScore / WAND / BMW / BMM).
//!
//! Every engine runs two pruning loops, each generic over its streams
//! ([`PruneStream`]) and the engine's [`PruneSink`]: [`maxscore_union`],
//! the one (Block-Max) MaxScore loop, and [`crate::union::union_topk`],
//! the union module's round loop, the one WAND / Block-Max WAND loop
//! (BOSS's early-termination modes run it too). The host-style engines
//! (IIU, the Lucene-like baseline, through [`crate::svs::search`]) and
//! the property tests reach both through [`pruned_union_topk`]: MaxScore
//! over plain [`ListCursor`]s, WAND over
//! [`crate::union::UnionStream::List`] cursors opened
//! [`ListCursor::scored`]. The BOSS device runs both over its union
//! streams (posting-list cursors or materialized intersection outputs)
//! with its execution context as the sink. A sink sees
//! [`PruneSink::round`] per pivot or candidate round,
//! [`PruneSink::doc_norm`] and [`PruneSink::doc_scored`] per scored
//! document, [`PruneSink::doc_abandoned`] per abandoned MaxScore
//! candidate, and the streams' physical events. [`EvalCounts`], beside
//! [`NullSink`] here, is the one sink that turns those events into the
//! evaluation counters; every engine's sink forwards to it what its
//! model counts. Every loop is required by tests (`prune_properties`,
//! `differential`, `flag_invariance`, `traversal_golden`) to return the
//! exact hits of [`crate::reference::evaluate`].
//!
//! # Safety contract
//!
//! Pruning is *safe*: the returned top-k is bit-identical to the
//! exhaustive oracle — same docs, same f32 score bits, same
//! [`SearchHit::ranking_cmp`] order — because
//!
//! * every skip decision goes through [`cannot_beat`], the guard the
//!   device's early termination uses too (a strict `1e-4`-scaled slack
//!   below the threshold, so score *ties* are always evaluated), and
//! * every surviving document's final score is recomputed canonically:
//!   contributing terms sorted ascending, f32 accumulation in term
//!   order, exactly like the reference evaluator. Partial sums and
//!   upper-bound tails (kept in f64) only ever decide *abandonment*.
//!
//! # Corruption contract
//!
//! Block-max and list-max scores are untrusted metadata. Non-finite or
//! negative bounds sanitize to `+inf` (never-skip — a safe
//! over-estimate) in the cursor. Decoded blocks are verified against
//! their directory entry by the decode itself (first/last docID), every
//! posting's score against its block-max and list-max bounds here, and
//! violations surface as [`Error::CorruptMetadata`]. The residual trust
//! boundary — a *finitely lowered* bound on a block that is skipped and
//! therefore never decoded — is undetectable without decoding and is
//! documented in DESIGN.md §14; the corruption harness's mutation corpus
//! covers the detectable classes.

use crate::algorithm::QueryAlgorithm;
use crate::cursor::{ListCursor, ListSink, SkipReason};
use crate::encoded::BlockMeta;
use crate::index::{InvertedIndex, TermId};
use crate::matches::canonical_score;
use crate::query::SearchHit;
use crate::svs::SvsSink;
use crate::topk::TopK;
use crate::union::{union_topk, Rounds, UnionStream};
use crate::{DocId, Error};
use boss_compress::Scheme;

/// What a pruned traversal does beside walking its cursors, for the
/// engine that prices it. The cursors' own physical events (metadata
/// reads, block fetches and decodes, skips) arrive through the
/// [`ListSink`] half, each at the point the modeled hardware would
/// perform it, with `slot` whatever the caller gave the stream (under
/// [`pruned_union_topk`], its position in the deduplicated ascending term
/// list); every skip is reported with [`SkipReason::Prune`]. Engines
/// implement both halves to charge their memory simulators and forward
/// what they count to [`EvalCounts`]; [`NullSink`] ignores it all.
pub trait PruneSink: ListSink {
    /// A candidate document was abandoned mid-probe (MaxScore family):
    /// its partial score plus the unprobed upper-bound tail cannot beat
    /// the threshold.
    fn doc_abandoned(&mut self) {}
    /// A candidate document was fully scored and offered to the heap.
    fn doc_scored(&mut self, _doc: DocId) {}
    /// One pivot/candidate-selection round completed.
    fn round(&mut self) {}
    /// The length norm of candidate `doc`, read before its postings are
    /// gathered ([`maxscore_union`]) or after ([`union_topk`]). The
    /// default reads it uncharged; an engine whose model
    /// prices the read overrides it (or charges in
    /// [`PruneSink::doc_scored`]).
    ///
    /// # Errors
    ///
    /// [`Error::CorruptMetadata`] when `doc` lies outside the corpus (a
    /// decoded docID no descriptor check caught).
    fn doc_norm(&mut self, index: &InvertedIndex, doc: DocId) -> Result<f32, Error> {
        index
            .doc_norms()
            .get(doc as usize)
            .copied()
            .ok_or(Error::CorruptMetadata {
                reason: "decoded docID outside the corpus",
            })
    }
}

/// A sink that ignores every event (pure result computation).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ListSink for NullSink {}
impl PruneSink for NullSink {}

/// Document and block evaluation counters: Figure 14's "evaluated
/// documents" and the skip statistics behind Figures 13–15. Also the one
/// sink that turns traversal events into counters (the rule is its three
/// sink impls; DESIGN.md §4 states it): every engine forwards the events
/// its model counts here and writes only what the seams cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Documents actually scored.
    pub docs_scored: u64,
    /// Documents skipped by document-level WAND in the union module.
    pub docs_skipped_wand: u64,
    /// Documents inside blocks that were never fetched (block-level skips
    /// from the block fetch module, both overlap-check and score
    /// estimation).
    pub docs_skipped_block: u64,
    /// Blocks fetched and decompressed.
    pub blocks_fetched: u64,
    /// Blocks skipped via metadata.
    pub blocks_skipped: u64,
    /// Block metadata records read.
    pub metas_read: u64,
    /// Set-operation comparisons performed.
    pub comparisons: u64,
    /// Top-k insertions performed.
    pub topk_inserts: u64,
    /// WAND pivot-selection rounds.
    pub pivot_rounds: u64,
    /// Blocks a BOSS device running its `SkipBlock` degrade policy
    /// dropped because their read faulted or their bytes failed to
    /// decode. Always zero without an active fault plan (or with
    /// uncorrupted data).
    pub blocks_skipped_fault: u64,
    /// Blocks skipped undecoded by a dynamic-pruning query plan
    /// (`QueryAlgorithm` other than `Exhaustive`). Also counted in
    /// `blocks_skipped`; this field attributes them to the pruning
    /// algorithm. Always zero on the exhaustive path.
    pub blocks_skipped_prune: u64,
    /// Documents skipped by a dynamic-pruning query plan — inside
    /// prune-skipped blocks, popped from decoded blocks, or abandoned
    /// mid-probe. Always zero on the exhaustive path.
    pub docs_skipped_prune: u64,
}

impl EvalCounts {
    /// Documents whose evaluation was attempted or skipped — the
    /// denominator of Figure 14's normalization.
    pub fn docs_total(&self) -> u64 {
        self.docs_scored
            + self.docs_skipped_wand
            + self.docs_skipped_block
            + self.docs_skipped_prune
    }

    /// Merges counters (across queries or cores).
    pub fn merge(&mut self, o: &EvalCounts) {
        self.docs_scored += o.docs_scored;
        self.docs_skipped_wand += o.docs_skipped_wand;
        self.docs_skipped_block += o.docs_skipped_block;
        self.blocks_fetched += o.blocks_fetched;
        self.blocks_skipped += o.blocks_skipped;
        self.metas_read += o.metas_read;
        self.comparisons += o.comparisons;
        self.topk_inserts += o.topk_inserts;
        self.pivot_rounds += o.pivot_rounds;
        self.blocks_skipped_fault += o.blocks_skipped_fault;
        self.blocks_skipped_prune += o.blocks_skipped_prune;
        self.docs_skipped_prune += o.docs_skipped_prune;
    }
}

impl ListSink for EvalCounts {
    fn meta_read(&mut self, _slot: usize, _addr: u64, records: u64) {
        self.metas_read += records;
    }

    fn list_streamed(
        &mut self,
        _slot: usize,
        blocks: &[BlockMeta],
        _meta_addr: u64,
        _data_addr: u64,
        _data_bytes: u64,
    ) {
        self.metas_read += blocks.len() as u64;
        self.blocks_fetched += blocks.len() as u64;
    }

    fn block_decoded(&mut self, _slot: usize, _block: usize, _scheme: Scheme, _meta: &BlockMeta) {
        self.blocks_fetched += 1;
    }

    fn blocks_skipped(&mut self, _slot: usize, blocks: u64, postings: u64, reason: SkipReason) {
        self.blocks_skipped += blocks;
        match reason {
            SkipReason::Prune => {
                self.blocks_skipped_prune += blocks;
                self.docs_skipped_prune += postings;
            }
            SkipReason::Block | SkipReason::Wand => self.docs_skipped_block += postings,
        }
    }

    fn postings_passed(&mut self, _slot: usize, n: u64, reason: SkipReason, _scanned: bool) {
        match reason {
            SkipReason::Block => self.docs_skipped_block += n,
            SkipReason::Wand => self.docs_skipped_wand += n,
            SkipReason::Prune => self.docs_skipped_prune += n,
        }
    }
}

impl PruneSink for EvalCounts {
    fn doc_abandoned(&mut self) {
        self.docs_skipped_prune += 1;
    }

    fn doc_scored(&mut self, _doc: DocId) {
        self.docs_scored += 1;
    }

    fn round(&mut self) {
        self.pivot_rounds += 1;
    }
}

impl SvsSink for EvalCounts {
    fn scored(&mut self, docs: &[DocId]) {
        self.docs_scored += docs.len() as u64;
    }
}

/// The top-k a pruned union (or a [`crate::svs::search`]) produced.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// The exact top-k, in [`SearchHit::ranking_cmp`] order.
    pub hits: Vec<SearchHit>,
    /// Heap insertions performed (mirrors `TopK` accounting in
    /// `boss-core`).
    pub topk_inserts: u64,
}

/// The largest upper bound that provably cannot beat the cutoff `theta`:
/// θ less a slack exceeding the worst-case f32 rounding drift of a summed
/// score, so a skip never drops a document the exhaustive reference would
/// keep. `-inf` while θ is not finite — score bounds are finite, so
/// nothing is skipped before a real threshold exists.
pub fn theta_bound(theta: f32) -> f64 {
    if !theta.is_finite() {
        return f64::NEG_INFINITY;
    }
    let slack = 1e-4 * (1.0 + f64::from(theta.abs()));
    f64::from(theta) - slack
}

/// Whether a score upper bound provably cannot beat the cutoff: the guard
/// of every skip and abandon decision of every engine. Score ties are
/// always evaluated, so the top-k stays bit-identical to the exhaustive
/// order.
pub fn cannot_beat(upper: f64, theta: f32) -> bool {
    upper <= theta_bound(theta)
}

/// One input of a pruned union: a posting list's [`ListCursor`], or on
/// the BOSS device a materialized intersection output. Physical events go
/// to the [`ListSink`] the traversal passes in.
pub trait PruneStream {
    /// Upper bound of the stream's contribution to any one document.
    fn max_score(&self) -> f32;
    /// Whether every document of the stream is consumed.
    fn exhausted(&self) -> bool;
    /// The stream's smallest unconsumed docID; only called while the
    /// stream is not exhausted.
    fn current_doc(&self) -> DocId;
    /// The bound and last docID of the block that covers (or would cover)
    /// `target`, from metadata alone; `None` once no block reaches it.
    fn shallow_block_max(&self, target: DocId) -> Option<(f32, DocId)>;
    /// Moves to the first document `>= target`, reporting what it passed
    /// over with `reason`.
    ///
    /// # Errors
    ///
    /// As [`ListCursor::seek`].
    fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error>;
    /// Appends the `(term, tf)` entries of the current document to `out`
    /// and moves past it, returning the bound no appended posting's term
    /// score may exceed (`+inf` where the stream records none). Appends
    /// nothing when the sink dropped the block as unusable.
    ///
    /// # Errors
    ///
    /// As [`ListCursor::current_tf`].
    fn take<S: ListSink>(
        &mut self,
        sink: &mut S,
        out: &mut Vec<(TermId, u32)>,
    ) -> Result<f32, Error>;
    /// Gives up every remaining posting, reporting it with `reason`: the
    /// traversal proved none of them can change the top-k. The stream is
    /// not used afterwards.
    fn give_up<S: ListSink>(&mut self, sink: &mut S, reason: SkipReason);
}

impl PruneStream for ListCursor<'_> {
    #[inline]
    fn max_score(&self) -> f32 {
        self.list_max()
    }
    #[inline]
    fn exhausted(&self) -> bool {
        ListCursor::exhausted(self)
    }
    #[inline]
    fn current_doc(&self) -> DocId {
        ListCursor::current_doc(self)
    }
    #[inline]
    fn shallow_block_max(&self, target: DocId) -> Option<(f32, DocId)> {
        ListCursor::shallow_block_max(self, target)
    }
    fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        ListCursor::seek(self, sink, target, reason)
    }
    /// The posting's bound is its block's and its list's, whichever is
    /// lower.
    fn take<S: ListSink>(
        &mut self,
        sink: &mut S,
        out: &mut Vec<(TermId, u32)>,
    ) -> Result<f32, Error> {
        let Some(tf) = self.current_tf(sink)? else {
            return Ok(f32::INFINITY);
        };
        let bound = self.block_max().min(self.list_max());
        out.push((self.term(), tf));
        self.advance_run(sink, 1);
        Ok(bound)
    }
    /// Passes over the rest of the list: the decoded block's tail and
    /// every later block, unread.
    fn give_up<S: ListSink>(&mut self, sink: &mut S, reason: SkipReason) {
        self.drain(sink, reason);
    }
}

/// [`Error::CorruptMetadata`] when a decoded posting's term `score`
/// exceeds `bound`, the block-max / list-max bound its stream recorded for
/// it: the one check every traversal that trusts those bounds makes.
///
/// # Errors
///
/// As above.
#[inline]
pub fn check_bound(score: f32, bound: f32) -> Result<(), Error> {
    if score > bound {
        return Err(Error::CorruptMetadata {
            reason: "posting score exceeds its block-max bound",
        });
    }
    Ok(())
}

/// Takes `stream`'s entries at its current document into `entries`
/// (decoding only now) and adds each one's term score under `norm` to
/// `partial`; a posting scoring above its stream's bound is
/// [`Error::CorruptMetadata`] ([`check_bound`]).
fn gather<T: PruneStream, S: ListSink>(
    stream: &mut T,
    index: &InvertedIndex,
    norm: f32,
    entries: &mut Vec<(TermId, u32)>,
    partial: &mut f64,
    sink: &mut S,
) -> Result<(), Error> {
    let before = entries.len();
    let bound = stream.take(sink, entries)?;
    for &(term, tf) in &entries[before..] {
        let score = index.bm25().term_score(index.list(term).idf(), tf, norm);
        check_bound(score, bound)?;
        *partial += f64::from(score);
    }
    Ok(())
}

/// Evaluates a union (OR) of `terms` under `algorithm`, returning the
/// exact top-`k` of the exhaustive oracle while reporting every simulated
/// access to `sink`.
///
/// Terms are deduplicated and sorted ascending; `slot` in sink callbacks
/// indexes that deduplicated order. `Wand` and `BlockMaxWand` run
/// [`union_topk`] on scored cursors, `MaxScore` and `BlockMaxMaxScore`
/// [`maxscore_union`] on plain ones. `Exhaustive` runs [`union_topk`]
/// under [`Rounds::Exhaustive`], which skips nothing — useful as an
/// in-family baseline, though engines route `Exhaustive` through the
/// small-versus-small traversal of [`crate::svs::search`].
///
/// # Errors
///
/// Returns [`Error::UnknownTerm`] for out-of-range term ids, and
/// [`Error::CorruptMetadata`] / codec errors if a decoded block
/// contradicts its directory entry — unless the sink's
/// [`ListSink::block_unusable`] drops such blocks instead.
pub fn pruned_union_topk<S: PruneSink>(
    index: &InvertedIndex,
    terms: &[TermId],
    algorithm: QueryAlgorithm,
    k: usize,
    sink: &mut S,
) -> Result<PruneOutcome, Error> {
    let mut ids: Vec<TermId> = terms.to_vec();
    ids.sort_unstable();
    ids.dedup();
    if k == 0 || ids.is_empty() {
        return Ok(PruneOutcome::default());
    }
    for &t in &ids {
        if (t as usize) >= index.n_terms() {
            return Err(Error::UnknownTerm {
                term: format!("#{t}"),
            });
        }
    }
    let mut topk = TopK::new(k);
    let (block_max, top) = (algorithm.is_block_max(), &mut topk);
    match algorithm {
        QueryAlgorithm::MaxScore | QueryAlgorithm::BlockMaxMaxScore => {
            let mut cursors: Vec<ListCursor<'_>> = (ids.iter().enumerate())
                .map(|(slot, &t)| ListCursor::new(index, t, slot, sink))
                .collect();
            maxscore_union(index, &mut cursors, block_max, top, sink)?;
        }
        QueryAlgorithm::Exhaustive | QueryAlgorithm::Wand | QueryAlgorithm::BlockMaxWand => {
            let rounds = if algorithm.prunes() {
                Rounds::Wand {
                    block_max,
                    prune: true,
                }
            } else {
                Rounds::Exhaustive
            };
            let mut streams: Vec<UnionStream<'_>> = (ids.iter().enumerate())
                .map(|(slot, &t)| UnionStream::List(ListCursor::scored(index, t, slot, sink)))
                .collect();
            union_topk(index, &mut streams, rounds, top, sink)?;
        }
    }
    Ok(PruneOutcome {
        topk_inserts: topk.inserts(),
        hits: topk.into_hits(),
    })
}

/// Shallow advance: the block bound and boundary of `s` at `target`, or
/// `(0.0, DocId::MAX)` once no block reaches it.
fn shallow<T: PruneStream>(s: &T, target: DocId) -> (f32, DocId) {
    s.shallow_block_max(target).unwrap_or((0.0, DocId::MAX))
}

/// MaxScore / Block-Max MaxScore, the one loop every engine runs: streams
/// are split by ascending upper bound into a non-essential prefix (whose
/// summed bounds cannot beat the threshold) and an essential tail;
/// candidates come only from essential streams, non-essential streams are
/// probed in descending-bound order with early abandoning against the
/// f64 partial. The split index is monotone in the threshold, so
/// candidates arrive in ascending docID order. `topk` may arrive with a
/// seeded floor, which then enters the first split.
///
/// Streams are reordered in place, stably by bound, so ties keep the
/// caller's order. `sink` sees a [`PruneSink::round`] per candidate, the
/// candidate's [`PruneSink::doc_norm`] before its postings are gathered,
/// and [`PruneSink::doc_scored`] or [`PruneSink::doc_abandoned`] after;
/// once nothing left can change the top-k, every stream gives up its
/// rest ([`PruneStream::give_up`]).
///
/// # Errors
///
/// [`Error::CorruptMetadata`] when a decoded posting scores above its
/// stream's bound or a candidate's norm is missing; a stream's seek or
/// take error otherwise.
pub fn maxscore_union<T: PruneStream, S: PruneSink>(
    index: &InvertedIndex,
    streams: &mut [T],
    block_max: bool,
    topk: &mut TopK,
    sink: &mut S,
) -> Result<(), Error> {
    streams.sort_by(|a, b| a.max_score().total_cmp(&b.max_score()));
    // prefix[j] = summed bounds of streams[0..j].
    let n = streams.len();
    let mut prefix = vec![0f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + f64::from(streams[i].max_score());
    }
    let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(8);
    loop {
        let theta = topk.cutoff();
        let mut ness = 0usize;
        while ness < n && cannot_beat(prefix[ness + 1], theta) {
            ness += 1;
        }
        // Next candidate: minimum current docID over live essential
        // streams. None when no stream can change the top-k any more, or
        // the essential ones are exhausted and the non-essential prefix
        // cannot beat the threshold alone.
        let essential = streams[ness..].iter().filter(|s| !s.exhausted());
        let Some(d) = essential.map(PruneStream::current_doc).min() else {
            for s in streams.iter_mut() {
                s.give_up(sink, SkipReason::Prune);
            }
            break;
        };
        sink.round();
        if block_max {
            // Refine the essential bound with the block maxes of the
            // streams actually positioned on `d`.
            let mut ub = prefix[ness];
            let mut min_boundary = DocId::MAX;
            let mut next_cur = DocId::MAX;
            for s in streams[ness..].iter().filter(|s| !s.exhausted()) {
                if s.current_doc() == d {
                    let (u, last) = shallow(s, d);
                    ub += f64::from(u);
                    min_boundary = min_boundary.min(last);
                } else {
                    next_cur = next_cur.min(s.current_doc());
                }
            }
            if cannot_beat(ub, theta) {
                // Skip the whole window the bound covers: up to the
                // earliest block boundary, capped by the next essential
                // candidate, always making progress past `d`.
                let next = min_boundary
                    .saturating_add(1)
                    .min(next_cur)
                    .max(d.saturating_add(1));
                for s in streams[ness..].iter_mut() {
                    if !s.exhausted() && s.current_doc() == d {
                        s.seek(sink, next, SkipReason::Prune)?;
                    }
                }
                continue;
            }
        }
        // Gather the essential postings at `d`.
        let norm = sink.doc_norm(index, d)?;
        entries.clear();
        let mut partial = 0f64;
        for s in streams[ness..].iter_mut() {
            if !s.exhausted() && s.current_doc() == d {
                gather(s, index, norm, &mut entries, &mut partial, sink)?;
            }
        }
        if entries.is_empty() {
            // Every essential block at `d` was dropped as unusable, and
            // every such stream moved on.
            continue;
        }
        // Probe non-essential streams in descending-bound order. (The
        // f64 partial only gates abandonment; the offered score is
        // recomputed canonically below.)
        let mut abandoned = false;
        for j in (0..ness).rev() {
            if cannot_beat(partial + prefix[j + 1], theta) {
                abandoned = true;
                break;
            }
            let s = &mut streams[j];
            s.seek(sink, d, SkipReason::Prune)?;
            if !s.exhausted() && s.current_doc() == d {
                gather(s, index, norm, &mut entries, &mut partial, sink)?;
            }
        }
        if abandoned {
            sink.doc_abandoned();
        } else {
            let score = canonical_score(index, &mut entries, norm);
            sink.doc_scored(d);
            topk.offer(d, score);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{IndexBuilder, QueryExpr};

    /// Synthetic corpus with heavy score ties (the usual repo pattern).
    fn corpus(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let mut words = Vec::new();
                if h % 2 == 0 {
                    words.push("alpha");
                }
                if h % 3 == 0 {
                    words.push("beta");
                }
                if h % 7 == 0 {
                    words.push("gamma gamma");
                }
                if h % 31 == 0 {
                    words.push("delta");
                }
                words.push("common");
                words.join(" ")
            })
            .collect()
    }

    /// Corpus with per-block tf (and doc-length) variation, so block-max
    /// scores differ enough for the block-max algorithms to skip.
    fn skewed_corpus(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761);
                let mut words: Vec<&str> = vec!["common"];
                if h.is_multiple_of(2) {
                    let tf = 1 + (i / 128) % 7;
                    words.extend(std::iter::repeat_n("alpha", tf));
                }
                if h.is_multiple_of(3) {
                    words.push("beta");
                }
                if h.is_multiple_of(31) {
                    words.push("rare");
                }
                words.join(" ")
            })
            .collect()
    }

    fn union_terms(index: &InvertedIndex, words: &[&str]) -> Vec<TermId> {
        words
            .iter()
            .map(|w| index.term_id(w).expect("term exists"))
            .collect()
    }

    #[test]
    fn all_algorithms_match_reference_exactly() {
        let docs = corpus(600);
        let index = IndexBuilder::new()
            .add_documents(docs.iter().map(|s| s.as_str()))
            .build()
            .expect("builds");
        let words = ["alpha", "beta", "gamma", "delta", "common"];
        let expr = QueryExpr::or(words.map(QueryExpr::term));
        let terms = union_terms(&index, &words);
        for k in [1usize, 3, 10, 100, 1000] {
            let oracle = crate::reference::evaluate(&index, &expr, k).expect("oracle");
            for algo in crate::ALL_ALGORITHMS {
                let got =
                    pruned_union_topk(&index, &terms, algo, k, &mut NullSink).expect("evaluates");
                let pairs = |hits: &[SearchHit]| {
                    hits.iter()
                        .map(|h| (h.doc, h.score.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    pairs(&got.hits),
                    pairs(&oracle),
                    "algorithm {algo} diverged from the oracle at k={k}"
                );
            }
        }
    }

    #[test]
    fn skewed_corpus_still_matches_reference() {
        let docs = skewed_corpus(3000);
        let index = IndexBuilder::new()
            .add_documents(docs.iter().map(|s| s.as_str()))
            .build()
            .expect("builds");
        let words = ["alpha", "beta", "rare", "common"];
        let expr = QueryExpr::or(words.map(QueryExpr::term));
        let terms = union_terms(&index, &words);
        for k in [1usize, 10, 100] {
            let oracle = crate::reference::evaluate(&index, &expr, k).expect("oracle");
            for algo in crate::ALL_ALGORITHMS {
                let got =
                    pruned_union_topk(&index, &terms, algo, k, &mut NullSink).expect("evaluates");
                let pairs = |hits: &[SearchHit]| {
                    hits.iter()
                        .map(|h| (h.doc, h.score.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pairs(&got.hits), pairs(&oracle), "algo {algo} k={k}");
            }
        }
    }

    #[test]
    fn block_max_algorithms_decode_fewer_blocks() {
        let docs = skewed_corpus(4000);
        let index = IndexBuilder::new()
            .add_documents(docs.iter().map(|s| s.as_str()))
            .build()
            .expect("builds");
        let terms = union_terms(&index, &["alpha", "beta", "rare", "common"]);
        let mut decoded = std::collections::HashMap::new();
        for algo in crate::ALL_ALGORITHMS {
            let mut counters = EvalCounts::default();
            pruned_union_topk(&index, &terms, algo, 10, &mut counters).expect("evaluates");
            decoded.insert(algo.label(), counters.blocks_fetched);
        }
        let exhaustive = decoded["exhaustive"];
        assert!(
            decoded["bmw"] < exhaustive,
            "BMW decoded {} blocks, exhaustive {exhaustive}",
            decoded["bmw"]
        );
        assert!(
            decoded["bmm"] < exhaustive,
            "BMM decoded {} blocks, exhaustive {exhaustive}",
            decoded["bmm"]
        );
    }

    #[test]
    fn totals_and_merge() {
        let mut a = EvalCounts {
            docs_scored: 10,
            docs_skipped_wand: 5,
            docs_skipped_block: 85,
            ..Default::default()
        };
        assert_eq!(a.docs_total(), 100);
        let b = EvalCounts {
            docs_scored: 1,
            blocks_fetched: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.docs_scored, 11);
        assert_eq!(a.blocks_fetched, 2);
        assert_eq!(a.docs_total(), 101);
    }

    /// The attribution rule, event by event and reason by reason: an
    /// event moves exactly the counters its row of [`EvalCounts`]'s table
    /// names, by the named amounts, and no other field.
    #[test]
    fn each_event_moves_exactly_its_counters() {
        let docs = corpus(800);
        let index = IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .expect("builds");
        let list = index.list(index.term_id("common").expect("term"));
        let (metas, scheme) = (list.blocks(), list.scheme());
        assert!(metas.len() > 1, "a multi-block list");
        let n = metas.len() as u64;
        // The counters after one event (or after writing the expected
        // fields) on fresh counters.
        let on = |event: &dyn Fn(&mut EvalCounts)| {
            let mut counts = EvalCounts::default();
            event(&mut counts);
            counts
        };
        type Event<'a> = &'a dyn Fn(&mut EvalCounts);
        let rows: [(&str, Event, Event); 11] = [
            ("meta_read", &|c| c.meta_read(1, 64, 3), &|w| {
                w.metas_read = 3
            }),
            (
                "list_streamed",
                &|c| c.list_streamed(1, metas, 0, 4096, 512),
                &|w| (w.metas_read, w.blocks_fetched) = (n, n),
            ),
            (
                "block_decoded",
                &|c| c.block_decoded(1, 0, scheme, &metas[0]),
                &|w| w.blocks_fetched = 1,
            ),
            ("doc_abandoned", &|c| c.doc_abandoned(), &|w| {
                w.docs_skipped_prune = 1
            }),
            ("doc_scored", &|c| c.doc_scored(9), &|w| w.docs_scored = 1),
            ("scored", &|c| c.scored(&[2, 5, 9]), &|w| w.docs_scored = 3),
            ("round", &|c| c.round(), &|w| w.pivot_rounds = 1),
            // What the rule leaves to the engines moves nothing.
            (
                "block_fetch",
                &|c| c.block_fetch(1, 0, &metas[0]).expect("no fault model"),
                &|_| {},
            ),
            ("pruned_union", &|c| c.pruned_union(), &|_| {}),
            ("joined", &|c| c.joined(5, 2), &|_| {}),
            ("group_matched", &|c| c.group_matched(2), &|_| {}),
        ];
        for (event, got, want) in rows {
            assert_eq!(on(got), on(want), "{event}");
        }
        let unusable = on(&|c| {
            let err = Error::ReadFault { addr: 0 };
            assert!(
                c.block_unusable(1, &metas[0], err).is_err(),
                "fails the query"
            );
        });
        assert_eq!(unusable, EvalCounts::default(), "block_unusable");

        for reason in [SkipReason::Block, SkipReason::Wand, SkipReason::Prune] {
            let skipped = on(&|c| c.blocks_skipped(1, 2, 7, reason));
            let want = on(&|w| {
                w.blocks_skipped = 2;
                match reason {
                    SkipReason::Prune => (w.blocks_skipped_prune, w.docs_skipped_prune) = (2, 7),
                    SkipReason::Block | SkipReason::Wand => w.docs_skipped_block = 7,
                }
            });
            assert_eq!(skipped, want, "blocks_skipped {reason:?}");
            let want = on(&|w| match reason {
                SkipReason::Block => w.docs_skipped_block = 4,
                SkipReason::Wand => w.docs_skipped_wand = 4,
                SkipReason::Prune => w.docs_skipped_prune = 4,
            });
            for scanned in [false, true] {
                let passed = on(&|c| c.postings_passed(1, 4, reason, scanned));
                assert_eq!(passed, want, "postings_passed {reason:?} scanned {scanned}");
            }
        }
    }

    #[test]
    fn cannot_beat_is_conservative() {
        assert!(!cannot_beat(5.0, f32::NEG_INFINITY));
        assert!(!cannot_beat(5.0, 5.0));
        assert!(
            !cannot_beat(4.9999, 5.0),
            "within slack: not provably worse"
        );
        assert!(cannot_beat(4.99, 5.0));
        assert!(cannot_beat(0.0, 5.0));
        // The slack scales with θ: 1e-4 × (1 + 10⁴) = 1.0001 at θ = 10⁴.
        assert!(cannot_beat(1e4 - 1.0002, 1e4));
        assert!(!cannot_beat(1e4 - 1.0, 1e4));
    }

    #[test]
    fn empty_inputs_are_empty() {
        let index = IndexBuilder::new()
            .add_documents(["just one doc"])
            .build()
            .expect("builds");
        let t = index.term_id("doc").expect("term");
        let got = pruned_union_topk(&index, &[t], QueryAlgorithm::BlockMaxWand, 0, &mut NullSink)
            .expect("k=0 ok");
        assert!(got.hits.is_empty());
        let got = pruned_union_topk(&index, &[], QueryAlgorithm::MaxScore, 10, &mut NullSink)
            .expect("no terms ok");
        assert!(got.hits.is_empty());
    }

    #[test]
    fn out_of_range_term_is_a_typed_error() {
        let index = IndexBuilder::new()
            .add_documents(["just one doc"])
            .build()
            .expect("builds");
        let bad = index.n_terms() as TermId;
        let err = pruned_union_topk(&index, &[bad], QueryAlgorithm::Wand, 10, &mut NullSink)
            .expect_err("rejects");
        assert!(matches!(err, Error::UnknownTerm { .. }));
    }

    #[test]
    fn corrupt_block_max_sanitizes_or_errors_never_lies() {
        let docs = corpus(800);
        let words = ["alpha", "beta", "gamma", "common"];
        let expr = QueryExpr::or(words.map(QueryExpr::term));
        let base = IndexBuilder::new()
            .add_documents(docs.iter().map(|s| s.as_str()))
            .build()
            .expect("builds");
        let oracle = crate::reference::evaluate(&base, &expr, 10).expect("oracle");
        let terms = union_terms(&base, &words);
        let t = terms[0];
        // Safe over-estimate corruptions: NaN / negative / +inf / inflated.
        for mutation in [f32::NAN, -1.0, f32::INFINITY, f32::MAX] {
            let mut index = IndexBuilder::new()
                .add_documents(docs.iter().map(|s| s.as_str()))
                .build()
                .expect("builds");
            index.list_mut(t).blocks_mut()[0].max_score = mutation;
            for algo in crate::ALL_ALGORITHMS {
                let got = pruned_union_topk(&index, &terms, algo, 10, &mut NullSink)
                    .expect("sanitized bound still evaluates");
                let pairs = |hits: &[SearchHit]| {
                    hits.iter()
                        .map(|h| (h.doc, h.score.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pairs(&got.hits), pairs(&oracle), "algo {algo}");
            }
        }
        // A structurally wrong directory entry must surface as a typed
        // error once the block is decoded.
        let mut index = IndexBuilder::new()
            .add_documents(docs.iter().map(|s| s.as_str()))
            .build()
            .expect("builds");
        index.list_mut(t).blocks_mut()[0].first_doc = DocId::MAX - 1;
        let err = pruned_union_topk(&base, &terms, QueryAlgorithm::Exhaustive, 10, &mut NullSink);
        assert!(err.is_ok(), "uncorrupted baseline sanity");
        let got = pruned_union_topk(
            &index,
            &terms,
            QueryAlgorithm::Exhaustive,
            10,
            &mut NullSink,
        );
        assert!(
            matches!(got, Err(Error::CorruptMetadata { .. })),
            "corrupt first_doc must be a typed error, got {got:?}"
        );
    }
}
