//! Index-level dynamic-pruning evaluators (MaxScore / WAND / BMW / BMM).
//!
//! This module is the *portable* half of the pruning tentpole: a
//! self-contained evaluator over [`crate::EncodedList`] block metadata that the
//! host-style engines (IIU, the Lucene-like baseline) and the property
//! tests drive directly. The BOSS device pipeline has its own
//! implementation in `boss-core` (it must thread through the simulated
//! fetch/decode/score units); both are required by tests to return the
//! exact hits of [`crate::reference::evaluate`].
//!
//! # Safety contract
//!
//! Pruning is *safe*: the returned top-k is bit-identical to the
//! exhaustive oracle — same docs, same f32 score bits, same
//! [`SearchHit::ranking_cmp`] order — because
//!
//! * skip decisions use the verbatim `cannot_beat` guard from the BOSS
//!   early-termination path (a strict `1e-4`-scaled slack below the
//!   threshold, so score *ties* are always evaluated), and
//! * every surviving document's final score is recomputed canonically:
//!   contributing terms sorted ascending, f32 accumulation in term
//!   order, exactly like the reference evaluator. Partial sums and
//!   upper-bound tails (kept in f64) only ever decide *abandonment*.
//!
//! # Corruption contract
//!
//! Block-max and list-max scores are untrusted metadata. Non-finite or
//! negative bounds sanitize to `+inf` (never-skip — a safe
//! over-estimate). Decoded blocks are verified against their directory
//! entry (first/last docID containment, per-posting score within the
//! block-max bound) and violations surface as
//! [`Error::CorruptMetadata`]. The residual trust boundary — a
//! *finitely lowered* bound on a block that is skipped and therefore
//! never decoded — is undetectable without decoding and is documented
//! in DESIGN.md §14; the corruption harness's mutation corpus covers
//! the detectable classes.

use crate::algorithm::QueryAlgorithm;
use crate::encoded::{BlockMeta, ListView};
use crate::index::{InvertedIndex, TermId};
use crate::matches::canonical_score;
use crate::query::SearchHit;
use crate::topk::TopK;
use crate::{DocId, Error};

/// Observer for the simulated-cost side effects of a pruned traversal.
///
/// The evaluator calls these hooks at the exact point the corresponding
/// physical event would happen on the modeled hardware: metadata reads
/// when a block directory entry is first consulted, block decodes when
/// (and only when) a block survives the skip checks, skip tallies when
/// postings are provably unable to change the top-k. Engines implement
/// this to charge their memory simulators; [`NullSink`] ignores it all.
///
/// `slot` identifies the query term stream (position in the deduplicated
/// ascending term list passed to [`pruned_union_topk`]).
pub trait PruneSink {
    /// `blocks` metadata records of stream `slot` were read (19 B each).
    fn meta_read(&mut self, _slot: usize, _blocks: u64) {}
    /// A block of stream `slot` was fetched and decoded.
    fn block_decoded(&mut self, _slot: usize, _meta: &BlockMeta) {}
    /// `blocks` whole blocks (`docs` postings) of stream `slot` were
    /// skipped without ever being fetched or decoded.
    fn blocks_skipped(&mut self, _slot: usize, _blocks: u64, _docs: u64) {}
    /// `docs` already-decoded postings of stream `slot` were passed over
    /// without scoring (in-block scan or decoded-tail skip).
    fn docs_skipped(&mut self, _slot: usize, _docs: u64) {}
    /// A candidate document was abandoned mid-probe (MaxScore family):
    /// its partial score plus the unprobed upper-bound tail cannot beat
    /// the threshold.
    fn doc_abandoned(&mut self) {}
    /// A candidate document was fully scored and offered to the heap.
    fn doc_scored(&mut self, _doc: DocId) {}
    /// One pivot/candidate-selection round completed.
    fn round(&mut self) {}
}

/// A sink that ignores every event (pure result computation).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl PruneSink for NullSink {}

/// A sink that tallies every event — the portable engines' bookkeeping
/// and the unit tests' visibility into how much work was avoided.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneCounters {
    /// Block directory entries read (19 B each).
    pub metas_read: u64,
    /// Blocks fetched and decoded.
    pub blocks_decoded: u64,
    /// Whole blocks skipped undecoded.
    pub blocks_skipped: u64,
    /// Postings inside skipped blocks (never decoded).
    pub docs_skipped_blocks: u64,
    /// Decoded postings passed over without scoring, plus abandoned
    /// candidates.
    pub docs_skipped: u64,
    /// Documents fully scored.
    pub docs_scored: u64,
    /// Pivot/candidate rounds.
    pub rounds: u64,
}

impl PruneCounters {
    /// Every document accounted for: scored, skipped decoded, or skipped
    /// inside an undecoded block.
    pub fn docs_total(&self) -> u64 {
        self.docs_scored + self.docs_skipped + self.docs_skipped_blocks
    }
}

impl PruneSink for PruneCounters {
    fn meta_read(&mut self, _slot: usize, blocks: u64) {
        self.metas_read += blocks;
    }
    fn block_decoded(&mut self, _slot: usize, _meta: &BlockMeta) {
        self.blocks_decoded += 1;
    }
    fn blocks_skipped(&mut self, _slot: usize, blocks: u64, docs: u64) {
        self.blocks_skipped += blocks;
        self.docs_skipped_blocks += docs;
    }
    fn docs_skipped(&mut self, _slot: usize, docs: u64) {
        self.docs_skipped += docs;
    }
    fn doc_abandoned(&mut self) {
        self.docs_skipped += 1;
    }
    fn doc_scored(&mut self, _doc: DocId) {
        self.docs_scored += 1;
    }
    fn round(&mut self) {
        self.rounds += 1;
    }
}

/// Result of a pruned union evaluation.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// The exact top-k, in [`SearchHit::ranking_cmp`] order.
    pub hits: Vec<SearchHit>,
    /// Heap insertions performed (mirrors `TopK` accounting in
    /// `boss-core`).
    pub topk_inserts: u64,
}

/// The BOSS early-termination guard, verbatim from the device union
/// path: `upper` cannot beat `theta` only when it is a strict
/// slack below it, so score ties are always evaluated and the top-k
/// stays bit-identical to the exhaustive order.
fn cannot_beat(upper: f64, theta: f32) -> bool {
    if !theta.is_finite() {
        return false;
    }
    let slack = 1e-4 * (1.0 + f64::from(theta.abs()));
    upper <= f64::from(theta) - slack
}

/// Sanitizes an untrusted score upper bound: anything non-finite or
/// negative becomes `+inf`, which disables skipping (a safe
/// over-estimate) instead of enabling a wrong skip.
fn sanitize_ub(raw: f32) -> f32 {
    if raw.is_finite() && raw >= 0.0 {
        raw
    } else {
        f32::INFINITY
    }
}

/// One query-term posting stream: block-directory position plus the
/// decoded window of the current block (empty until the block survives
/// the skip checks and is actually decoded).
struct Cursor<'a> {
    slot: usize,
    term: TermId,
    /// The list's descriptors and payload, taken from the index once.
    list: ListView<'a>,
    /// Sanitized list-level score upper bound.
    ub: f32,
    /// Current block index (`== n_blocks` once exhausted).
    block: usize,
    /// Decoded docIDs/tfs of the current block; empty while undecoded.
    docs: Vec<DocId>,
    tfs: Vec<u32>,
    /// Position within the decoded window.
    pos: usize,
    /// Number of leading directory entries whose 19 B metadata has been
    /// charged to the sink (entries are read once, in order).
    meta_upto: usize,
}

impl<'a> Cursor<'a> {
    fn new<S: PruneSink>(
        index: &'a InvertedIndex,
        slot: usize,
        term: TermId,
        sink: &mut S,
    ) -> Self {
        let list = index.list(term).view();
        let mut c = Cursor {
            slot,
            term,
            list,
            ub: sanitize_ub(list.stats.max_score),
            block: 0,
            docs: Vec::new(),
            tfs: Vec::new(),
            pos: 0,
            meta_upto: 0,
        };
        c.charge_meta(sink);
        c
    }

    fn exhausted(&self) -> bool {
        self.block >= self.list.blocks.len()
    }

    fn meta(&self) -> &BlockMeta {
        &self.list.blocks[self.block]
    }

    fn decoded(&self) -> bool {
        !self.docs.is_empty()
    }

    /// Charges the sink for the current block's directory entry if it
    /// has not been read yet (directory reads are sequential).
    fn charge_meta<S: PruneSink>(&mut self, sink: &mut S) {
        if !self.exhausted() && self.block >= self.meta_upto {
            sink.meta_read(self.slot, (self.block + 1 - self.meta_upto) as u64);
            self.meta_upto = self.block + 1;
        }
    }

    /// Moves to block `b` with no decoded window.
    fn enter_block<S: PruneSink>(&mut self, b: usize, sink: &mut S) {
        self.block = b;
        self.docs.clear();
        self.tfs.clear();
        self.pos = 0;
        self.charge_meta(sink);
    }

    /// Smallest not-yet-consumed docID. For an undecoded block this is
    /// the directory's `first_doc` — readable without a decode.
    fn current_doc(&self) -> DocId {
        if self.decoded() {
            self.docs[self.pos]
        } else {
            self.meta().first_doc
        }
    }

    /// Decodes the current block if it is not already decoded, verifying
    /// the decoded contents against the directory entry.
    fn ensure_decoded<S: PruneSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        if self.decoded() {
            return Ok(());
        }
        self.list
            .decode_block(self.block, &mut self.docs, &mut self.tfs)?;
        let meta = self.meta();
        match (self.docs.first(), self.docs.last()) {
            (Some(&first), Some(&last)) => {
                if first != meta.first_doc || last != meta.last_doc {
                    return Err(Error::CorruptMetadata {
                        reason: "decoded block contents disagree with its directory entry",
                    });
                }
            }
            _ => {
                return Err(Error::CorruptMetadata {
                    reason: "block decoded to zero postings",
                });
            }
        }
        sink.block_decoded(self.slot, meta);
        self.pos = 0;
        Ok(())
    }

    /// Consumes the current posting (the block must be decoded).
    fn advance<S: PruneSink>(&mut self, sink: &mut S) {
        self.pos += 1;
        if self.pos >= self.docs.len() {
            let next = self.block + 1;
            self.enter_block(next, sink);
        }
    }

    /// Positions the cursor at the first docID `>= target`, charging
    /// every skipped block/posting to the sink. Blocks whose `last_doc`
    /// is below the target are skipped *undecoded*.
    fn seek<S: PruneSink>(&mut self, target: DocId, sink: &mut S) -> Result<(), Error> {
        while !self.exhausted() && self.meta().last_doc < target {
            if self.decoded() {
                sink.docs_skipped(self.slot, (self.docs.len() - self.pos) as u64);
            } else {
                sink.blocks_skipped(self.slot, 1, self.meta().count() as u64);
            }
            let next = self.block + 1;
            self.enter_block(next, sink);
        }
        if self.exhausted() || self.current_doc() >= target {
            return Ok(());
        }
        // The target lies inside the current block: decode and scan.
        self.ensure_decoded(sink)?;
        let start = self.pos;
        self.pos += self.docs[self.pos..].partition_point(|&d| d < target);
        sink.docs_skipped(self.slot, (self.pos - start) as u64);
        if self.pos >= self.docs.len() {
            // Unreachable for honest metadata (last_doc >= target was
            // verified at decode), kept as a safe fallback.
            let next = self.block + 1;
            self.enter_block(next, sink);
        }
        Ok(())
    }

    /// Block-max shallow advance: the sanitized score bound and boundary
    /// (`last_doc`) of the block that would contain `target`, without
    /// fetching or decoding anything. Returns `(0.0, DocId::MAX)` when
    /// the list has no docID at or beyond `target`.
    fn shallow(&self, target: DocId) -> (f32, DocId) {
        let b = self.list.skip_to_block(self.block, target);
        if b >= self.list.blocks.len() {
            (0.0, DocId::MAX)
        } else {
            (self.list.block_max_ub(b), self.list.blocks[b].last_doc)
        }
    }

    /// Counts every remaining posting as skipped and exhausts the
    /// cursor (the traversal proved the whole tail cannot contribute).
    fn drain_skipped<S: PruneSink>(&mut self, sink: &mut S) {
        if self.exhausted() {
            return;
        }
        let mut from = self.block;
        if self.decoded() {
            sink.docs_skipped(self.slot, (self.docs.len() - self.pos) as u64);
            from += 1;
        }
        let tail = &self.list.blocks[from..];
        if !tail.is_empty() {
            let docs: u64 = tail.iter().map(|m| m.count() as u64).sum();
            sink.blocks_skipped(self.slot, tail.len() as u64, docs);
        }
        self.block = self.list.blocks.len();
        self.docs.clear();
        self.tfs.clear();
        self.pos = 0;
    }

    /// Reads the current posting's tf, verifying its term score against
    /// the block-max and list-max bounds, then consumes it. The cursor
    /// must be positioned at a decoded posting.
    fn take_posting<S: PruneSink>(
        &mut self,
        index: &InvertedIndex,
        norm: f32,
        sink: &mut S,
    ) -> Result<(TermId, u32, f32), Error> {
        let tf = self.tfs[self.pos];
        let score = index.bm25().term_score(self.list.stats.idf, tf, norm);
        if score > self.list.block_max_ub(self.block) || score > self.ub {
            return Err(Error::CorruptMetadata {
                reason: "posting score exceeds its block-max bound",
            });
        }
        self.advance(sink);
        Ok((self.term, tf, score))
    }
}

fn doc_norm(index: &InvertedIndex, doc: DocId) -> Result<f32, Error> {
    index
        .doc_norms()
        .get(doc as usize)
        .copied()
        .ok_or(Error::CorruptMetadata {
            reason: "decoded docID outside the corpus",
        })
}

/// Evaluates a union (OR) of `terms` under `algorithm`, returning the
/// exact top-`k` of the exhaustive oracle while charging every simulated
/// access to `sink`.
///
/// Terms are deduplicated and sorted ascending; `slot` in sink callbacks
/// indexes that deduplicated order. `Exhaustive` runs the same frontier
/// loop with the threshold pinned to `-inf`, which disables every skip —
/// useful as an in-family baseline, though engines normally route
/// `Exhaustive` through their original traversal.
///
/// # Errors
///
/// Returns [`Error::UnknownTerm`] for out-of-range term ids and
/// [`Error::CorruptMetadata`] / codec errors if a decoded block
/// contradicts its directory entry.
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
    let mut cursors: Vec<Cursor<'_>> = Vec::with_capacity(ids.len());
    for (slot, &t) in ids.iter().enumerate() {
        cursors.push(Cursor::new(index, slot, t, sink));
    }
    let topk = match algorithm {
        QueryAlgorithm::Exhaustive => wand_union(index, &mut cursors, k, false, true, sink)?,
        QueryAlgorithm::Wand => wand_union(index, &mut cursors, k, false, false, sink)?,
        QueryAlgorithm::BlockMaxWand => wand_union(index, &mut cursors, k, true, false, sink)?,
        QueryAlgorithm::MaxScore => maxscore_union(index, &mut cursors, k, false, sink)?,
        QueryAlgorithm::BlockMaxMaxScore => maxscore_union(index, &mut cursors, k, true, sink)?,
    };
    Ok(PruneOutcome {
        topk_inserts: topk.inserts(),
        hits: topk.into_hits(),
    })
}

/// WAND / Block-Max WAND frontier loop (also the in-family exhaustive
/// baseline with `exhaustive = true`, which pins the threshold to
/// `-inf` so the pivot is always the minimum docID).
fn wand_union<S: PruneSink>(
    index: &InvertedIndex,
    cursors: &mut [Cursor<'_>],
    k: usize,
    block_max: bool,
    exhaustive: bool,
    sink: &mut S,
) -> Result<TopK, Error> {
    let mut topk = TopK::new(k);
    let mut entries: Vec<(TermId, u32)> = Vec::new();
    let mut order: Vec<usize> = Vec::with_capacity(cursors.len());
    loop {
        order.clear();
        order.extend((0..cursors.len()).filter(|&i| !cursors[i].exhausted()));
        if order.is_empty() {
            break;
        }
        order.sort_unstable_by_key(|&i| (cursors[i].current_doc(), i));
        sink.round();
        let theta = if exhaustive {
            f32::NEG_INFINITY
        } else {
            topk.cutoff()
        };
        // Pivot: first frontier prefix whose summed list bounds can
        // still beat the threshold.
        let mut acc = 0f64;
        let mut pivot = None;
        for (rank, &ci) in order.iter().enumerate() {
            acc += f64::from(cursors[ci].ub);
            if !cannot_beat(acc, theta) {
                pivot = Some(rank);
                break;
            }
        }
        let Some(p) = pivot else {
            // Even all lists together cannot beat the threshold: the
            // remaining postings are all skippable.
            for &ci in order.iter() {
                cursors[ci].drain_skipped(sink);
            }
            break;
        };
        let pivot_doc = cursors[order[p]].current_doc();
        // Extend the pivot set over docID ties.
        let mut pend = p;
        while pend + 1 < order.len() && cursors[order[pend + 1]].current_doc() == pivot_doc {
            pend += 1;
        }
        if block_max {
            // Shallow advance: bound the window [pivot_doc, next) by the
            // per-block max scores, without decoding anything.
            let mut bub = 0f64;
            let mut min_boundary = DocId::MAX;
            for &ci in order[..=pend].iter() {
                let (u, last) = cursors[ci].shallow(pivot_doc);
                bub += f64::from(u);
                min_boundary = min_boundary.min(last);
            }
            if cannot_beat(bub, theta) {
                let mut next = min_boundary.saturating_add(1);
                if pend + 1 < order.len() {
                    next = next.min(cursors[order[pend + 1]].current_doc());
                }
                let next = next.max(pivot_doc.saturating_add(1));
                for &ci in order[..=pend].iter() {
                    cursors[ci].seek(next, sink)?;
                }
                continue;
            }
        }
        if cursors[order[0]].current_doc() == pivot_doc {
            // Frontier aligned on the pivot: every cursor in the pivot
            // set sits on pivot_doc. Decode (only now), gather, score
            // canonically.
            let norm = doc_norm(index, pivot_doc)?;
            entries.clear();
            for &ci in order[..=pend].iter() {
                let c = &mut cursors[ci];
                c.ensure_decoded(sink)?;
                let (t, tf, _) = c.take_posting(index, norm, sink)?;
                entries.push((t, tf));
            }
            let score = canonical_score(index, &mut entries, norm);
            sink.doc_scored(pivot_doc);
            topk.offer(pivot_doc, score);
        } else {
            // Not aligned: move the lowest cursor up to the pivot.
            cursors[order[0]].seek(pivot_doc, sink)?;
        }
    }
    Ok(topk)
}

/// MaxScore / Block-Max MaxScore loop: lists are split by ascending
/// upper bound into a non-essential prefix (whose summed bounds cannot
/// beat the threshold) and an essential tail; candidates come only from
/// essential lists, non-essential lists are probed with early
/// abandoning. The split index is monotone in the threshold, so
/// candidates arrive in ascending docID order.
fn maxscore_union<S: PruneSink>(
    index: &InvertedIndex,
    cursors: &mut [Cursor<'_>],
    k: usize,
    block_max: bool,
    sink: &mut S,
) -> Result<TopK, Error> {
    // Fixed ascending (upper bound, term) order; prefix[j] = summed
    // bounds of cursors[0..j].
    cursors.sort_unstable_by(|a, b| a.ub.total_cmp(&b.ub).then(a.term.cmp(&b.term)));
    let n = cursors.len();
    let mut prefix = vec![0f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + f64::from(cursors[i].ub);
    }
    let mut topk = TopK::new(k);
    let mut entries: Vec<(TermId, u32)> = Vec::new();
    loop {
        let theta = topk.cutoff();
        let mut ness = 0usize;
        while ness < n && cannot_beat(prefix[ness + 1], theta) {
            ness += 1;
        }
        if ness == n {
            // No list can contribute a top-k change any more.
            for c in cursors.iter_mut() {
                c.drain_skipped(sink);
            }
            break;
        }
        // Next candidate: minimum current docID over live essential
        // lists.
        let mut cand = None;
        for c in cursors[ness..].iter() {
            if !c.exhausted() {
                let d = c.current_doc();
                cand = Some(cand.map_or(d, |x: DocId| x.min(d)));
            }
        }
        let Some(d) = cand else {
            // Essential lists exhausted; whatever remains in the
            // non-essential prefix cannot beat the threshold alone.
            for c in cursors.iter_mut() {
                c.drain_skipped(sink);
            }
            break;
        };
        sink.round();
        if block_max {
            // Refine the essential bound with the block maxes of the
            // lists actually positioned on `d`.
            let mut ub = prefix[ness];
            let mut min_boundary = DocId::MAX;
            let mut next_cur = DocId::MAX;
            for c in cursors[ness..].iter() {
                if c.exhausted() {
                    continue;
                }
                if c.current_doc() == d {
                    let (u, last) = c.shallow(d);
                    ub += f64::from(u);
                    min_boundary = min_boundary.min(last);
                } else {
                    next_cur = next_cur.min(c.current_doc());
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
                for c in cursors[ness..].iter_mut() {
                    if !c.exhausted() && c.current_doc() == d {
                        c.seek(next, sink)?;
                    }
                }
                continue;
            }
        }
        // Gather the essential postings at `d` (decoding only now).
        let norm = doc_norm(index, d)?;
        entries.clear();
        let mut partial = 0f64;
        for c in cursors[ness..].iter_mut() {
            if !c.exhausted() && c.current_doc() == d {
                c.ensure_decoded(sink)?;
                let (t, tf, s) = c.take_posting(index, norm, sink)?;
                partial += f64::from(s);
                entries.push((t, tf));
            }
        }
        // Probe non-essential lists in descending-bound order, early
        // abandoning when the partial plus the unprobed tail cannot
        // beat the threshold. (The f64 partial only gates abandonment;
        // the offered score is recomputed canonically below.)
        let mut abandoned = false;
        for j in (0..ness).rev() {
            if cannot_beat(partial + prefix[j + 1], theta) {
                abandoned = true;
                break;
            }
            let c = &mut cursors[j];
            c.seek(d, sink)?;
            if !c.exhausted() && c.current_doc() == d {
                c.ensure_decoded(sink)?;
                let (t, tf, s) = c.take_posting(index, norm, sink)?;
                partial += f64::from(s);
                entries.push((t, tf));
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
    Ok(topk)
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
                if h % 2 == 0 {
                    let tf = 1 + (i / 128) % 7;
                    words.extend(std::iter::repeat_n("alpha", tf));
                }
                if h % 3 == 0 {
                    words.push("beta");
                }
                if h % 31 == 0 {
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
            let mut counters = PruneCounters::default();
            pruned_union_topk(&index, &terms, algo, 10, &mut counters).expect("evaluates");
            assert_eq!(
                counters.docs_total(),
                counters.docs_scored + counters.docs_skipped + counters.docs_skipped_blocks,
            );
            decoded.insert(algo.label(), counters.blocks_decoded);
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
    fn empty_inputs_are_empty() {
        let index = IndexBuilder::new()
            .add_documents(["just one doc"].into_iter())
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
            .add_documents(["just one doc"].into_iter())
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
