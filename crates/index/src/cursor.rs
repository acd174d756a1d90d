//! The block fetch module's posting-list cursor (Section IV-C "Block
//! Fetch Module"), shared by every engine: BOSS's union, intersection
//! and pruning plans, and the small-versus-small traversal of [`crate::svs`]
//! and the pruned evaluator of [`crate::prune`] that run the IIU and
//! Lucene-like baselines.
//!
//! A [`ListCursor`] walks one encoded posting list. It reads the 19 B
//! block descriptors in order (or, opened [`ListCursor::with_directory`],
//! the whole directory at once), answers "where am I" from a descriptor
//! alone while its block is undecoded, skips whole blocks on metadata,
//! and fetches and decodes a block only when a caller needs a posting
//! inside it; [`ListCursor::load`] streams a whole list instead. It keeps
//! no account of what any of that costs: every
//! physical event — a descriptor read, a block fetch, a decode, a skip —
//! goes to the [`ListSink`] the caller passes in, and the engine that
//! implements the sink prices it (simulated memory traffic, decompressor
//! cycles, counters). One cursor, so one state machine and one place
//! that decides what was read, fetched or skipped; as many cost models
//! as there are engines.
//!
//! A cursor opened [`ListCursor::scored`] also scores each block it
//! decodes, once, with [`crate::Bm25::score_block`] — from where a seek
//! that decoded it stops — and hands the unconsumed run's term scores
//! out beside its docIDs ([`ListCursor::run_scores`]): the union module
//! reads a block's postings in order after the block fetch module
//! decoded it. Scoring is host work only; it reports no event.
//!
//! Decoded blocks are checked against their descriptor where every
//! decode is, in [`crate::EncodedList::decode_block`]; on a walk, a block
//! that fails the check (or whose descriptor reaches past the corpus, or
//! whose fetch the sink refuses) goes to [`ListSink::block_unusable`],
//! which either fails the query or lets the cursor drop the block and
//! move on.

use crate::encoded::ListView;
use crate::index::{InvertedIndex, TermId};
use crate::layout::IndexImage;
use crate::{BlockMeta, Bm25, DecodeScratch, DocId, Error, ScoreScratch, BLOCK_META_BYTES};
use boss_compress::Scheme;

/// Why postings were passed over without being scored — drives the
/// attribution of Figure 14 and keeps the pruning plans' savings apart
/// from the exhaustive path's early termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Skipped by the block fetch module (whole block never fetched).
    Block,
    /// Skipped by the union module's WAND (popped without scoring).
    Wand,
    /// Skipped by a dynamic-pruning query plan (a
    /// [`crate::QueryAlgorithm`] other than `Exhaustive`).
    Prune,
}

/// The physical events of a cursor walk, in the order the modeled
/// hardware performs them. `slot` is whatever the caller gave the
/// cursor: BOSS binds a list to a decompression module, the portable
/// evaluator numbers its term streams.
///
/// Every method has a default that ignores the event; the defaults of
/// [`ListSink::block_fetch`] and [`ListSink::block_unusable`] never
/// refuse a fetch and fail the query on an unusable block.
pub trait ListSink {
    /// `records` descriptors of stream `slot` were read, the first at
    /// `addr` and the rest following it ([`BLOCK_META_BYTES`] each).
    fn meta_read(&mut self, _slot: usize, _addr: u64, _records: u64) {}

    /// The whole list of stream `slot` is about to be streamed and decoded
    /// ([`ListCursor::load`]): its descriptors `blocks`, stored from
    /// `meta_addr`, and its `data_bytes` payload bytes, stored from
    /// `data_addr`. No other event reports the stream's reads or decodes.
    fn list_streamed(
        &mut self,
        _slot: usize,
        _blocks: &[BlockMeta],
        _meta_addr: u64,
        _data_addr: u64,
        _data_bytes: u64,
    ) {
    }

    /// The block described by `meta` is about to be fetched from `addr`.
    /// An error makes the block unusable (see
    /// [`ListSink::block_unusable`]) before anything is decoded.
    ///
    /// # Errors
    ///
    /// Whatever the sink decides the read suffered, e.g. a simulated
    /// uncorrectable fault.
    fn block_fetch(&mut self, _slot: usize, _addr: u64, _meta: &BlockMeta) -> Result<(), Error> {
        Ok(())
    }

    /// Block `block` (its ordinal in the list), described by `meta`, was
    /// decoded under `scheme` and agrees with its descriptor.
    fn block_decoded(&mut self, _slot: usize, _block: usize, _scheme: Scheme, _meta: &BlockMeta) {}

    /// The block described by `meta` could not be used: its descriptor
    /// reaches past the corpus, its fetch was refused or its decode
    /// failed with `err`. `Ok` drops the block and the cursor moves on
    /// to the next one; `Err` fails the query.
    ///
    /// # Errors
    ///
    /// `err` itself by default.
    fn block_unusable(&mut self, _slot: usize, _meta: &BlockMeta, err: Error) -> Result<(), Error> {
        Err(err)
    }

    /// `blocks` whole blocks holding `postings` postings were skipped
    /// without being fetched.
    fn blocks_skipped(&mut self, _slot: usize, _blocks: u64, _postings: u64, _reason: SkipReason) {}

    /// `n` postings of a decoded block were passed over without being
    /// scored: found by scanning the block when `scanned` (one comparison
    /// each), or as the block's unconsumed tail otherwise. Scans inside
    /// one block may arrive as one event carrying their sum
    /// ([`ListCursor::pass_scanned`]), so a sink prices `n`, not events.
    fn postings_passed(&mut self, _slot: usize, _n: u64, _reason: SkipReason, _scanned: bool) {}
}

/// Sanitizes an untrusted score upper bound (a list's or a block's
/// stored max term score): anything non-finite or negative becomes
/// `+inf`, which disables skipping (a safe over-estimate) instead of
/// enabling a wrong skip. A *plausible* finite lowering is undetectable
/// without decoding the block; [`crate::prune`] checks every posting it
/// scores against its bounds.
#[inline]
fn sanitize_ub(raw: f32) -> f32 {
    if raw.is_finite() && raw >= 0.0 {
        raw
    } else {
        f32::INFINITY
    }
}

/// A block descriptor whose docIDs reach past the corpus.
const PAST_THE_CORPUS: Error = Error::CorruptMetadata {
    reason: "block descriptor's last docID outside the corpus",
};

/// What a scored cursor scores its decoded blocks with, and the scores
/// of the block it holds.
#[derive(Debug)]
struct Scorer<'a> {
    bm25: Bm25,
    norms: &'a [f32],
    scores: ScoreScratch,
    /// Position in the decoded block of the first scored posting: a seek
    /// that decodes a block scores only what it does not pass over.
    from: usize,
}

/// What a cursor asks of its current block's descriptor, read once when
/// it enters the block: the questions a union round asks of a block
/// (where it starts and ends, its bound) then read the cursor alone.
#[derive(Debug, Clone, Copy, Default)]
struct BlockHead {
    first_doc: DocId,
    last_doc: DocId,
    postings: usize,
    /// The sanitized block-max.
    max: f32,
}

impl BlockHead {
    fn of(meta: &BlockMeta) -> Self {
        BlockHead {
            first_doc: meta.first_doc,
            last_doc: meta.last_doc,
            postings: meta.count(),
            max: sanitize_ub(meta.max_score),
        }
    }
}

/// A cursor over one encoded posting list with lazy block decode.
#[derive(Debug)]
pub struct ListCursor<'a> {
    term: TermId,
    slot: usize,
    /// The list's descriptors and payload, taken from the index once.
    list: ListView<'a>,
    /// Its sanitized max term score.
    list_max: f32,
    /// Where the list's descriptor array and data area start in the
    /// index image.
    meta_addr: u64,
    data_addr: u64,
    /// The corpus size: a block whose descriptor ends at or past it is
    /// unusable, as its docIDs would index past the norm table.
    n_docs: DocId,
    /// Current block; `list.blocks.len()` when exhausted.
    block: usize,
    /// The current block's descriptor fields the cursor asks about,
    /// read when it enters the block; stale once it is exhausted.
    head: BlockHead,
    /// Decoded docIDs/tfs of the current block (empty while undecoded),
    /// in buffers reserved once from the descriptors.
    scratch: DecodeScratch,
    /// Position within the decoded block.
    pos: usize,
    /// Descriptors read so far (they are read once, in order).
    meta_upto: usize,
    /// Set when opened [`ListCursor::scored`].
    scorer: Option<Scorer<'a>>,
}

impl<'a> ListCursor<'a> {
    /// A cursor at the start of `term`'s list, reporting its events as
    /// stream `slot`; reads the first descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn new<S: ListSink>(
        index: &'a InvertedIndex,
        term: TermId,
        slot: usize,
        sink: &mut S,
    ) -> Self {
        let mut c = Self::open(index, term, slot);
        c.read_meta(sink);
        c
    }

    /// [`ListCursor::new`], scoring every block it decodes: the decoded
    /// run's term scores are [`ListCursor::run_scores`].
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn scored<S: ListSink>(
        index: &'a InvertedIndex,
        term: TermId,
        slot: usize,
        sink: &mut S,
    ) -> Self {
        let mut c = Self::new(index, term, slot, sink);
        c.scorer = Some(Scorer {
            bm25: *index.bm25(),
            norms: index.doc_norms(),
            scores: ScoreScratch::new(),
            from: 0,
        });
        c
    }

    /// A cursor at the start of `term`'s list that has read its whole
    /// directory, as one [`ListSink::meta_read`] of every descriptor (a
    /// directory streamed into on-chip buffers), and reads none again.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn with_directory<S: ListSink>(
        index: &'a InvertedIndex,
        term: TermId,
        slot: usize,
        sink: &mut S,
    ) -> Self {
        let mut c = Self::open(index, term, slot);
        c.meta_upto = c.list.blocks.len();
        sink.meta_read(slot, c.meta_addr, c.meta_upto as u64);
        c
    }

    /// A cursor at the start of `term`'s list that has read nothing yet.
    fn open(index: &'a InvertedIndex, term: TermId, slot: usize) -> Self {
        let list = index.list(term);
        let mut scratch = DecodeScratch::new();
        scratch.reserve_for(list);
        let image = IndexImage::new(index);
        ListCursor {
            term,
            slot,
            head: list.blocks().first().map(BlockHead::of).unwrap_or_default(),
            list_max: sanitize_ub(list.max_score()),
            list: list.view(),
            meta_addr: image.meta_addr(term),
            data_addr: image.data_addr(term),
            n_docs: index.n_docs(),
            block: 0,
            scratch,
            pos: 0,
            meta_upto: 0,
            scorer: None,
        }
    }

    /// Streams `term`'s whole list and decodes it into docID and tf
    /// columns: one [`ListSink::list_streamed`] event, no per-block fetch
    /// or decode event. A streamed list is all or nothing: a block that
    /// fails to decode, or whose descriptor reaches past the corpus,
    /// fails the load.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptMetadata`] if a descriptor's last docID lies
    /// outside the corpus, else the first block's decode error.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn load<S: ListSink>(
        index: &InvertedIndex,
        term: TermId,
        slot: usize,
        sink: &mut S,
    ) -> Result<(Vec<DocId>, Vec<u32>), Error> {
        let (list, image) = (index.list(term), IndexImage::new(index));
        let (meta, data) = (image.meta_addr(term), image.data_addr(term));
        sink.list_streamed(slot, list.blocks(), meta, data, list.data_bytes() as u64);
        if list.blocks().iter().any(|b| b.last_doc >= index.n_docs()) {
            return Err(PAST_THE_CORPUS);
        }
        list.decode_all()
    }

    /// The term whose list this is.
    #[inline]
    pub fn term(&self) -> TermId {
        self.term
    }

    /// The stream number the cursor reports its events as.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The term's inverse document frequency.
    #[inline]
    pub fn idf(&self) -> f32 {
        self.list.stats.idf
    }

    /// Sanitized list-level maximum term score (the WAND lookup-table
    /// value).
    #[inline]
    pub fn list_max(&self) -> f32 {
        self.list_max
    }

    /// Whether all postings are consumed.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.block >= self.list.blocks.len()
    }

    #[inline]
    fn head(&self) -> &BlockHead {
        assert!(!self.exhausted(), "the cursor is exhausted");
        &self.head
    }

    /// Ordinal of the current block; the list's block count once the
    /// cursor is exhausted.
    #[inline]
    pub fn block_ordinal(&self) -> usize {
        self.block
    }

    /// Number of blocks in the list.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.list.blocks.len()
    }

    /// Postings in the current block, from its descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    #[inline]
    pub fn block_postings(&self) -> usize {
        self.head().postings
    }

    /// Whether the current block is decoded.
    #[inline]
    pub fn is_decoded(&self) -> bool {
        !self.scratch.is_empty()
    }

    /// Smallest unconsumed docID (the `sID` of Section IV-C). For an
    /// undecoded block this is its descriptor's first docID — no fetch
    /// needed, which is what makes block skipping free.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    #[inline]
    pub fn current_doc(&self) -> DocId {
        if self.scratch.is_empty() {
            self.head().first_doc
        } else {
            self.scratch.docs[self.pos]
        }
    }

    /// Sanitized block-max term score of the current block.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    #[inline]
    pub fn block_max(&self) -> f32 {
        self.head().max
    }

    /// Last docID of the current block.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    #[inline]
    pub fn block_last_doc(&self) -> DocId {
        self.head().last_doc
    }

    /// Shallow advance: the sanitized block-max score and the last docID
    /// of the block that would contain `target` — the current block if it
    /// still reaches it, else the first later one that does — without
    /// fetching or decoding anything. `None` when no block reaches
    /// `target`.
    #[inline]
    pub fn shallow_block_max(&self, target: DocId) -> Option<(f32, DocId)> {
        if self.exhausted() {
            return None;
        }
        if self.head.last_doc >= target {
            return Some((self.head.max, self.head.last_doc));
        }
        let later = self.list.skip_to_block(self.block + 1, target);
        let m = self.list.blocks.get(later)?;
        Some((sanitize_ub(m.max_score), m.last_doc))
    }

    /// If the cursor sits at the start of a *not yet fetched* block,
    /// returns that block's last docID — the only unit the block fetch
    /// module can skip without the union module's help.
    #[inline]
    pub fn whole_block_skippable(&self) -> Option<DocId> {
        if !self.exhausted() && self.scratch.is_empty() {
            Some(self.head().last_doc)
        } else {
            None
        }
    }

    /// The unconsumed postings of the current block; empty while it is
    /// not decoded.
    #[inline]
    pub fn run(&self) -> (&[DocId], &[u32]) {
        (
            &self.scratch.docs[self.pos..],
            &self.scratch.tfs[self.pos..],
        )
    }

    /// The term scores of [`ListCursor::run`]'s postings, one each; empty
    /// while the block is not decoded, and always on a cursor not opened
    /// [`ListCursor::scored`].
    #[inline]
    pub fn run_scores(&self) -> &[f32] {
        match &self.scorer {
            Some(s) if !self.scratch.is_empty() => &s.scores.scores()[self.pos - s.from..],
            _ => &[],
        }
    }

    /// Number of postings not yet consumed (from the descriptors; nothing
    /// is read).
    pub fn remaining(&self) -> u64 {
        if self.exhausted() {
            return 0;
        }
        let this_block = if self.scratch.is_empty() {
            self.head().postings as u64
        } else {
            (self.scratch.len() - self.pos) as u64
        };
        let later: u64 = self.list.blocks[self.block + 1..]
            .iter()
            .map(|m| m.count() as u64)
            .sum();
        this_block + later
    }

    /// Reads the descriptors up to and including the current block's,
    /// unless they were read already.
    fn read_meta<S: ListSink>(&mut self, sink: &mut S) {
        if !self.exhausted() && self.block >= self.meta_upto {
            let addr = self.meta_addr + self.meta_upto as u64 * BLOCK_META_BYTES;
            sink.meta_read(self.slot, addr, (self.block + 1 - self.meta_upto) as u64);
            self.meta_upto = self.block + 1;
        }
    }

    /// Moves to the start of the next block, undecoded.
    fn next_block<S: ListSink>(&mut self, sink: &mut S) {
        self.block += 1;
        if let Some(meta) = self.list.blocks.get(self.block) {
            self.head = BlockHead::of(meta);
        }
        self.scratch.clear();
        self.pos = 0;
        self.read_meta(sink);
    }

    /// Term frequency at the cursor, decoding the current block if needed.
    ///
    /// `Ok(None)` when the block was unusable and the sink dropped it: the
    /// cursor is past it, and the document the caller was looking at no
    /// longer exists from the cursor's point of view.
    ///
    /// # Errors
    ///
    /// What [`ListSink::block_unusable`] returns for an unusable block.
    #[inline]
    pub fn current_tf<S: ListSink>(&mut self, sink: &mut S) -> Result<Option<u32>, Error> {
        Ok(self.fetch_block(sink)?.then(|| self.scratch.tfs[self.pos]))
    }

    /// Fetches and decodes the current block unless it already is: an
    /// inlined is-decoded check, the decode itself out of line.
    ///
    /// `Ok(true)` when the current block is decoded; `Ok(false)` when the
    /// cursor is exhausted or the block was unusable and the sink dropped
    /// it (the cursor moved, possibly to exhaustion) — the caller must
    /// re-examine the cursor.
    ///
    /// # Errors
    ///
    /// What [`ListSink::block_unusable`] returns for an unusable block.
    #[inline]
    pub fn fetch_block<S: ListSink>(&mut self, sink: &mut S) -> Result<bool, Error> {
        if !self.scratch.is_empty() {
            return Ok(true);
        }
        self.decode_current(sink)
    }

    /// The once-per-block half of [`ListCursor::fetch_block`]: decodes
    /// the block and scores all of it.
    #[inline(never)]
    fn decode_current<S: ListSink>(&mut self, sink: &mut S) -> Result<bool, Error> {
        let decoded = self.decode(sink)?;
        if decoded {
            self.score_run();
        }
        Ok(decoded)
    }

    /// Fetches and decodes the current block, scoring nothing; results as
    /// [`ListCursor::fetch_block`].
    fn decode<S: ListSink>(&mut self, sink: &mut S) -> Result<bool, Error> {
        let Some(&meta) = self.list.blocks.get(self.block) else {
            return Ok(false);
        };
        let addr = self.data_addr + u64::from(meta.offset);
        // A descriptor past the corpus is refused before the fetch: the
        // decode check would pass a block that agrees with it.
        let decoded = if meta.last_doc >= self.n_docs {
            Err(PAST_THE_CORPUS)
        } else {
            sink.block_fetch(self.slot, addr, &meta).and_then(|()| {
                let DecodeScratch { docs, tfs } = &mut self.scratch;
                self.list.decode_block(self.block, docs, tfs)
            })
        };
        if let Err(e) = decoded {
            self.scratch.clear();
            sink.block_unusable(self.slot, &meta, e)?;
            self.next_block(sink);
            return Ok(false);
        }
        sink.block_decoded(self.slot, self.block, self.list.stats.scheme, &meta);
        self.pos = 0;
        Ok(true)
    }

    /// On a scored cursor, scores the decoded block from the cursor on.
    fn score_run(&mut self) {
        if let Some(s) = &mut self.scorer {
            let DecodeScratch { docs, tfs } = &self.scratch;
            let (docs, tfs) = (&docs[self.pos..], &tfs[self.pos..]);
            s.bm25
                .score_block(self.list.stats.idf, docs, tfs, s.norms, &mut s.scores);
            s.from = self.pos;
        }
    }

    /// Consumes one posting, decoding the block first if necessary. If the
    /// block turned out unusable and the sink dropped it, the cursor is
    /// already past it and nothing more is consumed.
    ///
    /// # Errors
    ///
    /// As [`ListCursor::fetch_block`].
    pub fn advance<S: ListSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        if self.fetch_block(sink)? {
            self.advance_run(sink, 1);
        }
        Ok(())
    }

    /// Consumes `n` postings of the current decoded block in one step —
    /// event-identical to `n` calls of [`ListCursor::advance`]: nothing
    /// happens inside the block, and leaving it reads the next block's
    /// descriptor exactly once.
    #[inline]
    pub fn advance_run<S: ListSink>(&mut self, sink: &mut S, n: usize) {
        debug_assert!(self.pos + n <= self.scratch.len(), "run of {n} overruns");
        self.pos += n;
        if self.pos >= self.scratch.len() {
            self.next_block(sink);
        }
    }

    /// Passes over the next `n` postings of the current decoded block,
    /// found by scanning, and stays in the block: one
    /// [`ListSink::postings_passed`] for what the seeks inside the block
    /// that scanned over them report one by one.
    #[inline]
    pub fn pass_scanned<S: ListSink>(&mut self, sink: &mut S, n: usize, reason: SkipReason) {
        debug_assert!(
            self.pos + n < self.scratch.len(),
            "a scan of {n} leaves the block"
        );
        if n > 0 {
            self.pos += n;
            sink.postings_passed(self.slot, n as u64, reason, true);
        }
    }

    /// Moves to the first posting with `doc >= target`, skipping whole
    /// blocks on their descriptors; what is passed over is reported with
    /// `reason`. A target inside the decoded block is an inlined scan.
    ///
    /// # Errors
    ///
    /// As [`ListCursor::fetch_block`].
    #[inline]
    pub fn seek<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        match self.scratch.docs.last() {
            Some(&last) if target <= last => {
                let n = self.run().0.iter().take_while(|&&d| d < target).count();
                self.pass_scanned(sink, n, reason);
                Ok(())
            }
            _ => self.seek_past(sink, target, reason),
        }
    }

    /// [`ListCursor::seek`] to a target past the decoded block, or from
    /// an undecoded one.
    fn seek_past<S: ListSink>(
        &mut self,
        sink: &mut S,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        loop {
            // Skip whole blocks that end before the target.
            while !self.exhausted() && self.head.last_doc < target {
                if self.scratch.is_empty() {
                    sink.blocks_skipped(self.slot, 1, self.head.postings as u64, reason);
                } else {
                    // A partially consumed block: its tail is decoded
                    // already, so this is a pop, not a block skip.
                    let tail = (self.scratch.len() - self.pos) as u64;
                    sink.postings_passed(self.slot, tail, reason, false);
                }
                self.next_block(sink);
            }
            if self.exhausted() || self.current_doc() >= target {
                return Ok(());
            }
            // The target falls inside the current block, undecoded (`seek`
            // scans a decoded one): decode, scan, and score what is left.
            if !self.decode(sink)? {
                // Dropped as unusable: the cursor moved to a later block,
                // which may still end before the target.
                continue;
            }
            let bypassed = self.scratch.docs[self.pos..]
                .iter()
                .take_while(|&&d| d < target)
                .count();
            self.pos += bypassed;
            sink.postings_passed(self.slot, bypassed as u64, reason, true);
            if self.pos >= self.scratch.len() {
                self.next_block(sink);
            } else {
                self.score_run();
            }
            return Ok(());
        }
    }

    /// Passes over every remaining posting and exhausts the cursor (the
    /// traversal proved the whole tail cannot contribute). Later
    /// descriptors are not read.
    pub fn drain<S: ListSink>(&mut self, sink: &mut S, reason: SkipReason) {
        if self.exhausted() {
            return;
        }
        let mut from = self.block;
        if !self.scratch.is_empty() {
            let tail = (self.scratch.len() - self.pos) as u64;
            sink.postings_passed(self.slot, tail, reason, false);
            from += 1;
        }
        let rest = &self.list.blocks[from..];
        if !rest.is_empty() {
            let postings = rest.iter().map(|m| m.count() as u64).sum();
            sink.blocks_skipped(self.slot, rest.len() as u64, postings, reason);
        }
        self.block = self.list.blocks.len();
        self.scratch.clear();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::IndexBuilder;

    /// Records every event, in order.
    #[derive(Default)]
    struct Log {
        events: Vec<String>,
        refuse_fetch: bool,
        drop_unusable: bool,
    }

    impl ListSink for Log {
        fn meta_read(&mut self, slot: usize, addr: u64, records: u64) {
            self.events.push(format!("meta {slot} {addr:#x} {records}"));
        }
        fn block_fetch(&mut self, slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
            self.events
                .push(format!("fetch {slot} {addr:#x} {}", meta.first_doc));
            if self.refuse_fetch {
                Err(Error::ReadFault { addr })
            } else {
                Ok(())
            }
        }
        fn list_streamed(
            &mut self,
            slot: usize,
            blocks: &[BlockMeta],
            meta_addr: u64,
            data_addr: u64,
            data_bytes: u64,
        ) {
            self.events.push(format!(
                "streamed {slot} {meta_addr:#x} {} {data_addr:#x} {data_bytes}",
                blocks.len()
            ));
        }
        fn block_decoded(&mut self, slot: usize, block: usize, _scheme: Scheme, meta: &BlockMeta) {
            self.events
                .push(format!("decoded {slot} {block} {}", meta.first_doc));
        }
        fn block_unusable(
            &mut self,
            slot: usize,
            meta: &BlockMeta,
            err: Error,
        ) -> Result<(), Error> {
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

    /// 600 documents: `even` in every even one (300 postings, 3 blocks).
    fn index() -> InvertedIndex {
        let docs: Vec<String> = (0..600)
            .map(|i| {
                if i % 2 == 0 {
                    "x even".to_owned()
                } else {
                    "x".to_owned()
                }
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    #[test]
    fn events_carry_the_image_addresses_in_walk_order() {
        let idx = index();
        let t = idx.term_id("even").unwrap();
        let image = crate::layout::IndexImage::new(&idx);
        let (meta, data) = (image.meta_addr(t), image.data_addr(t));
        let blocks = idx.list(t).blocks();
        let mut log = Log::default();
        let mut c = ListCursor::new(&idx, t, 3, &mut log);
        c.seek(&mut log, blocks[1].first_doc + 4, SkipReason::Prune)
            .unwrap();
        assert_eq!(c.current_doc(), blocks[1].first_doc + 4);
        c.drain(&mut log, SkipReason::Wand);
        assert!(c.exhausted());
        let expect = [
            format!("meta 3 {meta:#x} 1"),
            "skipped 3 1 128 Prune".to_owned(),
            format!("meta 3 {:#x} 1", meta + BLOCK_META_BYTES),
            format!(
                "fetch 3 {:#x} {}",
                data + u64::from(blocks[1].offset),
                blocks[1].first_doc
            ),
            format!("decoded 3 1 {}", blocks[1].first_doc),
            "passed 3 2 Prune true".to_owned(),
            "passed 3 126 Wand false".to_owned(),
            "skipped 3 1 44 Wand".to_owned(),
        ];
        assert_eq!(log.events, expect);
    }

    #[test]
    fn a_directory_read_at_open_is_the_walks_only_descriptor_read() {
        let idx = index();
        let t = idx.term_id("even").unwrap();
        let image = crate::layout::IndexImage::new(&idx);
        let (meta, data) = (image.meta_addr(t), image.data_addr(t));
        let blocks = idx.list(t).blocks();
        let mut log = Log::default();
        let mut c = ListCursor::with_directory(&idx, t, 1, &mut log);
        assert_eq!((c.block_ordinal(), c.n_blocks()), (0, 3));
        c.seek(&mut log, blocks[2].first_doc + 2, SkipReason::Block)
            .unwrap();
        assert_eq!(c.block_ordinal(), 2);
        assert_eq!(c.block_postings(), 44);
        c.seek(&mut log, 1_000_000, SkipReason::Block).unwrap();
        assert_eq!(c.block_ordinal(), 3, "exhausted");
        let expect = [
            format!("meta 1 {meta:#x} 3"),
            "skipped 1 1 128 Block".to_owned(),
            "skipped 1 1 128 Block".to_owned(),
            format!(
                "fetch 1 {:#x} {}",
                data + u64::from(blocks[2].offset),
                blocks[2].first_doc
            ),
            format!("decoded 1 2 {}", blocks[2].first_doc),
            "passed 1 1 Block true".to_owned(),
            "passed 1 43 Block false".to_owned(),
        ];
        assert_eq!(log.events, expect);
    }

    #[test]
    fn a_load_is_one_streamed_event_then_every_posting() {
        let idx = index();
        let t = idx.term_id("even").unwrap();
        let image = crate::layout::IndexImage::new(&idx);
        let (meta, data) = (image.meta_addr(t), image.data_addr(t));
        let mut log = Log::default();
        let (docs, tfs) = ListCursor::load(&idx, t, 2, &mut log).unwrap();
        assert_eq!(docs, (0..600).step_by(2).collect::<Vec<_>>());
        assert_eq!(tfs, vec![1; 300]);
        let bytes = idx.list(t).data_bytes();
        assert_eq!(
            log.events,
            [format!("streamed 2 {meta:#x} 3 {data:#x} {bytes}")]
        );

        // A streamed list is all or nothing, whatever the sink would drop.
        let mut idx = idx;
        idx.list_mut(t).blocks_mut()[1].first_doc += 1;
        let mut log = Log {
            drop_unusable: true,
            ..Log::default()
        };
        assert!(matches!(
            ListCursor::load(&idx, t, 0, &mut log),
            Err(Error::CorruptMetadata { .. })
        ));
    }

    #[test]
    fn an_unusable_block_fails_or_is_dropped_as_the_sink_decides() {
        let idx = index();
        let t = idx.term_id("even").unwrap();
        let mut log = Log {
            refuse_fetch: true,
            ..Log::default()
        };
        let mut c = ListCursor::new(&idx, t, 0, &mut log);
        assert!(matches!(
            c.current_tf(&mut log),
            Err(Error::ReadFault { .. })
        ));
        assert_eq!(c.current_doc(), 0, "a failed block leaves the cursor put");

        log.drop_unusable = true;
        assert_eq!(c.current_tf(&mut log).unwrap(), None);
        assert_eq!(c.current_doc(), idx.list(t).blocks()[1].first_doc);
        assert!(log.events.iter().all(|e| !e.starts_with("decoded")));
    }

    /// A block whose descriptor ends past the corpus is refused before
    /// it is fetched, on a walk and on a load.
    #[test]
    fn a_block_past_the_corpus_is_refused_unfetched() {
        let mut idx = index();
        let t = idx.term_id("even").unwrap();
        idx.list_mut(t).blocks_mut()[2].last_doc = 600;
        let first = idx.list(t).blocks()[2].first_doc;
        let mut log = Log {
            drop_unusable: true,
            ..Log::default()
        };
        let mut c = ListCursor::with_directory(&idx, t, 0, &mut log);
        c.seek(&mut log, first, SkipReason::Block).unwrap();
        assert_eq!(c.current_tf(&mut log).unwrap(), None);
        assert!(c.exhausted());
        assert_eq!(
            log.events[3..],
            [format!("unusable 0 {first}")],
            "{:?}",
            log.events
        );
        assert!(matches!(
            ListCursor::load(&idx, t, 0, &mut log),
            Err(Error::CorruptMetadata { .. })
        ));
    }

    #[test]
    fn shallow_block_max_is_sanitized_and_reads_nothing() {
        let mut idx = index();
        let t = idx.term_id("even").unwrap();
        idx.list_mut(t).blocks_mut()[1].max_score = f32::NAN;
        let mut log = Log::default();
        let c = ListCursor::new(&idx, t, 0, &mut log);
        let blocks = idx.list(t).blocks();
        assert_eq!(
            c.shallow_block_max(2),
            Some((blocks[0].max_score, blocks[0].last_doc))
        );
        assert_eq!(
            c.shallow_block_max(blocks[1].first_doc),
            Some((f32::INFINITY, blocks[1].last_doc))
        );
        assert_eq!(c.shallow_block_max(1_000_000), None);
        assert_eq!(log.events.len(), 1, "only the first descriptor was read");
    }
}
