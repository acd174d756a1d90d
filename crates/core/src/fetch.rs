//! The block fetch module: cursors over encoded posting lists that fetch
//! candidate blocks lazily and skip non-candidate blocks using the 19-byte
//! per-block metadata (Section IV-C "Block Fetch Module").

use crate::config::{BossConfig, DegradePolicy};
use crate::mai::{Tlb, WALK_ACCESSES};
use crate::pipeline::{BlockEvent, TimingFidelity};
use crate::stats::EvalCounts;
use boss_compress::Scheme;
use boss_decomp::{DecodeCost, EngineConfig, PIPELINE_FILL_CYCLES};
use boss_index::layout::IndexImage;
use boss_index::{
    BlockMeta, DecodeScratch, DocId, EncodedList, Error, InvertedIndex, TermId, BLOCK_META_BYTES,
};
use boss_scm::{AccessCategory, AccessKind, MemorySim, PatternHint};
use std::sync::OnceLock;

/// Every scheme a posting list can be encoded with, each in the slot its
/// discriminant names.
const STOCK_SCHEMES: [Scheme; 6] = [
    Scheme::Bp,
    Scheme::Vb,
    Scheme::OptPfd,
    Scheme::S16,
    Scheme::S8b,
    Scheme::GroupVarint,
];

/// The cost descriptors of the decompression module's stock
/// configurations, indexed by `Scheme as usize`: what the datapath
/// programmed for a scheme charges per stream, taken from the
/// configuration itself rather than restated here. Parsed once per
/// process.
///
/// # Errors
///
/// [`Error::DecompressorConfig`] if a shipped configuration does not
/// parse.
fn stock_costs() -> Result<&'static [DecodeCost], Error> {
    static COSTS: OnceLock<Result<Vec<DecodeCost>, boss_decomp::ParseError>> = OnceLock::new();
    COSTS
        .get_or_init(|| {
            STOCK_SCHEMES
                .iter()
                .map(|&s| {
                    EngineConfig::parse(boss_decomp::schemes::config_text(s))
                        .map(|config| config.decode_cost())
                })
                .collect()
        })
        .as_deref()
        .map_err(|e| Error::DecompressorConfig {
            reason: e.to_string(),
        })
}

/// Why documents were skipped — drives Figure 14's attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SkipReason {
    /// Skipped by the block fetch module (whole block never fetched).
    Block,
    /// Skipped by the union module's WAND (popped without scoring).
    Wand,
    /// Skipped by a dynamic-pruning query plan (`QueryAlgorithm` other
    /// than `Exhaustive`): attributed separately so the exhaustive
    /// counters stay untouched by the pruning plumbing.
    Prune,
}

impl SkipReason {
    /// Attributes `n` bypassed postings to the counter this reason selects.
    pub(crate) fn count(self, eval: &mut EvalCounts, n: u64) {
        match self {
            SkipReason::Block => eval.docs_skipped_block += n,
            SkipReason::Wand => eval.docs_skipped_wand += n,
            SkipReason::Prune => eval.docs_skipped_prune += n,
        }
    }
}

/// Mutable state shared by all modules while one query executes on a core.
#[derive(Debug)]
pub(crate) struct ExecCtx<'a> {
    pub index: &'a InvertedIndex,
    pub image: IndexImage<'a>,
    pub mem: MemorySim,
    pub tlb: Tlb,
    pub eval: EvalCounts,
    /// Decode price list of the stock schemes (see [`stock_costs`]).
    costs: &'static [DecodeCost],
    /// Cycles accumulated per decompression module.
    pub dec_cycles: Vec<u64>,
    /// Documents scored (mirrors `eval.docs_scored`, kept for scoring time).
    pub scored: u64,
    /// 64-byte line address of the most recent norm load (the scoring
    /// module's line buffer).
    norm_line: u64,
    /// Block trace for the event-driven timing replay; recorded only
    /// under [`TimingFidelity::Pipelined`], the one fidelity that reads it.
    pub trace: Vec<BlockEvent>,
    record_trace: bool,
    /// What to do when a posting block is unusable (faulted read or
    /// corrupt decode), from [`BossConfig::degrade`].
    pub degrade: DegradePolicy,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(index: &'a InvertedIndex, config: &BossConfig) -> Result<Self, Error> {
        let mut mem = MemorySim::new(config.memory.clone());
        if let Some(plan) = &config.fault_plan {
            mem.set_fault_plan(Some(plan.clone()));
        }
        Ok(ExecCtx {
            index,
            image: IndexImage::new(index),
            mem,
            tlb: Tlb::new(),
            eval: EvalCounts::default(),
            costs: stock_costs()?,
            dec_cycles: vec![0; config.decompressors_per_core.max(1) as usize],
            scored: 0,
            norm_line: u64::MAX,
            trace: Vec::new(),
            record_trace: config.timing.fidelity == TimingFidelity::Pipelined,
            degrade: config.degrade,
        })
    }

    /// Issues a read through the MAI: TLB lookup (page walk on miss), then
    /// the device access. Returns the completion cycle.
    pub(crate) fn read(
        &mut self,
        vaddr: u64,
        bytes: u64,
        cat: AccessCategory,
        pattern: PatternHint,
    ) -> u64 {
        self.read_checked(vaddr, bytes, cat, pattern).0
    }

    /// Like [`ExecCtx::read`], but also reports whether the fault plan
    /// flagged the read uncorrectable. Block-data loads use this so a
    /// faulted read surfaces to the degradation policy instead of being
    /// silently consumed.
    pub(crate) fn read_checked(
        &mut self,
        vaddr: u64,
        bytes: u64,
        cat: AccessCategory,
        pattern: PatternHint,
    ) -> (u64, bool) {
        let (paddr, hit) = self.tlb.translate(vaddr);
        if !hit {
            for w in 0..u64::from(WALK_ACCESSES) {
                self.mem.access(
                    0x10_0000 + w * 64,
                    8,
                    AccessKind::Read,
                    AccessCategory::LdMeta,
                    PatternHint::Random,
                    0,
                );
            }
        }
        let r = self
            .mem
            .access_checked(paddr, bytes, AccessKind::Read, cat, pattern, 0);
        (r.done, r.faulted)
    }

    /// Issues a result/intermediate write.
    pub(crate) fn write(&mut self, vaddr: u64, bytes: u64, cat: AccessCategory) {
        let (paddr, _) = self.tlb.translate(vaddr);
        self.mem.access(
            paddr,
            bytes,
            AccessKind::Write,
            cat,
            PatternHint::Sequential,
            0,
        );
    }

    /// Charges one BM25 norm load (the 4-byte per-document scoring
    /// metadata, "LD Score" in Figure 15) and returns the norm. The
    /// scoring module buffers the current 64-byte line: documents arrive
    /// in ascending order, so consecutive candidates often share it.
    pub(crate) fn load_norm(&mut self, doc: DocId) -> f32 {
        let addr = self.image.norm_addr(doc);
        let line = addr / 64;
        if line != self.norm_line {
            self.read(addr, 4, AccessCategory::LdScore, PatternHint::Random);
            self.norm_line = line;
        }
        self.index.doc_norms()[doc as usize]
    }
}

/// A cursor over one encoded posting list with lazy block decode.
#[derive(Debug)]
pub(crate) struct ListCursor<'a> {
    pub term: TermId,
    list: &'a EncodedList,
    /// The list's block directory, taken from it once.
    blocks: &'a [BlockMeta],
    meta_addr: u64,
    data_addr: u64,
    /// Current block; `blocks.len()` when exhausted.
    block: usize,
    /// Decoded docIDs/tfs of the current block (empty if not decoded),
    /// in buffers reserved once from block metadata.
    scratch: DecodeScratch,
    pos: usize,
    /// Which decompression module this list is bound to.
    dec_unit: usize,
    /// Highest block index whose metadata was already charged.
    meta_read_upto: usize,
    /// What the decompression module programmed for this list's scheme
    /// charges per stream.
    cost: DecodeCost,
}

impl<'a> ListCursor<'a> {
    pub(crate) fn new(ctx: &mut ExecCtx<'a>, term: TermId, dec_unit: usize) -> Self {
        let list = ctx.index.list(term);
        let mut scratch = DecodeScratch::new();
        scratch.reserve_for(list);
        let mut c = ListCursor {
            term,
            list,
            blocks: list.blocks(),
            meta_addr: ctx.image.meta_addr(term),
            data_addr: ctx.image.data_addr(term),
            block: 0,
            scratch,
            pos: 0,
            dec_unit,
            meta_read_upto: 0,
            cost: ctx.costs[list.scheme() as usize],
        };
        c.charge_meta(ctx, 0);
        c
    }

    fn charge_meta(&mut self, ctx: &mut ExecCtx<'_>, upto_block: usize) {
        let upto = (upto_block + 1).min(self.blocks.len());
        while self.meta_read_upto < upto {
            ctx.read(
                self.meta_addr + self.meta_read_upto as u64 * BLOCK_META_BYTES,
                BLOCK_META_BYTES,
                AccessCategory::LdMeta,
                PatternHint::Sequential,
            );
            ctx.eval.metas_read += 1;
            self.meta_read_upto += 1;
        }
    }

    /// List-level maximum term score (the WAND lookup-table value).
    pub(crate) fn list_max(&self) -> f32 {
        self.list.max_score()
    }

    /// Whether all postings are consumed.
    pub(crate) fn exhausted(&self) -> bool {
        self.block >= self.blocks.len()
    }

    fn meta(&self) -> &BlockMeta {
        &self.blocks[self.block]
    }

    /// Smallest unevaluated docID (the `sID` of Section IV-C). For an
    /// undecoded block this is the metadata's first docID — no fetch
    /// needed, which is what makes block skipping free.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    pub(crate) fn current_doc(&self) -> DocId {
        if self.scratch.is_empty() {
            self.meta().first_doc
        } else {
            self.scratch.docs[self.pos]
        }
    }

    /// Block-max term score of the block that would contain `target`
    /// (the current block if it still covers it). Returns `None` when the
    /// list has no block reaching `target` (exhausted for BMW purposes).
    pub(crate) fn shallow_block_max(&self, target: DocId) -> Option<(f32, DocId)> {
        // Usually the current block still covers `target`: first probe.
        self.blocks[self.block..]
            .iter()
            .find(|m| m.last_doc >= target)
            .map(|m| (m.max_score, m.last_doc))
    }

    /// If the cursor sits at the start of a *not yet fetched* block,
    /// returns that block's last docID — the only unit the block fetch
    /// module can skip without the union module's help.
    pub(crate) fn whole_block_skippable(&self) -> Option<DocId> {
        if !self.exhausted() && self.scratch.is_empty() {
            Some(self.meta().last_doc)
        } else {
            None
        }
    }

    /// Term frequency at the cursor (decodes the current block if needed).
    ///
    /// Returns `Ok(None)` when the block was unusable and the `SkipBlock`
    /// policy moved the cursor past it — the document the caller was
    /// looking at no longer exists from the cursor's point of view.
    ///
    /// # Errors
    ///
    /// Under [`DegradePolicy::FailQuery`], a faulted read or corrupt
    /// decode of the block.
    pub(crate) fn current_tf(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<u32>, Error> {
        if self.ensure_decoded(ctx)? {
            Ok(Some(self.scratch.tfs[self.pos]))
        } else {
            Ok(None)
        }
    }

    /// Decodes the current block into the scratch if it is not already.
    ///
    /// Returns `Ok(true)` when the cursor's current block is decoded and
    /// usable. Returns `Ok(false)` when the block could not be used and
    /// [`DegradePolicy::SkipBlock`] advanced the cursor past it (possibly
    /// to exhaustion) — the caller must re-examine the cursor position.
    ///
    /// # Errors
    ///
    /// Under [`DegradePolicy::FailQuery`], [`Error::ReadFault`] when the
    /// simulated block read is flagged uncorrectable, or the decode error
    /// for corrupt bytes/metadata.
    #[inline]
    fn ensure_decoded(&mut self, ctx: &mut ExecCtx<'_>) -> Result<bool, Error> {
        if !self.scratch.is_empty() {
            return Ok(true);
        }
        self.decode_current(ctx)
    }

    /// The once-per-block half of [`ListCursor::ensure_decoded`], kept out
    /// of line so the per-posting check above inlines into its callers.
    #[inline(never)]
    fn decode_current(&mut self, ctx: &mut ExecCtx<'_>) -> Result<bool, Error> {
        if self.exhausted() {
            return Ok(false);
        }
        let meta = *self.meta();
        let block_addr = self.data_addr + u64::from(meta.offset);
        let (data_ready, faulted) = ctx.read_checked(
            block_addr,
            u64::from(meta.len).max(1),
            AccessCategory::LdList,
            PatternHint::Auto,
        );
        let filled: Result<(), Error> = if faulted {
            Err(Error::ReadFault { addr: block_addr })
        } else {
            self.list.decode_block_into(self.block, &mut self.scratch)
        };
        if let Err(e) = filled {
            self.scratch.clear();
            match ctx.degrade {
                DegradePolicy::FailQuery => return Err(e),
                DegradePolicy::SkipBlock => {
                    ctx.eval.blocks_skipped_fault += 1;
                    ctx.eval.docs_skipped_block += meta.count() as u64;
                    let next = self.block + 1;
                    self.enter_block(ctx, next);
                    return Ok(false);
                }
            }
        }
        ctx.eval.blocks_fetched += 1;
        // One extraction unit per cycle over the docID stream and over
        // the tf stream, and the pipeline fills once per block (the
        // module runs a block's two streams back to back).
        let tf_offset = u64::from(meta.tf_offset);
        let dec = self.cost.units(tf_offset, &meta.delta_info)
            + self
                .cost
                .units(u64::from(meta.len) - tf_offset, &meta.tf_info)
            + PIPELINE_FILL_CYCLES;
        ctx.dec_cycles[self.dec_unit] += dec;
        if ctx.record_trace {
            ctx.trace.push(BlockEvent {
                data_ready,
                dec_cycles: dec,
                dec_unit: self.dec_unit,
                postings: meta.count() as u32,
            });
        }
        self.pos = 0;
        Ok(true)
    }

    fn enter_block(&mut self, ctx: &mut ExecCtx<'_>, block: usize) {
        self.block = block;
        self.scratch.clear();
        self.pos = 0;
        if block < self.blocks.len() {
            self.charge_meta(ctx, block);
        }
    }

    /// Advances one posting (decoding the block if necessary). The consumed
    /// document must already have been accounted (scored or skipped) by the
    /// caller. If the block turned out unusable and the `SkipBlock` policy
    /// dropped it, the cursor is already past it and no extra posting is
    /// consumed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ListCursor::fetch_block`].
    pub(crate) fn advance(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), Error> {
        if self.ensure_decoded(ctx)? {
            self.pos += 1;
            if self.pos >= self.scratch.len() {
                let next = self.block + 1;
                self.enter_block(ctx, next);
            }
        }
        Ok(())
    }

    /// Moves to the first posting with `doc >= target`, skipping whole
    /// blocks via metadata. Documents bypassed are attributed to `reason`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ListCursor::fetch_block`].
    pub(crate) fn seek(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        target: DocId,
        reason: SkipReason,
    ) -> Result<(), Error> {
        loop {
            // Skip whole blocks that end before the target.
            while !self.exhausted() && self.meta().last_doc < target {
                let remaining_in_block = if self.scratch.is_empty() {
                    self.meta().count() as u64
                } else {
                    (self.scratch.len() - self.pos) as u64
                };
                if self.scratch.is_empty() {
                    ctx.eval.blocks_skipped += 1;
                    match reason {
                        SkipReason::Prune => {
                            ctx.eval.blocks_skipped_prune += 1;
                            ctx.eval.docs_skipped_prune += remaining_in_block;
                        }
                        _ => ctx.eval.docs_skipped_block += remaining_in_block,
                    }
                } else {
                    // Partially consumed block: the tail was decoded already,
                    // so this is a pop, attributed to whichever module asked.
                    reason.count(&mut ctx.eval, remaining_in_block);
                }
                let next = self.block + 1;
                self.enter_block(ctx, next);
            }
            if self.exhausted() || self.current_doc() >= target {
                return Ok(());
            }
            // The target falls inside the current block: decode and scan.
            if !self.ensure_decoded(ctx)? {
                // Unusable block dropped by SkipBlock: the cursor moved to
                // a later block, which may still end before the target.
                continue;
            }
            // One comparison and one skipped document per bypassed
            // posting: find where the scan lands, then count the distance.
            let bypassed = self.scratch.docs[self.pos..]
                .iter()
                .take_while(|&&d| d < target)
                .count();
            self.pos += bypassed;
            ctx.eval.comparisons += bypassed as u64;
            reason.count(&mut ctx.eval, bypassed as u64);
            if self.pos >= self.scratch.len() {
                let next = self.block + 1;
                self.enter_block(ctx, next);
            }
            return Ok(());
        }
    }

    /// Fetches and decodes the current block (same simulated charges as
    /// the per-posting path's lazy decode; a no-op if already decoded).
    ///
    /// Returns whether the *current* block is decoded — `false` means the
    /// `SkipBlock` policy dropped it and the cursor moved.
    ///
    /// # Errors
    ///
    /// Under [`DegradePolicy::FailQuery`], [`Error::ReadFault`] for a
    /// fault-flagged read or the typed decode error for corrupt data.
    pub(crate) fn fetch_block(&mut self, ctx: &mut ExecCtx<'_>) -> Result<bool, Error> {
        self.ensure_decoded(ctx)
    }

    /// Whether the current block is decoded into the scratch.
    pub(crate) fn is_decoded(&self) -> bool {
        !self.scratch.is_empty()
    }

    /// The unconsumed postings of the current (decoded) block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is not decoded.
    pub(crate) fn run(&self) -> (&[DocId], &[u32]) {
        assert!(self.is_decoded(), "run() requires a decoded block");
        (
            &self.scratch.docs[self.pos..],
            &self.scratch.tfs[self.pos..],
        )
    }

    /// Block-max term score of the current block.
    pub(crate) fn block_max(&self) -> f32 {
        self.meta().max_score
    }

    /// Last docID of the current block.
    pub(crate) fn block_last_doc(&self) -> DocId {
        self.meta().last_doc
    }

    /// Consumes `n` postings of the current decoded block in one step —
    /// charge-identical to `n` calls of [`ListCursor::advance`]: nothing
    /// is charged inside the block, and crossing into the next block
    /// charges its metadata exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the block is not decoded or `n` exceeds the run length.
    pub(crate) fn advance_run(&mut self, ctx: &mut ExecCtx<'_>, n: usize) {
        assert!(self.is_decoded() && self.pos + n <= self.scratch.len());
        self.pos += n;
        if self.pos >= self.scratch.len() {
            let next = self.block + 1;
            self.enter_block(ctx, next);
        }
    }

    /// Number of postings not yet consumed (cheaply, from metadata).
    pub(crate) fn remaining(&self) -> u64 {
        if self.exhausted() {
            return 0;
        }
        let in_block = if self.scratch.is_empty() {
            self.meta().count() as u64
        } else {
            (self.scratch.len() - self.pos) as u64
        };
        let later: u64 = self.blocks[self.block + 1..]
            .iter()
            .map(|m| m.count() as u64)
            .sum();
        in_block + later
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boss_index::IndexBuilder;

    fn setup() -> (InvertedIndex, BossConfig) {
        // 600 docs; "even" appears in all even docs, "sparse" in few.
        let docs: Vec<String> = (0..600)
            .map(|i| {
                let mut t = String::from("common");
                if i % 2 == 0 {
                    t.push_str(" even");
                }
                if i % 97 == 0 {
                    t.push_str(" sparse");
                }
                t
            })
            .collect();
        let idx = IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap();
        (idx, BossConfig::default())
    }

    #[test]
    fn cursor_walks_all_postings() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&mut ctx, term, 0);
        let mut seen = Vec::new();
        while !c.exhausted() {
            seen.push(c.current_doc());
            c.advance(&mut ctx).unwrap();
        }
        let expect: Vec<u32> = (0..600).filter(|i| i % 2 == 0).collect();
        assert_eq!(seen, expect);
        assert_eq!(ctx.eval.blocks_fetched, idx.list(term).n_blocks() as u64);
    }

    #[test]
    fn seek_skips_blocks_without_decoding() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap(); // 300 postings, 3 blocks
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&mut ctx, term, 0);
        c.seek(&mut ctx, 590, SkipReason::Block).unwrap();
        assert_eq!(c.current_doc(), 590);
        assert!(ctx.eval.blocks_skipped >= 2, "first two blocks skipped");
        assert_eq!(ctx.eval.blocks_fetched, 1, "only the target block decoded");
        assert!(ctx.eval.docs_skipped_block > 250);
    }

    #[test]
    fn seek_within_block_counts_wand_skips() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&mut ctx, term, 0);
        c.current_tf(&mut ctx).unwrap(); // decode block 0
        c.seek(&mut ctx, 20, SkipReason::Wand).unwrap();
        assert_eq!(c.current_doc(), 20);
        assert_eq!(ctx.eval.docs_skipped_wand, 10);
    }

    #[test]
    fn remaining_counts() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&mut ctx, term, 0);
        assert_eq!(c.remaining(), 300);
        c.advance(&mut ctx).unwrap();
        assert_eq!(c.remaining(), 299);
        c.seek(&mut ctx, 10_000, SkipReason::Block).unwrap();
        assert!(c.exhausted());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn shallow_block_max_finds_covering_block() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let c = ListCursor::new(&mut ctx, term, 0);
        let blocks = idx.list(term).blocks();
        let (m, last) = c.shallow_block_max(blocks[1].first_doc + 2).unwrap();
        assert_eq!(last, blocks[1].last_doc);
        assert!((m - blocks[1].max_score).abs() < 1e-9);
        assert!(c.shallow_block_max(1_000_000).is_none());
    }

    #[test]
    fn metadata_traffic_charged_once_per_block() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&mut ctx, term, 0);
        c.seek(&mut ctx, 10_000, SkipReason::Block).unwrap(); // walk all metadata
        let metas = ctx.eval.metas_read;
        assert_eq!(metas, idx.list(term).n_blocks() as u64);
        assert_eq!(
            ctx.mem.stats().bytes(boss_scm::AccessCategory::LdMeta),
            metas * BLOCK_META_BYTES + 4 * 8, // + one TLB walk
        );
    }

    #[test]
    fn every_scheme_has_its_own_cost_slot() {
        for (slot, scheme) in STOCK_SCHEMES.into_iter().enumerate() {
            assert_eq!(scheme as usize, slot, "{scheme}");
            // Exhaustive on purpose: a seventh scheme must get a slot.
            match scheme {
                Scheme::Bp
                | Scheme::Vb
                | Scheme::OptPfd
                | Scheme::S16
                | Scheme::S8b
                | Scheme::GroupVarint => {}
            }
        }
        assert_eq!(stock_costs().unwrap().len(), STOCK_SCHEMES.len());
    }

    #[test]
    fn decomp_cost_matches_engine() {
        // Every block of a real index, under hybrid, each fixed scheme
        // and the Group-Varint extension: what the cursor charges a
        // decompression module for the block is what the Fig. 8 engine
        // programmed for the list's scheme takes to decode its two
        // streams, less one pipeline fill — the engine fills once per
        // stream, the core once per block. (That the engine decodes the
        // right values, and that its cycles are its own descriptor's, is
        // `boss-decomp`'s `tests/equivalence.rs`.)
        use boss_compress::ALL_SCHEMES;
        use boss_decomp::DecompEngine;
        use boss_index::SchemeChoice;
        use boss_workload::corpus::{CorpusSpec, Scale};

        let spec = CorpusSpec {
            n_docs: 800,
            vocab_size: 600,
            ..CorpusSpec::clueweb12_like(Scale::Smoke)
        };
        let lists = spec.term_lists().unwrap();
        let choices = std::iter::once(SchemeChoice::Hybrid)
            .chain(ALL_SCHEMES.into_iter().map(SchemeChoice::Fixed))
            .chain([SchemeChoice::Fixed(Scheme::GroupVarint)]);
        for choice in choices {
            let mut builder = IndexBuilder::new().scheme(choice);
            for (term, list) in &lists {
                builder = builder.add_posting_list(term, list);
            }
            let idx = builder.build().unwrap();
            let mut ctx = ExecCtx::new(&idx, &BossConfig::default()).unwrap();
            let mut multi_block_lists = 0usize;
            for t in 0..idx.n_terms() {
                let list = idx.list(t as TermId);
                if let SchemeChoice::Fixed(fixed) = choice {
                    assert_eq!(list.scheme(), fixed, "fixed build uses one scheme");
                }
                multi_block_lists += usize::from(list.n_blocks() > 1);
                let engine = DecompEngine::for_scheme(list.scheme()).unwrap();
                let mut cursor = ListCursor::new(&mut ctx, t as TermId, 0);
                for (bi, meta) in list.blocks().iter().enumerate() {
                    let before = ctx.dec_cycles[0];
                    assert!(cursor.fetch_block(&mut ctx).unwrap());
                    let charged = ctx.dec_cycles[0] - before;
                    let block = &list.data()[meta.offset as usize..][..meta.len as usize];
                    let (delta_part, tf_part) = block.split_at(meta.tf_offset as usize);
                    let delta_cycles = engine
                        .decode_into(delta_part, &meta.delta_info, &mut Vec::new())
                        .unwrap();
                    let tf_cycles = engine
                        .decode_into(tf_part, &meta.tf_info, &mut Vec::new())
                        .unwrap();
                    assert_eq!(
                        charged,
                        delta_cycles + tf_cycles - PIPELINE_FILL_CYCLES,
                        "{choice:?} term {t} block {bi}"
                    );
                    let n = cursor.run().0.len();
                    cursor.advance_run(&mut ctx, n);
                }
                assert!(cursor.exhausted());
            }
            assert!(multi_block_lists > 0, "multi-block lists covered");
        }
    }
}
