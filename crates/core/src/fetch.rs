//! The block fetch module's cost model (Section IV-C "Block Fetch
//! Module"): [`ExecCtx`] is the per-query state every module of a core
//! shares, and the [`ListSink`] that prices what the shared
//! [`boss_index::cursor::ListCursor`] does — 19-byte descriptor reads
//! through the MAI, block fetches that a fault plan may flag, and the
//! decompression module's cycles for the list's scheme. Every event
//! also goes to the context's [`EvalCounts`], which counts it; the
//! context counts only scanned postings' comparisons and the blocks
//! its `SkipBlock` degrade policy drops.

use crate::config::{BossConfig, DegradePolicy, DECOMPRESSORS_PER_CORE};
use crate::mai::{Tlb, WALK_ACCESSES};
use crate::pipeline::{BlockEvent, TimingFidelity};
use crate::stats::EvalCounts;
use boss_compress::Scheme;
use boss_decomp::{DecodeCost, EngineConfig, PIPELINE_FILL_CYCLES};
use boss_index::cursor::{ListSink, SkipReason};
use boss_index::layout::IndexImage;
use boss_index::prune::PruneSink;
use boss_index::{BlockMeta, DocId, Error, InvertedIndex, BLOCK_META_BYTES};
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
    /// 64-byte line address of the most recent norm load (the scoring
    /// module's line buffer).
    norm_line: u64,
    /// Completion cycle of the latest block fetch, for its trace event.
    data_ready: u64,
    /// Block trace for the event-driven timing replay; recorded only
    /// under [`TimingFidelity::Pipelined`], the one fidelity that reads it.
    pub trace: Vec<BlockEvent>,
    record_trace: bool,
    /// What to do when a posting block is unusable (faulted read or
    /// corrupt decode), from [`BossConfig::degrade`].
    degrade: DegradePolicy,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(index: &'a InvertedIndex, config: &BossConfig) -> Result<Self, Error> {
        let mut mem = MemorySim::new(config.setup.memory.clone());
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
            dec_cycles: vec![0; DECOMPRESSORS_PER_CORE],
            norm_line: u64::MAX,
            data_ready: 0,
            trace: Vec::new(),
            record_trace: config.fidelity == TimingFidelity::Pipelined,
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
    ///
    /// # Errors
    ///
    /// [`Error::CorruptMetadata`] when `doc` lies outside the corpus,
    /// before anything is charged.
    pub(crate) fn load_norm(&mut self, doc: DocId) -> Result<f32, Error> {
        let norm = *self
            .index
            .doc_norms()
            .get(doc as usize)
            .ok_or(Error::CorruptMetadata {
                reason: "decoded docID outside the corpus",
            })?;
        let addr = self.image.norm_addr(doc);
        let line = addr / 64;
        if line != self.norm_line {
            self.read(addr, 4, AccessCategory::LdScore, PatternHint::Random);
            self.norm_line = line;
        }
        Ok(norm)
    }
}

/// The block fetch module's side of a cursor walk. `slot` is the
/// decompression module the list is bound to.
impl ListSink for ExecCtx<'_> {
    /// Descriptors stream in order, one 19-byte MAI read each.
    fn meta_read(&mut self, slot: usize, addr: u64, records: u64) {
        for r in 0..records {
            self.read(
                addr + r * BLOCK_META_BYTES,
                BLOCK_META_BYTES,
                AccessCategory::LdMeta,
                PatternHint::Sequential,
            );
        }
        self.eval.meta_read(slot, addr, records);
    }

    /// The block's bytes; a read the fault plan flags uncorrectable is a
    /// [`Error::ReadFault`].
    fn block_fetch(&mut self, _slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
        let (done, faulted) = self.read_checked(
            addr,
            u64::from(meta.len).max(1),
            AccessCategory::LdList,
            PatternHint::Auto,
        );
        self.data_ready = done;
        if faulted {
            Err(Error::ReadFault { addr })
        } else {
            Ok(())
        }
    }

    /// One extraction unit per cycle over the docID stream and over the
    /// tf stream at the price the module programmed for `scheme` charges,
    /// and the pipeline fills once per block (the module runs a block's
    /// two streams back to back).
    fn block_decoded(&mut self, slot: usize, block: usize, scheme: Scheme, meta: &BlockMeta) {
        self.eval.block_decoded(slot, block, scheme, meta);
        let cost = &self.costs[scheme as usize];
        let tf_offset = u64::from(meta.tf_offset);
        let dec = cost.units(tf_offset, &meta.delta_info)
            + cost.units(u64::from(meta.len) - tf_offset, &meta.tf_info)
            + PIPELINE_FILL_CYCLES;
        self.dec_cycles[slot] += dec;
        if self.record_trace {
            self.trace.push(BlockEvent {
                data_ready: self.data_ready,
                dec_cycles: dec,
                dec_unit: slot,
                postings: meta.count() as u32,
            });
        }
    }

    /// [`DegradePolicy`] decides: fail the query, or drop the block and
    /// count it.
    fn block_unusable(&mut self, _slot: usize, meta: &BlockMeta, err: Error) -> Result<(), Error> {
        match self.degrade {
            DegradePolicy::FailQuery => Err(err),
            DegradePolicy::SkipBlock => {
                self.eval.blocks_skipped_fault += 1;
                self.eval.docs_skipped_block += meta.count() as u64;
                Ok(())
            }
        }
    }

    fn blocks_skipped(&mut self, slot: usize, blocks: u64, postings: u64, reason: SkipReason) {
        self.eval.blocks_skipped(slot, blocks, postings, reason);
    }

    /// One comparison per scanned posting.
    fn postings_passed(&mut self, slot: usize, n: u64, reason: SkipReason, scanned: bool) {
        if scanned {
            self.eval.comparisons += n;
        }
        self.eval.postings_passed(slot, n, reason, scanned);
    }
}

/// The union module's side of a MaxScore traversal
/// ([`boss_index::prune::maxscore_union`]).
impl PruneSink for ExecCtx<'_> {
    fn doc_abandoned(&mut self) {
        self.eval.doc_abandoned();
    }

    fn doc_scored(&mut self, doc: DocId) {
        self.eval.doc_scored(doc);
    }

    fn round(&mut self) {
        self.eval.round();
    }

    /// The scoring module's line-buffered norm load ([`Self::load_norm`]).
    fn doc_norm(&mut self, _index: &InvertedIndex, doc: DocId) -> Result<f32, Error> {
        self.load_norm(doc)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_index::cursor::ListCursor;
    use boss_index::{IndexBuilder, TermId};

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
        let mut c = ListCursor::new(&idx, term, 0, &mut ctx);
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
        let mut c = ListCursor::new(&idx, term, 0, &mut ctx);
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
        let mut c = ListCursor::new(&idx, term, 0, &mut ctx);
        c.current_tf(&mut ctx).unwrap(); // decode block 0
        c.seek(&mut ctx, 20, SkipReason::Wand).unwrap();
        assert_eq!(c.current_doc(), 20);
        assert_eq!(ctx.eval.docs_skipped_wand, 10);
        assert_eq!(
            ctx.eval.comparisons, 10,
            "one comparison per scanned posting"
        );
    }

    #[test]
    fn remaining_counts() {
        let (idx, cfg) = setup();
        let term = idx.term_id("even").unwrap();
        let mut ctx = ExecCtx::new(&idx, &cfg).unwrap();
        let mut c = ListCursor::new(&idx, term, 0, &mut ctx);
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
        let c = ListCursor::new(&idx, term, 0, &mut ctx);
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
        let mut c = ListCursor::new(&idx, term, 0, &mut ctx);
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
        // and the Group-Varint extension, decoded through the Fig. 8
        // engine programmed for the list's scheme: its docIDs and tfs are
        // the cursor's, and what the block fetch module charges a
        // decompression module for the block is what the engine takes to
        // decode the two streams, less one pipeline fill — the engine
        // fills once per stream, the core once per block. (That its
        // cycles are its own descriptor's is `boss-decomp`'s
        // `tests/equivalence.rs`.)
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
                let mut cursor = ListCursor::new(&idx, t as TermId, 0, &mut ctx);
                for (bi, meta) in list.blocks().iter().enumerate() {
                    let before = ctx.dec_cycles[0];
                    assert!(cursor.fetch_block(&mut ctx).unwrap());
                    let charged = ctx.dec_cycles[0] - before;
                    let block = &list.data()[meta.offset as usize..][..meta.len as usize];
                    let (delta_part, tf_part) = block.split_at(meta.tf_offset as usize);
                    let base = bi.checked_sub(1).map_or(0, |p| list.blocks()[p].last_doc);
                    let docs = engine
                        .decode_docids(delta_part, &meta.delta_info, base)
                        .unwrap();
                    let mut tfs = Vec::new();
                    let tf_cycles = engine
                        .decode_into(tf_part, &meta.tf_info, &mut tfs)
                        .unwrap();
                    assert_eq!(
                        charged,
                        docs.cycles + tf_cycles - PIPELINE_FILL_CYCLES,
                        "{choice:?} term {t} block {bi}"
                    );
                    let (run_docs, run_tfs) = cursor.run();
                    assert_eq!(docs.values, run_docs, "{choice:?} term {t} block {bi}");
                    tfs.iter_mut().for_each(|tf| *tf += 1);
                    assert_eq!(tfs, run_tfs, "{choice:?} term {t} block {bi}");
                    let n = run_docs.len();
                    cursor.advance_run(&mut ctx, n);
                }
                assert!(cursor.exhausted());
            }
            assert!(multi_block_lists > 0, "multi-block lists covered");
        }
    }
}
