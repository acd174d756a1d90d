//! The IIU engine model: a configuration, the sink that prices the
//! small-versus-small traversal of [`boss_index::svs`] on IIU's memory and
//! timing model, and the cycle formula.

use boss_compress::Scheme;
use boss_core::{EngineSetup, EvalCounts, QueryOutcome, QueryPlan};
use boss_core::{
    CYCLES_PER_COMPARISON, CYCLES_PER_SCORE, DECOMPRESSORS_PER_CORE, QUERY_OVERHEAD,
    SCORERS_PER_CORE, SCORING_FILL,
};
use boss_index::cursor::{ListCursor, ListSink, SkipReason};
use boss_index::layout::{IndexImage, ScratchRegion};
use boss_index::prune::PruneSink;
use boss_index::svs::{self, SvsSink};
use boss_index::{BlockMeta, DocId, Error, InvertedIndex, QueryExpr, BLOCK_META_BYTES};
use boss_scm::AccessCategory::{self, LdInter, LdList, LdMeta, LdScore, StInter, StResult};
use boss_scm::PatternHint::{self, Auto, Random, Sequential};
use boss_scm::{AccessKind, MemoryConfig, MemorySim};

/// IIU configuration. Its clock, module counts and cycle costs are
/// BOSS's ([`boss_core::CLOCK_GHZ`], [`DECOMPRESSORS_PER_CORE`],
/// [`SCORERS_PER_CORE`], [`CYCLES_PER_COMPARISON`], ...), for the paper's
/// "same number of decompression and scoring modules" fairness note in
/// Figure 13.
#[derive(Debug, Clone, PartialEq)]
pub struct IiuConfig {
    /// Cores sharing the memory node, the node, and the traversal of pure
    /// union queries: the default
    /// ([`boss_core::QueryAlgorithm::Exhaustive`]) keeps
    /// IIU's merge-everything traversal, any other value routes unions
    /// through the portable pruned evaluator (`boss_index::prune`) with
    /// IIU's memory charges.
    pub setup: EngineSetup,
}

impl Default for IiuConfig {
    fn default() -> Self {
        Self::with_cores(8)
    }
}

boss_core::setup_builders!(IiuConfig);

impl IiuConfig {
    /// `n` cores on the Optane-like node, exhaustive traversal.
    pub fn with_cores(n: u32) -> Self {
        IiuConfig {
            setup: EngineSetup::new(n, MemoryConfig::optane_dcpmm()),
        }
    }
}

/// One IIU device bound to an index. Stateless between queries, so a
/// clone is a fresh device; clones share the image layout.
#[derive(Debug, Clone)]
pub struct IiuEngine<'a> {
    index: &'a InvertedIndex,
    image: IndexImage<'a>,
    config: IiuConfig,
}

/// One query's traversal priced on IIU: every list load, probe, spill
/// and scored document charged to the memory node, the per-unit
/// decompression cycles and the set-operation comparisons.
struct Run<'a> {
    image: IndexImage<'a>,
    mem: MemorySim,
    eval: EvalCounts,
    dec_cycles: Vec<u64>,
    scratch: ScratchRegion,
    norm_line: u64,
    /// The query runs as a pruned union: blocks are fetched with pattern
    /// auto-detection and decoded round-robin in fetch order, and only
    /// the top-k hits are written back.
    pruned: bool,
}

impl Run<'_> {
    fn read(&mut self, addr: u64, bytes: u64, category: AccessCategory, pattern: PatternHint) {
        self.mem
            .access(addr, bytes, AccessKind::Read, category, pattern, 0);
    }

    /// Charges `cycles` of decompression to unit `unit` (modulo the unit
    /// count: IIU spreads blocks across units round-robin).
    fn decode(&mut self, unit: usize, cycles: u64) {
        let units = self.dec_cycles.len();
        self.dec_cycles[unit % units] += cycles;
    }

    /// Charges one norm load through the 64-byte line buffer (BOSS's
    /// scoring-module discipline).
    fn charge_norm(&mut self, doc: DocId) {
        let addr = self.image.norm_addr(doc);
        if addr / 64 != self.norm_line {
            self.read(addr, 4, LdScore, Random);
            self.norm_line = addr / 64;
        }
    }
}

/// Comparisons a binary search over `n` directory entries takes to land
/// on entry `landing` (`n`: past the end). On a valid directory — last
/// docIDs ascending — the search path depends on the landing entry alone.
fn search_steps(n: usize, landing: usize) -> u64 {
    let (mut lo, mut hi, mut steps) = (0, n, 0);
    while lo < hi {
        let mid = (lo + hi) / 2;
        (lo, hi) = if mid < landing {
            (mid + 1, hi)
        } else {
            (lo, mid)
        };
        steps += 1;
    }
    steps
}

/// The physical events: descriptors and whole-list loads stream
/// sequentially, probed blocks are fetched at random (a pruned union's
/// with pattern auto-detection), and only prune skips are counted — IIU
/// binary-searches its directory and never skips on metadata otherwise.
impl ListSink for Run<'_> {
    fn meta_read(&mut self, slot: usize, addr: u64, records: u64) {
        let bytes = (records * BLOCK_META_BYTES).max(1);
        self.read(addr, bytes, LdMeta, Sequential);
        self.eval.meta_read(slot, addr, records);
    }

    /// Per block, its descriptor and then its data, decoded round-robin
    /// by block ordinal.
    fn list_streamed(
        &mut self,
        slot: usize,
        blocks: &[BlockMeta],
        meta_addr: u64,
        data_addr: u64,
        data_bytes: u64,
    ) {
        for (block, meta) in blocks.iter().enumerate() {
            let desc = meta_addr + block as u64 * BLOCK_META_BYTES;
            self.read(desc, BLOCK_META_BYTES, LdMeta, Sequential);
            let (addr, len) = (data_addr + u64::from(meta.offset), u64::from(meta.len));
            self.read(addr, len.max(1), LdList, Sequential);
            self.decode(block, len.max(meta.count() as u64 * 2) / 2 + 4);
        }
        self.eval
            .list_streamed(slot, blocks, meta_addr, data_addr, data_bytes);
    }

    fn block_fetch(&mut self, _slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
        let pattern = if self.pruned { Auto } else { Random };
        self.read(addr, u64::from(meta.len).max(1), LdList, pattern);
        Ok(())
    }

    fn block_decoded(&mut self, slot: usize, block: usize, scheme: Scheme, meta: &BlockMeta) {
        self.eval.block_decoded(slot, block, scheme, meta);
        let (len, count) = (u64::from(meta.len), meta.count() as u64);
        if self.pruned {
            let unit = self.eval.blocks_fetched as usize;
            self.decode(unit, len.max(count * 2) / 2 + 4);
        } else {
            self.decode(block, len.max(count) / 2 + 4);
        }
    }

    fn blocks_skipped(&mut self, slot: usize, blocks: u64, postings: u64, reason: SkipReason) {
        if reason == SkipReason::Prune {
            self.eval.blocks_skipped(slot, blocks, postings, reason);
        }
    }

    fn postings_passed(&mut self, slot: usize, n: u64, reason: SkipReason, scanned: bool) {
        if reason == SkipReason::Prune {
            self.eval.postings_passed(slot, n, reason, scanned);
        }
    }
}

impl PruneSink for Run<'_> {
    fn doc_abandoned(&mut self) {
        self.eval.doc_abandoned();
    }

    fn doc_scored(&mut self, doc: DocId) {
        self.charge_norm(doc);
        self.eval.doc_scored(doc);
    }

    fn round(&mut self) {
        self.eval.round();
        self.eval.comparisons += 1;
    }
}

/// IIU's intersection: each probe document binary-searches the on-chip
/// directory (and, landing inside a block, the decoded block), and every
/// intermediate result is spilled to memory and read back — the paper's
/// "unnecessary memory accesses to load/store intermediate data".
impl SvsSink for Run<'_> {
    fn pruned_union(&mut self) {
        self.pruned = true;
    }

    fn probed(&mut self, cursor: &ListCursor<'_>, doc: DocId, probes: usize) -> bool {
        let mut steps = search_steps(cursor.n_blocks(), cursor.block_ordinal());
        if !cursor.exhausted() && (cursor.is_decoded() || cursor.current_doc() == doc) {
            steps += u64::from(cursor.block_postings().max(2).ilog2());
        }
        self.eval.comparisons += steps * probes as u64;
        true
    }

    fn joined(&mut self, _input: usize, output: usize) {
        let bytes = (output as u64 * 8).max(8);
        let addr = self.scratch.alloc(bytes);
        self.mem
            .access(addr, bytes, AccessKind::Write, StInter, Sequential, 0);
        self.read(addr, bytes, LdInter, Sequential);
    }

    fn group_matched(&mut self, matches: usize) {
        self.eval.comparisons += matches as u64;
    }

    fn scored(&mut self, docs: &[DocId]) {
        for &doc in docs {
            self.charge_norm(doc);
        }
        self.eval.scored(docs);
    }
}

impl<'a> IiuEngine<'a> {
    /// Binds the engine to an index.
    pub fn new(index: &'a InvertedIndex, config: IiuConfig) -> Self {
        IiuEngine {
            index,
            image: IndexImage::new(index),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IiuConfig {
        &self.config
    }

    /// Executes one query: the [`svs::search`] traversal priced by IIU,
    /// then the scored result list written back for the host, whose
    /// top-k sort is free (the paper ignores IIU's top-k selection time).
    ///
    /// # Errors
    ///
    /// Planning errors, as for BOSS.
    pub fn execute(&self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        let plan = QueryPlan::new(self.index, expr)?;
        let mut run = Run {
            image: self.image,
            mem: MemorySim::new(self.config.setup.memory.clone()),
            eval: EvalCounts::default(),
            dec_cycles: vec![0; DECOMPRESSORS_PER_CORE],
            scratch: ScratchRegion::after(&self.image),
            norm_line: u64::MAX,
            pruned: false,
        };
        let algorithm = self.config.setup.algorithm;
        let ranked = svs::search(self.index, plan.groups(), algorithm, k, &mut run)?;

        // The unsorted scored list goes back to memory for the host (ST
        // Result), 8 bytes per document; a pruned union materializes
        // only its top-k.
        let written = if run.pruned {
            ranked.hits.len() as u64
        } else {
            run.eval.docs_scored
        };
        let result_bytes = (written * 8).max(8);
        let addr = run.scratch.alloc(result_bytes);
        run.mem.access(
            addr,
            result_bytes,
            AccessKind::Write,
            StResult,
            Sequential,
            0,
        );
        Ok(QueryOutcome {
            hits: ranked.hits,
            cycles: pipeline_cycles(&run),
            mem: run.mem.take_stats(),
            eval: run.eval,
        })
    }
}

/// The bottleneck stage plus the fixed per-query overhead, at BOSS's
/// module costs.
fn pipeline_cycles(run: &Run<'_>) -> u64 {
    let t_mem = run.mem.stats().last_done_cycle;
    let t_dec = run.dec_cycles.iter().copied().max().unwrap_or(0);
    let t_setop = (run.eval.comparisons as f64 * CYCLES_PER_COMPARISON) as u64;
    // IIU exploits full intra-query parallelism across scoring units.
    let eff = SCORERS_PER_CORE as f64;
    let t_score = (run.eval.docs_scored as f64 * CYCLES_PER_SCORE / eff) as u64 + SCORING_FILL;
    t_mem.max(t_dec).max(t_setop).max(t_score) + QUERY_OVERHEAD
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use boss_index::{reference, IndexBuilder};

    fn corpus() -> InvertedIndex {
        corpus_of(900)
    }

    fn corpus_of(n_docs: u32) -> InvertedIndex {
        let docs: Vec<String> = (0u32..n_docs)
            .map(|i| {
                let mut t = String::from("fill");
                let h = i.wrapping_mul(374761393);
                if h % 2 == 0 {
                    t.push_str(" aa");
                }
                if h % 3 == 0 {
                    t.push_str(" bb bb");
                }
                if h % 11 == 0 {
                    t.push_str(" cc");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    #[test]
    fn matches_reference_on_all_shapes() {
        // 9 000 documents span three `union_scored` windows.
        for idx in [corpus(), corpus_of(9_000)] {
            let engine = IiuEngine::new(&idx, IiuConfig::default());
            let t = |s: &str| QueryExpr::term(s);
            let queries = [
                t("aa"),
                QueryExpr::and([t("aa"), t("bb")]),
                QueryExpr::or([t("aa"), t("cc")]),
                QueryExpr::and([t("aa"), t("bb"), t("cc"), t("fill")]),
                QueryExpr::or([t("aa"), t("bb"), t("cc"), t("fill")]),
                QueryExpr::and([t("aa"), QueryExpr::or([t("bb"), t("cc")])]),
            ];
            for q in &queries {
                let got = engine.execute(q, 10).unwrap();
                let expect = reference::evaluate(&idx, q, 10).unwrap();
                assert_eq!(got.hits, expect, "{q}");
            }
        }
    }

    #[test]
    fn union_scores_everything() {
        let idx = corpus();
        let engine = IiuEngine::new(&idx, IiuConfig::default());
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let out = engine.execute(&q, 10).unwrap();
        let cand = reference::candidates(&idx, &q).unwrap();
        assert_eq!(out.eval.docs_scored, cand.len() as u64);
    }

    #[test]
    fn intersection_generates_random_block_fetches() {
        let idx = corpus();
        let engine = IiuEngine::new(&idx, IiuConfig::default());
        let q = QueryExpr::and([QueryExpr::term("cc"), QueryExpr::term("aa")]);
        let out = engine.execute(&q, 10).unwrap();
        // Every data block of the probed list reached by membership testing
        // is fetched with a random access (plus random norm-line loads).
        assert!(
            out.mem.rand_accesses >= 3,
            "binary-search fetches are random: {}",
            out.mem.rand_accesses
        );
    }

    #[test]
    fn multi_term_queries_spill_intermediates() {
        let idx = corpus();
        let engine = IiuEngine::new(&idx, IiuConfig::default());
        let q3 = QueryExpr::and([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
        ]);
        let out = engine.execute(&q3, 10).unwrap();
        assert!(out.mem.bytes(AccessCategory::StInter) > 0);
        assert!(out.mem.bytes(AccessCategory::LdInter) > 0);
        // A 2-term query spills once as well (one membership pass).
        let q2 = QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let out2 = engine.execute(&q2, 10).unwrap();
        assert!(out2.mem.bytes(AccessCategory::StInter) > 0);
        // Every spill is read back in full.
        assert_eq!(
            out.mem.bytes(AccessCategory::StInter),
            out.mem.bytes(AccessCategory::LdInter)
        );
    }

    #[test]
    fn full_result_list_written_out() {
        let idx = corpus();
        let engine = IiuEngine::new(&idx, IiuConfig::default());
        let q = QueryExpr::term("aa");
        let out = engine.execute(&q, 10).unwrap();
        let cand = reference::candidates(&idx, &q).unwrap();
        assert_eq!(
            out.mem.bytes(AccessCategory::StResult),
            cand.len() as u64 * 8
        );
    }

    #[test]
    fn unknown_term_errors() {
        let idx = corpus();
        let engine = IiuEngine::new(&idx, IiuConfig::default());
        assert!(engine.execute(&QueryExpr::term("zzz"), 5).is_err());
    }

    #[test]
    fn pruned_unions_match_reference_on_all_algorithms() {
        let idx = corpus();
        let t = |s: &str| QueryExpr::term(s);
        let queries = [
            QueryExpr::or([t("aa"), t("cc")]),
            QueryExpr::or([t("aa"), t("bb"), t("cc"), t("fill")]),
        ];
        for algo in boss_index::ALL_ALGORITHMS {
            let engine = IiuEngine::new(&idx, IiuConfig::default().with_algorithm(algo));
            for q in &queries {
                for k in [3usize, 10, 200] {
                    let got = engine.execute(q, k).unwrap();
                    let expect = reference::evaluate(&idx, q, k).unwrap();
                    assert_eq!(got.hits, expect, "{algo} {q} k={k}");
                }
            }
        }
    }

    #[test]
    fn pruned_unions_skip_work_and_attribute_it() {
        let idx = corpus();
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("cc")]);
        let base = IiuEngine::new(&idx, IiuConfig::default())
            .execute(&q, 10)
            .unwrap();
        assert_eq!(base.eval.docs_skipped_prune, 0);
        assert_eq!(base.eval.blocks_skipped_prune, 0);
        for algo in boss_index::ALL_ALGORITHMS {
            if !algo.prunes() {
                continue;
            }
            let engine = IiuEngine::new(&idx, IiuConfig::default().with_algorithm(algo));
            let out = engine.execute(&q, 10).unwrap();
            assert!(
                out.eval.docs_scored < base.eval.docs_scored,
                "{algo} should score fewer docs: {} vs {}",
                out.eval.docs_scored,
                base.eval.docs_scored
            );
            assert!(out.eval.docs_skipped_prune > 0, "{algo}");
            assert!(
                out.eval.blocks_fetched <= base.eval.blocks_fetched,
                "{algo}"
            );
            // Pruned traversal only materializes the top-k result list.
            assert_eq!(
                out.mem.bytes(AccessCategory::StResult),
                out.hits.len() as u64 * 8
            );
        }
    }
}
