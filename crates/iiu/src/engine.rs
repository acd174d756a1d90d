//! The IIU engine model.

use boss_compress::Scheme;
use boss_core::{BossConfig, TimingModel};
use boss_core::{EvalCounts, QueryOutcome, QueryPlan, TopK};
use boss_index::cursor::{ListSink, SkipReason};
use boss_index::layout::{IndexImage, ScratchRegion};
use boss_index::prune::{self, PruneSink};
use boss_index::{
    union_scored, BlockMeta, DocId, Error, GroupMatches, InvertedIndex, QueryAlgorithm, QueryExpr,
    ScoreScratch, TermId, BLOCK_META_BYTES,
};
use boss_scm::{AccessCategory, AccessKind, MemoryConfig, MemorySim, PatternHint};

/// IIU configuration: core count, memory node, and module timing (kept
/// identical to BOSS's for the paper's "same number of decompression and
/// scoring modules" fairness note in Figure 13).
#[derive(Debug, Clone, PartialEq)]
pub struct IiuConfig {
    /// Number of IIU cores sharing the memory node.
    pub n_cores: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Decompression/scoring units per core.
    pub units_per_core: u32,
    /// The memory node.
    pub memory: MemoryConfig,
    /// Module timing constants (shared shape with BOSS).
    pub timing: TimingModel,
    /// Dynamic-pruning plan for pure union queries. The default
    /// ([`QueryAlgorithm::Exhaustive`]) keeps IIU's original
    /// merge-everything traversal; any other value routes unions through
    /// the portable pruned evaluator (`boss_index::prune`) with IIU's
    /// memory charges, still returning bit-identical top-k results.
    pub algorithm: QueryAlgorithm,
}

impl Default for IiuConfig {
    fn default() -> Self {
        IiuConfig {
            n_cores: 8,
            clock_ghz: 1.0,
            units_per_core: 4,
            memory: MemoryConfig::optane_dcpmm(),
            timing: TimingModel::default(),
            algorithm: QueryAlgorithm::Exhaustive,
        }
    }
}

impl IiuConfig {
    /// `n` cores, defaults elsewhere.
    pub fn with_cores(n: u32) -> Self {
        IiuConfig {
            n_cores: n,
            ..Self::default()
        }
    }

    /// Replaces the memory node.
    #[must_use]
    pub fn on_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Replaces the dynamic-pruning query algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

/// One IIU device bound to an index. Stateless between queries, so a
/// clone is a fresh device; clones share the image layout.
#[derive(Debug, Clone)]
pub struct IiuEngine<'a> {
    index: &'a InvertedIndex,
    image: IndexImage<'a>,
    config: IiuConfig,
    /// BOSS planning config reused for expression normalization (same
    /// 16-term limit).
    plan_config: BossConfig,
}

struct Run<'a> {
    index: &'a InvertedIndex,
    image: IndexImage<'a>,
    mem: MemorySim,
    eval: EvalCounts,
    dec_cycles: Vec<u64>,
    scored: u64,
    scratch: ScratchRegion,
    norm_line: u64,
}

impl<'a> Run<'a> {
    /// Fully decodes a list, charging sequential metadata + block reads,
    /// spreading decompression across units round-robin (IIU exploits
    /// intra-query parallelism). Corrupt blocks surface as typed errors.
    fn load_list(&mut self, term: TermId) -> Result<(Vec<DocId>, Vec<u32>), Error> {
        let list = self.index.list(term);
        let meta_addr = self.image.meta_addr(term);
        let data_addr = self.image.data_addr(term);
        let mut docs = Vec::with_capacity(list.df() as usize);
        let mut tfs = Vec::with_capacity(list.df() as usize);
        for (bi, meta) in list.blocks().iter().enumerate() {
            self.mem.access(
                meta_addr + bi as u64 * BLOCK_META_BYTES,
                BLOCK_META_BYTES,
                AccessKind::Read,
                AccessCategory::LdMeta,
                PatternHint::Sequential,
                0,
            );
            self.eval.metas_read += 1;
            self.mem.access(
                data_addr + u64::from(meta.offset),
                u64::from(meta.len).max(1),
                AccessKind::Read,
                AccessCategory::LdList,
                PatternHint::Sequential,
                0,
            );
            self.eval.blocks_fetched += 1;
            let unit = bi % self.dec_cycles.len();
            self.dec_cycles[unit] += u64::from(meta.len).max(meta.count() as u64 * 2) / 2 + 4;
            list.decode_block(bi, &mut docs, &mut tfs)?;
        }
        Ok((docs, tfs))
    }

    /// Binary-search membership testing of `probe`'s docs against `term`'s
    /// list: the block directory is streamed once into on-chip buffers,
    /// then each probe binary-searches it (comparisons only) and fetches
    /// the matched *data block* with a random access — the access pattern
    /// the BOSS paper criticizes IIU for on SCM.
    fn membership_intersect(
        &mut self,
        probe: &GroupMatches,
        term: TermId,
    ) -> Result<GroupMatches, Error> {
        let list = self.index.list(term);
        let blocks = list.blocks();
        let meta_addr = self.image.meta_addr(term);
        let data_addr = self.image.data_addr(term);
        // One streaming pass loads the directory.
        self.mem.access(
            meta_addr,
            (blocks.len() as u64 * BLOCK_META_BYTES).max(1),
            AccessKind::Read,
            AccessCategory::LdMeta,
            PatternHint::Sequential,
            0,
        );
        self.eval.metas_read += blocks.len() as u64;
        let (mut out, col) = probe.joined(term);
        let mut cached_block = usize::MAX;
        let mut bdocs: Vec<DocId> = Vec::new();
        let mut btfs: Vec<u32> = Vec::new();
        for (i, &d) in probe.docs().iter().enumerate() {
            // Binary search over the on-chip directory.
            let mut lo = 0usize;
            let mut hi = blocks.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                self.eval.comparisons += 1;
                if blocks[mid].last_doc < d {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo >= blocks.len() || blocks[lo].first_doc > d {
                continue;
            }
            if cached_block != lo {
                // Random block fetch + decode.
                self.mem.access(
                    data_addr + u64::from(blocks[lo].offset),
                    u64::from(blocks[lo].len).max(1),
                    AccessKind::Read,
                    AccessCategory::LdList,
                    PatternHint::Random,
                    0,
                );
                self.eval.blocks_fetched += 1;
                bdocs.clear();
                btfs.clear();
                list.decode_block(lo, &mut bdocs, &mut btfs)?;
                let unit = lo % self.dec_cycles.len();
                self.dec_cycles[unit] += u64::from(blocks[lo].len).max(bdocs.len() as u64) / 2 + 4;
                cached_block = lo;
            }
            // Binary search within the decoded block.
            self.eval.comparisons += (bdocs.len().max(2) as u64).ilog2() as u64;
            if let Ok(pos) = bdocs.binary_search(&d) {
                out.push_joined(d, probe.row(i), col, btfs[pos]);
            }
        }
        Ok(out)
    }

    /// Spills an intermediate list to memory and charges its reload.
    fn spill_intermediate(&mut self, len: usize) {
        let bytes = (len as u64 * 8).max(8);
        let addr = self.scratch.alloc(bytes);
        self.mem.access(
            addr,
            bytes,
            AccessKind::Write,
            AccessCategory::StInter,
            PatternHint::Sequential,
            0,
        );
        self.mem.access(
            addr,
            bytes,
            AccessKind::Read,
            AccessCategory::LdInter,
            PatternHint::Sequential,
            0,
        );
    }

    /// Charges one norm load through the 64-byte line buffer (BOSS's
    /// scoring-module discipline).
    fn charge_norm(&mut self, doc: DocId) {
        let addr = self.image.norm_addr(doc);
        if addr / 64 != self.norm_line {
            self.mem.access(
                addr,
                4,
                AccessKind::Read,
                AccessCategory::LdScore,
                PatternHint::Random,
                0,
            );
            self.norm_line = addr / 64;
        }
    }

    /// Charges the norm loads of a run of scored documents, in order.
    fn charge_scored(&mut self, docs: &[DocId]) {
        for &d in docs {
            self.charge_norm(d);
        }
        self.scored += docs.len() as u64;
        self.eval.docs_scored += docs.len() as u64;
    }
}

/// The pruned traversal charged to IIU's memory and timing model:
/// metadata records stream sequentially from the block directory,
/// surviving blocks are fetched with pattern auto-detection (a pruned
/// traversal jumps, so contiguity is not assumed) and decoded
/// round-robin across units, and each scored document loads its norm
/// through the 64-byte line buffer — exactly the charges the unpruned
/// paths make for the same physical events. Skips are attributed to the
/// `*_prune` counters.
impl ListSink for Run<'_> {
    fn meta_read(&mut self, _slot: usize, addr: u64, records: u64) {
        self.mem.access(
            addr,
            records * BLOCK_META_BYTES,
            AccessKind::Read,
            AccessCategory::LdMeta,
            PatternHint::Sequential,
            0,
        );
        self.eval.metas_read += records;
    }

    fn block_fetch(&mut self, _slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
        self.mem.access(
            addr,
            u64::from(meta.len).max(1),
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Auto,
            0,
        );
        Ok(())
    }

    fn block_decoded(&mut self, _slot: usize, _scheme: Scheme, meta: &BlockMeta) {
        self.eval.blocks_fetched += 1;
        let unit = self.eval.blocks_fetched as usize % self.dec_cycles.len();
        self.dec_cycles[unit] += u64::from(meta.len).max(meta.count() as u64 * 2) / 2 + 4;
    }

    fn blocks_skipped(&mut self, _slot: usize, blocks: u64, postings: u64, _reason: SkipReason) {
        self.eval.blocks_skipped += blocks;
        self.eval.blocks_skipped_prune += blocks;
        self.eval.docs_skipped_prune += postings;
    }

    fn postings_passed(&mut self, _slot: usize, n: u64, _reason: SkipReason, _scanned: bool) {
        self.eval.docs_skipped_prune += n;
    }
}

impl PruneSink for Run<'_> {
    fn doc_abandoned(&mut self) {
        self.eval.docs_skipped_prune += 1;
    }

    fn doc_scored(&mut self, doc: DocId) {
        self.charge_norm(doc);
        self.scored += 1;
        self.eval.docs_scored += 1;
    }

    fn round(&mut self) {
        self.eval.pivot_rounds += 1;
        self.eval.comparisons += 1;
    }
}

impl<'a> IiuEngine<'a> {
    /// Binds the engine to an index.
    pub fn new(index: &'a InvertedIndex, config: IiuConfig) -> Self {
        let plan_config = BossConfig {
            n_cores: config.n_cores,
            memory: config.memory.clone(),
            ..BossConfig::default()
        };
        IiuEngine {
            index,
            image: IndexImage::new(index),
            config,
            plan_config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IiuConfig {
        &self.config
    }

    /// Executes one query; the host-side sort that extracts the top-k is
    /// free (the paper ignores IIU's top-k selection time).
    ///
    /// # Errors
    ///
    /// Planning errors, as for BOSS.
    pub fn execute(&self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        let plan = QueryPlan::from_expr(self.index, expr, &self.plan_config)?;
        let mut run = Run {
            index: self.index,
            image: self.image,
            mem: MemorySim::new(self.config.memory.clone()),
            eval: EvalCounts::default(),
            dec_cycles: vec![0; self.config.units_per_core.max(1) as usize],
            scored: 0,
            scratch: ScratchRegion::after(&self.image),
            norm_line: u64::MAX,
        };

        // Pruned path: a pure union under a dynamic-pruning plan routes
        // through the portable evaluator, charging IIU's model via the
        // sink. Only surviving hits are materialized, so the result
        // writeback shrinks to the top-k — the rest of the pipeline
        // (timing maxima, free host-side top-k) is unchanged.
        if self.config.algorithm.prunes()
            && plan.groups().len() > 1
            && plan.groups().iter().all(|g| g.len() == 1)
        {
            let ids: Vec<TermId> = plan.groups().iter().map(|g| g[0]).collect();
            let outcome =
                prune::pruned_union_topk(self.index, &ids, self.config.algorithm, k, &mut run)?;
            let (docs, scores): (Vec<DocId>, Vec<f32>) =
                outcome.hits.iter().map(|h| (h.doc, h.score)).unzip();
            return Ok(self.finish(run, &plan, &docs, &scores, k));
        }

        // A single-term query needs no merging, so the decoded list is
        // scored block-at-a-time with the shared kernel. The simulated run
        // is what the general path below would charge: the list load is
        // the same `load_list` call, the merge loop's
        // one-comparison-per-document bookkeeping is batched, norms are
        // charged per document in the same ascending order through the same
        // line buffer, and `score_block` equals `0.0 + term_score` bitwise.
        if plan.groups().len() == 1 && plan.groups()[0].len() == 1 {
            let term = plan.groups()[0][0];
            let (docs, tfs) = run.load_list(term)?;
            run.eval.comparisons += docs.len() as u64;
            let idf = self.index.list(term).idf();
            let bm25 = *self.index.bm25();
            let norms = self.index.doc_norms();
            let mut block_scores = ScoreScratch::new();
            let mut scores: Vec<f32> = Vec::with_capacity(docs.len());
            for (cd, ct) in docs.chunks(128).zip(tfs.chunks(128)) {
                bm25.score_block(idf, cd, ct, norms, &mut block_scores);
                scores.extend_from_slice(block_scores.scores());
            }
            run.charge_scored(&docs);
            return Ok(self.finish(run, &plan, &docs, &scores, k));
        }

        // Each group: SvS with binary-search membership testing, spilling
        // intermediates between iterations; groups then merge exhaustively.
        let mut groups: Vec<GroupMatches> = Vec::with_capacity(plan.groups().len());
        for group in plan.groups() {
            let mut order: Vec<TermId> = group.clone();
            order.sort_by_key(|&t| self.index.list(t).df());
            let (docs, tfs) = run.load_list(order[0])?;
            let mut cur = GroupMatches::from_column(order[0], docs, tfs);
            for &t in &order[1..] {
                cur = run.membership_intersect(&cur, t)?;
                // Intermediate result spilled to memory (the paper's
                // "unnecessary memory accesses to load/store intermediate
                // data").
                run.spill_intermediate(cur.len());
                if cur.is_empty() {
                    break;
                }
            }
            // The merge compares each group match once.
            run.eval.comparisons += cur.len() as u64;
            groups.push(cur);
        }

        // Score everything; the unsorted scored list goes back to memory
        // for the host (ST Result), 8 bytes per document.
        let candidates = groups.iter().map(GroupMatches::len).sum();
        let mut docs: Vec<DocId> = Vec::with_capacity(candidates);
        let mut scores: Vec<f32> = Vec::with_capacity(candidates);
        union_scored(self.index, &groups, |d, s| {
            run.charge_scored(d);
            docs.extend_from_slice(d);
            scores.extend_from_slice(s);
        });
        Ok(self.finish(run, &plan, &docs, &scores, k))
    }

    /// Shared tail of `execute`: the result-list writeback, the free
    /// host-side top-k (per the paper's methodology), and pipeline timing.
    fn finish(
        &self,
        mut run: Run<'_>,
        plan: &QueryPlan,
        docs: &[DocId],
        scores: &[f32],
        k: usize,
    ) -> QueryOutcome {
        let result_bytes = (docs.len() as u64 * 8).max(8);
        let addr = run.scratch.alloc(result_bytes);
        run.mem.access(
            addr,
            result_bytes,
            AccessKind::Write,
            AccessCategory::StResult,
            PatternHint::Sequential,
            0,
        );

        let mut topk = TopK::new(k.max(1));
        topk.sift_block(docs, scores);

        let cycles = self.pipeline_cycles(&run, plan);
        QueryOutcome {
            hits: topk.into_hits(),
            cycles,
            mem: run.mem.take_stats(),
            eval: run.eval,
        }
    }

    fn pipeline_cycles(&self, run: &Run<'_>, plan: &QueryPlan) -> u64 {
        let t = &self.config.timing;
        let t_mem = run.mem.stats().last_done_cycle;
        let t_dec = run.dec_cycles.iter().copied().max().unwrap_or(0);
        let t_setop = (run.eval.comparisons as f64 * t.cycles_per_comparison) as u64;
        // IIU exploits full intra-query parallelism across scoring units.
        let eff = f64::from(self.config.units_per_core.max(1));
        let t_score = (run.scored as f64 * t.cycles_per_score / eff) as u64 + t.scoring_fill;
        let _ = plan;
        t_mem.max(t_dec).max(t_setop).max(t_score) + t.query_overhead
    }
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

    #[test]
    fn pruning_leaves_intersections_and_single_terms_untouched() {
        let idx = corpus();
        let queries = [
            QueryExpr::term("aa"),
            QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]),
        ];
        for q in &queries {
            let a = IiuEngine::new(&idx, IiuConfig::default())
                .execute(q, 10)
                .unwrap();
            let b = IiuEngine::new(
                &idx,
                IiuConfig::default().with_algorithm(QueryAlgorithm::BlockMaxWand),
            )
            .execute(q, 10)
            .unwrap();
            assert_eq!(a.hits, b.hits, "{q}");
            assert_eq!(a.eval, b.eval, "{q}");
            assert_eq!(a.mem, b.mem, "{q}");
            assert_eq!(a.cycles, b.cycles, "{q}");
        }
    }

    #[test]
    fn zero_units_answer_like_one() {
        // `units_per_core` is a public field; 0 used to leave the per-unit
        // cycle vector empty and panic on the first `% len()`.
        let idx = corpus();
        let t = |s: &str| QueryExpr::term(s);
        let queries = [
            t("aa"),
            QueryExpr::and([t("aa"), t("bb")]),
            QueryExpr::or([t("aa"), t("cc")]),
        ];
        for algorithm in [QueryAlgorithm::Exhaustive, QueryAlgorithm::BlockMaxWand] {
            let run = |units_per_core: u32, q: &QueryExpr| {
                let config = IiuConfig {
                    units_per_core,
                    algorithm,
                    ..IiuConfig::default()
                };
                IiuEngine::new(&idx, config).execute(q, 10).unwrap()
            };
            for q in &queries {
                assert_eq!(run(0, q), run(1, q), "{q} {algorithm}");
            }
        }
    }
}
