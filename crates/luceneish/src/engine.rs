//! The Lucene-like engine.

use boss_compress::Scheme;
use boss_core::{EvalCounts, QueryOutcome, QueryPlan, TopK};
use boss_index::cursor::{ListSink, SkipReason};
use boss_index::layout::IndexImage;
use boss_index::prune::{self, PruneSink};
use boss_index::{
    union_scored, BlockMeta, DocId, Error, GroupMatches, InvertedIndex, QueryAlgorithm, QueryExpr,
    ScoreScratch, TermId, BLOCK_META_BYTES,
};
use boss_scm::{AccessCategory, AccessKind, MemoryConfig, MemorySim, PatternHint};

/// CPU cycles charged per unit of work, at the host clock.
///
/// Defaults are calibrated against the paper's anchors: Lucene is
/// compute-bound (DRAM buys ≤15 %), and 8 BOSS cores beat 8 Lucene cores
/// by ~7.5–8.7× on the two corpora.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuceneCostModel {
    /// Cycles per decoded posting (decompression + iterator bookkeeping).
    pub cycles_per_posting: f64,
    /// Cycles per set-operation step.
    pub cycles_per_merge_step: f64,
    /// Cycles per scored document (BM25 + collector bookkeeping).
    pub cycles_per_scored_doc: f64,
    /// Cycles per heap (priority-queue) update.
    pub cycles_per_heap_op: f64,
    /// Fixed per-query cycles (parsing, weights, segment setup).
    pub query_overhead: f64,
}

impl Default for LuceneCostModel {
    fn default() -> Self {
        LuceneCostModel {
            cycles_per_posting: 12.0,
            cycles_per_merge_step: 8.0,
            cycles_per_scored_doc: 48.0,
            cycles_per_heap_op: 16.0,
            query_overhead: 50_000.0,
        }
    }
}

/// Lucene host configuration (Table I "Host Processor").
#[derive(Debug, Clone, PartialEq)]
pub struct LuceneConfig {
    /// Worker threads (the paper's 8-thread / 8-core setup).
    pub n_threads: u32,
    /// Host clock in GHz (Xeon 8280M: 2.7).
    pub clock_ghz: f64,
    /// Host memory system.
    pub memory: MemoryConfig,
    /// Cost constants.
    pub cost: LuceneCostModel,
    /// Dynamic-pruning plan for pure union queries. The default
    /// ([`QueryAlgorithm::Exhaustive`]) keeps the score-everything
    /// collector; any other value routes unions through the portable
    /// pruned evaluator (`boss_index::prune`) with this engine's cost
    /// model, still returning bit-identical top-k results.
    pub algorithm: QueryAlgorithm,
}

impl Default for LuceneConfig {
    fn default() -> Self {
        LuceneConfig {
            n_threads: 8,
            clock_ghz: 2.7,
            memory: MemoryConfig::host_scm_6ch(),
            cost: LuceneCostModel::default(),
            algorithm: QueryAlgorithm::Exhaustive,
        }
    }
}

impl LuceneConfig {
    /// `n` threads, defaults elsewhere.
    pub fn with_threads(n: u32) -> Self {
        LuceneConfig {
            n_threads: n,
            ..Self::default()
        }
    }

    /// Replaces the host memory system.
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

/// [`PruneSink`] that charges a pruned union to the Lucene cost model:
/// skip data streams sequentially, surviving blocks are fetched with
/// pattern auto-detection and their postings counted toward the
/// per-posting decode cost, each scored document streams its 4-byte norm
/// through the cacheable host hierarchy, and pivot rounds count as merge
/// steps. Skips are attributed to the `*_prune` counters.
struct LucenePruneSink<'r> {
    image: IndexImage<'r>,
    mem: &'r mut MemorySim,
    eval: &'r mut EvalCounts,
    postings_decoded: u64,
}

impl ListSink for LucenePruneSink<'_> {
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
        self.postings_decoded += meta.count() as u64;
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

impl PruneSink for LucenePruneSink<'_> {
    fn doc_abandoned(&mut self) {
        self.eval.docs_skipped_prune += 1;
    }

    fn doc_scored(&mut self, doc: DocId) {
        self.mem.access(
            self.image.norm_addr(doc),
            4,
            AccessKind::Read,
            AccessCategory::LdScore,
            PatternHint::Sequential,
            0,
        );
        self.eval.docs_scored += 1;
    }

    fn round(&mut self) {
        self.eval.comparisons += 1;
    }
}

/// The Lucene-like engine bound to an index. Stateless between queries,
/// so a clone is a fresh engine; clones share the image layout.
#[derive(Debug, Clone)]
pub struct LuceneEngine<'a> {
    index: &'a InvertedIndex,
    image: IndexImage<'a>,
    config: LuceneConfig,
    plan_config: boss_core::BossConfig,
}

impl<'a> LuceneEngine<'a> {
    /// Binds the engine to an index.
    pub fn new(index: &'a InvertedIndex, config: LuceneConfig) -> Self {
        LuceneEngine {
            index,
            image: IndexImage::new(index),
            config,
            plan_config: boss_core::BossConfig::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LuceneConfig {
        &self.config
    }

    /// Executes one query on one thread.
    ///
    /// `QueryOutcome::cycles` is in *host CPU* cycles; convert with the
    /// host clock (`outcome.seconds(config.clock_ghz)`).
    ///
    /// # Errors
    ///
    /// Same planning errors as the accelerators.
    pub fn execute(&self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        // Reuse the hardware planner's validation/normalization so all
        // three engines accept the same query language.
        let plan = QueryPlan::from_expr(self.index, expr, &self.plan_config)?;

        // Pruned path: a pure union under a dynamic-pruning plan routes
        // through the portable evaluator with this engine's charges.
        if self.config.algorithm.prunes()
            && plan.groups().len() > 1
            && plan.groups().iter().all(|g| g.len() == 1)
        {
            return self.execute_pruned(&plan, k);
        }

        let mut mem = MemorySim::new(self.config.memory.clone());
        let mut eval = EvalCounts::default();

        // 1)+2) Per-clause evaluation, the way Lucene's scorers work:
        //    within an AND clause the lead iterator is the smallest list
        //    and the others are advanced with skip data, decoding only the
        //    blocks the lead reaches; OR clauses (single-term groups after
        //    normalization) decode their whole list. Each clause's matches
        //    keep their tfs, so scoring below never re-decodes.
        let mut postings_decoded = 0u64;
        let mut merge_steps = 0u64;
        let mut groups: Vec<GroupMatches> = Vec::with_capacity(plan.groups().len());
        for group in plan.groups() {
            let mut order: Vec<TermId> = group.clone();
            order.sort_by_key(|&t| self.index.list(t).df());

            // Lead list: full decode.
            let lead = order[0];
            let lead_list = self.index.list(lead);
            mem.access(
                self.image.meta_addr(lead),
                (lead_list.n_blocks() as u64 * BLOCK_META_BYTES).max(1),
                AccessKind::Read,
                AccessCategory::LdMeta,
                PatternHint::Sequential,
                0,
            );
            mem.access(
                self.image.data_addr(lead),
                (lead_list.data_bytes() as u64).max(1),
                AccessKind::Read,
                AccessCategory::LdList,
                PatternHint::Sequential,
                0,
            );
            eval.metas_read += lead_list.n_blocks() as u64;
            eval.blocks_fetched += lead_list.n_blocks() as u64;
            postings_decoded += u64::from(lead_list.df());
            let (lead_docs, lead_tfs) = lead_list.decode_all()?;
            let mut acc = GroupMatches::from_column(lead, lead_docs, lead_tfs);
            merge_steps += acc.len() as u64;

            for &t in &order[1..] {
                let list = self.index.list(t);
                let blocks = list.blocks();
                // Skip data: the directory is streamed once.
                mem.access(
                    self.image.meta_addr(t),
                    (blocks.len() as u64 * BLOCK_META_BYTES).max(1),
                    AccessKind::Read,
                    AccessCategory::LdMeta,
                    PatternHint::Sequential,
                    0,
                );
                eval.metas_read += blocks.len() as u64;
                // Decode only blocks the (shrinking) lead set reaches.
                let mut docs: Vec<u32> = Vec::new();
                let mut tfs: Vec<u32> = Vec::new();
                let mut spans: Vec<(usize, &boss_index::BlockMeta)> = Vec::new();
                {
                    let mut bi = 0usize;
                    for &d in acc.docs() {
                        while bi < blocks.len() && blocks[bi].last_doc < d {
                            bi += 1;
                        }
                        if bi == blocks.len() {
                            break;
                        }
                        if blocks[bi].first_doc <= d && spans.last().map(|&(i, _)| i) != Some(bi) {
                            spans.push((bi, &blocks[bi]));
                        }
                    }
                }
                for (bi, meta) in &spans {
                    mem.access(
                        self.image.data_addr(t) + u64::from(meta.offset),
                        u64::from(meta.len).max(1),
                        AccessKind::Read,
                        AccessCategory::LdList,
                        PatternHint::Auto,
                        0,
                    );
                    eval.blocks_fetched += 1;
                    postings_decoded += meta.count() as u64;
                    list.decode_block(*bi, &mut docs, &mut tfs)?;
                }
                merge_steps += acc.len() as u64 + docs.len() as u64;
                acc = acc.join_sorted(t, &docs, &tfs);
                if acc.is_empty() {
                    break;
                }
            }
            // The disjunction over clauses compares each clause match once.
            merge_steps += acc.len() as u64;
            groups.push(acc);
        }
        eval.comparisons = merge_steps;

        // 3) Score every candidate + heap top-k. Documents reach the heap
        //    in docID order with scores summed in ascending term order, so
        //    the hits equal the shared reference evaluator's bit for bit.
        let mut heap = TopK::new(k.max(1));
        let mut n_candidates = 0u64;
        let mut first_candidate = None;
        let norms = self.index.doc_norms();
        match groups.as_slice() {
            [list] if list.terms().len() == 1 => {
                // Single-term: the candidates ARE the decoded list in
                // docID order with their tfs, so score block-at-a-time with
                // the shared kernel and sift into the heap. A one-term
                // score is exactly `term_score`.
                let idf = self.index.list(list.terms()[0]).idf();
                let bm25 = *self.index.bm25();
                let mut block_scores = ScoreScratch::new();
                for (cd, ct) in list.docs().chunks(128).zip(list.tfs().chunks(128)) {
                    bm25.score_block(idf, cd, ct, norms, &mut block_scores);
                    heap.sift_block(cd, block_scores.scores());
                }
                n_candidates = list.len() as u64;
                first_candidate = list.docs().first().copied();
            }
            _ => union_scored(self.index, &groups, |docs, scores| {
                first_candidate = first_candidate.or(docs.first().copied());
                n_candidates += docs.len() as u64;
                heap.sift_block(docs, scores);
            }),
        }
        if let Some(first) = first_candidate {
            // Norms on the CPU flow through a 38.5 MB LLC that captures the
            // reuse; charge one streaming pass over the touched norms
            // rather than per-document device-granule random reads (which
            // is what makes Lucene compute-bound while the accelerators,
            // which have no such cache, pay per access).
            mem.access(
                self.image.norm_addr(first),
                n_candidates * 4,
                AccessKind::Read,
                AccessCategory::LdScore,
                PatternHint::Sequential,
                0,
            );
        }
        eval.docs_scored = n_candidates;
        eval.topk_inserts = heap.inserts();

        // 4) Cost model: compute + memory (additive — the out-of-order
        //    core overlaps poorly with pointer-chasing postings traffic,
        //    and this is what reproduces the paper's ≤15 % DRAM delta).
        let c = &self.config.cost;
        let compute = postings_decoded as f64 * c.cycles_per_posting
            + merge_steps as f64 * c.cycles_per_merge_step
            + n_candidates as f64 * c.cycles_per_scored_doc
            + heap.inserts() as f64 * c.cycles_per_heap_op
            + c.query_overhead;
        // Memory cycles are modeled at 1 GHz (GB/s == B/cycle); convert to
        // host cycles.
        let mem_cycles_host = mem.stats().last_done_cycle as f64 * self.config.clock_ghz;
        let cycles = (compute + mem_cycles_host) as u64;

        Ok(QueryOutcome {
            hits: heap.into_hits(),
            cycles,
            mem: mem.take_stats(),
            eval,
        })
    }

    /// Pure-union execution under the configured pruning algorithm: the
    /// portable evaluator drives the traversal, [`LucenePruneSink`]
    /// charges the memory system, and the cost model prices the (now
    /// smaller) decode/merge/score/heap work with the same constants as
    /// the exhaustive collector.
    fn execute_pruned(&self, plan: &QueryPlan, k: usize) -> Result<QueryOutcome, Error> {
        let mut mem = MemorySim::new(self.config.memory.clone());
        let mut eval = EvalCounts::default();
        let ids: Vec<TermId> = plan.groups().iter().map(|g| g[0]).collect();
        let mut sink = LucenePruneSink {
            image: self.image,
            mem: &mut mem,
            eval: &mut eval,
            postings_decoded: 0,
        };
        let outcome =
            prune::pruned_union_topk(self.index, &ids, self.config.algorithm, k, &mut sink)?;
        let postings_decoded = sink.postings_decoded;
        eval.topk_inserts = outcome.topk_inserts;

        let c = &self.config.cost;
        let compute = postings_decoded as f64 * c.cycles_per_posting
            + eval.comparisons as f64 * c.cycles_per_merge_step
            + eval.docs_scored as f64 * c.cycles_per_scored_doc
            + eval.topk_inserts as f64 * c.cycles_per_heap_op
            + c.query_overhead;
        let mem_cycles_host = mem.stats().last_done_cycle as f64 * self.config.clock_ghz;
        let cycles = (compute + mem_cycles_host) as u64;
        Ok(QueryOutcome {
            hits: outcome.hits,
            cycles,
            mem: mem.take_stats(),
            eval,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use boss_index::{reference, IndexBuilder};

    fn corpus() -> InvertedIndex {
        corpus_of(700)
    }

    fn corpus_of(n_docs: u32) -> InvertedIndex {
        let docs: Vec<String> = (0u32..n_docs)
            .map(|i| {
                let mut t = String::from("x");
                let h = i.wrapping_mul(2654435761);
                if h % 2 == 0 {
                    t.push_str(" aa");
                }
                if h % 3 == 0 {
                    t.push_str(" bb");
                }
                if h % 7 == 0 {
                    t.push_str(" cc cc");
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
    fn matches_reference() {
        // 9 000 documents span three `union_scored` windows.
        for idx in [corpus(), corpus_of(9_000)] {
            let engine = LuceneEngine::new(&idx, LuceneConfig::default());
            let t = |s: &str| QueryExpr::term(s);
            for q in [
                t("aa"),
                QueryExpr::and([t("aa"), t("bb")]),
                QueryExpr::or([t("aa"), t("cc")]),
                QueryExpr::and([t("aa"), QueryExpr::or([t("bb"), t("cc")])]),
            ] {
                let got = engine.execute(&q, 10).unwrap();
                assert_eq!(got.hits, reference::evaluate(&idx, &q, 10).unwrap(), "{q}");
            }
        }
    }

    #[test]
    fn compute_bound_dram_delta_small() {
        let idx = corpus();
        let scm = LuceneEngine::new(&idx, LuceneConfig::default());
        let dram = LuceneEngine::new(
            &idx,
            LuceneConfig::default().on_memory(MemoryConfig::host_ddr4_6ch()),
        );
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let t_scm = scm.execute(&q, 10).unwrap().cycles as f64;
        let t_dram = dram.execute(&q, 10).unwrap().cycles as f64;
        assert!(t_dram <= t_scm);
        assert!(
            t_scm / t_dram < 1.25,
            "Lucene is compute-bound: SCM {} vs DRAM {}",
            t_scm,
            t_dram
        );
    }

    #[test]
    fn exhaustive_work_counts() {
        let idx = corpus();
        let engine = LuceneEngine::new(&idx, LuceneConfig::default());
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let out = engine.execute(&q, 10).unwrap();
        let cand = reference::candidates(&idx, &q).unwrap();
        assert_eq!(out.eval.docs_scored, cand.len() as u64);
        assert!(out.mem.bytes(AccessCategory::LdList) > 0);
        assert!(out.mem.bytes(AccessCategory::LdScore) >= cand.len() as u64 * 4);
    }

    #[test]
    fn unknown_term_errors() {
        let idx = corpus();
        let engine = LuceneEngine::new(&idx, LuceneConfig::default());
        assert!(engine.execute(&QueryExpr::term("zzz"), 3).is_err());
    }

    #[test]
    fn pruned_unions_match_reference_on_all_algorithms() {
        let idx = corpus();
        let t = |s: &str| QueryExpr::term(s);
        let queries = [
            QueryExpr::or([t("aa"), t("cc")]),
            QueryExpr::or([t("aa"), t("bb"), t("cc"), t("x")]),
        ];
        for algo in boss_index::ALL_ALGORITHMS {
            let engine = LuceneEngine::new(&idx, LuceneConfig::default().with_algorithm(algo));
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
        let base = LuceneEngine::new(&idx, LuceneConfig::default())
            .execute(&q, 10)
            .unwrap();
        assert_eq!(base.eval.docs_skipped_prune, 0);
        assert_eq!(base.eval.blocks_skipped_prune, 0);
        for algo in boss_index::ALL_ALGORITHMS {
            if !algo.prunes() {
                continue;
            }
            let engine = LuceneEngine::new(&idx, LuceneConfig::default().with_algorithm(algo));
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
            let a = LuceneEngine::new(&idx, LuceneConfig::default())
                .execute(q, 10)
                .unwrap();
            let b = LuceneEngine::new(
                &idx,
                LuceneConfig::default().with_algorithm(QueryAlgorithm::BlockMaxMaxScore),
            )
            .execute(q, 10)
            .unwrap();
            assert_eq!(a.hits, b.hits, "{q}");
            assert_eq!(a.eval, b.eval, "{q}");
            assert_eq!(a.mem, b.mem, "{q}");
            assert_eq!(a.cycles, b.cycles, "{q}");
        }
    }
}
