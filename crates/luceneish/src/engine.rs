//! The Lucene-like engine: a configuration, the sink that prices the
//! small-versus-small traversal of [`boss_index::svs`] on the host's
//! memory system, and the calibrated cycle cost model.

use boss_compress::Scheme;
use boss_core::{EngineSetup, EvalCounts, QueryOutcome, QueryPlan};
use boss_index::cursor::{ListSink, SkipReason};
use boss_index::layout::IndexImage;
use boss_index::prune::PruneSink;
use boss_index::svs::{self, SvsSink};
use boss_index::{BlockMeta, DocId, Error, InvertedIndex, QueryExpr, BLOCK_META_BYTES};
use boss_scm::AccessCategory::{self, LdList, LdMeta, LdScore};
use boss_scm::{AccessKind, MemoryConfig, MemorySim, PatternHint};

/// Host clock, GHz (Table I: Xeon 8280M at 2.7).
pub const HOST_CLOCK_GHZ: f64 = 2.7;

// CPU cycles charged per unit of work, at the host clock, calibrated
// against the paper's anchors: Lucene is compute-bound (DRAM buys
// ≤15 %), and 8 BOSS cores beat 8 Lucene cores by ~7.5–8.7× on the two
// corpora.

/// Cycles per decoded posting (decompression + iterator bookkeeping).
const CYCLES_PER_POSTING: f64 = 12.0;
/// Cycles per set-operation step.
const CYCLES_PER_MERGE_STEP: f64 = 8.0;
/// Cycles per scored document (BM25 + collector bookkeeping).
const CYCLES_PER_SCORED_DOC: f64 = 48.0;
/// Cycles per heap (priority-queue) update.
const CYCLES_PER_HEAP_OP: f64 = 16.0;
/// Fixed per-query cycles (parsing, weights, segment setup).
const QUERY_OVERHEAD: f64 = 50_000.0;

/// Lucene host configuration (Table I "Host Processor"); the clock and
/// the cost model are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct LuceneConfig {
    /// Worker threads (the paper's 8-thread / 8-core setup), the host
    /// memory system, and the traversal of pure union queries: the
    /// default ([`boss_core::QueryAlgorithm::Exhaustive`]) keeps the
    /// score-everything collector, any other value routes unions through
    /// the portable pruned evaluator (`boss_index::prune`) with this
    /// engine's cost model.
    pub setup: EngineSetup,
}

impl Default for LuceneConfig {
    fn default() -> Self {
        Self::with_threads(8)
    }
}

boss_core::setup_builders!(LuceneConfig);

impl LuceneConfig {
    /// `n` threads on the host's six SCM channels, exhaustive traversal.
    pub fn with_threads(n: u32) -> Self {
        LuceneConfig {
            setup: EngineSetup::new(n, MemoryConfig::host_scm_6ch()),
        }
    }
}

/// One query's traversal priced on the host, the way Lucene's scorers
/// run it: within an AND clause the lead iterator is the smallest list,
/// decoded whole, and the others advance with skip data, decoding only
/// the blocks the lead reaches; skip data streams sequentially, surviving
/// blocks are fetched with pattern auto-detection and their postings
/// counted toward the per-posting decode cost. Set-operation steps are
/// merge steps (pivot rounds on a pruned union).
struct Host<'r> {
    image: IndexImage<'r>,
    mem: MemorySim,
    eval: EvalCounts,
    postings_decoded: u64,
    /// The query runs as a pruned union: decoded postings are not merge
    /// steps, and each scored document loads its own norm.
    pruned: bool,
    /// The first exhaustively scored document, where the norm stream
    /// starts.
    first_candidate: Option<DocId>,
}

impl Host<'_> {
    fn read(&mut self, addr: u64, bytes: u64, category: AccessCategory) {
        let pattern = PatternHint::Sequential;
        self.mem
            .access(addr, bytes, AccessKind::Read, category, pattern, 0);
    }

    /// The norms of exhaustively scored documents flow through a 38.5 MB
    /// LLC that captures the reuse: one streaming pass over the touched
    /// norms rather than per-document device-granule random reads (which
    /// is what makes Lucene compute-bound while the accelerators, which
    /// have no such cache, pay per access).
    fn stream_norms(&mut self) {
        if let Some(first) = self.first_candidate {
            let bytes = self.eval.docs_scored * 4;
            self.read(self.image.norm_addr(first), bytes, LdScore);
        }
    }
}

impl ListSink for Host<'_> {
    fn meta_read(&mut self, slot: usize, addr: u64, records: u64) {
        let bytes = (records * BLOCK_META_BYTES).max(1);
        self.read(addr, bytes, LdMeta);
        self.eval.meta_read(slot, addr, records);
    }

    /// The lead list: its skip data, then its postings, as two streams.
    fn list_streamed(
        &mut self,
        slot: usize,
        blocks: &[BlockMeta],
        meta_addr: u64,
        data_addr: u64,
        data_bytes: u64,
    ) {
        let n_blocks = blocks.len() as u64;
        self.read(meta_addr, (n_blocks * BLOCK_META_BYTES).max(1), LdMeta);
        self.read(data_addr, data_bytes.max(1), LdList);
        self.eval
            .list_streamed(slot, blocks, meta_addr, data_addr, data_bytes);
        let postings: u64 = blocks.iter().map(|m| m.count() as u64).sum();
        self.postings_decoded += postings;
        self.eval.comparisons += postings;
    }

    fn block_fetch(&mut self, _slot: usize, addr: u64, meta: &BlockMeta) -> Result<(), Error> {
        let bytes = u64::from(meta.len).max(1);
        self.mem
            .access(addr, bytes, AccessKind::Read, LdList, PatternHint::Auto, 0);
        Ok(())
    }

    fn block_decoded(&mut self, slot: usize, block: usize, scheme: Scheme, meta: &BlockMeta) {
        self.eval.block_decoded(slot, block, scheme, meta);
        self.postings_decoded += meta.count() as u64;
        if !self.pruned {
            self.eval.comparisons += meta.count() as u64;
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

impl PruneSink for Host<'_> {
    fn doc_abandoned(&mut self) {
        self.eval.doc_abandoned();
    }

    fn doc_scored(&mut self, doc: DocId) {
        self.read(self.image.norm_addr(doc), 4, LdScore);
        self.eval.doc_scored(doc);
    }

    fn round(&mut self) {
        self.eval.comparisons += 1;
    }
}

/// A join's merge steps are its input plus the postings it decoded, and
/// the disjunction over clauses compares each clause match once.
impl SvsSink for Host<'_> {
    fn pruned_union(&mut self) {
        self.pruned = true;
    }

    fn joined(&mut self, input: usize, _output: usize) {
        self.eval.comparisons += input as u64;
    }

    fn group_matched(&mut self, matches: usize) {
        self.eval.comparisons += matches as u64;
    }

    fn scored(&mut self, docs: &[DocId]) {
        self.first_candidate = self.first_candidate.or(docs.first().copied());
        self.eval.scored(docs);
    }
}

/// The Lucene-like engine bound to an index. Stateless between queries,
/// so a clone is a fresh engine; clones share the image layout.
#[derive(Debug, Clone)]
pub struct LuceneEngine<'a> {
    index: &'a InvertedIndex,
    image: IndexImage<'a>,
    config: LuceneConfig,
}

impl<'a> LuceneEngine<'a> {
    /// Binds the engine to an index.
    pub fn new(index: &'a InvertedIndex, config: LuceneConfig) -> Self {
        LuceneEngine {
            index,
            image: IndexImage::new(index),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LuceneConfig {
        &self.config
    }

    /// Executes one query on one thread: the [`svs::search`] traversal
    /// priced on the host, scoring every candidate into a heap top-k.
    /// Documents reach the heap in docID order with scores summed in
    /// ascending term order, so the hits equal the shared reference
    /// evaluator's bit for bit.
    ///
    /// `QueryOutcome::cycles` is in *host CPU* cycles, at
    /// [`HOST_CLOCK_GHZ`].
    ///
    /// # Errors
    ///
    /// Same planning errors as the accelerators.
    pub fn execute(&self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        // Reuse the hardware planner's validation/normalization so all
        // three engines accept the same query language.
        let plan = QueryPlan::new(self.index, expr)?;
        let mut host = Host {
            image: self.image,
            mem: MemorySim::new(self.config.setup.memory.clone()),
            eval: EvalCounts::default(),
            postings_decoded: 0,
            pruned: false,
            first_candidate: None,
        };
        let algorithm = self.config.setup.algorithm;
        let ranked = svs::search(self.index, plan.groups(), algorithm, k, &mut host)?;
        host.stream_norms();
        host.eval.topk_inserts = ranked.topk_inserts;

        // Cost model: compute + memory (additive — the out-of-order core
        // overlaps poorly with pointer-chasing postings traffic, and this
        // is what reproduces the paper's ≤15 % DRAM delta).
        let eval = &host.eval;
        let compute = host.postings_decoded as f64 * CYCLES_PER_POSTING
            + eval.comparisons as f64 * CYCLES_PER_MERGE_STEP
            + eval.docs_scored as f64 * CYCLES_PER_SCORED_DOC
            + eval.topk_inserts as f64 * CYCLES_PER_HEAP_OP
            + QUERY_OVERHEAD;
        // Memory cycles are modeled at 1 GHz (GB/s == B/cycle); convert to
        // host cycles.
        let mem_cycles_host = host.mem.stats().last_done_cycle as f64 * HOST_CLOCK_GHZ;
        Ok(QueryOutcome {
            hits: ranked.hits,
            cycles: (compute + mem_cycles_host) as u64,
            mem: host.mem.take_stats(),
            eval: host.eval,
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
}
