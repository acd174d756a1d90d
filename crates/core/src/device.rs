//! The BOSS device: command queue, query scheduler, and a set of cores
//! sharing one SCM memory node (Figure 4(a)).

use crate::config::BossConfig;
use crate::core::{BossCore, CoreScratch};
use crate::plan::QueryPlan;
use crate::stats::{EvalCounts, QueryOutcome};
use boss_index::layout::IndexImage;
use boss_index::{Error, InvertedIndex, QueryExpr};
use boss_scm::MemStats;
use serde::{Deserialize, Serialize};

/// Query-to-core scheduling policy of the query scheduler (Figure 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Queries dispatch in arrival order to the earliest-free core.
    #[default]
    Fifo,
    /// Shortest-job-first by estimated work (total document frequency of
    /// the plan's terms) — reduces makespan for skewed batches at the cost
    /// of potential starvation, which the ablation quantifies.
    Sjf,
}

/// Aggregate result of a query batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Makespan across cores, in core cycles.
    pub makespan_cycles: u64,
    /// Merged memory traffic.
    pub mem: MemStats,
    /// Merged evaluation counters.
    pub eval: EvalCounts,
}

impl BatchOutcome {
    /// Batch throughput in queries/second at `clock_ghz`.
    pub fn throughput_qps(&self, clock_ghz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / (self.makespan_cycles as f64 / (clock_ghz * 1e9))
    }

    /// Achieved memory bandwidth in GB/s over the makespan.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.mem.achieved_gbps(self.makespan_cycles)
    }
}

/// A BOSS device attached to one memory node holding `index`.
#[derive(Debug)]
pub struct BossDevice<'a> {
    index: &'a InvertedIndex,
    image: IndexImage,
    config: BossConfig,
    cores: Vec<BossCore>,
    /// Reusable query buffers (top-k queue + bulk scoring scratch),
    /// recycled across every query this device runs.
    scratch: CoreScratch,
}

impl<'a> BossDevice<'a> {
    /// Instantiates the device over an index (the `init()` intrinsic's
    /// image load is modeled by the [`IndexImage`] layout).
    pub fn new(index: &'a InvertedIndex, config: BossConfig) -> Self {
        let cores = (0..config.n_cores)
            .map(|_| BossCore::new(config.clone()))
            .collect();
        BossDevice {
            index,
            image: IndexImage::new(index),
            config,
            cores,
            scratch: CoreScratch::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &BossConfig {
        &self.config
    }

    /// The index image layout.
    pub fn image(&self) -> &IndexImage {
        &self.image
    }

    /// The index this device serves.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    /// Executes a query whose term count exceeds the 16-term hardware
    /// limit, the way Section IV-D describes: the host splits it into
    /// hardware-sized subqueries which BOSS processes *without pruning or
    /// top-k selection*, stores every subquery's scored candidates in host
    /// memory, and the host merges and selects the final top-k.
    ///
    /// Queries within the hardware limit are dispatched normally.
    /// Oversized queries are supported for pure unions (the realistic
    /// long-query case — TREC-style bags of words).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidQuery`] for oversized non-union shapes, plus the
    /// usual planning errors per subquery.
    pub fn search_host_merged(
        &mut self,
        expr: &QueryExpr,
        k: usize,
    ) -> Result<QueryOutcome, Error> {
        let terms = expr.terms();
        if terms.len() <= self.config.max_terms {
            return self.search_expr(expr, k);
        }
        let is_pure_union = matches!(expr, QueryExpr::Or(subs)
            if subs.iter().all(|s| matches!(s, QueryExpr::Term(_))));
        if !is_pure_union {
            return Err(Error::InvalidQuery {
                reason: format!(
                    "{}-term non-union queries exceed the {}-term hardware limit",
                    terms.len(),
                    self.config.max_terms
                ),
            });
        }
        // Host-side split into <=16-term subqueries.
        let exhaustive_k = self.index.n_docs() as usize;
        let original_et = self.config.et_mode;
        let original_algorithm = self.config.algorithm;
        // Subqueries run without pruning (their local cutoffs would be
        // wrong for the combined query) — both the ET machinery and any
        // dynamic-pruning plan are forced off.
        for c in &mut self.cores {
            c.set_et_mode(crate::config::EtMode::Exhaustive);
            c.set_algorithm(boss_index::QueryAlgorithm::Exhaustive);
        }
        let mut scores: std::collections::HashMap<boss_index::DocId, f32> =
            std::collections::HashMap::new();
        let mut cycles = 0u64;
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        let mut result = Ok(());
        for chunk in terms.chunks(self.config.max_terms) {
            let sub = QueryExpr::or(chunk.iter().map(|t| QueryExpr::term(*t)));
            match self.search_expr(&sub, exhaustive_k) {
                Ok(out) => {
                    cycles += out.cycles;
                    mem.merge(&out.mem);
                    eval.merge(&out.eval);
                    for h in out.hits {
                        *scores.entry(h.doc).or_insert(0.0) += h.score;
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        for c in &mut self.cores {
            c.set_et_mode(original_et);
            c.set_algorithm(original_algorithm);
        }
        result?;
        let mut hits: Vec<boss_index::SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| boss_index::SearchHit { doc, score })
            .collect();
        hits.sort_by(boss_index::SearchHit::ranking_cmp);
        hits.truncate(k);
        // Host merge cost: one pass over the gathered candidates.
        cycles += eval.docs_scored / 4;
        Ok(QueryOutcome {
            hits,
            cycles,
            mem,
            eval,
        })
    }

    /// Executes one query on an idle core.
    ///
    /// # Errors
    ///
    /// Returns planning errors ([`Error::UnknownTerm`],
    /// [`Error::InvalidQuery`]) without touching the cores.
    pub fn search_expr(&mut self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        self.search_expr_seeded(expr, k, f32::NEG_INFINITY)
    }

    /// [`BossDevice::search_expr`] with an externally seeded top-k score
    /// floor: a sharded coordinator passes the running k-th score of its
    /// scatter-gather merge so this device's pruning plan can skip
    /// against the global threshold from the first posting. Passing
    /// `f32::NEG_INFINITY` is exactly [`BossDevice::search_expr`].
    ///
    /// # Errors
    ///
    /// Same surface as [`BossDevice::search_expr`].
    pub fn search_expr_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        floor: f32,
    ) -> Result<QueryOutcome, Error> {
        let plan = QueryPlan::from_expr(self.index, expr, &self.config)?;
        self.cores[0].execute_with_scratch_seeded(
            self.index,
            &self.image,
            &plan,
            k,
            &mut self.scratch,
            floor,
        )
    }

    /// Runs a batch with greedy list scheduling: each query goes to the
    /// earliest-free core; a query whose plan has more than
    /// `max_terms_per_core` streams gangs the required number of cores
    /// (their union/intersection mergers chain, Section IV-D).
    ///
    /// # Errors
    ///
    /// Fails on the first unplannable query, before running anything.
    pub fn run_batch(&mut self, queries: &[QueryExpr], k: usize) -> Result<BatchOutcome, Error> {
        self.run_batch_with_policy(queries, k, SchedPolicy::Fifo)
    }

    /// [`BossDevice::run_batch`] with an explicit scheduling policy.
    ///
    /// Per-query outcomes are returned in *submission* order regardless of
    /// execution order.
    ///
    /// # Errors
    ///
    /// Fails on the first unplannable query, before running anything.
    pub fn run_batch_with_policy(
        &mut self,
        queries: &[QueryExpr],
        k: usize,
        policy: SchedPolicy,
    ) -> Result<BatchOutcome, Error> {
        let plans: Vec<QueryPlan> = queries
            .iter()
            .map(|q| QueryPlan::from_expr(self.index, q, &self.config))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..plans.len()).collect();
        if policy == SchedPolicy::Sjf {
            let estimate = |p: &QueryPlan| -> u64 {
                p.groups()
                    .iter()
                    .flatten()
                    .map(|&t| u64::from(self.index.list(t).df()))
                    .sum()
            };
            order.sort_by_key(|&i| estimate(&plans[i]));
        }
        for c in &mut self.cores {
            c.busy_until = 0;
        }
        let mut outcomes: Vec<Option<QueryOutcome>> = (0..plans.len()).map(|_| None).collect();
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        for &qi in &order {
            let plan = &plans[qi];
            let gang = plan
                .n_distinct_terms()
                .div_ceil(self.config.max_terms_per_core)
                .max(1);
            let gang = gang.min(self.cores.len());
            // Pick the `gang` earliest-free cores.
            let mut idx: Vec<usize> = (0..self.cores.len()).collect();
            idx.sort_by_key(|&i| self.cores[i].busy_until);
            let chosen = &idx[..gang];
            let start = chosen
                .iter()
                .map(|&i| self.cores[i].busy_until)
                .max()
                .expect("gang non-empty");
            let out = self.cores[chosen[0]].execute_with_scratch(
                self.index,
                &self.image,
                plan,
                k,
                &mut self.scratch,
            )?;
            let end = start + out.cycles;
            for &i in chosen {
                self.cores[i].busy_until = end;
            }
            mem.merge(&out.mem);
            eval.merge(&out.eval);
            outcomes[qi] = Some(out);
        }
        let outcomes: Vec<QueryOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every query executed"))
            .collect();
        // Bottleneck correction: per-query timing was simulated at full
        // node bandwidth (a core running alone); when many cores run, the
        // node can serve at most `channels` channel-cycles per cycle, so
        // the batch cannot finish faster than the aggregate occupancy
        // allows. max(core-limited, bandwidth-limited) is the roofline
        // that produces the saturation behaviour of Figures 9/10.
        let core_limited = self.cores.iter().map(|c| c.busy_until).max().unwrap_or(0);
        let bw_limited = mem.busy_cycles / u64::from(self.config.memory.channels).max(1);
        let makespan_cycles = core_limited.max(bw_limited);
        Ok(BatchOutcome {
            outcomes,
            makespan_cycles,
            mem,
            eval,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boss_index::{reference, IndexBuilder};

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..600)
            .map(|i| {
                let mut t = String::from("all");
                if i % 2 == 0 {
                    t.push_str(" even");
                }
                if i % 3 == 0 {
                    t.push_str(" three");
                }
                if i % 5 == 0 {
                    t.push_str(" five");
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
    fn single_query_matches_reference() {
        let idx = corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        let q = QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("five")]);
        let out = dev.search_expr(&q, 12).unwrap();
        assert_eq!(out.hits, reference::evaluate(&idx, &q, 12).unwrap());
    }

    #[test]
    fn batch_parallelism_shrinks_makespan() {
        let idx = corpus();
        let queries: Vec<QueryExpr> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    QueryExpr::term("even")
                } else {
                    QueryExpr::and([QueryExpr::term("three"), QueryExpr::term("five")])
                }
            })
            .collect();
        let mut dev1 = BossDevice::new(&idx, BossConfig::with_cores(1));
        let mut dev8 = BossDevice::new(&idx, BossConfig::with_cores(8));
        let b1 = dev1.run_batch(&queries, 10).unwrap();
        let b8 = dev8.run_batch(&queries, 10).unwrap();
        assert!(b8.makespan_cycles < b1.makespan_cycles);
        assert!(b8.throughput_qps(1.0) > b1.throughput_qps(1.0));
        assert_eq!(b1.outcomes.len(), 8);
        // Functional results identical across core counts.
        for (a, b) in b1.outcomes.iter().zip(&b8.outcomes) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn batch_merges_stats() {
        let idx = corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::with_cores(2));
        let queries = vec![QueryExpr::term("even"), QueryExpr::term("three")];
        let b = dev.run_batch(&queries, 5).unwrap();
        let sum: u64 = b.outcomes.iter().map(|o| o.mem.total_bytes()).sum();
        assert_eq!(b.mem.total_bytes(), sum);
        assert!(b.eval.docs_scored > 0);
        assert!(b.bandwidth_gbps() > 0.0);
    }

    #[test]
    fn unplannable_query_fails_cleanly() {
        let idx = corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        let err = dev.search_expr(&QueryExpr::term("missing"), 5).unwrap_err();
        assert!(matches!(err, Error::UnknownTerm { .. }));
        let err = dev
            .run_batch(&[QueryExpr::term("even"), QueryExpr::term("missing")], 5)
            .unwrap_err();
        assert!(matches!(err, Error::UnknownTerm { .. }));
    }

    #[test]
    fn wide_union_gangs_cores() {
        // 6 single-term groups -> 2 cores ganged per query.
        let idx = corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::with_cores(4));
        let q = QueryExpr::or(
            ["all", "even", "three", "five", "all", "even"]
                .iter()
                .map(|t| QueryExpr::term(*t)),
        );
        // Terms deduplicate to 4 -> fits one core; use truly distinct wider
        // union via a fresh corpus with more terms instead.
        let out = dev.search_expr(&q, 5).unwrap();
        assert_eq!(out.hits, reference::evaluate(&idx, &q, 5).unwrap());
    }
}

#[cfg(test)]
mod wide_query_tests {
    use super::*;
    use crate::config::EtMode;
    use boss_index::{reference, IndexBuilder, SearchHit};

    fn wide_corpus() -> InvertedIndex {
        // 20 distinct terms spread over 500 docs.
        let docs: Vec<String> = (0u32..500)
            .map(|i| {
                let mut t = String::from("base");
                for w in 0..20u32 {
                    if i.wrapping_mul(2654435761).wrapping_add(w * 97) % 9 == 0 {
                        t.push_str(&format!(" w{w:02}"));
                    }
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
    fn wide_union_matches_reference_approximately() {
        let idx = wide_corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        let q = QueryExpr::or((0..20).map(|w| QueryExpr::term(format!("w{w:02}"))));
        assert!(q.terms().len() > dev.config().max_terms);
        let got = dev.search_host_merged(&q, 50).unwrap();
        let expect = reference::evaluate(&idx, &q, 50).unwrap();
        // Chunked host merging re-associates the f32 sums, so scores can
        // differ in the last bits; documents and near-exact scores must
        // agree.
        let gd: Vec<u32> = got.hits.iter().map(|h| h.doc).collect();
        let ed: Vec<u32> = expect.iter().map(|h| h.doc).collect();
        assert_eq!(gd, ed);
        for (g, e) in got.hits.iter().zip(&expect) {
            assert!((g.score - e.score).abs() < 1e-3 * e.score.abs().max(1.0));
        }
        assert!(
            got.eval.docs_skipped_wand + got.eval.docs_skipped_block == 0,
            "no pruning in subqueries"
        );
    }

    #[test]
    fn wide_path_restores_et_mode() {
        let idx = wide_corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default().with_et(EtMode::Full).with_k(5));
        let q = QueryExpr::or((0..20).map(|w| QueryExpr::term(format!("w{w:02}"))));
        let _ = dev.search_host_merged(&q, 5).unwrap();
        // A narrow union afterwards must prune again.
        let narrow = QueryExpr::or((0..4).map(|w| QueryExpr::term(format!("w{w:02}"))));
        let out = dev.search_expr(&narrow, 5).unwrap();
        assert!(
            out.eval.docs_skipped_wand + out.eval.docs_skipped_block > 0,
            "ET restored"
        );
    }

    #[test]
    fn narrow_queries_pass_through() {
        let idx = wide_corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        let q = QueryExpr::term("base");
        let a = dev.search_host_merged(&q, 10).unwrap();
        let b = dev.search_expr(&q, 10).unwrap();
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn oversized_intersection_rejected() {
        let idx = wide_corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        let q = QueryExpr::and((0..20).map(|w| QueryExpr::term(format!("w{w:02}"))));
        assert!(dev.search_host_merged(&q, 10).is_err());
    }

    #[test]
    fn sixteen_term_intersection_runs_in_hardware() {
        let idx = wide_corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default());
        // 16-way intersection (may be empty; must agree with reference).
        let q = QueryExpr::and((0..16).map(|w| QueryExpr::term(format!("w{w:02}"))));
        let got = dev.search_expr(&q, 10).unwrap();
        let expect = reference::evaluate(&idx, &q, 10).unwrap();
        let gd: Vec<SearchHit> = got.hits;
        assert_eq!(gd, expect);
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;
    use boss_index::IndexBuilder;

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..800)
            .map(|i| {
                let mut t = String::from("huge"); // df = 800
                if i % 40 == 0 {
                    t.push_str(" tiny"); // df = 20
                }
                if i % 5 == 0 {
                    t.push_str(" mid");
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
    fn sjf_never_worse_than_fifo_for_skewed_tail() {
        let idx = corpus();
        // A long job submitted last under FIFO pushes the makespan out on
        // a 2-core device; SJF runs the short jobs around it.
        let queries: Vec<QueryExpr> = vec![
            QueryExpr::term("tiny"),
            QueryExpr::term("tiny"),
            QueryExpr::term("tiny"),
            QueryExpr::term("huge"),
            QueryExpr::term("huge"),
        ];
        let mut dev = BossDevice::new(&idx, BossConfig::with_cores(2));
        let fifo = dev
            .run_batch_with_policy(&queries, 10, SchedPolicy::Fifo)
            .unwrap();
        let sjf = dev
            .run_batch_with_policy(&queries, 10, SchedPolicy::Sjf)
            .unwrap();
        assert!(sjf.makespan_cycles <= fifo.makespan_cycles);
        // Results identical and in submission order under both policies.
        for (a, b) in fifo.outcomes.iter().zip(&sjf.outcomes) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn outcomes_in_submission_order_under_sjf() {
        let idx = corpus();
        let queries = vec![QueryExpr::term("huge"), QueryExpr::term("tiny")];
        let mut dev = BossDevice::new(&idx, BossConfig::with_cores(1));
        let batch = dev
            .run_batch_with_policy(&queries, 5, SchedPolicy::Sjf)
            .unwrap();
        // First outcome corresponds to "huge" (df 800) even though SJF ran
        // "tiny" first.
        assert!(batch.outcomes[0].eval.docs_scored > batch.outcomes[1].eval.docs_scored);
    }
}
