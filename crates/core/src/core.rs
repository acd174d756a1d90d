//! One BOSS core: executes a normalized [`QueryPlan`] through the
//! fetch → decompress → set-op → score → top-k pipeline and accounts the
//! cycles each module consumed.
//!
//! Timing uses the bottleneck-stage model described in `DESIGN.md`: the
//! pipeline is fully overlapped (Section IV-C), so a query's latency is
//! the maximum over the module-level cycle totals — memory (through the
//! shared channel model), decompression (per module, since a list is bound
//! to one decompressor), set operations, scoring, and top-k — plus fixed
//! per-query overhead.

use crate::config::{BossConfig, EtMode};
use crate::fetch::{ExecCtx, ListCursor};
use crate::intersect::intersect_group;
use crate::plan::QueryPlan;
use crate::prune::pruned_union_topk;
use crate::stats::QueryOutcome;
use crate::union::{union_topk, BulkScratch, UnionStream};
use boss_index::layout::IndexImage;
use boss_index::{InvertedIndex, QueryAlgorithm, TopK};
use boss_scm::AccessCategory;

/// Reusable per-core (or per-worker) query buffers: the top-k queue and
/// the bulk scoring scratch. Recycling these across the queries of a
/// batch removes the per-query heap allocations from the hot path;
/// results are unaffected ([`TopK::reset`] restores a pristine queue).
#[derive(Debug, Default)]
pub struct CoreScratch {
    topk: Option<TopK>,
    bulk: BulkScratch,
}

impl CoreScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        CoreScratch::default()
    }
}

/// One BOSS core (Figure 4(b)): block fetch, four decompression modules,
/// intersection and union modules, four scoring modules and a top-k queue.
#[derive(Debug)]
pub struct BossCore {
    config: BossConfig,
}

impl BossCore {
    /// Creates an idle core.
    pub fn new(config: BossConfig) -> Self {
        BossCore { config }
    }

    /// The core's configuration.
    pub fn config(&self) -> &BossConfig {
        &self.config
    }

    /// Overrides the early-termination mode (the device uses this to run
    /// host-merged subqueries without pruning).
    pub(crate) fn set_et_mode(&mut self, et: EtMode) {
        self.config.et_mode = et;
    }

    /// Overrides the dynamic-pruning query algorithm (the device uses
    /// this to force host-merged subqueries onto the exhaustive plan).
    pub(crate) fn set_algorithm(&mut self, algorithm: QueryAlgorithm) {
        self.config.algorithm = algorithm;
    }

    /// Executes one planned query against `index` laid out at `image`,
    /// returning hits, cycles and traffic.
    ///
    /// # Errors
    ///
    /// Under the default [`crate::DegradePolicy::FailQuery`] policy a
    /// faulted simulated read ([`boss_index::Error::ReadFault`]) or a
    /// corrupt posting block (any other decode error) fails the query
    /// with a typed error. Under `SkipBlock` the affected blocks are
    /// dropped, counted in `eval.blocks_skipped_fault`, and the query
    /// completes on the surviving postings. Without a fault plan and with
    /// well-formed index data, this never errors.
    pub fn execute(
        &self,
        index: &InvertedIndex,
        image: &IndexImage,
        plan: &QueryPlan,
        k: usize,
    ) -> Result<QueryOutcome, boss_index::Error> {
        self.execute_with_scratch(index, image, plan, k, &mut CoreScratch::new())
    }

    /// [`BossCore::execute`] with caller-owned reusable query
    /// buffers, so a batch driver allocates the top-k queue and scoring
    /// scratch once per worker instead of once per query. Results are
    /// identical to the allocating paths.
    pub fn execute_with_scratch(
        &self,
        index: &InvertedIndex,
        image: &IndexImage,
        plan: &QueryPlan,
        k: usize,
        scratch: &mut CoreScratch,
    ) -> Result<QueryOutcome, boss_index::Error> {
        self.execute_with_scratch_seeded(index, image, plan, k, scratch, f32::NEG_INFINITY)
    }

    /// [`BossCore::execute_with_scratch`] with an externally seeded
    /// top-k score floor ([`TopK::seed_cutoff`]). A sharded coordinator
    /// passes the running k-th score of its scatter-gather merge so a
    /// later shard's pruning plan can skip against the global threshold
    /// before its local queue fills; `f32::NEG_INFINITY` (what the plain
    /// entry points pass) restores unseeded behavior exactly.
    pub fn execute_with_scratch_seeded(
        &self,
        index: &InvertedIndex,
        image: &IndexImage,
        plan: &QueryPlan,
        k: usize,
        scratch: &mut CoreScratch,
        floor: f32,
    ) -> Result<QueryOutcome, boss_index::Error> {
        let mut ctx = ExecCtx::new(index, image, &self.config);
        let fill = self.config.timing.decomp_fill;

        // Intersections first (Section IV-B "Mixed Query"), then one
        // union+scoring pass over all group streams. Early termination in
        // the union stage applies to union-bearing queries; a pure
        // intersection scores all of its (already small) matches, as the
        // paper's ET only targets OR processing.
        let et = if plan.is_pure_intersection() {
            EtMode::Exhaustive
        } else {
            self.config.et_mode
        };

        let mut streams: Vec<UnionStream<'_>> = Vec::with_capacity(plan.groups().len());
        for (gi, group) in plan.groups().iter().enumerate() {
            if group.len() == 1 {
                let unit = gi % ctx.dec_cycles.len();
                streams.push(UnionStream::List(ListCursor::new(
                    &mut ctx, group[0], unit, fill,
                )));
            } else {
                let m = intersect_group(&mut ctx, group, fill)?;
                streams.push(UnionStream::Mat(m));
            }
        }

        let CoreScratch { topk, bulk } = scratch;
        let topk = topk.get_or_insert_with(|| TopK::new(k));
        topk.reset(k);
        topk.seed_cutoff(floor);
        // A pruning algorithm replaces the union traversal wholesale;
        // pure intersections keep the existing path (their matches are
        // already small), mirroring the ET gate above.
        if self.config.algorithm.prunes() && !plan.is_pure_intersection() {
            pruned_union_topk(&mut ctx, streams, self.config.algorithm, topk, bulk)?;
        } else {
            union_topk(&mut ctx, streams, et.into(), topk, bulk)?;
        }

        // The top-k list crosses the shared interconnect: 8 B per entry
        // (docID + score), written once at the end of the query.
        let result_bytes = (topk.len() as u64 * 8).max(8);
        ctx.write(
            image.end_addr() + (4 << 20),
            result_bytes,
            AccessCategory::StResult,
        );

        let cycles = self.pipeline_cycles(&ctx, plan);
        Ok(QueryOutcome {
            hits: topk.hits().to_vec(),
            cycles,
            mem: ctx.mem.take_stats(),
            eval: ctx.eval,
        })
    }

    /// Query latency under the configured fidelity.
    fn pipeline_cycles(&self, ctx: &ExecCtx<'_>, plan: &QueryPlan) -> u64 {
        let t = &self.config.timing;
        let t_mem = ctx.mem.stats().last_done_cycle;
        // Intra-query scoring parallelism is limited to one scoring module
        // per query term (the Figure 13 discussion).
        let eff_scorers = (self.config.scorers_per_core as usize)
            .min(plan.n_distinct_terms())
            .max(1) as u64;
        match t.fidelity {
            crate::pipeline::TimingFidelity::Roofline => {
                let t_dec = ctx.dec_cycles.iter().copied().max().unwrap_or(0);
                let t_setop = (ctx.eval.comparisons as f64 * t.cycles_per_comparison
                    + ctx.eval.pivot_rounds as f64 * t.cycles_per_pivot_round)
                    as u64;
                let t_score = (ctx.scored as f64 * t.cycles_per_score / eff_scorers as f64) as u64
                    + t.scoring_fill;
                let t_topk = (ctx.eval.topk_inserts as f64 * t.cycles_per_topk_insert) as u64;
                t_mem.max(t_dec).max(t_setop).max(t_score).max(t_topk) + t.query_overhead
            }
            crate::pipeline::TimingFidelity::Pipelined => {
                let counts = crate::pipeline::ReplayCounts {
                    scored: ctx.scored,
                    comparisons: ctx.eval.comparisons,
                    pivot_rounds: ctx.eval.pivot_rounds,
                    topk_inserts: ctx.eval.topk_inserts,
                    scorers: eff_scorers,
                };
                let replayed = crate::pipeline::replay(
                    &ctx.trace,
                    &counts,
                    self.config.decompressors_per_core as usize,
                    t.cycles_per_comparison,
                    t.cycles_per_score,
                    t.cycles_per_topk_insert,
                    t.cycles_per_pivot_round,
                );
                // Norm loads and result writes are not in the block trace;
                // the memory completion time covers them.
                replayed.max(t_mem) + t.scoring_fill + t.query_overhead
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boss_index::{reference, IndexBuilder, QueryExpr};

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..1000)
            .map(|i| {
                let mut t = String::from("common");
                let h = i.wrapping_mul(2246822519);
                if h % 2 == 0 {
                    t.push_str(" aa");
                }
                if h % 3 == 0 {
                    t.push_str(" bb bb");
                }
                if h % 5 == 0 {
                    t.push_str(" cc");
                }
                if h % 13 == 0 {
                    t.push_str(" dd dd dd");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    fn check(expr: &QueryExpr, k: usize, et: EtMode) {
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let cfg = BossConfig::default().with_et(et).with_k(k);
        let core = BossCore::new(cfg.clone());
        let plan = QueryPlan::from_expr(&idx, expr, &cfg).unwrap();
        let got = core.execute(&idx, &image, &plan, k).unwrap();
        let expect = reference::evaluate(&idx, expr, k).unwrap();
        assert_eq!(got.hits, expect, "{expr} k={k} {et:?}");
        assert!(got.cycles > 0);
        assert!(got.mem.total_bytes() > 0);
    }

    #[test]
    fn q1_term() {
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            check(&QueryExpr::term("bb"), 10, et);
        }
    }

    #[test]
    fn q2_and() {
        let q = QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        for et in [EtMode::Exhaustive, EtMode::Full] {
            check(&q, 20, et);
        }
    }

    #[test]
    fn q3_or() {
        let q = QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("dd")]);
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            check(&q, 15, et);
        }
    }

    #[test]
    fn q4_four_way_and() {
        let q = QueryExpr::and([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
            QueryExpr::term("common"),
        ]);
        check(&q, 50, EtMode::Full);
    }

    #[test]
    fn q5_four_way_or() {
        let q = QueryExpr::or([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
            QueryExpr::term("dd"),
        ]);
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            check(&q, 10, et);
        }
    }

    #[test]
    fn q6_mixed() {
        let q = QueryExpr::and([
            QueryExpr::term("aa"),
            QueryExpr::or([
                QueryExpr::term("bb"),
                QueryExpr::term("cc"),
                QueryExpr::term("dd"),
            ]),
        ]);
        for et in [EtMode::Exhaustive, EtMode::Full] {
            check(&q, 25, et);
        }
    }

    #[test]
    fn et_reduces_cycles_and_traffic_for_unions() {
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let q = QueryExpr::or([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
            QueryExpr::term("dd"),
        ]);
        let run = |et: EtMode| {
            let cfg = BossConfig::default().with_et(et).with_k(10);
            let core = BossCore::new(cfg.clone());
            let plan = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
            core.execute(&idx, &image, &plan, 10).unwrap()
        };
        let ex = run(EtMode::Exhaustive);
        let full = run(EtMode::Full);
        assert!(full.eval.docs_scored < ex.eval.docs_scored);
        assert!(full.cycles <= ex.cycles);
        assert!(full.mem.total_bytes() <= ex.mem.total_bytes());
    }

    #[test]
    fn scratch_reuse_changes_nothing_observable() {
        // Whole-query invariance: cycles, traffic, counters, and hits are
        // bit-identical whether each query gets a fresh CoreScratch or
        // one is reused across all of them.
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let queries = [
            QueryExpr::term("bb"),
            QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("dd")]),
            QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]),
            QueryExpr::and([
                QueryExpr::term("cc"),
                QueryExpr::or([QueryExpr::term("bb"), QueryExpr::term("dd")]),
            ]),
        ];
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let mut scratch = CoreScratch::new();
            for q in &queries {
                for k in [5usize, 300] {
                    let run_with = |scratch: &mut CoreScratch| {
                        let cfg = BossConfig::default().with_et(et).with_k(k);
                        let core = BossCore::new(cfg.clone());
                        let plan = QueryPlan::from_expr(&idx, q, &cfg).unwrap();
                        core.execute_with_scratch(&idx, &image, &plan, k, scratch)
                            .unwrap()
                    };
                    let fresh = run_with(&mut CoreScratch::new());
                    let reused = run_with(&mut scratch);
                    let label = format!("{q} k={k} {et:?}");
                    assert_eq!(fresh.hits, reused.hits, "hits {label}");
                    assert_eq!(fresh.eval, reused.eval, "eval {label}");
                    assert_eq!(fresh.mem, reused.mem, "mem {label}");
                    assert_eq!(fresh.cycles, reused.cycles, "cycles {label}");
                }
            }
        }
    }

    #[test]
    fn every_algorithm_matches_reference_on_every_query_shape() {
        // The signature invariant, at the core level: each pruning plan
        // returns the exhaustive oracle's top-k bit for bit, across
        // query shapes (term, union, intersection, mixed) and k.
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let queries = [
            QueryExpr::term("bb"),
            QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("dd")]),
            QueryExpr::or([
                QueryExpr::term("aa"),
                QueryExpr::term("bb"),
                QueryExpr::term("cc"),
                QueryExpr::term("dd"),
            ]),
            QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]),
            QueryExpr::and([
                QueryExpr::term("aa"),
                QueryExpr::or([
                    QueryExpr::term("bb"),
                    QueryExpr::term("cc"),
                    QueryExpr::term("dd"),
                ]),
            ]),
        ];
        for q in &queries {
            for k in [1usize, 10, 300] {
                let expect = reference::evaluate(&idx, q, k).unwrap();
                for algo in boss_index::ALL_ALGORITHMS {
                    let cfg = BossConfig::default().with_k(k).with_algorithm(algo);
                    let core = BossCore::new(cfg.clone());
                    let plan = QueryPlan::from_expr(&idx, q, &cfg).unwrap();
                    let got = core.execute(&idx, &image, &plan, k).unwrap();
                    assert_eq!(got.hits, expect, "{q} k={k} {algo}");
                }
            }
        }
    }

    #[test]
    fn pruned_plans_skip_work_and_attribute_it() {
        // A pruning plan on a small-k union scores fewer documents than
        // the exhaustive traversal and books every saving under the
        // dedicated prune counters; the exhaustive plan keeps those
        // counters at zero in every ET mode (the Figure 14/15
        // invariance).
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let q = QueryExpr::or([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
            QueryExpr::term("dd"),
        ]);
        let run = |algo: boss_index::QueryAlgorithm, et: EtMode| {
            let cfg = BossConfig::default()
                .with_k(10)
                .with_et(et)
                .with_algorithm(algo);
            let core = BossCore::new(cfg.clone());
            let plan = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
            core.execute(&idx, &image, &plan, 10).unwrap()
        };
        let ex = run(QueryAlgorithm::Exhaustive, EtMode::Exhaustive);
        assert_eq!(ex.eval.docs_skipped_prune, 0);
        assert_eq!(ex.eval.blocks_skipped_prune, 0);
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            let o = run(QueryAlgorithm::Exhaustive, et);
            assert_eq!(o.eval.docs_skipped_prune, 0, "{et:?}");
            assert_eq!(o.eval.blocks_skipped_prune, 0, "{et:?}");
        }
        for algo in boss_index::ALL_ALGORITHMS {
            if !algo.prunes() {
                continue;
            }
            let o = run(algo, EtMode::Full);
            assert!(
                o.eval.docs_scored < ex.eval.docs_scored,
                "{algo} should score fewer docs: {} vs {}",
                o.eval.docs_scored,
                ex.eval.docs_scored
            );
            assert!(o.eval.docs_skipped_prune > 0, "{algo} attributes skips");
            assert_eq!(o.eval.docs_skipped_wand, 0, "{algo} books under prune");
            assert_eq!(o.eval.docs_skipped_block, 0, "{algo} books under prune");
            assert!(o.eval.blocks_fetched <= ex.eval.blocks_fetched, "{algo}");
        }
    }

    #[test]
    fn pruned_plans_leave_pure_intersections_untouched() {
        // `algorithm` only replaces the union traversal; a pure
        // intersection's outcome is bit-identical whatever the plan.
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let q = QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]);
        let run = |algo: boss_index::QueryAlgorithm| {
            let cfg = BossConfig::default().with_k(20).with_algorithm(algo);
            let core = BossCore::new(cfg.clone());
            let plan = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
            core.execute(&idx, &image, &plan, 20).unwrap()
        };
        let base = run(QueryAlgorithm::Exhaustive);
        for algo in boss_index::ALL_ALGORITHMS {
            let got = run(algo);
            assert_eq!(got.hits, base.hits, "{algo}");
            assert_eq!(got.eval, base.eval, "{algo}");
            assert_eq!(got.mem, base.mem, "{algo}");
            assert_eq!(got.cycles, base.cycles, "{algo}");
        }
    }

    #[test]
    fn seeded_floor_prunes_more_but_keeps_at_or_above_floor_hits() {
        // With a floor seeded from a (simulated) earlier shard, the plan
        // may drop hits at or below the floor (a tie at the running k-th
        // loses to the earlier shard's smaller-docID incumbents) but
        // must keep every hit strictly above it, in the same order — the
        // contract the sharded scatter-gather merge relies on.
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let q = QueryExpr::or([
            QueryExpr::term("aa"),
            QueryExpr::term("bb"),
            QueryExpr::term("cc"),
            QueryExpr::term("dd"),
        ]);
        let k = 10;
        let expect = reference::evaluate(&idx, &q, k).unwrap();
        // Floor between the 3rd and 4th score, so a strict subset
        // survives any pruning.
        let floor = expect[3].score;
        for algo in boss_index::ALL_ALGORITHMS {
            let cfg = BossConfig::default().with_k(k).with_algorithm(algo);
            let core = BossCore::new(cfg.clone());
            let plan = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
            let got = core
                .execute_with_scratch_seeded(&idx, &image, &plan, k, &mut CoreScratch::new(), floor)
                .unwrap();
            let kept: Vec<_> = expect.iter().filter(|h| h.score > floor).collect();
            assert!(
                got.hits.len() >= kept.len(),
                "{algo}: floor must not drop above-floor hits"
            );
            for (g, e) in got.hits.iter().zip(&kept) {
                assert_eq!(&g, e, "{algo}");
            }
        }
    }

    #[test]
    fn topk_result_traffic_is_k_entries() {
        let idx = corpus();
        let image = IndexImage::new(&idx);
        let cfg = BossConfig::default().with_k(10);
        let core = BossCore::new(cfg.clone());
        let plan = QueryPlan::from_expr(&idx, &QueryExpr::term("aa"), &cfg).unwrap();
        let out = core.execute(&idx, &image, &plan, 10).unwrap();
        assert_eq!(out.mem.bytes(AccessCategory::StResult), 80, "10 hits x 8 B");
    }
}
