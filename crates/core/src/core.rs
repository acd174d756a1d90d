//! The core pipeline (Figure 4(b)): how a [`BossDevice`] executes one
//! query — plan, then fetch → decompress → set-op → score → top-k — and
//! accounts the cycles each module consumed.
//!
//! Timing uses the bottleneck-stage model described in `DESIGN.md`: the
//! pipeline is fully overlapped (Section IV-C), so a query's latency is
//! the maximum over the module-level cycle totals — memory (through the
//! shared channel model), decompression (per module, since a list is bound
//! to one decompressor), set operations, scoring, and top-k — plus fixed
//! per-query overhead.

use crate::config::{EtMode, DECOMPRESSORS_PER_CORE, SCORERS_PER_CORE};
use crate::device::BossDevice;
use crate::fetch::ExecCtx;
use crate::intersect::intersect_group;
use crate::pipeline::{replay, TimingFidelity};
use crate::plan::QueryPlan;
use crate::stats::QueryOutcome;
use boss_index::cursor::ListCursor;
use boss_index::prune::maxscore_union;
use boss_index::union::{union_topk, Rounds, UnionStream};
use boss_index::{Error, QueryAlgorithm, QueryExpr, TopK};
use boss_scm::AccessCategory;

// Per-module cycle costs at the 1 GHz core clock, after the module
// descriptions of Section IV-C. Decompression is not among them: each
// block is priced by the cost descriptor of the `boss-decomp`
// configuration that decodes it (see `fetch.rs`).

/// Cycles per set-operation comparison: one merge comparison per cycle
/// per intersection unit.
pub const CYCLES_PER_COMPARISON: f64 = 1.0;
/// Cycles per scored document per scoring module, fully pipelined once
/// the fixed-point divider is filled.
pub const CYCLES_PER_SCORE: f64 = 1.0;
/// One-time fill of the fixed-point divider pipeline per query.
pub const SCORING_FILL: u64 = 16;
/// Cycles per top-k shift-insert.
pub const CYCLES_PER_TOPK_INSERT: f64 = 1.0;
/// Cycles per WAND pivot-selection round in the union module (sorter +
/// score loader + pivot selector).
pub const CYCLES_PER_PIVOT_ROUND: f64 = 2.0;
/// Fixed per-query overhead: command decode, scheduling, drain.
pub const QUERY_OVERHEAD: u64 = 200;

impl BossDevice<'_> {
    /// Executes one query with the top-k score floor seeded at `floor`
    /// ([`TopK::seed_cutoff`]), returning hits, cycles and traffic. A
    /// sharded coordinator passes the running k-th score of its
    /// scatter-gather merge so this device's pruning plan can skip
    /// against the global threshold before its local queue fills;
    /// `f32::NEG_INFINITY` is exactly [`BossDevice::search_expr`].
    ///
    /// # Errors
    ///
    /// Planning errors ([`Error::UnknownTerm`], [`Error::InvalidQuery`])
    /// before anything executes; a query planned for `k == 0` executes
    /// nothing and finds nothing. Under the default
    /// [`crate::DegradePolicy::FailQuery`] policy a faulted simulated read
    /// ([`Error::ReadFault`]) or a corrupt posting block (any other decode
    /// error) fails the query with a typed error. Under `SkipBlock` the
    /// affected blocks are dropped, counted in
    /// `eval.blocks_skipped_fault`, and the query completes on the
    /// surviving postings. Without a fault plan and with well-formed
    /// index data, execution never errors.
    pub fn search_expr_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        floor: f32,
    ) -> Result<QueryOutcome, Error> {
        let plan = QueryPlan::from_expr(self.index, expr, &self.config)?;
        if k == 0 {
            return Ok(QueryOutcome::default());
        }
        let mut ctx = ExecCtx::new(self.index, &self.config)?;

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

        // A pruning algorithm replaces the union traversal wholesale;
        // pure intersections keep the existing path (their matches are
        // already small), mirroring the ET gate above. MaxScore runs the
        // loop every engine shares; WAND, and MaxScore over one stream
        // (whose split is the list-bound test), run the union module's
        // round loop, which reads each list stream's scores from its
        // cursor. MaxScore's non-essential probes take one posting per
        // decoded block, so its cursors score nothing.
        let algorithm = self.config.setup.algorithm;
        let pruned = algorithm.prunes() && !plan.is_pure_intersection();
        let block_max = algorithm.is_block_max();
        let maxscore = matches!(
            algorithm,
            QueryAlgorithm::MaxScore | QueryAlgorithm::BlockMaxMaxScore
        );
        let shared_maxscore = pruned && maxscore && plan.groups().len() > 1;

        let mut streams: Vec<UnionStream<'_>> = Vec::with_capacity(plan.groups().len());
        for (gi, group) in plan.groups().iter().enumerate() {
            if group.len() == 1 {
                let unit = gi % ctx.dec_cycles.len();
                let open = if shared_maxscore {
                    ListCursor::new
                } else {
                    ListCursor::scored
                };
                streams.push(UnionStream::List(open(
                    self.index, group[0], unit, &mut ctx,
                )));
            } else {
                let m = intersect_group(&mut ctx, group)?;
                streams.push(UnionStream::Mat(m));
            }
        }

        let topk = self.topk.get_or_insert_with(|| TopK::new(k));
        topk.reset(k);
        topk.seed_cutoff(floor);
        if shared_maxscore {
            maxscore_union(self.index, &mut streams, block_max, topk, &mut ctx)?;
        } else {
            let prune = Rounds::Wand {
                block_max,
                prune: true,
            };
            let rounds = if pruned { prune } else { et.rounds() };
            union_topk(self.index, &mut streams, rounds, topk, &mut ctx)?;
        }
        ctx.eval.topk_inserts = topk.inserts();
        let hits = topk.hits().to_vec();

        // The top-k list crosses the shared interconnect: 8 B per entry
        // (docID + score), written once at the end of the query.
        let result_bytes = (hits.len() as u64 * 8).max(8);
        ctx.write(
            ctx.image.end_addr() + (4 << 20),
            result_bytes,
            AccessCategory::StResult,
        );

        let cycles = self.pipeline_cycles(&ctx, &plan);
        Ok(QueryOutcome {
            hits,
            cycles,
            mem: ctx.mem.take_stats(),
            eval: ctx.eval,
        })
    }

    /// Query latency under the configured fidelity.
    fn pipeline_cycles(&self, ctx: &ExecCtx<'_>, plan: &QueryPlan) -> u64 {
        let t_mem = ctx.mem.stats().last_done_cycle;
        // Intra-query scoring parallelism is limited to one scoring module
        // per query term (the Figure 13 discussion).
        let eff_scorers = SCORERS_PER_CORE.min(plan.n_distinct_terms()).max(1) as u64;
        match self.config.fidelity {
            TimingFidelity::Roofline => {
                let t_dec = ctx.dec_cycles.iter().copied().max().unwrap_or(0);
                let t_setop = (ctx.eval.comparisons as f64 * CYCLES_PER_COMPARISON
                    + ctx.eval.pivot_rounds as f64 * CYCLES_PER_PIVOT_ROUND)
                    as u64;
                let t_score = (ctx.eval.docs_scored as f64 * CYCLES_PER_SCORE / eff_scorers as f64)
                    as u64
                    + SCORING_FILL;
                let t_topk = (ctx.eval.topk_inserts as f64 * CYCLES_PER_TOPK_INSERT) as u64;
                t_mem.max(t_dec).max(t_setop).max(t_score).max(t_topk) + QUERY_OVERHEAD
            }
            TimingFidelity::Pipelined => {
                let replayed = replay(&ctx.trace, &ctx.eval, eff_scorers, DECOMPRESSORS_PER_CORE);
                // Norm loads and result writes are not in the block trace;
                // the memory completion time covers them.
                replayed.max(t_mem) + SCORING_FILL + QUERY_OVERHEAD
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::config::BossConfig;
    use boss_index::{reference, IndexBuilder, InvertedIndex, QueryAlgorithm};

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

    fn four_way_or() -> QueryExpr {
        QueryExpr::or(["aa", "bb", "cc", "dd"].map(QueryExpr::term))
    }

    fn check(expr: &QueryExpr, k: usize, et: EtMode) {
        let idx = corpus();
        let mut dev = BossDevice::new(&idx, BossConfig::default().with_et(et).with_k(k));
        let got = dev.search_expr(expr, k).unwrap();
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
        let q = QueryExpr::and(["aa", "bb", "cc", "common"].map(QueryExpr::term));
        check(&q, 50, EtMode::Full);
    }

    #[test]
    fn q5_four_way_or() {
        for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
            check(&four_way_or(), 10, et);
        }
    }

    #[test]
    fn q6_mixed() {
        let q = QueryExpr::and([
            QueryExpr::term("aa"),
            QueryExpr::or(["bb", "cc", "dd"].map(QueryExpr::term)),
        ]);
        for et in [EtMode::Exhaustive, EtMode::Full] {
            check(&q, 25, et);
        }
    }

    #[test]
    fn et_reduces_cycles_and_traffic_for_unions() {
        let idx = corpus();
        let run = |et: EtMode| {
            BossDevice::new(&idx, BossConfig::default().with_et(et).with_k(10))
                .search_expr(&four_way_or(), 10)
                .unwrap()
        };
        let ex = run(EtMode::Exhaustive);
        let full = run(EtMode::Full);
        assert!(full.eval.docs_scored < ex.eval.docs_scored);
        assert!(full.cycles <= ex.cycles);
        assert!(full.mem.total_bytes() <= ex.mem.total_bytes());
    }

    #[test]
    fn every_algorithm_matches_reference_on_every_query_shape() {
        // The signature invariant, at the core level: each pruning plan
        // returns the exhaustive oracle's top-k bit for bit, across
        // query shapes (term, union, intersection, mixed) and k.
        let idx = corpus();
        let queries = [
            QueryExpr::term("bb"),
            QueryExpr::or([QueryExpr::term("aa"), QueryExpr::term("dd")]),
            four_way_or(),
            QueryExpr::and([QueryExpr::term("aa"), QueryExpr::term("bb")]),
            QueryExpr::and([
                QueryExpr::term("aa"),
                QueryExpr::or(["bb", "cc", "dd"].map(QueryExpr::term)),
            ]),
        ];
        for q in &queries {
            for k in [1usize, 10, 300] {
                let expect = reference::evaluate(&idx, q, k).unwrap();
                for algo in boss_index::ALL_ALGORITHMS {
                    let cfg = BossConfig::default().with_k(k).with_algorithm(algo);
                    let got = BossDevice::new(&idx, cfg).search_expr(q, k).unwrap();
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
        let run = |algo: QueryAlgorithm, et: EtMode| {
            let cfg = BossConfig::default()
                .with_k(10)
                .with_et(et)
                .with_algorithm(algo);
            BossDevice::new(&idx, cfg)
                .search_expr(&four_way_or(), 10)
                .unwrap()
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
    fn seeded_floor_prunes_more_but_keeps_at_or_above_floor_hits() {
        // With a floor seeded from a (simulated) earlier shard, the plan
        // may drop hits at or below the floor (a tie at the running k-th
        // loses to the earlier shard's smaller-docID incumbents) but
        // must keep every hit strictly above it, in the same order — the
        // contract the sharded scatter-gather merge relies on.
        let idx = corpus();
        let q = four_way_or();
        let k = 10;
        let expect = reference::evaluate(&idx, &q, k).unwrap();
        // Floor between the 3rd and 4th score, so a strict subset
        // survives any pruning.
        let floor = expect[3].score;
        for algo in boss_index::ALL_ALGORITHMS {
            let cfg = BossConfig::default().with_k(k).with_algorithm(algo);
            let got = BossDevice::new(&idx, cfg)
                .search_expr_seeded(&q, k, floor)
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
        let out = BossDevice::new(&idx, BossConfig::default().with_k(10))
            .search_expr(&QueryExpr::term("aa"), 10)
            .unwrap();
        assert_eq!(out.mem.bytes(AccessCategory::StResult), 80, "10 hits x 8 B");
    }
}
