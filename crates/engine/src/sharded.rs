//! Multi-device sharding: a scatter-gather coordinator over per-shard
//! engines with replica/health-aware routing.
//!
//! [`Sharded`] wraps any [`SearchEngine`] and removes the single-device
//! assumption: each shard of a [`ShardedIndex`] is served by one or more
//! independent *leaf* engines (its own simulated SCM channels and fault
//! plan), and the coordinator fans a query out to every
//! shard, merges the per-shard top-k into the global top-k, and steers
//! each shard's traffic toward its healthiest replica.
//!
//! # Timing
//!
//! One model: cycles = slowest selected leaf + link transfer of
//! `hits × 8` bytes + root merge, mirroring `boss_core::pool::MemoryPool`;
//! traffic and counters are summed over the selected leaves; the
//! bandwidth roofline divides by the shard count (each shard owns its own
//! channels). The hits are the merge of the per-shard top-k, bit-identical
//! to the unsplit index's under quiet fault plans (shards carry global
//! BM25 statistics — see [`boss_index::shard`]); that contract is a test
//! (the `shards` and `threads` rows of `tests/invariance.rs`, and
//! `differential.rs` against the reference evaluator), not a mode.
//!
//! # Health-aware routing
//!
//! The coordinator tallies, per (shard, replica) leaf, the fault counters
//! ([`MemStats::fault_counts`] plus `blocks_skipped_fault`) of every
//! outcome the leaf returned, selected or not. Per query,
//! replicas are attempted in ascending tallied-fault order (replica
//! id breaks ties) and the first **clean** outcome (no fault events, no
//! fault-skipped blocks) wins. Clean outcomes are bit-identical across
//! replicas — the fault model marks a counter whenever it perturbs
//! timing — so this early exit never changes results. When no attempt is
//! clean, every replica has been tried and the winner is the minimum of
//! `(blocks_skipped_fault, fault_events, replica id)`, a per-query
//! deterministic key. The tallies are exposed only through
//! [`Sharded::shard_stats`]: they depend on query chunking across
//! executor workers and must never leak into a [`QueryOutcome`].

use crate::{EvalCounts, MemStats, QueryOutcome, SearchEngine};
use boss_core::pool::{root_merge_cycles, transfer_cycles};
use boss_core::EngineSetup;
use boss_index::shard::{self, ShardedIndex};
use boss_index::{Error, QueryExpr, SearchHit};
use boss_scm::FaultCounts;

/// How [`Sharded`] charges time for a scatter-gather query.
///
/// There is one timing model; the type and [`Sharded::new`]'s `timing`
/// parameter remain only because the benchmark harness
/// (`benchmark/src/run.rs`) names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardTiming {
    /// Slowest leaf + interconnect transfer + root merge, with traffic
    /// summed over the selected leaves.
    ScatterGather,
}

/// Health/telemetry snapshot of one (shard, replica) leaf engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReplicaStats {
    /// Shard index.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// Queries routed to this replica (including unselected attempts).
    pub attempts: u64,
    /// Queries whose outcome this replica supplied.
    pub selected: u64,
    /// Fault counters summed over every outcome this replica returned
    /// (selected or not), labeled per class.
    pub faults: FaultCounts,
    /// Blocks dropped under `SkipBlock` degradation, summed likewise.
    pub blocks_skipped_fault: u64,
}

/// A sharded multi-device system presented as one [`SearchEngine`].
///
/// `leaves[s][r]` is replica `r` of shard `s`. With no shard layer
/// (built via [`Sharded::single`]) every call passes straight through to
/// the canonical engine. With one, the canonical engine over the unsplit
/// index answers only the label, clock, setup and scheduling hooks.
#[derive(Debug)]
pub struct Sharded<'a, E: SearchEngine> {
    canonical: E,
    sharded: Option<&'a ShardedIndex>,
    leaves: Vec<Vec<E>>,
    /// `health[s][r]`: routing telemetry of `leaves[s][r]`.
    health: Vec<Vec<ShardReplicaStats>>,
}

/// Aggregates of one scatter-gather fan-out (selected outcomes only).
struct Scatter {
    per_shard: Vec<Vec<boss_index::SearchHit>>,
    slowest_leaf: u64,
    mem: MemStats,
    eval: EvalCounts,
}

impl<'a, E: SearchEngine> Sharded<'a, E> {
    /// A pass-through wrapper with no shard layer: every query runs on
    /// `canonical` alone.
    pub fn single(canonical: E) -> Self {
        Sharded {
            canonical,
            sharded: None,
            leaves: Vec::new(),
            health: Vec::new(),
        }
    }

    /// A scatter-gather coordinator: `leaves[s]` holds the replica
    /// engines of shard `s` of `sharded`, and `canonical` is the
    /// single-device engine over the unsplit index. `timing` selects
    /// nothing: [`ShardTiming`] has one variant.
    ///
    /// # Panics
    ///
    /// When `leaves` does not provide at least one replica per shard —
    /// a construction bug in the caller, not a runtime condition.
    pub fn new(
        canonical: E,
        sharded: &'a ShardedIndex,
        leaves: Vec<Vec<E>>,
        _timing: ShardTiming,
    ) -> Self {
        assert_eq!(
            leaves.len(),
            sharded.n_shards(),
            "one replica set per shard"
        );
        assert!(
            leaves.iter().all(|r| !r.is_empty()),
            "every shard needs at least one replica"
        );
        let health = zeroed_health(&leaves);
        Sharded {
            canonical,
            sharded: Some(sharded),
            leaves,
            health,
        }
    }

    /// Number of shards (1 for a pass-through wrapper).
    pub fn n_shards(&self) -> usize {
        self.sharded.map_or(1, ShardedIndex::n_shards)
    }

    /// Per-(shard, replica) health telemetry, in shard-then-replica
    /// order. Empty for a pass-through wrapper.
    pub fn shard_stats(&self) -> Vec<ShardReplicaStats> {
        self.health.iter().flatten().copied().collect()
    }

    /// Replica attempt order for shard `s`: ascending tallied fault load
    /// (fault events + fault-skipped blocks), replica id on ties.
    fn replica_order(&self, s: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.leaves[s].len()).collect();
        order.sort_by_key(|&r| {
            let h = &self.health[s][r];
            (h.faults.total() + h.blocks_skipped_fault, r)
        });
        order
    }

    /// Fans `expr` out to every shard, routing within each shard's
    /// replicas by health, and returns the selected per-shard hit lists
    /// plus the aggregates of the selected outcomes.
    fn scatter_gather(
        &mut self,
        sh: &ShardedIndex,
        expr: &QueryExpr,
        k: usize,
    ) -> Result<Scatter, Error> {
        let n = sh.n_shards();
        let mut per_shard = Vec::with_capacity(n);
        let mut slowest_leaf = 0u64;
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        // Running merge of the shards processed so far. Shards are
        // contiguous ascending document ranges visited in order, so once
        // it holds k hits its k-th score is a safe floor for every later
        // shard: a later-shard tie at that score loses the final merge
        // to the earlier shard's smaller-docID incumbents (see
        // `SearchEngine::search_seeded`). The floor is computed once per
        // shard, before the replica loop, so clean replica outcomes stay
        // bit-identical and health routing is undisturbed.
        let mut running: Vec<boss_index::SearchHit> = Vec::new();
        for s in 0..n {
            let Some(sub) = shard::rewrite(sh.shard(s), expr) else {
                per_shard.push(Vec::new());
                continue;
            };
            let floor = match k.checked_sub(1).and_then(|kth| running.get(kth)) {
                Some(hit) => hit.score,
                None => f32::NEG_INFINITY,
            };
            let order = self.replica_order(s);
            let mut best: Option<(usize, QueryOutcome)> = None;
            let mut first_err: Option<Error> = None;
            for r in order {
                let health = &mut self.health[s][r];
                health.attempts += 1;
                match self.leaves[s][r].search_seeded(&sub, k, floor) {
                    Ok(out) => {
                        let faults = out.mem.fault_counts();
                        health.faults.faulted_reads += faults.faulted_reads;
                        health.faults.degraded_accesses += faults.degraded_accesses;
                        health.faults.latency_spikes += faults.latency_spikes;
                        health.blocks_skipped_fault += out.eval.blocks_skipped_fault;
                        let clean = faults.total() == 0 && out.eval.blocks_skipped_fault == 0;
                        let better = match &best {
                            None => true,
                            Some((br, bo)) => {
                                (out.eval.blocks_skipped_fault, out.mem.fault_events(), r)
                                    < (bo.eval.blocks_skipped_fault, bo.mem.fault_events(), *br)
                            }
                        };
                        if better {
                            best = Some((r, out));
                        }
                        if clean {
                            break;
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            match best {
                Some((r, out)) => {
                    self.health[s][r].selected += 1;
                    slowest_leaf = slowest_leaf.max(out.cycles);
                    mem.merge(&out.mem);
                    eval.merge(&out.eval);
                    running.extend(out.hits.iter().copied());
                    running.sort_by(SearchHit::ranking_cmp);
                    running.truncate(k);
                    per_shard.push(out.hits);
                }
                // Every replica of this shard failed: the shard is down
                // and the query cannot be answered faithfully.
                None => {
                    return Err(first_err.unwrap_or(Error::InvalidQuery {
                        reason: "shard has no replicas".into(),
                    }))
                }
            }
        }
        Ok(Scatter {
            per_shard,
            slowest_leaf,
            mem,
            eval,
        })
    }
}

fn zeroed_health<E>(leaves: &[Vec<E>]) -> Vec<Vec<ShardReplicaStats>> {
    let zero = |shard, replica| ShardReplicaStats {
        shard,
        replica,
        ..ShardReplicaStats::default()
    };
    (leaves.iter().enumerate())
        .map(|(s, reps)| (0..reps.len()).map(|r| zero(s, r)).collect())
        .collect()
}

impl<E: SearchEngine> SearchEngine for Sharded<'_, E> {
    fn label(&self) -> String {
        self.canonical.label()
    }

    fn clock_ghz(&self) -> f64 {
        self.canonical.clock_ghz()
    }

    fn setup(&self) -> &EngineSetup {
        self.canonical.setup()
    }

    /// The floor is not forwarded: a coordinator seeds its own leaves
    /// from its own running merge.
    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        _floor: f32,
    ) -> Result<QueryOutcome, Error> {
        let Some(sh) = self.sharded else {
            return self.canonical.search(expr, k);
        };
        // Error parity with single-device planning: a term no shard
        // knows is globally unknown.
        sh.check_vocabulary(expr)?;
        let scatter = self.scatter_gather(sh, expr, k)?;
        let bytes: u64 = scatter.per_shard.iter().map(|h| h.len() as u64 * 8).sum();
        let hits = sh.merge_topk(&scatter.per_shard, k);
        let cycles =
            scatter.slowest_leaf + transfer_cycles(bytes) + root_merge_cycles(sh.n_shards(), k);
        Ok(QueryOutcome {
            hits,
            cycles,
            mem: scatter.mem,
            eval: scatter.eval,
        })
    }

    fn fork(&self) -> Self {
        Sharded {
            canonical: self.canonical.fork(),
            sharded: self.sharded,
            leaves: self
                .leaves
                .iter()
                .map(|reps| reps.iter().map(SearchEngine::fork).collect())
                .collect(),
            health: zeroed_health(&self.leaves),
        }
    }

    fn gang_width(&self, expr: &QueryExpr) -> usize {
        self.canonical.gang_width(expr)
    }

    fn work_estimate(&self, expr: &QueryExpr) -> u64 {
        self.canonical.work_estimate(expr)
    }

    /// Each shard owns its channels, so the aggregate roofline scales
    /// with the shard count.
    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        self.canonical.bandwidth_limit_cycles(mem) / self.n_shards() as u64
    }

    fn bandwidth_gbps(&self, mem: &MemStats, makespan_cycles: u64) -> f64 {
        self.canonical.bandwidth_gbps(mem, makespan_cycles)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::Boss;
    use boss_core::{BossConfig, DegradePolicy};
    use boss_index::{IndexBuilder, InvertedIndex};
    use boss_scm::FaultPlan;

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..240)
            .map(|i| {
                let mut t = String::from("alpha");
                if i % 2 == 0 {
                    t.push_str(" beta");
                }
                if i % 5 == 0 {
                    t.push_str(" gamma gamma");
                }
                if i < 3 {
                    t.push_str(" rare");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    fn leaves<'a>(
        sh: &'a ShardedIndex,
        replicas: usize,
        plan_at: Option<(usize, FaultPlan)>,
    ) -> Vec<Vec<Boss<'a>>> {
        sh.shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                (0..replicas)
                    .map(|r| {
                        let plan = match &plan_at {
                            Some((fs, p)) if *fs == s && r == 0 => Some(p.clone()),
                            _ => None,
                        };
                        Boss::new(
                            shard,
                            BossConfig::default()
                                .with_fault_plan(plan)
                                .with_degrade(DegradePolicy::SkipBlock),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// `(attempts, selected, faulted_reads, blocks_skipped_fault)` per
    /// leaf, in shard-then-replica order.
    fn tallies(stats: &[ShardReplicaStats]) -> Vec<(u64, u64, u64, u64)> {
        stats
            .iter()
            .map(|s| {
                assert_eq!(s.faults.total(), s.faults.faulted_reads);
                (
                    s.attempts,
                    s.selected,
                    s.faults.faulted_reads,
                    s.blocks_skipped_fault,
                )
            })
            .collect()
    }

    fn queries() -> Vec<QueryExpr> {
        vec![
            QueryExpr::term("beta"),
            QueryExpr::and([QueryExpr::term("beta"), QueryExpr::term("gamma")]),
            QueryExpr::or([QueryExpr::term("gamma"), QueryExpr::term("rare")]),
            QueryExpr::term("rare"),
        ]
    }

    #[test]
    fn scatter_gather_mode_sums_leaf_traffic_and_charges_the_link() {
        let idx = corpus();
        let sh = ShardedIndex::split(&idx, 4).unwrap();
        let mut multi = Sharded::new(
            Boss::new(&idx, BossConfig::default()),
            &sh,
            leaves(&sh, 1, None),
            ShardTiming::ScatterGather,
        );
        let q = QueryExpr::term("beta");
        let out = multi.search(&q, 10).unwrap();
        // Cycles include at least the link latency and the root merge.
        let latency = boss_core::pool::LINK_LATENCY_NS;
        assert!(out.cycles > latency + root_merge_cycles(4, 10));
        assert!(out.mem.total_bytes() > 0);
        // Hits still match the canonical engine bit for bit.
        let mut single = Sharded::single(Boss::new(&idx, BossConfig::default()));
        assert_eq!(out.hits, single.search(&q, 10).unwrap().hits);
    }

    /// Both modes: the pass-through wrapper and the scatter-gather.
    #[test]
    fn unknown_everywhere_is_unknown_term_in_both_modes() {
        let idx = corpus();
        let sh = ShardedIndex::split(&idx, 2).unwrap();
        let mut single = Sharded::single(Boss::new(&idx, BossConfig::default()));
        let mut multi = Sharded::new(
            Boss::new(&idx, BossConfig::default()),
            &sh,
            leaves(&sh, 1, None),
            ShardTiming::ScatterGather,
        );
        for engine in [&mut single, &mut multi] {
            assert!(matches!(
                engine.search(&QueryExpr::term("missing"), 5),
                Err(Error::UnknownTerm { .. })
            ));
        }
    }

    #[test]
    fn faulted_shard_with_clean_replica_matches_quiet_results() {
        let idx = corpus();
        let sh = ShardedIndex::split(&idx, 2).unwrap();
        let plan = FaultPlan::quiet(42).with_uncorrectable_rate(1.0);
        let mut faulted = Sharded::new(
            Boss::new(&idx, BossConfig::default()),
            &sh,
            leaves(&sh, 2, Some((0, plan))),
            ShardTiming::ScatterGather,
        );
        // That the clean replica's outcome is the quiet system's, whole,
        // is the invariance table's `replica_failover` row.
        for q in queries() {
            faulted.search(&q, 10).unwrap();
        }
        // The degraded replica's symptoms are visible in telemetry and
        // attributed to (shard 0, replica 0) only.
        let stats = faulted.shard_stats();
        let bad = &stats[0];
        assert_eq!((bad.shard, bad.replica), (0, 0));
        assert!(bad.faults.total() > 0 || bad.blocks_skipped_fault > 0);
        for s in &stats[1..] {
            assert_eq!(
                s.faults.total(),
                0,
                "shard {} replica {}",
                s.shard,
                s.replica
            );
            assert_eq!(s.blocks_skipped_fault, 0);
        }
        // Routing learned to prefer the clean replica of shard 0. The
        // sick one's single attempt lost the selection and is tallied all
        // the same — what the leaf itself accumulated when routing read
        // the counters back out of it.
        assert!(bad.selected < stats[1].selected + queries().len() as u64);
        assert_eq!(
            tallies(&stats),
            [(1, 0, 6, 1), (4, 4, 0, 0), (3, 3, 0, 0), (0, 0, 0, 0)]
        );
    }

    #[test]
    fn faulted_shard_without_replica_attributes_skips_to_that_shard() {
        let idx = corpus();
        let sh = ShardedIndex::split(&idx, 2).unwrap();
        let plan = FaultPlan::quiet(42).with_uncorrectable_rate(1.0);
        let mut multi = Sharded::new(
            Boss::new(&idx, BossConfig::default()),
            &sh,
            leaves(&sh, 1, Some((1, plan))),
            ShardTiming::ScatterGather,
        );
        for q in queries() {
            let _ = multi.search(&q, 10).unwrap();
        }
        let stats = multi.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].faults.total(), 0);
        assert_eq!(stats[0].blocks_skipped_fault, 0);
        assert!(
            stats[1].faults.total() > 0,
            "shard 1 should show fault symptoms"
        );
        assert!(stats[1].blocks_skipped_fault > 0);
        assert_eq!(tallies(&stats), [(4, 4, 0, 0), (3, 3, 20, 4)]);
    }

    #[test]
    fn fork_zeroes_the_telemetry() {
        let idx = corpus();
        let sh = ShardedIndex::split(&idx, 2).unwrap();
        let mut multi = Sharded::new(
            Boss::new(&idx, BossConfig::default()),
            &sh,
            leaves(&sh, 2, None),
            ShardTiming::ScatterGather,
        );
        multi.search(&QueryExpr::term("beta"), 5).unwrap();
        assert!(multi.shard_stats().iter().any(|s| s.attempts > 0));
        let fork = multi.fork();
        assert!(fork.shard_stats().iter().all(|s| s.attempts == 0));
        assert_eq!(fork.n_shards(), 2);
    }
}
