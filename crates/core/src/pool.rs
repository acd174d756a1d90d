//! SCM-based pooled memory serving (Figure 2 and Section II-C): multiple
//! memory nodes, each with its own shard and BOSS device, behind one
//! shared cache-coherent interconnect to the host.
//!
//! The pool is where BOSS's two host-side savings compose:
//!
//! * near-data processing keeps posting traffic inside each node, and
//! * hardware top-k means each node returns only `k` entries, so the
//!   shared link carries `n_nodes × k × 8` bytes per query instead of the
//!   full scored lists a host-side design would pull.
//!
//! [`MemoryPool::search`] runs a query on every node (leaves execute in
//! parallel), charges the link transfer, and merges at the root.

use crate::config::BossConfig;
use crate::device::BossDevice;
use crate::stats::EvalCounts;
use boss_index::shard::{self, ShardedIndex};
use boss_index::{Error, QueryExpr, SearchHit};
use boss_scm::MemStats;

/// Bandwidth of the shared host link (CXL-like), GB/s: the paper cites
/// 64 GB/s for one CXL link.
pub const LINK_GBPS: f64 = 64.0;

/// One-way message latency of the shared host link, ns.
pub const LINK_LATENCY_NS: u64 = 400;

/// Cycles (at 1 GHz) to move `bytes` over the shared link, including its
/// latency.
pub fn transfer_cycles(bytes: u64) -> u64 {
    LINK_LATENCY_NS + (bytes as f64 / LINK_GBPS).ceil() as u64
}

/// Host-side cycles to k-way-merge `n_nodes` sorted top-`k` streams at the
/// root: one comparison per emitted entry, four-wide. Shared by
/// [`MemoryPool`] and the engine-layer scatter-gather coordinator so both
/// charge the same root cost.
pub fn root_merge_cycles(n_nodes: usize, k: usize) -> u64 {
    (n_nodes as u64) * (k as u64).max(1) / 4
}

/// Result of one pooled query.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Globally merged top-k hits.
    pub hits: Vec<SearchHit>,
    /// End-to-end cycles: slowest leaf + link transfer + root merge.
    pub cycles: u64,
    /// Bytes moved over the shared interconnect.
    pub interconnect_bytes: u64,
    /// Merged node-local memory traffic.
    pub mem: MemStats,
    /// Merged evaluation counters.
    pub eval: EvalCounts,
}

/// A pool of memory nodes, each holding one shard behind one BOSS device.
#[derive(Debug)]
pub struct MemoryPool<'a> {
    sharded: &'a ShardedIndex,
    nodes: Vec<BossDevice<'a>>,
}

impl<'a> MemoryPool<'a> {
    /// Builds one node per shard, each with its own copy of `config`
    /// (cores, memory channels).
    pub fn new(sharded: &'a ShardedIndex, config: BossConfig) -> Self {
        let nodes = sharded
            .shards()
            .iter()
            .map(|s| BossDevice::new(s, config.clone()))
            .collect();
        MemoryPool { sharded, nodes }
    }

    /// Executes one query across all nodes and merges at the root.
    ///
    /// Each node runs the query restricted to the terms its shard holds
    /// ([`shard::rewrite`], as the scatter-gather coordinator does); a
    /// node whose restriction matches nothing stays idle.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTerm`] when no shard knows a term, or structural
    /// [`Error::InvalidQuery`] from planning.
    pub fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<PoolOutcome, Error> {
        self.sharded.check_vocabulary(expr)?;
        let mut per_shard: Vec<Vec<SearchHit>> = Vec::with_capacity(self.nodes.len());
        let mut slowest_leaf = 0u64;
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        for node in &mut self.nodes {
            let Some(sub) = shard::rewrite(node.index(), expr) else {
                per_shard.push(Vec::new());
                continue;
            };
            let out = node.search_expr(&sub, k)?;
            slowest_leaf = slowest_leaf.max(out.cycles);
            mem.merge(&out.mem);
            eval.merge(&out.eval);
            per_shard.push(out.hits);
        }

        // Each leaf ships its top-k over the shared link; transfers from
        // different nodes share the one link, so bytes serialize.
        let interconnect_bytes: u64 = per_shard.iter().map(|h| h.len() as u64 * 8).sum();
        let link_cycles = transfer_cycles(interconnect_bytes);

        // Root merge: an n-way merge of sorted lists, one comparison per
        // emitted entry on the host (cheap; charged at 1 cycle each).
        let merged = self.sharded.merge_topk(&per_shard, k);
        let merge_cycles = root_merge_cycles(self.nodes.len(), k);

        Ok(PoolOutcome {
            hits: merged,
            cycles: slowest_leaf + link_cycles + merge_cycles,
            interconnect_bytes,
            mem,
            eval,
        })
    }

    /// The interconnect traffic a *host-side* accelerator without hardware
    /// top-k would generate for the same query: every node's full scored
    /// candidate list for its restricted query crosses the link (Section
    /// III-A's comparison).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemoryPool::search`].
    pub fn hostside_interconnect_bytes(&self, expr: &QueryExpr) -> Result<u64, Error> {
        self.sharded.check_vocabulary(expr)?;
        let mut total = 0u64;
        for shard in self.sharded.shards() {
            if let Some(sub) = shard::rewrite(shard, expr) {
                total += boss_index::reference::candidates(shard, &sub)?.len() as u64 * 8;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_index::{reference, IndexBuilder, InvertedIndex};

    /// "rare" lives in documents 0..3 only, so in shard 0 of a split.
    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..400)
            .map(|i| {
                let mut t = String::from("common");
                if i % 2 == 0 {
                    t.push_str(" even");
                }
                if i % 7 == 0 {
                    t.push_str(" seven seven");
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

    #[test]
    fn pooled_union_finds_all_candidates() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = MemoryPool::new(&sharded, BossConfig::with_cores(2));
        let q = QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("seven")]);
        let out = pool.search(&q, 1000).unwrap();
        let mut got: Vec<u32> = out.hits.iter().map(|h| h.doc).collect();
        got.sort_unstable();
        assert_eq!(got, reference::candidates(&idx, &q).unwrap());
        assert!(out.cycles > 0);
        assert_eq!(out.interconnect_bytes, out.hits.len() as u64 * 8);
    }

    #[test]
    fn a_term_one_shard_holds_keeps_every_shards_hits() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = MemoryPool::new(&sharded, BossConfig::default());
        let t = QueryExpr::term;
        for q in [
            QueryExpr::or([t("seven"), t("rare")]),
            QueryExpr::and([t("even"), t("rare")]),
        ] {
            let out = pool.search(&q, 1000).unwrap();
            assert_eq!(
                out.hits,
                reference::evaluate(&idx, &q, 1000).unwrap(),
                "{q}"
            );
            let candidates = reference::candidates(&idx, &q).unwrap().len() as u64;
            assert_eq!(
                pool.hostside_interconnect_bytes(&q).unwrap(),
                candidates * 8
            );
        }
    }

    #[test]
    fn topk_link_traffic_far_below_hostside() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = MemoryPool::new(&sharded, BossConfig::default());
        let q = QueryExpr::term("even");
        let out = pool.search(&q, 10).unwrap();
        let hostside = pool.hostside_interconnect_bytes(&q).unwrap();
        assert!(out.interconnect_bytes <= 4 * 10 * 8);
        assert!(
            hostside > out.interconnect_bytes * 2,
            "full lists {hostside} vs top-k {}",
            out.interconnect_bytes
        );
    }

    #[test]
    fn unknown_term_everywhere_is_error() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 2).unwrap();
        let mut pool = MemoryPool::new(&sharded, BossConfig::default());
        assert!(matches!(
            pool.search(&QueryExpr::term("missing"), 5),
            Err(Error::UnknownTerm { .. })
        ));
    }

    #[test]
    fn link_transfer_math() {
        assert_eq!(transfer_cycles(6400), 400 + 100);
    }
}
