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
use boss_index::shard::ShardedIndex;
use boss_index::{Error, QueryExpr, SearchHit};
use boss_scm::MemStats;

/// The shared host interconnect (CXL-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectConfig {
    /// Link bandwidth in GB/s (the paper cites 64 GB/s for one CXL link).
    pub bandwidth_gbps: f64,
    /// One-way message latency in nanoseconds.
    pub latency_ns: u64,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            bandwidth_gbps: 64.0,
            latency_ns: 400,
        }
    }
}

impl InterconnectConfig {
    /// Cycles (at 1 GHz) to move `bytes` over the link, including latency.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.latency_ns + (bytes as f64 / self.bandwidth_gbps).ceil() as u64
    }

    /// Host-side cycles to k-way-merge `n_nodes` sorted top-`k` streams
    /// at the root: one comparison per emitted entry, four-wide. Shared
    /// by [`MemoryPool`] and the engine-layer scatter-gather coordinator
    /// so both charge the same root cost.
    pub fn root_merge_cycles(&self, n_nodes: usize, k: usize) -> u64 {
        (n_nodes as u64) * (k as u64).max(1) / 4
    }
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
    link: InterconnectConfig,
}

impl<'a> MemoryPool<'a> {
    /// Builds one node per shard, each with its own copy of `config`
    /// (cores, memory channels) and a shared link.
    pub fn new(sharded: &'a ShardedIndex, config: BossConfig, link: InterconnectConfig) -> Self {
        let nodes = sharded
            .shards()
            .iter()
            .map(|s| BossDevice::new(s, config.clone()))
            .collect();
        MemoryPool {
            sharded,
            nodes,
            link,
        }
    }

    /// Executes one query across all nodes and merges at the root.
    ///
    /// A term absent from some shard's vocabulary simply contributes
    /// nothing from that shard (the paper's leaves operate only on their
    /// shard); a term absent from *every* shard is an error.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTerm`] when no shard knows a term, or structural
    /// [`Error::InvalidQuery`] from planning.
    pub fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<PoolOutcome, Error> {
        let mut per_shard: Vec<Vec<SearchHit>> = Vec::with_capacity(self.nodes.len());
        let mut slowest_leaf = 0u64;
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        let mut any_known = false;
        let mut first_err: Option<Error> = None;
        for node in &mut self.nodes {
            match node.search_expr(expr, k) {
                Ok(out) => {
                    any_known = true;
                    slowest_leaf = slowest_leaf.max(out.cycles);
                    mem.merge(&out.mem);
                    eval.merge(&out.eval);
                    per_shard.push(out.hits);
                }
                Err(Error::UnknownTerm { .. }) => {
                    // This shard holds no postings for some query term; for
                    // pure unions other shards still answer. (A stricter
                    // semantics would re-plan per shard; interval sharding
                    // of Zipfian corpora almost never hits this.)
                    if first_err.is_none() {
                        first_err = Some(Error::UnknownTerm {
                            term: expr.terms().join(","),
                        });
                    }
                    per_shard.push(Vec::new());
                }
                Err(e) => return Err(e),
            }
        }
        if !any_known {
            return Err(first_err.unwrap_or(Error::InvalidQuery {
                reason: "empty pool".into(),
            }));
        }

        // Each leaf ships its top-k over the shared link; transfers from
        // different nodes share the one link, so bytes serialize.
        let interconnect_bytes: u64 = per_shard.iter().map(|h| h.len() as u64 * 8).sum();
        let link_cycles = self.link.transfer_cycles(interconnect_bytes);

        // Root merge: an n-way merge of sorted lists, one comparison per
        // emitted entry on the host (cheap; charged at 1 cycle each).
        let merged = self.sharded.merge_topk(&per_shard, k);
        let merge_cycles = self.link.root_merge_cycles(self.nodes.len(), k);

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
    /// candidate list crosses the link (Section III-A's comparison).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemoryPool::search`].
    pub fn hostside_interconnect_bytes(&self, expr: &QueryExpr) -> Result<u64, Error> {
        let mut total = 0u64;
        let mut any = false;
        for shard in self.sharded.shards() {
            match boss_index::reference::candidates(shard, expr) {
                Ok(c) => {
                    any = true;
                    total += c.len() as u64 * 8;
                }
                Err(Error::UnknownTerm { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if !any {
            return Err(Error::UnknownTerm {
                term: expr.terms().join(","),
            });
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_index::{reference, IndexBuilder, InvertedIndex};

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
        let mut pool = MemoryPool::new(
            &sharded,
            BossConfig::with_cores(2),
            InterconnectConfig::default(),
        );
        let q = QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("seven")]);
        let out = pool.search(&q, 1000).unwrap();
        let mut got: Vec<u32> = out.hits.iter().map(|h| h.doc).collect();
        got.sort_unstable();
        assert_eq!(got, reference::candidates(&idx, &q).unwrap());
        assert!(out.cycles > 0);
        assert_eq!(out.interconnect_bytes, out.hits.len() as u64 * 8);
    }

    #[test]
    fn topk_link_traffic_far_below_hostside() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let mut pool = MemoryPool::new(
            &sharded,
            BossConfig::default(),
            InterconnectConfig::default(),
        );
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
        let mut pool = MemoryPool::new(
            &sharded,
            BossConfig::default(),
            InterconnectConfig::default(),
        );
        assert!(pool.search(&QueryExpr::term("missing"), 5).is_err());
    }

    #[test]
    fn link_transfer_math() {
        let link = InterconnectConfig {
            bandwidth_gbps: 64.0,
            latency_ns: 400,
        };
        assert_eq!(link.transfer_cycles(6400), 400 + 100);
    }
}
