//! Accelerator configuration and timing constants.

use crate::pipeline::TimingFidelity;
use boss_index::QueryAlgorithm;
use boss_scm::MemoryConfig;

/// Early-termination mode of a BOSS core (Figures 13/14 compare these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EtMode {
    /// No pruning: every candidate block is fetched and every candidate
    /// document scored ("BOSS-exhaustive" in Figure 13).
    Exhaustive,
    /// Only block-level score estimation in the block fetch module
    /// ("BOSS-block-only" in Figure 14).
    BlockOnly,
    /// Block-level estimation plus document-level WAND in the union module
    /// (full BOSS).
    #[default]
    Full,
}

impl EtMode {
    /// Label used by figures.
    pub fn label(self) -> &'static str {
        match self {
            EtMode::Exhaustive => "BOSS-exhaustive",
            EtMode::BlockOnly => "BOSS-block-only",
            EtMode::Full => "BOSS",
        }
    }
}

/// What a query does when a posting block cannot be used — its simulated
/// read came back flagged uncorrectable by the active fault plan, or its
/// bytes/metadata failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// The query fails with a typed error (the default: no silent
    /// degradation unless explicitly opted into).
    #[default]
    FailQuery,
    /// The block is skipped and the query continues on the remaining
    /// postings; `EvalCounts::blocks_skipped_fault` counts the loss.
    SkipBlock,
}

/// Per-module cycle costs at the 1 GHz core clock.
///
/// The defaults follow the module descriptions of Section IV-C: one merge
/// comparison per cycle per intersection unit, fully pipelined scoring
/// (one document per cycle per module once the fixed-point divider is
/// filled) and one top-k shift-insert per cycle. Decompression is not a
/// constant here: each block is priced by the cost descriptor of the
/// `boss-decomp` configuration that decodes it (see `fetch.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Cycles per set-operation comparison.
    pub cycles_per_comparison: f64,
    /// Cycles per scored document per scoring module (pipelined).
    pub cycles_per_score: f64,
    /// One-time fill of the fixed-point divider pipeline per query.
    pub scoring_fill: u64,
    /// Cycles per top-k insertion.
    pub cycles_per_topk_insert: f64,
    /// Fixed per-query overhead (command decode, scheduling, drain).
    pub query_overhead: u64,
    /// Cycles per WAND pivot-selection round in the union module
    /// (sorter + score loader + pivot selector).
    pub cycles_per_pivot_round: f64,
    /// Which latency estimator to use (roofline or event-driven replay).
    pub fidelity: TimingFidelity,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            cycles_per_comparison: 1.0,
            cycles_per_score: 1.0,
            scoring_fill: 16,
            cycles_per_topk_insert: 1.0,
            query_overhead: 200,
            cycles_per_pivot_round: 2.0,
            fidelity: TimingFidelity::Roofline,
        }
    }
}

/// Configuration of a BOSS device (Table I "BOSS Configuration").
#[derive(Debug, Clone, PartialEq)]
pub struct BossConfig {
    /// Number of BOSS cores on the memory node.
    pub n_cores: u32,
    /// Core clock in GHz (the paper's cores run at 1.0).
    pub clock_ghz: f64,
    /// Results returned per query (the paper defaults to 1000).
    pub k: usize,
    /// Early-termination mode.
    pub et_mode: EtMode,
    /// Dynamic-pruning query plan for union-bearing queries. The default
    /// ([`QueryAlgorithm::Exhaustive`]) keeps the paper's traversal with
    /// `et_mode` as the early-termination axis; any other value replaces
    /// the union traversal with that pruning algorithm (`crate::prune`),
    /// still returning bit-identical top-k results.
    pub algorithm: QueryAlgorithm,
    /// Decompression modules per core.
    pub decompressors_per_core: u32,
    /// Scoring modules per core.
    pub scorers_per_core: u32,
    /// Maximum terms a single core handles natively.
    pub max_terms_per_core: usize,
    /// Maximum terms the device handles in hardware (4 chained cores).
    pub max_terms: usize,
    /// The memory node configuration.
    pub memory: MemoryConfig,
    /// Timing constants.
    pub timing: TimingModel,
    /// Optional SCM fault-injection plan applied to every simulated
    /// memory access. `None` (the default) means a fault-free device and
    /// bit-identical figures to a build without fault support.
    pub fault_plan: Option<boss_scm::FaultPlan>,
    /// How a query reacts to an unusable posting block (uncorrectable
    /// read or corrupt decode). Irrelevant while no fault fires.
    pub degrade: DegradePolicy,
}

impl Default for BossConfig {
    fn default() -> Self {
        BossConfig {
            n_cores: 8,
            clock_ghz: 1.0,
            k: 1000,
            et_mode: EtMode::Full,
            algorithm: QueryAlgorithm::Exhaustive,
            decompressors_per_core: 4,
            scorers_per_core: 4,
            max_terms_per_core: 4,
            max_terms: 16,
            memory: MemoryConfig::optane_dcpmm(),
            timing: TimingModel::default(),
            fault_plan: None,
            degrade: DegradePolicy::FailQuery,
        }
    }
}

impl BossConfig {
    /// A configuration with `n` cores and defaults elsewhere.
    pub fn with_cores(n: u32) -> Self {
        BossConfig {
            n_cores: n,
            ..Self::default()
        }
    }

    /// Replaces the memory node configuration.
    #[must_use]
    pub fn on_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Replaces the early-termination mode.
    #[must_use]
    pub fn with_et(mut self, et: EtMode) -> Self {
        self.et_mode = et;
        self
    }

    /// Replaces the dynamic-pruning query algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces `k`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Replaces the timing fidelity.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: TimingFidelity) -> Self {
        self.timing.fidelity = fidelity;
        self
    }

    /// Installs (or clears) the SCM fault-injection plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Option<boss_scm::FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Replaces the degradation policy for unusable posting blocks.
    #[must_use]
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Self {
        self.degrade = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = BossConfig::default();
        assert_eq!(c.algorithm, QueryAlgorithm::Exhaustive);
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.k, 1000);
        assert_eq!(c.decompressors_per_core, 4);
        assert_eq!(c.scorers_per_core, 4);
        assert_eq!(c.max_terms_per_core, 4);
        assert_eq!(c.max_terms, 16);
        assert_eq!(c.memory.channels, 4);
    }

    #[test]
    fn builder_methods() {
        let c = BossConfig::with_cores(2)
            .with_et(EtMode::BlockOnly)
            .with_k(10)
            .on_memory(boss_scm::MemoryConfig::ddr4_2666());
        assert_eq!(c.n_cores, 2);
        assert_eq!(c.et_mode, EtMode::BlockOnly);
        assert_eq!(c.k, 10);
        assert_eq!(c.memory.kind, boss_scm::MemoryKind::Dram);
    }

    #[test]
    fn et_labels() {
        assert_eq!(EtMode::Full.label(), "BOSS");
        assert_eq!(EtMode::Exhaustive.label(), "BOSS-exhaustive");
        assert_eq!(EtMode::BlockOnly.label(), "BOSS-block-only");
    }
}
