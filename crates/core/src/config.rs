//! Accelerator configuration and the hardware constants of Table I.

use crate::pipeline::TimingFidelity;
use boss_index::union::Rounds;
use boss_index::QueryAlgorithm;
use boss_scm::MemoryConfig;

/// Clock of a BOSS core, GHz (Table I). IIU's cores run at it too.
pub const CLOCK_GHZ: f64 = 1.0;

/// Decompression modules per core (Table I). IIU has as many
/// decompression units: the paper's Figure 13 fairness note.
pub const DECOMPRESSORS_PER_CORE: usize = 4;

/// Scoring modules per core (Table I). IIU has as many scoring units.
pub const SCORERS_PER_CORE: usize = 4;

/// Terms one core's intersection module merges natively (Section IV-D).
pub const MAX_TERMS_PER_CORE: usize = 4;

/// Terms the device handles in hardware: the mergers of four chained
/// cores (Section IV-D): the limit every engine's planner enforces.
pub const MAX_TERMS: usize = 4 * MAX_TERMS_PER_CORE;

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

    /// What the union module's rounds may skip under this mode.
    pub(crate) fn rounds(self) -> Rounds {
        match self {
            EtMode::Exhaustive => Rounds::Exhaustive,
            EtMode::BlockOnly => Rounds::BlockOnly,
            EtMode::Full => Rounds::Wand {
                block_max: true,
                prune: false,
            },
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

/// What every engine's configuration varies — BOSS's, IIU's and the
/// Lucene-like host's alike.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSetup {
    /// Parallel lanes the batch scheduler fills: cores on the
    /// accelerators, worker threads on the host.
    pub lanes: u32,
    /// The memory every query reads.
    pub memory: MemoryConfig,
    /// Dynamic-pruning plan for union-bearing queries. The default
    /// ([`QueryAlgorithm::Exhaustive`]) keeps each engine's own
    /// traversal (BOSS's with its `EtMode` as the early-termination
    /// axis); any other value replaces the union traversal with that
    /// pruning algorithm, still returning bit-identical top-k results.
    pub algorithm: QueryAlgorithm,
}

impl EngineSetup {
    /// `lanes` over `memory`, exhaustive traversal.
    pub fn new(lanes: u32, memory: MemoryConfig) -> Self {
        EngineSetup {
            lanes,
            memory,
            algorithm: QueryAlgorithm::Exhaustive,
        }
    }
}

/// Gives a configuration that embeds an [`EngineSetup`] as its `setup`
/// field the builders all three engines share.
#[macro_export]
macro_rules! setup_builders {
    ($config:ty) => {
        impl $config {
            /// Replaces the memory.
            #[must_use]
            pub fn on_memory(mut self, memory: $crate::MemoryConfig) -> Self {
                self.setup.memory = memory;
                self
            }

            /// Replaces the dynamic-pruning query algorithm.
            #[must_use]
            pub fn with_algorithm(mut self, algorithm: $crate::QueryAlgorithm) -> Self {
                self.setup.algorithm = algorithm;
                self
            }
        }
    };
}

/// Configuration of a BOSS device (Table I "BOSS Configuration"); the
/// module counts, clock and cycle costs are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct BossConfig {
    /// Cores on the memory node, the node itself, and the union
    /// traversal.
    pub setup: EngineSetup,
    /// Results returned per query by [`crate::BossHandle`] when a request
    /// names none (the paper defaults to 1000).
    pub k: usize,
    /// Early-termination mode.
    pub et_mode: EtMode,
    /// Which latency estimator to use (roofline or event-driven replay).
    pub fidelity: TimingFidelity,
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
        Self::with_cores(8)
    }
}

setup_builders!(BossConfig);

impl BossConfig {
    /// `n` cores on the Optane-like node, defaults elsewhere.
    pub fn with_cores(n: u32) -> Self {
        BossConfig {
            setup: EngineSetup::new(n, MemoryConfig::optane_dcpmm()),
            k: 1000,
            et_mode: EtMode::Full,
            fidelity: TimingFidelity::Roofline,
            fault_plan: None,
            degrade: DegradePolicy::FailQuery,
        }
    }

    /// Replaces the early-termination mode.
    #[must_use]
    pub fn with_et(mut self, et: EtMode) -> Self {
        self.et_mode = et;
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
        self.fidelity = fidelity;
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
        assert_eq!(c.setup.algorithm, QueryAlgorithm::Exhaustive);
        assert_eq!(c.setup.lanes, 8);
        assert_eq!(c.k, 1000);
        assert_eq!(MAX_TERMS, 16);
        assert_eq!(c.setup.memory.channels, 4);
        assert_eq!((DECOMPRESSORS_PER_CORE, SCORERS_PER_CORE), (4, 4));
        assert_eq!(MAX_TERMS_PER_CORE, 4);
    }

    #[test]
    fn builder_methods() {
        let c = BossConfig::with_cores(2)
            .with_et(EtMode::BlockOnly)
            .with_k(10)
            .on_memory(boss_scm::MemoryConfig::ddr4_2666());
        assert_eq!(c.setup.lanes, 2);
        assert_eq!(c.et_mode, EtMode::BlockOnly);
        assert_eq!(c.k, 10);
        assert_eq!(c.setup.memory.kind, boss_scm::MemoryKind::Dram);
    }

    #[test]
    fn et_labels() {
        assert_eq!(EtMode::Full.label(), "BOSS");
        assert_eq!(EtMode::Exhaustive.label(), "BOSS-exhaustive");
        assert_eq!(EtMode::BlockOnly.label(), "BOSS-block-only");
    }
}
