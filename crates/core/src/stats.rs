//! Per-query statistics: the numbers behind Figures 11–15. The
//! evaluation counters are [`boss_index::prune::EvalCounts`].

pub use boss_index::prune::EvalCounts;
use boss_index::SearchHit;
use boss_scm::MemStats;

/// Everything one query execution produced; the default is a query that
/// did nothing and found nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// The top-k hits, in ranking order.
    pub hits: Vec<SearchHit>,
    /// Core cycles the query occupied its core.
    pub cycles: u64,
    /// Memory traffic it generated.
    pub mem: MemStats,
    /// Evaluation counters.
    pub eval: EvalCounts,
}
