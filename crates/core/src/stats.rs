//! Per-query statistics: the numbers behind Figures 11–15.

use boss_index::cursor::SkipReason;
use boss_index::SearchHit;
use boss_scm::MemStats;

/// Document/block evaluation counters (Figure 14's "evaluated documents"
/// and the skip statistics behind it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Documents actually scored.
    pub docs_scored: u64,
    /// Documents skipped by document-level WAND in the union module.
    pub docs_skipped_wand: u64,
    /// Documents inside blocks that were never fetched (block-level skips
    /// from the block fetch module, both overlap-check and score
    /// estimation).
    pub docs_skipped_block: u64,
    /// Blocks fetched and decompressed.
    pub blocks_fetched: u64,
    /// Blocks skipped via metadata.
    pub blocks_skipped: u64,
    /// Block metadata records read.
    pub metas_read: u64,
    /// Set-operation comparisons performed.
    pub comparisons: u64,
    /// Top-k insertions performed.
    pub topk_inserts: u64,
    /// WAND pivot-selection rounds.
    pub pivot_rounds: u64,
    /// Blocks dropped by the [`crate::DegradePolicy::SkipBlock`] policy
    /// because their read faulted or their bytes failed to decode. Always
    /// zero without an active fault plan (or with uncorrupted data).
    pub blocks_skipped_fault: u64,
    /// Blocks skipped undecoded by a dynamic-pruning query plan
    /// (`QueryAlgorithm` other than `Exhaustive`). Also counted in
    /// `blocks_skipped`; this field attributes them to the pruning
    /// algorithm. Always zero on the exhaustive path.
    pub blocks_skipped_prune: u64,
    /// Documents skipped by a dynamic-pruning query plan — inside
    /// prune-skipped blocks, popped from decoded blocks, or abandoned
    /// mid-probe. Always zero on the exhaustive path.
    pub docs_skipped_prune: u64,
}

impl EvalCounts {
    /// Documents whose evaluation was attempted or skipped — the
    /// denominator of Figure 14's normalization.
    pub fn docs_total(&self) -> u64 {
        self.docs_scored
            + self.docs_skipped_wand
            + self.docs_skipped_block
            + self.docs_skipped_prune
    }

    /// Attributes `n` postings passed over without scoring to the counter
    /// `reason` selects.
    pub(crate) fn count_skipped(&mut self, reason: SkipReason, n: u64) {
        match reason {
            SkipReason::Block => self.docs_skipped_block += n,
            SkipReason::Wand => self.docs_skipped_wand += n,
            SkipReason::Prune => self.docs_skipped_prune += n,
        }
    }

    /// Merges counters (across queries or cores).
    pub fn merge(&mut self, o: &EvalCounts) {
        self.docs_scored += o.docs_scored;
        self.docs_skipped_wand += o.docs_skipped_wand;
        self.docs_skipped_block += o.docs_skipped_block;
        self.blocks_fetched += o.blocks_fetched;
        self.blocks_skipped += o.blocks_skipped;
        self.metas_read += o.metas_read;
        self.comparisons += o.comparisons;
        self.topk_inserts += o.topk_inserts;
        self.pivot_rounds += o.pivot_rounds;
        self.blocks_skipped_fault += o.blocks_skipped_fault;
        self.blocks_skipped_prune += o.blocks_skipped_prune;
        self.docs_skipped_prune += o.docs_skipped_prune;
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = EvalCounts {
            docs_scored: 10,
            docs_skipped_wand: 5,
            docs_skipped_block: 85,
            ..Default::default()
        };
        assert_eq!(a.docs_total(), 100);
        let b = EvalCounts {
            docs_scored: 1,
            blocks_fetched: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.docs_scored, 11);
        assert_eq!(a.blocks_fetched, 2);
        assert_eq!(a.docs_total(), 101);
    }
}
