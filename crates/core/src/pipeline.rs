//! Event-driven pipeline timing (the higher-fidelity alternative to the
//! bottleneck-stage roofline).
//!
//! The execution context records a *block trace* — every fetched block
//! with its memory completion time, decompression cost and unit binding
//! — and the query's `EvalCounts` hold the scored-document, comparison,
//! round and top-k counts. This module replays that trace through
//! explicit pipeline resources with
//! `start = max(data_ready, resource_free)` semantics, yielding the cycle
//! at which the last result drains. Compared to the roofline
//! (`max` of per-module totals) it captures stage *imbalance over time*:
//! a burst of large blocks stalls downstream modules even when average
//! utilization is low.
//!
//! Select with [`crate::BossConfig::fidelity`]. Both models share the
//! same functional execution and memory simulation; property tests pin
//! the invariant `roofline <= pipelined <= sum-of-stages`.

use crate::core::{
    CYCLES_PER_COMPARISON, CYCLES_PER_PIVOT_ROUND, CYCLES_PER_SCORE, CYCLES_PER_TOPK_INSERT,
};
use crate::stats::EvalCounts;

/// Which latency estimator a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingFidelity {
    /// Bottleneck-stage roofline: `max` over module cycle totals.
    #[default]
    Roofline,
    /// Event-driven replay of the block trace through pipeline resources.
    Pipelined,
}

/// One fetched block in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockEvent {
    /// Memory cycle at which the block's data is available.
    pub data_ready: u64,
    /// Decompression cycles the block costs.
    pub dec_cycles: u64,
    /// Which decompression module the block's list is bound to.
    pub dec_unit: usize,
    /// Postings in the block (drives the set-operation stage).
    pub postings: u32,
}

/// A pipeline resource: busy until `free`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Resource {
    free: u64,
}

impl Resource {
    /// Schedules work of `duration` cycles that cannot start before
    /// `earliest`; returns the completion cycle.
    pub(crate) fn schedule(&mut self, earliest: u64, duration: u64) -> u64 {
        let start = earliest.max(self.free);
        self.free = start + duration;
        self.free
    }
}

/// Replays a block trace through the core's resources, with the
/// query's scored documents, comparisons, pivot rounds and top-k
/// insertions from `eval`.
///
/// Stages: `units` decompression modules (blocks in trace order per
/// unit), a set-operation engine consuming decompressed blocks, scoring
/// spread over `scorers` effective scoring modules, and the top-k queue.
/// Scoring and top-k work is charged proportionally as the set-op stage
/// progresses, which models their overlap with upstream work.
pub(crate) fn replay(events: &[BlockEvent], eval: &EvalCounts, scorers: u64, units: usize) -> u64 {
    let mut dec_units = vec![Resource::default(); units.max(1)];
    let mut setop = Resource::default();

    let total_postings: u64 = events
        .iter()
        .map(|e| u64::from(e.postings))
        .sum::<u64>()
        .max(1);
    let setop_total = (eval.comparisons as f64 * CYCLES_PER_COMPARISON
        + eval.pivot_rounds as f64 * CYCLES_PER_PIVOT_ROUND) as u64;
    let score_total = (eval.docs_scored as f64 * CYCLES_PER_SCORE / scorers.max(1) as f64) as u64;
    let topk_total = (eval.topk_inserts as f64 * CYCLES_PER_TOPK_INSERT) as u64;

    let mut last_drain = 0u64;
    let mut downstream_done = 0u64; // postings fully consumed downstream
    for e in events {
        let unit = e.dec_unit % dec_units.len();
        let decoded_at = dec_units[unit].schedule(e.data_ready, e.dec_cycles);
        // The set-op stage consumes this block's share of the comparison
        // work once the block is decoded.
        downstream_done += u64::from(e.postings);
        let share = |total: u64, prev: u64| -> u64 {
            total * downstream_done / total_postings - total * prev / total_postings
        };
        let prev = downstream_done - u64::from(e.postings);
        let setop_cycles = share(setop_total, prev);
        let merged_at = setop.schedule(decoded_at, setop_cycles);
        // Scoring + top-k drain proportionally after the merge.
        let tail = share(score_total, prev) + share(topk_total, prev);
        last_drain = last_drain.max(merged_at + tail);
    }
    if events.is_empty() {
        // Pure register-path queries (everything skipped): the drain is
        // the scoring/top-k work alone.
        return setop_total + score_total + topk_total;
    }
    last_drain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(data_ready: u64, dec: u64, unit: usize, postings: u32) -> BlockEvent {
        BlockEvent {
            data_ready,
            dec_cycles: dec,
            dec_unit: unit,
            postings,
        }
    }

    #[test]
    fn resource_serializes_work() {
        let mut r = Resource::default();
        assert_eq!(r.schedule(0, 10), 10);
        assert_eq!(r.schedule(5, 10), 20, "waits for the resource");
        assert_eq!(r.schedule(50, 10), 60, "waits for the data");
    }

    #[test]
    fn perfectly_overlapped_pipeline() {
        // 4 blocks, one per unit, all data ready at 0: decompression is
        // fully parallel and the set-op stage serializes.
        let events: Vec<BlockEvent> = (0..4).map(|u| ev(0, 100, u, 128)).collect();
        let eval = EvalCounts {
            comparisons: 400,
            ..Default::default()
        };
        let cycles = replay(&events, &eval, 1, 4);
        // First block decoded at 100; 400 comparisons spread across blocks.
        assert!(cycles >= 100 + 400, "{cycles}");
        assert!(cycles <= 100 + 400 + 4, "{cycles}");
    }

    #[test]
    fn single_unit_serializes_decompression() {
        let events: Vec<BlockEvent> = (0..4).map(|_| ev(0, 100, 0, 1)).collect();
        let cycles = replay(&events, &EvalCounts::default(), 1, 1);
        assert!(cycles >= 400, "blocks on one unit serialize: {cycles}");
    }

    #[test]
    fn memory_stall_propagates() {
        let events = vec![ev(10_000, 10, 0, 1)];
        let cycles = replay(&events, &EvalCounts::default(), 1, 4);
        assert!(cycles >= 10_010);
    }

    #[test]
    fn empty_trace_is_tail_work_only() {
        let eval = EvalCounts {
            docs_scored: 100,
            topk_inserts: 50,
            ..Default::default()
        };
        let cycles = replay(&[], &eval, 2, 4);
        assert_eq!(cycles, 100 / 2 + 50);
    }

    #[test]
    fn pipelined_bounded_by_roofline_and_sum() {
        // pipelined >= max(stage totals started at their earliest), and
        // <= sum of all stage totals + max data_ready.
        let events: Vec<BlockEvent> = (0..16)
            .map(|i| ev(i * 50, 64 + (i % 3) * 40, (i % 4) as usize, 128))
            .collect();
        let eval = EvalCounts {
            docs_scored: 500,
            comparisons: 2048,
            pivot_rounds: 100,
            topk_inserts: 200,
            ..Default::default()
        };
        let cycles = replay(&events, &eval, 4, 4);
        let dec_per_unit: u64 = events
            .iter()
            .filter(|e| e.dec_unit == 0)
            .map(|e| e.dec_cycles)
            .sum();
        let setop = 2048 + 200;
        let roofline = dec_per_unit.max(setop);
        let sum_all: u64 =
            events.iter().map(|e| e.dec_cycles).sum::<u64>() + setop + 500 / 4 + 200 + 800;
        assert!(cycles >= roofline, "{cycles} >= {roofline}");
        assert!(cycles <= sum_all + 800, "{cycles} <= {sum_all}");
    }
}
