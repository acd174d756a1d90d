//! Unified engine layer over the three simulated search systems.
//!
//! The bench harness used to carry one hand-written batch driver per
//! system (BOSS, IIU, Lucene-like), each re-implementing scheduling,
//! stat merging, and roofline math with slightly different constants.
//! This crate factors that into:
//!
//! * [`SearchEngine`] — the per-query contract, implemented on the
//!   simulators themselves ([`Boss`], [`Iiu`], [`Lucene`] are aliases of
//!   `BossDevice`, `IiuEngine`, `LuceneEngine`): execute one query and
//!   return its [`QueryOutcome`], plus label/clock and the small set of
//!   per-engine scheduling hooks (gang width, SJF work estimate,
//!   bandwidth roofline) that the batch driver needs;
//! * [`BatchExecutor`] — one generic batch driver that executes a query
//!   set on any engine, optionally sharded across OS threads, and
//!   replays the simulated core/thread schedule serially so results are
//!   **bit-identical at every thread count**.
//!
//! # Determinism contract
//!
//! Every engine's per-query execution is pure: given the same index,
//! configuration, query, `k` and floor, it returns the same
//! [`QueryOutcome`] (hits, cycles, traffic, counters) regardless of which
//! OS thread runs it or what ran before it — an engine keeps no totals;
//! whoever wants them sums the outcomes. The executor relies on this:
//!
//! 1. queries are sharded into contiguous chunks, one forked engine per
//!    worker thread, so workers share nothing mutable;
//! 2. outcomes are scattered back to submission order;
//! 3. the simulated schedule (greedy earliest-free lane, gang widths,
//!    bandwidth roofline) is then replayed serially from per-query cycle
//!    counts — it never observes wall-clock thread interleaving;
//! 4. merged [`MemStats`]/[`EvalCounts`] are summed in submission order.
//!
//! Anything that would break this contract (a cache shared across
//! queries, an RNG in an engine, order-dependent accumulation) must not
//! be added to an engine without revisiting the executor.
//!
//! The shard layer ([`Sharded`]) keeps the contract: its routing
//! telemetry (attempt/selection/fault tallies per replica) depends on how
//! queries are chunked across workers, so it is surfaced only through
//! [`Sharded::shard_stats`] — never through an outcome. Its hits equal
//! the single device's at every shard count; its timing is the
//! scatter-gather model's and moves with the shard count by design.

// Engines run user queries over possibly corrupt indexes on worker
// threads; a failure is the query's typed `Error`, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod engines;
mod executor;
#[cfg(test)]
mod pool;
mod serving;
mod sharded;

pub use engines::{Boss, Iiu, Lucene};
pub use executor::{BatchExecutor, EngineBatch, SchedPolicy};
pub use serving::{
    simulate, DegradeLevel, Disposition, OverloadConfig, QueryRecord, ServePolicy, ServiceTable,
    ServingConfig, ServingRun, ALL_SERVE_POLICIES,
};
pub use sharded::{ShardReplicaStats, ShardTiming, Sharded};

// Engine-level result vocabulary: the per-query outcome and the two stat
// carriers inside it are shared by all engines, so the simulator crates'
// types are re-exported as this layer's own. `Error` covers planning
// failures (unknown term, oversized query), which are also common to all
// engines.
pub use boss_core::{EvalCounts, QueryOutcome};
pub use boss_index::Error;
pub use boss_scm::MemStats;

use boss_core::EngineSetup;
use boss_index::QueryExpr;

/// Loads a SPIMI segment directory (written by
/// [`boss_index::SpimiBuilder`]) and merges it into the one owned
/// [`boss_index::InvertedIndex`] every engine in this crate borrows.
/// The merge re-encodes against global statistics, so an engine opened
/// this way is bit-identical — hits, cycles, traffic — to the same
/// engine over an in-memory build of the same corpus.
///
/// # Errors
///
/// Propagates manifest/segment validation and I/O failures
/// ([`boss_index::io::IoError`]); every corrupt-file condition is a
/// typed error, never a panic.
pub fn open_segments(
    dir: impl AsRef<std::path::Path>,
) -> Result<boss_index::InvertedIndex, boss_index::io::IoError> {
    boss_index::SegmentSet::open_dir(dir)?.merge()
}

/// One simulated search system bound to an index: BOSS, IIU, or the
/// Lucene-like software baseline.
///
/// An engine is stateless between queries: an outcome is a pure function
/// of (index, configuration, query, `k`, floor), and it carries the
/// query's own [`MemStats`] and [`EvalCounts`] — there are no running
/// totals to read or reset.
pub trait SearchEngine {
    /// Display label, e.g. `BOSSx8`, `IIUx8`, `Lucene x8`.
    fn label(&self) -> String;

    /// Clock of the simulated lanes, GHz (cycles ↔ seconds conversion).
    fn clock_ghz(&self) -> f64;

    /// What the engine's configuration varies: lanes, memory, algorithm.
    fn setup(&self) -> &EngineSetup;

    /// Parallel lanes the batch scheduler fills: cores or threads.
    fn lanes(&self) -> usize {
        self.setup().lanes as usize
    }

    /// Executes one query:
    /// [`search_seeded`](SearchEngine::search_seeded) with no floor.
    ///
    /// # Errors
    ///
    /// As [`search_seeded`](SearchEngine::search_seeded).
    fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        self.search_seeded(expr, k, f32::NEG_INFINITY)
    }

    /// Executes one query with the top-k score floor pre-seeded at
    /// `floor` (`f32::NEG_INFINITY`: no floor).
    ///
    /// The floor is a pruning hint with a drop contract: the engine may
    /// discard hits scoring at or below `floor` (and skip the work of
    /// producing them), but must keep every hit strictly above it. The
    /// [`Sharded`] coordinator uses this to share the running global
    /// threshold of its scatter-gather merge with later shards — a later
    /// shard's tie at the running k-th score loses the merge to the
    /// earlier shard's smaller-docID incumbents (shards are contiguous
    /// ascending document ranges), so dropping it never changes the
    /// merged top-k. An engine may ignore the floor: always correct,
    /// never faster.
    ///
    /// # Errors
    ///
    /// Planning errors ([`Error::UnknownTerm`], [`Error::InvalidQuery`]),
    /// plus decode/fault errors ([`Error::Codec`],
    /// [`Error::CorruptMetadata`], [`Error::ReadFault`]) when the engine
    /// runs over corrupted data or
    /// an SCM fault plan under the `FailQuery` degradation policy. Under
    /// `SkipBlock` the query completes instead and the dropped blocks are
    /// counted in [`EvalCounts::blocks_skipped_fault`].
    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        floor: f32,
    ) -> Result<QueryOutcome, Error>;

    /// A fresh engine over the same index and configuration — what each
    /// executor worker thread owns.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Lanes this query occupies simultaneously (BOSS gangs cores for
    /// wide queries; everything else runs on one lane). Unplannable
    /// queries report 1 — the error surfaces at execution instead.
    fn gang_width(&self, _expr: &QueryExpr) -> usize {
        1
    }

    /// Scheduling work estimate for shortest-job-first ordering. The
    /// default (0) makes SJF degenerate to FIFO.
    fn work_estimate(&self, _expr: &QueryExpr) -> u64 {
        0
    }

    /// Bandwidth-roofline bound on the batch makespan, in cycles of the
    /// engine's clock: the memory serves at most `channels` channel-cycles
    /// per 1 GHz memory cycle, so a batch cannot finish faster than its
    /// aggregate occupancy allows.
    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        let channels = f64::from(self.setup().memory.channels.max(1));
        (mem.busy_cycles as f64 / channels * self.clock_ghz()) as u64
    }

    /// Achieved batch bandwidth over the makespan, GB/s. Accelerators
    /// report *effective* (device-granule) traffic; the Lucene engine
    /// overrides this with logical bytes, as the paper plots host-side.
    fn bandwidth_gbps(&self, mem: &MemStats, makespan_cycles: u64) -> f64 {
        mem.achieved_gbps(makespan_cycles)
    }
}
