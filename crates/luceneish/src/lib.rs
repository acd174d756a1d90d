//! Lucene-like CPU search baseline with a calibrated cycle cost model.
//!
//! The BOSS paper's software baseline is Apache Lucene on an 8-core Xeon
//! 8280M, and its role in every figure is specific: a *compute-bound*
//! engine whose throughput barely changes between DRAM and SCM
//! (Figure 16 shows ≤15 % difference) and that anchors the normalization
//! of Figures 9–13 and 17. This crate reproduces that role:
//!
//! * **functionally** the engine evaluates queries exhaustively
//!   (decompress → set operations → score all candidates → heap top-k),
//!   bit-identical to [`boss_index::reference`], so all three engines'
//!   hits can be compared;
//! * **temporally** a cost model charges CPU cycles per decoded posting,
//!   per merge step, per scored document and per heap operation at
//!   2.7 GHz, plus memory time through the host-side `boss-scm` channel
//!   model. The constants are calibrated (see `EXPERIMENTS.md`) so the
//!   BOSS-vs-Lucene speedups land in the paper's reported range — the
//!   model is the paper's black-box baseline, not a JVM simulator.
//!
//! Query-level parallelism across threads matches Lucene's serving model:
//! one query per thread, batch makespan = greedy list scheduling.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod engine;

pub use engine::{LuceneConfig, LuceneEngine, HOST_CLOCK_GHZ};
