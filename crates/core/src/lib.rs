//! BOSS: a bandwidth-optimized near-data search accelerator for
//! storage-class memory — functional and timing model.
//!
//! This crate is the paper's primary contribution. A [`BossDevice`] sits in
//! the memory controller of an SCM node and executes the whole inverted
//! index search pipeline — block fetch (with overlap checking and
//! score-estimation early termination), programmable decompression,
//! pipelined Small-versus-Small intersection, a hardware WAND union,
//! BM25 scoring, and a shift-register top-k queue — returning only the
//! top-k hits over the shared host interconnect. The device is the whole
//! model: it owns the index image, the configuration and the reusable
//! query buffers, every query's outcome is a pure function of (index,
//! configuration, query, `k`, floor), and `boss-engine` implements its
//! `SearchEngine` trait directly on it.
//!
//! Two coupled layers (see `DESIGN.md`):
//!
//! * the **functional layer** produces exact results: the early-termination
//!   machinery is safe pruning, so BOSS's hits equal exhaustive evaluation
//!   ([`boss_index::reference`]) for every query and every [`EtMode`];
//! * the **timing layer** charges cycles to each pipeline module and every
//!   byte to the [`boss_scm`] channel model, producing the statistics the
//!   paper's figures report.
//!
//! # Example
//!
//! ```
//! use boss_core::{BossConfig, BossDevice};
//! use boss_index::{IndexBuilder, QueryExpr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let index = IndexBuilder::new()
//!     .add_documents(["near data processing", "data pools", "scm data nodes"])
//!     .build()?;
//! let mut device = BossDevice::new(&index, BossConfig::default());
//! let outcome = device.search_expr(&QueryExpr::term("data"), 2)?;
//! assert_eq!(outcome.hits.len(), 2);
//! # Ok(())
//! # }
//! ```

// A query's inputs — the index bytes, the fault plan, the query text —
// may be corrupt or hostile; every failure they can cause is a typed
// `Error`, so panicking constructs need a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod api;
mod config;
mod core;
mod device;
mod expr;
#[cfg(test)]
mod fault_tests;
mod fetch;
mod intersect;
mod mai;
mod pipeline;
mod plan;
pub mod pool;
pub mod power;
mod stats;

pub use crate::core::{
    CYCLES_PER_COMPARISON, CYCLES_PER_PIVOT_ROUND, CYCLES_PER_SCORE, CYCLES_PER_TOPK_INSERT,
    QUERY_OVERHEAD, SCORING_FILL,
};
pub use api::{BossHandle, SearchRequest};
pub use boss_index::{QueryAlgorithm, TopK, ALL_ALGORITHMS};
pub use boss_scm::MemoryConfig;
pub use config::{
    BossConfig, DegradePolicy, EngineSetup, EtMode, CLOCK_GHZ, DECOMPRESSORS_PER_CORE, MAX_TERMS,
    MAX_TERMS_PER_CORE, SCORERS_PER_CORE,
};
pub use device::BossDevice;
pub use expr::parse_query;
pub use mai::Tlb;
pub use pipeline::TimingFidelity;
pub use plan::QueryPlan;
pub use stats::{EvalCounts, QueryOutcome};
