//! Channel-level memory timing simulator for the BOSS reproduction.
//!
//! The BOSS paper evaluates its accelerator against an SCM (Intel Optane
//! DCPMM-like) memory system whose defining properties are *bandwidth
//! asymmetries*: sequential reads are several times faster than random
//! reads, writes are much slower than reads, and the whole device is far
//! slower than DRAM. This crate models exactly those properties at the
//! channel level:
//!
//! * a configurable number of channels with address interleaving,
//! * per-channel ready times (queueing), so bursts of requests from a
//!   pipelined core contend realistically,
//! * device access granularity (256 B for Optane's internal "XPLine",
//!   64 B for DRAM), so tiny random reads pay for a full granule,
//! * per-category traffic accounting (`LD List`, `LD Score`, `LD Inter`,
//!   `ST Inter`, `ST Result`, metadata) feeding the paper's Figure 15.
//!
//! All timing is expressed in *core cycles* at the accelerator clock of
//! 1 GHz, which makes 1 GB/s exactly 1 byte/cycle and keeps the arithmetic
//! transparent.

// The simulator sits on every decode/fault path; corruption must surface
// as typed errors, so panicking constructs need a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//!
//! # Example
//!
//! ```
//! use boss_scm::{AccessCategory, AccessKind, MemoryConfig, MemorySim, PatternHint};
//!
//! let mut mem = MemorySim::new(MemoryConfig::optane_dcpmm());
//! // A 1 KiB sequential read of posting-list data starting at cycle 0:
//! let done = mem.access(0x1000, 1024, AccessKind::Read, AccessCategory::LdList,
//!                       PatternHint::Sequential, 0);
//! assert!(done > 0);
//! assert_eq!(mem.stats().bytes(AccessCategory::LdList), 1024);
//! ```

mod config;
mod fault;
mod sim;
mod stats;

pub use config::{MemoryConfig, MemoryKind};
pub use fault::FaultPlan;
pub use sim::{AccessKind, AccessResult, MemorySim, PatternHint, MIN_TRANSFER_BYTES};
pub use stats::{AccessCategory, FaultCounts, MemStats, ACCESS_CATEGORIES};
