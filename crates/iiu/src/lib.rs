//! IIU baseline: a re-implementation of the "Inverted Index Unit"
//! accelerator (ASPLOS 2020) as the BOSS paper characterizes it
//! (Sections II-D and III).
//!
//! The three properties BOSS exploits against IIU are modeled faithfully:
//!
//! * **binary-search intersection** — membership testing probes the larger
//!   list's block directory by binary search, generating *random* memory
//!   accesses that SCM serves slowly;
//! * **no union pruning** — union queries decompress every block of every
//!   list and score every document;
//! * **memory-spilled intermediates and results** — multi-term queries
//!   write intermediate posting lists to memory and read them back
//!   (`ST Inter`/`LD Inter`), and the full scored result list is written
//!   out for the host to sort (`ST Result`); per the paper's methodology,
//!   the host-side top-k time itself is *not* charged.
//!
//! Functionally IIU returns the same top-k as the exhaustive reference
//! (the host sorts the full result list), so tests can compare all three
//! engines hit-for-hit.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod engine;

pub use engine::{IiuConfig, IiuEngine};
