//! Inverted index substrate for the BOSS reproduction.
//!
//! Provides everything the accelerator models operate on:
//!
//! * [`PostingList`]s of `(docID, term-frequency)` tuples,
//! * block-structured encoding ([`EncodedList`]) with 128-value blocks,
//!   d-gap deltas, and the paper's 19-byte per-block metadata
//!   ([`BlockMeta`]: first/last docID, block-max term score, data offset,
//!   element count, bit width, exception offset),
//! * [`Bm25`] scoring with the per-document precomputed norm (the +4 B/doc
//!   metadata of Section IV-C "Scoring Module"),
//! * a flat virtual-address [`layout::IndexImage`] so the memory simulators
//!   see realistic addresses,
//! * the [`QueryExpr`] AST shared by all engines, and
//! * a [`mod@reference`] evaluator — the exhaustive,
//!   obviously-correct implementation every accelerated engine is tested
//!   against.
//!
//! # Example
//!
//! ```
//! use boss_index::{IndexBuilder, QueryExpr};
//!
//! # fn main() -> Result<(), boss_index::Error> {
//! let docs = ["the cat sat", "the dog sat", "a cat and a dog"];
//! let index = IndexBuilder::new().add_documents(docs.iter().copied()).build()?;
//! let q = QueryExpr::and([QueryExpr::term("cat"), QueryExpr::term("sat")]);
//! let top = boss_index::reference::evaluate(&index, &q, 10)?;
//! assert_eq!(top.len(), 1); // only doc 0 has both
//! # Ok(())
//! # }
//! ```

// Decode paths consume untrusted (possibly corrupt) bytes; corruption
// must surface as typed errors, so panicking constructs need a
// per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

// Every document a SPIMI build ingests goes through the accumulator;
// whatever it refuses is a typed `Error` before anything is touched.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod accumulator;
mod algorithm;
mod bm25;
// Builds run over caller-supplied postings and feed every other
// construction path; a bad input is a typed `Error`, never a panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod builder;
// Every engine's cursor walks untrusted descriptors and payload: an
// unusable block is handed to the engine's sink as a typed `Error`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod cursor;
mod encoded;
mod error;
mod index;
pub mod io;
pub mod layout;
// Match sets are built from decoded (untrusted) postings and merged on
// every multi-term query of every engine: no failure may be a panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod matches;
mod posting;
// Pruned traversals take skip decisions on untrusted metadata, so —
// like the shard layer — every failure must be a typed `Error`, never
// a panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod prune;
mod query;
pub mod reference;
mod score;
// The baselines' whole traversal: loads, joins and scoring over untrusted
// lists, so every failure is a typed `Error`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod svs;
// The union round loop and its frontier run once per candidate document
// of every engine's WAND-family union, over untrusted bounds: every
// failure is a typed `Error`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod union;
// Segment files come from disk and are untrusted end to end: every
// claimed length is capped against the real input size before any
// allocation and every failure is a typed `IoError`, never a panic.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod segment;
// The shard layer is driven by untrusted CLI parameters (`--shards N`),
// so the crate-wide warn gate above is hardened to a deny here: shard
// code must surface every failure as a typed `Error`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod shard;
// The SPIMI spill/merge pipeline reads segment files back from disk, so
// it inherits the segment module's untrusted-input contract.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod spimi;
// The top-k queue sits on every engine's per-posting path.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod topk;

pub use algorithm::{QueryAlgorithm, ALL_ALGORITHMS};
pub use bm25::{Bm25, Bm25Params};
pub use builder::{IndexBuilder, SchemeChoice};
pub use encoded::{
    BlockMeta, DecodeScratch, EncodedList, ListEncoder, BLOCK_META_BYTES, BLOCK_SIZE,
};
pub use error::Error;
pub use index::{InvertedIndex, TermId, TermInfo};
pub use matches::{union_scored, GroupMatches};
pub use posting::{Posting, PostingList};
pub use query::{QueryExpr, SearchHit};
pub use score::ScoreScratch;
pub use segment::{SegmentHeader, SegmentReader, SegmentRegions};
pub use spimi::{SegmentEntry, SegmentSet, SpimiBuilder, SpimiConfig, SpimiStats};
pub use topk::TopK;

/// Document identifier within a shard.
pub type DocId = u32;
