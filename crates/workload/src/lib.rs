//! Workload generation for the BOSS evaluation.
//!
//! Four generators, all deterministic under an explicit seed:
//!
//! * [`streams`] — the seven synthetic integer streams of Figure 3
//!   (uniform sparse/dense, clustered sparse/dense, outlier 10 %/30 %,
//!   Zipf);
//! * [`corpus`] — synthetic web corpora standing in for ClueWeb12 and
//!   CC-News: Zipfian document frequencies, clustered docID locality, and
//!   geometric term frequencies (see `DESIGN.md` for why these match the
//!   properties the paper's experiments exercise);
//! * [`queries`] — the Q1–Q6 query types of Table II and a TREC-like
//!   sampler that draws terms by document frequency;
//! * [`arrivals`] — open-loop arrival processes (Poisson and bursty
//!   MMPP-2) feeding the serving harness in `boss-engine`.
//!
//! # Example
//!
//! ```
//! use boss_workload::corpus::{CorpusSpec, Scale};
//! use boss_workload::queries::QuerySampler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let index = CorpusSpec::ccnews_like(Scale::Smoke).build()?;
//! let mut sampler = QuerySampler::new(&index, 42)?;
//! let queries = sampler.trec_like_mix(12)?;
//! assert_eq!(queries.len(), 12);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod arrivals;
pub mod corpus;
pub mod queries;
pub mod rng;
pub mod streams;
