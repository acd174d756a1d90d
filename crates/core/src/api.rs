//! The offloading API (Section IV-D): `init()` + `search()` in Rust form.
//!
//! The C-style intrinsics of the paper map to:
//!
//! * `init(indexFile, configFile)` → [`BossHandle::init`], which lays the
//!   index image out in the memory pool and programs the decompression
//!   modules (the per-list scheme choices live in the index itself);
//! * `search(qExpression, compType[], nTerm, listAddr[], resultAddr,
//!   resultSize)` → [`BossHandle::search`] with a [`SearchRequest`]: the
//!   query expression string is parsed exactly as the API describes
//!   (quoted terms, AND/OR, parentheses), and list addresses/compression
//!   types are resolved from the image rather than passed by hand.

use crate::config::BossConfig;
use crate::device::BossDevice;
use crate::expr::parse_query;
use crate::stats::QueryOutcome;
use boss_index::{Error, InvertedIndex};

/// One `search()` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// The query expression, e.g. `"A" AND ("B" OR "C")`.
    pub q_expression: String,
    /// Number of results to return (the `resultSize` slot; the paper's
    /// default k is 1000).
    pub k: usize,
}

impl SearchRequest {
    /// A request with the device-default k.
    pub fn new(q_expression: impl Into<String>) -> Self {
        SearchRequest {
            q_expression: q_expression.into(),
            k: 0,
        }
    }

    /// Overrides k.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }
}

/// A host-side handle to an initialized BOSS device.
#[derive(Debug)]
pub struct BossHandle<'a> {
    device: BossDevice<'a>,
}

impl<'a> BossHandle<'a> {
    /// The `init()` intrinsic: binds the index to a device and returns the
    /// communication handle.
    pub fn init(index: &'a InvertedIndex, config: BossConfig) -> Self {
        BossHandle {
            device: BossDevice::new(index, config),
        }
    }

    /// The `search()` intrinsic: parse, validate (≤16 terms), offload,
    /// and return the top-k outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] for malformed expressions or
    /// queries beyond the hardware limits, and [`Error::UnknownTerm`] for
    /// out-of-vocabulary terms.
    pub fn search(&mut self, request: &SearchRequest) -> Result<QueryOutcome, Error> {
        let expr = parse_query(&request.q_expression)?;
        let k = if request.k == 0 {
            self.device.config().k
        } else {
            request.k
        };
        self.device.search_expr(&expr, k)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_index::IndexBuilder;

    fn index() -> InvertedIndex {
        IndexBuilder::new()
            .add_documents([
                "storage class memory pool",
                "memory pool node",
                "inverted index search",
                "search accelerator for memory",
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn init_and_search() {
        let idx = index();
        let mut h = BossHandle::init(&idx, BossConfig::default());
        let out = h
            .search(&SearchRequest::new(r#""memory" AND ("pool" OR "search")"#).with_k(10))
            .unwrap();
        assert!(!out.hits.is_empty());
        // Matches the reference evaluation of the same expression.
        let expr = crate::expr::parse_query(r#""memory" AND ("pool" OR "search")"#).unwrap();
        let expect = boss_index::reference::evaluate(&idx, &expr, 10).unwrap();
        assert_eq!(out.hits, expect);
    }

    #[test]
    fn default_k_comes_from_config() {
        let idx = index();
        let mut h = BossHandle::init(&idx, BossConfig::default().with_k(2));
        let out = h.search(&SearchRequest::new(r#""memory""#)).unwrap();
        assert!(out.hits.len() <= 2);
    }

    #[test]
    fn bad_expression_is_rejected() {
        let idx = index();
        let mut h = BossHandle::init(&idx, BossConfig::default());
        assert!(
            h.search(&SearchRequest::new("memory")).is_err(),
            "unquoted term"
        );
        assert!(h.search(&SearchRequest::new(r#""a" AND"#)).is_err());
    }

    #[test]
    fn too_many_terms_rejected() {
        let idx = index();
        let mut h = BossHandle::init(&idx, BossConfig::default());
        let big: Vec<String> = (0..17).map(|i| format!("\"t{i}\"")).collect();
        let q = big.join(" OR ");
        assert!(h.search(&SearchRequest::new(q)).is_err());
    }
}
