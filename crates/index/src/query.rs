//! The query AST shared by every engine, and the result type.

use crate::{DocId, Error};

/// A boolean full-text query over terms.
///
/// BOSS's offload API accepts up to 16 terms with AND/OR operators
/// (Section IV-D); the same AST drives the reference evaluator and the
/// IIU/Lucene baselines so that all engines answer the identical question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryExpr {
    /// A single term.
    Term(String),
    /// Intersection of sub-queries.
    And(Vec<QueryExpr>),
    /// Union of sub-queries.
    Or(Vec<QueryExpr>),
}

impl QueryExpr {
    /// Convenience constructor for a term.
    pub fn term(t: impl Into<String>) -> Self {
        QueryExpr::Term(t.into())
    }

    /// Convenience constructor for an intersection.
    pub fn and<I: IntoIterator<Item = QueryExpr>>(subs: I) -> Self {
        QueryExpr::And(subs.into_iter().collect())
    }

    /// Convenience constructor for a union.
    pub fn or<I: IntoIterator<Item = QueryExpr>>(subs: I) -> Self {
        QueryExpr::Or(subs.into_iter().collect())
    }

    /// All distinct terms in the query, in first-appearance order.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            QueryExpr::Term(t) => {
                if !out.contains(&t.as_str()) {
                    out.push(t);
                }
            }
            QueryExpr::And(subs) | QueryExpr::Or(subs) => {
                for s in subs {
                    s.collect_terms(out);
                }
            }
        }
    }

    /// Validates structure: no empty operators, term count within `max`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] describing the violation.
    pub fn validate(&self, max_terms: usize) -> Result<(), Error> {
        self.validate_structure()?;
        let n = self.terms().len();
        if n == 0 {
            return Err(Error::InvalidQuery {
                reason: "query has no terms".into(),
            });
        }
        if n > max_terms {
            return Err(Error::InvalidQuery {
                reason: format!("query has {n} terms; the limit is {max_terms}"),
            });
        }
        Ok(())
    }

    fn validate_structure(&self) -> Result<(), Error> {
        match self {
            QueryExpr::Term(t) if t.is_empty() => Err(Error::InvalidQuery {
                reason: "empty term".into(),
            }),
            QueryExpr::Term(_) => Ok(()),
            QueryExpr::And(subs) | QueryExpr::Or(subs) => {
                if subs.is_empty() {
                    return Err(Error::InvalidQuery {
                        reason: "empty operator".into(),
                    });
                }
                for s in subs {
                    s.validate_structure()?;
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for QueryExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryExpr::Term(t) => write!(f, "{t:?}"),
            QueryExpr::And(subs) => {
                let parts: Vec<String> = subs.iter().map(|s| s.to_string()).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            QueryExpr::Or(subs) => {
                let parts: Vec<String> = subs.iter().map(|s| s.to_string()).collect();
                write!(f, "({})", parts.join(" OR "))
            }
        }
    }
}

/// One scored document in a result list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The document.
    pub doc: DocId,
    /// Its BM25 query score.
    pub score: f32,
}

impl SearchHit {
    /// Total order used by every engine for top-k: score descending,
    /// docID ascending on ties. Makes results comparable across engines.
    pub fn ranking_cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.doc.cmp(&other.doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_deduplicated_in_order() {
        let q = QueryExpr::and([
            QueryExpr::term("b"),
            QueryExpr::or([QueryExpr::term("a"), QueryExpr::term("b")]),
        ]);
        assert_eq!(q.terms(), vec!["b", "a"]);
    }

    #[test]
    fn validate_limits() {
        let q = QueryExpr::term("x");
        assert!(q.validate(16).is_ok());
        let big = QueryExpr::or((0..20).map(|i| QueryExpr::term(format!("t{i}"))));
        assert!(big.validate(16).is_err());
        assert!(big.validate(20).is_ok());
    }

    #[test]
    fn validate_rejects_empty() {
        assert!(QueryExpr::And(vec![]).validate(16).is_err());
        assert!(QueryExpr::Term(String::new()).validate(16).is_err());
    }

    #[test]
    fn display_roundtrip_shape() {
        let q = QueryExpr::and([
            QueryExpr::term("a"),
            QueryExpr::or([QueryExpr::term("b"), QueryExpr::term("c")]),
        ]);
        assert_eq!(q.to_string(), "(\"a\" AND (\"b\" OR \"c\"))");
    }

    #[test]
    fn ranking_order() {
        let a = SearchHit { doc: 5, score: 2.0 };
        let b = SearchHit { doc: 1, score: 1.0 };
        let c = SearchHit { doc: 0, score: 2.0 };
        let mut v = [a, b, c];
        v.sort_by(|x, y| x.ranking_cmp(y));
        assert_eq!(v.iter().map(|h| h.doc).collect::<Vec<_>>(), [0, 5, 1]);
    }
}
