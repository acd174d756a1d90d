//! Query planning: normalizing a [`QueryExpr`] into BOSS's execution form.
//!
//! BOSS "performs intersections first" (Section IV-B "Mixed Query"): a
//! mixed query is rewritten by distributing AND over OR, e.g.
//! `A ∩ (B ∪ C ∪ D)` becomes `(A∩B) ∪ (A∩C) ∪ (A∩D)`. The normalized plan
//! is therefore a union of intersection groups:
//!
//! * `Q1 A`            → `[[A]]`
//! * `Q2 A AND B`      → `[[A, B]]`
//! * `Q3 A OR B`       → `[[A], [B]]`
//! * `Q5 A OR B OR C OR D` → `[[A], [B], [C], [D]]`
//! * `Q6 A AND (B OR C OR D)` → `[[A,B], [A,C], [A,D]]`

use crate::config::{BossConfig, MAX_TERMS};
use boss_index::{Error, InvertedIndex, QueryExpr, TermId};

/// The normalized execution plan: a union over intersection groups of
/// term ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    groups: Vec<Vec<TermId>>,
    n_distinct_terms: usize,
}

impl QueryPlan {
    /// [`QueryPlan::new`] for a BOSS device: every device plans under
    /// the same hardware limit, so `_config` decides nothing.
    ///
    /// # Errors
    ///
    /// As [`QueryPlan::new`].
    pub fn from_expr(
        index: &InvertedIndex,
        expr: &QueryExpr,
        _config: &BossConfig,
    ) -> Result<Self, Error> {
        Self::new(index, expr)
    }

    /// Normalizes `expr` against `index` for hardware that handles
    /// [`MAX_TERMS`] terms.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownTerm`] for out-of-vocabulary terms;
    /// * [`Error::InvalidQuery`] when the query is structurally invalid,
    ///   exceeds [`MAX_TERMS`] terms, an intersection group exceeds them,
    ///   or distribution blows past [`MAX_TERMS`] groups.
    pub fn new(index: &InvertedIndex, expr: &QueryExpr) -> Result<Self, Error> {
        expr.validate(MAX_TERMS)?;
        let mut groups = to_dnf(index, expr)?;
        // Exact duplicates are redundant; subset absorption is NOT applied
        // because a superset group can still contribute extra term scores
        // to documents that satisfy it (clause-matching semantics).
        groups.sort();
        groups.dedup();
        if groups.len() > MAX_TERMS {
            return Err(Error::InvalidQuery {
                reason: format!(
                    "query expands to {} intersection groups; the hardware handles {}",
                    groups.len(),
                    MAX_TERMS
                ),
            });
        }
        for g in &groups {
            // A single core pipelines up to 4 terms; chaining the mergers
            // of 4 cores extends an intersection to the 16-term device
            // limit (Section IV-D).
            if g.len() > MAX_TERMS {
                return Err(Error::InvalidQuery {
                    reason: format!(
                        "an intersection group has {} terms; the hardware chains up to {}",
                        g.len(),
                        MAX_TERMS
                    ),
                });
            }
        }
        // Deterministic group order (by first term, then lexicographic).
        groups.sort();
        let mut all: Vec<TermId> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        Ok(QueryPlan {
            groups,
            n_distinct_terms: all.len(),
        })
    }

    /// The intersection groups (each sorted by ascending document
    /// frequency is the *executor's* job; here they are sorted by id).
    pub fn groups(&self) -> &[Vec<TermId>] {
        &self.groups
    }

    /// Number of distinct terms in the plan.
    pub fn n_distinct_terms(&self) -> usize {
        self.n_distinct_terms
    }

    /// Whether the plan is a single intersection group.
    pub fn is_pure_intersection(&self) -> bool {
        self.groups.len() == 1
    }
}

fn to_dnf(index: &InvertedIndex, expr: &QueryExpr) -> Result<Vec<Vec<TermId>>, Error> {
    const EXPANSION_LIMIT: usize = 256;
    match expr {
        QueryExpr::Term(t) => Ok(vec![vec![index.term_id(t)?]]),
        QueryExpr::Or(subs) => {
            let mut out = Vec::new();
            for s in subs {
                out.extend(to_dnf(index, s)?);
                if out.len() > EXPANSION_LIMIT {
                    return Err(Error::InvalidQuery {
                        reason: "query too complex to distribute".into(),
                    });
                }
            }
            Ok(out)
        }
        QueryExpr::And(subs) => {
            let mut acc: Vec<Vec<TermId>> = vec![vec![]];
            for s in subs {
                let rhs = to_dnf(index, s)?;
                let mut next = Vec::with_capacity(acc.len() * rhs.len());
                for a in &acc {
                    for r in &rhs {
                        let mut g = a.clone();
                        g.extend_from_slice(r);
                        g.sort_unstable();
                        g.dedup();
                        next.push(g);
                    }
                }
                if next.len() > EXPANSION_LIMIT {
                    return Err(Error::InvalidQuery {
                        reason: "query too complex to distribute".into(),
                    });
                }
                acc = next;
            }
            Ok(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use boss_index::IndexBuilder;

    fn setup() -> (InvertedIndex, BossConfig) {
        let idx = IndexBuilder::new()
            .add_documents(["a b c d e f", "a b", "c d", "e f", "a c e"])
            .build()
            .unwrap();
        (idx, BossConfig::default())
    }

    fn ids(index: &InvertedIndex, terms: &[&str]) -> Vec<TermId> {
        terms.iter().map(|t| index.term_id(t).unwrap()).collect()
    }

    #[test]
    fn table2_plans() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);

        let p = QueryPlan::from_expr(&idx, &t("a"), &cfg).unwrap();
        assert_eq!(p.groups(), &[ids(&idx, &["a"])]);
        assert!(p.is_pure_intersection());

        let p = QueryPlan::from_expr(&idx, &QueryExpr::and([t("a"), t("b")]), &cfg).unwrap();
        assert_eq!(p.groups(), &[ids(&idx, &["a", "b"])]);
        assert!(p.is_pure_intersection());

        let p = QueryPlan::from_expr(&idx, &QueryExpr::or([t("a"), t("b")]), &cfg).unwrap();
        assert_eq!(p.groups().len(), 2);
        assert!(!p.is_pure_intersection());

        // Q6: A AND (B OR C OR D) -> (A∩B) ∪ (A∩C) ∪ (A∩D)
        let q6 = QueryExpr::and([t("a"), QueryExpr::or([t("b"), t("c"), t("d")])]);
        let p = QueryPlan::from_expr(&idx, &q6, &cfg).unwrap();
        assert_eq!(p.groups().len(), 3);
        for g in p.groups() {
            assert_eq!(g.len(), 2);
            assert!(g.contains(&idx.term_id("a").unwrap()));
        }
        assert_eq!(p.n_distinct_terms(), 4);
    }

    #[test]
    fn exact_duplicate_groups_collapse() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);
        let q = QueryExpr::or([
            QueryExpr::and([t("a"), t("b")]),
            QueryExpr::and([t("b"), t("a")]),
        ]);
        let p = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
        assert_eq!(p.groups(), &[ids(&idx, &["a", "b"])]);
    }

    #[test]
    fn duplicate_terms_collapse() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);
        let q = QueryExpr::and([t("a"), t("a")]);
        let p = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
        assert_eq!(p.groups(), &[ids(&idx, &["a"])]);
    }

    #[test]
    fn redundant_groups_kept_for_clause_scoring() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);
        // a OR (a AND b): the (a AND b) group is candidate-redundant but
        // still contributes b's score to documents holding both, so the
        // planner must keep it.
        let q = QueryExpr::or([t("a"), QueryExpr::and([t("a"), t("b")])]);
        let p = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
        assert_eq!(p.groups().len(), 2);
    }

    #[test]
    fn five_term_and_spans_chained_cores() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);
        let q = QueryExpr::and([t("a"), t("b"), t("c"), t("d"), t("e")]);
        let p = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
        assert_eq!(p.groups().len(), 1);
        assert_eq!(p.groups()[0].len(), 5);
    }

    #[test]
    fn unknown_term() {
        let (idx, cfg) = setup();
        let err = QueryPlan::from_expr(&idx, &QueryExpr::term("zzz"), &cfg).unwrap_err();
        assert!(matches!(err, Error::UnknownTerm { .. }));
    }

    #[test]
    fn nested_mixed_distributes() {
        let (idx, cfg) = setup();
        let t = |s: &str| QueryExpr::term(s);
        // (a OR b) AND (c OR d) -> 4 groups of 2.
        let q = QueryExpr::and([
            QueryExpr::or([t("a"), t("b")]),
            QueryExpr::or([t("c"), t("d")]),
        ]);
        let p = QueryPlan::from_expr(&idx, &q, &cfg).unwrap();
        assert_eq!(p.groups().len(), 4);
        assert!(p.groups().iter().all(|g| g.len() == 2));
    }
}
