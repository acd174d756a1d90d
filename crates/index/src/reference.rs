//! Exhaustive reference evaluation.
//!
//! This is the "obviously correct" implementation of query semantics: it
//! decodes whole posting lists, computes candidate documents with plain set
//! algebra, scores every candidate with BM25 over all distinct query terms
//! present in the document, and sorts. Every accelerated engine (BOSS, IIU,
//! the Lucene-like baseline) is required by tests to produce the same
//! hits — BOSS's early-termination machinery is *safe* pruning, so equality
//! is exact up to score ties, which the shared
//! [`SearchHit::ranking_cmp`](crate::SearchHit::ranking_cmp) order resolves
//! deterministically.

use crate::{DocId, Error, InvertedIndex, QueryExpr, SearchHit};
use std::collections::HashMap;

/// Computes the candidate docID set of `expr` (sorted ascending).
///
/// # Errors
///
/// Returns [`Error::UnknownTerm`] for out-of-vocabulary terms and
/// [`Error::InvalidQuery`] for structurally invalid expressions.
pub fn candidates(index: &InvertedIndex, expr: &QueryExpr) -> Result<Vec<DocId>, Error> {
    match expr {
        QueryExpr::Term(t) => {
            let id = index.term_id(t)?;
            let (docs, _) = index.list(id).decode_all()?;
            Ok(docs)
        }
        QueryExpr::And(subs) => {
            if subs.is_empty() {
                return Err(Error::InvalidQuery {
                    reason: "empty AND".into(),
                });
            }
            let mut sets: Vec<Vec<DocId>> = subs
                .iter()
                .map(|s| candidates(index, s))
                .collect::<Result<_, _>>()?;
            // Small-versus-small order, as the SvS algorithm does.
            sets.sort_by_key(Vec::len);
            let mut acc = sets.remove(0);
            for s in sets {
                acc = intersect_sorted(&acc, &s);
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        QueryExpr::Or(subs) => {
            if subs.is_empty() {
                return Err(Error::InvalidQuery {
                    reason: "empty OR".into(),
                });
            }
            let mut acc: Vec<DocId> = Vec::new();
            for s in subs {
                let set = candidates(index, s)?;
                acc = union_sorted(&acc, &set);
            }
            Ok(acc)
        }
    }
}

/// Intersection of two sorted docID slices.
pub(crate) fn intersect_sorted(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Union of two sorted docID slices.
pub(crate) fn union_sorted(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The set of term ids contributing to `doc`'s score under clause-matching
/// semantics: a term counts when it appears in a *satisfied* clause.
///
/// * `Term t` matches iff the document contains `t`, contributing `{t}`;
/// * `And` matches iff all children match, contributing their union;
/// * `Or` matches iff any child matches, contributing the union of the
///   matching children.
///
/// For the paper's query shapes (Table II) this coincides with "every
/// query term present in the document", but it stays well-defined for
/// arbitrary nesting like `(A AND B) OR C`, where a document holding only
/// `A` and `C` is scored on `C` alone — the same rule production engines
/// (and BOSS's union-of-intersections plan) apply.
fn matched_terms(
    expr: &QueryExpr,
    doc_terms: &HashMap<crate::TermId, u32>,
    index: &InvertedIndex,
    out: &mut Vec<crate::TermId>,
) -> bool {
    match expr {
        QueryExpr::Term(t) => {
            // Infallible: `evaluate` resolves every term before scoring.
            #[allow(clippy::expect_used)]
            let id = index.term_id(t).expect("validated before scoring");
            if doc_terms.contains_key(&id) {
                out.push(id);
                true
            } else {
                false
            }
        }
        QueryExpr::And(subs) => {
            let mark = out.len();
            for s in subs {
                if !matched_terms(s, doc_terms, index, out) {
                    out.truncate(mark);
                    return false;
                }
            }
            true
        }
        QueryExpr::Or(subs) => {
            let mut any = false;
            for s in subs {
                any |= matched_terms(s, doc_terms, index, out);
            }
            any
        }
    }
}

/// Scores every candidate of `expr` and returns the top `k` hits in
/// ranking order.
///
/// A document's score is the sum of BM25 term scores over the distinct
/// terms of its *matched clauses* (see `matched_terms` in the source);
/// for Table II's query shapes this equals the familiar "sum over query
/// terms present in the document" of Section II-B.
///
/// # Errors
///
/// Same conditions as [`candidates`].
pub fn evaluate(
    index: &InvertedIndex,
    expr: &QueryExpr,
    k: usize,
) -> Result<Vec<SearchHit>, Error> {
    let cands = candidates(index, expr)?;
    // Per-document (term, tf) for all query terms.
    let mut ids: Vec<_> = expr
        .terms()
        .iter()
        .map(|t| index.term_id(t))
        .collect::<Result<Vec<_>, _>>()?;
    ids.sort_unstable();
    ids.dedup();
    let mut doc_terms: HashMap<DocId, HashMap<crate::TermId, u32>> =
        cands.iter().map(|&d| (d, HashMap::new())).collect();
    for &id in &ids {
        let (docs, tfs) = index.list(id).decode_all()?;
        for (&d, &tf) in docs.iter().zip(&tfs) {
            if let Some(m) = doc_terms.get_mut(&d) {
                m.insert(id, tf);
            }
        }
    }

    let mut hits: Vec<SearchHit> = Vec::with_capacity(cands.len());
    let mut contributing = Vec::new();
    for (&doc, terms) in &doc_terms {
        contributing.clear();
        let matched = matched_terms(expr, terms, index, &mut contributing);
        debug_assert!(matched, "candidates satisfy the expression");
        // Ascending term-id order so f32 summation is bit-identical
        // across every engine in the workspace.
        contributing.sort_unstable();
        contributing.dedup();
        let norm = index.doc_norms()[doc as usize];
        let mut score = 0.0f32;
        for &id in &contributing {
            let idf = index.list(id).idf();
            score += index.bm25().term_score(idf, terms[&id], norm);
        }
        hits.push(SearchHit { doc, score });
    }
    hits.sort_by(SearchHit::ranking_cmp);
    hits.truncate(k);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::IndexBuilder;

    fn idx() -> InvertedIndex {
        IndexBuilder::new()
            .add_documents([
                "apple banana cherry",
                "banana cherry date",
                "cherry date egg",
                "apple apple cherry",
                "banana banana banana",
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn set_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 8]), vec![3, 5]);
        assert_eq!(union_sorted(&[1, 3], &[2, 3, 9]), vec![1, 2, 3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(union_sorted(&[], &[1]), vec![1]);
    }

    #[test]
    fn and_candidates() {
        let i = idx();
        let q = QueryExpr::and([QueryExpr::term("banana"), QueryExpr::term("cherry")]);
        assert_eq!(candidates(&i, &q).unwrap(), vec![0, 1]);
    }

    #[test]
    fn or_candidates() {
        let i = idx();
        let q = QueryExpr::or([QueryExpr::term("apple"), QueryExpr::term("egg")]);
        assert_eq!(candidates(&i, &q).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn mixed_candidates() {
        let i = idx();
        // cherry AND (apple OR date) -> docs with cherry and either.
        let q = QueryExpr::and([
            QueryExpr::term("cherry"),
            QueryExpr::or([QueryExpr::term("apple"), QueryExpr::term("date")]),
        ]);
        assert_eq!(candidates(&i, &q).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scores_sum_over_present_terms() {
        let i = idx();
        let q = QueryExpr::or([QueryExpr::term("apple"), QueryExpr::term("banana")]);
        let hits = evaluate(&i, &q, 10).unwrap();
        // Doc 0 contains both -> its score is the sum of both term scores.
        let d0 = hits.iter().find(|h| h.doc == 0).unwrap();
        let apple_only = {
            let q = QueryExpr::term("apple");
            evaluate(&i, &q, 10)
                .unwrap()
                .into_iter()
                .find(|h| h.doc == 0)
                .unwrap()
                .score
        };
        assert!(d0.score > apple_only);
    }

    #[test]
    fn top_k_truncates_in_rank_order() {
        let i = idx();
        let q = QueryExpr::term("banana");
        let hits = evaluate(&i, &q, 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score >= hits[1].score);
        // Doc 4 has tf=3 and is the shortest banana-heavy doc.
        assert_eq!(hits[0].doc, 4);
    }

    #[test]
    fn unknown_term_is_error() {
        let i = idx();
        assert!(matches!(
            evaluate(&i, &QueryExpr::term("zzz"), 5),
            Err(Error::UnknownTerm { .. })
        ));
    }

    #[test]
    fn duplicate_term_counted_once() {
        let i = idx();
        let dup = QueryExpr::or([QueryExpr::term("apple"), QueryExpr::term("apple")]);
        let single = QueryExpr::term("apple");
        let h1 = evaluate(&i, &dup, 10).unwrap();
        let h2 = evaluate(&i, &single, 10).unwrap();
        assert_eq!(h1, h2);
    }
}
