//! Shard partitioning by docID interval (Section II-B: "the inverted
//! index is divided into multiple disjoint partitions, or *shards*,
//! according to the intervals of docIDs. Each leaf node holds a distinct
//! shard and operates only on its shard.").
//!
//! A [`ShardedIndex`] splits one logical corpus into `n` contiguous docID
//! intervals and builds an independent [`InvertedIndex`] per shard with
//! *local* docIDs. Leaf-node engines run unmodified on their shard; the
//! root merges their top-k lists after translating local hits back to
//! global docIDs via [`ShardedIndex::global_doc`].
//!
//! # Global scoring statistics
//!
//! Every shard is built with the **global** corpus statistics: the
//! parent's [`crate::Bm25`] scorer (global `N`, global `avgdl`), the
//! parent's per-term `idf`, and bit-copied slices of the parent's
//! per-document norms. Only the docIDs are local. A term's score for a
//! document is therefore the *same f32, bit for bit*, whether computed on
//! the shard or on the unsplit index — which is what makes a
//! scatter-gather merge of per-shard top-k lists exactly equal to the
//! single-device top-k at every shard count. Term ids stay in lexical
//! order on every shard (the same order the parent assigns), so engines
//! that sum term scores in ascending term-id order produce identical f32
//! sums on shard and parent alike.
//!
//! # No-panic contract
//!
//! Like the decode paths, the shard layer is driven by untrusted runtime
//! parameters (`--shards N` from a CLI); every failure must surface as a
//! typed [`Error`], never a panic.

use crate::index::IndexAssembler;
use crate::{
    DecodeScratch, DocId, Error, InvertedIndex, ListEncoder, QueryExpr, SchemeChoice, SearchHit,
};

/// Restricts `expr` to terms present in `shard`, or `None` when no
/// document of the shard can match:
///
/// * a `Term` absent from the shard vocabulary is `None`;
/// * an `And` with any `None` child is `None` (every document lives
///   in exactly one shard, so a locally-absent conjunct rules the
///   whole shard out);
/// * an `Or` drops `None` children (an absent disjunct contributes
///   nothing to any local document's score) and is `None` only when
///   all children are.
pub fn rewrite(shard: &InvertedIndex, expr: &QueryExpr) -> Option<QueryExpr> {
    match expr {
        QueryExpr::Term(t) => shard.term_id(t).ok().map(|_| expr.clone()),
        QueryExpr::And(subs) => {
            let mut kept = Vec::with_capacity(subs.len());
            for s in subs {
                kept.push(rewrite(shard, s)?);
            }
            Some(QueryExpr::And(kept))
        }
        QueryExpr::Or(subs) => {
            let kept: Vec<QueryExpr> = subs.iter().filter_map(|s| rewrite(shard, s)).collect();
            if kept.is_empty() {
                None
            } else {
                Some(QueryExpr::Or(kept))
            }
        }
    }
}

/// A corpus split into docID-interval shards.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<InvertedIndex>,
    /// Global docID base of each shard (ascending); shard `i` covers
    /// `[bases[i], bases[i+1])` (the last runs to the corpus end).
    bases: Vec<DocId>,
}

impl ShardedIndex {
    /// Splits `index` into `n_shards` contiguous docID intervals (the
    /// first `n_docs % n_shards` intervals hold one extra document, so no
    /// interval is ever empty) and rebuilds each shard as a standalone
    /// index carrying the global scoring statistics (see the module
    /// docs). `split(index, 1)` reproduces the parent index exactly.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidShardCount`] when `n_shards` is zero or exceeds
    /// the corpus size; otherwise propagates per-shard decode/encode
    /// failures.
    pub fn split(index: &InvertedIndex, n_shards: u32) -> Result<Self, Error> {
        let n_docs = index.n_docs();
        if n_shards == 0 || n_shards > n_docs {
            return Err(Error::InvalidShardCount { n_shards, n_docs });
        }
        let n = n_shards as usize;
        // Balanced interval widths: base + 1 for the first `rem` shards.
        let (width, rem) = (n_docs / n_shards, (n_docs % n_shards) as usize);
        let mut bases = Vec::with_capacity(n);
        let mut next = 0u32;
        for i in 0..n {
            bases.push(next);
            next += width + u32::from(i < rem);
        }

        let bm25 = *index.bm25();
        // The documents of each shard, as a range of global docIDs.
        let ends = bases[1..].iter().copied().chain([n_docs]);
        let spans: Vec<std::ops::Range<usize>> = (bases.iter().zip(ends))
            .map(|(&base, end)| base as usize..end as usize)
            .collect();
        // Each shard gets a store of its own: shards share nothing. A
        // shard holds at most the parent's terms, each list of it in no
        // more blocks or bytes than the parent's.
        let n_blocks = (index.total_meta_bytes() / crate::BLOCK_META_BYTES) as usize;
        let data_bytes = index.total_data_bytes() as usize;
        let mut parts: Vec<IndexAssembler> = (0..n)
            .map(|_| IndexAssembler::with_capacity(index.n_terms(), 0, n_blocks, data_bytes))
            .collect();

        // Walk terms in the parent's (lexical) id order so every shard
        // assigns ids in the same relative order as the parent.
        let mut scratch = DecodeScratch::new();
        let mut encoder = ListEncoder::new();
        let mut local: Vec<DocId> = Vec::new();
        for id in index.term_ids() {
            let info = index.term_info(id);
            index.list(id).decode_all_into(&mut scratch)?;
            let (docs, tfs) = (&scratch.docs, &scratch.tfs);
            let mut lo = 0usize;
            for (part, span) in parts.iter_mut().zip(&spans) {
                let hi = lo + docs[lo..].partition_point(|&d| (d as usize) < span.end);
                if hi > lo {
                    local.clear();
                    local.extend(docs[lo..hi].iter().map(|&d| d - span.start as DocId));
                    // The builder's default hybrid policy, under the
                    // *global* statistics — the parent's idf and a slice
                    // of the parent's norms, not shard-local ones: scores
                    // must be bit-identical to the unsplit index.
                    part.push(info.text, |store| {
                        encoder.encode_into(
                            store,
                            &local,
                            &tfs[lo..hi],
                            SchemeChoice::Hybrid,
                            &bm25,
                            info.idf,
                            &index.doc_norms()[span.clone()],
                        )
                    })?;
                }
                lo = hi;
            }
        }

        // Bit-copies of the parent's norms: shard scoring inputs are
        // identical to global scoring inputs.
        let shards = (parts.into_iter().zip(spans))
            .map(|(part, span)| {
                let norms = index.doc_norms()[span.clone()].to_vec();
                part.finish(norms, index.doc_lens()[span].to_vec(), bm25)
            })
            .collect();
        Ok(ShardedIndex { shards, bases })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard indexes, in docID-interval order.
    pub fn shards(&self) -> &[InvertedIndex] {
        &self.shards
    }

    /// One shard.
    ///
    /// Out-of-range `i` is clamped to the last shard (the split
    /// guarantees at least one).
    pub fn shard(&self, i: usize) -> &InvertedIndex {
        // `split` never constructs an empty shard list, so the clamp
        // always lands on a valid index.
        &self.shards[i.min(self.shards.len().saturating_sub(1))]
    }

    /// Mutable access to one shard — a corruption-harness hook, same
    /// contract as [`crate::EncodedList::data_mut`]: mutations made
    /// through it must surface as typed errors or bit-correct decodes on
    /// *that shard only*; sibling shards share no storage and must stay
    /// byte-identical to an unmutated split.
    ///
    /// Out-of-range `i` is clamped to the last shard, mirroring
    /// [`ShardedIndex::shard`].
    pub fn shard_mut(&mut self, i: usize) -> &mut InvertedIndex {
        let last = self.shards.len().saturating_sub(1);
        &mut self.shards[i.min(last)]
    }

    /// The global docID base of each shard, ascending.
    pub fn bases(&self) -> &[DocId] {
        &self.bases
    }

    /// [`Error::UnknownTerm`] for the first term of `expr` that no shard
    /// holds — the error the unsplit index's planner raises for it.
    ///
    /// # Errors
    ///
    /// As described.
    pub fn check_vocabulary(&self, expr: &QueryExpr) -> Result<(), Error> {
        for t in expr.terms() {
            if self.shards.iter().all(|s| s.term_id(t).is_err()) {
                return Err(Error::UnknownTerm {
                    term: t.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Translates a shard-local docID to the global docID. Out-of-range
    /// shard indices translate as the last shard.
    pub fn global_doc(&self, shard: usize, local: DocId) -> DocId {
        self.bases[shard.min(self.bases.len().saturating_sub(1))] + local
    }

    /// Merges per-shard hit lists — each already sorted by
    /// [`SearchHit::ranking_cmp`], as every engine returns them — into a
    /// global top-`k` via a k-way streaming merge, translating local
    /// docIDs to global ones.
    ///
    /// The merge order is a *total* order (score descending, global
    /// docID ascending; translated docIDs are globally unique), so the
    /// result is deterministic for any shard count and any tie pattern,
    /// and equals sorting the concatenation — without materializing it.
    pub fn merge_topk(&self, per_shard: &[Vec<SearchHit>], k: usize) -> Vec<SearchHit> {
        struct Head {
            hit: SearchHit,
            shard: usize,
            pos: usize,
        }
        impl PartialEq for Head {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for Head {}
        impl PartialOrd for Head {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Head {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // BinaryHeap is a max-heap; "greatest" must be the head
                // that ranks first, so compare in reverse ranking order.
                other.hit.ranking_cmp(&self.hit)
            }
        }

        let mut heap = std::collections::BinaryHeap::with_capacity(per_shard.len());
        for (s, hits) in per_shard.iter().enumerate() {
            if let Some(h) = hits.first() {
                heap.push(Head {
                    hit: SearchHit {
                        doc: self.global_doc(s, h.doc),
                        score: h.score,
                    },
                    shard: s,
                    pos: 0,
                });
            }
        }
        let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
        while out.len() < k {
            let Some(head) = heap.pop() else { break };
            out.push(head.hit);
            if let Some(h) = per_shard[head.shard].get(head.pos + 1) {
                heap.push(Head {
                    hit: SearchHit {
                        doc: self.global_doc(head.shard, h.doc),
                        score: h.score,
                    },
                    shard: head.shard,
                    pos: head.pos + 1,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::reference;
    use crate::{IndexBuilder, QueryExpr};

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..300)
            .map(|i| {
                let mut t = String::from("base");
                if i % 2 == 0 {
                    t.push_str(" even");
                }
                if i % 3 == 0 {
                    t.push_str(" three three");
                }
                if i < 3 {
                    t.push_str(" rare");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    #[test]
    fn rewrite_drops_absent_or_children_and_kills_absent_and() {
        let idx = corpus();
        // "rare" lives only in docs 0..3, i.e. only in shard 0 of 4.
        let sh = ShardedIndex::split(&idx, 4).unwrap();
        let last = sh.shard(3);
        let and = QueryExpr::and([QueryExpr::term("even"), QueryExpr::term("rare")]);
        assert_eq!(rewrite(last, &and), None);
        let or = QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("rare")]);
        assert_eq!(
            rewrite(last, &or),
            Some(QueryExpr::Or(vec![QueryExpr::term("even")]))
        );
        let first = sh.shard(0);
        assert_eq!(rewrite(first, &and), Some(and));
    }

    #[test]
    fn split_preserves_documents_and_postings() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        assert_eq!(sharded.n_shards(), 4);
        let total_docs: u32 = sharded.shards().iter().map(InvertedIndex::n_docs).sum();
        assert_eq!(total_docs, idx.n_docs());
        // Postings conserved per term.
        for term in ["even", "three", "base"] {
            let global_df = idx.term_info(idx.term_id(term).unwrap()).df;
            let shard_df: u32 = sharded
                .shards()
                .iter()
                .filter_map(|s| s.term_id(term).ok().map(|id| s.term_info(id).df))
                .sum();
            assert_eq!(shard_df, global_df, "{term}");
        }
    }

    #[test]
    fn local_docids_translate_back() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 3).unwrap();
        // Reconstruct the global posting list of "even" from the shards.
        let mut global = Vec::new();
        for (si, shard) in sharded.shards().iter().enumerate() {
            if let Ok(id) = shard.term_id("even") {
                let (docs, _) = shard.list(id).decode_all().unwrap();
                global.extend(docs.into_iter().map(|d| sharded.global_doc(si, d)));
            }
        }
        let expect: Vec<u32> = (0..300).filter(|d| d % 2 == 0).collect();
        assert_eq!(global, expect);
    }

    #[test]
    fn shard_scores_are_bit_identical_to_global() {
        let idx = corpus();
        for n in [1u32, 2, 3, 4, 7] {
            let sharded = ShardedIndex::split(&idx, n).unwrap();
            let q = QueryExpr::and([QueryExpr::term("even"), QueryExpr::term("three")]);
            let global = reference::evaluate(&idx, &q, 1000).unwrap();
            let mut per_shard = Vec::new();
            for shard in sharded.shards() {
                match reference::evaluate(shard, &q, 1000) {
                    Ok(hits) => per_shard.push(hits),
                    Err(Error::UnknownTerm { .. }) => per_shard.push(Vec::new()),
                    Err(e) => panic!("{e}"),
                }
            }
            let merged = sharded.merge_topk(&per_shard, 1000);
            // Exact equality — docIDs *and* f32 scores — because shards
            // carry the global BM25 statistics.
            assert_eq!(merged, global, "{n} shards");
        }
    }

    #[test]
    fn single_shard_split_reproduces_parent_lists() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 1).unwrap();
        let shard = sharded.shard(0);
        assert_eq!(shard.n_docs(), idx.n_docs());
        assert_eq!(shard.n_terms(), idx.n_terms());
        assert_eq!(shard.doc_norms(), idx.doc_norms());
        assert_eq!(shard.bm25(), idx.bm25());
        for id in idx.term_ids() {
            assert_eq!(shard.term_info(id), idx.term_info(id));
            assert_eq!(shard.list(id), idx.list(id), "term id {id}");
        }
    }

    #[test]
    fn uneven_split_is_balanced_with_no_empty_shard() {
        let docs: Vec<String> = (0u32..10).map(|_| "tok".to_string()).collect();
        let idx = IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        let sizes: Vec<u32> = sharded.shards().iter().map(InvertedIndex::n_docs).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(sharded.bases(), &[0, 3, 6, 8]);
    }

    #[test]
    fn merge_topk_ranks_globally() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 2).unwrap();
        let a = vec![
            SearchHit { doc: 0, score: 3.0 },
            SearchHit { doc: 5, score: 1.0 },
        ];
        let b = vec![SearchHit { doc: 0, score: 2.0 }];
        let merged = sharded.merge_topk(&[a, b], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].doc, 0);
        assert!(merged[1].doc >= 150, "shard-1 hit translated past the base");
    }

    #[test]
    fn merge_topk_breaks_score_ties_by_global_doc() {
        let idx = corpus();
        let sharded = ShardedIndex::split(&idx, 3).unwrap();
        // Identical scores everywhere: order must be global docID order.
        let per_shard: Vec<Vec<SearchHit>> = (0..3)
            .map(|_| (0..4).map(|d| SearchHit { doc: d, score: 1.0 }).collect())
            .collect();
        let merged = sharded.merge_topk(&per_shard, 9);
        let docs: Vec<u32> = merged.iter().map(|h| h.doc).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        assert_eq!(docs, sorted, "ties resolve by ascending global docID");
        assert_eq!(docs.len(), 9);
    }

    #[test]
    fn invalid_shard_counts_are_typed_errors() {
        let idx = corpus();
        assert!(matches!(
            ShardedIndex::split(&idx, 0),
            Err(Error::InvalidShardCount {
                n_shards: 0,
                n_docs: 300
            })
        ));
        assert!(matches!(
            ShardedIndex::split(&idx, 301),
            Err(Error::InvalidShardCount {
                n_shards: 301,
                n_docs: 300
            })
        ));
    }
}
