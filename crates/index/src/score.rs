//! Block-at-a-time BM25 scoring kernel.
//!
//! [`Bm25::score_block`] scores a whole decoded posting block in one pass:
//! the term's `idf` and the `k1 + 1` saturation factor are hoisted out of
//! the loop, document norms are gathered from the precomputed
//! [`crate::InvertedIndex::doc_norms`] table, and the per-posting body is
//! branchless (the BM25 `tf / (tf + K)` form saturates arithmetically).
//!
//! The kernel is wall-clock only: it evaluates *exactly* the expression of
//! [`Bm25::term_score`] — `idf * (tf * (k1 + 1)) / (tf + norm)` — with the
//! same f32 operation order per posting, so results are bit-identical to
//! the scalar path. Hoisting `k1 + 1.0` is safe because it is a pure
//! function of `k1` and yields the identical f32 value every iteration.

use crate::{Bm25, DocId};

/// Reusable output buffer for [`Bm25::score_block`].
///
/// Holding one of these per worker/core amortizes the allocation across
/// every block of every query.
#[derive(Debug, Default, Clone)]
pub struct ScoreScratch {
    scores: Vec<f32>,
    norm_gather: Vec<f32>,
}

impl ScoreScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ScoreScratch::default()
    }

    /// The scores written by the last [`Bm25::score_block`] call.
    #[inline]
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }
}

impl Bm25 {
    /// Scores a decoded block of postings in one pass, writing one score
    /// per posting into `out` (previous contents are discarded).
    ///
    /// `norms` is the full per-document norm table
    /// ([`crate::InvertedIndex::doc_norms`]); the kernel gathers
    /// `norms[doc]` itself. Results are bit-identical to calling
    /// [`Bm25::term_score`] per posting.
    ///
    /// # Panics
    ///
    /// Panics if `docs` and `tfs` differ in length, or if a docID is out
    /// of range of the norm table.
    pub fn score_block(
        &self,
        idf: f32,
        docs: &[DocId],
        tfs: &[u32],
        norms: &[f32],
        out: &mut ScoreScratch,
    ) {
        assert_eq!(docs.len(), tfs.len(), "docID / tf streams must align");
        let k1p1 = self.params().k1 + 1.0;
        let ScoreScratch {
            scores,
            norm_gather,
        } = out;
        // Pass 1: gather the norms. Keeping the indexed load in its own
        // pass leaves the arithmetic pass free of bounds checks, so the
        // divide can vectorize.
        norm_gather.clear();
        norm_gather.extend(docs.iter().map(|&doc| norms[doc as usize]));
        // Pass 2: same expression shape as `term_score`, with `idf` and
        // `k1 + 1` loop-invariant; the divide keeps the scalar operand
        // order per posting (IEEE division is exactly rounded, so lane
        // width cannot change the bits).
        scores.clear();
        scores.reserve(tfs.len());
        scores.extend(tfs.iter().zip(norm_gather.iter()).map(|(&tf, &norm)| {
            let tf = tf as f32;
            idf * (tf * k1p1) / (tf + norm)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bm25Params;

    #[test]
    fn matches_term_score_bitwise() {
        let s = Bm25::new(Bm25Params::default(), 1000, 97.5);
        let norms: Vec<f32> = (0..1000).map(|d| s.doc_norm(10 + (d * 7) % 300)).collect();
        let docs: Vec<u32> = (0..128).map(|i| i * 7 + 3).collect();
        let tfs: Vec<u32> = (0..128).map(|i| 1 + (i * 13) % 40).collect();
        let idf = s.idf(37);
        let mut out = ScoreScratch::new();
        s.score_block(idf, &docs, &tfs, &norms, &mut out);
        assert_eq!(out.scores().len(), 128);
        for ((&d, &tf), &got) in docs.iter().zip(&tfs).zip(out.scores()) {
            let want = s.term_score(idf, tf, norms[d as usize]);
            assert_eq!(got.to_bits(), want.to_bits(), "doc {d}");
        }
    }

    #[test]
    fn empty_block_scores_nothing() {
        let s = Bm25::new(Bm25Params::default(), 10, 5.0);
        let mut out = ScoreScratch::new();
        out.scores.push(1.0); // stale content must be discarded
        s.score_block(1.0, &[], &[], &[1.0; 10], &mut out);
        assert!(out.scores().is_empty());
    }
}
